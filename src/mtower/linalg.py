"""Linear algebra over F_p: dense, with numpy int64 arrays, and one sparse
nullspace kernel (sparse_nullspace, fed COO triples) for large sparse systems.

All matrices act on ROW vectors from the right (v -> v @ A), matching the
right-module conventions used throughout the package.
"""

from __future__ import annotations

from bisect import bisect_left

from . import np


def asmod(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p


def inv_scalar(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list).

    Zero rows are dropped, so R has full row rank.
    """
    a = asmod(mat, p)
    if a.size == 0:
        return a.reshape(0, mat.shape[1] if mat.ndim == 2 else 0), []
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * inv_scalar(a[r, c], p)) % p
        # row r is zero left of c, so only columns c.. change
        mask = np.nonzero(a[:, c])[0]
        mask = mask[mask != r]
        a[mask, c:] = (a[mask, c:] - np.outer(a[mask, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {v : v @ mat.T == 0}, i.e. the row-vector kernel of v -> v A^T.

    Interprets `mat` as a system of linear forms (one per row) on vectors of
    length mat.shape[1]; returns rows spanning the solution space.
    """
    mat = asmod(mat, p)
    rows, cols = mat.shape if mat.size else (0, mat.shape[1])
    if rows == 0:
        return identity(cols)
    red, pivots = rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(len(free), cols)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-red[r, fc]) % p
    return basis


def sparse_nullspace(eq, unk, val, nrows: int, ncols: int, p: int) -> np.ndarray:
    """Basis of {v : v @ M.T == 0}, exactly as nullspace(M, p) gives it, for
    the nrows x ncols matrix M whose entry (i, j) is the sum of the values
    `val` at the (eq, unk) pairs (i, j).

    Structured Gaussian elimination, after LaMacchia & Odlyzko: each unknown
    is expressed as a combination of a few "symbol" unknowns.  Every row
    counts its unknowns whose expressions it has not yet taken in.  When an
    unknown is expressed, its column is walked: each live row in it adds
    the expression into its accumulator and counts down.  At count 1 the
    row expresses its last unknown (singleton-first pivoting, which makes no
    fill-in and peels a Cayley-graph system almost entirely); at count 0 it
    is a constraint on the symbols.  When only rows of count 2 or more are
    left, the unknown in the most rows becomes a new symbol.  Vectors over
    the symbols are Python-int bitsets at p = 2 (bit-packed rows, as in
    M4RI) and {symbol: value} dicts at odd p.  Constraints are reduced as
    they arrive, so the one dense step is the canonical form of the
    (nullity x ncols) answer.
    """
    # repeated entries summed mod p once, in column-major order
    key = np.asarray(unk, dtype=np.int64) * nrows + eq
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    sums = np.bincount(np.cumsum(new) - 1, weights=np.asarray(val)[order] % p)
    sums = sums.astype(np.int64) % p
    cols, rows = np.divmod(key[new][sums != 0], nrows)
    sums = sums[sums != 0]
    in_col = np.bincount(cols, minlength=ncols)
    cptr = [0] + np.cumsum(in_col).tolist()
    crow, cval = rows.tolist(), sums.tolist()
    # per row: its unknowns not yet taken in, their number and the sums of
    # their indices and values, which at count 1 are the last one's
    count = np.bincount(rows, minlength=nrows).tolist()
    last = np.bincount(rows, weights=cols, minlength=nrows).astype(np.int64).tolist()
    coef = np.bincount(rows, weights=sums, minlength=nrows).astype(np.int64).tolist()
    del key, order, new, sums, cols, rows
    acc = [0] * nrows if p == 2 else [{} for _ in range(nrows)]
    expr: list = [None] * ncols                   # unknown -> vector over symbols
    cons: dict = {}                               # lowest symbol -> constraint, 1 there
    taken: set = set()                            # the p = 2 constraints met so far
    live, nsym, two = sum(map(bool, count)), 0, p == 2

    def settle(r: int) -> int | None:
        """Row r at count 1 expresses its last unknown and returns it, unless
        that unknown is expressed already: its walk makes r a constraint."""
        nonlocal live
        w = last[r]
        if expr[w] is not None:
            return None
        count[r], live = 0, live - 1
        expr[w] = acc[r] if two else _scale(acc[r], -inv_scalar(coef[r], p) % p, p)
        return w

    def walk(stack: list) -> None:
        nonlocal live
        while stack:
            u = stack.pop()
            e, a, b = expr[u], cptr[u], cptr[u + 1]
            for r, x in zip(crow[a:b], cval[a:b]):
                c = count[r]
                if not c:
                    continue
                if two:
                    acc[r] ^= e
                else:
                    _axpy(acc[r], x, e, p)
                    coef[r] -= x
                last[r] -= u
                count[r] = c - 1
                if c == 2 and (w := settle(r)) is not None:
                    stack.append(w)
                elif c == 1:
                    live -= 1
                    if acc[r] and (not two or acc[r] not in taken):
                        if two:
                            taken.add(acc[r])
                        _constrain(cons, acc[r], p)

    def symbol():
        nonlocal nsym
        nsym += 1
        return 1 << (nsym - 1) if p == 2 else {nsym - 1: 1}

    walk([w for r in range(nrows) if count[r] == 1 and (w := settle(r)) is not None])
    for c in np.argsort(-in_col, kind="stable").tolist():
        if not live:
            break
        if expr[c] is None:
            expr[c] = symbol()
            walk([c])
    expr = [symbol() if e is None else e for e in expr]
    ys = _symbol_nullspace(cons, nsym, p)
    if not ys:
        return zeros(0, ncols)
    if p == 2:
        out = [[(e & y).bit_count() & 1 for e in expr] for y in ys]
    else:
        out = [[sum(v * y.get(s, 0) for s, v in e.items()) % p for e in expr] for y in ys]
    # nullspace(M)'s row for free column f is 0 past f but at f, so its
    # rows reversed, on reversed columns, are the RREF of any basis
    red, _ = rref(np.array(out, dtype=np.int64)[:, ::-1], p)
    return np.ascontiguousarray(red[::-1, ::-1])


def _axpy(v: dict, a: int, w: dict, p: int) -> dict:
    """v += a w, in place, for vectors as {symbol: value} dicts."""
    for s, x in w.items():
        y = (v.get(s, 0) + a * x) % p
        if y:
            v[s] = y
        else:
            del v[s]
    return v


def _scale(v: dict, a: int, p: int) -> dict:
    return {s: x * a % p for s, x in v.items()}


def _constrain(cons: dict, vec, p: int) -> None:
    """Reduce vec by the constraints (keyed by their lowest symbol, with 1
    there) and add what is left as a new one."""
    while vec:
        s = (vec & -vec).bit_length() - 1 if p == 2 else min(vec)
        row = cons.get(s)
        if row is None:
            cons[s] = vec if p == 2 else _scale(vec, inv_scalar(vec[s], p), p)
            return
        vec = vec ^ row if p == 2 else _axpy(dict(vec), p - vec[s], row, p)


def _symbol_nullspace(cons: dict, nsym: int, p: int) -> list:
    """Null vectors of the constraints, one per free symbol f: f set and
    the pivots below f back-substituted."""
    up = sorted(cons)
    out = []
    for f in range(nsym):
        if f in cons:
            continue
        y = 1 << f if p == 2 else {f: 1}
        for s in reversed(up[:bisect_left(up, f)]):
            if p == 2:
                if (cons[s] & y).bit_count() & 1:
                    y |= 1 << s
            else:
                t = -sum(v * y.get(j, 0) for j, v in cons[s].items()) % p
                if t:
                    y[s] = t
        out.append(y)
    return out


def sparse_nullspace_bytes(ncols: int, nentries: int, p: int) -> int:
    """Upper bound on the memory of sparse_nullspace for ncols unknowns and
    nentries nonzero entries: the index lists, and a vector over at most
    ncols symbols per unknown and per constraint."""
    vec = ncols // 8 + 64 if p == 2 else ncols * 40
    return 2 * ncols * vec + nentries * 160


def solve_right(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution X of X @ a = b (rows of b solved independently), or None."""
    a = asmod(a, p)
    b = asmod(b, p)
    aug = np.concatenate([a, identity(a.shape[0])], axis=1)
    red, piv = rref(aug, p)
    n = a.shape[1]
    xs = []
    for row in b:
        v = row.copy()
        coeff = np.zeros(a.shape[0], dtype=np.int64)
        for r, c in enumerate(piv):
            if c >= n:
                continue
            if v[c]:
                f = v[c]
                v = (v - f * red[r, :n]) % p
                coeff = (coeff + f * red[r, n:]) % p
        if v.any():
            return None
        xs.append(coeff)
    return np.array(xs, dtype=np.int64)


def vec_int(v: np.ndarray, p: int) -> int:
    """Pack an F_p vector into an int (base-p, index 0 least significant)."""
    out = 0
    for x in reversed(np.asarray(v, dtype=np.int64) % p):
        out = out * p + int(x)
    return out


def int_vec(k: int, dim: int, p: int) -> np.ndarray:
    out = np.zeros(dim, dtype=np.int64)
    for i in range(dim):
        out[i] = k % p
        k //= p
    return out


def all_vectors(dim: int, p: int):
    """Yield all p^dim vectors in base-p counting order."""
    for k in range(p ** dim):
        yield int_vec(k, dim, p)
