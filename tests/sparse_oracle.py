"""The sparse F_p nullspace as it was before `linalg.sparse_nullspace`,
kept as an oracle: a class fed {unknown: value} dict rows as they come
(`sparse_rows` makes them from COO triples), which keeps its waiting rows
in a dict with watch lists per unknown and pops each unknown out of a
waiting row as it is expressed.  Both give exactly `linalg.nullspace`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from mtower.linalg import inv_scalar, rref, zeros


class SparseNullspace:
    """Nullspace over F_p of a sparse system of linear forms, fed rows as
    they come; nullspace() returns exactly nullspace(M, p) of the matrix M of
    all rows added.

    Structured Gaussian elimination, after LaMacchia & Odlyzko: each unknown
    is expressed as a combination of a few "symbol" unknowns.  A row with
    one unexpressed unknown left expresses it (singleton-first pivoting,
    which makes no fill-in and peels a Cayley-graph system almost entirely);
    a row with none left is a constraint on the symbols; a row with more
    waits until all but one of its unknowns are expressed.  When only such
    rows are left, the unknown in the most rows becomes a new symbol.
    Vectors over the symbols are Python-int bitsets at p = 2 (bit-packed
    rows, as in M4RI) and {symbol: value} dicts at odd p.  Constraints are
    reduced as they arrive, so the one dense step is the canonical form of
    the (nullity x ncols) answer.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols, self.p = ncols, p
        self.expr: dict = {}                   # unknown -> vector over symbols
        self.nsym = 0
        self.count = [0] * ncols               # rows each unknown occurs in
        self.ids = list(range(ncols))          # int objects the waiting rows share
        self.waiting: dict[int, list] = {}     # row id -> [vector, {unknown: coef}]
        self.watch: dict[int, list[int]] = {}  # unknown -> waiting row ids
        self.next_id = 0
        self.cons: dict = {}                   # lowest symbol -> constraint, 1 there

    @staticmethod
    def predicted_bytes(ncols: int, nentries: int, p: int) -> int:
        """Upper bound on the memory for ncols unknowns and nentries nonzero
        entries: the waiting rows, and a vector over at most ncols symbols
        per unknown and per constraint."""
        vec = ncols // 8 + 64 if p == 2 else ncols * 40
        return 2 * ncols * vec + nentries * 160

    def add(self, rows) -> None:
        """Fold in rows given as {unknown: value} dicts."""
        p, expr, count, ids = self.p, self.expr, self.count, self.ids
        for row in rows:
            vec, unk = (0 if p == 2 else {}), {}
            for c, a in row.items():
                a %= p
                if a:
                    count[c] += 1
                    e = expr.get(c)
                    if e is None:
                        unk[ids[c]] = a
                    else:
                        vec = self._axpy(vec, a, e)
            if len(unk) > 1:
                self.waiting[self.next_id] = [vec, unk]
                for c in unk:
                    self.watch.setdefault(c, []).append(self.next_id)
                self.next_id += 1
            else:
                self._propagate(self._settle(vec, unk))

    def nullspace(self) -> np.ndarray:
        """Basis of {v : v @ M.T == 0}, exactly as nullspace(M, p) gives it."""
        by_rows = np.argsort(-np.array(self.count), kind="stable").tolist()
        for c in by_rows:
            if not self.waiting:
                break
            if c not in self.expr:
                self.expr[c] = self._symbol()
                self._propagate(c)
        for c in range(self.ncols):
            if c not in self.expr:
                self.expr[c] = self._symbol()
        p, expr, out = self.p, self.expr, []
        for y in self._symbol_nullspace():
            if p == 2:
                out.append([(expr[c] & y).bit_count() & 1 for c in range(self.ncols)])
            else:
                out.append([sum(v * y.get(s, 0) for s, v in expr[c].items()) % p
                            for c in range(self.ncols)])
        if not out:
            return zeros(0, self.ncols)
        # nullspace(M)'s row for free column f is 0 past f but at f, so its
        # rows reversed, on reversed columns, are the RREF of any basis
        red, _ = rref(np.array(out, dtype=np.int64)[:, ::-1], p)
        return np.ascontiguousarray(red[::-1, ::-1])

    # -- vectors over the symbols ---------------------------------------------

    def _symbol(self):
        self.nsym += 1
        return 1 << (self.nsym - 1) if self.p == 2 else {self.nsym - 1: 1}

    def _axpy(self, v, a: int, w):
        """v + a w."""
        p = self.p
        if p == 2:
            return v ^ w
        out = dict(v)
        for s, x in w.items():
            y = (out.get(s, 0) + a * x) % p
            if y:
                out[s] = y
            else:
                del out[s]
        return out

    def _scale(self, v, a: int):
        return v if self.p == 2 else {s: x * a % self.p for s, x in v.items()}

    # -- elimination -------------------------------------------------------------

    def _settle(self, vec, unk: dict) -> int | None:
        """A row with at most one unexpressed unknown: express it and return
        it, or constrain the symbols."""
        if unk:
            (u, a), = unk.items()
            e = self.expr.get(u)
            if e is None:
                self.expr[u] = self._scale(vec, -inv_scalar(a, self.p) % self.p)
                return u
            vec = self._axpy(vec, a, e)
        self._constrain(vec)
        return None

    def _propagate(self, u: int | None) -> None:
        """Substitute the newly expressed u into the waiting rows, and so on
        for every unknown that this expresses in turn."""
        stack = [] if u is None else [u]
        while stack:
            u = stack.pop()
            e = self.expr[u]
            for rid in self.watch.pop(u, ()):
                row = self.waiting.get(rid)
                if row is None:
                    continue
                row[0] = self._axpy(row[0], row[1].pop(u), e)
                if len(row[1]) <= 1:
                    del self.waiting[rid]
                    w = self._settle(*row)
                    if w is not None:
                        stack.append(w)

    def _constrain(self, vec) -> None:
        p, cons = self.p, self.cons
        while vec:
            s = (vec & -vec).bit_length() - 1 if p == 2 else min(vec)
            row = cons.get(s)
            if row is None:
                cons[s] = self._scale(vec, 1 if p == 2 else inv_scalar(vec[s], p))
                return
            vec = self._axpy(vec, 1 if p == 2 else p - vec[s], row)

    def _symbol_nullspace(self) -> list:
        """Null vectors of the constraints, one per free symbol f: f set and
        the pivots below f back-substituted."""
        p, cons = self.p, self.cons
        up = sorted(cons)
        out = []
        for f in range(self.nsym):
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


def sparse_rows(eq: np.ndarray, unk: np.ndarray, val: np.ndarray, nrows: int,
                ncols: int) -> list[dict[int, int]]:
    """The rows of the (eq, unk, val) triples, repeated entries summed, as
    {unknown: value} dicts in equation order."""
    keys, where = np.unique(eq * ncols + unk, return_inverse=True)
    sums = np.bincount(where, weights=val).astype(np.int64)
    starts = np.searchsorted(keys // ncols, np.arange(nrows + 1))
    cols, vals = (keys % ncols).tolist(), sums.tolist()
    return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(starts, starts[1:])]
