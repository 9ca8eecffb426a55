"""Dense linear algebra over F_p with numpy int64 arrays.

All matrices act on ROW vectors from the right (v -> v @ A), matching the
right-module conventions used throughout the package.
"""

from __future__ import annotations

import numpy as np


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


def row_space_contains(basis_rref: np.ndarray, pivots: list[int], v: np.ndarray, p: int) -> bool:
    v = asmod(v, p).copy()
    for r, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * basis_rref[r]) % p
    return not v.any()


def span_key(rows: np.ndarray, p: int) -> bytes:
    """Canonical hashable key for the row space spanned by `rows`."""
    red, _ = rref(rows, p)
    return red.astype(np.int64).tobytes() + bytes([red.shape[0]])


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
