"""Replaced module routes, kept as oracles.

- The dense route to End_{F_p[G]}(M), as `gmodules.endomorphism_basis`
  computed it before it fed its equations to `linalg.SparseNullspace`: one
  `np.kron` block per generator, solved by the dense `linalg.nullspace`.
- The submodule lattice: radical, socle and semisimple labels as
  `gmodules` found them before one simple-submodule search served all three.
- The Loewy arrows that `gmodules.loewy_layers` computed and no report
  read: the head and socle labels of each indecomposable summand of each
  two-layer subquotient of the radical series.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from mtower import gmodules as gm
from mtower import linalg as la


def endomorphism_basis(M) -> np.ndarray:
    """Basis (rows, row-major-vectorized) of End_{F_p[G]}(M)."""
    n = M.dim
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    blocks = []
    ident = la.identity(n)
    for A in M.mats:
        # rows: equations (XA - AX)_{ij} = 0; columns: vec(X) row-major.
        # d/dX_kl: delta_{ik} A_{lj} - delta_{jl} A_{ik}  (Kronecker form)
        eqs = (np.kron(ident, A.T) - np.kron(A, ident)) % M.p
        blocks.append(eqs)
    system = np.concatenate(blocks, axis=0)
    return la.nullspace(system, M.p)


# -- the submodule lattice ------------------------------------------------------
# `gmodules.radical`, `socle` and `_semisimple_factors` as they were before they
# read one simple-submodule search: every submodule enumerated, the radical
# as the intersection of the maximal ones, the socle as the sum of the
# minimal ones, and semisimple labels by quotienting out a smallest cyclic
# submodule at a time.


def all_submodules(M) -> list[np.ndarray]:
    """Every submodule (as rref basis), including 0 and M.

    Cyclic submodules from spinning each projective vector, closed under
    pairwise sums."""
    found: dict[bytes, np.ndarray] = {}
    zero = np.zeros((0, M.dim), dtype=np.int64)
    found[_span_key(zero, M.p)] = zero
    for v in gm._canonical_vectors(M.dim, M.p):
        sub = gm.spin(M, v)
        found.setdefault(_span_key(sub, M.p), sub)
    while True:
        items = list(found.values())
        added = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                s = np.concatenate([items[i], items[j]])
                red, _ = la.rref(s, M.p)
                key = _span_key(red, M.p)
                if key not in found:
                    found[key] = red
                    added = True
        if not added:
            return sorted(found.values(), key=lambda b: (b.shape[0], b.tobytes()))


def _span_key(rows: np.ndarray, p: int) -> bytes:
    """Canonical hashable key for the row space spanned by `rows`."""
    red, _ = la.rref(rows, p)
    return red.astype(np.int64).tobytes() + bytes([red.shape[0]])


def radical(M, subs=None) -> np.ndarray:
    """rad M = intersection of the maximal submodules (rref basis); `subs`
    is all_submodules(M), when the caller has it."""
    subs = [s for s in (subs or all_submodules(M)) if s.shape[0] < M.dim]
    maximal = []
    for s in subs:
        if not any(t is not s and s.shape[0] < t.shape[0]
                   and _contains(t, s, M.p) for t in subs):
            maximal.append(s)
    if not maximal:
        return np.zeros((0, M.dim), dtype=np.int64)
    inter = maximal[0]
    for s in maximal[1:]:
        inter = _intersect(inter, s, M.p)
    return inter


def socle(M, subs=None) -> np.ndarray:
    """soc M = sum of the minimal submodules (rref basis); `subs` as in
    radical."""
    subs = [s for s in (subs or all_submodules(M)) if s.shape[0] > 0]
    minimal = [s for s in subs
               if not any(t.shape[0] > 0 and t.shape[0] < s.shape[0]
                          and _contains(s, t, M.p) for t in subs)]
    if not minimal:
        return np.zeros((0, M.dim), dtype=np.int64)
    acc = minimal[0]
    for s in minimal[1:]:
        acc, _ = la.rref(np.concatenate([acc, s]), M.p)
    return acc


def _contains(big: np.ndarray, small: np.ndarray, p: int) -> bool:
    red, piv = la.rref(big, p)
    for v in small:
        v = la.asmod(v, p).copy()
        for r, c in enumerate(piv):
            if v[c]:
                v = (v - v[c] * red[r]) % p
        if v.any():
            return False
    return True


def _intersect(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    stacked = np.concatenate([a, b])
    rels = la.nullspace(stacked.T, p)  # combos summing to zero
    vecs = la.matmul(rels[:, :a.shape[0]], a, p) if rels.shape[0] else \
        np.zeros((0, a.shape[1]), dtype=np.int64)
    red, _ = la.rref(vecs, p)
    return red


def semisimple_factors(M) -> list[tuple]:
    """Labels of the simple summands of a semisimple module: a smallest
    cyclic submodule is split off, and the rest is its quotient."""
    out = []
    current = M
    while current.dim > 0:
        best = None
        for v in gm._canonical_vectors(current.dim, current.p):
            sub = gm.spin(current, v)
            if best is None or sub.shape[0] < best.shape[0] or (
                    sub.shape[0] == best.shape[0] and sub.tobytes() < best.tobytes()):
                best = sub
            if sub.shape[0] == 1:
                break
        assert best is not None
        out.append(gm.submodule_module(current, best).fingerprint())
        current, _ = gm.quotient_module(current, best)
    return sorted(out)


def loewy_arrows(M) -> list[list[tuple]]:
    """Edges between consecutive socle-first Loewy layers of M: for each
    two-layer subquotient T = rad^j M / rad^{j+2} M, every head label to
    every socle label of a common indecomposable summand S of T, where
    rad S = S cap rad T and rad T is the image of rad^{j+1} M."""
    filtration = [la.identity(M.dim)]
    current = M
    while (rad := gm.radical(current)).shape[0]:
        filtration.append(la.matmul(rad, filtration[-1], M.p))
        current = gm.submodule_module(M, filtration[-1])
    arrows = []
    L = len(filtration)
    for top in reversed(range(L - 1)):
        upper = filtration[top]
        lower_in_upper = (la.solve_right(upper, filtration[top + 2], M.p)
                          if top + 2 < L else np.zeros((0, upper.shape[0]), dtype=np.int64))
        two_layer, proj = gm.quotient_module(gm.submodule_module(M, upper), lower_in_upper)
        rad_two = la.matmul(la.solve_right(upper, filtration[top + 1], M.p), proj, M.p)
        pairs = set()
        for piece in gm.indecomposable_summands(two_layer):
            rad_piece = _intersect(piece, rad_two, M.p)
            if rad_piece.shape[0]:
                pairs.update(product(
                    gm._semisimple_factors(gm.submodule_module(two_layer, rad_piece)),
                    gm._semisimple_factors(gm._subquotient(two_layer, piece, rad_piece))))
        arrows.append(sorted(pairs))
    return arrows
