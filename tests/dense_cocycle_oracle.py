"""The dense F_p solve that `frattini._cocycle_space` replaced, kept as an
independent route for the tests.

Each relator's |G| m equations are written into a dense int64 block, and
the block is folded into the running echelon form by `la.rref`; the answer
is `la.nullspace` of that form.  Nothing here uses `la.SparseNullspace`.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from mtower import linalg as la


def dense_cocycle_space(P, M):
    """(edge labels, relator tails, label index table), as _cocycle_space."""
    G, p, m, n, s = M.group, M.p, M.dim, M.group.order, len(P.relators)
    nl = (n * (P.ngens - 1) + 1) * m
    right = [np.array([G.mul(g, x) for g in range(n)]) for x in G.gen_indices]
    left = [np.argsort(r) for r in right]
    inv_mats = [M._invert(A) for A in M.mats]
    tree = set(G._parents[1:])
    col = np.full((n, P.ngens), -1)
    for k, e in enumerate(e for e in product(range(n), range(P.ngens))
                          if e not in tree):
        col[e] = k
    ar = np.arange(m)
    rows = np.arange(n)[:, None, None] * m + ar
    red = np.zeros((0, nl + s * m), dtype=np.int64)
    for ri, rel in enumerate(P.relators):
        eqs = np.zeros((n * m, nl + s * m), dtype=np.int64)
        eqs[rows[:, 0], nl + ri * m + ar] = -1
        suffix, coeffs = la.identity(m), []
        for letter in reversed(rel):
            if letter > 0:
                coeffs.append(suffix)
                suffix = la.matmul(M.mats[letter - 1], suffix, p)
            else:
                suffix = la.matmul(inv_mats[-letter - 1], suffix, p)
                coeffs.append(-suffix)
        at = np.arange(n)
        for letter, K in zip(rel, reversed(coeffs)):
            i = abs(letter) - 1
            if letter > 0:
                blk, at = col[at, i], right[i][at]
            else:
                at = left[i][at]
                blk = col[at, i]
            hit = blk >= 0
            np.add.at(eqs, (rows[hit], blk[hit][:, None, None] * m + ar[:, None]), K)
        assert (at == np.arange(n)).all()
        red, _ = la.rref(np.vstack([red, eqs]), p)
    sol = la.nullspace(red, p)
    return sol[:, :nl], sol[:, nl:], col
