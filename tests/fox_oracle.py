"""The coboundary tails by Fox derivatives, as `gmodules` computed them
before `frattini._cocycle_space` read them off its own relator walk; kept
as an independent route for the tests.

Each relator is evaluated in the split extension G x| M on the generators
lifted by one basis vector at a time, so no letter matrix of the solve is
reused.
"""

from __future__ import annotations

import numpy as np

from mtower import linalg as la
from mtower.errors import DimensionMismatch


def fox_matrix(P, M) -> np.ndarray:
    """Linear map M^d -> M^s of lift-change on relator tails.

    Block (i, j) is the free derivative of relator i by generator j pushed
    through the module action; computed by evaluating each relator on lifted
    generators (x_j, m_j) in the split extension, which avoids convention
    slips.  Returns an (s*dim) x (d*dim) matrix acting on row vectors:
    tails = m_vec @ fox.T arranged per relator.
    """
    if len(P.relators) == 0:
        return np.zeros((0, P.ngens * M.dim), dtype=np.int64)
    if M.group is not None and len(M.mats) != P.ngens:
        raise DimensionMismatch("module must have one matrix per presentation generator")
    d, m, p = P.ngens, M.dim, M.p
    inv_mats = [M._invert(A) for A in M.mats]
    out = np.zeros((len(P.relators) * m, d * m), dtype=np.int64)
    for j in range(d):
        for b in range(m):
            # lift x_j by basis vector e_b, others by zero; evaluate all relators
            for i, rel in enumerate(P.relators):
                vec = np.zeros(m, dtype=np.int64)
                for letter in rel:
                    gi = abs(letter) - 1
                    if letter > 0:
                        # (g, v)(x_gi, m_gi) = (g x_gi, v A + m_gi)
                        vec = la.matmul(vec.reshape(1, -1), M.mats[gi], p)[0]
                        if gi == j:
                            vec[b] = (vec[b] + 1) % p
                    else:
                        vec = la.matmul(vec.reshape(1, -1), inv_mats[gi], p)[0]
                        if gi == j:
                            vec = (vec - inv_mats[gi][b]) % p
                out[i * m:(i + 1) * m, j * m + b] = vec
    return out


def coboundary_tails(P, M) -> np.ndarray:
    """Row space basis of the achievable tail changes (image of fox_matrix)."""
    fox = fox_matrix(P, M)
    basis, _ = la.rref(fox.T, M.p)
    return basis
