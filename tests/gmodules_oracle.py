"""The dense route to End_{F_p[G]}(M), as `gmodules.endomorphism_basis`
computed it before it fed its equations to `linalg.SparseNullspace`: one
`np.kron` block per generator, solved by the dense `linalg.nullspace`.
Kept as an oracle."""

from __future__ import annotations

import numpy as np

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
