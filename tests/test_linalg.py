import numpy as np
import pytest

from mtower import frattini
from mtower import linalg as la
from mtower.fp import Presentation, coset_group, todd_coxeter
from mtower.groups import alternating_group, dihedral_group

from dense_cocycle_oracle import dense_cocycle_space
from test_frattini import _with_presentation, _z2_redundant
from test_schur import A6_PRESENTATION


def _sparse(mat: np.ndarray) -> list[dict[int, int]]:
    return [{int(c): int(row[c]) for c in np.nonzero(row)[0]} for row in mat]


def _random_system(rng, p, rows, cols, rank, density):
    """rows x cols over F_p of rank <= rank: sparse factors multiplied out."""
    left = (rng.random((rows, rank)) < density) * rng.integers(1, p, (rows, rank))
    right = (rng.random((rank, cols)) < density) * rng.integers(1, p, (rank, cols))
    return (left @ right) % p


def _sparse_nullspace(mat: np.ndarray, p: int, batches: int = 1) -> np.ndarray:
    ns = la.SparseNullspace(mat.shape[1], p)
    for chunk in np.array_split(mat, batches):
        ns.add(_sparse(chunk))
    return ns.nullspace()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_nullspace_matches_dense(p):
    rng = np.random.default_rng(p)
    for trial in range(40):
        rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        mat = _random_system(rng, p, rows, cols, rank, float(rng.uniform(0.1, 0.6)))
        got = _sparse_nullspace(mat, p, batches=1 + trial % 3)
        assert np.array_equal(got, la.nullspace(mat, p)), (trial, mat)
        assert not (got @ mat.T % p).any()


@pytest.mark.parametrize("p", [2, 3])
def test_sparse_nullspace_on_graph_like_systems(p):
    """Rows of 2-4 entries over a few hundred unknowns, as in a Cayley-graph
    system: long substitution chains, and stalls broken by new symbols."""
    rng = np.random.default_rng(100 + p)
    for rows, cols in ((150, 120), (120, 150), (300, 200)):
        mat = np.zeros((rows, cols), dtype=np.int64)
        for r in range(rows):
            k = int(rng.integers(2, 5))
            mat[r, rng.choice(cols, k, replace=False)] = rng.integers(1, p, k)
        assert np.array_equal(_sparse_nullspace(mat, p, batches=3), la.nullspace(mat, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_nullspace_edge_cases(p):
    # no rows at all, and only zero rows: every column is free
    assert np.array_equal(la.SparseNullspace(4, p).nullspace(), la.identity(4))
    assert np.array_equal(_sparse_nullspace(np.zeros((3, 4), dtype=np.int64), p),
                          la.identity(4))
    # full rank: the nullspace is empty, with the right width
    rng = np.random.default_rng(10 + p)
    square = la.identity(6) + np.triu(rng.integers(0, p, (6, 6)), 1)
    mat = square[rng.permutation(6)] % p
    got = _sparse_nullspace(mat, p)
    assert got.shape == (0, 6)
    # rank deficient: repeated rows, a zero row and an unused column
    mat = np.array([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 1, 0, 0, 0],
                    [0, 0, 0, 0, 0], [1, 0, p - 1, 1, 0]])
    assert np.array_equal(_sparse_nullspace(mat, p, batches=2), la.nullspace(mat, p))


def _a6():
    G = coset_group(todd_coxeter(A6_PRESENTATION), name="A6")
    G.presentation = A6_PRESENTATION
    return G


SIGN = [np.array([[1]]), np.array([[4]])]


# Every (presentation, module) pair that the other tests solve, bar the
# 11,549-unknown G1(A5) system, whose dense form is too large to hold: its
# schur.json is pinned by sha256 in test_cli.
CASES = {
    "Z2-a2-a4": _z2_redundant,
    "A4-F2": lambda: _with_presentation(alternating_group(4), 2),
    "A5-F2": lambda: _with_presentation(alternating_group(5), 2),
    "A5-F3": lambda: _with_presentation(alternating_group(5), 3),
    "A6-F2": lambda: _with_presentation(_a6(), 2),
    "A6-F3": lambda: _with_presentation(_a6(), 3),
    "D5-F5": lambda: _with_presentation(dihedral_group(5), 5),
    "D7-F7": lambda: _with_presentation(dihedral_group(7), 7),
    "D5-sign-F5": lambda: _with_presentation(dihedral_group(5), 5, SIGN),
    "D5-sign-F5-inverse": lambda: _with_presentation(
        dihedral_group(5), 5, SIGN, Presentation(2, ((1,) * 5, (2, 2), (-2, -1, 2, -1)))),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_cocycle_space_matches_dense_solve(case):
    P, M = case()
    got, want = frattini._cocycle_space(P, M), dense_cocycle_space(P, M)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_cocycle_space_matches_dense_on_covers(a5, g1a5, a4_tower):
    """The summands of the induced A5 module that general_level filters
    (it solves the first two), the Frattini module under a presentation
    with inverse letters, and the trivial module of the split A4 tower's
    levels (the 2.A4 and Schur solves)."""
    cases = [(a5.presentation, frattini.submodule_module(g1a5.module_data.induced, b))
             for b in g1a5.module_data.summand_bases]
    cases.append((Presentation(2, ((1, 1), (-2, -2, -2), (1, 2) * 5)), g1a5.module))
    for G in (a4_tower.g0, a4_tower.level.total):
        cases.append(_with_presentation(G, 2))
    assert sorted(M.dim for _, M in cases) == [1, 1, 4, 5, 5, 16]
    for P, M in cases:
        for a, b in zip(frattini._cocycle_space(P, M), dense_cocycle_space(P, M)):
            assert np.array_equal(a, b)
