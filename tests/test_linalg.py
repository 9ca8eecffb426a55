import tracemalloc

import numpy as np
import pytest

from mtower import frattini
from mtower import linalg as la
from mtower.fp import Presentation, coset_group, todd_coxeter
from mtower.gmodules import trivial_module
from mtower.groups import alternating_group, dihedral_group

from dense_cocycle_oracle import dense_cocycle_space
from sparse_oracle import SparseNullspace, sparse_rows
from test_frattini import _with_presentation, _z2_redundant
from test_schur import A6_PRESENTATION


def _coo(mat: np.ndarray, rng, p: int):
    """COO triples of mat, shuffled, each entry split into two summands and
    a pair of entries that cancel mod p added at a random cell per row."""
    r, c = np.nonzero(mat)
    a = mat[r, c]
    split = rng.integers(0, p, len(a))
    rows, cols = mat.shape
    cr, cc, k = np.arange(rows), rng.integers(0, cols, rows), rng.integers(1, p, rows)
    eq, unk = np.concatenate([r, r, cr, cr]), np.concatenate([c, c, cc, cc])
    val = np.concatenate([split, a - split + p, k, p - k])
    order = rng.permutation(len(eq))
    return eq[order], unk[order], val[order]


def _random_system(rng, p, rows, cols, rank, density):
    """rows x cols over F_p of rank <= rank: sparse factors multiplied out."""
    left = (rng.random((rows, rank)) < density) * rng.integers(1, p, (rows, rank))
    right = (rng.random((rank, cols)) < density) * rng.integers(1, p, (rank, cols))
    return (left @ right) % p


def _oracle(eq, unk, val, nrows, ncols, p):
    ns = SparseNullspace(ncols, p)
    ns.add(sparse_rows(np.asarray(eq), np.asarray(unk), np.asarray(val), nrows, ncols))
    return ns.nullspace()


def _check(mat: np.ndarray, p: int, rng) -> np.ndarray:
    """sparse_nullspace of mat, from its shuffled and split COO triples,
    against la.nullspace and the replaced solver."""
    args = (*_coo(mat, rng, p), *mat.shape, p)
    got = la.sparse_nullspace(*args)
    assert np.array_equal(got, la.nullspace(mat, p)), mat
    assert np.array_equal(got, _oracle(*args)), mat
    return got


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_nullspace_matches_dense(p):
    rng = np.random.default_rng(p)
    for trial in range(40):
        rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        mat = _random_system(rng, p, rows, cols, rank, float(rng.uniform(0.1, 0.6)))
        got = _check(mat, p, rng)
        assert not (got @ mat.T % p).any()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_nullspace_on_graph_like_systems(p):
    """Rows of 1-4 entries over a few hundred unknowns, as in a Cayley-graph
    system: long substitution chains, stalls broken by new symbols, empty
    rows and unknowns in no row."""
    rng = np.random.default_rng(100 + p)
    for rows, cols in ((150, 120), (120, 150), (300, 200)):
        mat = np.zeros((rows, cols), dtype=np.int64)
        unused = rng.choice(cols, 5, replace=False)
        for r in range(rows):
            k = int(rng.integers(0, 5))
            cells = rng.choice(np.setdiff1d(np.arange(cols), unused), k, replace=False)
            mat[r, cells] = rng.integers(1, p, k)
        _check(mat, p, rng)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_nullspace_edge_cases(p):
    rng = np.random.default_rng(10 + p)
    empty = np.zeros(0, dtype=np.int64)
    # no entries at all, and only entries that cancel: every column is free
    assert np.array_equal(la.sparse_nullspace(empty, empty, empty, 0, 4, p),
                          la.identity(4))
    assert np.array_equal(la.sparse_nullspace([0, 2, 0], [1, 3, 1], [1, 2 * p, p - 1],
                                              3, 4, p), la.identity(4))
    _check(np.zeros((3, 4), dtype=np.int64), p, rng)
    # full rank: the nullspace is empty, with the right width
    square = la.identity(6) + np.triu(rng.integers(0, p, (6, 6)), 1)
    assert _check(square[rng.permutation(6)] % p, p, rng).shape == (0, 6)
    # rank deficient: repeated rows, a zero row and an unused column
    mat = np.array([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 1, 0, 0, 0],
                    [0, 0, 0, 0, 0], [1, 0, p - 1, 1, 0]]) % p
    _check(mat, p, rng)
    # one-unknown rows, two of them on one unknown with different values
    mat = np.array([[0, 2, 0, 0], [0, 0, 0, 1], [1, 0, 1, 1], [0, 1, 0, 0]]) % p
    _check(mat, p, rng)


def _recorded_systems(monkeypatch, run) -> list[tuple]:
    """The (eq, unk, val, nrows, ncols, p) of every sparse_nullspace call
    that run() makes."""
    calls, solve = [], la.sparse_nullspace

    def record(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(la, "sparse_nullspace", record)
    run()
    monkeypatch.setattr(la, "sparse_nullspace", solve)
    return calls


def _dense(eq, unk, val, nrows, ncols, p) -> np.ndarray:
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    np.add.at(mat, (eq, unk), val)
    return mat % p


def test_recorded_h2_systems_match_dense_and_oracle(monkeypatch, a4_tower):
    """The H^2(G1(A4), F_2) system of `schur --group A4 --p 2 --k 1`
    (2,688 x 776 on the peel's seven relators), and the six systems of the A5 level at p = 2."""
    G1 = a4_tower.level.total
    systems = _recorded_systems(monkeypatch, lambda: frattini._cocycle_space(
        G1.presentation, trivial_module(G1, 2)))
    assert [s[3:] for s in systems] == [(2688, 776, 2)]
    systems += _recorded_systems(monkeypatch, lambda: frattini.general_level(
        alternating_group(5), 2))
    assert len(systems) == 7
    for args in systems:
        got = la.sparse_nullspace(*args)
        assert np.array_equal(got, la.nullspace(_dense(*args), args[-1]))
        assert np.array_equal(got, _oracle(*args))


def _a6():
    G = coset_group(todd_coxeter(A6_PRESENTATION), name="A6")
    G.presentation = A6_PRESENTATION
    return G


SIGN = [np.array([[1]]), np.array([[4]])]


# Every (presentation, module) pair that the other tests solve, bar the
# 3,854-unknown G1(A5) system, whose dense form is too large to hold: its
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
    """The summands of the induced A5 module that general_level chooses
    from (it solves the one it keeps), the Frattini module under a presentation
    with inverse letters, and the trivial module of A4 and of its level
    (the 2.A4 and Schur solves)."""
    cases = [(a5.presentation, frattini.submodule_module(g1a5.module_data.induced, b))
             for b in g1a5.module_data.summand_bases]
    cases.append((Presentation(2, ((1, 1), (-2, -2, -2), (1, 2) * 5)), g1a5.module))
    for G in (a4_tower.level.base, a4_tower.level.total):
        cases.append(_with_presentation(G, 2))
    assert sorted(M.dim for _, M in cases) == [1, 1, 4, 5, 5, 16]
    for P, M in cases:
        for a, b in zip(frattini._cocycle_space(P, M), dense_cocycle_space(P, M)):
            assert np.array_equal(a, b)


def test_sparse_nullspace_peak_within_prediction(monkeypatch, g1a5):
    """The traced peak of the H^2(G1(A5), F_2) solve (3,854 unknowns, the
    system of `schur --group A5 --p 2 --k 1`) stays under the memory bound
    that _cocycle_space checks against MEMORY_CEILING, here taken at the
    system's own count of entries."""
    G = g1a5.level.total
    args, = _recorded_systems(monkeypatch, lambda: frattini._cocycle_space(
        G.presentation, trivial_module(G, 2)))
    assert args[3:] == (24960, 3854, 2)
    tracemalloc.start()
    try:
        la.sparse_nullspace(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < la.sparse_nullspace_bytes(3854, len(args[0]), 2)
