import numpy as np
import pytest

import gmodules_oracle
from fox_oracle import fox_matrix
from mtower import gmodules
from mtower import linalg as la
from mtower.errors import NotASubgroup, NotInvolution, TooLarge
from mtower.fp import Presentation
from mtower.frattini import frattini_module
from mtower.gmodules import (GModule, endomorphism_basis, fitting_decompose,
                             frobenius_check, hopf_tensor, induce,
                             indecomposable_summands, involution_pairing,
                             is_indecomposable, loewy_layers, radical,
                             regular_module, socle, submodule_module,
                             trivial_module)
from mtower.groups import FiniteGroup, cyclic_group
from mtower.perms import Perm


@pytest.fixture(scope="module")
def d5sub_module(a5):
    """The 1-dimensional F5 module of the Sylow-5 normalizer inside A5."""
    rot = Perm.from_cycles([[0, 1, 2, 3, 4]], 5)
    ri = a5.lookup(rot.as_array())
    s = next(x for x in range(a5.order)
             if a5.element_order(x) == 2 and a5.conj(ri, x) == int(a5.inv[ri]))
    D5 = FiniteGroup([rot, a5.perm(s)], name="N(P5)")
    D5.presentation = Presentation(2, ((1,) * 5, (2, 2), (1, 2, 1, 2)))
    return GModule(D5, 5, [np.array([[1]]), np.array([[4]])])


def test_action_verified_on_construction(a5):
    bad = [np.array([[1, 0], [0, 1]]), np.array([[1, 1], [0, 1]])]
    with pytest.raises(Exception):
        GModule(a5, 2, bad)


def test_induce_dims(a5, d5sub_module):
    ind = induce(d5sub_module, a5)
    assert ind.dim == 6  # dim M' * (G : G')
    a4sub = FiniteGroup([Perm.from_cycles([[0, 1, 2]], 5),
                         Perm.from_cycles([[1, 2, 3]], 5)])
    ind5 = induce(trivial_module(a4sub, 2), a5)
    assert ind5.dim == 5
    for m in ind5.mats:  # permutation module on the cosets
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
    with pytest.raises(NotASubgroup):
        induce(trivial_module(cyclic_group(7), 2), a5)


def test_induced_a5_p5_module(monkeypatch, a5, d5sub_module):
    ind = induce(d5sub_module, a5)
    assert is_indecomposable(ind)
    # the simple-submodule search runs once on the 6-dimensional module (on
    # its dual, for rad M) and then on 3-dimensional pieces only: rad(rad M)
    # and the labels of the two layers
    searched, search = [], gmodules._simple_summands
    monkeypatch.setattr(gmodules, "_simple_summands",
                        lambda M: searched.append(M.dim) or search(M))
    ld = loewy_layers(ind)
    assert searched == [6, 3, 3, 3]
    assert len(ld.layers) == 2
    assert [lab[0] for lab in ld.layers[0]] == [3]
    assert ld.layers[0] == ld.layers[1]
    named = loewy_layers(ind, {ld.layers[0][0]: "U_3"})
    assert named.display() == "U_3 -> U_3"


def test_submodule_enumeration_names_its_limit():
    M = trivial_module(cyclic_group(2), 2, gmodules.SPIN_DIM_LIMIT + 1)
    with pytest.raises(TooLarge, match=r"^submodule enumeration: module of dim 13, "
                                       r"past SPIN_DIM_LIMIT = 12$"):
        radical(M)


def test_idempotent_search_names_its_limit(monkeypatch, a5):
    monkeypatch.setattr(gmodules, "IDEMPOTENT_SEARCH_LIMIT", 8)
    with pytest.raises(TooLarge, match=r"^module decomposition: End\(M\) has 2\^4 = 16 "
                                       r"elements, past IDEMPOTENT_SEARCH_LIMIT = 8$"):
        is_indecomposable(trivial_module(a5, 2, 2))


# modules whose radical, socle and layer labels are checked against the
# submodule lattice (the 16-dimensional induced summand is past SPIN_DIM_LIMIT)
LATTICE_CASES = {
    "A4-p2-kernel": lambda f: [f("a4_tower").level.kernel_module],
    "A5-p2-kernel": lambda f: [f("g1a5").level.kernel_module],
    "A5-p3-kernel": lambda f: [f("a5_p3_level").kernel_module],
    "F2[A4]": lambda f: [regular_module(f("a4"), 2)],
    "trivial": lambda f: [trivial_module(f("a5"), p, d) for p, d in ((2, 1), (3, 2), (5, 3))],
    "A5-p2-induced": lambda f: [
        submodule_module(f("g1a5").module_data.induced, b)
        for b in f("g1a5").module_data.summand_bases if len(b) <= gmodules.SPIN_DIM_LIMIT],
    "A5-p5-induced": lambda f: [
        submodule_module(ind, b) for ind in [induce(f("d5sub_module"), f("a5"))]
        for b in indecomposable_summands(ind)],
}


@pytest.mark.parametrize("case", LATTICE_CASES)
def test_simple_summands_match_lattice_oracle(request, case):
    """rad M, soc M and the labels of M / rad M and soc M from the one
    simple-submodule search equal those read off the submodule lattice:
    the same rref bases and the same label lists."""
    for M in LATTICE_CASES[case](request.getfixturevalue):
        subs = gmodules_oracle.all_submodules(M)
        rad, soc = radical(M), socle(M)
        for got, want in ((rad, gmodules_oracle.radical(M, subs)),
                          (soc, gmodules_oracle.socle(M, subs))):
            assert got.shape == want.shape and (got == want).all(), (case, M.dim)
        for layer in (gmodules._subquotient(M, la.identity(M.dim), rad),
                      submodule_module(M, soc)):
            assert (gmodules._semisimple_factors(layer)
                    == gmodules_oracle.semisimple_factors(layer)), (case, M.dim)


def test_loewy_trivial_module(a5):
    ld = loewy_layers(trivial_module(a5, 2))
    assert len(ld.layers) == 1 and ld.layers[0][0][0] == 1


def test_loewy_a4_split_module(a4_tower):
    M0 = a4_tower.level.kernel_module
    ld = loewy_layers(M0)
    dims = [sorted(lab[0] for lab in layer) for layer in ld.layers]
    assert dims == [[2], [1, 2]]  # socle K4H, head K4H + trivial
    # M0 is indecomposable of Loewy length 2: its socle lies under both heads
    (soc,), head = ld.layers
    assert gmodules_oracle.loewy_arrows(M0) == [[(soc, h) for h in head]]
    assert sum(lab[0] for layer in ld.layers for lab in layer) == 5
    assert is_indecomposable(M0)
    # radical strictly decreasing
    r1 = radical(M0)
    assert 0 < r1.shape[0] < M0.dim
    r2 = radical(submodule_module(M0, r1))
    assert r2.shape[0] == 0


def test_decomposable_sum_detected(a5):
    two = trivial_module(a5, 2, 2)
    assert not is_indecomposable(two)
    parts = indecomposable_summands(two)
    assert sorted(b.shape[0] for b in parts) == [1, 1]


def test_fitting_nilpotent_and_idempotent(a4_tower):
    M0 = a4_tower.level.kernel_module
    nil = np.zeros((5, 5), dtype=np.int64)
    ker, img = fitting_decompose(M0, nil)
    assert ker.shape[0] == 5 and img.shape[0] == 0
    ident = la.identity(5)
    ker, img = fitting_decompose(M0, ident)
    assert ker.shape[0] == 0 and img.shape[0] == 5


def test_endomorphisms_commute(a4_tower):
    M0 = a4_tower.level.kernel_module
    basis = endomorphism_basis(M0)
    assert basis.shape[0] >= 1
    for row in basis:
        X = row.reshape(5, 5)
        for A in M0.mats:
            assert ((X @ A - A @ X) % 2 == 0).all()


def test_sparse_endomorphisms_match_dense_route(monkeypatch, a5, d5sub_module,
                                                a5_p3_level):
    """The modules whose endomorphisms the A5 module splits at p = 2 and 3
    solve for, the induced A5 module at p = 5 and the p = 3 Frattini
    module, each against the dense Kronecker system."""
    seen, sparse = [], gmodules.endomorphism_basis
    monkeypatch.setattr(gmodules, "endomorphism_basis",
                        lambda M: seen.append(M) or sparse(M))
    frattini_module(a5, 2)
    assert [M.dim for M in seen] == [25, 9, 4, 5, 16]
    frattini_module(a5, 3)
    for M in seen + [induce(d5sub_module, a5), a5_p3_level.kernel_module]:
        got, want = sparse(M), gmodules_oracle.endomorphism_basis(M)
        assert got.shape == want.shape and (got == want).all(), (M.p, M.dim)


def test_p_perfect_dual_criterion(a4_tower):
    # split base is 2-perfect iff the dual of the Sylow quotient has no
    # invariant vector under the complement action
    from mtower.groups import is_p_perfect

    G0 = a4_tower.g0
    h = G0.gen_indices[2]
    V = GModule(G0, 2, [la.identity(2), la.identity(2),
                        np.array([[0, 1], [1, 1]])], check=False)
    fixed = la.nullspace((V.dual().mat_of(h) - la.identity(2)).T, 2)
    assert is_p_perfect(G0, 2) == (fixed.shape[0] == 0)


def test_involution_pairing_and_frobenius(a4):
    assert involution_pairing([1, 2, 3], [1, 1, 1], (0, 1, 2), 5) == 1
    h = (1, 0, 2)
    assert involution_pairing([1, 0, 0], [0, 1, 0], h, 3) == 1
    with pytest.raises(NotInvolution):
        involution_pairing([1, 0, 0], [0, 1, 0], (1, 2, 0), 3)
    assert frobenius_check(a4, 2)
    assert frobenius_check(a4, 3)


def test_hopf_tensor_unit(a5):
    M = trivial_module(a5, 2, 3)
    one = trivial_module(a5, 2, 1)
    T = hopf_tensor(one, M)
    assert T.dim == 3
    assert all((a == b).all() for a, b in zip(T.mats, M.mats))


def test_projective_socle_equals_head(a4):
    """Principal indecomposables of F2[A4]: socle and head agree."""
    reg = regular_module(a4, 2)
    parts = indecomposable_summands(reg)
    assert sum(b.shape[0] for b in parts) == 12
    for b in parts:
        P = submodule_module(reg, b)
        layers = loewy_layers(P).layers
        assert sorted(layers[0]) == sorted(layers[-1])


def test_fox_matrix_identities():
    Z2 = FiniteGroup([Perm.from_cycles([[0, 1]], 2)])
    fox = fox_matrix(Presentation(1, ((1, 1),)), trivial_module(Z2, 2))
    assert (fox == 0).all()  # 1 + x acts as 2 = 0 on the trivial F2 module
    K4 = FiniteGroup([Perm.from_cycles([[0, 1], [2, 3]], 4),
                      Perm.from_cycles([[0, 2], [1, 3]], 4)])
    foxc = fox_matrix(Presentation(2, ((-1, -2, 1, 2),)), trivial_module(K4, 2))
    assert (foxc == 0).all()  # commutators abelianize to zero


def test_fox_matrix_against_split_extension(a4_tower):
    """Tail of r under lifts x_j -> (x_j, m_j) equals the Fox block action."""
    M0 = a4_tower.level.kernel_module
    P = a4_tower.g0.presentation
    fox = fox_matrix(P, M0)
    rng = np.random.default_rng(3)
    m = rng.integers(0, 2, size=3 * 5)
    tails = (fox @ m) % 2
    # independent evaluation through the explicit split product
    def eval_tail(rel):
        vec = np.zeros(5, dtype=np.int64)
        for letter in rel:
            gi = abs(letter) - 1
            A = M0.mats[gi]
            if letter > 0:
                vec = (vec @ A + m[gi * 5:(gi + 1) * 5]) % 2
            else:
                Ainv = M0._invert(A)
                vec = ((vec - m[gi * 5:(gi + 1) * 5]) @ Ainv) % 2
        return vec
    for i, rel in enumerate(P.relators):
        assert (tails[i * 5:(i + 1) * 5] == eval_tail(rel)).all()
