import pytest

from mtower.errors import NotPPerfect
from mtower.fp import Presentation, coset_group, todd_coxeter
from mtower.groups import (cyclic_group, dihedral_group, find_isomorphism,
                           special_linear_2)
from mtower.schur import (_splits, abelian_test, antecedent_test,
                          check_modassume, check_modassume_from_vd,
                          complement_orbit_labels, enumerate_schur_quotients,
                          find_cover_map, heisenberg_group, p3_census,
                          up_group, vd_from_antecedent, vd_set, wp_group)

# A6 = <a, b | a^2, b^4, (ab)^5, (ab^2)^5>, Schur multiplier Z/6
A6_PRESENTATION = Presentation(2, ((1, 1), (2, 2, 2, 2), (1, 2) * 5,
                                   (1, 2, 2) * 5))


def test_spin_cover_of_a5(a5):
    quots = enumerate_schur_quotients(a5, 2)
    assert len(quots) == 1
    spin = quots[0]
    assert spin.total.order == 120
    assert find_isomorphism(spin.total, special_linear_2(5)) is not None
    # involutions of A5 lift to order 4 in the spin cover
    inv = next(x for x in range(60) if a5.element_order(x) == 2)
    assert {spin.total.element_order(e) for e in spin.lifts(inv)} == {4}


def test_trivial_multiplier_empty():
    assert enumerate_schur_quotients(dihedral_group(5), 5) == []
    assert enumerate_schur_quotients(dihedral_group(7), 7) == []


@pytest.fixture(scope="module")
def a6():
    G = coset_group(todd_coxeter(A6_PRESENTATION), name="A6")
    G.presentation = A6_PRESENTATION
    assert G.order == 360
    return G


@pytest.mark.parametrize("p, order", [(3, 1080), (2, 720)])
def test_a6_one_quotient_per_prime(a6, p, order):
    """H^2(A6, F_p) is a line for p = 2 and p = 3; for p = 3 it holds two
    nonzero classes, and the line gives exactly one quotient."""
    quots = enumerate_schur_quotients(a6, p)
    assert [q.total.order for q in quots] == [order]
    R = quots[0].total
    kernel = quots[0].kernel_elems
    assert len(kernel) == p
    assert all(R.mul(z, x) == R.mul(x, z) for z in kernel for x in range(R.order))
    assert not _splits(R, a6, quots[0].proj)


def test_not_p_perfect_rejected():
    with pytest.raises(NotPPerfect):
        enumerate_schur_quotients(cyclic_group(4), 2)


def test_p3_model_groups():
    for p in (3, 5):
        H, W, U = heisenberg_group(p), wp_group(p), up_group(p)
        assert H.order == W.order == U.order == p ** 3
        assert find_isomorphism(H, W) is not None
        assert max(H.element_order(x) for x in range(H.order)) == p
        assert max(U.element_order(x) for x in range(U.order)) == p * p


def test_g1a4_quotient_census(g1a4_schur):
    quots = g1a4_schur.quotients
    L = g1a4_schur.level
    assert len(quots) == 3
    assert all(q.total.order == 768 for q in quots)
    tops = []
    abelians = []
    for q in quots:
        vd = vd_set(q, L)
        assert 0 in vd.members
        # V_D is a union of conjugation orbits
        for m in vd.members:
            for g in L.total.gen_indices:
                assert L.total.conj(m, g) in set(vd.members)
        rep = abelian_test(q, L, g1a4_schur.rad_elems)
        tops.append(rep.top_type)
        abelians.append(rep.abelian)
        # radical (left) elements lift to order 2
        assert all(m in set(vd.members) for m in g1a4_schur.rad_elems)
    assert sorted(tops) == ["K4xZ4", "Q8.Z4", "Q8xZ2"]
    assert sum(abelians) == 1
    abelian_rep = abelian_test(quots[abelians.index(True)], L,
                               g1a4_schur.rad_elems)
    assert 4 in abelian_rep.invariants


def test_modassume_chain(g1a4_schur):
    L = g1a4_schur.level
    for q in g1a4_schur.quotients:
        a, b, c = check_modassume(q, L)
        rep = abelian_test(q, L)
        if a and b:
            assert rep.abelian
            assert c
            # union of V_D alpha^j covers the kernel (p = 2: two cosets)
            vd = vd_set(q, L)
            G1 = L.total
            cover = set(vd.members) | {G1.mul(m, rep.alpha) for m in vd.members}
            assert cover == set(L.kernel_elems)


def test_classify_pairs_allowed(g1a4_schur):
    L = g1a4_schur.level
    for q in g1a4_schur.quotients:
        census = p3_census(q, L)
        rep = abelian_test(q, L)
        if rep.abelian:
            assert set(census) <= {"Klein4", "Z4xZ2"}
        else:
            assert "Q8" in census or "D4" in census


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pair_independence_matches_rank(p):
    from itertools import product

    import numpy as np

    from mtower import linalg as la
    from mtower.schur import _independent

    vecs = [np.array(v) for v in product(range(p), repeat=2 if p == 5 else 3)]
    for v1, v2 in product(vecs, repeat=2):
        assert _independent(v1, v2, p) == (la.rank(np.stack([v1, v2]), p) == 2)


def test_classify_pair_rejects_dependent_pair(g1a4_schur):
    from mtower.errors import RankDeficient
    from mtower.schur import classify_pair

    L, q = g1a4_schur.level, g1a4_schur.quotients[0]
    m = L.kernel_elems[1]
    with pytest.raises(RankDeficient):
        classify_pair(q, L, m, m)
    with pytest.raises(RankDeficient):
        classify_pair(q, L, 0, m)


def test_classify_labels_odd_p():
    """The order-p^3 invariant classifier separates the odd-p model groups."""
    from mtower.schur import _p3_label

    def label_of(G, p):
        sub = G.subgroup_closure(list(G.gen_indices))
        orders = sorted(G.element_order(x) for x in sub)
        abelian = all(G.mul(a, b) == G.mul(b, a) for a in sub for b in sub)
        return _p3_label(p, len(sub), abelian, max(orders),
                         sum(1 for o in orders if o == p))

    for p in (3, 5):
        assert label_of(heisenberg_group(p), p) == "Hp_Wp"
        assert label_of(wp_group(p), p) == "Hp_Wp"
        assert label_of(up_group(p), p) == "Up"


def test_antecedents_a4_family(g1a4_schur):
    L = g1a4_schur.level
    prevs = enumerate_schur_quotients(L.base, 2)
    assert len(prevs) == 1 and prevs[0].total.order == 24
    flags = [antecedent_test(prevs[0], q, L) for q in g1a4_schur.quotients]
    abelians = [abelian_test(q, L).abelian for q in g1a4_schur.quotients]
    assert sum(flags) == 1
    assert flags == abelians  # Prop: antecedent exists iff the slice is abelian
    # both directions against the lifting conditions
    for q, flag in zip(g1a4_schur.quotients, flags):
        a, b, _ = check_modassume(q, L)
        assert flag == (a and b)


def test_spin_antecedent_for_a5(g1a5, a5):
    L = g1a5.level
    spin = enumerate_schur_quotients(a5, 2)[0]
    beta = find_cover_map(L, spin)
    assert beta is not None
    vd = vd_from_antecedent(L, spin)
    assert len(vd.members) == 16 and vd.is_submodule
    a, b, c = check_modassume_from_vd(L, vd)
    assert a and b and c  # the antecedent forces the lifting conditions
    # two conjugation orbits outside V_D, stabilized by order 3 and order 5
    orbits = complement_orbit_labels(L, vd)
    assert [(lab, len(orb)) for lab, orb in orbits] == [(3, 10), (5, 6)]


def test_h2_trivial_module_dimension_g1a4(g1a4_schur):
    from mtower.frattini import h2_classes
    from mtower.gmodules import trivial_module

    L = g1a4_schur.level
    dim, classes = h2_classes(L.total.presentation, trivial_module(L.total, 2))
    assert dim == 2            # kernel of the universal extension is (Z/2)^2
    assert len(classes) == 4
    assert not classes[0].any()


# -- the slice in kernel coordinates against the scalar route (schur_oracle.py) --


def test_g1a4_slice_matches_scalar_route(g1a4_schur):
    """V_D, the lifting conditions, the abelian slice with the radical (and
    the quotient type over parts of it), the p^3 census and antecedent_test
    on the three quotients of G1(A4)."""
    import numpy as np

    import schur_oracle as oracle
    from mtower.schur import _top_type

    L, rad = g1a4_schur.level, g1a4_schur.rad_elems
    prev = enumerate_schur_quotients(L.base, 2)[0]
    assert vd_from_antecedent(L, prev) == oracle.vd_from_antecedent(L, prev)
    for q in g1a4_schur.quotients:
        vd = vd_set(q, L)
        assert vd == oracle.vd_set(q, L)
        assert check_modassume(q, L) == oracle.check_modassume_from_vd(L, vd)
        assert abelian_test(q, L, rad) == oracle.abelian_test(q, L, rad)
        mhat = np.flatnonzero(np.isin(q.proj, L.kernel_elems))
        for part in ([], rad[:1], rad[1:]):        # quotients of order 64 and 32
            assert _top_type(q, L, mhat, part) == oracle._top_type(q, L, mhat.tolist(), part)
        assert p3_census(q, L) == oracle.p3_census(q, L)
        assert antecedent_test(prev, q, L) == (
            set(oracle.vd_from_antecedent(L, prev).members)
            == set(oracle.vd_set(q, L).members))


def test_g1a5_slice_matches_scalar_route(g1a5, a5):
    """The one Schur quotient of G1(A5), with the radical lifts, and V_D
    read off the covering map onto the spin cover."""
    import schur_oracle as oracle
    from mtower import linalg as la
    from mtower.gmodules import radical

    L = g1a5.level
    q = enumerate_schur_quotients(L.total, 2)[0]
    rad = [L.kernel_elems[la.vec_int(v, 2)] for v in radical(L.kernel_module)]
    vd = vd_set(q, L)
    assert vd == oracle.vd_set(q, L)
    assert check_modassume_from_vd(L, vd) == oracle.check_modassume_from_vd(L, vd)
    assert abelian_test(q, L, rad) == oracle.abelian_test(q, L, rad)
    assert p3_census(q, L) == oracle.p3_census(q, L)
    spin = enumerate_schur_quotients(a5, 2)[0]
    assert vd_from_antecedent(L, spin) == oracle.vd_from_antecedent(L, spin)


def test_odd_p_lifting_conditions_match_scalar_route():
    """On the order-4,860 A5 level at p = 3: the lifting conditions and the
    closure flag for a subspace, a subspace with one vector added, and a
    random set of kernel positions."""
    import numpy as np

    import schur_oracle as oracle
    from mtower.frattini import _digits, general_level
    from mtower.groups import alternating_group
    from mtower.schur import _vd

    L = general_level(alternating_group(5), 3).level
    assert (L.total.order, L.kernel_dim) == (4860, 4)
    vecs = _digits(len(L.kernel_elems), L.kernel_dim, 3)
    masks = [vecs[:, 0] == 0, (vecs[:, 0] == 0) | (np.arange(81) == 1),
             np.random.default_rng(5).random(81) < 0.5]
    for mask in masks:
        mask[0] = True
        vd = _vd(L, mask)
        mset = set(vd.members)
        closed = all(L.total.mul(a, b) in mset for a in vd.members for b in vd.members)
        assert vd.is_submodule == closed
        assert check_modassume_from_vd(L, vd) == oracle.check_modassume_from_vd(L, vd)
    assert [_vd(L, m).is_submodule for m in masks] == [True, False, False]


def test_complement_orbit_labels_match_scalar_route(g1a5, a5, a5_p3_level):
    """Orbits and stabilizer labels from one batch of conjugates, against
    the scalar walk over every element: on G1(A5) with V_D read off the
    spin cover, and on the order-4,860 A5 level at p = 3 with V_D the
    kernel positions divisible by 3."""
    import schur_oracle as oracle
    from mtower.frattini import _digits
    from mtower.schur import _vd

    spin = enumerate_schur_quotients(a5, 2)[0]
    L = a5_p3_level
    thirds = _vd(L, _digits(len(L.kernel_elems), L.kernel_dim, 3)[:, 0] == 0)
    assert set(thirds.members) == set(L.kernel_elems[::3])
    for level, vd, sizes in ((g1a5.level, vd_from_antecedent(g1a5.level, spin),
                              [10, 6]),
                             (L, thirds, [20, 5, 10, 5, 10, 30])):
        want = oracle.complement_orbit_labels(level, vd)
        assert complement_orbit_labels(level, vd) == want
        assert [len(orbit) for _, orbit in want] == sizes


@pytest.mark.parametrize("factors, p", [((27,), 3), ((9, 3), 3), ((25, 5), 5),
                                        ((4, 2, 2), 2)])
def test_abelian_invariants_match_scalar_route(factors, p):
    import math

    import numpy as np

    import schur_oracle as oracle
    from mtower.groups import FiniteGroup
    from mtower.schur import _abelian_invariants

    # Z/n1 x Z/n2 x ... on the mixed-radix codes of its tuples
    strides = np.cumprod((1,) + factors[:-1])

    def code_mul(x, y):
        return sum((x // s % n + y // s % n) % n * s for n, s in zip(factors, strides))

    n = math.prod(factors)
    G = FiniteGroup.from_closed_form(n, strides.tolist(), code_mul, name="A")
    want = oracle._abelian_invariants(G, list(range(n)), p)
    assert want == sorted(factors)
    assert _abelian_invariants(G, np.arange(n), p) == want
