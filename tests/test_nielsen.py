import pytest

import numpy as np

from mtower.errors import Budget, InputError, NotPPrime
from mtower.groups import FiniteGroup
from mtower.nielsen import (NielsenSpec, Reducer, _as_tuples, enumerate_reduced,
                            hm_seed_tuples, is_hm,
                            is_p_divisible, lift_tuples, lifted_spec,
                            mbar4_orbits, middle_product, project_tuple)
from mtower.groups import MUL_TABLE_LIMIT
from mtower.perms import Perm, parse_perm

import canonical_oracle as oracle
from conftest import class_of_order, level_bundle


def tuple_is_valid(spec: NielsenSpec, t) -> bool:
    """Product one, entries in the spec's classes, and generating."""
    G = spec.group
    prod = 0
    for x in t:
        prod = G.mul(prod, x)
    return (prod == 0 and sorted(map(G.class_of, t)) == sorted(spec.class_ids)
            and G.closure_size(t) == G.order)


def test_spec_requires_p_prime_classes(a5):
    c5 = class_of_order(a5, 5)
    with pytest.raises(NotPPrime):
        NielsenSpec(a5, (c5,) * 4, 5)


def test_enumeration_counts(a5_level0, dihedral_pair):
    assert len(a5_level0.reduced) == 18
    assert len(dihedral_pair.lvl0.reduced) == 12
    for t in a5_level0.reduced:
        assert tuple_is_valid(a5_level0.spec, t)


def test_degenerate_z2_spec():
    Z2 = FiniteGroup([Perm.from_cycles([[0, 1]], 2)])
    c2 = class_of_order(Z2, 2)
    spec = NielsenSpec(Z2, (c2,) * 4, 5)
    red = enumerate_reduced(spec)
    assert len(red) == 1  # (s, s, s, s) generates and has product 1


def test_braid_moves_shapes(a5_level0):
    red = a5_level0.reducer
    t = a5_level0.reduced[0]
    raw = red.sh((1, 2, 3, 4))
    assert raw == (2, 3, 4, 1)
    # gamma_inf literally fixes the middle product
    G = a5_level0.spec.group
    for t in a5_level0.reduced[:10]:
        u = red.gamma_inf_raw(t)
        assert G.mul(u[1], u[2]) == G.mul(t[1], t[2])
        assert u == red.twist(t, 2)
    # twist then inverse twist is the identity
    for t in a5_level0.reduced[:10]:
        for i in (1, 2, 3):
            assert red.twist_inv(red.twist(t, i), i) == t


def test_braid_images_stay_valid(a5_level0):
    spec, red = a5_level0.spec, a5_level0.reducer
    for t in a5_level0.reduced:
        for op in (red.gamma1, red.gamma_inf, red.gamma0):
            assert tuple_is_valid(spec, op(t))


def test_reduced_torsion(a5_level0, dihedral_pair):
    for bundle in (a5_level0, dihedral_pair.lvl0):
        red = bundle.reducer
        for t in bundle.reduced:
            assert red.gamma1(red.gamma1(t)) == t
            assert red.gamma0(red.gamma0(red.gamma0(t))) == t
            assert red.gamma_inf(red.gamma1(red.gamma0(t))) == t


def test_canonical_idempotent_and_invariant(a5_level0):
    red = a5_level0.reducer
    G = a5_level0.spec.group
    for t in a5_level0.reduced[:8]:
        assert red.canonical(t) == t
        for v in red.variants(t):
            for c in range(0, G.order, 11):
                ic = int(G.inv[c])
                moved = tuple(G.mul(G.mul(ic, x), c) for x in v)
                assert red.canonical(moved) == t


def test_single_orbit_level0(a5_level0):
    assert [len(o) for o in a5_level0.orbits] == [18]
    cusps = a5_level0.reports[0].cusps
    assert sorted(len(c.members) for c in cusps) == [2, 3, 3, 5, 5]


def test_hm_detection(a5_level0):
    spec, red = a5_level0.spec, a5_level0.reducer
    seeds = hm_seed_tuples(spec)
    assert seeds
    G = spec.group
    for s in seeds[:5]:
        assert s[1] == int(G.inv[s[0]]) and s[3] == int(G.inv[s[2]])
        assert is_hm(red.canonical(s), red)
    non_hm = [t for t in a5_level0.reduced if not is_hm(t, red)]
    assert non_hm  # the width 2 and 3 cusps are not Harbater-Mumford


def test_mpr_and_divisibility(a5_level0):
    G = a5_level0.spec.group
    t = a5_level0.reduced[0]
    m = middle_product(t, G)
    assert m == G.element_order(G.mul(t[1], t[2]))
    assert is_p_divisible(t, 2, G) == (m % 2 == 0)


def test_lift_tuples_fiber(g1a5, a5_level0):
    L = g1a5.level
    spec1 = lifted_spec(L, a5_level0.spec)
    red1 = Reducer(spec1)
    hm = a5_level0.reducer.canonical(hm_seed_tuples(a5_level0.spec)[0])
    fiber = lift_tuples(L, hm, spec1, red1, frattini_verified=True)
    assert fiber.shape == (32, 4) and fiber.dtype == np.int32
    honest = lift_tuples(L, hm, spec1, red1, frattini_verified=False)
    assert np.array_equal(honest, fiber)  # generation is automatic over a Frattini cover
    for t in _as_tuples(fiber[:6]):
        assert project_tuple(L, t) != t
        assert a5_level0.reducer.canonical(project_tuple(L, t)) == hm
    # H-M reps lift to H-M reps
    assert any(is_hm(t, red1) for t in fiber)


def test_lift_fiber_constant_on_orbits(g1a5, a5_level0, a5_level1):
    L = g1a5.level
    red0 = a5_level0.reducer
    for orbit in a5_level1.orbits:
        per_class = {}
        for t in orbit:
            img = red0.canonical(project_tuple(L, t))
            per_class[img] = per_class.get(img, 0) + 1
        assert len(set(per_class.values())) == 1
        assert len(orbit) // a5_level0.reports[0].size == \
            next(iter(per_class.values()))


def test_level1_orbits(a5_level1):
    assert sorted(len(o) for o in a5_level1.orbits) == [288, 288]


def test_r5_shift_twist_orbits(a5):
    """r >= 5: inner classes only, orbits under the shift and middle twist."""
    c3 = class_of_order(a5, 3)
    spec = NielsenSpec(a5, (c3,) * 5, 2)
    red = Reducer(spec)
    assert red.variants((0, 0, 0, 0, 0)) == [(0, 0, 0, 0, 0)]
    reduced = enumerate_reduced(spec, budget=10 ** 7)
    assert len(reduced)
    orbits = mbar4_orbits(spec, reduced, red)
    assert sum(len(o) for o in orbits) == len(reduced)
    t = _as_tuples(reduced)[0]
    assert len(red.sh(t)) == 5


def test_tuple_text_roundtrip(tmp_path, a5_level0, dihedral_pair):
    """The orbit dump of the A5 level 0 and the D5 level 0 and 1 (p = 5)
    reads back to the orbits, and it expands to json.dump of the oracle's
    strings."""
    import json

    import dump_oracle
    from test_dump import write_dump_files

    for level in (a5_level0, dihedral_pair.lvl0, dihedral_pair.lvl1):
        G = level.spec.group
        orbits = [rep.tuples for rep in level.reports]
        write_dump_files(tmp_path, 0, G, orbits)
        table = (tmp_path / "elements_L0.json").read_text()
        elems = [G.lookup(parse_perm(text, G.degree).as_array())
                 for text in json.loads(table)]
        dump = (tmp_path / "orbits_L0.json").read_text()
        assert [[tuple(elems[i] for i in row) for row in comp]
                for comp in json.loads(dump)] == [rep.orbit for rep in level.reports]
        text = "".join(dump_oracle.expand(dump, table))
        assert text == json.dumps(dump_oracle.orbit_dump(G, orbits), indent=1) + "\n"


def test_cusp_census_wrapper(a5_level0):
    from mtower.hurwitz import cusp_census

    t_prime, widths, hm = cusp_census(a5_level0.reports[0])
    assert t_prime == 0
    assert widths == [2, 3, 3, 5, 5]
    assert hm == [False, False, False, True, True]


def _kernel_rows(bundle):
    """Every reduced class and its raw gamma_1 and gamma_inf images."""
    red = bundle.reducer
    rows = list(bundle.reduced)
    rows += [red.sh(t) for t in bundle.reduced]
    rows += [red.gamma_inf_raw(t) for t in bundle.reduced]
    return rows


@pytest.fixture(scope="module")
def a5_r5(a5):
    return level_bundle(NielsenSpec(a5, (class_of_order(a5, 3),) * 5, 2))


def test_kernel_matches_scalar_oracle(a5_level0, a5_r5, dihedral_pair,
                                      a5_level1):
    for bundle in (a5_level0, a5_r5, dihedral_pair.lvl0, dihedral_pair.lvl1,
                   a5_level1):
        red = bundle.reducer
        scalar = oracle.ScalarCanonical(red)
        rows = _kernel_rows(bundle)
        got = red.canonical_many(rows).tolist()
        assert [tuple(x) for x in got] == [scalar.canonical(t) for t in rows]
        got = red.canonical_inner_many(rows).tolist()
        assert [tuple(x) for x in got] == [scalar.canonical_inner(t) for t in rows]
        G = bundle.spec.group
        assert [red.variants(t) for t in rows] == \
            [oracle.variants(G, t) for t in rows]
        assert red.canonical(rows[-1]) == scalar.canonical(rows[-1])
        assert red.canonical_inner(rows[-1]) == scalar.canonical_inner(rows[-1])


def test_kernel_above_mul_table_limit():
    """A5 x A5 x Z2 on 12 points (order 7200, no mul table), with a 3-cycle
    class of size 20 and a 5-cycle class of size 12, so the two classes'
    conjugator lists differ in width: the conjugation table against
    G.conj, the kernel against the oracle."""
    def perm(*cycle):
        return Perm.from_cycles([list(cycle)], 12)

    G = FiniteGroup([perm(0, 1, 2), perm(0, 1, 2, 3, 4), perm(5, 6, 7),
                     perm(5, 6, 7, 8, 9), perm(10, 11)])
    assert G.order > MUL_TABLE_LIMIT and G.mul_table is None
    c3, c5 = G.class_of(G.gen_indices[0]), G.class_of(G.gen_indices[3])
    classes = G.conjugacy_classes()
    assert (classes[c3].size, classes[c5].size) == (20, 12)
    red = Reducer(NielsenSpec(G, (c3, c3, c5, c5), 7))
    members = list(classes[c3].members + classes[c5].members)
    for x in members:
        assert red.conj[:, red._col[x]].tolist() == \
            [G.conj(x, c) for c in range(G.order)]
    scalar = oracle.ScalarCanonical(red)
    rng = np.random.default_rng(7)
    rows = [tuple(int(x) for x in rng.choice(members, 4)) for _ in range(20)]
    assert [tuple(x) for x in red.canonical_many(rows).tolist()] == \
        [scalar.canonical(t) for t in rows]
    assert [tuple(x) for x in red.canonical_inner_many(rows).tolist()] == \
        [scalar.canonical_inner(t) for t in rows]


def test_kernel_rejects_entries_outside_the_classes(a5_level0):
    with pytest.raises(InputError):
        a5_level0.reducer.canonical((0, 0, 0, 0))


def test_enumeration_and_lifts_match_scalar_oracle(a5, a5_level0,
                                                   g1a5):
    five = [i for i, c in enumerate(a5.conjugacy_classes())
            if c.element_order == 5]
    mixed = NielsenSpec(a5, (five[0], five[0], five[1], five[1]), 3)
    for spec in (a5_level0.spec, mixed):
        red = Reducer(spec)
        got = enumerate_reduced(spec, reducer=red)
        assert got.dtype == np.int32
        assert _as_tuples(got) == oracle.enumerate_reduced(spec, oracle.ScalarCanonical(red))
    L = g1a5.level
    spec1 = lifted_spec(L, a5_level0.spec)
    red1 = Reducer(spec1)
    scalar1 = oracle.ScalarCanonical(red1)
    for t in a5_level0.reduced[:1]:
        want = oracle.lift_tuples(L, t, spec1, scalar1)
        assert want
        assert _as_tuples(lift_tuples(L, t, spec1, red1)) == want
        assert _as_tuples(lift_tuples(L, t, spec1, red1, frattini_verified=True)) == want


def test_lift_budget(g1a5, a5_level0):
    L = g1a5.level
    spec1 = lifted_spec(L, a5_level0.spec)
    t = a5_level0.reduced[0]
    n = len(lift_tuples(L, t, spec1, budget=16 ** 3))
    assert n
    with pytest.raises(Budget, match="lift stage.*budget 4095"):
        lift_tuples(L, t, spec1, budget=16 ** 3 - 1)


def test_numbering_grows_an_orbit_at_a_time(a5_r5):
    """A reducer asked for one orbit, then another, renumbers all its rows
    in tuple order and gives the same orbits as one search over both."""
    first, second = a5_r5.orbits
    red = Reducer(a5_r5.spec)

    def orbits(seeds):
        return [_as_tuples(red.rows[o]) for o in mbar4_orbits(a5_r5.spec, seeds, red)]

    assert orbits(second[:1]) == [second]
    assert len(red.rows) == len(second)
    assert orbits(first[:1]) == [first]
    assert orbits(a5_r5.reduced) == a5_r5.orbits
    assert red.rows.tolist() == sorted(map(list, first + second))
    assert all(red.gamma1(t) == a5_r5.reducer.gamma1(t) and
               red.gamma_inf(t) == a5_r5.reducer.gamma_inf(t) for t in first + second)
