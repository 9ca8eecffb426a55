from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from mtower import cli
from mtower.cli import class_id
from mtower.errors import InvariantViolation, MismatchedLevels, NonIntegralGenus
from mtower.frattini import dihedral_level
from mtower.groups import dihedral_group, unique_rows
from mtower.hurwitz import (_inner_orbit_data, _q2prime_faithful,
                            analyze_component, check_goup, component_genus,
                            elliptic_detect,
                            genus_lower_bound, level_compare, moduli_tests,
                            sh_incidence, shortening_detect)
from mtower.nielsen import (NielsenSpec, Reducer, enumerate_reduced,
                            lift_tuples, lifted_spec, mbar4_orbits,
                            middle_product, project_tuple)

import braid_oracle
from canonical_oracle import (ScalarCanonical, inner_classes, q2prime_faithful,
                              variants)
from conftest import class_of_order, level_bundle
from modular_oracle import shadow


def test_component_genus_formula():
    assert component_genus(1, 0, 0, 0) == 0
    assert component_genus(18, 12, 9, 13) == 0
    assert component_genus(288, 192, 144, 262) == 12
    with pytest.raises(NonIntegralGenus):
        component_genus(4, 1, 1, 2)  # odd index sum


def test_level0_report(a5_level0):
    rep = a5_level0.reports[0]
    assert rep.size == 18 and rep.genus == 0 and rep.t_prime == 0
    assert rep.cusp_widths == [2, 3, 3, 5, 5]
    assert sum(rep.cusp_widths) == rep.size
    assert (rep.ind0 + rep.ind1 + rep.indinf) % 2 == 0
    assert not rep.gamma0_fixed and not rep.gamma1_fixed
    flags = moduli_tests(rep)
    assert flags == {"b_fine": False, "fine": False}
    d = rep.to_dict()
    assert d["hm_cusps"] == [3, 4]


def test_level1_reports(a5_level1):
    genera = sorted(r.genus for r in a5_level1.reports)
    assert genera == [9, 12]
    for rep in a5_level1.reports:
        assert rep.b_fine and rep.fine
        assert sum(rep.cusp_widths) == rep.size
        assert (rep.ind0 + rep.ind1 + rep.indinf) % 2 == 0
    # fine persists: (vacuous from level 0) and holds at level 1


def test_sh_incidence_blocks(a5_level0, a5_level1):
    inc0 = sh_incidence(a5_level0.reports, a5_level0.reducer)
    assert inc0.symmetric
    assert len(inc0.blocks) == 1
    assert inc0.matrix.sum(axis=1).tolist() == [c.width for r in
                                                a5_level0.reports for c in r.cusps]
    inc1 = sh_incidence(a5_level1.reports, a5_level1.reducer)
    assert inc1.symmetric and len(inc1.blocks) == 2
    csv = inc0.to_csv()
    assert csv.splitlines()[0].startswith(",O1.1,")


def test_dihedral_matches_oracle(dihedral_pair):
    want0 = shadow(5)
    rep0 = dihedral_pair.lvl0.reports[0]
    assert len(dihedral_pair.lvl0.reports) == want0["components"]
    assert rep0.genus == want0["genus"]
    assert sorted(rep0.cusp_widths) == want0["cusp_widths"]
    assert rep0.size == want0["index"]
    want1 = shadow(25)
    rep1 = dihedral_pair.lvl1.reports[0]
    assert len(dihedral_pair.lvl1.reports) == want1["components"]
    assert rep1.genus == want1["genus"]
    assert sorted(rep1.cusp_widths) == want1["cusp_widths"]
    assert rep1.size == want1["index"]


def test_dihedral_level_compare_equality(dihedral_pair):
    cmp = level_compare(dihedral_pair.lvl0.reports[0],
                        dihedral_pair.lvl1.reports[0],
                        dihedral_pair.level, dihedral_pair.lvl0.reducer)
    assert cmp.degree == 25
    assert cmp.u_counts == [4, 4]
    assert not cmp.elliptic_ramification and not cmp.shortened_cusps
    assert check_goup(cmp) == "equality"
    assert cmp.bound == Fraction(12)


def test_a5_level_compare(g1a5, a5_level0, a5_level1):
    L = g1a5.level
    for ui, rep1 in enumerate(a5_level1.reports):
        cmp = level_compare(a5_level0.reports[0], rep1, L,
                            a5_level0.reducer, 0, ui)
        assert cmp.degree == 16
        assert cmp.bound <= rep1.genus
        assert cmp.shortened_cusps  # width growth outruns mpr growth here
        assert not cmp.elliptic_ramification
        assert check_goup(cmp) == "hypotheses-unmet"


def test_mpr_multiplies_over_divisible_cusps(dihedral_pair):
    L = dihedral_pair.level
    red0 = dihedral_pair.lvl0.reducer
    rep0 = dihedral_pair.lvl0.reports[0]
    divisible = {t for c in rep0.cusps if c.p_divisible for t in c.members}
    for t in dihedral_pair.lvl1.orbits[0]:
        img = red0.canonical(project_tuple(L, t))
        if img in divisible:
            assert middle_product(t, L.total) == \
                5 * middle_product(img, L.base)


def test_bound_examples():
    assert genus_lower_bound(4, 2, [], 2) == 1   # (1/4*4 - 1)*2 + 1
    assert genus_lower_bound(0, 3, [], 2) == -2  # vacuous when t' = 0
    assert genus_lower_bound(2, 25, [4, 4], 5) == 12


def test_shortening_detector(a5_level1):
    flagged = [shortening_detect(rep) for rep in a5_level1.reports]
    # the genus-9 component folds q2 orbits of length 12 over width-6 cusps
    genera = [rep.genus for rep in a5_level1.reports]
    by_genus = dict(zip(genera, flagged))
    assert by_genus[9], "expected inner-orbit folding in the genus-9 component"
    assert not by_genus[12]


def test_r5_sh_incidence_not_required_symmetric(a5):
    from conftest import class_of_order, level_bundle
    from mtower.nielsen import NielsenSpec

    spec = NielsenSpec(a5, (class_of_order(a5, 3),) * 5, 2)
    bundle = level_bundle(spec)
    inc = sh_incidence(bundle.reports, bundle.reducer)
    assert len(inc.blocks) == len(bundle.reports)
    assert inc.matrix.sum() == sum(r.size for r in bundle.reports)


def test_moves_canonicalized_once_per_class(dihedral_pair):
    """The orbit BFS canonicalizes gamma_1 and gamma_inf of each reduced
    class once; component analysis and sh-incidence reuse the results.
    Rows are counted where they enter the batch kernel."""
    rows = 0

    class CountingReducer(Reducer):
        def canonical_many(self, T):
            nonlocal rows
            out = super().canonical_many(T)
            rows += len(out)
            return out

    lvl = dihedral_pair.lvl1
    red = CountingReducer(lvl.spec)
    orbits = mbar4_orbits(lvl.spec, lvl.reduced, red)
    reports = [analyze_component(lvl.spec, orb, red) for orb in orbits]
    sh_incidence(reports, red)
    assert rows <= 2 * len(lvl.reduced)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in lvl.reports]


def _faithful_case(case, a5):
    if case == "A5 3A^4":
        return NielsenSpec(a5, (class_of_order(a5, 3),) * 4, 2)
    if case == "A5 5A,5A,5B,5B":
        five = [i for i, c in enumerate(a5.conjugacy_classes())
                if c.element_order == 5]
        return NielsenSpec(a5, (five[0], five[0], five[1], five[1]), 3)
    G = dihedral_group(int(case[1:]))
    return NielsenSpec(G, (class_of_order(G, 2),) * 4, 3)


@pytest.mark.parametrize("case, want", [
    ("A5 3A^4", False), ("A5 5A,5A,5B,5B", True), ("D3", False),
    ("D5", False), ("D7", False), ("D9", False)])
def test_q2prime_faithful_matches_direct_route(case, want, a5):
    """b-fine read off the table of inner forms equals the old route, which
    canonicalizes the three Klein images of every inner class afresh; and
    the images of the entry in column j are the entries in columns j^1, j^2
    and j^3."""
    bundle = level_bundle(_faithful_case(case, a5))
    scalar = ScalarCanonical(bundle.reducer)
    for orbit, rep in zip(bundle.orbits, bundle.reports):
        klein = bundle.reducer.variants_many(
            [m for c in rep.cusps for m in c.members])
        table, _ = _inner_orbit_data(klein, rep.cusps, bundle.reducer)
        inner = inner_classes(orbit, scalar)
        assert sorted({tuple(s) for s in table.reshape(-1, 4).tolist()}) == inner
        G = bundle.spec.group
        for row in table.tolist():
            for j, s in enumerate(map(tuple, row)):
                h = (s[2], s[3], s[0], s[1])
                images = [variants(G, s)[1], h, variants(G, h)[1]]
                assert [scalar.canonical_inner(v) for v in images] == \
                    [tuple(row[j ^ g]) for g in (1, 2, 3)]
        assert _q2prime_faithful(table) == q2prime_faithful(inner, scalar) == want
        assert rep.b_fine == want


def test_unique_rows_match_np_unique():
    rng = np.random.default_rng(11)
    for n, r, hi in ((0, 4, 5), (1, 3, 5), (200, 4, 3), (1000, 4, 40),
                     (500, 6, 2 ** 31 - 1)):
        rows = rng.integers(-hi, hi, size=(n, r), dtype=np.int32)
        if n:
            rows = np.vstack([rows, rows[rng.integers(0, n, n // 2)]])
        got, first, inverse = unique_rows(rows)
        want, want_first, want_inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True)
        assert got.dtype == rows.dtype and np.array_equal(got, want)
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse.ravel())
        # a column of values: np.unique of the values
        col = unique_rows(rows[:, :1])[0]
        assert col.shape == (len(col), 1)
        assert np.array_equal(col.ravel(), np.unique(rows[:, 0]))


# -- the index-array route against the tuple route ------------------------------


def _analyses(spec, reduced):
    """Orbits and reports of both routes, each on its own reducer."""
    red = Reducer(spec)
    orbits = mbar4_orbits(spec, reduced, red)
    reports = [analyze_component(spec, orb, red) for orb in orbits]
    moves = braid_oracle.TupleMoves(Reducer(spec))
    want_orbits = braid_oracle.mbar4_orbits(reduced, moves)
    want = [braid_oracle.analyze_component(spec, orb, moves) for orb in want_orbits]
    assert [rep.orbit for rep in reports] == want_orbits
    return SimpleNamespace(spec=spec, reducer=red, reports=reports,
                           moves=moves, want=want)


def _lifted(L, lower):
    """The level over `lower` through L, seeded as the level job seeds it."""
    spec = lifted_spec(L, lower.spec)
    red = Reducer(spec)
    seeds = np.vstack([lift_tuples(L, rep.tuples[0], spec, red, frattini_verified=True)
                       for rep in lower.reports])
    return _analyses(spec, seeds)


def _dihedral_tower(p, k):
    base = dihedral_group(p)
    spec = NielsenSpec(base, (class_of_order(base, 2),) * 4, p)
    levels = [_analyses(spec, enumerate_reduced(spec))]
    for L in dihedral_level(p, k):
        levels.append(_lifted(L, levels[-1]))
        levels[-1].level = L
    return levels


def _assert_same_level(got):
    """Every report field (repr also tells numpy scalars from ints), the
    sh-incidence CSV and blocks."""
    assert repr([braid_oracle.report_fields(rep) for rep in got.reports]) == \
        repr([braid_oracle.report_fields(rep) for rep in got.want])
    inc = sh_incidence(got.reports, got.reducer)
    want = braid_oracle.sh_incidence(got.want, got.moves)
    assert inc.to_csv() == braid_oracle.to_csv(want)
    assert np.array_equal(inc.matrix, want.matrix)
    assert (inc.blocks, inc.component_of, inc.symmetric) == \
        (want.blocks, want.component_of, want.symmetric)
    # the reports' row numbers are their own reducer's, not another's
    with pytest.raises(AssertionError, match="not the reducer's"):
        sh_incidence(got.reports, Reducer(got.spec))


def _assert_same_comparisons(L, lower, upper):
    for li, (lrep, lwant) in enumerate(zip(lower.reports, lower.want)):
        for ui, (urep, uwant) in enumerate(zip(upper.reports, upper.want)):
            got = level_compare(lrep, urep, L, lower.reducer, li, ui)
            want = braid_oracle.level_compare(lwant, uwant, L,
                                              lower.moves.red, li, ui)
            assert got.to_dict() == want.to_dict()
            assert repr(got) == repr(want)
            assert check_goup(got) == check_goup(want)


@pytest.fixture(scope="module")
def d5_tower():
    return _dihedral_tower(5, 2)


def test_a5_levels_match_tuple_route(a5_level0, a5_level1, g1a5):
    low = _analyses(a5_level0.spec, a5_level0.reduced)
    up = _analyses(a5_level1.spec, a5_level1.reduced)
    for lvl in (low, up):
        _assert_same_level(lvl)
    _assert_same_comparisons(g1a5.level, low, up)


@pytest.mark.parametrize("labels, p", [
    ("5A,5A,5A", 3),            # r = 3: one class, fixed by gamma_0 and gamma_1
    ("3A,3A,3A,3A,3A", 2),      # r = 5: two orbits, an sh-incidence not symmetric
    ("5A,5A,5B,5B", 3),         # a gamma_1 fixed point
    ("5A,5A,5A,5A", 2),         # a gamma_0 fixed point
    ("3A,5A,5A,5B", 2),         # the larger orbit has the least tuple
    ("2A,2A,2A,3A", 5),         # q2 lengths that differ within a cusp
])
def test_level0_specs_match_tuple_route(a5, labels, p):
    spec = NielsenSpec(a5, tuple(class_id(a5, lab) for lab in labels.split(",")), p)
    got = _analyses(spec, enumerate_reduced(spec))
    assert got.reports
    assert all((rep.genus is None) == (spec.r != 4) for rep in got.reports)
    _assert_same_level(got)
    # elliptic ramification, over random maps onto the orbit's own classes
    rng = np.random.default_rng(5)
    for rep, want in zip(got.reports, got.want):
        for _ in range(5):
            below = rng.integers(0, rep.size, rep.size)
            assert elliptic_detect(rep, rep, below) == braid_oracle.elliptic_detect(
                want, want, {t: want.orbit[i] for t, i in zip(want.orbit, below.tolist())})


def test_d5_levels_match_tuple_route(d5_tower):
    assert [sum(r.size for r in lvl.reports) for lvl in d5_tower] == [12, 300, 7500]
    for lvl in d5_tower:
        _assert_same_level(lvl)
    for lower, upper in zip(d5_tower, d5_tower[1:]):
        _assert_same_comparisons(upper.level, lower, upper)


def test_components_below_are_the_pairs_that_compare(d5_tower, g1a5, a5_level0, a5_level1,
                                                     a4_tower):
    """cli._components_below lists, sorted, the (lower, upper) pairs on which
    level_compare does not raise MismatchedLevels, one per upper component;
    on the A4 tower (3A,3A,3B,3B at p = 2) 2 lower components lie under 6.
    A class that projects outside the level below, here onto (s, s, s, s)
    for an involution s of the lower class, raises InvariantViolation."""
    L = a4_tower.level
    a4 = level_bundle(NielsenSpec(L.base, tuple(class_id(L.base, lab) for lab in
                                                ("3A", "3A", "3B", "3B")), 2))
    spec = lifted_spec(L, a4.spec)
    red = Reducer(spec)
    seeds = [lift_tuples(L, rep.tuples[0], spec, red, frattini_verified=True)
             for rep in a4.reports]
    up = level_bundle(spec, red, np.vstack(seeds))
    assert (len(a4.reports), len(up.reports)) == (2, 6)
    towers = [(d5_tower[1].level, d5_tower[0], d5_tower[1]),
              (d5_tower[2].level, d5_tower[1], d5_tower[2]),
              (g1a5.level, a5_level0, a5_level1), (L, a4, up)]
    for L, low, up in towers:
        lower = (low.spec, low.reducer, low.reports)
        want = []
        for li, lrep in enumerate(low.reports):
            for ui, urep in enumerate(up.reports):
                try:
                    level_compare(lrep, urep, L, low.reducer, li, ui)
                except MismatchedLevels:
                    continue
                want.append((li, ui))
        assert cli._components_below(L, lower, up.reports) == want
        assert sorted(u for _, u in want) == list(range(len(up.reports)))
    L, low, up = towers[0]
    s = int(low.reports[0].tuples[0, 0])
    with pytest.raises(InvariantViolation, match="projects outside the level below"):
        cli._components_below(SimpleNamespace(proj=np.full(L.total.order, s)),
                              (low.spec, low.reducer, low.reports), up.reports)


def test_d7_level2_matches_tuple_route():
    tower = _dihedral_tower(7, 2)
    _assert_same_level(tower[2])
    _assert_same_comparisons(tower[2].level, tower[1], tower[2])


def test_scalar_moves_read_the_numbering(d5_tower):
    """gamma1/gamma_inf of a numbered class read its row; a class outside
    the numbering gets the same answer from a one-row move."""
    lvl = d5_tower[1]
    fresh = Reducer(lvl.spec)
    for t in lvl.reports[0].orbit[::7]:
        assert lvl.reducer.gamma1(t) == fresh.gamma1(t) == lvl.moves.gamma1(t)
        assert lvl.reducer.gamma_inf(t) == fresh.gamma_inf(t) == \
            lvl.moves.gamma_inf(t)
    assert len(fresh.rows) == 0
