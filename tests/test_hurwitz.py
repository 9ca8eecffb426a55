from fractions import Fraction

import numpy as np
import pytest

from mtower.errors import NonIntegralGenus
from mtower.groups import dihedral_group, unique_rows
from mtower.hurwitz import (_inner_orbit_data, _q2prime_faithful,
                            analyze_component, check_goup, component_genus,
                            genus_lower_bound, level_compare, moduli_tests,
                            sh_incidence, shortening_detect)
from mtower.nielsen import (NielsenSpec, Reducer, mbar4_orbits,
                            middle_product, project_tuple)

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
