"""Kernel benchmarks: the braid stage, its sh-incidence CSV, its orbit dump
and the cycle notation of its elements, on the D5 level-2 orbit (7,500
reduced classes over 125 distinct elements, the top level of
`mt dihedral --p 5 --k 2`);
the cover level of A4 and of A5 at p = 2 (`cli.build_level`); the F_p
elimination of H^2(G1(A4), F_2) and of H^2(G1(A5), F_2), the solves of
`mt schur --group A4 --p 2 --k 1` and `mt schur --group A5 --p 2 --k 1`;
and the group-table build, on an order-768 Schur cover of G1(A4) and on the
SL(2,11) file group.

Run with pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-min-rounds=7 \
        --benchmark-json=side.json

and merge the JSON of two checkouts with `benchmarks/bench_json.py`.  With
`--benchmark-disable` each benchmark runs once, as a smoke test.  The
directory lies outside `tests/`, so the tier-1 run does not collect it.
"""

import io
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mtower import frattini
from mtower.cli import _dump_files, build_level
from mtower.frattini import dihedral_level
from mtower.gmodules import trivial_module
from mtower.groups import FiniteGroup, alternating_group, dihedral_group
from mtower.perms import cycle_strs, parse_group_file
from mtower.hurwitz import analyze_component, level_compare, sh_incidence
from mtower.nielsen import (NielsenSpec, Reducer, enumerate_reduced,
                            lift_tuples, lifted_spec, mbar4_orbits)


def _analysed(spec, seeds):
    red = Reducer(spec)
    orbits = mbar4_orbits(spec, seeds, red)
    return SimpleNamespace(spec=spec, seeds=seeds, reducer=red, orbits=orbits,
                           reports=[analyze_component(spec, o, red) for o in orbits])


@pytest.fixture(scope="module")
def d5_levels():
    """Levels 0-2 of the D5 tower at p = 5, each level seeded by lifting one
    class per lower orbit, as the level job does."""
    D5 = dihedral_group(5)
    involutions = next(i for i, c in enumerate(D5.conjugacy_classes())
                       if c.element_order == 2)
    spec = NielsenSpec(D5, (involutions,) * 4, 5)
    levels = [_analysed(spec, enumerate_reduced(spec))]
    for L in dihedral_level(5, 2):
        lower = levels[-1]
        spec = lifted_spec(L, lower.spec)
        red = Reducer(spec)
        seeds = np.vstack([lift_tuples(L, rep.tuples[0], spec, red, frattini_verified=True)
                           for rep in lower.reports])
        levels.append(_analysed(spec, seeds))
        levels[-1].level = L
    assert len(levels[2].orbits) == 1 and len(levels[2].orbits[0]) == 7500
    return levels


def test_mbar4_orbits(benchmark, d5_levels):
    """The orbit search from the lifted seeds, on a fresh reducer each round
    (made outside the timing; 7 rounds, or one call when disabled)."""
    top = d5_levels[2]
    orbits = benchmark.pedantic(
        mbar4_orbits, setup=lambda: ((top.spec, top.seeds, Reducer(top.spec)), {}),
        rounds=7)
    assert [o.tolist() for o in orbits] == [o.tolist() for o in top.orbits]


def test_analyze_component(benchmark, d5_levels):
    top = d5_levels[2]
    report = benchmark(analyze_component, top.spec, top.orbits[0], top.reducer)
    assert report.to_dict() == top.reports[0].to_dict()


def test_sh_incidence(benchmark, d5_levels):
    top = d5_levels[2]
    inc = benchmark(sh_incidence, top.reports, top.reducer)
    assert inc.symmetric and len(inc.blocks) == 1


def test_sh_incidence_csv(benchmark, d5_levels):
    """The D5 level-2 sh-incidence CSV, formatted a row at a time; the same
    bytes as formatting the whole matrix through `astype(str)`."""
    inc = sh_incidence(d5_levels[2].reports, d5_levels[2].reducer)
    text = benchmark(inc.to_csv)
    cells = inc.matrix.astype(str).tolist()
    assert text == "\n".join(["," + ",".join(inc.labels)] + [
        lab + "," + ",".join(row) for lab, row in zip(inc.labels, cells)]) + "\n"
    assert text.count("\n") == len(inc.labels) + 1


def test_level_compare(benchmark, d5_levels):
    low, top = d5_levels[1], d5_levels[2]
    cmp = benchmark(level_compare, low.reports[0], top.reports[0], top.level,
                    low.reducer)
    assert cmp.degree * low.reports[0].size == top.reports[0].size


def test_write_dump(benchmark, d5_levels):
    """The level's orbit dump, its element table and index tuples
    (_dump_files), formatted from the orbit array into memory."""
    top = d5_levels[2]

    def write():
        out = {}
        for name, (_, write_file) in _dump_files(
                2, top.spec.group, [top.reports[0].tuples]).items():
            out[name] = io.StringIO()
            write_file(out[name])
        return out

    out = benchmark(write)
    assert out["orbits_L2.json"].getvalue().count("\n") == 7500 + 4
    assert out["elements_L2.json"].getvalue().count("\n") == 125 + 2


def test_cycle_strs(benchmark, d5_levels):
    """Cycle notation of the 125 distinct elements of the D5 level-2 orbit,
    one cycle_strs batch over their image rows."""
    G = d5_levels[2].spec.group
    elems = np.unique(d5_levels[2].reports[0].tuples)
    strs = benchmark(cycle_strs, G._images(elems))
    assert len(strs) == 125 and strs == G.perm_strs(elems)


@pytest.mark.parametrize("group, p, order", [("A4", 2, 384), ("A5-p2", 2, 1920)],
                         ids=["A4", "A5-p2"])
def test_cover_level(benchmark, group, p, order):
    """The level-1 cover of A4 and of A5 at p = 2, as `mt schur --k 1` and
    `mt level --k 1` build it: the Frattini module, the H^2 solve over the
    base and the pair model of the extension."""
    G = alternating_group(int(group[1]))
    L = benchmark(build_level, G, p)
    assert L.base is G and L.total.order == order


@pytest.fixture(scope="module")
def g1a4():
    """G1(A4), the level of order 384 under `mt schur --group A4 --p 2`."""
    return frattini.general_level(alternating_group(4), 2).level.total


def test_h2_solve(benchmark, g1a4):
    """The H^2(G1(A4), F_2) solve: 2,688 equations in 776 unknowns on the
    peel's seven relators, built and solved (_cocycle_space), nullity 5."""
    P, M = g1a4.presentation, trivial_module(g1a4, 2)
    labels, tails, _, _ = benchmark(frattini._cocycle_space, P, M)
    assert labels.shape == (5, 769) and tails.shape == (5, 7)


def test_h2_solve_g1a5(benchmark):
    """The H^2(G1(A5), F_2) solve of `mt schur --group A5 --p 2 --k 1`
    (24,960 equations in 3,854 unknowns on G1(A5)'s three generators),
    built and solved (_cocycle_space); dim H^2 = 1."""
    G = build_level(alternating_group(5), 2).total
    P, M = G.presentation, trivial_module(G, 2)
    space = benchmark(frattini._cocycle_space, P, M)
    assert space[0].shape[1] == G.order * (P.ngens - 1) + 1
    assert space[1].shape[1] == len(P.relators)
    assert frattini._h2_classes(P, M, space)[0] == 1


def _sl2_11():
    text = (Path(__file__).parents[1] / "tests" / "data" / "sl2_11.txt").read_text()
    return FiniteGroup(parse_group_file(text))


@pytest.mark.parametrize("group", ["cover768", "sl2_11"])
def test_build_table(benchmark, g1a4, group):
    """The multiplication table of an order-768 Schur cover of G1(A4) and of
    the SL(2,11) file group (order 1,320), from the BFS generator columns."""
    G = frattini.schur_covers(g1a4, 2)[0].total if group == "cover768" else _sl2_11()
    table = benchmark(G._build_table)
    assert np.array_equal(table, G.mul_table)
