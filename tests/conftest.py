from __future__ import annotations

from types import SimpleNamespace

import pytest

from mtower.frattini import dihedral_level, general_level, verify_frattini
from mtower.groups import alternating_group
from mtower.hurwitz import analyze_component
from mtower.nielsen import (NielsenSpec, Reducer, _as_tuples, enumerate_reduced,
                            hm_seed_tuples, lift_tuples, lifted_spec,
                            mbar4_orbits)


def class_of_order(G, order):
    return next(i for i, c in enumerate(G.conjugacy_classes())
                if c.element_order == order)


def level_bundle(spec, reducer=None, reduced=None):
    """A level's reduced classes (rows; all of them unless given), its
    orbits and their reports.  `reduced` and `orbits` are lists of tuples,
    converted from the rows and row numbers that the pipeline passes."""
    red = reducer or Reducer(spec)
    if reduced is None:
        reduced = enumerate_reduced(spec, reducer=red)
    orbits = mbar4_orbits(spec, reduced, red)
    reports = [analyze_component(spec, orb, red) for orb in orbits]
    return SimpleNamespace(spec=spec, reducer=red, reduced=_as_tuples(reduced),
                           orbits=[rep.orbit for rep in reports], reports=reports)


@pytest.fixture(autouse=True)
def private_default_cache(tmp_path, monkeypatch):
    """The default cache ($MT_CACHE) of every job a test runs without
    --cache lies in the test's own tmp_path; child processes inherit it."""
    monkeypatch.setenv("MT_CACHE", str(tmp_path / "default-cache"))


@pytest.fixture(scope="session")
def a5():
    return alternating_group(5)


@pytest.fixture(scope="session")
def a4():
    return alternating_group(4)


@pytest.fixture(scope="session")
def a4_tower(a4):
    """G1(A4) -> A4: A4 extended by its Frattini module, the relation
    module of its normal 2-Sylow (frattini.split_module)."""
    return general_level(a4, 2)


@pytest.fixture(scope="session")
def g1a5(a5):
    gl = general_level(a5, 2)
    assert verify_frattini(gl.level)
    gl.level.frattini_checked = True
    return gl


@pytest.fixture(scope="session")
def a5_p3_level(a5):
    """The order-4,860 level of A5 at p = 3, past the multiplication table."""
    return general_level(a5, 3).level


@pytest.fixture(scope="session")
def a5_level0(a5):
    spec = NielsenSpec(a5, (class_of_order(a5, 3),) * 4, 2)
    return level_bundle(spec)


@pytest.fixture(scope="session")
def a5_level1(g1a5, a5_level0):
    """Level-1 orbits seeded by the fiber over a Harbater-Mumford class.

    Every braid orbit upstairs maps onto the single level-0 orbit, so the
    fiber over any one class (the H-M one here) reaches all of them.
    """
    L = g1a5.level
    spec1 = lifted_spec(L, a5_level0.spec)
    red1 = Reducer(spec1)
    hm = a5_level0.reducer.canonical(hm_seed_tuples(a5_level0.spec)[0])
    seeds = lift_tuples(L, hm, spec1, red1, frattini_verified=True)
    bundle = level_bundle(spec1, red1, seeds)
    bundle.level = L
    bundle.hm_seed = hm
    return bundle


@pytest.fixture(scope="session")
def dihedral_pair():
    """The p = 5 tower: level 0 and level 1 analyses plus the cover."""
    L = dihedral_level(5, 1)[0]
    spec0 = NielsenSpec(L.base, (class_of_order(L.base, 2),) * 4, 5)
    lvl0 = level_bundle(spec0)
    spec1 = lifted_spec(L, spec0)
    lvl1 = level_bundle(spec1)
    return SimpleNamespace(level=L, lvl0=lvl0, lvl1=lvl1)


@pytest.fixture(scope="session")
def g1a4_schur(a4_tower):
    from mtower import linalg as la
    from mtower.gmodules import radical
    from mtower.schur import abelian_test, enumerate_schur_quotients

    L = a4_tower.level
    quots = enumerate_schur_quotients(L.total, 2)
    rad_basis = radical(L.kernel_module)
    coord_to_elem = {la.vec_int(L.kernel_coords[e], 2): e
                     for e in L.kernel_elems}
    rad_elems = [coord_to_elem[la.vec_int(v, 2)] for v in rad_basis]
    # the quotients by their top type: their order follows the presentation
    by_type = {abelian_test(q, L, rad_elems).top_type: q for q in quots}
    return SimpleNamespace(level=L, quotients=quots, rad_elems=rad_elems,
                           by_type=by_type)
