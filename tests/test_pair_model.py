"""Groups built from their closed form, against the permutation BFS of the
earlier routes (tests/group_oracle.py): the pair models, the split-case
models P0 x| H and P1 x| H with the levels read off their codes, the
dihedral levels read off codes, and the order-p^3 model groups.  Products
past the multiplication table are checked against the composed
permutations, and the batched class walk against the scalar one."""

import numpy as np
import pytest

import dump_oracle
import group_oracle as oracle
from mtower import frattini, groups, schur
from mtower.cli import build_level, build_level_model, main
from mtower.groups import (FiniteGroup, alternating_group, cyclic_group,
                           dihedral_group, find_isomorphism, generating_set,
                           special_linear_2, subgroup_from_indices)
from mtower.perms import parse_group_file
from mtower.schur import enumerate_schur_quotients


@pytest.fixture
def recorded(monkeypatch):
    """Every pair model built while the fixture is live, with its inputs."""
    calls = []

    def record(base, module, psi, name=""):
        total, info = build(base, module, psi, name=name)
        calls.append((base, module, psi, total, info))
        return total, info

    build = frattini.pair_model_group
    monkeypatch.setattr(frattini, "pair_model_group", record)
    return calls


def test_closed_form_matches_permutation_bfs(recorded):
    """G1(A4) and its split P1, the three Schur covers of the split A4
    level, G1(A5) with the A5 Schur cover it is checked against, and the
    order-3,840 Schur cover of G1(A5)."""
    a4, a5 = alternating_group(4), alternating_group(5)
    build_level(a4, 2, 1 << 18)
    enumerate_schur_quotients(build_level_model(a4, 2, 1 << 18).total, 2)
    enumerate_schur_quotients(build_level_model(a5, 2, 1 << 18).total, 2)
    names = [total.name for *_, total, _ in recorded]
    assert names == ["P1", "split d=2 p=2-transported", "P1", "R_D1(G1split)",
                     "R_D2(G1split)", "R_D3(G1split)", "P1", "R_D1(A5)",
                     "G1(A5)", "R_D1(G1(A5))"]
    assert recorded[-1][3].order == 3840
    for base, module, psi, total, info in recorded:
        want, want_info = oracle.pair_model_group(base, module, psi)
        assert (total.elements == want.elements).all(), total.name
        assert (total.gen_cols == want.gen_cols).all(), total.name
        assert total._parents == want._parents, total.name
        assert (total.inv == want.inv).all(), total.name
        for key in ("proj", "section"):
            assert (info[key] == want_info[key]).all(), (total.name, key)
        assert info["kernel"] == want_info["kernel"], total.name
        # the kernel is listed by code: its coordinates are the base-p
        # digits of each element's position
        digits = np.arange(len(info["kernel"]))[:, None] // module.p ** np.arange(module.dim)
        assert all((want_info["coords"][k] == d % module.p).all()
                   for k, d in zip(info["kernel"], digits)), total.name


def test_formula_past_table_matches_composed_images(a5_p3_level):
    """On the order-4,860 level (no table), products, inverses and element
    orders by the closed form equal those of the elements' permutations:
    3,000 products a b of 100 elements a by 30 elements b, and the inverses
    and orders of 1,000 elements."""
    G = a5_p3_level.total
    assert G.order == 4860 > groups.MUL_TABLE_LIMIT and G.mul_table is None
    rng = np.random.default_rng(11)
    A, B = rng.choice(G.order, 100, replace=False), rng.choice(G.order, 30, replace=False)
    ab = G.mul_many(A[:, None], B)
    assert [G.mul(int(A[0]), y) for y in B.tolist()] == ab[0].tolist()
    img_B = G._images(B)
    for a, row in zip(A.tolist(), ab):
        # left to right: a b sends x to (x a) b
        assert (G._images(row) == img_B[:, G._images(a)]).all()
    x = rng.choice(G.order, 1000, replace=False)
    img_x = G._images(x)
    assert (np.take_along_axis(img_x, G._images(G.inv[x]), axis=1)
            == np.arange(G.degree)).all()
    assert [G.element_order(int(e)) for e in x] == \
        [dump_oracle.cycle_lcm(row) for row in img_x.tolist()]
    assert [G.lookup(row) for row in img_x[:20]] == x[:20].tolist()
    assert G.lookup(img_x[0][[0, 2, 1, *range(3, G.degree)]]) is None


def test_commands_build_no_full_element_array(monkeypatch, tmp_path):
    """a5-level1 and schur-a4-k1 print a pair model's elements one at a
    time and never make its whole element array."""
    def guarded(G):
        if G.code_mul is not None:
            raise AssertionError(f"full element array of {G.name}")
        return G._elements

    monkeypatch.setattr(FiniteGroup, "elements", property(guarded))
    for args in (["level", "--group", "A5", "--classes", "3A,3A,3A,3A"],
                 ["schur", "--group", "A4"]):
        assert main(args + ["--p", "2", "--k", "1", "--no-cache",
                            "--report", str(tmp_path / args[0])]) == 0


def assert_same_group(G, want):
    assert (G.elements == want.elements).all(), G.name
    assert (G.gen_cols == want.gen_cols).all(), G.name
    assert G._parents == want._parents, G.name
    assert (G.inv == want.inv).all(), G.name


def assert_same_level(L, want):
    """L against the parts of a level built by an oracle route."""
    assert (L.proj == want["proj"]).all(), L.name
    assert (L.section == want["section"]).all(), L.name
    assert L.kernel_elems == want["kernel"], L.name
    assert L.kernel_coords.keys() == want["coords"].keys(), L.name
    assert all((v == want["coords"][k]).all() for k, v in L.kernel_coords.items())
    assert (L.psi == want["psi"]).all(), L.name
    assert len(L.kernel_module.mats) == len(want["mats"])
    assert all((A == B).all() for A, B in zip(L.kernel_module.mats, want["mats"]))


def split_cases(a4, a5):
    """(d, p, H, [A_h]) for the A4 split tower and the towers over the
    Sylow normalizers of A5 at p = 2, 3, 5."""
    groups = [(a4, 2)] + [(subgroup_from_indices(a5, generating_set(
        a5, list(frattini.normalizer(a5, frattini.p_sylow(a5, p))))), p) for p in (2, 3, 5)]
    for N, p in groups:
        data = frattini.split_structure(N, p)
        yield data.rank, p, cyclic_group(N.element_order(data.complement_gen)), [data.action]


def test_split_models_match_permutation_route(a4, a5):
    """P0, G0split and G1split, and the split level read off their codes
    (proj, section, kernel, coordinates, module matrices, psi), equal the
    permutation groups and the point-0 decoding of the earlier route."""
    for d, p, H, mats in split_cases(a4, a5):
        tower = frattini.split_level(d, p, H, mats)
        want = oracle.split_level(d, p, H, mats)
        assert_same_group(frattini._vector_group(d, p), want["P0"])
        assert_same_group(tower.g0, want["g0"])
        assert_same_group(tower.g1, want["g1"])
        assert_same_level(tower.level, want)
    for d, p in ((1, 2), (3, 2), (2, 3), (2, 5)):
        assert_same_group(frattini._vector_group(d, p), oracle._vector_group(d, p))


def test_transported_a4_level_matches_entrywise_route(a4):
    """build_level on A4 moves the split level onto A4 by one fancy index;
    the entry-at-a-time transport of the earlier route gives the same
    cocycle, module and level."""
    L = build_level(a4, 2, 1 << 18)
    model = build_level_model(a4, 2, 1 << 18)
    iso = find_isomorphism(model.base, a4)
    want = oracle.transport_level(model, iso, a4)
    assert_same_group(L.total, want.total)
    assert_same_level(L, dict(proj=want.proj, section=want.section,
                              kernel=want.kernel_elems, coords=want.kernel_coords,
                              psi=want.psi, mats=want.kernel_module.mats))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dihedral_levels_match_decode_route(p):
    for L in frattini.dihedral_level(p, 2):
        assert_same_level(L, oracle.dihedral_step(L.base, p))


def test_dihedral_step_refuses_a_relabelled_base():
    """D5 on (1 3 4 5 2) and (2 3)(4 5) is not in the standard
    rotation/reflection form, so the closed form raises AssertionError and
    the command falls back to the split construction (tests/test_cli.py)."""
    G = FiniteGroup(parse_group_file("(1 3 4 5 2)\n(2 3)(4 5)\n"))
    assert G.order == 10
    with pytest.raises(AssertionError, match="standard rotation/reflection form"):
        frattini.dihedral_step(G, 5)
    with pytest.raises(AssertionError):
        oracle.dihedral_step(G, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_order_p3_groups_match_permutation_builders(p):
    for build, want in ((schur.heisenberg_group, oracle.heisenberg_group),
                        (schur.up_group, oracle.up_group),
                        (schur.wp_group, oracle.wp_group)):
        G = build(p)
        assert G.order == p ** 3
        assert_same_group(G, want(p))


def test_conjugacy_classes_match_scalar_walk(a5, a5_p3_level):
    """The class walk over one batch of conjugates gives the classes, in
    the same order, that the walk by scalar `conj` gives."""
    cases = [a5, special_linear_2(5), dihedral_group(2049),
             frattini.general_level(a5, 2).level.total, a5_p3_level.total]
    for G in cases:
        assert G.conjugacy_classes() == oracle.conjugacy_classes(G), G.name


def test_level_from_pair_model_rebuilds_a_level(a4_tower):
    """(base, kernel module, psi) alone rebuild a level: the split A4
    level's data give an order-384 pair model that passes the order-lifting
    check, and rebuilding from that model's data gives the same proj and
    section."""
    L = a4_tower.level
    lvl = frattini.level_from_pair_model(L.base, L.kernel_module, L.psi, L.p)
    assert (lvl.total.order, lvl.kernel_dim) == (384, 5)
    assert frattini.verify_order_lifting(lvl).ok
    again = frattini.level_from_pair_model(lvl.base, lvl.kernel_module, lvl.psi, lvl.p)
    assert (again.proj == lvl.proj).all() and (again.section == lvl.section).all()
    assert (again.psi == L.psi).all()
