"""Pair models built from their closed form, against the permutation BFS
of the earlier route (group_oracle.pair_model_group), and their products
past the multiplication table against the composed permutations."""

import numpy as np
import pytest

import group_oracle as oracle
from mtower import frattini, groups
from mtower.cli import build_level, build_level_model, main
from mtower.groups import FiniteGroup, alternating_group
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
    build_level(a4, 2, 1 << 18, 1)
    enumerate_schur_quotients(build_level_model(a4, 2, 1 << 18, 1).total, 2)
    enumerate_schur_quotients(build_level_model(a5, 2, 1 << 18, 1).total, 2)
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
        assert info["coords"].keys() == want_info["coords"].keys()
        assert all((v == want_info["coords"][k]).all()
                   for k, v in info["coords"].items()), total.name


@pytest.fixture(scope="module")
def a5_p3_level():
    return frattini.general_level(alternating_group(5), 3).level


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
        [groups._cycle_lcm(row) for row in img_x.tolist()]
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
