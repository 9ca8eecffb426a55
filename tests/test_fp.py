from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from group_oracle import schreier_generators, word_pow
from test_cli_boundary import permutation_files
from mtower.errors import Overflow
from mtower.fp import (Presentation, coset_group, free_reduce, invert_word,
                       parse_presentation, peel_presentation, todd_coxeter)
from mtower.groups import (FiniteGroup, alternating_group, cyclic_group,
                           dihedral_group, klein_four)
from mtower.perms import parse_group_file

FREE2 = Presentation(2, ())
A5P = Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * 5))


def test_free_reduce():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert invert_word((1, 2, -1)) == (1, -2, -1)
    assert word_pow((1,), 3) == (1, 1, 1)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_cyclic_orders(n):
    assert todd_coxeter(Presentation(1, ((1,) * n,))).n == n


@pytest.mark.parametrize("pres,order", [
    (Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2))), 4),          # K4
    (Presentation(2, ((1, 1), (2, 2), (1, 2) * 3)), 6),            # S3
    (Presentation(2, ((1,) * 5, (2, 2), (1, 2, 1, 2))), 10),       # D5
    (Presentation(2, ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1))), 8),  # Q8
    (Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * 3)), 12),        # A4
    (A5P, 60),                                                      # A5
    (Presentation(2, ((1,), (2,))), 1),
])
def test_known_orders(pres, order):
    assert todd_coxeter(pres).n == order


def test_collapse_with_extra_relator():
    pres = Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * 5, (1,)))
    assert todd_coxeter(pres).n == 1


def test_subgroup_indices():
    assert todd_coxeter(A5P, [(1,)]).n == 30
    assert todd_coxeter(A5P, [(2,)]).n == 20
    assert todd_coxeter(A5P, [(1,), (2,)]).n == 1


def test_overflow():
    # free group: the trivial subgroup has infinite index
    with pytest.raises(Overflow, match=r"^coset enumeration: more than 100 "
                                       r"cosets, past --budget-cosets$"):
        todd_coxeter(FREE2, (), max_cosets=100)


def test_coset_action_is_group(a5=None):
    T = todd_coxeter(A5P, ())
    G = coset_group(T)
    assert G.order == 60
    # regular representation: action transitive and free
    assert T.act_word(0, (1, 2)) != 0


def test_schreier_rank_counts():
    # kernel of F2 -> K4: index 4, rank 1 + 4(2-1) = 5
    T = todd_coxeter(Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2))), ())
    sg = schreier_generators(FREE2, T)
    assert len(sg) == 5
    # index 1: the original generators come back
    T1 = todd_coxeter(Presentation(2, ((1,), (2,))), ())
    assert schreier_generators(FREE2, T1) == [(1,), (2,)]


@pytest.mark.parametrize("pres,index,rank_d", [
    (Presentation(2, ((1, 1), (2, 2), (1, 2) * 3)), 6, 2),    # S3 quotient
    (Presentation(2, ((1, 1, 1), (2, 2, 2), (1, 2, 1, 2))), None, 2),
])
def test_nielsen_schreier_rank(pres, index, rank_d):
    T = todd_coxeter(pres, ())
    sg = schreier_generators(FREE2, T)
    assert len(sg) == 1 + T.n * (rank_d - 1)


def test_parse_presentation_file():
    P = parse_presentation("gens: a b\na^2\nb^3\n(a*b)^5\n")
    assert P.ngens == 2 and todd_coxeter(P).n == 60
    P2 = parse_presentation("gens: x\nx^-6\n")
    assert todd_coxeter(P2).n == 6


def _check_peel(G: FiniteGroup) -> None:
    """The peel presents G on its generators: every relator, read from every
    vertex of G's Cayley graph (gen_cols, their inverses by argsort), walks
    back to where it started, and coset enumeration of the peel closes at
    |G|."""
    P = peel_presentation(G)
    assert P.ngens == len(G.gen_indices) and P.relators
    start = np.arange(G.order)
    for rel in P.relators:
        at = start
        for letter in rel:
            col = G.gen_cols[abs(letter) - 1]
            at = col[at] if letter > 0 else np.argsort(col)[at]
        assert (at == start).all(), rel
    assert todd_coxeter(P, (), 1 << 16).n == G.order


@pytest.mark.parametrize("build", [
    lambda: alternating_group(4), lambda: alternating_group(5), klein_four,
    lambda: dihedral_group(3), lambda: dihedral_group(7),
    lambda: cyclic_group(1), lambda: cyclic_group(4),
    lambda: FiniteGroup(parse_group_file(
        (Path(__file__).parent / "data" / "sl2_11.txt").read_text())),
], ids=["A4", "A5", "K4", "D3", "D7", "Z1", "Z4", "SL(2,11)"])
def test_peel_presents_the_builtins_and_sl2_11(build):
    _check_peel(build())


def test_peel_presents_both_a5_levels(g1a5, a5_p3_level):
    """G1(A5) at p = 2 (order 1,920 on 7 generators) and at p = 3 (4,860)."""
    for L in (g1a5.level, a5_p3_level):
        _check_peel(L.total)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(permutation_files())
def test_peel_presents_random_permutation_groups(source):
    try:
        gens = parse_group_file(source[1])
    except ValueError:              # the strategy's malformed lines
        assume(False)
    _check_peel(FiniteGroup(gens))


def test_peel_ranks_cycles_by_length():
    """The fundamental cycles kept are read from their lowest common
    ancestor, so each is cyclically reduced, and they come shortest first:
    A5 on a^2 and b^3 gives a^2, b^3 and a 12-letter cycle."""
    P = peel_presentation(alternating_group(5))
    assert P.relators[:2] == ((1, 1), (2, 2, 2))
    assert [len(r) for r in P.relators] == [2, 3, 12]
    assert all(r[0] != -r[-1] for r in P.relators)
