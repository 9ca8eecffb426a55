import pytest

from mtower.errors import Overflow
from mtower.fp import (Presentation, coset_group, free_reduce, invert_word,
                       parse_presentation, schreier_generators, todd_coxeter,
                       word_pow)

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
