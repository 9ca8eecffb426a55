import pytest

import gcomplete_oracle as oracle
from mtower import gcomplete
from mtower.errors import Budget, NoInversePairs
from mtower.gcomplete import (CompletenessVerdict, _witnesses,
                              branch_count_bound, cyclotomic_order_q,
                              euler_phi, is_gcomplete, is_hm_p_gcomplete,
                              is_p_gcomplete)
from mtower.groups import (FiniteGroup, dihedral_group, generating_set,
                           special_linear_2)
from mtower.perms import Perm

from conftest import class_of_order


def _verify_witness(G, witness, class_ids):
    assert witness is not None
    assert len(witness) < G.order
    sset = set(witness)
    classes = G.conjugacy_classes()
    for ci in class_ids:
        assert any(m in sset for m in classes[ci].members)
    # closed under multiplication
    for a in list(sset)[:10]:
        for b in list(sset)[:10]:
            assert G.mul(a, b) in sset


def test_a5_p_gcomplete_verdicts(a5):
    assert is_p_gcomplete(a5, 2).complete
    v3 = is_p_gcomplete(a5, 3)
    assert not v3.complete
    p3_ids = [i for i, c in enumerate(a5.conjugacy_classes())
              if c.element_order % 3]
    _verify_witness(a5, v3.witness, p3_ids)
    assert len(v3.witness) == 10  # the minimal witness is dihedral of order 10
    v5 = is_p_gcomplete(a5, 5)
    assert not v5.complete
    p5_ids = [i for i, c in enumerate(a5.conjugacy_classes())
              if c.element_order % 5]
    _verify_witness(a5, v5.witness, p5_ids)


def test_a4_subgroup_is_a_5prime_witness(a5):
    """The order-12 subgroup meets every 5' class (the quoted witness)."""
    a4sub = FiniteGroup([Perm.from_cycles([[0, 1, 2]], 5),
                         Perm.from_cycles([[1, 2, 3]], 5)])
    emb = set(a5.element_subgroup(a4sub))
    classes = a5.conjugacy_classes()
    for ci, cl in enumerate(classes):
        if cl.element_order % 5:
            assert any(m in emb for m in cl.members)


def test_p_gcomplete_implies_gcomplete(a5):
    # meeting all classes is harder than meeting the p' ones
    all_ids = list(range(len(a5.conjugacy_classes())))
    assert is_gcomplete(a5, all_ids).complete
    d7 = dihedral_group(7)
    for p in (2, 7):
        if is_p_gcomplete(d7, p).complete:
            assert is_gcomplete(d7, list(range(len(d7.conjugacy_classes())))).complete


def test_dihedral_chain_p_gcomplete():
    # persistence up the tower: if the base were p-gcomplete so is the cover
    # (D5 is not: a single reflection subgroup meets every 5' class, so the
    # claim is vacuous here; the positive instance lives in the acceptance
    # suite on the order-1920 cover)
    base = is_p_gcomplete(dihedral_group(5), 5)
    cover = is_p_gcomplete(dihedral_group(25), 5)
    assert (not base.complete) or cover.complete
    assert not base.complete and len(base.witness) == 2


def test_hm_gcomplete(a5):
    c3 = class_of_order(a5, 3)
    v = is_hm_p_gcomplete(a5, (c3, c3))
    assert not v.complete      # removal leaves nothing to meet
    v4 = is_hm_p_gcomplete(a5, (c3,) * 4)
    assert not v4.complete     # a single 3A class is met by Z/3
    assert len(v4.witness) == 3
    from mtower.groups import cyclic_group
    z7 = cyclic_group(7)
    with pytest.raises(NoInversePairs):
        is_hm_p_gcomplete(z7, (1, 1))  # a Z/7 class is not self-inverse


def test_cyclotomic():
    assert cyclotomic_order_q(5) == 5
    assert cyclotomic_order_q(6) == 3
    assert cyclotomic_order_q(12) == 12
    assert euler_phi(5) == 4
    assert branch_count_bound([5]) == 8
    assert branch_count_bound([3, 5]) == 12


def test_witness_generators(a5):
    d5 = dihedral_group(5)
    assert generating_set(d5, (0,)) == []
    assert CompletenessVerdict(False, (0,)).to_dict(d5)["witness"] == []
    v = is_p_gcomplete(a5, 3)
    gens = generating_set(a5, v.witness)
    assert a5.subgroup_closure(gens) == v.witness
    assert len(v.to_dict(a5)["witness"]) == len(gens) == 2


def _oracle_cases(a5, g1a5):
    """(group, class list) pairs for the exhaustive-oracle comparison."""
    def p_prime(G, p):
        return [cl for cl in G.conjugacy_classes() if cl.element_order % p]

    for p in (2, 3, 5):
        yield a5, p_prime(a5, p)
    yield a5, a5.conjugacy_classes()
    for n in (5, 7, 9, 12):
        D = dihedral_group(n)
        for p in (2, 3, 5, 7):
            yield D, p_prime(D, p)
    sl2 = special_linear_2(11)
    classes = sl2.conjugacy_classes()
    yield sl2, [classes[class_of_order(sl2, 3)], classes[class_of_order(sl2, 5)]]
    yield g1a5.level.total, p_prime(g1a5.level.total, 5)
    # the class lists is_hm_p_gcomplete searches in test_hm_gcomplete
    c3 = a5.conjugacy_classes()[class_of_order(a5, 3)]
    yield a5, []
    yield a5, [c3, c3]


def test_witness_matches_exhaustive_oracle(a5, g1a5):
    for G, class_list in _oracle_cases(a5, g1a5):
        assert _witnesses(G, class_list) == oracle.witnesses(G, class_list), \
            (G.name, G.order, [cl.representative for cl in class_list])


def test_order_limit_refused_before_classes(monkeypatch):
    G = dihedral_group(7)
    monkeypatch.setattr(gcomplete, "SUBGROUP_SEARCH_LIMIT", 10)

    def no_classes():
        raise AssertionError("classes computed before the order check")

    monkeypatch.setattr(G, "conjugacy_classes", no_classes)
    for search in (lambda: is_gcomplete(G, [1]), lambda: is_p_gcomplete(G, 2),
                   lambda: is_hm_p_gcomplete(G, (1, 1))):
        with pytest.raises(Budget, match="witness search: group order 14 is "
                                         "past SUBGROUP_SEARCH_LIMIT = 10"):
            search()
