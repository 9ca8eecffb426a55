"""`groups.search_images` against the row-at-a-time searches it replaced
(tests/search_oracle.py): every caller returns what the old search did."""

from itertools import product
from math import prod

import numpy as np
import pytest

import search_oracle as oracle
from fox_oracle import coboundary_tails
from mtower import frattini
from mtower.cli import build_level, class_id
from mtower.frattini import (_homomorphism_onto, _orbit_lifts, build_extension,
                             dihedral_level, level_from_pair_model,
                             minimal_generating_tuple, normalizer, p_sylow,
                             restriction_splits, schur_covers, split_level,
                             split_structure, verify_frattini)
from mtower.gmodules import GModule, trivial_module
from mtower.groups import (FiniteGroup, alternating_group, cyclic_group,
                           dihedral_group, find_isomorphism, generating_set,
                           klein_four, search_images, spanning_tree,
                           subgroup_from_indices)
from mtower.nielsen import (NielsenSpec, Reducer, enumerate_reduced,
                            lift_tuples, lifted_spec, mbar4_orbits)
from mtower.perms import Perm
from mtower.schur import _splits, find_cover_map


def normalizer_tower(G, p):
    """The split tower over N_G(P) as frattini_module builds it, with the
    concrete normalizer."""
    N = normalizer(G, p_sylow(G, p))
    Nsub = subgroup_from_indices(G, generating_set(G, list(N)))
    data = split_structure(Nsub, p)
    H = cyclic_group(Nsub.element_order(data.complement_gen))
    return split_level(data.rank, p, H, [data.action]), Nsub


@pytest.fixture(scope="module")
def towers(a5):
    return {p: normalizer_tower(a5, p) for p in (2, 3, 5)}


@pytest.fixture(scope="module")
def a5_split(a5):
    """A5 x Z/2 as the split pair model over A5."""
    return level_from_pair_model(a5, trivial_module(a5, 2),
                                 np.zeros((60, 60, 1), dtype=np.int64), 2)


def test_find_isomorphism_matches_oracle(a4, a4_tower, towers):
    d5 = dihedral_group(5)
    d5b = FiniteGroup([Perm.from_cycles([[1, 4], [2, 3]], 5),
                       Perm.from_cycles([[0, 2, 4, 1, 3]], 5)])
    cases = [(d5, d5b), (d5b, d5), (cyclic_group(4), klein_four()),
             (a4_tower.level.base, a4)]
    cases += [(tower.g0, Nsub) for tower, Nsub in towers.values()]
    for src, dst in cases:
        assert find_isomorphism(src, dst) == oracle.find_isomorphism(src, dst)
    assert find_isomorphism(cyclic_group(4), klein_four()) is None
    assert [Nsub.order for _, Nsub in towers.values()] == [12, 6, 10]


def test_find_isomorphism_without_table():
    n = 2049
    D = dihedral_group(n)
    E = FiniteGroup([Perm(tuple((1 - i) % n for i in range(n))),
                     Perm(tuple((i + 2) % n for i in range(n)))])
    assert D.mul_table is None and E.mul_table is None
    phi = find_isomorphism(D, E)
    assert phi is not None and phi == oracle.find_isomorphism(D, E)
    assert minimal_generating_tuple(D) == oracle.minimal_generating_tuple(D)


def test_find_cover_map_matches_oracle(a4_tower, g1a5, a5):
    cases = [(a4_tower.level, E) for E in schur_covers(a4_tower.level.base, 2)]
    cases += [(g1a5.level, E) for E in schur_covers(a5, 2)]
    assert len(cases) == 2
    for L, E in cases:
        beta = find_cover_map(L, E)
        assert beta is not None and beta == oracle.find_cover_map(L, E)


def test_homomorphism_onto_matches_oracle(g1a5, a5_split):
    L = g1a5.level
    for E in g1a5.schur_levels:
        assert _homomorphism_onto(L, E) and oracle.homomorphism_onto(L, E)
    # the split extension A5 x Z/2 is no image of the Frattini cover
    assert not _homomorphism_onto(L, a5_split)
    assert not oracle.homomorphism_onto(L, a5_split)


def test_action_lift_matches_oracle(monkeypatch):
    seen = []
    search = frattini._find_action_lift

    def recording(P1, cand_lists, h_order):
        got = search(P1, cand_lists, h_order)
        seen.append((P1, cand_lists, h_order, got))
        return got

    monkeypatch.setattr(frattini, "_find_action_lift", recording)
    towers = [split_level(2, 2, cyclic_group(3), [np.array([[0, 1], [1, 1]])])]
    towers += [normalizer_tower(alternating_group(5), p)[0] for p in (3, 5)]
    assert len(seen) == 3
    for tower, (P1, cand_lists, h_order, (images, alpha)) in zip(towers, seen):
        d = len(cand_lists)
        assert images == tower.h_lift_images
        assert images == oracle.find_action_lift(P1, tower.p1_presentation, cand_lists,
                                                 h_order, d)
        assert alpha.tolist() == oracle.endomorphism_from_images(P1, images,
                                                                 list(range(d)))


def test_generation_searches_match_oracle(a4, a5, a4_tower, g1a5, a5_split):
    G1 = g1a5.level.total
    for G in (a4, a5, G1, a4_tower.level.total):
        assert minimal_generating_tuple(G) == oracle.minimal_generating_tuple(G)
    # (a4_tower.level is left out: 32^3 rows take the oracle about 5 s)
    levels = [g1a5.level, a5_split] + schur_covers(a4, 2) + schur_covers(a5, 2)
    for L in levels:
        assert _splits(L.total, L.base, L.proj) == \
            oracle.splits(L.total, L.base, L.proj)
    assert _splits(a5_split.total, a5, a5_split.proj)
    subgroups = {a5: [(0,), [0, 1], a5.subgroup_closure([1, 2]),
                      a5.subgroup_closure([3]), tuple(range(60))]}
    sylow = {p: p_sylow(a5, p) for p in (2, 3, 5)}
    subgroups[a5] += list(sylow.values())
    subgroups[a5] += [normalizer(a5, S) for S in sylow.values()]
    base4 = a4_tower.level.base
    subgroups[base4] = [(0,), p_sylow(base4, 2), p_sylow(base4, 3),
                        tuple(range(12))]
    got = []
    for L in (g1a5.level, a5_split, a4_tower.level):
        for S in subgroups[L.base]:
            want = oracle.restriction_splits(L, S)
            assert restriction_splits(L, S) == want
            got.append(want)
    assert True in got and False in got


def test_search_blocks_follow_product_order(a5):
    """Rows arrive in product order, in blocks that double up to the cap,
    and a generation search keeps every row."""
    elems = list(range(a5.order))
    rows = np.concatenate([r for r, _, _ in search_images(a5, [elems, elems])])
    assert rows.tolist() == [[a, b] for a in elems for b in elems]
    steps = [len(r) for r, _, _ in search_images(a5, [elems, elems])]
    assert steps[:4] == [1, 2, 4, 8] and max(steps) == steps[-2]
    empty = list(search_images(a5, [elems, []]))
    assert empty == []
    (rows, maps, sizes), = search_images(a5, [])
    assert rows.shape == (1, 0) and maps is None and sizes.tolist() == [1]


def test_search_keeps_exactly_the_homomorphisms(a4):
    """With a source, the kept rows are the generator images satisfying the
    presentation's relators, and their maps are homomorphisms."""
    cand = [range(a4.order)] * 2
    kept = [(r, m) for rows, maps, _ in search_images(a4, cand, a4)
            for r, m in zip(rows.tolist(), maps)]
    want = [list(r) for r in np.ndindex(12, 12)
            if not any(oracle.eval_relator(a4, r, rel)
                       for rel in a4.presentation.relators)]
    assert [r for r, _ in kept] == want
    for row, phi in kept:
        assert (phi[a4.mul_table] == a4.mul_many(phi[:, None], phi[None, :])).all()
        assert phi[a4.gen_indices].tolist() == row


def test_spanning_tree_words_match_queue_bfs(g1a5, a5):
    G = g1a5.level.total
    for gens in ([0, 1], [1, 0], [0, 1, 2], list(range(len(G.gen_indices)))):
        assert frattini._restricted_words(G, gens) == \
            oracle.restricted_words(G, gens)
    assert frattini._restricted_words(a5, [0, 1]) == \
        [tuple(g + 1 for g in w) for w in a5.words]
    tree = spanning_tree(a5, [0, 1])
    order = np.concatenate([np.zeros(1, dtype=np.int64)] + [c for c, _, _ in tree])
    assert order.tolist() == list(range(a5.order))   # the element BFS itself
    with pytest.raises(AssertionError):
        spanning_tree(g1a5.level.total, [len(g1a5.level.total.gen_indices) - 1])


def level0_orbit_lifts(G, labels, p):
    L = build_level(G, p, 1 << 18)
    assert verify_frattini(L)
    spec = NielsenSpec(G, tuple(class_id(G, lab) for lab in labels), p)
    red = Reducer(spec)
    orbits = mbar4_orbits(spec, enumerate_reduced(spec, reducer=red), red)
    lspec = lifted_spec(L, spec)
    lred = Reducer(lspec)
    return [[bool(lift_tuples(L, t, lspec, lred, frattini_verified=True))
             for t in orb] for orb in orbits]


@pytest.mark.parametrize("name,labels", [("A4", "3A,3A,3B,3B"),
                                         ("A5", "5A,5A,5B,5B")])
def test_lifts_exist_over_all_or_none_of_an_orbit(name, labels):
    G = alternating_group(int(name[1]))
    found = level0_orbit_lifts(G, labels.split(","), 2)
    assert all(len(set(orb)) == 1 for orb in found), found
    assert any(all(orb) for orb in found)


def test_lifts_exist_over_a_file_labelled_a4():
    """A4 on the generators (1 2 3), (2 3 4), as a group file gives it: the
    lifting orbit's members come in other arrangements of the class
    multiset than the spec's, and lifts exist over all 9 of them."""
    G = FiniteGroup([Perm.from_cycles([[0, 1, 2]], 4),
                     Perm.from_cycles([[1, 2, 3]], 4)], name="file-group")
    found = level0_orbit_lifts(G, ["3A", "3A", "3B", "3B"], 2)
    assert all(len(set(orb)) == 1 for orb in found), found
    assert [len(orb) for orb in found if all(orb)] == [9]


def test_batched_census_matches_one_pair_at_a_time(g1a4_schur):
    """p3_census closes all pairs in one batch; classify_pair is its
    one-row call.  Both give the old per-pair labels."""
    from mtower.schur import _classify_pairs, _independent, classify_pair, vd_set

    cases = [(q, g1a4_schur.level) for q in g1a4_schur.quotients]
    for E, L in cases:
        vd = vd_set(E, L)
        kelems = [m for m in L.kernel_elems if m]
        pairs = [(a, b) for a in kelems for b in kelems
                 if _independent(L.kernel_coords[a], L.kernel_coords[b], 2)]
        want = [oracle.classify_pair(E, L, a, b, vd) for a, b in pairs]
        assert _classify_pairs(E, L, pairs, vd) == want
        assert [classify_pair(E, L, a, b) for a, b in pairs[:20]] == want[:20]
    assert _classify_pairs(*cases[0], [], vd_set(*cases[0])) == []


@pytest.fixture(scope="module")
def non_frattini(a5, g1a5):
    """Three extensions of A5 by modules over F_2 that are not Frattini
    covers: split along the zero cocycle; split along a nonzero coboundary,
    so the complement lies off the section; and by K + F_2 along G1(A5)'s
    tails and zero on F_2, so only the lift tuples with no F_2 part fail."""
    P, M = a5.presentation, g1a5.module
    shape = (len(P.relators), M.dim)
    KS = GModule(a5, 2, [np.block([[A, np.zeros((M.dim, 1), dtype=np.int64)],
                                   [np.zeros((1, M.dim), dtype=np.int64), 1]])
                         for A in M.mats])
    return [build_extension(P, M, np.zeros(shape, dtype=np.int64), name="split"),
            build_extension(P, M, coboundary_tails(P, M)[0].reshape(shape),
                            name="coboundary"),
            build_extension(P, KS, np.hstack([g1a5.tail.reshape(shape),
                                              np.zeros((shape[0], 1), dtype=np.int64)]),
                            name="K + F_2")]


def all_lift_sizes(L):
    gens = minimal_generating_tuple(L.base)
    return np.concatenate([sizes for _, _, sizes in
                           search_images(L.total, [L.lifts(g) for g in gens])])


def test_frattini_check_matches_exhaustive_oracle(a4_tower, g1a5, non_frattini):
    for L in (a4_tower.level, g1a5.level, dihedral_level(5, 1)[0],
              dihedral_level(7, 1)[0]):
        assert verify_frattini(L) and oracle.verify_frattini(L)
    for L in non_frattini:
        assert not verify_frattini(L) and not oracle.verify_frattini(L)
    # the section's lifts are no complement in the second, and only some
    # lift tuples fail in the third
    cob, ks = map(all_lift_sizes, non_frattini[1:])
    assert cob[0] > 60 and (cob == 60).any()
    assert (ks == non_frattini[2].total.order).any() and (ks < non_frattini[2].total.order).any()


def test_frattini_check_matches_oracle_past_the_table(a5_p3_level):
    assert verify_frattini(a5_p3_level) and oracle.verify_frattini(a5_p3_level)


def test_orbit_lifts_meet_every_kernel_orbit(g1a5, a5_p3_level, dihedral_pair):
    """|K| |K^G| tuples are kept, and conjugating any lift tuple by some
    kernel element lands on a kept one."""
    for L, rows in ((g1a5.level, 32), (a5_p3_level, 81), (dihedral_pair.level, 5)):
        T, K = L.total, np.array(L.kernel_elems)
        gens = minimal_generating_tuple(L.base)
        kept = _orbit_lifts(L, gens)
        assert prod(map(len, kept)) == rows
        kept = set(product(*kept))
        for row in product(*[L.lifts(g) for g in gens]):
            conj = T.mul_many(T.mul_many(T.inv[K][:, None], np.array(row)), K[:, None])
            assert not kept.isdisjoint(map(tuple, conj.tolist()))
