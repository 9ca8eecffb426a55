import random
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import dump_oracle
import group_oracle as oracle
from mtower import groups, nielsen
from mtower.errors import OrderExceeded
from mtower.fp import todd_coxeter
from mtower.frattini import minimal_generating_tuple
from mtower.groups import (FiniteGroup, alternating_group, cyclic_group,
                           dihedral_group, find_isomorphism, is_p_perfect,
                           klein_four, special_linear_2)
from mtower.perms import Perm, cycle_orders, cycle_str, parse_perm, parse_group_file


def test_perm_parse_and_format():
    q = parse_perm("(1 2 3 4 5)")
    assert q.images == (1, 2, 3, 4, 0)
    assert str(q) == "(1 2 3 4 5)"
    assert parse_perm("(2 5)(3 4)", 5).order() == 2
    r = parse_perm("(1 2)(3 4)")
    assert (r * r).is_identity()
    assert r.inverse() == r


def test_group_orders_from_generators():
    G = FiniteGroup([parse_perm("(1 2 3 4 5)"), parse_perm("(1 2 3)", 5)])
    assert G.order == 60
    assert FiniteGroup([Perm.identity(3)]).order == 1
    D5 = FiniteGroup([parse_perm("(1 2 3 4 5)"), parse_perm("(2 5)(3 4)", 5)])
    assert D5.order == 10


def test_order_budget():
    with pytest.raises(OrderExceeded, match=r"^group build: more than 30 "
                                            r"elements, past --budget-elements$"):
        FiniteGroup([parse_perm("(1 2 3 4 5)"), parse_perm("(1 2 3)", 5)],
                    max_order=30)


def test_multiplication_table_consistency(a5):
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, b, c = rng.integers(0, a5.order, size=3)
        assert a5.mul(a5.mul(int(a), int(b)), int(c)) == \
            a5.mul(int(a), a5.mul(int(b), int(c)))
    for x in range(a5.order):
        assert a5.mul(x, int(a5.inv[x])) == 0


def test_conjugacy_classes(a5, a4):
    sizes = [c.size for c in a5.conjugacy_classes()]
    assert sizes == [1, 15, 20, 12, 12]
    assert sum(sizes) == 60
    assert all(60 % s == 0 for s in sizes)
    d5 = dihedral_group(5)
    assert sorted(c.size for c in d5.conjugacy_classes()) == [1, 2, 2, 5]
    triv = FiniteGroup([Perm.identity(2)])
    assert [c.size for c in triv.conjugacy_classes()] == [1]
    # class members closed under conjugation by generators
    for cl in a4.conjugacy_classes():
        mem = set(cl.members)
        for x in cl.members:
            for g in a4.gen_indices:
                assert a4.conj(x, g) in mem


def test_is_p_perfect(a5):
    assert is_p_perfect(a5, 2) and is_p_perfect(a5, 3) and is_p_perfect(a5, 5)
    d5 = dihedral_group(5)
    assert is_p_perfect(d5, 5) and not is_p_perfect(d5, 2)
    z7 = cyclic_group(7)
    assert not is_p_perfect(z7, 7)
    a4 = alternating_group(4)
    assert is_p_perfect(a4, 2) and not is_p_perfect(a4, 3)


@pytest.mark.parametrize("n, gens", [(4, ["(1 3)(2 4)", "(1 2 3)"]),
                                     (5, ["(1 5)(3 4)", "(1 2 3)"])])
def test_alternating_generators_are_the_searched_ones(n, gens):
    """The builtin A_n has the generators the search finds, and they satisfy
    <a, b | a^2, b^3, (ab)^k> (group_oracle.alternating_presentation), which
    presents a group of its order."""
    G = alternating_group(n)
    a, b = (G.perm(g) for g in G.gen_indices)
    assert (a, b) == oracle.alternating_generators(n)
    assert [str(a), str(b)] == gens
    P = oracle.alternating_presentation(n)
    for rel in P.relators:
        word = Perm.identity(n)
        for letter in rel:
            g = (a, b)[abs(letter) - 1]
            word = word * (g if letter > 0 else g.inverse())
        assert word.is_identity(), rel
    assert todd_coxeter(P, (), 1 << 10).n == G.order


def test_center(a5):
    assert len(a5.center()) == 1
    assert len(klein_four().center()) == 4
    assert len(special_linear_2(5).center()) == 2


def symmetric_group(n: int) -> FiniteGroup:
    return FiniteGroup([Perm(tuple(range(1, n)) + (0,)), Perm((1, 0) + tuple(range(2, n)))])


def test_derived_subgroup_matches_oracle(a4, a5, g1a5, dihedral_pair):
    """The normal closure from its seeds is the one the whole-closure
    conjugation found, on the builtins, S7 and two pair models."""
    groups_ = [a4, a5, klein_four(), dihedral_group(5), dihedral_group(12),
               cyclic_group(6), symmetric_group(7), g1a5.level.total,
               dihedral_pair.level.total]
    assert g1a5.level.total._elements is None
    for G in groups_:
        assert G.derived_subgroup() == oracle.derived_subgroup(G), G.order
    assert [G.abelianization_order() for G in groups_] == [
        3, 1, 4, 2, 4, 6, 2, 1, 2]


def test_derived_subgroup_of_s8_is_prompt():
    """The S8 file that took minutes before the normal closure grew from its
    seeds: a handful of closures now, one per round."""
    G = FiniteGroup(parse_group_file("(5 9 1 6 2 4 8 3)\n(4 2)\n"))
    start = time.perf_counter()
    assert (G.order, G.abelianization_order()) == (40320, 2)
    assert time.perf_counter() - start < 5
    assert not is_p_perfect(G, 2) and is_p_perfect(G, 3)


def test_find_isomorphism():
    d5a = dihedral_group(5)
    d5b = FiniteGroup([parse_perm("(1 2 3 4 5)"), parse_perm("(2 5)(3 4)", 5)])
    phi = find_isomorphism(d5a, d5b)
    assert phi is not None
    for x in range(10):
        for y in range(10):
            assert phi[d5a.mul(x, y)] == d5b.mul(phi[x], phi[y])
    assert find_isomorphism(cyclic_group(4), klein_four()) is None


def test_subgroup_closure(a5):
    c3 = next(x for x in range(60) if a5.element_order(x) == 3)
    sub = a5.subgroup_closure([c3])
    assert len(sub) == 3
    assert a5.closure_size([c3]) == 3


def test_group_file_parse():
    text = "# A5 generators\n(1 2 3 4 5)\n\n(1 2 3)\n"
    gens = parse_group_file(text)
    assert FiniteGroup(gens).order == 60


def reference_closure(G, seeds):
    """<seeds> by a plain set BFS over G.mul."""
    seen, queue = {0}, [0]
    for x in queue:
        for s in seeds:
            y = G.mul(x, s)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


def test_closure_same_with_and_without_table(monkeypatch):
    plain = dihedral_group(2049)             # order 4098, above the table limit
    assert plain.mul_table is None
    monkeypatch.setattr(groups, "MUL_TABLE_LIMIT", plain.order)
    tabled = dihedral_group(2049)
    assert tabled.mul_table is not None
    r, s = plain.gen_indices
    cases = {(): 1, (0,): 1, (s,): 2, (plain.power(r, 683),): 3,
             (plain.power(r, 683), s): 6, (r,): 2049,
             (plain.power(r, 3), s): 1366, (r, s): 4098}
    for seeds, size in cases.items():
        full = reference_closure(plain, seeds)
        assert len(full) == size
        assert plain.subgroup_closure(seeds) == full
        assert tabled.subgroup_closure(seeds) == full
        assert plain.closure_size(seeds) == tabled.closure_size(seeds) == size


def test_perm_str_is_cycle_notation(a5, g1a5):
    for G in (a5, dihedral_group(5), g1a5.level.total):
        assert G.perm_str(0) == "()"
        assert [G.perm_str(i) for i in range(G.order)] == \
            [str(G.perm(i)) for i in range(G.order)] == G.perm_strs(range(G.order))
        assert G.perm_strs([]) == []


def _a5_a5_z2():
    """A5 x A5 x Z2 on 12 points: order 7200, past MUL_TABLE_LIMIT."""
    def perm(*cycle):
        return Perm.from_cycles([list(cycle)], 12)

    return FiniteGroup([perm(0, 1, 2), perm(0, 1, 2, 3, 4), perm(5, 6, 7),
                        perm(5, 6, 7, 8, 9), perm(10, 11)])


def test_element_order_without_table_from_cycle_type(a5):
    def by_products(G, a):
        n, x = 1, a
        while x != 0:
            x, n = G.mul(x, a), n + 1
        return n

    assert [a5.element_order(a) for a in range(60)] == \
        [by_products(a5, a) for a in range(60)]
    # past MUL_TABLE_LIMIT: A5 x A5 x Z2, where cycles of lengths 2, 3 and 5
    # meet in one element, and D_2049
    H = _a5_a5_z2()
    G = dihedral_group(2049)
    assert H.mul_table is None and G.mul_table is None
    assert [H.element_order(a) for a in range(0, H.order, 7)] == \
        [by_products(H, a) for a in range(0, H.order, 7)]
    assert {H.element_order(a) for a in range(H.order)} >= {6, 10, 15, 30}
    sample = [0, 1, 2, 3, 4097] + list(range(5, G.order, 251))
    assert [G.element_order(a) for a in sample] == [by_products(G, a) for a in sample]
    # all orders at once, against the scalar cycle walk: every element of H,
    # every fifth of D_2049
    for K, step in ((H, 1), (G, 5)):
        rows = K.elements[::step]
        want = [dump_oracle.cycle_lcm(row) for row in rows.tolist()]
        assert K.element_orders()[::step].tolist() == want
        assert cycle_orders(rows).tolist() == want
    start = time.perf_counter()
    classes = G.conjugacy_classes()
    assert time.perf_counter() - start < 5
    # the identity, 1,024 pairs of rotations {r^k, r^-k}, one class of reflections
    assert len(classes) == 1026


def _conjugates_by_every_element(G, sub):
    """(the distinct conjugates of `sub`, |N_G(sub)|), one G.conj per pair."""
    key = tuple(sorted(sub))
    images = [tuple(sorted(G.conj(x, c) for x in sub)) for c in range(G.order)]
    return set(images), images.count(key)


def test_conjugates_count_the_normalizer_index():
    A5 = alternating_group(5)

    def sub(*cycle_lists):
        return A5.subgroup_closure(
            [A5.lookup(Perm.from_cycles(cycles, 5).as_array())
             for cycles in cycle_lists])

    sylow5 = sub([[0, 1, 2, 3, 4]])
    sylow3 = sub([[0, 1, 2]])
    klein = sub([[0, 1], [2, 3]], [[0, 2], [1, 3]])
    a4 = sub([[0, 1, 2]], [[1, 2, 3]])
    for K, count in ((sylow5, 6), (sylow3, 10), (klein, 5), (a4, 5)):
        orbit = A5.conjugates(K)
        brute, normalizer = _conjugates_by_every_element(A5, K)
        assert orbit[0] == K and len(set(orbit)) == len(orbit) == count
        assert set(orbit) == brute and count == A5.order // normalizer


def test_conjugates_above_mul_table_limit():
    """Without a mul table the products go through the base-image keys."""
    G = _a5_a5_z2()
    assert G.order > groups.MUL_TABLE_LIMIT and G.mul_table is None
    K = G.subgroup_closure([G.gen_indices[0]])
    orbit = G.conjugates(K)
    brute, normalizer = _conjugates_by_every_element(G, K)
    assert len(orbit) == 10 == G.order // normalizer
    assert set(orbit) == brute


def _oracle_groups(a4, a5, g1a5, g1a4_schur):
    """Wide BFS levels (SL(2,11) from the generators and from the file,
    G1(A5) of order 1,920, an order-768 Schur cover), D125's 63 levels and
    Z/4096's 4,095 levels of one element."""
    sl2_file = FiniteGroup(parse_group_file(
        (Path(__file__).parent / "data" / "sl2_11.txt").read_text()))
    return {"A4": a4, "A5": a5, "K4": klein_four(), "D5": dihedral_group(5),
            "SL2_11": special_linear_2(11), "SL2_11 file": sl2_file,
            "D125": dihedral_group(125), "Z4096": cyclic_group(4096),
            "cover": g1a4_schur.by_type["Q8.Z4"].total, "G1(A5)": g1a5.level.total,
            "trivial": FiniteGroup([Perm.identity(3)])}


def test_table_and_inverses_match_oracle(a4, a5, g1a5, g1a4_schur):
    """The table from the BFS's own columns, filled a block of a BFS level
    at a time and turned over in place, and the inverses read off it equal
    the lookups of the earlier route."""
    for name, G in _oracle_groups(a4, a5, g1a5, g1a4_schur).items():
        elements, index, words, parents = oracle.bfs(G.gen_arrays)
        assert (G.elements == elements).all(), name
        assert G.words == words and G._parents == parents, name
        table = oracle.build_table(G.gen_arrays, elements, index, parents)
        assert G.mul_table.flags["C_CONTIGUOUS"], name
        assert (G.mul_table == table).all(), name
        assert (G.inv == oracle.build_inverses(elements, index)).all(), name
        assert (G.gen_cols == table[:, G.gen_indices].T).all(), name


def test_bfs_blocks_are_runs_of_one_level(a4, a5, g1a5, g1a4_schur):
    """bfs_blocks cuts the BFS order into consecutive runs, each inside one
    level (every parent earlier) and of at most _FILL_CELLS cells."""
    cases = _oracle_groups(a4, a5, g1a5, g1a4_schur)
    del cases["trivial"]
    levels = {}
    for name, G in cases.items():
        blocks = list(G.bfs_blocks(G.order))
        assert [b[0] for b in blocks] == [1] + [b[1] for b in blocks[:-1]], name
        assert blocks[-1][1] == G.order, name
        for lo, hi, parent, gi in blocks:
            assert hi - lo == 1 or (hi - lo) * G.order <= groups._FILL_CELLS, name
            assert parent.max() < lo, name
            assert (G.gen_cols[gi, parent] == np.arange(lo, hi)).all(), name
        levels[name] = len(list(G.bfs_blocks(1)))
    assert cases["cover"].order == 768
    assert levels["D125"] == 63 and levels["Z4096"] == 4095


def test_columns_and_inverses_without_table():
    for G in (dihedral_group(2049), _a5_a5_z2()):
        assert G.mul_table is None
        elements, index, words, parents = oracle.bfs(G.gen_arrays)
        assert G.words == words and G._parents == parents
        assert (G.inv == oracle.build_inverses(elements, index)).all()
        sample = range(0, G.order, 97)
        for i, g in enumerate(G.gen_indices):
            assert [int(G.gen_cols[i, x]) for x in sample] == \
                [G.mul(x, g) for x in sample]


def _fixed_points_first(G, k):
    """G's generators on k more points, put first and fixed by each one."""
    return FiniteGroup([Perm(tuple(range(k)) + tuple((g + k).tolist())) for g in G.gen_arrays])


@pytest.mark.parametrize("name", ["D2049", "PSL(2,23)", "A5xA5xZ2 after 3 fixed points"])
def test_batched_products_past_the_table_match_perm_composition(name):
    """Past MUL_TABLE_LIMIT a permutation group multiplies by the keys of
    its elements' base images; its products, inverses, orders, lookups,
    embeddings and conjugation rows match scalar composition of Perms."""
    G = {"D2049": lambda: dihedral_group(2049),
         "PSL(2,23)": lambda: FiniteGroup(parse_group_file(oracle.psl2_group_file(23))),
         "A5xA5xZ2 after 3 fixed points": lambda: _fixed_points_first(_a5_a5_z2(), 3)}[name]()
    assert G.mul_table is None and G.order > groups.MUL_TABLE_LIMIT
    perms = [G.perm(x) for x in range(G.order)]
    index = {q.images: x for x, q in enumerate(perms)}
    if name.endswith("fixed points"):
        assert G._keys[0][0] == 3
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, G.order, (2, 2000))
    want = [index[(perms[x] * perms[y]).images] for x, y in zip(a.tolist(), b.tolist())]
    assert G.mul_many(a, b).tolist() == want
    assert G.mul_many(a[:40, None], b[:50]).tolist() == \
        [[index[(perms[x] * perms[y]).images] for y in b[:50].tolist()]
         for x in a[:40].tolist()]
    assert [G.mul(x, y) for x, y in zip(a[:50].tolist(), b[:50].tolist())] == want[:50]
    assert G.inv.tolist() == [index[q.inverse().images] for q in perms]
    assert (G.element_orders() == cycle_orders(G.elements)).all()
    assert [G.lookup(perms[x].as_array()) for x in a[:20].tolist()] == a[:20].tolist()
    for i, j in ((0, 1), (G.degree // 2, G.degree // 2 + 1)):   # transpositions: no members
        swap = np.arange(G.degree, dtype=np.int32)
        swap[[i, j]] = j, i
        assert G.lookup(swap) is None
    H = groups.subgroup_from_indices(G, a[:2].tolist())
    assert G.element_subgroup(H) == [index[H.perm(i).images] for i in range(H.order)]
    assert G.element_subgroup(FiniteGroup([Perm(tuple(swap.tolist()))])) is None
    members = np.unique(b[:30])
    conj = nielsen._conj_table(G, members)
    for c in a[:40].tolist():
        cinv = perms[c].inverse()
        assert conj[c].tolist() == [index[(cinv * perms[m] * perms[c]).images]
                                    for m in members.tolist()]
        assert conj[c].tolist() == [G.conj(m, c) for m in members.tolist()]


def _cyclic_closed_form(n):
    return FiniteGroup.from_closed_form(n, [1], lambda a, b: (a + b) % n)


def test_closed_form_orders_and_inverses_match_the_walk(a5_p3_level):
    """Orders and inverses past the table, against the walk with one
    product per order step (group_oracle.powers_up): on the order-4,860
    level, whose orders are small; on Z/5040, whose order has repeated
    prime factors; and on a sample of Z/20011, whose orders are all
    20,011, so that its whole walk takes seconds.  Z/20011 itself is built
    in under 0.5 s."""
    times = []
    while len(times) < 3 and not (times and times[-1] < 0.5):
        start = time.perf_counter()
        big = _cyclic_closed_form(20011)
        times.append(time.perf_counter() - start)
    assert times[-1] < 0.5, times
    sample = np.r_[0, np.random.default_rng(5).choice(big.order, 100, replace=False)]
    for G, x in ((a5_p3_level.total, np.arange(4860)),
                 (_cyclic_closed_form(5040), np.arange(5040)), (big, sample)):
        assert G.mul_table is None
        orders, inv = oracle.powers_up(G, x)
        assert (G.element_orders()[x] == orders).all()
        assert (G.inv[x] == inv).all()
    assert set(big.element_orders()[1:].tolist()) == {20011}


def test_power_is_elementwise(a5, a5_p3_level):
    """x^e over arrays of elements, negative e included, against repeated
    products; an int in, an int out."""
    for G in (a5, a5_p3_level.total):
        x = np.arange(0, G.order, 7)
        for e in range(-4, 13):
            want = []
            for a in x.tolist():
                acc, b = 0, a if e >= 0 else int(G.inv[a])
                for _ in range(abs(e)):
                    acc = G.mul(acc, b)
                want.append(acc)
            assert G.power(x, e).tolist() == want
            assert G.power(x.reshape(-1, 1), e).ravel().tolist() == want
            got = G.power(int(x[3]), e)
            assert type(got) is int and got == want[3]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 600])
def test_transpose_in_place(n):
    A = np.random.default_rng(n).integers(0, 1 << 30, size=(n, n)).astype(np.int32)
    want = A.T.copy()
    groups._transpose_in_place(A)
    assert (A == want).all()


def _batch_masks(G, rows):
    masks = list(G._closure_masks(rows))
    return np.concatenate(masks) if masks else np.zeros((0, G.order), dtype=bool)


def test_batched_closure_on_all_pairs_of_a5(a5):
    rows = np.array(list(product(range(a5.order), repeat=2)))
    masks = _batch_masks(a5, rows)
    sizes = a5.closure_sizes(rows)
    assert (sizes == masks.sum(axis=1)).all()
    for row, mask, size in zip(rows.tolist(), masks, sizes):
        want = oracle.closure_mask(a5, row)
        assert (mask == want).all()
        assert a5.closure_size(row) == size
        assert tuple(mask.nonzero()[0].tolist()) == reference_closure(a5, row)
    assert sorted(set(sizes.tolist())) == [1, 2, 3, 4, 5, 6, 10, 12, 60]


def test_batched_closure_on_the_g1a5_lift_product(g1a5):
    L = g1a5.level
    G = L.total
    lifts = [L.lifts(g) for g in minimal_generating_tuple(L.base)]
    rows = np.array(list(product(*lifts)))
    assert rows.shape == (1024, 2)
    masks = _batch_masks(G, rows)
    assert (G.closure_sizes(rows) == G.order).all()
    for row, mask in zip(rows.tolist(), masks):
        assert (mask == oracle.closure_mask(G, row)).all()
    # non-generating rows: a lift with a kernel element, or one entry alone
    k = L.kernel_elems[1]
    odd = np.array([[rows[0, 0], k], [rows[5, 1], 0], [0, 0], [k, k]])
    for row, mask, size in zip(odd.tolist(), _batch_masks(G, odd),
                               G.closure_sizes(odd)):
        want = reference_closure(G, row)
        assert tuple(mask.nonzero()[0].tolist()) == want
        assert size == len(want) == G.closure_size(row) < G.order


def test_batched_closure_on_an_empty_batch(a5):
    for rows in ([], np.zeros((0, 2), dtype=np.int64)):
        assert a5.closure_sizes(rows).shape == (0,)
        assert _batch_masks(a5, rows).shape == (0, 60)
    assert a5.closure_sizes([[]]).tolist() == [1]     # one row, no seeds


def test_batched_closure_above_mul_table_limit():
    D = dihedral_group(2049)
    r, s = D.gen_indices
    r683 = D.power(r, 683)
    H = _a5_a5_z2()
    h = H.gen_indices
    for G, rows in ((D, [(r, s), (s, 0), (r683, r683), (0, 0), (r683, s)]),
                    (H, [(h[0], h[1]), (h[0], h[2]), (h[4], h[4]), (h[1], 0)])):
        assert G.order > groups.MUL_TABLE_LIMIT and G.mul_table is None
        rows = np.array(rows)
        masks = _batch_masks(G, rows)
        for row, mask, size in zip(rows.tolist(), masks, G.closure_sizes(rows)):
            want = reference_closure(G, row)
            assert tuple(mask.nonzero()[0].tolist()) == want
            assert size == len(want) == G.closure_size(row)


def test_cycle_str_matches_perm_cycles():
    rng = random.Random(5)
    cases = [Perm.identity(1), Perm.identity(9), parse_perm("(1 2)", 6),
             parse_perm("(2 5)(3 4)", 9), parse_perm("(1 2 3 4 5 6 7 8 9 10)")]
    for n in (2, 3, 12, 120, 1920):
        for _ in range(20):
            img = list(range(n))
            moved = rng.sample(range(n), rng.randint(0, n))
            shuffled = moved[:]
            rng.shuffle(shuffled)
            for a, b in zip(moved, shuffled):
                img[a] = b
            cases.append(Perm(tuple(img)))
    for q in cases:
        want = oracle.perm_str(q)
        assert cycle_str(list(q.images)) == cycle_str(q.images) == str(q) == want
    assert cycle_str([0, 1, 2]) == "()" and cycle_str([1, 0, 2]) == "(1 2)"
