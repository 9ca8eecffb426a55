import inspect
from collections import Counter

import numpy as np
import pytest

import cover_oracle
import fox_oracle
import group_oracle
from group_oracle import commutator_word, word_pow
from search_oracle import eval_relator
from test_cli import SPLIT_FILE_PRIMES, SPLIT_FILES
from mtower import cli, frattini, groups
from mtower import linalg as la
from mtower.errors import Collapse, NotPPrime, TooLarge
from mtower.fp import Presentation, free_reduce, invert_word, todd_coxeter
from mtower.frattini import (build_extension, dihedral_level, general_level,
                             h2_classes, lift_class,
                             normalizer, p_sylow, restriction_splits,
                             split_structure, verify_frattini,
                             verify_order_lifting)
from mtower.gmodules import GModule, loewy_layers, trivial_module
from mtower.groups import (FiniteGroup, alternating_group, cyclic_group,
                           dihedral_group, find_isomorphism, generating_set,
                           is_p_perfect, special_linear_2, subgroup_from_indices)
from mtower.nielsen import NielsenSpec, lifted_spec
from mtower.perms import Perm, parse_group_file


def test_dihedral_tower_chain():
    levels = dihedral_level(5, 2, max_order=300)
    assert [l.total.order for l in levels] == [50, 250]
    assert [l.base.order for l in levels] == [10, 50]
    for L in levels:
        assert verify_order_lifting(L).ok
        assert verify_frattini(L)
    # order-5 elements lift to order 25
    L = levels[0]
    g5 = next(x for x in range(10) if L.base.element_order(x) == 5)
    assert all(L.total.element_order(e) == 25 for e in L.lifts(g5))


def test_dihedral_k0_degenerate():
    levels = dihedral_level(5, 0)
    assert len(levels) == 1
    L = levels[0]
    assert L.total is L.base and L.kernel_dim == 0


def test_dihedral_lift_class():
    L = dihedral_level(7, 1)[0]
    c2 = next(ci for ci, c in enumerate(L.base.conjugacy_classes()) if c.element_order == 2)
    up = lift_class(L, c2)
    assert L.total.conjugacy_classes()[up].element_order == 2
    c7 = next(ci for ci, c in enumerate(L.base.conjugacy_classes()) if c.element_order == 7)
    with pytest.raises(NotPPrime):
        lift_class(L, c7)


def test_split_level_a4(a4_tower):
    L = a4_tower.level
    assert L.total.order == 384
    assert L.kernel_dim == 5       # 1 + p^d (d-1) = 1 + 4
    assert L.base.order == 12
    assert find_isomorphism(L.base, alternating_group(4)) is not None
    assert verify_order_lifting(L).ok
    assert verify_frattini(L)
    assert len(L.total.center()) == 1
    assert is_p_perfect(L.total, 2)
    assert todd_coxeter(L.total.presentation, (), 1 << 14).n == 384


@pytest.mark.parametrize("d, p", [(1, 5), (2, 2), (2, 3), (3, 2)])
def test_schreier_basis_coordinates(d, p):
    """Over P0 = (Z/p)^d, each of the (d - 1) p^d + 1 Schreier generators
    has its unit vector as coordinates, and every relator of
    P1 = F / Phi(Phi(F)) (s^p and [s, t]) has coordinates 0; a word outside
    Phi(F) is refused."""
    sgens, coords = frattini._schreier_basis(frattini._vector_group(d, p), p)
    m = (d - 1) * p ** d + 1
    assert len(sgens) == m
    assert (np.stack([coords(s) for s in sgens]) == np.eye(m, dtype=np.int64)).all()
    rels = [word_pow(s, p) for s in sgens]
    rels += [commutator_word(s, t) for i, s in enumerate(sgens) for t in sgens[i + 1:]]
    assert not any(coords(r).any() for r in rels)
    with pytest.raises(AssertionError, match="does not end at the identity"):
        coords((1,))


@pytest.mark.parametrize("d, p, h, A", [(2, 2, 3, [[0, 1], [1, 1]]), (1, 7, 3, [[2]])])
def test_split_presentations_hold(d, p, h, A):
    """The split model's hand-built presentations
    (group_oracle.split_presentations: G1's action relators write alpha(x_i)
    in P1's normal form, the BFS word of its P0 part, then the Schreier
    generators) hold in the coset route's G0split and G1split
    (group_oracle.split_level) and close at their orders."""
    tower = group_oracle.split_level(d, p, cyclic_group(h), [np.array(A)])
    presentations = group_oracle.split_presentations(tower, p, np.array(A), h)
    for G, P in zip((tower["g0"], tower["g1"]), presentations, strict=True):
        for rel in P.relators:
            assert eval_relator(G, G.gen_indices, rel) == 0, rel
        assert todd_coxeter(P, (), 1 << 14).n == G.order


def _z11_squared_z5():
    """(Z/11)^2 x| Z/5 on 22 points: a translation of each copy of Z/11,
    and x -> 3 x on both."""
    def shift(lo):
        return "(" + " ".join(str(lo + x + 1) for x in range(11)) + ")"

    def times3(lo):
        return "".join("(" + " ".join(str(lo + x * 3 ** k % 11 + 1) for k in range(5)) + ")"
                       for x in (1, 2))
    return FiniteGroup(parse_group_file(f"{shift(0)}\n{shift(11)}\n{times3(0)}{times3(11)}\n"))


def test_oversized_split_level_refused_first(monkeypatch):
    """(Z/11)^2 x| Z/5: its level would have 605 x 11^122 elements.  It is
    refused before the module is built, its size written as a power: past
    64 kernel dimensions the size is not computed (for (Z/2)^11 it is
    2^20,492, whose decimal form is past Python's int-to-str digit
    limit)."""
    G = _z11_squared_z5()
    assert G.order == 605

    def no_build(*args):
        raise AssertionError("the module was built")

    monkeypatch.setattr(frattini, "split_module", no_build)
    with pytest.raises(TooLarge, match=r"^pair model: 605 x 11\^122 points, "
                                       r"past PAIR_MODEL_LIMIT = 65,536$"):
        general_level(G, 11)


def test_split_matches_dihedral():
    """D5 has a normal 5-Sylow with a cyclic complement: its level from the
    relation module of Z/5 is D25, as in the dihedral closed form."""
    L = general_level(dihedral_group(5), 5).level
    dl = dihedral_level(5, 1)[0]
    assert L.total.order == dl.total.order == 50
    assert find_isomorphism(L.total, dl.total) is not None
    # the lift of the rotation, the first generator, has order 25
    rot_img = L.total.gen_indices[0]
    assert L.total.element_order(rot_img) == 25


def _split_cases(a4, a5):
    """(N, p): the builtin A4, every split-route file group at its prime,
    and the Sylow normalizers of A5 at p = 2, 3 and 5."""
    cases = [(a4, 2)] + [(FiniteGroup(parse_group_file(SPLIT_FILES[name])), p)
                         for name, p in SPLIT_FILE_PRIMES.items()]
    return cases + [(subgroup_from_indices(a5, generating_set(
        a5, list(normalizer(a5, p_sylow(a5, p))))), p) for p in (2, 3, 5)]


def _census(G):
    """The element-order census and the class-size census of G."""
    return (sorted(Counter(G.element_orders().tolist()).items()),
            sorted(Counter(len(c.members) for c in G.conjugacy_classes()).items()))


def test_split_module_level_matches_coset_oracle(a4, a5):
    """Over each group with a normal p-Sylow, the Frattini module
    (split_module) and the level general_level builds from it against the
    coset-enumeration split route (group_oracle.split_level, its kernel
    module moved onto the group): the same order, kernel dimension,
    element-order and class-size census and Loewy display; dim H^2 = 1, and
    the level is Frattini and lifts orders."""
    cases = _split_cases(a4, a5)
    assert len(cases) == 13
    for N, p in cases:
        gl = general_level(N, p)
        L, (tower, _) = gl.level, group_oracle.split_route(N, p)
        assert gl.module_data is None and gl.h2_dim == 1
        assert (L.total.order, L.kernel_dim) == (tower["g1"].order, len(tower["mats"][0]))
        assert _census(L.total) == _census(tower["g1"]), (N.order, p)
        assert loewy_layers(gl.module).display() == \
            loewy_layers(group_oracle.split_route_module(N, p)).display()
        assert verify_frattini(L) and verify_order_lifting(L).ok


def _assert_same_lifts(L):
    """verify_order_lifting, lift_class and lifted_spec against the scans
    of group_oracle: the same report (repr also tells numpy scalars from
    ints), and per base class the same class above or the same refusal."""
    assert repr(verify_order_lifting(L)) == repr(group_oracle.verify_order_lifting(L))
    outcomes = []
    for route in (lambda ci, c: L.total.conjugacy_classes()[lift_class(L, ci)],
                  lambda ci, c: group_oracle.lift_class(L, c)):
        outcomes.append([])
        for ci, c in enumerate(L.base.conjugacy_classes()):
            try:
                outcomes[-1].append(route(ci, c))
            except (NotPPrime, AssertionError) as e:
                outcomes[-1].append(type(e))
    assert outcomes[0] == outcomes[1]
    lifted = [ci for ci, c in enumerate(L.base.conjugacy_classes())
              if isinstance(outcomes[1][ci], groups.ConjClass)]
    spec = NielsenSpec(L.base, tuple(lifted[::-1]), L.p)
    assert repr(lifted_spec(L, spec).class_ids) == \
        repr(group_oracle.lifted_spec(L, spec).class_ids)


def test_p_prime_lifts_match_the_class_scan(a4_tower, g1a5, a5_p3_level, a5):
    """G1(A4), G1(A5) at p = 2 and 3, D25 -> D5, D125 -> D25, D49 -> D7,
    and the split extension of A5 by G1(A5)'s module, whose split sections
    keep element orders (120 violations)."""
    split = build_extension(a5.presentation, g1a5.module, np.zeros((3, 5), dtype=np.int64))
    for L in [a4_tower.level, g1a5.level, a5_p3_level, *dihedral_level(5, 2),
              dihedral_level(7, 1)[0], split]:
        _assert_same_lifts(L)
        assert verify_order_lifting(L).ok == (L is not split)
    assert len(verify_order_lifting(split).order_violations) == 120


def test_p_prime_lifts_match_the_class_scan_on_split_groups(a4, a5):
    """The same on the level of every group with a normal p-Sylow that the
    split-module test builds (the file groups among them)."""
    for N, p in _split_cases(a4, a5):
        _assert_same_lifts(general_level(N, p).level)

def test_split_module_acts_by_the_p_prime_part(a4_tower):
    """On A4, the matrix B that the free-group lift of h's action induces
    on P0's relation module has B^3 != 1; h acts by its 2'-part
    S = B^16 (16 = 0 mod 8 >= 5 = dim, 16 = 1 mod 3), and S^3 = 1.  The
    Klein four-group acts as P0 does on its relation module."""
    a4, M = a4_tower.level.base, a4_tower.module
    data = split_structure(a4, 2)
    P0 = frattini._vector_group(2, 2)
    sgens, coords = frattini._schreier_basis(P0, 2)
    words = [tuple(g + 1 for g in w) for w in P0.words]
    phi = [words[P0._at_code[la.vec_int(row, 2)]] for row in data.action]
    B = np.stack([coords(free_reduce(sum((phi[x - 1] if x > 0 else invert_word(phi[-x - 1])
                                          for x in s), ()))) for s in sgens])

    def power(A, e):
        out = la.identity(len(A))
        for _ in range(e):
            out = la.matmul(out, A, 2)
        return out

    S, one = M.mat_of(data.complement_gen), la.identity(5)
    assert (power(B, 3) != one).any()
    assert (power(S, 3) == one).all() and (S == power(B, 16)).all()
    for i, b in enumerate(data.basis):
        assert (M.mat_of(b) == np.stack([coords((-(i + 1),) + s + (i + 1,))
                                         for s in sgens])).all()


def test_split_structure_detection(a5):
    S = p_sylow(a5, 2)
    assert len(S) == 4
    N = normalizer(a5, S)
    assert len(N) == 12
    S5 = p_sylow(a5, 5)
    assert len(S5) == 5 and len(normalizer(a5, S5)) == 10


def test_h2_split_class_always_valid(a4_tower):
    G0 = a4_tower.level.base
    M = trivial_module(G0, 2)
    dim, classes = h2_classes(G0.presentation, M)
    assert dim == 1            # Schur multiplier of A4 is Z/2
    assert len(classes) == 2
    assert not classes[0].any()
    lvl = build_extension(G0.presentation, M, classes[1], name="2.A4")
    assert lvl.total.order == 24
    assert find_isomorphism(lvl.total, special_linear_2(3)) is not None


def test_h2_a5_dimensions(g1a5, a5):
    assert g1a5.h2_dim == 1
    assert g1a5.module.dim == 5
    # the split tail must be among the valid classes
    dim, classes = h2_classes(a5.presentation, g1a5.module)
    assert dim == 1 and len(classes) == 2


def _enumerated_extension(P, M, tails):
    """Coset table of the presented extension, or None below |G| p^m."""
    T = todd_coxeter(group_oracle.extension_presentation(P, M, tails), (), 1 << 18)
    assert T.n <= M.group.order * M.p ** M.dim
    return T if T.n == M.group.order * M.p ** M.dim else None


def _oracle_h2(P, M):
    """Reference H^2 by coset enumeration: every tail vector supported on the
    free columns of the coboundary tails, in counting order, is kept when
    its presented extension reaches |G| p^m."""
    p, m, s = M.p, M.dim, len(P.relators)
    B = fox_oracle.coboundary_tails(P, M)
    _, piv = la.rref(B, p) if B.size else (B, [])
    free_cols = [c for c in range(s * m) if c not in piv]
    valid = []
    for fv in la.all_vectors(len(free_cols), p):
        flat = np.zeros(s * m, dtype=np.int64)
        flat[free_cols] = fv
        if _enumerated_extension(P, M, flat.reshape(s, m)) is not None:
            valid.append(flat.reshape(s, m))
    dim = 0
    while p ** dim < len(valid):
        dim += 1
    assert p ** dim == len(valid)
    return dim, valid


def _enumerated_psi(P, M, tails):
    """psi(g, h) = s(gh)^-1 s(g) s(h) read off the enumerated extension, with
    s(g) the BFS word of g and kernel coordinates in the z generators."""
    G, p, m, d = M.group, M.p, M.dim, P.ngens
    T = _enumerated_extension(P, M, tails)
    coord = {}
    for v in la.all_vectors(m, p):
        word = tuple(d + j + 1 for j in range(m) for _ in range(int(v[j])))
        coord[T.act_word(0, word)] = v
    assert len(coord) == p ** m
    words = [tuple(gi + 1 for gi in w) for w in G.words]
    n = G.order
    psi = np.zeros((n, n, m), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            w = invert_word(words[G.mul(g, h)]) + words[g] + words[h]
            psi[g, h] = coord[T.act_word(0, w)]
    return psi


def _z2_redundant():
    Z2 = FiniteGroup([Perm.from_cycles([[0, 1]], 2)])
    return Presentation(1, ((1, 1), (1, 1, 1, 1))), trivial_module(Z2, 2)


def _with_presentation(G, p, mats=None, P=None):
    M = trivial_module(G, p) if mats is None else GModule(G, p, mats)
    return P or G.presentation, M


@pytest.mark.parametrize("case", [
    lambda: _with_presentation(alternating_group(4), 2),
    lambda: _with_presentation(alternating_group(5), 2),
    lambda: _with_presentation(alternating_group(5), 3),
    lambda: _with_presentation(dihedral_group(5), 5),
    lambda: _with_presentation(dihedral_group(5), 5,
                               [np.array([[1]]), np.array([[4]])]),
    # inverse letters: s^-1 r^-1 s = r
    lambda: _with_presentation(dihedral_group(5), 5,
                               [np.array([[1]]), np.array([[4]])],
                               Presentation(2, ((1,) * 5, (2, 2), (-2, -1, 2, -1)))),
    _z2_redundant,
], ids=["A4-F2", "A5-F2", "A5-F3", "D5-F5", "D5-sign-F5", "D5-sign-F5-inverse",
        "Z2-a2-a4"])
def test_h2_matches_coset_enumeration(case):
    P, M = case()
    dim, classes = h2_classes(P, M)
    odim, oclasses = _oracle_h2(P, M)
    assert dim == odim
    assert [c.tolist() for c in classes] == [c.tolist() for c in oclasses]
    for tails in classes[1:]:
        lvl = build_extension(P, M, tails)
        assert (group_oracle.level_psi(lvl) == _enumerated_psi(P, M, tails)).all()


def test_solve_coboundary_rows_match_fox_oracle(a5, a4_tower):
    """The coboundary tails that _cocycle_space sums on its relator walk
    equal the rref of the Fox derivatives evaluated in the split extension:
    trivial modules, the summands of the induced A5 modules at p = 2 and 3,
    and A4's Frattini module and trivial module."""
    cases = [(G.presentation, trivial_module(G, p)) for G, p in
             ((a5, 2), (a5, 3), (a5, 5), (alternating_group(4), 2),
              (dihedral_group(5), 5))]
    for p in (2, 3):
        data = frattini.frattini_module(a5, p)
        cases += [(a5.presentation, frattini.submodule_module(data.induced, b))
                  for b in data.summand_bases]
    G0 = a4_tower.level.base
    cases += [(G0.presentation, a4_tower.level.kernel_module),
              (G0.presentation, trivial_module(G0, 2))]
    assert sorted(M.dim for _, M in cases) == [1] * 6 + [4, 4, 5, 5, 6, 16]
    for P, M in cases:
        rows, _ = frattini._cocycle_space(P, M)[3]
        assert np.array_equal(rows, fox_oracle.coboundary_tails(P, M)), (P, M.dim)


def test_frattini_module_psi_matches_coset_enumeration(g1a5, a5):
    P, M = a5.presentation, g1a5.module
    lvl = build_extension(P, M, g1a5.tail)
    psi = group_oracle.level_psi(lvl)
    assert (psi == _enumerated_psi(P, M, g1a5.tail)).all()
    assert (group_oracle.level_psi(g1a5.level) == psi).all()


def test_frattini_module_inverse_letters_match_coset_enumeration(g1a5):
    # b^-3 reads the inverse of b's matrix, which differs from b's here
    P, M = Presentation(2, ((1, 1), (-2, -2, -2), (1, 2) * 5)), g1a5.module
    dim, classes = h2_classes(P, M)
    assert dim == 1
    lvl = build_extension(P, M, classes[1])
    assert (group_oracle.level_psi(lvl) == _enumerated_psi(P, M, classes[1])).all()


def test_h2_rejects_relator_false_in_group():
    # r^4 does not hold in D5: the relator scan would not close
    P = Presentation(2, ((1,) * 4, (2, 2), (1, 2, 1, 2)))
    with pytest.raises(AssertionError, match="relator 0"):
        h2_classes(P, trivial_module(dihedral_group(5), 5))


def test_build_extension_collapse():
    # redundant relator a^4 with a fresh tail: forced z = 1, so the
    # presented group collapses below |G| p^m
    P = Presentation(1, ((1, 1), (1, 1, 1, 1)))
    Z2 = FiniteGroup([Perm.from_cycles([[0, 1]], 2)])
    Z2.presentation = Presentation(1, ((1, 1),))
    M = trivial_module(Z2, 2)
    bad = np.array([[0], [1]])
    with pytest.raises(Collapse):
        build_extension(P, M, bad)
    good = np.array([[1], [0]])  # a^2 = z gives Z/4
    lvl = build_extension(P, M, good)
    assert lvl.total.order == 4


def test_g1a5_cover_properties(g1a5, a5):
    L = g1a5.level
    assert L.total.order == 1920
    rep = verify_order_lifting(L)
    assert rep.ok
    assert len(L.total.center()) == 1
    # restriction over A4 is nonsplit; over the trivial subgroup it splits
    a4sub = FiniteGroup([Perm.from_cycles([[0, 1, 2]], 5),
                         Perm.from_cycles([[1, 2, 3]], 5)])
    emb = a5.element_subgroup(a4sub)
    assert not restriction_splits(L, emb)
    z5 = FiniteGroup([Perm.from_cycles([[0, 1, 2, 3, 4]], 5)])
    emb5 = a5.element_subgroup(z5)
    assert restriction_splits(L, emb5)  # odd-order subgroup always splits off


def test_split_extension_order_violations(a5, g1a5):
    zero = np.zeros((3, 5), dtype=np.int64)
    lvl = build_extension(a5.presentation, g1a5.module, zero, name="split")
    rep = verify_order_lifting(lvl)
    assert rep.order_violations  # split sections preserve element orders
    assert not verify_frattini(lvl)


def test_transport_level(a4_tower):
    """The oracle's transport (group_oracle.transport_level, used by its
    split route) moves G1(A4) onto a relabelled A4."""
    L = a4_tower.level
    A4 = FiniteGroup(parse_group_file(SPLIT_FILES["a4b.txt"]))
    iso = find_isomorphism(L.base, A4)
    moved = group_oracle.transport_level(L, iso, A4)
    assert moved.total.order == 384
    assert verify_order_lifting(moved).ok


def test_kernel_module_matches_action(g1a5):
    L = g1a5.level
    for gi, g in enumerate(L.base.gen_indices):
        s = int(L.section[g])
        for k in L.kernel_elems[:8]:
            got = L.total.mul(L.total.mul(int(L.total.inv[s]), k), s)
            want = (L.kernel_coords[k] @ L.kernel_module.mats[gi]) % 2
            assert (L.kernel_coords[got] == want).all()


def _without_table(G: FiniteGroup) -> FiniteGroup:
    """G rebuilt from its generators, with the same BFS, and its table
    dropped: products compose permutations."""
    H = FiniteGroup([Perm(tuple(g.tolist())) for g in G.gen_arrays], name=G.name)
    H.mul_table, H.presentation = None, G.presentation
    return H


def test_level_filled_psi_matches_the_column_loop(a4_tower, g1a5):
    """The cocycles of the Schur covers of A4, A5 and G1(A4) (order 768)
    and of G1(A5), the extension of A5 by its dimension-5 Frattini module,
    filled a block of a BFS level at a time, against the loop of one column
    per element (group_oracle.extension_psi), and on A4 and A5 again with
    their tables dropped."""
    bases = [alternating_group(4), alternating_group(5), a4_tower.level.total]
    bases += [_without_table(G) for G in bases[:2]]
    cases = []
    for G in bases:
        M = trivial_module(G, 2)
        space = frattini._cocycle_space(G.presentation, M)
        _, classes = frattini._h2_classes(G.presentation, M, space)
        assert len(classes) > 1
        cases += [(G.presentation, M, space, tails) for tails in classes[1:]]
    for G in (bases[1], bases[-1]):
        M = GModule(G, 2, g1a5.module.mats)
        cases.append((G.presentation, M, frattini._cocycle_space(G.presentation, M),
                      g1a5.tail))
    for P, M, space, tails in cases:
        lvl = frattini._extension(P, M, space, tails, "E")
        assert np.array_equal(group_oracle.level_psi(lvl),
                              group_oracle.extension_psi(M, space, tails))
    assert bases[-1].mul_table is None and bases[-1].order == bases[1].order
    assert cases[-1][1].dim == 5


def test_memory_ceiling_names_the_stage(monkeypatch, a5, g1a5):
    # the A5 Frattini module (dim 5): 61 * 5 edge labels + 3 * 5 tails, and
    # 60 * 5 equations per relator with 5 |r| + 1 entries each (the peel's
    # three relators of A5 have 17 letters)
    P, M = a5.presentation, g1a5.module
    need = la.sparse_nullspace_bytes(320, 300 * (5 * 17 + 3), 2)
    monkeypatch.setattr(frattini, "MEMORY_CEILING", need - 1)
    with pytest.raises(TooLarge, match=r"^H\^2 solve: 320 unknowns .* past MEMORY_CEILING"):
        h2_classes(P, M)
    monkeypatch.setattr(frattini, "MEMORY_CEILING", need)
    space = frattini._cocycle_space(P, M)
    # the regular model on 60 * 2^5 points is the first stage past it
    with pytest.raises(TooLarge, match=r"^pair model: 1,920 points .* past MEMORY_CEILING"):
        frattini._extension(P, M, space, g1a5.tail, "G1")
    monkeypatch.setattr(frattini, "MEMORY_CEILING", 1000)
    with pytest.raises(TooLarge, match=r"^extension tables: 60 x 60 x 5 .* past MEMORY_CEILING"):
        frattini._extension(P, M, space, g1a5.tail, "G1")


def test_one_cocycle_solve_per_module(monkeypatch, a4_tower, a5):
    from mtower.schur import enumerate_schur_quotients

    dims = []
    solve = frattini._cocycle_space

    def counted(P, M):
        dims.append(M.dim)
        return solve(P, M)

    monkeypatch.setattr(frattini, "_cocycle_space", counted)
    enumerate_schur_quotients(a4_tower.level.total, 2)
    assert dims == [1]
    dims.clear()
    general_level(a5, 2)
    # the one induced summand that is not projective: the Sylow
    # normalizer's module comes from its relation module, with no solve
    assert dims == [5]
    dims.clear()
    general_level(a5, 3)
    assert dims == [4]
    dims.clear()
    general_level(a4_tower.level.base, 2)
    # A4's own Frattini module
    assert dims == [5]


def test_freeness_pick_matches_trial_oracle(g1a5, a5):
    """At p = 2 and 3 the one induced summand that is not free over the
    p-Sylow is the summand, with the same tail, that the trial filter keeps
    (an H^2 solve, the order-lifting check and versality per summand)."""
    for gl in (g1a5, general_level(a5, 3)):
        M, tail = cover_oracle.trial_summand(a5, gl.level.p)
        assert all((A == B).all() for A, B in zip(gl.module.mats, M.mats, strict=True))
        assert (gl.tail == tail).all()


def test_level_construction_runs_no_search(monkeypatch, a4, a5):
    """Levels are built by structure: with find_isomorphism, schur_covers,
    find_cover_map and verify_order_lifting made to raise, build_level
    still builds the levels of A4, of A5 at p = 2 and 3 and of the
    split-route file groups, each over the group itself."""
    def search(*args, **kwargs):
        raise AssertionError("a search ran while a level was built")

    for module, name in ((groups, "find_isomorphism"), (frattini, "schur_covers"),
                         (frattini, "find_cover_map"),
                         (frattini, "verify_order_lifting")):
        monkeypatch.setattr(module, name, search)
    cases = [(a4, 2), (a5, 2), (a5, 3)] + [
        (FiniteGroup(parse_group_file(SPLIT_FILES[name])), p)
        for name, p in SPLIT_FILE_PRIMES.items()]
    assert len(cases) == 12
    for G, p in cases:
        L = cli.build_level(G, p)
        assert L.base is G and L.total.order == G.order * p ** L.kernel_dim
    assert "find_isomorphism" not in inspect.getsource(cli)
    assert not hasattr(frattini, "_span_coords")
    assert "schur_levels" not in frattini.GeneralLevel.__dataclass_fields__
