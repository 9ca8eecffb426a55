import numpy as np
import pytest

import fox_oracle
from mtower import frattini
from mtower import linalg as la
from mtower.errors import Collapse, NotPPrime, TooLarge
from mtower.fp import Presentation, invert_word, todd_coxeter
from mtower.frattini import (build_extension, dihedral_level,
                             extension_presentation, general_level,
                             h2_classes, lift_class,
                             normalizer, p_sylow, restriction_splits,
                             split_level, split_structure, transport_level,
                             verify_frattini, verify_order_lifting)
from mtower.gmodules import GModule, trivial_module
from mtower.groups import (FiniteGroup, alternating_group, cyclic_group,
                           dihedral_group, find_isomorphism, is_p_perfect,
                           special_linear_2)
from mtower.perms import Perm


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
    c2 = next(c for c in L.base.conjugacy_classes() if c.element_order == 2)
    up = lift_class(L, c2)
    assert up.element_order == 2
    c7 = next(c for c in L.base.conjugacy_classes() if c.element_order == 7)
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


def test_split_matches_dihedral():
    tower = split_level(1, 5, cyclic_group(2), [np.array([[4]])])
    dl = dihedral_level(5, 1)[0]
    assert tower.level.total.order == dl.total.order == 50
    assert find_isomorphism(tower.level.total, dl.total) is not None
    # generators map to generators under some isomorphism of labeled gens
    rot_img = tower.level.total.gen_indices[0]
    assert tower.level.total.element_order(rot_img) == 25


def test_split_structure_detection(a5):
    S = p_sylow(a5, 2)
    assert len(S) == 4
    N = normalizer(a5, S)
    assert len(N) == 12
    S5 = p_sylow(a5, 5)
    assert len(S5) == 5 and len(normalizer(a5, S5)) == 10


def test_h2_split_class_always_valid(a4_tower):
    G0 = a4_tower.g0
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
    T = todd_coxeter(extension_presentation(P, M, tails), (), 1 << 18)
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
        assert (lvl.psi == _enumerated_psi(P, M, tails)).all()


def test_solve_coboundary_rows_match_fox_oracle(a5, a4_tower):
    """The coboundary tails that _cocycle_space sums on its relator walk
    equal the rref of the Fox derivatives evaluated in the split extension:
    trivial modules, the summands of the induced A5 modules at p = 2 and 3,
    and the split A4 level's kernel module and trivial module over G0."""
    cases = [(G.presentation, trivial_module(G, p)) for G, p in
             ((a5, 2), (a5, 3), (a5, 5), (alternating_group(4), 2),
              (dihedral_group(5), 5))]
    for p in (2, 3):
        data = frattini.frattini_module(a5, p)
        cases += [(a5.presentation, frattini.submodule_module(data.induced, b))
                  for b in data.summand_bases]
    G0 = a4_tower.g0
    cases += [(G0.presentation, a4_tower.level.kernel_module),
              (G0.presentation, trivial_module(G0, 2))]
    assert sorted(M.dim for _, M in cases) == [1] * 6 + [4, 4, 5, 5, 6, 16]
    for P, M in cases:
        rows, _ = frattini._cocycle_space(P, M)[3]
        assert np.array_equal(rows, fox_oracle.coboundary_tails(P, M)), (P, M.dim)


def test_frattini_module_psi_matches_coset_enumeration(g1a5, a5):
    P, M = a5.presentation, g1a5.module
    lvl = build_extension(P, M, g1a5.tail)
    assert (lvl.psi == _enumerated_psi(P, M, g1a5.tail)).all()
    assert (g1a5.level.psi == lvl.psi).all()


def test_frattini_module_inverse_letters_match_coset_enumeration(g1a5):
    # b^-3 reads the inverse of b's matrix, which differs from b's here
    P, M = Presentation(2, ((1, 1), (-2, -2, -2), (1, 2) * 5)), g1a5.module
    dim, classes = h2_classes(P, M)
    assert dim == 1
    lvl = build_extension(P, M, classes[1])
    assert (lvl.psi == _enumerated_psi(P, M, classes[1])).all()


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
    L = a4_tower.level
    A4 = alternating_group(4)
    iso = find_isomorphism(L.base, A4)
    moved = transport_level(L, iso, A4)
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


def test_memory_ceiling_names_the_stage(monkeypatch, a5, g1a5):
    # the A5 Frattini module (dim 5): 61 * 5 edge labels + 3 * 5 tails, and
    # 60 * 5 equations per relator with 5 |r| + 1 entries each
    P, M = a5.presentation, g1a5.module
    need = la.SparseNullspace.predicted_bytes(320, 300 * (5 * 15 + 3), 2)
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
    assert dims == [1, 4, 5]
