"""Z/p Schur quotients of a cover level: central extensions R_D, the sets
V_D of kernel elements with order-p lifts, order-p^3 lift classification,
the three lifting conditions, abelian slices, and antecedent detection.

Each R_D is the pair model of one line of H^2(G, F_p), built from the same
linear solve as every other extension (frattini.schur_covers); its kernel
generator is kernel_elems[1].  The splitting check and the covering
map onto an antecedent run through groups.search_images, and the p^3
census closes all its pairs in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import (IncompatibleLevels, InputError, NoAlpha, NotPPerfect,
                     RankDeficient)
from .frattini import FrattiniLevel, schur_covers
from .groups import FiniteGroup, is_p_perfect, search_images


@dataclass
class VDSet:
    members: tuple[int, ...]          # kernel elements of the level (incl identity)
    nonzero: tuple[int, ...]          # V_D^0
    is_submodule: bool


P3_LABELS = ("Klein4", "D4", "Q8", "Z4xZ2", "ElemAbelian", "Up", "Hp_Wp", "Zp2xZp")


def enumerate_schur_quotients(G: FiniteGroup, p: int) -> list[FrattiniLevel]:
    """All Z/p Schur quotients of G (central Z/p Frattini extensions), one
    per line of H^2(G, F_p), in H^2 class order."""
    if not is_p_perfect(G, p):
        raise NotPPerfect("group admits a Z/p quotient")
    if G.presentation is None:
        raise InputError("group needs an attached presentation")
    out = schur_covers(G, p)
    for E in out:
        z = E.kernel_elems[1]
        for g in E.total.gen_indices:
            assert E.total.mul(z, g) == E.total.mul(g, z), "kernel not central"
        assert not _splits(E.total, G, E.proj), "Schur quotient unexpectedly split"
    return out


def _splits(total: FiniteGroup, G: FiniteGroup, proj: np.ndarray) -> bool:
    """Does the central extension admit a complement over G?"""
    lift_sets = [np.flatnonzero(proj == g) for g in G.gen_indices]
    return any((sizes == G.order).any()
               for _, _, sizes in search_images(total, lift_sets))


# -- V_D sets and pair classification --------------------------------------------


def _level_compatible(E: FrattiniLevel, L: FrattiniLevel) -> None:
    if E.base is not L.total:
        raise IncompatibleLevels("central extension is not over the level's total")


def vd_set(E: FrattiniLevel, L: FrattiniLevel) -> VDSet:
    """Kernel elements of the level whose lifts to R_D have order <= p.

    The p-th power of a lift is independent of the lift (central kernel), so
    membership is well defined; V_D is conjugation stable by construction.
    """
    _level_compatible(E, L)
    p = E.p
    members = []
    nonzero = []
    for melem in L.kernel_elems:
        small = {E.total.element_order(e) <= p for e in E.lifts(melem)}
        assert len(small) == 1, "lift order not independent of the lift"
        if small.pop():
            members.append(melem)
            if melem != 0:
                nonzero.append(melem)
    # submodule test: closed under products (elementary abelian kernel)
    mset = set(members)
    G1 = L.total
    closed = all(G1.mul(a, b) in mset for a in members for b in members)
    return VDSet(tuple(members), tuple(nonzero), closed)


def classify_pair(E: FrattiniLevel, L: FrattiniLevel, m1: int, m2: int,
                  vd: VDSet | None = None) -> str:
    """Isomorphism type of the group generated by lifts of two independent
    kernel elements; asserts membership in the allowed list for the
    positions of m1, m2 relative to V_D."""
    _level_compatible(E, L)
    if not _independent(L.kernel_coords[m1], L.kernel_coords[m2], E.p):
        raise RankDeficient("kernel elements do not span a 2-dimensional space")
    return _classify_pairs(E, L, [(m1, m2)], vd or vd_set(E, L))[0]


def _classify_pairs(E: FrattiniLevel, L: FrattiniLevel, pairs, vd: VDSet) -> list[str]:
    """classify_pair for a list of independent pairs: the groups generated
    by their first lifts are closed in batches, and read by array ops (a
    two-generator group is abelian iff its generators commute)."""
    p, R = E.p, E.total
    seeds = np.array([[E.lifts(m1)[0], E.lifts(m2)[0]] for m1, m2 in pairs],
                     dtype=np.int64).reshape(len(pairs), 2)
    abelian = R.mul_many(seeds[:, 0], seeds[:, 1]) == R.mul_many(seeds[:, 1], seeds[:, 0])
    orders, exponents, n_ps = [], [], []
    for masks in R._closure_masks(seeds, None):
        elems = masks.any(axis=0).nonzero()[0]
        ords = np.where(masks[:, elems], [R.element_order(x) for x in elems.tolist()], 0)
        orders.extend(masks.sum(axis=1).tolist())
        exponents.extend(ords.max(axis=1).tolist())
        n_ps.extend((ords == p).sum(axis=1).tolist())
    vset = set(vd.members)
    labels = []
    for (m1, m2), *stats in zip(pairs, orders, abelian.tolist(), exponents, n_ps):
        label = _p3_label(p, *stats)
        allowed = _allowed_labels(p, m1 in vset, m2 in vset)
        assert label in allowed, (label, allowed)
        labels.append(label)
    return labels


def _independent(v1: np.ndarray, v2: np.ndarray, p: int) -> bool:
    """Do v1 and v2 span a plane: both nonzero, v2 not a multiple of v1?"""
    a, b = v1.tolist(), v2.tolist()
    if not any(x % p for x in a) or not any(x % p for x in b):
        return False
    i = next(k for k, x in enumerate(a) if x % p)
    c = b[i] * la.inv_scalar(a[i], p)
    return any((c * x - y) % p for x, y in zip(a, b))


def _p3_label(p: int, order: int, abelian: bool, exponent: int, n_p: int) -> str:
    if order == p * p:
        assert abelian and exponent == p
        return "Klein4" if p == 2 else "ElemAbelian"
    assert order == p ** 3, f"unexpected pair group order {order}"
    if abelian:
        if exponent == p:
            return "ElemAbelian"
        return "Z4xZ2" if p == 2 else "Zp2xZp"
    if p == 2:
        return "D4" if n_p == 5 else "Q8"
    return "Hp_Wp" if exponent == p else "Up"


def _allowed_labels(p: int, in1: bool, in2: bool) -> set[str]:
    if p == 2:
        if in1 and in2:
            return {"Klein4", "D4"}
        if not in1 and not in2:
            return {"Z4xZ2", "Q8"}
        return {"Z4xZ2", "D4"}
    if in1 and in2:
        return {"ElemAbelian", "Up", "Hp_Wp"}
    if not in1 and not in2:
        return {"Zp2xZp", "Up"}
    return {"Zp2xZp", "Up"}


def p3_census(E: FrattiniLevel, L: FrattiniLevel) -> dict[str, int]:
    """classify_pair over all independent kernel pairs, with the allowed-list
    and the two-order-p^2-generator corollary asserted along the way."""
    vd = vd_set(E, L)
    vset, nonzero = set(vd.members), set(vd.nonzero)
    kelems = [m for m in L.kernel_elems if m != 0]
    pairs = [(m1, m2) for i, m1 in enumerate(kelems) for m2 in kelems[i + 1:]
             if _independent(L.kernel_coords[m1], L.kernel_coords[m2], E.p)]
    out: dict[str, int] = {}
    for (m1, m2), label in zip(pairs, _classify_pairs(E, L, pairs, vd)):
        out[label] = out.get(label, 0) + 1
        # two independent order-p^2 lifts meeting V_D^0 force Z/p^2 x Z/p
        if m1 not in vset and m2 not in vset and \
                nonzero.intersection(_span_elements(L, m1, m2)):
            assert label in ("Z4xZ2", "Zp2xZp"), label
    return dict(sorted(out.items()))


def _span_elements(L: FrattiniLevel, m1: int, m2: int) -> list[int]:
    G1 = L.total
    out = []
    for a in range(L.p):
        for b in range(L.p):
            if a == 0 and b == 0:
                continue
            out.append(G1.mul(G1.power(m1, a), G1.power(m2, b)))
    return out


def check_modassume(E: FrattiniLevel, L: FrattiniLevel) -> tuple[bool, bool, bool]:
    """The three lifting conditions: (a) every independent pair outside V_D
    meets V_D^0 in its span; (b) the complement of V_D generates the kernel;
    (c) V_D is a submodule."""
    vd = vd_set(E, L)
    return check_modassume_from_vd(L, vd)


def check_modassume_from_vd(L: FrattiniLevel, vd: VDSet) -> tuple[bool, bool, bool]:
    p = L.p
    G1 = L.total
    vset = set(vd.members)
    complement = [m for m in L.kernel_elems if m not in vset]
    a = True
    for i, m1 in enumerate(complement):
        for m2 in complement:
            if m2 == m1:
                continue
            if not _independent(L.kernel_coords[m1], L.kernel_coords[m2], p):
                continue  # <m1> = <m2>
            if not any(s in set(vd.nonzero) for s in _span_elements(L, m1, m2)):
                a = False
                break
        if not a:
            break
    if complement:
        b = len(G1.subgroup_closure(complement)) == len(L.kernel_elems)
    else:
        b = False
    c = vd.is_submodule
    return a, b, c


@dataclass
class AbelianSliceReport:
    alpha: int                        # witness in M_k outside V_D
    abelian: bool
    invariants: list[int]             # of the pullback M-hat, when abelian
    top_type: str | None              # order-16-style type over the radical part


def abelian_test(E: FrattiniLevel, L: FrattiniLevel,
                 rad_elems: list[int] | None = None) -> AbelianSliceReport:
    """Find alpha_D outside V_D, test whether the pullback of the kernel is
    abelian, and report its structure.

    When `rad_elems` (kernel elements spanning the radical of the kernel
    module) is given and central in the pullback, the quotient by a
    complement of the center inside their lift set is classified as well.
    """
    _level_compatible(E, L)
    vd = vd_set(E, L)
    vset = set(vd.members)
    alphas = [m for m in L.kernel_elems if m not in vset]
    if not alphas:
        raise NoAlpha("every kernel element lifts to order p; not a Frattini slice")
    alpha = alphas[0]
    R = E.total
    mhat = [e for e in range(R.order) if int(E.proj[e]) in set(L.kernel_elems)]
    abelian = True
    for a in mhat:
        for b in mhat:
            if R.mul(a, b) != R.mul(b, a):
                abelian = False
                break
        if not abelian:
            break
    invariants = _abelian_invariants(R, mhat, E.p) if abelian else []
    top = None
    if rad_elems is not None:
        top = _top_type(E, L, mhat, rad_elems)
    return AbelianSliceReport(alpha, abelian, invariants, top)


def _abelian_invariants(G: FiniteGroup, elems: list[int], p: int) -> list[int]:
    """Invariant factors of an abelian p-group given by its element set."""
    n = len(elems)
    counts = []
    e = 1
    power = p
    prev = 1
    while prev < n:
        cnt = sum(1 for x in elems if G.power(x, power) == 0)
        counts.append(cnt)
        prev = cnt
        power *= p
    # counts[j] = #elements of order <= p^(j+1); layer dims via logs
    dims = []
    prev = 1
    for cnt in counts:
        k = 0
        while prev * p ** (k + 1) <= cnt:
            k += 1
        dims.append(k)
        prev = cnt
    invs: list[int] = []
    for j, k in enumerate(dims):
        drop = k - (dims[j + 1] if j + 1 < len(dims) else 0)
        invs = [p ** (j + 1)] * drop + invs
    return sorted(invs)


def _top_type(E: FrattiniLevel, L: FrattiniLevel, mhat: list[int],
              rad_elems: list[int]) -> str:
    """Type of M-hat modulo an order-2 lift set of the kernel-module radical."""
    R = E.total
    p = E.p
    z = E.kernel_elems[1]
    k0: list[int] = []
    for m in rad_elems:
        lifts = [e for e in mhat if int(E.proj[e]) == m]
        lifts = [e for e in lifts if R.element_order(e) <= p]
        assert lifts, "radical element lifts only to order p^2"
        pick = min(lifts)
        k0.append(pick)
    sub = R.subgroup_closure(k0)
    if z in sub:
        # swap one lift by its z-translate to exclude the center
        k0[0] = R.mul(k0[0], z)
        sub = R.subgroup_closure(k0)
    assert z not in sub and len(sub) == p ** len(rad_elems)
    for s in sub:
        for x in mhat:
            assert R.mul(s, x) == R.mul(x, s), "radical lifts not central in M-hat"
    # quotient M-hat / <k0>
    subset = set(sub)
    cosets: dict[frozenset, int] = {}
    labels = []
    for x in mhat:
        cs = frozenset(R.mul(s, x) for s in subset)
        if cs not in cosets:
            cosets[cs] = len(labels)
            labels.append(min(cs))
    q = len(labels)
    coset_list = list(cosets)
    mul = {}
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            prod = R.mul(a, b)
            mul[(i, j)] = next(k for k, cs in enumerate(coset_list) if prod in cs)
    ident = next(k for k, cs in enumerate(coset_list) if 0 in cs)

    def order_of(i):
        o, cur = 1, i
        while cur != ident:
            cur = mul[(cur, i)]
            o += 1
        return o

    abelian = all(mul[(i, j)] == mul[(j, i)] for i in range(q) for j in range(q))
    orders = sorted(order_of(i) for i in range(q))
    exponent = max(orders)
    n2 = sum(1 for o in orders if o == p)
    if abelian:
        if exponent == p * p and q == 16:
            return "K4xZ4"
        return f"abelian-exp{exponent}"
    if q == 16 and exponent == 4:
        return "Q8xZ2" if n2 == 3 else "Q8.Z4"
    return f"nonabelian-{q}-exp{exponent}"


# -- antecedents ---------------------------------------------------------------------


def find_cover_map(L: FrattiniLevel, E_prev: FrattiniLevel) -> list[int] | None:
    """Surjection total -> R_D_prev over the common base, as an element map.

    E_prev must be a central extension of L.base; the universal property of
    the level guarantees existence, and p-perfectness makes it unique.
    """
    if E_prev.base is not L.base:
        raise IncompatibleLevels("antecedent candidate not over the level's base")
    G1, R = L.total, E_prev.total
    cand = [E_prev.lifts(int(L.proj[g])) for g in G1.gen_indices]
    phi = next((m for _, maps, sizes in search_images(R, cand, G1)
                for m in maps[sizes == R.order]), None)
    return None if phi is None else phi.tolist()


def vd_from_antecedent(L: FrattiniLevel, E_prev: FrattiniLevel) -> VDSet:
    """V_D of the would-be level-(k+1) Schur quotient with this antecedent:
    the kernel elements mapping trivially into the antecedent's center."""
    beta = find_cover_map(L, E_prev)
    if beta is None:
        raise IncompatibleLevels("no covering map onto the antecedent")
    members = tuple(m for m in L.kernel_elems if beta[m] == 0)
    nonzero = tuple(m for m in members if m != 0)
    mset = set(members)
    closed = all(L.total.mul(a, b) in mset for a in members for b in members)
    return VDSet(members, nonzero, closed)


def antecedent_test(E_prev: FrattiniLevel, E: FrattiniLevel, L: FrattiniLevel) -> bool:
    """Is E_prev antecedent to E?  Operationally: V_D(E) consists exactly of
    the kernel elements killed by the covering map onto E_prev."""
    want = vd_from_antecedent(L, E_prev)
    got = vd_set(E, L)
    return set(want.members) == set(got.members)


# -- order p^3 model groups (for the odd-prime type tests) ----------------------------


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p, on the codes a p^2 + b p + c of
    (a, b, c) (a, b above the diagonal, c in the corner); exponent p for
    odd p."""
    def code_mul(x, y):
        (a, b, c), (a2, b2, c2) = _digits3(x, p), _digits3(y, p)
        return ((a + a2) % p * p + (b + b2) % p) * p + (c + c2 + a * b2) % p

    return FiniteGroup.from_closed_form(p ** 3, [p * p, p], code_mul, name=f"H{p}")


def up_group(p: int) -> FiniteGroup:
    """Z/p^2 x| Z/p with the generator acting by 1 + p, on the codes a p + b
    of (a, b): (a, b)(a2, b2) = (a (1 + p)^b2 + a2, b + b2)."""
    twist = np.array([pow(1 + p, b, p * p) for b in range(p)])

    def code_mul(x, y):
        (a, b), (a2, b2) = np.divmod(x, p), np.divmod(y, p)
        return (a * twist[b2] + a2) % (p * p) * p + (b + b2) % p

    return FiniteGroup.from_closed_form(p ** 3, [p, 1], code_mul, name=f"U{p}")


def wp_group(p: int) -> FiniteGroup:
    """(Z/p)^2 x| Z/p with the unipotent matrix A = [[1,1],[0,1]], on the
    codes a p^2 + b p + c of (v, c) = ((a, b), c):
    (v, c)(w, c2) = (v A^{c2} + w, c + c2)."""
    def code_mul(x, y):
        (a, b, c), (a2, b2, c2) = _digits3(x, p), _digits3(y, p)
        return ((a + a2) % p * p + (a * c2 + b + b2) % p) * p + (c + c2) % p

    return FiniteGroup.from_closed_form(p ** 3, [p * p, p, 1], code_mul, name=f"W{p}")


def _digits3(x, p: int):
    """The base-p digits (a, b, c) of the codes x = a p^2 + b p + c."""
    return x // (p * p), x // p % p, x % p


def complement_orbit_labels(L: FrattiniLevel, vd: VDSet) -> list[tuple[int, list[int]]]:
    """Conjugation orbits on the kernel elements outside V_D, labeled by the
    largest p' element order in the stabilizer of an orbit member."""
    G1 = L.total
    outside = [m for m in L.kernel_elems if m not in set(vd.members)]
    seen: set[int] = set()
    out = []
    for m in sorted(outside):
        if m in seen:
            continue
        orbit = {m}
        queue = [m]
        while queue:
            x = queue.pop()
            for g in G1.gen_indices:
                y = G1.conj(x, g)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen |= orbit
        stab_orders = set()
        for e in range(G1.order):
            if G1.conj(m, e) == m:
                o = G1.element_order(e)
                if o % L.p:
                    stab_orders.add(o)
        out.append((max(stab_orders), sorted(orbit)))
    out.sort()
    return out
