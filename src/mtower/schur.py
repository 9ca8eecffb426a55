"""Z/p Schur quotients of a cover level: central extensions R_D, the sets
V_D of kernel elements with order-p lifts, order-p^3 lift classification,
the three lifting conditions, abelian slices, and antecedent detection.

R_D's are enumerated as index-p quotients of the kernel of the universal
exponent-p central extension (one coset enumeration), skipping the
split directions (functionals vanishing on the coboundary space).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg as la
from .errors import (IncompatibleLevels, InputError, NoAlpha, NotPPerfect,
                     RankDeficient)
from .fp import todd_coxeter
from .frattini import FrattiniLevel, universal_tail_extension
from .groups import FiniteGroup, is_p_perfect
from .perms import Perm


@dataclass
class CentralExt:
    total: FiniteGroup
    base: FiniteGroup
    p: int
    proj: np.ndarray
    center_gen: int
    name: str = ""

    def lifts(self, g: int) -> list[int]:
        return np.flatnonzero(self.proj == g).tolist()


@dataclass
class VDSet:
    members: tuple[int, ...]          # kernel elements of the level (incl identity)
    nonzero: tuple[int, ...]          # V_D^0
    is_submodule: bool


P3_LABELS = ("Klein4", "D4", "Q8", "Z4xZ2", "ElemAbelian", "Up", "Hp_Wp", "Zp2xZp")


def enumerate_schur_quotients(G: FiniteGroup, p: int,
                              max_cosets: int = 1 << 18) -> list[CentralExt]:
    """All Z/p Schur quotients of G (central Z/p Frattini extensions).

    Distinct quotients correspond to lines of H^2(G, F_p); each is cut out
    of the universal tail extension by an index-p subgroup of its kernel.
    """
    if not is_p_perfect(G, p):
        raise NotPPerfect("group admits a Z/p quotient")
    if G.presentation is None:
        raise InputError("group needs an attached presentation")
    data = universal_tail_extension(G.presentation, G, p, max_cosets)
    m = data["h2_dim"]
    if m == 0:
        return []
    s0 = data["s0"]
    T = data["table"]
    coords = data["coords"]
    kernel = data["kernel"]
    bred, bpiv = la.rref(data["Bhat"], p)
    chosen: list[np.ndarray] = []
    seen_lines: set[bytes] = set()
    for lam in la.all_vectors(s0, p):
        if not lam.any() or la.row_space_contains(bred, bpiv, lam, p):
            continue
        reduced = lam.copy()
        for r, c in enumerate(bpiv):
            if reduced[c]:
                reduced = (reduced - reduced[c] * bred[r]) % p
        nz = np.nonzero(reduced)[0]
        scaled = (reduced * la.inv_scalar(int(reduced[nz[0]]), p)) % p
        key = scaled.tobytes()
        if key in seen_lines:
            continue
        seen_lines.add(key)
        chosen.append(lam)
    assert len(chosen) == (p ** m - 1) // (p - 1)

    coset_of_coord = {la.vec_int(coords[c], p): c for c in kernel}
    out = []
    for idx, lam in enumerate(chosen):
        null_basis = la.nullspace(lam.reshape(1, -1), p)
        basis_words = [T.rep_words[coset_of_coord[la.vec_int(v, p)]]
                       for v in null_basis]
        Tq = todd_coxeter(data["presentation"], basis_words, max_cosets)
        assert Tq.n == G.order * p, (Tq.n, G.order * p)
        total = FiniteGroup([Tq.generator_perm(g) for g in range(Tq.ngens)],
                            max_order=Tq.n + 1, name=f"R_D{idx + 1}({G.name})")
        total.presentation = None
        proj = np.empty(total.order, dtype=np.int64)
        for e in range(total.order):
            proj[e] = G.eval_word(total.words[e])
        kernel_elems = [e for e in range(total.order) if proj[e] == 0 and e != 0]
        assert len(kernel_elems) == p - 1
        z = min(kernel_elems)
        for g in total.gen_indices:
            assert total.mul(z, g) == total.mul(g, z), "kernel not central"
        assert not _splits(total, G, proj), "Schur quotient unexpectedly split"
        out.append(CentralExt(total, G, p, proj, z, name=total.name))
    return out


def _splits(total: FiniteGroup, G: FiniteGroup, proj: np.ndarray) -> bool:
    """Does the central extension admit a complement over G?"""
    lift_sets = [[e for e in range(total.order) if int(proj[e]) == g]
                 for g in G.gen_indices]
    return any(total.closure_size(chosen) == G.order
               for chosen in product(*lift_sets))


# -- V_D sets and pair classification --------------------------------------------


def _level_compatible(E: CentralExt, L: FrattiniLevel) -> None:
    if E.base is not L.total:
        raise IncompatibleLevels("central extension is not over the level's total")


def vd_set(E: CentralExt, L: FrattiniLevel) -> VDSet:
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


def classify_pair(E: CentralExt, L: FrattiniLevel, m1: int, m2: int,
                  vd: VDSet | None = None) -> str:
    """Isomorphism type of the group generated by lifts of two independent
    kernel elements; asserts membership in the allowed list for the
    positions of m1, m2 relative to V_D."""
    _level_compatible(E, L)
    p = E.p
    G1, R = L.total, E.total
    v1, v2 = L.kernel_coords[m1], L.kernel_coords[m2]
    if la.rank(np.stack([v1, v2]), p) != 2:
        raise RankDeficient("kernel elements do not span a 2-dimensional space")
    vd = vd or vd_set(E, L)
    H = R.subgroup_closure([E.lifts(m1)[0], E.lifts(m2)[0]])
    order = len(H)
    abelian = all(R.mul(a, b) == R.mul(b, a) for a in H for b in H)
    orders = sorted(R.element_order(x) for x in H)
    exponent = max(orders)
    n_p = sum(1 for o in orders if o == p)
    label = _p3_label(p, order, abelian, exponent, n_p)
    allowed = _allowed_labels(p, m1 in set(vd.members), m2 in set(vd.members))
    assert label in allowed, (label, allowed)
    return label


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


def p3_census(E: CentralExt, L: FrattiniLevel) -> dict[str, int]:
    """classify_pair over all independent kernel pairs, with the allowed-list
    and the two-order-p^2-generator corollary asserted along the way."""
    vd = vd_set(E, L)
    out: dict[str, int] = {}
    vset = set(vd.members)
    G1, R = L.total, E.total
    p = E.p
    kelems = [m for m in L.kernel_elems if m != 0]
    for i, m1 in enumerate(kelems):
        for m2 in kelems[i + 1:]:
            if la.rank(np.stack([L.kernel_coords[m1], L.kernel_coords[m2]]), p) != 2:
                continue
            label = classify_pair(E, L, m1, m2, vd)
            out[label] = out.get(label, 0) + 1
            # two independent order-p^2 lifts meeting V_D^0 force Z/p^2 x Z/p
            if m1 not in vset and m2 not in vset:
                span = _span_elements(L, m1, m2)
                if any(s in set(vd.nonzero) for s in span):
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


def check_modassume(E: CentralExt, L: FrattiniLevel) -> tuple[bool, bool, bool]:
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
            if la.rank(np.stack([L.kernel_coords[m1], L.kernel_coords[m2]]), p) != 2:
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


def abelian_test(E: CentralExt, L: FrattiniLevel,
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


def _top_type(E: CentralExt, L: FrattiniLevel, mhat: list[int],
              rad_elems: list[int]) -> str:
    """Type of M-hat modulo an order-2 lift set of the kernel-module radical."""
    R = E.total
    p = E.p
    z = E.center_gen
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


def find_cover_map(L: FrattiniLevel, E_prev: CentralExt) -> list[int] | None:
    """Surjection total -> R_D_prev over the common base, as an element map.

    E_prev must be a central extension of L.base; the universal property of
    the level guarantees existence, and p-perfectness makes it unique.
    """
    if E_prev.base is not L.base:
        raise IncompatibleLevels("antecedent candidate not over the level's base")
    G1 = L.total
    R = E_prev.total
    if G1.presentation is None:
        raise InputError("level total needs an attached presentation")
    cand = [E_prev.lifts(int(L.proj[g])) for g in G1.gen_indices]

    def element_map(images) -> list[int] | None:
        if any(R.eval_relator(images, rel) for rel in G1.presentation.relators):
            return None
        phi = [0] * G1.order
        for e in range(1, G1.order):
            parent, gi = G1._parents[e]
            phi[e] = R.mul(phi[parent], images[gi])
        return phi if len(set(phi)) == R.order else None

    return next((phi for images in product(*cand)
                 if (phi := element_map(images)) is not None), None)


def vd_from_antecedent(L: FrattiniLevel, E_prev: CentralExt) -> VDSet:
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


def antecedent_test(E_prev: CentralExt, E: CentralExt, L: FrattiniLevel) -> bool:
    """Is E_prev antecedent to E?  Operationally: V_D(E) consists exactly of
    the kernel elements killed by the covering map onto E_prev."""
    want = vd_from_antecedent(L, E_prev)
    got = vd_set(E, L)
    return set(want.members) == set(got.members)


# -- order p^3 model groups (for the odd-prime type tests) ----------------------------


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p; exponent p for odd p."""
    pts = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    idx = {v: i for i, v in enumerate(pts)}

    def right_mul(u):
        a2, b2, c2 = u
        img = []
        for (a, b, c) in pts:
            img.append(idx[((a + a2) % p, (b + b2) % p, (c + c2 + a * b2) % p)])
        return Perm(tuple(img))

    return FiniteGroup([right_mul((1, 0, 0)), right_mul((0, 1, 0))],
                       max_order=p ** 3 + 1, name=f"H{p}")


def up_group(p: int) -> FiniteGroup:
    """Z/p^2 x| Z/p with the generator acting by 1 + p."""
    pts = [(a, b) for a in range(p * p) for b in range(p)]
    idx = {v: i for i, v in enumerate(pts)}

    def right_mul(u):
        a2, b2 = u
        img = []
        for (a, b) in pts:
            # (a, b) * (a2, b2): a twisted by the action of b2's target power
            img.append(idx[((a * pow(1 + p, b2, p * p) + a2) % (p * p),
                            (b + b2) % p)])
        return Perm(tuple(img))

    return FiniteGroup([right_mul((1, 0)), right_mul((0, 1))],
                       max_order=p ** 3 + 1, name=f"U{p}")


def wp_group(p: int) -> FiniteGroup:
    """(Z/p)^2 x| Z/p with the unipotent matrix [[1,1],[0,1]]."""
    pts = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    idx = {v: i for i, v in enumerate(pts)}

    def right_mul(u):
        a2, b2, c2 = u
        img = []
        for (a, b, c) in pts:
            # (v, c)(w, c2) = (v A^{c2} + w, c + c2), A = [[1,1],[0,1]]
            na = (a + a2) % p
            nb = (a * c2 + b + b2) % p
            img.append(idx[(na, nb, (c + c2) % p)])
        return Perm(tuple(img))

    return FiniteGroup([right_mul((1, 0, 0)), right_mul((0, 1, 0)),
                        right_mul((0, 0, 1))], max_order=p ** 3 + 1, name=f"W{p}")


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
