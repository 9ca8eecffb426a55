"""The Schur slice as it was before it was read in kernel coordinates, kept
as an oracle.

`vd_set`, `vd_from_antecedent`, `check_modassume_from_vd`,
`_span_elements`, `p3_census`, `abelian_test`, `_abelian_invariants` and
`_top_type` are the old bodies: scalar element orders, products and
powers, subgroup closures, and a coset table for the quotient of M-hat.
`complement_orbit_labels` is the old body that walks every element of the
level with scalar `conj` and `element_order` for each stabilizer.
"""

from __future__ import annotations

from mtower.errors import IncompatibleLevels, NoAlpha
from mtower.frattini import FrattiniLevel
from mtower.groups import FiniteGroup
from mtower.schur import (AbelianSliceReport, VDSet, _classify_pairs,
                          _independent, _level_compatible, find_cover_map)


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
