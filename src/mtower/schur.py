"""Z/p Schur quotients of a cover level: central extensions R_D, the sets
V_D of kernel elements with order-p lifts, order-p^3 lift classification,
the three lifting conditions, abelian slices, and antecedent detection.

Each R_D is the pair model of one line of H^2(G, F_p), built from the same
linear solve as every other extension (frattini.schur_covers); its kernel
generator is kernel_elems[1].  The splitting check runs through
groups.search_images, the covering map onto an antecedent through
frattini.find_cover_map.

The slice is read in kernel coordinates: the level lists its kernel by the
base-p code of each vector, so questions about the kernel are answered on
the digit vectors of kernel positions, through ranks and span codes, and
questions about R_D by batched products over index arrays; the p^3 census
closes all its pairs in one batch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import np
from . import linalg as la
from .errors import IncompatibleLevels, NoAlpha, NotPPerfect, RankDeficient
from .frattini import FrattiniLevel, _digits, find_cover_map, schur_covers
from .groups import FiniteGroup, is_p_perfect, search_images, unique_rows


@dataclass
class VDSet:
    members: tuple[int, ...]          # kernel elements of the level (incl identity)
    nonzero: tuple[int, ...]          # V_D^0
    is_submodule: bool


def enumerate_schur_quotients(G: FiniteGroup, p: int) -> list[FrattiniLevel]:
    """All Z/p Schur quotients of G (central Z/p Frattini extensions), one
    per line of H^2(G, F_p), in H^2 class order."""
    if not is_p_perfect(G, p):
        raise NotPPerfect(f"Schur stage: group admits a Z/{p} quotient")
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

    A lift has order 1, p or p^2, so its order is at most p exactly when
    its p-th power is 1; the p-th power of a lift is independent of the
    lift (central kernel), so membership is well defined.  V_D is
    conjugation stable by construction.
    """
    _level_compatible(E, L)
    lifts = E.total.mul_many(E.section[L.kernel_elems][:, None], E.kernel_elems)
    small = E.total.power(lifts, E.p) == 0
    assert (small == small[:, :1]).all(), "lift order not independent of the lift"
    return _vd(L, small[:, 0])


def _vd(L: FrattiniLevel, inside: np.ndarray) -> VDSet:
    """The VDSet of the kernel positions where `inside` holds.  It is closed
    under products (a submodule of the elementary abelian kernel) exactly
    when |V_D| = p^(rank of its vectors)."""
    kernel = np.asarray(L.kernel_elems)
    members = kernel[inside]
    rank = la.rank(_digits(len(kernel), L.kernel_dim, L.p)[inside], L.p)
    return VDSet(tuple(members.tolist()), tuple(members[members != 0].tolist()),
                 len(members) == L.p ** rank)


def _independent_pairs(L: FrattiniLevel, pos: np.ndarray):
    """The independent pairs i < j of the kernel positions `pos`, with their
    spans: row r of `spans` holds the positions (codes) of the nonzero
    combinations a v + b w of the vectors v, w at i[r], j[r].  A pair is
    independent exactly when none of those codes is 0."""
    p, m = L.p, L.kernel_dim
    vecs = _digits(len(L.kernel_elems), m, p)
    i, j = (pos[k] for k in np.triu_indices(len(pos), 1))
    a, b = np.divmod(np.arange(1, p * p), p)
    spans = (a[:, None] * vecs[i][:, None] + b[:, None] * vecs[j][:, None]) % p \
        @ p ** np.arange(m)
    keep = (spans != 0).all(axis=1)
    return i[keep], j[keep], spans[keep]


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
    two-generator group is abelian iff its generators commute; its elements
    lie in M-hat, so their orders are 1, p or p^2)."""
    p, R = E.p, E.total
    seeds = R.mul_many(E.section[np.array(pairs, dtype=np.int64).reshape(-1, 2)],
                       E.kernel_elems[0])
    abelian = R.mul_many(seeds[:, 0], seeds[:, 1]) == R.mul_many(seeds[:, 1], seeds[:, 0])
    orders, exponents, n_ps = [], [], []
    for masks in R._closure_masks(seeds):
        elems = masks.any(axis=0).nonzero()[0]
        order = np.where(elems == 0, 1, np.where(R.power(elems, p) == 0, p, p * p))
        ords = np.where(masks[:, elems], order, 0)
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
    kernel = np.asarray(L.kernel_elems)
    inside = np.isin(kernel, vd.members)
    i, j, spans = _independent_pairs(L, np.flatnonzero(kernel != 0))
    labels = _classify_pairs(E, L, list(zip(kernel[i].tolist(), kernel[j].tolist())), vd)
    # two independent order-p^2 lifts meeting V_D^0 force Z/p^2 x Z/p
    forced = ~inside[i] & ~inside[j] & inside[spans].any(axis=1)
    assert set(np.array(labels)[forced]) <= {"Z4xZ2", "Zp2xZp"}, labels
    return dict(sorted(Counter(labels).items()))


def check_modassume(E: FrattiniLevel, L: FrattiniLevel) -> tuple[bool, bool, bool]:
    """The three lifting conditions: (a) every independent pair outside V_D
    meets V_D^0 in its span; (b) the complement of V_D generates the kernel;
    (c) V_D is a submodule."""
    return check_modassume_from_vd(L, vd_set(E, L))


def check_modassume_from_vd(L: FrattiniLevel, vd: VDSet) -> tuple[bool, bool, bool]:
    """check_modassume for a given V_D.  The span of an independent pair
    avoids 0, so (a) asks that it meet V_D; the complement generates the
    kernel exactly when its vectors have rank m (kernel dimension)."""
    inside = np.isin(L.kernel_elems, vd.members)
    outside = np.flatnonzero(~inside)
    _, _, spans = _independent_pairs(L, outside)
    a = bool(inside[spans].any(axis=1).all())
    vecs = _digits(len(L.kernel_elems), L.kernel_dim, L.p)[outside]
    b = bool(outside.size) and la.rank(vecs, L.p) == L.kernel_dim
    return a, b, vd.is_submodule


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
    kernel = np.asarray(L.kernel_elems)
    alphas = kernel[~np.isin(kernel, vd.members)]
    if not alphas.size:
        raise NoAlpha("every kernel element lifts to order p; not a Frattini slice")
    R = E.total
    mhat = np.flatnonzero(np.isin(E.proj, kernel))
    table = R.mul_many(mhat[:, None], mhat)
    abelian = bool((table == table.T).all())
    invariants = _abelian_invariants(R, mhat, E.p) if abelian else []
    top = None if rad_elems is None else _top_type(E, L, mhat, rad_elems)
    return AbelianSliceReport(int(alphas[0]), abelian, invariants, top)


def _abelian_invariants(G: FiniteGroup, elems, p: int) -> list[int]:
    """Invariant factors of an abelian p-group given by its element set.

    When p^(d_j) of its elements have order <= p^j, it has d_j - d_(j-1)
    cyclic factors of order >= p^j; the exponents of the factors are the
    conjugate of that partition."""
    x, n = np.asarray(elems), len(elems)
    logs = [0]                                     # d_0, d_1, ...
    while p ** logs[-1] < n:
        x = G.power(x, p)
        logs.append(len(np.base_repr(int((x == 0).sum()), p)) - 1)
    layers = np.diff(logs)                         # factors of order >= p^(j+1)
    return sorted(p ** int((layers >= r).sum()) for r in range(1, layers.max(initial=0) + 1))


def _top_type(E: FrattiniLevel, L: FrattiniLevel, mhat: np.ndarray,
              rad_elems: list[int]) -> str:
    """Type of M-hat modulo an order-p lift set <k0> of the kernel-module
    radical.  <k0> is central in M-hat, so an element's order in the
    quotient is the least n with x^n in <k0>, and two elements commute
    there exactly when their commutator lies in <k0>."""
    R, p, z = E.total, E.p, E.kernel_elems[1]
    lifts = np.array([np.flatnonzero(E.proj == m) for m in rad_elems],
                     dtype=np.int64).reshape(-1, p)                      # rows ascending
    small = R.power(lifts, p) == 0
    assert small.any(axis=1).all(), "radical element lifts only to order p^2"
    k0 = lifts[np.arange(len(lifts)), small.argmax(axis=1)]
    sub = R.subgroup_closure(k0)
    if z in sub:
        # swap one lift by its z-translate to exclude the center
        k0[0] = R.mul(k0[0], z)
        sub = R.subgroup_closure(k0)
    assert z not in sub and len(sub) == p ** len(rad_elems)
    sub = np.array(sub)
    assert (R.mul_many(sub[:, None], mhat) == R.mul_many(mhat, sub[:, None])).all(), \
        "radical lifts not central in M-hat"
    table = R.mul_many(mhat[:, None], mhat)
    abelian = np.isin(R.mul_many(R.inv[table.T], table), sub).all()
    # quotient orders, per element of M-hat: each coset holds |sub| of them
    orders = np.isin(mhat, sub).astype(np.int64)
    x, o = mhat, 1
    while not orders.all():
        x, o = R.power(x, p), o * p
        orders[(orders == 0) & np.isin(x, sub)] = o
    q = len(mhat) // len(sub)
    exponent = int(orders.max())
    n2 = int((orders == p).sum()) // len(sub)
    if abelian:
        if exponent == p * p and q == 16:
            return "K4xZ4"
        return f"abelian-exp{exponent}"
    if q == 16 and exponent == 4:
        return "Q8xZ2" if n2 == 3 else "Q8.Z4"
    return f"nonabelian-{q}-exp{exponent}"


# -- antecedents ---------------------------------------------------------------------


def vd_from_antecedent(L: FrattiniLevel, E_prev: FrattiniLevel) -> VDSet:
    """V_D of the would-be level-(k+1) Schur quotient with this antecedent:
    the kernel elements mapping trivially into the antecedent's center.
    E_prev is antecedent to a quotient E exactly when this is V_D(E)."""
    beta = find_cover_map(L, E_prev)
    if beta is None:
        raise IncompatibleLevels("no covering map onto the antecedent")
    return _vd(L, np.asarray(beta)[L.kernel_elems] == 0)


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
    largest p' element order in the stabilizer of an orbit member.  Each
    orbit and stabilizer come from one batch of e^-1 m e over every e."""
    G1 = L.total
    seen: set[int] = set()
    out = []
    for m in sorted(set(L.kernel_elems) - set(vd.members)):
        if m in seen:
            continue
        conj = G1.mul_many(G1.mul_many(G1.inv, m), np.arange(G1.order))
        orbit = unique_rows(conj[:, None])[0].ravel().tolist()
        seen.update(orbit)
        stab = G1.element_orders()[conj == m]
        out.append((int(stab[stab % L.p != 0].max()), orbit))
    out.sort()
    return out
