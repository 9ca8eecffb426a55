"""Completeness criteria: does every subgroup meeting the prescribed
conjugacy classes already fill the whole group?

Witness search walks subgroup closures: starting from pairs drawn from the
required classes, each subgroup that misses a class is extended by members
of the first missed class.  Any proper subgroup meeting all classes is
reachable this way, so failure always comes with a witness; the reported
witness is minimal by (order, element tuple).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import Budget, NoInversePairs
from .groups import FiniteGroup, generating_set

SUBGROUP_SEARCH_LIMIT = 10 ** 4


@dataclass
class CompletenessVerdict:
    complete: bool
    witness: tuple[int, ...] | None      # element indices of a proper subgroup

    def to_dict(self, G: FiniteGroup) -> dict:
        return {
            "complete": self.complete,
            "witness": None if self.witness is None else
            [G.perm_str(x) for x in generating_set(G, self.witness)],
        }


def _meets_all(G: FiniteGroup, sub: tuple[int, ...], class_list) -> int | None:
    """Index of the first class the subgroup misses, or None."""
    sset = set(sub)
    for i, cl in enumerate(class_list):
        if not any(m in sset for m in cl.members):
            return i
    return None


def _witnesses(G: FiniteGroup, class_list) -> tuple[int, ...] | None:
    """Minimal proper subgroup meeting every listed class, or None."""
    if G.order > SUBGROUP_SEARCH_LIMIT:
        raise Budget("subgroup search beyond the configured order limit")
    required = [cl for cl in class_list if cl.element_order > 1]
    if not required:
        trivial = (0,)
        return trivial if G.order > 1 else None
    best: tuple[int, ...] | None = None
    seen: set[tuple[int, ...]] = set()

    def consider(gens: tuple[int, ...]):
        nonlocal best
        sub = G.subgroup_closure(gens)
        if len(sub) == G.order or sub in seen:
            return
        seen.add(sub)
        missed = _meets_all(G, sub, required)
        if missed is None:
            if best is None or (len(sub), sub) < (len(best), best):
                best = sub
            return
        for x in required[missed].members:
            consider(gens + (x,))

    for x in required[0].members:
        consider((x,))
    return best


def is_gcomplete(G: FiniteGroup, class_ids) -> CompletenessVerdict:
    classes = G.conjugacy_classes()
    listed = [classes[ci] for ci in class_ids]
    if not listed:
        return CompletenessVerdict(G.order == 1, None if G.order == 1 else (0,))
    w = _witnesses(G, listed)
    return CompletenessVerdict(w is None, w)


def is_p_gcomplete(G: FiniteGroup, p: int) -> CompletenessVerdict:
    classes = G.conjugacy_classes()
    ids = [i for i, cl in enumerate(classes) if cl.element_order % p != 0]
    return is_gcomplete(G, ids)


def is_hm_p_gcomplete(G: FiniteGroup, class_ids, p: int | None = None) -> CompletenessVerdict:
    """Remove each distinct inverse pair of classes in turn; the remaining
    classes must stay (p-)gcomplete every time."""
    classes = G.conjugacy_classes()
    ids = list(class_ids)
    pairs = []
    for i, ci in enumerate(ids):
        for j in range(i + 1, len(ids)):
            cj = ids[j]
            rep = classes[ci].representative
            if int(G.inv[rep]) in set(classes[cj].members):
                pairs.append((i, j))
    if not pairs:
        raise NoInversePairs("class list carries no inverse pair")
    for (i, j) in pairs:
        remaining = [c for k, c in enumerate(ids) if k not in (i, j)]
        if p is None:
            verdict = is_gcomplete(G, remaining)
        else:
            keep = set(remaining)
            extra = [k for k, cl in enumerate(classes)
                     if cl.element_order % p != 0 and k in keep]
            verdict = is_gcomplete(G, extra)
        if not verdict.complete:
            return verdict
    return CompletenessVerdict(True, None)


def euler_phi(n: int) -> int:
    out = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            out += 1
    return out


def cyclotomic_order_q(n: int) -> int:
    """Minimal d with Q(zeta_d) = Q(zeta_n): n, unless n = 2 mod 4."""
    if n % 4 == 2:
        return n // 2
    return n


def branch_count_bound(orders) -> int:
    """r = 2 sum [Q(zeta_{d_i}) : Q] over the cyclotomic orders."""
    return 2 * sum(euler_phi(cyclotomic_order_q(n)) for n in orders)
