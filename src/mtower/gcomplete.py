"""Completeness criteria: does every subgroup meeting the prescribed
conjugacy classes already fill the whole group?

Witness search walks subgroup closures up to conjugacy: starting from the
members of the first required class, each subgroup that misses a class is
extended by every member of the first missed class.  Meeting a class, and
which class is missed first, do not change under conjugation, so the
subgroups this walk reaches are closed under conjugation.  The search
therefore expands one subgroup per conjugacy class: when it first meets a
proper subgroup it marks all of its conjugates as seen
(`FiniteGroup.conjugates`).  Any proper subgroup meeting all classes is
reachable this way, so failure always comes with a witness; the reported
witness is the least, by (order, element tuple), over the conjugates of the
classes found, which is the least over every subgroup the walk reaches.
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


def check_search_order(G: FiniteGroup) -> None:
    """Refuse, before any class is computed, a group the search would not
    finish."""
    if G.order > SUBGROUP_SEARCH_LIMIT:
        raise Budget(f"gcomplete witness search: group order {G.order} is past "
                     f"SUBGROUP_SEARCH_LIMIT = {SUBGROUP_SEARCH_LIMIT}")


def _witnesses(G: FiniteGroup, class_list) -> tuple[int, ...] | None:
    """Minimal proper subgroup meeting every listed class, or None."""
    required = [cl for cl in class_list if cl.element_order > 1]
    if not required:
        trivial = (0,)
        return trivial if G.order > 1 else None
    best: tuple[int, ...] | None = None
    seen: set[tuple[int, ...]] = set()
    todo = [(x,) for x in required[0].members]
    while todo:
        gens = todo.pop()
        sub = G.subgroup_closure(gens)
        if len(sub) == G.order or sub in seen:
            continue
        orbit = G.conjugates(sub)
        seen.update(orbit)
        missed = _meets_all(G, sub, required)
        if missed is None:
            least = min(orbit)
            if best is None or (len(least), least) < (len(best), best):
                best = least
            continue
        todo.extend(gens + (x,) for x in required[missed].members)
    return best


def is_gcomplete(G: FiniteGroup, class_ids) -> CompletenessVerdict:
    check_search_order(G)
    classes = G.conjugacy_classes()
    listed = [classes[ci] for ci in class_ids]
    if not listed:
        return CompletenessVerdict(G.order == 1, None if G.order == 1 else (0,))
    w = _witnesses(G, listed)
    return CompletenessVerdict(w is None, w)


def is_p_gcomplete(G: FiniteGroup, p: int) -> CompletenessVerdict:
    check_search_order(G)
    classes = G.conjugacy_classes()
    ids = [i for i, cl in enumerate(classes) if cl.element_order % p != 0]
    return is_gcomplete(G, ids)


def is_hm_p_gcomplete(G: FiniteGroup, class_ids, p: int | None = None) -> CompletenessVerdict:
    """Remove each distinct inverse pair of classes in turn; the remaining
    classes must stay (p-)gcomplete every time."""
    check_search_order(G)
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
