"""The exhaustive witness search that `gcomplete._witnesses` replaced, kept
as an independent route for the tests.

It closes every subgroup it reaches, conjugates included: starting from each
member of the first required class, a subgroup that misses a class is
extended by every member of the first missed class.  The witness is the
least proper subgroup meeting every class, by (order, element tuple).
Nothing here reads the conjugacy-class search or the conjugate orbits.
"""

from __future__ import annotations

from mtower.errors import Budget
from mtower.gcomplete import SUBGROUP_SEARCH_LIMIT


def _meets_all(G, sub: tuple[int, ...], class_list) -> int | None:
    """Index of the first class the subgroup misses, or None."""
    sset = set(sub)
    for i, cl in enumerate(class_list):
        if not any(m in sset for m in cl.members):
            return i
    return None


def witnesses(G, class_list) -> tuple[int, ...] | None:
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
