"""The summand pick that general_level made by trial, kept as an oracle.

`trial_summand` walks the sorted indecomposable summands of the induced
Sylow-normalizer module and keeps the first one with a nonsplit H^2 class
whose extension passes the order-lifting check and maps onto every Z/p
Schur cover of G (versality): an H^2 solve per summand, an order-lifting
walk and a cover-map search against Schur covers built for that check.
general_level now keeps the one summand that is not free over the p-Sylow
subgroup instead.
"""

from __future__ import annotations

from mtower import frattini


def trial_summand(G, p):
    """(module, tail) of the first summand that passes the trial checks."""
    data = frattini.frattini_module(G, p)
    schur_levels = frattini.schur_covers(G, p)
    for b in data.summand_bases:
        M = frattini.submodule_module(data.induced, b)
        space = frattini._cocycle_space(G.presentation, M)
        _, classes = frattini._h2_classes(G.presentation, M, space)
        nonsplit = [c for c in classes if c.any()]
        if not nonsplit:
            continue
        lvl = frattini._extension(G.presentation, M, space, nonsplit[0], name="trial")
        if not frattini.verify_order_lifting(lvl).ok:
            continue
        if any(frattini.find_cover_map(lvl, sl) is None for sl in schur_levels):
            continue
        return M, nonsplit[0]
    raise AssertionError("no summand yields the Frattini cover")
