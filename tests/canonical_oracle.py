"""The scalar Nielsen-class loops that `nielsen.Reducer`'s batch kernel
replaced, kept as an independent route for the tests.

Conjugators come from `G.conj` (or one `mul_table` row at a time),
candidates from `G.mul`, and minima from Python tuple comparison; nothing
here reads the reducer's conjugation table.  The enumeration and lift loops
are the old backtracking recursions, with a closure check on every tuple.
"""

from __future__ import annotations

import numpy as np


def variants(G, t) -> list[tuple]:
    """[t, q13 t, sh^2 t, sh^2 q13 t] by `G.mul` for r = 4, else [t]."""
    t = tuple(t)
    if len(t) != 4:
        return [t]
    g1, g2, g3, g4 = t
    q = (G.mul(G.mul(g1, g2), int(G.inv[g1])), g1,
         g4, G.mul(G.mul(int(G.inv[g4]), g3), g4))
    return [t, q, (g3, g4, g1, g2), (q[2], q[3], q[0], q[1])]


class ScalarCanonical:
    def __init__(self, reducer):
        self.red = reducer
        G = self.G = reducer.G
        classes = G.conjugacy_classes()
        self.class_min: dict[int, int] = {}
        self.to_min: dict[int, list[int]] = {}
        for ci in set(reducer.spec.class_ids):
            members = classes[ci].members
            cmin = self.class_min[ci] = members[0]
            for x in members:
                self.to_min[x] = []
            if G.mul_table is not None:
                mem = np.array(members, dtype=np.int64)
                for c in range(G.order):
                    vals = G.mul_table[G.mul_table[int(G.inv[c]), mem], c]
                    for x in mem[vals == cmin]:
                        self.to_min[int(x)].append(c)
            else:
                for c in range(G.order):
                    for x in members:
                        if G.conj(x, c) == cmin:
                            self.to_min[x].append(c)

    def _least_conjugate(self, tuples):
        G = self.G
        best = None
        for v in tuples:
            for c in self.to_min[v[0]]:
                ic = int(G.inv[c])
                cand = tuple(G.mul(G.mul(ic, x), c) for x in v)
                if best is None or cand < best:
                    best = cand
        assert best is not None
        return best

    def canonical(self, t):
        vs = variants(self.G, t)
        target = min(self.class_min[self.G.class_of(v[0])] for v in vs)
        return self._least_conjugate(
            [v for v in vs if self.class_min[self.G.class_of(v[0])] == target])

    def canonical_inner(self, t):
        return self._least_conjugate([tuple(t)])


def inner_classes(orbit, oracle: ScalarCanonical) -> list[tuple]:
    """Inner canonical forms of every Klein variant of the orbit's classes."""
    return sorted({oracle.canonical_inner(v) for t in orbit
                   for v in variants(oracle.G, t)})


def q2prime_faithful(inner, oracle: ScalarCanonical) -> bool:
    """The Klein four group moves some inner class by each of its three
    nontrivial elements, each image canonicalized afresh."""
    G = oracle.G
    moved = {"q13": False, "sh2": False, "both": False}
    for s in inner:
        h = (s[2], s[3], s[0], s[1])
        moved["q13"] |= oracle.canonical_inner(variants(G, s)[1]) != s
        moved["sh2"] |= oracle.canonical_inner(h) != s
        moved["both"] |= oracle.canonical_inner(variants(G, h)[1]) != s
    return all(moved.values())


def enumerate_reduced(spec, oracle: ScalarCanonical) -> list[tuple]:
    """Backtracking over every entry of every class, last entry forced."""
    G = spec.group
    classes = G.conjugacy_classes()
    found: set[tuple] = set()

    def rec(prefix: tuple, prod: int, remaining: dict[int, int]):
        if len(prefix) == spec.r - 1:
            last = int(G.inv[prod])
            if remaining.get(G.class_of(last), 0) != 1:
                return
            t = prefix + (last,)
            if G.closure_size(t) == G.order:
                found.add(oracle.canonical(t))
            return
        for ci, cnt in sorted(remaining.items()):
            if cnt == 0:
                continue
            remaining[ci] -= 1
            for x in classes[ci].members:
                rec(prefix + (x,), G.mul(prod, x), remaining)
            remaining[ci] += 1

    rec((), 0, dict(spec.class_multiset()))
    return sorted(found)


def lift_tuples(L, t, spec_total, oracle: ScalarCanonical) -> list[tuple]:
    """Prefix-product recursion over the lifts, closure-checking each tuple."""
    G1 = L.total
    classes = G1.conjugacy_classes()
    lifts = [[x for x in L.lifts(int(g))
              if x in set(classes[spec_total.class_ids[pos]].members)]
             for pos, g in enumerate(t)]
    found: set[tuple] = set()

    def rec(prefix, prod):
        if len(prefix) == len(t) - 1:
            last = int(G1.inv[prod])
            cand = prefix + (last,)
            if last in lifts[-1] and G1.closure_size(cand) == G1.order:
                found.add(oracle.canonical(cand))
            return
        for x in lifts[len(prefix)]:
            rec(prefix + (x,), G1.mul(prod, x))

    rec((), 0)
    return sorted(found)
