"""Nielsen classes and braid orbits.

A Nielsen tuple is a tuple of element indices (g_1..g_r) with product 1,
generating the group, each entry lying in the prescribed class multiset.
Reduced classes (r = 4) are tuples up to simultaneous conjugation and the
Klein four group generated by the double twist and the square of the shift;
for r >= 5 reduction means conjugation only.

Canonical form: the lexicographically minimal tuple over the whole
equivalence class.  Minimality pins the first entry to the smallest element
reachable in its conjugacy class, so only the conjugators carrying the first
entry there need scanning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Budget, InputError, NotPPrime
from .frattini import FrattiniLevel, lift_class
from .groups import FiniteGroup


@dataclass(frozen=True)
class NielsenSpec:
    group: FiniteGroup
    class_ids: tuple[int, ...]
    p: int

    def __post_init__(self):
        classes = self.group.conjugacy_classes()
        for ci in self.class_ids:
            if classes[ci].element_order % self.p == 0:
                raise NotPPrime(f"class {ci} is not p'")

    @property
    def r(self) -> int:
        return len(self.class_ids)

    def class_multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for ci in self.class_ids:
            out[ci] = out.get(ci, 0) + 1
        return out


class Reducer:
    """Canonicalization context for one (group, class multiset) pair.

    `gamma1` and `gamma_inf` keep their result per reduced class in the
    dicts `_gamma1` and `_gamma_inf`: the orbit BFS of `mbar4_orbits` fills
    them, and the component analysis, the cusp cycles and the sh-incidence
    of the same classes read them back without canonicalizing again.
    """

    def __init__(self, spec: NielsenSpec):
        self.spec = spec
        self.G = spec.group
        self.r = spec.r
        self._gamma1: dict[tuple, tuple] = {}
        self._gamma_inf: dict[tuple, tuple] = {}
        classes = self.G.conjugacy_classes()
        self.class_min: dict[int, int] = {}
        self.to_min: dict[int, list[int]] = {}
        for ci in set(spec.class_ids):
            members = classes[ci].members
            cmin = members[0]
            self.class_min[ci] = cmin
            for x in members:
                self.to_min[x] = []
        G = self.G
        for ci in set(spec.class_ids):
            members = classes[ci].members
            cmin = self.class_min[ci]
            if G.mul_table is not None:
                mem = np.array(members, dtype=np.int64)
                for c in range(G.order):
                    vals = G.mul_table[G.mul_table[int(G.inv[c]), mem], c]
                    hits = mem[vals == cmin]
                    for x in hits:
                        self.to_min[int(x)].append(c)
            else:
                for c in range(G.order):
                    for x in members:
                        if G.conj(x, c) == cmin:
                            self.to_min[x].append(c)

    # -- raw braid moves ------------------------------------------------------

    def sh(self, t):
        return t[1:] + t[:1]

    def sh_inv(self, t):
        return t[-1:] + t[:-1]

    def twist(self, t, i: int):
        """q_i: (..., g_i, g_{i+1}, ...) -> (..., g_i g_{i+1} g_i^-1, g_i, ...)."""
        if not 1 <= i <= self.r - 1:
            raise InputError("twist index out of range")
        G = self.G
        a, b = t[i - 1], t[i]
        conj = G.mul(G.mul(a, b), int(G.inv[a]))
        return t[:i - 1] + (conj, a) + t[i + 1:]

    def twist_inv(self, t, i: int):
        G = self.G
        bp, a = t[i - 1], t[i]
        b = G.mul(G.mul(int(G.inv[a]), bp), a)
        return t[:i - 1] + (a, b) + t[i + 1:]

    def gamma_inf_raw(self, t):
        return self.twist(t, 2)

    def q13_raw(self, t):
        """q_1 q_3^-1 for r = 4 (twist conventions as in gamma_inf).

        Its square is global conjugation by (g_1 g_2)^-1, so together with
        sh^2 it generates a Klein four group on inner classes.
        """
        G = self.G
        g1, g2, g3, g4 = t
        return (G.mul(G.mul(g1, g2), int(G.inv[g1])), g1,
                g4, G.mul(G.mul(int(G.inv[g4]), g3), g4))

    def variants(self, t):
        """The Q'' orbit of a tuple (r = 4), else just the tuple."""
        if self.r != 4:
            return [t]
        v1 = self.q13_raw(t)
        v2 = (t[2], t[3], t[0], t[1])
        v3 = (v1[2], v1[3], v1[0], v1[1])
        return [t, v1, v2, v3]

    # -- canonical forms ------------------------------------------------------

    def canonical(self, t):
        best = None
        vs = self.variants(t)
        target = min(self.class_min[self.G.class_of(v[0])] for v in vs)
        G = self.G
        for v in vs:
            if self.class_min[G.class_of(v[0])] != target:
                continue
            for c in self.to_min[v[0]]:
                ic = int(G.inv[c])
                cand = tuple(G.mul(G.mul(ic, x), c) for x in v)
                if best is None or cand < best:
                    best = cand
        assert best is not None
        return best

    def canonical_inner(self, t):
        G = self.G
        best = None
        for c in self.to_min[t[0]]:
            ic = int(G.inv[c])
            cand = tuple(G.mul(G.mul(ic, x), c) for x in t)
            if best is None or cand < best:
                best = cand
        assert best is not None
        return best

    # -- reduced operators ----------------------------------------------------

    def gamma1(self, t):
        out = self._gamma1.get(t)
        if out is None:
            out = self._gamma1[t] = self.canonical(self.sh(t))
        return out

    def gamma_inf(self, t):
        out = self._gamma_inf.get(t)
        if out is None:
            out = self._gamma_inf[t] = self.canonical(self.gamma_inf_raw(t))
        return out

    def gamma0(self, t):
        u = self.twist_inv(t, 2)
        return self.canonical(self.sh_inv(u))


def tuple_is_valid(spec: NielsenSpec, t) -> bool:
    G = spec.group
    prod = 0
    for x in t:
        prod = G.mul(prod, x)
    if prod != 0:
        return False
    need = spec.class_multiset()
    got: dict[int, int] = {}
    for x in t:
        ci = G.class_of(x)
        got[ci] = got.get(ci, 0) + 1
    if got != need:
        return False
    return G.closure_size(t) == G.order


def enumerate_reduced(spec: NielsenSpec, budget: int = 10 ** 7,
                      reducer: Reducer | None = None) -> list[tuple]:
    """All reduced classes, by backtracking with the last entry forced."""
    G = spec.group
    classes = G.conjugacy_classes()
    r = spec.r
    sizes = 1
    for ci in spec.class_ids[:-1]:
        sizes *= classes[ci].size
    if sizes > budget:
        raise Budget(f"{sizes} partial tuples exceed enumeration budget")
    red = reducer or Reducer(spec)
    need = spec.class_multiset()
    found: set[tuple] = set()

    def rec(pos: int, prefix: tuple, prod: int, remaining: dict[int, int]):
        if pos == r - 1:
            last = int(G.inv[prod])
            ci = G.class_of(last)
            if remaining.get(ci, 0) != 1:
                return
            t = prefix + (last,)
            if G.closure_size(t) == G.order:
                found.add(red.canonical(t))
            return
        for ci, cnt in sorted(remaining.items()):
            if cnt == 0:
                continue
            remaining[ci] -= 1
            for x in classes[ci].members:
                rec(pos + 1, prefix + (x,), G.mul(prod, x), remaining)
            remaining[ci] += 1

    rec(0, (), 0, dict(need))
    return sorted(found)


def mbar4_orbits(spec: NielsenSpec, reduced: list[tuple],
                 reducer: Reducer | None = None) -> list[list[tuple]]:
    """Partition of the given reduced classes into braid orbits.

    r = 4 uses <gamma_1, gamma_inf>; r >= 5 uses <sh, q_2> on inner classes.
    Orbits come back sorted internally and ordered by (size, least tuple).
    """
    red = reducer or Reducer(spec)
    ops = [red.gamma1, red.gamma_inf]
    seen: dict[tuple, int] = {}
    orbits: list[list[tuple]] = []
    for seed in reduced:
        if seed in seen:
            continue
        oid = len(orbits)
        queue = [seed]
        seen[seed] = oid
        members = [seed]
        head = 0
        while head < len(queue):
            cur = queue[head]
            head += 1
            for op in ops:
                nxt = op(cur)
                if nxt not in seen:
                    seen[nxt] = oid
                    queue.append(nxt)
                    members.append(nxt)
        orbits.append(sorted(members))
    orbits.sort(key=lambda orb: (len(orb), orb[0]))
    return orbits


def gamma_inf_orbits(orbit: list[tuple], reducer: Reducer) -> list[list[tuple]]:
    """Cusps: gamma_inf cycles inside one braid orbit, sorted by (width, rep)."""
    seen: set[tuple] = set()
    cusps: list[list[tuple]] = []
    for t in orbit:
        if t in seen:
            continue
        cyc = [t]
        seen.add(t)
        cur = reducer.gamma_inf(t)
        while cur != t:
            cyc.append(cur)
            seen.add(cur)
            cur = reducer.gamma_inf(cur)
        cusps.append(sorted(cyc))
    cusps.sort(key=lambda c: (len(c), c[0]))
    return cusps


def is_hm(t, reducer: Reducer) -> bool:
    """Does the reduced class contain a tuple (g^-1, g, h^-1, h)?

    The pattern is conjugation invariant, so only the Q'' variants need
    checking.
    """
    G = reducer.G
    for v in reducer.variants(t):
        if v[1] == int(G.inv[v[0]]) and v[3] == int(G.inv[v[2]]):
            return True
    return False


def middle_product(t, G: FiniteGroup) -> int:
    return G.element_order(G.mul(t[1], t[2]))


def is_p_divisible(t, p: int, G: FiniteGroup) -> bool:
    return middle_product(t, G) % p == 0


def hm_seed_tuples(spec: NielsenSpec) -> list[tuple]:
    """Harbater-Mumford tuples (g1^-1, g1, g2^-1, g2) in the class multiset."""
    if spec.r != 4:
        raise InputError("H-M seeds implemented for r = 4")
    G = spec.group
    classes = G.conjugacy_classes()
    need = spec.class_multiset()
    out = []
    cands = sorted(set(spec.class_ids))
    for c1 in cands:
        for c2 in cands:
            for g1 in classes[c1].members:
                for g2 in classes[c2].members:
                    t = (int(G.inv[g1]), g1, int(G.inv[g2]), g2)
                    got: dict[int, int] = {}
                    for x in t:
                        got[G.class_of(x)] = got.get(G.class_of(x), 0) + 1
                    if got != need:
                        continue
                    if G.closure_size(t) == G.order:
                        out.append(t)
    return sorted(set(out))


def lift_tuples(L: FrattiniLevel, t, spec_total: NielsenSpec,
                reducer: Reducer | None = None,
                frattini_verified: bool = False) -> list[tuple]:
    """All reduced classes of the covering group lying over the tuple t.

    Entries run over kernel translates of the section lifts, filtered to the
    lifted classes, with the last entry forced by the product.  When the
    level is a verified Frattini cover, generation upstairs is automatic
    (the lifted entries cover a generating set downstairs); otherwise each
    candidate is closure-checked.
    """
    G1 = L.total
    red = reducer or Reducer(spec_total)
    allowed = [set(G1.conjugacy_classes()[ci].members)
               for ci in spec_total.class_ids]
    lifts = []
    for pos, g in enumerate(t):
        ls = [x for x in L.lifts(int(g)) if x in allowed[pos]]
        lifts.append(ls)
    if any(not ls for ls in lifts):
        return []
    found: set[tuple] = set()
    last_set = set(lifts[-1])
    def rec(pos, prefix, prod):
        if pos == len(t) - 1:
            last = int(G1.inv[prod])
            if last not in last_set:
                return
            cand = prefix + (last,)
            if not frattini_verified and G1.closure_size(cand) != G1.order:
                return
            found.add(red.canonical(cand))
            return
        for x in lifts[pos]:
            rec(pos + 1, prefix + (x,), G1.mul(prod, x))

    rec(0, (), 0)
    return sorted(found)


def lifted_spec(L: FrattiniLevel, spec: NielsenSpec) -> NielsenSpec:
    """Transport a Nielsen spec through a Frattini level (unique p' classes)."""
    base_classes = L.base.conjugacy_classes()
    tot_classes = L.total.conjugacy_classes()
    out = []
    for ci in spec.class_ids:
        lifted = lift_class(L, base_classes[ci])
        out.append(tot_classes.index(lifted))
    return NielsenSpec(L.total, tuple(out), spec.p)


def project_tuple(L: FrattiniLevel, t) -> tuple:
    return tuple(int(L.proj[x]) for x in t)


def format_tuple(G: FiniteGroup, t) -> str:
    return "[" + ", ".join(G.perm_str(x) for x in t) + "]"


def parse_tuple_text(G: FiniteGroup, text: str) -> tuple[int, ...]:
    """Inverse of format_tuple: `[(1 2 3), (1 3 2), ...]` with 1-based cycles."""
    from .perms import parse_perm

    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InputError(f"bad tuple text: {text!r}")
    parts = []
    depth = 0
    cur = ""
    for ch in body[1:-1]:
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur += ch
    if cur.strip():
        parts.append(cur.strip())
    out = []
    for part in parts:
        q = parse_perm(part, G.degree)
        e = G.lookup(q.as_array())
        if e is None:
            raise InputError(f"permutation {part!r} is not a group element")
        out.append(e)
    return tuple(out)


def orbit_dump(G: FiniteGroup, orbit) -> list[str]:
    return [format_tuple(G, t) for t in orbit]
