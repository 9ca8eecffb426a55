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

Canonicalization works on arrays of tuples: one batch kernel reads every
candidate conjugate from a table of c^-1 x c over the spec's class members
and keeps the least, so orbit frontiers and candidate sets go through it
whole (cut internally into steps of bounded size).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations
from math import prod

from . import np
from .errors import Budget, InputError, NotPPrime
from .frattini import FrattiniLevel, lift_class
from .groups import FiniteGroup, unique_rows

# int32 cells per temporary array in one step of a batch computation
_BATCH_CELLS = 1 << 18
_NO_ELEMENT = 2**31 - 1         # the int32 maximum


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


def _conj_table(G: FiniteGroup, members: np.ndarray) -> np.ndarray:
    """(|G|, len(members)) int32 table of c^-1 members[j] c over all c, filled
    a block of c at a time (`mul_many`)."""
    out = np.empty((G.order, members.size), dtype=np.int32)
    step = max(1, _BATCH_CELLS // max(members.size, G.degree))
    for lo in range(0, G.order, step):
        c = np.arange(lo, min(lo + step, G.order))
        out[c] = G.mul_many(G.mul_many(G.inv[c, None], members), c[:, None])
    return out


def _as_tuples(A: np.ndarray) -> list[tuple]:
    """Rows of a 2-d int array as tuples of Python ints."""
    return list(map(tuple, A.tolist()))


class Reducer:
    """Canonicalization context for one (group, class multiset) pair.

    Nielsen entries and their Klein variants lie in the spec's classes, so
    `conj[c, col[x]] = c^-1 x c` (int32) needs one column per class member.
    `to_min[col[x]]` lists the conjugators taking x to the least element of
    its class, padded by repeating its last entry.  `canonical_many` forms
    the Klein variants of N tuples, gathers their conjugates by those
    conjugators and keeps the lexicographic minimum, column by column (a
    variant starting in a class with a larger least element never wins).
    `canonical`/`canonical_inner` are one-row calls of that kernel.

    `_gamma1`/`_gamma_inf` keep the moves per reduced class: `moves_many`
    fills them (the orbit search of `mbar4_orbits` calls it a frontier at a
    time), and the component analysis, the cusp cycles and the sh-incidence
    read them back through `gamma1`/`gamma_inf`.
    """

    def __init__(self, spec: NielsenSpec):
        self.spec = spec
        self.G = G = spec.group
        self.r = spec.r
        self._gamma1: dict[tuple, tuple] = {}
        self._gamma_inf: dict[tuple, tuple] = {}
        classes = G.conjugacy_classes()
        cids = sorted(set(spec.class_ids))
        self.class_min = {ci: classes[ci].members[0] for ci in cids}
        members = np.array([x for ci in cids for x in classes[ci].members], dtype=np.int32)
        self._col = np.full(G.order, -1, dtype=np.int32)
        self._col[members] = np.arange(members.size, dtype=np.int32)
        self.conj = _conj_table(G, members)
        # as c runs over G, c^-1 m c runs over the class of m, and c^-1 takes
        # that element back to m: |C(m)| conjugators per class member
        blocks = []
        for ci, m in self.class_min.items():
            onto = np.argsort(self._col[self.conj[:, self._col[m]]], kind="stable")
            blocks.append(G.inv[onto].reshape(classes[ci].size, -1))
        width = max(b.shape[1] for b in blocks)
        self.to_min = np.vstack([np.pad(b, ((0, 0), (0, width - b.shape[1])),
                                        mode="edge") for b in blocks])

    # -- batch kernel ---------------------------------------------------------

    def _columns(self, T: np.ndarray) -> np.ndarray:
        cols = self._col[T]
        if (cols < 0).any():
            raise InputError("tuple entry outside the spec's classes")
        return cols

    def _conj_by(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """c^-1 x c, elementwise, for x in the spec's classes."""
        return self.conj[c, self._columns(x)]

    def variants_many(self, T) -> np.ndarray:
        """(N, r) -> (N, 4, r): [t, q13 t, sh^2 t, sh^2 q13 t] (r = 4), else
        (N, 1, r).  q13 = q_1 q_3^-1 (twists as in gamma_inf) sends
        (g1, g2, g3, g4) to (g1 g2 g1^-1, g1, g4, g4^-1 g3 g4); its square is
        conjugation by (g1 g2)^-1, so with sh^2 it generates a Klein four
        group on inner classes."""
        T = np.asarray(T)
        if self.r != 4:
            return T[:, None, :]
        q = np.stack([self._conj_by(T[:, 1], self.G.inv[T[:, 0]]), T[:, 0],
                      T[:, 3], self._conj_by(T[:, 2], T[:, 3])], axis=1)
        return np.stack([T, q, T[:, [2, 3, 0, 1]], q[:, [2, 3, 0, 1]]], axis=1)

    def gamma_inf_raw_many(self, T) -> np.ndarray:
        """Row-wise twist q_2: (g1, g2 g3 g2^-1, g2, g4, ...)."""
        T = np.asarray(T)
        out = T.copy()
        out[:, 1] = self._conj_by(T[:, 2], self.G.inv[T[:, 1]])
        out[:, 2] = T[:, 1]
        return out

    def _min_conjugates(self, V: np.ndarray) -> np.ndarray:
        """(N, K, r) tuples -> (N, r): per row, the lexicographically least
        conjugate of its K tuples that starts at a least class element."""
        N, K, r = V.shape
        width = K * self.to_min.shape[1]
        out = np.empty((N, r), dtype=np.int32)
        step = max(1, _BATCH_CELLS // (width * r))
        for lo in range(0, N, step):
            cols = self._columns(V[lo:lo + step])
            cs = self.to_min[cols[:, :, 0]]                       # (n, K, M)
            cand = self.conj[cs[:, :, :, None], cols[:, :, None, :]]
            cand = cand.reshape(-1, width, r)
            alive = np.ones(cand.shape[:2], dtype=bool)
            for j in range(r):
                vals = np.where(alive, cand[:, :, j], _NO_ELEMENT)
                least = vals.min(axis=1)
                out[lo:lo + step, j] = least
                alive &= vals == least[:, None]
        return out

    def canonical_many(self, T) -> np.ndarray:
        """Canonical forms (Klein four and conjugation) of the rows of T."""
        T = np.asarray(T).reshape(-1, self.r)
        return self._min_conjugates(self.variants_many(T))

    def canonical_inner_many(self, T) -> np.ndarray:
        """Canonical forms under conjugation only of the rows of T."""
        T = np.asarray(T).reshape(-1, self.r)
        return self._min_conjugates(T[:, None, :])

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
        return _as_tuples(self.gamma_inf_raw_many([t]))[0]

    def variants(self, t):
        """The Q'' orbit of a tuple (r = 4), else just the tuple."""
        return _as_tuples(self.variants_many([t])[0])

    # -- canonical forms ------------------------------------------------------

    def canonical(self, t):
        return _as_tuples(self.canonical_many([t]))[0]

    def canonical_inner(self, t):
        return _as_tuples(self.canonical_inner_many([t]))[0]

    # -- reduced operators ----------------------------------------------------

    def moves_many(self, F: list[tuple]) -> tuple[list[tuple], list[tuple]]:
        """gamma_1 and gamma_inf of the classes in F, kept in the move dicts."""
        A = np.array(F).reshape(-1, self.r)
        g1 = _as_tuples(self.canonical_many(np.roll(A, -1, axis=1)))
        ginf = _as_tuples(self.canonical_many(self.gamma_inf_raw_many(A)))
        self._gamma1.update(zip(F, g1))
        self._gamma_inf.update(zip(F, ginf))
        return g1, ginf

    def gamma1(self, t):
        if t not in self._gamma1:
            self.moves_many([t])
        return self._gamma1[t]

    def gamma_inf(self, t):
        if t not in self._gamma_inf:
            self.moves_many([t])
        return self._gamma_inf[t]

    def gamma0(self, t):
        u = self.twist_inv(t, 2)
        return self.canonical(self.sh_inv(u))


def _forced_products(G: FiniteGroup, choices, last_choices) -> np.ndarray:
    """All rows (x_1, ..., x_{r-1}, x_r) with x_i in choices[i] and x_r the
    inverse of x_1 ... x_{r-1}, kept where x_r is in last_choices."""
    rows = np.zeros((1, 0), dtype=np.int32)
    prods = np.zeros(1, dtype=np.int32)
    for ch in choices:
        ch = np.asarray(ch, dtype=np.int32)
        nxt = np.tile(ch, len(prods))
        rows = np.column_stack([np.repeat(rows, ch.size, axis=0), nxt])
        prods = G.mul_many(np.repeat(prods, ch.size), nxt)
    last = G.inv[prods]
    keep = np.isin(last, last_choices)
    return np.column_stack([rows[keep], last[keep]])


def _distinct_canonical(red: Reducer, rows: np.ndarray) -> list[tuple]:
    """Sorted distinct canonical forms of the rows."""
    return _as_tuples(unique_rows(red.canonical_many(rows))[0])


def _generating(G: FiniteGroup, tuples: list[tuple]) -> list[tuple]:
    """The tuples that generate G, checked in one batch of closures."""
    ok = G.closure_sizes(np.array(tuples, dtype=np.int64)) == G.order
    return [t for t, keep in zip(tuples, ok) if keep]


def enumerate_reduced(spec: NielsenSpec, budget: int = 10 ** 7,
                      reducer: Reducer | None = None) -> list[tuple]:
    """All reduced classes, one class arrangement at a time.

    Conjugation brings the first entry to the least element of its class,
    so the first entry is pinned there; the middle entries run over their
    classes and the last is forced by the product.  Generation does not
    change under conjugation or the Klein four group, so it is checked once
    per distinct canonical form.
    """
    G = spec.group
    classes = G.conjugacy_classes()
    arrangements = sorted(set(permutations(spec.class_ids)))
    sizes = max(prod(classes[ci].size for ci in seq[1:-1]) for seq in arrangements)
    if sizes > budget:
        raise Budget(f"enumeration stage: {sizes} partial tuples exceed "
                     f"the element budget {budget}")
    red = reducer or Reducer(spec)
    found = []
    for seq in arrangements:
        choices = [classes[seq[0]].members[:1]] + \
            [classes[ci].members for ci in seq[1:-1]]
        found.append(_forced_products(G, choices[:spec.r - 1],
                                      classes[seq[-1]].members))
    return _generating(G, _distinct_canonical(red, np.vstack(found)))


def mbar4_orbits(spec: NielsenSpec, reduced: list[tuple],
                 reducer: Reducer | None = None) -> list[list[tuple]]:
    """Partition of the given reduced classes into braid orbits.

    r = 4 uses <gamma_1, gamma_inf>; r >= 5 uses <sh, q_2> on inner classes.
    One frontier at a time, `Reducer.moves_many` canonicalizes both moves of
    every class in it.
    Orbits come back sorted internally and ordered by (size, least tuple).
    """
    red = reducer or Reducer(spec)
    known = dict.fromkeys(reduced)
    frontier = list(known)
    while frontier:
        g1, ginf = red.moves_many(frontier)
        frontier = [t for t in dict.fromkeys(g1 + ginf) if t not in known]
        known.update(dict.fromkeys(frontier))
    placed: set[tuple] = set()
    orbits: list[list[tuple]] = []
    for seed in known:
        if seed in placed:
            continue
        placed.add(seed)
        members = [seed]
        for cur in members:           # grows while it is read
            for nxt in (red.gamma1(cur), red.gamma_inf(cur)):
                if nxt not in placed:
                    placed.add(nxt)
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
    return bool(hm_mask(reducer.variants_many([t]), reducer.G)[0])


def hm_mask(V: np.ndarray, G: FiniteGroup) -> np.ndarray:
    """Which rows of Klein variants (N, K, r) hold a (g^-1, g, h^-1, h)."""
    if V.shape[2] < 4:                     # no room for the pattern
        return np.zeros(len(V), dtype=bool)
    return ((V[:, :, 1] == G.inv[V[:, :, 0]]) &
            (V[:, :, 3] == G.inv[V[:, :, 2]])).any(axis=1)


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
    members = [g for ci in sorted(set(spec.class_ids)) for g in classes[ci].members]
    out = set()
    for g1 in members:
        for g2 in members:
            t = (int(G.inv[g1]), g1, int(G.inv[g2]), g2)
            if sorted(map(G.class_of, t)) == sorted(spec.class_ids):
                out.add(t)
    return _generating(G, sorted(out))


def lift_tuples(L: FrattiniLevel, t, spec_total: NielsenSpec,
                reducer: Reducer | None = None,
                frattini_verified: bool = False,
                budget: int = 10 ** 7) -> list[tuple]:
    """All reduced classes of the covering group lying over the tuple t.

    Entries run over kernel translates of the section lifts, filtered to the
    lifted classes, with the last entry forced by the product; more than
    `budget` choices for the free entries raise Budget.  When the level is a
    verified Frattini cover, generation upstairs is automatic (the lifted
    entries cover a generating set downstairs); otherwise each distinct
    canonical form is closure-checked.
    """
    G1 = L.total
    red = reducer or Reducer(spec_total)
    # t's entries come in any arrangement of the class multiset, so each
    # is filtered by the lift of its own class
    classes = G1.conjugacy_classes()
    own = {L.base.class_of(int(L.proj[classes[ci].representative])): ci
           for ci in spec_total.class_ids}
    lifts = []
    for g in map(int, t):
        ci = own[L.base.class_of(g)]
        lifts.append([x for x in L.lifts(g) if G1.class_of(x) == ci])
    if any(not ls for ls in lifts):
        return []
    free = prod(len(ls) for ls in lifts[:-1])
    if free > budget:
        raise Budget(f"lift stage: {free} candidate tuples over one class "
                     f"exceed the element budget {budget}")
    found = _distinct_canonical(red, _forced_products(G1, lifts[:-1], lifts[-1]))
    return found if frattini_verified else _generating(G1, found)


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
    return orbit_dump(G, [t])[0]


def orbit_dump(G: FiniteGroup, orbit) -> list[str]:
    """format_tuple of each tuple of the orbit, its distinct elements
    formatted in one batch (G.perm_strs)."""
    elems = sorted(set(chain.from_iterable(orbit)))
    strs = dict(zip(elems, G.perm_strs(elems)))
    return ["[" + ", ".join([strs[x] for x in t]) + "]" for t in orbit]
