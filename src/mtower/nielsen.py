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

A reduced class travels as a row of its level's `Reducer`, from enumeration
to emission.  `enumerate_reduced` and `lift_tuples` return (N, r) int32
arrays of distinct canonical rows.  When the orbit search closes, a level's
reduced classes are numbered once, as the rows of one int array in
lexicographic order; gamma_1 and gamma_inf are int permutations of those row
numbers, the orbits are read off them by min-label propagation, and
`mbar4_orbits` returns each orbit as its row numbers.  A row is found by a
mixed-radix int64 key over its class-member columns.  Tuples of Python ints
are made only by the one-class calls (`canonical`, `gamma1`, `variants`, ...).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import prod

from . import np
from .errors import Budget, InputError, NotPPrime
from .frattini import FrattiniLevel, lift_class
from .groups import FiniteGroup, unique_rows
from .perms import _orbit_labels

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
    return list(zip(*A.T.tolist()))


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

    The numbered classes: `rows` holds the reduced classes met so far, in
    lexicographic order, so row number order is tuple order.  `perm1` and
    `perm_inf` are gamma_1 and gamma_inf as permutations of the row numbers
    and `orbit_label[i]` is the least row of row i's braid orbit.  `rows_of`
    numbers the braid closure of any class it is asked for and not yet
    numbered (the orbit search of `mbar4_orbits`), then finds rows by their
    mixed-radix key over the class-member columns (`keys`).  The scalar
    `gamma1`/`gamma_inf` look their class up there, with a one-row
    `moves_many` for a class outside the numbering.
    """

    def __init__(self, spec: NielsenSpec):
        self.spec = spec
        self.G = G = spec.group
        self.r = spec.r
        classes = G.conjugacy_classes()
        cids = sorted(set(spec.class_ids))
        self.class_min = {ci: classes[ci].members[0] for ci in cids}
        # columns in element order, so tuple keys sort as the tuples do
        members = np.sort(np.array([x for ci in cids for x in classes[ci].members],
                                   dtype=np.int32))
        self._col = np.full(G.order, -1, dtype=np.int32)
        self._col[members] = np.arange(members.size, dtype=np.int32)
        self.conj = _conj_table(G, members)
        # as c runs over G, c^-1 m c runs over the class of m, and c^-1 takes
        # that element back to m: |C(m)| conjugators per class member
        blocks = {}
        for ci, m in self.class_min.items():
            onto = np.argsort(self._col[self.conj[:, self._col[m]]], kind="stable")
            blocks[ci] = G.inv[onto].reshape(classes[ci].size, -1)
        width = max(b.shape[1] for b in blocks.values())
        self.to_min = np.empty((members.size, width), dtype=G.inv.dtype)
        for ci, b in blocks.items():
            self.to_min[np.sort(self._col[list(classes[ci].members)])] = \
                np.pad(b, ((0, 0), (0, width - b.shape[1])), mode="edge")
        if members.size ** self.r >= 2 ** 63:
            raise Budget(f"enumeration stage: keys of {self.r}-tuples over "
                         f"{members.size} class members overflow int64")
        self._radix = members.size ** np.arange(self.r - 1, -1, -1, dtype=np.int64)
        self.rows = np.zeros((0, self.r), dtype=np.int32)
        self._row_keys = np.zeros(0, dtype=np.int64)
        self._scalar_keys = None    # _col, _radix and _row_keys as lists, made on first use
        self.perm1 = self.perm_inf = np.zeros(0, dtype=np.intp)
        self.orbit_label = self.orbit_pos = np.zeros(0, dtype=np.intp)

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

    def moves_many(self, T) -> tuple[np.ndarray, np.ndarray]:
        """gamma_1 and gamma_inf of the reduced classes T, as canonical rows
        (both from one kernel call)."""
        A = np.asarray(T).reshape(-1, self.r)
        both = self.canonical_many(np.vstack([np.roll(A, -1, axis=1),
                                              self.gamma_inf_raw_many(A)]))
        return both[:len(A)], both[len(A):]

    def gamma1(self, t):
        return self._move(t, 0)

    def gamma_inf(self, t):
        return self._move(t, 1)

    def _move(self, t, which: int):
        row = self._find_one(t)
        if row < 0:
            return _as_tuples(self.moves_many([t])[which])[0]
        return tuple(self.rows[(self.perm1, self.perm_inf)[which][row]].tolist())

    def _find_one(self, t) -> int:
        """`find` of one tuple in plain Python, a bisection of the sorted
        keys, so that a scalar move costs about a microsecond."""
        if self._scalar_keys is None:
            self._scalar_keys = (self._col.tolist(), self._radix.tolist(),
                                 self._row_keys.tolist())
        col, radix, keys = self._scalar_keys
        cols = [col[x] for x in t]
        if min(cols) < 0:
            raise InputError("tuple entry outside the spec's classes")
        key = sum(c * b for c, b in zip(cols, radix))
        i = bisect_left(keys, key)
        return i if i < len(keys) and keys[i] == key else -1

    def gamma0(self, t):
        u = self.twist_inv(t, 2)
        return self.canonical(self.sh_inv(u))

    # -- numbered classes -----------------------------------------------------

    def keys(self, T) -> np.ndarray:
        """Mixed-radix int64 key of each row of T over its class-member
        columns; keys sort as the tuples do."""
        return self._columns(np.asarray(T).reshape(-1, self.r)).astype(np.int64) @ self._radix

    def find(self, T) -> np.ndarray:
        """Row number of each row of T, -1 where it is not numbered."""
        at = _lookup(self._row_keys, self.keys(T))
        return np.where(at < len(self.rows), at, -1)

    def rows_of(self, T) -> np.ndarray:
        """Row number of each row of T, numbering first the braid closure of
        the rows that are not numbered yet."""
        found = self.find(T)
        if (found < 0).any():
            self._number(np.asarray(T).reshape(-1, self.r)[found < 0])
            found = self.find(T)
        return found

    def _number(self, T: np.ndarray) -> None:
        """Close T under gamma_1 and gamma_inf, one frontier per `moves_many`
        call, and renumber the numbered rows together with the new ones."""
        frontier, keys, _ = _distinct(T, self.keys(T))
        found, found_keys, images1, images_inf = [frontier], [keys], [], []
        known = np.sort(np.concatenate([self._row_keys, keys]), kind="stable")
        while len(frontier):
            g1, ginf = self.moves_many(frontier)
            images1.append(g1)
            images_inf.append(ginf)
            both = np.vstack([g1, ginf])
            keys = self.keys(both)
            fresh = _lookup(known, keys) == len(known)
            frontier, keys, _ = _distinct(both[fresh], keys[fresh])
            found.append(frontier)
            found_keys.append(keys)
            known = np.sort(np.concatenate([known, keys]), kind="stable")  # merges two runs
        # the rows numbered before map into themselves, so their images are
        # read back from their permutations
        order = np.argsort(np.concatenate([self._row_keys, *found_keys]))
        image1 = np.vstack([self.rows[self.perm1], *images1])[order]
        image_inf = np.vstack([self.rows[self.perm_inf], *images_inf])[order]
        self.rows = np.vstack([self.rows, *found])[order]
        self._row_keys, self._scalar_keys = known, None
        self.perm1, self.perm_inf = self.find(image1), self.find(image_inf)
        assert (self.perm1 >= 0).all() and (self.perm_inf >= 0).all(), \
            "the orbit search did not close"
        self.orbit_label = label = _orbit_labels([self.perm1, self.perm_inf])
        by_orbit = np.argsort(label, kind="stable")
        size = np.bincount(label)
        self.orbit_pos = np.empty(len(label), dtype=np.intp)
        self.orbit_pos[by_orbit] = np.arange(len(label)) - (np.cumsum(size) - size)[label[by_orbit]]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the sorted array, len(sorted_keys) where it
    is absent."""
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < len(sorted_keys)
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return np.where(hit, pos, len(sorted_keys))


def _distinct(T: np.ndarray, keys: np.ndarray):
    """The rows of T with distinct keys and their keys, in key order, and
    for each row of T the position of its key among them."""
    order = np.argsort(keys)
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return T[order[new]], keys[new], inverse


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


def _generating(G: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """The rows that generate G, checked in one batch of closures."""
    return rows[G.closure_sizes(rows) == G.order]


def _arrangements(ids) -> list[tuple]:
    """The distinct orderings of the multiset `ids`, in increasing order."""
    ids = sorted(ids)
    return [(x, *rest) for i, x in enumerate(ids) if i == ids.index(x)
            for rest in _arrangements(ids[:i] + ids[i + 1:])] if ids else [()]


def enumerate_reduced(spec: NielsenSpec, budget: int = 10 ** 7,
                      reducer: Reducer | None = None) -> np.ndarray:
    """All reduced classes, as sorted canonical rows, one class arrangement
    at a time.

    Conjugation brings the first entry to the least element of its class,
    so the first entry is pinned there; the middle entries run over their
    classes and the last is forced by the product.  The most middle
    products an arrangement has, the product of every class size but the
    two least, is held to `budget` before anything is built.  Generation
    does not change under conjugation or the Klein four group, so it is
    checked once per distinct canonical form.
    """
    G = spec.group
    classes = G.conjugacy_classes()
    sizes = prod(sorted(classes[ci].size for ci in spec.class_ids)[2:])
    if sizes > budget:
        raise Budget(f"enumeration stage: {sizes} partial tuples exceed "
                     f"the element budget {budget}")
    red = reducer or Reducer(spec)
    found = []
    for seq in _arrangements(spec.class_ids):
        choices = [classes[seq[0]].members[:1]] + \
            [classes[ci].members for ci in seq[1:-1]]
        found.append(_forced_products(G, choices[:spec.r - 1],
                                      classes[seq[-1]].members))
    return _generating(G, unique_rows(red.canonical_many(np.vstack(found)))[0])


def mbar4_orbits(spec: NielsenSpec, reduced: np.ndarray,
                 reducer: Reducer | None = None) -> list[np.ndarray]:
    """Partition of the braid closure of the given reduced classes (rows)
    into braid orbits, each given by its row numbers into `reducer.rows`.

    r = 4 uses <gamma_1, gamma_inf>; r >= 5 uses <sh, q_2> on inner classes.
    `Reducer.rows_of` numbers the braid closure of the classes, one frontier
    of `moves_many` at a time; the orbits are the classes of its orbit
    labels.  Each orbit is in row (tuple) order, and the orbits are ordered
    by (size, least tuple).  The row numbers hold until the reducer numbers
    more classes.
    """
    red = reducer or Reducer(spec)
    seeds = red.rows_of(reduced)
    label = red.orbit_label
    rows = np.flatnonzero(np.isin(label, label[seeds]))
    size = np.bincount(label)[label[rows]]
    rows = rows[np.lexsort((rows, label[rows], size))]
    # a split before each orbit's first row, so the leading empty part drops
    return np.split(rows, np.flatnonzero(np.diff(label[rows], prepend=-1)))[1:]


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
    return _as_tuples(_generating(G, np.array(sorted(out), dtype=np.int32).reshape(-1, 4)))


def lift_tuples(L: FrattiniLevel, t, spec_total: NielsenSpec,
                reducer: Reducer | None = None,
                frattini_verified: bool = False,
                budget: int = 10 ** 7) -> np.ndarray:
    """All reduced classes of the covering group lying over the tuple t, as
    sorted canonical rows.

    Entries run over kernel translates of the section lifts, filtered to the
    lifted classes, with the last entry forced by the product; more than
    `budget` choices for the free entries raise Budget.  When the level is a
    verified Frattini cover, generation upstairs is automatic (the lifted
    entries cover a generating set downstairs); otherwise each distinct
    canonical form is closure-checked.
    """
    G1, t = L.total, np.asarray(t)
    red = reducer or Reducer(spec_total)
    # t's entries come in any arrangement of the class multiset, so each
    # is filtered by the p' class above its own class (pprime_lifts)
    x = G1.mul_many(L.section[t][:, None], np.asarray(L.kernel_elems))
    own = G1.class_of(x) == L.pprime_lifts[1][L.base.class_of(t)][:, None]
    lifts = [row[keep] for row, keep in zip(x, own)]
    if not own.any(axis=1).all():
        return np.zeros((0, len(lifts)), dtype=np.int32)
    free = prod(len(ls) for ls in lifts[:-1])
    if free > budget:
        raise Budget(f"lift stage: {free} candidate tuples over one class "
                     f"exceed the element budget {budget}")
    found = unique_rows(red.canonical_many(_forced_products(G1, lifts[:-1], lifts[-1])))[0]
    return found if frattini_verified else _generating(G1, found)


def lifted_spec(L: FrattiniLevel, spec: NielsenSpec) -> NielsenSpec:
    """Transport a Nielsen spec through a Frattini level: each class to the
    unique p' class above it (lift_class)."""
    return NielsenSpec(L.total, tuple(lift_class(L, ci) for ci in spec.class_ids), spec.p)


def project_tuple(L: FrattiniLevel, t) -> tuple:
    return tuple(int(L.proj[x]) for x in t)
