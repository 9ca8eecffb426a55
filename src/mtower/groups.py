"""Concrete finite groups as BFS-indexed permutation tables.

Element identity is an index into a canonical table: BFS order from the
identity, generators applied in input order.  All higher layers speak in
indices, never raw permutations.  Products use the package-wide left-to-right
convention from perms.py.

The multiplication table is materialized when the order is at most
MUL_TABLE_LIMIT; above that, products are composed on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import lcm

import numpy as np

from .errors import InputError, OrderExceeded
from .perms import Perm

MUL_TABLE_LIMIT = 4096


@dataclass(frozen=True)
class ConjClass:
    representative: int
    members: tuple[int, ...]
    element_order: int

    @property
    def size(self) -> int:
        return len(self.members)


class FiniteGroup:
    def __init__(self, gens: list[Perm], max_order: int = 1 << 20, name: str = ""):
        if not gens:
            raise InputError("need at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise InputError("generators must share a degree")
        self.degree = degree
        self.name = name
        self.gen_arrays = [g.as_array() for g in gens]
        self.presentation = None  # optionally attached by builders

        # each element is kept once, as the bytes of its int32 images that
        # key the index; the table of all elements is joined from them
        keys = [np.arange(degree, dtype=np.int32).tobytes()]
        index = {keys[0]: 0}
        words: list[tuple[int, ...]] = [()]
        parents: list[tuple[int, int]] = [(-1, -1)]  # (parent element, generator)
        head = 0
        while head < len(keys):
            cur = np.frombuffer(keys[head], dtype=np.int32)
            for gi, garr in enumerate(self.gen_arrays):
                key = garr[cur].tobytes()
                if key not in index:
                    if len(keys) >= max_order:
                        raise OrderExceeded(
                            f"closure exceeded max_order={max_order}")
                    index[key] = len(keys)
                    keys.append(key)
                    words.append(words[head] + (gi,))
                    parents.append((head, gi))
            head += 1
        self.elements = np.frombuffer(b"".join(keys), dtype=np.int32).reshape(
            len(keys), degree)
        self._index = index
        self.order = len(keys)
        self.words = words
        self._parents = parents
        self.gen_indices = [index[g.tobytes()] for g in self.gen_arrays]

        self.mul_table = self._build_table() if self.order <= MUL_TABLE_LIMIT else None
        self.inv = self._build_inverses()
        self._orders: np.ndarray | None = None
        self._classes: list[ConjClass] | None = None
        self._class_of: np.ndarray | None = None
        self._perm_strs: dict[int, str] = {}

    # -- construction helpers -------------------------------------------------

    def _build_table(self) -> np.ndarray:
        n = self.order
        gencol = []
        for garr in self.gen_arrays:
            col = np.empty(n, dtype=np.int32)
            for i in range(n):
                col[i] = self._index[garr[self.elements[i]].tobytes()]
            gencol.append(col)
        table = np.empty((n, n), dtype=np.int32)
        table[:, 0] = np.arange(n, dtype=np.int32)
        # column of element j = column of its BFS parent pushed through one generator
        for j in range(1, n):
            parent, gi = self._parents[j]
            table[:, j] = gencol[gi][table[:, parent]]
        return table

    def _build_inverses(self) -> np.ndarray:
        inv = np.empty(self.order, dtype=np.int32)
        for i in range(self.order):
            arr = self.elements[i]
            back = np.empty(self.degree, dtype=np.int32)
            back[arr] = np.arange(self.degree, dtype=np.int32)
            inv[i] = self._index[back.tobytes()]
        return inv

    # -- basic operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[a, b])
        img = self.elements[b][self.elements[a]]
        return self._index[img.tobytes()]

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise products of two broadcastable index arrays."""
        if self.mul_table is not None:
            return self.mul_table[a, b]
        a, b = np.broadcast_arrays(a, b)
        return np.array(list(map(self.mul, a.ravel().tolist(), b.ravel().tolist())),
                        dtype=np.int32).reshape(a.shape)

    def conj(self, x: int, c: int) -> int:
        """c^-1 x c."""
        return self.mul(self.mul(int(self.inv[c]), x), c)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(int(self.inv[a]), int(self.inv[b])), self.mul(a, b))

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(int(self.inv[a]), -e)
        out = 0
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def element_order(self, a: int) -> int:
        """Multiplied up through the table; without one, the lcm of the
        cycle lengths of the permutation, which needs no products."""
        if self._orders is None:
            self._orders = np.zeros(self.order, dtype=np.int32)
        cached = int(self._orders[a])
        if cached:
            return cached
        if self.mul_table is None:
            n = _cycle_lcm(self.elements[a].tolist())
        else:
            n, x = 1, a
            while x != 0:
                x = int(self.mul_table[x, a])
                n += 1
        self._orders[a] = n
        return n

    def lookup(self, perm_images: np.ndarray) -> int | None:
        return self._index.get(np.asarray(perm_images, dtype=np.int32).tobytes())

    def perm(self, i: int) -> Perm:
        return Perm(tuple(self.elements[i].tolist()))

    def perm_str(self, i: int) -> str:
        """Cycle notation of element i, as `str(self.perm(i))` gives it.

        Orbit dumps name the same few elements thousands of times, so each
        string is formatted on first use and kept for the group's lifetime.
        """
        s = self._perm_strs.get(i)
        if s is None:
            s = self._perm_strs[i] = str(self.perm(i))
        return s

    def eval_word(self, word) -> int:
        """Evaluate a generator-index word (ints >= 0) by right multiplication."""
        cur = 0
        for gi in word:
            cur = self.mul(cur, self.gen_indices[gi])
        return cur

    def eval_relator(self, images, word) -> int:
        """A signed word evaluated with generator i sent to images[i]; 0 means
        the assignment satisfies the relator."""
        cur = 0
        for letter in word:
            g = images[abs(letter) - 1]
            cur = self.mul(cur, g if letter > 0 else int(self.inv[g]))
        return cur

    # -- structure -------------------------------------------------------------

    def conjugacy_classes(self) -> list[ConjClass]:
        if self._classes is not None:
            return self._classes
        seen = np.zeros(self.order, dtype=bool)
        raw = []
        for start in range(self.order):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            q = [start]
            while q:
                x = q.pop()
                for c in self.gen_indices:
                    y = self.conj(x, c)
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
                        q.append(y)
            orbit.sort()
            raw.append(orbit)
        raw.sort(key=lambda orb: (self.element_order(orb[0]), len(orb), orb[0]))
        self._classes = [
            ConjClass(orb[0], tuple(orb), self.element_order(orb[0])) for orb in raw
        ]
        self._class_of = np.empty(self.order, dtype=np.int32)
        for ci, cl in enumerate(self._classes):
            for m in cl.members:
                self._class_of[m] = ci
        return self._classes

    def class_of(self, x: int) -> int:
        self.conjugacy_classes()
        return int(self._class_of[x])

    def subgroup_closure(self, seeds, cap: int | None = None) -> tuple[int, ...]:
        """Sorted element indices of <seeds>; stops early past `cap` if given."""
        return tuple(self._closure_mask(seeds, cap).nonzero()[0].tolist())

    def generates_whole(self, seeds) -> bool:
        return self.closure_size(seeds) == self.order

    def closure_size(self, seeds) -> int:
        return int(self._closure_mask(seeds, None).sum())

    def _closure_mask(self, seeds, cap: int | None) -> np.ndarray:
        """Membership mask of <seeds>, by a level-by-level BFS over right
        multiplication by the seeds (`mul_many`).  Stops once more than `cap`
        elements are found."""
        gens = np.unique(np.asarray([s for s in seeds if s != 0], dtype=np.int64))
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        seen[gens] = True
        frontier = seen.nonzero()[0]
        found = frontier.size
        while frontier.size and (cap is None or found <= cap):
            prods = self.mul_many(frontier[:, None], gens)
            fresh = np.zeros(self.order, dtype=bool)
            fresh[prods] = True
            fresh &= ~seen
            seen |= fresh
            frontier = fresh.nonzero()[0]
            found += frontier.size
        return seen

    def conjugates(self, sub) -> list[tuple[int, ...]]:
        """Every conjugate c^-1 sub c of the subgroup `sub`, as sorted element
        tuples, `sub` first: a BFS over conjugation by the generators, so
        [G:N_G(sub)] subgroups at 2·|gens|·|sub| products (`mul_many`) each."""
        out = [tuple(sorted(sub))]
        seen = set(out)
        for cur in out:
            elems = np.asarray(cur, dtype=np.int64)
            for c in self.gen_indices:
                img = np.sort(self.mul_many(self.mul_many(self.inv[c], elems), c))
                key = tuple(img.tolist())
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    def center(self) -> tuple[int, ...]:
        out = []
        for x in range(self.order):
            if all(self.mul(x, g) == self.mul(g, x) for g in self.gen_indices):
                out.append(x)
        return tuple(out)

    def derived_subgroup(self) -> tuple[int, ...]:
        """Normal closure of the generator commutators."""
        seeds = set()
        for a in self.gen_indices:
            for b in self.gen_indices:
                seeds.add(self.commutator(a, b))
        seeds.discard(0)
        current = set(self.subgroup_closure(seeds))
        while True:
            extra = set()
            for x in current:
                for c in self.gen_indices:
                    y = self.conj(x, c)
                    if y not in current:
                        extra.add(y)
            if not extra:
                return tuple(sorted(current))
            seeds |= extra
            current = set(self.subgroup_closure(seeds))

    def abelianization_order(self) -> int:
        return self.order // len(self.derived_subgroup())

    def element_subgroup(self, other: "FiniteGroup") -> list[int] | None:
        """Map other's elements into self by permutation identity, or None."""
        if other.degree != self.degree:
            return None
        out = []
        for i in range(other.order):
            j = self.lookup(other.elements[i])
            if j is None:
                return None
            out.append(j)
        return out


def _cycle_lcm(images: list[int]) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(images)
    out = 1
    for start in range(len(images)):
        k, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            k += 1
        if k:
            out = lcm(out, k)
    return out


def conjugacy_classes(G: FiniteGroup) -> list[ConjClass]:
    return G.conjugacy_classes()


def generating_set(G: FiniteGroup, elems) -> list[int]:
    """Greedy generators of the subgroup made of `elems`: each element joins
    unless the ones before it already generate it ([] for the trivial one)."""
    gens: list[int] = []
    have = {0}
    for x in elems:
        if x in have:
            continue
        gens.append(x)
        have = set(G.subgroup_closure(gens))
        if len(have) == len(elems):
            break
    return gens


def is_p_perfect(G: FiniteGroup, p: int) -> bool:
    """True iff G has no Z/p quotient, i.e. p does not divide |G/[G,G]|."""
    return G.abelianization_order() % p != 0


def is_center_free(G: FiniteGroup) -> bool:
    return len(G.center()) == 1


def subgroup_from_indices(G: FiniteGroup, gen_indices, name: str = "") -> FiniteGroup:
    """Standalone FiniteGroup on the same points generated by G-elements."""
    return FiniteGroup([G.perm(i) for i in gen_indices], max_order=G.order, name=name)


def find_isomorphism(src: FiniteGroup, dst: FiniteGroup) -> list[int] | None:
    """Element map src->dst realizing an isomorphism, or None.

    Backtracks over generator images filtered by element order; a candidate
    assignment is accepted when phi(x*g) == phi(x)*phi(g) holds for every
    element x and generator g (sufficient by induction on BFS words) and the
    image hits all of dst.
    """
    if src.order != dst.order:
        return None
    gen_orders = [src.element_order(g) for g in src.gen_indices]
    dst_by_order: dict[int, list[int]] = {}
    for o in set(gen_orders):
        dst_by_order[o] = [x for x in range(dst.order) if dst.element_order(x) == o]

    def build(images: list[int]) -> list[int] | None:
        phi = [0] * src.order
        for i in range(1, src.order):
            parent, gi = src._parents[i]
            phi[i] = dst.mul(phi[parent], images[gi])
        if len(set(phi)) != src.order:
            return None
        for x in range(src.order):
            for gi, g in enumerate(src.gen_indices):
                if phi[src.mul(x, g)] != dst.mul(phi[x], images[gi]):
                    return None
        return phi

    candidates = product(*(dst_by_order[o] for o in gen_orders))
    return next((phi for images in candidates
                 if (phi := build(images)) is not None), None)


# -- builtin groups -----------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([Perm(tuple((i + 1) % n for i in range(n)))], name=f"Z{n}")


def klein_four() -> FiniteGroup:
    a = Perm.from_cycles([[0, 1], [2, 3]], 4)
    b = Perm.from_cycles([[0, 2], [1, 3]], 4)
    return FiniteGroup([a, b], name="K4")


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: rotation (0..n-1), reflection i -> -i mod n."""
    if n < 3:
        raise InputError("dihedral needs n >= 3")
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    ref = Perm(tuple((-i) % n for i in range(n)))
    G = FiniteGroup([rot, ref], name=f"D{n}")
    from .fp import Presentation  # local import to avoid a cycle

    G.presentation = Presentation(2, ((1,) * n, (2, 2), (1, 2, 1, 2)), names=("r", "s"))
    return G


@lru_cache(maxsize=None)
def alternating_group(n: int) -> FiniteGroup:
    """A_4 or A_5 with generators a, b satisfying a^2 = b^3 = (ab)^n/... = 1.

    Generators are the first pair (by element index in the full alternating
    group) with orders (2, 3) whose product has order 3 (A_4) or 5 (A_5);
    this pins the standard presentation <a,b | a^2, b^3, (ab)^k>.
    """
    if n not in (4, 5):
        raise InputError("only A4 and A5 are built in")
    k = 3 if n == 4 else 5
    threecycle = Perm.from_cycles([[0, 1, 2]], n)
    if n == 4:
        other = Perm.from_cycles([[1, 2, 3]], n)
    else:
        other = Perm.from_cycles([[2, 3, 4]], n)
    full = FiniteGroup([threecycle, other], name=f"A{n}")
    assert full.order == (12 if n == 4 else 60)
    for a in range(full.order):
        if full.element_order(a) != 2:
            continue
        for b in range(full.order):
            if full.element_order(b) != 3:
                continue
            if full.element_order(full.mul(a, b)) != k:
                continue
            if not full.generates_whole([a, b]):
                continue
            G = FiniteGroup([full.perm(a), full.perm(b)], name=f"A{n}")
            from .fp import Presentation

            G.presentation = Presentation(
                2, ((1, 1), (2, 2, 2), (1, 2) * k), names=("a", "b"))
            return G
    raise AssertionError("no standard generating pair found")


def special_linear_2(p: int) -> FiniteGroup:
    """SL_2(F_p) acting on the p^2 - 1 nonzero row vectors of F_p^2."""
    pts = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    idx = {v: i for i, v in enumerate(pts)}

    def mat_perm(a, b, c, d):
        img = []
        for (x, y) in pts:
            img.append(idx[((x * a + y * c) % p, (x * b + y * d) % p)])
        return Perm(tuple(img))

    t = mat_perm(1, 1, 0, 1)
    s = mat_perm(0, p - 1, 1, 0)
    return FiniteGroup([t, s], name=f"SL2_{p}")
