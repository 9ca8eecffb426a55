"""Concrete finite groups as BFS-indexed permutation tables.

Element identity is an index into a canonical table: BFS order from the
identity, generators applied in input order.  All higher layers speak in
indices, never raw permutations.  Products use the package-wide left-to-right
convention from perms.py.

A group comes from permutations (the builtins, group files, coset tables
and subgroup_from_indices: only these run the permutation BFS), or from a
product in closed form on integer codes (from_closed_form: the pair models
and the split-case models P0 x| H of frattini.py, the order-p^3 models of
schur.py).  Its BFS records, for every element and generator, the index of
their product: the generators' right-action columns `gen_cols`.  When the
order is at most MUL_TABLE_LIMIT the multiplication table is filled from
those columns, a whole row of its transpose per element, and turned over in
place; the inverses are read off it.  Above that, a closed-form group
multiplies by its formula and a permutation group composes permutations.

Conjugacy classes are walked over one batch of the conjugates of every
element by every generator.

Subgroup closures run in batches: one level-by-level BFS over a block of
seed rows, on a flat (row, element) mask of bounded size.

Every search over candidate generator images goes through search_images:
it walks their product in blocks of rows and either closes each row (is
it a generating set, a complement?) or extends it along a spanning tree
to an element map and keeps the homomorphisms (an isomorphism, a cover
map, an automorphism?).  The callers only put a predicate on the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product

from . import np
from .errors import InputError, OrderExceeded
from .perms import Perm, cycle_orders, cycle_strs

MUL_TABLE_LIMIT = 4096
# (row, element, seed) cells per block of a batched subgroup closure
_CLOSURE_CELLS = 1 << 17


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
        # key the index; the table of all elements is joined from them.
        # cols[h * len(gens) + i] is the index of element h times generator i
        keys = [np.arange(degree, dtype=np.int32).tobytes()]
        index = {keys[0]: 0}
        parents: list[tuple[int, int]] = [(-1, -1)]  # (parent element, generator)
        cols: list[int] = []
        head = 0
        while head < len(keys):
            cur = np.frombuffer(keys[head], dtype=np.int32)
            for gi, garr in enumerate(self.gen_arrays):
                key = garr[cur].tobytes()
                j = index.get(key)
                if j is None:
                    if len(keys) >= max_order:
                        raise OrderExceeded(
                            f"group build: more than {max_order} elements, "
                            f"past --budget-elements")
                    j = index[key] = len(keys)
                    keys.append(key)
                    parents.append((head, gi))
                cols.append(j)
            head += 1
        self._elements = np.frombuffer(b"".join(keys), dtype=np.int32).reshape(
            len(keys), degree)
        self._index = index
        self.code_mul = None
        self._finish(parents, np.array(cols, dtype=np.int32).reshape(
            len(keys), len(gens)).T.copy())

    @classmethod
    def from_closed_form(cls, degree: int, gen_codes, code_mul,
                         name: str = "") -> "FiniteGroup":
        """The group acting regularly on the codes 0..degree-1 by a product
        in closed form: code_mul(a, b) is the code of a b for broadcastable
        code arrays, code 0 is the identity, `gen_codes` the generators.

        Element c is the permutation x -> code_mul(x, c), which takes 0 to
        c, so the BFS runs over codes along the generators' code columns
        (one code_mul call) and gives the elements, gen_cols and _parents
        of the permutation BFS; `codes` holds each element's code.  An
        element's permutation is made only when it is asked for (`_images`).
        """
        G = cls.__new__(cls)
        code_cols = code_mul(np.arange(degree), np.asarray(gen_codes)[:, None])
        levels = _bfs_levels(code_cols)
        G.codes = np.concatenate([np.zeros(1, dtype=np.int64)] +
                                 [kids for kids, _, _ in levels])
        G._at_code = np.zeros(degree, dtype=np.int32)
        G._at_code[G.codes] = np.arange(len(G.codes), dtype=np.int32)
        parents = [(-1, -1)]
        for _, up, gi in levels:
            parents += zip(G._at_code[up].tolist(), gi.tolist())
        G.degree, G.name, G.presentation = degree, name, None
        G.gen_arrays = list(code_cols.astype(np.int32))
        G.code_mul, G._elements, G._index = code_mul, None, None
        G._finish(parents, G._at_code[code_cols[:, G.codes]])
        return G

    def _finish(self, parents: list[tuple[int, int]], gen_cols: np.ndarray) -> None:
        self.order = len(parents)
        self._parents = parents
        # gen_cols[i, x] = x g_i: the right action of each generator
        self.gen_cols = gen_cols
        self.gen_indices = gen_cols[:, 0].tolist()
        self.mul_table = self._build_table() if self.order <= MUL_TABLE_LIMIT else None
        self._orders: np.ndarray | None = None
        self.inv = self._build_inverses()
        self._classes: list[ConjClass] | None = None
        self._class_of: np.ndarray | None = None
        self._perm_strs: dict[int, str] = {}

    # -- construction helpers -------------------------------------------------

    def _build_table(self) -> np.ndarray:
        """table[a, b] = a b, built as its transpose and turned over in place.

        Row b of the transpose is the column a -> a b.  For b = parent g_i
        it is that of the parent pushed through g_i, gen_cols[i] read at the
        parent's row, so the rows are filled whole in BFS order.
        """
        n = self.order
        table = np.empty((n, n), dtype=np.int32)
        table[0] = np.arange(n, dtype=np.int32)
        for j in range(1, n):
            parent, gi = self._parents[j]
            np.take(self.gen_cols[gi], table[parent], out=table[j])
        _transpose_in_place(table)
        return table

    def _build_inverses(self) -> np.ndarray:
        """Read off the table (row a holds the identity at a^-1).  Without one,
        a closed-form group has them with its element orders (_powers_up);
        a permutation group looks up each inverse permutation."""
        if self.mul_table is not None:
            return self.mul_table.argmin(axis=1).astype(np.int32)
        if self.code_mul is not None:
            self._orders, inv = self._powers_up()
            return inv
        inv = np.empty(self.order, dtype=np.int32)
        for i in range(self.order):
            arr = self.elements[i]
            back = np.empty(self.degree, dtype=np.int32)
            back[arr] = np.arange(self.degree, dtype=np.int32)
            inv[i] = self._index[back.tobytes()]
        return inv

    def _powers_up(self) -> tuple[np.ndarray, np.ndarray]:
        """(orders, inverses) of all elements, from their powers multiplied
        up all at once: x^k x = 1 makes x^k the inverse and k + 1 the order."""
        x = np.arange(self.order)
        orders, inv = np.empty_like(x), np.empty(self.order, dtype=np.int32)
        prev, cur, k = np.zeros_like(x), x, 1
        while x.size:
            done = cur == 0
            orders[x[done]], inv[x[done]] = k, prev[done]
            x, prev = x[~done], cur[~done]
            cur, k = self.mul_many(prev, x), k + 1
        return orders, inv

    @property
    def words(self) -> list[tuple[int, ...]]:
        """The generator-index word of each element: its BFS path from the
        identity, read off the parents."""
        out: list[tuple[int, ...]] = [()]
        for parent, gi in self._parents[1:]:
            out.append(out[parent] + (gi,))
        return out

    # -- basic operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[a, b])
        if self.code_mul is not None:
            return int(self.mul_many(a, b))
        img = self._elements[b][self._elements[a]]
        return self._index[img.tobytes()]

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise products of two broadcastable index arrays."""
        if self.mul_table is not None:
            return self.mul_table[a, b]
        if self.code_mul is not None:
            return self._at_code[self.code_mul(self.codes[a], self.codes[b])]
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
        return int(self.element_orders()[a])

    def element_orders(self) -> np.ndarray:
        """The order of every element, found on first use: multiplied up
        through the table (_powers_up), or past it the lcm of each one's
        cycle lengths (a closed-form group has them with its inverses)."""
        if self._orders is None:
            if self.mul_table is None:
                self._orders = cycle_orders(self._elements)
            else:
                self._orders = self._powers_up()[0]
        return self._orders

    @property
    def elements(self) -> np.ndarray:
        """Row i is the permutation of element i.  A closed-form group keeps
        no such array: it is made from the product, a block of rows at a
        time, on each read."""
        if self.code_mul is None:
            return self._elements
        parts = 1 + self.order * self.degree // _CLOSURE_CELLS    # rows of bounded size
        rows = np.array_split(np.arange(self.order), parts)
        return np.concatenate([self._images(r) for r in rows])

    def _images(self, i) -> np.ndarray:
        """The permutation of element i, or one row per element of an array."""
        if self.code_mul is None:
            return self._elements[i]
        if self.mul_table is not None:        # x -> x i, read off the table
            img = self.codes[self.mul_table[self._at_code, np.expand_dims(i, -1)]]
        else:
            img = self.code_mul(np.arange(self.degree), np.expand_dims(self.codes[i], -1))
        return img.astype(np.int32)

    def lookup(self, perm_images: np.ndarray) -> int | None:
        img = np.asarray(perm_images, dtype=np.int32)
        if self.code_mul is None:
            return self._index.get(img.tobytes())
        j = int(self._at_code[img[0]])         # element j takes 0 to its code
        return j if (self._images(j) == img).all() else None

    def perm(self, i: int) -> Perm:
        return Perm(tuple(self._images(i).tolist()))

    def perm_str(self, i: int) -> str:
        """Cycle notation of element i, as `str(self.perm(i))` gives it."""
        return self.perm_strs([i])[0]

    def perm_strs(self, idx) -> list[str]:
        """perm_str of each element of the list `idx`.  Orbit dumps name the
        same few elements thousands of times, so each string is kept for the
        group's lifetime; the ones not yet made go to cycle_strs together."""
        new = sorted(set(idx).difference(self._perm_strs))
        if new:
            self._perm_strs.update(zip(new, cycle_strs(self._images(np.array(new)))))
        return [self._perm_strs[i] for i in idx]

    # -- structure -------------------------------------------------------------

    def conjugacy_classes(self) -> list[ConjClass]:
        """The orbits of conjugation by the generators, walked over one
        batch of the conjugates c^-1 x c of every element x by every
        generator c (`mul_many`)."""
        if self._classes is not None:
            return self._classes
        c = np.asarray(self.gen_indices)[:, None]
        conj = self.mul_many(self.mul_many(self.inv[c], np.arange(self.order)), c).tolist()
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
                for row in conj:
                    y = row[x]
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

    def subgroup_closure(self, seeds) -> tuple[int, ...]:
        """Sorted element indices of <seeds>."""
        mask = next(self._closure_masks(_seed_row(seeds)))[0]
        return tuple(mask.nonzero()[0].tolist())

    def closure_size(self, seeds) -> int:
        return int(next(self._closure_masks(_seed_row(seeds))).sum())

    def closure_sizes(self, seed_rows) -> np.ndarray:
        """|<row>| for each row of an (N, k) array of seeds."""
        sizes = [m.sum(axis=1) for m in self._closure_masks(seed_rows)]
        return np.concatenate(sizes) if sizes else np.zeros(0, dtype=np.int64)

    def _closure_masks(self, seed_rows):
        """Membership masks of <row> for the rows of an (N, k) array of
        seeds, yielded a block of rows at a time as (rows, order) bools.

        One BFS runs over a block level by level, on the flat (row, element)
        mask: each frontier cell is multiplied on the right by its row's
        seeds (`mul_many`).  A block holds at most _CLOSURE_CELLS
        (row, element, seed) cells, so its temporaries stay bounded.
        """
        rows = np.asarray(seed_rows, dtype=np.int64)
        rows = rows.reshape(len(rows), -1 if rows.size else 0)   # [] or [[]]
        n = self.order
        step = max(1, _CLOSURE_CELLS // (n * max(1, rows.shape[1])))
        for lo in range(0, len(rows), step):
            seeds = rows[lo:lo + step]
            seen = np.zeros((len(seeds), n), dtype=bool)
            seen[:, 0] = True
            seen[np.arange(len(seeds))[:, None], seeds] = True
            flat = seen.ravel()
            frontier = flat.nonzero()[0]
            while frontier.size:
                if len(seeds) == 1:        # a cell is its element: no row arithmetic
                    prods = self.mul_many(frontier[:, None], seeds[0])
                else:
                    r, x = np.divmod(frontier, n)
                    prods = self.mul_many(x[:, None], seeds[r]).astype(np.int64)
                    prods += (r * n)[:, None]
                fresh = np.zeros(flat.size, dtype=bool)
                fresh[prods] = True
                fresh &= ~flat
                flat |= fresh
                frontier = fresh.nonzero()[0]
            yield seen

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
        x = np.arange(self.order)
        central = [self.mul_many(x, g) == self.mul_many(g, x) for g in self.gen_indices]
        return tuple(np.flatnonzero(np.all(central, axis=0)).tolist())

    def derived_subgroup(self) -> tuple[int, ...]:
        """Normal closure of the generator commutators, from its seeds: the
        closure of the seeds is normal once every seed's conjugate by every
        generator lies in it.  Until then the first conjugate outside it
        joins the seeds, so each round closes a strictly larger subgroup
        and there are at most log2 |G| rounds."""
        gens = self.gen_indices
        seeds = sorted({self.commutator(a, b) for a in gens for b in gens} - {0})
        c = np.asarray(gens)[:, None]
        while True:
            current = self.subgroup_closure(seeds)
            inside = np.zeros(self.order, dtype=bool)
            inside[list(current)] = True
            conj = self.mul_many(self.mul_many(self.inv[c], seeds), c).ravel()
            outside = conj[~inside[conj]]
            if not outside.size:
                return current
            seeds.append(int(outside[0]))

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


def _seed_row(seeds) -> np.ndarray:
    """The distinct non-identity seeds, as a one-row block of seeds."""
    return unique_rows(np.array([s for s in seeds if s != 0], dtype=np.int64)[:, None])[0].T


def unique_rows(rows: np.ndarray):
    """`np.unique(rows, axis=0, return_index=True, return_inverse=True)` by
    one stable `np.lexsort` over the columns: the same sorted distinct rows,
    first occurrences and inverse, without sorting rows as structured
    records.  A column of values gives `np.unique` of the values; the plain
    `np.unique` call would import `numpy.ma`."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return srt[new], order[new], inverse


def _transpose_in_place(A: np.ndarray) -> None:
    """A = A.T for a square array, swapping square tiles across the
    diagonal, so no second array of A's size is made."""
    n, tile = len(A), 64
    for i in range(0, n, tile):
        d = A[i:i + tile, i:i + tile]
        d[...] = d.T.copy()
        for j in range(i + tile, n, tile):
            upper, lower = A[i:i + tile, j:j + tile], A[j:j + tile, i:i + tile]
            kept = upper.copy()
            upper[...] = lower.T
            lower[...] = kept.T


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


def subgroup_from_indices(G: FiniteGroup, gen_indices, name: str = "") -> FiniteGroup:
    """Standalone FiniteGroup on the same points generated by G-elements."""
    return FiniteGroup([G.perm(i) for i in gen_indices], max_order=G.order, name=name)


def spanning_tree(G: FiniteGroup, gens) -> list[tuple[np.ndarray, ...]]:
    """A BFS spanning tree of G over the generators at positions `gens`,
    as (children, parents, positions into gens) per level, children in the
    order a queue BFS finds them.  The generators must generate G."""
    levels = _bfs_levels(G.gen_cols[list(gens)])
    if 1 + sum(len(kids) for kids, _, _ in levels) != G.order:
        raise AssertionError("listed generators do not generate")
    return levels


def _bfs_levels(cols: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The BFS from point 0 along the columns cols[i, x] = x g_i, as
    (children, parents, positions into cols) per level, children in the
    order a queue BFS finds them."""
    seen = np.zeros(cols.shape[1], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while True:
        kids = cols[:, frontier].T.ravel()       # element-major, generator-minor
        _, first = np.unique(kids, return_index=True)
        first = np.sort(first[~seen[kids[first]]])
        if not first.size:
            break
        at, gi = np.divmod(first, len(cols))
        parents, frontier = frontier[at], kids[first].astype(np.int64)
        seen[frontier] = True
        levels.append((frontier, parents, gi))
    return levels


def search_images(dst: FiniteGroup, cand_lists, src: FiniteGroup | None = None):
    """Walk the product of the candidate image lists in `itertools.product`
    order, a block of rows at a time, and yield each block as
    (rows, maps, sizes).

    Without `src` every row is kept, `maps` is None and sizes[i] is
    |<rows[i]>| in dst.  With `src`, row i sends the first len(cand_lists)
    src generators (they must generate src) to its entries.  The row is
    extended to an element map phi along a BFS spanning tree of src over
    those generators, a tree level at a time with `dst.mul_many`, and kept
    iff phi(x g) = phi(x) phi(g) for every element x and each g of those
    generators, i.e. iff the images satisfy src's relators.  `maps` holds the kept
    rows' element maps and `sizes` the sizes of their images.  Only src's
    `gen_cols` are read, so neither group needs a multiplication table.

    The blocks start at one row and double, so a search that succeeds
    early does little more work than a row-at-a-time one; a block holds at
    most _CLOSURE_CELLS (row, element, generator) cells.
    """
    k = len(cand_lists)
    n = dst.order if src is None else src.order
    step, cap = 1, max(1, _CLOSURE_CELLS // (n * max(1, k)))
    if src is not None:
        cols = src.gen_cols[:k]
        tree = spanning_tree(src, range(k))
    walk = product(*cand_lists)
    while chunk := list(islice(walk, step)):
        step = min(2 * step, cap)
        rows = np.array(chunk, dtype=np.int64).reshape(len(chunk), k)
        if src is None:
            yield rows, None, dst.closure_sizes(rows)
            continue
        maps = np.zeros((len(rows), n), dtype=np.int64)
        for child, parent, gi in tree:
            maps[:, child] = dst.mul_many(maps[:, parent], rows[:, gi])
        ok = np.ones(len(rows), dtype=bool)
        for gi, col in enumerate(cols):
            ok &= (maps[:, col] == dst.mul_many(maps, rows[:, gi, None])).all(axis=1)
        maps = maps[ok]
        hit = np.sort(maps, axis=1)
        yield rows[ok], maps, (hit[:, 1:] != hit[:, :-1]).sum(axis=1) + 1


def find_isomorphism(src: FiniteGroup, dst: FiniteGroup) -> list[int] | None:
    """Element map src->dst realizing an isomorphism, or None: the first
    bijective homomorphism among generator images of matching orders."""
    if src.order != dst.order:
        return None
    gen_orders = cycle_orders(src._images(np.array(src.gen_indices))).tolist()
    orders = dst.element_orders()
    by_order = {o: np.flatnonzero(orders == o).tolist() for o in set(gen_orders)}
    blocks = search_images(dst, [by_order[o] for o in gen_orders], src)
    phi = next((m for _, maps, sizes in blocks for m in maps[sizes == dst.order]), None)
    return None if phi is None else phi.tolist()


# -- builtin groups -----------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError(f"cyclic needs n >= 1, got {n}")
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

    G.presentation = Presentation(2, ((1,) * n, (2, 2), (1, 2, 1, 2)))
    return G


@lru_cache(maxsize=None)
def alternating_group(n: int) -> FiniteGroup:
    """A_4 or A_5 on generators a, b with the presentation
    <a, b | a^2, b^3, (ab)^k>, k = 3 or 5: the first pair (by element index
    in A_n) with orders 2 and 3 that generates and whose product has order
    k, found once by the search in tests/group_oracle.py."""
    if n not in (4, 5):
        raise InputError("only A4 and A5 are built in")
    k = 3 if n == 4 else 5
    a = Perm.from_cycles([[0, 2], [1, 3]] if n == 4 else [[0, 4], [2, 3]], n)
    b = Perm.from_cycles([[0, 1, 2]], n)
    G = FiniteGroup([a, b], name=f"A{n}")
    from .fp import Presentation

    G.presentation = Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * k))
    return G


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
