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
their product: the generators' right-action columns `gen_cols`.  On their
Cayley graph, numbered non-tree edges (nontree_edges) and walks of a word
from many elements at once (walk) give the group its presentation, peeled
on first read (presentation).  When the order is at most MUL_TABLE_LIMIT
the multiplication table is filled from those columns, the rows of its
transpose a block of a BFS level at a time, and turned over in place; the
inverses are read off it.  Above that, every group multiplies arrays of
codes (code_mul): a closed-form group by its formula, a permutation group
(its codes are its element numbers) by base images (_keys); the inverses
and orders come from batched powers.

Conjugacy classes are the orbits of one batch of the conjugates of every
element by every generator, labelled by min-label propagation.

Subgroup closures run in batches: one level-by-level BFS over a block of
seed rows, on a flat (row, element) mask of bounded size.

Every search over candidate generator images goes through search_images:
it walks their product in blocks of rows and either closes each row (is
it a generating set, a complement?) or extends it along a spanning tree
to an element map and keeps the homomorphisms (an isomorphism, a cover
map, an automorphism?).  The callers only put a predicate on the rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, product

from . import np
from .errors import InputError, OrderExceeded
from .perms import Perm, _orbit_labels, cycle_orders, cycle_strs

MUL_TABLE_LIMIT = 4096
# (row, element, seed) cells per block of a batched subgroup closure
_CLOSURE_CELLS = 1 << 17
# cells per block of a fill along the BFS tree (bfs_blocks) or of perm_strs
_FILL_CELLS = 1 << 16


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
        self.codes = self._at_code = np.arange(len(keys), dtype=np.int32)
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
        G.degree, G.name = degree, name
        G.gen_arrays = list(code_cols.astype(np.int32))
        G.code_mul, G._elements = code_mul, None
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

    # -- construction helpers -------------------------------------------------

    def _build_table(self) -> np.ndarray:
        """table[a, b] = a b: the transpose (_columns) turned over in place."""
        table = self._columns()
        _transpose_in_place(table)
        return table

    def _columns(self) -> np.ndarray:
        """The transpose of the multiplication table: row b is the column
        a -> a b.  For b = parent g_i it is the parent's row pushed through
        g_i, gen_cols[i] read at that row, so the rows are filled a block
        of a BFS level at a time (bfs_blocks)."""
        n = self.order
        cols = np.empty((n, n), dtype=np.int32)
        cols[0] = np.arange(n, dtype=np.int32)
        flat = self.gen_cols.ravel()
        for lo, hi, parent, gi in self.bfs_blocks(n):
            np.take(flat, cols[parent] + (gi * n)[:, None], out=cols[lo:hi])
        return cols

    def bfs_blocks(self, width: int):
        """Yield (lo, hi, parents, generators) for runs lo..hi-1 of the
        elements in BFS order, each inside one BFS level and of at most
        _FILL_CELLS // width elements (one at least).  Every parent lies in
        an earlier level, so a fill along the BFS tree takes a run at once."""
        parent, gi = np.array(self._parents, dtype=np.int64).T
        assert (parent[1:] >= parent[:-1]).all(), "BFS parents out of order"
        ends = parent.tolist()
        step, lo = max(1, _FILL_CELLS // max(1, width)), 1
        while lo < self.order:
            end = bisect_left(ends, lo, lo)       # the first child of the level
            for a in range(lo, end, step):
                b = min(a + step, end)
                yield a, b, parent[a:b], gi[a:b]
            lo = end

    def _build_inverses(self) -> np.ndarray:
        """Read off the table (row a holds the identity at a^-1); without
        one, found with the orders by batched products (_orders_and_inverses)."""
        if self.mul_table is not None:
            return self.mul_table.argmin(axis=1).astype(np.int32)
        self._orders, inv = self._orders_and_inverses()
        return inv

    def _orders_and_inverses(self) -> tuple[np.ndarray, np.ndarray]:
        """(orders, inverses) of all elements, in O(log |G|) products each.
        Their powers are multiplied up all at once for as many steps as |G|
        has bits, which settles small orders cheaply: x^k x = 1 makes x^k the
        inverse and k + 1 the order.  Past that, x^-1 = x^(|G|-1), and for
        each q^a exactly dividing |G| the q-part x^(|G|/q^a) is raised to
        the q until it is 1."""
        n = self.order
        x = np.arange(n)
        orders, inv = np.empty_like(x), np.empty(n, dtype=np.int32)
        prev, cur, k = np.zeros_like(x), x, 1
        while x.size and k <= n.bit_length():
            done = cur == 0
            orders[x[done]], inv[x[done]] = k, prev[done]
            x, prev = x[~done], cur[~done]
            cur, k = self.mul_many(prev, x), k + 1
        if x.size:
            inv[x], orders[x] = self.power(x, n - 1), 1
            for q, a in _prime_powers(n):
                y, z = x, self.power(x, n // q ** a)
                while (live := z != 0).any():
                    y, z = y[live], z[live]
                    orders[y] *= q
                    z = self.power(z, q)
        return orders, inv

    @cached_property
    def presentation(self):
        """An fp.Presentation of G on its generators, peeled off its Cayley
        graph on first read (fp.peel_presentation).  A presentation file's
        relators are assigned over it."""
        from .fp import peel_presentation      # fp imports this module
        return peel_presentation(self)

    @cached_property
    def nontree_edges(self) -> np.ndarray:
        """The (|G|, d) array that numbers the non-tree edges g -> g x_i of
        G's Cayley graph in order of (g, i), -1 on the edges of the BFS
        tree (_parents)."""
        col = np.zeros((self.order, len(self.gen_cols)), dtype=np.int64)
        parent, gi = np.array(self._parents[1:], dtype=np.int64).reshape(-1, 2).T
        col[parent, gi] = -1
        col[col == 0] = np.arange(np.count_nonzero(col == 0))
        return col

    def walk(self, word, start) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk the word (letters +-(i+1)) on the Cayley graph from each
        element of `start` at once: (edges, tails, end).  Letter j crosses
        the edge g -> g x_i (backwards for an inverse letter) at the
        vertices g = tails[j], and edges[j] is its nontree_edges number (-1
        on a tree edge); `end` is where each walk ends."""
        at = np.asarray(start)
        tails = np.empty((len(word), at.size), dtype=np.intp)
        for j, letter in enumerate(word):
            i = abs(letter) - 1
            if letter > 0:
                tails[j], at = at, self.gen_cols[i][at]
            else:
                at = tails[j] = self._back_cols[i][at]
        gens = np.abs(np.asarray(word, dtype=np.intp)) - 1
        return self.nontree_edges[tails, gens[:, None]], tails, at

    @cached_property
    def _back_cols(self) -> np.ndarray:
        """_back_cols[i, x] = x g_i^-1, the inverse of each gen_cols row."""
        return np.argsort(self.gen_cols, axis=1)

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
        return int(self.mul_many(a, b))

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise products of two broadcastable index arrays: read off
        the table, or past it multiplied as codes (code_mul)."""
        if self.mul_table is not None:
            return self.mul_table[a, b]
        return self._at_code[self.code_mul(self.codes[a], self.codes[b])]

    @cached_property
    def _keys(self) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """(base, images, keys, at), made on first use.  Each base point (Sims)
        is the first point moved by the elements that fix the points before
        it (the first one by a generator), so images[x], element x's images
        of the base, tell the elements apart.  `keys` holds the rows' byte
        keys in sorted order, and at[i] is the element of keys[i]."""
        E, base, live = self._elements, [], self.gen_indices
        while not base or live.size > 1:
            base.append(int(np.argmax((E[live] != np.arange(self.degree)).any(axis=0))))
            live = np.flatnonzero((E[:, base] == base).all(axis=1))
        images = E[:, base]
        at = np.argsort(_byte_keys(images)).astype(np.int32)
        return base, images, _byte_keys(images)[at], at

    def code_mul(self, a, b) -> np.ndarray:
        """A permutation group's product on codes, its element numbers: b's
        images of a's base images, found among the sorted keys (_keys).  A
        closed-form group's own code_mul replaces it."""
        _, images, keys, at = self._keys
        return at[np.searchsorted(keys, _byte_keys(
            self._elements[np.expand_dims(b, -1), images[a]]))]

    def conj(self, x: int, c: int) -> int:
        """c^-1 x c."""
        return self.mul(self.mul(int(self.inv[c]), x), c)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(int(self.inv[a]), int(self.inv[b])), self.mul(a, b))

    def power(self, x, e: int):
        """x^e for an element or an array of elements x (e < 0 through the
        inverses), by square-and-multiply over the whole batch; an int for
        an int x."""
        x = np.asarray(self.inv[x] if e < 0 else x, dtype=np.int64)
        e, out = abs(e), None                       # None: the identity
        while e:
            if e & 1:
                out = x if out is None else self.mul_many(out, x)
            e >>= 1
            if e:
                x = self.mul_many(x, x)
        out = np.zeros_like(x) if out is None else out
        return int(out) if out.ndim == 0 else out

    def element_order(self, a: int) -> int:
        return int(self.element_orders()[a])

    def element_orders(self) -> np.ndarray:
        """The order of every element (_orders_and_inverses): found with the
        inverses past the table, on first use through it."""
        if self._orders is None:
            self._orders = self._orders_and_inverses()[0]
        return self._orders

    @property
    def elements(self) -> np.ndarray:
        """Row i is the permutation of element i.  A closed-form group keeps
        no such array: it is made from the product, a block of rows at a
        time, on each read."""
        if self._elements is not None:
            return self._elements
        parts = 1 + self.order * self.degree // _CLOSURE_CELLS    # rows of bounded size
        rows = np.array_split(np.arange(self.order), parts)
        return np.concatenate([self._images(r) for r in rows])

    def _images(self, i) -> np.ndarray:
        """The permutation of element i, or one row per element of an array."""
        if self._elements is not None:
            return self._elements[i]
        if self.mul_table is not None:        # x -> x i, read off the table
            img = self.codes[self.mul_table[self._at_code, np.expand_dims(i, -1)]]
        else:
            img = self.code_mul(np.arange(self.degree), np.expand_dims(self.codes[i], -1))
        return img.astype(np.int32)

    def lookup(self, perm_images: np.ndarray) -> int | None:
        j = int(self._find([perm_images])[0])
        return None if j < 0 else j

    def _find(self, rows) -> np.ndarray:
        """The element of each row of images (-1 for none): the candidate
        takes 0 to the row's code, or has the row's base images (_keys)."""
        rows = np.asarray(rows, dtype=np.int32)
        if self._elements is None:
            j = self._at_code[rows[:, 0]]
        else:
            base, _, keys, at = self._keys
            j = at[np.searchsorted(keys, _byte_keys(rows[:, base])) % self.order]
        return np.where((self._images(j) == rows).all(axis=1), j, -1)

    def perm(self, i: int) -> Perm:
        return Perm(tuple(self._images(i).tolist()))

    def perm_str(self, i: int) -> str:
        """Cycle notation of element i, as `str(self.perm(i))` gives it."""
        return self.perm_strs([i])[0]

    def perm_strs(self, idx) -> list[str]:
        """perm_str of each element of the sequence `idx`, in cycle_strs
        batches of _FILL_CELLS image cells (one element at least)."""
        idx, step = np.asarray(idx, dtype=np.intp), max(1, _FILL_CELLS // self.degree)
        return [s for at in range(0, len(idx), step)
                for s in cycle_strs(self._images(idx[at:at + step]))]

    # -- structure -------------------------------------------------------------

    def conjugacy_classes(self) -> list[ConjClass]:
        """The orbits of conjugation by the generators, labelled by their
        least element (perms._orbit_labels) over the rows c^-1 x c of every
        element x by each generator c (`mul_many`); sorted by element order,
        size and least element."""
        if self._classes is not None:
            return self._classes
        c = np.asarray(self.gen_indices)[:, None]
        conj = self.mul_many(self.mul_many(self.inv[c], np.arange(self.order)), c)
        reps, at, sizes = np.unique(_orbit_labels(list(conj)), return_inverse=True,
                                    return_counts=True)
        orders = self.element_orders()[reps]
        rank = np.lexsort((reps, sizes, orders))
        self._class_of = np.argsort(rank).astype(np.int32)[at]
        members = np.split(np.argsort(self._class_of, kind="stable"),
                           np.cumsum(sizes[rank])[:-1])
        self._classes = [ConjClass(int(reps[r]), tuple(m.tolist()), int(orders[r]))
                         for r, m in zip(rank, members)]
        return self._classes

    def class_of(self, x):
        """The class index of element x, or of each element of an array x."""
        self.conjugacy_classes()
        out = self._class_of[x]
        return int(out) if out.ndim == 0 else out

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
        found = self._find(other.elements)
        return None if (found < 0).any() else found.tolist()


def _seed_row(seeds) -> np.ndarray:
    """The distinct non-identity seeds, as a one-row block of seeds."""
    return unique_rows(np.array([s for s in seeds if s != 0], dtype=np.int64)[:, None])[0].T


def _byte_keys(images: np.ndarray) -> np.ndarray:
    """Each row of int32 images as one fixed-width byte key, which sorts
    and is searched for (np.searchsorted) as a single value."""
    return np.ascontiguousarray(images).view(np.dtype((np.void, 4 * images.shape[-1])))[..., 0]


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


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(q, a) for each prime power q^a exactly dividing n."""
    out = []
    for q in range(2, int(n ** 0.5) + 1):
        a = 0
        while n % q == 0:
            n, a = n // q, a + 1
        out += [(q, a)] * (a > 0)
    return out + [(n, 1)] * (n > 1)


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
    return FiniteGroup([rot, ref], name=f"D{n}")


@lru_cache(maxsize=None)
def alternating_group(n: int) -> FiniteGroup:
    """A_4 or A_5 on generators a, b of orders 2 and 3 whose product has
    order 3 or 5: the first such generating pair (by element index in A_n),
    found once by the search in tests/group_oracle.py."""
    if n not in (4, 5):
        raise InputError("only A4 and A5 are built in")
    a = Perm.from_cycles([[0, 2], [1, 3]] if n == 4 else [[0, 4], [2, 3]], n)
    b = Perm.from_cycles([[0, 1, 2]], n)
    return FiniteGroup([a, b], name=f"A{n}")


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
