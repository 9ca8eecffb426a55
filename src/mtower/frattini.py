"""Characteristic p-Frattini levels: the dihedral closed form, and every
other level as an extension of G by its Frattini module M, read off H^2(G, M)
by one sparse F_p linear solve (_cocycle_space, linalg.sparse_nullspace) for
the kernel labels on the edges of G's Cayley graph and the tails of the
relators that G's peel gives (G.presentation).  The same solve builds the
extension of any class, so nothing here enumerates cosets.  Against the
trivial module it gives the Z/p Schur covers, one per line of H^2(G, F_p)
(schur_covers).  The solve, an extension's section tables and a pair model
each predict their memory first, and raise TooLarge past MEMORY_CEILING; a
pair model is refused past PAIR_MODEL_LIMIT elements too.

Levels are constructed by structure, not by search, and over G itself
(general_level).  When G = P0 x| <h> has a normal elementary abelian
p-Sylow (split_structure), M is P0's relation module Phi(F) / Phi(Phi(F)),
whose coordinates are exponent sums along Reidemeister-Schreier walks on
P0's Cayley graph (_schreier_basis, on the non-tree edges that
G.nontree_edges numbers), with h acting by the p'-part of the matrix that a
free-group lift of its action induces (split_module).  Otherwise the
Sylow normalizer's module is induced to G, and the one summand that is not
free over the Sylow is kept.  The searches that remain (the Frattini and
restriction-splitting checks, cover maps onto Schur covers) run through
groups.search_images.

Every constructed level is normalized to a canonical "pair model": elements
are pairs (base element, kernel vector) with

    (g, v) * (h, w) = (g h, v A_h + w + psi(g, h))

where psi is the 2-cocycle read off a chosen section (kernel written on the
right of the section: s(g) s(h) = s(gh) psi(g, h)).  The pair model makes
element indexing independent of how the group was found, so downstream
orbit reports are byte-stable.  It is built from that product over the
codes g p^m + int(v), without composing a permutation, and generated by the
base lifts and the kernel vectors that spin the module.  The dihedral
level's proj, section and kernel are read off the codes f n + a of
i -> (-1)^f i + a.  Every level lists its kernel by the base-p code of each
vector, so the coordinates are the digits of a kernel element's position
(FrattiniLevel.kernel_coords).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import np
from . import linalg as la
from .errors import (Collapse, IncompatibleLevels, InputError, NotPPrime,
                     OrderExceeded, TooLarge)
from .fp import Presentation, free_reduce, invert_word
from .gmodules import (GModule, indecomposable_summands, induce, spin,
                       submodule_module, trivial_module)
from .groups import (MUL_TABLE_LIMIT, FiniteGroup, dihedral_group,
                     generating_set, is_p_perfect, search_images,
                     subgroup_from_indices)

# Bytes a stage may be predicted to need: the H^2 solve, an extension's
# section tables, a pair model, a report's files.  Past it the stage raises
# TooLarge before it allocates or writes anything.
MEMORY_CEILING = 1 << 30
# Elements a pair model may have: past it the checks that run on a level an
# element or a generator tuple at a time would take minutes.
PAIR_MODEL_LIMIT = 1 << 16


def _check_memory(stage: str, size: str, nbytes: int) -> None:
    if nbytes > MEMORY_CEILING:
        raise TooLarge(f"{stage}: {size} need a predicted {nbytes / 2**20:,.1f} MiB, "
                       f"past MEMORY_CEILING = {MEMORY_CEILING / 2**20:,.1f} MiB")


@dataclass
class FrattiniLevel:
    total: FiniteGroup
    base: FiniteGroup
    p: int
    proj: np.ndarray                 # total element -> base element
    section: np.ndarray              # base element -> total element (set-theoretic)
    kernel_elems: list[int]          # total elements, by the base-p code of their vector
    kernel_module: GModule           # over base, in base-generator order
    name: str = ""

    @property
    def kernel_dim(self) -> int:
        return self.kernel_module.dim

    @cached_property
    def kernel_coords(self) -> dict[int, np.ndarray]:
        """Kernel element -> its vector: the digits of its position."""
        return dict(zip(self.kernel_elems, _digits(len(self.kernel_elems),
                                                   self.kernel_dim, self.p)))

    def lifts(self, g: int) -> list[int]:
        return self.total.mul_many(self.section[g], self.kernel_elems).tolist()

    @cached_property
    def pprime_lifts(self) -> tuple[np.ndarray, np.ndarray]:
        """(count, above): per base class, how many p' classes of the total
        group project into it, and the index of the last of them (-1 for
        none).  Over a p' class the count is 1 (Schur-Zassenhaus)."""
        classes = self.total.conjugacy_classes()
        ids = np.array([ci for ci, c in enumerate(classes) if c.element_order % self.p])
        below = self.base.class_of(self.proj[[classes[ci].representative for ci in ids]])
        above = np.full(len(self.base.conjugacy_classes()), -1)
        above[below] = ids
        return np.bincount(below, minlength=len(above)), above


def _digits(n: int, m: int, p: int) -> np.ndarray:
    """Row c: the m base-p digits of c (lowest first), for c < n."""
    return np.arange(n)[:, None] // p ** np.arange(m) % p


# -- pair model construction -----------------------------------------------------


def pair_model_group(base: FiniteGroup, module: GModule, psi: np.ndarray,
                     name: str = "") -> tuple[FiniteGroup, dict]:
    """Extension of `base` by `module` along cocycle `psi` as a FiniteGroup.

    The pair (g, v) has the code g * p^m + int(v), and the group is built
    from its product over arrays of codes (FiniteGroup.from_closed_form).
    Generators are the lifts (gen, 0) of the base generators followed by
    each (1, e_j) whose e_j is not in the submodule spun by the e_j chosen
    before it; they generate every extension of base by module.  proj,
    section and kernel (by code) are read off the codes.  Requires psi
    normalized: psi[0,:] = psi[:,0] = 0.
    """
    p, m, nb = module.p, module.dim, base.order
    P = p ** m
    npts = nb * P
    _check_pair_model_size(nb, p, m)
    if (psi[0] != 0).any() or (psi[:, 0] != 0).any():
        raise InputError("cocycle not normalized at the identity")

    # rows of small ints, gathered whole by np.take: vecs[int(v)] = v,
    # acted[h P + int(v)] = v A_h and cocycle[g nb + h] = psi(g, h)
    vecs = _digits(P, m, p).astype(np.int32)
    acted = (vecs @ module.element_mats() % p).reshape(nb * P, m).astype(np.int32)
    cocycle = psi.reshape(nb * nb, m).astype(np.int32)
    weights = p ** np.arange(m)

    def code_mul(a, b):
        (g, v), (h, w) = np.divmod(a, P), np.divmod(b, P)
        vec = np.take(acted, h * P + v, axis=0)
        vec += np.take(vecs, w, axis=0)
        vec += np.take(cocycle, g * nb + h, axis=0)
        return base.mul_many(g, h).astype(np.int64) * P + vec % p @ weights

    gens, spun = [g * P for g in base.gen_indices], np.zeros((0, m), dtype=np.int64)
    for j, e in enumerate(la.identity(m)):
        if la.rank(np.vstack([spun, e]), p) > len(spun):
            gens.append(p ** j)
            spun = spin(module, np.vstack([spun, e]))
    total = FiniteGroup.from_closed_form(npts, gens, code_mul, name=name)
    if total.order != npts:
        raise Collapse(f"pair model closed at {total.order}, expected {npts}")
    return total, dict(proj=total.codes // P, section=total._at_code[::P].astype(np.int64),
                       kernel=total._at_code[:P].tolist())


def _check_pair_model_size(nb: int, p: int, m: int) -> None:
    """Raise TooLarge for a pair model of nb base elements by a kernel of
    dimension m past PAIR_MODEL_LIMIT or past MEMORY_CEILING.  Past 64
    dimensions the size is written as a power, not computed."""
    npts = nb * p ** min(m, 64)
    size = f"{npts:,} points" if m <= 64 else f"{nb:,} x {p}^{m} points"
    if npts > PAIR_MODEL_LIMIT:
        raise TooLarge(f"pair model: {size}, past "
                       f"PAIR_MODEL_LIMIT = {PAIR_MODEL_LIMIT:,}")
    _check_memory("pair model", size, pair_model_bytes(npts))


def pair_model_bytes(npts: int) -> int:
    """Predicted peak of a pair model on npts points: the multiplication
    table (4 B per entry) when it is built, its only quadratic term, and
    about 1 KiB per element (BFS columns and parents, codes, inverses)."""
    return (4 * npts * npts if npts <= MUL_TABLE_LIMIT else 0) + 1024 * npts


def level_from_pair_model(base: FiniteGroup, module: GModule, psi: np.ndarray,
                          p: int, name: str = "") -> FrattiniLevel:
    total, info = pair_model_group(base, module, psi, name=name)
    lvl = FrattiniLevel(
        total=total, base=base, p=p, proj=info["proj"], section=info["section"],
        kernel_elems=info["kernel"], kernel_module=module, name=name)
    _check_level(lvl)
    return lvl


def _check_level(lvl: FrattiniLevel) -> None:
    tot, base = lvl.total, lvl.base
    assert tot.order == base.order * lvl.p ** lvl.kernel_dim
    # projection is a homomorphism, on each generator column at once
    for col, g in zip(tot.gen_cols, tot.gen_indices):
        if (lvl.proj[col] != base.mul_many(lvl.proj, lvl.proj[g])).any():
            raise AssertionError("projection not a homomorphism")
    # conjugation on the kernel realizes the module action: s^-1 k s for
    # the section s of each base generator and every kernel element k
    # (coordinates -1 off the kernel, which is listed by vector code)
    kernel, s = lvl.kernel_elems, lvl.section[base.gen_indices][:, None]
    coords = np.full((tot.order, lvl.kernel_dim), -1, dtype=np.int64)
    coords[kernel] = _digits(len(kernel), lvl.kernel_dim, lvl.p)
    got = coords[tot.mul_many(tot.mul_many(tot.inv[s], kernel), s)]
    want = np.stack([coords[kernel] @ A % lvl.p for A in lvl.kernel_module.mats])
    if (got != want).any():
        raise AssertionError("kernel conjugation != module action")


# -- dihedral closed form ----------------------------------------------------------


def _dihedral_codes(G: FiniteGroup, n: int) -> np.ndarray:
    """The code f n + a of each element of G, the permutation i -> (-1)^f i + a
    of n points; AssertionError unless every element has that form."""
    img = G.elements.astype(np.int64)
    a = img[:, 0]
    flip = img[:, 1] != (a + 1) % n
    i = np.arange(n)
    if (img != (np.where(flip[:, None], -i, i) + a[:, None]) % n).any():
        raise AssertionError("not in standard rotation/reflection form")
    return flip * n + a


def dihedral_level(p: int, k: int, max_order: int = 1 << 20) -> list[FrattiniLevel]:
    """Tower D_{p^{j+1}} -> D_{p^j} for j = 1..k (p odd).

    k = 0 returns the degenerate level: D_p over itself with trivial kernel.
    """
    if p < 3:
        raise InputError("dihedral tower needs an odd prime")
    if 2 * p ** (k + 1) > max_order:
        raise OrderExceeded("dihedral level past group-order budget")
    if k == 0:
        D = dihedral_group(p)
        module = GModule(D, p, [np.zeros((0, 0), dtype=np.int64)] * 2, check=False)
        return [FrattiniLevel(
            total=D, base=D, p=p, proj=np.arange(D.order, dtype=np.int64),
            section=np.arange(D.order, dtype=np.int64), kernel_elems=[0],
            kernel_module=module, name=f"D{p}ident")]
    levels = []
    base = dihedral_group(p)
    for _ in range(k):
        lvl = dihedral_step(base, p)
        levels.append(lvl)
        base = lvl.total
    return levels


def dihedral_step(base: FiniteGroup, p: int) -> FrattiniLevel:
    """One closed-form level D_{np} -> D_n over the given dihedral base.

    The base must act on n points in the standard rotation/reflection form
    (its elements are i -> +-i + a); the total is the standard dihedral
    group of order 2np.  Each group's elements are indexed by their codes
    f n + a, and proj, section and kernel are read off them.
    """
    nb = base.degree
    if base.order != 2 * nb or nb % p:
        raise InputError("base is not a standard dihedral group of p-power rotation")
    nt = nb * p
    Dt = dihedral_group(nt)
    base_codes, top_codes = _dihedral_codes(base, nb), _dihedral_codes(Dt, nt)
    base_at, top_at = np.argsort(base_codes), np.argsort(top_codes)   # code -> element
    f, a = np.divmod(top_codes, nt)
    proj = base_at[f * nb + a % nb]
    section = top_at[base_codes // nb * nt + base_codes % nb]
    kernel = top_at[np.arange(p) * nb].tolist()
    module = GModule(base, p, [np.array([[1]]), np.array([[p - 1]])],
                     check=False)
    lvl = FrattiniLevel(Dt, base, p, proj, section, kernel, module,
                        name=f"D{nt}->D{nb}")
    _check_level(lvl)
    return lvl


# -- H^2 and extensions: one linear solve over the Cayley graph ----------------


def _schreier_basis(G: FiniteGroup, p: int):
    """(Schreier generators, coordinates) of the relation module of the
    free group F on G's generators: ker(F -> G) modulo its p-th powers and
    commutators.

    Generator k is w(g) x_i w(g x_i)^-1 for the k-th non-tree edge g -> g x_i
    (G.nontree_edges), w(g) the BFS word of g.  coords(word), for a word of
    the kernel, is its vector of exponent sums mod p along the
    Reidemeister-Schreier walk from the identity (G.walk): +1 for each
    non-tree edge crossed forwards, -1 backwards; AssertionError unless the
    walk ends at the identity.
    """
    w = [tuple(g + 1 for g in word) for word in G.words]
    sgens = [free_reduce(w[g] + (i + 1,) + invert_word(w[G.gen_cols[i][g]]))
             for g, i in np.argwhere(G.nontree_edges >= 0).tolist()]

    def coords(word) -> np.ndarray:
        edges, _, end = G.walk(word, [0])
        assert end[0] == 0, f"word {word} does not end at the identity"
        crossed = edges[:, 0] >= 0
        sums = np.bincount(edges[crossed, 0], weights=np.sign(word)[crossed],
                           minlength=len(sgens))
        return sums.astype(np.int64) % p

    return sgens, coords


def _cocycle_space(P: Presentation, M: GModule):
    """All (edge labels, relator tails) of extensions of M.group by M.

    The unknowns are a kernel label c(g, i) on every non-tree edge g -> g x_i
    of G's Cayley graph (tree edges, from G._parents, carry label 0),
    followed by the relator tails t in M^s.  Generator x_i acts on pairs by
    (g, v) x_i = (g x_i, v A_i + c(g, i)); the equations say that every
    relator, read from every vertex (G.walk, as the peel reads it), ends at
    its tail (|G| m rows per relator, all handed to one
    la.sparse_nullspace as COO triples).
    Returns the labels and the tails blocks of the basis that la.nullspace
    gives for that system, the (|G|, d) array of label indices (-1 on tree
    edges), and the rref (rows, pivots) of the coboundary tails: lifting
    x_i by v moves relator r's tail by v times the sum of the letter
    matrices K over the letters x_i^(+-1) of r (the Fox derivative), one
    row per (i, basis vector), the same walk as the solve's.  Raises
    TooLarge, before any work, when the solve's predicted memory passes
    MEMORY_CEILING.
    """
    G, p, m, n, s = M.group, M.p, M.dim, M.group.order, len(P.relators)
    nl = (n * (P.ngens - 1) + 1) * m
    ncols = nl + s * m
    entries = n * m * sum(len(r) * m + 1 for r in P.relators)
    _check_memory("H^2 solve", f"{ncols:,} unknowns",
                  la.sparse_nullspace_bytes(ncols, entries, p))
    inv_mats = [M._invert(A) for A in M.mats]
    col = G.nontree_edges
    cob = np.zeros((P.ngens, m, s, m), dtype=np.int64)
    eq, unk, val = [], [], []
    for ri, rel in enumerate(P.relators):
        # entry (equation (ri*n + g)*m + b, unknown u*m + a) = K[a, b]; the
        # tail t_ri enters every equation of the relator with -1
        base = ri * n * m
        eq.append(base + np.arange(n * m))
        unk.append(nl + ri * m + np.arange(n * m) % m)
        val.append(np.full(n * m, -1))
        # a label reaches the relator's end times the later letters' matrices
        suffix, coeffs = la.identity(m), []
        for letter in reversed(rel):
            if letter > 0:
                coeffs.append(suffix)
                suffix = la.matmul(M.mats[letter - 1], suffix, p)
            else:
                suffix = la.matmul(inv_mats[-letter - 1], suffix, p)
                coeffs.append(-suffix)
        edges, _, end = G.walk(rel, np.arange(n))
        assert (end == np.arange(n)).all(), f"relator {ri} does not hold in the group"
        for letter, K, blk in zip(rel, reversed(coeffs), edges):
            cob[abs(letter) - 1, :, ri] += K
            g = np.nonzero(blk >= 0)[0]
            a, b = np.nonzero(K)
            eq.append(base + (g[:, None] * m + b).ravel())
            unk.append((blk[g][:, None] * m + a).ravel())
            val.append(np.tile(K[a, b], len(g)))
    sol = la.sparse_nullspace(*map(np.concatenate, (eq, unk, val)), s * n * m, ncols, p)
    return (sol[:, :nl], sol[:, nl:], col,
            la.rref(cob.reshape(P.ngens * m, s * m), p))


def h2_classes(P: Presentation, M: GModule) -> tuple[int, list[np.ndarray]]:
    """(dim H^2(G, M), one relator-tail representative per class)."""
    return _h2_classes(P, M, _cocycle_space(P, M))


def _h2_classes(P: Presentation, M: GModule, space) -> tuple[int, list[np.ndarray]]:
    """H^2 classes read from a solved _cocycle_space.

    The tails of all extensions are reduced modulo the coboundary tails onto
    the free columns of their rref; every vector of that complement is listed,
    ordered by its free-column values, so the zero class comes first.
    """
    p, m, s = M.p, M.dim, len(P.relators)
    _, tails, _, (red, piv) = space
    for r, c in enumerate(piv):
        tails = (tails - np.outer(tails[:, c], red[r])) % p
    free_cols = [c for c in range(s * m) if c not in piv]
    basis, _ = la.rref(tails[:, free_cols], p)
    classes = []
    for v in sorted((la.matmul(k, basis, p) for k in la.all_vectors(len(basis), p)),
                    key=lambda v: la.vec_int(v, p)):
        flat = np.zeros(s * m, dtype=np.int64)
        flat[free_cols] = v
        classes.append(flat.reshape(s, m))
    return len(basis), classes


def build_extension(P: Presentation, M: GModule, tails: np.ndarray,
                    name: str = "") -> FrattiniLevel:
    """Concrete extension of M.group by M along the given relator tails."""
    return _extension(P, M, _cocycle_space(P, M), tails, name)


def _extension(P: Presentation, M: GModule, space, tails: np.ndarray,
               name: str) -> FrattiniLevel:
    """The extension of the given tails, read from a solved _cocycle_space.

    The edge labels of the tails are solved from the space (Collapse when
    the tails are not the tails of an extension); psi is filled along the
    BFS tree by psi(g, h x_i) = psi(g, h) A_i + c(g h, i) - c(h, i), where
    the tree edge's label c(h, i) is 0, in place, a block of a BFS level of
    columns h at a time (FiniteGroup.bfs_blocks).
    """
    G, p, m, n = M.group, M.p, M.dim, M.group.order
    _check_memory("extension tables", f"{n:,} x {n:,} x {m}",
                  8 * n * n * (m + (G.mul_table is None)))
    sol_labels, sol_tails, col, _ = space
    coeff = la.solve_right(sol_tails, np.reshape(tails, (1, -1)), p)
    if coeff is None:
        raise Collapse("tails are not the relator tails of an extension")
    labels = la.matmul(coeff, sol_labels, p).reshape(-1, m)
    c = np.vstack([labels, np.zeros((1, m), dtype=np.int64)])[col]
    times = G._columns() if G.mul_table is None else G.mul_table.T   # row h: g -> g h
    mats = np.stack(M.mats)
    psi = np.zeros((n, n, m), dtype=np.int64)
    for lo, hi, parent, i in G.bfs_blocks(n * m):
        acted = np.matmul(psi[:, parent].transpose(1, 0, 2), mats[i]).transpose(1, 0, 2)
        psi[:, lo:hi] = (acted + c[times[parent].T, i]) % p
    del times
    return level_from_pair_model(G, M, psi, p, name=name)


def schur_covers(G: FiniteGroup, p: int) -> list[FrattiniLevel]:
    """One central extension R_D of G by F_p per line of H^2(G, F_p).

    One solve against the trivial module gives both the classes and their
    extensions.  Each line is represented by its class whose first nonzero
    tail is 1; the covers come in H^2 class order.
    """
    P, M = G.presentation, trivial_module(G, p)
    space = _cocycle_space(P, M)
    _, classes = _h2_classes(P, M, space)
    lines = [c for c in classes if c.any() and c[c != 0][0] == 1]
    return [_extension(P, M, space, c, name=f"R_D{i + 1}({G.name})")
            for i, c in enumerate(lines)]


# -- verification -----------------------------------------------------------------


@dataclass
class OrderLiftReport:
    order_violations: list[tuple[int, int, int]]   # (base elem, lift, lift order)
    class_failures: list[tuple[int, int]]          # (base class rep, count above)

    @property
    def ok(self) -> bool:
        return not self.order_violations and not self.class_failures


def verify_order_lifting(L: FrattiniLevel) -> OrderLiftReport:
    """Every p-divisible-order element must lift to order p * ord on every
    lift, read off the |base| x |K| array of lifts; every p' class must
    have exactly one p' class above it (FrattiniLevel.pprime_lifts)."""
    p = L.p
    lifts = L.total.mul_many(L.section[:, None], np.asarray(L.kernel_elems))
    order, lift_order = L.base.element_orders()[:, None], L.total.element_orders()[lifts]
    g, k = np.nonzero((order % p == 0) & (lift_order != p * order))
    violations = list(zip(g.tolist(), lifts[g, k].tolist(), lift_order[g, k].tolist()))
    failures = [(c.representative, n) for c, n in
                zip(L.base.conjugacy_classes(), L.pprime_lifts[0].tolist())
                if c.element_order % p and n != 1]
    return OrderLiftReport(violations, failures)


def minimal_generating_tuple(G: FiniteGroup) -> list[int]:
    """The first pair a < b of non-identity elements generating G, else
    G's own generators."""
    return _first_generating_pair(G, range(1, G.order), G.order) or list(G.gen_indices)


def _first_generating_pair(G: FiniteGroup, elems, order: int) -> list[int] | None:
    """The first pair a < b from `elems` whose closure has `order` elements.
    Each a is searched against the larger b only, so no pair a >= b is closed."""
    elems = np.asarray(elems, dtype=np.int64)
    hits = (row for a in elems.tolist()
            for rows, _, sizes in search_images(G, [[a], elems[elems > a]])
            for row in rows[sizes == order])
    row = next(hits, None)
    return None if row is None else row.tolist()


def _orbit_lifts(L: FrattiniLevel, gens: list[int]) -> list[list[int]]:
    """Lift lists of `gens` whose product meets every orbit of the kernel K
    acting on lift tuples by conjugation (see verify_frattini)."""
    T, K = L.total, np.asarray(L.kernel_elems)
    vecs = _digits(len(K), L.kernel_dim, L.p)
    C, out = K, []
    for g in gens:
        x = int(L.section[g])
        d = T.mul_many(T.mul_many(T.mul_many(T.inv[x], T.inv[C]), x), C)
        _, piv = la.rref(np.array([L.kernel_coords[e] for e in d.tolist()]), L.p)
        out.append(T.mul_many(x, K[(vecs[:, piv] == 0).all(axis=1)]).tolist())
        C = C[d == 0]
    return out


def verify_frattini(L: FrattiniLevel) -> bool:
    """Check that every lift of a generating tuple of the base still
    generates the total group, on one lift tuple per kernel orbit.

    Generating survives conjugation, and c in K sends the lift x k of g
    (x = section[g], k in K) to x [x, c] k.  K is abelian, so c -> [x, c]
    is linear: walking the generators with C the part of K still free
    (K at first), one lift per coset of D = [x, C] is kept (those whose
    coordinates vanish at D's pivots), and C shrinks to the c with
    [x, c] = 1.  A generating pair keeps |K| |K^G| tuples, not |K|^2.
    """
    return all((sizes == L.total.order).all() for _, _, sizes in
               search_images(L.total, _orbit_lifts(L, minimal_generating_tuple(L.base))))


def lift_class(L: FrattiniLevel, ci: int) -> int:
    """The index of the one p' class of L.total over base class ci
    (FrattiniLevel.pprime_lifts)."""
    if L.base.conjugacy_classes()[ci].element_order % L.p == 0:
        raise NotPPrime("class order divisible by p")
    count, above = L.pprime_lifts
    if count[ci] != 1:
        raise AssertionError(f"expected unique p' class above, found {count[ci]}")
    return int(above[ci])


def restriction_splits(L: FrattiniLevel, subgroup_elems: list[int]) -> bool:
    """Does the pullback of the cover over the given base subgroup split?

    Splitting is witnessed by a complement: lifts of a generating pair of
    the subgroup whose closure has the subgroup's order.  Conjugation by the
    kernel keeps complements, so one lift tuple per orbit is tried.
    """
    S = sorted(subgroup_elems)
    sub_gens = _first_generating_pair(L.base, [a for a in S if a], len(S))
    if sub_gens is None:
        sub_gens = next((row.tolist() for rows, _, sizes in search_images(L.base, [S])
                         for row in rows[sizes == len(S)]), None)
    assert sub_gens is not None, "subgroup has no small generating set"
    return any((sizes == len(S)).any() for _, _, sizes in
               search_images(L.total, _orbit_lifts(L, sub_gens)))


# -- Sylow plumbing and the general-case module pipeline ---------------------------


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def p_sylow(G: FiniteGroup, p: int) -> tuple[int, ...]:
    """Element indices of a p-Sylow subgroup (deterministic normalizer growth,
    every element conjugating the generators in one batch)."""
    target = 1
    n = G.order
    while n % p == 0:
        n //= p
        target *= p
    S = (0,)
    gens: list[int] = []
    x = np.arange(G.order)
    while len(S) < target:
        inside = np.zeros(G.order, dtype=bool)
        inside[list(S)] = True
        g = np.array(gens or [0], dtype=np.int64)
        normalizes = inside[G.mul_many(G.mul_many(G.inv[x], g[:, None]), x)].all(axis=0)
        for y in np.flatnonzero(normalizes & ~inside).tolist():
            if _is_p_power(G.element_order(y), p):
                S2 = G.subgroup_closure(gens + [y])
                if _is_p_power(len(S2), p):
                    gens, S = gens + [y], S2
                    break
        else:
            raise AssertionError("sylow growth stalled")
    return S


def normalizer(G: FiniteGroup, subgroup_elems) -> tuple[int, ...]:
    """The x with x^-1 g x in the subgroup for each of its generators g,
    every element conjugated in one batch."""
    inside = np.zeros(G.order, dtype=bool)
    inside[list(subgroup_elems)] = True
    gens = np.array(generating_set(G, np.flatnonzero(inside).tolist()), dtype=np.int64)
    x = np.arange(G.order)
    return tuple(np.flatnonzero(inside[G.mul_many(G.mul_many(G.inv[x], gens[:, None]), x)]
                                .all(axis=0)).tolist())


def _vector_group(d: int, p: int) -> FiniteGroup:
    """(Z/p)^d translating the base-p codes of its vectors, generated by
    e_1, ..., e_d."""
    vecs, weights = _digits(p ** d, d, p), p ** np.arange(d)
    return FiniteGroup.from_closed_form(
        p ** d, weights.tolist(), lambda a, b: (vecs[a] + vecs[b]) % p @ weights,
        name=f"(Z/{p})^{d}")


@dataclass
class SplitData:
    rank: int
    prime: int
    basis: list[int]               # kernel generators inside the concrete group
    complement_gen: int
    action: np.ndarray             # matrix of the complement generator on the basis
    split_map: np.ndarray          # code j |P0| + u -> its element h^j u of the group


def split_structure(N: FiniteGroup, p: int, of: str = "") -> SplitData | None:
    """Read N as P0 x| <h>, P0 its normal elementary abelian p-Sylow; None
    when the p-Sylow is not normal.  A refusal names it, followed by `of`.

    A normal p-Sylow is the set of elements of p-power order, and h is the
    first element of order |N : P0|, a p' order, so its powers meet P0 in 1
    only.  The split map sends the code j |P0| + u, for u the element of
    _vector_group(d, p) with vector v, to h^j b_1^v_1 ... b_d^v_d for the
    basis b_i of P0; row i of the action matrix is the vector of h^-1 b_i h.
    """
    orders, q = N.element_orders(), 1          # q: the p-part of |N|
    while N.order % (q * p) == 0:
        q *= p
    S = np.flatnonzero(q % orders == 0)
    if len(S) != q:
        return None
    basis = generating_set(N, S.tolist())
    if (orders[S] > p).any() or \
            any(N.mul(a, b) != N.mul(b, a) for a in basis for b in basis):
        raise InputError(f"cover stage: the {p}-Sylow{of} is not elementary abelian")
    index = N.order // q
    h = np.flatnonzero(orders[1:] == index)
    if not h.size:
        raise InputError(f"cover stage: the normal {p}-Sylow{of} has no cyclic complement")
    h, d = int(h[0]) + 1, len(basis)
    vecs = _digits(q, d, p)[_vector_group(d, p).codes]   # row u: the vector of u
    elems = np.zeros(q, dtype=np.int64)
    for b, v in zip(basis, vecs.T):
        elems = N.mul_many(elems, np.array([N.power(b, e) for e in range(p)])[v])
    h_powers = np.array([N.power(h, j) for j in range(index)])
    u_of = np.empty(N.order, dtype=np.int64)
    u_of[elems] = np.arange(q)
    return SplitData(d, p, basis, h, vecs[u_of[[N.conj(b, h) for b in basis]]],
                     N.mul_many(h_powers[:, None], elems).ravel())


def split_module(N: FiniteGroup, data: SplitData) -> GModule:
    """The Frattini module of N = P0 x| <h> (split_structure), over N.

    Restricted to P0 = (Z/p)^d it is P0's relation module
    Phi(F) / Phi(Phi(F)) of dimension m = (d - 1) p^d + 1: row j of x_i's
    matrix M0(x_i) is the coordinates of x_i^-1 s_j x_i (_schreier_basis).
    The lift phi of h's action to F, x_i -> the BFS word of (e_i) A_h, maps
    Phi(F) into itself, and row j of B is the coordinates of phi(s_j).  B
    acts like h on P0, but its |h|-th power need not be 1: it is the action
    of an automorphism of P1 = F / Phi(Phi(F)) trivial on P0, and those form
    a p-group (Burnside; Gaschütz 1954 for the module).  So h acts by the
    p'-part S = B^k, k = 0 mod p^e (p^e >= m bounds the order of a
    unipotent m x m matrix) and k = 1 mod |h|, and the generator h^j u (read
    through the split map) by S^j M0(u).  The relators of N's peel are
    checked.
    """
    d, p = data.rank, data.prime
    P0 = _vector_group(d, p)
    sgens, coords = _schreier_basis(P0, p)
    M0 = GModule(P0, p, [np.stack([coords((-(i + 1),) + s + (i + 1,)) for s in sgens])
                         for i in range(d)], check=False)
    words = [tuple(g + 1 for g in word) for word in P0.words]
    phi = [words[P0._at_code[la.vec_int(row, p)]] for row in data.action]
    B = np.stack([coords(free_reduce(sum((phi[x - 1] if x > 0 else invert_word(phi[-x - 1])
                                          for x in s), ()))) for s in sgens])
    q, n = 1, N.order // P0.order
    while q < len(sgens):
        q *= p
    S = _mat_power(B, q * pow(q, -1, n), p)
    codes = np.argsort(data.split_map)            # element h^j u -> j |P0| + u
    return GModule(N, p, [la.matmul(_mat_power(S, j, p), M0.mat_of(u), p)
                          for j, u in (divmod(int(codes[g]), P0.order)
                                       for g in N.gen_indices)])


def _mat_power(A: np.ndarray, e: int, p: int) -> np.ndarray:
    out = la.identity(len(A))
    while e:
        if e & 1:
            out = la.matmul(out, A, p)
        A, e = la.matmul(A, A, p), e >> 1
    return out


@dataclass
class FrattiniModuleData:
    induced: GModule                  # Ind of the normalizer module, over G
    summand_bases: list[np.ndarray]   # indecomposable decomposition, sorted
    sylow: tuple[int, ...]            # the p-Sylow subgroup of G


def frattini_module(G: FiniteGroup, p: int) -> FrattiniModuleData:
    """Induce the Sylow-normalizer's Frattini module (split_module) up to G
    and decompose; general_level keeps the one summand that is not
    projective."""
    S = p_sylow(G, p)
    N = normalizer(G, S)
    if len(N) == G.order:
        raise InputError("p-Sylow normal in G; its Frattini module is split_module")
    n_gens = generating_set(G, list(N))
    Nsub = subgroup_from_indices(G, n_gens, name="sylow-normalizer")
    ind = induce(split_module(Nsub, split_structure(Nsub, p, " of the Sylow normalizer")), G)
    bases = indecomposable_summands(ind)
    bases.sort(key=lambda b: (b.shape[0], b.tobytes()))
    return FrattiniModuleData(ind, bases, S)


def find_cover_map(src: FrattiniLevel, dst: FrattiniLevel) -> list[int] | None:
    """A surjection src.total -> dst.total over the common base, as an
    element map, or None.  Only the images of src's first generators, which
    lift the base generators and so generate the Frattini cover, are
    searched, among the lifts of the same base elements.  Over a p-perfect
    base the map onto a central extension is unique."""
    if dst.base is not src.base:
        raise IncompatibleLevels("cover map: the levels are over different bases")
    gens = src.total.gen_indices[:len(src.base.gen_indices)]
    cand = [dst.lifts(int(src.proj[g])) for g in gens]
    phi = next((m for _, maps, sizes in search_images(dst.total, cand, src.total)
                for m in maps[sizes == dst.total.order]), None)
    return None if phi is None else phi.tolist()


@dataclass
class GeneralLevel:
    level: FrattiniLevel
    module: GModule
    h2_dim: int
    tail: np.ndarray
    module_data: FrattiniModuleData | None   # None for a normal p-Sylow


def general_level(G: FiniteGroup, p: int) -> GeneralLevel:
    """G_1 -> G for a p-perfect G, via relator tails.

    With a normal p-Sylow, G = P0 x| <h> (split_structure) and its Frattini
    module is split_module; a level past PAIR_MODEL_LIMIT is refused before
    that module is built.  Otherwise it is the one indecomposable summand M
    of the induced normalizer module that is not projective (Gaschütz
    1954; Griess and Schmid 1978): its restriction to the p-Sylow P is not
    free, that is dim M != |P| dim M^P.  Either way M is Omega^2 of the
    trivial module up to projectives, so H^2(G, M) = Ext^2(1, M) has
    dimension 1, and G is extended by M along its nonzero class line, the
    one H^2 solve made here.
    """
    if not is_p_perfect(G, p):
        raise InputError(f"cover stage: base group must be {p}-perfect")
    split = split_structure(G, p)
    if split is not None:
        _check_pair_model_size(G.order, p, (split.rank - 1) * p ** split.rank + 1)
        M, data = split_module(G, split), None
    else:
        data = frattini_module(G, p)
        sylow_gens = generating_set(G, data.sylow)
        summands = [submodule_module(data.induced, b) for b in data.summand_bases]
        kept = [M for M in summands if M.dim != len(data.sylow) * len(la.nullspace(
            np.hstack([M.mat_of(g) - la.identity(M.dim) for g in sylow_gens]).T, p))]
        if len(kept) != 1:
            raise AssertionError(f"{len(kept)} induced summands are not projective, not 1")
        M = kept[0]
    space = _cocycle_space(G.presentation, M)
    dim, classes = _h2_classes(G.presentation, M, space)
    if dim != 1:
        raise AssertionError(f"dim H^2(G, M) = {dim} for the Frattini module, not 1")
    tail = classes[1]
    lvl = _extension(G.presentation, M, space, tail, name=f"G1({G.name or 'G'})")
    return GeneralLevel(lvl, M, dim, tail, data)
