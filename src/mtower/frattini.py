"""Characteristic p-Frattini levels: dihedral closed form, split towers by
iterated Frattini quotients of a free group, and the general case from
H^2(G, M), read off one F_p linear solve for the kernel labels on the edges
of G's Cayley graph and the relator tails (_cocycle_space); the same solve
builds the extension of any class.  Against the trivial module it gives the
Z/p Schur covers, one per line of H^2(G, F_p) (schur_covers).  The solve is
sparse (linalg.SparseNullspace).  The solve, an extension's section tables
and a pair model each predict their memory first, and raise TooLarge past
MEMORY_CEILING; a pair model is refused past PAIR_MODEL_LIMIT elements too.

The searches here (the lift of the complement action, versality against
the Schur covers, the Frattini and restriction-splitting checks) run
through groups.search_images.

Every constructed level is normalized to a canonical "pair model": elements
are pairs (base element, kernel vector) with

    (g, v) * (h, w) = (g h, v A_h + w + psi(g, h))

where psi is the 2-cocycle read off a chosen section (kernel written on the
right of the section: s(g) s(h) = s(gh) psi(g, h)).  The pair model makes
element indexing independent of coset-enumeration internals, so downstream
orbit reports are byte-stable.  It is built from that product over the
codes g p^m + int(v), without composing a permutation.

The split case builds every group from its product as well: P0 = (Z/p)^d
translates the base-p codes of its vectors, and G0 = P0 x| H and
G1 = P1 x| H act on the codes h |P| + u, with the automorphisms of P by the
powers of H's generator stored as one (|H|, |P|) array.  The split level's
proj, section, kernel and module matrices are read off those codes, and the
dihedral level's off the codes f n + a of i -> (-1)^f i + a.  Every level
lists its kernel by the base-p code of each vector, so the coordinates are
the digits of a kernel element's position (FrattiniLevel.kernel_coords).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import np
from . import linalg as la
from .errors import (ActionLiftFailed, Collapse, InputError, NotPPrime,
                     OrderExceeded, TooLarge)
from .fp import (CosetTable, Presentation, commutator_word, free_reduce,
                 invert_word, schreier_generators, todd_coxeter, word_pow)
from .gmodules import (GModule, indecomposable_summands, induce,
                       submodule_module, trivial_module)
from .groups import (MUL_TABLE_LIMIT, ConjClass, FiniteGroup, find_isomorphism,
                     generating_set, search_images, spanning_tree,
                     subgroup_from_indices)

# Bytes a stage may be predicted to need: the H^2 solve, an extension's
# section tables, a pair model.  Past it the stage raises TooLarge before
# it allocates anything.
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
    psi: np.ndarray                  # cocycle (n_base, n_base, dim)
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


def _digits(n: int, m: int, p: int) -> np.ndarray:
    """Row c: the m base-p digits of c (lowest first), for c < n."""
    return np.arange(n)[:, None] // p ** np.arange(m) % p


def _kernel_coords_table(order: int, kernel, p: int, m: int) -> np.ndarray:
    """Row e: the kernel vector of element e, -1 off the kernel (listed by
    the base-p code of its vector)."""
    coords = np.full((order, m), -1, dtype=np.int64)
    coords[kernel] = _digits(len(kernel), m, p)
    return coords


# -- pair model construction -----------------------------------------------------


def pair_model_group(base: FiniteGroup, module: GModule, psi: np.ndarray,
                     name: str = "") -> tuple[FiniteGroup, dict]:
    """Extension of `base` by `module` along cocycle `psi` as a FiniteGroup.

    The pair (g, v) has the code g * p^m + int(v), and the group is built
    from its product over arrays of codes (FiniteGroup.from_closed_form).
    Generators are the lifts (gen, 0) of the base generators followed by
    the kernel basis (1, e_j); proj, section and kernel (by code) are read
    off the codes.  Requires psi normalized: psi[0,:] = psi[:,0] = 0.
    """
    p, m, nb = module.p, module.dim, base.order
    P = p ** m
    npts = nb * P
    if npts > PAIR_MODEL_LIMIT:
        raise TooLarge(f"pair model: {npts:,} points, past "
                       f"PAIR_MODEL_LIMIT = {PAIR_MODEL_LIMIT:,}")
    _check_memory("pair model", f"{npts:,} points", pair_model_bytes(npts))
    if (psi[0] != 0).any() or (psi[:, 0] != 0).any():
        raise InputError("cocycle not normalized at the identity")

    # rows of small ints, gathered whole by np.take: vecs[int(v)] = v,
    # acted[h P + int(v)] = v A_h and cocycle[g nb + h] = psi(g, h)
    vecs = _digits(P, m, p).astype(np.int32)
    acted = np.concatenate([vecs @ module.mat_of(h) % p for h in range(nb)]
                           ).astype(np.int32)
    cocycle = psi.reshape(nb * nb, m).astype(np.int32)
    weights = p ** np.arange(m)

    def code_mul(a, b):
        (g, v), (h, w) = np.divmod(a, P), np.divmod(b, P)
        vec = np.take(acted, h * P + v, axis=0)
        vec += np.take(vecs, w, axis=0)
        vec += np.take(cocycle, g * nb + h, axis=0)
        return base.mul_many(g, h).astype(np.int64) * P + vec % p @ weights

    gens = [g * P for g in base.gen_indices] + [p ** j for j in range(m)]
    total = FiniteGroup.from_closed_form(npts, gens, code_mul, name=name)
    if total.order != npts:
        raise Collapse(f"pair model closed at {total.order}, expected {npts}")
    return total, dict(proj=total.codes // P, section=total._at_code[::P].astype(np.int64),
                       kernel=total._at_code[:P].tolist())


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
        kernel_elems=info["kernel"], kernel_module=module, psi=psi, name=name)
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
    # (coordinates -1 off the kernel)
    kernel, s = lvl.kernel_elems, lvl.section[base.gen_indices][:, None]
    coords = _kernel_coords_table(tot.order, kernel, lvl.p, lvl.kernel_dim)
    got = coords[tot.mul_many(tot.mul_many(tot.inv[s], kernel), s)]
    want = np.stack([coords[kernel] @ A % lvl.p for A in lvl.kernel_module.mats])
    if (got != want).any():
        raise AssertionError("kernel conjugation != module action")


def extract_cocycle(total: FiniteGroup, base: FiniteGroup, section: np.ndarray,
                    kernel: list[int], p: int, dim: int) -> np.ndarray:
    """psi(g,h) = s(gh)^-1 s(g) s(h) in kernel coordinates, for all g, h at
    once; `kernel` lists the kernel elements by the base-p code of their
    vector."""
    x, s = np.arange(base.order), np.asarray(section)
    k = total.mul_many(total.inv[s[base.mul_many(x[:, None], x)]],
                       total.mul_many(s[:, None], s))
    coords = _kernel_coords_table(total.order, kernel, p, dim)
    assert (coords[k] >= 0).all(), "s(gh)^-1 s(g) s(h) outside the kernel"
    return coords[k]


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
    from .groups import dihedral_group

    if p == 2 or p < 3:
        raise InputError("dihedral tower needs an odd prime")
    if 2 * p ** (k + 1) > max_order:
        raise OrderExceeded("dihedral level past group-order budget")
    if k == 0:
        D = dihedral_group(p)
        zero = np.zeros((D.order, D.order, 0), dtype=np.int64)
        module = GModule(D, p, [np.zeros((0, 0), dtype=np.int64)] * 2, check=False)
        return [FrattiniLevel(
            total=D, base=D, p=p, proj=np.arange(D.order, dtype=np.int64),
            section=np.arange(D.order, dtype=np.int64), kernel_elems=[0],
            kernel_module=module, psi=zero, name=f"D{p}ident")]
    levels = []
    base = dihedral_group(p)
    for j in range(1, k + 1):
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
    from .groups import dihedral_group

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
    psi = extract_cocycle(Dt, base, section, kernel, p, 1)
    lvl = FrattiniLevel(Dt, base, p, proj, section, kernel, module, psi,
                        name=f"D{nt}->D{nb}")
    _check_level(lvl)
    return lvl


# -- split case ---------------------------------------------------------------------


@dataclass
class SplitTower:
    level: FrattiniLevel             # G1 -> G0
    h_lift_images: list[int]         # chosen images of the P1 generators under h
    p1_presentation: Presentation    # on the d free generators
    g0: FiniteGroup
    g1: FiniteGroup


def _semidirect_group(H: FiniteGroup, N: FiniteGroup, act: np.ndarray, u_gens,
                      name: str) -> FiniteGroup:
    """N x| H on the codes h |N| + u: (h1,u1)(h2,u2) = (h1 h2, act[h2, u1] u2),
    where row h of the (|H|, |N|) array `act` is the automorphism of N by h
    as an element map.  Generated by the elements u_gens of N, then H's
    generators."""
    n = N.order

    def code_mul(a, b):
        (h1, u1), (h2, u2) = np.divmod(a, n), np.divmod(b, n)
        return H.mul_many(h1, h2).astype(np.int64) * n + N.mul_many(act[h2, u1], u2)

    gens = list(u_gens) + [h * n for h in H.gen_indices]
    G = FiniteGroup.from_closed_form(H.order * n, gens, code_mul, name=name)
    if G.order != H.order * n:
        raise Collapse(f"semidirect product closed at {G.order}, expected {H.order * n}")
    return G


def _powers(H: FiniteGroup, alpha: np.ndarray) -> np.ndarray:
    """Row h: the element map alpha^j, for h = g^j and g the generator of
    the cyclic group H."""
    out = np.empty((H.order, len(alpha)), dtype=np.int64)
    h, acc = 0, np.arange(len(alpha))
    for _ in range(H.order):
        out[h] = acc
        h, acc = H.mul(h, H.gen_indices[0]), alpha[acc]
    return out


def split_level(d: int, p: int, H: FiniteGroup, H_mats: list[np.ndarray],
                max_cosets: int = 1 << 20) -> SplitTower:
    """One Frattini level of P0 x| H for elementary abelian P0 = (Z/p)^d.

    P1 = F / Phi(Phi(F)) is enumerated from the Schreier generators of
    Phi(F) = ker(F -> P0); the H-action on P0 is lifted to P1 by taking the
    lexicographically first generator-image assignment satisfying both the
    P1 relations and H's relation (H must be cyclic here).
    """
    if len(H.gen_indices) != 1:
        raise ActionLiftFailed("action lift implemented for cyclic complements")
    h_order = H.element_order(H.gen_indices[0])
    A_h = la.asmod(H_mats[0], p)

    free = Presentation(d, ())
    p0_rels = tuple([word_pow((i + 1,), p) for i in range(d)] +
                    [commutator_word((i + 1,), (j + 1,))
                     for i in range(d) for j in range(i + 1, d)])
    T0 = todd_coxeter(Presentation(d, p0_rels), (), max_cosets)
    sgens = schreier_generators(free, T0)
    p1_rels = []
    for i, s in enumerate(sgens):
        p1_rels.append(free_reduce(word_pow(s, p)))
        for t in sgens[i + 1:]:
            w = commutator_word(s, t)
            if w:
                p1_rels.append(w)
    P1_pres = Presentation(d, tuple(r for r in p1_rels if r))
    T1 = todd_coxeter(P1_pres, (), max_cosets)
    dprime = len(sgens)
    if T1.n != p ** (d + dprime):
        raise Collapse(f"P1 closed at {T1.n}, expected {p ** (d + dprime)}")

    # P0 translates the base-p codes of F_p^d; generator i = e_i
    P0 = _vector_group(d, p)
    vecs, weights = _digits(P0.order, d, p), p ** np.arange(d)
    # kernel coordinates inside T1, in the Schreier-generator basis
    kcoords = _span_coords(lambda c, j: T1.act_word(c, sgens[j]), dprime, p)
    mats0 = []
    for i in range(d):
        rows = []
        for s in sgens:
            w = invert_word((i + 1,)) + s + (i + 1,)
            rows.append(kcoords[_coset_in_kernel(T1, w)])
        mats0.append(np.stack(rows))
    M0_over_P0 = GModule(P0, p, mats0, check=False)
    p0_words = [tuple(i + 1 for i, e in enumerate(v) for _ in range(e))
                for v in vecs[P0.codes].tolist()]
    psi_p1 = _cocycle_from_table(T1, P0, kcoords, p0_words)
    P1, info1 = pair_model_group(P0, M0_over_P0, psi_p1, name="P1")

    # x-only BFS words inside P1 (generators 0..d-1 of the pair model)
    xwords = _restricted_words(P1, list(range(d)))

    # lift the H generator: images of the P1 generators over (e_i) A_h
    cand_lists = []
    for i in range(d):
        s = int(info1["section"][P0._at_code[la.vec_int(A_h[i], p)]])
        cands = sorted(P1.mul(s, k) for k in info1["kernel"])
        cand_lists.append(cands)
    lift = _find_action_lift(P1, cand_lists, h_order)
    if lift is None:
        raise ActionLiftFailed("no compatible lift of the complement action")
    alpha_images, alpha = lift

    # G0 and G1 on the codes h |P| + u, acted on by the powers of A_h and alpha
    act0 = _powers(H, P0._at_code[vecs[P0.codes] @ A_h % p @ weights])
    G0 = _semidirect_group(H, P0, act0, P0.gen_indices, name="G0split")
    G1 = _semidirect_group(H, P1, _powers(H, alpha), P1.gen_indices[:d],
                           name="G1split")

    # proj, section and kernel off the codes; (1, k) has the code k
    h1, u1 = np.divmod(G1.codes, P1.order)
    proj = G0._at_code[h1 * P0.order + info1["proj"][u1]].astype(np.int64)
    h0, u0 = np.divmod(G0.codes, P0.order)
    section = G1._at_code[h0 * P1.order + info1["section"][u0]].astype(np.int64)
    kernel = G1._at_code[info1["kernel"]].tolist()
    m = dprime
    # row j of generator g's matrix: the coordinates of s(g)^-1 e_j s(g)
    s = section[G0.gen_indices][:, None]
    basis = G1.mul_many(G1.mul_many(G1.inv[s], [kernel[p ** j] for j in range(m)]), s)
    gen_mats = list(_kernel_coords_table(G1.order, kernel, p, m)[basis])
    _attach_g0_presentation(G0, d, p, h_order, A_h)
    M0 = GModule(G0, p, gen_mats)
    psi = extract_cocycle(G1, G0, section, kernel, p, m)
    lvl = FrattiniLevel(G1, G0, p, proj, section, kernel, M0, psi,
                        name=f"split d={d} p={p}")
    _check_level(lvl)
    _attach_g1_presentation(G1, P1_pres, xwords, alpha_images, d, p, h_order)
    return SplitTower(lvl, alpha_images, P1_pres, G0, G1)


def _vector_group(d: int, p: int) -> FiniteGroup:
    """(Z/p)^d translating the base-p codes of its vectors, generated by
    e_1, ..., e_d."""
    vecs, weights = _digits(p ** d, d, p), p ** np.arange(d)
    return FiniteGroup.from_closed_form(
        p ** d, weights.tolist(), lambda a, b: (vecs[a] + vecs[b]) % p @ weights,
        name=f"(Z/{p})^{d}")


def _coset_in_kernel(T: CosetTable, word) -> int:
    return T.act_word(0, free_reduce(word))


def _span_coords(times, dim: int, p: int) -> dict[int, np.ndarray]:
    """F_p coordinates of the span of dim independent basis elements of an
    elementary abelian group: times(x, j) is x times basis element j, and
    the identity 0 has coordinates 0."""
    coords: dict[int, np.ndarray] = {0: np.zeros(dim, dtype=np.int64)}
    for j in range(dim):
        grown = dict(coords)
        for known, vec in coords.items():
            cur = known
            for e in range(1, p):
                cur = times(cur, j)
                v = vec.copy()
                v[j] = e
                assert cur not in grown, "basis elements not independent"
                grown[cur] = v
        coords = grown
    return coords


def _cocycle_from_table(T: CosetTable, base: FiniteGroup, kcoords, words):
    """psi(g, h) read off the coset table along the words of the base elements."""
    nb = base.order
    m = len(next(iter(kcoords.values())))
    psi = np.zeros((nb, nb, m), dtype=np.int64)
    for g in range(nb):
        for h in range(nb):
            gh = base.mul(g, h)
            w = invert_word(words[gh]) + words[g] + words[h]
            psi[g, h] = kcoords[_coset_in_kernel(T, w)]
    return psi


def _restricted_words(G: FiniteGroup, gen_positions: list[int]) -> list[tuple[int, ...]]:
    """BFS words for every element using only the listed generators."""
    words = [()] * G.order
    for child, parent, gi in spanning_tree(G, gen_positions):
        for c, a, g in zip(child.tolist(), parent.tolist(), gi.tolist()):
            words[c] = words[a] + (gen_positions[g] + 1,)
    return words


def _find_action_lift(P1: FiniteGroup, cand_lists: list[list[int]],
                      h_order: int) -> tuple[list[int], np.ndarray] | None:
    """The first candidate images of the first len(cand_lists) generators
    (in product order) that define an automorphism of P1 of order dividing
    h_order, with its element map."""
    ident = np.arange(P1.order)
    for rows, maps, sizes in search_images(P1, cand_lists, P1):
        rows, maps = rows[sizes == P1.order], maps[sizes == P1.order]
        cur = np.broadcast_to(ident, maps.shape)
        for _ in range(h_order):
            cur = np.take_along_axis(maps, cur, axis=1)
        hit = (cur == ident).all(axis=1).nonzero()[0]
        if hit.size:
            return rows[hit[0]].tolist(), maps[hit[0]]
    return None


def _attach_g0_presentation(G0: FiniteGroup, d: int, p: int, h_order: int,
                            A_h: np.ndarray) -> None:
    rels = [word_pow((i + 1,), p) for i in range(d)]
    rels += [commutator_word((i + 1,), (j + 1,))
             for i in range(d) for j in range(i + 1, d)]
    rels.append(word_pow((d + 1,), h_order))
    for i in range(d):
        img: list[int] = []
        for jcol in range(d):
            img.extend([jcol + 1] * int(A_h[i, jcol]))
        rels.append(free_reduce((-(d + 1), i + 1, d + 1) + invert_word(tuple(img))))
    G0.presentation = Presentation(d + 1, tuple(r for r in rels if r))


def _attach_g1_presentation(G1: FiniteGroup, P1_pres: Presentation,
                            xwords: list[tuple[int, ...]], alpha_images: list[int],
                            d: int, p: int, h_order: int) -> None:
    # generators x_1..x_d, h; P1 relators + h^order + action relators
    rels = list(P1_pres.relators) + [word_pow((d + 1,), h_order)]
    for i in range(d):
        # h^-1 x_i h = alpha(x_i), written as a word in the x generators
        target_word = xwords[alpha_images[i]]
        rels.append(free_reduce((-(d + 1), i + 1, d + 1) + invert_word(target_word)))
    G1.presentation = Presentation(d + 1, tuple(r for r in rels if r))


# -- H^2 and extensions: one linear solve over the Cayley graph ----------------


def extension_presentation(P: Presentation, M: GModule,
                           tails: np.ndarray) -> Presentation:
    """Generators x_1..x_d, z_1..z_m; relators carry the given tails."""
    d, m, p = P.ngens, M.dim, M.p
    rels: list[tuple[int, ...]] = []
    for i, r in enumerate(P.relators):
        tail: list[int] = []
        for j in range(m):
            tail.extend([-(d + j + 1)] * int(tails[i, j]))
        rels.append(free_reduce(tuple(r) + tuple(tail)))
    for j in range(m):
        rels.append(word_pow((d + j + 1,), p))
        for k in range(j + 1, m):
            rels.append(commutator_word((d + j + 1,), (d + k + 1,)))
    for i in range(d):
        A = M.mats[i]
        for j in range(m):
            img: list[int] = []
            for k in range(m):
                img.extend([d + k + 1] * int(A[j, k]))
            rels.append(free_reduce(
                (-(i + 1), d + j + 1, i + 1) + invert_word(tuple(img))))
    return Presentation(d + m, tuple(r for r in rels if r))


def _cocycle_space(P: Presentation, M: GModule):
    """All (edge labels, relator tails) of extensions of M.group by M.

    The unknowns are a kernel label c(g, i) on every non-tree edge g -> g x_i
    of G's Cayley graph (tree edges, from G._parents, carry label 0),
    followed by the relator tails t in M^s.  Generator x_i acts on pairs by
    (g, v) x_i = (g x_i, v A_i + c(g, i)); the equations say that every
    relator, read from every vertex, ends at its tail (|G| m rows per
    relator, handed to one SparseNullspace as sparse rows, a relator at a
    time).  Returns the labels and the tails blocks of the basis that
    la.nullspace gives for that system, the (|G|, d) array of label
    indices (-1 on tree edges), and the rref (rows, pivots) of the
    coboundary tails: lifting x_i by v moves relator r's tail by v times
    the sum of the letter matrices K over the letters x_i^(+-1) of r (the
    Fox derivative), one row per (i, basis vector), the same walk as the
    solve's.  Raises TooLarge, before any work, when the solve's predicted
    memory passes MEMORY_CEILING.
    """
    G, p, m, n, s = M.group, M.p, M.dim, M.group.order, len(P.relators)
    nl = (n * (P.ngens - 1) + 1) * m
    ncols = nl + s * m
    entries = n * m * sum(len(r) * m + 1 for r in P.relators)
    _check_memory("H^2 solve", f"{ncols:,} unknowns",
                  la.SparseNullspace.predicted_bytes(ncols, entries, p))
    right = G.gen_cols                             # g -> g x_i
    left = [np.argsort(r) for r in right]          # g -> g x_i^-1
    inv_mats = [M._invert(A) for A in M.mats]
    tree = set(G._parents[1:])
    col = np.full((n, P.ngens), -1)
    for k, e in enumerate(e for e in product(range(n), range(P.ngens))
                          if e not in tree):
        col[e] = k
    system = la.SparseNullspace(ncols, p)
    cob = np.zeros((P.ngens, m, s, m), dtype=np.int64)
    for ri, rel in enumerate(P.relators):
        # entry (equation g*m + b, unknown u*m + a) = K[a, b]; the tail t_ri
        # enters every equation of the relator with -1
        eq = [np.arange(n * m)]
        unk = [nl + ri * m + np.arange(n * m) % m]
        val = [np.full(n * m, -1)]
        # a label reaches the relator's end times the later letters' matrices
        suffix, coeffs = la.identity(m), []
        for letter in reversed(rel):
            if letter > 0:
                coeffs.append(suffix)
                suffix = la.matmul(M.mats[letter - 1], suffix, p)
            else:
                suffix = la.matmul(inv_mats[-letter - 1], suffix, p)
                coeffs.append(-suffix)
        at = np.arange(n)
        for letter, K in zip(rel, reversed(coeffs)):
            i = abs(letter) - 1
            cob[i, :, ri] += K
            if letter > 0:
                blk, at = col[at, i], right[i][at]
            else:
                at = left[i][at]
                blk = col[at, i]
            g = np.nonzero(blk >= 0)[0]
            a, b = np.nonzero(K)
            eq.append((g[:, None] * m + b).ravel())
            unk.append((blk[g][:, None] * m + a).ravel())
            val.append(np.tile(K[a, b], len(g)))
        assert (at == np.arange(n)).all(), f"relator {ri} does not hold in the group"
        system.add(la.sparse_rows(np.concatenate(eq), np.concatenate(unk),
                                   np.concatenate(val), n * m, ncols))
    sol = system.nullspace()
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
    the tree edge's label c(h, i) is 0.
    """
    G, p, m, n = M.group, M.p, M.dim, M.group.order
    times = G.mul_table                          # column h: g -> g h
    _check_memory("extension tables", f"{n:,} x {n:,} x {m}",
                  8 * n * n * (m + (times is None)))
    sol_labels, sol_tails, col, _ = space
    coeff = la.solve_right(sol_tails, np.reshape(tails, (1, -1)), p)
    if coeff is None:
        raise Collapse("tails are not the relator tails of an extension")
    labels = la.matmul(coeff, sol_labels, p).reshape(-1, m)
    c = np.vstack([labels, np.zeros((1, m), dtype=np.int64)])[col]
    if times is None:
        right = G.gen_cols
        times = np.repeat(np.arange(n)[:, None], n, axis=1)
        for h in range(1, n):
            parent, i = G._parents[h]
            times[:, h] = right[i][times[:, parent]]
    psi = np.zeros((n, n, m), dtype=np.int64)
    for h in range(1, n):
        parent, i = G._parents[h]
        psi[:, h] = (psi[:, parent] @ M.mats[i] + c[times[:, parent], i]) % p
    del times
    lvl = level_from_pair_model(G, M, psi, p, name=name)
    lvl.total.presentation = extension_presentation(P, M, tails)
    return lvl


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
    lift; every p' class must have exactly one p' class above it."""
    p = L.p
    violations = []
    for g in range(L.base.order):
        og = L.base.element_order(g)
        if og % p:
            continue
        for lift in L.lifts(g):
            ol = L.total.element_order(lift)
            if ol != p * og:
                violations.append((g, lift, ol))
    failures = []
    for cl in L.base.conjugacy_classes():
        if cl.element_order % p == 0:
            continue
        above = _pprime_classes_above(L, cl)
        if len(above) != 1:
            failures.append((cl.representative, len(above)))
    return OrderLiftReport(violations, failures)


def _pprime_classes_above(L: FrattiniLevel, c: ConjClass) -> list[ConjClass]:
    """The p' classes of L.total whose representatives project into c."""
    members = set(c.members)
    return [tc for tc in L.total.conjugacy_classes()
            if tc.element_order % L.p and int(L.proj[tc.representative]) in members]


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


def lift_class(L: FrattiniLevel, c: ConjClass) -> ConjClass:
    if c.element_order % L.p == 0:
        raise NotPPrime("class order divisible by p")
    found = _pprime_classes_above(L, c)
    if len(found) != 1:
        raise AssertionError(f"expected unique p' class above, found {len(found)}")
    return found[0]


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
    """Element indices of a p-Sylow subgroup (deterministic normalizer growth)."""
    target = 1
    n = G.order
    while n % p == 0:
        n //= p
        target *= p
    S = (0,)
    gens: list[int] = []
    while len(S) < target:
        sset = set(S)
        for x in range(1, G.order):
            if x in sset or not _is_p_power(G.element_order(x), p):
                continue
            if all(G.conj(g, x) in sset for g in (gens or [0])):
                S2 = G.subgroup_closure(gens + [x])
                if _is_p_power(len(S2), p):
                    gens = gens + [x]
                    S = S2
                    break
        else:
            raise AssertionError("sylow growth stalled")
    return S


def normalizer(G: FiniteGroup, subgroup_elems) -> tuple[int, ...]:
    sset = set(int(x) for x in subgroup_elems)
    sub_gens = generating_set(G, sorted(sset))
    out = [x for x in range(G.order)
           if all(G.conj(g, x) in sset for g in sub_gens)]
    return tuple(out)


@dataclass
class SplitData:
    rank: int
    prime: int
    basis: list[int]               # kernel generators inside the concrete group
    complement_gen: int
    action: np.ndarray             # matrix of the complement generator on the basis


def split_structure(N: FiniteGroup, p: int) -> SplitData:
    """Detect N = P0 x| <h> with P0 the (normal, elementary abelian) p-Sylow."""
    S = p_sylow(N, p)
    if set(normalizer(N, S)) != set(range(N.order)):
        raise InputError(f"cover stage: the {p}-Sylow is not normal; not the split case")
    # exponent p, and abelian: the elements that generate it commute
    basis = generating_set(N, sorted(S))
    if any(N.element_order(x) == p * p for x in S) or \
            any(N.mul(a, b) != N.mul(b, a) for a in basis for b in basis):
        raise InputError(f"cover stage: the {p}-Sylow is not elementary abelian")
    index = N.order // len(S)
    h = None
    for x in range(1, N.order):
        if N.element_order(x) == index and \
                all(N.power(x, e) not in set(S) or N.power(x, e) == 0
                    for e in range(1, index)):
            h = x
            break
    if h is None:
        raise InputError(f"cover stage: the normal {p}-Sylow has no cyclic complement")
    d = len(basis)
    coord_of = _span_coords(lambda x, j: N.mul(x, basis[j]), d, p)
    rows = [coord_of[N.conj(b, h)] for b in basis]
    return SplitData(d, p, basis, h, np.stack(rows))


@dataclass
class FrattiniModuleData:
    induced: GModule                  # Ind of the normalizer module, over G
    summand_bases: list[np.ndarray]   # indecomposable decomposition, sorted
    normalizer_module: GModule        # over the concrete normalizer subgroup
    split_tower: SplitTower           # tower over the Sylow normalizer model
    normalizer_iso: list[int]         # abstract G0 element -> Nsub element


def frattini_module(G: FiniteGroup, p: int, max_cosets: int = 1 << 18) -> FrattiniModuleData:
    """Induce the Sylow-normalizer's Frattini module up to G and decompose.

    When the induced module is indecomposable it is the level-0 module of G
    itself; otherwise general_level filters the summands by cohomology and
    cover checks.
    """
    from .groups import cyclic_group

    S = p_sylow(G, p)
    N = normalizer(G, S)
    if len(N) == G.order:
        raise InputError("p-Sylow normal in G; use the split construction")
    n_gens = generating_set(G, list(N))
    Nsub = subgroup_from_indices(G, n_gens, name="sylow-normalizer")
    data = split_structure(Nsub, p)
    H = cyclic_group(Nsub.element_order(data.complement_gen))
    tower = split_level(data.rank, p, H, [data.action], max_cosets)
    iso = find_isomorphism(tower.g0, Nsub)
    if iso is None:
        raise AssertionError("split model does not match the normalizer")
    iso_inv = {iso[e]: e for e in range(len(iso))}
    mats = [tower.level.kernel_module.mat_of(iso_inv[g]) for g in Nsub.gen_indices]
    Mprime = GModule(Nsub, p, mats, check=False)
    ind = induce(Mprime, G)
    bases = indecomposable_summands(ind)
    bases.sort(key=lambda b: (b.shape[0], b.tobytes()))
    return FrattiniModuleData(ind, bases, Mprime, tower, iso)


def _homomorphism_onto(level_src: FrattiniLevel, level_dst: FrattiniLevel) -> bool:
    """Is there a surjection total_src -> total_dst over the common base?

    Only the images of the base-generator lifts are searched, among the
    lifts of the same base generators: the source cover is Frattini, so
    those lifts generate it.
    """
    src, dst = level_src.total, level_dst.total
    base = level_src.base
    assert level_dst.base is base
    cand = [level_dst.lifts(g) for g in base.gen_indices]
    return any((sizes == dst.order).any() for _, _, sizes in
               search_images(dst, cand, src))


@dataclass
class GeneralLevel:
    level: FrattiniLevel
    module: GModule
    h2_dim: int
    tail: np.ndarray
    schur_levels: list[FrattiniLevel]   # nonsplit trivial-module covers of the base
    module_data: FrattiniModuleData


def general_level(G: FiniteGroup, p: int, max_cosets: int = 1 << 18) -> GeneralLevel:
    """G_1 -> G for a p-perfect G with non-normal Sylow, via relator tails.

    The Frattini module is selected among the indecomposable summands of the
    induced normalizer module: the summand must carry a one-or-more
    dimensional H^2 with a nonsplit class whose extension passes the order
    lifting check and covers every Z/p Schur cover of G (versality).
    """
    from .groups import is_p_perfect

    if not is_p_perfect(G, p):
        raise InputError("base group must be p-perfect")
    if G.presentation is None:
        raise InputError("base group needs an attached presentation")
    data = frattini_module(G, p, max_cosets)
    schur_levels = schur_covers(G, p)   # for the versality check
    for b in data.summand_bases:
        M = submodule_module(data.induced, b)
        space = _cocycle_space(G.presentation, M)
        dim, classes = _h2_classes(G.presentation, M, space)
        nonsplit = [c for c in classes if c.any()]
        if not nonsplit:
            continue
        tail = nonsplit[0]
        lvl = _extension(G.presentation, M, space, tail,
                         name=f"G1({G.name or 'G'})")
        if not verify_order_lifting(lvl).ok:
            continue
        if not all(_homomorphism_onto(lvl, sl) for sl in schur_levels):
            continue
        return GeneralLevel(lvl, M, dim, tail, schur_levels, data)
    raise AssertionError("no summand yields the Frattini cover")


def transport_level(lvl: FrattiniLevel, iso: list[int],
                    new_base: FiniteGroup) -> FrattiniLevel:
    """Relabel a level over an isomorphic concrete base group.

    iso maps old base elements to new base elements; the kernel module and
    cocycle are transported and the pair model rebuilt canonically.
    """
    iso_inv = np.argsort(iso)
    mats = [lvl.kernel_module.mat_of(int(iso_inv[g])) for g in new_base.gen_indices]
    M = GModule(new_base, lvl.p, mats, check=False)
    psi = lvl.psi[iso_inv[:, None], iso_inv]
    return level_from_pair_model(new_base, M, psi, lvl.p,
                                 name=lvl.name + "-transported")
