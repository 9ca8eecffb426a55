"""The group layer's earlier element-at-a-time routes, kept as oracles.

`bfs` is the element BFS without its generator columns, `build_table`
looks every product of an element and a generator up again and fills the
multiplication table a column at a time (not a BFS level at a time),
`extension_psi` fills an extension's cocycle a column per element,
`build_inverses` looks each inverse permutation up, `powers_up` finds orders and inverses by
multiplying every element's powers up one step per order, `closure_mask` is the one-call-per-seed-set
subgroup closure and `perm_str` the cycle formatting that `Perm.__str__`
did through `Perm.cycles`.  `pair_model_group` builds a pair model as a
regular permutation group, each generator composed point by point and the
elements found by the permutation BFS; it is the earlier route, kept as it
was apart from its memory prediction.

`conjugacy_classes` is the scalar class walk, one `conj` per element and
generator.  `derived_subgroup` is the normal closure that conjugated every
element of the current closure and made each conjugate outside it a seed.
`alternating_generators` is the search that chose the builtin generators of
A_4 and A_5, which `groups.alternating_group` now writes out.  The split
and dihedral levels were built as permutation groups: `_vector_group` and
`_semidirect_group` compose each generator point by point, `split_level`
enumerates P1's cosets (Schreier generators of the coset table of P0, then
P1's own table, with the module and cocycle of P1 over P0 read off it),
lifts the complement's action to P1 by a search (`find_action_lift`) and
decodes its elements through the image of point 0, `dihedral_step` through
`_dihedral_decode`/`_dihedral_elem`, and `transport_level` moves the
cocycle one entry at a time.  They return the level's parts (proj, section,
kernel, coordinates, module matrices, psi; for the split level also P1 with
its module and cocycle over P0) instead of a level, and skip the
presentations.  `split_route_level` and `split_route_module` are the split
route that `frattini.split_module` replaced: the split level moved onto
the group along its split map, and its kernel module.  The order-p^3
model groups are the permutation builders they were.  `level_psi` reads a
built level's cocycle off its section (`extract_cocycle`), since levels do
not store it.

`schreier_generators` reads the Schreier generators of a subgroup off its
coset table; only this oracle's `split_level` and the tests use it.

`verify_order_lifting`, `lift_class` and `lifted_spec` are the scans that
found the p' classes over a base class (`pprime_classes_above`, every class
of the cover for each class below) and checked every lift of every
p-divisible element one at a time; `induce` built the induced module a
coset and an element at a time, with dicts from elements to cosets and to
the subgroup.
"""

from __future__ import annotations

import numpy as np

from mtower import frattini
from mtower import linalg as la
from mtower.errors import Collapse, InputError, NotASubgroup, NotPPrime
from mtower.fp import (CosetTable, Presentation, free_reduce, invert_word,
                       todd_coxeter)
from mtower.frattini import FrattiniLevel, OrderLiftReport, level_from_pair_model
from mtower.gmodules import GModule, spin
from mtower.groups import (ConjClass, FiniteGroup, cyclic_group, dihedral_group,
                           search_images)
from mtower.nielsen import NielsenSpec
from mtower.perms import Perm


def word_pow(word, e: int) -> tuple[int, ...]:
    return tuple(word) * e if e >= 0 else word_pow(invert_word(word), -e)


def commutator_word(u, v) -> tuple[int, ...]:
    return free_reduce(invert_word(u) + invert_word(v) + tuple(u) + tuple(v))


def psl2_group_file(q):
    """PSL(2,q) on the projective line over F_q, 1-based with infinity as
    q + 1: the permutations z -> z + 1 and z -> -1/z."""
    inf = q
    neg_inv = {0: inf, inf: 0, **{x: -pow(x, -1, q) % q for x in range(1, q)}}
    cycles, seen = [], set()
    for x in range(q + 1):
        cycle = []
        while x not in seen and neg_inv[x] != x:
            seen.add(x)
            cycle.append(str(x + 1))
            x = neg_inv[x]
        cycles += [f"({' '.join(cycle)})"] * bool(cycle)
    return f"({' '.join(str(x + 1) for x in range(q))})\n{''.join(cycles)}\n"


def rep_words(T: CosetTable) -> list[tuple[int, ...]]:
    """The signed word carrying coset 0 to each coset c, along the BFS
    spanning tree of T's rows (column 2g is generator g, 2g + 1 its
    inverse), letters tried in column order."""
    words: list[tuple[int, ...] | None] = [()] + [None] * (T.n - 1)
    queue = [0]
    for c in queue:
        for col, d in enumerate(T.rows[c]):
            if words[d] is None:
                words[d] = words[c] + ((col // 2 + 1) * (-1) ** col,)
                queue.append(d)
    if None in words:
        raise AssertionError("coset table not transitive")
    return words


def schreier_generators(P: Presentation, T: CosetTable) -> list[tuple[int, ...]]:
    """Schreier generators of the subgroup whose coset table is T.

    Coset representatives come from the BFS spanning tree in T; for each
    coset c and generator letter x the word rep(c) x rep(c*x)^-1 is freely
    reduced, and trivial (tree-edge) generators are dropped.
    """
    reps = rep_words(T)
    out = []
    seen = set()
    for c in range(T.n):
        for g in range(P.ngens):
            d = T.act(c, g + 1)
            w = free_reduce(reps[c] + (g + 1,) + invert_word(reps[d]))
            if w and w not in seen:
                seen.add(w)
                out.append(w)
    return out


def bfs(gen_arrays):
    """(elements, index, words, parents) in BFS order from the identity,
    generators applied in input order."""
    degree = len(gen_arrays[0])
    keys = [np.arange(degree, dtype=np.int32).tobytes()]
    index = {keys[0]: 0}
    words = [()]
    parents = [(-1, -1)]
    head = 0
    while head < len(keys):
        cur = np.frombuffer(keys[head], dtype=np.int32)
        for gi, garr in enumerate(gen_arrays):
            key = garr[cur].tobytes()
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                words.append(words[head] + (gi,))
                parents.append((head, gi))
        head += 1
    elements = np.frombuffer(b"".join(keys), dtype=np.int32).reshape(
        len(keys), degree)
    return elements, index, words, parents


def build_table(gen_arrays, elements, index, parents) -> np.ndarray:
    n = len(elements)
    gencol = []
    for garr in gen_arrays:
        col = np.empty(n, dtype=np.int32)
        for i in range(n):
            col[i] = index[garr[elements[i]].tobytes()]
        gencol.append(col)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    for j in range(1, n):
        parent, gi = parents[j]
        table[:, j] = gencol[gi][table[:, parent]]
    return table


def extension_psi(M: GModule, space, tails: np.ndarray) -> np.ndarray:
    """The cocycle of `frattini._extension` as it was filled before the level
    fill: one column psi[:, h] per element h, from the parent's column, and
    without a table the columns g -> g h made a column at a time too."""
    G, p, m, n = M.group, M.p, M.dim, M.group.order
    sol_labels, sol_tails, col, _ = space
    coeff = la.solve_right(sol_tails, np.reshape(tails, (1, -1)), p)
    labels = la.matmul(coeff, sol_labels, p).reshape(-1, m)
    c = np.vstack([labels, np.zeros((1, m), dtype=np.int64)])[col]
    times = G.mul_table
    if times is None:
        times = np.repeat(np.arange(n)[:, None], n, axis=1)
        for h in range(1, n):
            parent, i = G._parents[h]
            times[:, h] = G.gen_cols[i][times[:, parent]]
    psi = np.zeros((n, n, m), dtype=np.int64)
    for h in range(1, n):
        parent, i = G._parents[h]
        psi[:, h] = (psi[:, parent] @ M.mats[i] + c[times[:, parent], i]) % p
    return psi


def build_inverses(elements, index) -> np.ndarray:
    n, degree = elements.shape
    inv = np.empty(n, dtype=np.int32)
    for i in range(n):
        back = np.empty(degree, dtype=np.int32)
        back[elements[i]] = np.arange(degree, dtype=np.int32)
        inv[i] = index[back.tobytes()]
    return inv


def powers_up(G, x=None) -> tuple[np.ndarray, np.ndarray]:
    """(orders, inverses) of the elements x (default: all), from their
    powers multiplied up all at once, one product per order step: x^k x = 1
    makes x^k the inverse and k + 1 the order."""
    x = np.arange(G.order) if x is None else np.asarray(x)
    orders, inv = np.empty(len(x), dtype=np.int64), np.empty(len(x), dtype=np.int64)
    pos, prev, cur, k = np.arange(len(x)), np.zeros_like(x), x, 1
    while pos.size:
        done = cur == 0
        orders[pos[done]], inv[pos[done]] = k, prev[done]
        pos, x, prev = pos[~done], x[~done], cur[~done]
        cur, k = G.mul_many(prev, x), k + 1
    return orders, inv


def closure_mask(G, seeds) -> np.ndarray:
    """Membership mask of <seeds>, by a level-by-level BFS over right
    multiplication by the seeds."""
    gens = np.unique(np.asarray([s for s in seeds if s != 0], dtype=np.int64))
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    seen[gens] = True
    frontier = seen.nonzero()[0]
    while frontier.size:
        prods = G.mul_many(frontier[:, None], gens)
        fresh = np.zeros(G.order, dtype=bool)
        fresh[prods] = True
        fresh &= ~seen
        seen |= fresh
        frontier = fresh.nonzero()[0]
    return seen


def _cycles(perm) -> list[list[int]]:
    seen = [False] * perm.degree
    out = []
    for i in range(perm.degree):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm.images[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm.images[j]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def perm_str(perm) -> str:
    cyc = _cycles(perm)
    if not cyc:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cyc)


def pair_model_group(base: FiniteGroup, module: GModule, psi: np.ndarray,
                     name: str = "") -> tuple[FiniteGroup, dict]:
    """Extension of `base` by `module` along cocycle `psi` as a FiniteGroup.

    Points of the permutation domain are pairs g * p^m + int(v); generators
    are the lifts (gen, 0) of the base generators followed by each kernel
    vector (1, e_j) that the submodule spun by those before it misses.
    Requires psi normalized: psi[0,:] = psi[:,0] = 0.
    """
    p, m = module.p, module.dim
    nb = base.order
    P = p ** m
    npts = nb * P
    if (psi[0] != 0).any() or (psi[:, 0] != 0).any():
        raise InputError("cocycle not normalized at the identity")

    vecs = np.stack([la.int_vec(k, m, p) for k in range(P)]) if m else \
        np.zeros((1, 0), dtype=np.int64)

    def translation(h: int, w: np.ndarray) -> Perm:
        img = np.empty(npts, dtype=np.int64)
        for g in range(nb):
            gh = base.mul(g, h)
            moved = (vecs @ module.mat_of(h) + w + psi[g, h]) % p if m else vecs
            tgt = (moved * (p ** np.arange(m))).sum(axis=1) if m else \
                np.zeros(1, dtype=np.int64)
            img[g * P:(g + 1) * P] = gh * P + tgt
        return Perm(tuple(int(x) for x in img))

    gens = [translation(g, np.zeros(m, dtype=np.int64)) for g in base.gen_indices]
    span = np.zeros((0, m), dtype=np.int64)
    for e in np.eye(m, dtype=np.int64):
        if la.rank(np.vstack([span, e]), p) > len(span):
            gens.append(translation(0, e))
            span = spin(module, np.vstack([span, e]))
    total = FiniteGroup(gens, max_order=npts + 1, name=name)
    if total.order != npts:
        raise Collapse(f"pair model closed at {total.order}, expected {npts}")

    # element <-> pair bookkeeping via the image of point 0 (regular action)
    elem_of_point = _elem_at_point(total)
    proj = np.empty(npts, dtype=np.int64)
    coords = {}
    for e in range(npts):
        pt = int(total.elements[e][0])
        proj[e] = pt // P
        coords[e] = vecs[pt % P].copy()
    section = np.array([int(elem_of_point[g * P]) for g in range(nb)],
                       dtype=np.int64)
    kernel = [int(elem_of_point[k]) for k in range(P)]
    info = dict(proj=proj, section=section, kernel=kernel,
                coords={e: coords[e] for e in kernel})
    return total, info


def _elem_at_point(G: FiniteGroup) -> np.ndarray:
    """Element index by the image of point 0, for G acting regularly."""
    out = np.empty(G.order, dtype=np.int64)
    out[G.elements[:, 0]] = np.arange(G.order)
    return out


def conjugacy_classes(self) -> list[ConjClass]:
    """The classes of `self` by the scalar walk: one `conj` call per element
    and generator."""
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
    return [
        ConjClass(orb[0], tuple(orb), self.element_order(orb[0])) for orb in raw
    ]


def derived_subgroup(G: FiniteGroup) -> tuple[int, ...]:
    """Normal closure of the generator commutators: the conjugates of the
    closure by the generators join its seeds until none falls outside it."""
    gens = G.gen_indices
    seeds = {G.commutator(a, b) for a in gens for b in gens} - {0}
    current = G.subgroup_closure(seeds)
    while True:
        cur = np.asarray(current)
        extra = set(np.concatenate([G.mul_many(G.mul_many(G.inv[c], cur), c)
                                    for c in gens]).tolist()) - set(current)
        if not extra:
            return current
        seeds |= extra
        current = G.subgroup_closure(seeds)


# -- what lies over what, a class and an element at a time ---------------------


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
        above = pprime_classes_above(L, cl)
        if len(above) != 1:
            failures.append((cl.representative, len(above)))
    return OrderLiftReport(violations, failures)


def pprime_classes_above(L: FrattiniLevel, c: ConjClass) -> list[ConjClass]:
    """The p' classes of L.total whose representatives project into c."""
    members = set(c.members)
    return [tc for tc in L.total.conjugacy_classes()
            if tc.element_order % L.p and int(L.proj[tc.representative]) in members]


def lift_class(L: FrattiniLevel, c: ConjClass) -> ConjClass:
    if c.element_order % L.p == 0:
        raise NotPPrime("class order divisible by p")
    found = pprime_classes_above(L, c)
    if len(found) != 1:
        raise AssertionError(f"expected unique p' class above, found {len(found)}")
    return found[0]


def lifted_spec(L: FrattiniLevel, spec: NielsenSpec) -> NielsenSpec:
    """Transport a Nielsen spec through a Frattini level (unique p' classes)."""
    base_classes = L.base.conjugacy_classes()
    tot_classes = L.total.conjugacy_classes()
    out = []
    for ci in spec.class_ids:
        lifted = lift_class(L, base_classes[ci])
        out.append(tot_classes.index(lifted))
    return NielsenSpec(L.total, tuple(out), spec.p)


def induce(Mprime: GModule, G: FiniteGroup) -> GModule:
    """Induced module along a subgroup inclusion (right cosets as basis).

    Mprime.group must be literally a subgroup of G: same degree, every
    element present in G's table.
    """
    H = Mprime.group
    embed = G.element_subgroup(H)
    if embed is None:
        raise NotASubgroup("module group is not a subgroup of G")
    h_of_g = {embed[i]: i for i in range(H.order)}
    # right cosets Hg, reps chosen minimal by G element index
    rep_of: dict[int, int] = {}
    reps: list[int] = []
    for x in range(G.order):
        if x in rep_of:
            continue
        members = sorted(G.mul(embed[h], x) for h in range(H.order))
        for m in members:
            rep_of[m] = len(reps)
        reps.append(members[0])
    ncos = len(reps)
    m = Mprime.dim
    dim = m * ncos
    mats = []
    for g in G.gen_indices:
        big = np.zeros((dim, dim), dtype=np.int64)
        for i, rep in enumerate(reps):
            t = G.mul(rep, g)
            j = rep_of[t]
            # rep * g = h * reps[j]  with h in H
            h = G.mul(t, int(G.inv[reps[j]]))
            hm = h_of_g.get(h)
            assert hm is not None, "coset bookkeeping broke"
            block = Mprime.mat_of(hm)
            big[i * m:(i + 1) * m, j * m:(j + 1) * m] = block
        mats.append(big)
    return GModule(G, Mprime.p, mats)

def alternating_generators(n: int) -> tuple[Perm, Perm]:
    """In the full A_n (n = 4 or 5), the first pair (by element index) with
    orders 2 and 3 that generates and whose product has order 3 (n = 4) or
    5 (n = 5), which pins <a, b | a^2, b^3, (ab)^k>."""
    k = 3 if n == 4 else 5
    threecycle = Perm.from_cycles([[0, 1, 2]], n)
    other = Perm.from_cycles([[1, 2, 3]] if n == 4 else [[2, 3, 4]], n)
    full = FiniteGroup([threecycle, other], name=f"A{n}")
    assert full.order == (12 if n == 4 else 60)
    of_order = [[x for x in range(full.order) if full.element_order(x) == o]
                for o in (2, 3)]
    a, b = next(row for rows, _, sizes in search_images(full, of_order)
                for row in rows[sizes == full.order].tolist()
                if full.element_order(full.mul(*row)) == k)
    return full.perm(a), full.perm(b)


# -- the split and dihedral levels as they were built as permutation groups ----


def extract_cocycle(total: FiniteGroup, base: FiniteGroup, proj: np.ndarray,
                    section: np.ndarray, kernel_coords: dict[int, np.ndarray],
                    p: int, dim: int) -> np.ndarray:
    """psi(g,h) = s(gh)^-1 s(g) s(h) in kernel coordinates, for all g, h at once."""
    x, s = np.arange(base.order), np.asarray(section)
    k = total.mul_many(total.inv[s[base.mul_many(x[:, None], x)]],
                       total.mul_many(s[:, None], s))
    coords = np.full((total.order, dim), -1, dtype=np.int64)
    coords[list(kernel_coords)] = list(kernel_coords.values())
    assert (coords[k] >= 0).all(), "s(gh)^-1 s(g) s(h) outside the kernel"
    return coords[k]


def level_psi(lvl) -> np.ndarray:
    """A built level's cocycle, read off its section and kernel
    coordinates (extract_cocycle); levels do not store it."""
    return extract_cocycle(lvl.total, lvl.base, lvl.proj, lvl.section,
                           lvl.kernel_coords, lvl.p, lvl.kernel_dim)


def _dihedral_decode(G: FiniteGroup, elem: int, n: int) -> tuple[int, int]:
    arr = G.elements[elem]
    a = int(arr[0])
    flip = 0 if int(arr[(0 + 1) % n]) == (a + 1) % n else 1
    return a, flip


def _dihedral_elem(G: FiniteGroup, n: int, a: int, flip: int) -> int:
    if flip:
        img = [(-i + a) % n for i in range(n)]
    else:
        img = [(i + a) % n for i in range(n)]
    got = G.lookup(np.array(img, dtype=np.int32))
    assert got is not None
    return got


def dihedral_step(base: FiniteGroup, p: int) -> dict:
    """One closed-form level D_{np} -> D_n over the given dihedral base.

    The base must act on n points in the standard rotation/reflection form
    (point images decode as i -> +-i + a); the total is the standard
    dihedral group of order 2np.
    """
    nb = base.degree
    if base.order != 2 * nb or nb % p:
        raise InputError("base is not a standard dihedral group of p-power rotation")
    nt = nb * p
    Dt = dihedral_group(nt)
    proj = np.empty(Dt.order, dtype=np.int64)
    for e in range(Dt.order):
        a, f = _dihedral_decode(Dt, e, nt)
        proj[e] = _dihedral_elem(base, nb, a % nb, f)
    section = np.empty(base.order, dtype=np.int64)
    for e in range(base.order):
        a, f = _dihedral_decode(base, e, nb)
        section[e] = _dihedral_elem(Dt, nt, a, f)
    kernel = [_dihedral_elem(Dt, nt, c * nb, 0) for c in range(p)]
    coords = {kernel[c]: np.array([c], dtype=np.int64) for c in range(p)}
    module = GModule(base, p, [np.array([[1]]), np.array([[p - 1]])],
                     check=False)
    psi = extract_cocycle(Dt, base, proj, section, coords, p, 1)
    return dict(proj=proj, section=section, kernel=kernel, coords=coords,
                mats=module.mats, psi=psi)


def _semidirect_group(H: FiniteGroup, n_u: int, u_mul, u_act, u_gens,
                      name: str) -> FiniteGroup:
    """P x| H on pairs (h, u): (h1,u1)(h2,u2) = (h1 h2, act(u1, h2) * u2).

    u_mul(u1, u2), u_act(u, h) and the list u_gens describe the normal part
    abstractly; points are h * n_u + u.
    """
    npts = H.order * n_u

    def translation(h2: int, u2: int) -> Perm:
        img = np.empty(npts, dtype=np.int64)
        for h in range(H.order):
            hh = H.mul(h, h2)
            for u in range(n_u):
                v = u_mul(u_act(u, h2), u2)
                img[h * n_u + u] = hh * n_u + v
        return Perm(tuple(int(x) for x in img))

    gens = [translation(0, u) for u in u_gens]
    gens += [translation(hg, 0) for hg in H.gen_indices]
    G = FiniteGroup(gens, max_order=npts + 1, name=name)
    if G.order != npts:
        raise Collapse(f"semidirect product closed at {G.order}, expected {npts}")
    return G


class ActionLiftFailed(Exception):
    """No compatible lift of the complement action was found."""


def find_action_lift(P1: FiniteGroup, cand_lists: list[list[int]],
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


def split_level(d: int, p: int, H: FiniteGroup, H_mats: list[np.ndarray],
                max_cosets: int = 1 << 20) -> dict:
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
    T0 = todd_coxeter(p0_presentation(d, p), (), max_cosets)
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
    reps = rep_words(T1)

    # P0 as translation group on F_p^d vectors; generator i = e_i, and an
    # element maps point 0 to the base-p code of its vector
    P0 = _vector_group(d, p)
    p0_elem = _elem_at_point(P0)
    # kernel coordinates inside T1, in the Schreier-generator basis
    kernel_cosets, kcoords = _table_kernel_coords(
        T1, lambda c: int(p0_elem[_p0_code_of_word(reps[c], d, p)]),
        dprime, p, sgens)
    mats0 = []
    for i in range(d):
        rows = []
        for s in sgens:
            w = invert_word((i + 1,)) + s + (i + 1,)
            rows.append(kcoords[_coset_in_kernel(T1, w)])
        mats0.append(np.stack(rows))
    M0_over_P0 = GModule(P0, p, mats0, check=False)
    psi_p1 = _cocycle_from_table(T1, P0, kcoords, d, p,
                                 lambda g: _p0_word(P0, g, d, p))
    P1, info1 = pair_model_group(P0, M0_over_P0, psi_p1, name="P1")

    # lift the H generator: images of the P1 generators over (e_i) A_h
    cand_lists = []
    for i in range(d):
        s = int(info1["section"][p0_elem[la.vec_int(A_h[i], p)]])
        cands = sorted(P1.mul(s, k) for k in info1["kernel"])
        cand_lists.append(cands)
    lift = find_action_lift(P1, cand_lists, h_order)
    if lift is None:
        raise ActionLiftFailed("no compatible lift of the complement action")
    alpha_images, alpha = lift

    # alpha powers for each element of (cyclic) H
    h_gen = H.gen_indices[0]
    pow_of = {}
    e = 0
    acc = np.arange(P1.order, dtype=np.int64)
    for _ in range(h_order):
        pow_of[e] = acc.copy()
        e = H.mul(e, h_gen)
        acc = alpha[acc]
    assert e == 0

    mats0_powers = {}
    e = 0
    accm = la.identity(d)
    for _ in range(h_order):
        mats0_powers[e] = accm.copy()
        e = H.mul(e, h_gen)
        accm = la.matmul(accm, A_h, p)

    G0 = _semidirect_group(
        H, P0.order, lambda u1, u2: P0.mul(u1, u2),
        lambda u, h2: int(p0_elem[la.vec_int(  # u acted by h2's matrix
            _vector_of(P0, u, d, p) @ mats0_powers[h2], p)]),
        [int(p0_elem[p ** i]) for i in range(d)], name="G0split")
    G1 = _semidirect_group(
        H, P1.order, lambda u1, u2: P1.mul(u1, u2),
        lambda u, h2: int(pow_of[h2][u]),
        [P1.gen_indices[i] for i in range(d)], name="G1split")
    assert G0.order == H.order * P0.order and G1.order == H.order * P1.order

    # projection/section/kernel over the pair point layout (h*nu + u)
    g0_elem, g1_elem = _elem_at_point(G0), _elem_at_point(G1)
    h1, u1 = np.divmod(G1.elements[:, 0].astype(np.int64), P1.order)
    proj = g0_elem[h1 * P0.order + info1["proj"][u1]]
    h0, u0 = np.divmod(G0.elements[:, 0].astype(np.int64), P0.order)
    section = g1_elem[h0 * P1.order + info1["section"][u0]]
    m = dprime
    kernel, coords = [], {}
    for k in info1["kernel"]:
        eidx = int(g1_elem[k])
        kernel.append(eidx)
        coords[eidx] = info1["coords"][k].copy()
    kernel.sort(key=lambda e2: la.vec_int(coords[e2], p))
    basis_elems = [next(e2 for e2 in kernel
                        if la.vec_int(coords[e2], p) == p ** j) for j in range(m)]

    gen_mats = []
    for g in G0.gen_indices:
        s = int(section[g])
        rows = []
        for k in basis_elems:
            got = G1.mul(G1.mul(int(G1.inv[s]), k), s)
            rows.append(coords[got])
        gen_mats.append(np.stack(rows))
    psi = extract_cocycle(G1, G0, proj, section, coords, p, m)
    return dict(P0=P0, P1=P1, M0=mats0, psi_p1=psi_p1, h_lift_images=alpha_images,
                g0=G0, g1=G1, proj=proj, section=section, kernel=kernel,
                coords=coords, mats=gen_mats, psi=psi)


def split_route(N: FiniteGroup, p: int) -> tuple[dict, list[int]]:
    """(split_level of N read as P0 x| H along frattini.split_structure,
    the element map of its G0 onto N).  G0's element of point-0 image
    h |P0| + u is h^j u in N: H's element j is its generator's j-th power,
    and the P0 element u is numbered as in frattini._vector_group."""
    data = frattini.split_structure(N, p)
    H = cyclic_group(N.element_order(data.complement_gen))
    tower = split_level(data.rank, p, H, [data.action])
    return tower, data.split_map[tower["g0"].elements[:, 0]].tolist()


def split_route_level(G: FiniteGroup, p: int) -> FrattiniLevel:
    """The level over G with a normal p-Sylow as the split route built it:
    G1 = P1 x| H over G0 = P0 x| H (split_level), moved onto G along the
    split map (transport_level)."""
    tower, iso = split_route(G, p)
    g0 = tower["g0"]
    lvl = FrattiniLevel(tower["g1"], g0, p, tower["proj"], tower["section"],
                        tower["kernel"], GModule(g0, p, tower["mats"], check=False),
                        name="G1split")
    return transport_level(lvl, iso, G)


def split_route_module(N: FiniteGroup, p: int) -> GModule:
    """N's Frattini module as the split route read it: the kernel module of
    split_level's G1 -> G0, moved onto N along the split map."""
    tower, iso = split_route(N, p)
    M = GModule(tower["g0"], p, tower["mats"], check=False)
    at = np.argsort(iso)
    return GModule(N, p, [M.mat_of(int(at[g])) for g in N.gen_indices])


def _vector_group(d: int, p: int) -> FiniteGroup:
    gens = []
    n = p ** d
    for i in range(d):
        img = [(la.vec_int((la.int_vec(k, d, p) +
                            np.eye(d, dtype=np.int64)[i]) % p, p)) for k in range(n)]
        gens.append(Perm(tuple(img)))
    G = FiniteGroup(gens, max_order=n + 1, name=f"(Z/{p})^{d}")
    assert G.order == n
    return G


def _vector_of(P0: FiniteGroup, elem: int, d: int, p: int) -> np.ndarray:
    return la.int_vec(int(P0.elements[elem][0]), d, p)


def _p0_word(P0: FiniteGroup, g: int, d: int, p: int) -> tuple[int, ...]:
    v = _vector_of(P0, g, d, p)
    out: list[int] = []
    for i in range(d):
        out.extend([i + 1] * int(v[i]))
    return tuple(out)


def _p0_code_of_word(word, d: int, p: int) -> int:
    v = np.zeros(d, dtype=np.int64)
    for letter in word:
        v[abs(letter) - 1] += 1 if letter > 0 else -1
    return la.vec_int(v % p, p)


def _coset_in_kernel(T: CosetTable, word) -> int:
    return T.act_word(0, free_reduce(word))


def _table_kernel_coords(T: CosetTable, proj_of_coset, expected_dim: int, p: int,
                         basis_words):
    """Kernel cosets (proj == identity) with F_p coordinates against
    `basis_words`, words whose cosets span the kernel."""
    kernel = [c for c in range(T.n) if proj_of_coset(c) == 0]
    assert len(kernel) == p ** expected_dim, (len(kernel), expected_dim)
    assert len(basis_words) == expected_dim
    coords: dict[int, np.ndarray] = {0: np.zeros(expected_dim, dtype=np.int64)}
    for j, w in enumerate(basis_words):
        grown = dict(coords)
        for known, vec in coords.items():
            cur = known
            for e in range(1, p):
                cur = T.act_word(cur, w)
                v = vec.copy()
                v[j] = e
                assert cur not in grown, "kernel basis words not independent"
                grown[cur] = v
        coords = grown
    assert len(coords) == len(kernel)
    return kernel, coords


def _cocycle_from_table(T: CosetTable, base: FiniteGroup, kcoords, d: int, p: int,
                        word_of_base):
    nb = base.order
    m = len(next(iter(kcoords.values())))
    psi = np.zeros((nb, nb, m), dtype=np.int64)
    words = [tuple(word_of_base(g)) for g in range(nb)]
    for g in range(nb):
        for h in range(nb):
            gh = base.mul(g, h)
            w = invert_word(words[gh]) + words[g] + words[h]
            psi[g, h] = kcoords[_coset_in_kernel(T, w)]
    return psi


def transport_level(lvl, iso: list[int], new_base: FiniteGroup):
    """Relabel a level over an isomorphic concrete base group.

    iso maps old base elements to new base elements; the kernel module and
    cocycle are transported and the pair model rebuilt canonically.
    """
    old = lvl.base
    iso_inv = {iso[e]: e for e in range(old.order)}
    mats = [lvl.kernel_module.mat_of(iso_inv[g]) for g in new_base.gen_indices]
    M = GModule(new_base, lvl.p, mats, check=False)
    nb, old_psi = new_base.order, level_psi(lvl)
    psi = np.zeros((nb, nb, lvl.kernel_dim), dtype=np.int64)
    for g in range(nb):
        for h in range(nb):
            psi[g, h] = old_psi[iso_inv[g], iso_inv[h]]
    return level_from_pair_model(new_base, M, psi, lvl.p,
                                 name=lvl.name + "-transported")


# -- the order-p^3 model groups as permutation groups -------------------------


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p; exponent p for odd p."""
    pts = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    idx = {v: i for i, v in enumerate(pts)}

    def right_mul(u):
        a2, b2, c2 = u
        img = []
        for (a, b, c) in pts:
            img.append(idx[((a + a2) % p, (b + b2) % p, (c + c2 + a * b2) % p)])
        return Perm(tuple(img))

    return FiniteGroup([right_mul((1, 0, 0)), right_mul((0, 1, 0))],
                       max_order=p ** 3 + 1, name=f"H{p}")


def up_group(p: int) -> FiniteGroup:
    """Z/p^2 x| Z/p with the generator acting by 1 + p."""
    pts = [(a, b) for a in range(p * p) for b in range(p)]
    idx = {v: i for i, v in enumerate(pts)}

    def right_mul(u):
        a2, b2 = u
        img = []
        for (a, b) in pts:
            # (a, b) * (a2, b2): a twisted by the action of b2's target power
            img.append(idx[((a * pow(1 + p, b2, p * p) + a2) % (p * p),
                            (b + b2) % p)])
        return Perm(tuple(img))

    return FiniteGroup([right_mul((1, 0)), right_mul((0, 1))],
                       max_order=p ** 3 + 1, name=f"U{p}")


def wp_group(p: int) -> FiniteGroup:
    """(Z/p)^2 x| Z/p with the unipotent matrix [[1,1],[0,1]]."""
    pts = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    idx = {v: i for i, v in enumerate(pts)}

    def right_mul(u):
        a2, b2, c2 = u
        img = []
        for (a, b, c) in pts:
            # (v, c)(w, c2) = (v A^{c2} + w, c + c2), A = [[1,1],[0,1]]
            na = (a + a2) % p
            nb = (a * c2 + b + b2) % p
            img.append(idx[(na, nb, (c + c2) % p)])
        return Perm(tuple(img))

    return FiniteGroup([right_mul((1, 0, 0)), right_mul((0, 1, 0)),
                        right_mul((0, 0, 1))], max_order=p ** 3 + 1, name=f"W{p}")


# -- the presentations that builders attached before every group was peeled ----


def alternating_presentation(n: int) -> Presentation:
    """<a, b | a^2, b^3, (ab)^k>, k = 3 for A_4 and 5 for A_5, on the
    builtin generators."""
    return Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * (3 if n == 4 else 5)))


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


def p0_presentation(d: int, p: int) -> Presentation:
    """(Z/p)^d = <x_1..x_d | x_i^p, [x_i, x_j]>."""
    return Presentation(d, tuple(
        [word_pow((i + 1,), p) for i in range(d)] +
        [commutator_word((i + 1,), (j + 1,)) for i in range(d) for j in range(i + 1, d)]))


def p1_presentation(d: int, p: int) -> Presentation:
    """P1 = F / Phi(Phi(F)) on the d free generators: s^p and [s, t] for
    the Schreier generators s, t of Phi(F) over P0 = (Z/p)^d."""
    sgens, _ = frattini._schreier_basis(frattini._vector_group(d, p), p)
    rels = []
    for i, s in enumerate(sgens):
        rels.append(free_reduce(word_pow(s, p)))
        rels += [w for t in sgens[i + 1:] if (w := commutator_word(s, t))]
    return Presentation(d, tuple(rels))


def _split_presentation(rels, images, h_order: int) -> Presentation:
    """Generators x_1..x_d, h: the relators `rels` of the x_i, h^h_order,
    and h^-1 x_i h = images[i], a word in the x_i."""
    d = len(images)
    rels = list(rels) + [word_pow((d + 1,), h_order)]
    rels += [free_reduce((-(d + 1), i + 1, d + 1) + invert_word(w))
             for i, w in enumerate(images)]
    return Presentation(d + 1, tuple(r for r in rels if r))


def split_presentations(tower: dict, p: int, A_h: np.ndarray, h_order: int):
    """The presentations of the split model G0 = P0 x| H and of
    G1 = P1 x| H of `tower` (split_level, for the action A_h of H's
    generator, of order h_order) on x_1..x_d, h: P0's or P1's relators of
    the x_i, h^h_order, and h^-1 x_i h written as a word in the x_i.  For
    G0 that word is the BFS word x_1^a_1 ... x_d^a_d of (e_i) A_h; for G1 it
    is alpha(x_i) in P1's normal form: the BFS word of its P0 part, then the
    Schreier generators to the digits of its kernel part, read off the
    pair-model code of alpha(x_i), its image of point 0."""
    d = len(A_h)
    P0 = frattini._vector_group(d, p)
    x_words = [tuple(g + 1 for g in word) for word in P0.words]
    sgens, _ = frattini._schreier_basis(P0, p)
    g0 = _split_presentation(p0_presentation(d, p).relators, [
        x_words[P0._at_code[la.vec_int(row, p)]] for row in la.asmod(A_h, p)], h_order)
    m = len(sgens)
    alpha_words = []
    for e in tower["h_lift_images"]:
        g, v = divmod(int(tower["P1"].elements[e][0]), p ** m)
        alpha_words.append(x_words[g] + sum((word_pow(sj, v // p ** j % p)
                                             for j, sj in enumerate(sgens)), ()))
    return g0, _split_presentation(p1_presentation(d, p).relators, alpha_words, h_order)
