"""The group layer's earlier element-at-a-time routes, kept as oracles.

`bfs` is the element BFS without its generator columns, `build_table`
looks every product of an element and a generator up again and fills the
multiplication table a column at a time, `build_inverses` looks each
inverse permutation up, `closure_mask` is the one-call-per-seed-set
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
decodes its elements through the image of point 0, `dihedral_step` through
`_dihedral_decode`/`_dihedral_elem`, and `transport_level` moves the
cocycle one entry at a time.  They return the level's parts (proj, section,
kernel, coordinates, module matrices, psi) instead of a level, and skip the
presentations, which did not change.  The order-p^3 model groups are the
permutation builders they were.
"""

from __future__ import annotations

import numpy as np

from mtower import frattini
from mtower import linalg as la
from mtower.errors import ActionLiftFailed, Collapse, InputError
from mtower.fp import (CosetTable, Presentation, commutator_word, free_reduce,
                       invert_word, schreier_generators, todd_coxeter, word_pow)
from mtower.frattini import level_from_pair_model
from mtower.gmodules import GModule
from mtower.groups import ConjClass, FiniteGroup, dihedral_group, search_images
from mtower.perms import Perm


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


def build_inverses(elements, index) -> np.ndarray:
    n, degree = elements.shape
    inv = np.empty(n, dtype=np.int32)
    for i in range(n):
        back = np.empty(degree, dtype=np.int32)
        back[elements[i]] = np.arange(degree, dtype=np.int32)
        inv[i] = index[back.tobytes()]
    return inv


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
    are the lifts (gen, 0) of the base generators followed by the kernel
    basis (1, e_j).  Requires psi normalized: psi[0,:] = psi[:,0] = 0.
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
    for j in range(m):
        e = np.zeros(m, dtype=np.int64)
        e[j] = 1
        gens.append(translation(0, e))
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

    # P0 as translation group on F_p^d vectors; generator i = e_i, and an
    # element maps point 0 to the base-p code of its vector
    P0 = _vector_group(d, p)
    p0_elem = _elem_at_point(P0)
    # kernel coordinates inside T1, in the Schreier-generator basis
    kernel_cosets, kcoords = _table_kernel_coords(
        T1, lambda c: int(p0_elem[_p0_code_of_word(T1.rep_words[c], d, p)]),
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
    lift = frattini._find_action_lift(P1, cand_lists, h_order)
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
    return dict(P0=P0, g0=G0, g1=G1, proj=proj, section=section, kernel=kernel,
                coords=coords, mats=gen_mats, psi=psi)


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
    nb = new_base.order
    psi = np.zeros((nb, nb, lvl.kernel_dim), dtype=np.int64)
    for g in range(nb):
        for h in range(nb):
            psi[g, h] = lvl.psi[iso_inv[g], iso_inv[h]]
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
