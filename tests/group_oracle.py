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
"""

from __future__ import annotations

import numpy as np

from mtower import linalg as la
from mtower.errors import Collapse, InputError
from mtower.groups import FiniteGroup
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


def closure_mask(G, seeds, cap=None) -> np.ndarray:
    """Membership mask of <seeds>, by a level-by-level BFS over right
    multiplication by the seeds; stops once more than `cap` are found."""
    gens = np.unique(np.asarray([s for s in seeds if s != 0], dtype=np.int64))
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    seen[gens] = True
    frontier = seen.nonzero()[0]
    found = frontier.size
    while frontier.size and (cap is None or found <= cap):
        prods = G.mul_many(frontier[:, None], gens)
        fresh = np.zeros(G.order, dtype=bool)
        fresh[prods] = True
        fresh &= ~seen
        seen |= fresh
        frontier = fresh.nonzero()[0]
        found += frontier.size
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
