"""The group layer's earlier element-at-a-time routes, kept as oracles.

`bfs` is the element BFS without its generator columns, `build_table`
looks every product of an element and a generator up again and fills the
multiplication table a column at a time, `build_inverses` looks each
inverse permutation up, `closure_mask` is the one-call-per-seed-set
subgroup closure and `perm_str` the cycle formatting that `Perm.__str__`
did through `Perm.cycles`.
"""

from __future__ import annotations

import numpy as np


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
