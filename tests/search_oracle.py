"""The candidate-image searches as they were before `groups.search_images`,
one row of images at a time, kept as oracles.

`find_isomorphism`, `find_cover_map`, `homomorphism_onto`,
`find_action_lift`, `splits`, `restriction_splits` and
`minimal_generating_tuple` are the old bodies, with the removed helpers
they called (`eval_relator`, `restricted_words`,
`endomorphism_from_images`) kept beside them.  `classify_pair` is the
one-closure-per-pair body that `schur.p3_census` called before it closed
all its pairs in one batch.  `verify_frattini` is the exhaustive check,
closing every lift tuple, that the frattini module replaced by one lift
tuple per orbit of the kernel acting by conjugation.
"""

from __future__ import annotations

from itertools import product

from mtower.groups import search_images


def eval_relator(G, images, word) -> int:
    """A signed word evaluated with generator i sent to images[i]; 0 means
    the assignment satisfies the relator."""
    cur = 0
    for letter in word:
        g = images[abs(letter) - 1]
        cur = G.mul(cur, g if letter > 0 else int(G.inv[g]))
    return cur


def restricted_words(G, gen_positions):
    """BFS words for every element using only the listed generators."""
    words = [None] * G.order
    words[0] = ()
    queue = [0]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for gp in gen_positions:
            y = G.mul(x, G.gen_indices[gp])
            if words[y] is None:
                words[y] = words[x] + (gp + 1,)
                queue.append(y)
    if any(w is None for w in words):
        raise AssertionError("listed generators do not generate")
    return [w for w in words if w is not None]


def endomorphism_from_images(G, images, gen_positions):
    """Map defined on BFS words over the listed generators; None if not bijective."""
    words = restricted_words(G, gen_positions)
    out = [0] * G.order
    # rebuild in BFS order so parents are defined first
    order_of = sorted(range(G.order), key=lambda e: len(words[e]))
    pos_of = {gp: i for i, gp in enumerate(gen_positions)}
    for e in order_of:
        w = words[e]
        if not w:
            continue
        parent = 0
        for letter in w[:-1]:
            parent = G.mul(parent, G.gen_indices[gen_positions[pos_of[letter - 1]]])
        out[e] = G.mul(out[parent], images[pos_of[w[-1] - 1]])
    if len(set(out)) != G.order:
        return None
    for e in range(G.order):
        for gp in gen_positions:
            g = G.gen_indices[gp]
            if out[G.mul(e, g)] != G.mul(out[e], images[pos_of[gp]]):
                return None
    return out


def find_isomorphism(src, dst):
    if src.order != dst.order:
        return None
    gen_orders = [src.element_order(g) for g in src.gen_indices]
    dst_by_order = {}
    for o in set(gen_orders):
        dst_by_order[o] = [x for x in range(dst.order) if dst.element_order(x) == o]

    def build(images):
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


def find_cover_map(L, E_prev):
    G1 = L.total
    R = E_prev.total
    cand = [E_prev.lifts(int(L.proj[g])) for g in G1.gen_indices]

    def element_map(images):
        if any(eval_relator(R, images, rel) for rel in G1.presentation.relators):
            return None
        phi = [0] * G1.order
        for e in range(1, G1.order):
            parent, gi = G1._parents[e]
            phi[e] = R.mul(phi[parent], images[gi])
        return phi if len(set(phi)) == R.order else None

    return next((phi for images in product(*cand)
                 if (phi := element_map(images)) is not None), None)


def homomorphism_onto(level_src, level_dst):
    src, dst = level_src.total, level_dst.total
    base = level_src.base
    d = len(base.gen_indices)
    cand = [level_dst.lifts(g) for g in base.gen_indices]
    src_pres = src.presentation
    xwords = restricted_words(src, list(range(d)))

    def assignment_works(images):
        full = list(images)
        for j in range(d, len(src.gen_indices)):
            full.append(eval_relator(dst, full, xwords[src.gen_indices[j]]))
        if any(eval_relator(dst, full, rel) for rel in src_pres.relators):
            return False
        return dst.closure_size(full) == dst.order

    return any(assignment_works(images) for images in product(*cand))


def find_action_lift(P1, P1_pres, cand_lists, h_order, d):
    def works(images):
        if any(eval_relator(P1, images, rel) for rel in P1_pres.relators):
            return False
        alpha = endomorphism_from_images(P1, images, list(range(d)))
        if alpha is None:
            return False
        cur = list(range(P1.order))
        for _ in range(h_order):
            cur = [alpha[c] for c in cur]
        return all(cur[i] == i for i in range(P1.order))

    return next((list(images) for images in product(*cand_lists)
                 if works(images)), None)


def splits(total, G, proj):
    lift_sets = [[e for e in range(total.order) if int(proj[e]) == g]
                 for g in G.gen_indices]
    return any(total.closure_size(chosen) == G.order
               for chosen in product(*lift_sets))


def minimal_generating_tuple(G):
    for a in range(1, G.order):
        for b in range(a + 1, G.order):
            if G.closure_size([a, b]) == G.order:
                return [a, b]
    return list(G.gen_indices)


def restriction_splits(L, subgroup_elems):
    S = sorted(subgroup_elems)
    sset = set(S)
    sub_gens = None
    for a in S:
        if a == 0:
            continue
        for b in S:
            if b <= a:
                continue
            clo = L.base.subgroup_closure([a, b])
            if len(clo) == len(S) and set(clo) == sset:
                sub_gens = [a, b]
                break
        if sub_gens:
            break
    if sub_gens is None:
        for a in S:
            if len(L.base.subgroup_closure([a])) == len(S):
                sub_gens = [a]
                break
    assert sub_gens is not None, "subgroup has no small generating set"
    lift_sets = [L.lifts(g) for g in sub_gens]
    return any(L.total.closure_size(chosen) == len(S)
               for chosen in product(*lift_sets))


def verify_frattini(L: FrattiniLevel, gens: list[int] | None = None) -> bool:
    """Exhaustively check that every kernel translate of a generating-set
    lift still generates the total group (closures in blocks of rows)."""
    base_gens = gens if gens is not None else minimal_generating_tuple(L.base)
    return all((sizes == L.total.order).all() for _, _, sizes in
               search_images(L.total, [L.lifts(g) for g in base_gens]))


def classify_pair(E, L, m1, m2, vd):
    from mtower.schur import _allowed_labels, _p3_label

    p = E.p
    R = E.total
    H = R.subgroup_closure([E.lifts(m1)[0], E.lifts(m2)[0]])
    order = len(H)
    abelian = all(R.mul(a, b) == R.mul(b, a) for a in H for b in H)
    orders = sorted(R.element_order(x) for x in H)
    exponent = max(orders)
    n_p = sum(1 for o in orders if o == p)
    label = _p3_label(p, order, abelian, exponent, n_p)
    allowed = _allowed_labels(p, m1 in set(vd.members), m2 in set(vd.members))
    assert label in allowed, (label, allowed)
    return label
