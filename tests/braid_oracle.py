"""The tuple route of the braid-orbit and component analysis, kept as an
oracle for the index-array route of `nielsen` and `hurwitz`.

Moves are kept per reduced class in dicts keyed by tuple (`TupleMoves`),
filled a frontier at a time by the batch canonical kernel; orbits, cusps,
cycle counts, the sh-incidence and the level comparison are walked one tuple
at a time.  Reports keep their classes as lists of tuples (`TupleReport`,
`TupleCusp`, the shape `hurwitz`'s reports had), and `report_fields` reads
the same fields off a report of either route, so they compare directly; the
other result dataclasses are `hurwitz`'s own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mtower.errors import MismatchedLevels
from mtower.groups import unique_rows
from mtower.hurwitz import (LevelComparison, ShIncidence, component_genus,
                            genus_lower_bound)
from mtower.nielsen import hm_mask, middle_product


def _as_tuples(A) -> list[tuple]:
    return list(map(tuple, np.asarray(A).tolist()))


@dataclass
class TupleCusp:
    members: list[tuple]
    width: int
    mpr: int
    p_divisible: bool
    hm: bool

    @property
    def rep(self) -> tuple:
        return self.members[0]


@dataclass
class TupleReport:
    orbit: list[tuple]
    cusps: list[TupleCusp]
    ind0: int
    ind1: int
    indinf: int
    genus: int | None
    t_prime: int
    gamma0_fixed: list[tuple]
    gamma1_fixed: list[tuple]
    b_fine: bool
    fine: bool
    q2_orbit_lengths: dict[int, list[int]]

    @property
    def size(self) -> int:
        return len(self.orbit)


def report_fields(rep) -> tuple:
    """Every field of a report, its cusps as tuples of theirs, read the same
    way off a `TupleReport` and off a `hurwitz.ComponentReport`."""
    cusps = [(c.members, c.width, c.mpr, c.p_divisible, c.hm) for c in rep.cusps]
    return (rep.orbit, cusps, rep.ind0, rep.ind1, rep.indinf, rep.genus,
            rep.t_prime, rep.gamma0_fixed, rep.gamma1_fixed, rep.b_fine,
            rep.fine, rep.q2_orbit_lengths)


class TupleMoves:
    """gamma_1 and gamma_inf of reduced classes in dicts keyed by tuple."""

    def __init__(self, reducer):
        self.red = reducer
        self.r = reducer.r
        self._gamma1: dict[tuple, tuple] = {}
        self._gamma_inf: dict[tuple, tuple] = {}

    def moves_many(self, F: list[tuple]) -> tuple[list[tuple], list[tuple]]:
        A = np.array(F).reshape(-1, self.r)
        g1 = _as_tuples(self.red.canonical_many(np.roll(A, -1, axis=1)))
        ginf = _as_tuples(self.red.canonical_many(self.red.gamma_inf_raw_many(A)))
        self._gamma1.update(zip(F, g1))
        self._gamma_inf.update(zip(F, ginf))
        return g1, ginf

    def gamma1(self, t):
        if t not in self._gamma1:
            self.moves_many([t])
        return self._gamma1[t]

    def gamma_inf(self, t):
        if t not in self._gamma_inf:
            self.moves_many([t])
        return self._gamma_inf[t]


def mbar4_orbits(reduced, moves: TupleMoves) -> list[list[tuple]]:
    known = dict.fromkeys(_as_tuples(np.reshape(reduced, (-1, moves.r))))
    frontier = list(known)
    while frontier:
        g1, ginf = moves.moves_many(frontier)
        frontier = [t for t in dict.fromkeys(g1 + ginf) if t not in known]
        known.update(dict.fromkeys(frontier))
    placed: set[tuple] = set()
    orbits: list[list[tuple]] = []
    for seed in known:
        if seed in placed:
            continue
        placed.add(seed)
        members = [seed]
        for cur in members:
            for nxt in (moves.gamma1(cur), moves.gamma_inf(cur)):
                if nxt not in placed:
                    placed.add(nxt)
                    members.append(nxt)
        orbits.append(sorted(members))
    orbits.sort(key=lambda orb: (len(orb), orb[0]))
    return orbits


def gamma_inf_orbits(orbit: list[tuple], moves: TupleMoves) -> list[list[tuple]]:
    seen: set[tuple] = set()
    cusps: list[list[tuple]] = []
    for t in orbit:
        if t in seen:
            continue
        cyc = [t]
        seen.add(t)
        cur = moves.gamma_inf(t)
        while cur != t:
            cyc.append(cur)
            seen.add(cur)
            cur = moves.gamma_inf(cur)
        cusps.append(sorted(cyc))
    cusps.sort(key=lambda c: (len(c), c[0]))
    return cusps


def _perm_cycles(P: list[int]) -> int:
    seen = [False] * len(P)
    count = 0
    for i in range(len(P)):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = P[j]
    return count


def _fixed_points(P: list[int]) -> list[int]:
    return [i for i, j in enumerate(P) if i == j]


def analyze_component(spec, orbit: list[tuple], moves: TupleMoves) -> TupleReport:
    G = spec.group
    n = len(orbit)
    idx = {t: i for i, t in enumerate(orbit)}
    P1 = [idx[moves.gamma1(t)] for t in orbit]
    Pinf = [idx[moves.gamma_inf(t)] for t in orbit]
    comp = [Pinf[P1[i]] for i in range(n)]
    P0 = [0] * n
    for i, j in enumerate(comp):
        P0[j] = i
    ind0 = n - _perm_cycles(P0)
    ind1 = n - _perm_cycles(P1)
    indinf = n - _perm_cycles(Pinf)
    f0 = len(_fixed_points(P0))
    f1 = len(_fixed_points(P1))
    if moves.r == 4:
        assert ind0 == 2 * (n - f0) // 3 and (n - f0) % 3 == 0
        assert ind1 == (n - f1) // 2 and (n - f1) % 2 == 0
        genus = component_genus(n, ind0, ind1, indinf)
    else:
        genus = None

    cusp_lists = gamma_inf_orbits(orbit, moves)
    rows = [t for members in cusp_lists for t in members]
    variants = moves.red.variants_many(np.array(rows))
    hm = dict(zip(rows, hm_mask(variants, G).tolist()))
    cusps = []
    for members in cusp_lists:
        mprs = {middle_product(t, G) for t in members}
        assert len({m % spec.p == 0 for m in mprs}) == 1
        cusps.append(TupleCusp(
            members=members, width=len(members),
            mpr=middle_product(members[0], G),
            p_divisible=(middle_product(members[0], G) % spec.p == 0),
            hm=any(hm[t] for t in members)))
    assert sum(c.width for c in cusps) == n
    t_prime = sum(1 for c in cusps if c.p_divisible)

    table, q2_lengths = inner_orbit_data(variants, cusps, moves.red)
    if moves.r == 4:
        b_fine = q2prime_faithful(table)
        fine = b_fine and f0 == 0 and f1 == 0
    else:
        b_fine = fine = None
    return TupleReport(
        orbit=orbit, cusps=cusps, ind0=ind0, ind1=ind1, indinf=indinf,
        genus=genus, t_prime=t_prime,
        gamma0_fixed=[orbit[i] for i in _fixed_points(P0)],
        gamma1_fixed=[orbit[i] for i in _fixed_points(P1)],
        b_fine=b_fine, fine=fine, q2_orbit_lengths=q2_lengths)


def inner_orbit_data(variants: np.ndarray, cusps, reducer):
    n, k, r = variants.shape
    table = reducer.canonical_inner_many(variants.reshape(-1, r)).reshape(n, k, r)
    inner, first, _ = unique_rows(table.reshape(-1, r))
    cusp_of = np.repeat(np.arange(len(cusps)), [len(c.members) for c in cusps])
    cusp_of = cusp_of[first // k].tolist()
    images = reducer.canonical_inner_many(reducer.gamma_inf_raw_many(inner))
    both, _, where = unique_rows(np.vstack([inner, images]))
    assert len(both) == len(inner)
    step = where[len(inner):].tolist()
    q2_lengths: dict[int, list[int]] = {ci: [] for ci in range(len(cusps))}
    seen = [False] * len(inner)
    for i in range(len(inner)):
        j, length = i, 0
        while not seen[j]:
            seen[j], j, length = True, step[j], length + 1
        if length:
            q2_lengths[cusp_of[i]].append(length)
    return table, {ci: sorted(lengths) for ci, lengths in q2_lengths.items()}


def q2prime_faithful(table: np.ndarray) -> bool:
    return all((table != table[:, [j ^ g for j in range(4)]]).any()
               for g in (1, 2, 3))


def sh_incidence(reports: list[TupleReport], moves: TupleMoves) -> ShIncidence:
    cusps = []
    comp_of = []
    for ri, rep in enumerate(reports):
        for c in rep.cusps:
            cusps.append(c)
            comp_of.append(ri)
    k = len(cusps)
    member_of: dict[tuple, int] = {}
    for i, c in enumerate(cusps):
        for t in c.members:
            member_of[t] = i
    matrix = np.zeros((k, k), dtype=np.int64)
    for i, c in enumerate(cusps):
        for t in c.members:
            j = member_of.get(moves.gamma1(t))
            if j is not None:
                matrix[i, j] += 1
    symmetric = bool((matrix == matrix.T).all())
    if moves.r == 4 and not symmetric:
        raise AssertionError("sh-incidence not symmetric for r = 4")
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for j in range(k):
            if matrix[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    blocks = sorted(groups.values())
    for block in blocks:
        assert len({comp_of[i] for i in block}) == 1
    assert len(blocks) == len(reports)
    labels = [f"O{ri + 1}.{ci + 1}" for ri, rep in enumerate(reports)
              for ci in range(len(rep.cusps))]
    return ShIncidence(labels, matrix, blocks, comp_of, symmetric)


def to_csv(inc: ShIncidence) -> str:
    lines = ["," + ",".join(inc.labels)]
    for i, lab in enumerate(inc.labels):
        lines.append(lab + "," + ",".join(str(int(x)) for x in inc.matrix[i]))
    return "\n".join(lines) + "\n"


def level_compare(lower: TupleReport, upper: TupleReport, L,
                  lower_reducer, lower_index: int = 0,
                  upper_index: int = 0) -> LevelComparison:
    lower_set = {t: i for i, t in enumerate(lower.orbit)}
    fiber: dict[tuple, int] = {t: 0 for t in lower.orbit}
    below: dict[tuple, tuple] = {}
    raw, _, which = unique_rows(L.proj[np.array(upper.orbit)])
    canon = list(map(tuple, lower_reducer.canonical_many(raw).tolist()))
    for t, w in zip(upper.orbit, which.tolist()):
        img = canon[w]
        if img not in lower_set:
            raise MismatchedLevels("upper class does not project into lower orbit")
        below[t] = img
        fiber[img] += 1
    sizes = set(fiber.values())
    assert len(sizes) == 1
    degree = sizes.pop()
    assert degree * lower.size == upper.size

    lower_cusp_of: dict[tuple, int] = {}
    for ci, c in enumerate(lower.cusps):
        for t in c.members:
            lower_cusp_of[t] = ci
    p = L.p
    for t in upper.orbit:
        if lower.cusps[lower_cusp_of[below[t]]].p_divisible:
            assert middle_product(t, L.total) == p * middle_product(below[t], L.base)
    above: dict[int, list] = {ci: [] for ci in range(len(lower.cusps))}
    for uc in upper.cusps:
        above[lower_cusp_of[below[uc.rep]]].append(uc)
    u_counts = [sum(1 for uc in above[ci] if uc.p_divisible)
                for ci, c in enumerate(lower.cusps) if not c.p_divisible]
    shortened = []
    for ci, c in enumerate(lower.cusps):
        for uc in above[ci]:
            if uc.width * c.mpr != c.width * uc.mpr:
                shortened.append(ci)
                break
    elliptic = elliptic_detect(lower, upper, below)
    hyp = (lower.genus == 0) and not shortened
    bound = genus_lower_bound(lower.t_prime, degree, u_counts, p)
    return LevelComparison(
        lower_index=lower_index, upper_index=upper_index, degree=degree,
        u_counts=u_counts, t_prime_lower=lower.t_prime, bound=bound, bound_hypotheses_met=hyp,
        elliptic_ramification=elliptic, shortened_cusps=shortened,
        genus_upper=upper.genus)


def elliptic_detect(lower, upper, below: dict[tuple, tuple]) -> bool:
    low0, low1 = set(lower.gamma0_fixed), set(lower.gamma1_fixed)
    up0, up1 = set(upper.gamma0_fixed), set(upper.gamma1_fixed)
    for t, img in below.items():
        if img in low0 and t not in up0:
            return True
        if img in low1 and t not in up1:
            return True
    return False
