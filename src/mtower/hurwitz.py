"""Component-level diagnostics over braid orbits: indices and genus, cusp
censuses, sh-incidence blocks, moduli flags, and level-to-level comparison
(degree, p-divisible growth, genus bound).

Everything here is combinatorial bookkeeping over the orbit data computed in
nielsen.py; no geometry is represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import np
from .errors import MismatchedLevels, NonIntegralGenus
from .frattini import FrattiniLevel
from .groups import unique_rows
from .nielsen import (NielsenSpec, Reducer, gamma_inf_orbits, hm_mask,
                      middle_product)


@dataclass
class Cusp:
    members: list[tuple]
    width: int
    mpr: int
    p_divisible: bool
    hm: bool

    @property
    def rep(self) -> tuple:
        return self.members[0]


@dataclass
class ComponentReport:
    orbit: list[tuple]
    cusps: list[Cusp]
    ind0: int
    ind1: int
    indinf: int
    genus: int | None          # None for r >= 5 orbits
    t_prime: int
    gamma0_fixed: list[tuple]
    gamma1_fixed: list[tuple]
    b_fine: bool
    fine: bool
    q2_orbit_lengths: dict[int, list[int]]   # cusp index -> upstairs q2 lengths

    @property
    def size(self) -> int:
        return len(self.orbit)

    @property
    def cusp_widths(self) -> list[int]:
        return [c.width for c in self.cusps]

    def to_dict(self) -> dict:
        return {
            "orbit_size": self.size,
            "cusp_widths": self.cusp_widths,
            "ind0": self.ind0,
            "ind1": self.ind1,
            "indinf": self.indinf,
            "genus": self.genus,
            "t_prime": self.t_prime,
            "hm_cusps": [i for i, c in enumerate(self.cusps) if c.hm],
            "b_fine": self.b_fine,
            "fine": self.fine,
        }


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


def component_genus(size: int, ind0: int, ind1: int, indinf: int) -> int:
    rhs = ind0 + ind1 + indinf
    if rhs % 2:
        raise NonIntegralGenus(f"index sum {rhs} is odd")
    g = rhs // 2 + 1 - size
    if g < 0:
        raise NonIntegralGenus(f"negative genus {g}")
    return g


def analyze_component(spec: NielsenSpec, orbit: list[tuple],
                      reducer: Reducer) -> ComponentReport:
    """Full report for one braid orbit of reduced classes."""
    G = spec.group
    n = len(orbit)
    idx = {t: i for i, t in enumerate(orbit)}
    P1 = [idx[reducer.gamma1(t)] for t in orbit]
    Pinf = [idx[reducer.gamma_inf(t)] for t in orbit]
    comp = [Pinf[P1[i]] for i in range(n)]
    P0 = [0] * n
    for i, j in enumerate(comp):
        P0[j] = i
    ind0 = n - _perm_cycles(P0)
    ind1 = n - _perm_cycles(P1)
    indinf = n - _perm_cycles(Pinf)
    f0 = len(_fixed_points(P0))
    f1 = len(_fixed_points(P1))
    if reducer.r == 4:
        # cross-check against fixed-point tallies (operators have order 3 / 2)
        assert ind0 == 2 * (n - f0) // 3 and (n - f0) % 3 == 0, "gamma0 not order 3"
        assert ind1 == (n - f1) // 2 and (n - f1) % 2 == 0, "gamma1 not order 2"
        genus = component_genus(n, ind0, ind1, indinf)
    else:
        # no Klein-four reduction for r >= 5: the orbit is a shift/twist
        # orbit of inner classes and the one-dimensional genus story ends
        genus = None

    cusp_lists = gamma_inf_orbits(orbit, reducer)
    rows = [t for members in cusp_lists for t in members]
    variants = reducer.variants_many(np.array(rows))
    hm = dict(zip(rows, hm_mask(variants, G).tolist()))
    cusps = []
    for members in cusp_lists:
        mprs = {middle_product(t, G) for t in members}
        divs = {m % spec.p == 0 for m in mprs}
        assert len(divs) == 1, \
            f"p-divisibility not constant along a cusp: {sorted(mprs)}"
        cusps.append(Cusp(
            members=members, width=len(members),
            mpr=middle_product(members[0], G),
            p_divisible=(middle_product(members[0], G) % spec.p == 0),
            hm=any(hm[t] for t in members)))
    assert sum(c.width for c in cusps) == n
    t_prime = sum(1 for c in cusps if c.p_divisible)

    table, q2_lengths = _inner_orbit_data(variants, cusps, reducer)
    if reducer.r == 4:
        b_fine = _q2prime_faithful(table)
        fine = b_fine and f0 == 0 and f1 == 0
    else:
        b_fine = fine = None
    return ComponentReport(
        orbit=orbit, cusps=cusps, ind0=ind0, ind1=ind1, indinf=indinf,
        genus=genus, t_prime=t_prime,
        gamma0_fixed=[orbit[i] for i in _fixed_points(P0)],
        gamma1_fixed=[orbit[i] for i in _fixed_points(P1)],
        b_fine=b_fine, fine=fine, q2_orbit_lengths=q2_lengths)


def _inner_orbit_data(variants: np.ndarray, cusps, reducer: Reducer):
    """Pullback of the orbit to inner classes, plus q2 cycle lengths per cusp.

    `variants` holds the Klein variants of the cusps' members in cusp order
    (`Reducer.variants_many`).  Returns the table of their inner canonical
    forms, same shape, and the q2 lengths.  Two batch calls: one for every
    variant, one for the q2 image of every inner class.
    """
    n, k, r = variants.shape
    table = reducer.canonical_inner_many(variants.reshape(-1, r)).reshape(n, k, r)
    # an inner class lies over one reduced class, hence in one cusp
    inner, first, _ = unique_rows(table.reshape(-1, r))
    cusp_of = np.repeat(np.arange(len(cusps)), [len(c.members) for c in cusps])
    cusp_of = cusp_of[first // k].tolist()
    images = reducer.canonical_inner_many(reducer.gamma_inf_raw_many(inner))
    both, _, where = unique_rows(np.vstack([inner, images]))
    assert len(both) == len(inner), "q2 leaves the inner classes over the orbit"
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


def _q2prime_faithful(table: np.ndarray) -> bool:
    """Is the Klein four group faithful on the inner classes over the orbit?

    Column j of `table` holds variant j of a reduced class, so the q13, sh^2
    and both images of that entry sit in columns j^1, j^2 and j^3.
    """
    return all((table != table[:, [j ^ g for j in range(4)]]).any()
               for g in (1, 2, 3))


def shortening_detect(report: ComponentReport) -> list[int]:
    """Cusp indices where some q2 orbit upstairs is longer than the width."""
    out = []
    for ci, c in enumerate(report.cusps):
        if any(length > c.width for length in report.q2_orbit_lengths[ci]):
            out.append(ci)
    return out


@dataclass
class ShIncidence:
    labels: list[str]
    matrix: np.ndarray
    blocks: list[list[int]]          # cusp indices per diagonal block
    component_of: list[int]          # cusp index -> component index
    symmetric: bool

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.labels)]
        for i, lab in enumerate(self.labels):
            lines.append(lab + "," + ",".join(str(int(x)) for x in self.matrix[i]))
        return "\n".join(lines) + "\n"


def sh_incidence(reports: list[ComponentReport], reducer: Reducer) -> ShIncidence:
    """|sh(O_i) cap O_j| over all cusps of all components of a level.

    Diagonal blocks (connected components of the nonzero pattern) must
    reproduce the braid-orbit partition; for r = 4 the matrix is symmetric.
    """
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
            j = member_of.get(reducer.gamma1(t))
            if j is not None:
                matrix[i, j] += 1
    symmetric = bool((matrix == matrix.T).all())
    if reducer.r == 4 and not symmetric:
        raise AssertionError("sh-incidence not symmetric for r = 4")
    # blocks by union-find over the nonzero pattern
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
        comps = {comp_of[i] for i in block}
        assert len(comps) == 1, "sh-incidence block crosses component boundary"
    assert len(blocks) == len(reports), "block count != component count"
    labels = []
    for ri, rep in enumerate(reports):
        for ci in range(len(rep.cusps)):
            labels.append(f"O{ri + 1}.{ci + 1}")
    return ShIncidence(labels, matrix, blocks, comp_of, symmetric)


# -- level comparison ---------------------------------------------------------------


@dataclass
class LevelComparison:
    lower_index: int
    upper_index: int
    degree: int
    fiber_sizes: dict[tuple, int]
    u_counts: list[int]                  # per non-divisible lower cusp
    t_prime_lower: int
    bound: Fraction
    bound_hypotheses_met: bool
    elliptic_ramification: bool
    shortened_cusps: list[int]
    genus_upper: int

    def to_dict(self) -> dict:
        return {
            "lower": self.lower_index,
            "upper": self.upper_index,
            "degree": self.degree,
            "t_prime_lower": self.t_prime_lower,
            "u_counts": self.u_counts,
            "bound": [self.bound.numerator, self.bound.denominator],
            "bound_hypotheses_met": self.bound_hypotheses_met,
            "elliptic_ramification": self.elliptic_ramification,
            "shortened_cusps": self.shortened_cusps,
            "genus_upper": self.genus_upper,
        }


def genus_lower_bound(t_prime: int, degree: int, u_counts, p: int) -> Fraction:
    """((p-1)/2p * t' - 1) deg + 1 + (p-1)/2 * sum U_i."""
    return (Fraction(p - 1, 2 * p) * t_prime - 1) * degree + 1 + \
        Fraction(p - 1, 2) * sum(u_counts)


def level_compare(lower: ComponentReport, upper: ComponentReport,
                  L: FrattiniLevel, lower_reducer: Reducer,
                  lower_index: int = 0, upper_index: int = 0) -> LevelComparison:
    """Degree, fibers, p-divisible counts and the genus bound for one pair of
    components on consecutive levels."""
    lower_set = {t: i for i, t in enumerate(lower.orbit)}
    fiber: dict[tuple, int] = {t: 0 for t in lower.orbit}
    below: dict[tuple, tuple] = {}
    # a fiber's classes project onto few raw tuples: canonicalize each once
    raw, _, which = unique_rows(L.proj[np.array(upper.orbit)])
    canon = list(map(tuple, lower_reducer.canonical_many(raw).tolist()))
    for t, w in zip(upper.orbit, which.tolist()):
        img = canon[w]
        if img not in lower_set:
            raise MismatchedLevels("upper class does not project into lower orbit")
        below[t] = img
        fiber[img] += 1
    sizes = set(fiber.values())
    assert len(sizes) == 1, f"fiber size not constant: {sorted(sizes)}"
    degree = sizes.pop()
    assert degree * lower.size == upper.size

    lower_cusp_of: dict[tuple, int] = {}
    for ci, c in enumerate(lower.cusps):
        for t in c.members:
            lower_cusp_of[t] = ci

    # mpr multiplies by p over p-divisible lower cusps
    p = L.p
    G1 = L.total
    Gb = L.base
    for t in upper.orbit:
        if lower.cusps[lower_cusp_of[below[t]]].p_divisible:
            assert middle_product(t, G1) == p * middle_product(below[t], Gb), \
                "mpr did not multiply by p over a p-divisible cusp"

    # U_i = number of p-divisible cusps of the upper orbit over the i-th
    # non-divisible lower cusp (each upper cusp projects into one lower cusp)
    above: dict[int, list] = {ci: [] for ci in range(len(lower.cusps))}
    for uc in upper.cusps:
        above[lower_cusp_of[below[uc.rep]]].append(uc)
    u_counts = [sum(1 for uc in above[ci] if uc.p_divisible)
                for ci, c in enumerate(lower.cusps) if not c.p_divisible]

    # shortening from the lower level to the upper one: a cusp is flagged
    # when some cusp above it has width growth different from its middle
    # product growth (a Q''-folding present at one level but not the other)
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
        fiber_sizes=fiber, u_counts=u_counts, t_prime_lower=lower.t_prime,
        bound=bound, bound_hypotheses_met=hyp,
        elliptic_ramification=elliptic, shortened_cusps=shortened,
        genus_upper=upper.genus)


def elliptic_detect(lower: ComponentReport, upper: ComponentReport,
                    below: dict[tuple, tuple]) -> bool:
    """Elliptic ramification: a gamma_0 (resp gamma_1) fixed point downstairs
    with a non-fixed class above it."""
    low0 = set(lower.gamma0_fixed)
    low1 = set(lower.gamma1_fixed)
    up0 = set(upper.gamma0_fixed)
    up1 = set(upper.gamma1_fixed)
    for t, img in below.items():
        if img in low0 and t not in up0:
            return True
        if img in low1 and t not in up1:
            return True
    return False


def check_goup(cmp: LevelComparison) -> str:
    """Verdict for the genus bound: 'equality', 'bound-holds', or
    'hypotheses-unmet' (bound only informational)."""
    if not cmp.bound_hypotheses_met:
        return "hypotheses-unmet"
    if cmp.bound > cmp.genus_upper:
        raise AssertionError(
            f"genus bound {cmp.bound} exceeds actual genus {cmp.genus_upper}")
    if not cmp.elliptic_ramification:
        if Fraction(cmp.genus_upper) != cmp.bound:
            raise AssertionError(
                f"equality expected: bound {cmp.bound}, genus {cmp.genus_upper}")
        return "equality"
    return "bound-holds"


def moduli_tests(report: ComponentReport) -> dict:
    return {"b_fine": report.b_fine, "fine": report.fine}


def cusp_census(report: ComponentReport) -> tuple[int, list[int], list[bool]]:
    """(number of p-divisible cusps, widths, H-M flags) of one component."""
    return (report.t_prime, [c.width for c in report.cusps],
            [c.hm for c in report.cusps])
