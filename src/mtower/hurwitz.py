"""Component-level diagnostics over braid orbits: indices and genus, cusp
censuses, sh-incidence blocks, moduli flags, and level-to-level comparison
(degree, p-divisible growth, genus bound).

Everything here is combinatorial bookkeeping over the orbit data computed in
nielsen.py; no geometry is represented.  It runs on the rows of a level's
`Reducer`: an orbit comes in as its row numbers, in row order, so its
classes are positions in that order; gamma_0, gamma_1 and gamma_inf are int
permutations of them, and cycle counts, fixed points and cusps come from
their cycle labels (`perms._cycle_labels`); fibers and incidences are counted
with `np.bincount` and `np.add.at`.  A report keeps its orbit as arrays, and
makes tuples of Python ints only when its tuple fields are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import np
from .errors import MismatchedLevels, NonIntegralGenus
from .frattini import FrattiniLevel
from .groups import unique_rows
from .nielsen import NielsenSpec, Reducer, _as_tuples, _distinct, _lookup, hm_mask
from .perms import _cycle_labels


@dataclass(eq=False)
class Cusp:
    """A gamma_inf cycle: its members as rows (width, r), in row order."""
    tuples: np.ndarray
    width: int
    mpr: int
    p_divisible: bool
    hm: bool

    @property
    def members(self) -> list[tuple]:
        return _as_tuples(self.tuples)


@dataclass(eq=False)
class ComponentReport:
    """One braid orbit.  Its classes, in row (lexicographic) order, are
    `rows`, their row numbers in the reducer that numbered them, and
    `tuples` (n, r); per class, its cusp index, middle product and whether
    gamma_0 and gamma_1 fix it; `reps[c]` is the position of cusp c's least
    member.  `orbit` and the `gamma*_fixed` lists are made when read."""
    rows: np.ndarray
    tuples: np.ndarray
    cusp: np.ndarray
    mpr: np.ndarray
    fixed0: np.ndarray
    fixed1: np.ndarray
    reps: np.ndarray
    cusps: list[Cusp]
    ind0: int
    ind1: int
    indinf: int
    genus: int | None          # None for r >= 5 orbits
    t_prime: int
    b_fine: bool
    fine: bool
    q2_orbit_lengths: dict[int, list[int]]   # cusp index -> upstairs q2 lengths

    @property
    def orbit(self) -> list[tuple]:
        return _as_tuples(self.tuples)

    @property
    def gamma0_fixed(self) -> list[tuple]:
        return _as_tuples(self.tuples[self.fixed0])

    @property
    def gamma1_fixed(self) -> list[tuple]:
        return _as_tuples(self.tuples[self.fixed1])

    @property
    def size(self) -> int:
        return len(self.rows)

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


def _cycle_count(P: np.ndarray) -> int:
    """Number of cycles of a permutation of 0..n-1."""
    return int((_cycle_labels(P, steps=False)[0] == np.arange(len(P))).sum())


def component_genus(size: int, ind0: int, ind1: int, indinf: int) -> int:
    rhs = ind0 + ind1 + indinf
    if rhs % 2:
        raise NonIntegralGenus(f"index sum {rhs} is odd")
    g = rhs // 2 + 1 - size
    if g < 0:
        raise NonIntegralGenus(f"negative genus {g}")
    return g


def analyze_component(spec: NielsenSpec, rows: np.ndarray,
                      reducer: Reducer) -> ComponentReport:
    """Full report for one braid orbit, given by its row numbers into
    `reducer.rows` in row order (as `nielsen.mbar4_orbits` returns it)."""
    G = spec.group
    n = len(rows)
    pos = np.arange(n)
    P1 = reducer.orbit_pos[reducer.perm1[rows]]
    Pinf = reducer.orbit_pos[reducer.perm_inf[rows]]
    assert (reducer.orbit_label[rows] == rows[0]).all() and \
        (reducer.orbit_pos[rows] == pos).all() and (P1 < n).all() and (Pinf < n).all(), \
        "not one whole braid orbit"
    P0 = np.empty_like(P1)
    P0[Pinf[P1]] = pos
    ind0, ind1, indinf = (n - _cycle_count(P) for P in (P0, P1, Pinf))
    fixed0, fixed1 = P0 == pos, P1 == pos
    f0, f1 = int(fixed0.sum()), int(fixed1.sum())
    if reducer.r == 4:
        # cross-check against fixed-point tallies (operators have order 3 / 2)
        assert ind0 == 2 * (n - f0) // 3 and (n - f0) % 3 == 0, "gamma0 not order 3"
        assert ind1 == (n - f1) // 2 and (n - f1) % 2 == 0, "gamma1 not order 2"
        genus = component_genus(n, ind0, ind1, indinf)
    else:
        # no Klein-four reduction for r >= 5: the orbit is a shift/twist
        # orbit of inner classes and the one-dimensional genus story ends
        genus = None

    # cusps: the gamma_inf cycles, labelled by their least position and
    # ordered by (width, least member)
    label = _cycle_labels(Pinf, steps=False)[0]
    width = np.bincount(label, minlength=n)
    roots = np.flatnonzero(label == pos)
    reps = roots[np.lexsort((roots, width[roots]))]
    cusp_at = np.empty(n, dtype=np.intp)
    cusp_at[reps] = np.arange(len(reps))
    cusp = cusp_at[label]
    members = np.lexsort((pos, cusp))            # positions, cusp by cusp
    T = reducer.rows[rows]
    mpr = G.element_orders()[G.mul_many(T[:, 1], T[:, 2])]
    divisible = mpr % spec.p == 0
    if (divisible != divisible[label]).any():
        bad = label[np.flatnonzero(divisible != divisible[label])[0]]
        raise AssertionError("p-divisibility not constant along a cusp: "
                             f"{sorted(set(mpr[label == bad].tolist()))}")
    by_cusp = T[members]
    variants = reducer.variants_many(by_cusp)
    hm = np.bincount(cusp[members], weights=hm_mask(variants, G),
                     minlength=len(reps)) > 0
    ends = np.cumsum(width[reps]).tolist()
    cusps = [Cusp(tuples=by_cusp[end - w:end], width=w, mpr=m, p_divisible=d, hm=h)
             for end, w, m, d, h in zip(ends, width[reps].tolist(), mpr[reps].tolist(),
                                        divisible[reps].tolist(), hm.tolist())]
    t_prime = int(divisible[reps].sum())

    table, q2_lengths = _inner_orbit_data(variants, cusps, reducer)
    if reducer.r == 4:
        b_fine = _q2prime_faithful(table)
        fine = b_fine and f0 == 0 and f1 == 0
    else:
        b_fine = fine = None
    return ComponentReport(
        rows=rows, tuples=T, cusp=cusp, mpr=mpr, fixed0=fixed0, fixed1=fixed1,
        reps=reps, cusps=cusps, ind0=ind0, ind1=ind1, indinf=indinf, genus=genus,
        t_prime=t_prime, b_fine=b_fine, fine=fine, q2_orbit_lengths=q2_lengths)


def _inner_orbit_data(variants: np.ndarray, cusps, reducer: Reducer):
    """Pullback of the orbit to inner classes, plus q2 cycle lengths per cusp.

    `variants` holds the Klein variants of the cusps' members in cusp order
    (`Reducer.variants_many`).  Returns the table of their inner canonical
    forms, same shape, and the q2 lengths.  Two batch calls: one for every
    variant, one for the q2 image of every inner class; q2 permutes the
    inner classes, and its cycles come from their cycle labels.
    """
    n, k, r = variants.shape
    table = reducer.canonical_inner_many(variants.reshape(-1, r)).reshape(n, k, r)
    inner, inner_keys, where = _distinct(table.reshape(-1, r), reducer.keys(table))
    # an inner class lies over one reduced class, hence in one cusp
    cusp_of = np.empty(len(inner), dtype=np.intp)
    cusp_of[where] = np.repeat(
        np.arange(len(cusps)), [k * c.width for c in cusps])
    images = reducer.canonical_inner_many(reducer.gamma_inf_raw_many(inner))
    step = _lookup(inner_keys, reducer.keys(images))
    assert (step < len(inner)).all(), "q2 leaves the inner classes over the orbit"
    assert (np.bincount(step, minlength=len(inner)) == 1).all(), \
        "q2 does not permute the inner classes over the orbit"
    label = _cycle_labels(step, steps=False)[0]
    roots = np.flatnonzero(label == np.arange(len(inner)))
    length = np.bincount(label, minlength=len(inner))[roots]
    where_cusp = cusp_of[roots]
    length = length[np.lexsort((length, where_cusp))]
    ends = np.cumsum(np.bincount(where_cusp, minlength=len(cusps)))
    return table, {ci: part.tolist() for ci, part in enumerate(np.split(length, ends[:-1]))}


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
        """The matrix under a header row of cusp labels, each row formatted
        from its own list of ints, so no str array of the matrix is made."""
        return "\n".join(["," + ",".join(self.labels)] +
                         [lab + "," + ",".join(map(str, row.tolist()))
                          for lab, row in zip(self.labels, self.matrix)]) + "\n"


def sh_incidence(reports: list[ComponentReport], reducer: Reducer) -> ShIncidence:
    """|sh(O_i) cap O_j| over all cusps of all components of a level.

    Counted by `np.add.at` over (cusp of t, cusp of gamma_1 t).  The
    diagonal blocks are the components' cusps: gamma_1 never leaves a braid
    orbit, which is checked; for r = 4 the matrix is symmetric.  The
    reports' row numbers must be `reducer`'s, which is checked too.
    """
    assert all(rep.rows[-1] < len(reducer.rows) and
               np.array_equal(reducer.rows[rep.rows], rep.tuples) for rep in reports), \
        "the reports' rows are not the reducer's"
    counts = [len(rep.cusps) for rep in reports]
    k = sum(counts)
    comp_of = np.repeat(np.arange(len(reports)), counts)
    rows = np.concatenate([rep.rows for rep in reports])
    cusp = np.concatenate([offset + rep.cusp for offset, rep in
                           zip(np.cumsum([0, *counts]).tolist(), reports)])
    cusp_of_row = np.full(len(reducer.rows), -1)
    cusp_of_row[rows] = cusp
    j = cusp_of_row[reducer.perm1[rows]]
    i, j = cusp[j >= 0], j[j >= 0]
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (i, j), 1)
    symmetric = bool((matrix == matrix.T).all())
    if reducer.r == 4 and not symmetric:
        raise AssertionError("sh-incidence not symmetric for r = 4")
    assert (comp_of[i] == comp_of[j]).all(), "sh-incidence block crosses component boundary"
    ends = np.cumsum(counts).tolist()
    blocks = [list(range(end - c, end)) for end, c in zip(ends, counts)]
    labels = [f"O{ri + 1}.{ci + 1}" for ri, c in enumerate(counts) for ci in range(c)]
    return ShIncidence(labels, matrix, blocks, comp_of.tolist(), symmetric)


# -- level comparison ---------------------------------------------------------------


@dataclass
class LevelComparison:
    lower_index: int
    upper_index: int
    degree: int
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
    # a fiber's classes project onto few raw tuples: canonicalize each once,
    # and find its position in the lower orbit by its row number (the orbit
    # is in row order)
    raw, _, which = unique_rows(L.proj[upper.tuples])
    at = _lookup(lower.rows, lower_reducer.find(lower_reducer.canonical_many(raw)))
    if (at == lower.size).any():
        raise MismatchedLevels("upper class does not project into lower orbit")
    below = at[which]                            # upper position -> lower position
    fiber = np.bincount(below, minlength=lower.size)
    assert (fiber == fiber[0]).all(), f"fiber size not constant: {sorted(set(fiber.tolist()))}"
    degree = int(fiber[0])
    assert degree * lower.size == upper.size

    # mpr multiplies by p over p-divisible lower cusps
    p = L.p
    over = np.array([c.p_divisible for c in lower.cusps], dtype=bool)[lower.cusp[below]]
    assert (upper.mpr[over] == p * lower.mpr[below[over]]).all(), \
        "mpr did not multiply by p over a p-divisible cusp"

    # U_i = number of p-divisible cusps of the upper orbit over the i-th
    # non-divisible lower cusp (each upper cusp projects into one lower cusp)
    under = lower.cusp[below[upper.reps]]        # upper cusp -> lower cusp
    k = len(lower.cusps)
    up_div = np.array([uc.p_divisible for uc in upper.cusps], dtype=bool)
    divisible_above = np.bincount(under[up_div], minlength=k).tolist()
    u_counts = [divisible_above[ci] for ci, c in enumerate(lower.cusps)
                if not c.p_divisible]

    # shortening from the lower level to the upper one: a cusp is flagged
    # when some cusp above it has width growth different from its middle
    # product growth (a Q''-folding present at one level but not the other)
    width = np.array(lower.cusp_widths, dtype=np.int64)
    up_width = np.array(upper.cusp_widths, dtype=np.int64)
    mpr = lower.mpr[lower.reps].astype(np.int64)
    up_mpr = upper.mpr[upper.reps].astype(np.int64)
    folded = up_width * mpr[under] != width[under] * up_mpr
    shortened = np.flatnonzero(np.bincount(under[folded], minlength=k)).tolist()
    elliptic = elliptic_detect(lower, upper, below)
    hyp = (lower.genus == 0) and not shortened
    bound = genus_lower_bound(lower.t_prime, degree, u_counts, p)
    return LevelComparison(
        lower_index=lower_index, upper_index=upper_index, degree=degree,
        u_counts=u_counts, t_prime_lower=lower.t_prime, bound=bound, bound_hypotheses_met=hyp,
        elliptic_ramification=elliptic, shortened_cusps=shortened,
        genus_upper=upper.genus)


def elliptic_detect(lower: ComponentReport, upper: ComponentReport,
                    below: np.ndarray) -> bool:
    """Elliptic ramification: a gamma_0 (resp gamma_1) fixed point downstairs
    with a non-fixed class above it.  `below[i]` is the position in the
    lower orbit under position i of the upper one."""
    return bool(((lower.fixed0[below] & ~upper.fixed0) |
                 (lower.fixed1[below] & ~upper.fixed1)).any())


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
