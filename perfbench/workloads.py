"""The benchmark's workloads: their `mt` command lines, their inputs, and the
checks that their reports are right.

The checks use only values that mtower does not compute: the classical
formulas for the modular curves behind the odd dihedral towers, known facts
about the A5 and A4 covers, and a permutation BFS of the benchmark's own.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

GROUP_FILE = "sl2_11.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]        # `mt` arguments, without --report and --cache
    check: Callable[[Path], list[str]]   # report dir -> problems found

    def mt_args(self, inputs: Path) -> list[str]:
        return [a.replace("{inputs}", str(inputs)) for a in self.args]


# -- inputs ---------------------------------------------------------------------


def sl2_generators(p: int) -> list[list[int]]:
    """Images of [[1,1],[0,1]] and [[0,-1],[1,0]] acting on the right of the
    nonzero row vectors of F_p^2, points numbered from 0."""
    pts = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    idx = {v: i for i, v in enumerate(pts)}

    def image(a, b, c, d):
        return [idx[((x * a + y * c) % p, (x * b + y * d) % p)] for x, y in pts]

    return [image(1, 1, 0, 1), image(0, p - 1, 1, 0)]


def cycle_text(images: list[int]) -> str:
    """Disjoint-cycle notation with 1-based points, as `mt` reads it."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = images[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = images[j]
        if len(cyc) > 1:
            out.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) or "()"


def write_inputs(inputs: Path, seed: int) -> None:
    """Write the workloads' input files.

    The seed relabels the points of the SL(2,11) group file, so each seed
    gives `mt gcomplete` an isomorphic group in different notation.  mtower
    numbers group elements by a BFS over generator words, which a relabeling
    of points leaves alone, so the work done and the checks do not depend on
    the seed.  The other three workloads read builtin groups by name, and
    the seed does not change them.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    gens = sl2_generators(11)
    sigma = list(range(len(gens[0])))
    random.Random(seed).shuffle(sigma)
    lines = [f"# SL(2,11) on the 120 nonzero vectors of F_11^2, seed {seed}"]
    for g in gens:
        relabeled = [0] * len(g)
        for i, j in enumerate(g):
            relabeled[sigma[i]] = sigma[j]
        lines.append(cycle_text(relabeled))
    (inputs / GROUP_FILE).write_text("\n".join(lines) + "\n")


# -- independent reference values -------------------------------------------------


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def modular_curve(N: int) -> dict:
    """Index, cusp widths and genus of the level-N modular curve that the
    odd dihedral tower shadows (odd N >= 5, no elliptic points):
    index N^2/2 prod_{q|N}(1 - 1/q^2); phi(d) phi(N/d)/2 cusps of width N/d
    for each divisor d; genus 1 + index/12 - cusps/2."""
    index = N * N
    for q in range(2, N + 1):
        if N % q == 0 and all(q % r for r in range(2, q)):
            index = index * (q * q - 1) // (q * q)
    index //= 2
    widths = []
    for d in range(1, N + 1):
        if N % d == 0:
            widths += [N // d] * (_phi(d) * _phi(N // d) // 2)
    genus = (12 + index - 6 * len(widths)) // 12
    return {"index": index, "cusp_widths": sorted(widths), "genus": genus}


def parse_cycles(text: str, degree: int) -> list[int]:
    images = list(range(degree))
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        pts = [int(t) - 1 for t in chunk.strip("()").replace(",", " ").split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def generated_order(gens: list[list[int]]) -> int:
    """Order of the permutation group the generators generate, by BFS."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    queue = [ident]
    for cur in queue:
        for g in gens:
            nxt = tuple(g[i] for i in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


# -- report checks ------------------------------------------------------------------


def _load(report: Path, name: str):
    return json.loads((report / name).read_text())


def _check_levels(report: Path, top: int) -> tuple[list[dict], list[str]]:
    """The levels 0..top of a `level`/`dihedral` report, and the problems
    with its files: each must be present, and each orbit dump must hold as
    many entries as its component's orbit size."""
    names = {"components.json"}
    for k in range(top + 1):
        names |= {f"orbits_L{k}.json", f"sh_incidence_L{k}.csv"}
    missing = sorted(names - {f.name for f in report.iterdir()})
    if missing:
        return [], [f"missing report files {missing}"]
    levels = _load(report, "components.json")["levels"]
    if [lv["k"] for lv in levels] != list(range(top + 1)):
        return [], [f"levels {[lv['k'] for lv in levels]}"]
    problems = []
    for lv in levels:
        dump = _load(report, f"orbits_L{lv['k']}.json")
        sizes = [c["orbit_size"] for c in lv["components"]]
        if [len(orbit) for orbit in dump] != sizes:
            problems.append(f"L{lv['k']}: orbit dump does not match orbit sizes")
    return levels, problems


def _check_dihedral(report: Path) -> list[str]:
    levels, problems = _check_levels(report, 2)
    for lv in levels:
        k = lv["k"]
        N = 5 ** (k + 1)
        want = modular_curve(N)
        if k and lv["total_order"] != 2 * N:
            problems.append(f"L{k}: order {lv['total_order']} != {2 * N}")
        if len(lv["components"]) != 1:
            problems.append(f"L{k}: {len(lv['components'])} components, want 1")
            continue
        c = lv["components"][0]
        got = {"index": c["orbit_size"], "genus": c["genus"],
               "cusp_widths": sorted(c["cusp_widths"])}
        for key, value in want.items():
            if got[key] != value:
                problems.append(f"L{k}: {key} differs from the N={N} curve")
    return problems


def _check_a5(report: Path) -> list[str]:
    levels, problems = _check_levels(report, 1)
    if not levels:
        return problems
    genera = [sorted(c["genus"] for c in lv["components"]) for lv in levels]
    if genera[0] != [0]:
        problems.append(f"L0 genera {genera[0]}, want [0]")
    top = levels[1]
    if (top["total_order"], top["kernel_dim"]) != (1920, 5):
        problems.append(f"L1 order/kernel {top['total_order']}/{top['kernel_dim']}")
    if genera[1] != [9, 12]:
        problems.append(f"L1 genera {genera[1]}, want [9, 12]")
    return problems


def _check_schur(report: Path) -> list[str]:
    quots = _load(report, "schur.json")["quotients"]
    problems = []
    if len(quots) != 3:
        problems.append(f"{len(quots)} quotients, want 3")
    if any(q["order"] != 768 for q in quots):
        problems.append(f"orders {[q['order'] for q in quots]}, want 768")
    if sorted(q["top_type"] for q in quots) != ["K4xZ4", "Q8.Z4", "Q8xZ2"]:
        problems.append(f"top types {sorted(q['top_type'] for q in quots)}")
    abelian = [q for q in quots if q["abelian"]]
    if len(abelian) != 1 or 4 not in abelian[0]["invariants"]:
        problems.append("want exactly one abelian slice, with invariant 4")
    return problems


def _check_gcomplete(report: Path) -> list[str]:
    doc = _load(report, "gcomplete.json")
    if doc["complete"] is not False or not doc["witness"]:
        return ["SL(2,11) with 3A,5A reported complete"]
    order = generated_order([parse_cycles(t, 120) for t in doc["witness"]])
    return [] if order == 120 else [f"witness generates order {order}, want 120"]


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("a5-level1",
             ("level", "--group", "A5", "--classes", "3A,3A,3A,3A",
              "--p", "2", "--k", "1"),
             _check_a5),
    Workload("dihedral-p5-k2", ("dihedral", "--p", "5", "--k", "2"),
             _check_dihedral),
    Workload("schur-a4-k1", ("schur", "--group", "A4", "--p", "2", "--k", "1"),
             _check_schur),
    Workload("gcomplete-sl2-11",
             ("gcomplete", "--group-file", "{inputs}/" + GROUP_FILE,
              "--classes", "3A,5A", "--p", "11"),
             _check_gcomplete),
]}


def check_report(w: Workload, report: Path) -> list[str]:
    """Problems found in a cold report directory; empty when it is right."""
    try:
        return w.check(report)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable report: {type(e).__name__}: {e}"]


def check_replay(cold: Path, replay: Path) -> list[str]:
    """A replay must reproduce the cold report directory byte for byte."""
    a = {f.name: f for f in cold.iterdir()} if cold.is_dir() else {}
    b = {f.name: f for f in replay.iterdir()} if replay.is_dir() else {}
    if sorted(a) != sorted(b):
        return [f"replay files {sorted(b)} != cold files {sorted(a)}"]
    return [f"replay differs in {n}" for n in sorted(a)
            if a[n].read_bytes() != b[n].read_bytes()]
