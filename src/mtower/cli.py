"""Batch driver: build cover levels, run braid-orbit analyses, emit reports.

Commands
  mt level           components/cusps/genus for (group, classes, p) at level k
  mt dihedral        the odd-prime dihedral tower shadow
  mt schur           Z/p Schur quotients and their kernel slices
  mt gcomplete       class-completeness verdicts
  mt frattini-verify cover properties of the constructed level

Exit codes: 0 ok, 2 budget/input (or an I/O error while the report is
written or replayed), 3 empty Nielsen class, 4 internal invariant violation.
A closed stdout ends the output, not the job (_print).

Every report, computed or replayed, has one writer, `cache.publish`: it is
published all or nothing, and the report files of earlier jobs are removed
from --report.  Unusable --report or --cache paths are refused first.

A cache hit runs only this module, `cache` and `errors`.  The analysis
modules are bound lazily, and their functions are called through their
module (`nielsen.mbar4_orbits`): a top-level `from .nielsen import ...`
would load the module on every hit.  A miss loads numpy and the
command's own modules (and its group source's) before it builds anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from math import isqrt
from pathlib import Path
from typing import Callable

from . import _lazy_module, np
from . import cache as cache_mod
from .errors import (BudgetError, CorruptCache, EmptyNielsenClass, InputError,
                     InvariantViolation, MTError, NotPPrime, TooLarge)

fp = _lazy_module("mtower.fp")
frattini = _lazy_module("mtower.frattini")
gcomplete = _lazy_module("mtower.gcomplete")
gmodules = _lazy_module("mtower.gmodules")
groups = _lazy_module("mtower.groups")
hurwitz = _lazy_module("mtower.hurwitz")
la = _lazy_module("mtower.linalg")
nielsen = _lazy_module("mtower.nielsen")
perms = _lazy_module("mtower.perms")
schur = _lazy_module("mtower.schur")
# The analysis modules a cover level's build runs, and with them those of
# a braid-orbit job (level, dihedral)
COVER_MODULES = (fp, frattini, gmodules, groups, la, perms)
LEVEL_MODULES = COVER_MODULES + (hurwitz, nielsen)

VERSION = 6
_DUMP_CHARS = 1 << 20       # orbit-dump text formatted per block, at most


def label_classes(G: groups.FiniteGroup) -> list[str]:
    """Element order, then place among that order's classes: A..Z, AA, AB, ..."""
    labels = []
    seen: dict[int, int] = {}
    for cl in G.conjugacy_classes():
        n = seen.get(cl.element_order, 0)
        seen[cl.element_order] = n + 1
        letters = ""
        while n >= 0:
            n, r = divmod(n, 26)
            letters, n = chr(ord("A") + r) + letters, n - 1
        labels.append(f"{cl.element_order}{letters}")
    return labels


def class_id(G: groups.FiniteGroup, label: str) -> int:
    labels = label_classes(G)
    if label not in labels:
        raise InputError(f"unknown class label {label!r}; have {labels}")
    return labels.index(label)


def _read_group_input(path: str, parse) -> tuple[str, Callable]:
    """(sha256 of the file's bytes, a function that parses them); files
    that are unreadable, undecodable or malformed raise an InputError that
    names the file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise InputError(f"{path}: {e}") from e

    def parsed():
        try:
            return parse(raw.decode())
        except (ValueError, InputError) as e:
            raise InputError(f"{path}: {e}") from e

    return hashlib.sha256(raw).hexdigest(), parsed


def group_input(args) -> tuple[str, Callable[[], tuple[groups.FiniteGroup, str]],
                               tuple]:
    """(the group's name in cache keys, a function that builds the group
    and returns it with its name in reports, the analysis modules that
    build runs).  The key needs no build, so a cache hit never builds the
    group: a builtin is keyed by its name, a group read from a file by the
    file's name and the sha256 of its bytes."""
    if args.group_file is not None:
        digest, generators = _read_group_input(
            args.group_file, lambda text: perms.parse_group_file(text))
        desc = f"file:{Path(args.group_file).name}"

        def build_file_group():
            G = groups.FiniteGroup(generators(), max_order=args.budget_elements,
                                   name="file-group")
            return G, f"{desc}:{G.order}"
        return f"{desc}:{digest}", build_file_group, (groups, perms)
    if args.presentation_file is not None:
        digest, presentation = _read_group_input(
            args.presentation_file, lambda text: fp.parse_presentation(text))
        desc = f"pres:{Path(args.presentation_file).name}"

        def build_presented_group():
            P = presentation()
            G = fp.coset_group(fp.todd_coxeter(P, (), args.budget_cosets),
                               max_order=args.budget_elements, name="presented-group")
            G.presentation = P
            return G, f"{desc}:{G.order}"
        return f"{desc}:{digest}", build_presented_group, (fp, groups, perms)
    name = args.group.upper()
    if not (m := re.fullmatch(r"A4|A5|K4|([DZ])(\d+)", name)):
        raise InputError(f"unknown group {args.group!r}; builtins: A4 A5 K4 Dn Zn")

    def build_builtin():
        if m[1]:
            G = (groups.dihedral_group if m[1] == "D" else groups.cyclic_group)(int(m[2]))
        else:
            G = (groups.klein_four() if name == "K4"
                 else groups.alternating_group(int(name[1])))
        return G, name
    return name, build_builtin, (groups, perms)


def check_coverable(G: groups.FiniteGroup, p: int) -> None:
    """Reject, before any build, a group that has no p-Frattini cover to
    build: p must divide |G| and G must be p-perfect."""
    if G.order % p:
        raise InputError(f"cover stage: p = {p} does not divide |G| = {G.order}")
    if not groups.is_p_perfect(G, p):
        raise InputError(f"cover stage: G is not {p}-perfect "
                         f"(G/[G,G] has order {G.abelianization_order()})")


def _takes_dihedral_form(G: groups.FiniteGroup, p: int) -> bool:
    """Does G take the dihedral closed form: p odd, |G| = 2 * degree with p
    dividing the degree, and G acting as the standard D_n on its n points?
    Every later base of such a tower is a standard dihedral group."""
    if p < 3 or G.order != 2 * G.degree or G.degree % p:
        return False
    try:
        frattini._dihedral_codes(G, G.degree)
    except AssertionError:
        return False
    return True


def build_level(G: groups.FiniteGroup, p: int) -> frattini.FrattiniLevel:
    """One cover level over G, route chosen by structure: the dihedral
    closed form, else G extended by its Frattini module (general_level)."""
    if _takes_dihedral_form(G, p):
        return frattini.dihedral_step(G, p)
    return frattini.general_level(G, p).level


def run_level_analysis(G: groups.FiniteGroup, gdesc: str, class_labels: list[str],
                       p: int, k: int, budget_elements: int) -> dict:
    """The files of the level-k report for _emit: components.json, and per
    level its sh-incidence CSV and its orbit dump (_dump_files).

    Level 0 is enumerated outright; higher levels are seeded by lifting one
    representative per lower orbit through the cover, which reaches every
    orbit upstairs: a level-0 orbit has lifts over all of its members or
    over none, and each entry is lifted within the lift of its own class.
    Each level is checked Frattini (verify_frattini) before its lifts are
    trusted to generate, and each of its components is compared with the
    one component under it (_components_below).
    """
    ids = tuple(class_id(G, lab) for lab in class_labels)
    classes = G.conjugacy_classes()
    for lab, ci in zip(class_labels, ids):
        if classes[ci].element_order % p == 0:
            raise NotPPrime(f"Nielsen class: {lab} has order divisible by p = {p}")
    payload = {
        "group": gdesc,
        "order": G.order,
        "p": p,
        "classes": class_labels,
        "class_label_map": {lab: i for i, lab in
                            enumerate(label_classes(G)) if lab in class_labels},
        "levels": [],
        "comparisons": [],
    }
    files = {"components.json": payload}
    group, lower = G, None          # lower: the level below's spec, reducer, reports
    for step in range(k + 1):
        level = {"k": step}
        if lower is None:
            spec = nielsen.NielsenSpec(G, ids, p)
            reducer = nielsen.Reducer(spec)
            seeds = nielsen.enumerate_reduced(spec, budget=budget_elements,
                                              reducer=reducer)
            if not len(seeds):
                raise EmptyNielsenClass(f"Ni({gdesc}, {class_labels}) is empty")
        else:
            L = build_level(group, p)
            if not frattini.verify_frattini(L):
                raise InvariantViolation("constructed level is not a Frattini cover")
            group = L.total
            spec = nielsen.lifted_spec(L, lower[0])
            reducer = nielsen.Reducer(spec)
            # the fibers over classes of distinct orbits are disjoint
            seeds = np.vstack([nielsen.lift_tuples(
                L, rep.tuples[0], spec, reducer, frattini_verified=True,
                budget=budget_elements) for rep in lower[2]])
            if not len(seeds):
                raise EmptyNielsenClass(f"nothing lies over level {step - 1}")
            level.update(total_order=group.order, kernel_dim=L.kernel_dim)
        reports = [hurwitz.analyze_component(spec, orb, reducer)
                   for orb in nielsen.mbar4_orbits(spec, seeds, reducer)]
        level["components"] = [r.to_dict() for r in reports]
        payload["levels"].append(level)
        files[f"sh_incidence_L{step}.csv"] = hurwitz.sh_incidence(
            reports, reducer).to_csv()
        files.update(_dump_files(step, group, [r.tuples for r in reports]))
        for li, ui in _components_below(L, lower, reports) if lower else []:
            cmp = hurwitz.level_compare(lower[2][li], reports[ui], L, lower[1], li, ui)
            d = cmp.to_dict()
            d["verdict"] = hurwitz.check_goup(cmp)
            d["level"] = step
            payload["comparisons"].append(d)
        lower = (spec, reducer, reports)
    return files


def _components_below(L: frattini.FrattiniLevel, lower, reports) -> list[tuple[int, int]]:
    """(lower, upper) component pairs, sorted: under each upper component the
    lower one whose braid orbit holds the projection of its first class
    (the lower reducer's orbit_label; the braid action commutes with proj)."""
    _, red, below = lower
    rows = red.find(red.canonical_many(L.proj[[rep.tuples[0] for rep in reports]]))
    if (rows < 0).any():
        raise InvariantViolation("comparison stage: a class projects outside the level below")
    least = np.array([rep.rows[0] for rep in below])
    lis = np.argmax(red.orbit_label[rows][:, None] == least, axis=1)
    return sorted(zip(lis.tolist(), range(len(reports))))


# The names of report files: the stale ones are removed from --report
REPORT_NAME = (r"components\.json|(elements|orbits)_L\d+\.json|sh_incidence_L\d+\.csv"
               r"|(schur|gcomplete|frattini)\.json")


def _print(text: str, err: bool = False) -> None:
    """print(text) to stdout, or to stderr if `err`, flushed at once so that
    a reader that has gone shows here (BrokenPipeError).  The stream is then
    pointed at os.devnull: the rest of its output is dropped, no later print
    or the flush at exit fails, and the job ends with its own exit code."""
    stream = sys.stderr if err else sys.stdout
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _io_error(stage: str, path: Path, e: OSError) -> BudgetError:
    """The error (exit 2) for an OSError at `stage` of the report `path`."""
    return BudgetError(f"{stage} stage: {e.filename or path}: {e.strerror or e}")


def _sized(files: dict) -> dict:
    """name -> (its bytes, a function that writes it to a text file) of each
    report file in `files`: text, a dict written as JSON, or a dump file of
    _dump_files, which is such a pair already."""
    sized = {}
    for name, body in files.items():
        if isinstance(body, dict):
            body = json.dumps(body, sort_keys=True, indent=2) + "\n"
        if isinstance(body, str):
            body = len(body.encode()), lambda fh, text=body: fh.write(text)
        sized[name] = body
    return sized


def _emit(files: dict, report_dir: Path) -> list[str]:
    """Publish the report `files` (as for _sized) all or nothing; the names
    of its files.  Sized before any file opens, a report past
    MEMORY_CEILING bytes is refused (exit 2) with nothing written."""
    sized = _sized(files)
    total = sum(nbytes for nbytes, _ in sized.values())
    # only a level job writes dumps, and it has loaded frattini
    if any(isinstance(b, tuple) for b in files.values()) and \
            total > frattini.MEMORY_CEILING:
        raise TooLarge(f"emission stage: the report's {len(sized)} files need "
                       f"{total:,} bytes, past MEMORY_CEILING = "
                       f"{frattini.MEMORY_CEILING:,} bytes")
    try:
        with cache_mod.publish(report_dir) as staging:
            for name, (_, write) in sized.items():
                with open(staging / name, "w") as fh:
                    write(fh)
    except OSError as e:
        raise _io_error("emission", report_dir, e) from e
    return list(files)


def _dump_files(k: int, group: groups.FiniteGroup, orbits: list) -> dict:
    """The level-k dump of the orbits ((n, r) arrays of elements of `group`,
    a report's `tuples`) as two report files for _emit (as for _sized):
    `elements_L<k>.json`, json.dump(..., indent=1) of the cycle strings of
    the orbits' distinct elements, once each in increasing element number,
    and `orbits_L<k>.json`, per orbit its tuples as [i, j, ...] indices
    into that table, in the same layout but one index tuple to a line."""
    elems, at = np.unique(np.concatenate([t.ravel() for t in orbits]
                                         + [np.zeros(0, np.int64)]), return_inverse=True)
    strs = group.perm_strs(elems)

    def write_elements(fh):
        json.dump(strs, fh, indent=1)
        fh.write("\n")

    index = np.array([str(i) for i in range(len(strs))], dtype=object)
    digits = np.array([len(s) for s in index], dtype=np.int64)
    tables = [a.reshape(t.shape) for a, t in
              zip(np.split(at, np.cumsum([t.size for t in orbits])), orbits)]
    orbits_bytes = 4 * len(tables) + 3 + sum(
        int(digits[a].sum()) + len(a) * (2 * a.shape[1] + 4) + 2 if len(a) else 1
        for a in tables)
    return {f"elements_L{k}.json": (sum(map(len, strs)) + 5 * len(strs) + 3, write_elements),
            f"orbits_L{k}.json": (orbits_bytes, lambda fh: _write_orbits(fh, index, tables))}


def _write_orbits(fh, index: np.ndarray, tables: list) -> None:
    """Write _dump_files' orbits file, about _DUMP_CHARS at a time."""
    fh.write("[" if tables else "[]")
    for ci, at in enumerate(tables):
        fh.write(",\n [" if ci else "\n [")
        step = max(1, _DUMP_CHARS // (at.shape[1] * (len(str(len(index))) + 2)))
        for start in range(0, len(at), step):
            fh.write(",\n  [" if start else "\n  [")
            fh.write("],\n  [".join([", ".join(row)
                                     for row in index[at[start:start + step]].tolist()]))
            fh.write("]")
        fh.write("\n ]" if len(at) else "]")
    fh.write("\n]\n" if tables else "\n")


def _cached(args, job: dict, compute, modules: tuple,
            verdict: str | None = None) -> int:
    """Run the job `job` (the command and its arguments, with the input
    file's digest; the cache key adds VERSION) through the cache.  The key
    is looked up before anything is built.

    A hit restores the report into --report, prints `cache hit` and exits
    0, whatever the budgets, since it does no work; an entry that is
    incomplete or corrupt counts as a miss, with a warning.  A miss runs
    compute(report_dir), which builds the group, makes every check that
    needs it, publishes the report (_emit) and returns (exit code, names of
    its files); the entry is written only when the exit code is 0, so an
    input that compute refuses never has an entry, and a failed cache write
    is a warning.  A miss first loads numpy and `modules`, the analysis
    modules compute runs, and no other, so none is compiled while a level
    is alive.  Either way the report files of earlier jobs are then removed
    from --report, and the report file `verdict`, if given, is printed as
    one line of JSON."""
    report_dir = Path(args.report)
    cache_dir = None if args.no_cache else (
        Path(args.cache) if args.cache else cache_mod.default_cache_dir())
    key = cache_mod.job_key({**job, "version": VERSION})
    names = None
    if cache_dir is not None:
        try:
            names = cache_mod.cache_restore_entry(cache_dir, key, report_dir)
        except CorruptCache as e:
            _print(f"warning: unusable cache entry, recomputing: {e}", err=True)
        except OSError as e:
            raise _io_error("replay", report_dir, e) from e
    if names is not None:
        _print(f"cache hit {key[:12]} -> {report_dir}")
        rc = 0
    else:
        for module in (np, *modules):
            module.__name__             # any attribute read loads a lazy module
        rc, names = compute(report_dir)
        if cache_dir is not None and rc == 0:
            try:
                cache_mod.cache_put_entry(cache_dir, key, report_dir, names)
            except OSError as e:
                _print(f"warning: cache entry not written: {e}", err=True)
    for f in report_dir.iterdir():
        if re.fullmatch(REPORT_NAME, f.name) and f.name not in names:
            f.unlink()
    if verdict is not None:
        _print(json.dumps(json.loads((report_dir / verdict).read_text()),
                          sort_keys=True))
    return rc


def _level_job(args, build_group, labels: list[str]):
    """compute(report_dir) of a braid-orbit job at level args.k over the
    group that build_group() returns with its report name."""
    def compute(report_dir):
        G, gdesc = build_group()
        if args.k >= 1:
            check_coverable(G, args.p)
        if args.k >= 2 and not _takes_dihedral_form(G, args.p):
            raise BudgetError(f"cover stage: level budget k <= 1 for groups outside "
                              f"the dihedral closed form, got k = {args.k}")
        files = run_level_analysis(G, gdesc, labels, args.p, args.k,
                                   args.budget_elements)
        names = _emit(files, report_dir)
        top = files["components.json"]["levels"][-1]["components"]
        _print(f"level {args.k}: {len(top)} component(s); "
               f"genera {[c['genus'] for c in top]} -> {report_dir}")
        return 0, names
    return compute


def cmd_level(args) -> int:
    gkey, build_group, source = group_input(args)
    labels = [s.strip() for s in args.classes.split(",")]
    return _cached(args, {"cmd": "level", "group": gkey, "classes": labels,
                          "p": args.p, "k": args.k},
                   _level_job(args, build_group, labels), LEVEL_MODULES + source)


def cmd_dihedral(args) -> int:
    """`level` on D_p with four involutions (D_p, p odd, has one class of
    them, 2A), under its own cache key."""
    if args.p == 2:
        raise InputError("dihedral tower needs an odd prime")
    return _cached(args, {"cmd": "dihedral", "p": args.p, "k": args.k},
                   _level_job(args, lambda: (groups.dihedral_group(args.p), f"D{args.p}"),
                              ["2A"] * 4), LEVEL_MODULES)


def _schur_report(G: groups.FiniteGroup, gdesc: str, p: int, k: int) -> dict:
    """The `schur.json` payload: the Z/p Schur quotients of G (k = 0), or
    of its level-1 cover with their kernel slices (k = 1)."""
    out: dict = {"group": gdesc, "p": p, "quotients": []}
    if k == 0:
        quots = schur.enumerate_schur_quotients(G, p)
        for q in quots:
            out["quotients"].append({
                "order": q.total.order,
                "kernel_gen": q.total.perm_str(q.kernel_elems[1]),
            })
        return out
    L = build_level(G, p)
    quots = schur.enumerate_schur_quotients(L.total, p)
    rad_elems = [L.kernel_elems[la.vec_int(v, p)]
                 for v in gmodules.radical(L.kernel_module)]
    killed = [set(schur.vd_from_antecedent(L, prev).members)
              for prev in schur.enumerate_schur_quotients(L.base, p)]
    for qi, q in enumerate(quots):
        vd = schur.vd_set(q, L)
        a, b, c = schur.check_modassume_from_vd(L, vd)
        slice_rep = schur.abelian_test(q, L, rad_elems)
        census = schur.p3_census(q, L)
        out["quotients"].append({
            "order": q.total.order,
            "kernel_gen": qi,
            "vd_size": len(vd.members),
            "vd_is_submodule": vd.is_submodule,
            "modassume": [a, b, c],
            "abelian": slice_rep.abelian,
            "invariants": slice_rep.invariants,
            "top_type": slice_rep.top_type,
            "p3_census": census,
            "antecedent_of": [ai for ai, ker in enumerate(killed)
                              if ker == set(vd.members)],
        })
    return out


def cmd_schur(args) -> int:
    gkey, build_group, source = group_input(args)

    def compute(report_dir):
        G, gdesc = build_group()
        if args.k >= 1:
            check_coverable(G, args.p)
        out = _schur_report(G, gdesc, args.p, args.k)
        names = _emit({"schur.json": out}, report_dir)
        _print(f"{len(out['quotients'])} Schur quotient(s) -> {report_dir}")
        return 0, names

    return _cached(args, {"cmd": "schur", "group": gkey, "p": args.p,
                          "k": args.k}, compute, COVER_MODULES + (schur,) + source)


def cmd_gcomplete(args) -> int:
    gkey, build_group, source = group_input(args)
    labels = ([lab.strip() for lab in args.classes.split(",")]
              if args.classes else None)

    def compute(report_dir):
        G, gdesc = build_group()
        gcomplete.check_search_order(G)     # before class labels are resolved
        if labels is not None:
            verdict = gcomplete.is_gcomplete(G, [class_id(G, lab) for lab in labels])
        else:
            verdict = gcomplete.is_p_gcomplete(G, args.p)
        out = verdict.to_dict(G)
        out["group"] = gdesc
        out["p"] = args.p
        return 0, _emit({"gcomplete.json": out}, report_dir)

    return _cached(args, {"cmd": "gcomplete", "group": gkey, "classes": labels,
                          "p": args.p}, compute, (gcomplete,) + source,
                   verdict="gcomplete.json")


def cmd_frattini_verify(args) -> int:
    gkey, build_group, source = group_input(args)

    def compute(report_dir):
        G, gdesc = build_group()
        check_coverable(G, args.p)
        L = build_level(G, args.p)
        rep = frattini.verify_order_lifting(L)
        frat = frattini.verify_frattini(L)
        ld = gmodules.loewy_layers(L.kernel_module)
        out = {
            "group": gdesc,
            "p": args.p,
            "total_order": L.total.order,
            "kernel_dim": L.kernel_dim,
            "order_lifting_ok": rep.ok,
            "order_violations": len(rep.order_violations),
            "class_failures": len(rep.class_failures),
            "frattini": frat,
            "loewy_display": ld.display(),
            "loewy_layer_dims": [[lab[0] for lab in layer] for layer in ld.layers],
        }
        return (0 if rep.ok and frat else 4), _emit({"frattini.json": out}, report_dir)

    return _cached(args, {"cmd": "frattini-verify", "group": gkey, "p": args.p},
                   compute, COVER_MODULES + source, verdict="frattini.json")


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mt", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--report", default="mt-report")
        sp.add_argument("--cache", default=None)
        sp.add_argument("--no-cache", action="store_true")
        sp.add_argument("--budget-elements", type=int, default=1 << 20)
        sp.add_argument("--budget-cosets", type=int, default=1 << 18)

    def group_source(sp):
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--group", help="builtin name (A4, A5, K4, Dn, Zn)")
        source.add_argument("--group-file", help="permutation list file")
        source.add_argument("--presentation-file", help="presentation file")

    def classes(sp):
        sp.add_argument("--classes", help="comma list of class labels, e.g. 3A,3A,3A,3A")

    def level(sp):
        sp.add_argument("--k", type=int, default=0, help="cover level")

    def add(name, help_text, func, *flag_sets):
        sp = sub.add_parser(name, help=help_text)
        for add_flags in flag_sets + (common,):
            add_flags(sp)
        sp.set_defaults(func=func)

    add("level", "braid-orbit component analysis", cmd_level, group_source, classes,
        level)
    add("dihedral", "odd-prime dihedral tower shadow", cmd_dihedral, level)
    add("schur", "Z/p Schur quotient analysis", cmd_schur, group_source, level)
    add("gcomplete", "completeness verdicts", cmd_gcomplete, group_source, classes)
    add("frattini-verify", "cover property checks", cmd_frattini_verify,
        group_source)
    return top


def check_bounds(args) -> None:
    """Reject a p, k, budget or class count that no command supports, before
    any work (braid orbits need r >= 3 branch points)."""
    if args.p < 2 or any(args.p % q == 0 for q in range(2, isqrt(args.p) + 1)):
        raise InputError(f"--p must be prime, got {args.p}")
    for flag, budget in (("--budget-elements", args.budget_elements),
                         ("--budget-cosets", args.budget_cosets)):
        if budget < 1:
            raise InputError(f"{flag} must be >= 1, got {budget}")
    k = getattr(args, "k", 0)
    if k < 0:
        raise InputError(f"--k must be >= 0, got {k}")
    if args.command == "schur" and k > 1:
        raise InputError(f"--k must be <= 1 for schur, got {k}")
    if args.command == "level":
        r = len(args.classes.split(",")) if args.classes else 0
        if r < 3:
            raise InputError(f"--classes needs at least 3 classes, got {r}")


def check_paths(args) -> None:
    """Reject, before any work, a --report or --cache path that cannot be a
    directory: it exists and is not one, or it lies under a file."""
    for flag, path in (("--report", args.report),
                       ("--cache", None if args.no_cache else args.cache)):
        if path is not None:
            there = next(q for q in (Path(path), *Path(path).parents) if q.exists())
            if not there.is_dir():
                raise InputError(f"{flag} {path}: {there} is not a directory")


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        check_bounds(args)
        check_paths(args)
        return args.func(args)
    except EmptyNielsenClass as e:
        _print(f"empty Nielsen class: {e}", err=True)
        return 3
    except (BudgetError, InputError) as e:
        _print(f"budget/input: {e}", err=True)
        return 2
    except (InvariantViolation, AssertionError) as e:
        _print(f"internal invariant violation: {e}", err=True)
        return 4
    except MTError as e:
        _print(f"error: {e}", err=True)
        return 4


if __name__ == "__main__":
    sys.exit(main())
