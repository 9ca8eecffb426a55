"""Batch driver: build cover levels, run braid-orbit analyses, emit reports.

Commands
  mt level           components/cusps/genus for (group, classes, p) at level k
  mt dihedral        the odd-prime dihedral tower shadow
  mt schur           Z/p Schur quotients and their kernel slices
  mt gcomplete       class-completeness verdicts
  mt frattini-verify cover properties of the constructed level

Exit codes: 0 ok, 2 budget/input, 3 empty Nielsen class, 4 internal
invariant violation.

A cache hit runs only this module, `cache` and `errors`.  The analysis
modules are bound lazily, and their functions are called through their
module (`nielsen.mbar4_orbits`): a top-level `from .nielsen import ...`
would load the module on every hit.  A miss loads them all before it
builds anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from math import isqrt
from pathlib import Path
from typing import Callable

from . import _lazy_module
from . import cache as cache_mod
from .errors import (BudgetError, CorruptCache, EmptyNielsenClass,
                     InputError, InvariantViolation, MTError, NotPPrime)

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
ANALYSIS_MODULES = (fp, frattini, gcomplete, gmodules, groups, hurwitz, la,
                    nielsen, perms, schur)

VERSION = 3


def label_classes(G: groups.FiniteGroup) -> list[str]:
    labels = []
    seen: dict[int, int] = {}
    for cl in G.conjugacy_classes():
        n = seen.get(cl.element_order, 0)
        seen[cl.element_order] = n + 1
        labels.append(f"{cl.element_order}{chr(ord('A') + n)}")
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


def group_input(args) -> tuple[str, Callable[[], tuple[groups.FiniteGroup, str]]]:
    """(the group's name in cache keys, a function that builds the group
    and returns it with its name in reports).  The key needs no build, so
    a cache hit never builds the group: a builtin is keyed by its name, a
    group read from a file by the file's name and the sha256 of its
    bytes."""
    if getattr(args, "group_file", None):
        digest, generators = _read_group_input(
            args.group_file, lambda text: perms.parse_group_file(text))
        desc = f"file:{Path(args.group_file).name}"

        def build_file_group():
            G = groups.FiniteGroup(generators(), max_order=args.budget_elements,
                                   name="file-group")
            return G, f"{desc}:{G.order}"
        return f"{desc}:{digest}", build_file_group
    if getattr(args, "presentation_file", None):
        digest, presentation = _read_group_input(
            args.presentation_file, lambda text: fp.parse_presentation(text))
        desc = f"pres:{Path(args.presentation_file).name}"

        def build_presented_group():
            P = presentation()
            G = fp.coset_group(fp.todd_coxeter(P, (), args.budget_cosets),
                               max_order=args.budget_elements, name="presented-group")
            G.presentation = P
            return G, f"{desc}:{G.order}"
        return f"{desc}:{digest}", build_presented_group
    name = (args.group or "").upper()
    if not (m := re.fullmatch(r"A4|A5|K4|([DZ])(\d+)", name)):
        raise InputError(f"unknown group {args.group!r}; builtins: A4 A5 K4 Dn Zn")

    def build_builtin():
        if m[1]:
            G = (groups.dihedral_group if m[1] == "D" else groups.cyclic_group)(int(m[2]))
        else:
            G = (groups.klein_four() if name == "K4"
                 else groups.alternating_group(int(name[1])))
        return G, name
    return name, build_builtin


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


def build_level_model(G: groups.FiniteGroup, p: int,
                      budget_cosets: int) -> frattini.FrattiniLevel:
    """One cover level over G, route chosen by structure: dihedral closed
    form, split construction, or the relator-tail search.  The split route
    keeps its own base model, whose total carries a small generator-aligned
    presentation (the H^2 solve of the Schur analysis reads it); the other
    routes build over G itself."""
    if _takes_dihedral_form(G, p):
        return frattini.dihedral_step(G, p)
    S = frattini.p_sylow(G, p)
    if len(frattini.normalizer(G, S)) == G.order:
        data = frattini.split_structure(G, p)
        H = groups.cyclic_group(G.element_order(data.complement_gen))
        return frattini.split_level(data.rank, p, H, [data.action], budget_cosets).level
    return frattini.general_level(G, p, budget_cosets).level


def build_level(G: groups.FiniteGroup, p: int,
                budget_cosets: int) -> frattini.FrattiniLevel:
    """build_level_model, with a split model transported onto G."""
    L = build_level_model(G, p, budget_cosets)
    if L.base is G:
        return L
    iso = groups.find_isomorphism(L.base, G)
    if iso is None:
        raise InvariantViolation("split model does not match the group")
    return frattini.transport_level(L, iso, G)


def run_level_analysis(G: groups.FiniteGroup, gdesc: str, class_labels: list[str],
                       p: int, k: int, budget_elements: int,
                       budget_cosets: int) -> dict:
    """The full level-k report payload (byte-stable JSON-ready dict).

    Level 0 is enumerated outright; higher levels are seeded by lifting one
    representative per lower orbit through the cover, which reaches every
    orbit upstairs: a level-0 orbit has lifts over all of its members or
    over none, and each entry is lifted within the lift of its own class.
    Each level is checked Frattini (verify_frattini) before its lifts are
    trusted to generate.
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
        "sh_incidence": {},
        "orbit_dumps": {},
        "comparisons": [],
    }
    group, lower = G, None          # lower: the level below's spec, reducer, reports
    for step in range(k + 1):
        level = {"k": step}
        if lower is None:
            spec = nielsen.NielsenSpec(G, ids, p)
            reducer = nielsen.Reducer(spec)
            seeds = nielsen.enumerate_reduced(spec, budget=budget_elements,
                                              reducer=reducer)
            if not seeds:
                raise EmptyNielsenClass(f"Ni({gdesc}, {class_labels}) is empty")
        else:
            L = build_level(group, p, budget_cosets)
            if not frattini.verify_frattini(L):
                raise InvariantViolation("constructed level is not a Frattini cover")
            group = L.total
            spec = nielsen.lifted_spec(L, lower[0])
            reducer = nielsen.Reducer(spec)
            seeds = sorted({t for rep in lower[2] for t in nielsen.lift_tuples(
                L, rep.orbit[0], spec, reducer, frattini_verified=True,
                budget=budget_elements)})
            if not seeds:
                raise EmptyNielsenClass(f"nothing lies over level {step - 1}")
            level.update(total_order=group.order, kernel_dim=L.kernel_dim)
        reports = [hurwitz.analyze_component(spec, orb, reducer)
                   for orb in nielsen.mbar4_orbits(spec, seeds, reducer)]
        level["components"] = [r.to_dict() for r in reports]
        payload["levels"].append(level)
        payload["sh_incidence"][str(step)] = hurwitz.sh_incidence(
            reports, reducer).to_csv()
        payload["orbit_dumps"][str(step)] = [nielsen.orbit_dump(group, r.orbit)
                                             for r in reports]
        for li, lrep in enumerate(lower[2] if lower else []):
            for ui, urep in enumerate(reports):
                try:
                    cmp = hurwitz.level_compare(lrep, urep, L, lower[1], li, ui)
                except MTError:
                    continue
                d = cmp.to_dict()
                d["verdict"] = hurwitz.check_goup(cmp)
                d["level"] = step
                payload["comparisons"].append(d)
        lower = (spec, reducer, reports)
    return payload


def _emit(payload: dict, report_dir: Path) -> list[str]:
    """Write the report; the names of its files.  Orbit dumps (tens of MB)
    are written a tuple at a time."""
    report_dir.mkdir(parents=True, exist_ok=True)
    body = dict(payload)
    texts = {f"sh_incidence_L{lvl}.csv": csv
             for lvl, csv in body.pop("sh_incidence", {}).items()}
    dumps = {f"orbits_L{lvl}.json": dump
             for lvl, dump in body.pop("orbit_dumps", {}).items()}
    texts["components.json"] = json.dumps(body, sort_keys=True, indent=2) + "\n"
    for name, text in texts.items():
        (report_dir / name).write_text(text)
    for name, dump in dumps.items():
        with open(report_dir / name, "w") as fh:
            _write_dump(fh, dump)
    return [*texts, *dumps]


def _write_dump(fh, dump: list[list[str]]) -> None:
    """json.dump(dump, fh, indent=1) and a newline, for components of tuples
    in cycle notation, which need no escaping."""
    fh.write("[" if dump else "[]")
    for ci, comp in enumerate(dump):
        fh.write(",\n [" if ci else "\n [")
        for ti, text in enumerate(comp):
            fh.writelines((',\n  "' if ti else '\n  "', text, '"'))
        fh.write("\n ]" if comp else "]")
    fh.write("\n]\n" if dump else "\n")


def _emit_json(out: dict, report_dir: Path, name: str) -> list[str]:
    """Write the one-file report `name`; its name, as _emit gives them."""
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / name).write_text(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return [name]


def _cached(args, job: dict, compute, verdict: str | None = None) -> int:
    """Run the job `job` (the command and its arguments, with the input
    file's digest; the cache key adds VERSION) through the cache.  The key
    is looked up before anything is built.

    A hit restores the report into --report, prints `cache hit` and exits
    0, whatever the budgets, since it does no work; an entry that is
    incomplete or corrupt counts as a miss, with a warning.  A miss runs
    compute(report_dir), which builds the group, makes every check that
    needs it, writes the report and returns (exit code, names of its
    files); the report is published only when the exit code is 0, so an
    input that compute refuses never has an entry.  A miss loads every
    analysis module first, so none is compiled while a level is alive.  Either way the report
    file `verdict`, if given, is then printed as one line of JSON."""
    report_dir = Path(args.report)
    cache_dir = None if args.no_cache else (
        Path(args.cache) if args.cache else cache_mod.default_cache_dir())
    key = cache_mod.job_key({**job, "version": VERSION})
    hit = False
    if cache_dir is not None:
        try:
            hit = cache_mod.cache_restore_entry(cache_dir, key, report_dir)
        except CorruptCache as e:
            print(f"warning: unusable cache entry, recomputing: {e}", file=sys.stderr)
    if hit:
        print(f"cache hit {key[:12]} -> {report_dir}")
        rc = 0
    else:
        for module in ANALYSIS_MODULES:
            module.__name__             # any attribute read loads a lazy module
        rc, names = compute(report_dir)
        if cache_dir is not None and rc == 0:
            cache_mod.cache_put_entry(cache_dir, key, report_dir, names)
    if verdict is not None:
        print(json.dumps(json.loads((report_dir / verdict).read_text()),
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
        payload = run_level_analysis(G, gdesc, labels, args.p, args.k,
                                     args.budget_elements, args.budget_cosets)
        names = _emit(payload, report_dir)
        top = payload["levels"][-1]["components"]
        print(f"level {args.k}: {len(top)} component(s); "
              f"genera {[c['genus'] for c in top]} -> {report_dir}")
        return 0, names
    return compute


def cmd_level(args) -> int:
    gkey, build_group = group_input(args)
    labels = [s.strip() for s in args.classes.split(",")]
    return _cached(args, {"cmd": "level", "group": gkey, "classes": labels,
                          "p": args.p, "k": args.k},
                   _level_job(args, build_group, labels))


def cmd_dihedral(args) -> int:
    """`level` on D_p with four involutions (D_p, p odd, has one class of
    them, 2A), under its own cache key."""
    if args.p == 2:
        raise InputError("dihedral tower needs an odd prime")
    return _cached(args, {"cmd": "dihedral", "p": args.p, "k": args.k},
                   _level_job(args, lambda: (groups.dihedral_group(args.p), f"D{args.p}"),
                              ["2A"] * 4))


def _schur_report(G: groups.FiniteGroup, gdesc: str, p: int, k: int,
                  budget_cosets: int) -> dict:
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
    L = build_level_model(G, p, budget_cosets)
    quots = schur.enumerate_schur_quotients(L.total, p)
    rad_elems = [L.kernel_elems[la.vec_int(v, p)]
                 for v in gmodules.radical(L.kernel_module)]
    antecedents = schur.enumerate_schur_quotients(L.base, p)
    for qi, q in enumerate(quots):
        vd = schur.vd_set(q, L)
        a, b, c = schur.check_modassume_from_vd(L, vd)
        slice_rep = schur.abelian_test(q, L, rad_elems)
        census = schur.p3_census(q, L)
        ante = [ai for ai, prev in enumerate(antecedents)
                if schur.antecedent_test(prev, q, L)]
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
            "antecedent_of": ante,
        })
    return out


def cmd_schur(args) -> int:
    gkey, build_group = group_input(args)

    def compute(report_dir):
        G, gdesc = build_group()
        if args.k >= 1:
            check_coverable(G, args.p)
        out = _schur_report(G, gdesc, args.p, args.k, args.budget_cosets)
        names = _emit_json(out, report_dir, "schur.json")
        print(f"{len(out['quotients'])} Schur quotient(s) -> {report_dir}")
        return 0, names

    return _cached(args, {"cmd": "schur", "group": gkey, "p": args.p,
                          "k": args.k}, compute)


def cmd_gcomplete(args) -> int:
    gkey, build_group = group_input(args)
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
        names = _emit_json(out, report_dir, "gcomplete.json")
        return 0, names

    return _cached(args, {"cmd": "gcomplete", "group": gkey, "classes": labels,
                          "p": args.p}, compute, verdict="gcomplete.json")


def cmd_frattini_verify(args) -> int:
    gkey, build_group = group_input(args)

    def compute(report_dir):
        G, gdesc = build_group()
        check_coverable(G, args.p)
        L = build_level(G, args.p, args.budget_cosets)
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
        names = _emit_json(out, report_dir, "frattini.json")
        return (0 if rep.ok and frat else 4), names

    return _cached(args, {"cmd": "frattini-verify", "group": gkey, "p": args.p},
                   compute, verdict="frattini.json")


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
        sp.add_argument("--group", help="builtin name (A4, A5, K4, Dn, Zn)")
        sp.add_argument("--group-file", help="permutation list file")
        sp.add_argument("--presentation-file", help="presentation file")

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
    """Reject a p, k or class count that no command supports, before any
    work (braid orbits need r >= 3 branch points)."""
    if args.p < 2 or any(args.p % q == 0 for q in range(2, isqrt(args.p) + 1)):
        raise InputError(f"--p must be prime, got {args.p}")
    k = getattr(args, "k", 0)
    if k < 0:
        raise InputError(f"--k must be >= 0, got {k}")
    if args.command == "schur" and k > 1:
        raise InputError(f"--k must be <= 1 for schur, got {k}")
    if args.command == "level":
        r = len(args.classes.split(",")) if args.classes else 0
        if r < 3:
            raise InputError(f"--classes needs at least 3 classes, got {r}")


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        check_bounds(args)
        return args.func(args)
    except EmptyNielsenClass as e:
        print(f"empty Nielsen class: {e}", file=sys.stderr)
        return 3
    except (BudgetError, InputError) as e:
        print(f"budget/input: {e}", file=sys.stderr)
        return 2
    except (InvariantViolation, AssertionError) as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4
    except MTError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
