"""Spans around the calls into mtower's modules, taken from outside the
program, and the per-layer metrics computed from them.

`install` rebinds every public function of every `mtower` module to a
wrapper, in every module that binds the name (`cli` imports many names with
`from .x import y`), and wraps the few methods listed in METHODS.  A wrapper
records a span: name, parent span, start, end, self time and a few sizes.
Functions called more than about 10^4 times in one job are only counted
(calls and self time, no span).  `FiniteGroup.mul` and the other
per-element methods are never wrapped.

Self time is kept on a stack as calls return: a call's self time is its
duration minus the durations of the wrapped calls made directly inside it,
so every second of a job belongs to exactly one wrapped function.  Spans
stay in memory until `dump`.
"""

from __future__ import annotations

import sys
import time

# Called more than ~10^4 times per job on some workload: counted, no span.
COUNTED = {
    "nielsen.Reducer.canonical", "perms.Perm.__str__",
    "groups.FiniteGroup.closure_size", "nielsen.middle_product",
    "nielsen.project_tuple", "nielsen.format_tuple", "fp.free_reduce",
    "fp.invert_word", "fp.word_pow", "fp.commutator_word", "linalg.inv_scalar",
}

# Methods wrapped besides the module-level functions: (module, class, method).
METHODS = [
    ("groups", "FiniteGroup", "__init__"),
    ("groups", "FiniteGroup", "subgroup_closure"),
    ("groups", "FiniteGroup", "closure_size"),
    ("nielsen", "Reducer", "canonical"),
    ("perms", "Perm", "__str__"),
]


def _sizes_rref(args, result):
    rows, cols = args[0].shape
    return {"cells": rows * cols}


# Sizes recorded on a span (or summed for a counted function) on return.
MEASURES = {
    "fp.todd_coxeter": lambda args, T: {"cosets": T.n},
    "groups.FiniteGroup.__init__": lambda args, _: {"elements": args[0].order},
    "linalg.rref": _sizes_rref,
    "cache.cache_put": lambda args, _: {"bytes": len(args[3])},
    "nielsen.mbar4_orbits": lambda args, orbits: {
        "classes": sum(len(o) for o in orbits)},
    "schur.enumerate_schur_quotients": lambda args, q: {"quotients": len(q)},
    "frattini.h2_classes": lambda args, res: {"valid": len(res[1])},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []        # [name, parent, start, end, self_s, sizes]
        self.counted: dict[str, list] = {}  # name -> [calls, self_s, sizes]
        self._stack: list[list] = []       # [nearest span index or -1, child_s]

    def wrap(self, name: str, fn):
        clock, stack, spans = self.clock, self._stack, self.spans
        measure = MEASURES.get(name)

        if name in COUNTED:
            tally = self.counted.setdefault(name, [0, 0.0, {}])

            def counted(*args, **kwargs):
                frame = [stack[-1][0] if stack else -1, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    tally[0] += 1
                    tally[1] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                if measure is not None:
                    for k, v in measure(args, result).items():
                        tally[2][k] = tally[2].get(k, 0) + v
                return result
            return counted

        def spanned(*args, **kwargs):
            record = [name, stack[-1][0] if stack else -1, 0.0, 0.0, 0.0, None]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            record[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = end = clock()
                stack.pop()
                record[4] = end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if measure is not None:
                record[5] = measure(args, result)
            return result
        return spanned

    def dump(self) -> dict:
        return {"spans": self.spans, "counted": self.counted}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every loaded `mtower` module."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("mtower.") and m is not None]
    wrapped: dict[int, tuple] = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or isinstance(value, type)
                    or not callable(value)
                    or getattr(value, "__module__", None) != mod.__name__):
                continue
            wrapped[id(value)] = (value, tracer.wrap(f"{short}.{attr}", value))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for short, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"mtower.{short}"], cls_name)
        setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}",
                                       getattr(cls, meth)))
    # conjugacy_classes is called on every class lookup and caches its answer
    # on the group; only the call that computes the classes gets a span.
    groups = sys.modules["mtower.groups"]
    plain = groups.FiniteGroup.conjugacy_classes
    computing = tracer.wrap("groups.FiniteGroup.conjugacy_classes", plain)

    def conjugacy_classes(self):
        if getattr(self, "_classes", None) is not None:
            return plain(self)
        return computing(self)
    groups.FiniteGroup.conjugacy_classes = conjugacy_classes


# -- per-layer metrics ------------------------------------------------------------


class _Totals:
    """Calls, self time and sizes per wrapped function in one trace."""

    def __init__(self, trace: dict):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sizes: dict[tuple[str, str], float] = {}
        self.nspans = len(trace["spans"])
        for name, _, _, _, self_s, sizes in trace["spans"]:
            self._add(name, 1, self_s, sizes or {})
        for name, (calls, self_s, sizes) in trace["counted"].items():
            self._add(name, calls, self_s, sizes)

    def _add(self, name, calls, self_s, sizes):
        self.calls[name] = self.calls.get(name, 0) + calls
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
        for k, v in sizes.items():
            self.sizes[name, k] = self.sizes.get((name, k), 0) + v

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def time(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def busy(self, module: str) -> float:
        """A layer's busy time: the self time of all its wrapped functions."""
        return sum(v for n, v in self.self_s.items()
                   if n.split(".", 1)[0] == module)

    def size(self, name: str, key: str) -> float:
        return self.sizes.get((name, key), 0)


def h2_share(trace: dict) -> float:
    """Share of the root span's time spent under frattini.h2_classes."""
    spans = trace["spans"]
    roots = [s for s in spans if s[1] == -1]
    total = sum(s[3] - s[2] for s in roots)
    inside = 0.0
    for s in spans:
        if s[0] != "frattini.h2_classes":
            continue
        p = s[1]
        while p != -1 and spans[p][0] != "frattini.h2_classes":
            p = spans[p][1]
        if p == -1:
            inside += s[3] - s[2]
    return inside / total if total else 0.0


def h2_candidates(trace: dict) -> tuple[int, int]:
    """(tail candidates tried, valid tails found) by the h2_classes search."""
    spans = trace["spans"]
    tried: dict[int, int] = {}
    for name, parent, *_ in spans:
        if name == "frattini.try_extension_order" and parent != -1 \
                and spans[parent][0] == "frattini.h2_classes":
            tried[parent] = tried.get(parent, 0) + 1
    valid = sum(spans[i][5]["valid"] for i in tried if spans[i][5])
    return sum(tried.values()), valid


def layer_metrics(cold: dict, replay: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced cold job; `cache.get_s` comes from
    its traced replay, the only job that reads the cache."""
    t = _Totals(cold)
    cand, valid = h2_candidates(cold)
    classes = t.size("nielsen.mbar4_orbits", "classes")
    canon = t.count("nielsen.Reducer.canonical")
    enumerate_s = t.time("schur.enumerate_schur_quotients")
    verify_s = t.time("frattini.verify_frattini", "frattini.verify_order_lifting")
    return {
        "fp.enum_calls": (t.count("fp.todd_coxeter"), "count"),
        "fp.enum_cosets": (t.size("fp.todd_coxeter", "cosets"), "count"),
        "fp.enum_s": (t.time("fp.todd_coxeter"), "s"),
        "frattini.h2_candidates": (cand, "count"),
        "frattini.h2_yield": (valid / cand if cand else 0.0, "ratio"),
        "frattini.h2_share": (h2_share(cold), "ratio"),
        "frattini.level_s": (t.busy("frattini") - verify_s, "s"),
        "frattini.verify_s": (verify_s, "s"),
        "linalg.rref_calls": (t.count("linalg.rref"), "count"),
        "linalg.rref_cells": (t.size("linalg.rref", "cells"), "count"),
        "linalg.s": (t.busy("linalg"), "s"),
        "gmodules.s": (t.busy("gmodules"), "s"),
        "groups.build_calls": (t.count("groups.FiniteGroup.__init__"), "count"),
        "groups.build_elements": (t.size("groups.FiniteGroup.__init__", "elements"), "count"),
        "groups.build_s": (t.time("groups.FiniteGroup.__init__"), "s"),
        "groups.classes_s": (t.time("groups.FiniteGroup.conjugacy_classes"), "s"),
        "groups.closure_calls": (t.count("groups.FiniteGroup.subgroup_closure"), "count"),
        "groups.closure_s": (t.time("groups.FiniteGroup.subgroup_closure"), "s"),
        "nielsen.reduced_classes": (classes, "count"),
        "nielsen.canonical_calls": (canon, "count"),
        "nielsen.canonical_per_class": (canon / classes if classes else 0.0, "ratio"),
        "nielsen.canonical_s": (t.time("nielsen.Reducer.canonical"), "s"),
        "nielsen.enumerate_s": (t.time("nielsen.enumerate_reduced"), "s"),
        "nielsen.lift_s": (t.time("nielsen.lift_tuples", "nielsen.lifted_spec"), "s"),
        "nielsen.orbits_s": (t.time("nielsen.mbar4_orbits"), "s"),
        "nielsen.dump_s": (t.time("nielsen.orbit_dump", "nielsen.format_tuple"), "s"),
        "hurwitz.analyze_s": (t.time("hurwitz.analyze_component"), "s"),
        "hurwitz.incidence_s": (t.time("hurwitz.sh_incidence"), "s"),
        "hurwitz.compare_s": (t.time("hurwitz.level_compare", "hurwitz.check_goup"), "s"),
        "perms.str_calls": (t.count("perms.Perm.__str__"), "count"),
        "perms.str_s": (t.time("perms.Perm.__str__"), "s"),
        "schur.quotients": (t.size("schur.enumerate_schur_quotients", "quotients"), "count"),
        "schur.enumerate_s": (enumerate_s, "s"),
        "schur.slice_s": (t.busy("schur") - enumerate_s, "s"),
        "gcomplete.s": (t.busy("gcomplete"), "s"),
        "cache.put_calls": (t.count("cache.cache_put"), "count"),
        "cache.put_bytes": (t.size("cache.cache_put", "bytes"), "B"),
        "cache.put_s": (t.time("cache.cache_put"), "s"),
        "cache.get_s": (_Totals(replay).time("cache.cache_get", "cache.cache_list"), "s"),
        "cli.self_s": (t.busy("cli"), "s"),
        "trace.spans": (t.nspans, "count"),
        "trace.wrapped_calls": (sum(t.calls.values()), "count"),
    }
