"""Merge the pytest-benchmark JSON of two or more checkouts into one
`BENCH_*.json`: per side and benchmark the median, quartiles, minimum and
rounds, in seconds, and each side's median over the first side's.  A
benchmark missing from the first side has no ratio; it is listed on stderr.

    python benchmarks/bench_json.py BENCH_kernels.json parent=a.json change=b.json
"""

from __future__ import annotations

import json
import sys


def side(path: str) -> tuple[dict, dict]:
    with open(path) as fh:
        raw = json.load(fh)
    stats = {b["fullname"]: {key: b["stats"][key]
                             for key in ("median", "q1", "q3", "min", "rounds")}
             for b in raw["benchmarks"]}
    cpu = raw["machine_info"].get("cpu", {})
    machine = {"cpu": cpu.get("brand_raw", raw["machine_info"].get("processor")),
               "cpus": cpu.get("count"),
               "python": raw["machine_info"]["python_version"]}
    return stats, machine


def main(out: str, *sides: str) -> None:
    merged: dict = {"unit": "s", "sides": {}}
    for arg in sides:
        label, path = arg.split("=", 1)
        merged["sides"][label], merged["machine"] = side(path)
    first, *rest = merged["sides"]
    base = merged["sides"][first]
    merged["median_ratio"] = {
        label: {name: round(s["median"] / base[name]["median"], 3)
                for name, s in merged["sides"][label].items() if name in base}
        for label in rest}
    for label in rest:
        for name in sorted(set(merged["sides"][label]) - set(base)):
            print(f"{name}: not on side {first!r}, no ratio for {label!r}",
                  file=sys.stderr)
    with open(out, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
