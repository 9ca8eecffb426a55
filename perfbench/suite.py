#!/usr/bin/env python3
"""Run every workload over several seeds and print every metric by name.

    python3 perfbench/suite.py [--seeds 3] [--seconds 25] [--trace] [--json OUT]

Each (workload, seed) is one `run.py` process.  End-to-end samples are
pooled over the seeds of a workload and printed as median, the highest
percentile with at least ten samples beyond it (when there are that many)
and the sample count, together with `failures` (failed jobs / attempted
jobs) and the run-to-run spread: the distance between the first and third
quartiles of the per-run values, as a share of their median.  With --trace, two traced runs per workload add the per-layer
metrics, and every count must be the same in both.  Exits 1 when any job
failed, any run did not finish or a traced count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

from run import tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(last-line result, pooled samples) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("".join(f"  {line}\n" for line in lines
                             if line.startswith("FAILED")))
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}, {}
    samples = next((json.loads(line[len("samples "):]) for line in lines
                    if line.startswith("samples ")), {})
    return json.loads(lines[-1]), samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args(argv)
    ok = True
    summary: dict = {}
    for name in WORKLOADS:
        pooled: dict[str, list[float]] = {}
        per_run: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in range(1, args.seeds + 1):
            result, samples = run_once(name, seed, args.seconds, 0)
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, xs in samples.items():
                pooled.setdefault(metric, []).extend(xs)
            for metric, v in result["metrics"].items():
                units[metric] = v["unit"]
                per_run.setdefault(metric, []).append(v["value"])
        print(f"{name}: {args.seeds} runs")
        entry: dict = {"failures": failed / attempted if attempted else 0.0}
        for metric, xs in pooled.items():
            med = statistics.median(xs)
            tail = tail_percentile(xs)
            extra = f", p{tail[0]:.0f} {tail[1]:.4f}" if tail else ""
            runs = per_run[metric]
            entry[metric] = {"median": med, "n": len(xs), "unit": units[metric],
                             "runs": runs}
            if len(runs) > 1:
                q1, _, q3 = statistics.quantiles(runs, n=4)
                entry[metric]["spread"] = (q3 - q1) / statistics.median(runs)
                extra += f"; run-to-run spread {entry[metric]['spread']:.3f}"
            print(f"  {metric}: median {med:.4f} {units[metric]}{extra} (n={len(xs)})")
            if tail:
                entry[metric]["tail"] = {"percentile": tail[0], "value": tail[1]}
        print(f"  failures: {failed}/{attempted} jobs")
        if args.trace:
            # Two traced runs with the same seed: every count must repeat.
            first, _ = run_once(name, 1, args.seconds, 1)
            second, _ = run_once(name, 1, args.seconds, 1)
            ok &= first["correct"] and second["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in first["metrics"].items()}
            for metric, v in first["metrics"].items():
                again = second["metrics"].get(metric, {}).get("value")
                print(f"  {metric}: {v['value']:.6g} {v['unit']}"
                      f" (again: {again if again is None else f'{again:.6g}'})")
                if v["unit"] in ("count", "B") and again != v["value"]:
                    print(f"  COUNT DIFFERS between traced runs: {metric}")
                    ok = False
        summary[name] = entry
    if args.json:
        host = {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "machine": platform.machine()}
        Path(args.json).write_text(json.dumps(
            {"host": host, "seconds": args.seconds, "seeds": args.seeds,
             "workloads": summary}, indent=1) + "\n")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
