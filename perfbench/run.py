#!/usr/bin/env python3
"""Run one mtower benchmark workload and print its metrics.

    python3 perfbench/run.py --workload a5-level1 --seed 1 --seconds 48 --trace 0

Closed loop with one client: one `mt` job at a time, each in a fresh child
process (child.py), without --threads.  A run writes its inputs from --seed,
and then, for --seconds, runs the workload's command cold against a fresh,
empty --cache directory and replays it against the now warm cache, in
cycles that each start only if they should end in time (the first always
runs).  A few import-only children run before each cold job and after
the last, so that set-up is timed all through the run.  Every cold
report is checked (workloads.py) and every replay must reproduce its cold
report byte for byte.  A job fails when it exits nonzero, times out or fails
its check.  Times are reported in reference seconds, corrected for the
host's compute speed while each job ran and its import speed during the run
(speed.py); reference children that import a fixed set of modules run
beside the import-only children for the latter.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced cold
job, then one traced cold job and its traced replay, and prints the
per-layer metrics (tracer.py) and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Everything the run writes goes to .perfbench_work/ in the
checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from speed import REF_RATE, import_factor, reference_s
from tracer import layer_metrics
from workloads import WORKLOADS, Workload, check_replay, check_report, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 3        # import-only children before each cold job and after the last
REPLAYS = 10            # replays of each cold job at most, ...
REPLAY_BUDGET_S = 4.0   # ... and none started once they have taken this long
JOB_TIMEOUT_S = 120
START_LIMIT_S = 60      # no cycle started that should end after this long ...
RUN_LIMIT_S = 165       # ... and every child killed by then: a run ends within 180 s
# The end-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "wall_s": "s", "replay_s": "s",
              "peak_rss_mb": "MB", "report_mb": "MB"}


@dataclass
class Job:
    rc: int | None        # None when the job timed out
    wall_s: float
    setup_s: float | None
    rss_mb: float
    trace: dict | None
    speed: float | None   # probe units per CPU second after its imports

    def ref_s(self, imports: float | None) -> float | None:
        """Wall time in reference seconds, given the run's import factor."""
        return reference_s(self.wall_s, self.setup_s, self.speed, imports)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


def report_bytes(report: Path) -> int:
    return sum(f.stat().st_size for f in report.iterdir()) if report.is_dir() else 0


class Runner:
    """Spawns children one at a time and keeps the tally of jobs."""

    def __init__(self, work: Path, workload: Workload):
        self.work = work
        self.workload = workload
        self.inputs = work / "inputs"
        self.env = dict(os.environ, MT_CACHE=str(work / "mt-cache-unused"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.spawned = 0
        self.attempted = 0
        self.failed = 0

    def spawn(self, mt_args: list[str], flags: tuple[str, ...] = ()) -> Job:
        self.spawned += 1
        out = self.work / f"child-{self.spawned}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(out), *flags,
                "--", *mt_args]
        with open(self.work / "children.log", "ab") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=log, cwd=self.work,
                                    env=self.env)
            timed_out = threading.Event()

            def kill():
                # os.kill, not proc.kill: Popen would poll and could reap
                # the child before os.wait4 collects its resource usage.
                timed_out.set()
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            timer = threading.Timer(
                max(0.0, min(JOB_TIMEOUT_S, self.deadline - start)), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(out.read_text())
        except (OSError, ValueError):
            result = {}
        setup = result["ready"] - start if "ready" in result else None
        return Job(None if timed_out.is_set() else proc.returncode, wall, setup,
                   usage.ru_maxrss * 1024 / 1e6, result.get("trace"),
                   result.get("speed"))

    def judge(self, job: Job, problems: list[str], what: str) -> None:
        self.attempted += 1
        if job.rc is None:
            problems = [f"timed out after {job.wall_s:.0f} s"]
        elif job.rc != 0:
            problems = [f"exit code {job.rc}"]
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems))

    def cold(self, tag: str, flags: tuple[str, ...] = ()) -> tuple[Job, list[str], Path]:
        """Run the workload against a fresh, empty cache; check its report."""
        cache, report = self.work / f"cache-{tag}", self.work / f"report-{tag}"
        args = self.workload.mt_args(self.inputs) + ["--cache", str(cache)]
        job = self.spawn(args + ["--report", str(report)], flags)
        self.judge(job, check_report(self.workload, report), f"cold job {tag}")
        return job, args, report

    def replay(self, args: list[str], cold_report: Path, tag: str,
               flags: tuple[str, ...] = ()) -> Job:
        report = self.work / f"report-{tag}"
        job = self.spawn(args + ["--report", str(report)], flags)
        self.judge(job, check_replay(cold_report, report), f"replay {tag}")
        shutil.rmtree(report, ignore_errors=True)
        return job

    def clean(self, tag: str) -> None:
        for d in (self.work / f"cache-{tag}", self.work / f"report-{tag}"):
            shutil.rmtree(d, ignore_errors=True)


def measure(runner: Runner, seconds: float) -> dict[str, tuple[list[float], str]]:
    """Samples of the end-to-end metrics, times in reference seconds.  Every
    child, import-only or not, gives a set-up sample."""
    children, colds, replays, refs, rss, sizes = [], [], [], [], [], []

    def time_setup():
        for _ in range(SETUP_SPAWNS):
            children.append(runner.spawn([], ("--ready-only",)))
            refs.append(runner.spawn([], ("--reference",)).setup_s)

    # A cycle is a cold job with its replays.  Another one starts only if it
    # should end within --seconds, judged by how long the last one took, so
    # that a run lasts --seconds, or one cycle where that is longer.
    start = time.monotonic()
    limit = min(seconds, START_LIMIT_S)
    cycle = 0.0
    while not colds or time.monotonic() - start + cycle <= limit:
        began = time.monotonic()
        time_setup()
        tag = str(len(colds))
        job, args, report = runner.cold(tag)
        colds.append(job)
        rss.append(job.rss_mb)
        sizes.append(report_bytes(report) / 1e6)
        spent = 0.0
        for i in range(REPLAYS):
            if i and spent >= REPLAY_BUDGET_S:
                break
            replays.append(runner.replay(args, report, f"{tag}-replay{i}"))
            spent += replays[-1].wall_s
        runner.clean(tag)
        cycle = time.monotonic() - began
    time_setup()
    imports = import_factor([r for r in refs if r is not None])
    rates = [j.speed for j in colds + replays if j.speed is not None]
    if imports and rates:
        print(f"import speed factor {imports:.3f}; compute speed factor median "
              f"{statistics.median(rates) / REF_RATE:.3f}, min {min(rates) / REF_RATE:.3f}, "
              f"max {max(rates) / REF_RATE:.3f}")
    for tag, job in enumerate(colds):
        print(f"cold job {tag}: {job.wall_s:.3f} s, {job.ref_s(imports) or 0:.3f} reference s")
    samples = {
        "setup_s": [j.setup_s * imports for j in children + colds + replays
                    if imports and j.setup_s is not None],
        "wall_s": [j.ref_s(imports) for j in colds],
        "replay_s": [j.ref_s(imports) for j in replays],
        "peak_rss_mb": rss, "report_mb": sizes}
    return {name: ([x for x in samples[name] if x is not None], unit)
            for name, unit in END_TO_END.items()}


def measure_traced(runner: Runner) -> dict[str, tuple[float, str]]:
    plain, _, _ = runner.cold("untraced")
    runner.clean("untraced")
    cold, args, report = runner.cold("traced", ("--trace",))
    replay = runner.replay(args, report, "traced-replay", ("--trace",))
    runner.clean("traced")
    if cold.trace is None or replay.trace is None:
        return {}
    metrics = layer_metrics(cold.trace, replay.trace)
    # Both jobs import the same, so the overhead is in the part after the
    # imports; each part is scaled by its own job's compute speed.
    if cold.speed is None or plain.speed is None:
        return {}
    traced_s, plain_s = (
        (j.wall_s - (j.setup_s or 0.0)) * j.speed / REF_RATE for j in (cold, plain))
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mtower" / "cli.py").is_file():
        print(f"no mtower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_inputs(work / "inputs", args.seed)
        runner = Runner(work, workload)
        runner.spawn([], ("--ready-only",))   # unmeasured: compiles bytecode
        if args.trace:
            values = measure_traced(runner)
            complete = bool(values)
            for name, (value, unit) in values.items():
                print(f"{name}: {value:.6g} {unit}")
        else:
            samples = measure(runner, args.seconds)
            values = {}
            for name, (xs, unit) in samples.items():
                if not xs:              # every child that gives it failed
                    continue
                values[name] = (statistics.median(xs), unit)
                tail = tail_percentile(xs)
                extra = f", p{tail[0]:.0f} {tail[1]:.4f}" if tail else ""
                print(f"{name}: median {values[name][0]:.4f} {unit}{extra} "
                      f"(n={len(xs)})")
            complete = len(values) == len(samples)
            print("samples " + json.dumps({k: v[0] for k, v in samples.items()}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:                 # another run or test still uses it
            pass
    print(f"{workload.name} seed {args.seed}: {runner.attempted} jobs, "
          f"{runner.failed} failed")
    print(json.dumps({
        "correct": runner.failed == 0 and complete,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
