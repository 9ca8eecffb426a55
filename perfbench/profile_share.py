#!/usr/bin/env python3
"""One-off cross-check of the tracer: the share of the `a5-level1` job's time
spent under `frattini.h2_classes`, as cProfile and as a stack sampler see it.

    python3 perfbench/profile_share.py

Runs the job twice in this process, with --no-cache: once under cProfile,
printing cumtime(h2_classes) / cumtime(cli.main), and once with a thread
that samples the main thread's stack every few milliseconds, printing the
time-weighted share of samples with h2_classes on the stack.  Compare both
with `frattini.h2_share` from `run.py --trace 1`.  cProfile adds a fixed
cost to every Python call, so it inflates code made of many tiny calls
(coset enumeration) more than the rest; the sampler adds no per-call cost.
"""

from __future__ import annotations

import cProfile
import pstats
import shutil
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mtower import cli  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def cprofile_share(func: str, mt_args: list[str]) -> float:
    prof = cProfile.Profile()
    prof.runcall(cli.main, mt_args)
    stats = pstats.Stats(prof).stats

    def cumtime(name: str) -> float:
        return max(ct for (_, _, fn), (_, _, _, ct, _) in stats.items() if fn == name)
    return cumtime(func) / cumtime("main")


def sampled_share(func: str, mt_args: list[str], interval: float = 0.002) -> float:
    main_thread = threading.get_ident()
    seconds = [0.0, 0.0]     # time weight of samples with func on the stack, of all
    stop = threading.Event()

    def sample():
        # The sampler waits longer for the interpreter lock while the main
        # thread runs Python than while it is in I/O or numpy, so each sample
        # is weighted by the time since the previous one.
        last = time.perf_counter()
        while not stop.wait(interval):
            frame = sys._current_frames().get(main_thread)
            now = time.perf_counter()
            weight, last = now - last, now
            seconds[1] += weight
            while frame is not None:
                if frame.f_code.co_name == func:
                    seconds[0] += weight
                    break
                frame = frame.f_back

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        cli.main(mt_args)
    finally:
        stop.set()
        sampler.join()
    return seconds[0] / seconds[1]


def main() -> int:
    work = HERE.parent / ".perfbench_work" / "profile"
    mt_args = WORKLOADS["a5-level1"].mt_args(work) + [
        "--no-cache", "--report", str(work / "report")]
    try:
        shares = {"cProfile": cprofile_share("h2_classes", mt_args),
                  "sampler": sampled_share("h2_classes", mt_args)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for how, share in shares.items():
        print(f"a5-level1: {how} share under h2_classes: {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
