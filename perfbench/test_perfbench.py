"""Tests of the benchmark itself: the correctness gate, self time, the
failure count and the seeded inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from run import END_TO_END, ROOT, Job, Runner, tail_percentile
from speed import REF_IMPORT_S, REF_RATE, Probe, import_factor, reference_s
from tracer import Tracer, h2_candidates, h2_share, layer_metrics
from workloads import (GROUP_FILE, WORKLOADS, Workload, check_replay,
                       check_report, generated_order, modular_curve,
                       parse_cycles, write_inputs)


@pytest.fixture
def work():
    d = ROOT / ".perfbench_work" / "tests"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)
    try:
        d.parent.rmdir()
    except OSError:
        pass


def dihedral_report(d: Path) -> Path:
    """A report directory with the values `mt dihedral --p 5 --k 2` must give."""
    d.mkdir()
    levels = []
    for k in range(3):
        curve = modular_curve(5 ** (k + 1))
        level = {"k": k, "components": [{
            "orbit_size": curve["index"], "genus": curve["genus"],
            "cusp_widths": curve["cusp_widths"]}]}
        if k:
            level.update(total_order=2 * 5 ** (k + 1), kernel_dim=1)
        levels.append(level)
        (d / f"orbits_L{k}.json").write_text(json.dumps([["t"] * curve["index"]]))
        (d / f"sh_incidence_L{k}.csv").write_text(",O1.1\nO1.1,0\n")
    (d / "components.json").write_text(json.dumps({"levels": levels}))
    return d


def schur_report(d: Path) -> Path:
    d.mkdir()
    quots = [{"order": 768, "top_type": t, "abelian": t == "K4xZ4",
              "invariants": [2, 2, 2, 2, 4] if t == "K4xZ4" else []}
             for t in ("K4xZ4", "Q8.Z4", "Q8xZ2")]
    (d / "schur.json").write_text(json.dumps({"quotients": quots}))
    return d


def test_modular_curve_values():
    assert modular_curve(5) == {"index": 12, "cusp_widths": [1, 1, 5, 5], "genus": 0}
    assert (modular_curve(125)["index"], modular_curve(125)["genus"]) == (7500, 536)


def test_gate_rejects_genus_off_by_one(work):
    w = WORKLOADS["dihedral-p5-k2"]
    report = dihedral_report(work / "good")
    assert check_report(w, report) == []
    doc = json.loads((report / "components.json").read_text())
    doc["levels"][2]["components"][0]["genus"] += 1
    (report / "components.json").write_text(json.dumps(doc))
    assert check_report(w, report)


def test_gate_rejects_replay_missing_orbit_dump(work):
    cold = dihedral_report(work / "cold")
    replay = work / "replay"
    shutil.copytree(cold, replay)
    assert check_replay(cold, replay) == []
    (replay / "orbits_L1.json").unlink()
    assert check_replay(cold, replay)


def test_gate_rejects_changed_replay_bytes(work):
    cold = dihedral_report(work / "cold")
    replay = work / "replay"
    shutil.copytree(cold, replay)
    (replay / "sh_incidence_L0.csv").write_text(",O1.1\nO1.1,1\n")
    assert check_replay(cold, replay)


def test_gate_rejects_wrong_quotient_count(work):
    w = WORKLOADS["schur-a4-k1"]
    report = schur_report(work / "schur")
    assert check_report(w, report) == []
    doc = json.loads((report / "schur.json").read_text())
    doc["quotients"].pop()
    (report / "schur.json").write_text(json.dumps(doc))
    assert check_report(w, report)


def test_gate_rejects_unreadable_report(work):
    assert check_report(WORKLOADS["a5-level1"], work)


def test_self_time_on_synthetic_tree():
    """root(leaf, mid(hot, hot, leaf)); every clock reading adds one unit."""
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    names = {}

    def call(name, fn):
        return tracer.wrap(name, fn)

    names["leaf"] = call("m.leaf", lambda: None)
    names["hot"] = call("perms.Perm.__str__", lambda: None)   # a counted name
    names["mid"] = call("m.mid", lambda: (names["hot"](), names["hot"](),
                                          names["leaf"]()))
    names["root"] = call("m.root", lambda: (names["leaf"](), names["mid"]()))
    names["root"]()
    # clock: root 0..11, leaf 1..2, mid 3..10, hot 4..5, hot 6..7, leaf 8..9
    spans = {(s[0], s[2]): s for s in tracer.spans}
    assert [(s[0], s[1]) for s in tracer.spans] == [
        ("m.root", -1), ("m.leaf", 0), ("m.mid", 0), ("m.leaf", 2)]
    assert spans["m.root", 0][4] == 11 - 1 - 7
    assert spans["m.mid", 3][4] == 7 - 1 - 1 - 1
    assert spans["m.leaf", 1][4] == spans["m.leaf", 8][4] == 1
    assert tracer.counted["perms.Perm.__str__"][:2] == [2, 2.0]
    total = sum(s[4] for s in tracer.spans) + 2.0
    assert total == 11       # every unit belongs to exactly one function


def test_h2_metrics_on_synthetic_trace():
    span = lambda name, parent, start, end, sizes=None: [  # noqa: E731
        name, parent, start, end, 0.0, sizes]
    cold = {"counted": {}, "spans": [
        span("cli.main", -1, 0.0, 10.0),
        span("frattini.h2_classes", 0, 1.0, 5.0, {"valid": 2}),
        span("frattini.try_extension_order", 1, 1.0, 2.0),
        span("frattini.try_extension_order", 1, 2.0, 3.0),
        span("frattini.try_extension_order", 1, 3.0, 4.0),
        span("frattini.try_extension_order", 1, 4.0, 5.0),
        span("frattini.h2_classes", 0, 6.0, 7.0, {"valid": 1}),
    ]}
    assert h2_candidates(cold) == (4, 2)
    assert h2_share(cold) == pytest.approx(0.5)
    metrics = layer_metrics(cold, {"counted": {}, "spans": []})
    assert metrics["frattini.h2_yield"] == (0.5, "ratio")


def test_failed_job_counts(work):
    bad = Workload("bad", ("dihedral", "--p", "2"), lambda report: [])  # mt exits 2
    runner = Runner(work, bad)
    job, _, _ = runner.cold("x")
    assert job.rc == 2
    assert (runner.attempted, runner.failed) == (1, 1)


def test_timed_out_job_counts(work):
    runner = Runner(work, WORKLOADS["dihedral-p5-k2"])
    runner.deadline = time.monotonic()     # the run's time is already up
    job, _, _ = runner.cold("x")
    assert job.rc is None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_reference_child_times_its_imports(work):
    runner = Runner(work, WORKLOADS["dihedral-p5-k2"])
    ref = runner.spawn([], ("--reference",))
    assert ref.rc == 0 and 0 < ref.setup_s < ref.wall_s


def test_probe_and_reference_seconds():
    probe = Probe()
    probe.start()
    time.sleep(0.06)
    probe.mark()
    time.sleep(0.06)
    assert probe.stop() > 0 and probe.units >= 2
    assert import_factor([0.4, 0.1, 0.4]) == pytest.approx(REF_IMPORT_S / 0.4)
    assert import_factor([]) is None
    # Imports at half speed, the rest at twice the reference speed.
    assert reference_s(10.0, 1.0, 2 * REF_RATE, 0.5) == pytest.approx(0.5 + 18.0)
    assert reference_s(10.0, None, REF_RATE, 1.0) is None
    assert reference_s(10.0, 1.0, None, 1.0) is None
    job = Job(0, 10.0, 1.0, 1.0, None, REF_RATE / 2)
    assert job.ref_s(2.0) == pytest.approx(2.0 + 4.5)


def test_tail_percentile():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(20))) == (50.0, 9)


def test_seed_relabels_group_file(work):
    write_inputs(work / "a", 1)
    write_inputs(work / "b", 2)
    texts = [(work / s / GROUP_FILE).read_text() for s in "ab"]
    assert texts[0] != texts[1]
    for text in texts:
        gens = [parse_cycles(line, 120) for line in text.splitlines()[1:]]
        assert generated_order(gens) == 1320


def test_run_refuses_checkout_without_sources(work):
    shutil.copytree(ROOT / "perfbench", work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(work / "perfbench" / "run.py"), "--workload",
         "a5-level1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metrics_match_manifest():
    """Every metric a run prints is in BENCHMARK.json, in the same unit, and
    every workload there is one run.py knows."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = lambda key: {m["name"]: m["unit"] for m in manifest[key]}  # noqa: E731
    assert END_TO_END == units("end_to_end")
    assert {w["name"] for w in manifest["workloads"]} <= set(WORKLOADS)
    empty = {"counted": {}, "spans": []}
    traced = {k: unit for k, (_, unit) in layer_metrics(empty, empty).items()}
    traced.update({"trace.overhead_s": "s", "trace.overhead_share": "ratio"})
    assert traced == units("per_layer")
