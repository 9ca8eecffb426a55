import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cache_oracle as oracle
import dump_oracle
import group_oracle
from mtower import cache, cli, frattini, hurwitz
from mtower.cache import cache_get, cache_restore_entry, job_key
from mtower.cli import class_id, label_classes, main
from mtower.errors import CorruptCache
from mtower.gmodules import GModule
from mtower.groups import cyclic_group

DATA = Path(__file__).parent / "data"


def run_cli(args, tmp_path):
    return run_into(args, tmp_path, "out")


def run_into(args, tmp_path, report):
    return main(args + ["--report", str(tmp_path / report),
                        "--cache", str(tmp_path / "cache")])


def test_class_labels(a5):
    labels = label_classes(a5)
    assert labels == ["1A", "2A", "3A", "5A", "5B"]
    assert class_id(a5, "3A") == 2
    with pytest.raises(Exception):
        class_id(a5, "7A")


def test_class_labels_go_on_past_z(tmp_path, capsys):
    """Past Z the letters go on in bijective base 26 (Z, AA, AB, ...): Z/97
    has 96 classes of order 97, 97A to 97CR, and `level --classes` takes
    each of them (triples of one class are an empty Nielsen class, exit 3;
    past 97Z the labels used to be '[', lowercase and control characters,
    and 97CR's '\\xa0' was stripped and refused as unknown)."""
    labels = label_classes(cyclic_group(97))
    assert len(set(labels)) == 97
    assert all(re.fullmatch(r"[0-9]+[A-Z]+", label) for label in labels)
    assert labels[26:29] == ["97Z", "97AA", "97AB"] and labels[-1] == "97CR"
    for label in labels[1:]:
        assert run_cli(["level", "--group", "Z97", "--classes", f"{label},{label},{label}",
                        "--p", "2", "--k", "0", "--no-cache"], tmp_path) == 3, label
    assert "unknown class label" not in capsys.readouterr().err


def test_level_command_level0(tmp_path):
    rc = run_cli(["level", "--group", "A5", "--classes", "3A,3A,3A,3A",
                  "--p", "2", "--k", "0"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "components.json").read_text())
    comps = doc["levels"][0]["components"]
    assert len(comps) == 1
    assert comps[0]["genus"] == 0 and comps[0]["orbit_size"] == 18
    csv = (tmp_path / "out" / "sh_incidence_L0.csv").read_text()
    assert csv.splitlines()[0].count(",") == 5


def test_level_command_three_classes(tmp_path):
    """r = 3: one inner class, one cusp, and no H-M pattern to look for."""
    rc = run_cli(["level", "--group", "A5", "--classes", "5A,5A,5A",
                  "--p", "3", "--k", "0", "--no-cache"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "components.json").read_text())
    comps = doc["levels"][0]["components"]
    assert len(comps) == 1
    assert comps[0]["orbit_size"] == 1 and comps[0]["cusp_widths"] == [1]
    assert comps[0]["hm_cusps"] == [] and comps[0]["genus"] is None


def test_level_command_cache_roundtrip(tmp_path):
    args = ["level", "--group", "D5", "--classes", "2A,2A,2A,2A",
            "--p", "5", "--k", "0"]
    assert run_cli(args, tmp_path) == 0
    first = (tmp_path / "out" / "components.json").read_bytes()
    (tmp_path / "out" / "components.json").unlink()
    assert run_cli(args, tmp_path) == 0      # cache hit
    second = (tmp_path / "out" / "components.json").read_bytes()
    assert first == second


def test_empty_nielsen_exit_code(tmp_path):
    # K4 involution classes cannot generate K4 with four commuting entries
    # of a single class; expect the empty-class exit code
    rc = run_cli(["level", "--group", "K4", "--classes", "2A,2A,2A,2A",
                  "--p", "3", "--k", "0"], tmp_path)
    assert rc == 3


def test_budget_exit_code(tmp_path, capsys):
    """Each job is refused at the enumeration stage (exit 2) within 5 s:
    four 3-cycles over a budget of 10; fourteen, whose one arrangement has
    20^12 middle products (its 14! orderings are never listed); and
    fifteen, whose tuple keys (20^15) would overflow int64."""
    for copies, budget in ((4, ["--budget-elements", "10"]), (14, []), (15, [])):
        start = time.perf_counter()
        rc = run_cli(["level", "--group", "A5", "--classes", ",".join(["3A"] * copies),
                      "--p", "2", "--k", "0", "--no-cache", *budget], tmp_path)
        assert rc == 2, copies
        assert time.perf_counter() - start < 5, copies
        assert "enumeration stage" in capsys.readouterr().err, copies


def test_lift_budget_exit_code(tmp_path, capsys):
    """The dihedral level-0 enumeration tries 5^2 = 25 tuples (first entry
    pinned), each lift through a Z/5 kernel 5^3 = 125: a budget of 100
    stops the run at the lift stage, before any report is written."""
    rc = run_cli(["dihedral", "--p", "5", "--k", "2", "--budget-elements",
                  "100", "--no-cache"], tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert "lift stage" in err and "budget 100" in err
    assert not (tmp_path / "out").exists()


def test_gcomplete_command(tmp_path):
    rc = run_cli(["gcomplete", "--group", "A5", "--p", "2"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "gcomplete.json").read_text())
    assert doc["complete"] is True
    rc = run_cli(["gcomplete", "--group", "A5", "--p", "5"], tmp_path)
    doc = json.loads((tmp_path / "out" / "gcomplete.json").read_text())
    assert doc["complete"] is False and doc["witness"]


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_schur_command_level0(tmp_path):
    rc = run_cli(["schur", "--group", "A5", "--p", "2", "--k", "0"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "schur.json").read_text())
    assert len(doc["quotients"]) == 1
    assert doc["quotients"][0]["order"] == 120
    assert sha256_of(tmp_path / "out" / "schur.json") == \
        "f2d5d3c0b16c9646fc30977150e010b7357abfd9a2393f488fca60cd5ff73770"
    assert run_cli(["schur", "--group", "A4", "--p", "2", "--k", "0"],
                   tmp_path) == 0
    assert sha256_of(tmp_path / "out" / "schur.json") == \
        "1ebcad7a10efc706cbb53bd78e620236849aa148c8246f0a396fae1e49dc6697"


def test_schur_a5_level1_cli(tmp_path):
    # G1(A5) with the trivial module: an 11,549-unknown H^2 solve
    rc = run_cli(["schur", "--group", "A5", "--p", "2", "--k", "1"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "schur.json").read_text())
    # H^2(G1(A5), F_2) is a line: one quotient, of order 2 * 1920
    assert [q["order"] for q in doc["quotients"]] == [3840]
    digest, name = (DATA / "schur_a5_p2_k1.sha256").read_text().split()
    assert sha256_of(tmp_path / "out" / name) == digest


def test_a5_p3_level1_cli(tmp_path):
    """The order-4,860 level is past MUL_TABLE_LIMIT, so its products go by
    the pair model's closed form.  No earlier route finished this job, so
    its level-0 files are checked against the k = 0 run, which does not
    build a cover, before the whole report is checked against its pin."""
    args = ["level", "--group", "A5", "--classes", "5A,5A,5A", "--p", "3"]
    assert run_into(args + ["--k", "0"], tmp_path, "k0") == 0
    assert run_into(args + ["--k", "1", "--no-cache"], tmp_path, "k1") == 0
    k0, k1 = tmp_path / "k0", tmp_path / "k1"
    for name in ("orbits_L0.json", "sh_incidence_L0.csv"):
        assert (k1 / name).read_bytes() == (k0 / name).read_bytes()
    doc0, doc1 = (json.loads((d / "components.json").read_text()) for d in (k0, k1))
    assert doc1["levels"][0] == doc0["levels"][0]
    assert (doc1["levels"][1]["total_order"], doc1["levels"][1]["kernel_dim"]) == (4860, 4)
    assert len(doc1["levels"][1]["components"]) == 18
    for line in (DATA / "level_a5_p3_k1.sha256").read_text().splitlines():
        digest, name = line.split()
        assert sha256_of(k1 / name) == digest, name


def test_past_memory_ceiling_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(frattini, "MEMORY_CEILING", 1000)
    rc = run_cli(["schur", "--group", "A5", "--p", "2", "--k", "0"], tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert "H^2 solve: 64 unknowns" in err and "past MEMORY_CEILING" in err


def test_frattini_verify_pair_model_exits_2(tmp_path, capsys):
    # G1(A5) at p = 5 would be a pair model on 60 * 5^6 points, refused
    # before it is built
    start = time.perf_counter()
    rc = run_cli(["frattini-verify", "--group", "A5", "--p", "5"], tmp_path)
    assert rc == 2 and time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "pair model: 937,500 points" in err
    assert "past PAIR_MODEL_LIMIT = 65,536" in err
    assert not (tmp_path / "out").exists()


# (Z/3)^2 x| Q8 on 9 points: its normal 3-Sylow has no cyclic complement
Z3SQ_Q8 = "(1 4 7)(2 5 8)(3 6 9)\n(2 7 3 4)(5 8 9 6)\n(2 6 3 8)(4 5 7 9)\n"


@pytest.mark.parametrize("args", [["frattini-verify"], ["schur", "--k", "1"]])
def test_split_case_without_cyclic_complement_exits_2(tmp_path, capsys, args):
    gf = tmp_path / "z3sq_q8.txt"
    gf.write_text(Z3SQ_Q8)
    rc = run_cli(args + ["--group-file", str(gf), "--p", "3"], tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert "cover stage: the normal 3-Sylow has no cyclic complement" in err
    assert not (tmp_path / "out").exists()


def test_sylow_normalizer_without_cyclic_complement_names_it(tmp_path, capsys):
    """PSL(2,23) at p = 3: its 3-Sylow is not normal, and the one without a
    cyclic complement is that of the Sylow normalizer, which the refusal
    names (it used to say "the normal 3-Sylow", which PSL(2,23)'s is not)."""
    gf = tmp_path / "psl2_23.txt"
    gf.write_text(group_oracle.psl2_group_file(23))
    assert run_cli(["frattini-verify", "--group-file", str(gf), "--p", "3"], tmp_path) == 2
    err = capsys.readouterr().err
    assert ("cover stage: the normal 3-Sylow of the Sylow normalizer has no cyclic "
            "complement") in err
    assert not (tmp_path / "out").exists()


def test_gcomplete_past_the_table_matches_pin(tmp_path, capsys):
    """PSL(2,23) (order 6,072, past MUL_TABLE_LIMIT) at p = 3: the report,
    cold and replayed from the cache, has the pinned digest."""
    gf = tmp_path / "psl2_23.txt"
    gf.write_text(group_oracle.psl2_group_file(23))
    args = ["gcomplete", "--group-file", str(gf), "--classes", "2A,3A", "--p", "3"]
    assert run_into(args, tmp_path, "cold") == 0
    assert run_into(args, tmp_path, "replay") == 0
    assert "cache hit" in capsys.readouterr().out
    digest, name = (DATA / "gcomplete_psl2_23.sha256").read_text().split()
    assert _digests(tmp_path / "cold") == _digests(tmp_path / "replay") == {name: digest}


@pytest.mark.parametrize("flag, text", [
    # D9 from a presentation: its normal 3-Sylow is Z/9
    ("--presentation-file", "gens: r s\nr^9\ns^2\n(r*s)^2\n"),
    # the Heisenberg group of order 27 (exponent 3, not abelian) x| Z/4, on
    # its 27 elements: right translations by x and y, and the automorphism
    # x -> y, y -> x^-1
    ("--group-file",
     "(1 10 19)(2 11 20)(3 12 21)(4 13 22)(5 14 23)(6 15 24)(7 16 25)(8 17 26)(9 18 27)\n"
     "(1 4 7)(2 5 8)(3 6 9)(10 14 18)(11 15 16)(12 13 17)(19 24 26)(20 22 27)(21 23 25)\n"
     "(4 19 7 10)(5 20 8 11)(6 21 9 12)(13 24 25 18)(14 22 26 16)(15 23 27 17)\n"),
], ids=["Z9", "Heisenberg"])
def test_sylow_not_elementary_abelian_names_the_stage(tmp_path, capsys, flag, text):
    gf = tmp_path / "group.txt"
    gf.write_text(text)
    rc = run_cli(["frattini-verify", flag, str(gf), "--p", "3"], tmp_path)
    assert rc == 2
    assert "cover stage: the 3-Sylow is not elementary abelian" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


D5_RELABELLED = "(1 3 4 5 2)\n(2 3)(4 5)\n"


def test_relabelled_dihedral_falls_back_to_split_route(tmp_path):
    """D5 on (1 3 4 5 2) and (2 3)(4 5) is not in the dihedral closed
    form's standard form, so the level extends it by its Frattini module,
    the relation module of its normal 5-Sylow: the level-1 component is
    that of the builtin D5."""
    gf = tmp_path / "d5.txt"
    gf.write_text(D5_RELABELLED)
    args = ["level", "--classes", "2A,2A,2A,2A", "--p", "5", "--k", "1"]
    assert run_into(args + ["--group-file", str(gf)], tmp_path, "file") == 0
    assert run_into(args + ["--group", "D5"], tmp_path, "builtin") == 0
    for name in ("file", "builtin"):
        level = json.loads((tmp_path / name / "components.json").read_text())["levels"][1]
        assert level["total_order"] == 50
        assert [(c["orbit_size"], c["genus"]) for c in level["components"]] == [(300, 12)]


@pytest.mark.parametrize("args", [
    ["--group", "A5", "--classes", "5A,5A,5A", "--p", "3"],
    ["--group", "A5", "--classes", "3A,3A,3A,3A", "--p", "2"],
    ["--group-file", "d5.txt", "--classes", "2A,2A,2A,2A", "--p", "5"],
], ids=["A5-p3", "A5-p2", "relabelled-D5"])
def test_level_k2_outside_dihedral_form_refused_before_work(tmp_path, capsys, args):
    """k >= 2 runs only on the odd dihedral towers: every other group is
    refused at the boundary, before levels 0 and 1 are computed."""
    (tmp_path / "d5.txt").write_text(D5_RELABELLED)
    args = [str(tmp_path / a) if a == "d5.txt" else a for a in args]
    start = time.perf_counter()
    assert run_cli(["level", *args, "--k", "2"], tmp_path) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "cover stage" in err and "k <= 1" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_dihedral_form_test():
    """The test that gates k >= 2: an odd p dividing the degree, and G the
    standard D_n on its n points."""
    from mtower.groups import FiniteGroup, alternating_group, dihedral_group
    from mtower.perms import parse_group_file

    relabelled = FiniteGroup(parse_group_file(D5_RELABELLED))
    assert cli._takes_dihedral_form(dihedral_group(5), 5)
    assert cli._takes_dihedral_form(dihedral_group(15), 3)
    assert not cli._takes_dihedral_form(dihedral_group(5), 3)
    assert not cli._takes_dihedral_form(dihedral_group(4), 2)
    assert not cli._takes_dihedral_form(relabelled, 5)
    assert not cli._takes_dihedral_form(alternating_group(5), 5)


def test_group_file_loading(tmp_path):
    gf = tmp_path / "grp.txt"
    gf.write_text("# dihedral\n(1 2 3 4 5)\n(2 5)(3 4)\n")
    rc = main(["gcomplete", "--group-file", str(gf), "--p", "5",
               "--report", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "gcomplete.json").read_text())
    assert doc["group"].endswith(":10")      # the dihedral group was loaded
    assert doc["complete"] is False          # one reflection meets all 5' classes


def test_gcomplete_order_limit_exit_code(tmp_path, capsys):
    # A8, order 20,160: past the witness search's order limit
    gf = tmp_path / "a8.txt"
    gf.write_text("(1 2 3)\n(2 3 4 5 6 7 8)\n")
    for classes in ([], ["--classes", "3A,5A"]):
        rc = main(["gcomplete", "--group-file", str(gf), "--p", "2", *classes,
                   "--report", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "gcomplete witness search: group order 20160" in err
        assert "SUBGROUP_SEARCH_LIMIT = 10000" in err
        assert not (tmp_path / "out").exists()


def test_presentation_file_loading(tmp_path):
    pf = tmp_path / "pres.txt"
    pf.write_text("gens: a b\na^2\nb^3\n(a*b)^5\n")
    rc = main(["gcomplete", "--presentation-file", str(pf), "--p", "2",
               "--report", str(tmp_path / "out")])
    assert rc == 0


def test_cache_corruption(tmp_path):
    key = job_key({"x": 1})
    oracle.cache_put(tmp_path / "cache", key, "blob", b"payload")
    out = tmp_path / "out"
    out.mkdir()
    cache_get(tmp_path / "cache", key, "blob", out)
    assert (out / "blob").read_bytes() == b"payload"
    (out / "blob").unlink()
    path = tmp_path / "cache" / key / "blob"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCache):
        cache_get(tmp_path / "cache", key, "blob", out)
    assert not any(out.iterdir())       # the bad copy is not left behind


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mtower.cli", "gcomplete", "--group", "A5",
         "--p", "2", "--report", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert '"complete": true' in proc.stdout
    # the child publishes to the test's own default cache
    assert len(list(Path(os.environ["MT_CACHE"]).iterdir())) == 1


# The benchmark's four commands
BENCHMARK_JOBS = [
    ["level", "--group", "A5", "--classes", "3A,3A,3A,3A", "--p", "2", "--k", "1"],
    ["dihedral", "--p", "5", "--k", "2"],
    ["schur", "--group", "A4", "--p", "2", "--k", "1"],
    ["gcomplete", "--group-file", str(DATA / "sl2_11.txt"), "--classes", "3A,5A",
     "--p", "11"],
]
BENCHMARK_IDS = ["a5-level1", "dihedral-p5-k2", "schur-a4-k1", "gcomplete-sl2-11"]


@pytest.mark.parametrize("args", BENCHMARK_JOBS)
def test_jobs_do_not_import_numpy_ma(args, tmp_path):
    """A plain `np.unique` call imports `numpy.ma`, about 0.03 s of a cold
    job; the benchmark's jobs make none."""
    code = ("import sys; from mtower.cli import main; "
            "assert main(sys.argv[1:]) == 0; assert 'numpy.ma' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code, *args, "--no-cache",
                           "--report", str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="os.wait4 gives ru_maxrss in KiB on Linux")
def test_dihedral_p7_k2_cold_peak_rss(tmp_path):
    """`dihedral --p 7 --k 2` writes 332 MB of orbit dumps; run cold in a
    child, it peaks under 150 MB, as the dumps are formatted while they are
    written and never held as text.  A small launcher starts the job: a
    child's peak counts from the memory of the process that started it."""
    launch = ("import os, subprocess, sys; "
              "job = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
              "_, status, usage = os.wait4(job.pid, 0); "
              "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    proc = subprocess.run(
        [sys.executable, "-c", launch, sys.executable, "-m", "mtower.cli", "dihedral",
         "--p", "7", "--k", "2", "--no-cache", "--report", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, kib = map(int, proc.stdout.split())
    assert rc == 0, proc.stderr
    assert kib < 150 * 1024, f"peak RSS {kib / 1024:.0f} MB"


def run_child(code, *args):
    """Run `code` in a fresh interpreter, as `python -c code args...`."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_numpy_unloaded():
    """numpy is bound lazily: importing the CLI loads none of it, and the
    first use of `np` loads the real module, the same one `import numpy`
    then returns."""
    run_child("import sys; import mtower.cli; from mtower import groups\n"
              "assert 'numpy._core' not in sys.modules\n"
              "assert int(groups.np.arange(4).sum()) == 6\n"
              "assert 'numpy._core' in sys.modules\n"
              "import numpy; assert numpy is groups.np")


def test_numpy_imported_first_is_used_as_is():
    run_child("import types, numpy; import mtower.cli\n"
              "from mtower import groups, nielsen, np\n"
              "assert np is numpy and groups.np is numpy and nielsen.np is numpy\n"
              "assert type(numpy) is types.ModuleType")


# The mtower modules that have run: a lazily bound one that nothing has read
# is in sys.modules, but its type is LazyLoader's module subclass.
EXECUTED = ("[n for n, m in sorted(sys.modules.items()) "
            "if n.startswith('mtower.') and type(m) is types.ModuleType]")


def test_lazy_analysis_modules_import_as_usual():
    """A module that `cli` binds lazily is bound on the package as well, so
    `import mtower.groups` after `import mtower.cli` works as it did."""
    run_child("import mtower.cli, mtower.groups\n"
              "assert mtower.groups.dihedral_group(3).order == 6\n"
              "assert mtower.cli.groups is mtower.groups")


@pytest.mark.parametrize("args", BENCHMARK_JOBS, ids=BENCHMARK_IDS)
def test_warm_replay_does_not_load_numpy(args, tmp_path):
    """A cache hit builds nothing, so it never loads numpy, and it runs
    only `cli`, `cache` and `errors` of mtower; its report is the cold
    one, byte for byte."""
    assert run_into(args, tmp_path, "cold") == 0
    out = run_child("import sys, types; from mtower.cli import main\n"
                    "assert main(sys.argv[1:]) == 0\n"
                    "assert 'numpy._core' not in sys.modules\n"
                    f"print({EXECUTED})",
                    *args, "--cache", str(tmp_path / "cache"),
                    "--report", str(tmp_path / "warm"))
    assert out.startswith("cache hit")
    assert out.splitlines()[-1] == str(["mtower.cache", "mtower.cli", "mtower.errors"])
    assert _report(tmp_path / "warm") == _report(tmp_path / "cold")


COVER = ["fp", "frattini", "gmodules", "groups", "linalg", "perms"]
LEVEL = COVER + ["hurwitz", "nielsen"]
# job -> (arguments, {tmp} standing for the test's directory; the analysis
# modules its cold miss runs); the gcomplete jobs differ in their group source
COLD_JOBS = {
    "level": (["level", "--group", "D5", "--classes", "2A,2A,2A,2A", "--p", "5",
               "--k", "0"], LEVEL),
    "dihedral": (["dihedral", "--p", "5", "--k", "0"], LEVEL),
    "schur": (["schur", "--group", "A4", "--p", "2", "--k", "1"], COVER + ["schur"]),
    "frattini-verify": (["frattini-verify", "--group", "A4", "--p", "2"], COVER),
    "gcomplete": (["gcomplete", "--group", "K4", "--p", "2"],
                  ["gcomplete", "groups", "perms"]),
    "gcomplete-builtin-presented": (["gcomplete", "--group", "A5", "--p", "2"],
                                    ["gcomplete", "groups", "perms"]),
    "gcomplete-group-file": (["gcomplete", "--group-file", str(DATA / "sl2_11.txt"),
                              "--classes", "3A,5A", "--p", "11"],
                             ["gcomplete", "groups", "perms"]),
    "gcomplete-presentation-file": (["gcomplete", "--presentation-file",
                                     "{tmp}/a5.pres", "--p", "2"],
                                    ["fp", "gcomplete", "groups", "perms"]),
}
# Runs the job with `compute` checked: numpy and every mtower module it
# runs have executed before it starts, and it executes no more of them
CHECKED_COMPUTE = f"""import sys, types
from mtower import cli
def executed():
    return {EXECUTED}
def cached(args, job, compute, *rest, **kwargs):
    def checked(report_dir):
        before = executed()
        assert 'numpy._core' in sys.modules
        result = compute(report_dir)
        assert executed() == before, (before, executed())
        return result
    return run(args, job, checked, *rest, **kwargs)
run, cli._cached = cli._cached, cached
assert cli.main(sys.argv[1:]) == 0
print(executed())"""


@pytest.mark.parametrize("job", COLD_JOBS)
def test_cold_miss_loads_only_the_modules_it_runs(tmp_path, job):
    """A miss loads numpy and the modules its command and group source
    declare before compute, so none is compiled while a level is alive, and
    it loads no analysis module the job does not call."""
    args, modules = COLD_JOBS[job]
    (tmp_path / "a5.pres").write_text("gens: a b\na^2\nb^3\n(a*b)^5\n")
    out = run_child(CHECKED_COMPUTE, *(a.format(tmp=tmp_path) for a in args),
                    "--cache", str(tmp_path / "cache"),
                    "--report", str(tmp_path / "cold"))
    assert out.splitlines()[-1] == str(sorted(
        ["mtower.cache", "mtower.cli", "mtower.errors",
         *(f"mtower.{m}" for m in modules)]))


def test_cache_keys_of_builtin_jobs_are_stable(tmp_path, monkeypatch):
    """Keys of builtin groups and `dihedral` are formed as before lookup
    moved ahead of the group build: at VERSION 3 they are that version's
    keys, so its old entries would still hit, and VERSIONs 4, 5 and 6 only
    move them."""
    keys = {3: ["65ea0305c52bd1712155414c9ebbbabdf4030ff45c69cd1c4ca0b0038c5172b3",
                "bdbd0a21aefd239e1eca64c904afea56e034348ec6f33c8e3ee134802f3e3bc9",
                "e2f91c4b26f3a820988566c6e60d49affdd9b8357502b9bb66b7bd04688d5215"],
            4: ["138e7745882632e99d17101866625abc5d35c01531701c64fde3033ee118c056",
                "6ead14a2522f6be95790ae09321a31f7a28dcacae896b1f5098c92b59d308cc0",
                "9a21f268043bf9c810a1b778457048ea8b57945038352e6c9191d404376e6cb8"],
            5: ["4cfb973c4064a638b27815ed0d715805b20b98d209974e7e36bd08361e575e1c",
                "870d4a496c88ed38422a70830e07fb5b18247b995a24d6f48e45a7132735bf41",
                "cb3ca83b13329bb4fc459fe2547602a144ac1ba85dbef1a97f9ca90696e3d114"],
            6: ["1ba0886aebd7657c35975868d6a0bed431978b182a3b88b181b5ef23cc4d61b8",
                "7c16401d4f1998dbda8fa47e4cddefb3f7d38d3bce0f300d60a675f32be39457",
                "fe8a5f386db3b6fc2bd99c660f17d0f58c523542ce19f2e5a6f40a31c08741d5"]}
    assert cli.VERSION == 6
    for version, want in keys.items():
        monkeypatch.setattr(cli, "VERSION", version)
        for args in (["dihedral", "--p", "5", "--k", "0"], D5_LEVEL0,
                     ["gcomplete", "--group", "A5", "--p", "2"]):
            assert main(args + ["--report", str(tmp_path / "out"),
                                "--cache", str(tmp_path / f"v{version}")]) == 0
        assert sorted(d.name for d in (tmp_path / f"v{version}").iterdir()) == want


def test_version_4_entry_misses_at_version_5(tmp_path, capsys, monkeypatch):
    """An entry keyed at VERSION 4, as every entry of report version 4
    (dumps in cycle notation) is, is not replayed at VERSION 5: the job
    recomputes its report, with its element table, and prints no "cache
    hit"."""
    with monkeypatch.context() as m:
        m.setattr(cli, "VERSION", 4)
        assert run_into(D5_LEVEL0, tmp_path, "v4") == 0
    capsys.readouterr()
    assert run_cli(D5_LEVEL0, tmp_path) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert len(list((tmp_path / "cache").iterdir())) == 2
    assert _report(tmp_path / "out") == _report(tmp_path / "v4")
    assert "elements_L0.json" in _report(tmp_path / "out")


def test_report_past_memory_ceiling_refused_before_emission(tmp_path, capsys,
                                                            monkeypatch):
    """The report's size is known before any file opens: with MEMORY_CEILING
    below the 285,326 bytes of `dihedral --p 5 --k 2`, the job exits 2,
    naming the emission stage and the limit, and leaves neither --report
    nor its parent, nor a staging directory, nor a cache entry."""
    monkeypatch.setattr(frattini, "MEMORY_CEILING", 200_000)
    report = tmp_path / "reports" / "out"
    assert main(["dihedral", "--p", "5", "--k", "2", "--report", str(report),
                 "--cache", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert ("emission stage: the report's 10 files need 285,326 bytes, past "
            "MEMORY_CEILING = 200,000 bytes") in err
    assert list(tmp_path.iterdir()) == []


def test_group_file_hit_ignores_budgets(tmp_path, capsys):
    """A hit does no work, so it is served whatever the budgets; the same
    job without the cache builds the group and is refused."""
    gf = tmp_path / "d5.txt"
    gf.write_text("(1 2 3 4 5)\n(2 5)(3 4)\n")
    args = ["gcomplete", "--group-file", str(gf), "--p", "5"]
    assert run_cli(args, tmp_path) == 0
    capsys.readouterr()
    assert run_into(args + ["--budget-elements", "1"], tmp_path, "again") == 0
    assert capsys.readouterr().out.startswith("cache hit")
    assert _report(tmp_path / "again") == _report(tmp_path / "out")
    assert main(args + ["--budget-elements", "1", "--no-cache",
                        "--report", str(tmp_path / "cold")]) == 2
    assert "past --budget-elements" in capsys.readouterr().err
    assert not (tmp_path / "cold").exists()


@pytest.mark.parametrize("args, reason", [
    (["level", "--group", "A5", "--classes", "3A,3A,3A,3A", "--p", "2",
      "--k", "2"], "k <= 1"),
    (["level", "--group", "A5", "--classes", "3A,3A,3A,9Z", "--p", "2",
      "--k", "0"], "unknown class label '9Z'"),
    (["gcomplete", "--group", "A5", "--classes", "3A,9Z", "--p", "2"],
     "unknown class label '9Z'"),
    (["frattini-verify", "--group", "A4", "--p", "3"], "not 3-perfect"),
], ids=["level-k2", "level-label", "gcomplete-label", "frattini-uncoverable"])
def test_refused_job_with_warm_cache(tmp_path, capsys, args, reason):
    """The lookup comes first, but a refused input never has an entry: with
    a warm cache holding another job it still exits 2, writes no report and
    publishes nothing."""
    warm = ["level", "--group", "A5", "--classes", "3A,3A,3A,3A", "--p", "2",
            "--k", "0"]
    assert run_into(warm, tmp_path, "warm") == 0
    (entry,) = (tmp_path / "cache").iterdir()
    capsys.readouterr()
    assert run_cli(args, tmp_path) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert list((tmp_path / "cache").iterdir()) == [entry]


@pytest.mark.parametrize("flag, text, budget, message", [
    ("--group-file", "(1 2 3 4 5)\n(1 2 3)\n", "--budget-elements",
     "group build: more than 10 elements, past --budget-elements"),
    ("--presentation-file", "gens: a b\na^2\nb^3\n(a*b)^5\n", "--budget-cosets",
     "coset enumeration: more than 10 cosets, past --budget-cosets"),
    ("--presentation-file", "gens: a b\na^2\nb^3\n(a*b)^5\n", "--budget-elements",
     "group build: more than 10 elements, past --budget-elements"),
], ids=["group-build", "coset-enumeration", "presented-group-build"])
def test_budget_messages_name_stage_and_limit(tmp_path, capsys, flag, text,
                                              budget, message):
    path = tmp_path / "a5.txt"
    path.write_text(text)
    assert run_cli(["gcomplete", flag, str(path), "--p", "2", budget, "10"],
                   tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["level", "--group", "D5", "--classes", "2A,2A,2A,2A",
              "--p", "5", "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["gcomplete", "--group", "A5", "--p", "5", "--k", "1"],
    ["frattini-verify", "--group", "A4", "--p", "2", "--k", "1"],
], ids=["gcomplete", "frattini-verify"])
def test_k_refused_where_unread(tmp_path, args):
    """Only level, dihedral and schur take --k: elsewhere it is not in the
    cache key, so argparse refuses it."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args, tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args, message", [
    (["level", "--group", "A5", "--group-file", str(DATA / "sl2_11.txt"),
      "--classes", "3A,3A,3A,3A", "--p", "2"],
     "argument --group-file: not allowed with argument --group"),
    (["gcomplete", "--p", "5"],
     "one of the arguments --group --group-file --presentation-file is required"),
], ids=["two-sources", "no-source"])
def test_group_source_is_one_and_required(tmp_path, capsys, monkeypatch, args,
                                          message):
    """A job names exactly one of --group, --group-file and
    --presentation-file: argparse refuses two or none before any work."""
    monkeypatch.setattr(cli, "_cached", lambda *a, **k: pytest.fail("the job ran"))
    with pytest.raises(SystemExit) as exc:
        run_cli(args, tmp_path)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, bound", [
    (["level", "--group", "D5", "--classes", "2A,2A,2A,2A", "--p", "4",
      "--k", "0"], "--p must be prime"),
    (["level", "--group", "D5", "--classes", "2A,2A,2A,2A", "--p", "5",
      "--k", "-1"], "--k must be >= 0"),
    (["dihedral", "--p", "9", "--k", "0"], "--p must be prime"),
    (["schur", "--group", "A4", "--p", "2", "--k", "3"],
     "--k must be <= 1 for schur"),
    (["frattini-verify", "--group", "A5", "--p", "4"], "--p must be prime"),
    (["dihedral", "--p", "5", "--k", "1", "--budget-elements", "-5"],
     "--budget-elements must be >= 1, got -5"),
    (["gcomplete", "--group", "A5", "--p", "2", "--budget-cosets", "-1"],
     "--budget-cosets must be >= 1, got -1"),
], ids=["level-p4", "level-k-1", "dihedral-p9", "schur-k3", "frattini-p4",
        "dihedral-budget-elements-5", "gcomplete-budget-cosets-1"])
def test_bad_p_or_k_rejected_before_work(tmp_path, capsys, args, bound):
    assert run_cli(args, tmp_path) == 2
    assert bound in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args, reason", [
    (["level", "--group", "Z2", "--classes", "2A,2A,2A,2A", "--p", "3",
      "--k", "1"], "p = 3 does not divide |G| = 2"),
    (["frattini-verify", "--group", "A4", "--p", "5"],
     "p = 5 does not divide |G| = 12"),
    (["schur", "--group", "Z3", "--p", "3", "--k", "1"],
     "G is not 3-perfect (G/[G,G] has order 3)"),
    (["frattini-verify", "--group", "A4", "--p", "3"],
     "G is not 3-perfect (G/[G,G] has order 3)"),
    (["level", "--group", "D5", "--classes", "2A,2A,2A,2A", "--p", "2",
      "--k", "1"], "G is not 2-perfect (G/[G,G] has order 2)"),
], ids=["level-p-coprime", "frattini-p-coprime", "schur-not-perfect",
        "frattini-not-perfect", "level-not-perfect"])
def test_uncoverable_group_rejected_before_work(tmp_path, capsys, monkeypatch,
                                                 args, reason):
    """No p-Frattini cover: p must divide |G| and G must be p-perfect."""
    def no_build(*a, **k):
        raise AssertionError("cover build started")

    monkeypatch.setattr(cli, "build_level", no_build)
    assert run_cli(args, tmp_path) == 2
    err = capsys.readouterr().err
    assert "cover stage" in err and reason in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_uncoverable_group_still_runs_level0(tmp_path):
    assert run_cli(["level", "--group", "Z2", "--classes", "2A,2A,2A,2A",
                    "--p", "3", "--k", "0"], tmp_path) == 0


@pytest.mark.parametrize("args", [
    ["level", "--classes", "3A,3A,3A,3A", "--p", "2", "--k", "1"],
    ["schur", "--p", "2", "--k", "1"],
    ["frattini-verify", "--p", "2"],
], ids=["level", "schur", "frattini-verify"])
def test_permutation_file_runs_like_the_builtin(tmp_path, args):
    """A5 written as a file of the builtin's two generators is peeled to the
    builtin's presentation, so each report is the builtin's byte for byte
    but for its "group"."""
    gf = tmp_path / "a5.txt"
    gf.write_text("(1 5)(3 4)\n(1 2 3)\n")
    assert run_into(args + ["--group", "A5"], tmp_path, "builtin") == 0
    assert run_into(args + ["--group-file", str(gf)], tmp_path, "file") == 0
    builtin, file = _report(tmp_path / "builtin"), _report(tmp_path / "file")
    assert builtin.keys() == file.keys()
    for name, data in file.items():
        assert data.replace(b'"group": "file:a5.txt:60"', b'"group": "A5"') \
            == builtin[name], name


def test_sl2_11_file_has_no_z2_schur_quotient(tmp_path):
    """SL(2,11) is its own Schur cover: from a permutation file, with no
    presentation given, its Z/2 Schur quotients are none."""
    args = ["schur", "--group-file", str(DATA / "sl2_11.txt"), "--p", "2", "--k", "0"]
    assert run_cli(args, tmp_path) == 0
    doc = json.loads((tmp_path / "out" / "schur.json").read_text())
    assert doc["quotients"] == []


@pytest.mark.parametrize("args, count", [
    (["--group", "Z3", "--classes", "3A,3B", "--p", "2"], 2),
    (["--group", "Z2", "--classes", "2A,2A", "--p", "3"], 2),
    (["--group", "A5", "--classes", "3A", "--p", "2"], 1),
    (["--group", "A5", "--p", "2"], 0),
], ids=["Z3-two", "Z2-two", "A5-one", "no-classes"])
def test_fewer_than_three_classes_rejected(tmp_path, capsys, args, count):
    assert run_cli(["level", *args, "--k", "0"], tmp_path) == 2
    assert f"--classes needs at least 3 classes, got {count}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("k", ["0", "1"])
def test_class_of_order_divisible_by_p_named(tmp_path, capsys, monkeypatch, k):
    """A class whose order p divides is named by its label, before any
    cover is built."""
    def no_build(*a, **kw):
        raise AssertionError("cover build started")

    monkeypatch.setattr(cli, "build_level", no_build)
    assert run_cli(["level", "--group", "A5", "--classes", "2A,2A,2A",
                    "--p", "2", "--k", k], tmp_path) == 2
    assert "Nielsen class: 2A has order divisible by p = 2" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("classes", ["1A,1A,1A", "1A,1A,1A,1A"])
def test_cyclic_group_of_order_zero_rejected(tmp_path, capsys, classes):
    assert run_cli(["level", "--group", "Z0", "--classes", classes,
                    "--p", "2"], tmp_path) == 2
    assert "cyclic needs n >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flag, text, reason", [
    ("--group-file", "(0,1\n", "bad cycle"),
    ("--group-file", "(1,2)(2,3)\n", "not a bijection"),
    ("--group-file", "(1,a)\n", "invalid literal"),
    ("--group-file", "# only a comment\n", "no permutations"),
    ("--group-file", None, "No such file"),
    ("--presentation-file", "gens: a\na^\n", "missing exponent"),
    ("--presentation-file", None, "No such file"),
], ids=["open-cycle", "overlapping-cycles", "non-integer-point",
        "comment-only", "missing-group-file", "trailing-caret",
        "missing-presentation-file"])
def test_bad_input_file_rejected(tmp_path, capsys, flag, text, reason):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    args = ["level", flag, str(path), "--classes", "2A,2A,2A,2A", "--p", "2"]
    assert run_cli(args, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(path) in err and reason in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_cache_key_covers_file_contents(tmp_path, capsys):
    (tmp_path / "d5").mkdir()
    (tmp_path / "z10").mkdir()
    (tmp_path / "d5" / "grp.txt").write_text("(1 2 3 4 5)\n(2 5)(3 4)\n")
    (tmp_path / "z10" / "grp.txt").write_text("(1 2 3 4 5 6 7 8 9 10)\n")
    args = ["level", "--classes", "2A,2A,2A,2A", "--p", "5"]
    assert run_cli(args + ["--group-file", str(tmp_path / "d5" / "grp.txt")],
                   tmp_path) == 0
    capsys.readouterr()
    # same file name, other group: not served from the D5 entry
    assert run_cli(args + ["--group-file", str(tmp_path / "z10" / "grp.txt")],
                   tmp_path) == 3
    assert "cache hit" not in capsys.readouterr().out
    # the same for gcomplete, where both files also give the same order
    for d in ("d5", "z10"):
        assert run_cli(["gcomplete", "--p", "5", "--group-file",
                        str(tmp_path / d / "grp.txt")], tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out


def test_cache_key_covers_arguments(tmp_path, capsys):
    """Another --k or other --classes is another job; class labels are keyed
    without their surrounding spaces."""
    schur = ["schur", "--group", "A4", "--p", "2"]
    gcomplete = ["gcomplete", "--group", "A5", "--p", "5"]
    for args, hit in [(schur + ["--k", "0"], False), (schur + ["--k", "1"], False),
                      (schur + ["--k", "0"], True), (gcomplete, False),
                      (gcomplete + ["--classes", "5A,5B"], False),
                      (gcomplete + ["--classes", "5A, 5B"], True)]:
        assert run_cli(args, tmp_path) == 0
        assert ("cache hit" in capsys.readouterr().out) == hit, args


@pytest.mark.parametrize("args", [
    ["gcomplete", "--group", "A5", "--p", "2"],
    ["frattini-verify", "--group", "A4", "--p", "2"],
])
def test_cache_hit_prints_verdict(tmp_path, capsys, args):
    assert run_cli(args, tmp_path) == 0
    cold = capsys.readouterr().out.splitlines()
    assert run_into(args, tmp_path, "again") == 0
    hit = capsys.readouterr().out.splitlines()
    assert hit[0].startswith("cache hit") and hit[1:] == cold
    assert _report(tmp_path / "again") == _report(tmp_path / "out")


def test_failing_frattini_check_is_not_published(tmp_path, capsys, monkeypatch):
    args = ["frattini-verify", "--group", "A4", "--p", "2"]
    with monkeypatch.context() as m:
        m.setattr(frattini, "verify_frattini", lambda L: False)
        assert run_cli(args, tmp_path) == 4
    assert not (tmp_path / "cache").exists()
    assert '"frattini": false' in capsys.readouterr().out     # the verdict line
    assert run_cli(args, tmp_path) == 0
    assert "cache hit" not in capsys.readouterr().out


D5_LEVEL0 = ["level", "--group", "D5", "--classes", "2A,2A,2A,2A",
             "--p", "5", "--k", "0"]
# job -> (arguments, the entry file damaged, the files of its report)
CACHED_JOBS = {
    "level": (D5_LEVEL0, "orbits_L0.json",
              {"components.json", "sh_incidence_L0.csv", "elements_L0.json",
               "orbits_L0.json"}),
    "schur": (["schur", "--group", "A4", "--p", "2", "--k", "1"], "schur.json",
              {"schur.json"}),
    "gcomplete": (["gcomplete", "--group", "A5", "--p", "2"], "gcomplete.json",
                  {"gcomplete.json"}),
}


def _report(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


@pytest.mark.parametrize("job,damage", [
    pytest.param(job, damage, id=damage if job == "level" else f"{job}-{damage}")
    for job in CACHED_JOBS for damage in ("missing", "corrupt", "header")])
def test_incomplete_cache_entry_recomputes(tmp_path, capsys, job, damage):
    args, victim_name, files = CACHED_JOBS[job]
    assert run_cli(args, tmp_path) == 0
    first = _report(tmp_path / "out")
    assert set(first) == files
    (entry,) = (tmp_path / "cache").iterdir()
    victim = entry / victim_name
    if damage == "missing":
        victim.unlink()
    else:
        raw = bytearray(victim.read_bytes())
        raw[-2 if damage == "corrupt" else 0] ^= 0xFF
        victim.write_bytes(bytes(raw))
    with pytest.raises(CorruptCache):
        cache_restore_entry(tmp_path / "cache", entry.name, tmp_path / "scratch")
    # all or nothing: no report directory, and no temporary one beside it
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cache", "out"]
    capsys.readouterr()
    assert run_into(args, tmp_path, "again") == 0
    out = capsys.readouterr()
    assert "cache hit" not in out.out and "recomputing" in out.err
    # the cold report, and no temporary file beside it
    assert _report(tmp_path / "again") == first
    # the recomputed entry replaced the damaged one; a hit writes no manifest
    assert run_into(args, tmp_path, "third") == 0
    assert "cache hit" in capsys.readouterr().out
    assert _report(tmp_path / "third") == first


D5_K1 = ["dihedral", "--p", "5", "--k", "1"]


def _fails_on_second_call(real):
    """`real`, but its second call raises the OSError of a file past the
    file-size limit."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(errno.EFBIG, "File too large")
        return real(*args)
    return wrapper


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-earlier"])
@pytest.mark.parametrize("stage, module, name", [
    ("emission", cli, "_write_orbits"), ("replay", cache, "cache_get")],
    ids=["emission", "replay"])
def test_failed_publish_exits_2_and_leaves_report_as_it_was(
        tmp_path, capsys, monkeypatch, earlier, stage, module, name):
    """An OSError while a report is written (a cold job's second orbit dump)
    or replayed (an entry's second file) exits 2, naming the stage and the
    report: --report is absent if it was, or keeps its earlier files, and no
    staging directory is left beside it."""
    if stage == "replay":
        assert run_into(D5_K1, tmp_path, "first") == 0      # the entry
    if earlier:
        assert run_cli(["gcomplete", "--group", "A5", "--p", "2"], tmp_path) == 0
    before = _report(tmp_path / "out") if earlier else None
    siblings = sorted(f.name for f in tmp_path.iterdir())
    capsys.readouterr()
    monkeypatch.setattr(module, name, _fails_on_second_call(getattr(module, name)))
    assert run_cli(D5_K1, tmp_path) == 2
    assert f"{stage} stage: {tmp_path / 'out'}: File too large" in capsys.readouterr().err
    if earlier:
        assert _report(tmp_path / "out") == before
    else:
        assert not (tmp_path / "out").exists()
    assert sorted(f.name for f in tmp_path.iterdir()) == siblings


def test_report_files_of_earlier_jobs_are_removed(tmp_path, capsys):
    """A report, cold or replayed, takes the place of the report files of
    earlier jobs in --report (level 2's files go when level 1 is written
    over them), and leaves other files alone."""
    jobs = {k: ["dihedral", "--p", "5", "--k", k] for k in "21"}
    refs = {}
    for k, args in jobs.items():        # each in its own report; the entries
        assert run_into(args, tmp_path, f"ref{k}") == 0
        refs[k] = _report(tmp_path / f"ref{k}")
    report = tmp_path / "out"
    report.mkdir()
    (report / "notes.txt").write_text("mine\n")
    notes = {"notes.txt": b"mine\n"}
    capsys.readouterr()
    for cache_args in (["--no-cache"], ["--cache", str(tmp_path / "cache")]):
        for k in "21":
            assert main(jobs[k] + cache_args + ["--report", str(report)]) == 0
            assert _report(report) == {**refs[k], **notes}
    assert capsys.readouterr().out.count("cache hit") == 2
    assert main(["gcomplete", "--group", "A5", "--p", "2", "--no-cache",
                 "--report", str(report)]) == 0
    assert set(_report(report)) == {"gcomplete.json", "notes.txt"}


@pytest.mark.parametrize("flag, path", [
    ("--report", "file"), ("--report", "file/sub"), ("--cache", "file")],
    ids=["report-file", "report-under-file", "cache-file"])
def test_unusable_report_or_cache_path_refused_before_work(tmp_path, capsys,
                                                           monkeypatch, flag, path):
    (tmp_path / "file").write_text("mine\n")
    monkeypatch.setattr(cli, "_cached", lambda *a, **k: pytest.fail("the job ran"))
    assert main(D5_K1 + ["--report", str(tmp_path / "out"),
                         flag, str(tmp_path / path)]) == 2
    assert (f"{flag} {tmp_path / path}: {tmp_path / 'file'} is not a directory"
            in capsys.readouterr().err)
    assert [f.name for f in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "mine\n"


def test_failed_cache_write_warns_and_keeps_the_report(tmp_path, capsys, monkeypatch):
    """An entry that cannot be written after the report is published (a full
    disk) is a warning: the job keeps its exit code and its report, and no
    entry, whole or partial, is left in the cache."""
    def full_disk(*args):
        raise OSError(errno.ENOSPC, "No space left on device")
    with monkeypatch.context() as m:
        m.setattr(shutil, "copyfileobj", full_disk)
        assert run_cli(D5_LEVEL0, tmp_path) == 0
    assert "warning: cache entry not written" in capsys.readouterr().err
    assert set(_report(tmp_path / "out")) == CACHED_JOBS["level"][2]
    assert list((tmp_path / "cache").iterdir()) == []
    assert run_into(D5_LEVEL0, tmp_path, "again") == 0
    assert "cache hit" not in capsys.readouterr().out
    assert _report(tmp_path / "again") == _report(tmp_path / "out")


def _digests(path):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in path.iterdir()}


def _v4_digests(path):
    """_digests of the report in `path` as report version 4 wrote it: each
    orbits_L<k>.json expanded back to cycle notation with its
    elements_L<k>.json (dump_oracle.expand), which version 4 did not have."""
    out = {}
    for f in path.iterdir():
        if f.name.startswith("orbits_L"):
            h = hashlib.sha256()
            for piece in dump_oracle.expand(f.read_text(), (path / f.name.replace(
                    "orbits", "elements")).read_text()):
                h.update(piece.encode())
            out[f.name] = h.hexdigest()
        elif not f.name.startswith("elements_L"):
            out[f.name] = sha256_of(f)
    return out


# The report of `dihedral --p 5 --k 1` at version 4
D5_TOWER_SHA256 = {
    "components.json":
        "d52bbadace8f7bf539aec0fdff252e20be2787d04b344c3d1fa2af277adb977f",
    "orbits_L0.json":
        "26489ec8ef0a4b4304faddef88c1228bc4cfc5d0c96c707e3c761c94060627f2",
    "orbits_L1.json":
        "b20e66541e1225da42420299a47cdf808eabee32269873608090937381bd0623",
    "sh_incidence_L0.csv":
        "6e069b1ddd8d9cd0c3a38e5e7adc4543214ef75cf012d98f51db8501ffdf9630",
    "sh_incidence_L1.csv":
        "04aaf7e30d67885f72267ade4b6296a1af95bea830965a3ca21a8c74d8ff127c",
}


def test_level1_dihedral_cli(tmp_path):
    rc = run_cli(["dihedral", "--p", "5", "--k", "1"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "components.json").read_text())
    comp = doc["levels"][1]["components"][0]
    assert comp["orbit_size"] == 300 and comp["genus"] == 12
    assert doc["comparisons"][0]["verdict"] == "equality"
    dumps = json.loads((tmp_path / "out" / "orbits_L1.json").read_text())
    table = json.loads((tmp_path / "out" / "elements_L1.json").read_text())
    assert len(dumps[0]) == 300 and len(dumps[0][0]) == 4
    assert all(table[i].startswith("(") for i in dumps[0][0])
    assert _v4_digests(tmp_path / "out") == D5_TOWER_SHA256


def test_level2_dihedral_cli_bytes(tmp_path):
    assert run_cli(["dihedral", "--p", "5", "--k", "2"], tmp_path) == 0
    assert _v4_digests(tmp_path / "out") == {
        **D5_TOWER_SHA256,
        "components.json":
            "1d5a71e5fc235ffb2fed9c871fed45220ff600f4cdf6a4d5baee0c79f18a9800",
        "orbits_L2.json":
            "99138b2b336919d39222c9dfbe8353d8c190700508a6ee84d8ecf79cb8fa2b9e",
        "sh_incidence_L2.csv":
            "294c3da969948a052d439cf41e2856d9622be03d086ab1cb7afdf8803130ce86",
    }


# The report of `level --group A5 --classes 3A,3A,3A,3A --p 2 --k 1` in
# version 4's notation (_v4_digests), over the level of version 6
A5_LEVEL1_SHA256 = {
    "components.json":
        "d800062cbe4ca5236a9c183ed59e1fca43c5887f1a7f8657d719ed4f5b4b2af0",
    "orbits_L0.json":
        "28d55763626ae79c33bb8d83862d0c542b1741857e9646e9af05ddbb9ce1f369",
    "orbits_L1.json":
        "076db03ff81c5602b6cdc5add022e57bd90ac9898f401e11a98d821e50fe9e5c",
    "sh_incidence_L0.csv":
        "25c4fcf4f65e23c984c350cacdd3600301b7267f3f1cc31f84023193dfcc9f19",
    "sh_incidence_L1.csv":
        "26481aabf8d6ebcf7d698717d3cafed9be999e5082841f5d386c50ca9ba5c014",
}


def test_level1_a5_cli(tmp_path):
    rc = run_cli(["level", "--group", "A5", "--classes", "3A,3A,3A,3A",
                  "--p", "2", "--k", "1"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "components.json").read_text())
    comps = doc["levels"][1]["components"]
    assert sorted(c["genus"] for c in comps) == [9, 12]
    assert doc["levels"][1]["total_order"] == 1920
    assert all(c["verdict"] == "hypotheses-unmet" for c in doc["comparisons"])
    assert _v4_digests(tmp_path / "out") == A5_LEVEL1_SHA256


def test_schur_cli_a4_level1(tmp_path):
    rc = run_cli(["schur", "--group", "A4", "--p", "2", "--k", "1"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "schur.json").read_text())
    quots = doc["quotients"]
    assert len(quots) == 3
    assert sorted(q["top_type"] for q in quots) == ["K4xZ4", "Q8.Z4", "Q8xZ2"]
    assert sum(q["abelian"] for q in quots) == 1
    abelian = next(q for q in quots if q["abelian"])
    assert abelian["antecedent_of"] == [0]
    assert abelian["modassume"] == [True, True, True]
    assert sha256_of(tmp_path / "out" / "schur.json") == \
        "a7bcc7ee8e0e6b8fe2853fd0f11feedf2445e1c37d30d86983b1323257264d65"


def test_schur_a4_level1_under_the_split_presentations(tmp_path, monkeypatch):
    """G1(A4)'s `schur --k 1` report over the former split model G1split ->
    G0split, built by the coset route (group_oracle.split_level) under the
    model's hand-built presentations (group_oracle.split_presentations), is
    the report of VERSION 3 byte for byte; over the level on A4 and its
    peel it lists the same quotients in another order, every field equal
    but the place, kernel_gen."""
    def split_model(G, p):
        data = frattini.split_structure(G, p)
        h = G.element_order(data.complement_gen)
        t = group_oracle.split_level(data.rank, p, cyclic_group(h), [data.action])
        t["g0"].presentation, t["g1"].presentation = group_oracle.split_presentations(
            t, p, data.action, h)
        return frattini.FrattiniLevel(t["g1"], t["g0"], p, t["proj"], t["section"],
                                      t["kernel"], GModule(t["g0"], p, t["mats"]))

    args = ["schur", "--group", "A4", "--p", "2", "--k", "1", "--no-cache"]
    assert run_into(args, tmp_path, "peel") == 0
    monkeypatch.setattr(cli, "build_level", split_model)
    assert run_into(args, tmp_path, "split") == 0
    assert sha256_of(tmp_path / "split" / "schur.json") == \
        "095d797b745ac276bab890e55b06eac6c3ff86a0894dd267fb058496a2edbebe"
    peel, split = (json.loads((tmp_path / d / "schur.json").read_text())["quotients"]
                   for d in ("peel", "split"))
    assert [q["top_type"] for q in split] == ["Q8.Z4", "K4xZ4", "Q8xZ2"]
    assert [q["top_type"] for q in peel] == ["K4xZ4", "Q8.Z4", "Q8xZ2"]
    assert sorted(json.dumps({**q, "kernel_gen": 0}, sort_keys=True) for q in peel) == \
        sorted(json.dumps({**q, "kernel_gen": 0}, sort_keys=True) for q in split)


def test_frattini_verify_cli(tmp_path):
    rc = run_cli(["frattini-verify", "--group", "D7", "--p", "7"], tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "frattini.json").read_text())
    assert doc["total_order"] == 98 and doc["order_lifting_ok"]


def test_level1_file_labelled_a4_cli(tmp_path):
    """A4 read from a file, on (1 2 3) and (2 3 4): the representative of
    the lifting orbit lists its classes in another order than the spec, and
    its lifts are still found (the run used to exit 3, "nothing lies over
    level 0"); the components are those of the builtin A4."""
    gf = tmp_path / "a4.txt"
    gf.write_text("(1 2 3)\n(2 3 4)\n")
    args = ["level", "--classes", "3A,3A,3B,3B", "--p", "2", "--k", "1"]
    assert run_into(args + ["--group-file", str(gf)], tmp_path, "file") == 0
    assert run_into(args + ["--group", "A4"], tmp_path, "builtin") == 0
    genera = {}
    for name in ("file", "builtin"):
        doc = json.loads((tmp_path / name / "components.json").read_text())
        genera[name] = sorted(c["genus"] for c in doc["levels"][1]["components"])
    assert genera["file"] == genera["builtin"] == [0, 0, 1, 1, 3, 3]
    # the builtin run's report is pinned: its orbit dumps print elements
    # of A4 extended by its Frattini module
    for line in (DATA / "level_a4_p2_k1.sha256").read_text().splitlines():
        digest, name = line.split()
        assert sha256_of(tmp_path / "builtin" / name) == digest, name


def test_level_compare_once_per_upper_component(tmp_path, monkeypatch):
    """The A4 level job compares each of its 6 level-1 components with the
    one component under it: 6 level_compare calls in (lower, upper) order,
    as many comparisons in its report, and the report is the pinned one."""
    calls, compare = [], hurwitz.level_compare

    def counted(*args):
        calls.append(args[4:6])
        return compare(*args)
    monkeypatch.setattr(hurwitz, "level_compare", counted)
    assert main(["level", "--group", "A4", "--classes", "3A,3A,3B,3B", "--p", "2",
                 "--k", "1", "--no-cache", "--report", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "components.json").read_text())
    assert len(calls) == len(doc["levels"][1]["components"]) == 6
    assert calls == sorted(calls) and sorted(u for _, u in calls) == list(range(6))
    assert [(c["lower"], c["upper"]) for c in doc["comparisons"]] == calls
    for line in (DATA / "level_a4_p2_k1.sha256").read_text().splitlines():
        digest, name = line.split()
        assert sha256_of(tmp_path / "out" / name) == digest, name

# Permutation files of groups with a normal p-Sylow, whose Frattini module
# is its relation module (and S3 through the dihedral closed form): three labellings of A4, the relabelled D5, Z/7 x| Z/3,
# Z/5 x| Z/4, S3, Z/11 x| Z/5 and Z/13 x| Z/3.
SPLIT_FILES = {
    "a4a.txt": "(1 2 3)\n(2 3 4)\n",
    "a4b.txt": "(1 2)(3 4)\n(1 2 3)\n",
    "a4c.txt": "(1 3 2)\n(1 4)(2 3)\n",
    "d5.txt": D5_RELABELLED,
    "f21.txt": "(1 2 3 4 5 6 7)\n(2 3 5)(4 7 6)\n",
    "f20.txt": "(1 2 3 4 5)\n(2 3 5 4)\n",
    "s3.txt": "(1 2 3)\n(1 2)\n",
    "f55.txt": "(1 2 3 4 5 6 7 8 9 10 11)\n(2 4 10 6 5)(3 7 8 11 9)\n",
    "f39.txt": "(1 2 3 4 5 6 7 8 9 10 11 12 13)\n(2 4 10)(3 7 6)(5 13 11)(8 9 12)\n",
}
SPLIT_FILE_JOBS = {
    "schur_a4a": "schur a4a.txt --p 2 --k 1",
    "schur_a4b": "schur a4b.txt --p 2 --k 1",
    "schur_a4c": "schur a4c.txt --p 2 --k 1",
    "schur_d5": "schur d5.txt --p 5 --k 1",
    "schur_f21": "schur f21.txt --p 7 --k 1",
    "schur_f20": "schur f20.txt --p 5 --k 1",
    "schur_f39": "schur f39.txt --p 13 --k 1",
    "level_a4a": "level a4a.txt --classes 3A,3A,3B,3B --p 2 --k 1",
    "level_d5": "level d5.txt --classes 2A,2A,2A,2A --p 5 --k 1",
    "level_f21": "level f21.txt --classes 3A,3A,3B,3B --p 7 --k 1",
    "level_s3": "level s3.txt --classes 2A,2A,2A,2A --p 3 --k 1",
    "verify_a4c": "frattini-verify a4c.txt --p 2",
    "verify_f21": "frattini-verify f21.txt --p 7",
    "verify_f20": "frattini-verify f20.txt --p 5",
    "verify_s3": "frattini-verify s3.txt --p 3",
    "verify_f55": "frattini-verify f55.txt --p 11",
}
# The prime that the jobs on each file use
SPLIT_FILE_PRIMES = {job.split()[1]: int(job.split()[job.split().index("--p") + 1])
                     for job in SPLIT_FILE_JOBS.values()}


def _file_group_pins():
    """{job: {file: sha256}} from file_group_pins.sha256, whose lines are
    `sha256sum` lines for the paths job/file."""
    pins: dict[str, dict[str, str]] = {}
    for line in (DATA / "file_group_pins.sha256").read_text().splitlines():
        digest, path = line.split()
        job, name = path.split("/")
        pins.setdefault(job, {})[name] = digest
    return pins


@pytest.mark.parametrize("job", sorted(SPLIT_FILE_JOBS))
def test_split_route_file_groups_match_pins(tmp_path, capsys, job):
    """Each job's report, cold and replayed from the cache, has the pinned
    digests."""
    cmd, name, *rest = SPLIT_FILE_JOBS[job].split()
    (tmp_path / name).write_text(SPLIT_FILES[name])
    args = [cmd, "--group-file", str(tmp_path / name), *rest]
    assert run_into(args, tmp_path, "cold") == 0
    assert run_into(args, tmp_path, "replay") == 0
    assert "cache hit" in capsys.readouterr().out
    assert _digests(tmp_path / "cold") == _digests(tmp_path / "replay") \
        == _file_group_pins()[job]


# The jobs of the pins that hold orbit dumps: tests/data/<pin>.sha256, and
# the level jobs of file_group_pins.sha256
DUMP_PINS = {
    "level_a5_p2_k1": "level --group A5 --classes 3A,3A,3A,3A --p 2 --k 1",
    "level_a5_p3_k1": "level --group A5 --classes 5A,5A,5A --p 3 --k 1",
    "level_a4_p2_k1": "level --group A4 --classes 3A,3A,3B,3B --p 2 --k 1",
    "dihedral_p5_k2": "dihedral --p 5 --k 2",
    "dihedral_p7_k2": "dihedral --p 7 --k 2",
    "dihedral_p3_k4": "dihedral --p 3 --k 4",
}


def _pin_file(name, job=None):
    """{file: sha256} of tests/data/<name>, or of its lines for job/file."""
    pins = {}
    for line in (DATA / name).read_text().splitlines():
        digest, path = line.split()
        if job is None or path.startswith(f"{job}/"):
            pins[path.split("/")[-1]] = digest
    return pins


@pytest.mark.parametrize("pin", [*DUMP_PINS, *(job for job in sorted(SPLIT_FILE_JOBS)
                                               if job.startswith("level_"))])
def test_dump_pins_expand_to_version_4(tmp_path, monkeypatch, pin):
    """Each pinned job's report, computed once: its orbit dumps expanded
    back to cycle notation (dump_oracle.expand), and its other files as
    they are, are the report in version 4's notation (<pin>.v4.sha256,
    taken before the dumps became index tuples, and for the levels that
    VERSION 6 changed from the expansion of their new report); the report
    is its pin; and each file
    has the size that _emit predicted before it opened any."""
    if pin in DUMP_PINS:
        args, v4, now = DUMP_PINS[pin].split(), _pin_file(f"{pin}.v4.sha256"), \
            _pin_file(f"{pin}.sha256")
    else:
        cmd, name, *rest = SPLIT_FILE_JOBS[pin].split()
        (tmp_path / name).write_text(SPLIT_FILES[name])
        args = [cmd, "--group-file", str(tmp_path / name), *rest]
        v4 = _pin_file("file_group_pins.v4.sha256", pin)
        now = _pin_file("file_group_pins.sha256", pin)
    predicted, emit = {}, cli._emit

    def sizing_emit(files, report_dir):
        predicted.update((name, nbytes) for name, (nbytes, _) in cli._sized(files).items())
        return emit(files, report_dir)
    monkeypatch.setattr(cli, "_emit", sizing_emit)
    assert main(args + ["--no-cache", "--report", str(tmp_path / "out")]) == 0
    assert _v4_digests(tmp_path / "out") == v4
    assert _digests(tmp_path / "out") == now
    assert predicted == {f.name: f.stat().st_size for f in (tmp_path / "out").iterdir()}


# The level jobs whose reports VERSION 6 changed: their levels are built
# from the Frattini module of split_module, not from the split route
VERSION_6_LEVEL_JOBS = ["level_a5_p2_k1", "level_a5_p3_k1", "level_a4_p2_k1",
                        "level_a4a", "level_d5", "level_f21"]


def _split_route_build_level(monkeypatch):
    """cli.build_level as the split route built levels before VERSION 6: a
    group with a normal p-Sylow by group_oracle.split_level moved onto it
    (split_route_level, through transport_level), and any other group
    (general_level) from the Sylow normalizer's module of that route
    (split_route_module)."""
    build = cli.build_level
    monkeypatch.setattr(frattini, "split_module",
                        lambda N, data: group_oracle.split_route_module(N, data.prime))

    def split_route(G, p):
        if cli._takes_dihedral_form(G, p) or frattini.split_structure(G, p) is None:
            return build(G, p)
        return group_oracle.split_route_level(G, p)
    return split_route


def _level_invariants(report):
    """Per level, the sorted (orbit_size, genus, cusp_widths) of its
    components, and the number of comparisons."""
    doc = json.loads((report / "components.json").read_text())
    return ([sorted((c["orbit_size"], c["genus"], c["cusp_widths"])
                    for c in level["components"]) for level in doc["levels"]],
            len(doc["comparisons"]))


@pytest.mark.parametrize("job", VERSION_6_LEVEL_JOBS)
def test_version_6_levels_match_the_split_route(tmp_path, monkeypatch, job):
    """Each level job that VERSION 6 re-pinned, run as it is and with
    cli.build_level the split route it replaced (_split_route_build_level),
    has per level the same multiset of (orbit_size, genus, cusp_widths) and
    as many comparisons."""
    if job in DUMP_PINS:
        args = DUMP_PINS[job].split()
    else:
        cmd, name, *rest = SPLIT_FILE_JOBS[job].split()
        (tmp_path / name).write_text(SPLIT_FILES[name])
        args = [cmd, "--group-file", str(tmp_path / name), *rest]
    args += ["--no-cache"]
    assert main(args + ["--report", str(tmp_path / "now")]) == 0
    monkeypatch.setattr(cli, "build_level", _split_route_build_level(monkeypatch))
    assert main(args + ["--report", str(tmp_path / "split")]) == 0
    now, split = _level_invariants(tmp_path / "now"), _level_invariants(tmp_path / "split")
    assert now == split
    assert len(now[0]) == 2 and now[1] > 0


# (Z/2)^3 x| Z/7 on 8 points and (Z/3)^2 x| Z/2 on 6 points: their levels
# would have 56 x 2^17 and 18 x 3^10 elements
@pytest.mark.parametrize("text, p, points", [
    ("(1 2)(3 4)(5 6)(7 8)\n(2 3 5 4 7 8 6)\n", "2", "7,340,032"),
    ("(1 2 3)\n(4 5 6)\n(2 3)(5 6)\n", "3", "1,062,882"),
], ids=["Z2^3:Z7", "Z3^2:Z2"])
def test_oversized_split_level_refused_before_work(tmp_path, capsys, text, p, points):
    gf = tmp_path / "group.txt"
    gf.write_text(text)
    start = time.perf_counter()
    assert run_cli(["frattini-verify", "--group-file", str(gf), "--p", p], tmp_path) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert f"pair model: {points} points, past PAIR_MODEL_LIMIT = 65,536" in err
    assert not (tmp_path / "out").exists()


def affine_group_file(p, a):
    """Z/p x| Z/n on the points of Z/p, 1-based: the translation x -> x + 1
    and the multiplication x -> a x by a unit a of order n."""
    cycles, seen = [], {0}
    for x in range(1, p):
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = x * a % p
        cycles += [f"({' '.join(cycle)})"] * bool(cycle)
    return f"({' '.join(str(x + 1) for x in range(p))})\n{''.join(cycles)}\n"


def test_split_level_past_limit_refused_before_work(tmp_path, capsys):
    """Z/251 x| Z/5: its level has 1,255 x 251 points, refused before its
    module is built (the former route's search for the complement action
    on P1 = Z/251^2 ran for minutes)."""
    gf = tmp_path / "z251_z5.txt"
    gf.write_text(affine_group_file(251, 20))
    start = time.perf_counter()
    assert run_cli(["frattini-verify", "--group-file", str(gf), "--p", "251"],
                   tmp_path) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "pair model: 315,005 points, past PAIR_MODEL_LIMIT = 65,536" in err
    assert not (tmp_path / "out").exists()


def test_closed_stdout_keeps_exit_code_and_report(tmp_path):
    """A reader that closes stdout (`mt ... | head -c 0`) ends the output,
    not the job: the cold run and its replay from the cache each exit 0
    with nothing on stderr, and both reports are the pinned ones."""
    args = [sys.executable, "-m", "mtower.cli", "frattini-verify", "--group", "A4",
            "--p", "2", "--cache", str(tmp_path / "cache")]
    pins = dict(line.split()[::-1] for line in
                (DATA / "frattini_verify_a4_p2.sha256").read_text().splitlines())
    for report in ("cold", "replay"):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(args + ["--report", str(tmp_path / report)],
                                  stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, ""), report
        assert _digests(tmp_path / report) == pins, report
    assert len(list((tmp_path / "cache").iterdir())) == 1


def test_split_route_ignores_coset_budget(tmp_path):
    """--budget-cosets bounds presentation files only: the level of A4
    enumerates no cosets, so a budget of 10 leaves its report as pinned."""
    assert run_cli(["level", "--group", "A4", "--classes", "3A,3A,3B,3B", "--p", "2",
                    "--k", "1", "--budget-cosets", "10"], tmp_path) == 0
    for line in (DATA / "level_a4_p2_k1.sha256").read_text().splitlines():
        digest, name = line.split()
        assert sha256_of(tmp_path / "out" / name) == digest, name
