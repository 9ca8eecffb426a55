import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cache_oracle as oracle
from mtower import cli, frattini
from mtower.cache import cache_get, cache_restore_entry, job_key
from mtower.cli import class_id, label_classes, main
from mtower.errors import CorruptCache

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


def test_budget_exit_code(tmp_path):
    rc = run_cli(["level", "--group", "A5", "--classes", "3A,3A,3A,3A",
                  "--p", "2", "--k", "0", "--budget-elements", "10",
                  "--no-cache"], tmp_path)
    assert rc == 2


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
    form's standard form, so the level is built by the split route: the
    level-1 component is that of the builtin D5."""
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
ANALYSIS = ["mtower.fp", "mtower.frattini", "mtower.gcomplete", "mtower.gmodules",
            "mtower.groups", "mtower.hurwitz", "mtower.linalg", "mtower.nielsen",
            "mtower.perms", "mtower.schur"]


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


def test_cold_miss_loads_every_analysis_module(tmp_path):
    """A miss loads the analysis modules before it builds anything, even
    those its job does not call, so none compiles while a level is alive."""
    out = run_child("import sys, types; from mtower.cli import main\n"
                    "assert main(sys.argv[1:]) == 0\n"
                    f"print({EXECUTED})",
                    *D5_LEVEL0, "--cache", str(tmp_path / "cache"),
                    "--report", str(tmp_path / "cold"))
    assert out.splitlines()[-1] == str(
        sorted(["mtower.cache", "mtower.cli", "mtower.errors", *ANALYSIS]))


def test_cache_keys_of_builtin_jobs_are_stable(tmp_path):
    """Keys of builtin groups and `dihedral` are formed as before lookup
    moved ahead of the group build, so their old entries still hit."""
    for args in (["dihedral", "--p", "5", "--k", "0"], D5_LEVEL0,
                 ["gcomplete", "--group", "A5", "--p", "2"]):
        assert run_cli(args, tmp_path) == 0
    assert sorted(d.name for d in (tmp_path / "cache").iterdir()) == [
        "65ea0305c52bd1712155414c9ebbbabdf4030ff45c69cd1c4ca0b0038c5172b3",
        "bdbd0a21aefd239e1eca64c904afea56e034348ec6f33c8e3ee134802f3e3bc9",
        "e2f91c4b26f3a820988566c6e60d49affdd9b8357502b9bb66b7bd04688d5215"]


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


@pytest.mark.parametrize("args, bound", [
    (["level", "--group", "D5", "--classes", "2A,2A,2A,2A", "--p", "4",
      "--k", "0"], "--p must be prime"),
    (["level", "--group", "D5", "--classes", "2A,2A,2A,2A", "--p", "5",
      "--k", "-1"], "--k must be >= 0"),
    (["dihedral", "--p", "9", "--k", "0"], "--p must be prime"),
    (["schur", "--group", "A4", "--p", "2", "--k", "3"],
     "--k must be <= 1 for schur"),
    (["frattini-verify", "--group", "A5", "--p", "4"], "--p must be prime"),
], ids=["level-p4", "level-k-1", "dihedral-p9", "schur-k3", "frattini-p4"])
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

    monkeypatch.setattr(cli, "build_level_model", no_build)
    monkeypatch.setattr(cli, "build_level", no_build)
    assert run_cli(args, tmp_path) == 2
    err = capsys.readouterr().err
    assert "cover stage" in err and reason in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_uncoverable_group_still_runs_level0(tmp_path):
    assert run_cli(["level", "--group", "Z2", "--classes", "2A,2A,2A,2A",
                    "--p", "3", "--k", "0"], tmp_path) == 0


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
              {"components.json", "sh_incidence_L0.csv", "orbits_L0.json"}),
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


def _digests(path):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in path.iterdir()}


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
    assert len(dumps[0]) == 300
    assert dumps[0][0].startswith("[(")
    assert _digests(tmp_path / "out") == D5_TOWER_SHA256


def test_level2_dihedral_cli_bytes(tmp_path):
    assert run_cli(["dihedral", "--p", "5", "--k", "2"], tmp_path) == 0
    assert _digests(tmp_path / "out") == {
        **D5_TOWER_SHA256,
        "components.json":
            "1d5a71e5fc235ffb2fed9c871fed45220ff600f4cdf6a4d5baee0c79f18a9800",
        "orbits_L2.json":
            "99138b2b336919d39222c9dfbe8353d8c190700508a6ee84d8ecf79cb8fa2b9e",
        "sh_incidence_L2.csv":
            "294c3da969948a052d439cf41e2856d9622be03d086ab1cb7afdf8803130ce86",
    }


A5_LEVEL1_SHA256 = {
    "components.json":
        "d800062cbe4ca5236a9c183ed59e1fca43c5887f1a7f8657d719ed4f5b4b2af0",
    "orbits_L0.json":
        "28d55763626ae79c33bb8d83862d0c542b1741857e9646e9af05ddbb9ce1f369",
    "orbits_L1.json":
        "24e2c68fb5c6794748b2c5d314ebb640c30a4c85e4d581a53a7446d115946a82",
    "sh_incidence_L0.csv":
        "25c4fcf4f65e23c984c350cacdd3600301b7267f3f1cc31f84023193dfcc9f19",
    "sh_incidence_L1.csv":
        "0e5303a2561e4f9b94764d57fa511e640aea524694203eee9896b6eff7809f06",
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
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / "out").iterdir()}
    assert digests == A5_LEVEL1_SHA256


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
        "095d797b745ac276bab890e55b06eac6c3ff86a0894dd267fb058496a2edbebe"


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
    # of the split model transported onto A4
    for line in (DATA / "level_a4_p2_k1.sha256").read_text().splitlines():
        digest, name = line.split()
        assert sha256_of(tmp_path / "builtin" / name) == digest, name
