"""Property-based test of the CLI boundary: random small group inputs, class
lists, p and k through `cli.main`.  Every run exits 0 (done), 2 (refused
input or budget) or 3 (empty Nielsen class), a refusal leaves no report
directory, and no run leaves a hidden staging directory beside it.  The
budgets keep every example small."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtower.cli import main

LABELS = ["1A", "2A", "2B", "3A", "3B", "4A", "5A", "5B", "7A"]
# (builtin, classes, p) with a nonempty Nielsen class, so that jobs also run
# through to a report
KNOWN = [("A5", "3A,3A,3A,3A", 2), ("D5", "2A,2A,2A,2A", 5), ("A5", "5A,5A,5A", 3),
         ("A4", "3A,3A,3B,3B", 2), ("D3", "2A,2A,2A,2A", 3), ("A5", "2A,3A,5A", 2)]


@st.composite
def permutation_files(draw):
    """1-3 permutations in cycle notation on at most 6 points; now and
    then a malformed line."""
    n = draw(st.integers(1, 6))
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(st.permutations(range(1, n + 1)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        chunks = [pts[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        lines.append("".join("(" + " ".join(map(str, c)) + ")"
                             for c in chunks if len(c) > 1) or f"(1)({n})")
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(["(1 1)", "(0 2)", "1 2", "(1 2"])))
    return "--group-file", "\n".join(lines) + "\n"


@st.composite
def presentation_files(draw):
    """Two generators with powers, a product power and a short word; an
    infinite group trips the coset budget."""
    word = draw(st.lists(st.sampled_from(["a", "b", "a^-1", "b^-1"]),
                         min_size=1, max_size=5))
    relators = [f"a^{draw(st.integers(1, 5))}", f"b^{draw(st.integers(1, 5))}",
                f"(a*b)^{draw(st.integers(1, 5))}", "*".join(word)]
    keep = draw(st.sets(st.integers(0, 3), min_size=1))
    return "--presentation-file", "gens: a b\n" + "".join(
        relators[i] + "\n" for i in sorted(keep))


builtins = st.sampled_from(["A4", "A5", "K4", "D3", "D5", "Z3", "Z4"]).map(
    lambda name: ("--group", name))

commands = st.sampled_from(["level", "schur", "gcomplete", "frattini-verify",
                            "dihedral"])

random_jobs = st.fixed_dictionaries({
    "command": commands,
    "group": st.one_of(builtins, permutation_files(), presentation_files()),
    "classes": st.lists(st.sampled_from(LABELS), min_size=2, max_size=5).map(",".join),
    "p": st.sampled_from([2, 3, 4, 5, 7]),
    "k": st.integers(0, 1),
})

known_jobs = st.builds(
    lambda command, known, k: {"command": command, "group": ("--group", known[0]),
                               "classes": known[1], "p": known[2], "k": k},
    commands, st.sampled_from(KNOWN), st.integers(0, 1))

jobs = st.one_of(random_jobs, known_jobs)


def _argv(job, tmp: Path) -> list[str]:
    cmd = job["command"]
    argv = [cmd, "--p", str(job["p"]), "--report", str(tmp / "out"), "--no-cache",
            "--budget-elements", "400", "--budget-cosets", "400"]
    if cmd == "dihedral":
        return argv + ["--k", str(job["k"])]
    flag, source = job["group"]
    if flag != "--group":
        path = tmp / "group.txt"
        path.write_text(source)
        source = str(path)
    argv += [flag, source]
    if cmd in ("level", "gcomplete"):
        argv += ["--classes", job["classes"]]
    if cmd in ("level", "schur"):
        argv += ["--k", str(job["k"])]
    return argv


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(jobs)
def test_cli_exits_0_2_or_3_and_refusals_leave_no_report(job):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rc = main(_argv(job, tmp))
        assert rc in (0, 2, 3), (job, rc)
        if rc:
            assert not (tmp / "out").exists(), job
        assert not [f.name for f in tmp.iterdir() if f.name.startswith(".")], job
