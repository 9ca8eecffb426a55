"""Report emission a batch at a time, against the scalar routes it replaced
(tests/dump_oracle.py): cycle notation for whole image arrays, the
orbit-dump writer, and cache entries published from the report files and
restored a file at a time (tests/cache_oracle.py).
Element orders from the cycle labels are checked in test_groups.py."""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

import cache_oracle
import dump_oracle as oracle
from mtower import cache, cli
from mtower.groups import FiniteGroup, dihedral_group
from mtower.perms import Perm, cycle_str, cycle_strs, parse_group_file

DATA = Path(__file__).parent / "data"


def _sl2_11():
    return FiniteGroup(parse_group_file((DATA / "sl2_11.txt").read_text()))


@pytest.mark.parametrize("which", ["A5", "SL(2,11)", "D2049", "G1(A5)", "A5 p=3"])
def test_batch_cycle_notation_matches_scalar_walk(which, a5, g1a5, a5_p3_level):
    G = {"A5": a5, "SL(2,11)": _sl2_11(), "D2049": dihedral_group(2049),
         "G1(A5)": g1a5.level.total, "A5 p=3": a5_p3_level.total}[which]
    idx = list(range(G.order)) if which != "A5 p=3" else \
        sorted(random.Random(7).sample(range(G.order), 300)) + [0]
    images = G._images(np.array(idx))
    want = [oracle.cycle_str(row) for row in images.tolist()]
    assert cycle_strs(images) == want
    assert G.perm_strs(idx) == want
    assert [G.perm_str(i) for i in idx[::97]] == want[::97]


def test_batch_cycle_notation_on_random_permutations():
    rng = random.Random(3)
    rows = []
    for n in range(1, 51):
        rows.append(list(range(n)))                          # the identity
        rows.append([(i + 1) % n for i in range(n)])         # one n-cycle
        if n >= 2:
            swap = list(range(n))
            a, b = rng.sample(range(n), 2)
            swap[a], swap[b] = b, a                          # one 2-cycle
            rows.append(swap)
        for _ in range(10):
            img = list(range(n))
            moved = rng.sample(range(n), rng.randint(0, n))  # fixed points left
            shuffled = moved[:]
            rng.shuffle(shuffled)
            for a, b in zip(moved, shuffled):
                img[a] = b
            rows.append(img)
    for row in rows:
        assert cycle_str(row) == oracle.cycle_str(row) == str(Perm(tuple(row)))
    for n in (1, 2, 13, 50):       # whole arrays, cut into blocks of rows
        same = [r for r in rows if len(r) == n]
        assert cycle_strs(np.array(same)) == [oracle.cycle_str(r) for r in same]
    assert cycle_str([0]) == cycle_str([]) == "()" and cycle_strs([]) == []
    assert cycle_str([1, 0, 2]) == "(1 2)"


def _dump_bytes(write, dump, path):
    write(dump, path)
    return path.read_bytes()


@pytest.mark.parametrize("dump", [
    [],
    [[]],
    [["[(1 2 3), (1 3 2), ()]"]],
    [["[(1 2), (1 2)]", "[(), ()]"], [], ["[(1 2 3 4 5), (1 5 4 3 2)]"] * 3],
])
def test_dump_writer_matches_json_dump(tmp_path, dump):
    def streamed(d, path):
        with open(path, "w") as fh:
            cli._write_dump(fh, d)

    assert _dump_bytes(streamed, dump, tmp_path / "new") == \
        _dump_bytes(lambda d, p: oracle.write_dump(p, d), dump, tmp_path / "old")


def test_streamed_cache_entry_matches_cache_put(tmp_path, monkeypatch):
    """The entry format both ways: an entry published from report files is
    the one the whole-payload writer gives and reads back whole, and an
    entry written whole replays through the streamed restore."""
    monkeypatch.setattr(cache, "CHUNK", 5)     # several chunks to a file
    files = {"orbits_L0.json": b'[\n [\n  "[(1 2), (1 2)]"\n ]\n]\n',
             "components.json": b"{}\n", "empty.csv": b""}
    src = tmp_path / "report"
    src.mkdir()
    for name, payload in files.items():
        (src / name).write_bytes(payload)
    cache_oracle.cache_put_entry(tmp_path / "put", "k", files)
    cache.cache_put_entry(tmp_path / "entry", "k", src, list(files))
    for name, payload in [*files.items(), (cache.MANIFEST, None)]:
        entry = (tmp_path / "entry" / "k" / name).read_bytes()
        assert entry == (tmp_path / "put" / "k" / name).read_bytes()
        if payload is not None:
            assert entry == cache.MAGIC + hashlib.sha256(payload).hexdigest().encode() \
                + b"\n" + payload
    assert cache_oracle.cache_get_entry(tmp_path / "entry", "k") == files
    assert cache.cache_restore_entry(tmp_path / "put", "k", tmp_path / "replay")
    assert {f.name: f.read_bytes() for f in (tmp_path / "replay").iterdir()} == files
    assert not cache.cache_restore_entry(tmp_path / "put", "other", tmp_path / "none")
    assert not (tmp_path / "none").exists()
