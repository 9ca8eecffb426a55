"""Report emission a batch at a time, against the scalar routes it replaced
(tests/dump_oracle.py): cycle notation for whole image arrays, the
orbit-dump writer (its index tuples expanded back to cycle notation), and
cache entries published from the report files and
restored a file at a time (tests/cache_oracle.py).
Element orders from the cycle labels are checked in test_groups.py."""

import hashlib
import json
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


def write_dump_files(path, k, G, orbits) -> dict[str, int]:
    """Write the level-k dump files of the orbits into the directory `path`,
    as _emit writes them; name -> the bytes _dump_files predicts."""
    sizes = {}
    for name, (nbytes, write) in cli._dump_files(k, G, orbits).items():
        with open(path / name, "w") as fh:
            write(fh)
        sizes[name] = nbytes
    return sizes


@pytest.mark.parametrize("dump", [("A5", "none"), ("A5", "empty"), ("A5", "all"),
                                  ("D5", "all")])
def test_dump_writer_matches_json_dump(tmp_path, monkeypatch, a5_level0,
                                       dihedral_pair, dump):
    """The writer, from the orbit arrays: its element table and index
    tuples expand (oracle.expand) to json.dump of the oracle's strings, and
    each file has the size predicted before it was written; for no orbit,
    one empty orbit, and the orbits of the A5 level 0 and the D5 level 1
    (p = 5) with an empty one among them; in blocks as large as the writer
    takes them and in blocks of one row."""
    which, orbits = dump
    level = a5_level0 if which == "A5" else dihedral_pair.lvl1
    G, r = level.spec.group, level.reducer.r
    empty = np.empty((0, r), dtype=np.int32)
    orbits = {"none": [], "empty": [empty],
              "all": [rep.tuples for rep in level.reports] + [empty]}[orbits]
    oracle.write_dump(tmp_path / "old", oracle.orbit_dump(G, orbits))
    for chars in (cli._DUMP_CHARS, 1):
        monkeypatch.setattr(cli, "_DUMP_CHARS", chars)
        sizes = write_dump_files(tmp_path, 3, G, orbits)
        assert sizes == {name: (tmp_path / name).stat().st_size
                         for name in ("elements_L3.json", "orbits_L3.json")}
        text = "".join(oracle.expand((tmp_path / "orbits_L3.json").read_text(),
                                     (tmp_path / "elements_L3.json").read_text()))
        assert text == (tmp_path / "old").read_text()
    table = json.loads((tmp_path / "elements_L3.json").read_text())
    assert table == G.perm_strs(sorted({x for t in orbits for x in t.ravel().tolist()}))


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
    assert cache.cache_restore_entry(tmp_path / "put", "k", tmp_path / "replay") == sorted(files)
    assert {f.name: f.read_bytes() for f in (tmp_path / "replay").iterdir()} == files
    assert cache.cache_restore_entry(tmp_path / "put", "other", tmp_path / "none") is None
    assert not (tmp_path / "none").exists()
