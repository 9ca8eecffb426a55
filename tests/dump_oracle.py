"""Report emission as it was before it ran a batch at a time, kept as an
oracle.

`cycle_str` is the old scalar formatter: one walk along each cycle, with
the point labels taken from a shared list of strings.  `orbit_dump` is the
text the dump held before it was formatted by its writer: per orbit, each
tuple's entries in cycle notation, "[a, b, ...]".  `write_dump` is the old
orbit-dump writer, `json.dump(..., indent=1)` and a newline.  `expand`
rebuilds that text from a dump written as index tuples into an element
table (report version 5).
`cycle_lcm` is the old scalar element order of a permutation: the lcm of
its cycle lengths, walked one cycle at a time.
"""

from __future__ import annotations

import json
from math import lcm

_POINT_STRS: list[str] = []      # _POINT_STRS[i] == str(i + 1), grown on demand


def cycle_str(images) -> str:
    """Disjoint-cycle notation, 1-based, of the permutation with these images
    (a sequence of ints); "()" for the identity.  Point labels come from one
    shared list of strings, so no point is formatted twice."""
    n = len(images)
    if len(_POINT_STRS) < n:
        _POINT_STRS.extend(str(i + 1) for i in range(len(_POINT_STRS), n))
    pts = _POINT_STRS
    seen = [False] * n
    out = []
    for i in range(n):
        j = images[i]
        if seen[i] or j == i:
            continue
        cyc = [pts[i]]
        seen[i] = True
        while j != i:
            cyc.append(pts[j])
            seen[j] = True
            j = images[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def orbit_dump(G, orbits) -> list[list[str]]:
    """The dump of the orbits (rows of elements of G) as lists of strings,
    one cycle_str per entry."""
    return [["[" + ", ".join(cycle_str(G.perm(x).images) for x in row) + "]"
             for row in orbit.tolist()] for orbit in orbits]


def write_dump(path, dump) -> None:
    with open(path, "w") as fh:
        json.dump(dump, fh, indent=1)
        fh.write("\n")


def expand(orbits_json: str, elements_json: str):
    """The text of report version 4's orbits_L<k>.json, from version 5's
    orbits_L<k>.json (per orbit, index tuples into the element table) and
    elements_L<k>.json (the element table, cycle strings): json.dump of
    orbit_dump with indent=1, and a newline.  It comes in pieces, one per
    tuple and orbit bracket, whose concatenation is the text: D7's level 2
    expands to 332 MB."""
    table, orbits = json.loads(elements_json), json.loads(orbits_json)
    yield "[" if orbits else "[]"
    for ci, orbit in enumerate(orbits):
        yield ",\n " if ci else "\n "
        yield "[" if orbit else "[]"
        for ti, row in enumerate(orbit):
            yield (",\n  " if ti else "\n  ") + json.dumps(
                "[" + ", ".join(table[i] for i in row) + "]")
        yield "\n ]" if orbit else ""
    yield "\n]\n" if orbits else "\n"


def cycle_lcm(images: list[int]) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(images)
    out = 1
    for start in range(len(images)):
        k, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            k += 1
        if k:
            out = lcm(out, k)
    return out
