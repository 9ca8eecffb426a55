"""Report emission as it was before it ran a batch at a time, kept as an
oracle.

`cycle_str` is the old scalar formatter: one walk along each cycle, with
the point labels taken from a shared list of strings.  `write_dump` is the
old orbit-dump writer, `json.dump(..., indent=1)` and a newline.
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


def write_dump(path, dump) -> None:
    with open(path, "w") as fh:
        json.dump(dump, fh, indent=1)
        fh.write("\n")


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
