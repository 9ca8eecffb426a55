"""Permutations on {0..degree-1} with left-to-right composition.

Convention fixed for the whole package: (p * q) sends i to q[p[i]], i.e.
apply p first, then q.  With this choice the right regular action
R_g : x -> x*g satisfies R_g * R_h = R_{gh}, so coset tables and pair-model
extensions compose without inversions.

Text format: disjoint cycles with 1-based points, e.g. "(1 2 3)(4 5)";
"()" is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Perm:
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(tuple(range(degree)))

    @staticmethod
    def from_cycles(cycles: list[list[int]], degree: int) -> "Perm":
        """Cycles given with 0-based points."""
        img = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        return Perm(tuple(img))

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Perm":
        img = [0] * self.degree
        for i, j in enumerate(self.images):
            img[j] = i
        return Perm(tuple(img))

    def order(self) -> int:
        n = 1
        q = self
        ident = Perm.identity(self.degree)
        while q != ident:
            q = q * self
            n += 1
        return n

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __str__(self) -> str:
        return cycle_str(self.images)

    def as_array(self) -> np.ndarray:
        return np.array(self.images, dtype=np.int32)


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


def parse_perm(text: str, degree: int | None = None) -> Perm:
    """Parse disjoint-cycle notation with 1-based points."""
    text = text.strip()
    if text in ("()", "", "id"):
        if degree is None:
            raise ValueError("degree required for identity")
        return Perm.identity(degree)
    if not text.startswith("("):
        raise ValueError(f"bad permutation: {text!r}")
    cycles: list[list[int]] = []
    maxpt = 0
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad cycle: {chunk!r}")
        pts = [int(tok) - 1 for tok in chunk[1:-1].replace(",", " ").split()]
        if any(x < 0 for x in pts):
            raise ValueError("points are 1-based")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {chunk!r}")
        cycles.append(pts)
        if pts:
            maxpt = max(maxpt, max(pts) + 1)
    deg = degree if degree is not None else maxpt
    if deg < maxpt:
        raise ValueError("degree smaller than largest moved point")
    return Perm.from_cycles(cycles, deg)


def parse_group_file(text: str) -> list[Perm]:
    """One permutation per line; '#' comments and blank lines ignored."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("no permutations in file")
    degree = 0
    parsed = []
    for line in lines:
        q = parse_perm(line)
        parsed.append(q)
        degree = max(degree, q.degree)
    out = []
    for q in parsed:
        if q.degree < degree:
            q = Perm(tuple(q.images) + tuple(range(q.degree, degree)))
        out.append(q)
    return out
