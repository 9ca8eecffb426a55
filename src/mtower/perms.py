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

from . import np


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
        return int(cycle_orders([self.images])[0])

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __str__(self) -> str:
        return cycle_str(self.images)

    def as_array(self) -> np.ndarray:
        return np.array(self.images, dtype=np.int32)


_CELLS = 1 << 16     # (row, point) cells per block of cycle_strs and cycle_orders
# _TOKENS[t, i]: "(i+1", " i+1)", " i+1" or "" for point i as the first,
# last or an inner point of a cycle, or fixed; made and grown on first use
_TOKENS = None


def cycle_str(images) -> str:
    """Disjoint-cycle notation, 1-based, of the permutation with these images
    (a sequence of ints); "()" for the identity: cycle_strs of one row."""
    return cycle_strs([images])[0]


def cycle_strs(images) -> list[str]:
    """cycle_str of each row of an (m, n) image array.  Each cycle starts
    at its least point; a cell's place in the output is the start of its
    cycle plus its position, and its token's kind is read off the steps to
    that least point (ahead: 0 first, 1 last, more inner)."""
    global _TOKENS
    img = np.asarray(images, dtype=np.int32)
    img = img.reshape(len(img), img.size // max(1, len(img)))       # [] or [[]]
    n = img.shape[1]
    if _TOKENS is None or _TOKENS.shape[1] < n:
        pts = [str(i + 1) for i in range(n)]
        _TOKENS = np.array([["(" + s for s in pts], [" " + s + ")" for s in pts],
                            [" " + s for s in pts], [""] * n], dtype=object)
    out = []
    for rows, f, label, ahead, length in _cycle_blocks(img, steps=True):
        end = np.cumsum(length)
        place = np.where(ahead == 0, end - length, end[label] - ahead)
        kind = np.where(f == np.arange(f.size), 3, np.minimum(ahead, 2))
        tok = np.empty(f.size, dtype=np.int64)
        tok[place] = kind * _TOKENS.shape[1] + np.tile(np.arange(n), len(rows))
        toks = _TOKENS.ravel().take(tok).tolist()
        out.extend("".join(toks[r * n:r * n + n]) or "()" for r in range(len(rows)))
    return out


def cycle_orders(images) -> np.ndarray:
    """The order of each row's permutation of an (m, n) image array: the
    lcm of its cycle lengths."""
    return np.concatenate([np.lcm.reduce(np.maximum(length, 1).reshape(rows.shape), 1, initial=1)
                           for rows, *_, length in _cycle_blocks(images, steps=False)])


def _cycle_blocks(img, steps: bool):
    """(rows, f, label, ahead, length) for each block of at most _CELLS cells
    of an (m, n) image array: f permutes its (row, point) cells, label and
    ahead are _cycle_labels(f, steps), length[c] is the length of c's cycle."""
    img = np.asarray(img, dtype=np.int32)
    n = img.shape[1]
    step = max(1, _CELLS // max(1, n))
    for lo in range(0, len(img), step):
        rows = img[lo:lo + step]
        f = (rows + n * np.arange(len(rows), dtype=np.int32)[:, None]).ravel()
        label, ahead = _cycle_labels(f, steps)
        yield rows, f, label, ahead, np.bincount(label, minlength=f.size)


def _cycle_labels(f: np.ndarray, steps: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(label, ahead) for a permutation f of 0..len(f)-1: label[i] is the
    least point of i's cycle, reached after ahead[i] < its length steps
    along f (None unless `steps`; orders need only labels).  By min-pointer
    doubling: after step k they hold the least of the 2^k points from i on
    and the steps to it, so a cycle of length L takes O(log L) steps."""
    label, jump = np.arange(f.size, dtype=f.dtype), f
    ahead, span = np.zeros_like(label) if steps else None, 1
    while True:
        there = np.take(label, jump)
        better = there < label
        if not better.any():
            return label, ahead
        np.minimum(label, there, out=label)
        if steps:
            np.copyto(ahead, np.take(ahead, jump) + span, where=better)
        jump, span = np.take(jump, jump), 2 * span


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
