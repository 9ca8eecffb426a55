"""Finitely presented groups: free words, HLT coset enumeration, Schreier
generators.

Free words are tuples of nonzero ints: letter +-(i+1) stands for generator i
or its inverse.  Words multiply left to right, consistent with perms.py.

The enumerator is relator-based (HLT): subgroup generator words are scanned
at coset 0, then every live coset is scanned against every relator, defining
new cosets to fill gaps and merging coincidences with a union-find.  Coset
introduction order is deterministic, so tables are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import np
from .errors import InputError, Overflow
from .groups import FiniteGroup
from .perms import Perm


def free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise InputError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def word_pow(word, e: int) -> tuple[int, ...]:
    if e < 0:
        return word_pow(invert_word(word), -e)
    return tuple(word) * e


def commutator_word(u, v) -> tuple[int, ...]:
    return free_reduce(invert_word(u) + invert_word(v) + tuple(u) + tuple(v))


@dataclass(frozen=True)
class Presentation:
    ngens: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for r in self.relators:
            if free_reduce(r) != tuple(r):
                raise InputError(f"relator not freely reduced: {r}")
            if any(abs(x) > self.ngens or x == 0 for x in r):
                raise InputError(f"letter out of range in relator: {r}")


def parse_presentation(text: str) -> Presentation:
    """File format: first line `gens: a b`, then one relator per line.

    Relator syntax: names, `*` products, `^k` powers (k may be negative),
    parenthesized subwords, e.g. `a^2`, `(a*b)^5`.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].lower().startswith("gens:"):
        raise InputError("presentation file must start with 'gens: ...'")
    names = tuple(lines[0][5:].split())
    if not names:
        raise InputError("no generators declared")
    gen_id = {nm: i + 1 for i, nm in enumerate(names)}
    relators = tuple(free_reduce(_parse_word(ln, gen_id)) for ln in lines[1:])
    return Presentation(len(names), relators)


def _parse_word(text: str, gen_id: dict[str, int]) -> tuple[int, ...]:
    pos = 0
    text = text.replace(" ", "")

    def parse_seq(stop: str | None) -> list[int]:
        nonlocal pos
        out: list[int] = []
        while pos < len(text) and (stop is None or text[pos] != stop):
            ch = text[pos]
            if ch == "(":
                pos += 1
                inner = parse_seq(")")
                if pos >= len(text) or text[pos] != ")":
                    raise InputError(f"unbalanced parens in {text!r}")
                pos += 1
                out.extend(apply_power(inner))
            elif ch == "*":
                pos += 1
            else:
                name = ""
                while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                    name += text[pos]
                    pos += 1
                if name not in gen_id:
                    raise InputError(f"unknown generator {name!r} in {text!r}")
                out.extend(apply_power([gen_id[name]]))
        return out

    def apply_power(base: list[int]) -> list[int]:
        nonlocal pos
        if pos < len(text) and text[pos] == "^":
            pos += 1
            sign = 1
            if pos < len(text) and text[pos] == "-":
                sign = -1
                pos += 1
            num = ""
            while pos < len(text) and text[pos].isdigit():
                num += text[pos]
                pos += 1
            if not num:
                raise InputError(f"missing exponent in {text!r}")
            e = sign * int(num)
            if e < 0:
                base = list(invert_word(base))
                e = -e
            return base * e
        return base

    word = parse_seq(None)
    if pos != len(text):
        raise InputError(f"trailing junk in {text!r}")
    return tuple(word)


@dataclass
class CosetTable:
    ngens: int
    rows: list[list[int]]            # rows[c][2g] = c*gen_g, rows[c][2g+1] = c*gen_g^-1
    rep_words: list[tuple[int, ...]]  # signed word carrying coset 0 to coset c

    @property
    def n(self) -> int:
        return len(self.rows)

    def act(self, coset: int, letter: int) -> int:
        col = 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
        return self.rows[coset][col]

    def act_word(self, coset: int, word) -> int:
        for letter in word:
            coset = self.act(coset, letter)
        return coset

    def generator_perm(self, g: int) -> Perm:
        return Perm(tuple(row[2 * g] for row in self.rows))


def todd_coxeter(P: Presentation, subgroup_words=(), max_cosets: int = 1 << 20) -> CosetTable:
    """HLT coset enumeration of P relative to <subgroup_words>.

    Raises Overflow when more than max_cosets cosets are live at once.
    With no subgroup words the result is the regular representation, so the
    row count is the group order.
    """
    ncols = 2 * P.ngens
    relators = [tuple(r) for r in P.relators]
    subgens = [free_reduce(w) for w in subgroup_words]

    table: list[list[int | None]] = [[None] * ncols]
    parent: list[int] = [0]     # union-find for coincidences
    dead: list[bool] = [False]
    pending: list[int] = []     # queue of cosets merged away, to be processed

    def col(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, letter: int) -> int:
        if len(table) >= max_cosets:
            raise Overflow(f"coset enumeration: more than {max_cosets} cosets, "
                           f"past --budget-cosets")
        d = len(table)
        table.append([None] * ncols)
        parent.append(d)
        dead.append(False)
        table[c][col(letter)] = d
        table[d][col(-letter)] = c
        return d

    def merge(a: int, b: int) -> None:
        a, b = rep(a), rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        parent[hi] = lo
        dead[hi] = True
        pending.append(hi)

    def process_coincidences() -> None:
        while pending:
            q = pending.pop()
            row = table[q]
            for cidx in range(ncols):
                d = row[cidx]
                if d is None:
                    continue
                # drop the reverse edge from d back into q
                inverse_col = cidx ^ 1
                if table[d][inverse_col] == q:
                    table[d][inverse_col] = None
                mu, nu = rep(q), rep(d)
                ex = table[mu][cidx]
                if ex is not None:
                    merge(nu, ex)
                else:
                    table[mu][cidx] = nu
                ex_back = table[nu][inverse_col]
                if ex_back is not None:
                    merge(mu, ex_back)
                else:
                    table[nu][inverse_col] = mu

    def scan_and_fill(c: int, word) -> None:
        # forward from c; backward from c; close the gap by definitions
        f = c
        i = 0
        b = c
        j = len(word) - 1
        while True:
            while i <= j:
                nxt = table[f][col(word[i])]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    merge(f, b)
                    process_coincidences()
                return
            while j >= i:
                prv = table[b][col(-word[j])]
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                # contradiction: full backward scan met a forward gap
                merge(f, b)
                process_coincidences()
                return
            if i == j:
                # deduction: single gap
                table[f][col(word[i])] = b
                table[b][col(-word[i])] = f
                return
            # gap longer than one: define a new coset and continue forward
            f2 = define(f, word[i])
            f = f2
            i += 1

    for w in subgens:
        if w:
            scan_and_fill(0, w)

    c = 0
    while c < len(table):
        if dead[c]:
            c += 1
            continue
        for r in relators:
            if not r:
                continue
            if dead[c]:
                break
            scan_and_fill(rep(c), r)
        if not dead[c]:
            for cidx in range(ncols):
                if dead[c]:
                    break
                if table[c][cidx] is None:
                    letter = cidx // 2 + 1 if cidx % 2 == 0 else -(cidx // 2 + 1)
                    define(c, letter)
        c += 1

    # compact live cosets in discovery order
    live = [c for c in range(len(table)) if not dead[c]]
    remap = {old: new for new, old in enumerate(live)}
    rows: list[list[int]] = []
    for old in live:
        row = []
        for cidx in range(ncols):
            v = table[old][cidx]
            if v is None:
                raise AssertionError("incomplete table after enumeration")
            row.append(remap[rep(v)])
        rows.append(row)

    rep_words = _bfs_words(rows, P.ngens)
    return CosetTable(P.ngens, rows, rep_words)


def _bfs_words(rows: list[list[int]], ngens: int) -> list[tuple[int, ...]]:
    n = len(rows)
    words: list[tuple[int, ...] | None] = [None] * n
    words[0] = ()
    queue = [0]
    head = 0
    while head < len(queue):
        c = queue[head]
        head += 1
        for g in range(ngens):
            for letter in (g + 1, -(g + 1)):
                cidx = 2 * g if letter > 0 else 2 * g + 1
                d = rows[c][cidx]
                if words[d] is None:
                    words[d] = words[c] + (letter,)
                    queue.append(d)
    if any(w is None for w in words):
        raise AssertionError("coset table not transitive")
    return [w for w in words if w is not None]


def coset_group(T: CosetTable, max_order: int = 1 << 21, name: str = "") -> FiniteGroup:
    """Permutation group generated by the coset action of the generators."""
    return FiniteGroup([T.generator_perm(g) for g in range(T.ngens)],
                       max_order=max_order, name=name)


def schreier_generators(P: Presentation, T: CosetTable) -> list[tuple[int, ...]]:
    """Schreier generators of the subgroup whose coset table is T.

    Coset representatives come from the BFS spanning tree in T; for each
    coset c and generator letter x the word rep(c) x rep(c*x)^-1 is freely
    reduced, and trivial (tree-edge) generators are dropped.
    """
    reps = T.rep_words
    out = []
    seen = set()
    for c in range(T.n):
        for g in range(P.ngens):
            d = T.act(c, g + 1)
            w = free_reduce(reps[c] + (g + 1,) + invert_word(reps[d]))
            if w and w not in seen:
                seen.add(w)
                out.append(w)
    return out
