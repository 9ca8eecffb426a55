"""Right F_p[G]-modules given by one invertible matrix per group generator.

Vectors are rows; g sends v to v @ A_g.  Matrices for arbitrary elements are
composed along BFS words and cached.  Construction verifies that the
generator matrices define a genuine action: every relator of the group's
presentation (G.presentation, peeled off its Cayley graph) acts trivially.

Simple subquotients are labeled by a fingerprint (dim, trace vector on the
p'-conjugacy-class representatives): enough to tell apart the handful of
simples occurring at desk scale without Brauer character machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import np
from . import linalg as la
from .errors import (DimensionMismatch, InputError, NotASubgroup,
                     NotInvolution, TooLarge)
from .groups import FiniteGroup

SPIN_DIM_LIMIT = 12
IDEMPOTENT_SEARCH_LIMIT = 1 << 20      # elements of End(M) tried


class GModule:
    def __init__(self, group: FiniteGroup, p: int, mats, check: bool = True):
        self.group = group
        self.p = p
        self.mats = [la.asmod(m, p) for m in mats]
        if len(self.mats) != len(group.gen_indices):
            raise DimensionMismatch("one matrix per group generator required")
        dims = {m.shape for m in self.mats}
        if len(dims) > 1 or any(m.shape[0] != m.shape[1] for m in self.mats):
            raise DimensionMismatch("matrices must be square of equal size")
        self.dim = self.mats[0].shape[0] if self.mats else 0
        self._mat_cache: dict[int, np.ndarray] = {0: la.identity(self.dim)}
        if check:
            self._verify_action()

    def _verify_action(self):
        for m in self.mats:
            if la.rank(m, self.p) != self.dim:
                raise InputError("generator matrix not invertible mod p")
        inverse = [self._invert(m) for m in self.mats]
        for rel in self.group.presentation.relators:
            acc = la.identity(self.dim)
            for letter in rel:
                mats = self.mats if letter > 0 else inverse
                acc = la.matmul(acc, mats[abs(letter) - 1], self.p)
            if (acc != la.identity(self.dim)).any():
                raise InputError("matrices violate a defining relation")

    def _invert(self, m: np.ndarray) -> np.ndarray:
        sol = la.solve_right(m, la.identity(self.dim), self.p)
        assert sol is not None
        return sol

    def mat_of(self, elem: int) -> np.ndarray:
        got = self._mat_cache.get(elem)
        if got is not None:
            return got
        parent, gi = self.group._parents[elem]
        m = la.matmul(self.mat_of(parent), self.mats[gi], self.p)
        self._mat_cache[elem] = m
        return m

    def element_mats(self) -> np.ndarray:
        """(|G|, dim, dim): the matrix of every element, filled along the BFS
        tree a block of a level at a time (FiniteGroup.bfs_blocks)."""
        out = np.empty((self.group.order, self.dim, self.dim), dtype=np.int64)
        out[0] = la.identity(self.dim)
        mats = np.stack(self.mats)
        for lo, hi, parent, gi in self.group.bfs_blocks(self.dim * self.dim):
            out[lo:hi] = np.matmul(out[parent], mats[gi]) % self.p
        return out

    def dual(self) -> "GModule":
        mats = [self._invert(m).T for m in self.mats]
        return GModule(self.group, self.p, mats, check=False)

    def fingerprint(self) -> tuple:
        """(dim, traces of p'-class representatives) — simple-module label."""
        traces = []
        for cl in self.group.conjugacy_classes():
            if cl.element_order % self.p != 0:
                traces.append(int(np.trace(self.mat_of(cl.representative)) % self.p))
        return (self.dim, tuple(traces))


@dataclass
class LoewyData:
    """Radical filtration, listed socle-first (display order).

    layers[j] are the simple labels of rad^{L-1-j} M / rad^{L-j} M, so the
    last entry is the head; display() joins the layers bottom-to-top with
    arrows the way the extension structure is usually drawn.
    """
    layers: list[list[tuple]]
    label_names: dict[tuple, str] = field(default_factory=dict)

    def name(self, lab: tuple) -> str:
        return self.label_names.get(lab, f"S{lab[0]}#{abs(hash(lab)) % 97}")

    def layer_str(self, layer: list[tuple]) -> str:
        return " + ".join(sorted(self.name(lab) for lab in layer))

    def display(self) -> str:
        return " -> ".join(self.layer_str(layer) for layer in self.layers)


# -- submodule machinery -------------------------------------------------------


def spin(M: GModule, seeds: np.ndarray) -> np.ndarray:
    """Smallest submodule containing the given row vectors (rref basis)."""
    basis, _ = la.rref(np.atleast_2d(seeds), M.p)
    while True:
        nxt = [basis]
        for m in M.mats:
            nxt.append(la.matmul(basis, m, M.p))
        newb, _ = la.rref(np.concatenate(nxt), M.p)
        if newb.shape[0] == basis.shape[0]:
            return newb
        basis = newb


def _canonical_vectors(dim: int, p: int):
    """One scaled representative per projective point of F_p^dim."""
    for v in la.all_vectors(dim, p):
        nz = np.nonzero(v)[0]
        if nz.size and v[nz[0]] == 1:
            yield v


def _simple_summands(M: GModule) -> list[np.ndarray]:
    """Simple submodules (rref bases) whose sum is direct and is soc M.

    Every simple submodule is cyclic, so spinning each projective vector
    finds them all.  Taken by dimension, a cyclic submodule is simple when
    it contains no smaller simple one, and it is kept when it is not inside
    the sum of the simples kept before it.  Guarded by SPIN_DIM_LIMIT.
    """
    if M.dim > SPIN_DIM_LIMIT:
        raise TooLarge(f"submodule enumeration: module of dim {M.dim}, "
                       f"past SPIN_DIM_LIMIT = {SPIN_DIM_LIMIT}")
    cyclic: dict[bytes, np.ndarray] = {}
    for v in _canonical_vectors(M.dim, M.p):
        sub = spin(M, v)
        cyclic.setdefault(sub.tobytes(), sub)       # spin gives rref bases

    def inside(small, big):
        return la.rank(np.concatenate([big, small]), M.p) == big.shape[0]

    simples, kept = [], []
    span = np.zeros((0, M.dim), dtype=np.int64)
    for sub in sorted(cyclic.values(), key=len):
        if any(inside(s, sub) for s in simples):
            continue
        simples.append(sub)
        if not inside(sub, span):
            kept.append(sub)
            span, _ = la.rref(np.concatenate([span, sub]), M.p)
    return kept


def socle(M: GModule) -> np.ndarray:
    """soc M, the sum of the simple submodules (rref basis)."""
    return la.rref(np.concatenate([np.zeros((0, M.dim), dtype=np.int64),
                                   *_simple_summands(M)]), M.p)[0]


def radical(M: GModule) -> np.ndarray:
    """rad M = (soc M*)^perp, the vectors that pair to zero with the socle
    of the dual module (rref basis)."""
    return la.rref(la.nullspace(socle(M.dual()), M.p), M.p)[0]


def submodule_module(M: GModule, basis: np.ndarray) -> GModule:
    """Action of G on the submodule spanned by `basis`, in basis coordinates."""
    if basis.shape[0] == 0:
        return GModule(M.group, M.p, [np.zeros((0, 0), dtype=np.int64)
                                      for _ in M.mats], check=False)
    mats = []
    for m in M.mats:
        img = la.matmul(basis, m, M.p)
        coeff = la.solve_right(basis, img, M.p)
        if coeff is None:
            raise InputError("basis does not span a submodule")
        mats.append(coeff)
    return GModule(M.group, M.p, mats, check=False)


def quotient_module(M: GModule, basis: np.ndarray) -> tuple[GModule, np.ndarray]:
    """(M / <basis>, projection matrix dim x qdim)."""
    k = basis.shape[0]
    red, piv = la.rref(basis, M.p) if k else (basis, [])
    compl = [c for c in range(M.dim) if c not in piv]
    full = np.zeros((M.dim, M.dim), dtype=np.int64)
    if k:
        full[:len(piv)] = red
    for r, c in enumerate(compl):
        full[len(piv) + r, c] = 1
    # coordinates: v -> coefficients of v in rows of `full`; quotient keeps the tail
    to_coords = la.solve_right(full, la.identity(M.dim), M.p)
    assert to_coords is not None
    proj = to_coords[:, len(piv):]
    qmats = []
    for m in M.mats:
        act_rows = la.matmul(full[len(piv):], m, M.p)
        qmats.append(la.matmul(act_rows, proj, M.p))
    return GModule(M.group, M.p, qmats, check=False), proj


def _semisimple_factors(M: GModule) -> list[tuple]:
    """Labels of the simple summands of a semisimple module (M = soc M)."""
    return sorted(submodule_module(M, s).fingerprint() for s in _simple_summands(M))


def loewy_layers(M: GModule, label_names: dict | None = None) -> LoewyData:
    """Radical filtration with socle-first layer list; see LoewyData.  The
    layer rad^j M / rad^{j+1} M is read off the bases of rad^j M inside M."""
    if M.dim == 0:
        return LoewyData([], label_names or {})
    filtration = [la.identity(M.dim)]
    current = M
    while (rad_local := radical(current)).shape[0]:
        filtration.append(la.matmul(rad_local, filtration[-1], M.p))
        current = submodule_module(M, filtration[-1])
    layers = [_semisimple_factors(_subquotient(M, upper, lower))
              for upper, lower in zip(filtration, filtration[1:] + [None])]
    return LoewyData(layers[::-1], label_names or {})


def _subquotient(M: GModule, upper: np.ndarray, lower: np.ndarray | None) -> GModule:
    """<upper> / <lower> for submodule bases lower inside upper (None: 0)."""
    if lower is None:
        lower_in_upper = np.zeros((0, upper.shape[0]), dtype=np.int64)
    else:
        lower_in_upper = la.solve_right(upper, lower, M.p)
        assert lower_in_upper is not None
    return quotient_module(submodule_module(M, upper), lower_in_upper)[0]


# -- endomorphisms, idempotents, Fitting ---------------------------------------


def endomorphism_basis(M: GModule) -> np.ndarray:
    """Basis (rows, row-major-vectorized) of End_{F_p[G]}(M): the null space
    of the equations (XA - AX)_ij = 0, one {k n + l: coefficient of X_kl}
    row each, solved by la.sparse_nullspace."""
    n, p, N = M.dim, M.p, M.dim ** 2
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    i, eq, unk, val = np.arange(n)[:, None], [], [], []
    for t, A in enumerate(M.mats):
        # (XA - AX)_ij = sum_l A_lj X_il - sum_k A_ik X_kj: equation t N + i n + j
        r, c = np.nonzero(A)
        eq += [((t * n + i) * n + c).ravel(), ((t * n + r) * n + i).ravel()]
        unk += [(i * n + r).ravel(), (c * n + i).ravel()]
        val += [np.tile(A[r, c], n), -np.tile(A[r, c], n)]
    basis = la.sparse_nullspace(*map(np.concatenate, (eq, unk, val)), len(M.mats) * N, N, p)
    for row in basis[: min(4, basis.shape[0])]:
        X = row.reshape(n, n)
        for A in M.mats:
            assert ((X @ A - A @ X) % M.p == 0).all(), "endomorphism check failed"
    return basis


def _endo_idempotents(M: GModule):
    """Yield nontrivial idempotents in End(M), exhausting the algebra."""
    basis = endomorphism_basis(M)
    k = basis.shape[0]
    n = M.dim
    if M.p ** k > IDEMPOTENT_SEARCH_LIMIT:
        raise TooLarge(f"module decomposition: End(M) has {M.p}^{k} = {M.p ** k:,} "
                       f"elements, past IDEMPOTENT_SEARCH_LIMIT = "
                       f"{IDEMPOTENT_SEARCH_LIMIT:,}")
    ident = la.identity(n)
    for coeffs in la.all_vectors(k, M.p):
        if not coeffs.any():
            continue
        E = la.asmod(np.tensordot(coeffs, basis, axes=(0, 0)).reshape(n, n), M.p)
        if (E == ident).all():
            continue
        if (la.matmul(E, E, M.p) == E).all():
            yield E


def fitting_decompose(M: GModule, endo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the endomorphism until ker and image stabilize; return bases.

    The result is a G-stable direct sum decomposition M = ker + im.
    """
    p = M.p
    E = la.asmod(endo, p)
    power = E
    prev_rank = -1
    for _ in range(M.dim + 1):
        r = la.rank(power, p)
        if r == prev_rank:
            break
        prev_rank = r
        power = la.matmul(power, E, p)
    image, _ = la.rref(power, p)
    kernel = la.nullspace(power.T, p)
    assert image.shape[0] + kernel.shape[0] == M.dim
    combined = np.concatenate([kernel, image]) if kernel.size or image.size else kernel
    assert la.rank(combined, p) == M.dim, "kernel+image not a direct sum"
    return kernel, image


def indecomposable_summands(M: GModule) -> list[np.ndarray]:
    """Bases (in M coordinates) of an indecomposable direct sum decomposition."""
    if M.dim == 0:
        return []
    for E in _endo_idempotents(M):
        ker, img = fitting_decompose(M, E)
        if ker.shape[0] == 0 or img.shape[0] == 0:
            continue
        out = []
        for part in (ker, img):
            sub = submodule_module(M, part)
            for inner in indecomposable_summands(sub):
                out.append(la.matmul(inner, part, M.p))
        return out
    return [la.identity(M.dim)]


def is_indecomposable(M: GModule) -> bool:
    if M.dim == 0:
        return False
    for E in _endo_idempotents(M):
        ker, img = fitting_decompose(M, E)
        if ker.shape[0] and img.shape[0]:
            return False
    return True


# -- induction ------------------------------------------------------------------


def induce(Mprime: GModule, G: FiniteGroup) -> GModule:
    """Induced module along a subgroup inclusion H <= G, on the right cosets
    Hx, each represented by its least member and numbered in that order.

    Column x of one `mul_many` of H's embedding by every element is the coset
    Hx.  Each coset rep times each generator, t = rep g, lies in the coset j
    of the rep `coset[t]`, and its H-part h (t = h reps[j]) is the row of t in
    that coset's column; all of them come from one batch.  Mprime.group must
    be literally a subgroup of G: same degree, every element present in G.
    """
    H = Mprime.group
    embed = G.element_subgroup(H)
    if embed is None:
        raise NotASubgroup("module group is not a subgroup of G")
    Hx = G.mul_many(np.asarray(embed)[:, None], np.arange(G.order))
    reps, coset = np.unique(Hx.min(axis=0), return_inverse=True)
    t = G.mul_many(reps, np.asarray(G.gen_indices)[:, None])     # (generator, coset)
    j = coset[t]
    h = (Hx[:, reps[j]] == t).argmax(axis=0)
    (k, n), m = t.shape, Mprime.dim
    big = np.zeros((k, n, m, n, m), dtype=np.int64)
    big[np.arange(k)[:, None], np.arange(n), :, j, :] = Mprime.element_mats()[h]
    return GModule(G, Mprime.p, list(big.reshape(k, n * m, n * m)))


# -- section 2.1 utilities -------------------------------------------------------


def involution_pairing(v1, v2, h: tuple[int, ...], p: int) -> int:
    """<v1, v2>_h = sum_i v1[i] * v2[h(i)] for a basis involution h."""
    n = len(h)
    if sorted(h) != list(range(n)):
        raise NotInvolution("h is not a permutation")
    if any(h[h[i]] != i for i in range(n)):
        raise NotInvolution("h^2 != identity")
    v1 = la.asmod(np.asarray(v1), p)
    v2 = la.asmod(np.asarray(v2), p)
    if len(v1) != n or len(v2) != n:
        raise DimensionMismatch("vector length must match h")
    return int(sum(v1[i] * v2[h[i]] for i in range(n)) % p)


def frobenius_check(G: FiniteGroup, p: int, samples: int = 25, seed: int = 7) -> bool:
    """<ab, c> == <a, bc> on sampled group-algebra triples, h = inversion.

    The pairing takes the coefficient of the identity; associativity of the
    convolution product makes this an exact identity, checked numerically.
    """
    rng = np.random.default_rng(seed)
    n = G.order
    h = tuple(int(G.inv[i]) for i in range(n))

    def convolve(a, b):
        out = np.zeros(n, dtype=np.int64)
        for i in np.nonzero(a)[0]:
            for j in np.nonzero(b)[0]:
                out[G.mul(int(i), int(j))] += a[i] * b[j]
        return out % p

    for _ in range(samples):
        a, b, c = (la.asmod(rng.integers(0, p, size=n) *
                            (rng.random(n) < 0.2), p) for _ in range(3))
        lhs = involution_pairing(convolve(a, b), c, h, p)
        rhs = involution_pairing(a, convolve(b, c), h, p)
        if lhs != rhs:
            return False
    return True


def hopf_tensor(M: GModule, N: GModule) -> GModule:
    """Diagonal tensor product: g acts as A_g (x) B_g."""
    if M.group is not N.group or M.p != N.p:
        raise DimensionMismatch("tensor factors must share group and prime")
    mats = [la.asmod(np.kron(a, b), M.p) for a, b in zip(M.mats, N.mats)]
    return GModule(M.group, M.p, mats, check=False)


def trivial_module(G: FiniteGroup, p: int, dim: int = 1) -> GModule:
    return GModule(G, p, [la.identity(dim) for _ in G.gen_indices], check=False)


def regular_module(G: FiniteGroup, p: int) -> GModule:
    """Right regular representation as permutation matrices."""
    mats = []
    for g in G.gen_indices:
        m = np.zeros((G.order, G.order), dtype=np.int64)
        for x in range(G.order):
            m[x, G.mul(x, g)] = 1
        mats.append(m)
    return GModule(G, p, mats, check=False)

