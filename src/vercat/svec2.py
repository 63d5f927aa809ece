"""The characteristic-2 supervector category sVec_2 = Rep(k[d]/(d^2)).

Objects are GF(2) spaces with a square-zero endomorphism d, held as an
int64 array of residues mod 2, as is every map here; the braiding twists
the swap by the R-matrix 1 (x) 1 + d (x) d:

    c(v (x) w) = w (x) v + d(w) (x) d(v).

Commutative algebras here are d-commutative: ab + ba = d(a) d(b).
Symmetric algebras are degreewise quotients of tensor powers by the
braiding relations, with induced derivation and multiplication tables;
everything is an honest GF(2) quotient (no negligibles in sight).

The base field is exactly GF(2); nothing here needs algebraic closure.
Up to isomorphism there are two indecomposables, the unit and the
two-dimensional module W with d(x) = y, d(y) = 0.  That classification
only bounds test grids; no algorithm assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graded
from .exactlin import _residues_of, check_budget, kernel, matmul_mod, pivots, rank, rref


@dataclass(frozen=True, eq=False)
class DModule:
    """A GF(2) space with a differential d satisfying d^2 = 0; `d` is read
    once into a read-only array of residues mod 2."""

    d: np.ndarray

    def __post_init__(self):
        d = _residues_of(self.d, 2)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("d must be square")
        # only k whose row and column of d are both nonzero add to (d d)[r, c]
        k = np.flatnonzero(d.any(axis=0) & d.any(axis=1))
        if matmul_mod(d[:, k], d[k, :], 2).any():
            raise ValueError("d^2 must vanish")
        object.__setattr__(self, "d", graded.frozen(d))

    @property
    def dim(self) -> int:
        return self.d.shape[0]


def random_dmodule(rng: np.random.Generator, dim: int) -> DModule:
    """A random DModule, d = P J P^-1 for J a random number of W blocks
    and P = L S U, L and U unitriangular with uniform entries off the
    diagonal and S a uniform permutation matrix.  Every invertible matrix
    takes that form (its LPU decomposition), so every square-zero d can
    be drawn.  One elimination of [P | I] gives P^-1."""
    eye = np.eye(dim, dtype=np.int64)
    lower = np.tril(rng.integers(0, 2, size=(dim, dim)), -1) + eye
    upper = np.triu(rng.integers(0, 2, size=(dim, dim)), 1) + eye
    pm = matmul_mod(lower[:, rng.permutation(dim)], upper, 2)
    r, _ = rref(np.hstack([pm, eye]), 2)  # [I | P^-1]
    x = 2 * np.arange(rng.integers(0, dim // 2 + 1))  # J sends each e_x to e_(x+1)
    return DModule(matmul_mod(pm[:, x + 1], r[x, dim:], 2))


def trivial(n: int = 1) -> DModule:
    return DModule(np.zeros((n, n), dtype=np.int64))


def module_w() -> DModule:
    """The indecomposable W with basis (x, y), d(x) = y, d(y) = 0."""
    return DModule([[0, 0], [1, 0]])


def direct_sum(a: DModule, b: DModule) -> DModule:
    d = np.zeros((a.dim + b.dim,) * 2, dtype=np.int64)
    d[: a.dim, : a.dim], d[a.dim :, a.dim :] = a.d, b.d
    return DModule(d)


def tensor(a: DModule, b: DModule) -> DModule:
    """Tensor product; d is primitive, acting by d (x) 1 + 1 (x) d."""
    ia, ib = np.eye(a.dim, dtype=np.int64), np.eye(b.dim, dtype=np.int64)
    return DModule(np.kron(a.d, ib) + np.kron(ia, b.d))


def braiding(a: DModule, b: DModule) -> np.ndarray:
    """Matrix of c: A (x) B -> B (x) A, the swap twisted by d (x) d."""
    n = a.dim * b.dim
    r_action = (np.eye(n, dtype=np.int64) + np.kron(a.d, b.d)) % 2
    return r_action.reshape(a.dim, b.dim, n).transpose(1, 0, 2).reshape(n, n)  # swap @ r_action


class _DDegrees(graded.QuotientDegrees):
    """The degrees of S(X) shared by the algebras on one (X, max_entries):
    the plain tower with relation 1 + c, passed as its pivot columns (an
    independent spanning set; the tower reads only their span), and
    `dmat[m]`, the derivation d (x) 1 + 1 (x) d induced on degree m.  A
    growth builds every missing degree of the tower before any missing
    derivation, as one fresh build does."""

    _LISTS = graded.QuotientDegrees._LISTS + ("dmat",)

    def __init__(self, x: DModule, max_entries: int | None):
        super().__init__(x.dim, 2, max_entries)
        self.x = x
        self.dmat: list[np.ndarray] = []

    def _relations(self) -> np.ndarray:
        n = self.n
        check_budget(n**4, self.max_entries, "relation matrix of S^2")
        rel = (np.eye(n * n, dtype=np.int64) + braiding(self.x, self.x)) % 2
        return rel[:, pivots(rel, 2)]

    def _extend(self, depth: int) -> None:
        n = self.n
        for m in range(len(self.dmat), depth + 1):
            if m == 0:
                dm = np.zeros((1, 1), dtype=np.int64)
            elif m == 1:  # q[1] is the identity: degree 1 carries d itself
                dm = self.x.d
            else:  # d (x) 1 + 1 (x) d on the kept columns
                qm, km, du = self.q[m], self.keep[m], self.q[m - 1].shape[0]
                left = graded.induced(qm, km, self.dmat[m - 1], np.identity(n, np.int64), 2)
                right = graded.induced(qm, km, np.identity(du, np.int64), self.x.d, 2)
                dm = (left + right) % 2
            self.dmat.append(graded.frozen(dm))


class DGradedAlgebra(graded.GradedTower, graded.TruncatedAlgebra):
    """The symmetric algebra of a DModule, truncated in degree.

    Degree m is the quotient of (degree m-1) (x) X by the image of the
    braiding relations.  Holds per-degree dimensions, quotient maps and
    kept coordinates, the induced derivation d (x) 1 + 1 (x) d, and
    (lazily) sections and multiplication maps, all as arrays over GF(2).
    The first four are read, up to this algebra's depth, from the
    `_DDegrees` kept by X and the budget (`graded.Degrees.shared`), grown
    if it is shallower; sections and products stay with the algebra.
    """

    def __init__(self, x: DModule, depth: int, max_entries: int | None = None):
        graded.check_degree(depth)
        self.x = x
        self.p = 2
        self.depth = depth
        self.max_entries = max_entries
        self.nx = x.dim
        key = (x.dim, x.d.tobytes(), max_entries)
        self._deg = _DDegrees.shared(key, x, max_entries)
        self._deg.grow(depth)
        self.q, self.keep, self.dmat = self._deg.view(depth)
        self.dims: list[int] = [qm.shape[0] for qm in self.q]
        self._sections: dict[int, np.ndarray] = {}
        self._mu: dict[tuple, np.ndarray] = {}
        self._tables: dict[tuple[int, int], np.ndarray] = {}

    def dim(self, m: int) -> int:
        return self.dims[m]

    def product_table(self, a: int, b: int) -> np.ndarray:
        if (a, b) not in self._tables:
            self._tables[a, b] = self.table(a, b)
        return self._tables[a, b]

    def from_vector(self, degree: int, vec) -> dict[int, np.ndarray]:
        v = np.asarray(vec, dtype=np.int64) % 2
        return {degree: v} if v.any() else {}

    def dmap(self, u: dict) -> dict:
        """The induced derivation, row by row on a batch."""
        out = {}
        for m, c in u.items():
            dc = matmul_mod(c.reshape(-1, c.shape[-1]), self.dmat[m].T, 2).reshape(c.shape)
            if np.any(dc):
                out[m] = dc
        return out


def sym_algebra(x: DModule, depth: int, max_entries: int | None = None) -> DGradedAlgebra:
    """S(X) in sVec_2, truncated at the given degree."""
    return DGradedAlgebra(x, depth, max_entries)


def injectivity_check(
    u: DModule,
    w: DModule,
    inclusion: np.ndarray,
    depth: int,
    max_entries: int | None = None,
) -> int | None:
    """First degree where S(U) -> S(W) fails to be injective, else None.

    The inclusion must be an injective map of DModules; the induced maps
    on symmetric powers are compared degree by degree against the source
    dimensions.  The inclusion is an integer array, read mod 2.
    """
    incl = _residues_of(inclusion, 2)
    if incl.shape != (w.dim, u.dim):
        raise ValueError("inclusion must be a GF(2) matrix from U to W")
    if not np.array_equal(matmul_mod(incl, u.d, 2), matmul_mod(w.d, incl, 2)):
        raise ValueError("inclusion is not an intertwiner of d")
    if rank(incl, 2) != u.dim:
        raise ValueError("inclusion is not injective")
    su = sym_algebra(u, depth, max_entries)
    sw = sym_algebra(w, depth, max_entries)
    f = np.ones((1, 1), dtype=np.int64)
    for m in range(1, depth + 1):
        f = graded.induced(sw.q[m], su.keep[m], f, incl, 2)
        if rank(f, 2) < su.dims[m]:
            return m
    return None


def invariants_d(alg: DGradedAlgebra) -> list[np.ndarray]:
    """Per-degree bases of the invariant part, the kernel of d.

    Subobjects isomorphic to the unit are exactly the lines killed by d,
    so the invariant part of each degree is ker(d); it is closed under
    products by the derivation rule.
    """
    return [kernel(d, 2) for d in alg.dmat]


def fourth_power_checks(
    x: DModule, depth: int, trials: int, seed: int, max_entries: int | None = None
) -> dict[str, bool]:
    """Randomized verification of the fourth-power identities in S(X).

    For seeded random elements a, b (homogeneous and not), checks
    d(a)^2 = 0, d(a^4) = 0, centrality of a^4, (ab)^4 = a^4 b^4,
    (a1+...+ak)^4 = sum a_i^4, and the square rule
    (ab)^2 = a^2 b^2 + ab d(a) d(b).  Elements are sampled in degrees
    <= depth // 4 so fourth powers stay inside the truncation; the
    identities hold verbatim in the truncated quotient algebra.
    All draws come from one `numpy.random.Generator` seeded with `seed`,
    as five (trials x d)-per-degree batches (a, b and three summands;
    odd rows of a are homogeneous), charged against `max_entries`
    before any is drawn, and each identity is evaluated once on them,
    passing only if every trial agrees.
    """
    if depth < 4:
        raise ValueError("truncation must admit at least one fourth power")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    alg = sym_algebra(x, depth, max_entries)
    alg.check_batch(trials)
    max_deg = depth // 4
    rng = np.random.default_rng(seed)
    a = alg.random_batch(rng, trials, max_deg, homogeneous=np.arange(trials) % 2 == 1)
    b, *terms = [alg.random_batch(rng, trials, max_deg) for _ in range(4)]
    da, db = alg.dmap(a), alg.dmap(b)
    ab = alg.mul(a, b)
    # power(u, 4) is two squarings: square each of a, b, ab once
    a2, b2, ab2 = (alg.power(u, 2) for u in (a, b, ab))
    a4, b4, ab4 = (alg.power(u, 2) for u in (a2, b2, ab2))
    total = alg.zero()
    sum_of_fourths = alg.zero()
    for t in terms:
        total = alg.add(total, t)
        sum_of_fourths = alg.add(sum_of_fourths, alg.power(t, 4))
    rule = alg.add(alg.mul(a2, b2), alg.mul(ab, alg.mul(da, db)))
    return {
        "d_square_zero": alg.equal(alg.mul(da, da), alg.zero()),
        "d_of_fourth_power": alg.equal(alg.dmap(a4), alg.zero()),
        "fourth_power_central": alg.equal(alg.mul(a4, b), alg.mul(b, a4)),
        "product_fourth_power": alg.equal(ab4, alg.mul(a4, b4)),
        "sum_fourth_power": alg.equal(alg.power(total, 4), sum_of_fourths),
        "square_rule": alg.equal(ab2, rule),
    }
