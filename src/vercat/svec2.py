"""The characteristic-2 supervector category sVec_2 = Rep(k[d]/(d^2)).

Objects are GF(2) spaces with a square-zero endomorphism d; the braiding
twists the swap by the R-matrix 1 (x) 1 + d (x) d:

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

import random
from dataclasses import dataclass

import numpy as np

from . import graded
from .exactlin import GF, Mat, check_budget, kernel, rank

GF2 = GF(2)


@dataclass(frozen=True, eq=False)
class DModule:
    """A GF(2) space with a differential d satisfying d^2 = 0."""

    dim: int
    d: Mat

    def __post_init__(self):
        if self.d.rows != self.dim or self.d.cols != self.dim:
            raise ValueError("d must be square of size dim")
        if self.d.field != GF2:
            raise ValueError("d must live over GF(2)")
        # only k whose row and column of d are both nonzero add to (d d)[r, c]
        d = self.d.a
        k = np.flatnonzero(d.any(axis=0) & d.any(axis=1))
        if ((d[:, k] @ d[k, :]) % 2).any():
            raise ValueError("d^2 must vanish")


def trivial(n: int = 1) -> DModule:
    return DModule(n, Mat.zeros(GF2, n, n))


def module_w() -> DModule:
    """The indecomposable W with basis (x, y), d(x) = y, d(y) = 0."""
    return DModule(2, Mat(GF2, [[0, 0], [1, 0]]))


def direct_sum(a: DModule, b: DModule) -> DModule:
    d = Mat.zeros(GF2, a.dim + b.dim, a.dim + b.dim)
    d.a[: a.dim, : a.dim] = a.d.a
    d.a[a.dim :, a.dim :] = b.d.a
    return DModule(a.dim + b.dim, d)


def tensor(a: DModule, b: DModule) -> DModule:
    """Tensor product; d is primitive, acting by d (x) 1 + 1 (x) d."""
    ia = Mat.identity(GF2, a.dim)
    ib = Mat.identity(GF2, b.dim)
    return DModule(a.dim * b.dim, a.d.kron(ib) + ia.kron(b.d))


def _braiding(a: DModule, b: DModule) -> np.ndarray:
    r_action = np.eye(a.dim * b.dim, dtype=np.int64) + np.kron(a.d.a, b.d.a)
    return (graded.swap(a.dim, b.dim) @ r_action) % 2


def braiding(a: DModule, b: DModule) -> Mat:
    """Matrix of c: A (x) B -> B (x) A, the swap twisted by d (x) d."""
    return Mat(GF2, _braiding(a, b))


class DGradedAlgebra(graded.GradedTower, graded.TruncatedAlgebra):
    """The symmetric algebra of a DModule, truncated in degree.

    Built by `graded.quotient_tower` with the relation 1 + c: degree m is
    the quotient of (degree m-1) (x) X by the image of the braiding
    relations.  Holds per-degree dimensions, the quotient and lift maps,
    the induced derivation d (x) 1 + 1 (x) d, and (lazily) the
    multiplication maps between degrees, all as arrays over GF(2).
    """

    def __init__(self, x: DModule, depth: int, max_entries: int | None = None):
        graded.check_degree(depth)
        check_budget(x.dim**depth, max_entries, f"S^{depth} of a {x.dim}-dim module")
        self.x = x
        self.p = 2
        self.depth = depth
        n = self.nx = x.dim
        if depth < 2:  # no relations below S^2: do not form the n^4 matrix
            rel = np.zeros((n * n, 0), dtype=np.int64)
        else:
            check_budget(n**4, max_entries, "relation matrix of S^2")
            rel = (np.eye(n * n, dtype=np.int64) + _braiding(x, x)) % 2
        self.q, self.lift = graded.quotient_tower(rel, n, depth, 2, max_entries)
        self.dims: list[int] = [qm.shape[0] for qm in self.q]
        self.dmat: list[np.ndarray] = [np.zeros((1, 1), dtype=np.int64)]
        if depth >= 1:  # q[1] and lift[1] are identities: degree 1 carries d
            self.dmat.append(x.d.a)
        for m in range(2, depth + 1):
            d_b = np.kron(self.dmat[m - 1], np.eye(n, dtype=np.int64)) + np.kron(
                np.eye(self.dims[m - 1], dtype=np.int64), x.d.a
            )
            self.dmat.append((self.q[m] @ d_b @ self.lift[m]) % 2)
        self._mu: dict[tuple[int, int], np.ndarray] = {}
        self._tables: dict[tuple[int, int], np.ndarray] = {}

    def dim(self, m: int) -> int:
        return self.dims[m]

    def section(self, b: int) -> np.ndarray:
        return self.lift[b]

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
            dc = (c @ self.dmat[m].T) % 2
            if np.any(dc):
                out[m] = dc
        return out


def sym_algebra(x: DModule, depth: int, max_entries: int | None = None) -> DGradedAlgebra:
    """S(X) in sVec_2, truncated at the given degree."""
    return DGradedAlgebra(x, depth, max_entries)


def injectivity_check(
    u: DModule,
    w: DModule,
    inclusion: Mat,
    depth: int,
    max_entries: int | None = None,
) -> int | None:
    """First degree where S(U) -> S(W) fails to be injective, else None.

    The inclusion must be an injective map of DModules; the induced maps
    on symmetric powers are compared degree by degree against the source
    dimensions.
    """
    incl = inclusion.a
    if inclusion.field != GF2 or incl.shape != (w.dim, u.dim):
        raise ValueError("inclusion must be a GF(2) matrix from U to W")
    if ((incl @ u.d.a - w.d.a @ incl) % 2).any():
        raise ValueError("inclusion is not an intertwiner of d")
    if rank(incl, 2) != u.dim:
        raise ValueError("inclusion is not injective")
    su = sym_algebra(u, depth, max_entries)
    sw = sym_algebra(w, depth, max_entries)
    f = np.ones((1, 1), dtype=np.int64)
    for m in range(1, depth + 1):
        # S^m(U) -> S^m(W) is q_m (f_(m-1) (x) inclusion) lift_m
        f = (sw.q[m] @ np.kron(f, incl) @ su.lift[m]) % 2
        if rank(f, 2) < su.dims[m]:
            return m
    return None


def invariants_d(alg: DGradedAlgebra) -> list[Mat]:
    """Per-degree bases of the invariant part, the kernel of d.

    Subobjects isomorphic to the unit are exactly the lines killed by d,
    so the invariant part of each degree is ker(d); it is closed under
    products by the derivation rule.
    """
    return [Mat(GF2, kernel(d, 2)) for d in alg.dmat]


def fourth_power_checks(
    x: DModule, depth: int, trials: int, seed: int, max_entries: int | None = None
) -> dict[str, bool | int]:
    """Randomized verification of the fourth-power identities in S(X).

    For seeded random elements a, b (homogeneous and not), checks
    d(a)^2 = 0, d(a^4) = 0, centrality of a^4, (ab)^4 = a^4 b^4,
    (a1+...+ak)^4 = sum a_i^4, and the square rule
    (ab)^2 = a^2 b^2 + ab d(a) d(b).  Elements are sampled in degrees
    <= depth // 4 so fourth powers stay inside the truncation; the
    identities hold verbatim in the truncated quotient algebra.
    Per-trial seeds are derived as seed + trial index.  The draws are
    stacked into one batch (charged against `max_entries` before any is
    drawn) and each identity is evaluated once on it, passing only if
    every trial agrees.
    """
    if depth < 4:
        raise ValueError("truncation must admit at least one fourth power")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    alg = sym_algebra(x, depth, max_entries)
    alg.check_batch(trials, max_entries)
    max_deg = depth // 4
    draws: list[list[dict]] = [[] for _ in range(5)]  # a, b and three terms
    for trial in range(trials):
        rng = random.Random(seed + trial)
        draws[0].append(alg.random_element(rng, max_deg, homogeneous=bool(trial % 2)))
        for column in draws[1:]:
            column.append(alg.random_element(rng, max_deg))
    a, b, *terms = [alg.stack(column) for column in draws]
    da, db = alg.dmap(a), alg.dmap(b)
    a4 = alg.power(a, 4)
    ab = alg.mul(a, b)
    total = alg.zero()
    sum_of_fourths = alg.zero()
    for t in terms:
        total = alg.add(total, t)
        sum_of_fourths = alg.add(sum_of_fourths, alg.power(t, 4))
    rule = alg.add(
        alg.mul(alg.power(a, 2), alg.power(b, 2)), alg.mul(ab, alg.mul(da, db))
    )
    return {
        "d_square_zero": alg.equal(alg.mul(da, da), alg.zero()),
        "d_of_fourth_power": alg.equal(alg.dmap(a4), alg.zero()),
        "fourth_power_central": alg.equal(alg.mul(a4, b), alg.mul(b, a4)),
        "product_fourth_power": alg.equal(
            alg.power(ab, 4), alg.mul(a4, alg.power(b, 4))
        ),
        "sum_fourth_power": alg.equal(alg.power(total, 4), sum_of_fourths),
        "square_rule": alg.equal(alg.power(ab, 2), rule),
        "trials": trials,
        "seed": seed,
    }
