"""The category Rep_k(Z/pZ) in characteristic p.

Objects are finite dimensional modules given by the unipotent matrix of
the generator; they decompose into Jordan blocks J_1, ..., J_p and are
classified up to isomorphism by the partition of block sizes.  The
braiding is the plain swap of tensor factors.

Symmetric powers are computed by the relation-quotient definition
S^m(X) = X^(x)m / sum(im(id - swap_i)), never by the averaging
idempotent, whose denominator m! is not invertible once m >= p.  The
quotient is built one degree at a time: S^m is the cokernel of the
degree-m relations pushed into S^(m-1) (x) X, which keeps every
materialized matrix at desk scale while producing the same space as the
dense tensor-power quotient.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .exactlin import (
    GF,
    Mat,
    _nilpotent_partitions,
    check_budget,
    kernel,
    nilpotent_partition,
)
from .graded import check_degree, induced, quotient_tower, swap


@dataclass(frozen=True)
class JordanType:
    """A partition of Jordan block sizes, weakly decreasing, parts <= p."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(x < 1 for x in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def multiplicity(self, k: int) -> int:
        return sum(1 for x in self.parts if x == k)

    def __str__(self):
        return "[" + ",".join(str(x) for x in self.parts) + "]"


@dataclass(frozen=True, eq=False)
class ZpModule:
    """A Z/pZ-module in characteristic p: the generator acts by `g`."""

    p: int
    dim: int
    g: Mat

    def __post_init__(self):
        if self.g.rows != self.dim or self.g.cols != self.dim:
            raise ValueError("generator matrix shape does not match dim")
        if self.g.field != GF(self.p):
            raise ValueError("generator matrix must live over GF(p)")

    def nilpotent(self) -> Mat:
        """g - 1, the nilpotent part of the generator action."""
        return self.g - Mat.identity(self.g.field, self.dim)

    def validate(self) -> None:
        """Check g^p = 1; O(p dim^3), intended for tests and user input."""
        n = self.nilpotent()
        acc = Mat.identity(self.g.field, self.dim)
        for _ in range(self.p):
            acc = acc @ n
        if not acc.is_zero():
            raise ValueError("generator is not unipotent of order dividing p")


@dataclass(frozen=True, eq=False)
class HomSpace:
    """A basis of the intertwiners source -> target."""

    source: ZpModule
    target: ZpModule
    basis: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def jordan_module(p: int, parts: list[int] | tuple[int, ...]) -> ZpModule:
    """Direct sum of Jordan blocks J_{parts[0]} (+) J_{parts[1]} (+) ..."""
    for x in parts:
        if not 1 <= x <= p:
            raise ValueError(f"block size {x} out of range [1, {p}]")
    dim = sum(parts)
    f = GF(p)
    g = Mat.identity(f, dim)
    off = 0
    for x in parts:
        for i in range(x - 1):
            g.a[off + i, off + i + 1] = 1
        off += x
    return ZpModule(p, dim, g)


def trivial_module(p: int, n: int = 1) -> ZpModule:
    return jordan_module(p, [1] * n)


def jordan_type(m: ZpModule) -> JordanType:
    """Partition classifying the module up to isomorphism."""
    return JordanType(nilpotent_partition(m.nilpotent()))


def jordan_types(ms: Iterable[ZpModule]) -> Iterator[JordanType]:
    """`jordan_type` of each module of `ms`, in order, eliminated in
    batches by `nilpotent_partitions`; the modules are read lazily and
    must share one prime.  The chain reads each g - 1 as a plain array."""
    nils = ((m.g.a - np.eye(m.dim, dtype=np.int64), m.g.field) for m in ms)
    for parts in _nilpotent_partitions(nils):
        yield JordanType(parts)


def _check_same_prime(a: ZpModule, b: ZpModule) -> None:
    if a.p != b.p:
        raise ValueError(f"prime mismatch: {a.p} vs {b.p}")


def tensor(a: ZpModule, b: ZpModule) -> ZpModule:
    """Tensor product; the generator acts diagonally by g_a (x) g_b, one
    broadcast product in `Mat.kron`'s order (left factor slowest)."""
    _check_same_prime(a, b)
    n = a.dim * b.dim
    g = (a.g.a[:, None, :, None] * b.g.a[None, :, None, :]).reshape(n, n)
    return ZpModule(a.p, n, Mat(a.g.field, g))


def direct_sum(a: ZpModule, b: ZpModule) -> ZpModule:
    _check_same_prime(a, b)
    g = Mat.zeros(a.g.field, a.dim + b.dim, a.dim + b.dim)
    g.a[: a.dim, : a.dim] = a.g.a
    g.a[a.dim :, a.dim :] = b.g.a
    return ZpModule(a.p, a.dim + b.dim, g)


def dual(a: ZpModule) -> ZpModule:
    """Dual module; the generator acts by (g^-1)^T."""
    return ZpModule(a.p, a.dim, a.g.inverse().T)


def braiding(a: ZpModule, b: ZpModule) -> Mat:
    """The braiding of Rep(Z/pZ): the plain swap A (x) B -> B (x) A."""
    _check_same_prime(a, b)
    return Mat(GF(a.p), swap(a.dim, b.dim))


def hom_stack(a: ZpModule, b: ZpModule) -> np.ndarray:
    """A basis of the intertwiners T with T g_a = g_b T, stacked as an
    (h x b.dim x a.dim) array.

    T is flattened row-major; the intertwining condition becomes
    (I (x) g_a^T - g_b (x) I) vec(T) = 0.
    """
    _check_same_prime(a, b)
    system = np.kron(np.eye(b.dim, dtype=np.int64), a.g.a.T) - np.kron(
        b.g.a, np.eye(a.dim, dtype=np.int64)
    )
    k = kernel(system, a.p)
    return k.T.reshape(k.shape[1], b.dim, a.dim)


def hom_space(a: ZpModule, b: ZpModule) -> HomSpace:
    """All intertwiners a -> b, as a basis of matrices."""
    return HomSpace(a, b, tuple(Mat(GF(a.p), t) for t in hom_stack(a, b)))


def fixed_points(m: ZpModule) -> Mat:
    """Basis of the invariant subspace ker(g - 1), as columns."""
    return m.nilpotent().kernel_basis()


def sym_power(m: ZpModule, degree: int, max_entries: int | None = None) -> ZpModule:
    """The symmetric power S^degree(M) with its induced generator action.

    Returns the quotient module of the plain quotient tower with relation
    1 - swap, acted on by g_S = q (g_(S^(k-1)) (x) g) s, degree by degree
    (`graded.induced`).  Each array is charged against `max_entries`
    before it is formed: the n^2 x n(n-1)/2 relation columns, each
    degree's relation matrix (`graded.quotient_tower`) and each degree's
    action columns, (dim S^(k-1) * n) x dim S^k.

    Correctness anchor: this is the ambient route, S^m taken in
    Rep(Z/pZ) before the quotient functor; `verify --suite
    sympow-comparison` sets it against S^m computed inside Ver_p.
    """
    check_degree(degree)
    p, n = m.p, m.dim
    # the columns e_ij - e_ji, i < j, span the image of 1 - swap; they are
    # read only from degree 2
    r = n * (n - 1) // 2 if degree >= 2 else 0
    check_budget(n * n * r, max_entries, "relation matrix of S^2")
    i, j = np.triu_indices(n if r else 0, 1)
    rel = np.zeros((n * n, r), dtype=np.int64)
    rel[i * n + j, np.arange(r)] = 1
    rel[j * n + i, np.arange(r)] = p - 1
    q, keep = quotient_tower(rel, n, degree, p, max_entries)
    g = np.ones((1, 1), dtype=np.int64)
    for k in range(1, degree + 1):
        check_budget(g.shape[0] * n * len(keep[k]), max_entries, f"action on S^{k}")
        g = induced(q[k], keep[k], g, m.g.a, p)
    return ZpModule(p, g.shape[0], Mat(m.g.field, g))
