"""The category Rep_k(Z/pZ) in characteristic p.

Objects are finite dimensional modules given by the unipotent matrix of
the generator, a square int64 array of residues mod p; they decompose
into Jordan blocks J_1, ..., J_p and are classified up to isomorphism by
the partition of block sizes.  The braiding is the plain swap of tensor
factors.  Every map of modules is a residue array too.

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

from .exactlin import GF, _residues_of, check_budget, kernel, matmul_mod, solve_array
from .exactlin import nilpotent_partitions
from .graded import QuotientDegrees, check_degree, frozen, induced, swap


@dataclass(frozen=True, eq=False)
class ZpModule:
    """A Z/pZ-module in characteristic p, kept as the Python int `GF` checks:
    the generator acts by `g`, read once into a read-only array of residues."""

    p: int
    g: np.ndarray

    def __post_init__(self):
        p = GF(self.p).characteristic
        g = _residues_of(self.g, p)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("generator matrix must be square")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "g", frozen(g))

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def nilpotent(self) -> np.ndarray:
        """g - 1, the nilpotent part of the generator action."""
        return (self.g - np.eye(self.dim, dtype=np.int64)) % self.p

    def validate(self) -> None:
        """Check g^p = 1; O(p dim^3), intended for tests and user input."""
        n, acc = self.nilpotent(), np.eye(self.dim, dtype=np.int64)
        for _ in range(self.p):
            acc = matmul_mod(acc, n, self.p)
        if acc.any():
            raise ValueError("generator is not unipotent of order dividing p")


def jordan_module(p: int, parts: list[int] | tuple[int, ...]) -> ZpModule:
    """Direct sum of Jordan blocks J_{parts[0]} (+) J_{parts[1]} (+) ..."""
    for x in parts:
        if not 1 <= x <= p:
            raise ValueError(f"block size {x} out of range [1, {p}]")
    dim = sum(parts)
    g = np.eye(dim, dtype=np.int64) + np.eye(dim, k=1, dtype=np.int64)
    starts = np.cumsum(parts, dtype=np.int64)[:-1]  # of every block but the first
    g[starts - 1, starts] = 0
    return ZpModule(p, g)


def trivial_module(p: int, n: int = 1) -> ZpModule:
    return jordan_module(p, [1] * n)


def jordan_type(m: ZpModule) -> tuple[int, ...]:
    """Partition classifying the module up to isomorphism, its Jordan
    block sizes weakly decreasing: a batch of one of `jordan_types`."""
    return next(jordan_types([m]))


def jordan_types(ms: Iterable[ZpModule]) -> Iterator[tuple[int, ...]]:
    """`jordan_type` of each module of `ms`, in order, eliminated in
    batches by `nilpotent_partitions`; the modules are read lazily and
    must share one prime."""
    return nilpotent_partitions((m.nilpotent(), m.p) for m in ms)


def _check_same_prime(a: ZpModule, b: ZpModule) -> None:
    if a.p != b.p:
        raise ValueError(f"prime mismatch: {a.p} vs {b.p}")


def tensor(a: ZpModule, b: ZpModule) -> ZpModule:
    """Tensor product; the generator acts diagonally by g_a (x) g_b, one
    broadcast product in `np.kron`'s order (left factor slowest)."""
    _check_same_prime(a, b)
    n = a.dim * b.dim
    return ZpModule(a.p, (a.g[:, None, :, None] * b.g[None, :, None, :]).reshape(n, n))


def direct_sum(a: ZpModule, b: ZpModule) -> ZpModule:
    _check_same_prime(a, b)
    g = np.zeros((a.dim + b.dim,) * 2, dtype=np.int64)
    g[: a.dim, : a.dim], g[a.dim :, a.dim :] = a.g, b.g
    return ZpModule(a.p, g)


def dual(a: ZpModule) -> ZpModule:
    """Dual module; the generator acts by (g^-1)^T."""
    inverse = solve_array(a.g, np.eye(a.dim, dtype=np.int64), a.p)
    if inverse is None:
        raise ValueError("generator matrix is singular")
    return ZpModule(a.p, inverse.T)


def braiding(a: ZpModule, b: ZpModule) -> np.ndarray:
    """The braiding of Rep(Z/pZ): the plain swap A (x) B -> B (x) A."""
    _check_same_prime(a, b)
    return swap(a.dim, b.dim)


def hom_stack(a: ZpModule, b: ZpModule) -> np.ndarray:
    """A basis of the intertwiners T with T g_a = g_b T, stacked as an
    (h x b.dim x a.dim) array.

    T is flattened row-major; the intertwining condition becomes
    (I (x) g_a^T - g_b (x) I) vec(T) = 0, a (a.dim b.dim)^2-entry system
    charged against the default budget before it is formed.
    """
    _check_same_prime(a, b)
    check_budget((a.dim * b.dim) ** 2, None, "intertwining system of hom_stack")
    system = np.kron(np.eye(b.dim, dtype=np.int64), a.g.T) - np.kron(
        b.g, np.eye(a.dim, dtype=np.int64)
    )
    k = kernel(system, a.p)
    return k.T.reshape(k.shape[1], b.dim, a.dim)


class _SymDegrees(QuotientDegrees):
    """The plain tower of a module M with relation 1 - swap, and `g[k]`,
    the generator's action on S^k, for `sym_power`.

    The relation columns e_ij - e_ji, i < j, span the image of 1 - swap,
    n^2 x n(n-1)/2 of them, charged when S^2 is first built.  g[k] =
    q_k (g_(S^(k-1)) (x) g) on the kept columns (`graded.induced`); its
    (dim S^(k-1) * n) x dim S^k action columns are charged against
    `max_entries` before they are formed.  A growth builds every missing
    degree of the tower before any missing action, as one fresh build does.
    """

    _LISTS = QuotientDegrees._LISTS + ("g",)

    def __init__(self, m: ZpModule, max_entries: int | None):
        super().__init__(m.dim, m.p, max_entries)
        self.gen = m.g
        self.g = [frozen(np.ones((1, 1), dtype=np.int64))]

    def _relations(self) -> np.ndarray:
        n, r = self.nx, self.nx * (self.nx - 1) // 2
        check_budget(n * n * r, self.max_entries, "relation matrix of S^2")
        i, j = np.triu_indices(n, 1)
        rel = np.zeros((n * n, r), dtype=np.int64)
        rel[i * n + j, np.arange(r)] = 1
        rel[j * n + i, np.arange(r)] = self.p - 1
        return rel

    def _extend(self, depth: int) -> None:
        for k in range(len(self.g), depth + 1):
            g, n = self.g[k - 1], self.nx
            check_budget(g.shape[0] * n * len(self.keep[k]), self.max_entries, f"action on S^{k}")
            self.g.append(frozen(induced(self.q[k], self.keep[k], g, self.gen, self.p)))


def sym_power(m: ZpModule, degree: int, max_entries: int | None = None) -> ZpModule:
    """The symmetric power S^degree(M) with its induced generator action.

    Returns the quotient module of the plain quotient tower with relation
    1 - swap, acted on by g_S = q (g_(S^(k-1)) (x) g) s, degree by degree
    (`graded.induced`).  Each array is charged against `max_entries`
    before it is formed: the n^2 x n(n-1)/2 relation columns, each
    degree's relation matrix (`graded.QuotientDegrees`) and each degree's
    action columns, (dim S^(k-1) * n) x dim S^k.  The tower is kept by
    the module's entries and the budget (`graded.Degrees.shared`), so the
    calls of one command on one module build each degree once; outside a
    `graded.tower_store` it goes when `sym_power` returns.

    Correctness anchor: this is the ambient route, S^m taken in
    Rep(Z/pZ) before the quotient functor; `verify --suite
    sympow-comparison` sets it against S^m computed inside Ver_p.
    """
    check_degree(degree)
    key = (m.p, m.dim, m.g.tobytes(), max_entries)
    tower = _SymDegrees.shared(key, m, max_entries)
    tower.grow(degree)
    return ZpModule(m.p, tower.g[degree])
