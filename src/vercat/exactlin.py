"""Exact dense linear algebra over GF(p).

All linear algebra of the package is done by the array functions
`rref`, `pivots`, `rank`, `kernel`, `solve_array` and `cokernel`.  Each
takes integer arrays and a prime p and answers over GF(p) in int64
residues; `rref` and `pivots`, which the others go through, check p by
`GF`, which takes any integer type and hands back a Python int.  Every
array entry point (`rref`, `pivots`, `Mat`, `nilpotent_partitions` and
the module types `repzp.ZpModule` and `svec2.DModule`) reads its entries
through one routine, `_residues_of`: it refuses any entry that is not an
integer and reduces every integer dtype mod p exactly, without the
wrap-around or overflow of reducing in a type that cannot hold p or its
entries.  The package computes on those int64 arrays alone: `Field`,
`GF` and `Mat` are the checked public wrapper for tests and users, named
nowhere else in `src/vercat`.  Every operation is exact and deterministic.

There is one Gauss-Jordan, `_rref_mod`: `rref` runs it, one pivot per
step, because `kernel`, `solve_array` and `cokernel` read the reduced
form itself.  Callers that read only pivot columns or a basis of the
row space use the one other elimination kernel, `_echelon_rounds`:
forward elimination in rounds, where every row whose leading column
has no pivot yet can become one in the same round.  It takes the
stacked rows of many arrays ("members") and keeps one pivot slot per
(member, column), so each member gets its own pivot columns and
echelon rows; `pivots` (hence `rank` and the hom-class anchor in
`verlinde`) runs it on one array.  The two eliminations agree: both
leave a basis of the row space with distinct leading columns, and
those columns are the same for every such basis (the pivot columns of
a row space are the columns not in the span of the columns before
them).

A round is some forty numpy calls on small arrays, so an elimination
costs about its round count in call overhead, which a batch pays once
for all its members.  `_echelon_rounds` holds residues as int16 for
p <= 181, where (p-1)^2 < 2^15, as int32 up to p = 46337 and as int64
above.  It never rewrites a pivot row once chosen, so a caller can feed
rows made from the pivots of one round into the next round.

`nilpotent_partitions`, the Jordan types behind the fusion oracle, reads
one lazy stream of (integer array, prime p) pairs over one GF(p)
(`nilpotent_partition` is a batch of one `Mat`).  Its members are pieces
of the input: a matrix of SPLIT_SIZE = 16 rows or more is split into the
connected components of its nonzero pattern mod p, taken symmetrically.
A permutation conjugates the matrix to the direct sum of its components,
so its Jordan type is the sorted union of theirs.  The pieces are keyed
by their full residue contents, held in the narrowest unsigned type that
holds a residue (uint8 for p <= 256, uint16 below 65537, uint32 at it):
the oracle's tensor products J_a (x) J_b - 1 of block sums split into
one piece J_r (x) J_s - 1 per pair of blocks, and the pieces recur
across pairs.  A window holds matrices until the next one would take it
past WINDOW_ROWS = 2^16 rows, which bounds the types held back, or its
distinct pieces past WINDOW_RESIDUES = 2^20 residues.  The window then
eliminates each distinct piece once, in ascending size, in sub-batches
of at most BATCH_ENTRIES = 2^16 padded entries (their rows stacked and
padded to the widest piece's width); a larger piece runs alone.  So a
small piece is neither padded to a large one nor kept waiting for its
rounds.  The window yields its matrices' types in order and carries
nothing into the next.

A sub-batch runs every level of the row-space chain row(N^k) =
row(E_(k-1) N), E an echelon basis, in one `_echelon_rounds` loop, its
slots keyed by (member, level, column).  A pivot row E found at level k
is fed back as E N, by one padded `matmul_mod` per width class (each
member padded to the next power of two, capped at the widest), and
joins level k + 1 in the next round, so the levels run pipelined and
a sub-batch costs about its widest member's walk once, not once per
level.  The rank of N^k is the pivot count of level k.  A nilpotent N
of size n has N^n = 0, so a pivot at level n shows that N is not
nilpotent.  The pivot rows of all levels stay alive until the loop
ends, so a loop takes at most CHAIN_BYTES = 2^22 bytes' worth of levels
(at least 32 for a sub-batch of int16 rounds) and the next one starts
from the rows fed past its last level.

GF(p) is accepted only for p <= MAX_PRIME = 65537.  Then (p-1)^2 <= 2^32,
so a dot product of fewer than 2^31 residues, and hence every int64
matrix product this package forms, is exact before it is reduced mod p.
The products go through two kernels on float64 BLAS instead, several
times faster than numpy's int64 matmul, which has no BLAS, except on
tiny operands, and the package forms floating point nowhere else.
Both rest on one fact: float64 holds every integer up to 2^53, so a
sum of nonnegative integer terms whose total is below 2^53 is exact in
any order BLAS adds them (every partial sum, and every product plus
partial sum of a fused multiply-add, is an integer below the total, so
nothing is rounded).

Every product of residue arrays in the package goes through
`matmul_mod` or `contract_mod`; only the first-row anchor route of
`verlinde` and the fusion suite's einsum over integer fusion tables stay
on plain numpy (`tests/test_tooling.py` lists them).  The terms of
`matmul_mod` are at most (p-1)^2, so an inner size k below
2^53 / (p-1)^2 is exact (k < 2^21 at p = 65537); a larger k is split
into chunks whose residues are summed.  A product of fewer than
TINY_MADDS = 2^12 multiply-adds, counting every batch axis, is formed in
int64 instead, exact since k (p-1)^2 < 2^63, and reduced once.

`contract_mod` takes the element products (each output degree of
`TruncatedAlgebra.mul`): the sum over degree pairs of the contractions
of ca (x) cb against a (da x db x dc) structure tensor.  A pair forms
its outer product ca[i] cb[j] <= (p-1)^2 in float64, and its BLAS
product has terms ca[i] cb[j] t[i, j, l] <= (p-1)^3, at most 2^48 at
p = 65537, all exact.  The pairs' products are added into one
float64 accumulator without reducing.  Let K count the terms summed
into it, da * db per pair, plus one for the residue a reduction leaves
(p - 1 <= (p-1)^3).  Every entry is then at most K (p-1)^3, exact while
K <= L = floor((2^53 - 1) / (p-1)^3).  Before a pair of k terms would
bring K past L the accumulator is reduced mod p and K restarts at 1; a
pair with k >= L (so that 1 + k could pass L) is reduced mod p itself,
its outer product taken mod p and multiplied by `matmul_mod`'s chunks,
and its residue counts as one term.  So no partial sum reaches 2^53.
The accumulator is reduced once more at the end.  L is 2^53 - 1 at
p = 2 and above 5 * 10^12 at p <= 13, where it never binds, and 31 at
p = 65537, where K (p-1)^3 = K 2^48 reaches 2^53 at K = 32.

Basis convention for tensor products: lexicographic with the left factor
varying slowest, i.e. basis vector (i, j) of X (x) Y sits at index
i * dim(Y) + j.  `np.kron`, `Mat.kron` and every module in this package
share it; cross-module equality tests depend on it.

The trace that defines negligible morphisms (`verlinde._trace_gram`) is
the plain matrix trace.  For representations of a finite group with the
swap braiding the canonical pivotal structure is the identity, so this
agrees with the categorical (spherical) trace.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np


class BudgetExceeded(Exception):
    """A computation would materialize more matrix entries than allowed."""


#: Largest characteristic accepted by `Field`; see the module docstring.
MAX_PRIME = 65537

#: Default cap on the number of entries of each array charged by
#: `check_budget`.
DEFAULT_MAX_ENTRIES = 2**20


def check_budget(entries: int, max_entries: int | None, what: str) -> None:
    """Raise BudgetExceeded if an array of `entries` entries, named by
    `what`, exceeds the budget.  Callers charge exactly the arrays they
    form next, before allocating them, and nothing else."""
    limit = DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
    if entries > limit:
        raise BudgetExceeded(
            f"{what} needs {entries} matrix entries, budget is {limit}; "
            f"raise max_entries to allow this"
        )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """GF(p) for a prime p <= MAX_PRIME, held as a Python int."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if type(p) is not int or p > MAX_PRIME or not _is_prime(p):
            raise ValueError(f"characteristic must be a prime <= {MAX_PRIME}, got {p}")

    def __str__(self):
        return f"GF({self.characteristic})"


_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    """The field GF(p); p may be any integer type, and the field holds it
    as a Python int (`operator.index`), so callers read p from it."""
    try:
        p = operator.index(p)
    except TypeError:
        raise ValueError(f"characteristic must be a prime <= {MAX_PRIME}, got {p}") from None
    if p not in _gf_cache:
        _gf_cache[p] = Field(p)
    return _gf_cache[p]


# ---------------------------------------------------------------------------
# array-level kernels
# ---------------------------------------------------------------------------


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of the integer array `a` over GF(p), as
    int64 residues (`_residues_of`), plus pivot columns."""
    r = _residues_of(a, p)
    rows, cols = r.shape
    pivots: list[int] = []
    lead = 0
    for c in range(cols):
        if lead == rows:
            break
        nz = np.nonzero(r[lead:, c])[0]
        if nz.size == 0:
            continue
        pr = lead + int(nz[0])
        if pr != lead:
            r[[lead, pr]] = r[[pr, lead]]
        r[lead] = (r[lead] * pow(int(r[lead, c]), -1, p)) % p
        other = np.nonzero(r[:, c])[0]
        other = other[other != lead]
        if other.size:
            update = r[other] - np.outer(r[other, c], r[lead])
            update -= p * (update // p)  # % p, faster on negative int64
            r[other] = update
        pivots.append(c)
        lead += 1
    return r, pivots


#: Largest padded sub-batch, in entries, that `nilpotent_partitions`
#: stacks into one chain; see the module docstring.
BATCH_ENTRIES = 2**16

#: Most rows of the arrays, and residues of their distinct pieces, that a
#: window of `nilpotent_partitions` holds before it runs.
WINDOW_ROWS = 2**16
WINDOW_RESIDUES = 2**20

#: Most bytes of pivot rows that one elimination of `_partition_batch`
#: holds; it takes fewer levels of the chain at once to stay within it.
CHAIN_BYTES = 2**22

#: Smallest matrix that `nilpotent_partitions` splits into components; a
#: smaller one costs the chain less than finding them.
SPLIT_SIZE = 16


@functools.cache
def _inverses(p: int) -> np.ndarray:
    """v^-1 mod p at index v < p as int32, by v^(p-2); built once per p."""
    v, inv, e = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64), p - 2
    while e:
        inv, v, e = inv * v % p if e & 1 else inv, v * v % p, e >> 1
    return inv.astype(np.int32)


def _round_dtype(p: int) -> np.dtype:
    """The residue type of `_echelon_rounds` mod p: r - c * pivot lies in
    (-(p-1)^2, p), and p * (r // p) in (-(p-1)^2 - p, p), so int16 holds
    both for p <= 181 and int32 for p <= 46337."""
    square = (p - 1) ** 2
    return np.dtype(np.int16 if square < 2**15 else np.int32 if square < 2**31 else np.int64)


def _echelon_rounds(
    r: np.ndarray,
    owner: np.ndarray,
    count: int,
    p: int,
    feed: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Echelon bases mod p of `count` members at once, by forward
    elimination in rounds.  `r` (not modified) stacks the members' rows as
    residues padded to one width; row i belongs to member owner[i].

    Each round every nonzero row finds its leading column; a (member,
    column) without a pivot takes the member's first such row (one stable
    argsort), and every row subtracts the multiple of its member's pivot
    there that clears it (a new pivot row cancels itself), through a per-p
    table of inverses.  A pivot row is never rewritten once chosen, so
    `feed`, if given, can read the new pivot rows of a round and their
    members, ascending by member, and return more (rows, members) of
    residues, which join in the next round; it raises to stop the loop.
    Without a feed, leading columns only move right and zero rows drop
    out, so at most `width` rounds run.  Returns (piv, slot): slot[m, c]
    is the row of piv holding member m's pivot (unscaled) at column c, or
    -1, which reads the zero row piv ends with.
    """
    dtype = _round_dtype(p)
    r = r.astype(dtype)
    width = r.shape[1]
    base = owner * width
    piv = np.zeros((min(len(r), count * width) + 1, width), dtype=dtype)
    scale = np.zeros(len(piv), dtype=dtype)  # inverse of each leading entry
    slot = np.full(count * width, -1)
    inverse, found = _inverses(p), 0
    while width:  # no columns, no pivots
        nz = r != 0
        lead = nz.argmax(axis=1)  # 0 on a zero row, which drops out
        index = np.arange(len(r))
        live = nz[index, lead]
        if not live.all():
            r, lead, base, index = r[live], lead[live], base[live], index[: live.sum()]
        if not len(r):
            break
        key = base + lead
        open_ = np.flatnonzero(slot[key] < 0)
        fed = None
        if open_.size:
            order = np.argsort(key[open_], kind="stable")
            keys = key[open_][order]
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            take = open_[order[first]]
            end = found + len(take)
            if end >= len(piv):  # only fed rows outgrow the first bound
                grow = min(max(end + 1, 2 * len(piv)), count * width + 1) - len(piv)
                piv = np.concatenate([piv, np.zeros((grow, width), dtype=dtype)])
                scale = np.concatenate([scale, np.zeros(grow, dtype=dtype)])
            piv[found:end] = r[take]
            scale[found:end] = inverse[r[take, lead[take]]]
            slot[keys[first]] = np.arange(found, end)
            if feed is not None:
                fed = feed(piv[found:end], keys[first] // width)
            found = end
            if len(take) == len(r):  # every row is a new pivot: all cancel
                if fed is None:
                    break
                r, base = r[:0], base[:0]
        if len(r):
            mine = slot[key]
            factor = r[index, lead] * scale[mine] % p
            r -= factor[:, None] * piv[mine]  # r is a copy: astype and r[live] copy
            r -= p * (r // p)  # r % p: numpy divides by a scalar faster
        if fed is not None:
            r = np.concatenate([r, fed[0].astype(dtype)])
            base = np.concatenate([base, fed[1] * width])
    return piv[: found + 1], slot.reshape(count, width)


#: Most multiply-adds, batch axes included, of a `matmul_mod` product
#: formed in int64 rather than float64 BLAS.  On one OpenBLAS thread at
#: p = 11 (Xeon, numpy 2.4.6), (16 x 16) @ (16 x 16) took 5.9 us in int64
#: against 6.6 us through float64, and (16 x 32) @ (32 x 32) 13.7 against
#: 8.7 us; the benchmark workloads read the same from 2^12 to 2^14.  The
#: int64 path reduces by `% p`: (1 x 5) @ (5 x 1) takes 1.3 us against
#: 1.0 us for a bare `(a @ b) % p`, and 2.7 us with the floor division.
TINY_MADDS = 2**12


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for arrays of residues in [0, p), 2-D or stacked as
    (..., m, k) @ (..., k, n), as an int64 array.

    A product of fewer than TINY_MADDS multiply-adds is formed in int64
    and reduced once: its entries are below k (p-1)^2 < 2^63.  A larger
    one goes through float64 BLAS.  There every partial sum of an inner
    size k is an integer below k (p-1)^2, exact in double precision
    whatever order BLAS adds in while that is below 2^53.  A larger k is
    split into chunks below that bound (at p = MAX_PRIME, (p-1)^2 = 2^32
    and a chunk holds 2^21 - 1 terms), each chunk's product is reduced
    mod p, and the residues are summed.
    """
    if a.size * b.shape[-1] < TINY_MADDS and b.size * a.shape[-2] < TINY_MADDS:
        return np.matmul(a, b, dtype=np.int64, casting="unsafe") % p
    k, step = a.shape[-1], (2**53 - 1) // (p - 1) ** 2
    if k > step:
        chunks = range(0, k, step)
        return sum(matmul_mod(a[..., i : i + step], b[..., i : i + step, :], p) for i in chunks) % p
    return _residues(np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64), p)


def _residues(c: np.ndarray, p: int) -> np.ndarray:
    """A float64 array of nonnegative integers below 2^53, mod p, as int64."""
    c = c.astype(np.int64)
    c -= p * (c // p)  # c % p: numpy divides by a scalar faster
    return c


def contract_mod(pairs: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]], p: int) -> np.ndarray:
    """The sum over `pairs` (ca, cb, table) of the contractions
    sum_(i, j) ca[i] cb[j] table[i, j, :] mod p, as int64 residues.

    Every array holds residues in [0, p).  ca and cb are (da,) and (db,)
    vectors or (trials, da) and (trials, db) batches, a vector broadcasts
    against a batch, and `table` is a (da x db x dc) structure tensor, dc
    the same for every pair; the sum has the broadcast batch shape of all
    pairs, then dc.  Pairs are read one at a time, and a pair's outer
    product, (trials x da*db) in float64, is the only large array alive.
    Each pair's BLAS product is added into one float64 accumulator, which
    is reduced mod p at the end and whenever the running term count would
    pass (2^53 - 1) // (p - 1)^3; a pair of that many terms or more goes
    through `matmul_mod`'s chunks.  The module docstring has the proof.
    """
    limit = (2**53 - 1) // (p - 1) ** 3
    acc, terms = None, 0
    for ca, cb, table in pairs:
        da, db, dc = table.shape
        k = da * db
        outer = ca.astype(np.float64)[..., :, None] * cb.astype(np.float64)[..., None, :]
        batch = outer.shape[:-2]
        outer = outer.reshape(math.prod(batch), k)
        if k >= limit:  # too many terms for one exact sum: a residue, one term
            prod, k = matmul_mod(_residues(outer, p), table.reshape(k, dc), p), 1
        else:
            prod = outer @ table.reshape(k, dc).astype(np.float64)
        del outer  # freed before the next pair forms its own
        if terms + k > limit:  # the accumulator becomes a residue, one term
            acc, terms = _residues(acc, p).astype(np.float64), 1
        prod = prod.reshape(*batch, dc)
        acc = prod if acc is None else acc + prod
        terms += k
    return _residues(acc, p)


def _residues_of(a, p: int) -> np.ndarray:
    """The entries of the integer array `a` mod p, as a new int64 array of
    residues in [0, p); raises ValueError on an entry that is not an
    integer.  Every integer dtype is reduced exactly: one of at most 63
    bits widens to int64 first, since p need not fit its own type, and
    uint64, which int64 would wrap, is reduced first; Python integers of
    any size in an object array are reduced one by one."""
    a = np.asarray(a)
    kind = a.dtype.kind
    if kind in "iub":
        if kind == "u" and a.dtype.itemsize == 8:
            return (a % np.uint64(p)).astype(np.int64)
        return a.astype(np.int64, copy=False) % p
    if a.size and kind in "fc":
        raise ValueError("floating point entries are not allowed")
    if not all(isinstance(x, (int, np.integer)) for x in a.flat):
        raise ValueError("entries must be integers")
    return np.array([int(x) % p for x in a.flat], dtype=np.int64).reshape(a.shape)


def _free(cols: int, pivots: list[int]) -> list[int]:
    """The non-pivot columns, ascending."""
    piv = set(pivots)
    return [c for c in range(cols) if c not in piv]


def _kernel_from_rref(r: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Columns spanning the null space, from a reduced echelon form.

    Column t is the unit vector at the t-th free column minus that
    column's entries at the pivot rows.  Read as rows, the same matrix
    projects onto the non-pivot coordinates along the row span of r,
    which is how `cokernel` uses it.
    """
    cols = r.shape[1]
    free = _free(cols, pivots)
    k = np.zeros((cols, len(free)), dtype=np.int64)
    k[free, range(len(free))] = 1
    k[pivots] = -r[: len(pivots), free] % p
    return k


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of the integer array `a` over GF(p), as
    int64 residues, and its pivot columns; `a` is not modified."""
    return _rref_mod(a, GF(p).characteristic)


def pivots(a: np.ndarray, p: int) -> list[int]:
    """Pivot columns of the integer array `a` over GF(p): `rref(a, p)[1]`,
    without forming the reduced form."""
    p = GF(p).characteristic
    slot = _echelon_rounds(_residues_of(a, p), np.zeros(len(a), dtype=np.intp), 1, p)[1]
    return np.flatnonzero(slot[0] >= 0).tolist()


def rank(a: np.ndarray, p: int) -> int:
    return len(pivots(a, p))


def kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning ker(a): a @ kernel(a, p) == 0 exactly."""
    r, piv = rref(a, p)
    return _kernel_from_rref(r, piv, p)


def solve_array(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Exact solution X of a @ X = b, or None if the system is inconsistent.

    When the solution is not unique the free variables are set to zero,
    which makes the output deterministic.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError("row count mismatch")
    cols = a.shape[1]
    r, piv = rref(np.hstack([a, b]), p)
    if piv and piv[-1] >= cols:
        return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    x[piv] = r[: len(piv), cols:]
    return x


def cokernel(rel: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Projection onto the quotient by the column span of `rel`.

    Returns (q, free): q @ rel = 0, q has full row rank, and q restricted
    to the coordinates `free` is the identity, so the unit vectors at
    `free` are coset representatives.  The kept coordinates are the
    non-pivot columns of rref(rel^T), so the choice is deterministic.
    """
    r, piv = rref(rel.T, p)
    return _kernel_from_rref(r, piv, p).T, _free(rel.shape[0], piv)


# ---------------------------------------------------------------------------
# Mat
# ---------------------------------------------------------------------------


class Mat:
    """Dense exact matrix over GF(p): int64 residues in [0, p)."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, entries):
        self.field = field
        self.a = _residues_of(entries, field.characteristic)
        if self.a.ndim != 2:
            raise ValueError("matrix entries must be 2-dimensional")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return Mat(field, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return Mat(field, np.eye(n, dtype=np.int64))

    # -- basic structure ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "Mat":
        return Mat(self.field, self.a.T)

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.a, other.a)

    def _check_same_field(self, other: "Mat") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    # -- arithmetic (the constructor reduces mod p) ---------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        return Mat(self.field, matmul_mod(self.a, other.a, self.field.characteristic))

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        return Mat(self.field, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        return Mat(self.field, self.a - other.a)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; left factor index varies slowest."""
        self._check_same_field(other)
        return Mat(self.field, np.kron(self.a, other.a))

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        x = solve_array(self.a, np.eye(self.rows, dtype=np.int64), self.field.characteristic)
        if x is None:
            raise ValueError("matrix is singular")
        return Mat(self.field, x)


def nilpotent_partition(n: Mat) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix over GF(p), weakly
    decreasing: a batch of one of `nilpotent_partitions`.  Raises
    ValueError when the input is not square or not nilpotent."""
    return next(nilpotent_partitions([(n.a, n.field.characteristic)]))


def _partition_batch(mats: list[np.ndarray], p: int) -> list[tuple[int, ...]]:
    """Jordan types of square arrays of residues mod p, together, by one
    `_echelon_rounds` loop over every level of their chains, as the module
    docstring says.  Level k of a member of size n (1 <= k <= n) is a
    member of the elimination, fed first with the member's rows at k = 1;
    the feed raises "not nilpotent" on a pivot at level n.  The members
    run in ascending size, so each width class is a run of them.  A loop
    takes depth = CHAIN_BYTES // (rows x width x residue bytes) levels and
    carries the rows fed past them into the next loop.
    """
    sizes = np.array([len(n) for n in mats], dtype=np.intp)
    order = np.argsort(sizes, kind="stable")
    size = sizes[order]
    top = int(size[-1]) if len(size) else 0
    padded = np.array([min(1 << (n - 1).bit_length(), top) for n in size.tolist()])
    classes = []  # (c, first member, end, the members padded to c x c, float64)
    for c in sorted(set(padded[size > 0].tolist())):
        lo, hi = np.flatnonzero((padded == c) & (size > 0))[[0, -1]] + [0, 1]
        pad = np.zeros((hi - lo, c, c))
        for k, i in enumerate(range(lo, hi)):
            pad[k, : size[i], : size[i]] = mats[order[i]]
        classes.append((c, lo, hi, pad))

    def feed(rows: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if final[groups].any():
            raise ValueError("matrix is not nilpotent")
        mine, out = member[groups], np.zeros((len(groups), top), dtype=np.int64)
        for c, lo, hi, pad in classes:
            a, b = np.searchsorted(mine, [lo, hi])
            if a < b:  # each member's rows stacked, over a run of the class's members
                new = np.ones(b - a, dtype=bool)
                new[1:] = mine[a + 1 : b] != mine[a : b - 1]
                place = np.arange(b - a) - np.flatnonzero(new)[np.cumsum(new) - 1]
                run = mine[a:b] - mine[a]
                stack = np.zeros((run[-1] + 1, place.max() + 1, c))
                stack[run, place] = rows[a:b, :c]
                prod = matmul_mod(stack, pad[mine[a] - lo : mine[b - 1] - lo + 1], p)
                out[a:b, :c] = prod[run, place]
        past = level[groups] == last  # rows of the next elimination's first level
        if past.any():
            carry.append((out[past], mine[past]))
            return out[~past], groups[~past] + 1
        return out, groups + 1

    chain = np.zeros((len(size), top + 2), dtype=np.int64)  # rank N^k at [member, k]
    chain[:, 0] = size
    level_bytes = max(1, int(size.sum()) * top) * _round_dtype(p).itemsize
    depth = max(1, CHAIN_BYTES // level_bytes)
    rows = np.zeros((int(size.sum()), top), dtype=np.int64)
    owner, first = np.repeat(np.arange(len(size)), size), 1  # rows at level first
    for i, at in enumerate((np.cumsum(size) - size).tolist()):
        rows[at : at + size[i], : size[i]] = mats[order[i]]
    while len(rows):
        last = first + depth - 1
        count = np.clip(np.minimum(size, last) - first + 1, 0, None)
        start = np.cumsum(count) - count  # member i's level k is group start[i] + k - first
        member = np.repeat(np.arange(len(size)), count)
        level = np.arange(len(member)) - start[member] + first
        final = level == size[member]  # a pivot there shows N^n != 0
        carry: list[tuple[np.ndarray, np.ndarray]] = []
        slot = _echelon_rounds(rows, start[owner], len(member), p, feed)[1]
        chain[member, level] = (slot >= 0).sum(axis=1)
        # the rows fed past level last, and their members, or none
        rows, owner = (np.concatenate(x) for x in zip(*carry)) if carry else ((), ())
        first = last + 1
    # rank(N^(k-1)) - 2 rank(N^k) + rank(N^(k+1)) blocks of size k
    blocks = chain[:, :-2] - 2 * chain[:, 1:-1] + chain[:, 2:]
    types: list[tuple[int, ...]] = [()] * len(mats)
    for i, b in zip(order.tolist(), blocks):
        types[i] = tuple(np.repeat(np.arange(top, 0, -1), b[::-1]).tolist())
    return types


def _components(r: np.ndarray) -> list[np.ndarray]:
    """The connected components of the graph on the rows of the square
    array `r` with an edge i - j wherever r[i, j] or r[j, i] is nonzero,
    as ascending index arrays ordered by their least index.

    Each vertex holds a label, a vertex of its component no larger than
    itself; labels start as the indices, and each round takes the least
    label across every edge, then the label of that label.  Following
    labels ends at a root, a vertex labelled by itself, so one root means
    one component; otherwise rounds run until nothing changes, when each
    component is labelled by its least vertex."""
    n = len(r)
    i, j = np.divmod(np.flatnonzero(r != 0), n)
    label = index = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, i, label[j])
        np.minimum.at(low, j, label[i])
        low = low[low]
        if np.count_nonzero(low == index) <= 1:
            return [index]
        if (low == label).all():
            break
        label = low
    order = np.argsort(label, kind="stable")
    ends = np.cumsum(np.bincount(label, minlength=n)[label == index]).tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)]


def _window_types(
    pieces: dict[tuple[int, bytes], int], held: list[list[int]], dtype: type, p: int
) -> Iterator[tuple[int, ...]]:
    """The Jordan type of each held matrix, the sorted union of its
    pieces' types.  Each piece runs once, in ascending size, in
    `_partition_batch` calls that stay within BATCH_ENTRIES padded entries
    (their rows times the widest piece's) unless they hold one piece."""
    runs: list[list[tuple[int, bytes]]] = []
    rows = 0  # of the last run
    for key in sorted(pieces, key=lambda key: key[0]):
        if not runs or (rows + key[0]) * key[0] > BATCH_ENTRIES:
            runs.append([])
            rows = 0
        runs[-1].append(key)
        rows += key[0]
    types: list[tuple[int, ...]] = [()] * len(pieces)
    for run in runs:
        mats = [np.frombuffer(data, dtype=dtype).reshape(n, n) for n, data in run]
        for key, parts in zip(run, _partition_batch(mats, p)):
            types[pieces[key]] = parts
    for indices in held:
        yield tuple(sorted((part for i in indices for part in types[i]), reverse=True))


def nilpotent_partitions(items: Iterable[tuple[np.ndarray, int]]) -> Iterator[tuple[int, ...]]:
    """Jordan block sizes of each nilpotent matrix of `items`, (integer
    array, prime p) pairs, in order, over GF(p).

    The pairs are read lazily and must share one prime, which `GF` checks
    once.  Each array is split, and its distinct pieces keyed by their
    residue contents, as the module docstring says.  A window holds arrays
    until the next one would take it past WINDOW_ROWS rows or its distinct
    pieces past WINDOW_RESIDUES residues; then it runs and yields their
    types.  Nothing is kept between calls.  Raises ValueError on a
    non-integer entry, on an array that is not square or not nilpotent,
    on a prime `GF` rejects, or on a prime other than the first one's.
    """
    p = dtype = None
    pieces: dict[tuple[int, bytes], int] = {}  # (size, residue bytes) -> its index
    held: list[list[int]] = []  # the piece indices of each array held
    rows = residues = 0  # the arrays' rows held; the residues of their pieces
    for a, q in items:
        if p is None:
            p = GF(q).characteristic
            dtype = np.uint8 if p <= 2**8 else np.uint16 if p <= 2**16 else np.uint32
        elif q != p:
            raise ValueError(f"field mismatch: GF({p}) vs GF({q})")
        r = _residues_of(a, p).astype(dtype)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("nilpotent_partition requires a square matrix")
        n = len(r)
        keys = []
        for index in _components(r) if n >= SPLIT_SIZE else [range(n)]:
            c = r if len(index) == n else r[index[:, None], index]
            keys.append((len(c), c.tobytes()))
        new = [key[0] for key in dict.fromkeys(keys) if key not in pieces]
        if held and (
            rows + n > WINDOW_ROWS or residues + sum(s * s for s in new) > WINDOW_RESIDUES
        ):
            yield from _window_types(pieces, held, dtype, p)
            pieces, held, rows, residues = {}, [], 0, 0
        for key in keys:
            if key not in pieces:
                pieces[key] = len(pieces)
                residues += key[0] ** 2
        held.append([pieces[key] for key in keys])
        rows += n
    if held:
        yield from _window_types(pieces, held, dtype, p)
