"""Field-generic exact dense linear algebra over GF(p) and over Q.

All linear algebra of the package is done by the array functions
`rref`, `pivots`, `rank`, `kernel`, `solve_array` and `cokernel`.  Each
takes the characteristic p, with p = 0 meaning Q: int64 residues over
GF(p), `fractions.Fraction` entries in object arrays over Q.  `Mat` is
the checked public type; its elimination methods delegate to the array
functions.  Every operation is exact and deterministic.

There is one Gauss-Jordan, `_rref_mod`, for both fields: `rref` runs
it, one pivot per step, because `kernel`, `solve_array` and `cokernel`
read the reduced form itself.  Over GF(p), `pivots` instead runs
forward elimination in rounds (`_pivots_mod`), where every row whose
leading column has no pivot yet can become one in the same round;
`rank`, `Mat.image_basis`, `nilpotent_partition` and the hom-class
anchor in `verlinde` read only pivot columns and use it.  The two agree:
both leave a basis of the row space with distinct leading columns, and
those columns are the same for every such basis (the pivot columns of a
row space are the columns not in the span of the columns before them).

GF(p) is accepted only for p <= MAX_PRIME = 65537.  Then (p-1)^2 <= 2^32,
so a dot product of fewer than 2^31 residues, and hence every int64
matrix product this package forms, is exact before it is reduced mod p.

Basis convention for tensor products: lexicographic with the left factor
varying slowest, i.e. basis vector (i, j) of X (x) Y sits at index
i * dim(Y) + j.  `Mat.kron` and every module in this package share this
convention; cross-module equality tests depend on it.

The trace here is the plain matrix trace.  For representations of a
finite group with the swap braiding the canonical pivotal structure is
the identity, so this agrees with the categorical (spherical) trace used
to define negligible morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class BudgetExceeded(Exception):
    """A computation would materialize more matrix entries than allowed."""


#: Largest characteristic accepted by `Field`; see the module docstring.
MAX_PRIME = 65537

#: Default cap on the number of entries of any dense matrix materialized
#: by the symmetric-power and invariant-algebra routines.
DEFAULT_MAX_ENTRIES = 2**20


def check_budget(entries: int, max_entries: int | None, what: str) -> None:
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
    """GF(p) for a prime p, or the rationals when characteristic == 0."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p < 0 or p > MAX_PRIME or not _is_prime(p):
            raise ValueError(
                f"characteristic must be 0 or a prime <= {MAX_PRIME}, got {p}"
            )

    @property
    def is_modular(self) -> bool:
        return self.characteristic != 0

    def __str__(self):
        return f"GF({self.characteristic})" if self.is_modular else "Q"


RATIONALS = Field(0)

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    if p not in _gf_cache:
        _gf_cache[p] = Field(p)
    return _gf_cache[p]


# ---------------------------------------------------------------------------
# array-level kernels (int64 mod p fast path, Fraction object path)
# ---------------------------------------------------------------------------


_fractions = np.frompyfunc(Fraction, 1, 1)


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of `a` over GF(p), or over Q when p = 0,
    plus pivot columns.  The field enters only where entries are
    converted, a pivot row is scaled and the other rows are updated."""
    r = a % p if p else _fractions(a)
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
        if p:
            r[lead] = (r[lead] * pow(int(r[lead, c]), -1, p)) % p
        else:
            r[lead] = r[lead] / r[lead, c]
        other = np.nonzero(r[:, c])[0]
        other = other[other != lead]
        if other.size:
            update = r[other] - np.outer(r[other, c], r[lead])
            if p:
                update -= p * (update // p)  # % p, faster on negative int64
            r[other] = update
        pivots.append(c)
        lead += 1
    return r, pivots


def _pivots_mod(a: np.ndarray, p: int) -> list[int]:
    """Pivot columns of an int64 array mod p by forward elimination in rounds.

    Each round every nonzero row finds its leading column; a leading
    column without a pivot takes its first such row, scaled to 1, and
    every row subtracts the pivot at its leading column (a new pivot row
    cancels itself).  A row's leading column only moves right, and zero
    rows drop out, so at most `cols` rounds run.  The pivot rows end as an
    echelon basis of the row space, whose leading columns are the pivot
    columns of its reduced form.  They are kept in a (min(rows, cols) x
    cols) array, one row per pivot.
    """
    r = a % p
    rows, cols = r.shape
    piv = np.zeros((min(rows, cols), cols), dtype=np.int64)
    slot = np.full(cols, -1, dtype=np.int64)  # row of piv pivoting each column
    found = 0
    while True:
        nz = r != 0
        live = nz.any(axis=1)
        if not live.any():
            break
        r, lead = r[live], nz[live].argmax(axis=1)
        new_cols, first = np.unique(lead, return_index=True)
        fresh = slot[new_cols] < 0
        new_cols, take = new_cols[fresh], first[fresh]
        if new_cols.size:
            inv = [pow(v, -1, p) for v in r[take, new_cols].tolist()]
            end = found + len(new_cols)
            piv[found:end] = (r[take] * np.array(inv, dtype=np.int64)[:, None]) % p
            slot[new_cols] = np.arange(found, end)
            found = end
        r = r - r[np.arange(len(r)), lead][:, None] * piv[slot[lead]]
        r -= p * (r // p)  # r % p: numpy divides by a scalar faster
    return np.flatnonzero(slot >= 0).tolist()


def _zeros(rows: int, cols: int, p: int) -> np.ndarray:
    if p:
        return np.zeros((rows, cols), dtype=np.int64)
    return np.full((rows, cols), Fraction(0), dtype=object)


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
    k = _zeros(cols, len(free), p)
    if free:
        k[free, range(len(free))] = 1 if p else Fraction(1)
        block = -r[: len(pivots), free]
        k[pivots] = block % p if p else block
    return k


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of `a` over GF(p), or over Q when p = 0,
    and its pivot columns.  The input is not modified; over Q its entries
    may be ints or Fractions."""
    return _rref_mod(a, p)


def pivots(a: np.ndarray, p: int) -> list[int]:
    """Pivot columns of `a` over GF(p), or over Q when p = 0; equal to
    `rref(a, p)[1]`, without forming the reduced form over GF(p)."""
    if p:
        return _pivots_mod(a, p)
    return _rref_mod(a, p)[1]


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
    x = _zeros(cols, b.shape[1], p)
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
    """Dense exact matrix over GF(p) or Q."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, entries):
        self.field = field
        if field.is_modular:
            raw = np.asarray(entries)
            if raw.size and (
                np.issubdtype(raw.dtype, np.floating)
                or np.issubdtype(raw.dtype, np.complexfloating)
            ):
                raise ValueError("floating point entries are not allowed")
            a = raw.astype(np.int64)
            if a.ndim != 2:
                raise ValueError("matrix entries must be 2-dimensional")
            self.a = a % field.characteristic
        else:
            a = np.asarray(entries, dtype=object)
            if a.ndim != 2:
                raise ValueError("matrix entries must be 2-dimensional")
            self.a = _fractions(a)
        if self.a.dtype != np.int64 and field.is_modular:
            raise ValueError("modular matrices must be integer valued")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return Mat(field, _zeros(rows, cols, field.characteristic))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        m = Mat.zeros(field, n, n)
        np.fill_diagonal(m.a, 1 if field.is_modular else Fraction(1))
        return m

    @staticmethod
    def hstack(mats: list["Mat"]) -> "Mat":
        f = mats[0].field
        return Mat(f, np.hstack([m.a for m in mats]))

    # -- basic structure ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "Mat":
        return Mat(self.field, self.a.T.copy())

    def copy(self) -> "Mat":
        return Mat(self.field, self.a.copy())

    def is_zero(self) -> bool:
        if self.field.is_modular:
            return not self.a.any()
        return all(x == 0 for x in self.a.flat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field == other.field and self.a.shape == other.a.shape and (
            np.array_equal(self.a, other.a)
            if self.field.is_modular
            else all(x == y for x, y in zip(self.a.flat, other.a.flat))
        )

    def __hash__(self):
        raise TypeError("Mat is mutable, not hashable")

    def __repr__(self):
        return f"Mat({self.field}, {self.a.tolist()!r})"

    def _check_same_field(self, other: "Mat") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        p = self.field.characteristic
        prod = self.a @ other.a
        return Mat(self.field, prod % p if p else prod)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        p = self.field.characteristic
        s = self.a + other.a
        return Mat(self.field, s % p if p else s)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        p = self.field.characteristic
        s = self.a - other.a
        return Mat(self.field, s % p if p else s)

    def __neg__(self) -> "Mat":
        p = self.field.characteristic
        return Mat(self.field, (-self.a) % p if p else -self.a)

    def scale(self, c) -> "Mat":
        p = self.field.characteristic
        if p:
            return Mat(self.field, (self.a * (int(c) % p)) % p)
        return Mat(self.field, self.a * Fraction(c))

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace requires a square matrix")
        p = self.field.characteristic
        t = sum(self.a[i, i] for i in range(self.rows))
        return int(t) % p if p else Fraction(t)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; left factor index varies slowest."""
        self._check_same_field(other)
        p = self.field.characteristic
        k = np.kron(self.a, other.a)
        return Mat(self.field, k % p if p else k)

    # -- elimination (delegated to the array functions) ----------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and its pivot columns."""
        r, piv = rref(self.a, self.field.characteristic)
        return Mat(self.field, r), piv

    def rank(self) -> int:
        return rank(self.a, self.field.characteristic)

    def kernel_basis(self) -> "Mat":
        """Columns spanning ker(self); self @ result == 0 exactly."""
        return Mat(self.field, kernel(self.a, self.field.characteristic))

    def image_basis(self) -> "Mat":
        """Columns of self forming a basis of the column span."""
        return Mat(self.field, self.a[:, pivots(self.a, self.field.characteristic)])

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        x = solve(self, Mat.identity(self.field, self.rows))
        if x is None:
            raise ValueError("matrix is singular")
        return x


def solve(a: Mat, b: Mat) -> Mat | None:
    """`solve_array` on checked matrices of one field."""
    a._check_same_field(b)
    x = solve_array(a.a, b.a, a.field.characteristic)
    return None if x is None else Mat(a.field, x)


def quotient_basis(v: Mat, w: Mat) -> tuple[Mat, Mat]:
    """Coset representatives and projection for span(v) / span(w).

    `v` must have independent columns (pass the identity for the ambient
    space).  Raises ValueError when span(w) is not contained in span(v).
    Returns (representatives, projection): representatives are ambient
    columns; projection maps v-coordinates onto quotient coordinates and
    kills the w-coordinates (`cokernel` of w in v's basis).
    """
    v._check_same_field(w)
    p = v.field.characteristic
    c = solve_array(v.a, w.a, p)
    if c is None:
        raise ValueError("w is not contained in the span of v")
    proj, free = cokernel(c, p)
    return Mat(v.field, v.a[:, free]), Mat(v.field, proj)


def nilpotent_partition(n: Mat) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix, weakly decreasing.

    The number of blocks of size exactly k is
    rank(N^(k-1)) - 2 rank(N^k) + rank(N^(k+1)).  Ranks of successive
    powers are obtained by repeatedly multiplying onto a shrinking image
    basis.  Raises ValueError when the input is not nilpotent.
    """
    if n.rows != n.cols:
        raise ValueError("nilpotent_partition requires a square matrix")
    a, p, dim = n.a, n.field.characteristic, n.rows
    if dim == 0:
        return ()
    ranks = [dim]
    basis = a[:, pivots(a, p)]
    ranks.append(basis.shape[1])
    while basis.shape[1] > 0:
        if len(ranks) > dim + 1:
            raise ValueError("matrix is not nilpotent")
        prod = a @ basis
        prod = prod % p if p else prod
        nxt = prod[:, pivots(prod, p)]
        if nxt.shape[1] == basis.shape[1]:
            raise ValueError("matrix is not nilpotent")
        basis = nxt
        ranks.append(basis.shape[1])
    parts: list[int] = []
    ranks.append(0)
    for k in range(1, len(ranks) - 1):
        count = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        parts.extend([k] * count)
    parts.sort(reverse=True)
    assert sum(parts) == dim
    return tuple(parts)
