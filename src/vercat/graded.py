"""The graded engine behind every symmetric algebra S(X) in the package.

In Rep(Z/pZ), in sVec_2 and in Ver_p, S^m(X) is the cokernel of the
degree-m braiding relations pushed into S^(m-1) (x) X, and the product
S^a (x) S^b -> S^(a+b) follows from the recursion

    mu(a, b) = q_(a+b) (mu(a, b-1) (x) 1_X) (1_(S^a) (x) s_b)

for any section s_b of the projection q_b: S^(b-1) (x) X -> S^b.  This
module holds the one implementation of each shared piece, on raw int64
arrays of residues mod p:

- `swap`: the permutation v (x) w -> w (x) v, and `minus_swap`, its
  relation 1 - swap applied by transposing two tensor factors;
- `quotient_tower`: the plain degreewise quotient, used by Rep(Z/pZ)
  (relation 1 - swap) and sVec_2 (relation 1 + braiding); Ver_p takes
  its cokernels modulo negligible morphisms instead
  (`verlinde.SymTower`) and shares only `minus_swap` and `mu`;
- `GradedTower.mu`: the recursion above, and `GradedTower.table`, the
  one reading of mu(a, b) as a (da x db x dc) structure tensor;
- `TruncatedAlgebra`: element arithmetic, where the product of degrees
  a and b contracts coordinates against a (da x db x dc) structure
  tensor; every operation broadcasts over an optional leading trial
  axis, so a seeded identity check runs once over all its trials.
"""

from __future__ import annotations

import random

import numpy as np

from .exactlin import check_budget, cokernel

Elem = dict[int, np.ndarray]


def check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")


def swap(da: int, db: int) -> np.ndarray:
    """Permutation matrix of v (x) w -> w (x) v, from A (x) B to B (x) A.

    Basis vector (i, j) of A (x) B sits at i * db + j and goes to (j, i)
    of B (x) A at j * da + i.
    """
    i, j = np.divmod(np.arange(da * db), db)
    m = np.zeros((da * db, da * db), dtype=np.int64)
    m[j * da + i, i * db + j] = 1
    return m


def minus_swap(rows: np.ndarray, n: int) -> np.ndarray:
    """rows @ (1 (x) (1 - swap(n, n))) for a stack of rows whose trailing
    axis ends in two tensor factors of dimension n.

    The swap is a transpose of those two factors, so no (n^2 x n^2)
    matrix is formed.
    """
    b = rows.reshape(*rows.shape[:-1], -1, n, n)
    return (b - np.swapaxes(b, -1, -2)).reshape(rows.shape)


def quotient_tower(
    rel: np.ndarray, n: int, depth: int, p: int, max_entries: int | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """S^m = coker(relations into S^(m-1) (x) X) for m = 0..depth.

    The r columns of `rel` (n^2 x r) span the degree-2 relations inside
    X (x) X; in degree m they enter S^(m-1) (x) X through (q_(m-1) (x) 1_X)
    and act on the last two tensor factors, and each degree's relation
    matrix is checked against `max_entries` before it is formed.
    Returns (q, lift): q[m] projects S^(m-1) (x) X onto S^m and lift[m]
    holds coset representatives, unit columns with q[m] @ lift[m] = 1.
    Quotient coordinates are the non-pivot positions of the reduced
    echelon form of the relation span, so the choice is deterministic
    (`exactlin.cokernel`) and does not depend on the spanning set.
    """
    one = np.ones((1, 1), dtype=np.int64)
    q, lift = [one], [one]
    if depth >= 1:
        q.append(np.eye(n, dtype=np.int64))
        lift.append(np.eye(n, dtype=np.int64))
    r = rel.shape[1]
    rel3 = rel.reshape(n, n, r)
    for m in range(2, depth + 1):
        dv, du = q[m - 1].shape[0], q[m - 2].shape[0]
        check_budget(dv * n * du * r, max_entries, f"relation matrix of S^{m}")
        rho = np.tensordot(q[m - 1].reshape(dv, du, n), rel3, axes=(2, 0))
        rho = rho.transpose(0, 2, 1, 3).reshape(dv * n, du * r) % p
        qm, free = cokernel(rho, p)
        q.append(qm)
        lift.append(np.eye(dv * n, dtype=np.int64)[:, free])
    return q, lift


class GradedTower:
    """Multiplication maps of a tower of degreewise quotients S^0..S^depth.

    Subclasses set `p`, `depth`, `nx` = dim X, `q` (q[m]: S^(m-1) (x) X
    -> S^m as an array) and an empty dict `_mu`, and provide `dim(m)` and
    `section(b)`, a map S^b -> S^(b-1) (x) X with q_b s_b = 1 (as classes
    modulo negligibles in Ver_p).
    """

    def mu(self, a: int, b: int) -> np.ndarray:
        """Multiplication S^a (x) S^b -> S^(a+b), degrees a+b <= depth."""
        if a + b > self.depth:
            raise ValueError("product degree exceeds the tower depth")
        if b == 0:
            return np.eye(self.dim(a), dtype=np.int64)
        if a == 0:
            return np.eye(self.dim(b), dtype=np.int64)
        key = (a, b)
        if key in self._mu:
            return self._mu[key]
        if b == 1:
            out = self.q[a + 1]
        else:
            # q_(a+b) . (mu_(a,b-1) (x) 1_X) . (1_(S^a) (x) s_b), contracted
            # over S^(b-1) without forming either Kronecker product
            prev = self.mu(a, b - 1)
            du, da = self.dim(a + b - 1), self.dim(a)
            db1, db = self.dim(b - 1), self.dim(b)
            lift = np.tensordot(
                prev.reshape(du, da, db1),
                self.section(b).reshape(db1, self.nx, db),
                axes=(2, 0),
            )  # (u, i, x, l)
            lift = lift.transpose(0, 2, 1, 3).reshape(du * self.nx, da * db) % self.p
            out = (self.q[a + b] @ lift) % self.p
        self._mu[key] = out
        return out

    def table(self, a: int, b: int, keep=None) -> np.ndarray:
        """mu(a, b) as the (da x db x dc) structure tensor; `keep`, a
        triple of coordinate lists for S^a, S^b and S^(a+b), slices it."""
        mu = self.mu(a, b).reshape(self.dim(a + b), self.dim(a), self.dim(b))
        if keep is not None:
            mu = mu[np.ix_(keep[2], keep[0], keep[1])]
        return np.ascontiguousarray(mu.transpose(1, 2, 0))


def contract(ca: np.ndarray, cb: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """Product coordinates of reduced homogeneous coordinates ca, cb
    against the (da x db x dc) structure tensor `table`.

    ca and cb are (da,) and (db,) vectors or (trials, da) and
    (trials, db) batches, and either may be a vector broadcast against
    the other's batch.  The product is one outer product, reduced mod p,
    and one matmul, (B, da*db) @ (da*db, dc): each dot product sums at
    most da*db terms below p^2, exact in int64 for p <= 65537.
    """
    da, db, dc = table.shape
    outer = ca[..., :, None] * cb[..., None, :]
    outer = outer.reshape(*outer.shape[:-2], da * db) % p
    return (outer @ table.reshape(da * db, dc)) % p


class TruncatedAlgebra:
    """Elements of a graded algebra over GF(p), truncated above `depth`.

    Elements are dicts degree -> coordinates holding only nonzero
    components.  A component is a (d,) vector, or a (trials, d) array
    holding one element per row: `stack` builds such a batch, and every
    operation broadcasts over the leading trial axis, a vector (such as
    `one()`) acting on every row.  `equal` is True only if every row
    agrees.  Subclasses set `p`, `depth` and `dims` (the dimension of
    each degree) and provide `product_table(a, b)`, the (da x db x dc)
    structure tensor of degrees a and b.
    """

    def zero(self) -> Elem:
        return {}

    def one(self) -> Elem:
        return {0: np.ones(1, dtype=np.int64)}

    def stack(self, elems: list[Elem]) -> Elem:
        """One batch from per-trial elements: row t holds elems[t], zero
        in every degree where that element has no component."""
        out: Elem = {}
        for t, u in enumerate(elems):
            for m, c in u.items():
                if m not in out:
                    out[m] = np.zeros((len(elems), self.dims[m]), dtype=np.int64)
                out[m][t] = c
        return out

    def check_batch(self, trials: int, max_entries: int | None) -> None:
        """Charge a `trials`-row batch against the budget before it is
        drawn: its largest array is the (trials x da*db) outer product
        of one degree pair with a + b <= depth."""
        widest = max(
            self.dims[a] * self.dims[b]
            for a in range(self.depth + 1)
            for b in range(self.depth + 1 - a)
        )
        check_budget(trials * widest, max_entries, f"a batch of {trials} trials")

    def add(self, u: Elem, v: Elem) -> Elem:
        out = {}
        for m in set(u) | set(v):
            c = (u.get(m, 0) + v.get(m, 0)) % self.p
            if np.any(c):
                out[m] = np.asarray(c, dtype=np.int64)
        return out

    def mul(self, u: Elem, v: Elem) -> Elem:
        """Product; components above the truncation are dropped."""
        p = self.p
        out: Elem = {}
        for a, ca in u.items():
            for b, cb in v.items():
                if a + b > self.depth:
                    continue
                c = contract(ca, cb, self.product_table(a, b), p)
                out[a + b] = (out[a + b] + c) % p if a + b in out else c
        return {m: c for m, c in out.items() if np.any(c)}

    def power(self, u: Elem, k: int) -> Elem:
        """u^k by repeated squaring through `mul`.  Only associativity is
        used, so this holds in the d-commutative algebras of sVec_2 too."""
        if k < 0:
            raise ValueError(f"exponent must be nonnegative, got {k}")
        out, sq = None, u
        while k:
            if k & 1:
                out = sq if out is None else self.mul(out, sq)
            k >>= 1
            if k:
                sq = self.mul(sq, sq)
        return self.one() if out is None else out

    def equal(self, u: Elem, v: Elem) -> bool:
        return not any(
            np.any((u.get(m, 0) - v.get(m, 0)) % self.p) for m in set(u) | set(v)
        )

    def random_element(
        self, rng: random.Random, max_degree: int, homogeneous: bool = False
    ) -> Elem:
        """Uniform coordinates in every degree <= max_degree, or in one
        random degree when `homogeneous`."""
        degrees = (
            [rng.randint(0, max_degree)]
            if homogeneous
            else range(min(max_degree, self.depth) + 1)
        )
        out = {}
        for m in degrees:
            if self.dims[m] == 0:
                continue
            c = [rng.randrange(self.p) for _ in range(self.dims[m])]
            c = np.array(c, dtype=np.int64)
            if np.any(c):
                out[m] = c
        return out
