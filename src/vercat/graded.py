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
- `Degrees`: the degree data of the towers on one key (q_m per degree,
  the sections s_b, p, dim X and the budget), grown on demand, rolled
  back when a growth raises, read per depth and shared by key
  (`Degrees.shared`, `tower_store`: see below);
- `QuotientDegrees`: the plain degreewise quotient, grown one degree at
  a time, used by Rep(Z/pZ) (relation 1 - swap) and sVec_2 (relation
  1 + braiding); Ver_p takes its cokernels modulo negligible morphisms
  instead (`verlinde._Degrees`); `induced` pushes maps through it, on
  its kept coordinates;
- `GradedTower(deg, depth)`: the one tower holder, reading `deg` up to
  `depth`; `mu` is the recursion above, and `table` reads mu(a, b) as
  a (da x db x dc) structure tensor, the one cache of such tables;
- `TruncatedAlgebra`: element arithmetic, where the product of degrees
  a and b contracts coordinates against a (da x db x dc) structure
  tensor, and the pairs of each output degree are summed by one
  `exactlin.contract_mod`; every operation broadcasts over an optional
  leading trial axis, so a seeded identity check runs once over all its
  trials.

Every tower engine (`verlinde.SymTower`, the plain tower behind
`repzp.sym_power`, `svec2.DGradedAlgebra`) keeps its degree data by a
key without depth: the prime or the module, and the budget.  A tower
reads exactly the degrees up to its own depth and grows the data when it
needs more, each new degree charged once, when it is formed, under the
key's budget.  Data is shared while it is held.  Inside a `tower_store`
block, which `cli.main` opens around each command, the block holds it
until it exits, so a command builds each degree once.  Outside one, the
weak table `_LIVE` holds it only while a tower on the key is alive.
Both are keyed by (engine class, key).  Products and tables stay with
each tower.
"""

from __future__ import annotations

import contextlib
import contextvars
import weakref
from collections.abc import Iterator

import numpy as np

from .exactlin import _residues_of, check_budget, cokernel, contract_mod, matmul_mod

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


def frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: degree data is shared between towers."""
    a.setflags(write=False)
    return a


# the store of the running command: (engine class, key) -> degree data;
# None outside a `tower_store` block
_STORE: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "vercat_tower_store", default=None
)

# (engine class, key) -> the degree data a live tower holds, outside a
# `tower_store` block: it goes when its last tower does
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@contextlib.contextmanager
def tower_store() -> Iterator[None]:
    """Hold the degree data of every tower built in the block until the
    block exits: a tower built later in it on a key that an earlier one
    used reads and grows that one's degrees, whether or not the earlier
    tower is still alive.  A nested block starts empty, and the store
    around it is back when it exits."""
    token = _STORE.set({})
    try:
        yield
    finally:
        _STORE.reset(token)


class Degrees:
    """The degree data of the towers on one key, grown on demand.

    A tower reads `p`, `nx` = dim X and `max_entries` off it.  `_LISTS`
    names the lists that hold one entry per degree, degree m at index m,
    q (q[m]: S^(m-1) (x) X -> S^m) among them; a subclass fills them.
    `grow(depth)` calls `_build_degree(m)` for each degree the first list
    lacks, then `_extend(depth)`, where a subclass appends what it reads
    off the built degrees.  A growth that raises cuts every list in
    `_LISTS` back to the length it found, so shared degrees stay as they
    were.  `view(depth)` is those lists clipped to degrees 0..depth, which
    must be built: one tuple per depth, so the towers of one depth read
    the same lists.  `section(b)`, s_b: S^b -> S^(b-1) (x) X with
    q_b s_b = 1 (as classes modulo negligibles in Ver_p), is formed once,
    by a subclass's `_section(b)`, into `sections`.  Built arrays are
    read-only.  The data holds no reference to a tower: outside a
    `tower_store` it dies with the last tower that holds it.
    """

    _LISTS: tuple[str, ...] = ()

    def __init__(self, p: int, nx: int, max_entries: int | None):
        self.p, self.nx, self.max_entries = p, nx, max_entries
        self._views: dict[int, tuple[list, ...]] = {}
        self.sections: dict[int, np.ndarray] = {}

    @classmethod
    def shared(cls, key, *args):
        """The data of this engine on `key`, made by `cls(*args)` on a miss:
        from the installed store, else from `_LIVE`, where it stays only
        while a tower holds it."""
        store = _STORE.get()
        table = _LIVE if store is None else store
        data = table.get((cls, key))
        if data is None:
            data = table[cls, key] = cls(*args)
        return data

    def grow(self, depth: int) -> None:
        built = [len(getattr(self, name)) for name in self._LISTS]
        try:
            for m in range(built[0], depth + 1):
                self._build_degree(m)
            self._extend(depth)
        except BaseException:
            for name, count in zip(self._LISTS, built):
                del getattr(self, name)[count:]
            raise

    def view(self, depth: int) -> tuple[list, ...]:
        if depth not in self._views:
            self._views[depth] = tuple(getattr(self, name)[: depth + 1] for name in self._LISTS)
        return self._views[depth]

    def section(self, b: int) -> np.ndarray:
        if b not in self.sections:
            self.sections[b] = frozen(self._section(b))
        return self.sections[b]

    def _build_degree(self, m: int) -> None:
        raise NotImplementedError

    def _extend(self, depth: int) -> None:
        pass


class QuotientDegrees(Degrees):
    """S^m = coker(relations into S^(m-1) (x) X), grown on demand: `q`
    and `keep` hold degrees 0..built.

    The (nx^2 x r) residue columns `rel` span the degree-2 relations inside
    X (x) X; a subclass that passes none forms them in `_relations`, which
    is called once, when S^2 is first built, so nothing is formed or
    charged for them below S^2.  In degree m they enter S^(m-1) (x) X
    through (q_(m-1) (x) 1_X) and act on the last two tensor factors, and
    each degree's relation matrix is checked against `max_entries` before
    it is formed.  q[m] projects S^(m-1) (x) X onto S^m, and the unit
    vectors at the kept coordinates keep[m] are coset representatives,
    q[m][:, keep[m]] = 1.  They are the non-pivot positions of the reduced
    echelon form of the relation span, so the choice is deterministic
    (`exactlin.cokernel`) and does not depend on the spanning set.
    """

    _LISTS: tuple[str, ...] = ("q", "keep")

    def __init__(self, nx: int, p: int, max_entries: int | None, rel: np.ndarray | None = None):
        super().__init__(p, nx, max_entries)
        self._rel = rel
        self._rel3: np.ndarray | None = None  # the relations as (n, n, r)
        self.q = [frozen(np.ones((1, 1), dtype=np.int64))]
        self.keep = [frozen(np.zeros(1, dtype=np.intp))]

    def _relations(self) -> np.ndarray:
        return self._rel

    def _build_degree(self, m: int) -> None:
        n, p = self.nx, self.p
        if m == 1:
            self.q.append(frozen(np.eye(n, dtype=np.int64)))
            self.keep.append(frozen(np.arange(n, dtype=np.intp)))
            return
        if self._rel3 is None:
            rel = self._relations()
            self._rel3 = rel.reshape(n, n, rel.shape[1])
        r = self._rel3.shape[2]
        dv, du = self.q[m - 1].shape[0], self.q[m - 2].shape[0]
        check_budget(dv * n * du * r, self.max_entries, f"relation matrix of S^{m}")
        rho = matmul_mod(self.q[m - 1].reshape(dv * du, n), self._rel3.reshape(n, n * r), p)
        rho = rho.reshape(dv, du, n, r).transpose(0, 2, 1, 3).reshape(dv * n, du * r)
        qm, free = cokernel(rho, p)
        self.q.append(frozen(qm))
        self.keep.append(frozen(np.array(free, dtype=np.intp)))

    def _section(self, b: int) -> np.ndarray:
        """The unit columns at keep[b]."""
        s = np.zeros((self.q[b].shape[1], len(self.keep[b])), dtype=np.int64)
        s[self.keep[b], np.arange(len(self.keep[b]))] = 1
        return s


def induced(q: np.ndarray, keep, a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """q (a (x) b) on the kept columns, S^m(f) for a = S^(m-1)(f), b = f,
    q the target's q_m and `keep` the source's keep[m].  Column j is
    q (a[:, u] (x) b[:, x]) for keep[j] = u * b.cols + x: no Kronecker
    product is formed."""
    u, x = np.divmod(keep, b.shape[1])
    cols = a[:, u][:, None, :] * b[:, x][None, :, :]
    return matmul_mod(q, cols.reshape(a.shape[0] * b.shape[0], len(keep)) % p, p)


class GradedTower:
    """A tower of degreewise quotients S^0..S^depth, read off its degree
    data, with its multiplication maps.

    `GradedTower(deg, depth)` grows `deg` to `depth`, binds each list of
    `deg._LISTS` clipped to 0..depth (`Degrees.view`) under its own name,
    and reads `p`, `nx` = dim X and `max_entries` off `deg`.  Sections
    are the degree data's (`Degrees.section`), read-only and shared with
    every tower on the key; the products `mu` and the structure tables
    `table` belong to this tower alone.  `mu(a, 1)` returns q_(a+1)
    itself, so readers must not write into what `mu` or `table` return.
    """

    def __init__(self, deg: Degrees, depth: int):
        check_degree(depth)
        deg.grow(depth)
        self._deg, self.depth = deg, depth
        self.p, self.nx, self.max_entries = deg.p, deg.nx, deg.max_entries
        for name, values in zip(deg._LISTS, deg.view(depth)):
            setattr(self, name, values)
        self._mu: dict[tuple, np.ndarray] = {}
        self._tables: dict[tuple, np.ndarray] = {}

    def dim(self, m: int) -> int:
        return self.q[m].shape[0]

    def section(self, b: int) -> np.ndarray:
        return self._deg.section(b)

    def mu(self, a: int, b: int, left: tuple[int, ...] | None = None) -> np.ndarray:
        """Multiplication S^a (x) S^b -> S^(a+b), degrees a+b <= depth, as
        a (dim S^(a+b)) x (dim S^a * dim S^b) array, column k * dim S^b + l
        holding the product of basis vectors e_k and e_l.

        `left`, a tuple of S^a coordinates, keeps only the columns of those
        e_k, in the order listed: the recursion then runs on those columns
        alone, so a caller that reads a few vectors of S^a never forms the
        whole map.  Each step charges the array it forms,
        (dim S^(a+b-1) * dim X) x (|left| * dim S^b), against `max_entries`
        first.  Results are cached per (a, b, left).
        """
        if a + b > self.depth:
            raise ValueError("product degree exceeds the tower depth")
        da, db = self.dim(a), self.dim(b)
        if a == 0 or b == 0:
            out = np.eye(da * db, dtype=np.int64)
            return out if left is None else _left_columns(out, da, db, left)
        key = (a, b, left)
        if key in self._mu:
            return self._mu[key]
        if b == 1:
            out = self.q[a + 1]
            if left is not None:
                out = _left_columns(out, da, self.nx, left)
        else:
            # q_(a+b) . (mu_(a,b-1) (x) 1_X) . (1_(S^a) (x) s_b), contracted
            # over S^(b-1) without forming either Kronecker product
            k = da if left is None else len(left)
            du, db1 = self.dim(a + b - 1), self.dim(b - 1)
            check_budget(du * self.nx * k * db, self.max_entries, f"mu({a}, {b})")
            prev = self.mu(a, b - 1, left).reshape(du * k, db1)
            lift = matmul_mod(prev, self.section(b).reshape(db1, self.nx * db), self.p)
            lift = lift.reshape(du, k, self.nx, db).transpose(0, 2, 1, 3)
            out = matmul_mod(self.q[a + b], lift.reshape(du * self.nx, k * db), self.p)
        self._mu[key] = out
        return out

    def table(self, a: int, b: int, keep=None) -> np.ndarray:
        """mu(a, b) as the (da x db x dc) structure tensor, cached per
        (a, b, keep); `keep`, a triple of coordinate sequences for S^a,
        S^b and S^(a+b), slices it, and only the kept S^a columns of
        mu(a, b) are formed."""
        keep = None if keep is None else tuple(map(tuple, keep))
        key = (a, b, keep)
        if key not in self._tables:
            left = None if keep is None else keep[0]
            k = self.dim(a) if left is None else len(left)
            mu = self.mu(a, b, left).reshape(self.dim(a + b), k, self.dim(b))
            if keep is not None:
                mu = mu[np.ix_(keep[2], range(k), keep[1])]
            self._tables[key] = np.ascontiguousarray(mu.transpose(1, 2, 0))
        return self._tables[key]


def _left_columns(m: np.ndarray, da: int, w: int, left: tuple[int, ...]) -> np.ndarray:
    """Columns k * w + l of an (r x da*w) array for k in `left`, in order.

    Sizes are explicit: r, da or w may be 0 past the vanishing degree."""
    r = m.shape[0]
    return m.reshape(r, da, w)[:, list(left)].reshape(r, len(left) * w)


class TruncatedAlgebra:
    """Elements of a graded algebra over GF(p), truncated above `depth`.

    Elements are dicts degree -> coordinates holding only nonzero
    components.  A component is a (d,) vector, or a (trials, d) array
    holding one element per row: `random_batch` draws such a batch,
    `stack` builds one from per-trial elements, and every operation
    broadcasts over the leading trial axis, a vector (such as
    `one()`) acting on every row.  `equal` is True only if every row
    agrees.  Components may be given as any integer sequences: each
    operation reads them as residues mod p (`_read`).  Subclasses have
    `p`, `depth`, `dims` (the dimension of each degree) and `max_entries`,
    and provide `product_table(a, b)`, the (da x db x dc) structure
    tensor of degrees a and b.
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
                out[m][t] = _residues_of(c, self.p)
        return out

    def check_batch(self, trials: int) -> None:
        """Charge a `trials`-row batch against `max_entries`, the budget the
        algebra was built with, before it is drawn: its largest array is
        the (trials x da*db) outer product of a degree pair, a + b <= depth."""
        widest = max(
            self.dims[a] * self.dims[b]
            for a in range(self.depth + 1)
            for b in range(self.depth + 1 - a)
        )
        check_budget(trials * widest, self.max_entries, f"a batch of {trials} trials")

    def _read(self, u: Elem) -> Elem:
        """u's components as residues mod p (`exactlin._residues_of`)."""
        return {m: _residues_of(c, self.p) for m, c in u.items()}

    def add(self, u: Elem, v: Elem) -> Elem:
        u, v = self._read(u), self._read(v)
        sums = {m: (u.get(m, 0) + v.get(m, 0)) % self.p for m in set(u) | set(v)}
        return {m: c for m, c in sums.items() if np.any(c)}

    def mul(self, u: Elem, v: Elem) -> Elem:
        """Product; components above the truncation are dropped.  The
        coordinates are read as residues mod p once (`_read`), and each
        output degree is one `exactlin.contract_mod` over its degree pairs."""
        p = self.p
        u, v = self._read(u), self._read(v)
        pairs: dict[int, list] = {}
        for a, ca in u.items():
            for b, cb in v.items():
                if a + b <= self.depth:
                    pairs.setdefault(a + b, []).append((ca, cb, self.product_table(a, b)))
        out = {m: contract_mod(terms, p) for m, terms in pairs.items()}
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
        u, v = self._read(u), self._read(v)
        return not any(np.any(u.get(m, 0) != v.get(m, 0)) for m in set(u) | set(v))

    def random_batch(
        self,
        rng: np.random.Generator,
        trials: int,
        max_degree: int,
        homogeneous: bool | np.ndarray = False,
    ) -> Elem:
        """A (trials x d)-per-degree batch of uniform coordinates in every
        degree <= max_degree (and <= depth), one `rng.integers` call per
        degree.  Rows marked by `homogeneous` (True for all, or a
        (trials,) boolean mask) keep one degree drawn uniformly from that
        range, with one more call for all of them, and are zero in the
        others.  Degrees where every row is zero are dropped."""
        check_degree(max_degree)
        top = min(max_degree, self.depth)
        rows = np.broadcast_to(np.asarray(homogeneous, dtype=bool), (trials,))
        row_degree = rng.integers(0, top + 1, size=trials) if rows.any() else None
        out = {}
        for m in range(top + 1):
            if self.dims[m] == 0:
                continue
            c = rng.integers(0, self.p, size=(trials, self.dims[m]))
            if row_degree is not None:
                c[rows & (row_degree != m)] = 0
            if np.any(c):
                out[m] = c
        return out
