"""The shared graded engine: one swap for every braiding, powers by
repeated squaring, element arithmetic batched over a leading trial axis,
and degree validation at every tower entry point."""

import functools
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercat import exactlin, graded, repzp, svec2, verlinde
from vercat.exactlin import BudgetExceeded
from vercat.invariants import build_invariant_algebra
from vercat.verlinde import SymTower, VerObject


class TestSwap:
    def test_sends_v_w_to_w_v(self):
        rng = np.random.default_rng(0)
        for da, db in [(1, 3), (2, 3), (3, 2), (4, 4)]:
            v, w = rng.integers(0, 7, da), rng.integers(0, 7, db)
            assert np.array_equal(graded.swap(da, db) @ np.kron(v, w), np.kron(w, v))

    def test_repzp_svec2_and_symtower_share_it(self):
        for da, db in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            s = graded.swap(da, db)
            a, b = repzp.jordan_module(5, [da]), repzp.jordan_module(5, [db])
            assert np.array_equal(repzp.braiding(a, b), s)
            # at d = 0 the sVec_2 braiding is the plain swap
            c = svec2.braiding(svec2.trivial(da), svec2.trivial(db))
            assert np.array_equal(c, s)
        # SymTower applies its relation 1 - swap through minus_swap
        rng = np.random.default_rng(1)
        for p, mult in [(5, (1, 1, 0, 0)), (7, (0, 1, 1, 0, 0, 0))]:
            n = SymTower(VerObject(p, mult), 2).nx
            for u in (1, 3):
                rows = rng.integers(0, p, (4, u * n * n))
                eye = np.eye(n * n, dtype=np.int64)
                rel = np.kron(np.eye(u, dtype=np.int64), eye - graded.swap(n, n))
                want = rows @ rel % p
                assert np.array_equal(graded.minus_swap(rows, n) % p, want)


class TestQuotientTower:
    def test_lift_splits_and_relations_vanish(self):
        n = 3
        w1 = svec2.direct_sum(svec2.module_w(), svec2.trivial(1))
        eye = np.eye(n * n, dtype=np.int64)
        rels = [
            (5, (eye - graded.swap(n, n)) % 5),
            (2, (eye + svec2.braiding(w1, w1)) % 2),
        ]
        for p, rel in rels:
            tower = graded.QuotientDegrees(n, p, None, rel)
            tower.grow(5)
            q, keep = tower.q, tower.keep
            for m in range(6):
                # the unit vectors at the kept coordinates split q[m]
                assert np.array_equal(q[m][:, keep[m]], np.eye(q[m].shape[0])), (p, m)
            for m in range(2, 6):
                du = q[m - 2].shape[0]
                rho = np.kron(q[m - 1], np.eye(n, dtype=np.int64)) @ np.kron(
                    np.eye(du, dtype=np.int64), rel
                )
                assert not (q[m] @ rho % p).any(), (p, m)
            # 1 - swap gives the classical binomial dimensions; the sVec_2
            # relations of W + 1 give 2m + 1 (y^2 = 0 in every degree)
            dims = [qm.shape[0] for qm in q]
            if p == 5:
                assert dims == [math.comb(m + 2, 2) for m in range(6)]
            else:
                assert dims == [1, 3, 5, 7, 9, 11]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 2**32),
    st.tuples(*[st.integers(0, 4)] * 5),
)
def test_induced_is_q_kron_on_kept_columns(p, seed, shape):
    # a: U -> U', b: X -> X', q: U' (x) X' -> S', keep a subset of U (x) X
    du, du2, dx, dx2, ds = shape
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (du2, du))
    b = rng.integers(0, p, (dx2, dx))
    q = rng.integers(0, p, (ds, du2 * dx2))
    keep = rng.permutation(du * dx)[: rng.integers(0, du * dx + 1)]
    want = (q @ np.kron(a, b) % p)[:, keep]
    got = graded.induced(q, keep, a, b, p)
    assert got.shape == want.shape and np.array_equal(got, want)


class TestTowerBudget:
    def test_relation_matrix_budget_names_the_degree(self):
        # degree m relations fill (dim S^(m-1) * n) x (dim S^(m-2) * n^2):
        # 125,440 entries at m = 6 fit 4^9, 301,056 at m = 7 do not
        n, p = 4, 5
        rel = (np.eye(n * n, dtype=np.int64) - graded.swap(n, n)) % p
        with pytest.raises(BudgetExceeded, match=r"matrix of S\^7 needs 301056 "):
            graded.QuotientDegrees(n, p, 4**9, rel).grow(9)

    def test_dgraded_algebra_charges_only_formed_arrays(self):
        # the largest array of S(W+2) to depth 11 has 774,400 entries; a
        # charge of (dim X)^depth would reject it at 4,194,304
        x = svec2.direct_sum(svec2.module_w(), svec2.trivial(2))
        assert svec2.sym_algebra(x, 11).dims[11] == 144

    def test_sym_power_forms_no_array_above_its_projection(self, monkeypatch):
        # J_4^6 at p = 5 in degree 2: the (24 * 24) x 300 action columns of
        # S^2 are the largest charge (the relation matrix is 576 x 276); an
        # identity or Kronecker product on X (x) X, or on S^1 (x) X, would
        # hold 576^2 = 331,776 entries
        largest = []

        def recording(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                largest.append(out.size)
                return out

            return wrapper

        monkeypatch.setattr(np, "eye", recording(np.eye))
        monkeypatch.setattr(np, "kron", recording(np.kron))
        s = repzp.sym_power(repzp.jordan_module(5, [4] * 6), 2, max_entries=172_800)
        assert s.dim == 300 and largest and max(largest) <= 172_800
        with pytest.raises(BudgetExceeded, match=r"action on S\^2 needs 172800 "):
            repzp.sym_power(repzp.jordan_module(5, [4] * 6), 2, max_entries=172_799)

    def test_svec2_kronecker_products_stop_at_the_relation(self, monkeypatch):
        # the degree-2 braiding's d (x) d (16 x 16 for X = W+2) is the only
        # Kronecker product: the derivation and S(W) -> S(W+2) are induced
        sizes = []
        kron = np.kron

        def recording(a, b):
            out = kron(a, b)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, "kron", recording)
        x = svec2.direct_sum(svec2.module_w(), svec2.trivial(2))
        incl = np.eye(4, 2, dtype=np.int64)
        assert svec2.injectivity_check(svec2.module_w(), x, incl, 7) is None
        assert sizes and max(sizes) == 4**4

    def test_dgraded_algebra_budget(self):
        # the 16 x 16 degree-2 braiding relations do not fit 100 entries
        w2 = svec2.direct_sum(svec2.module_w(), svec2.module_w())
        with pytest.raises(BudgetExceeded, match=r"relation matrix of S\^2 "):
            svec2.sym_algebra(w2, 2, max_entries=100)


    def test_mu_charges_the_array_it_forms(self):
        # p = 5, X = 1 + L2, D = 10 needs a budget of 900 to build; the
        # whole mu(4, 4) lifts to (dim S^7 * dim X) x (dim S^4)^2 = 30 x 100
        # entries, the one invariant column of S^4 to 30 x 10
        tower = SymTower(VerObject(5, (1, 1, 0, 0)), 10, max_entries=900)
        with pytest.raises(BudgetExceeded, match=r"mu\(4, 4\) needs 3000 "):
            tower.mu(4, 4)
        assert tower.mu(4, 4, tuple(tower.block_offsets(4, 1))).shape == (10, 10)


def assert_restricted_is_full(tower, a: int, b: int, left: tuple) -> None:
    """mu(a, b, left) is mu(a, b) on the columns of the listed e_k."""
    da, db, dc = tower.dim(a), tower.dim(b), tower.dim(a + b)
    got = tower.mu(a, b, left)
    assert got.shape == (dc, len(left) * db), (a, b, left)
    full = tower.mu(a, b).reshape(dc, da, db)[:, list(left)]
    assert np.array_equal(got.reshape(dc, len(left), db), full), (a, b, left)


@st.composite
def towers(draw):
    """An invariant algebra at p <= 13 on X of one or two simples, its
    invariant basis shuffled by a drawn `basis_seed`."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    summands = draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=2))
    mult = [0] * (p - 1)
    for i in summands:
        mult[i - 1] += 1
    depth = draw(st.integers(2, 5 if p <= 7 else 3))
    seed = draw(st.integers(0, 2**16))
    return build_invariant_algebra(VerObject(p, tuple(mult)), depth, basis_seed=seed), seed


@settings(max_examples=40, deadline=None)
@given(towers())
def test_restricted_mu_is_the_full_map_on_those_columns(case):
    alg, seed = case
    tower, rng = alg.tower, random.Random(seed)
    for a in range(alg.depth + 1):
        for b in range(alg.depth + 1 - a):
            some = rng.sample(range(tower.dim(a)), rng.randint(0, tower.dim(a)))
            for left in ((), tuple(alg.offsets(a, 1)), tuple(some)):
                assert_restricted_is_full(tower, a, b, left)


def test_restricted_mu_past_vanishing_and_in_svec2():
    # S(L2 + L3) at p = 5 vanishes from degree 6, so mu(3, 3) has 0 rows
    # while S^3 does not; S(W + 1) is a tower over GF(2)
    vanishing = SymTower(VerObject(5, (0, 1, 1, 0)), 7)
    assert vanishing.dim(6) == 0 < vanishing.dim(3)
    w1 = svec2.sym_algebra(svec2.direct_sum(svec2.module_w(), svec2.trivial(1)), 6)
    for tower in (vanishing, w1):
        for a in range(tower.depth + 1):
            for b in range(tower.depth + 1 - a):
                da = tower.dim(a)
                for left in ((), tuple(range(da))[::-1], tuple(range(0, da, 2))):
                    assert_restricted_is_full(tower, a, b, left)


class TestTable:
    def test_table_reads_mu(self):
        # table[k, l, j] is coordinate j of mu(a, b) on (e_k (x) e_l)
        tower = SymTower(VerObject(5, (1, 1, 0, 0)), 5)
        for a, b in [(0, 3), (1, 2), (2, 3), (3, 0)]:
            mu, t = tower.mu(a, b), tower.table(a, b)
            assert t.shape == (tower.dim(a), tower.dim(b), tower.dim(a + b))
            for k in range(tower.dim(a)):
                for l in range(tower.dim(b)):
                    assert np.array_equal(t[k, l], mu[:, k * tower.dim(b) + l])

    def test_keep_slices_each_factor(self):
        tower = SymTower(VerObject(5, (1, 1, 0, 0)), 5)
        full = tower.table(2, 3)
        keep = ([2, 0], [1], [4, 0, 3])
        assert np.array_equal(tower.table(2, 3, keep), full[np.ix_(*keep)])


class TestPower:
    def test_svec2_power_is_iterated_mul(self):
        alg = svec2.sym_algebra(svec2.direct_sum(svec2.module_w(), svec2.trivial(1)), 8)
        u = alg.random_batch(np.random.default_rng(11), 10, 1)
        acc = alg.one()
        for k in range(10):
            assert alg.equal(alg.power(u, k), acc), k
            acc = alg.mul(acc, u)

    def test_invariant_power_is_iterated_mul(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        u = alg.random_batch(np.random.default_rng(12), 10, 2)
        acc = alg.one()
        for k in range(10):
            assert alg.equal(alg.power(u, k), acc), k
            acc = alg.mul_elems(acc, u)

    def test_negative_exponent_rejected(self):
        alg = svec2.sym_algebra(svec2.module_w(), 4)
        with pytest.raises(ValueError):
            alg.power(alg.one(), -1)


def dense(alg, u, rows: int) -> np.ndarray:
    """A (rows x sum of dims) array of u's coordinates, a vector
    component repeated on every row."""
    out = np.zeros((rows, sum(alg.dims)), dtype=np.int64)
    offsets = np.cumsum([0] + alg.dims)
    for m, c in u.items():
        out[:, offsets[m] : offsets[m + 1]] = c
    return out


def row(u, t: int):
    """Row t of a batch, as an element with only nonzero components."""
    return {m: c[t] for m, c in u.items() if c[t].any()}


def invariants_of_1_plus_l2(p: int):
    return build_invariant_algebra(VerObject(p, (1, 1) + (0,) * (p - 3)), 6)


# (label, builder): sVec_2 algebras over GF(2) and invariant algebras at
# p <= 13, each deep enough for nonzero products of degree-1 elements
ALGEBRAS = {
    "S(W) D=6": lambda: svec2.sym_algebra(svec2.module_w(), 6),
    "S(W+1) D=6": lambda: svec2.sym_algebra(
        svec2.direct_sum(svec2.module_w(), svec2.trivial(1)), 6
    ),
    "S(W+W) D=4": lambda: svec2.sym_algebra(
        svec2.direct_sum(svec2.module_w(), svec2.module_w()), 4
    ),
    **{
        f"A(1+L2) p={p}": functools.partial(invariants_of_1_plus_l2, p)
        for p in (3, 5, 7, 11, 13)
    },
}


@pytest.fixture(scope="module")
def algebra():
    """`algebra(label)` builds ALGEBRAS[label] once per module; the cache
    goes at module teardown, and with it what it holds in the weak table."""
    built = {}

    def get(label: str):
        if label not in built:
            built[label] = ALGEBRAS[label]()
        return built[label]

    yield get
    built.clear()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(ALGEBRAS)),
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.integers(0, 5),
)
def test_batched_arithmetic_is_rowwise(algebra, label, seed, trials, k):
    # every operation on a drawn batch is the stack of its per-row
    # results; about half of the rows are homogeneous
    alg = algebra(label)
    rng = np.random.default_rng(seed)
    u = alg.random_batch(rng, trials, 2, homogeneous=rng.random(trials) < 0.5)
    v = alg.random_batch(rng, trials, 2, homogeneous=rng.random(trials) < 0.5)
    us, vs = ([row(w, t) for t in range(trials)] for w in (u, v))

    def same(batched, rowwise):
        want = dense(alg, alg.stack(rowwise), trials)
        assert np.array_equal(dense(alg, batched, trials), want)

    same(alg.add(u, v), [alg.add(a, b) for a, b in zip(us, vs)])
    same(alg.mul(u, v), [alg.mul(a, b) for a, b in zip(us, vs)])
    same(alg.power(u, k), [alg.power(a, k) for a in us])
    if isinstance(alg, svec2.DGradedAlgebra):
        same(alg.dmap(u), [alg.dmap(a) for a in us])
    # d-commutativity makes uv = vu fail on some rows of sVec_2 batches
    uv, vu = alg.mul(u, v), alg.mul(v, u)
    rows = [alg.equal(alg.mul(a, b), alg.mul(b, a)) for a, b in zip(us, vs)]
    assert alg.equal(uv, vu) == all(rows)
    assert alg.equal(u, alg.stack(us))
    assert alg.equal(alg.mul(alg.one(), u), u)


def python_int_contract(ca, cb, table, p) -> list[list[int]]:
    """Row-wise sum of ca[i] cb[j] table[i, j, k] in Python integers."""
    o = ca.astype(object)[:, :, None, None] * cb.astype(object)[:, None, :, None]
    return ((o * table.astype(object)[None]).sum(axis=(1, 2)) % p).tolist()


def python_int_mul(alg, u, v, rows: int) -> dict[int, list[list[int]]]:
    """`mul` in Python integers: per output degree, the sum of
    `python_int_contract` over its degree pairs, for every row."""
    out: dict[int, list[list[int]]] = {}
    for a, ca in u.items():
        for b, cb in v.items():
            if a + b <= alg.depth:
                left = np.broadcast_to(ca, (rows, alg.dims[a]))
                right = np.broadcast_to(cb, (rows, alg.dims[b]))
                c = np.array(python_int_contract(left, right, alg.product_table(a, b), alg.p))
                out[a + b] = (out.get(a + b, 0) + c) % alg.p
    return {m: c.tolist() for m, c in out.items() if c.any()}


class TableAlgebra(graded.TruncatedAlgebra):
    """A truncated algebra with arbitrary residue structure tensors: `mul`
    reads nothing else, and needs no associativity."""

    def __init__(self, p: int, dims: list[int], rng: np.random.Generator, top: bool):
        self.p, self.dims, self.depth = p, dims, len(dims) - 1
        low = p - 64 if top and p > 64 else 0
        self.tables = {
            (a, b): rng.integers(low, p, (dims[a], dims[b], dims[a + b]))
            for a in range(self.depth + 1)
            for b in range(self.depth + 1 - a)
        }

    def product_table(self, a: int, b: int) -> np.ndarray:
        return self.tables[a, b]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 13, 65537]),
    st.lists(st.integers(3, 7), min_size=5, max_size=5),
    st.integers(0, 2**32),
    st.integers(1, 4),
    st.booleans(),
)
def test_mul_is_exact_past_the_accumulation_bound(p, dims, seed, rows, top):
    # every output degree sums several pairs, and degree 4 alone holds at
    # least 5 * 3 * 3 = 45 terms per entry, past the 31 terms of one exact
    # float64 sum at p = 65537; a 6 x 6 or 7 x 7 pair is past it alone
    rng = np.random.default_rng(seed)
    alg = TableAlgebra(p, dims, rng, top)
    assert sum(dims[a] * dims[4 - a] for a in range(5)) > (2**53 - 1) // 65536**3
    low = p - 64 if top and p > 64 else 0

    def draw(shape_of):
        return {m: rng.integers(low, p, shape_of(d)) for m, d in enumerate(dims)}

    def wrapped(u):
        # the same residues, unreduced: some negative, some past p
        return {m: c + p * rng.integers(-3, 4, c.shape) for m, c in u.items()}

    batch, vector = (lambda d: (rows, d)), (lambda d: (d,))
    for left, right in ((batch, batch), (vector, batch), (batch, vector), (vector, vector)):
        u, v = draw(left), draw(right)
        want = python_int_mul(alg, u, v, rows)
        for got in (alg.mul(u, v), alg.mul(wrapped(u), wrapped(v))):
            assert sorted(got) == sorted(want)
            for m, c in got.items():
                assert c.dtype == np.int64
                if left is vector and right is vector:
                    assert c.shape == (dims[m],) and [c.tolist()] * rows == want[m]
                else:
                    assert c.shape == (rows, dims[m]) and c.tolist() == want[m]
    # a square: both factors are the same unreduced dict
    u = wrapped(draw(batch))
    want = python_int_mul(alg, u, u, rows)
    assert {m: c.tolist() for m, c in alg.mul(u, u).items()} == want


class TestBatch:
    def test_stack_fills_missing_degrees_with_zeros(self):
        alg = svec2.sym_algebra(svec2.module_w(), 4)
        x, y = alg.from_vector(1, [1, 0]), alg.from_vector(2, [0, 1])
        batch = alg.stack([x, alg.zero(), y])
        assert sorted(batch) == [1, 2]
        assert batch[1].tolist() == [[1, 0], [0, 0], [0, 0]]
        assert batch[2].tolist() == [[0, 0], [0, 0], [0, 1]]

    def test_equal_sees_a_difference_in_the_last_row_only(self):
        alg = svec2.sym_algebra(svec2.direct_sum(svec2.module_w(), svec2.trivial(1)), 8)
        elems = alg.random_batch(np.random.default_rng(3), 9, 2)
        bump = np.zeros((9, 3), dtype=np.int64)
        bump[-1, 2] = 1
        other = alg.add(elems, {1: bump})
        assert alg.equal(elems, elems)
        assert not alg.equal(elems, other)
        assert not alg.equal(alg.power(other, 1), elems)

    def test_contract_at_the_largest_prime_is_exact(self):
        # da * db = 40,000 terms: unreduced products (p-1)^3 would wrap
        # int64, so the outer product must be reduced before the matmul
        p, da, db, dc = 65537, 200, 200, 2
        rng = np.random.default_rng(0)
        cases = [
            (np.full((2, da), p - 1), np.full((2, db), p - 1), np.full((da, db, dc), p - 1)),
            (
                rng.integers(p - 64, p, (3, da)),
                rng.integers(p - 64, p, (3, db)),
                rng.integers(p - 64, p, (da, db, dc)),
            ),
        ]
        for ca, cb, table in cases:
            # batch x batch, and a vector broadcast against the other's batch
            for left, right in ((ca, cb), (ca[0], cb), (ca, cb[0])):
                got = exactlin.contract_mod([(left, right, table)], p)
                want = python_int_contract(
                    np.broadcast_to(left, ca.shape), np.broadcast_to(right, cb.shape), table, p
                )
                assert got.shape == (len(ca), dc) and got.tolist() == want
            # vector x vector: one (dc,) vector
            got = exactlin.contract_mod([(ca[0], cb[0], table)], p)
            assert got.shape == (dc,)
            assert got.tolist() == python_int_contract(ca[:1], cb[:1], table, p)[0]

    def test_batch_budget_counts_trials_times_widest_pair(self):
        # S(W) to depth 8 has dims 1, 2, 2, ...: the widest pair is 2 x 2
        alg = svec2.sym_algebra(svec2.module_w(), 8, max_entries=1000)
        alg.check_batch(250)
        with pytest.raises(BudgetExceeded, match="batch of 251 trials needs 1004 "):
            alg.check_batch(251)


class CountingRng:
    """A numpy Generator that counts its `integers` calls."""

    def __init__(self, seed: int):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def degrees_per_row(batch, trials: int) -> np.ndarray:
    """How many degrees each row of a batch is nonzero in."""
    return sum((c.any(axis=1) for c in batch.values()), np.zeros(trials, dtype=int))


class TestRandomBatch:
    @pytest.mark.parametrize("label", sorted(ALGEBRAS))
    def test_same_seed_same_batch(self, algebra, label):
        alg = algebra(label)
        for homogeneous in (False, True):
            a, b, c = (
                alg.random_batch(np.random.default_rng(seed), 8, 2, homogeneous)
                for seed in (5, 5, 6)
            )
            assert sorted(a) == sorted(b)
            assert all(np.array_equal(a[m], b[m]) for m in a)
            assert not alg.equal(a, c)

    @pytest.mark.parametrize("label", sorted(ALGEBRAS))
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 9])
    def test_homogeneous_rows_have_one_degree(self, algebra, label, max_degree):
        alg = algebra(label)
        batch = alg.random_batch(np.random.default_rng(1), 200, max_degree, True)
        assert all(c.shape == (200, alg.dims[m]) for m, c in batch.items())
        top = min(max_degree, alg.depth)
        assert set(batch) <= set(range(top + 1))
        assert (degrees_per_row(batch, 200) <= 1).all()
        # every degree that can hold a nonzero row is some row's degree
        assert set(batch) == {m for m in range(top + 1) if alg.dims[m]}

    @pytest.mark.parametrize("label", sorted(ALGEBRAS))
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 9])
    def test_batches_cover_every_degree_up_to_the_truncation(self, algebra, label, max_degree):
        alg = algebra(label)
        batch = alg.random_batch(np.random.default_rng(2), 50, max_degree)
        top = min(max_degree, alg.depth)
        assert sorted(batch) == [m for m in range(top + 1) if alg.dims[m]]
        # no row is homogeneous by force: rows reach two degrees at once
        if len(batch) > 1:
            assert (degrees_per_row(batch, 50) > 1).any()

    def test_a_row_mask_makes_only_those_rows_homogeneous(self, algebra):
        alg = algebra("S(W+1) D=6")
        mask = np.arange(100) % 2 == 1
        batch = alg.random_batch(np.random.default_rng(3), 100, 2, homogeneous=mask)
        counts = degrees_per_row(batch, 100)
        assert (counts[mask] <= 1).all() and (counts[~mask] > 1).any()

    def test_one_draw_per_degree(self, algebra):
        # S(W) at depth 6 has nonzero dims in every degree; the homogeneous
        # batch draws its row degrees with one more call
        alg = algebra("S(W) D=6")
        for homogeneous, calls in ((False, 4), (True, 5)):
            rng = CountingRng(0)
            alg.random_batch(rng, 1000, 3, homogeneous)
            assert rng.calls == calls

    def test_all_zero_degrees_are_dropped(self, algebra):
        # degree 0 of the unit draws one residue mod 2 per row: a single
        # row is zero there for some seed, and then has no component
        alg = algebra("S(W) D=6")
        seeds = range(20)
        batches = [alg.random_batch(np.random.default_rng(s), 1, 0) for s in seeds]
        assert {tuple(b) for b in batches} == {(), (0,)}
        assert alg.random_batch(np.random.default_rng(0), 0, 3) == {}

    def test_negative_max_degree_rejected(self, algebra):
        with pytest.raises(ValueError, match="nonnegative"):
            algebra("S(W) D=6").random_batch(np.random.default_rng(0), 4, -1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SymTower(VerObject.simple(5, 2), -1),
        lambda: repzp.sym_power(repzp.jordan_module(5, [2]), -1),
        lambda: svec2.DGradedAlgebra(svec2.module_w(), -1),
        lambda: svec2.DGradedAlgebra(svec2.trivial(0), -1),
    ],
    ids=["SymTower", "sym_power", "DGradedAlgebra", "DGradedAlgebra-zero"],
)
def test_negative_degree_rejected(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build()


def test_hot_products_run_on_the_exact_kernel(monkeypatch):
    # element products (`contract_mod` as graded imports it, the kernel
    # behind mul) and tower products (mu, and the precomposition of
    # SymTower._build_degree) form their mod-p products through the
    # exactlin kernels, with unchanged answers
    calls, contractions = [], []

    def counted(a, b, p):
        calls.append(p)
        return exactlin.matmul_mod(a, b, p)

    def counted_contractions(pairs, p):
        contractions.append(p)
        return exactlin.contract_mod(pairs, p)

    for module in (graded, verlinde):
        monkeypatch.setattr(module, "matmul_mod", counted)
    monkeypatch.setattr(graded, "contract_mod", counted_contractions)
    w1 = svec2.direct_sum(svec2.module_w(), svec2.trivial(1))
    report = svec2.fourth_power_checks(w1, 8, 20, 0)
    assert calls and set(calls) == {2}
    assert contractions and set(contractions) == {2}
    names = ("d_square_zero", "d_of_fourth_power", "fourth_power_central")
    names += ("product_fourth_power", "sum_fourth_power", "square_rule")
    assert report == dict.fromkeys(names, True)
    calls.clear()
    mu = SymTower(VerObject(5, (1, 1, 0, 0)), 6).mu(2, 3)
    assert calls and set(calls) == {5}
    # the answer formed by int64 products before the kernel took them
    assert mu.dtype == np.int64 and mu.shape == (10, 60)
    assert hashlib.sha256(mu.tobytes()).hexdigest()[:16] == "bf27e5d217fc36e9"


def _int_induced(q, keep, a, b, p):
    """`graded.induced` by its defining formula, q (a (x) b) on the kept
    columns, in Python integers."""
    rows_a, rows_b, cols_b = a.shape[0], b.shape[0], b.shape[1]
    out = []
    for s in range(q.shape[0]):
        row = []
        for col in keep.tolist():
            u, x = divmod(col, cols_b)
            terms = (
                int(q[s, i * rows_b + y]) * int(a[i, u]) * int(b[y, x])
                for i in range(rows_a)
                for y in range(rows_b)
            )
            row.append(sum(terms) % p)
        out.append(row)
    return out


class TestResidueProducts:
    """The products `graded` forms through `exactlin.matmul_mod`, against
    Python-integer evaluations of their formulas, on both of its paths."""

    @pytest.mark.parametrize("p", [2, 11, 65537])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_induced_matches_python_integers(self, p, side):
        # (S' x U'X') @ (U'X' x kept) multiply-adds, either side of TINY_MADDS
        dims = (3, 3, 2, 2, 2, 3) if side == "below" else (16, 8, 6, 6, 5, 30)
        ds, du2, du, dx2, dx, kept = dims
        rng = np.random.default_rng(p + kept)
        q = rng.integers(0, p, (ds, du2 * dx2))
        a, b = rng.integers(0, p, (du2, du)), rng.integers(0, p, (dx2, dx))
        keep = rng.permutation(du * dx)[:kept]
        madds = ds * du2 * dx2 * kept
        assert (madds < exactlin.TINY_MADDS) == (side == "below")
        got = graded.induced(q, keep, a, b, p)
        assert got.dtype == np.int64 and got.tolist() == _int_induced(q, keep, a, b, p)

    @pytest.mark.parametrize("p", [2, 11, 65537])
    def test_relation_matrix_matches_python_integers(self, monkeypatch, p):
        # the degree-m relation matrix of `QuotientDegrees` is
        # rho[v n + x, u r + c] = sum_y q_(m-1)[v, u n + y] rel[y n + x, c]
        n, r = 4, 3
        rel = np.random.default_rng(p).integers(0, p, (n * n, r))
        seen = []

        def recording(rho, p):
            seen.append(rho.copy())
            return exactlin.cokernel(rho, p)

        monkeypatch.setattr(graded, "cokernel", recording)
        tower = graded.QuotientDegrees(n, p, None, rel)
        tower.grow(4)
        madds = []
        for m, rho in zip(range(2, 5), seen, strict=True):
            q, du = tower.q[m - 1], tower.q[m - 2].shape[0]
            want = [
                [
                    sum(int(q[v, u * n + y]) * int(rel[y * n + x, c]) for y in range(n)) % p
                    for u in range(du)
                    for c in range(r)
                ]
                for v in range(q.shape[0])
                for x in range(n)
            ]
            assert rho.tolist() == want, m
            madds.append(q.size * n * r)
        assert min(madds) < exactlin.TINY_MADDS < max(madds)


def _lists_digest(*lists):
    """sha256 of the shapes and int64 entries of every array in `lists`."""
    h = hashlib.sha256()
    for arrays in lists:
        for a in arrays:
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def test_plain_towers_are_pinned():
    # q and keep, and the induced generator and derivation, of the two plain
    # towers, entry for entry as the int64 products formed them
    # (`test_literal_tower_is_pinned` holds the Ver_p tower)
    j4 = repzp.jordan_module(5, [4])
    tower = repzp._SymDegrees(j4, None)
    tower.grow(8)
    assert np.array_equal(repzp.sym_power(j4, 8).g, tower.g[8])
    digests = [_lists_digest(tower.q, tower.keep), _lists_digest(tower.g)]
    alg = svec2.sym_algebra(svec2.direct_sum(svec2.module_w(), svec2.trivial(1)), 10)
    digests += [_lists_digest(alg.q, alg.keep), _lists_digest(alg.dmat)]
    assert digests == [
        "c460d2c2f4a085083ff5ab13d2c89f7ec59d9faf175bad6799cfa83b462ab666",
        "3bfecfb3152cc8ce821733e38deb9920d2ec7671b45a8ecd64c5b8321d5a48df",
        "d2faa3fd647c4ebe5562d065625e8ff8d9cb2b26692d4dd43f85d8349890d5a1",
        "a49012ad280cbe9f2d05bb73f450a78fbac8188090294c14e07f2be4ecfa35e3",
    ]
