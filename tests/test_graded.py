"""The shared graded engine: one swap for every braiding, powers by
repeated squaring, element arithmetic batched over a leading trial axis,
and degree validation at every tower entry point."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercat import graded, repzp, svec2
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
            assert np.array_equal(repzp.braiding(a, b).a, s)
            # at d = 0 the sVec_2 braiding is the plain swap
            c = svec2.braiding(svec2.trivial(da), svec2.trivial(db))
            assert np.array_equal(c.a, s)
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
            (2, (eye + svec2.braiding(w1, w1).a) % 2),
        ]
        for p, rel in rels:
            q, lift = graded.quotient_tower(rel, n, 5, p)
            for m in range(6):
                assert np.array_equal(q[m] @ lift[m] % p, np.eye(q[m].shape[0])), (p, m)
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


class TestTowerBudget:
    def test_relation_matrix_budget_names_the_degree(self):
        # degree m relations fill (dim S^(m-1) * n) x (dim S^(m-2) * n^2):
        # 125,440 entries at m = 6 fit 4^9, 301,056 at m = 7 do not
        n, p = 4, 5
        rel = (np.eye(n * n, dtype=np.int64) - graded.swap(n, n)) % p
        with pytest.raises(BudgetExceeded, match=r"matrix of S\^7 needs 301056 "):
            graded.quotient_tower(rel, n, 9, p, max_entries=4**9)

    def test_sym_power_stops_below_the_requested_degree(self, monkeypatch):
        # every projection X^(x)k -> S^k is checked before the tower is built
        def no_tower(*args):
            raise AssertionError("tower built before the projection budget check")

        monkeypatch.setattr(repzp, "quotient_tower", no_tower)
        with pytest.raises(BudgetExceeded, match=r"projection onto S\^6 "):
            repzp.sym_power(repzp.jordan_module(5, [4]), 9, max_entries=4**9)

    def test_dgraded_algebra_budget(self):
        # dim X^2 = 16 fits the budget; the 16 x 16 degree-2 relations do not
        w2 = svec2.direct_sum(svec2.module_w(), svec2.module_w())
        with pytest.raises(BudgetExceeded, match=r"relation matrix of S\^2 "):
            svec2.sym_algebra(w2, 2, max_entries=100)


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
        rng = random.Random(11)
        for _ in range(10):
            u = alg.random_element(rng, 1)
            acc = alg.one()
            for k in range(10):
                assert alg.equal(alg.power(u, k), acc), k
                acc = alg.mul(acc, u)

    def test_invariant_power_is_iterated_mul(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        rng = random.Random(12)
        for _ in range(10):
            u = alg.random_element(rng, 2)
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


@functools.lru_cache(maxsize=None)
def algebra(label: str):
    return ALGEBRAS[label]()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(ALGEBRAS)),
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.integers(0, 5),
)
def test_batched_arithmetic_is_rowwise(label, seed, trials, k):
    # every operation on stack(elems) is the stack of its per-element results
    alg = algebra(label)
    rng = random.Random(seed)
    us = [alg.random_element(rng, 2, homogeneous=rng.random() < 0.5) for _ in range(trials)]
    vs = [alg.random_element(rng, 2, homogeneous=rng.random() < 0.5) for _ in range(trials)]
    u, v = alg.stack(us), alg.stack(vs)

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
        rng = random.Random(3)
        elems = [alg.random_element(rng, 2) for _ in range(9)]
        other = elems[:-1] + [alg.add(elems[-1], alg.from_vector(1, [0, 0, 1]))]
        assert alg.equal(alg.stack(elems), alg.stack(elems))
        assert not alg.equal(alg.stack(elems), alg.stack(other))
        assert not alg.equal(alg.power(alg.stack(other), 1), alg.stack(elems))

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
            got = graded.contract(ca, cb, table, p)
            assert got.tolist() == python_int_contract(ca, cb, table, p)
            # a vector broadcasts against the other factor's batch
            got = graded.contract(ca[0], cb, table, p)
            want = python_int_contract(np.broadcast_to(ca[0], ca.shape), cb, table, p)
            assert got.tolist() == want

    def test_batch_budget_counts_trials_times_widest_pair(self):
        # S(W) to depth 8 has dims 1, 2, 2, ...: the widest pair is 2 x 2
        alg = svec2.sym_algebra(svec2.module_w(), 8)
        alg.check_batch(250, max_entries=1000)
        with pytest.raises(BudgetExceeded, match="batch of 251 trials needs 1004 "):
            alg.check_batch(251, max_entries=1000)


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
