"""Rep(Z/pZ): Jordan calculus, hom spaces, symmetric powers.

Derived expectations are cross-checked against independent oracles:
the min-formula for hom dimensions, the binomial dimension formula, and
a brute-force tensor-power quotient for small symmetric powers.
"""

import math
import random

import numpy as np
import pytest

from vercat.exactlin import BudgetExceeded, cokernel, kernel, matmul_mod, pivots, rank, solve_array
from vercat.graded import QuotientDegrees, swap
from vercat.repzp import (
    ZpModule,
    braiding,
    direct_sum,
    dual,
    hom_stack,
    jordan_module,
    jordan_type,
    sym_power,
    tensor,
    trivial_module,
)


def rand_conjugate(rng, m: ZpModule) -> ZpModule:
    """The same module in a scrambled basis."""
    while True:
        p_mat = np.array([[rng.randrange(m.p) for _ in range(m.dim)] for _ in range(m.dim)])
        if rank(p_mat, m.p) == m.dim:
            break
    p_inv = solve_array(p_mat, np.eye(m.dim, dtype=np.int64), m.p)
    return ZpModule(m.p, matmul_mod(matmul_mod(p_mat, m.g, m.p), p_inv, m.p))


def brute_sym_power(p: int, parts, m: int):
    """Independent oracle: S^m as the dense quotient of the full tensor power
    by all adjacent-swap relations at once."""
    x = jordan_module(p, parts)
    n = x.dim
    if m == 0:
        return trivial_module(p, 1)
    g_t = x.g
    for _ in range(m - 1):
        g_t = np.kron(g_t, x.g) % p
    rel_cols = []
    eye = np.eye(n**m, dtype=np.int64)
    for i in range(1, m):
        swap = np.zeros((n * n, n * n), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                swap[b * n + a, a * n + b] = 1
        tau = np.kron(np.kron(np.eye(n ** (i - 1), dtype=np.int64), swap),
                      np.eye(n ** (m - i - 1), dtype=np.int64))
        rel_cols.append((eye - tau) % p)
    rel = np.hstack(rel_cols)
    rel = rel[:, pivots(rel, p)]  # a basis of the column span
    # the unit vectors at `free` are the coset representatives
    proj, free = cokernel(rel, p)
    return ZpModule(p, matmul_mod(proj, g_t[:, free], p))


class TestJordanModules:
    def test_trivial(self):
        m = jordan_module(5, [1])
        assert m.dim == 1 and m.g.tolist() == [[1]]

    def test_regular(self):
        m = jordan_module(5, [5])
        m.validate()
        assert jordan_type(m) == (5,)

    def test_round_trip(self):
        assert jordan_type(jordan_module(3, [2, 1])) == (2, 1)

    def test_part_out_of_range(self):
        with pytest.raises(ValueError):
            jordan_module(5, [6])

    def test_round_trip_all_partitions_up_to_12(self):
        def partitions(n, largest):
            if n == 0:
                yield ()
                return
            for first in range(min(n, largest), 0, -1):
                for rest in partitions(n - first, first):
                    yield (first,) + rest

        for p in (2, 3, 5, 7):
            for size in range(1, 13):
                for lam in partitions(size, p):
                    assert jordan_type(jordan_module(p, lam)) == lam

    def test_jordan_type_of_trivial(self):
        assert jordan_type(trivial_module(5, 3)) == (1, 1, 1)

    def test_jordan_type_basis_independent(self):
        rng = random.Random(1)
        for _ in range(10):
            parts = sorted(
                (rng.randint(1, 5) for _ in range(rng.randint(1, 3))), reverse=True
            )
            m = jordan_module(5, parts)
            assert jordan_type(rand_conjugate(rng, m)) == tuple(parts)


class TestTensorSumDual:
    def test_unit(self):
        a = jordan_module(5, [3, 2])
        assert jordan_type(tensor(a, trivial_module(5))) == jordan_type(a)

    def test_j2_j2_p5(self):
        t = tensor(jordan_module(5, [2]), jordan_module(5, [2]))
        assert jordan_type(t) == (3, 1)

    def test_j3_j5_p7(self):
        t = tensor(jordan_module(7, [3]), jordan_module(7, [5]))
        assert jordan_type(t) == (7, 5, 3)

    def test_tensor_commutative_on_types(self):
        rng = random.Random(2)
        for p in (3, 5):
            for _ in range(10):
                a = jordan_module(p, [rng.randint(1, p)])
                b = jordan_module(p, [rng.randint(1, p), rng.randint(1, p)])
                assert jordan_type(tensor(a, b)) == jordan_type(tensor(b, a))

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            tensor(jordan_module(3, [2]), jordan_module(5, [2]))

    def test_tensor_generator_is_kron(self):
        # the broadcast product keeps np.kron's left-factor-slowest order;
        # duals give generators with entries off the two diagonals
        rng = random.Random(17)
        for _ in range(40):
            p = rng.choice((2, 3, 5, 7, 13))
            a, b = (
                jordan_module(p, [rng.randint(1, p) for _ in range(rng.randint(1, 3))])
                for _ in range(2)
            )
            if rng.random() < 0.5:
                a = dual(a)
            if rng.random() < 0.5:
                b = dual(b)
            t = tensor(a, b)
            assert t.dim == a.dim * b.dim
            assert np.array_equal(t.g, np.kron(a.g, b.g) % p)

    def test_direct_sum(self):
        s = direct_sum(jordan_module(5, [3]), jordan_module(5, [2, 1]))
        assert jordan_type(s) == (3, 2, 1)

    def test_dual_preserves_type_and_is_unipotent(self):
        for p, parts in ((3, [2, 1]), (5, [4, 2]), (7, [7, 3])):
            m = jordan_module(p, parts)
            d = dual(m)
            d.validate()
            assert jordan_type(d) == jordan_type(m)


class TestHomStack:
    def test_end_of_unit(self):
        assert len(hom_stack(trivial_module(5), trivial_module(5))) == 1

    def test_min_formula_single_blocks(self):
        assert len(hom_stack(jordan_module(5, [2]), jordan_module(5, [3]))) == 2

    def test_min_formula_sum(self):
        assert len(hom_stack(jordan_module(3, [2, 1]), jordan_module(3, [2]))) == 3

    def test_basis_intertwines_and_independent(self):
        rng = random.Random(3)
        for _ in range(10):
            p = rng.choice((3, 5))
            a = jordan_module(p, [rng.randint(1, p), rng.randint(1, p)])
            b = jordan_module(p, [rng.randint(1, p)])
            hs = hom_stack(a, b)
            want = sum(
                min(x, y) for x in jordan_type(a) for y in jordan_type(b)
            )
            assert len(hs) == want
            for t in hs:
                assert np.array_equal(matmul_mod(t, a.g, p), matmul_mod(b.g, t, p))
            if len(hs):
                assert rank(hs.reshape(len(hs), -1).T, a.p) == len(hs)


class TestFixedPoints:
    def test_trivial(self):
        assert kernel(trivial_module(5, 4).nilpotent(), 5).shape[1] == 4

    def test_single_block(self):
        for n in (1, 3, 5):
            assert kernel(jordan_module(5, [n]).nilpotent(), 5).shape[1] == 1

    def test_tensor_square(self):
        t = tensor(jordan_module(3, [2]), jordan_module(3, [2]))
        assert kernel(t.nilpotent(), 3).shape[1] == 2

    def test_counts_parts(self):
        rng = random.Random(4)
        for _ in range(10):
            p = rng.choice((3, 5, 7))
            parts = sorted(
                (rng.randint(1, p) for _ in range(rng.randint(1, 4))), reverse=True
            )
            m = jordan_module(p, parts)
            assert kernel(m.nilpotent(), p).shape[1] == len(parts)


class TestBraiding:
    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(100):
            p = rng.choice((3, 5, 7))
            a = jordan_module(p, [rng.randint(1, p)])
            b = jordan_module(p, [rng.randint(1, p), rng.randint(1, p)])
            c_ab = braiding(a, b)
            c_ba = braiding(b, a)
            assert np.array_equal(matmul_mod(c_ba, c_ab, p), np.eye(a.dim * b.dim))

    def test_intertwines(self):
        a = jordan_module(5, [2])
        b = jordan_module(5, [3])
        c = braiding(a, b)
        lhs = matmul_mod(c, np.kron(a.g, b.g) % 5, 5)
        assert np.array_equal(lhs, matmul_mod(np.kron(b.g, a.g) % 5, c, 5))


class TestSymPower:
    def test_degree_one_is_module(self):
        m = jordan_module(5, [3, 1])
        assert np.array_equal(sym_power(m, 1).g, m.g)

    def test_degree_zero(self):
        s = sym_power(jordan_module(5, [2]), 0)
        assert s.dim == 1 and s.g.tolist() == [[1]]

    def test_binomial_dimension_grid(self):
        # dim S^m(J_n) = C(n+m-1, n-1) across the grid (block sizes capped at p)
        for p in (3, 5, 7):
            for n in range(1, min(4, p) + 1):
                for m in range(0, 7):
                    s = sym_power(jordan_module(p, [n]), m)
                    assert s.dim == math.comb(n + m - 1, n - 1), (p, n, m)

    def test_s2_j2_p5(self):
        s = sym_power(jordan_module(5, [2]), 2)
        assert jordan_type(s) == (3,)

    def test_s4_j2_p5_wholly_negligible(self):
        s = sym_power(jordan_module(5, [2]), 4)
        assert jordan_type(s) == (5,)

    def test_matches_brute_force_quotient(self):
        for p, parts, m in [
            (3, [2], 2),
            (3, [2], 3),
            (3, [2, 1], 2),
            (5, [2], 3),
            (5, [3], 2),
            (5, [2, 2], 2),
            (7, [3], 3),
        ]:
            fast = sym_power(jordan_module(p, parts), m)
            slow = brute_sym_power(p, parts, m)
            assert fast.dim == slow.dim
            assert jordan_type(fast) == jordan_type(slow)

    def test_projection_surjective_and_intertwines(self):
        # proj_k = q_k (proj_(k-1) (x) 1_X): X^(x)m -> S^m on the tower
        # sym_power builds; its q depends only on the relation span
        for p, n, m in [(5, 2, 3), (3, 2, 2), (7, 3, 2)]:
            mod = jordan_module(p, [n])
            s = sym_power(mod, m)
            rel = (np.eye(n * n, dtype=np.int64) - swap(n, n)) % p
            tower = QuotientDegrees(n, p, None, rel)
            tower.grow(m)
            q = tower.q
            proj = np.ones((1, 1), dtype=np.int64)
            g_m = np.ones((1, 1), dtype=np.int64)
            for k in range(1, m + 1):
                proj = q[k] @ np.kron(proj, np.eye(n, dtype=np.int64)) % p
                g_m = np.kron(g_m, mod.g)
            assert rank(proj, p) == s.dim
            assert np.array_equal(matmul_mod(proj, g_m % p, p), matmul_mod(s.g, proj, p))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            sym_power(jordan_module(5, [4]), 12, max_entries=1000)

    def test_unipotence_of_quotient(self):
        s = sym_power(jordan_module(5, [2, 1]), 3)
        s.validate()


class TestCategoricalDimension:
    def test_trace_of_identity(self):
        for p in (3, 5, 7):
            for i in range(1, p + 1):
                m = jordan_module(p, [i])
                assert int(np.trace(np.eye(m.dim, dtype=np.int64))) % p == i % p
        # J_p has categorical dimension 0: the hallmark of negligibility
        assert int(np.trace(np.eye(5, dtype=np.int64))) % 5 == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: ZpModule(3, np.ones((3, 2), dtype=np.int64)),
            "generator matrix must be square",
        ),
        (
            lambda: ZpModule(4, np.eye(2, dtype=np.int64)),
            "characteristic must be a prime <= 65537, got 4",
        ),
        # g = 2 has order 2, which does not divide 3
        (
            lambda: ZpModule(3, [[2]]).validate(),
            "generator is not unipotent of order dividing p",
        ),
    ],
    ids=["shape", "prime", "not-unipotent"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("p", [2, 5, 65537])
class TestArrayConstructor:
    """`ZpModule` reads its generator once into a read-only int64 array
    of residues mod p: every integer dtype and Python integers of any
    size reduce exactly, and nothing else is accepted."""

    @pytest.mark.parametrize(
        "raw",
        [
            [[-1, -(2**62)], [3 * 65537 + 4, 2**40]],
            np.array([[-128, 127], [-1, 0]], dtype=np.int8),
            np.array([[2**64 - 1, 2**63], [2**63 + 5, 0]], dtype=np.uint64),
            np.array([[10**30 + 1, -(10**40)], [7, -(2**100)]], dtype=object),
        ],
        ids=["negative-and-large", "int8", "uint64", "object"],
    )
    def test_entries_reduce_exactly(self, p, raw):
        want = [[int(x) % p for x in row] for row in np.asarray(raw).tolist()]
        m = ZpModule(np.int32(p), raw)
        assert type(m.p) is int and m.p == p and m.dim == 2
        assert m.g.dtype == np.int64 and m.g.tolist() == want
        assert not m.g.flags.writeable

    def test_reads_its_input_once(self, p):
        raw = np.eye(3, dtype=np.int64)
        m = ZpModule(p, raw)
        raw[0, 1] = 1
        assert m.g.tolist() == np.eye(3, dtype=np.int64).tolist()

    @pytest.mark.parametrize(
        "raw, message",
        [
            (np.eye(2), "floating point entries are not allowed"),
            ([[1.0, 0], [0, 1]], "floating point entries are not allowed"),
            (np.array([[1, 0.5], [0, 1]], dtype=object), "entries must be integers"),
            (np.array([["1", 0], [0, 1]], dtype=object), "entries must be integers"),
            (np.ones((2, 3), dtype=np.int64), "generator matrix must be square"),
            ([1, 0], "generator matrix must be square"),
        ],
        ids=["float64", "float-list", "object-half", "object-str", "2x3", "vector"],
    )
    def test_rejects(self, p, raw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ZpModule(p, raw)


class TestHomStackBudget:
    """The (a.dim b.dim)^2-entry intertwining system is charged against
    the default budget, 2^20 entries, before it is formed."""

    def test_32_dimensional_modules_answer(self):
        hs = hom_stack(trivial_module(2, 32), trivial_module(2, 32))
        assert hs.shape == (1024, 32, 32)

    def test_33_dimensional_modules_raise(self):
        # (33 * 33)^2 = 1,185,921 entries, over 2^20 = 1,048,576
        message = "^intertwining system of hom_stack needs 1185921 .*, budget is 1048576;"
        with pytest.raises(BudgetExceeded, match=message):
            hom_stack(trivial_module(5, 33), jordan_module(5, [5] * 6 + [3]))
