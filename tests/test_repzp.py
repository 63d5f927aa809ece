"""Rep(Z/pZ): Jordan calculus, hom spaces, symmetric powers.

Derived expectations are cross-checked against independent oracles:
the min-formula for hom dimensions, the binomial dimension formula, and
a brute-force tensor-power quotient for small symmetric powers.
"""

import math
import random

import numpy as np
import pytest

from vercat.exactlin import GF, BudgetExceeded, Mat, cokernel, kernel, pivots, rank
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
    f = m.g.field
    while True:
        p_mat = Mat(
            f, [[rng.randrange(m.p) for _ in range(m.dim)] for _ in range(m.dim)]
        )
        if rank(p_mat.a, m.p) == m.dim:
            break
    return ZpModule(m.p, m.dim, p_mat @ m.g @ p_mat.inverse())


def brute_sym_power(p: int, parts, m: int):
    """Independent oracle: S^m as the dense quotient of the full tensor power
    by all adjacent-swap relations at once."""
    x = jordan_module(p, parts)
    f = x.g.field
    n = x.dim
    if m == 0:
        return trivial_module(p, 1)
    g_t = x.g
    for _ in range(m - 1):
        g_t = g_t.kron(x.g)
    rel_cols = []
    eye = Mat.identity(f, n**m)
    for i in range(1, m):
        swap = Mat.zeros(f, n * n, n * n)
        for a in range(n):
            for b in range(n):
                swap.a[b * n + a, a * n + b] = 1
        tau = Mat.identity(f, n ** (i - 1)).kron(swap).kron(
            Mat.identity(f, n ** (m - i - 1))
        )
        rel_cols.append(eye - tau)
    rel = np.hstack([r.a for r in rel_cols])
    rel = rel[:, pivots(rel, p)]  # a basis of the column span
    # the unit vectors at `free` are the coset representatives
    proj, free = cokernel(rel, p)
    return ZpModule(p, len(proj), Mat(f, proj @ g_t.a[:, free]))


class TestJordanModules:
    def test_trivial(self):
        m = jordan_module(5, [1])
        assert m.dim == 1 and m.g == Mat.identity(GF(5), 1)

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
        # the broadcast product keeps Mat.kron's left-factor-slowest order;
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
            assert t.g == a.g.kron(b.g)

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
                t = Mat(a.g.field, t)
                assert t @ a.g == b.g @ t
            if len(hs):
                stacked = Mat(a.g.field, hs.reshape(len(hs), -1).T)
                assert rank(stacked.a, a.p) == len(hs)


class TestFixedPoints:
    def test_trivial(self):
        assert kernel(trivial_module(5, 4).nilpotent().a, 5).shape[1] == 4

    def test_single_block(self):
        for n in (1, 3, 5):
            assert kernel(jordan_module(5, [n]).nilpotent().a, 5).shape[1] == 1

    def test_tensor_square(self):
        t = tensor(jordan_module(3, [2]), jordan_module(3, [2]))
        assert kernel(t.nilpotent().a, 3).shape[1] == 2

    def test_counts_parts(self):
        rng = random.Random(4)
        for _ in range(10):
            p = rng.choice((3, 5, 7))
            parts = sorted(
                (rng.randint(1, p) for _ in range(rng.randint(1, 4))), reverse=True
            )
            m = jordan_module(p, parts)
            assert kernel(m.nilpotent().a, p).shape[1] == len(parts)


class TestBraiding:
    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(100):
            p = rng.choice((3, 5, 7))
            a = jordan_module(p, [rng.randint(1, p)])
            b = jordan_module(p, [rng.randint(1, p), rng.randint(1, p)])
            c_ab = braiding(a, b)
            c_ba = braiding(b, a)
            assert c_ba @ c_ab == Mat.identity(GF(p), a.dim * b.dim)

    def test_intertwines(self):
        a = jordan_module(5, [2])
        b = jordan_module(5, [3])
        c = braiding(a, b)
        assert c @ a.g.kron(b.g) == b.g.kron(a.g) @ c


class TestSymPower:
    def test_degree_one_is_module(self):
        m = jordan_module(5, [3, 1])
        assert sym_power(m, 1).g == m.g

    def test_degree_zero(self):
        s = sym_power(jordan_module(5, [2]), 0)
        assert s.dim == 1 and s.g == Mat.identity(GF(5), 1)

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
                g_m = np.kron(g_m, mod.g.a)
            assert rank(proj, p) == s.dim
            proj = Mat(GF(p), proj)
            assert proj @ Mat(GF(p), g_m) == s.g @ proj

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
                assert int(np.trace(Mat.identity(GF(p), m.dim).a)) % p == i % p
        # J_p has categorical dimension 0: the hallmark of negligibility
        assert int(np.trace(Mat.identity(GF(5), 5).a)) % 5 == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: ZpModule(3, 2, Mat.identity(GF(3), 3)),
            "generator matrix shape does not match dim",
        ),
        (
            lambda: ZpModule(3, 2, Mat.identity(GF(5), 2)),
            "generator matrix must live over GF(p)",
        ),
        # g = 2 has order 2, which does not divide 3
        (
            lambda: ZpModule(3, 1, Mat(GF(3), [[2]])).validate(),
            "generator is not unipotent of order dividing p",
        ),
    ],
    ids=["shape", "field", "not-unipotent"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
