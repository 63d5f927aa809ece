"""sVec_2: the twisted braiding, d-commutative symmetric algebras, the
non-injectivity witness, and the fourth-power identity suite.

Dimension and invariant tables for S(W) are checked against a dense
tensor-power quotient oracle before being frozen as golden data.
"""

import random

import numpy as np
import pytest

from vercat.exactlin import GF, BudgetExceeded, Mat, quotient_basis
from vercat.svec2 import (
    DGradedAlgebra,
    DModule,
    braiding,
    direct_sum,
    fourth_power_checks,
    injectivity_check,
    invariants_d,
    module_w,
    sym_algebra,
    tensor,
    trivial,
)

F2 = GF(2)

# golden data, frozen after agreeing with the brute-force oracle below
GOLDEN_SW_DIMS = [1, 2, 2, 2, 2, 2, 2, 2, 2]
GOLDEN_SW_INV_DIMS = [1, 1, 2, 1, 2, 1, 2, 1, 2]


def rand_dmodule(rng, dim):
    while True:
        d = Mat(F2, [[rng.randrange(2) for _ in range(dim)] for _ in range(dim)])
        if (d @ d).is_zero():
            return DModule(dim, d)


def brute_degree(x: DModule, m: int):
    """Oracle: S^m(X) as the dense quotient of X^(x)m by all adjacent
    braiding relations, with the induced differential."""
    n = x.dim
    if m == 0:
        return 1, Mat.zeros(F2, 1, 1)
    big_d = x.d
    eye_n = Mat.identity(F2, n)
    for _ in range(m - 1):
        cur = big_d.rows
        big_d = big_d.kron(eye_n) + Mat.identity(F2, cur).kron(x.d)
    rel_cols = []
    c = braiding(x, x)
    eye = Mat.identity(F2, n**m)
    for i in range(1, m):
        tau = Mat.identity(F2, n ** (i - 1)).kron(c).kron(
            Mat.identity(F2, n ** (m - i - 1))
        )
        rel_cols.append(eye + tau)
    rel = (
        Mat.hstack(rel_cols).image_basis()
        if rel_cols
        else Mat.zeros(F2, n**m, 0)
    )
    reps, proj = quotient_basis(eye, rel)
    return proj.rows, proj @ big_d @ reps


class TestDModule:
    def test_d_square_enforced(self):
        with pytest.raises(ValueError):
            DModule(2, Mat(F2, [[0, 1], [1, 0]]))

    def test_d_square_check_matches_dense_product(self):
        rng = random.Random(3)
        for _ in range(300):
            dim = rng.randint(1, 6)
            d = Mat(F2, [[rng.random() < 0.3 for _ in range(dim)] for _ in range(dim)])
            if (d @ d).is_zero():
                DModule(dim, d)
            else:
                with pytest.raises(ValueError):
                    DModule(dim, d)

    def test_w(self):
        w = module_w()
        # d(x) = y, d(y) = 0 in the basis (x, y)
        assert w.d.a[:, 0].tolist() == [0, 1]
        assert w.d.a[:, 1].tolist() == [0, 0]


class TestBraiding:
    def test_plain_swap_when_d_zero(self):
        a, b = trivial(2), trivial(3)
        c = braiding(a, b)
        for i in range(2):
            for j in range(3):
                v = np.zeros(6, dtype=np.int64)
                v[i * 3 + j] = 1
                out = (c.a @ v) % 2
                assert out[j * 2 + i] == 1 and out.sum() == 1

    def test_x_tensor_x(self):
        # c(x (x) x) = x (x) x + y (x) y: the computation behind y^2 = 0
        w = module_w()
        c = braiding(w, w)
        v = np.zeros(4, dtype=np.int64)
        v[0] = 1
        assert ((c.a @ v) % 2).tolist() == [1, 0, 0, 1]

    def test_x_tensor_y(self):
        w = module_w()
        c = braiding(w, w)
        v = np.zeros(4, dtype=np.int64)
        v[1] = 1  # x (x) y
        assert ((c.a @ v) % 2).tolist() == [0, 0, 1, 0]  # y (x) x

    def test_symmetric_on_random_pairs(self):
        rng = random.Random(10)
        for _ in range(100):
            a = rand_dmodule(rng, rng.randint(1, 4))
            b = rand_dmodule(rng, rng.randint(1, 4))
            assert braiding(b, a) @ braiding(a, b) == Mat.identity(
                F2, a.dim * b.dim
            )

    def test_natural_for_intertwiners(self):
        rng = random.Random(20)
        for _ in range(100):
            a = rand_dmodule(rng, rng.randint(1, 3))
            b = rand_dmodule(rng, rng.randint(1, 3))
            # solve for all intertwiners f: a -> a, g: b -> b
            def intertwiners(m):
                eye = Mat.identity(F2, m.dim)
                sys = eye.kron(m.d.T) - m.d.kron(eye)
                ker = sys.kernel_basis()
                return [
                    Mat(F2, ker.a[:, t].reshape(m.dim, m.dim).copy())
                    for t in range(ker.cols)
                ]
            fs, gs = intertwiners(a), intertwiners(b)
            f = fs[rng.randrange(len(fs))]
            g = gs[rng.randrange(len(gs))]
            c = braiding(a, b)
            assert g.kron(f) @ c == c @ f.kron(g)


class TestTensor:
    def test_unit(self):
        w = module_w()
        t = tensor(w, trivial(1))
        assert t.dim == 2 and t.d == w.d

    def test_w_tensor_w_rank(self):
        t = tensor(module_w(), module_w())
        assert t.d.rank() == 2

    def test_d_square_zero_random(self):
        rng = random.Random(30)
        for _ in range(50):
            a = rand_dmodule(rng, rng.randint(1, 3))
            b = rand_dmodule(rng, rng.randint(1, 3))
            t = tensor(a, b)  # constructor asserts d^2 = 0
            assert (t.d @ t.d).is_zero()


class TestSymAlgebra:
    def test_classical_when_d_zero(self):
        import math

        for dim in (1, 2, 3):
            alg = sym_algebra(trivial(dim), 5)
            for m in range(6):
                assert alg.dims[m] == math.comb(dim + m - 1, m)

    def test_sw_degree_two(self):
        alg = sym_algebra(module_w(), 4)
        assert alg.dims[2] == 2
        # y * y = 0 while x * x and x * y survive
        y = alg.from_vector(1, [0, 1])
        x = alg.from_vector(1, [1, 0])
        assert alg.mul(y, y) == {}
        assert alg.mul(x, x) != {}
        assert alg.mul(x, y) != {}

    def test_golden_dims_against_oracle(self):
        w = module_w()
        alg = sym_algebra(w, 8)
        assert alg.dims == GOLDEN_SW_DIMS
        for m in range(5):
            dim, _ = brute_degree(w, m)
            assert alg.dims[m] == dim

    def test_sw_plus_unit_dims(self):
        alg = sym_algebra(direct_sum(module_w(), trivial(1)), 8)
        assert alg.dims == [1, 3, 5, 7, 9, 11, 13, 15, 17]
        for m in range(4):
            dim, _ = brute_degree(direct_sum(module_w(), trivial(1)), m)
            assert alg.dims[m] == dim

    def test_d_is_derivation_squaring_to_zero(self):
        rng = random.Random(40)
        alg = sym_algebra(module_w(), 6)
        for _ in range(30):
            a = alg.random_element(rng, 3)
            b = alg.random_element(rng, 3)
            lhs = alg.dmap(alg.mul(a, b))
            rhs = alg.add(
                alg.mul(alg.dmap(a), b), alg.mul(a, alg.dmap(b))
            )
            assert alg.equal(lhs, rhs)
            assert alg.dmap(alg.dmap(a)) == {}

    def test_d_commutativity_all_basis_pairs(self):
        for mod in (module_w(), direct_sum(module_w(), trivial(1))):
            alg = sym_algebra(mod, 6)
            for da in range(1, 4):
                for db in range(1, 4):
                    for ka in range(alg.dims[da]):
                        for kb in range(alg.dims[db]):
                            ea = np.zeros(alg.dims[da], dtype=np.int64)
                            ea[ka] = 1
                            eb = np.zeros(alg.dims[db], dtype=np.int64)
                            eb[kb] = 1
                            a = alg.from_vector(da, ea)
                            b = alg.from_vector(db, eb)
                            comm = alg.add(alg.mul(a, b), alg.mul(b, a))
                            dd = alg.mul(alg.dmap(a), alg.dmap(b))
                            assert alg.equal(comm, dd)


class TestInjectivity:
    def test_identity_inclusion(self):
        w = module_w()
        assert injectivity_check(w, w, Mat.identity(F2, 2), 5) is None

    def test_y_line_fails_at_two(self):
        u = trivial(1)
        incl = Mat(F2, [[0], [1]])
        assert injectivity_check(u, module_w(), incl, 5) == 2

    def test_y_line_in_w_plus_unit(self):
        u = trivial(1)
        amb = direct_sum(module_w(), trivial(1))
        incl = Mat(F2, [[0], [1], [0]])
        assert injectivity_check(u, amb, incl, 5) == 2

    def test_degree_one_injective(self):
        # the failure appears at degree exactly 2, nowhere below
        u = trivial(1)
        incl = Mat(F2, [[0], [1]])
        assert injectivity_check(u, module_w(), incl, 1) is None

    def test_rejects_non_intertwiner(self):
        u = trivial(1)
        incl = Mat(F2, [[1], [0]])  # maps onto x, but d(x) != 0
        with pytest.raises(ValueError):
            injectivity_check(u, module_w(), incl, 3)

    def test_rejects_non_injective(self):
        u = trivial(1)
        incl = Mat(F2, [[0], [0]])
        with pytest.raises(ValueError):
            injectivity_check(u, module_w(), incl, 3)


class TestFourthPower:
    def test_spec_trial_run(self):
        rep = fourth_power_checks(module_w(), 8, 200, 7)
        for name, val in rep.items():
            if name in ("trials", "seed"):
                continue
            assert val, name

    def test_full_dim3_grid(self):
        # every DModule of dim <= 3 up to isomorphism
        grid = [
            trivial(1),
            trivial(2),
            trivial(3),
            module_w(),
            direct_sum(module_w(), trivial(1)),
        ]
        for mod in grid:
            rep = fourth_power_checks(mod, 8, 50, 3)
            assert all(v for k, v in rep.items() if k not in ("trials", "seed"))

    def test_invariant_square_rule_collapses(self):
        # d(a) = 0 makes (ab)^2 = a^2 b^2 on the nose
        alg = sym_algebra(module_w(), 8)
        a = alg.from_vector(1, [0, 1])  # y is invariant
        rng = random.Random(5)
        for _ in range(20):
            b = alg.random_element(rng, 2)
            lhs = alg.power(alg.mul(a, b), 2)
            rhs = alg.mul(alg.power(a, 2), alg.power(b, 2))
            assert alg.equal(lhs, rhs)

    def test_x_fourth_power(self):
        alg = sym_algebra(module_w(), 8)
        x = alg.from_vector(1, [1, 0])
        x4 = alg.power(x, 4)
        assert x4 != {}
        assert alg.dmap(x4) == {}

    def test_requires_depth(self):
        with pytest.raises(ValueError):
            fourth_power_checks(module_w(), 3, 5, 0)

    def test_flipped_product_entry_fails_three_identities(self, monkeypatch):
        # negative control: x * y in S^2(W) gains a wrong coordinate
        table = DGradedAlgebra.product_table

        def flipped(self, a, b):
            t = table(self, a, b)
            if (a, b) == (1, 1):
                t = t.copy()
                t[0, 1, 0] ^= 1
            return t

        monkeypatch.setattr(DGradedAlgebra, "product_table", flipped)
        rep = fourth_power_checks(module_w(), 8, 200, 7)
        failed = {k for k, v in rep.items() if v is False}
        assert failed == {"product_fourth_power", "sum_fourth_power", "square_rule"}

    def test_trial_batch_is_budgeted_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("elements drawn before the batch budget check")

        monkeypatch.setattr(DGradedAlgebra, "random_element", no_draws)
        with pytest.raises(BudgetExceeded, match="batch of 100000000 trials"):
            fourth_power_checks(module_w(), 8, 10**8, 0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_requires_a_trial(self, trials):
        # zero trials would report every identity as passing
        with pytest.raises(ValueError, match="trial"):
            fourth_power_checks(module_w(), 8, trials, 0)


class TestInvariantsD:
    def test_degree_zero(self):
        alg = sym_algebra(module_w(), 6)
        inv = invariants_d(alg)
        assert inv[0].cols == 1

    def test_golden_dims_sw(self):
        alg = sym_algebra(module_w(), 8)
        inv = invariants_d(alg)
        assert [b.cols for b in inv] == GOLDEN_SW_INV_DIMS
        # independent check against the oracle differential
        for m in range(5):
            dim, dmat = brute_degree(module_w(), m)
            assert inv[m].cols == dim - dmat.rank()

    def test_invariants_form_subalgebra(self):
        alg = sym_algebra(module_w(), 6)
        inv = invariants_d(alg)
        for a_deg in range(1, 3):
            for b_deg in range(1, 3):
                for i in range(inv[a_deg].cols):
                    for j in range(inv[b_deg].cols):
                        a = alg.from_vector(a_deg, inv[a_deg].a[:, i])
                        b = alg.from_vector(b_deg, inv[b_deg].a[:, j])
                        assert alg.dmap(alg.mul(a, b)) == {}

    def test_fourth_powers_invariant(self):
        alg = sym_algebra(module_w(), 8)
        rng = random.Random(9)
        for _ in range(20):
            a = alg.random_element(rng, 2)
            assert alg.dmap(alg.power(a, 4)) == {}
