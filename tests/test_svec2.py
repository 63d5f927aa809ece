"""sVec_2: the twisted braiding, d-commutative symmetric algebras, the
non-injectivity witness, and the fourth-power identity suite.

Dimension and invariant tables for S(W) are checked against a dense
tensor-power quotient oracle before being frozen as golden data.
"""

import random

import numpy as np
import pytest

from vercat import exactlin, graded
from vercat.exactlin import BudgetExceeded, cokernel, kernel, matmul_mod, pivots, rank
from vercat.svec2 import (
    DGradedAlgebra,
    DModule,
    braiding,
    direct_sum,
    fourth_power_checks,
    injectivity_check,
    invariants_d,
    module_w,
    random_dmodule,
    sym_algebra,
    tensor,
    trivial,
)

# golden data, frozen after agreeing with the brute-force oracle below
GOLDEN_SW_DIMS = [1, 2, 2, 2, 2, 2, 2, 2, 2]
GOLDEN_SW_INV_DIMS = [1, 1, 2, 1, 2, 1, 2, 1, 2]


def rand_dmodule(rng, dim):
    while True:
        d = np.array([[rng.randrange(2) for _ in range(dim)] for _ in range(dim)])
        if not (d @ d % 2).any():
            return DModule(d)


def eye(n):
    return np.eye(n, dtype=np.int64)


def brute_degree(x: DModule, m: int):
    """Oracle: S^m(X) as the dense quotient of X^(x)m by all adjacent
    braiding relations, with the induced differential."""
    n = x.dim
    if m == 0:
        return 1, np.zeros((1, 1), dtype=np.int64)
    big_d = x.d
    for _ in range(m - 1):
        big_d = (np.kron(big_d, eye(n)) + np.kron(eye(len(big_d)), x.d)) % 2
    rel_cols = []
    c = braiding(x, x)
    for i in range(1, m):
        tau = np.kron(np.kron(eye(n ** (i - 1)), c), eye(n ** (m - i - 1)))
        rel_cols.append((eye(n**m) + tau) % 2)
    rel = np.hstack(rel_cols) if rel_cols else np.zeros((n**m, 0), dtype=np.int64)
    rel = rel[:, pivots(rel, 2)]  # a basis of the column span
    # the unit vectors at `free` are the coset representatives
    proj, free = cokernel(rel, 2)
    return len(proj), matmul_mod(proj, big_d[:, free], 2)


class TestDModule:
    def test_d_square_enforced(self):
        with pytest.raises(ValueError):
            DModule([[0, 1], [1, 0]])

    def test_d_square_check_matches_dense_product(self):
        rng = random.Random(3)
        for _ in range(300):
            dim = rng.randint(1, 6)
            # a bool array, read as 0 and 1
            d = np.array([[rng.random() < 0.3 for _ in range(dim)] for _ in range(dim)])
            if not (d.astype(np.int64) @ d % 2).any():
                DModule(d)
            else:
                with pytest.raises(ValueError):
                    DModule(d)

    def test_w(self):
        w = module_w()
        # d(x) = y, d(y) = 0 in the basis (x, y)
        assert w.d[:, 0].tolist() == [0, 1]
        assert w.d[:, 1].tolist() == [0, 0]


class TestRandomDModule:
    @pytest.mark.parametrize("dim, count", [(2, 4), (3, 22)])
    def test_reaches_every_square_zero_matrix(self, dim, count):
        every = set()
        for bits in range(2 ** (dim * dim)):
            d = np.array([(bits >> t) & 1 for t in range(dim * dim)]).reshape(dim, dim)
            if not (d @ d % 2).any():
                every.add(d.tobytes())
        rng = np.random.default_rng(0)
        drawn = {random_dmodule(rng, dim).d.tobytes() for _ in range(1000)}
        assert len(every) == count and drawn == every


class TestBraiding:
    def test_plain_swap_when_d_zero(self):
        a, b = trivial(2), trivial(3)
        c = braiding(a, b)
        for i in range(2):
            for j in range(3):
                v = np.zeros(6, dtype=np.int64)
                v[i * 3 + j] = 1
                out = (c @ v) % 2
                assert out[j * 2 + i] == 1 and out.sum() == 1

    def test_x_tensor_x(self):
        # c(x (x) x) = x (x) x + y (x) y: the computation behind y^2 = 0
        w = module_w()
        c = braiding(w, w)
        v = np.zeros(4, dtype=np.int64)
        v[0] = 1
        assert ((c @ v) % 2).tolist() == [1, 0, 0, 1]

    def test_x_tensor_y(self):
        w = module_w()
        c = braiding(w, w)
        v = np.zeros(4, dtype=np.int64)
        v[1] = 1  # x (x) y
        assert ((c @ v) % 2).tolist() == [0, 0, 1, 0]  # y (x) x

    def test_rows_reordered_as_the_swap_matrix_permutes_them(self):
        # c = swap (1 + d (x) d), the swap applied by reordering rows
        rng = np.random.default_rng(30)
        for _ in range(50):
            a, b = (random_dmodule(rng, int(dim)) for dim in rng.integers(0, 5, size=2))
            r_action = np.eye(a.dim * b.dim, dtype=np.int64) + np.kron(a.d, b.d)
            want = graded.swap(a.dim, b.dim) @ r_action % 2
            assert np.array_equal(braiding(a, b), want), (a.dim, b.dim)

    def test_symmetric_on_random_pairs(self):
        rng = random.Random(10)
        for _ in range(100):
            a = rand_dmodule(rng, rng.randint(1, 4))
            b = rand_dmodule(rng, rng.randint(1, 4))
            c = matmul_mod(braiding(b, a), braiding(a, b), 2)
            assert np.array_equal(c, eye(a.dim * b.dim))

    def test_natural_for_intertwiners(self):
        rng = random.Random(20)
        for _ in range(100):
            a = rand_dmodule(rng, rng.randint(1, 3))
            b = rand_dmodule(rng, rng.randint(1, 3))
            # solve for all intertwiners f: a -> a, g: b -> b
            def intertwiners(m):
                ker = kernel(np.kron(eye(m.dim), m.d.T) - np.kron(m.d, eye(m.dim)), 2)
                return [ker[:, t].reshape(m.dim, m.dim) for t in range(ker.shape[1])]
            fs, gs = intertwiners(a), intertwiners(b)
            f = fs[rng.randrange(len(fs))]
            g = gs[rng.randrange(len(gs))]
            c = braiding(a, b)
            lhs = matmul_mod(np.kron(g, f), c, 2)
            assert np.array_equal(lhs, matmul_mod(c, np.kron(f, g), 2))


class TestTensor:
    def test_unit(self):
        w = module_w()
        t = tensor(w, trivial(1))
        assert t.dim == 2 and np.array_equal(t.d, w.d)

    def test_w_tensor_w_rank(self):
        t = tensor(module_w(), module_w())
        assert rank(t.d, 2) == 2

    def test_d_square_zero_random(self):
        rng = random.Random(30)
        for _ in range(50):
            a = rand_dmodule(rng, rng.randint(1, 3))
            b = rand_dmodule(rng, rng.randint(1, 3))
            t = tensor(a, b)  # constructor asserts d^2 = 0
            assert not matmul_mod(t.d, t.d, 2).any()


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

    @pytest.mark.parametrize(
        "mod, rank",
        [
            (module_w(), 2),
            (direct_sum(module_w(), trivial(1)), 4),
            (direct_sum(module_w(), module_w()), 8),
            (direct_sum(module_w(), trivial(2)), 7),
        ],
        ids=["W", "W+1", "2W", "W+2"],
    )
    def test_independent_relations_give_the_all_columns_tower(self, mod, rank):
        # the algebra passes only the pivot columns of 1 + c; every column
        # spans the same relations, so the quotient tower is the same
        alg = sym_algebra(mod, 8)
        n = mod.dim
        rel = (np.eye(n * n, dtype=np.int64) + braiding(mod, mod)) % 2
        assert exactlin.rank(rel, 2) == rank < n * n  # dependent columns
        tower = graded.QuotientDegrees(n, 2, None, rel)
        tower.grow(8)
        q, keep = tower.q, tower.keep
        assert alg.dims == [qm.shape[0] for qm in q]
        assert all(np.array_equal(a, b) for a, b in zip(alg.q, q, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(alg.keep, keep, strict=True))

    def test_d_is_derivation_squaring_to_zero(self):
        rng = np.random.default_rng(40)
        alg = sym_algebra(module_w(), 6)
        a = alg.random_batch(rng, 30, 3)
        b = alg.random_batch(rng, 30, 3)
        lhs = alg.dmap(alg.mul(a, b))
        rhs = alg.add(alg.mul(alg.dmap(a), b), alg.mul(a, alg.dmap(b)))
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
        assert injectivity_check(w, w, eye(2), 5) is None

    def test_y_line_fails_at_two(self):
        u = trivial(1)
        incl = [[0], [1]]
        assert injectivity_check(u, module_w(), incl, 5) == 2

    def test_y_line_in_w_plus_unit(self):
        u = trivial(1)
        amb = direct_sum(module_w(), trivial(1))
        incl = [[0], [1], [0]]
        assert injectivity_check(u, amb, incl, 5) == 2

    def test_degree_one_injective(self):
        # the failure appears at degree exactly 2, nowhere below
        u = trivial(1)
        incl = [[0], [1]]
        assert injectivity_check(u, module_w(), incl, 1) is None

    def test_rejects_non_intertwiner(self):
        u = trivial(1)
        incl = [[1], [0]]  # maps onto x, but d(x) != 0
        with pytest.raises(ValueError):
            injectivity_check(u, module_w(), incl, 3)

    def test_rejects_non_injective(self):
        u = trivial(1)
        incl = [[0], [0]]
        with pytest.raises(ValueError):
            injectivity_check(u, module_w(), incl, 3)


class TestFourthPower:
    def test_spec_trial_run(self):
        rep = fourth_power_checks(module_w(), 8, 200, 7)
        for name, val in rep.items():
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
            assert all(rep.values())

    def test_invariant_square_rule_collapses(self):
        # d(a) = 0 makes (ab)^2 = a^2 b^2 on the nose
        alg = sym_algebra(module_w(), 8)
        a = alg.from_vector(1, [0, 1])  # y is invariant
        b = alg.random_batch(np.random.default_rng(5), 20, 2)
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

        monkeypatch.setattr(DGradedAlgebra, "random_batch", no_draws)
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
        assert inv[0].shape[1] == 1

    def test_golden_dims_sw(self):
        alg = sym_algebra(module_w(), 8)
        inv = invariants_d(alg)
        assert [b.shape[1] for b in inv] == GOLDEN_SW_INV_DIMS
        # independent check against the oracle differential
        for m in range(5):
            dim, dmat = brute_degree(module_w(), m)
            assert inv[m].shape[1] == dim - rank(dmat, 2)

    def test_invariants_form_subalgebra(self):
        alg = sym_algebra(module_w(), 6)
        inv = invariants_d(alg)
        for a_deg in range(1, 3):
            for b_deg in range(1, 3):
                for i in range(inv[a_deg].shape[1]):
                    for j in range(inv[b_deg].shape[1]):
                        a = alg.from_vector(a_deg, inv[a_deg][:, i])
                        b = alg.from_vector(b_deg, inv[b_deg][:, j])
                        assert alg.dmap(alg.mul(a, b)) == {}

    def test_fourth_powers_invariant(self):
        alg = sym_algebra(module_w(), 8)
        a = alg.random_batch(np.random.default_rng(9), 20, 2)
        assert alg.dmap(alg.power(a, 4)) == {}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DModule(np.zeros((3, 2), dtype=np.int64)), "d must be square"),
        (lambda: DModule(np.zeros((2, 2))), "floating point entries are not allowed"),
        (
            lambda: injectivity_check(trivial(1), module_w(), np.zeros((2, 1)), 2),
            "floating point entries are not allowed",
        ),
        (
            lambda: injectivity_check(trivial(1), module_w(), np.zeros((1, 2), np.int64), 2),
            "inclusion must be a GF(2) matrix from U to W",
        ),
    ],
    ids=["shape", "floats", "inclusion-floats", "inclusion-shape"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestArrayConstructor:
    """`DModule` reads d once into a read-only int64 array of residues
    mod 2: every integer dtype and Python integers of any size reduce
    exactly, and nothing else is accepted."""

    @pytest.mark.parametrize(
        "raw",
        [
            [[4, -6], [-1, 2**62 + 2]],
            np.array([[-128, 0], [127, -2]], dtype=np.int8),
            np.array([[2**64 - 2, 0], [2**63 + 1, 2**64 - 4]], dtype=np.uint64),
            np.array([[10**30, 0], [-(2**100) - 1, -(10**40)]], dtype=object),
        ],
        ids=["negative-and-large", "int8", "uint64", "object"],
    )
    def test_entries_reduce_exactly(self, raw):
        m = DModule(raw)
        assert m.dim == 2 and m.d.dtype == np.int64 and m.d.tolist() == [[0, 0], [1, 0]]
        assert not m.d.flags.writeable

    def test_reads_its_input_once(self):
        raw = np.array([[0, 0], [1, 0]])
        m = DModule(raw)
        raw[0, 0] = 1
        assert m.d.tolist() == [[0, 0], [1, 0]]

    @pytest.mark.parametrize(
        "raw, message",
        [
            (np.zeros((2, 2)), "floating point entries are not allowed"),
            ([[0.0, 0], [1, 0]], "floating point entries are not allowed"),
            (np.array([[0, 0], [0.5, 0]], dtype=object), "entries must be integers"),
            (np.array([["1", 0], [0, 0]], dtype=object), "entries must be integers"),
            (np.zeros((2, 3), dtype=np.int64), "d must be square"),
            ([0, 1], "d must be square"),
            # residues of [[0, 1], [1, 0]], whose square is the identity
            ([[2, -1], [3, -4]], r"d\^2 must vanish"),
        ],
        ids=["float64", "float-list", "object-half", "object-str", "2x3", "vector", "d-squared"],
    )
    def test_rejects(self, raw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DModule(raw)
