"""Invariant algebras: degree spaces, products, generator counts,
module finiteness, Frobenius behaviour, the rational-field
counterexample, and the degree data their towers share."""

import gc
import json
import pathlib
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercat.exactlin import BudgetExceeded
from vercat.repzp import hom_stack, jordan_module
from vercat import verlinde
from vercat.verlinde import SymTower, VerObject, ver_sym_power
from vercat.invariants import (
    InvariantAlgebra,
    build_invariant_algebra,
    char0_counterexample,
    frobenius_check,
    generator_degrees,
    isotypic_stability_check,
    module_finiteness_check,
)

# generator_degrees and module_finiteness_check outputs recorded from the
# greedy module-generator search these functions replaced: p in {3, 5, 7}
# with every X of one or two simple summands (depth cycling through
# 7..10), and p = 11, X = 1 + L2, D = 12
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "invariants_golden.json").read_text()
)


def negligible(f, back, p):
    """Whether f: J_i -> J_s (an s x i array) pairs to zero under the trace
    with every u in `back`, a basis of Hom(J_s, J_i) stacked (h x i x s)."""
    return not verlinde._trace_gram(f[None], back, p).any()


def ver(p: int, summands) -> VerObject:
    mult = [0] * (p - 1)
    for i in summands:
        mult[i - 1] += 1
    return VerObject(p, tuple(mult))


class TestBuild:
    def test_unit_object_truncated_polynomials(self):
        alg = build_invariant_algebra(VerObject.unit(5), 6)
        assert alg.inv_dims() == [1] * 7

    def test_l2_p5_constants_only(self):
        alg = build_invariant_algebra(VerObject.simple(5, 2), 6)
        assert alg.inv_dims() == [1, 0, 0, 0, 0, 0, 0]

    def test_two_l2_p3_degree2(self):
        alg = build_invariant_algebra(VerObject(3, (0, 2)), 4)
        assert alg.inv_dim(2) == 1  # one copy of the unit inside L2 (x) L2

    def test_dims_match_sympower_multiplicity(self):
        for p, mult, depth in [
            (5, (1, 1, 0, 0), 8),
            (3, (1, 1), 6),
            (5, (0, 1, 1, 0), 5),
        ]:
            x = VerObject(p, mult)
            alg = build_invariant_algebra(x, depth)
            for m in range(depth + 1):
                assert alg.inv_dim(m) == ver_sym_power(x, m).mult_of(1), (p, mult, m)

    def test_isotypic_basis_elements(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 4)
        for i in range(1, 5):
            for e in np.eye(alg.iso_dim(2, i), dtype=np.int64):
                h = alg.iso_matrix(2, i, e)
                assert np.array_equal(alg.iso_class_of(2, i, h), e)


def product(alg, a, ca, b, cb):
    """Degree a + b of the product of homogeneous elements {a: ca} and
    {b: cb}, zero when `mul` leaves that component out."""
    zero = np.zeros(alg.inv_dim(a + b), dtype=np.int64)
    return alg.mul({a: ca}, {b: cb}).get(a + b, zero)


class TestProducts:
    def test_commutative_associative_on_basis(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 9)
        for a in range(1, 4):
            for b in range(1, 4):
                for c in range(1, 4):
                    if a + b + c > alg.depth:
                        continue
                    for ka in range(alg.inv_dim(a)):
                        for kb in range(alg.inv_dim(b)):
                            ea = np.eye(alg.inv_dim(a), dtype=np.int64)[ka]
                            eb = np.eye(alg.inv_dim(b), dtype=np.int64)[kb]
                            ab = product(alg, a, ea, b, eb)
                            ba = product(alg, b, eb, a, ea)
                            assert np.array_equal(ab, ba)
                            for kc in range(alg.inv_dim(c)):
                                ec = np.eye(alg.inv_dim(c), dtype=np.int64)[kc]
                                lhs = product(alg, a + b, ab, c, ec)
                                rhs = product(
                                    alg, a, ea, b + c, product(alg, b, eb, c, ec)
                                )
                                assert np.array_equal(lhs, rhs)

    def test_unit_acts_as_identity(self):
        alg = build_invariant_algebra(VerObject(3, (1, 1)), 6)
        one = np.array([1], dtype=np.int64)
        for m in range(1, 6):
            for k in range(alg.inv_dim(m)):
                e = np.eye(alg.inv_dim(m), dtype=np.int64)[k]
                assert np.array_equal(product(alg, 0, one, m, e), e)


class TestGeneratorDegrees:
    def test_unit_object(self):
        alg = build_invariant_algebra(VerObject.unit(5), 6)
        gens = generator_degrees(alg)
        assert gens[0] == (0, 1)
        assert gens[1] == (1, 1)
        assert all(c == 0 for m, c in gens[2:])

    def test_l2_p5_degree_zero_only(self):
        alg = build_invariant_algebra(VerObject.simple(5, 2), 6)
        gens = generator_degrees(alg)
        assert gens[0] == (0, 1)
        assert all(c == 0 for m, c in gens[1:])

    def test_one_plus_l2_eventually_zero(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        gens = generator_degrees(alg)
        assert all(c == 0 for m, c in gens if m >= 2)

    def test_basis_shuffle_invariance(self):
        x = VerObject(5, (1, 1, 0, 0))
        base = generator_degrees(build_invariant_algebra(x, 8))
        for seed in (1, 2, 3):
            shuffled = generator_degrees(
                build_invariant_algebra(x, 8, basis_seed=seed)
            )
            assert shuffled == base


class TestModuleFiniteness:
    def test_unit_object(self):
        selected, stabilized = module_finiteness_check(VerObject.unit(5), 6)
        assert selected == [(0, 1)]
        assert stabilized

    def test_l2_p5(self):
        selected, stabilized = module_finiteness_check(VerObject.simple(5, 2), 9)
        assert stabilized
        assert max(m for m, _ in selected) <= 3
        # S(L2) = 1 + L2 + L3 + L4, one generator per degree
        assert selected == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("x", [VerObject.simple(5, 2), VerObject(5, (1, 1, 0, 0))])
    def test_depth_zero_is_not_stabilized(self, x):
        # the window always covers the top degree, where the unit generator sits
        assert module_finiteness_check(x, 0) == ([(0, 1)], False)

    def test_one_plus_l2_stabilizes(self):
        selected, stabilized = module_finiteness_check(VerObject(5, (1, 1, 0, 0)), 10)
        assert stabilized
        assert max(m for m, _ in selected) <= 3


def golden_id(case) -> str:
    summands = "+".join(f"L{i}" for i in case["summands"])
    return f"p{case['p']}-{summands}-D{case['depth']}"


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN, ids=[golden_id(c) for c in GOLDEN])
    def test_counts_match_recorded(self, case):
        x, depth = ver(case["p"], case["summands"]), case["depth"]
        gens = list(enumerate(case["generator_degrees"]))
        assert generator_degrees(build_invariant_algebra(x, depth)) == gens
        shuffled = build_invariant_algebra(x, depth, basis_seed=depth)
        assert generator_degrees(shuffled) == gens
        selected, stabilized = module_finiteness_check(x, depth)
        assert selected == [tuple(s) for s in case["selected"]]
        assert stabilized == case["stabilized"]


@st.composite
def small_algebras(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    summands = draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=2))
    return ver(p, summands), 4 if p <= 7 else 3


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_products_associate_on_class_coordinates(case):
    # (e^a e^b) t^c = e^a (e^b t^c) on type-i class coordinates: the
    # identity the module-generator count relies on
    x, depth = case
    alg = build_invariant_algebra(x, depth)
    p = alg.p
    for a in range(depth + 1):
        for b in range(depth + 1 - a):
            for c in range(depth + 1 - a - b):
                for i in range(1, p):
                    lhs = np.tensordot(
                        alg.product_table(a, b), alg.iso_table(a + b, c, i), axes=(2, 0)
                    )
                    rhs = np.einsum(
                        "lty,kyu->kltu",
                        alg.iso_table(b, c, i),
                        alg.iso_table(a, b + c, i),
                    )
                    assert np.array_equal(lhs % p, rhs % p), (a, b, c, i)


@settings(max_examples=40, deadline=None)
@given(small_algebras(), st.integers(0, 2**16))
def test_invariant_products_commute(case, seed):
    x, depth = case
    alg = build_invariant_algebra(x, depth, basis_seed=seed)
    for a in range(depth + 1):
        for b in range(depth + 1 - a):
            ba = alg.product_table(b, a).transpose(1, 0, 2)
            assert np.array_equal(alg.product_table(a, b), ba), (a, b)


class TestNegligible:
    def test_fixed_vector_into_j2_is_negligible(self):
        # e_0: J_1 -> J_2 spans the fixed points of J_2, which every map
        # J_2 -> J_1 kills, so tr(e_0 u) = 0 for all u
        p = 5
        back = hom_stack(jordan_module(p, [2]), jordan_module(p, [1]))
        e0 = np.array([[1], [0]], dtype=np.int64)
        assert negligible(e0, back, p)

    def test_identity_is_not_negligible(self):
        p = 5
        for i in range(1, p):
            back = hom_stack(jordan_module(p, [i]), jordan_module(p, [i]))
            assert not negligible(np.eye(i, dtype=np.int64), back, p)

    def test_projective_block_is_negligible(self):
        # J_p has dimension p = 0, so even its identity is negligible
        p = 5
        back = hom_stack(jordan_module(p, [p]), jordan_module(p, [p]))
        assert negligible(np.eye(p, dtype=np.int64), back, p)


    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_intertwiners_imply_isotypic_purity(self, p):
        # the implication isotypic_stability_check relies on: every
        # intertwiner J_i -> J_s, i != s < p, is negligible, and every
        # intertwiner J_i -> J_i has trace i times its [0, 0] entry
        blocks = {i: jordan_module(p, [i]) for i in range(1, p)}
        for i in blocks:
            for s in blocks:
                fwd = hom_stack(blocks[i], blocks[s])
                if i == s:
                    for f in fwd:
                        assert (np.trace(f) - i * f[0, 0]) % p == 0, (p, i)
                    continue
                back = hom_stack(blocks[s], blocks[i])
                assert all(negligible(f, back, p) for f in fwd), (p, i, s)


class TestIsotypicStability:
    def test_spec_instance(self):
        assert isotypic_stability_check(VerObject(5, (1, 1, 0, 0)), 10, 100, 42)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_requires_a_trial(self, trials):
        # zero trials would report every product as pure
        with pytest.raises(ValueError, match="at least one trial"):
            isotypic_stability_check(VerObject(5, (1, 1, 0, 0)), 6, trials, 0)

    def test_other_objects(self):
        assert isotypic_stability_check(VerObject(3, (1, 1)), 6, 40, 0)
        assert isotypic_stability_check(VerObject(5, (0, 1, 1, 0)), 4, 30, 7)

    def test_products_fit_the_smallest_tower_budget(self):
        # 27,225 and 900 fit these towers and their products; whole
        # products would form 124,740- and 3,000-entry arrays, the
        # invariant columns a trial reads 9,075 and 300
        x11 = VerObject(11, (1, 1) + (0,) * 8)
        assert isotypic_stability_check(x11, 12, 100, 0, max_entries=27225)
        x5 = VerObject(5, (1, 1, 0, 0))
        assert isotypic_stability_check(x5, 10, 100, 42, max_entries=900)

    @pytest.mark.parametrize(
        "x, depth, seed, peak",
        [(VerObject(11, (1, 1) + (0,) * 8), 12, 0, 9075), (ver(5, [1, 2]), 10, 42, 300)],
    )
    def test_runs_at_its_peak_charge(self, x, depth, seed, peak):
        # tower and products charge only the arrays they form, the largest
        # of which hold `peak` entries
        assert isotypic_stability_check(x, depth, 100, seed, max_entries=peak)
        with pytest.raises(BudgetExceeded, match=f"needs {peak} "):
            isotypic_stability_check(x, depth, 100, seed, max_entries=peak - 1)

    @pytest.mark.parametrize(
        "p, depth, trials, seed, pair", [(5, 10, 100, 42, (1, 1)), (3, 6, 40, 0, (2, 1))]
    )
    def test_corrupted_product_fails(self, monkeypatch, p, depth, trials, seed, pair):
        # negative control: one entry of a restricted product map off by one
        mu = SymTower.mu

        def corrupted(self, a, b, left=None):
            out = mu(self, a, b, left)
            if left is not None and (a, b) == pair:
                out = out.copy()
                out.flat[0] = (out.flat[0] + 1) % self.p
            return out

        monkeypatch.setattr(SymTower, "mu", corrupted)
        assert not isotypic_stability_check(ver(p, [1, 2]), depth, trials, seed)

    def test_reads_only_invariant_columns(self):
        # whole mu(a, b) maps of this tower peak at 8.4 MiB under tracemalloc
        tracemalloc.start()
        try:
            ok = isotypic_stability_check(VerObject(11, (1, 1) + (0,) * 8), 12, 100, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and peak <= 3 * 2**20


def count_builds(monkeypatch) -> list[int]:
    """Record the degree of every `SymTower._build_degree` call."""
    calls: list[int] = []
    build = SymTower._build_degree

    def counted(self, m):
        calls.append(m)
        return build(self, m)

    monkeypatch.setattr(SymTower, "_build_degree", counted)
    return calls


class TestSharedDegrees:
    """Towers alive on one (p, X, depth, budget) share their built degrees;
    products stay with each tower, and nothing outlives the last holder."""

    def test_live_holders_share_degrees_not_products(self, monkeypatch):
        x = ver(5, [1, 1, 2])
        a = InvariantAlgebra(x, 5)
        calls = count_builds(monkeypatch)
        b = InvariantAlgebra(x, 5)
        assert calls == []
        assert b.tower._deg is a.tower._deg
        assert b.tower.q is a.tower.q and b.tower.sizes is a.tower.sizes
        assert b.tower.section(3) is a.tower.section(3)
        assert b.tower._mu is not a.tower._mu and b._tables is not a._tables
        a.product_table(2, 2)
        assert a.tower._mu and a._tables and not b.tower._mu and not b._tables

    def test_last_holder_gone_means_rebuild(self, monkeypatch):
        # with the cycle collector off, the degree data dies with the
        # last holder, products, tables and sections included
        x, depth = ver(5, [1, 1, 2]), 4
        gc.disable()
        try:
            alg = InvariantAlgebra(x, depth)
            generator_degrees(alg)
            alg.tower.section(depth)
            dead = weakref.ref(alg.tower._deg)
            del alg
            assert dead() is None
            assert (5, x.mult, depth, None) not in verlinde._LIVE
            calls = count_builds(monkeypatch)
            InvariantAlgebra(x, depth)
            assert calls == list(range(2, depth + 1))
        finally:
            gc.enable()

    def test_held_budget_does_not_lift_a_smaller_one(self):
        # 300 entries build this tower; holding one built at 300, or at no
        # budget, still charges a request at 299
        x = ver(5, [1, 2])
        held = [InvariantAlgebra(x, 10, max_entries=300), InvariantAlgebra(x, 10)]
        for build in (InvariantAlgebra, SymTower):
            with pytest.raises(BudgetExceeded, match="projection rows needs 300 "):
                build(x, 10, max_entries=299)
        assert held[0].tower._deg is not held[1].tower._deg  # the budget is in the key

    def test_basis_shuffle_stays_with_its_algebra(self):
        x = ver(5, [1, 1, 2])
        plain = InvariantAlgebra(x, 5)
        canonical = [plain.offsets(m, 1) for m in range(6)]
        shuffled = InvariantAlgebra(x, 5, basis_seed=3)
        assert shuffled.tower._deg is plain.tower._deg
        assert [shuffled.offsets(m, 1) for m in range(6)] != canonical
        assert [plain.offsets(m, 1) for m in range(6)] == canonical
        assert canonical == [plain.tower.block_offsets(m, 1) for m in range(6)]

    def test_corrupted_product_fails_after_another_holder_warmed(self, monkeypatch):
        # a holder whose products are already formed must not hand them to
        # a new holder: the corruption reaches the check's own products
        x, depth = ver(3, [1, 2]), 6
        warm = InvariantAlgebra(x, depth)
        for a in range(depth + 1):
            for b in range(depth + 1 - a):
                warm.tower.mu(a, b, tuple(warm.offsets(a, 1)))
        mu = SymTower.mu

        def corrupted(self, a, b, left=None):
            out = mu(self, a, b, left)
            if left is not None and (a, b) == (2, 1):
                out = out.copy()
                out.flat[0] = (out.flat[0] + 1) % self.p
            return out

        monkeypatch.setattr(SymTower, "mu", corrupted)
        calls = count_builds(monkeypatch)
        assert not isotypic_stability_check(x, depth, 40, 0)
        assert calls == []  # the check read the warm holder's degrees

    def test_report_set_builds_its_tower_once_per_run(self, monkeypatch):
        # the benchmark's invariant reports at p = 11: one tower per run,
        # and a second run in the same process builds it again
        calls = count_builds(monkeypatch)
        x, depth = VerObject(11, (1, 1) + (0,) * 8), 12
        counts = []
        for _ in range(2):
            before = len(calls)
            alg = build_invariant_algebra(x, depth)
            generator_degrees(alg)
            module_finiteness_check(x, depth)
            assert isotypic_stability_check(x, depth, 100, 0)
            del alg
            counts.append(len(calls) - before)
        assert counts == [depth - 1, depth - 1]


class TestFrobenius:
    def test_p5_spec_instance(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        assert frobenius_check(alg, trials=50, seed=0)

    def test_p3_spec_instance(self):
        alg = build_invariant_algebra(VerObject(3, (1, 1)), 9)
        assert frobenius_check(alg, trials=50, seed=0)

    def test_p2_degenerate_squaring(self):
        alg = build_invariant_algebra(VerObject.unit(2), 4)
        assert frobenius_check(alg, trials=20, seed=0)

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1)])
    def test_corrupted_product_table_fails(self, monkeypatch, a, b):
        # negative control: one structure constant off by one
        table = InvariantAlgebra.product_table

        def corrupted(self, i, j):
            t = table(self, i, j)
            if (i, j) == (a, b):
                t = t.copy()
                t.flat[0] = (t.flat[0] + 1) % self.p
            return t

        monkeypatch.setattr(InvariantAlgebra, "product_table", corrupted)
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        assert not frobenius_check(alg, trials=50, seed=0)

    def test_trial_batch_is_budgeted(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        with pytest.raises(BudgetExceeded, match="batch of 100000000 trials"):
            frobenius_check(alg, trials=10**8, seed=0)
        with pytest.raises(BudgetExceeded, match="batch of 11 trials needs 11 "):
            frobenius_check(alg, trials=11, seed=0, max_entries=10)

    def test_trial_batch_is_budgeted_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("elements drawn before the batch budget check")

        monkeypatch.setattr(InvariantAlgebra, "random_batch", no_draws)
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        with pytest.raises(BudgetExceeded, match="batch of 100000000 trials"):
            frobenius_check(alg, trials=10**8, seed=0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_requires_a_trial(self, trials):
        # zero trials would report the ring-map identities as holding
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 10)
        with pytest.raises(ValueError, match="trial"):
            frobenius_check(alg, trials=trials, seed=0)

    def test_requires_room_for_pth_power(self):
        alg = build_invariant_algebra(VerObject(5, (1, 1, 0, 0)), 3)
        with pytest.raises(ValueError):
            frobenius_check(alg)

    def test_vanishing_part(self):
        # S^p(L_i) = 0 for i >= 2: checked directly as well
        for p in (3, 5):
            for i in range(2, p):
                assert ver_sym_power(VerObject.simple(p, i), p).is_zero()


class TestChar0Counterexample:
    def test_degree_zero_constants(self):
        counts = char0_counterexample(5)
        assert counts[0] == (0, 1)

    def test_degree_one_empty(self):
        assert char0_counterexample(5)[1] == (1, 0)

    def test_degree_three_new_generator(self):
        # x y z is invariant and not a product of lower-degree invariants
        assert char0_counterexample(5)[3] == (3, 1)

    def test_every_degree_from_three(self):
        counts = char0_counterexample(8)
        for m in range(3, 9):
            assert counts[m] == (m, 1)

    def test_never_stabilizes(self):
        counts = char0_counterexample(10)
        tail = [c for m, c in counts if m >= 3]
        assert all(c == 1 for c in tail)  # the anti-pattern: no zero tail

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            char0_counterexample(2)
