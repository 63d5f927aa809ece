"""Invariant algebras: degree spaces, products, generator counts,
module finiteness, Frobenius behaviour, and the rational-field
counterexample."""

import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercat.exactlin import BudgetExceeded
from vercat.repzp import hom_stack, jordan_module
from vercat.verlinde import VerObject, ver_sym_power
from vercat.invariants import (
    InvariantAlgebra,
    build_invariant_algebra,
    char0_counterexample,
    frobenius_check,
    generator_degrees,
    isotypic_stability_check,
    module_finiteness_check,
    negligible,
)

# generator_degrees and module_finiteness_check outputs recorded from the
# greedy module-generator search these functions replaced: p in {3, 5, 7}
# with every X of one or two simple summands (depth cycling through
# 7..10), and p = 11, X = 1 + L2, D = 12
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "invariants_golden.json").read_text()
)


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
                            ab = alg.multiply_coords(a, ea, b, eb)
                            ba = alg.multiply_coords(b, eb, a, ea)
                            assert np.array_equal(ab, ba)
                            for kc in range(alg.inv_dim(c)):
                                ec = np.eye(alg.inv_dim(c), dtype=np.int64)[kc]
                                lhs = alg.multiply_coords(a + b, ab, c, ec)
                                rhs = alg.multiply_coords(
                                    a, ea, b + c, alg.multiply_coords(b, eb, c, ec)
                                )
                                assert np.array_equal(lhs, rhs)

    def test_unit_acts_as_identity(self):
        alg = build_invariant_algebra(VerObject(3, (1, 1)), 6)
        one = np.array([1], dtype=np.int64)
        for m in range(1, 6):
            for k in range(alg.inv_dim(m)):
                e = np.eye(alg.inv_dim(m), dtype=np.int64)[k]
                assert np.array_equal(alg.multiply_coords(0, one, m, e), e)


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


class TestIsotypicStability:
    def test_spec_instance(self):
        assert isotypic_stability_check(VerObject(5, (1, 1, 0, 0)), 10, 100, 42)

    def test_other_objects(self):
        assert isotypic_stability_check(VerObject(3, (1, 1)), 6, 40, 0)
        assert isotypic_stability_check(VerObject(5, (0, 1, 1, 0)), 4, 30, 7)


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
