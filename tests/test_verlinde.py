"""Ver_p: fusion vs the Jordan oracle, hom quotients, symmetric powers,
multiplicity series.  The fusion formula and the decomposition oracle are
independent routes and their agreement anchors everything else."""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercat import svec2, verlinde
from vercat.exactlin import GF, BudgetExceeded, Mat, solve_array
from vercat.repzp import hom_stack, jordan_module, jordan_type, tensor, trivial_module
from vercat.verlinde import (
    MultSeries,
    SymTower,
    VerObject,
    _TensorFrame,
    _jordan_basis,
    _pair_basis,
    _trace_radical,
    _ver_sym_power_direct,
    fusion,
    fusion_rule,
    poly_factor_check,
    quotient,
    quotients,
    series_product,
    sym_alg_series,
    ver_hom,
    ver_sym_power,
)
from vercat.repzp import sym_power


def L(p, i):
    return VerObject.simple(p, i)


def radical(a, b):
    """A basis of the negligible maps a -> b, stacked (h x b.dim x a.dim):
    the radical's coefficient columns taken over `_trace_radical`'s hom
    basis."""
    fwd, coeffs = _trace_radical(a, b)
    return np.tensordot(coeffs.T, fwd, axes=1) % a.p


def rand_module(rng, p, max_parts=3):
    parts = sorted(
        (rng.randint(1, p) for _ in range(rng.randint(1, max_parts))), reverse=True
    )
    return jordan_module(p, parts)


class TestVerObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            VerObject(5, (1, 2, 3))
        with pytest.raises(ValueError):
            VerObject(5, (1, -1, 0, 0))

    @pytest.mark.parametrize("p", [0, 1, 4, 9])
    def test_rejects_characteristics_that_are_not_primes(self, p):
        with pytest.raises(ValueError, match=f"characteristic .*got {p}$"):
            VerObject(p, (0,) * max(p - 1, 0))

    def test_p2_is_degenerate_but_valid(self):
        x = VerObject(2, (1,))
        assert fusion(x, x) == x and ver_sym_power(x, 3) == x

    def test_display(self):
        assert str(VerObject(5, (1, 0, 2, 0))) == "L1 + 2*L3"
        assert str(VerObject.zero(5)) == "0"

    def test_dim(self):
        assert VerObject(5, (1, 1, 0, 0)).dim == 3
        assert VerObject(5, (0, 0, 0, 1)).categorical_dim() == 4


class TestFusion:
    def test_unit(self):
        for p in (3, 5, 7):
            for s in range(1, p):
                assert fusion(L(p, 1), L(p, s)) == L(p, s)

    def test_spec_instances(self):
        assert fusion(L(5, 2), L(5, 2)) == VerObject(5, (1, 0, 1, 0))
        assert fusion(L(7, 3), L(7, 5)) == VerObject(7, (0, 0, 1, 0, 1, 0))
        assert fusion(L(5, 1), L(5, 4)) == L(5, 4)

    def test_oracle_grid_small_primes(self):
        for p in (3, 5, 7):
            for r in range(1, p):
                for s in range(1, p):
                    formula = VerObject(p, fusion_rule(p, r, s))
                    oracle = quotient(
                        tensor(jordan_module(p, [r]), jordan_module(p, [s]))
                    )
                    assert formula == oracle, (p, r, s)

    def test_commutative_associative(self):
        for p in (3, 5, 7):
            for r in range(1, p):
                for s in range(1, p):
                    assert fusion_rule(p, r, s) == fusion_rule(p, s, r)
                    for t in range(1, p):
                        lhs = fusion(VerObject(p, fusion_rule(p, r, s)), L(p, t))
                        rhs = fusion(L(p, r), VerObject(p, fusion_rule(p, s, t)))
                        assert lhs == rhs

    def test_unit_pairing(self):
        # mult of L1 in L_i (x) L_j is the Kronecker delta
        for p in (3, 5, 7, 11):
            for i in range(1, p):
                for j in range(1, p):
                    want = 1 if i == j else 0
                    assert fusion_rule(p, i, j)[0] == want

    def test_categorical_dim_multiplicative(self):
        rng = random.Random(12)
        for _ in range(50):
            p = rng.choice((3, 5, 7))
            a = VerObject(p, tuple(rng.randint(0, 2) for _ in range(p - 1)))
            b = VerObject(p, tuple(rng.randint(0, 2) for _ in range(p - 1)))
            assert (
                fusion(a, b).categorical_dim()
                == a.categorical_dim() * b.categorical_dim() % p
            )

    def test_bilinear(self):
        p = 5
        a = VerObject(p, (1, 1, 0, 0))
        b = VerObject(p, (0, 1, 0, 1))
        total = VerObject.zero(p)
        for i in range(1, p):
            for j in range(1, p):
                term = VerObject(p, fusion_rule(p, i, j)).scale(
                    a.mult_of(i) * b.mult_of(j)
                )
                total = total + term
        assert fusion(a, b) == total

    def test_p2_degenerate(self):
        assert fusion(L(2, 1), L(2, 1)) == L(2, 1)
        assert quotient(jordan_module(2, [2])) == VerObject.zero(2)
        assert quotient(jordan_module(2, [2, 1])) == L(2, 1)

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            fusion(L(3, 1), L(5, 1))

    def test_exact_past_int64(self):
        # 10^20 exceeds int64; numpy-integer multiplicities are exact too
        for m in (10**10, np.int64(10**10)):
            a, b = VerObject(5, (m, 0, 0, 0)), VerObject(5, (0, m, 0, 0))
            assert fusion(a, a) == VerObject(5, (10**20, 0, 0, 0))
            assert fusion(b, L(5, 3)) == VerObject(5, (0, m, 0, m))
            assert fusion(b, VerObject(5, (0, 0, m, 0))) == VerObject(5, (0, 10**20, 0, 10**20))

    @pytest.mark.parametrize("p", [103, 65537])
    def test_large_prime_reads_the_rule(self, p):
        # the product visits only the pairs of simples present, so its cost
        # follows the supports, not p; the sum below reads fusion_rule on them
        a = VerObject(p, tuple(2 if i in (1, p - 3) else 0 for i in range(p - 1)))
        b = L(p, 3) + L(p, p - 1)
        total = VerObject.zero(p)
        for i in (2, p - 2):
            for j in (3, p - 1):
                term = VerObject(p, fusion_rule(p, i, j)).scale(a.mult_of(i) * b.mult_of(j))
                total = total + term
        assert fusion(a, b) == total
        assert fusion(L(p, 1), b) == b


class TestQuotient:
    def test_jp_negligible(self):
        for p in (2, 3, 5, 7):
            assert quotient(jordan_module(p, [p])).is_zero()

    def test_mixed(self):
        assert quotient(jordan_module(5, [5, 2])) == L(5, 2)

    def test_tensor_square_p3(self):
        assert quotient(tensor(jordan_module(3, [2]), jordan_module(3, [2]))) == L(3, 1)

    def test_monoidal_on_random_pairs(self):
        rng = random.Random(77)
        for p in (3, 5, 7):
            for _ in range(100):
                a = rand_module(rng, p, 2)
                b = rand_module(rng, p, 2)
                assert quotient(tensor(a, b)) == fusion(quotient(a), quotient(b))

    def test_batched_form_matches(self):
        rng = random.Random(78)
        for p in (2, 3, 7):
            mods = [rand_module(rng, p) for _ in range(40)]
            mods += [tensor(a, b) for a, b in zip(mods[:20], mods[20:])]
            assert list(quotients(iter(mods))) == [quotient(m) for m in mods]
        assert list(quotients([])) == []

    def test_batched_form_one_prime(self):
        with pytest.raises(ValueError, match="field mismatch"):
            list(quotients([jordan_module(5, [2]), jordan_module(7, [2])]))


class TestNegligibleRadical:
    def test_end_jp_entirely_negligible(self):
        for p in (3, 5):
            jp = jordan_module(p, [p])
            rad = radical(jp, jp)
            assert len(rad) == p  # all of End(J_p)
            stacked = rad.reshape(p, p * p).T
            ident = np.eye(p, dtype=np.int64).reshape(-1, 1)
            assert solve_array(stacked, ident, p) is not None

    def test_codimension_one_for_simples(self):
        for p in (3, 5, 7):
            for i in range(1, p):
                ji = jordan_module(p, [i])
                assert len(hom_stack(ji, ji)) - ver_hom(ji, ji).dim == i - 1

    def test_full_between_distinct_simples(self):
        for p in (5, 7):
            for i in range(1, p):
                for j in range(1, p):
                    if i == j:
                        continue
                    a, b = jordan_module(p, [i]), jordan_module(p, [j])
                    assert len(hom_stack(a, b)) - ver_hom(a, b).dim == min(i, j)

    def test_tensor_ideal_property(self):
        # a negligible f tensored with anything stays negligible
        rng = random.Random(55)
        p = 5
        for _ in range(10):
            a = jordan_module(p, [rng.randint(1, 3)])
            b = jordan_module(p, [rng.randint(1, 3)])
            c = jordan_module(p, [rng.randint(1, 2)])
            d = jordan_module(p, [rng.randint(1, 2)])
            rad = radical(a, b)
            if not len(rad):
                continue
            n = Mat(GF(p), rad[rng.randrange(len(rad))])
            gs = hom_stack(c, d)
            g = Mat(GF(p), gs[rng.randrange(len(gs))])
            big = n.kron(g)  # A (x) C -> B (x) D
            for u in hom_stack(tensor(b, d), tensor(a, c)):
                assert int(np.trace((big @ Mat(GF(p), u)).a)) % p == 0


class TestVerHom:
    def test_simples_delta(self):
        for p in (3, 5, 7):
            for i in range(1, p):
                for j in range(1, p):
                    vh = ver_hom(jordan_module(p, [i]), jordan_module(p, [j]))
                    assert vh.dim == (1 if i == j else 0)

    def test_jp_source_vanishes(self):
        for p in (3, 5):
            jp = jordan_module(p, [p])
            for j in range(1, p):
                assert ver_hom(jp, jordan_module(p, [j])).dim == 0

    def test_dim_matches_multiplicity(self):
        rng = random.Random(99)
        for _ in range(25):
            p = rng.choice((3, 5))
            a = rand_module(rng, p)
            q = quotient(a)
            for i in range(1, p):
                vh = ver_hom(a, jordan_module(p, [i]))
                assert vh.dim == q.mult_of(i), (jordan_type(a).parts, i)

    def test_composition_well_defined_mod_negligibles(self):
        rng = random.Random(13)
        p = 5
        a = jordan_module(p, [2, 1])
        b = jordan_module(p, [5, 3])
        c = jordan_module(p, [3])
        hom_ab = [Mat(GF(p), f) for f in hom_stack(a, b)]
        rad_ab = [Mat(GF(p), f) for f in radical(a, b)]
        hom_bc = [Mat(GF(p), f) for f in hom_stack(b, c)]
        vh = ver_hom(a, c)
        for _ in range(20):
            # the constructor reduces the scaled entries mod p
            u = Mat(GF(p), hom_ab[rng.randrange(len(hom_ab))].a * rng.randrange(1, p))
            f = Mat(GF(p), hom_bc[rng.randrange(len(hom_bc))].a * rng.randrange(1, p))
            n = Mat(GF(p), rad_ab[rng.randrange(len(rad_ab))].a * rng.randrange(p))
            assert vh.reduce(f @ (u + n)) == vh.reduce(f @ u)


class TestVerSymPower:
    def test_degree_zero_and_one(self):
        x = VerObject(5, (0, 1, 1, 0))
        assert ver_sym_power(x, 0) == VerObject.unit(5)
        assert ver_sym_power(x, 1) == x

    def test_spec_values_p5(self):
        assert ver_sym_power(L(5, 2), 2) == L(5, 3)
        assert ver_sym_power(L(5, 2), 3) == L(5, 4)
        assert ver_sym_power(L(5, 2), 4).is_zero()

    def test_vanishing_instances(self):
        assert ver_sym_power(L(7, 2), 6).is_zero()
        assert ver_sym_power(L(5, 3), 3).is_zero()
        assert ver_sym_power(L(5, 4), 2).is_zero()
        assert ver_sym_power(L(3, 2), 2).is_zero()

    def test_matches_one_shot_definition(self):
        for p, i, m in [
            (3, 2, 2),
            (3, 2, 3),
            (5, 2, 2),
            (5, 2, 3),
            (5, 3, 2),
            (7, 2, 3),
            (7, 3, 2),
            # from degree 4, swap_i has tensor factors on both sides
            (5, 2, 4),
            (7, 2, 4),
            (7, 2, 5),
        ]:
            assert ver_sym_power(L(p, i), m) == _ver_sym_power_direct(L(p, i), m)

    def test_one_shot_on_sums(self):
        x = VerObject(5, (1, 1, 0, 0))
        assert _ver_sym_power_direct(x, 1) == x
        for m in (2, 3):
            assert ver_sym_power(x, m) == _ver_sym_power_direct(x, m)

    def test_cross_check_against_ambient_quotient(self):
        # derived expectations came from quotient(S^m(J_n)); on these
        # instances the two routes agree (not asserted as a law in general)
        for p, n, m in [(5, 2, 2), (5, 2, 3), (5, 2, 4), (3, 2, 2), (7, 3, 2)]:
            smod = sym_power(jordan_module(p, [n]), m)
            assert ver_sym_power(L(p, n), m) == quotient(smod)

    def test_zero_object(self):
        z = VerObject.zero(5)
        assert ver_sym_power(z, 0) == VerObject.unit(5)
        assert ver_sym_power(z, 2).is_zero()

    def test_p2(self):
        assert ver_sym_power(L(2, 1), 5) == L(2, 1)

    def test_budget(self):
        from vercat.exactlin import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            ver_sym_power(VerObject(11, (0, 0, 0, 0, 2, 0, 0, 0, 0, 0)), 7,
                          max_entries=500)


def test_symtower_budget_errors_name_the_degree():
    with pytest.raises(
        BudgetExceeded, match=r"^S\^4: precomposed class rows needs 1125 "
    ):
        ver_sym_power(VerObject.simple(11, 5), 4, max_entries=1000)
    with pytest.raises(
        BudgetExceeded, match=r"^S\^3: precomposed class rows needs 486 "
    ):
        ver_sym_power(VerObject(5, (3, 0, 0, 0)), 3, max_entries=400)


def test_symtower_charges_dim_x_before_listing_blocks():
    # X = 10^7 L2: a list of its blocks would hold 10^7 entries
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"^S\^1: projection rows needs 400000000000000 "):
            SymTower(VerObject(5, (0, 10**7, 0, 0)), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert SymTower(VerObject(5, (0, 10**7, 0, 0)), 0).multiplicities(0) == L(5, 1)


def test_symtower_charges_only_formed_arrays():
    # every array of the tower fits the default budget; a charge of
    # dim(V_(m-1) (x) X)^2 would reject S^5 at 1,071,225 entries
    tower = SymTower(VerObject.simple(19, 9), 11)
    assert tower.zero_from == 11 and tower.multiplicities(11).is_zero()


class TestSymAlgSeries:
    def test_unit_object(self):
        s = sym_alg_series(VerObject.unit(5), 5)
        assert all(d == VerObject.unit(5) for d in s.degrees)
        assert not s.finite

    def test_l2_p5(self):
        s = sym_alg_series(L(5, 2), 8)
        assert [str(d) for d in s.degrees[:5]] == ["L1", "L2", "L3", "L4", "0"]
        assert s.finite
        assert s.total.dim == 10

    def test_l2_p3(self):
        s = sym_alg_series(L(3, 2), 4)
        assert [str(d) for d in s.degrees[:3]] == ["L1", "L2", "0"]
        assert s.finite

    def test_truncation_not_finite(self):
        s = sym_alg_series(L(7, 2), 3)
        assert not s.finite  # vanishing degree 6 lies beyond the truncation

    def test_p2_degenerate_series(self):
        s = sym_alg_series(L(2, 1), 4)
        assert all(d == L(2, 1) for d in s.degrees)
        assert not s.finite


class TestSeriesProduct:
    def test_unit_series_is_identity(self):
        p = 5
        s = sym_alg_series(L(p, 2), 6)
        unit = [VerObject.unit(p)] + [VerObject.zero(p)] * 6
        unit_series = MultSeries(p, tuple(unit), True, VerObject.unit(p))
        prod = series_product(s, unit_series)
        assert prod.degrees == s.degrees

    def test_square_of_l2(self):
        p = 5
        both = sym_alg_series(VerObject(p, (0, 2, 0, 0)), 8)
        square = series_product(sym_alg_series(L(p, 2), 8), sym_alg_series(L(p, 2), 8))
        assert both.degrees == square.degrees

    def test_polynomial_times_finite(self):
        p = 5
        lhs = sym_alg_series(VerObject(p, (1, 1, 0, 0)), 8)
        rhs = series_product(
            sym_alg_series(VerObject.unit(p), 8), sym_alg_series(L(p, 2), 8)
        )
        assert lhs.degrees == rhs.degrees

    def test_random_pairs_sum_rule(self):
        rng = random.Random(2025)
        budget = 2**24  # X+Y towers are larger than single-object ones
        for p in (3, 5):
            done = 0
            while done < 5:
                mx = [0] * (p - 1)
                my = [0] * (p - 1)
                for m in (mx, my):
                    for i in rng.sample(range(p - 1), rng.randint(1, 2)):
                        m[i] = 1
                x, y = VerObject(p, tuple(mx)), VerObject(p, tuple(my))
                done += 1
                lhs = sym_alg_series(x + y, 6, budget)
                rhs = series_product(
                    sym_alg_series(x, 6, budget), sym_alg_series(y, 6, budget)
                )
                assert lhs.degrees == rhs.degrees


class TestPolyFactorCheck:
    def test_pure_polynomial(self):
        p = 5
        s = sym_alg_series(VerObject(p, (3, 0, 0, 0)), 6)
        ok, y = poly_factor_check(s, 3)
        assert ok and y == VerObject.unit(p)

    def test_one_plus_l2_p5(self):
        s = sym_alg_series(VerObject(5, (1, 1, 0, 0)), 10)
        ok, y = poly_factor_check(s, 1)
        assert ok
        assert y == VerObject(5, (1, 1, 1, 1))
        assert y.dim == 10

    def test_p7_two_units_l3(self):
        s = sym_alg_series(VerObject(7, (2, 0, 1, 0, 0, 0)), 10)
        ok, y = poly_factor_check(s, 2)
        assert ok and not y.is_zero()

    def test_failure_is_value_not_error(self):
        # deconvolving by too many polynomial variables must fail cleanly
        s = sym_alg_series(VerObject(5, (1, 1, 0, 0)), 6)
        ok, y = poly_factor_check(s, 2)
        assert not ok and y is None

    def test_series_mismatch_errors(self):
        s3 = sym_alg_series(L(3, 2), 4)
        s5 = sym_alg_series(L(5, 2), 4)
        with pytest.raises(ValueError):
            series_product(s3, s5)
        with pytest.raises(ValueError):
            series_product(s5, sym_alg_series(L(5, 2), 6))


class TestClassicalPlethysm:
    """Symmetric powers of small simples match the classical values in the
    range where no truncation happens (highest weights below p - 1)."""

    def test_sym_ladder_of_l2(self):
        # S^m of the two-dimensional simple climbs the ladder L_{m+1}
        for p in (5, 7, 11, 13):
            for m in range(0, p - 1):
                assert ver_sym_power(L(p, 2), m) == L(p, m + 1), (p, m)
            assert ver_sym_power(L(p, 2), p - 1).is_zero()

    def test_s2_of_l3(self):
        for p in (7, 11, 13):
            assert ver_sym_power(L(p, 3), 2) == L(p, 5) + L(p, 1)

    def test_s3_of_l3(self):
        for p in (11, 13):
            assert ver_sym_power(L(p, 3), 3) == L(p, 7) + L(p, 3)

    def test_s2_of_l4(self):
        for p in (11, 13):
            assert ver_sym_power(L(p, 4), 2) == L(p, 7) + L(p, 3)

    def test_hom_dims_reproduce_fusion_coefficients(self):
        rng = random.Random(8)
        for _ in range(25):
            p = rng.choice((3, 5, 7))
            i, j, k = (rng.randint(1, p - 1) for _ in range(3))
            big = tensor(jordan_module(p, [i]), jordan_module(p, [j]))
            dim = ver_hom(big, jordan_module(p, [k])).dim
            assert dim == fusion_rule(p, i, j)[k - 1], (p, i, j, k)


def _g_full(tw, m):
    return jordan_module(tw.p, tw.sizes[m]).g.a


def _assert_mu_intertwines(tw, pairs):
    for a, b in pairs:
        mu = tw.mu(a, b)
        lhs = (mu @ np.kron(_g_full(tw, a), _g_full(tw, b))) % tw.p
        rhs = (_g_full(tw, a + b) @ mu) % tw.p
        assert np.array_equal(lhs, rhs), (a, b)


def _assert_sections_split(tw):
    for b in range(2, tw.depth + 1):
        comp = (tw.q[b] @ tw.section(b)) % tw.p
        assert np.array_equal(comp, np.eye(tw.dim(b), dtype=np.int64)), b


def _tower_digest(tw):
    """sha256 of `sizes`, every q[m] and every section(b), m, b >= 1."""
    h = hashlib.sha256(repr(tw.sizes).encode())
    for m in range(1, tw.depth + 1):
        for a in (tw.q[m], tw.section(m)):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


# (p, summands of X, depth, digest): literal towers pinned entry for entry.
# mu follows from q and the sections, so it needs no digest of its own.
TOWER_DIGESTS = [
    (5, (1, 2), 10, "1fec73ff6f842e631833672330f81c4a597cf6bbeffed66c40246336f81e5bd2"),
    (7, (2, 3), 6, "5d94f4e46e38b9457327ca5bbfbd0cb32cf4bc45dd33c395c5b7604712b7b5c7"),
    (11, (1, 2), 12, "63642c52f39dd1cffc0a5e3e3d612e88a1cf98cef3e7964c89822db65d6c591a"),
    (11, (3, 5), 4, "b849f521e7f77e55eab3ab41c1ca3e20fce91876fabc2f10f377d81850876316"),
    (13, (2,), 12, "0b40a89326ca2886a248d8a48c7026f6335142d1d8569b5e5315a6eeeee7ff27"),
    # repeated summands: tensor frames with several pieces of one (c, n)
    (5, (1, 1, 3, 4), 6, "513a89c61661796fc779451b710faed60343c6c5a2af533509a7a83860d13653"),
    (7, (2, 2, 3), 5, "357e5d182e90b82e9d6e8e1dbaf5553c059b5c4cb69aad4b45719afc30c3cf21"),
    (11, (2, 2, 2), 5, "47a0f8d518c0ec4be6f9efd7bb5d7b1cc2d4b1d6a250f0daf489da2e709707b1"),
]


class TestSymTowerInternals:
    def test_mu_is_exact_intertwiner(self):
        tw = SymTower(VerObject(5, (1, 1, 0, 0)), 6)
        _assert_mu_intertwines(tw, [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 2)])

    def test_section_is_right_inverse_class(self):
        _assert_sections_split(SymTower(VerObject(5, (1, 1, 0, 0)), 5))
        _assert_sections_split(SymTower(VerObject(3, (1, 1)), 9))

    def test_mu_is_exact_intertwiner_p11_l3_l5(self):
        tw = SymTower(L(11, 3) + L(11, 5), 4)
        _assert_mu_intertwines(tw, [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])

    def test_section_is_right_inverse_class_p11_l3_l5(self):
        _assert_sections_split(SymTower(L(11, 3) + L(11, 5), 4))

    def test_built_degrees_are_read_only(self):
        # towers on one key share these arrays, so none of them may write
        tw = SymTower(VerObject(5, (1, 1, 0, 0)), 5)
        shared = [tw.q[m] for m in range(1, 6)] + [tw.section(b) for b in range(1, 6)]
        shared += list(tw._deg.kernels.values())
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            tw.q[3][0, 0] = 1
        # mu(a, 1) is q_(a+1) itself
        assert tw.mu(2, 1) is tw.q[3]

    @pytest.mark.parametrize(
        "p,summands,depth,digest",
        TOWER_DIGESTS,
        ids=[
            f"p{p}-{'+'.join(f'L{i}' for i in x)}-D{d}" for p, x, d, _ in TOWER_DIGESTS
        ],
    )
    def test_literal_tower_is_pinned(self, p, summands, depth, digest):
        tw = SymTower(sum((L(p, i) for i in summands), VerObject.zero(p)), depth)
        _assert_sections_split(tw)
        assert _tower_digest(tw) == digest

    def test_mu_matches_kron_formula(self):
        # mu(a, b) = q_(a+b) (mu(a, b-1) (x) 1) (1 (x) s_b), entry for entry,
        # for the Ver_p tower and for the sVec_2 algebra (s_b = unit columns)
        towers = [
            SymTower(VerObject(7, (1, 0, 1, 0, 0, 0)), 5),
            svec2.sym_algebra(svec2.direct_sum(svec2.module_w(), svec2.trivial(1)), 5),
        ]
        for tw in towers:
            for a, b in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
                kron = (
                    tw.q[a + b]
                    @ np.kron(tw.mu(a, b - 1), np.eye(tw.nx, dtype=np.int64))
                    @ np.kron(np.eye(tw.dim(a), dtype=np.int64), tw.section(b))
                ) % tw.p
                assert np.array_equal(tw.mu(a, b), kron), (type(tw).__name__, a, b)


class _BlockFrame:
    """The per-block reference for `_TensorFrame`: every block pair
    J_c (x) J_n of V (x) X on its own, pieces in the order of V's blocks,
    then X's, and each size-j summand numbered in that order.  It reads T
    and T^-1 whole, from the uncached `_jordan_basis`."""

    def __init__(self, p, sizes_v, sizes_x):
        nx = sum(sizes_x)
        self.p, self.sizes_x, self.dim = p, sizes_x, sum(sizes_v) * nx
        self.pieces, self.summands = [], {}
        oc = 0
        for c in sizes_v:
            on = 0
            for n in sizes_x:
                idx = ((oc + np.arange(c))[:, None] * nx + on + np.arange(n)).reshape(-1)
                basis = _pair_basis(p, c, n)
                for j, tops in basis.tops_by_size.items():
                    self.summands.setdefault(j, []).append((len(self.pieces), tops))
                self.pieces.append((idx, basis, *_jordan_basis(p, c, n)[1:]))
                on += n
            oc += c

    def rows(self, j, k, coeff):
        """coeff @ (rows top+k of T^-1 at the size-j summands)."""
        out = np.zeros((coeff.shape[0], self.dim), dtype=np.int64)
        pos = 0
        for piece, tops in self.summands[j]:
            idx, _, _, tinv = self.pieces[piece]
            out[:, idx] = coeff[:, pos : pos + len(tops)] @ tinv[tops + k] % self.p
            pos += len(tops)
        return out

    def cols(self, j, k, coeff):
        """(columns top+k of T at the size-j summands) @ coeff."""
        out = np.zeros((self.dim, coeff.shape[1]), dtype=np.int64)
        pos = 0
        for piece, tops in self.summands[j]:
            idx, _, t, _ = self.pieces[piece]
            out[idx] = t[:, tops + k] @ coeff[pos : pos + len(tops)] % self.p
            pos += len(tops)
        return out

    def tensor_tops(self):
        """(global indices, top columns) per block (J_c (x) J_n) (x) J_n'
        and summand J_e of J_c (x) J_n, per size j."""
        nx, out = sum(self.sizes_x), {}
        for idx, basis, t, _ in self.pieces:
            on = 0
            for n2 in self.sizes_x:
                gidx = (idx[:, None] * nx + on + np.arange(n2)).reshape(-1)
                for e, starts in basis.tops_by_size.items():
                    inner, inner_t = _pair_basis(self.p, e, n2), _jordan_basis(self.p, e, n2)[1]
                    for j, tops in inner.tops_by_size.items():
                        z = inner_t[:, tops].reshape(e, -1)
                        for o in starts:
                            col = t[:, o : o + e] @ z % self.p
                            out.setdefault(j, []).append((gidx, col.reshape(-1, len(tops))))
                on += n2
        return out


def _top_columns(entries):
    """The columns of tensor-top entries as sorted (global row, value)
    tuples: entries hold one block's indices or a stack of them."""
    out = []
    for gidx, cols in entries:
        for g in np.reshape(gidx, (-1, cols.shape[0])):
            for col in cols.T:
                nz = np.flatnonzero(col)
                out.append(tuple(zip(g[nz].tolist(), col[nz].tolist())))
    return sorted(out)


@st.composite
def frame_sizes(draw):
    # few distinct sizes, so block pairs of one (c, n) repeat
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    pool = draw(st.lists(st.integers(1, min(p - 1, 6)), min_size=1, max_size=3))
    sizes_v = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    sizes_x = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return p, tuple(sizes_v), tuple(sizes_x), draw(st.integers(0, 2**32 - 1))


class TestTensorFrame:
    """The frame that handles the block pairs of one (c, n) together
    against the per-block reference, summand numbering included."""

    @settings(max_examples=40, deadline=None)
    @given(frame_sizes())
    def test_grouped_frame_matches_per_block_reference(self, case):
        p, sizes_v, sizes_x, seed = case
        frame, ref = _TensorFrame(p, sizes_v, sizes_x), _BlockFrame(p, sizes_v, sizes_x)
        rng = np.random.default_rng(seed)
        assert set(frame.summands) == set(ref.summands)
        for j in ref.summands:
            count = frame.counts[j]
            assert count == sum(len(tops) for _, tops in ref.summands[j])
            assert np.array_equal(frame.tops(j), ref.rows(j, 0, np.eye(count, dtype=np.int64)))
            coeff = rng.integers(0, p, size=(3, count))
            want = np.stack([ref.rows(j, k, coeff) for k in range(j)], axis=1)
            assert np.array_equal(frame.chains(j, coeff), want.reshape(-1, ref.dim))
            coeff = rng.integers(0, p, size=(count, 2))
            want = np.stack([ref.cols(j, k, coeff) for k in range(j)], axis=2)
            assert np.array_equal(frame.cols(j, coeff), want.reshape(ref.dim, -1))
        local = {}
        got, want = frame.tensor_tops(local), ref.tensor_tops()
        assert set(got) == set(want)
        for j in want:
            assert _top_columns(got[j]) == _top_columns(want[j]), j
        # one local entry per (c, n, n'), read-only, reused by the next call
        assert set(local) == {(c, n, n2) for c in sizes_v for n in sizes_x for n2 in sizes_x}
        again = frame.tensor_tops(local)
        for j in got:
            assert all(a[1] is b[1] for a, b in zip(got[j], again[j]))
            assert not any(cols.flags.writeable for _, cols in got[j])

    def test_triple_tops_are_shared_degree_data(self):
        # towers alive on one key read one cache of triple-product tops
        x = L(7, 2) + L(7, 2) + L(7, 3)
        first, second = SymTower(x, 5), SymTower(x, 5)
        assert second._deg is first._deg and first._deg.tops
        sizes = {s for m in range(4) for s in first.sizes[m]}
        assert {c for c, _, _ in first._deg.tops} <= sizes
        assert {(n, n2) for _, n, n2 in first._deg.tops} <= {(2, 2), (2, 3), (3, 2), (3, 3)}


class TestPairBasis:
    """Jordan bases of J_a (x) J_b: sizes against the decomposition oracle
    and against fusion plus (a+b-p)^+ projective blocks."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_sizes_match_oracle_and_fusion(self, p):
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                sizes = _pair_basis(p, a, b).sizes
                oracle = jordan_type(
                    tensor(jordan_module(p, [a]), jordan_module(p, [b]))
                ).parts
                assert sizes == tuple(oracle), (p, a, b)
                fused = (
                    VerObject(p, fusion_rule(p, a, b)).block_sizes()
                    if a < p and b < p
                    else ()
                )
                assert sizes == (p,) * max(a + b - p, 0) + fused, (p, a, b)

    def test_conjugates_tensor_generator_to_jordan_form(self):
        for p in (3, 5, 7):
            for a in range(1, p + 1):
                for b in range(1, p + 1):
                    sizes, t, tinv = _jordan_basis(p, a, b)
                    assert tuple(sizes) == _pair_basis(p, a, b).sizes
                    g = tensor(jordan_module(p, [a]), jordan_module(p, [b])).g.a
                    jordan = jordan_module(p, sizes).g.a
                    assert np.array_equal((t @ tinv) % p, np.eye(a * b))
                    assert np.array_equal((tinv @ g @ t) % p, jordan)

    def test_cache_keeps_only_the_chain_layouts(self):
        # T and T^-1 whole are not kept; the layouts are theirs, cut per size
        for p in (3, 5, 7):
            for a in range(1, p + 1):
                for b in range(1, p + 1):
                    pb = _pair_basis(p, a, b)
                    assert not hasattr(pb, "t") and not hasattr(pb, "tinv")
                    sizes, t, tinv = _jordan_basis(p, a, b)
                    tops = [o for starts in pb.tops_by_size.values() for o in starts]
                    assert np.array_equal(pb.top_cols, t[:, tops])
                    for j, starts in pb.tops_by_size.items():
                        chains = starts[:, None] + np.arange(j)
                        assert np.array_equal(
                            pb.row_chains[j], tinv[chains].reshape(len(starts), -1)
                        )
                        cols = t[:, chains].transpose(0, 2, 1).reshape(-1, len(starts))
                        assert np.array_equal(pb.col_chains[j], cols)

    def test_corrupted_basis_raises_under_python_o(self):
        # the conjugation checks raise AssertionError themselves, so the
        # assert-stripping `python -O` still rejects a wrong basis
        code = (
            "from vercat import verlinde\n"
            "verlinde._nil_rows = lambda v, a, b, p: v % p\n"
            "verlinde._pair_basis(5, 2, 3)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(verlinde.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 1
        assert "AssertionError: pair basis is not" in out.stderr


class TestFullTables:
    def test_p13_vanishing_and_hermite_reciprocity(self):
        # every n < p to depth p-n+1: S^(p-n+1)(L_n) = 0 and
        # S^m(L_n) = S^(n-1)(L_(m+1)) whenever m+1 <= p-1
        p = 13
        table = {n: sym_alg_series(L(p, n), p - n + 1).degrees for n in range(1, p)}
        for n in range(2, p):
            assert table[n][p - n + 1].is_zero(), n
        checked = 0
        for n in range(1, p):
            for m in range(min(len(table[n]), p - 1)):
                assert table[n][m] == table[m + 1][n - 1], (m, n)
                checked += 1
        assert checked == 99
