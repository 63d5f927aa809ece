"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion here is exact; the timing targets are reported, not
asserted, so a slow machine degrades gracefully.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time

import numpy as np

from vercat.exactlin import matmul_mod
from vercat.repzp import (
    braiding as rep_braiding,
    hom_stack,
    jordan_module,
    jordan_type,
    sym_power,
    tensor,
)
from vercat.verlinde import (
    VerObject,
    fusion_rule,
    poly_factor_check,
    quotient,
    series_product,
    sym_alg_series,
    ver_hom,
    ver_sym_power,
)
from vercat import invariants as inv
from vercat import svec2 as sv
from vercat.cli import main as cli_main


def report(n, label, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {n:2d} PASS: {label}{suffix}")


def test_01_fusion_oracle_equivalence():
    t0 = time.time()
    count = 0
    for p in (3, 5, 7, 11, 13):
        for r in range(1, p):
            for s in range(1, p):
                count += 1
                formula = VerObject(p, fusion_rule(p, r, s))
                oracle = quotient(tensor(jordan_module(p, [r]), jordan_module(p, [s])))
                assert formula == oracle, (p, r, s)
    elapsed = time.time() - t0
    assert count == 300  # all ordered pairs over the five primes
    report(1, f"fusion formula = Jordan oracle on {count} instances", elapsed)


def test_02_vanishing_instances():
    t0 = time.time()
    for p in (3, 5, 7):
        for n in range(2, p):
            assert ver_sym_power(VerObject.simple(p, n), p - n + 1).is_zero(), (p, n)
    for n in (2, 3, 4, 5):
        assert ver_sym_power(VerObject.simple(11, n), 11 - n + 1).is_zero(), (11, n)
    report(2, "S^(p-n+1)(L_n) = 0 on the full grid incl. p = 11", time.time() - t0)


def test_03_symmetric_power_dimensions():
    for p in (3, 5, 7):
        for n in range(1, min(4, p) + 1):
            for m in range(0, 7):
                s = sym_power(jordan_module(p, [n]), m)
                assert s.dim == math.comb(n + m - 1, n - 1), (p, n, m)
    report(3, "dim S^m(J_n) = C(n+m-1, n-1) across the grid")


def test_04_polynomial_factorization():
    t0 = time.time()
    cases = [
        (5, VerObject(5, (1, 1, 0, 0)), 1),
        (7, VerObject(7, (2, 0, 1, 0, 0, 0)), 2),
        (3, VerObject(3, (1, 1)), 1),
    ]
    for p, x, n_triv in cases:
        assert x.mult_of(1) == n_triv
        series = sym_alg_series(x, 10)
        ok, y = poly_factor_check(series, n_triv)
        assert ok, (p, str(x))
        assert y is not None and all(m >= 0 for m in y.mult)
    report(4, "S(X) factors as polynomials times a finite series, D = 10",
           time.time() - t0)


def test_05_series_sum_rule():
    rng = random.Random(424242)
    for p in (3, 5):
        for _ in range(5):
            mx = [0] * (p - 1)
            my = [0] * (p - 1)
            for m in (mx, my):
                for i in rng.sample(range(p - 1), rng.randint(1, 2)):
                    m[i] = 1
            x, y = VerObject(p, tuple(mx)), VerObject(p, tuple(my))
            budget = 2**24
            lhs = sym_alg_series(x + y, 6, budget)
            rhs = series_product(
                sym_alg_series(x, 6, budget), sym_alg_series(y, 6, budget)
            )
            assert lhs.degrees == rhs.degrees, (p, str(x), str(y))
    report(5, "S(X+Y) = S(X) * S(Y) degreewise, 5 random pairs per prime")


def test_06_semisimplicity_of_quotient():
    t0 = time.time()
    for p in (3, 5, 7, 11):
        for i in range(1, p):
            for j in range(1, p):
                dim = ver_hom(jordan_module(p, [i]), jordan_module(p, [j])).dim
                assert dim == (1 if i == j else 0), (p, i, j)
        jp = jordan_module(p, [p])
        # End(J_p) entirely negligible
        assert len(hom_stack(jp, jp)) == p and ver_hom(jp, jp).dim == 0
    report(6, "dim Hom_Ver(L_i, L_j) = delta_ij and End(J_p) negligible",
           time.time() - t0)


def test_07_svec2_noninjectivity_witness():
    u = sv.trivial(1)
    w = sv.module_w()
    incl = [[0], [1]]
    assert sv.injectivity_check(u, w, incl, 1) is None  # nothing below 2
    assert sv.injectivity_check(u, w, incl, 5) == 2
    alg = sv.sym_algebra(w, 4)
    assert alg.dims[2] == 2
    y = alg.from_vector(1, [0, 1])
    assert alg.mul(y, y) == {}  # the relation y^2 = 0 itself
    report(7, "S(<y>) -> S(W) fails first at degree 2 via y^2 = 0; dim S^2(W) = 2")


def test_08_fourth_power_identity_suite():
    t0 = time.time()
    for mod in (sv.module_w(), sv.direct_sum(sv.module_w(), sv.trivial(1))):
        rep = sv.fourth_power_checks(mod, 8, 200, 7)
        for name, val in rep.items():
            assert val, name
    report(8, "all six fourth-power identities, 200 seeded trials on S(W), S(W+1)",
           time.time() - t0)


def test_09_braiding_symmetry():
    rng = random.Random(31415)
    for _ in range(100):
        p = rng.choice((3, 5, 7))
        a = jordan_module(p, [rng.randint(1, p)])
        b = jordan_module(p, [rng.randint(1, p), rng.randint(1, p)])
        c_ab = rep_braiding(a, b)
        c_ba = rep_braiding(b, a)
        assert np.array_equal(matmul_mod(c_ba, c_ab, p), np.eye(a.dim * b.dim))
    for _ in range(100):
        dims = (rng.randint(1, 4), rng.randint(1, 4))
        mods = []
        for dim in dims:
            while True:
                d = np.array([[rng.randrange(2) for _ in range(dim)] for _ in range(dim)])
                if not (d @ d % 2).any():
                    mods.append(sv.DModule(d))
                    break
        a, b = mods
        c = matmul_mod(sv.braiding(b, a), sv.braiding(a, b), 2)
        assert np.array_equal(c, np.eye(a.dim * b.dim))
    report(9, "c . c = id on 100 random pairs in Rep(Z/pZ) and in sVec_2")


def test_10_invariant_theory_witnesses():
    t0 = time.time()
    x = VerObject(5, (1, 1, 0, 0))
    alg = inv.build_invariant_algebra(x, 10)
    gens = inv.generator_degrees(alg)
    assert all(c == 0 for m, c in gens if m >= 2), gens
    selected, stabilized = inv.module_finiteness_check(x, 10)
    assert stabilized, selected
    assert inv.isotypic_stability_check(x, 10, 100, 42)
    assert inv.frobenius_check(alg, trials=50, seed=0)
    report(10, "generators stabilize, module finite, Reynolds stable, Frobenius ok",
           time.time() - t0)


def test_11_char0_counterexample():
    counts = inv.char0_counterexample(8)
    for m in range(3, 9):
        assert counts[m] == (m, 1), counts
    report(11, "char-0 demo: exactly one new invariant generator in degrees 3..8 "
               "(expected non-stabilization)")


def test_12_mutation_negative_control(capsys):
    code = cli_main(["verify", "--suite", "fusion", "--mutate", "drop-pr-bound"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample (p,r,s)=" in out
    with capsys.disabled():
        report(12, "corrupted fusion formula exits 1 with a concrete counterexample")
