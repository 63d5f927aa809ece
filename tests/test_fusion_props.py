"""Property tests: the closed fusion rule of Ver_p satisfies the laws of
a based commutative ring, for random primes p <= 31 and random simples,
and `fusion` extends it bilinearly to random objects, sparse ones with
huge multiplicities up to p = 211."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercat.verlinde import VerObject, fusion, fusion_rule

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def simples(draw, count: int):
    p = draw(st.sampled_from(PRIMES))
    return (p,) + tuple(draw(st.integers(1, p - 1)) for _ in range(count))


def n(p: int, r: int, s: int, t: int) -> int:
    """Structure constant N_rs^t: multiplicity of L_t in L_r (x) L_s."""
    return fusion_rule(p, r, s)[t - 1]


@settings(max_examples=200, deadline=None)
@given(simples(2))
def test_commutative(case):
    p, r, s = case
    assert fusion_rule(p, r, s) == fusion_rule(p, s, r)


@settings(max_examples=200, deadline=None)
@given(simples(3))
def test_associative(case):
    p, r, s, t = case
    lr, ls, lt = (VerObject.simple(p, i) for i in (r, s, t))
    assert fusion(fusion(lr, ls), lt) == fusion(lr, fusion(ls, lt))


@settings(max_examples=200, deadline=None)
@given(simples(2))
def test_unit_and_pairing(case):
    # L_1 is the unit, and every simple is self-dual: L_1 occurs in
    # L_r (x) L_s exactly when r = s, once
    p, r, s = case
    assert fusion_rule(p, 1, r) == VerObject.simple(p, r).mult
    assert n(p, r, s, 1) == (1 if r == s else 0)


@settings(max_examples=200, deadline=None)
@given(simples(3))
def test_frobenius_reciprocity(case):
    p, r, s, t = case
    assert n(p, r, s, t) == n(p, r, t, s)


@settings(max_examples=200, deadline=None)
@given(simples(2))
def test_dimension(case):
    # J_r (x) J_s has dimension rs; the quotient drops (r+s-p)^+ blocks J_p
    p, r, s = case
    assert VerObject(p, fusion_rule(p, r, s)).dim == r * s - p * max(r + s - p, 0)


@st.composite
def object_pairs(draw):
    """Two random objects of Ver_p, p <= 13, and a prime other than p."""
    p = draw(st.sampled_from(PRIMES[:6]))
    mults = st.lists(st.integers(0, 4), min_size=p - 1, max_size=p - 1)
    a, b = (VerObject(p, tuple(draw(mults))) for _ in range(2))
    return a, b, draw(st.sampled_from([q for q in PRIMES if q != p]))


@settings(max_examples=200, deadline=None)
@given(object_pairs())
def test_fusion_is_the_bilinear_sum_of_the_rule(case):
    a, b, other = case
    p = a.p
    want = [0] * (p - 1)
    for r in range(1, p):
        for s in range(1, p):
            for t, m in enumerate(fusion_rule(p, r, s)):
                want[t] += a.mult_of(r) * b.mult_of(s) * m
    assert fusion(a, b) == VerObject(p, tuple(want))
    with pytest.raises(ValueError, match="prime mismatch"):
        fusion(a, VerObject.zero(other))


@st.composite
def sparse_pairs(draw):
    """Two objects of a few simples each, multiplicities up to 10^12, at
    primes 101, 103 and 211."""
    p = draw(st.sampled_from([101, 103, 211]))
    support = st.dictionaries(st.integers(1, p - 1), st.integers(1, 10**12), max_size=4)
    return tuple(
        VerObject(p, tuple(d.get(i, 0) for i in range(1, p)))
        for d in (draw(support), draw(support))
    )


@settings(max_examples=100, deadline=None)
@given(sparse_pairs())
def test_fusion_is_the_bilinear_sum_of_the_rule_at_large_primes(case):
    a, b = case
    p = a.p
    want = [0] * (p - 1)
    for r, x in enumerate(a.mult, 1):
        for s, y in enumerate(b.mult, 1):
            for t, m in enumerate(fusion_rule(p, r, s) if x and y else ()):
                want[t] += x * y * m
    assert fusion(a, b) == VerObject(p, tuple(want))
