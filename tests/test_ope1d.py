"""D = 1 distribution calculus: j-th products, delta expansions, locality.

delta_pair is checked against a brute-force two-sided series oracle: expand
delta(z - w) = sum_k z^k w^(-k-1) over a window of k, differentiate in w
symbolically, multiply by z^n and read off the z^(-1) coefficient.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from lambdacone import (
    DeltaDistribution,
    JthProductList,
    LambdaPoly,
    ModuleElement,
    build_wd,
    commutator_from_lambda,
    delta_mul_pow,
    delta_pair,
    jth_from_lambda,
    lambda_from_jth,
    locality_check,
    pseudo_space,
)


@pytest.fixture
def vs():
    return pseudo_space(1)


def _element(vs, poly_or_const, r=1, k=0):
    poly = poly_or_const if not isinstance(poly_or_const, int) else vs.const(poly_or_const)
    return ModuleElement(vs, r, {k: poly})


def test_jth_from_lambda_square(vs):
    c = _element(vs, 1)
    L = LambdaPoly(c.vs, c.r, c.coords).scale(vs.var("lam", 1) ** 2)
    assert jth_from_lambda(L).products == {2: c.scale(2)}


def test_jth_virasoro_instance(vs):
    table = build_wd(1)
    products = jth_from_lambda(table.entry(0, 0)).products
    assert products == {
        0: _element(vs, vs.var("T", 1)),
        1: _element(vs, 2),
    }


def test_jth_of_zero(vs):
    assert not jth_from_lambda(LambdaPoly.zero(vs, 1)).products


def test_lambda_from_jth_inverse(vs):
    J = JthProductList(vs, 1, {0: _element(vs, vs.var("T", 1)), 1: _element(vs, 2)})
    assert lambda_from_jth(J) == build_wd(1).entry(0, 0)
    assert not lambda_from_jth(JthProductList(vs, 1, {})).coords


def test_roundtrip_random(vs):
    rng = random.Random(5)
    for _ in range(20):
        coords = vs.zero
        for j in range(rng.randint(0, 4)):
            c = rng.randint(-6, 6)
            if c:
                coords = coords + vs.from_exps("lam", (j,), c) * (
                    vs.var("T", 1) ** rng.randint(0, 2)
                )
        L = LambdaPoly(vs, 1, {0: coords})
        assert lambda_from_jth(jth_from_lambda(L)) == L


def test_commutator_transport(vs):
    c = _element(vs, 1)
    L = LambdaPoly(c.vs, c.r, c.coords).scale(vs.var("lam", 1) ** 2)
    dist = commutator_from_lambda(L)
    assert dist.parts == {2: c.scale(2)}
    assert not commutator_from_lambda(LambdaPoly.zero(vs, 1))
    assert commutator_from_lambda(build_wd(1).entry(0, 0)).parts == {
        0: _element(vs, vs.var("T", 1)),
        1: _element(vs, 2),
    }


def test_delta_rewrite_steps(vs):
    c = _element(vs, 1)
    assert delta_mul_pow(DeltaDistribution(vs, 1, {1: c}), 1).parts == {0: c}
    assert not delta_mul_pow(DeltaDistribution(vs, 1, {0: c}), 1)
    dist = DeltaDistribution(vs, 1, {0: c, 1: c.scale(2), 2: c.scale(3)})
    assert not delta_mul_pow(dist, 3)


def test_locality_values(vs):
    c = _element(vs, 1)
    assert locality_check(DeltaDistribution(vs, 1, {0: c})) == 1
    assert locality_check(DeltaDistribution(vs, 1, {})) == 0
    w1 = commutator_from_lambda(build_wd(1).entry(0, 0))
    assert locality_check(w1) == 2


def test_locality_is_sharp_random(vs):
    rng = random.Random(77)
    for _ in range(25):
        parts = {}
        for j in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                parts[j] = _element(vs, rng.randint(1, 5))
        dist = DeltaDistribution(vs, 1, parts)
        n = locality_check(dist)
        assert not delta_mul_pow(dist, n)
        if dist:
            assert delta_mul_pow(dist, n - 1)


# ----------------------------------------------------------------------
# delta_pair against the two-sided series oracle
# ----------------------------------------------------------------------

def _delta_pair_oracle(n, j, K=12):
    """Res_z z^n d_w^j delta / j! from the literal series, coefficients exact."""
    total = {}
    for k in range(-K, K + 1):
        # term z^k w^(-k-1), differentiated j times in w
        coeff = Fraction(1)
        power = -k - 1
        for _ in range(j):
            coeff *= power
            power -= 1
        coeff /= factorial(j)
        zpow = k + n
        if zpow == -1 and coeff:
            total[power] = total.get(power, Fraction(0)) + coeff
    assert len(total) <= 1
    if not total:
        return Fraction(0), None
    (power, coeff), = total.items()
    return coeff, power


def test_delta_pair_examples():
    assert delta_pair(0, 0) == (1, 0)
    assert delta_pair(1, 0) == (1, 1)
    assert delta_pair(3, 2) == (3, 1)


def test_delta_pair_binomial_vanishing():
    for j in range(1, 5):
        for n in range(j):
            assert delta_pair(n, j).coeff == 0


def test_delta_pair_matches_series_oracle():
    for n in range(-4, 5):
        for j in range(5):
            coeff, power = _delta_pair_oracle(n, j)
            term = delta_pair(n, j)
            assert term.coeff == coeff
            if coeff:
                assert term.power == power


def test_requires_d1():
    vs2 = pseudo_space(2)
    with pytest.raises(ValueError):
        jth_from_lambda(LambdaPoly.zero(vs2, 1))
