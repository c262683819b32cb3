"""Harmonic bases, Gauss decomposition, cone series, iota expansions.

h_dim is checked against a brute-force Laplacian kernel rank computed from
scratch (monomial enumeration + exact row reduction), the closed-form harmonic
basis against the row-reduced Laplacian kernel, and gauss_decompose
against literal reconstruction sum (z^2)^j p_j with harmonicity asserted
through the polynomial Laplacian.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import ge, sub

import pytest

from lambdacone import (
    FULL_WINDOW,
    BiConeSeries,
    ConeSeries,
    Kernel,
    TruncationError,
    VarSpace,
    Window,
    WorkspaceError,
    basis_poly_in,
    bicone_from_poly,
    clear_caches,
    cone_from_poly,
    gauss_decompose,
    h_dim,
    harmonic_basis,
    iota_antisym,
    iota_expand,
    iota_kernel,
)
from lambdacone.cone import (
    _basis_words,
    _decompose,
    _dh_table,
    _gauss_terms,
    _harmonic_parts,
    _harmonic_raw,
    _int_form,
    _int_sum_of_products,
    _laplacian_table,
    _neg_binom,
    _pivots,
    _projector_weights,
    _raw_laplacian,
    _raw_mul,
    _times_harm,
    _times_mono,
    _x2_table,
    _zonal,
)
from lambdacone.linalg import kernel_basis, rref
from lambdacone.pseudo import ModuleElement, pseudo_space
from lambdacone.rings import _clear, _exact, dense_monomials


def _zspace(D):
    return VarSpace(D, ("z",))


def _table_values(table):
    """An int table (den, ((key, int), ...)) as ((key, exact value), ...)."""
    den, entries = table
    return tuple((key, _exact(Fraction(q, den))) for key, q in entries)


def _decomposition(D, m, raw, den=1):
    """The degree-m polynomial raw / den, int or Fraction, decomposed as
    {(j, m', sigma): exact value}."""
    clear, (ints,) = _clear(raw)
    return dict(_table_values(_decompose(D, m, ints, den * clear)))


def brute_kernel_rank(D, m):
    """Rank of the Laplacian kernel on degree-m monomials, from first principles."""
    vs = _zspace(D)
    monos = vs.monomials_of_degree("z", m)
    images = [vs.from_exps("z", exps).laplacian("z") for exps in monos]
    targets = sorted({exps for img in images for exps in img.dense("z")})
    index = {exps: i for i, exps in enumerate(targets)}
    matrix = [[Fraction(0)] * len(monos) for _ in targets]
    for col, img in enumerate(images):
        for exps, coeff in img.dense("z").items():
            matrix[index[exps]][col] = coeff
    _, rank = rref(matrix)
    return len(monos) - rank


def test_h_dim_examples():
    assert h_dim(1, 2) == 0 == brute_kernel_rank(1, 2)
    assert h_dim(3, 2) == 5 == brute_kernel_rank(3, 2)
    assert h_dim(2, 0) == 1 == brute_kernel_rank(2, 0)


def test_h_dim_matches_kernel_rank():
    for D in (1, 2, 3, 4):
        for m in range(7):
            basis = harmonic_basis(D, m)
            assert h_dim(D, m) == brute_kernel_rank(D, m) == len(basis)


def test_basis_words_bounds_the_basis_build():
    # Every term of the build is counted, and a shape whose pivots alone
    # exceed 2^64 returns the cap at once.
    for D in range(1, 7):
        for m in range(11 if D < 5 else 8):
            den, numerators = _harmonic_raw(D, m)
            terms = sum(map(len, numerators))
            assert (terms + 1 if terms else 0) * (D + 1 + m * m.bit_length() // 64) <= _basis_words(D, m)
    # D = 2, m = 10: 2 pivots of at most 10 / 2 + 1 terms, and 10!; 3 words a term.
    assert _basis_words(2, 10) == (2 * 6 + 1) * 3
    assert _basis_words(10 ** 6, 10 ** 6) == 2 ** 64
    # D = 1 has no pivot past m = 1: an empty basis, formed without m!.
    assert _basis_words(1, 99999999) == 0 and harmonic_basis(1, 99999999) == ()
    for D, m in ((0, 1), (2, -1)):
        with pytest.raises(ValueError):
            _basis_words(D, m)


def test_harmonic_basis_representatives():
    vs = _zspace(2)
    z1, z2 = vs.var("z", 1), vs.var("z", 2)
    assert list(harmonic_basis(2, 1)) == [z1, z2]
    assert list(harmonic_basis(2, 2)) == [z1 * z1 - z2 * z2, z1 * z2]
    one_d = harmonic_basis(1, 0)
    assert list(one_d) == [_zspace(1).one]
    assert list(harmonic_basis(1, 1)) == [_zspace(1).var("z", 1)]
    assert not list(harmonic_basis(1, 2))


def test_harmonic_basis_is_harmonic():
    for D in (1, 2, 3, 4):
        for m in range(7):
            for h in harmonic_basis(D, m):
                assert not h.laplacian("z")
                assert {sum(exps) for exps in h.dense("z")} == {m}


def test_basis_poly_in_a_wider_workspace():
    # The exponent vectors of h_{m,sigma} are D long; the remaining z
    # variables of the workspace stay at exponent 0.
    vs = VarSpace(3, ("T", "z"))
    z1, z2 = vs.var("z", 1), vs.var("z", 2)
    assert basis_poly_in(2, 3, 1, vs) == z1 ** 3 - 3 * z1 * z2 ** 2
    assert basis_poly_in(2, 2, 2, vs) == z1 * z2
    with pytest.raises(WorkspaceError):
        basis_poly_in(4, 1, 1, vs)


def test_basis_poly_in_rejects_a_mode_outside_the_basis():
    # h_dim(2, 2) = 2, so sigma must be 1 or 2; m must be >= 0.
    vs = _zspace(2)
    for m, sigma, message in ((2, 0, "sigma 0 out of range"), (2, -1, "sigma -1 out of range"),
                              (2, 3, "sigma 3 out of range"), (-1, 1, "m must be >= 0")):
        with pytest.raises(ValueError, match=message):
            basis_poly_in(2, m, sigma, vs)


def test_mode_validation_forms_no_binomial_it_does_not_need():
    # A sigma up to the pivots with x_D exponent 0 is in range without
    # forming h_dim, which takes seconds at D = m = 2 * 10^5; the range is
    # still exactly 1..h_dim(D, m).
    start = time.perf_counter()
    ConeSeries(2 * 10**5, "z", {(0, 2 * 10**5, 1): 1})
    assert time.perf_counter() - start < 1
    for D in range(1, 8):
        for m in range(9):
            top = h_dim(D, m)
            for sigma in range(-1, top + 2):
                if 1 <= sigma <= top:
                    ConeSeries(D, "z", {(0, m, sigma): 1})
                else:
                    with pytest.raises(ValueError, match=f"sigma {sigma} out of range"):
                        ConeSeries(D, "z", {(0, m, sigma): 1})


def _rref_harmonic_basis(D, m):
    """The reduced echelon basis of the Laplacian kernel on the degree-m
    monomials, by exact row reduction, as (den, int numerators) over the
    least common denominator; each numerator dict lists its monomials in
    canonical order."""
    monos = dense_monomials(D, m)
    if m < 2:
        return 1, tuple({e: 1} for e in monos)
    index = {e: i for i, e in enumerate(dense_monomials(D, m - 2))}
    matrix = [[0] * len(monos) for _ in index]
    for col, exps in enumerate(monos):
        for alpha, e in enumerate(exps):
            if e >= 2:
                matrix[index[exps[:alpha] + (e - 2,) + exps[alpha + 1:]]][col] = e * (e - 1)
    basis = kernel_basis(matrix, len(monos))
    den = lcm(*(c.denominator for vector in basis for c in vector))
    return den, tuple({monos[i]: c.numerator * (den // c.denominator)
                       for i, c in enumerate(vector) if c} for vector in basis)


def test_harmonic_basis_is_the_reduced_echelon_laplacian_kernel():
    # The closed form equals the row-reduced kernel, and its pivots are the
    # leading monomials of the row-reduced vectors.
    for D, m_max in ((1, 8), (2, 8), (3, 8), (4, 8), (5, 6), (6, 6)):
        for m in range(m_max + 1):
            den, numerators = _rref_harmonic_basis(D, m)
            assert _harmonic_raw(D, m) == (den, numerators)
            assert _pivots(D, m) == tuple(next(iter(h)) for h in numerators)
            assert len(_pivots(D, m)) == h_dim(D, m)


def test_diff_parts_reads_the_derivative_at_the_pivots():
    # The Gauss decomposition of the differentiated numerators, types included;
    # _dh_table, and the _times_mono table of x_alpha that diff reads beside
    # it, store int numerators over one denominator.
    for D in range(1, 5):
        for m in range(7):
            den, numerators = _harmonic_raw(D, m)
            for sigma, h in enumerate(numerators, start=1):
                for a in range(D):
                    dh = {e[:a] + (e[a] - 1,) + e[a + 1:]: c * e[a] for e, c in h.items() if e[a]}
                    expected = tuple(_decomposition(D, m - 1, dh, den).items()) if dh else ()
                    part_den, dh_part = _dh_table(D, m, sigma, a + 1)
                    x_den, x_part = _times_mono(D, m, sigma, tuple(int(b == a) for b in range(D)))
                    assert type(part_den) is int and part_den >= 1
                    assert type(x_den) is int and x_den >= 1
                    assert all(type(q) is int for _, q in x_part + dh_part)
                    got = tuple((mode, _exact(Fraction(q, part_den))) for mode, q in dh_part)
                    assert got == expected
                    assert [type(q) for _, q in got] == [type(q) for _, q in expected]


# ----------------------------------------------------------------------
# Gauss decomposition
# ----------------------------------------------------------------------

def test_gauss_z_squared_itself():
    vs = _zspace(2)
    z2 = vs.var("z", 1) ** 2 + vs.var("z", 2) ** 2
    assert gauss_decompose(z2) == [(1, vs.one)]


def test_gauss_single_square():
    vs = _zspace(2)
    p = vs.var("z", 1) ** 2
    expected_h = (vs.var("z", 1) ** 2 - vs.var("z", 2) ** 2) * Fraction(1, 2)
    assert gauss_decompose(p) == [(0, expected_h), (1, vs.const(Fraction(1, 2)))]


def test_gauss_harmonic_is_fixed():
    vs = _zspace(3)
    p = vs.var("z", 1) * vs.var("z", 2)
    assert gauss_decompose(p) == [(0, p)]


def _random_zpoly(rng, D, degmax=6):
    vs = _zspace(D)
    poly = vs.zero
    for _ in range(rng.randint(1, 5)):
        exps = [0] * D
        for _ in range(rng.randint(0, degmax)):
            exps[rng.randrange(D)] += 1
        poly = poly + vs.from_exps("z", exps, rng.randint(-9, 9))
    return poly


def test_gauss_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(40):
        D = rng.randint(1, 4)
        p = _random_zpoly(rng, D)
        vs = p.vs
        z2 = sum((vs.var("z", a) ** 2 for a in range(1, D + 1)), vs.zero)
        rebuilt = vs.zero
        for j, pj in gauss_decompose(p):
            assert not pj.laplacian("z")
            rebuilt = rebuilt + (z2 ** j) * pj
        assert rebuilt == p


def test_decompose_raw_edge_cases():
    for D in (1, 2, 3):
        for m in (0, 1, 4):
            assert _decomposition(D, m, {}) == {}
    assert _decomposition(3, 0, {(0, 0, 0): Fraction(5)}) == {(0, 0, 1): 5}
    # Degree-1 harmonics are z1..zD in order, so z2 is sigma = 2.
    assert _decomposition(3, 1, {(0, 1, 0): Fraction(2)}) == {(0, 1, 2): 2}
    assert _decomposition(2, 1, {(1, 0): Fraction(3), (0, 1): Fraction(-1)}) == {
        (0, 1, 1): 3, (0, 1, 2): -1,
    }
    # In one dimension z^4 = (z^2)^2 and there are no harmonics of degree > 1.
    assert _decomposition(1, 4, {(4,): Fraction(1)}) == {(2, 0, 1): 1}
    assert _decomposition(1, 5, {(5,): Fraction(3)}) == {(2, 1, 1): 3}


def _exact_values(values):
    """Whether every value is an int or a Fraction: no float, no bool."""
    return all(type(v) in (int, Fraction) for v in values)


def test_decompose_raw_of_int_input_is_exact():
    # z1^2 = (z^2)/3 + (2 z1^2 - z2^2 - z3^2)/3 in D = 3: int input, thirds out.
    out = _decomposition(3, 2, {(2, 0, 0): 1})
    assert out[(1, 0, 1)] == Fraction(1, 3) and type(out[(1, 0, 1)]) is Fraction
    rng = random.Random(12)
    for D in range(1, 5):
        for m in range(7):
            monos = dense_monomials(D, m)
            raw = {e: rng.choice((-1, 1)) * rng.randint(1, 9)
                   for e in rng.sample(monos, min(len(monos), 5))}
            out = _decomposition(D, m, raw)
            assert out == _decomposition(D, m, {e: Fraction(c) for e, c in raw.items()})
            assert _exact_values(out.values())




def test_cone_kernels_store_no_float():
    # The degree-2 harmonics are integral (z1^2 - z3^2, z1 z2, ...): stored as int.
    den, numerators = _harmonic_raw(3, 2)
    assert den == 1 and all(type(c) is int for h in numerators for c in h.values())
    for D in (1, 2, 3, 4):
        for m in range(5):
            den, numerators = _harmonic_raw(D, m)
            assert _exact_values([den])
            for h in numerators:
                assert _exact_values(h.values())
            for m2 in range(3):
                for s1 in range(1, h_dim(D, m) + 1):
                    for s2 in range(1, h_dim(D, m2) + 1):
                        # int numerators over an int denominator
                        den, table = _times_harm(D, m, s1, m2, s2)
                        assert type(den) is int and den >= 1
                        assert all(type(q) is int and q for _, q in table)
                        assert gcd(den, *(q for _, q in table)) == 1
                        assert _exact_values(q for _, q in _table_values((den, table)))
        for k, side in ((0, "zw"), (1, "zw"), (2, "wz")):
            assert _exact_values(iota_expand(D, k, side, 4).coeffs.values())
    rng = random.Random(5)
    for _ in range(10):
        p = _random_zpoly(rng, rng.randint(1, 4))
        for _, pj in gauss_decompose(p):
            assert _exact_values(pj.dense("z").values())
        series = cone_from_poly(p)
        for changed in (series.scale(3), series.parity_flip(), series.scale(Fraction(1, 2))):
            assert _exact_values(changed.coeffs.values())
    # 3 z1^2 = 3/2 z^2 + 3/2 (z1^2 - z2^2) in D = 2
    series = cone_from_poly(_zspace(2).var("z", 1) ** 2 * 3).scale(3)
    assert series.coeffs == {(1, 0, 1): Fraction(9, 2), (0, 2, 1): Fraction(9, 2)}


def test_series_constructors_reject_a_float_and_store_exact_values_as_given():
    element = ModuleElement(pseudo_space(1), 1, {0: pseudo_space(1).one})
    mode, pair = (0, 0, 1), ((0, 0, 1), (-1, 1, 1))
    for bad in (0.5, 1.0, -0.0):
        with pytest.raises(TypeError, match="float"):
            ConeSeries(1, "z", {mode: bad})
        with pytest.raises(TypeError, match="float"):
            BiConeSeries(1, {pair: bad})
    for good in (3, Fraction(1, 2), Fraction(2), element):
        assert ConeSeries(1, "z", {mode: good}).coeffs[mode] is good
        assert BiConeSeries(1, {pair: good}).coeffs[pair] is good


def test_cone_tables_are_integer_over_least_denominator():
    for D in range(1, 6):
        for m in range(9):
            den, numerators = _harmonic_raw(D, m)
            entries = [c for h in numerators for c in h.values()]
            assert type(den) is int and all(type(c) is int for c in entries)
            assert gcd(den, *entries) == 1
            weights = _projector_weights(D, m)
            assert all(type(c) is int for c in weights) and gcd(*weights) == 1
    # h_{2,1} = z1^2 - z2^2 needs no denominator; the D = 3 projector at d = 2
    # is q - (x^2) Delta q / 6, so its weights are over 6.
    assert _harmonic_raw(2, 2) == (1, ({(2, 0): 1, (0, 2): -1}, {(1, 1): 1}))
    assert _projector_weights(3, 2) == (6, -1)


@lru_cache(maxsize=None)
def _filtered_projector(D, d):
    """Reference projector stencils: every term of (x^2)^i built in Fraction,
    paired with every pivot, and kept where it divides the pivot."""
    x2 = {tuple(2 * (a == b) for b in range(D)): 1 for a in range(D)}
    terms = []
    c, power = Fraction(1), {(0,) * D: 1}
    for i in range(d // 2 + 1):
        if i:
            c = -c / (2 * i * (D + 2 * d - 2 * i - 2))
            power = _raw_mul(power, x2)
        terms.extend((i, exps, c * a) for exps, a in power.items())
    stencils = []
    for pivot in _pivots(D, d):
        stencils.append([(i, tuple(map(sub, pivot, e)), w) for i, e, w in terms
                         if all(map(ge, pivot, e))])
    den = lcm(*(w.denominator for stencil in stencils for _, _, w in stencil))
    return den, [[(i, e, w.numerator * (den // w.denominator)) for i, e, w in stencil]
                 for stencil in stencils]


def _multinomial_zonal(D, d):
    """Reference zonal table: G[s, s'] counted from the reference stencils.
    Delta_z^i (z.w)^d = d!/(d-2i)! (w^2)^i (z.w)^(d-2i), whose coefficient at
    z^exps w^pivot is a product of multinomials."""
    den, stencils = _filtered_projector(D, d)
    out = []
    for s, stencil in enumerate(stencils, start=1):
        for s2, pivot in enumerate(_pivots(D, d), start=1):
            value = 0
            for i, exps, weight in stencil:
                twice_f = [p - e for p, e in zip(pivot, exps)]
                if min(twice_f) < 0 or any(x % 2 for x in twice_f):
                    continue
                f = [x // 2 for x in twice_f]
                count = (factorial(d) // prod(map(factorial, exps))
                         * factorial(i) // prod(map(factorial, f)))
                value += weight * count
            if value:
                out.append(((s, s2), Fraction(value, den)))
    return tuple(out)


_TABLE_RANGE = [(D, d) for D in range(1, 5) for d in range(9)] + [(5, d) for d in range(7)]


def _stencil_coordinates(D, m, raw):
    """Reference sigma-coordinates of the Gauss parts of the degree-m
    polynomial raw, int or Fraction: the ``_filtered_projector`` stencils
    applied to its Laplacian chain, built by ``Poly.laplacian``.  Yields
    (j, d, {sigma: exact value}) for every level of the chain."""
    level, chain = _zspace(D).from_dense("z", raw), []
    while level:
        chain.append(level.dense("z"))
        level = level.laplacian("z")
    for j in range(len(chain)):
        d = m - 2 * j
        den, stencils = _filtered_projector(D, d)
        factor = prod(2 * k * (2 * k + D - 2 + 2 * d) for k in range(1, j + 1))
        coords = {}
        for sigma, stencil in enumerate(stencils, start=1):
            value = sum(w * chain[j + i].get(e, 0) for i, e, w in stencil if j + i < len(chain))
            if value:
                coords[sigma] = Fraction(value, den * factor)
        yield j, d, coords


def test_harmonic_parts_match_the_filtered_stencils():
    # The sigma-coordinates are the pivot values of the restricted Horner
    # sum; the reference reads them through stencils built in Fraction.  In
    # D = 1 the closed form yields only the part with a pivot.
    rng = random.Random(35)
    for D, d in _TABLE_RANGE:
        monos = dense_monomials(D, d)
        picks = rng.sample(monos, min(len(monos), 6))
        for raw in ({e: rng.randint(-99, 99) or 1 for e in picks},
                    {e: Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)) for e in picks}):
            clear, (ints,) = _clear(raw)
            parts = {(j, m): {s: Fraction(n, q * clear) for s, n in coords.items()}
                     for j, m, q, coords in _harmonic_parts(D, d, ints)}
            reference = {(j, m): coords for j, m, coords in _stencil_coordinates(D, d, raw)}
            assert {k: v for k, v in parts.items() if v} == {k: v for k, v in reference.items() if v}
            assert len(parts) == (1 if D == 1 else len(reference)), (D, d, raw)


def test_zonal_matches_the_multinomial_count_and_is_symmetric():
    for D, d in _TABLE_RANGE:
        den, table = _zonal(D, d)
        assert all(type(g) is int for _, g in table) and gcd(den, *(g for _, g in table)) == 1
        G = {key: Fraction(g, den) for key, g in table}
        assert tuple(G.items()) == _multinomial_zonal(D, d)
        assert all(G.get((s2, s)) == g for (s, s2), g in G.items())


def test_neg_binom_is_an_int():
    for k in range(1, 6):
        for t in range(9):
            value = _neg_binom(k, t)
            assert type(value) is int and value == (-1) ** t * comb(k + t - 1, t)


def test_decompose_raw_roundtrip_by_ring_arithmetic():
    rng = random.Random(77)
    for D in range(1, 6):
        vs = _zspace(D)
        z2 = sum((vs.var("z", a) ** 2 for a in range(1, D + 1)), vs.zero)
        for m in range(9 if D < 5 else 7):
            monos = vs.monomials_of_degree("z", m)
            raw = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for e in rng.sample(monos, min(len(monos), 6))}
            p = sum((vs.from_exps("z", e, c) for e, c in raw.items()), vs.zero)
            pieces: dict = {}
            for (j, d, sigma), value in _decomposition(D, m, raw).items():
                assert 2 * j + d == m
                pieces[j] = pieces.get(j, vs.zero) + harmonic_basis(D, d)[sigma - 1] * value
            rebuilt = vs.zero
            for j, pj in pieces.items():
                assert not pj.laplacian("z")
                rebuilt = rebuilt + z2 ** j * pj
            assert rebuilt == p


def _gauss_golden_text():
    """gauss_decompose of int, Fraction and mixed-degree polynomials in
    D = 1..5, each coefficient printed with its type."""
    rng = random.Random(314)
    lines = []
    for D in range(1, 6):
        vs = _zspace(D)
        for m in range(7):
            picks = rng.sample(dense_monomials(D, m), min(comb(m + D - 1, D - 1), 4))
            ints = sum((vs.from_exps("z", e, rng.randint(1, 9)) for e in picks), vs.zero)
            fractions = sum((vs.from_exps("z", e, Fraction(rng.randint(-9, 9), rng.randint(2, 6)))
                             for e in picks), vs.zero)
            mixed = ints + _random_zpoly(rng, D) * Fraction(1, rng.randint(2, 5))
            for p in (ints, fractions, mixed):
                pieces = [(j, sorted((e, type(c).__name__, str(c)) for e, c in pj.dense("z").items()))
                          for j, pj in gauss_decompose(p)]
                lines.append(f"{D} {m}: {pieces}")
    return "\n".join(lines)


# sha256 of _gauss_golden_text(): 105 decompositions, values and coefficient types.
GOLDEN_GAUSS = "fad7b44a5714708964afa505f518e5e26d98875d8066801cd9d758580cfecd55"


def test_gauss_decompose_golden_digest():
    digest = hashlib.sha256(_gauss_golden_text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_GAUSS


def _sparse_pair(D, a):
    """z1^(a // 2) z2^(a - a // 2) in D variables."""
    return _zspace(D).from_exps("z", (a // 2, a - a // 2) + (0,) * (D - 2))


def _gauss_wide_golden_text():
    """gauss_decompose beyond GOLDEN_GAUSS: one dense polynomial with 12-digit
    int coefficients per harness shape (D, m), and one sparse high-degree
    monomial z1^(a // 2) z2^(a - a // 2) per (D, a)."""
    rng = random.Random(2718)
    dense = [_zspace(D).from_dense("z", {e: rng.randint(-10 ** 12, 10 ** 12)
                                         for e in dense_monomials(D, m)})
             for D, m in ((3, 10), (4, 8), (5, 6))]
    sparse = [_sparse_pair(D, a) for D, a in ((3, 30), (4, 16), (2, 120))]
    lines = []
    for p in dense + sparse:
        pieces = [(j, sorted((e, type(c).__name__, str(c)) for e, c in pj.dense("z").items()))
                  for j, pj in gauss_decompose(p)]
        lines.append(f"{p.vs.D}: {pieces}")
    return "\n".join(lines)


# sha256 of _gauss_wide_golden_text(), recorded before the Gauss tables moved to ints.
GOLDEN_GAUSS_WIDE = "1cfde246336182792dc9e630108ac5fc9e21733faf3066592843276b34630413"


def test_gauss_decompose_wide_golden_digest():
    digest = hashlib.sha256(_gauss_wide_golden_text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_GAUSS_WIDE


def _coordinate_route(p):
    """Reference gauss_decompose by sigma-coordinates: the parts of each
    degree read through the reference stencils (``_stencil_coordinates``),
    then expanded in the canonical basis (``_harmonic_raw``)."""
    vs, D = p.vs, p.vs.D
    by_degree = {}
    for exps, coeff in p.dense("z").items():
        by_degree.setdefault(sum(exps), {})[exps] = coeff
    levels = {}
    for degree, raw in by_degree.items():
        for j, d, coords in _stencil_coordinates(D, degree, raw):
            den, numerators = _harmonic_raw(D, d)
            sums = {}
            for sigma, value in coords.items():
                for exps, c in numerators[sigma - 1].items():
                    sums[exps] = sums.get(exps, 0) + value * c
            part = vs.from_dense("z", {e: v / den for e, v in sums.items()})
            levels[j] = levels.get(j, vs.zero) + part
    return [(j, levels[j]) for j in sorted(levels) if levels[j]]


def _typed(pieces):
    return [(j, sorted((e, type(c), c) for e, c in pj.dense("z").items())) for j, pj in pieces]


def test_gauss_decompose_matches_the_coordinate_route():
    rng = random.Random(4242)
    polys = []
    for D in range(1, 7):
        vs = _zspace(D)
        for m in range(11):
            picks = rng.sample(dense_monomials(D, m), min(comb(m + D - 1, D - 1), 5))
            ints = sum((vs.from_exps("z", e, rng.randint(-99, 99) or 1) for e in picks), vs.zero)
            fractions = sum((vs.from_exps("z", e, Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)))
                             for e in picks), vs.zero)
            polys += [ints, fractions, fractions + _random_zpoly(rng, D, degmax=10)]
    polys += [_zspace(D).from_dense("z", {e: rng.randint(-10 ** 6, 10 ** 6) for e in dense_monomials(D, m)})
              for D, m in ((3, 10), (4, 8), (5, 6))]
    for p in polys:
        assert _typed(gauss_decompose(p)) == _typed(_coordinate_route(p)), p


def test_gauss_decompose_builds_no_basis_and_no_projector():
    # The parts come straight out of the Laplacian chain by Horner's rule in
    # x^2: only the Laplacian and x^2 stencil tables fill.
    clear_caches()
    rng = random.Random(8)
    gauss_decompose(_zspace(4).from_dense("z", {e: rng.randint(1, 99) for e in dense_monomials(4, 8)}))
    assert _harmonic_raw.cache_info().currsize == 0
    assert _x2_table.cache_info().currsize and _laplacian_table.cache_info().currsize
    clear_caches()
    assert _x2_table.cache_info().currsize == 0


def test_gauss_decompose_in_d1_is_closed_form():
    # In D = 1, c z^m is (z^2)^(m // 2) c z^(m % 2): no Laplacian chain, so
    # z^99999999 returns at once.
    vs = _zspace(1)
    z = vs.var("z", 1)
    assert gauss_decompose(vs.from_exps("z", (99999999,), 3)) == [(49999999, z * 3)]
    assert gauss_decompose(vs.from_exps("z", (8,), Fraction(1, 2)) + z) == [
        (0, z), (4, vs.const(Fraction(1, 2)))]


def test_gauss_fills_the_laplacian_table_only_where_asked():
    # Of the 496 degree-30 monomials in D = 3, the Laplacian chain of
    # z1^15 z2^15 starts from one.
    _laplacian_table.cache_clear()
    gauss_decompose(_sparse_pair(3, 30))
    assert len(_laplacian_table(3, 30)) == 1 < len(dense_monomials(3, 30)) == 496


def test_gauss_terms_bounds_the_laplacian_chain():
    # The closed form is the sum it stands for, and that sum bounds the
    # monomials the Laplacian chain of any degree-c monomial reaches.
    for D in range(1, 7):
        for c in range(40):
            assert _gauss_terms(D, c) == sum(comb(c - 2 * k + D - 1, D - 1)
                                             for k in range(c // 2 + 1)), (D, c)
    for D, c in ((2, 12), (3, 9), (4, 7)):
        reached = 0
        for exps in dense_monomials(D, c):
            chain = [{exps: 1}]
            for k in range(c // 2):
                chain.append(_raw_laplacian(chain[-1], D, c - 2 * k))
            reached = max(reached, sum(map(len, chain)))
        assert reached <= _gauss_terms(D, c)
    assert _gauss_terms(2, 99999999) == 2500000050000000


# ----------------------------------------------------------------------
# cone series basics
# ----------------------------------------------------------------------

def test_cone_from_poly_examples():
    vs = _zspace(2)
    assert cone_from_poly(vs.one, "z").coeffs == {(0, 0, 1): 1}
    assert cone_from_poly(vs.var("z", 1)).coeffs == {(0, 1, 1): 1}
    series = cone_from_poly(vs.var("z", 1) ** 2)
    assert series.coeffs == {(1, 0, 1): Fraction(1, 2), (0, 2, 1): Fraction(1, 2)}


def test_cone_mul_examples():
    vs = _zspace(2)
    start = ConeSeries(2, "z", {(-1, 0, 1): Fraction(1)})
    assert start.mul_x2(1).mul_poly(vs.one).coeffs == {(0, 0, 1): 1}
    unit = ConeSeries(2, "z", {(0, 0, 1): Fraction(1)})
    assert unit.mul_poly(vs.var("z", 1)).coeffs == {(0, 1, 1): 1}
    lin = ConeSeries(2, "z", {(0, 1, 1): Fraction(1)})
    assert lin.mul_poly(vs.var("z", 1)).coeffs == {
        (1, 0, 1): Fraction(1, 2),
        (0, 2, 1): Fraction(1, 2),
    }


def test_cone_mul_rejects_a_polynomial_in_another_family():
    series = ConeSeries(2, "z", {(0, 0, 1): 1})
    w1 = VarSpace(2, ("z", "w")).var("w", 1)
    with pytest.raises(WorkspaceError):
        series.mul_poly(w1)


def test_mul_poly_rejects_a_polynomial_in_another_dimension():
    series = ConeSeries(2, "z", {(0, 0, 1): 1})
    with pytest.raises(WorkspaceError):
        series.mul_poly(VarSpace(3, ("z",)).var("z", 3))
    with pytest.raises(WorkspaceError):
        series.mul_poly(VarSpace(1, ("z",)).var("z", 1))
    w3 = VarSpace(3, ("z", "w")).var("w", 3)
    with pytest.raises(WorkspaceError):
        iota_expand(2, 1, "zw", 3).mul_series(bicone_from_poly(w3))


@pytest.mark.parametrize("alpha, error", [(0, ValueError), (-1, ValueError), (3, ValueError),
                                          (True, TypeError), (1.0, TypeError), ("1", TypeError)])
def test_diff_rejects_an_axis_outside_1_to_D_before_any_table_lookup(alpha, error):
    # Axis 0 used to return a wrong series, -1 another, 3 an IndexError, and
    # True acted as 1; each left its tables in the cache.
    series = ConeSeries(2, "z", {(-1, 1, 1): 1, (0, 2, 2): 3})
    cached = _times_mono.cache_info().currsize, _dh_table.cache_info().currsize
    with pytest.raises(error):
        series.diff(alpha)
    assert (_times_mono.cache_info().currsize, _dh_table.cache_info().currsize) == cached


def _random_fraction_zpoly(rng, D, degmax=4):
    vs = _zspace(D)
    poly = vs.zero
    for _ in range(rng.randint(1, 4)):
        exps = [0] * D
        for _ in range(rng.randint(0, degmax)):
            exps[rng.randrange(D)] += 1
        poly = poly + vs.from_exps("z", exps, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return poly


def test_one_variable_products_agree_with_ring_arithmetic():
    # diff and mul_poly of expanded polynomials are the expansions of the
    # ring results, and on singular series diff obeys the Leibniz rule for
    # (x^2)^k: d_a (x^2)^k S = (x^2)^k d_a S + 2k x_a (x^2)^(k-1) S.
    rng = random.Random(21)
    checks = 0
    for D in range(1, 5):
        vs = _zspace(D)
        for _ in range(15):
            p, q = _random_fraction_zpoly(rng, D), _random_fraction_zpoly(rng, D)
            for a in range(1, D + 1):
                assert cone_from_poly(p).diff(a) == cone_from_poly(p.diff("z", a))
            assert cone_from_poly(q).mul_poly(p) == cone_from_poly(p * q)
            degrees = [rng.randint(0, 4 if D > 1 else 1) for _ in range(rng.randint(1, 4))]
            modes = [(rng.randint(-3, -1), m, rng.randint(1, h_dim(D, m))) for m in degrees]
            S = ConeSeries(D, "z", {mode: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                    for mode in modes})
            for a in range(1, D + 1):
                for k in (-3, -1, 2):
                    x_a_term = S.mul_poly(vs.var("z", a)).mul_x2(k - 1).scale(2 * k)
                    assert S.mul_x2(k).diff(a) == S.diff(a).mul_x2(k) + x_a_term
            checks += 1 + 4 * D
    assert checks == 660


def test_mul_series_rejects_a_series_in_another_dimension():
    kernel = iota_expand(2, 1, "zw", 3)
    for other in (BiConeSeries(3, {((0, 1, 1), (0, 0, 1)): 1}),
                  BiConeSeries(3, {((0, 1, 3), (0, 0, 1)): 1})):
        with pytest.raises(WorkspaceError, match="series mismatch"):
            kernel.mul_series(other)


def _mul_series_oracle(left, right, bound=None):
    """The Fraction product loop that mul_series ran before its integer
    kernel: one exact weight per (output bi-mode, key of right), then one
    coefficient product per weight."""
    windows = tuple(
        w.shift(min((2 * key[slot][0] + key[slot][1] for key in right.coeffs), default=0))
        for slot, w in enumerate(left.windows))
    weights = {}
    for (a1, a2), ca in left.coeffs.items():
        for bkey in right.coeffs:
            b1, b2 = bkey
            n1, n2 = a1[0] + b1[0], a2[0] + b2[0]
            if bound is not None and (n1 >= bound[0] or n2 >= bound[1]):
                continue
            for (dj1, m1b, s1b), q1 in _table_values(_times_harm(left.D, *a1[1:], *b1[1:])):
                if bound is not None and n1 + dj1 >= bound[0]:
                    continue
                c1 = ca * q1
                mode1 = (n1 + dj1, m1b, s1b)
                for (dj2, m2b, s2b), q2 in _table_values(_times_harm(left.D, *a2[1:], *b2[1:])):
                    if bound is not None and n2 + dj2 >= bound[1]:
                        continue
                    wkey = ((mode1, (n2 + dj2, m2b, s2b)), bkey)
                    weights[wkey] = weights.get(wkey, 0) + c1 * q2
    out = {}
    for (key, bkey), weight in weights.items():
        if weight:
            value = right.coeffs[bkey] * weight
            total = out.get(key)
            out[key] = value if total is None else total + value
    return BiConeSeries(left.D, out, windows)


def _wide_fraction(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def _random_bimodes(rng, D, count, n_range):
    modes = set()
    for _ in range(count):
        pair = []
        for _ in range(2):
            m = rng.randint(0, 3 if D > 1 else 1)
            pair.append((rng.randint(*n_range), m, rng.randint(1, h_dim(D, m))))
        modes.add(tuple(pair))
    return sorted(modes)


def _random_module_element(rng, D, r=2):
    vs = pseudo_space(D)
    coords = {}
    for k in rng.sample(range(r), rng.randint(1, r)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * D
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(D)] += 1
            terms[tuple(exps)] = rng.choice((rng.randint(-9, 9) or 1, _wide_fraction(rng)))
        coords[k] = vs.from_dense("T", terms)
    return ModuleElement(vs, r, coords)


def _coefficient_values(coeff):
    if isinstance(coeff, ModuleElement):
        return [c for p in coeff.coords.values() for c in p.dense("T").values()]
    return [coeff]


def test_mul_series_matches_the_fraction_oracle():
    # Scalar and module right factors with wide denominators, with and
    # without a bound, windowed and full left factors, D = 1..3, and empty
    # factors; an integral coefficient comes out as an int.
    rng = random.Random(19)
    bounds = (None, (0, 0), (0, 2), (-1, 1))
    for D in (1, 2, 3):
        for trial in range(16):
            left = BiConeSeries(D, {
                key: rng.choice((rng.randint(-9, 9) or 1, _wide_fraction(rng)))
                for key in _random_bimodes(rng, D, rng.randint(1, 6), (-3, 1))
            }, rng.choice(((FULL_WINDOW, FULL_WINDOW), (Window(2), Window(4)))))
            module = trial % 2
            right = BiConeSeries(D, {
                key: _random_module_element(rng, D) if module else _wide_fraction(rng)
                for key in _random_bimodes(rng, D, rng.randint(1, 4), (-2, 0))
            })
            for bound in bounds:
                product = left.mul_series(right, bound)
                assert product == _mul_series_oracle(left, right, bound)
                values = [v for c in product.coeffs.values() for v in _coefficient_values(c)]
                assert _exact_values(values)
                assert not any(type(v) is Fraction and v.denominator == 1 for v in values)
            empty = BiConeSeries(D, {})
            for a, b in ((empty, right), (left, empty), (empty, empty)):
                assert a.mul_series(b) == _mul_series_oracle(a, b)


def _sum_of_products(D, products, bound=None):
    """The sum of left * right over ``products`` (right factors with module
    coefficients, r = 2) as a series: ``_int_sum_of_products`` over the int
    form of each right factor, each vector built into its module element."""
    den, sums, windows = _int_sum_of_products(
        D, [(left, _int_form(right.coeffs, right.windows)) for left, right in products], bound)
    element = ModuleElement(pseudo_space(D), 2, {})
    return BiConeSeries(D, {key: element._from_int_view(den, vector)
                            for key, vector in sums.items()}, windows)


def test_sum_of_products_is_the_sum_of_the_products():
    rng = random.Random(20)
    for D in (1, 2, 3):
        products = []
        for _ in range(3):
            left = BiConeSeries(D, {key: _wide_fraction(rng)
                                    for key in _random_bimodes(rng, D, 4, (-3, 1))},
                                (Window(rng.randint(1, 5)), FULL_WINDOW))
            right = BiConeSeries(D, {key: _random_module_element(rng, D)
                                     for key in _random_bimodes(rng, D, 3, (-2, 0))})
            products.append((left, right))
        # a pair and its negative cancel everywhere
        products.append((-products[0][0], products[0][1]))
        for bound in (None, (0, 1)):
            total = BiConeSeries.zero(D)
            for left, right in products:
                total = total + _mul_series_oracle(left, right, bound)
            result = _sum_of_products(D, products, bound)
            assert result == total
            assert not _sum_of_products(D, products[::3], bound)
            assert all(c and all(_coefficient_values(c)) for c in result.coeffs.values())
        assert _sum_of_products(D, ()) == BiConeSeries.zero(D)


def _tensor(a, b):
    """The bi-cone series of a(z) b(w), from the one-variable series a and b."""
    coeffs = {(ma, mb): ca * cb for ma, ca in a.coeffs.items() for mb, cb in b.coeffs.items()}
    return BiConeSeries(a.D, coeffs, (a.window, b.window))


def test_bicone_from_poly_of_a_product_is_the_tensor_product():
    for D in (1, 2, 3):
        vs = VarSpace(D, ("z", "w"))
        p = vs.var("z", 1) ** 3 - Fraction(2, 3) * vs.var("z", D) * vs.var("z", 1) + 5
        q = vs.var("w", D) ** 2 * vs.var("w", 1) + Fraction(1, 4) * vs.var("w", 1)
        cone_p, cone_q = cone_from_poly(p), cone_from_poly(q, "w")
        assert bicone_from_poly(p * q) == _tensor(cone_p, cone_q)
        assert bicone_from_poly(p) == _tensor(cone_p, cone_from_poly(vs.one, "w"))


def test_bicone_series_compare_by_value():
    F = Kernel(1, zw_pole=1)
    assert iota_antisym(F, 3) == iota_antisym(F, 3)
    assert iota_antisym(F, 3) != iota_antisym(F, 4)
    assert iota_expand(2, 1, "zw", 3) != iota_expand(2, 1, "wz", 3)
    series = iota_expand(2, 1, "zw", 3)
    assert series.restrict((Window(5), FULL_WINDOW)) != series
    assert series.scale(1) == series
    assert series != BiConeSeries(3, series.coeffs, series.windows)


def test_cone_mul_shift_roundtrip():
    series = ConeSeries(3, "z", {(-2, 1, 2): Fraction(5), (0, 0, 1): Fraction(-3)})
    assert series.mul_x2(1).mul_x2(-1).coeffs == series.coeffs
    vs = _zspace(3)
    assert series.mul_poly(vs.one).coeffs == series.coeffs


def test_singular_part():
    series = ConeSeries(2, "z", {(-1, 0, 1): Fraction(1), (0, 0, 1): Fraction(2)})
    sp = series.singular_part()
    assert sp.coeffs == {(-1, 0, 1): 1}
    assert sp.singular_part().coeffs == sp.coeffs
    vs = _zspace(2)
    assert not cone_from_poly(vs.var("z", 1) ** 3).singular_part()


def test_residue_and_wick():
    assert ConeSeries(2, "z", {(-1, 0, 1): Fraction(1)}).residue() == 1
    vs = _zspace(2)
    assert cone_from_poly(vs.var("z", 2) ** 2).residue() == 0
    assert ConeSeries(4, "z", {(-2, 0, 1): Fraction(7)}).residue() == 7
    with pytest.raises(ValueError):
        ConeSeries(3, "z", {}).residue()
    assert cone_from_poly(vs.one, "z").wick() == 1
    assert cone_from_poly(vs.var("z", 1)).wick() == 0


def test_window_refusal():
    series = ConeSeries(2, "z", {(0, 0, 1): Fraction(1)}, Window(2))
    assert series.get((0, 0, 1)) == 1
    assert series.get((-3, 1, 1)) == 0  # deep modes are known zeros
    with pytest.raises(TruncationError):
        series.get((1, 1, 1))  # degree 3 > degmax 2: unknown


def test_d1_laurent_dictionary():
    vs = _zspace(1)
    for k in range(5):
        series = cone_from_poly(vs.var("z", 1) ** k if k else vs.one, "z")
        ((n, m, sigma),) = series.coeffs
        assert 2 * n + m == k and sigma == 1
    # wick corresponds to the Laurent constant term
    p = vs.const(5) + vs.var("z", 1) ** 2
    assert cone_from_poly(p, "z").wick() == 5


# ----------------------------------------------------------------------
# iota expansions
# ----------------------------------------------------------------------

def test_iota_polynomial_path_is_identity():
    for D in (1, 2):
        series = iota_expand(D, 0, "zw", 4)
        assert series.coeffs == {((0, 0, 1), (0, 0, 1)): 1}
        assert all(w.is_full for w in series.windows)


def test_iota_d1_geometric_law():
    series = iota_expand(1, 1, "zw", 6)
    for j in range(7):
        m_w, n_w = j % 2, j // 2
        ell_z = -j - 2
        m_z, n_z = ell_z % 2, (ell_z - ell_z % 2) // 2
        assert series.get((n_z, m_z, 1), (n_w, m_w, 1)) == j + 1
    # mirrored side
    mirrored = iota_expand(1, 1, "wz", 6)
    for j in range(7):
        m, n = j % 2, j // 2
        ell = -j - 2
        assert mirrored.get((n, m, 1), ((ell - ell % 2) // 2, ell % 2, 1)) == j + 1


def test_iota_leading_term_any_dimension():
    for D in (1, 2, 3):
        series = iota_expand(D, 1, "zw", 3)
        assert series.get((-1, 0, 1), (0, 0, 1)) == 1


def test_iota_antisym_vanishes_without_zw_pole():
    cases = []
    for D in (1, 2):
        cases.append(Kernel(D))
        cases.append(Kernel(D, z_pole=1))
        cases.append(Kernel(D, w_pole=2))
        exps = tuple([1] + [0] * (D - 1))
        cases.append(Kernel(D, z_exps=exps))
        cases.append(Kernel(D, z_exps=exps, w_exps=exps, z_pole=1, w_pole=1))
    for F in cases:
        for window in (0, 3, 6):
            assert not iota_antisym(F, window)


def test_iota_antisym_nonzero_for_zw_pole():
    diff = iota_antisym(Kernel(1, zw_pole=1), 6)
    assert diff
    # delta-like: the two one-sided expansions contribute with opposite roles
    assert diff.get((-1, 0, 1), (0, 0, 1)) == 1
    assert diff.get((0, 0, 1), (-1, 0, 1)) == -1


def test_iota_times_kernel_polynomial_collapses():
    # Multiplying the expansion of ((z-w)^2)^(-k) back by (z-w)^2 must give
    # the expansion of ((z-w)^2)^(-(k-1)) on the surviving window; for k = 1
    # that is the constant 1.  This pins iota_expand and the bi-variable
    # re-decomposition against each other.
    for D in (1, 2, 3):
        vs = VarSpace(D, ("z", "w"))
        kernel_poly = sum(
            ((vs.var("z", a) - vs.var("w", a)) ** 2 for a in range(1, D + 1)), vs.zero
        )
        for k in (1, 2):
            product = iota_expand(D, k, "zw", 5).mul_series(bicone_from_poly(kernel_poly))
            target = iota_expand(D, k - 1, "zw", 5)
            keys = set(product.coeffs) | {
                key for key in target.coeffs
                if product.windows[1].contains(key[1][0], key[1][1])
            }
            for key in keys:
                assert product.coeffs.get(key, Fraction(0)) == target.coeffs.get(
                    key, Fraction(0)
                )


def test_kernel_polynomial_annihilates_antisymmetrization():
    # The cone-mode form of (z - w) * delta(z - w) = 0.
    for D in (1, 2):
        vs = VarSpace(D, ("z", "w"))
        kernel_poly = sum(
            ((vs.var("z", a) - vs.var("w", a)) ** 2 for a in range(1, D + 1)), vs.zero
        )
        diff = iota_antisym(Kernel(D, zw_pole=1), 6)
        assert diff
        assert not diff.mul_series(bicone_from_poly(kernel_poly))


def test_iota_kernel_with_monomial_factor():
    # z1/(z-w)^2 in D=1 must shift the plain expansion by one z-degree.
    plain = iota_expand(1, 1, "zw", 5)
    shifted = iota_kernel(Kernel(1, z_exps=(1,), zw_pole=1), "zw", 5)
    for ((mz, mw), coeff) in plain.items():
        ell = 2 * mz[0] + mz[1] + 1
        target = ((ell - ell % 2) // 2, ell % 2, 1)
        if shifted.windows[1].contains(mw[0], mw[1]):
            assert shifted.get(target, mw) == coeff


def test_unit_kernel_is_the_cached_pole_expansion():
    # With prefactor 1 the product through mul_series would only copy the
    # cached expansion: same coefficients, same windows.
    for D in (1, 2, 3):
        one = bicone_from_poly(VarSpace(D, ("z", "w")).one)
        for k in (0, 1, 2):
            for side in ("zw", "wz"):
                for bound in (None, (0, 0), (-1, 1), (2, 3)):
                    pole = iota_expand(D, k, side, 4, bound)
                    series = iota_kernel(Kernel(D, zw_pole=k), side, 4, bound)
                    assert series is pole
                    assert series == pole.mul_series(one, bound)
    # Any other prefactor still multiplies: (z^2)^-1 lowers every n_z by one.
    pole = iota_expand(2, 1, "zw", 4)
    shifted = iota_kernel(Kernel(2, z_pole=1, zw_pole=1), "zw", 4)
    assert shifted.windows == pole.windows
    assert shifted.coeffs == {((n - 1, m, s), mw): c for ((n, m, s), mw), c in pole.coeffs.items()}


def _below(series, bound):
    return {key: c for key, c in series.coeffs.items()
            if key[0][0] < bound[0] and key[1][0] < bound[1]}


def _monomial_iota(D, k, side, depth):
    """Reference expansion of ((z-w)^2)^(-k), k >= 1, built monomial by monomial.

    (big^2)^(-k) (1 + (small^2 - 2 z.w)/big^2)^(-k) is expanded in powers t
    of the bracket; each monomial of the t-th power is Gauss-decomposed in z
    and in w on its own.
    """
    small = 1 if side == "zw" else 0
    base: dict = {}  # (z exponents, w exponents) of small^2 - 2 z.w
    for alpha in range(D):
        sq = [[0] * D, [0] * D]
        sq[small][alpha] = 2
        cross = [[0] * D, [0] * D]
        cross[0][alpha] = cross[1][alpha] = 1
        for exps, c in ((sq, 1), (cross, -2)):
            key = (tuple(exps[0]), tuple(exps[1]))
            base[key] = base.get(key, 0) + c
    coeffs: dict = {}
    power = {((0,) * D, (0,) * D): Fraction(1)}
    for t in range(depth + 1):
        c_t = (-1) ** t * comb(k + t - 1, t)
        for exps, c in power.items():
            if sum(exps[small]) > depth:
                continue
            for (j1, m1, s1), q1 in _table_values(_times_mono(D, 0, 1, exps[1 - small])):
                for (j2, m2, s2), q2 in _table_values(_times_mono(D, 0, 1, exps[small])):
                    big, little = (-k - t + j1, m1, s1), (j2, m2, s2)
                    pair = (big, little) if small == 1 else (little, big)
                    coeffs[pair] = coeffs.get(pair, 0) + c_t * c * q1 * q2
        if t == depth:
            break
        new: dict = {}
        for (ez, ew), c in power.items():
            for (bz, bw), bc in base.items():
                key = (tuple(map(sum, zip(ez, bz))), tuple(map(sum, zip(ew, bw))))
                new[key] = new.get(key, 0) + c * bc
        power = new
    windows = [FULL_WINDOW, FULL_WINDOW]
    windows[small] = Window(depth)
    return BiConeSeries(D, coeffs, tuple(windows))


def test_bounded_iota_is_the_filtered_expansion():
    # iota_expand reads the expansion off the zonal harmonics of (z.w)^b; the
    # reference builds it monomial by monomial.  They agree without a bound
    # and below every bound, and the windows do not depend on the bound.
    bounds = (None, (-1, 9), (0, 0), (0, 1), (1, 0), (2, 3), (9, 9))
    for D, depths in ((1, (0, 3, 6)), (2, (0, 3, 6)), (3, (0, 2, 5)), (4, (3,))):
        for k in (1, 2, 3):
            for side in ("zw", "wz"):
                for depth in depths:
                    reference = _monomial_iota(D, k, side, depth)
                    for bound in bounds:
                        series = iota_expand(D, k, side, depth, bound)
                        expected = reference.coeffs if bound is None else _below(reference, bound)
                        assert series.coeffs == expected
                        assert series.windows == reference.windows


def test_bounded_iota_kernel_is_the_filtered_kernel():
    e1 = (1, 0)
    for F, c in ((Kernel(2, zw_pole=1), 1), (Kernel(2, z_exps=e1, w_exps=(0, 2), zw_pole=2), 1),
                 (Kernel(2, z_pole=1, w_pole=2, zw_pole=1), Fraction(-3, 2))):
        for side in ("zw", "wz"):
            full = iota_kernel(F, side, 5).scale(c)
            for bound in ((0, 0), (0, 2), (1, 1), (3, -1)):
                bounded = iota_kernel(F, side, 5, bound).scale(c)
                assert bounded.coeffs == _below(full, bound)
                assert bounded.windows == full.windows
    # Inside the windows, get reads 0 at a bi-mode the bound kept from forming.
    F = Kernel(2, zw_pole=1)
    assert iota_kernel(F, "zw", 4).get((-1, 0, 1), (0, 0, 1)) == 1
    assert iota_kernel(F, "zw", 4, (0, 0)).get((-1, 0, 1), (0, 0, 1)) == 0


def _golden_monomials(D):
    """Exponents of degree 0, 1 and 2: 1, x_D and x_1 x_D."""
    return ((0,) * D,
            tuple(int(a == D - 1) for a in range(D)),
            tuple((a == 0) + (a == D - 1) for a in range(D)))


def _iota_kernel_text(D, side, depth):
    lines = []
    for ze, we, zp, wp, k, bound in itertools.product(
            _golden_monomials(D), _golden_monomials(D), (0, 1), (0, 1), (0, 1, 2),
            (None, (0, 0), (-1, 1))):
        series = iota_kernel(Kernel(D, ze, we, zp, wp, k), side, depth, bound).scale(Fraction(-3, 2))
        lines.append(f"{ze} {we} {zp} {wp} {k} {bound}: "
                     f"{[w.degmax for w in series.windows]} {series.items()}")
    return "\n".join(lines)


# sha256 of _iota_kernel_text(D, side, 4): every kernel -3/2 z^a w^b
# (z^2)^-p (w^2)^-q ((z-w)^2)^-k with |a|, |b| <= 2, p, q <= 1, k <= 2,
# unbounded and at the bounds (0, 0) and (-1, 1).
GOLDEN_IOTA_KERNELS = {
    (1, "zw"): "d1690efebefc4dfc257011ca74b00dacdddfa9f9f7fa893a9af18de344395f3b",
    (1, "wz"): "3bfffae88623aa38f8d1ed742306b82dad805bce8af4ca7f882b640a5933bff9",
    (2, "zw"): "e28fa0406a300a3583f8680aa1a8710776677f0838478e1dfb38d5474bbba82a",
    (2, "wz"): "8d4c8c7c0096fa76ceb5cb8ab583373afc3be818302dcdb33bd73edcd2e61dd7",
    (3, "zw"): "cc9c1946524e3ab20bc52969bade4d1091eac4770b53e8c35dc5686081535579",
    (3, "wz"): "356d5dada6c88ae90f2e7625657926d050e7811cd5a298678cff7cac23959dc7",
}


@pytest.mark.parametrize("case", list(GOLDEN_IOTA_KERNELS), ids=lambda c: f"D{c[0]}-{c[1]}")
def test_iota_kernel_golden_digest(case):
    text = _iota_kernel_text(*case, 4)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_IOTA_KERNELS[case]


def test_kernel_exponents_and_poles_are_ints_at_least_zero():
    # A bad exponent is refused at construction, not later inside iota_kernel.
    for bad in ({"z_exps": (-1, 0)}, {"w_exps": (0, 1.0)}, {"z_exps": (True, 0)},
                {"z_pole": -1}, {"zw_pole": 0.5}):
        with pytest.raises(ValueError, match="exponents and pole orders must be ints >= 0"):
            Kernel(2, **bad)
    with pytest.raises(ValueError, match="exponent tuples must have length D"):
        Kernel(2, z_exps=(1,))


def test_kernels_need_a_positive_dimension():
    with pytest.raises(ValueError, match="D must be >= 1"):
        Kernel(0)
    with pytest.raises(ValueError, match="D must be >= 1"):
        iota_expand(0, 1, "zw", 2)
    with pytest.raises(ValueError, match="D must be >= 1"):
        harmonic_basis(0, 1)
    with pytest.raises(ValueError, match="m must be >= 0"):
        harmonic_basis(2, -1)


_ZW = Kernel(2, zw_pole=1)


@pytest.mark.parametrize("call, error", [
    (lambda: iota_expand(2, 1, "zw", True), TypeError),
    (lambda: iota_expand(2, 1, "zw", 2.5), TypeError),
    (lambda: iota_expand(2, True, "zw", 1), TypeError),
    (lambda: iota_expand(2.0, 1, "zw", 1), TypeError),
    (lambda: iota_kernel(_ZW, "zw", -1), ValueError),
    (lambda: iota_kernel(_ZW, "wz", True), TypeError),
    (lambda: iota_antisym(_ZW, -1), ValueError),
    (lambda: iota_antisym(_ZW, 1.5), TypeError),
], ids=["window True", "window 2.5", "k True", "D 2.0", "kernel depth -1", "kernel depth True",
        "antisym window -1", "antisym window 1.5"])
def test_iota_refuses_bad_arguments_before_anything_is_cached(call, error):
    # window=True used to be cached with Window(degmax=True) and then served
    # for window=1; a negative kernel depth used to give a window-0 series.
    iota_expand(2, 1, "zw", 1)  # a valid entry a refused call could hit
    cached = iota_expand.cache_info().currsize
    with pytest.raises(error):
        call()
    assert iota_expand.cache_info().currsize == cached
    assert iota_expand(2, 1, "zw", 1).windows == (FULL_WINDOW, Window(1))
