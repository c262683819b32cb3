"""Exact polynomial arithmetic: worked examples and ring-law properties."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lambdacone import Poly, VarSpace, WorkspaceError
from lambdacone.pseudo import pseudo_space
from lambdacone.rings import Packing, _mul_add, dense_key, shared_packing


@pytest.fixture
def vs():
    return VarSpace(3)


def test_additive_inverse(vs):
    t1 = vs.var("T", 1)
    assert not (t1 + (-t1))


def test_disjoint_supports(vs):
    t1, l1 = vs.var("T", 1), vs.var("lam", 1)
    total = t1 + l1
    assert total.terms == {((("T", 1), 1),): 1, ((("lam", 1), 1),): 1}


def test_like_terms(vs):
    half = vs.var("T", 1) * vs.var("T", 1) * Fraction(1, 2)
    assert half + half == vs.var("T", 1) ** 2


def test_mul_unit_and_zero(vs):
    p = vs.var("T", 1) + vs.var("lam", 1)
    assert p * vs.one == p
    assert not (p * vs.zero)


def test_difference_of_squares(vs):
    z1, w1 = vs.var("z", 1), vs.var("w", 1)
    assert (z1 - w1) * (z1 + w1) == z1 ** 2 - w1 ** 2


def test_diff_power_rule(vs):
    assert (vs.var("T", 1) ** 2).diff("T", 1) == 2 * vs.var("T", 1)
    assert not vs.var("T", 1).diff("T", 2)


def test_diff_of_z_squared(vs):
    z2 = sum((vs.var("z", a) ** 2 for a in (1, 2)), vs.zero)
    assert z2.diff("z", 1) == 2 * vs.var("z", 1)


def test_subst_binomial(vs):
    mu = vs.var("mu", 1)
    image = (mu ** 2).subst({("mu", 1): -vs.var("T", 1) - vs.var("lam", 1)})
    t, l = vs.var("T", 1), vs.var("lam", 1)
    assert image == t ** 2 + 2 * t * l + l ** 2


def test_subst_shift_and_identity(vs):
    t1 = vs.var("T", 1)
    assert t1.subst({("T", 1): t1 + vs.var("lam", 1)}) == t1 + vs.var("lam", 1)
    p = t1 ** 3 - 2 * vs.var("z", 2) * t1
    assert p.subst({}) == p


def test_laplacian_examples():
    vs2 = VarSpace(2)
    z1, z2 = vs2.var("z", 1), vs2.var("z", 2)
    assert not (z1 * z1 - z2 * z2).laplacian("z")
    assert (z1 * z1 + z2 * z2).laplacian("z") == vs2.const(4)
    vs3 = VarSpace(3)
    assert not (vs3.var("z", 1) * vs3.var("z", 2)).laplacian("z")


def test_workspace_mismatch():
    a = VarSpace(2).var("T", 1)
    b = VarSpace(3).var("T", 1)
    with pytest.raises(WorkspaceError):
        a + b
    with pytest.raises(WorkspaceError):
        a.diff("T", 3)
    with pytest.raises(WorkspaceError):
        VarSpace(2, ("T",)).var("lam", 1)


def _random_poly(rng, vs, max_terms=4, max_deg=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            fam = rng.choice(vs.families)
            idx = rng.randint(1, vs.D)
            exps[(fam, idx)] = exps.get((fam, idx), 0) + 1
        mono = tuple(sorted(exps.items(), key=lambda kv: (vs.families.index(kv[0][0]), kv[0][1])))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(rng.randint(-9, 9))
    return Poly(vs, terms)


def test_ring_axioms_random():
    rng = random.Random(20240811)
    for D in (1, 2, 3):
        vs = VarSpace(D, ("T", "lam", "z"))
        for _ in range(25):
            p, q, r = (_random_poly(rng, vs) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r


def test_subst_is_ring_homomorphism():
    rng = random.Random(7)
    vs = VarSpace(2, ("T", "lam"))
    assignment = {
        ("T", 1): vs.var("lam", 1) + vs.const(2),
        ("lam", 2): vs.var("T", 2) * vs.var("T", 1),
    }
    for _ in range(25):
        p, q = _random_poly(rng, vs), _random_poly(rng, vs)
        assert (p * q).subst(assignment) == p.subst(assignment) * q.subst(assignment)
        assert (p + q).subst(assignment) == p.subst(assignment) + q.subst(assignment)


def test_diff_commutes():
    rng = random.Random(99)
    vs = VarSpace(3, ("T", "z"))
    variables = [(fam, idx) for fam in ("T", "z") for idx in (1, 2, 3)]
    for _ in range(20):
        p = _random_poly(rng, vs)
        for a in variables:
            for b in variables:
                assert p.diff(*a).diff(*b) == p.diff(*b).diff(*a)


def test_canonical_form_construction_order(vs):
    t1, l2, z3 = vs.var("T", 1), vs.var("lam", 2), vs.var("z", 3)
    left = ((t1 + l2) + z3) * (t1 - z3)
    right = (t1 * t1) - z3 * z3 + t1 * l2 - l2 * z3 - t1 * z3 + z3 * t1
    assert left == right
    assert hash(left) == hash(right)


def test_pow_matches_repeated_mul(vs):
    p = vs.var("T", 1) - 2 * vs.var("lam", 1)
    assert p ** 0 == vs.one
    assert p ** 3 == p * p * p


def test_constant_hash_matches_its_value(vs):
    assert vs.const(3) == 3
    assert hash(vs.const(3)) == hash(3)
    assert len({vs.const(3), 3}) == 1
    assert hash(vs.zero) == hash(0)
    assert len({vs.zero, 0}) == 1
    half = Fraction(1, 2)
    assert len({vs.const(half), half}) == 1
    assert hash(vs.var("T", 1) - vs.var("T", 1)) == hash(vs.zero)


def test_constant_equality_is_transitive_across_workspaces():
    a, b = VarSpace(2).const(3), VarSpace(3).const(3)
    assert a == 3
    assert 3 == b
    assert a == b
    assert len({3, a, b}) == len({a, b, 3}) == 1
    assert VarSpace(2).zero == VarSpace(3).zero
    assert VarSpace(2).const(3) != VarSpace(3).const(4)
    assert VarSpace(2).var("T", 1) != VarSpace(3).var("T", 1)


def test_bad_variable_raises_on_every_call():
    vs = VarSpace(2)
    for family, index in (("x", 1), ("T", 3)):
        for _ in range(2):
            with pytest.raises(WorkspaceError):
                vs.var(family, index)
    assert vs.var("T", 2) is vs.var("T", 2)


def test_dense_view_round_trips_in_the_canonical_order():
    rng = random.Random(2718)
    families = ("T", "lam", "z")
    for D in (1, 2, 3):
        vs = VarSpace(D, families)
        for _ in range(20):
            p = _random_poly(rng, vs)
            ordered = []
            for exps, c in sorted(p.dense(*families).items(), key=lambda kv: dense_key(kv[0])):
                assert len(exps) == 3 * D
                term = vs.const(c)
                for pos, family in enumerate(families):
                    term = term * vs.from_exps(family, exps[pos * D:(pos + 1) * D])
                ordered.append(term)
            assert ordered == [Poly(vs, {mono: c}) for mono, c in p.sorted_terms()]
            assert sum(ordered, vs.zero) == p
    vs = VarSpace(2, ("T", "lam"))
    t1, l2 = vs.var("T", 1), vs.var("lam", 2)
    assert (3 * t1 * l2 + 2).dense("lam", "T") == {(0, 1, 1, 0): 3, (0, 0, 0, 0): 2}
    assert (t1 * l2 - l2).coefficients_in(("lam",)) == {(0, 1): t1 - 1}
    with pytest.raises(WorkspaceError):
        (t1 + l2).dense("T")
    assert [vs.from_exps("T", e) for e in vs.monomials_of_degree("T", 2)] == [
        t1 ** 2, t1 * vs.var("T", 2), vs.var("T", 2) ** 2
    ]
    assert VarSpace(0).const(5).dense("T", "lam") == {(): 5}
    assert VarSpace(0).monomials_of_degree("T", 0) == ((),)
    assert VarSpace(0).monomials_of_degree("T", 1) == ()


def test_from_dense_checks_every_vector():
    vs = VarSpace(2, ("z",))
    z1, z2 = vs.var("z", 1), vs.var("z", 2)
    for bad in ((1, 0, 0), (1,), (1, -1)):
        with pytest.raises(ValueError):
            vs.from_exps("z", bad)
        with pytest.raises(ValueError):
            vs.from_dense("z", {(0, 1): 1, bad: 1})
    with pytest.raises(WorkspaceError):
        vs.from_exps("w", (1, 0))
    built = vs.from_dense("z", {(2, 0): 3, (0, 1): 0, (1, 1): Fraction(1, 2)})
    assert built == 3 * z1 ** 2 + Fraction(1, 2) * z1 * z2
    _assert_stored_canonically(built)
    assert vs.from_exps("z", [0, 2], Fraction(-1, 3)) == Fraction(-1, 3) * z2 ** 2


def _assert_stored_canonically(p):
    """Monomials sorted without zero exponents, coefficients nonzero exact
    rationals: an int or a Fraction, never a float or a bool."""
    order = {name: pos for pos, name in enumerate(p.vs.families)}
    for mono, coeff in p.terms.items():
        assert type(coeff) in (int, Fraction) and coeff != 0
        assert all(e > 0 for _, e in mono)
        keys = [(order[fam], index) for (fam, index), _ in mono]
        assert keys == sorted(set(keys))
    assert p.terms == Poly(p.vs, dict(p.terms)).terms


def test_results_store_only_nonzero_fractions():
    vs = VarSpace(2, ("T", "lam", "mu"))
    t1, l1 = vs.var("T", 1), vs.var("lam", 1)
    zeros = [
        t1 - t1,
        (t1 + l1) * (t1 - l1) + l1 ** 2 - t1 ** 2,
        (t1 + l1).subst({("T", 1): -l1}),
        (t1 ** 2 - l1).diff("lam", 2),
    ]
    assert not any(p.terms for p in zeros)
    rng = random.Random(314159)
    assignment = {
        ("T", 1): -vs.var("lam", 1) - vs.var("mu", 1),
        ("lam", 2): vs.var("lam", 2) + vs.var("mu", 2),
        ("mu", 1): vs.const(Fraction(-3, 2)),
    }
    results = zeros + [(t1 + l1) + (-t1)]
    for _ in range(40):
        p, q = _random_poly(rng, vs), _random_poly(rng, vs)
        results += [p + q, p - q, q - p, -p, p - p, p * q, p ** 2, p ** 0]
        results += [p.subst(assignment), (p - q).subst({("T", 1): vs.var("T", 1)})]
        results += [p.diff("T", 1), p.diff("mu", 2), p.laplacian("lam")]
        results += [p.scale(3), p.scale(Fraction(-2, 7)), p.scale(0)]
        assert p.scale(3) == 3 * p and p.scale(Fraction(-2, 7)) == p * Fraction(-2, 7)
        results += list(p.coefficients_in(("lam",)).values())
        results += list((p * q - q * p + p).coefficients_in(("T", "mu")).values())
    for p in results:
        _assert_stored_canonically(p)


def test_integer_inputs_stay_int():
    vs = VarSpace(2, ("T", "lam"))
    t1, t2, l1 = vs.var("T", 1), vs.var("T", 2), vs.var("lam", 1)
    p = 3 * t1 ** 2 - 2 * t1 * l1 + 5
    q = Poly(vs, {((("T", 2), 1),): Fraction(4, 2), (): -1}) + l1
    results = [p + q, p - q, -p, p * q, (p - q) ** 3, p ** 0, vs.const(True), vs.one]
    results += [p.subst({("T", 1): t2 - 2 * l1, ("lam", 1): 7}), p.diff("T", 1)]
    results += [(p * q).laplacian("T"), p.scale(-4), p.scale(Fraction(-2, 1))]
    results += list((p * q).coefficients_in(("lam",)).values())
    results += [vs.from_dense("T", {(2, 1): Fraction(6, 3), (0, 1): True})]
    for r in results:
        assert r and all(type(c) is int for c in r.terms.values()), r
        _assert_stored_canonically(r)
    # An int and its Fraction form are the same value, key and hash.
    assert q == t2 * 2 - 1 + l1 and q.terms == (2 * t2 - 1 + l1).terms
    assert p.scale(Fraction(-2, 1)) == p * -2 == p * Fraction(-2)
    for value in (0, 3, -7):
        as_fraction = Poly(vs, {(): Fraction(value)})
        assert as_fraction == vs.const(value) == value == Fraction(value)
        assert hash(as_fraction) == hash(vs.const(value)) == hash(Fraction(value))
    # Fraction arithmetic may leave an integral Fraction; it still equals the int.
    back = p.scale(Fraction(1, 2)).scale(2)
    assert back == p and back.terms == p.terms and hash(back) == hash(p)


def test_float_coefficients_are_rejected(vs):
    t1 = vs.var("T", 1)
    builds = (lambda: vs.const(0.1), lambda: Poly(vs, {(): 0.5}),
              lambda: vs.from_exps("T", (1, 0, 0), 0.5), lambda: t1.scale(0.5),
              lambda: t1.scale(0.0))
    for build in builds:
        with pytest.raises(TypeError, match="float"):
            build()
    assert vs.const(Fraction(1, 10)) * 10 == vs.one


# ----------------------------------------------------------------------
# the packed-monomial kernel against the Poly arithmetic it replaces
# ----------------------------------------------------------------------

def _pseudo_poly(rng, vs, degree, fractions):
    """A random poly in (T, lam, mu) of total degree <= ``degree``."""
    variables = [(family, i) for family in vs.families for i in range(1, vs.D + 1)]
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = {}
        for _ in range(rng.randint(0, degree) if variables else 0):
            var = rng.choice(variables)
            exps[var] = exps.get(var, 0) + 1
        mono = tuple(sorted(exps.items(), key=lambda item: variables.index(item[0])))
        coeff = rng.randint(-6, 6)
        terms[mono] = Fraction(coeff, rng.randint(1, 5)) if fractions else coeff
    return Poly(vs, terms)


def _coefficient_types(poly):
    return {mono: type(c) for mono, c in poly.terms.items()}


def _pseudo_cases(seed):
    """(packing of degree 6, polys of degree <= 6) over pseudo_space(D), D = 0..4."""
    rng = random.Random(seed)
    for D in range(5):
        vs = pseudo_space(D)
        for fractions in (False, True):
            yield Packing(vs, 6), [_pseudo_poly(rng, vs, 6, fractions) for _ in range(8)]


def test_packing_round_trips_with_coefficient_types():
    rng = random.Random(11)
    for packing, polys in _pseudo_cases(1):
        vs = packing.vs
        # Products carry integral Fractions, which must come back as Fractions.
        halves = [_pseudo_poly(rng, vs, 3, True) for _ in range(2)]
        integral = vs.const(Fraction(1, 2)) * vs.const(2)
        assert _coefficient_types(integral) == {(): Fraction}
        for p in polys + [halves[0] * halves[1], integral]:
            q = packing.unpack(packing.pack(p))
            assert q == p and _coefficient_types(q) == _coefficient_types(p)


def test_mul_add_agrees_with_the_poly_product():
    for packing, polys in _pseudo_cases(2):
        p, q, r = polys[:3]
        for sign in (1, -1):
            product = _mul_add({}, packing.pack(p), packing.pack(q), sign)
            assert packing.unpack(product) == (p * q).scale(sign)
            total = _mul_add(packing.pack(r), packing.pack(p), packing.pack(q), sign)
            assert packing.unpack(total) == r + (p * q).scale(sign)


def _check_substitutions(vs):
    """The five Jacobi substitutions and the skew flip lam -> -T-lam."""
    var, ids = vs.var, range(1, vs.D + 1)
    rename_mu = {("lam", a): var("mu", a) for a in ids}
    shift_lam = {("T", a): var("T", a) + var("lam", a) for a in ids}
    return [
        {**rename_mu, **shift_lam},
        {("T", a): var("T", a) + var("mu", a) for a in ids},
        rename_mu,
        {("T", a): -var("lam", a) - var("mu", a) for a in ids},
        {("lam", a): var("lam", a) + var("mu", a) for a in ids},
        {("lam", a): -var("T", a) - var("lam", a) for a in ids},
    ]


def test_packed_subst_agrees_with_poly_subst():
    for packing, polys in _pseudo_cases(3):
        for assignment in _check_substitutions(packing.vs):
            images, cache = packing.images(assignment), {}
            # One cache is shared by every poly under the same assignment.
            for p in polys + polys:
                image = packing.subst(packing.pack(p), images, cache)
                assert packing.unpack(image) == p.subst(assignment)


def test_products_fill_the_widest_field_exactly():
    vs = pseudo_space(2)
    variables = [(family, i) for family in vs.families for i in (1, 2)]
    for degree in range(1, 8):
        packing = Packing(vs, degree)
        for first, second in zip(variables, variables[1:]):
            p = vs.var(*first) ** degree - vs.var(*second) ** degree
            square = _mul_add({}, packing.pack(p), packing.pack(p), 1)
            # Exponent 2 * degree in the last field (mu2) and in its neighbours.
            assert packing.unpack(square) == p * p
            assert (p * p).total_degree() == 2 * degree


def test_packing_rejects_high_degree_and_bad_images():
    vs = pseudo_space(2)
    T1, lam1 = vs.var("T", 1), vs.var("lam", 1)
    packing = Packing(vs, 6)
    assert packing.pack(T1 ** 6)
    with pytest.raises(ValueError):
        packing.pack(T1 ** 4 * lam1 ** 3)
    for image in (T1 * lam1, T1 ** 2, vs.const(2), T1 + 1):
        with pytest.raises(ValueError):
            packing.images({("T", 1): image})
    with pytest.raises(WorkspaceError):
        packing.images({("z", 1): T1})


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8, 9, 17])
@pytest.mark.parametrize("D", [0, 1, 3])
def test_tag_fields_are_exact(D, r):
    """Tagged sums multiply every pair of summands; split gives each product under its tags."""
    rng = random.Random(100 * D + r)
    vs, degree = pseudo_space(D), 3
    packing = Packing(vs, degree, 2, r)
    # The last variable (mu_D) at exponent ``degree`` in both factors fills
    # the field just below the tags to 2 * degree.
    top = vs.var("mu", D) ** degree if D else vs.const(1)
    tags = sorted({0, r // 2, r - 1})
    left = {a: _pseudo_poly(rng, vs, degree, True) + top.scale(a + 1) for a in tags}
    right = {b: _pseudo_poly(rng, vs, degree, False) - top for b in tags}
    left_sum, right_sum = {}, {}
    for a in tags:
        packing.add_tagged(left_sum, packing.pack(left[a]), (a, None))
        packing.add_tagged(right_sum, packing.pack(right[a]), (None, a))
    split = packing.split(_mul_add({}, left_sum, right_sum, 1))
    expected = {(a, b): left[a] * right[b] for a in tags for b in tags}
    assert set(split) == {key for key, product in expected.items() if product}
    for key, terms in split.items():
        assert packing.unpack(terms) == expected[key]
    if D:
        assert all(any(exps[-1] == 2 * degree for exps in p.coefficients_in(("mu",)))
                   for p in expected.values())
        # A substitution keeps the tags of what it substitutes.
        images, cache = packing.images({("T", 1): vs.var("T", 1) + vs.var("lam", 1)}), {}
        moved = packing.split(packing.subst(left_sum, images, cache))
        assert {key[0]: packing.unpack(terms) for key, terms in moved.items()} == {
            a: p.subst({("T", 1): vs.var("T", 1) + vs.var("lam", 1)})
            for a, p in left.items() if p}
    for bad in ((r, None), (None, -1), (0,), (0, 0, 0)):
        with pytest.raises(ValueError):
            packing.add_tagged({}, {0: 1}, bad)


def test_shared_packing_is_one_per_shape_and_add_tagged_sums():
    vs = pseudo_space(2)
    packing = shared_packing(vs, 3, 2, 4)
    assert shared_packing(vs, 3, 2, 4) is packing
    assert shared_packing(vs, 3, 2, 5) is not packing
    p = vs.var("T", 1) + vs.var("lam", 2)
    out = packing.add_tagged({}, packing.pack(p), (1, None))
    assert packing.add_tagged(out, packing.pack(vs.var("T", 2) - p), (1, None)) is out
    assert {tags: packing.unpack(terms) for tags, terms in packing.split(out).items()} == {
        (1, 0): vs.var("T", 2)}
