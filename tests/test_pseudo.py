"""Pseudoalgebra presentations, the standard families, and the axiom checkers.

The skew and Jacobi engine paths are cross-checked against deliberately
separate transcriptions of the axioms: skewsymmetry by expanding the
substituted bracket one operator at a time from its lambda-graded terms, and
Jacobi by evaluating all three nested brackets at specialized rational values
of lam and mu.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from lambdacone import (
    BracketTable,
    ChiVector,
    LambdaPoly,
    LieStructure,
    ModuleElement,
    Poly,
    WorkspaceError,
    bracket_extend,
    build_cur,
    build_hd,
    build_wd,
    current_extend,
    jacobi_check,
    pseudo_space,
    sd_basis,
    sd_closure_check,
    sd_divergence,
    skew_check,
)
from lambdacone import clear_caches, pseudo, rings
from lambdacone.cli import main as cli_main


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------

def skew_partner(table, i, j):
    """-[a_j (-T-lam) a_i], expanded lambda-monomial by lambda-monomial.

    Each lam^K is replaced by the product of (-T_a - lam_a)^{K_a} acting by
    multiplication on the module coordinate; a second, independent route to
    the same value the checker computes by flat substitution.
    """
    vs = table.vs
    out = LambdaPoly.zero(vs, table.r)
    for lam_exps, element in table.entry(j, i).lambda_terms().items():
        op = vs.one
        for a, e in enumerate(lam_exps, 1):
            op = op * (-vs.var("T", a) - vs.var("lam", a)) ** e
        for k, poly in element.coords.items():
            out = out + LambdaPoly(vs, table.r, {k: op * poly})
    return LambdaPoly(vs, table.r, {k: -p for k, p in out.coords.items()})


def _entry_at(table, i, j, lam_values, vs):
    """[a_i lam a_j] with lam specialized to rational numbers: {k: T-poly}."""
    assignment = {("lam", a + 1): vs.const(v) for a, v in enumerate(lam_values)}
    return {k: p.subst(assignment) for k, p in table.entry(i, j).coords.items()}


def jacobi_residual_at(table, i, j, k, lam_values, mu_values):
    """A - B - C at numeric lam, mu, composing brackets step by step."""
    vs = table.vs
    r = table.r
    shift = lambda poly, values: poly.subst(
        {("T", a + 1): vs.var("T", a + 1) + vs.const(v) for a, v in enumerate(values)}
    )
    residual = {l: vs.zero for l in range(r)}
    # A = [a_i lam [a_j mu a_k]]
    for kp, Q in _entry_at(table, j, k, mu_values, vs).items():
        for l, pol in _entry_at(table, i, kp, lam_values, vs).items():
            residual[l] = residual[l] + shift(Q, lam_values) * pol
    # B = [a_j mu [a_i lam a_k]]
    for kp, P in _entry_at(table, i, k, lam_values, vs).items():
        for l, pol in _entry_at(table, j, kp, mu_values, vs).items():
            residual[l] = residual[l] - shift(P, mu_values) * pol
    # C = [[a_i lam a_j]_(lam+mu) a_k]
    nu = [a + b for a, b in zip(lam_values, mu_values)]
    for kp, R in _entry_at(table, i, j, lam_values, vs).items():
        evaluated = R.subst({("T", a + 1): vs.const(-v) for a, v in enumerate(nu)})
        for l, pol in _entry_at(table, kp, k, nu, vs).items():
            residual[l] = residual[l] - evaluated * pol
    return residual


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def test_cur_sl2_e_f_gives_h():
    table = build_cur(LieStructure.sl2(), 1)
    e, f = table.generators.index("e"), table.generators.index("f")
    entry = table.entry(e, f)
    h = table.generator_element("h")
    assert entry == LambdaPoly(h.vs, h.r, h.coords)


def test_cur_abelian_is_zero():
    table = build_cur(LieStructure(2, {}), 2)
    assert all(not entry for entry in table.entries.values())


def test_cur_d0_is_ordinary_lie_algebra():
    table = build_cur(LieStructure(1, {}), 0)
    assert table.D == 0
    assert not table.entry(0, 0)
    sl2 = build_cur(LieStructure.sl2(), 0)
    assert skew_check(sl2).passed and jacobi_check(sl2).passed


def test_wd_virasoro_instance():
    table = build_wd(1)
    vs = table.vs
    expected = LambdaPoly(vs, 1, {0: vs.var("T", 1) + 2 * vs.var("lam", 1)})
    assert table.entry(0, 0) == expected


def test_wd_cross_entry():
    table = build_wd(2)
    vs = table.vs
    expected = LambdaPoly(
        vs, 2, {1: vs.var("T", 1) + vs.var("lam", 1), 0: vs.var("lam", 2)}
    )
    assert table.entry(0, 1) == expected


def test_wd_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_wd(0)


def test_hd_formula_and_parity():
    table = build_hd(2)
    vs = table.vs
    expected = LambdaPoly(
        vs, 1,
        {0: vs.var("lam", 1) * vs.var("T", 2) - vs.var("lam", 2) * vs.var("T", 1)},
    )
    assert table.entry(0, 0) == expected
    with pytest.raises(ValueError):
        build_hd(3)


# ----------------------------------------------------------------------
# sesquilinear extension
# ----------------------------------------------------------------------

def test_bracket_extend_first_slot():
    table = build_wd(1)
    vs = table.vs
    x = table.element({"L1": vs.var("T", 1)})
    y = table.generator_element("L1")
    result = bracket_extend(table, x, y)
    lam, t = vs.var("lam", 1), vs.var("T", 1)
    assert result == LambdaPoly(vs, 1, {0: -lam * (t + 2 * lam)})


def test_bracket_extend_second_slot():
    table = build_wd(1)
    vs = table.vs
    x = table.generator_element("L1")
    y = table.element({"L1": vs.var("T", 1)})
    lam, t = vs.var("lam", 1), vs.var("T", 1)
    assert bracket_extend(table, x, y) == LambdaPoly(vs, 1, {0: (t + lam) * (t + 2 * lam)})


def test_bracket_extend_is_identity_on_generators():
    table = build_wd(3)
    for i in range(3):
        for j in range(3):
            x, y = table.generator_element(i), table.generator_element(j)
            assert bracket_extend(table, x, y) == table.entry(i, j)


def _random_element(rng, table, degmax=2):
    vs = table.vs
    coords = {}
    for k in range(table.r):
        poly = vs.zero
        for _ in range(rng.randint(0, 2)):
            exps = [0] * table.D
            for _ in range(rng.randint(0, degmax)):
                exps[rng.randrange(table.D)] += 1
            poly = poly + vs.from_exps("T", exps, rng.randint(-4, 4))
        if poly:
            coords[k] = poly
    return ModuleElement(vs, table.r, coords)


def test_first_slot_sesquilinearity_property():
    rng = random.Random(1234)
    for builder in (lambda: build_wd(2), lambda: build_hd(2),
                    lambda: build_cur(LieStructure.sl2(), 2)):
        table = builder()
        vs = table.vs
        for _ in range(5):
            x, y = _random_element(rng, table), _random_element(rng, table)
            for alpha in range(1, table.D + 1):
                lhs = bracket_extend(table, x.mul_T(alpha), y)
                rhs = bracket_extend(table, x, y).scale(-vs.var("lam", alpha))
                assert lhs == rhs


def test_bracket_extend_workspace_mismatch():
    with pytest.raises(WorkspaceError):
        bracket_extend(build_wd(2), build_wd(3).generator_element(0),
                       build_wd(2).generator_element(0))
    # Same workspace, another rank: Cur(sl2) has three generators, W(2) two.
    with pytest.raises(WorkspaceError):
        bracket_extend(build_wd(2), build_wd(2).generator_element(0),
                       build_cur(LieStructure.sl2(), 2).generator_element(0))


def test_module_element_rejects_lambda_coordinates():
    vs = pseudo_space(2)
    with pytest.raises(WorkspaceError):
        ModuleElement(vs, 2, {0: vs.var("T", 1) * vs.var("lam", 2)})
    with pytest.raises(WorkspaceError):
        ModuleElement(vs, 2, {1: pseudo_space(3).var("T", 1)})


def test_bracket_values_keep_their_invariants():
    rng = random.Random(4711)
    table = build_wd(2)
    vs = table.vs
    T1, T2, lam1 = vs.var("T", 1), vs.var("T", 2), vs.var("lam", 1)
    flip = {("lam", a): -vs.var("T", a) - vs.var("lam", a) for a in (1, 2)}
    elements = [_random_element(rng, table) for _ in range(4)]
    elements = [x for x in elements if x]
    x = elements[0]
    # Adding it to x cancels every coordinate x has.
    elements.append(-x + ModuleElement(vs, 2, {1: T2}))
    brackets = [bracket_extend(table, a, b) for a in elements for b in elements[:2]]

    def check(value, cls):
        assert type(value) is cls
        assert all(value.coords.values())
        assert value == type(value)(value.vs, value.r, value.coords)

    for a in elements:
        for result in (a - a, a.scale(0), -a, a.scale(3), Fraction(1, 2) * a,
                       a.scale(T1 + 1), a.mul_T(2), a.mul_T(1), (a - a).mul_T(1),
                       a.subst({("T", 1): T1 + T2}),
                       ModuleElement(vs, 2, {0: T1 + 1}).subst({("T", 1): vs.const(-1)})):
            check(result, ModuleElement)
        for b in elements:
            check(a + b, ModuleElement)
            check(a - b, ModuleElement)
        assert a.mul_T(1) == a.scale(T1) and a.mul_T(2) == a.scale(T2)
        with pytest.raises(WorkspaceError):
            a.scale(lam1)
        assert type(LambdaPoly(a.vs, a.r, a.coords)) is LambdaPoly
        assert LambdaPoly(a.vs, a.r, a.coords) == a
    for v in brackets:
        for result in (v - v, v.scale(0), -v, v.scale(Fraction(-2, 3)), v.scale(lam1),
                       v.subst(flip), v + elements[0], elements[0] + v,
                       LambdaPoly(vs, 2, {0: T1 + lam1}).subst({("lam", 1): -T1})):
            check(result, LambdaPoly)
        for w in brackets:
            check(v + w, LambdaPoly)
            check(v - w, LambdaPoly)


def test_int_view_formatter_writes_the_text_of_format():
    # The vertex-Lie identity checks write each violation straight from its
    # int vectors; the text must be that of ModuleElement.format, over the
    # least denominator and over a multiple of it.
    rng = random.Random(1931)
    values = (0, 1, -1, 2, -3, 12, Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3),
              Fraction(-7, 6), Fraction(3, 4))
    seen = set()
    for trial in range(400):
        D, r = rng.randint(1, 4), rng.randint(1, 3)
        vs = pseudo_space(D)
        names = tuple(rng.choice(("L", "J_x", "phi", "a")) + str(k) for k in range(r))
        coords = {}
        for k in range(r):
            terms = {}
            for _ in range(rng.choice((0, 1, 1, 2, 4, 7))):
                exps = tuple(rng.randint(0, 2) if rng.random() < 0.6 else 0 for _ in range(D))
                terms[exps] = rng.choice(values)
            coords[k] = vs.from_dense("T", terms)
        element = ModuleElement(vs, r, coords)
        den, numerators = element._int_view()
        scaled = {key: 6 * n for key, n in numerators.items()}
        for given in (names, None):
            text = element.format(given)
            assert pseudo._format_int_view(den, numerators, given) == text, trial
            assert pseudo._format_int_view(6 * den, scaled, given) == text, trial
        seen.update(kind for kind, present in (
            ("zero", not element), ("fraction", den > 1), ("negative", "- " in text),
            ("bare generator", {*text.split(" + ")} & {*names}), ("several terms", " + " in text)) if present)
    assert seen == {"zero", "fraction", "negative", "bare generator", "several terms"}


# ----------------------------------------------------------------------
# skewsymmetry
# ----------------------------------------------------------------------

def test_skew_passes_for_wd():
    for D in (1, 2, 3):
        assert skew_check(build_wd(D)).passed


def test_skew_matches_operator_expansion_oracle():
    for table in (build_wd(1), build_wd(2), build_hd(2), build_hd(4)):
        for i in range(table.r):
            for j in range(table.r):
                assert table.entry(i, j) == skew_partner(table, i, j)


def test_skew_failure_witness():
    vs = pseudo_space(1)
    table = BracketTable(1, ("L",), {(0, 0): LambdaPoly(vs, 1, {0: vs.one})})
    report = skew_check(table)
    assert not report.passed
    assert report.first_witness == "(2)*L"


# ----------------------------------------------------------------------
# Jacobi
# ----------------------------------------------------------------------

def test_jacobi_cur_sl2():
    assert jacobi_check(build_cur(LieStructure.sl2(), 1)).passed


def test_jacobi_wd2_with_specialization_oracle():
    table = build_wd(2)
    assert jacobi_check(table).passed
    points = [((3, 5), (7, 2)), ((1, -2), (Fraction(1, 2), 4)), ((0, 1), (1, 0))]
    for lam_values, mu_values in points:
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    residual = jacobi_residual_at(table, i, j, k, lam_values, mu_values)
                    assert not any(residual.values())


def test_jacobi_zero_table():
    vs = pseudo_space(2)
    table = BracketTable(2, ("a", "b"), {})
    assert jacobi_check(table).passed


def test_jacobi_detects_broken_constants():
    # Antisymmetric constants that do not satisfy the Lie Jacobi identity.
    vs = pseudo_space(1)
    entries = {
        (0, 1): LambdaPoly(vs, 3, {0: vs.one}),
        (1, 0): LambdaPoly(vs, 3, {0: -vs.one}),
        (0, 2): LambdaPoly(vs, 3, {1: vs.one}),
        (2, 0): LambdaPoly(vs, 3, {1: -vs.one}),
        (1, 2): LambdaPoly(vs, 3, {2: -vs.one}),
        (2, 1): LambdaPoly(vs, 3, {2: vs.one}),
    }
    table = BracketTable(1, ("e", "h", "f"), entries)
    assert skew_check(table).passed
    assert not jacobi_check(table).passed


def test_table_rejects_keys_outside_the_generator_pairs():
    vs = pseudo_space(1)
    e = LambdaPoly(vs, 1, {0: vs.one})
    with pytest.raises(ValueError, match=r"\[\(0, 1\), \(5, 5\)\] lie outside range\(1\)\^2"):
        BracketTable(1, ("L",), {(0, 0): e, (0, 1): e, (5, 5): e})


def test_pseudo_space_is_one_instance_per_dimension():
    assert pseudo_space(2) is pseudo_space(2) == BracketTable(2, ("a",), {}).vs
    assert pseudo_space(2) != pseudo_space(3)


def test_lie_constants_and_chi_reject_a_float():
    with pytest.raises(TypeError, match="float"):
        LieStructure(2, {(0, 1, 0): 0.1, (1, 0, 0): -0.1})
    with pytest.raises(TypeError, match="float"):
        ChiVector((Fraction(1, 2), 0.5))
    # Exact values are stored as Fractions, as before.
    g = LieStructure(2, {(0, 1, 0): 1, (1, 0, 0): Fraction(-1), (0, 0, 1): 0})
    assert g.c == {(0, 1, 0): 1, (1, 0, 0): -1}
    assert all(type(v) is Fraction for v in g.c.values())
    chi = ChiVector((1, Fraction(1, 2), "3/4"))
    assert chi.values == (1, Fraction(1, 2), Fraction(3, 4))
    assert all(type(v) is Fraction for v in chi.values)


def test_lie_structure_validation():
    with pytest.raises(ValueError, match=r"fail skew at \(1,2\)$"):
        LieStructure(2, {(0, 1, 0): 1})  # not antisymmetric
    with pytest.raises(ValueError, match=r"fail jacobi at \(1,2,3\)$"):
        LieStructure(3, {
            (0, 1, 2): 1, (1, 0, 2): -1,
            (1, 2, 0): 1, (2, 1, 0): -1,
            (2, 0, 1): 1, (0, 2, 1): -1,
            (0, 1, 0): 1, (1, 0, 0): -1,  # spoil Jacobi
        })


# ----------------------------------------------------------------------
# S(D, chi)
# ----------------------------------------------------------------------

def test_sd_divergence_values():
    table = build_wd(2)
    vs = table.vs
    x = table.element({"L1": vs.var("T", 2), "L2": -vs.var("T", 1)})
    assert not sd_divergence(table, x, ChiVector.zero(2))
    assert sd_divergence(table, x, ChiVector.unit(2, 1)) == vs.var("T", 2)
    # A constant coefficient is *not* divergence free: the symbol is T_1.
    assert sd_divergence(table, table.generator_element("L1"), ChiVector.zero(2)) == vs.var("T", 1)


def test_sd_divergence_requires_wd():
    with pytest.raises(ValueError):
        sd_divergence(build_hd(2), build_hd(2).generator_element(0), ChiVector.zero(2))
    table = build_wd(2)
    with pytest.raises(ValueError):
        sd_divergence(table, table.generator_element(0), ChiVector.zero(3))


def test_sd_basis_and_closure_reject_chi_of_wrong_length():
    # Checked up front, even where the basis is empty (D = 1, degmax = 1).
    for D, degmax in ((1, 1), (2, 2)):
        with pytest.raises(ValueError):
            sd_basis(D, ChiVector.zero(D + 1), degmax)
        with pytest.raises(ValueError):
            sd_closure_check(D, ChiVector.zero(D + 1), degmax)


def test_chi_unit_rejects_an_index_outside_1_to_D():
    assert ChiVector.unit(2, 2).values == (0, 1)
    for alpha in (-1, 0, 3):
        with pytest.raises(ValueError):
            ChiVector.unit(2, alpha)


def test_sd_basis_rejects_negative_degmax():
    assert sd_basis(2, ChiVector.zero(2), 0) == []
    with pytest.raises(ValueError, match="degmax must be >= 0"):
        sd_basis(2, ChiVector.zero(2), -1)


def test_sd_basis_members_are_divergence_free():
    table = build_wd(2)
    for chi in (ChiVector.zero(2), ChiVector.unit(2, 1)):
        basis = sd_basis(2, chi, 2)
        assert basis
        for x in basis:
            assert not sd_divergence(table, x, chi)


def wd_bracket_direct(table, x, y):
    """Independent expansion of the W(D) bracket from the displayed formula."""
    vs = table.vs
    D = table.D
    neg = {("T", a): -vs.var("lam", a) for a in range(1, D + 1)}
    shift = {("T", a): vs.var("T", a) + vs.var("lam", a) for a in range(1, D + 1)}
    coords = {c: vs.zero for c in range(D)}
    for a in range(D):
        P = x.coords.get(a)
        if P is None:
            continue
        for b in range(D):
            Q = y.coords.get(b)
            if Q is None:
                continue
            factor = P.subst(neg) * Q.subst(shift)
            coords[b] = coords[b] + factor * (vs.var("T", a + 1) + vs.var("lam", a + 1))
            coords[a] = coords[a] + factor * vs.var("lam", b + 1)
    return LambdaPoly(vs, D, coords)


def test_closure_with_direct_expansion_oracle():
    for D, chi in ((2, ChiVector.zero(2)), (2, ChiVector.unit(2, 1))):
        table = build_wd(D)
        basis = sd_basis(D, chi, 2)
        for x in basis:
            for y in basis:
                via_engine = bracket_extend(table, x, y)
                assert via_engine == wd_bracket_direct(table, x, y)
                for element in via_engine.lambda_terms().values():
                    assert not sd_divergence(table, element, chi)
        assert sd_closure_check(D, chi, 2).passed


def test_closure_degenerate_d1():
    report = sd_closure_check(1, ChiVector.zero(1), 1)
    assert report.passed
    assert not sd_basis(1, ChiVector.zero(1), 1)


def test_closure_all_unit_vectors_and_rational_chi():
    for D in (2, 3):
        for alpha in range(1, D + 1):
            assert sd_closure_check(D, ChiVector.unit(D, alpha), 2).passed
    half = ChiVector((Fraction(1, 2), Fraction(-3)))
    assert sd_closure_check(2, half, 2).passed


@pytest.mark.parametrize("chi", [ChiVector.zero(4), ChiVector.unit(4, 2)], ids=["0", "e2"])
def test_closure_d4_degmax3(chi):
    report = sd_closure_check(4, chi, 3)
    assert report.passed
    assert report.checked == 5041
    assert report.detail.endswith("basis=71")


# Broken data for the closure check: the S(D, chi) basis plus the element
# (T1*T2 + 3) L1 + T2 L2, whose divergence is not zero.  Expected failure
# counts and sha256 of (records, (label, witness) failures) per case.
BROKEN_CLOSURE = {
    (2, (0, 0), 2):
        (73, "24b12ea96a552b0d7565882b29d0d9296fb7a23e23df465466a2e7fafb0be969"),
    (3, (1, 0, 0), 2):
        (333, "ac4ac7c5578f53afb471b3f7db8e2b47fe5c2fbb27430dbe92afecbdf5c34b1d"),
    (2, (Fraction(1, 3), -2), 3):
        (210, "dd37be50658a4648074f230555de8dd197c13d17f2cc3047a1b31e7e0d85e4d2"),
}


def _assert_broken_closure(monkeypatch, D, chi, degmax, bad_coords, expected):
    """Run the closure check on the S(D, chi) basis plus one element; compare (count, digest)."""
    sd_basis_of = pseudo.sd_basis

    def broken_basis(D, chi, degmax):
        vs = pseudo_space(D)
        return sd_basis_of(D, chi, degmax) + [ModuleElement(vs, D, bad_coords(vs, degmax))]

    # sd_closure_check reads sd_basis through the module global.
    monkeypatch.setattr(pseudo, "sd_basis", broken_basis)
    report = sd_closure_check(D, ChiVector(chi), degmax)
    count, digest = expected
    assert not report.passed
    assert len(report.failures) == count
    assert all(f.witness for f in report.failures)
    failures = tuple((f.label, f.witness) for f in report.failures)
    text = repr((report.records, failures))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "case", list(BROKEN_CLOSURE),
    ids=lambda case: f"D{case[0]}-chi{','.join(map(str, case[1]))}-degmax{case[2]}",
)
def test_closure_fails_with_witnesses_on_broken_basis(case, monkeypatch):
    def bad(vs, degmax):
        T1, T2 = vs.var("T", 1), vs.var("T", 2)
        return {0: T1 * T2 + 3, 1: T2}

    _assert_broken_closure(monkeypatch, *case, bad, BROKEN_CLOSURE[case])


# The element T1^(degmax+2) L1 lies two degrees above every basis element,
# so a packing sized from degmax cannot hold it; (count, sha256) as above.
BROKEN_CLOSURE_HIGH_DEGREE = (
    211, "40edda3cb302e509f01c24f7fdb56f02ea3e85bd440fb27d517e233854ffc332"
)


def test_closure_packing_degree_comes_from_the_packed_data(monkeypatch):
    def bad(vs, degmax):
        return {0: vs.var("T", 1) ** (degmax + 2)}

    _assert_broken_closure(monkeypatch, 3, (0, Fraction(1, 2), 0), 2, bad,
                           BROKEN_CLOSURE_HIGH_DEGREE)


def test_closure_scans_each_total_degree_once(monkeypatch):
    # The packing degree and each pack read one scan of every packed
    # polynomial: the D^2 composed entries and the basis coordinates.
    D, chi, degmax = 3, ChiVector.unit(3, 1), 3
    packed = len(build_wd(D).entries) + sum(len(x.coords) for x in sd_basis(D, chi, degmax))
    scans = []
    total_degree = Poly.total_degree

    def counting(self):
        scans.append(self)
        return total_degree(self)

    monkeypatch.setattr(Poly, "total_degree", counting)
    assert sd_closure_check(D, chi, degmax).passed
    assert len(scans) == packed == 61


# sha256 per D of the sd_basis output (coefficient types included) for
# degmax = 0..SD_DEGMAX[D] and of the closure report digests for
# degmax = 1..SD_DEGMAX[D], over chi in {0, e_1, e_D, a Fraction vector}.
SD_DEGMAX = {1: 3, 2: 4, 3: 3, 4: 3}
SD_GOLDEN = {
    1: "a3b5809380d971353ff3002bf53144757ca98c35b9e1bff6ed4ba79ae02ad5c2",
    2: "1ca18cf9c5705ed965775ccbab1534228016834306c245ea694a6eee0758cac9",
    3: "f0cb1793715cdbc29cec3e263de46cdfddb93fbbd492a55a73fe656b0a5429b8",
    4: "2489b0aa924206edb1a5bf81be982f2ab883a1400e813e09f187d7bf9385c737",
}


def _sd_chis(D):
    rational = ChiVector((Fraction(1, 3), -2, Fraction(5, 2), Fraction(-3, 4))[:D])
    return dict.fromkeys((ChiVector.zero(D), ChiVector.unit(D, 1), ChiVector.unit(D, D), rational))


@pytest.mark.parametrize("D", list(SD_GOLDEN))
def test_sd_basis_and_closure_golden_digest(D):
    records = []
    for chi in _sd_chis(D):
        for degmax in range(SD_DEGMAX[D] + 1):
            records.append([
                sorted((a, sorted((e, type(c).__name__, c) for e, c in p.dense("T").items()))
                       for a, p in x.coords.items())
                for x in sd_basis(D, chi, degmax)
            ])
            if degmax:
                records.append(_report_digest(sd_closure_check(D, chi, degmax)))
    assert hashlib.sha256(repr(records).encode("utf-8")).hexdigest() == SD_GOLDEN[D]


# ----------------------------------------------------------------------
# current extension
# ----------------------------------------------------------------------

def test_current_extend_of_d0_cur_equals_build_cur():
    g = LieStructure.sl2()
    assert current_extend(build_cur(g, 0), 2) == build_cur(g, 2)


def test_current_extend_keeps_bracket():
    extended = current_extend(build_wd(1), 2)
    vs = extended.vs
    expected = LambdaPoly(vs, 1, {0: vs.var("T", 1) + 2 * vs.var("lam", 1)})
    assert extended.entry(0, 0) == expected
    indices_used = {
        i % vs.D + 1
        for poly in extended.entry(0, 0).coords.values()
        for exps in poly.dense(*vs.families)
        for i, e in enumerate(exps) if e
    }
    assert indices_used == {1}  # no T2 or lam2 enters the old bracket


def test_current_extend_requires_larger_dimension():
    with pytest.raises(ValueError):
        current_extend(build_wd(2), 2)


def test_current_extend_preserves_axioms():
    builders = [build_wd(1), build_wd(2), build_hd(2),
                build_cur(LieStructure.sl2(), 1)]
    for table in builders:
        extended = current_extend(table, table.D + 1)
        assert skew_check(extended).passed == skew_check(table).passed
        assert jacobi_check(extended).passed == jacobi_check(table).passed
    assert jacobi_check(current_extend(build_hd(2), 3)).passed


# ----------------------------------------------------------------------
# golden digests: verdicts, witnesses and records cannot drift unseen
# ----------------------------------------------------------------------

def _report_digest(report):
    failures = tuple((f.label, f.witness) for f in report.failures)
    text = repr((report.checked, report.records, failures, report.detail))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mutated_w3():
    """W(3) with the T1 coefficient of [L1 lam L2] changed from 1 to 3."""
    table = build_wd(3)
    vs = table.vs
    entry = table.entry(0, 1)
    coords = dict(entry.coords)
    coords[1] = coords[1] + 2 * vs.var("T", 1)
    entries = dict(table.entries)
    entries[(0, 1)] = LambdaPoly(vs, 3, coords)
    return BracketTable(3, table.generators, entries)


_GOLDEN_TABLES = {
    "W1": lambda: build_wd(1),
    "W2": lambda: build_wd(2),
    "W3": lambda: build_wd(3),
    "W4": lambda: build_wd(4),
    "Cur(sl2),D=2": lambda: build_cur(LieStructure.sl2(), 2),
    "H2": lambda: build_hd(2),
    "H4": lambda: build_hd(4),
    "W3 mutated": _mutated_w3,
}

# sha256 of (checked, records, (label, witness) failures, detail) per report.
GOLDEN_REPORTS = {
    ("closure", 2, 3, "zero"):
        "7a335b123d3ec221f9a18a527fc467edf3538af39168f1baa0e02134f9d3c9cd",
    ("closure", 2, 3, "e1"):
        "73745067ba1b843d7f93048f9e57c92d5b729b9429c4db165f58eac1cd35a924",
    ("closure", 3, 2, "zero"):
        "ad87f7500ba462ed829c05c2b9ce29f188fec8ff205cab4a3e55f6f4f54dbae1",
    ("closure", 3, 2, "e1"):
        "06b4ada04292df3d89c002b85ea5c9120b71d854379460a6d333bf0482f768a9",
    ("skew", "W1"):
        "db83153257ad39572b17ff09670928c9674affe91e957fe73d120c7694f7e703",
    ("jacobi", "W1"):
        "a40c22aa3ac581f066d19b4f22a91881b59be295c47d4d9be20c0084fb59aebd",
    ("skew", "W2"):
        "1af8131a90a47c7fed18a2c601cf4f817908afc1e8cfe061899edba8f8f48432",
    ("jacobi", "W2"):
        "63435bb669cf37373e3e7a21d46e831e9f30baf06648f1d72e99717daac85d28",
    ("skew", "W3"):
        "040a372e2aa43d4e178596748e8e0f1b5a32be06d498edb516ce257b7fb87df8",
    ("jacobi", "W3"):
        "0c90a3c986bfeb5f6241dacf3ca1232381f92f2f48ce79a14e0c30765b5e5cf2",
    ("skew", "W4"):
        "25be35c9db5f5afa6e40632a26eb7d2f6348469fcba21188e19f5d46ea7432db",
    ("jacobi", "W4"):
        "a931a56bef954dbbdd42eb8b6612779d6f216eb69d148366330effbe326a79e0",
    ("skew", "Cur(sl2),D=2"):
        "5114ffe880423f664ff77880977e59afe6e6bcce1ccc50a796e5a20214ec0c59",
    ("jacobi", "Cur(sl2),D=2"):
        "64bc06cfeb763c6919246e904a9d9d16dfa765ee7b8563cc4b6ed08bb227718b",
    ("skew", "H2"):
        "54b9ce21b9b8d2e219498001a5a3ba7eeeaeb5ba68c07af5cd1d37a3a26d2dc5",
    ("jacobi", "H2"):
        "804f6a5fb0f5f42915d83c3f0e0d45cc7d29a31a6ab9344d8d7a9eae9f3b803e",
    ("skew", "H4"):
        "54b9ce21b9b8d2e219498001a5a3ba7eeeaeb5ba68c07af5cd1d37a3a26d2dc5",
    ("jacobi", "H4"):
        "804f6a5fb0f5f42915d83c3f0e0d45cc7d29a31a6ab9344d8d7a9eae9f3b803e",
    ("skew", "W3 mutated"):
        "2927df4b986723e58d92ef06f37d3650c4da04460d7b27771daed2186d147ac5",
    ("jacobi", "W3 mutated"):
        "68544db4dc2e31fa097532a774b401d2a3948bec8eeffb01870f93cc5f353ec6",
}


def _golden_report(case):
    if case[0] == "closure":
        _, D, degmax, chi = case
        chi_vector = ChiVector.zero(D) if chi == "zero" else ChiVector.unit(D, 1)
        return sd_closure_check(D, chi_vector, degmax)
    check = {"skew": skew_check, "jacobi": jacobi_check}[case[0]]
    return check(_GOLDEN_TABLES[case[1]]())


@pytest.mark.parametrize("case", list(GOLDEN_REPORTS), ids=lambda case: "-".join(map(str, case)))
def test_report_golden_digest(case):
    assert _report_digest(_golden_report(case)) == GOLDEN_REPORTS[case]


def _random_high_degree_poly(rng, vs, degree):
    poly = vs.zero
    for _ in range(rng.randint(1, 3)):
        exps = [0] * (2 * vs.D)
        for _ in range(rng.randint(0, degree) if vs.D else 0):
            exps[rng.randrange(2 * vs.D)] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        poly = poly + vs.from_exps("T", exps[:vs.D]) * vs.from_exps("lam", exps[vs.D:]) * coeff
    return poly


def _random_high_degree_table(seed):
    """A random table in D = seed % 4 with Fraction entries of degree <= 7; most axioms fail."""
    rng = random.Random(seed)
    D = seed % 4
    r = rng.randint(1, 3 if D < 3 else 2)
    vs = pseudo_space(D)
    entries = {}
    for i in range(r):
        for j in range(r):
            coords = {
                k: _random_high_degree_poly(rng, vs, 7) for k in range(r) if rng.random() < 0.6
            }
            entries[(i, j)] = LambdaPoly(vs, r, coords)
    return BracketTable(D, tuple(f"g{i + 1}" for i in range(r)), entries)


# sha256 over the report digests of skew then jacobi on random tables 0..39:
# 642 records, 600 failures, 59 reports with a Fraction witness.
GOLDEN_HIGH_DEGREE = "6f35208027221b2e9cc275a67fa75bbc4355717d9426fa72bae39351af435f49"


def test_high_degree_reports_golden_digest():
    digest = hashlib.sha256()
    for seed in range(40):
        table = _random_high_degree_table(seed)
        for check in (skew_check, jacobi_check):
            digest.update(_report_digest(check(table)).encode())
    assert digest.hexdigest() == GOLDEN_HIGH_DEGREE


def test_mutated_w3_fails_with_witnesses():
    skew, jacobi = skew_check(_mutated_w3()), jacobi_check(_mutated_w3())
    assert {f.label for f in skew.failures} == {"(L1,L2)", "(L2,L1)"}
    assert not jacobi.passed
    assert all(f.witness for f in skew.failures + jacobi.failures)


# sha256 of the file written by `lambdacone builtin S --dim 3 --chi=1/2,0,-3`.
GOLDEN_BUILTIN_S = (
    "aabe4f88149472a3af15df6c7fafe377b0c3a4c6f12848ab2e1273c5e7bc97a6"
)


def test_builtin_s_file_golden_digest(tmp_path):
    path = tmp_path / "s3.json"
    assert cli_main(["builtin", "S", "--dim", "3", "--chi=1/2,0,-3", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_BUILTIN_S


# ----------------------------------------------------------------------
# golden digests for r >= 4: generator indices past two bits
# ----------------------------------------------------------------------

def _mutated_wd(D, seed):
    """W(D) with one coefficient of a seeded off-diagonal entry changed by a nonzero Fraction."""
    rng = random.Random(seed)
    table = build_wd(D)
    vs = table.vs
    a, b = rng.sample(range(D), 2)
    entry = table.entry(a, b)
    k = rng.choice(sorted(entry.coords))
    poly = entry.coords[k]
    dense = poly.dense("T", "lam")
    exps = rng.choice(sorted(dense))
    delta = 0
    while not delta or dense[exps] + delta == 0:
        delta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    mono = vs.from_exps("T", exps[:D]) * vs.from_exps("lam", exps[D:])
    entries = dict(table.entries)
    entries[(a, b)] = LambdaPoly(vs, D, {**entry.coords, k: poly + mono.scale(delta)})
    return BracketTable(D, table.generators, entries)


_WIDE_TABLES = {
    "W5 mutated": lambda: _mutated_wd(5, 5),
    "W8 mutated": lambda: _mutated_wd(8, 8),
    "W8 extended to D=9": lambda: current_extend(build_wd(8), 9),
}

# sha256 of (checked, records, (label, witness) failures, detail) per report.
GOLDEN_WIDE_REPORTS = {
    ("skew", "W5 mutated"):
        "1533b02dc63092962f493e0802811032b3d8a26db070e4bbde846a37625c1d9c",
    ("jacobi", "W5 mutated"):
        "664a0471585ef299bff6bee248f85d7e029fbfc280e735818e8ad944a014d865",
    ("skew", "W8 mutated"):
        "f80071ee81c3f874f514819c9a234173cde3fb2048d54f732bcb182c29e77de9",
    ("jacobi", "W8 mutated"):
        "fd81125ad268875679775d6a2b3f6e882397068d6b35674cf553e0218e0c8d9d",
    ("skew", "W8 extended to D=9"):
        "421276e4a581be473ae62453e94d6a321b3540a42a2b43fe9616b893784d395b",
    ("jacobi", "W8 extended to D=9"):
        "478b33febad3c65ae72b18e3fb8ae9da018cdcdf5b9da159ab2126d28f46436f",
}


@pytest.mark.parametrize("case", list(GOLDEN_WIDE_REPORTS), ids="-".join)
def test_wide_report_golden_digest(case):
    check = {"skew": skew_check, "jacobi": jacobi_check}[case[0]]
    assert _report_digest(check(_WIDE_TABLES[case[1]]())) == GOLDEN_WIDE_REPORTS[case]


def _random_wide_table(seed):
    """A random table in D = seed % 3 with r = 4 + seed % 6 generators and
    Fraction entries of degree <= 2; most axioms fail."""
    rng = random.Random(seed)
    D, r = seed % 3, 4 + seed % 6
    vs = pseudo_space(D)
    entries = {}
    for i in range(r):
        for j in range(r):
            coords = {
                k: _random_high_degree_poly(rng, vs, 2) for k in range(r) if rng.random() < 0.3
            }
            entries[(i, j)] = LambdaPoly(vs, r, coords)
    return BracketTable(D, tuple(f"g{i + 1}" for i in range(r)), entries)


# sha256 over the report digests of skew then jacobi on random wide tables 0..9.
GOLDEN_WIDE_RANDOM = "034ab522adfa9088c00003fbefd0308192d157c19e4dc233076ff887f4020340"


def test_wide_random_reports_golden_digest():
    digest = hashlib.sha256()
    for seed in range(10):
        table = _random_wide_table(seed)
        for check in (skew_check, jacobi_check):
            digest.update(_report_digest(check(table)).encode())
    assert digest.hexdigest() == GOLDEN_WIDE_RANDOM


def test_checks_multiply_tagged_sums_not_single_pairs(monkeypatch):
    """Jacobi makes 3 * r products per first generator, closure D^2 + D per check."""
    calls = []
    mul_add = pseudo._mul_add

    def counted(*args):
        calls.append(1)
        return mul_add(*args)

    monkeypatch.setattr(pseudo, "_mul_add", counted)
    assert jacobi_check(build_wd(8)).passed
    assert len(calls) <= 3 * 8 ** 2
    calls.clear()
    assert sd_closure_check(3, ChiVector.unit(3, 1), 3).passed
    assert len(calls) <= 3 ** 2 + 3


# ----------------------------------------------------------------------
# shared per-shape set-up: packings, substitution images, degrees
# ----------------------------------------------------------------------

def _fresh_copy(table):
    """The same table over new polynomials, none of whose degrees is read yet."""
    entries = {key: LambdaPoly(table.vs, table.r, {k: p.scale(1) for k, p in entry.coords.items()})
               for key, entry in table.entries.items()}
    return BracketTable(table.D, table.generators, entries)


def _random_degree_one_table(D, seed):
    """A random table of the shape of W(D): r = D, entries of degree <= 1."""
    rng = random.Random(seed)
    vs = pseudo_space(D)
    entries = {}
    for i in range(D):
        for j in range(D):
            coords = {k: _random_high_degree_poly(rng, vs, 1) for k in range(D)
                      if rng.random() < 0.5}
            entries[(i, j)] = LambdaPoly(vs, D, coords)
    return BracketTable(D, tuple(f"g{i + 1}" for i in range(D)), entries)


def test_cache_reuse_never_changes_a_report():
    # The three tables share their packings; each check runs once on cold
    # caches of its shape and again, in the other order, after clear_caches().
    D = 3
    tables = [build_wd(D), _mutated_wd(D, 3), _random_degree_one_table(D, 3)]
    checks = [(check, table) for table in tables for check in (skew_check, jacobi_check)]
    checks += [(lambda chi: sd_closure_check(D, chi, 2), chi)
               for chi in (ChiVector.zero(D), ChiVector.unit(D, 1))]
    clear_caches()
    first = [str(check(arg)) for check, arg in checks]
    caches = (rings.shared_packing, pseudo._substitutions)
    assert all(cache.cache_info().currsize for cache in caches)
    clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    again = [str(check(arg)) for check, arg in reversed(checks)]
    assert again[::-1] == first
    assert sum(report.startswith(("skew: FAIL", "jacobi: FAIL")) for report in first) == 4


def test_checks_of_one_shape_pay_their_set_up_once(monkeypatch):
    D = 4
    clear_caches()
    warm = build_wd(D)
    assert skew_check(warm).passed and jacobi_check(warm).passed
    # A second table of the same shape: the same packing, no new image.
    images = []
    build_images = rings.Packing.images

    def counting(self, assignment):
        images.append(assignment)
        return build_images(self, assignment)

    monkeypatch.setattr(rings.Packing, "images", counting)
    misses = rings.shared_packing.cache_info().misses
    table = _fresh_copy(warm)
    # Each entry's total degree is scanned once over a skew and a Jacobi check.
    scanned = []
    mono_degree = rings.mono_degree

    def scanning(mono):
        scanned.append(mono)
        return mono_degree(mono)

    monkeypatch.setattr(rings, "mono_degree", scanning)
    assert skew_check(table).passed and jacobi_check(table).passed
    assert images == []
    assert rings.shared_packing.cache_info().misses == misses
    assert pseudo._packed_entries(table, 3)[0] is pseudo._packed_entries(warm, 3)[0]
    terms = sum(len(p.dense("T", "lam")) for entry in table.entries.values()
                for p in entry.coords.values())
    assert len(scanned) == terms > 0


def _skew_symmetric_table(D, r, seed):
    """A seeded table that passes skew and, almost surely, fails Jacobi.

    [a_i lam a_j] is random for i < j, [a_j lam a_i] = -[a_i (-T-lam) a_j],
    and each diagonal entry is (p - p(T, -lam-T)) / 2 for a random p.
    """
    rng = random.Random(seed)
    vs = pseudo_space(D)
    flip = {("lam", a): -vs.var("T", a) - vs.var("lam", a) for a in range(1, D + 1)}

    def random_entry():
        return LambdaPoly(vs, r, {k: _random_high_degree_poly(rng, vs, 2)
                                  for k in range(r) if rng.random() < 0.6})

    entries = {}
    for i in range(r):
        p = random_entry()
        entries[(i, i)] = (p - p.subst(flip)).scale(Fraction(1, 2))
        for j in range(i + 1, r):
            entries[(i, j)] = random_entry()
            entries[(j, i)] = -entries[(i, j)].subst(flip)
    return BracketTable(D, tuple(f"g{i + 1}" for i in range(r)), entries)


# sha256 of (checked, records, (label, witness) failures, detail) per
# Jacobi report of _skew_symmetric_table(D, r, seed = 10 * D + r): 15 of 27,
# 63 of 64, 25 of 27 and 62 of 64 triples fail.
GOLDEN_SKEW_SYMMETRIC_JACOBI = {
    (1, 3): "5d1d01161dcb6789d9fcbc1e7f49c356356faad3139c14c3e826a20e8717b58d",
    (1, 4): "202880272d52bd375d32c9a07d26a72172d8d118f7d198f05b364955192ed4f0",
    (2, 3): "11a45462f3c8e33c3f7c0a0bfaa6db9432e5bf5c43d2a3bd84146fa04c9c2960",
    (2, 4): "9ad5af35d6ed4ca3695888c2a1ed804a2e3f72fa6b59b86a0fbd0c0fb9f9a70d",
}


@pytest.mark.parametrize("D,r", list(GOLDEN_SKEW_SYMMETRIC_JACOBI),
                         ids=[f"D{D}-r{r}" for D, r in GOLDEN_SKEW_SYMMETRIC_JACOBI])
def test_skew_symmetric_jacobi_failure_golden_digest(D, r):
    table = _skew_symmetric_table(D, r, 10 * D + r)
    assert skew_check(table).passed
    report = jacobi_check(table)
    assert not report.passed and all(f.witness for f in report.failures)
    assert _report_digest(report) == GOLDEN_SKEW_SYMMETRIC_JACOBI[(D, r)]
