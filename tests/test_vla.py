"""Vertex Lie structures: action extension, skew/Jacobi/Borcherds checkers,
and the D = 1 bridge that lets the pseudoalgebra engine cross-examine them."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from math import factorial, prod

import pytest

from lambdacone import cone, vla
from lambdacone import (
    BiConeSeries,
    BracketTable,
    ConeSeries,
    Kernel,
    LambdaPoly,
    LieStructure,
    ModuleElement,
    TruncationError,
    VarSpace,
    VLAStructure,
    Window,
    WorkspaceError,
    apply_exp_zT,
    borcherds_check,
    build_cur,
    build_wd,
    d1_bridge,
    extend_action,
    jacobi_check,
    jacobi_check_vla,
    pseudo_space,
    skew_check,
    skew_check_vla,
)


def _broken_table(a=1, b=1, c=1):
    """Antisymmetric constants [e,h] = a e, [e,f] = b h, [h,f] = -c f violating
    the Lie Jacobi identity (by -b(a + c) h on (e,h,f))."""
    vs = pseudo_space(1)
    entries = {
        (0, 1): LambdaPoly(vs, 3, {0: vs.const(a)}),
        (1, 0): LambdaPoly(vs, 3, {0: vs.const(-a)}),
        (0, 2): LambdaPoly(vs, 3, {1: vs.const(b)}),
        (2, 0): LambdaPoly(vs, 3, {1: vs.const(-b)}),
        (1, 2): LambdaPoly(vs, 3, {2: vs.const(-c)}),
        (2, 1): LambdaPoly(vs, 3, {2: vs.const(c)}),
    }
    return BracketTable(1, ("e", "h", "f"), entries)


def _current_like_fixture(D):
    """The current-like action (2 + sum_a T_a z_a) L (z^2)^{-1} in dimension D
    (h_{1,a} = z_a)."""
    vs = pseudo_space(D)
    el = lambda p: ModuleElement(vs, 1, {0: p})
    coeffs = {(-1, 0, 1): el(vs.const(2))}
    for a in range(1, D + 1):
        coeffs[(-1, 1, a)] = el(vs.var("T", a))
    return VLAStructure(D, ("L",), {(0, 0): ConeSeries(D, "z", coeffs)})


def _d2_fixture():
    """The current-like D = 2 action (2 + T1 z1 + T2 z2) L (z^2)^{-1}."""
    return _current_like_fixture(2)


def _broken_skew_table(c=3):
    """[L lam L] = (T + c lam) L: skewsymmetry fails by (2 - c) T L."""
    vs = pseudo_space(1)
    entry = LambdaPoly(vs, 1, {0: vs.var("T", 1) + c * vs.var("lam", 1)})
    return BracketTable(1, ("L",), {(0, 0): entry})


def _kernels(D):
    """F = 1, z_1 and ((z-w)^2)^{-1} in dimension D."""
    return (Kernel.one(D), Kernel(D, z_exps=(1,) + (0,) * (D - 1)), Kernel(D, zw_pole=1))


# ----------------------------------------------------------------------
# the bridge
# ----------------------------------------------------------------------

def test_bridge_cur_sl2_simple_pole():
    table = build_cur(LieStructure.sl2(), 1)
    S = d1_bridge(table)
    e, f = table.generators.index("e"), table.generators.index("f")
    series = S.action(e, f)
    ((mode, element),) = series.items()
    assert 2 * mode[0] + mode[1] == -1
    assert element == table.generator_element("h")


def test_bridge_w1_modes():
    S = d1_bridge(build_wd(1))
    degrees = sorted(2 * n + m for (n, m, _) in S.action(0, 0).coeffs)
    assert degrees == [-2, -1]


def test_bridge_zero_table():
    table = BracketTable(1, ("a",), {})
    S = d1_bridge(table)
    assert not S.action(0, 0)


def test_bridge_requires_d1():
    with pytest.raises(ValueError):
        d1_bridge(build_wd(2))


def test_structure_rejects_regular_modes():
    vs = pseudo_space(1)
    c = ModuleElement(vs, 1, {0: vs.one})
    with pytest.raises(ValueError):
        VLAStructure(1, ("a",), {(0, 0): ConeSeries(1, "z", {(0, 0, 1): c})})


def test_structure_rejects_an_action_series_in_another_variable():
    # An action is a field in z: a series in w is refused at construction,
    # not partway through a Jacobi check.
    vs = pseudo_space(1)
    a = ModuleElement(vs, 1, {0: vs.one})
    with pytest.raises(WorkspaceError, match="variable other than z"):
        VLAStructure(1, ("a",), {(0, 0): ConeSeries(1, "w", {(-1, 1, 1): a})})


def test_structures_check_generator_names_alike():
    for build in (BracketTable, VLAStructure):
        with pytest.raises(ValueError, match="generator names must be unique"):
            build(1, ("a", "a"), {})
        with pytest.raises(ValueError, match="generator list must be nonempty"):
            build(1, (), {})


def test_structure_rejects_keys_outside_the_generator_pairs():
    vs = pseudo_space(1)
    series = ConeSeries(1, "z", {(-1, 0, 1): ModuleElement(vs, 1, {0: vs.one})})
    with pytest.raises(ValueError, match=r"\[\(1, 0\)\] lie outside range\(1\)\^2"):
        VLAStructure(1, ("a",), {(0, 0): series, (1, 0): series})


def test_structure_actions_are_read_only():
    # u_pole_bound and the memoized identity terms are derived from the
    # actions at construction, so the table cannot change afterwards.
    S = d1_bridge(build_wd(1))
    with pytest.raises(TypeError):
        S.actions[(0, 0)] = ConeSeries.zero(1, "z")
    with pytest.raises(AttributeError):
        S.actions = {}
    assert S.action(0, 0) and S.u_pole_bound == 2


# ----------------------------------------------------------------------
# action extension
# ----------------------------------------------------------------------

def test_extend_action_on_generators():
    S = d1_bridge(build_wd(1))
    x = S.generator_element(0)
    assert extend_action(S, x, x).coeffs == S.action(0, 0).coeffs


def test_extend_action_first_slot_is_derivative():
    S = d1_bridge(build_wd(1))
    x = S.generator_element(0)
    tx = ModuleElement(S.vs, 1, {0: S.vs.var("T", 1)})
    assert extend_action(S, tx, x).coeffs == S.action(0, 0).diff(1).coeffs


def test_extend_action_second_slot_rule():
    S = d1_bridge(build_wd(1))
    x = S.generator_element(0)
    tx = ModuleElement(S.vs, 1, {0: S.vs.var("T", 1)})
    base = S.action(0, 0)
    expected = base.map_coeffs(lambda me: me.mul_T(1)) - base.diff(1)
    assert extend_action(S, x, tx).coeffs == expected.coeffs


def test_extend_action_operators_commute():
    S = d1_bridge(build_cur(LieStructure.sl2(), 1))
    # In D = 1 the commutation content is (T - d)(T - d) in a fixed order;
    # compare manual double application against the engine's T^2 handling.
    x = S.generator_element("e")
    y = ModuleElement(S.vs, 3, {2: S.vs.var("T", 1) ** 2})
    base = S.action(0, 2)
    once = base.map_coeffs(lambda me: me.mul_T(1)) - base.diff(1)
    twice = once.map_coeffs(lambda me: me.mul_T(1)) - once.diff(1)
    assert extend_action(S, x, y).coeffs == twice.coeffs


def test_extend_action_multi_dimensional_order():
    vs = pseudo_space(2)
    c = ModuleElement(vs, 1, {0: vs.one})
    S = VLAStructure(2, ("a",), {(0, 0): ConeSeries(2, "z", {(-1, 1, 1): c})})
    x = S.generator_element(0)
    y12 = ModuleElement(vs, 1, {0: vs.var("T", 1) * vs.var("T", 2)})
    base = S.action(0, 0)
    op1 = lambda s: s.map_coeffs(lambda me: me.mul_T(1)) - s.diff(1)
    op2 = lambda s: s.map_coeffs(lambda me: me.mul_T(2)) - s.diff(2)
    assert op1(op2(base)).coeffs == op2(op1(base)).coeffs == extend_action(S, x, y12).coeffs


# ----------------------------------------------------------------------
# skewsymmetry
# ----------------------------------------------------------------------

def test_skew_zero_action_passes():
    S = VLAStructure(1, ("a",), {})
    for window in (0, 3):
        assert skew_check_vla(S, window).passed


def test_skew_t_free_symmetric_window_zero():
    vs = pseudo_space(2)
    c = ModuleElement(vs, 1, {0: vs.const(3)})
    S = VLAStructure(2, ("a",), {(0, 0): ConeSeries(2, "z", {(-1, 0, 1): c})})
    assert skew_check_vla(S, 0).passed
    # at larger windows the T*c obstruction becomes visible
    assert not skew_check_vla(S, 2).passed


def test_skew_deep_violation_needs_a_deep_window():
    # The current-like singular pattern (2 + sum T_a z_a) L (z^2)^{-1} in
    # D = 2 satisfies skewsymmetry through second order but breaks at third;
    # small windows honestly report pass, a window >= 3 exposes the witness.
    S = _d2_fixture()
    assert all(skew_check_vla(S, w).passed for w in (0, 1, 2))
    report = skew_check_vla(S, 3)
    assert not report.passed
    assert "mode (-1, 3" in report.failures[0].label


def test_skew_rejects_a_negative_window():
    S = d1_bridge(_broken_skew_table())
    assert not skew_check_vla(S, 1).passed
    with pytest.raises(ValueError, match="window must be >= 0"):
        skew_check_vla(S, -1)


def test_apply_exp_zT_rejects_a_negative_zdeg():
    with pytest.raises(ValueError, match="zdeg must be >= 0"):
        apply_exp_zT(d1_bridge(build_wd(1)).action(0, 0), -1)


@pytest.mark.parametrize("zdeg", [True, False, 2.0])
def test_apply_exp_zT_refuses_a_bool_or_non_int_zdeg(zdeg):
    with pytest.raises(TypeError, match="zdeg must be an int"):
        apply_exp_zT(d1_bridge(build_wd(1)).action(0, 0), zdeg)


@pytest.mark.parametrize("L, window", [(True, 0), (2, False), (2.0, 0), (2, 1.0)])
def test_checks_refuse_a_bool_or_non_int_L_or_window(L, window):
    S = d1_bridge(build_wd(1))
    with pytest.raises(TypeError):
        jacobi_check_vla(S, L, window)
    with pytest.raises(TypeError):
        borcherds_check(S, L, Kernel.one(1), window)
    if type(L) is int:
        with pytest.raises(TypeError):
            skew_check_vla(S, window)


def test_skew_bridge_agrees_with_pseudo():
    # A window below P - 1, P the largest total pole degree -(2n + m) of the
    # actions, can be too small to expose a violation: the bridged
    # (T + 3 lam) L has P = 2 and passes at window 0.
    for table in (build_cur(LieStructure.sl2(), 1), build_wd(1), _broken_table(),
                  _broken_skew_table()):
        S = d1_bridge(table)
        P = max((-(2 * n + m) for s in S.actions.values() for n, m, _ in s.coeffs), default=0)
        expected = skew_check(table).passed
        for window in range(max(P - 1, 0), 7):
            assert skew_check_vla(S, window).passed == expected
    assert not skew_check(_broken_skew_table()).passed


def _exp_zT_oracle(series, zdeg):
    """e^{zT} applied term by term: each z-monomial z^e, with its factor
    T^e / e!, up to z-degree ``zdeg``; regular modes kept."""
    if not series.coeffs:
        return ConeSeries.zero(series.D, series.var)
    window = Window(series.min_hom() + zdeg)
    out = ConeSeries.zero(series.D, series.var, window)
    vs_z = VarSpace(series.D, (series.var,))
    vs_mod = next(iter(series.coeffs.values())).vs
    for total in range(zdeg + 1):
        for exps in vs_z.monomials_of_degree(series.var, total):
            factor = vs_mod.from_dense("T", {exps: Fraction(1, prod(map(factorial, exps)))})
            term = series.map_coeffs(lambda me, f=factor: me.scale(f))
            if total:
                term = term.mul_poly(vs_z.from_exps(series.var, exps))
            out = out + term.restrict(window)
    return out


def _mixed_series(D):
    """Singular and regular modes with T-dependent coefficients in dimension D >= 2."""
    vs = pseudo_space(D)
    el = lambda p: ModuleElement(vs, 2, {0: p, 1: 2 * vs.var("T", D) - Fraction(1, 3)})
    T1 = vs.var("T", 1)
    return ConeSeries(D, "z", {
        (-2, 0, 1): el(T1),
        (-1, 2, 1): el(vs.const(Fraction(5, 7)) - T1 * T1),
        (-1, 1, D): el(vs.one),
        (0, 1, 1): el(T1 * vs.var("T", D)),
        (1, 0, 1): el(vs.const(3)),
    })


def test_apply_exp_zT_is_the_singular_part_of_the_full_exponential():
    # The exponential forms only the singular modes: every z_a and T_a keeps
    # or raises n, so it equals the full term-by-term sum cut to n < 0, on the
    # same window.
    vs2 = pseudo_space(2)
    regular_only = ConeSeries(2, "z", {(0, 1, 2): ModuleElement(vs2, 1, {0: vs2.var("T", 1)})})
    sources = [S.action(j, i).parity_flip()
               for S in (d1_bridge(build_cur(LieStructure.sl2(), 1)), d1_bridge(build_wd(1)),
                         _d2_fixture(), _current_like_fixture(3))
               for i in range(S.r) for j in range(S.r)]
    sources += [_mixed_series(2), _mixed_series(3), regular_only,
                ConeSeries.zero(2, "z")]
    for series in sources:
        for zdeg in range(5):
            got = apply_exp_zT(series, zdeg)
            assert got == _exp_zT_oracle(series, zdeg).singular_part()
            assert all(n < 0 for (n, _, _) in got.coeffs)


def test_apply_exp_zT_stops_exactly_where_no_singular_mode_is_left():
    # D = 1: z^t times a pole of total degree -P is regular once t >= P, so
    # every z-degree from P - 1 on gives the same singular part.
    for S in (make() for make in _D1_BRIDGES.values()):
        for i in range(S.r):
            for j in range(S.r):
                series = S.action(j, i).parity_flip()
                first = max(-series.min_hom() - 1, 0)
                expected = apply_exp_zT(series, first).coeffs
                for zdeg in range(first + 1, first + 7):
                    assert apply_exp_zT(series, zdeg).coeffs == expected
    # D = 2: z_1 (x^2)^-1 h_m keeps a singular part at every m, so no term of
    # the exponential is empty.  From the lowest degree part of the source,
    # term t is all that lands at total degree low + t.
    action = _d2_fixture().action(0, 0).parity_flip()
    low = action.min_hom()
    series = ConeSeries(2, "z", {mode: c for mode, c in action.coeffs.items()
                                 if 2 * mode[0] + mode[1] == low})
    got = apply_exp_zT(series, 6)
    assert {2 * n + m for (n, m, _) in got.coeffs} == set(range(low, low + 7))


# ----------------------------------------------------------------------
# Jacobi and Borcherds
# ----------------------------------------------------------------------

def test_jacobi_zero_actions_pass():
    S = VLAStructure(2, ("a", "b"), {})
    report = jacobi_check_vla(S, 1, 3)
    assert report.passed and report.checked == 8


def test_jacobi_bridges_agree_with_pseudo():
    for table in (build_cur(LieStructure.sl2(), 1), build_wd(1), _broken_table()):
        S = d1_bridge(table)
        expected = jacobi_check(table).passed
        for window in (0, 2, 4, 6):
            assert jacobi_check_vla(S, 2, window).passed == expected


def test_jacobi_window_monotone_on_w1():
    S = d1_bridge(build_wd(1))
    verdicts = [jacobi_check_vla(S, 1, w).passed for w in range(7)]
    assert all(verdicts)


def test_jacobi_precondition_l_too_small():
    S = d1_bridge(build_wd(1))
    with pytest.raises(ValueError):
        jacobi_check_vla(S, 0, 4)


def test_borcherds_f1_matches_jacobi():
    for table in (build_cur(LieStructure.sl2(), 1), build_wd(1), _broken_table()):
        S = d1_bridge(table)
        for window in (0, 3, 6):
            jac = jacobi_check_vla(S, 2, window).passed
            bor = borcherds_check(S, 2, Kernel.one(1), window).passed
            assert jac == bor


def test_borcherds_zero_action_with_pole_kernel():
    S = VLAStructure(1, ("a",), {})
    report = borcherds_check(S, 1, Kernel(1, zw_pole=1), 4)
    assert report.passed


def test_borcherds_polynomial_kernels_pass_on_valid_structures():
    # With singular-only data the identity descends for polynomial F; kernels
    # with poles would need the regular field parts, which this data lacks.
    S = d1_bridge(build_cur(LieStructure.sl2(), 1))
    assert borcherds_check(S, 2, Kernel(1, z_exps=(1,)), 4).passed
    assert borcherds_check(S, 2, Kernel(1, w_exps=(2,)), 4).passed
    Sw = d1_bridge(build_wd(1))
    assert borcherds_check(Sw, 3, Kernel(1, z_exps=(1,)), 4).passed
    report = borcherds_check(S, 2, Kernel(1, zw_pole=1), 4)
    assert report.checked == 27


@pytest.mark.parametrize("F", [None, 1, "z1"])
def test_borcherds_refuses_a_kernel_that_is_not_a_kernel(F):
    S = d1_bridge(build_wd(1))
    with pytest.raises(TypeError, match=f"F must be a Kernel, got {F!r}"):
        borcherds_check(S, S.max_pole(), F, 2)
    assert not S._memo


def test_identity_reports_do_not_depend_on_L():
    # L only has to bound the pole order: the locality factor it stands for
    # cancels exactly, so every report is a function of (S, F, window).
    for S in (d1_bridge(build_wd(1)), d1_bridge(_broken_table()), _d2_fixture()):
        p = S.max_pole()
        for F in _kernels(S.D):
            for window in (0, 2):
                reports = set()
                for L in (p, p + 1, p + 2):
                    if F == Kernel.one(S.D):
                        r = jacobi_check_vla(S, L, window)
                    else:
                        r = borcherds_check(S, L, F, window)
                    reports.add((r.passed, r.failures, r.records))
                assert len(reports) == 1


def test_jacobi_d2_fixture_fails_with_witness():
    S = _d2_fixture()
    for window in (0, 2):
        report = jacobi_check_vla(S, 1, window)
        assert not report.passed
        for failure in report.failures:
            assert failure.label.startswith("(L,L,L)")
            assert failure.witness
        assert borcherds_check(S, 1, Kernel.one(2), window).failures == report.failures


def _virasoro_chiral_pair(c=2, extra=0):
    """The real form (A, B) = (L + Lbar, i(L - Lbar)) of the centreless
    Virasoro chiral pair in D = 2: L(z)L(w) ~ 2L/zeta^2 + d_zeta L/zeta in
    zeta = z1 + i z2, with L(z)Lbar(w) ~ 0, z^2 = zeta zetabar and
    d_zeta = (T1 - i T2)/2.  The modes use h_{2,1} = z1^2 - z2^2,
    h_{2,2} = z1 z2 and h_{1,sigma} = z_sigma.

    ``c`` replaces the leading 2 of S(A,A) and S(A,B): c = 3 is the real
    form of the D = 1 bracket (T + 3 lam) L, which is not Lie.  ``extra``
    adds extra * B at mode (-1, 1, 2) of S(A,B) = S(B,A).
    """
    vs = pseudo_space(2)
    T1, T2 = vs.var("T", 1), vs.var("T", 2)
    half = Fraction(1, 2)
    el = lambda a, b: ModuleElement(vs, 2, {0: a, 1: b})
    aa = ConeSeries(2, "z", {
        (-2, 2, 1): el(vs.const(c), vs.zero), (-2, 2, 2): el(vs.zero, vs.const(-2 * c)),
        (-1, 1, 1): el(T1 * half, -T2 * half), (-1, 1, 2): el(-T2 * half, -T1 * half)})
    ab = ConeSeries(2, "z", {
        (-2, 2, 1): el(vs.zero, vs.const(c)), (-2, 2, 2): el(vs.const(2 * c), vs.zero),
        (-1, 1, 1): el(T2 * half, T1 * half), (-1, 1, 2): el(T1 * half, -T2 * half + extra)})
    return VLAStructure(2, ("A", "B"), {(0, 0): aa, (0, 1): ab, (1, 0): ab, (1, 1): -aa})


_CHIRAL_KERNELS = (Kernel(2, z_exps=(1, 0)), Kernel(2, w_exps=(2, 0)))


def test_virasoro_chiral_pair_passes_jacobi_and_polynomial_borcherds():
    # The first valid nonzero D = 2 data: a D = 1 vertex Lie algebra in zeta
    # with its conjugate in zetabar.
    S = _virasoro_chiral_pair()
    for window in (0, 2):
        assert jacobi_check_vla(S, 2, window).passed
        for F in _CHIRAL_KERNELS:
            assert borcherds_check(S, 2, F, window).passed


def test_virasoro_chiral_pair_mutants_fail():
    c3, extra = _virasoro_chiral_pair(c=3), _virasoro_chiral_pair(extra=1)
    for window, extra_failures in ((0, 354), (2, 450)):
        assert len(jacobi_check_vla(c3, 2, window).failures) == 96
        assert len(jacobi_check_vla(extra, 2, window).failures) == extra_failures
    assert [len(borcherds_check(c3, 2, F, 0).failures) for F in _CHIRAL_KERNELS] == [192, 128]


def _checker_depth(S, window):
    """window + 2 * u_pole_bound + 2: the depth of the identity checkers in
    D >= 2, and in D = 1 at window 0 (the D = 1 depth at every window)."""
    t_degree = max(
        (p.total_degree() for series in S.actions.values()
         for el in series.coeffs.values() for p in el.coords.values()),
        default=0,
    )
    return window + 2 * (S.max_pole() + t_degree) + 2


def _summed(S, products):
    """The series of a list of (kernel, int form) products, summed as
    ``vla._residual`` sums them (``cone._int_sum_of_products``) and read as
    ``_residual_series`` reads a residual.  The products of
    ``vla._borcherds_rhs`` sum to minus the right-hand side, with the same
    windows."""
    return _series(S, cone._int_sum_of_products(S.D, products, (0, 0)))


def _residual_series(S, i, j, k, F, depth):
    """``vla._residual``, kept as int vectors over one denominator, read as the
    series ``_summed`` gives: each vector built into its module element."""
    return _series(S, vla._residual(S, i, j, k, F, depth))


def _series(S, form):
    """The series of an int form (den, {bi-mode: int vector}, windows)."""
    den, vectors, windows = form
    element = S.generator_element(0)
    return BiConeSeries._trusted(S.D, {key: element._from_int_view(den, vector)
                                       for key, vector in vectors.items()}, windows)


def test_borcherds_rhs_windows_are_honest():
    # A deeper expansion agrees with a shallower one on everything the
    # shallower one claims to know.
    for S in (d1_bridge(build_wd(1)), _d2_fixture()):
        for F in _kernels(S.D):
            for window in (0, 2):
                depth = _checker_depth(S, window)
                shallow = _summed(S, vla._borcherds_rhs(S, 0, 0, 0, F, depth))
                deep = _summed(S, vla._borcherds_rhs(S, 0, 0, 0, F, depth + 6))
                restricted = deep.restrict(shallow.windows)
                assert restricted.windows == shallow.windows
                assert restricted.coeffs == shallow.coeffs
                if F == Kernel.one(S.D):
                    assert all(w.degmax >= window + 2 for w in shallow.windows)


def test_identity_failures_need_a_window_reaching_the_singular_region():
    # The w window of the right-hand side loses the u-field poles; below
    # degree -1 it cannot see the singular region and the check refuses.
    for S in (d1_bridge(build_wd(1)), _d2_fixture()):
        F = Kernel.one(S.D)
        for depth, w_degmax in ((0, -3), (1, -2), (2, -1)):
            rhs = _summed(S, vla._borcherds_rhs(S, 0, 0, 0, F, depth))
            assert [w.degmax for w in rhs.windows] == [depth, w_degmax]
            if w_degmax < -1:
                with pytest.raises(TruncationError):
                    vla._residual(S, 0, 0, 0, F, depth)
                assert ("residual", 0, 0, 0, F) not in S._memo
            else:
                vla._residual(S, 0, 0, 0, F, depth)


_D1_BRIDGES = {
    "Cur(sl2)": lambda: d1_bridge(build_cur(LieStructure.sl2(), 1)),
    "W(1)": lambda: d1_bridge(build_wd(1)),
    "broken": lambda: d1_bridge(_broken_table()),
    "broken-skew": lambda: d1_bridge(_broken_skew_table()),
}


@pytest.mark.parametrize("name", list(_D1_BRIDGES))
def test_d1_residuals_do_not_depend_on_the_depth(name):
    # In D = 1 every mode has m <= 1, so n < 0 iff 2n + m <= -1: a residual
    # whose windows reach total degree -1 in both slots holds the whole
    # doubly singular region, and a deeper one holds nothing more.
    S = _D1_BRIDGES[name]()
    d0 = _checker_depth(S, 0)
    triples = [(i, j, k) for i in range(S.r) for j in range(S.r) for k in range(S.r)]
    for F in _golden_kernels(1).values():
        for i, j, k in triples:
            shallow = _residual_series(S, i, j, k, F, d0)
            assert _residual_series(S, i, j, k, F, d0 + 6).items() == shallow.items()


@pytest.mark.parametrize("name", list(_D1_BRIDGES))
def test_d1_identity_reports_do_not_depend_on_the_window(name):
    S = _D1_BRIDGES[name]()
    L = S.max_pole()
    for label, F in _golden_kernels(1).items():
        check = ((lambda w: jacobi_check_vla(S, L, w)) if label == "1"
                 else (lambda w, F=F: borcherds_check(S, L, F, w)))
        base = check(0)
        for window in (*range(1, 9), 200):
            report = check(window)
            assert report.detail == f"L={L}, window={window}"
            assert replace(report, detail=base.detail) == base, (label, window)


def test_d1_memo_does_not_grow_with_the_window():
    for make in _D1_BRIDGES.values():
        S = make()
        L = S.max_pole()
        F = _golden_kernels(1)["z1"]
        jacobi_check_vla(S, L, 0)
        borcherds_check(S, L, F, 0)
        keys = set(S._memo)
        for window in range(1, 7):
            jacobi_check_vla(S, L, window)
            borcherds_check(S, L, F, window)
        assert set(S._memo) == keys


_POLYNOMIAL_ORACLE_STRUCTURES = {
    **_D1_BRIDGES,
    "D=2 fixture": _d2_fixture,
    "current-like D=3": lambda: _current_like_fixture(3),
    "Virasoro chiral pair": _virasoro_chiral_pair,
}


@pytest.mark.parametrize("name, window, violations", [
    ("W(1)", 0, 0), ("Cur(sl2)", 0, 0), ("broken", 0, 6),
    ("Virasoro chiral pair", 4, 0), ("current-like D=3", 2, 2375),
])
def test_identity_builds_one_coefficient_per_violation(monkeypatch, name, window, violations):
    # Both sides of a residual are one signed integer sum, kept as int
    # vectors: no module coefficient is built, and each violation's
    # coefficient is written once, as text, straight from its vector.
    S = _POLYNOMIAL_ORACLE_STRUCTURES[name]()
    built, formatted = [], []
    from_int_view, format_int_view = ModuleElement._from_int_view, vla._format_int_view

    def counting_build(self, den, numerators):
        built.append(den)
        return from_int_view(self, den, numerators)

    def counting_format(den, numerators, names=None):
        formatted.append(den)
        return format_int_view(den, numerators, names)

    monkeypatch.setattr(ModuleElement, "_from_int_view", counting_build)
    monkeypatch.setattr(vla, "_format_int_view", counting_format)
    report = jacobi_check_vla(S, S.max_pole(), window)
    assert len(report.failures) == violations
    assert len(built) == 0
    assert len(formatted) == violations


@pytest.mark.parametrize("name", ["D=2 fixture", "Cur(sl2)"])
def test_identity_fields_are_converted_once_per_structure(monkeypatch, name):
    # The pair terms and u-fields are kept as int forms from the first check
    # on: a deeper Jacobi check, a (z-w) pole kernel and a polynomial kernel
    # on the same structure convert no module element again.
    S = _POLYNOMIAL_ORACLE_STRUCTURES[name]()
    D, L = S.D, S.max_pole()
    jacobi_check_vla(S, L, 0)
    views = []
    int_view = ModuleElement._int_view

    def counting(self):
        views.append(self)
        return int_view(self)

    monkeypatch.setattr(ModuleElement, "_int_view", counting)
    jacobi_check_vla(S, L, 2)
    borcherds_check(S, L, Kernel(D, zw_pole=1), 2)
    borcherds_check(S, L, Kernel(D, z_exps=(1,) + (0,) * (D - 1)), 2)
    assert views == []


@pytest.mark.parametrize("name", list(_POLYNOMIAL_ORACLE_STRUCTURES))
def test_polynomial_kernel_residual_is_the_direct_comparison(name):
    # A polynomial kernel's residual is F times the F = 1 residual; the direct
    # path expands both sides with F, and must agree with it coefficient for
    # coefficient and window for window.
    S = _POLYNOMIAL_ORACLE_STRUCTURES[name]()
    D = S.D
    e1, eD = (1,) + (0,) * (D - 1), (0,) * (D - 1) + (1,)
    kernels = (Kernel(D, z_exps=e1), Kernel(D, w_exps=(2,) + (0,) * (D - 1)),
               Kernel(D, z_exps=e1, w_exps=eD))
    triples = [(i, j, k) for i in range(S.r) for j in range(S.r) for k in range(S.r)]
    for window in (0, 2):
        depth = _checker_depth(S, window)
        for F in kernels:
            for i, j, k in triples:
                direct = _summed(S, vla._borcherds_lhs(S, i, j, k, F, depth)
                                 + vla._borcherds_rhs(S, i, j, k, F, depth))
                derived = _residual_series(S, i, j, k, F, depth)
                assert derived.windows == direct.windows, (F, window, (i, j, k))
                assert derived.items() == direct.items(), (F, window, (i, j, k))


@pytest.mark.parametrize("name", [*_D1_BRIDGES, "D=2 fixture"])
def test_polynomial_kernel_of_degree_above_the_depth_keeps_the_direct_windows(name):
    # The direct path expands each slot at least to the kernel's degree there,
    # so a kernel of degree 9 > depth widens that window past the F = 1 one.
    S = _POLYNOMIAL_ORACLE_STRUCTURES[name]()
    D, depth = S.D, _checker_depth(S, 0)
    assert depth < 9
    for F in (Kernel(D, z_exps=(9,) + (0,) * (D - 1)), Kernel(D, w_exps=(0,) * (D - 1) + (9,))):
        direct = _summed(S, vla._borcherds_lhs(S, 0, 0, 0, F, depth)
                         + vla._borcherds_rhs(S, 0, 0, 0, F, depth))
        derived = _residual_series(S, 0, 0, 0, F, depth)
        assert (derived.windows, derived.items()) == (direct.windows, direct.items()), F


def test_borcherds_refuses_a_kernel_too_large_to_decompose(monkeypatch):
    # D >= 2 has no closed-form Gauss decomposition: a kernel whose Laplacian
    # chains could reach more than MAX_KERNEL_TERMS monomials is refused, with
    # that count, before any cone table is built.
    def no_tables(*args):
        raise AssertionError("a Gauss table was built")

    huge = Kernel(2, z_exps=(99999999, 0))
    with monkeypatch.context() as patch:
        patch.setattr(cone, "_laplacian_chain", no_tables)
        with pytest.raises(ValueError, match="up to 2500000050000001 terms"):
            borcherds_check(_d2_fixture(), 1, huge, 0)
    # z1^2 z2 reaches 6 monomials and w^0 one: the limit is inclusive.
    F = Kernel(2, z_exps=(2, 1))
    monkeypatch.setattr(vla, "MAX_KERNEL_TERMS", 7)
    assert borcherds_check(_d2_fixture(), 1, F, 0).records == (("(L,L,L)", False),)
    monkeypatch.setattr(vla, "MAX_KERNEL_TERMS", 6)
    with pytest.raises(ValueError, match="up to 7 terms, above the limit of 6"):
        borcherds_check(_d2_fixture(), 1, F, 0)


def _random_d1_table(rng, skew):
    """A random D = 1 table on r = 1 or 2 generators: each coordinate of an
    entry has coefficients in [-3, 3] on some T^a lam^b with a + b <= 2.  With
    ``skew``, [b lam a] = -[a lam b] at lam -> -T - lam, and a diagonal entry
    is e - e(lam -> -T - lam)."""
    vs = pseudo_space(1)
    T, lam = vs.var("T", 1), vs.var("lam", 1)
    r = rng.choice((1, 2))
    flip = {("lam", 1): -T - lam}

    def entry():
        return LambdaPoly(vs, r, {k: sum(rng.randint(-3, 3) * T ** a * lam ** b
                                         for a in range(3) for b in range(3 - a)
                                         if rng.random() < 0.3)
                                  for k in range(r)})

    entries = {}
    for i in range(r):
        for j in range(i if skew else 0, r):
            e = entry()
            if not skew:
                entries[i, j] = e
            elif i < j:
                entries[i, j], entries[j, i] = e, -e.subst(flip)
            else:
                entries[i, i] = e - e.subst(flip)
    return BracketTable(1, ("a", "b")[:r], entries)


def test_d1_bridge_verdicts_match_pseudo_on_random_tables():
    # The two engines judge the same D = 1 table: skew at window P - 1 (P the
    # largest total pole degree of the actions) and Jacobi, per generator
    # tuple.  Both kinds of table and both verdicts must occur.
    rng = random.Random(2024)
    seen = set()
    for trial in range(60):
        table = _random_d1_table(rng, skew=trial % 2)
        S = d1_bridge(table)
        P = max((-(2 * n + m) for s in S.actions.values() for n, m, _ in s.coeffs), default=0)
        skew, jacobi = skew_check(table), jacobi_check(table)
        assert skew_check_vla(S, max(P - 1, 0)).records == skew.records, trial
        assert jacobi_check_vla(S, S.max_pole(), 0).records == jacobi.records, trial
        seen.add((trial % 2, skew.passed, jacobi.passed))
    assert {(0, False, False), (0, True, True), (1, True, False), (1, True, True)} <= seen


# ----------------------------------------------------------------------
# golden digests: verdicts, witnesses, records and windows cannot drift
# ----------------------------------------------------------------------

def _golden_kernels(D):
    e1 = (1,) + (0,) * (D - 1)
    return {
        "1": Kernel.one(D),
        "z1": Kernel(D, z_exps=e1),
        "w1^2": Kernel(D, w_exps=(2,) + (0,) * (D - 1)),
        "(z^2)^-1": Kernel(D, z_pole=1),
        "(w^2)^-1": Kernel(D, w_pole=1),
        "((z-w)^2)^-1": Kernel(D, zw_pole=1),
        "z1((z-w)^2)^-2": Kernel(D, z_exps=e1, zw_pole=2),
    }


_GOLDEN_STRUCTURES = {
    "Cur(sl2)": lambda: d1_bridge(build_cur(LieStructure.sl2(), 1)),
    "W(1)": lambda: d1_bridge(build_wd(1)),
    "broken": lambda: d1_bridge(_broken_table()),
    "D=2 fixture": _d2_fixture,
}


def _report_text(report):
    return repr((report.passed, report.failures, report.records, report.lines()))


def _windows_text(windows):
    """The windows in the two-field form ``Window(n_min=None, degmax=...)``
    that the digests below were recorded with."""
    return "(" + ", ".join(f"Window(n_min=None, degmax={w.degmax})" for w in windows) + ")"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of the report text at L = max pole (jacobi_check_vla for F = 1,
# borcherds_check otherwise) followed by _windows_text of the windows of the
# summed _borcherds_rhs(S, 0, 0, 0, F, depth) at the checker's depth, per
# (structure, F, window).
GOLDEN_IDENTITIES = {
    ("Cur(sl2)", "1", 0):
        "46a096466edf46c421baa871460252724ca7eedd4583f9d47d5df39a7cd7b7c5",
    ("Cur(sl2)", "1", 2):
        "c6795a485a53dabb6754c1bec0886c0444bc0463cd8b20bf3f73d34d250208a4",
    ("Cur(sl2)", "z1", 0):
        "b7fa828b79c6a3279a5b9ba1845be94c80772681b0e5003ed17510b461666612",
    ("Cur(sl2)", "z1", 2):
        "a6e445c37300bb5602048af90eb55313cf34a194fc45acd3992c8cfcc5ebcbfc",
    ("Cur(sl2)", "w1^2", 0):
        "b7fa828b79c6a3279a5b9ba1845be94c80772681b0e5003ed17510b461666612",
    ("Cur(sl2)", "w1^2", 2):
        "a6e445c37300bb5602048af90eb55313cf34a194fc45acd3992c8cfcc5ebcbfc",
    ("Cur(sl2)", "(z^2)^-1", 0):
        "5828b53379fe5addbeac0673938467a7de1ac5f9efcefa25de53d6a371b32504",
    ("Cur(sl2)", "(z^2)^-1", 2):
        "f2e1cfb70894ac9fcbfaa2db152d2a2885b4cea23aaa913bf708192c6e3b08ca",
    ("Cur(sl2)", "(w^2)^-1", 0):
        "b28205dbcc8b312608ccbb1cf381b50d0cf22ca0419c0b162a839c66049756d1",
    ("Cur(sl2)", "(w^2)^-1", 2):
        "945baf5f5dbf602f3455ab0a37a07cdd21b59ae8d534c53f7be87c2ba02f3484",
    ("Cur(sl2)", "((z-w)^2)^-1", 0):
        "a199e800431e6bcfca861f4e9528695542f8c43a83cbab31ee203f6b846972a6",
    ("Cur(sl2)", "((z-w)^2)^-1", 2):
        "9ca8567a2b5363c3eb27f5be8f80d663b9924eb6f08be259e362d6f47747a7a2",
    ("Cur(sl2)", "z1((z-w)^2)^-2", 0):
        "00a7e653b008888bdd0ba4c6f1bbf441582dc986e5d9bab66f4395dac289f212",
    ("Cur(sl2)", "z1((z-w)^2)^-2", 2):
        "7fdf07d6913ce21eff06012af81c68f6bedb7dcc9a8721912a1989ba4b12876e",
    ("W(1)", "1", 0):
        "28f01f873d6c595757255b3e154f290550d2d223bfa6cfba8fcddd81932d9af5",
    ("W(1)", "1", 2):
        "2b16ac1698f818986bbb2d8342ad18b2cbbbfe3f37403f328e0b6ca6dd2c8e47",
    ("W(1)", "z1", 0):
        "59090eca975d39d7901d8f60479c56db3e1d088336e1b0de996b4d1ad74851af",
    ("W(1)", "z1", 2):
        "0eeae70bdf4f57c8415503b66ecf4c71990554803aa4d0e2cb4ed0a968783f03",
    ("W(1)", "w1^2", 0):
        "59090eca975d39d7901d8f60479c56db3e1d088336e1b0de996b4d1ad74851af",
    ("W(1)", "w1^2", 2):
        "0eeae70bdf4f57c8415503b66ecf4c71990554803aa4d0e2cb4ed0a968783f03",
    ("W(1)", "(z^2)^-1", 0):
        "0a008425d6e5cdb016beb399ea4568f48cd47506fde86633c08bc5451c56d9c4",
    ("W(1)", "(z^2)^-1", 2):
        "61f63375b45d850206818fe442ede149708344f088655f26ccdc2da4c61448b7",
    ("W(1)", "(w^2)^-1", 0):
        "fce0397f57da4825f1621b5b7b57083be8728980c91b0e1c691cd6ed5f654f74",
    ("W(1)", "(w^2)^-1", 2):
        "8450c8bd5ebf95612dae3e9c543739c64c6f467330b1a7304de87085058d55f6",
    ("W(1)", "((z-w)^2)^-1", 0):
        "ab7b69f1eae4f18aa289489d6202039516c7c5f090e3bbf365d87e5ddfa178bc",
    ("W(1)", "((z-w)^2)^-1", 2):
        "b332f87fbda5dc47b99dc189c9135781b96b4dbbe66e1eec4e3db210f5cf5f99",
    ("W(1)", "z1((z-w)^2)^-2", 0):
        "550926d0ca0267b0ed84ef07a521590f629b320d81c6a7a0608d44fa738a632b",
    ("W(1)", "z1((z-w)^2)^-2", 2):
        "81fe0a44981b673819a32a95d5f795d045da7bf01d3fa7de397ecf35ffae977e",
    ("broken", "1", 0):
        "afbd1638deb494c3df2064f08bf238be2d0ad07242876964d773c54b02311c19",
    ("broken", "1", 2):
        "b8ec00b2816bbb53d3040b177b90e05bf284af6ea4324a37ebcf8b1494af498d",
    ("broken", "z1", 0):
        "b7fa828b79c6a3279a5b9ba1845be94c80772681b0e5003ed17510b461666612",
    ("broken", "z1", 2):
        "a6e445c37300bb5602048af90eb55313cf34a194fc45acd3992c8cfcc5ebcbfc",
    ("broken", "w1^2", 0):
        "b7fa828b79c6a3279a5b9ba1845be94c80772681b0e5003ed17510b461666612",
    ("broken", "w1^2", 2):
        "a6e445c37300bb5602048af90eb55313cf34a194fc45acd3992c8cfcc5ebcbfc",
    ("broken", "(z^2)^-1", 0):
        "b76116e0e4f46f848f90f66747b51ce9e625eec1b6795c072630f748be80453e",
    ("broken", "(z^2)^-1", 2):
        "edee06dce8f8f39bcc42db2c7176cf549f6a0563cacf8d095af3d9af14c29984",
    ("broken", "(w^2)^-1", 0):
        "9399cceea10dd1bb3977ee84d6f769e40e728e91dff557c09efce6ff7000ffc4",
    ("broken", "(w^2)^-1", 2):
        "d381165170dd0ac4a2fa84680193f7191875cae72bfdfb8e1676992ab11161e5",
    ("broken", "((z-w)^2)^-1", 0):
        "1580c373cb41556d7d2584c597f46a9afe12b05ef073ff5b45eb96f9d41e290a",
    ("broken", "((z-w)^2)^-1", 2):
        "9c074e3868e64d2da1d4dc64c525da51931aa404f7175477431655e5fefcab49",
    ("broken", "z1((z-w)^2)^-2", 0):
        "819cb8b3b197db29de2f1c613025ccc12e97ced61673dd80e3938453abf89ef4",
    ("broken", "z1((z-w)^2)^-2", 2):
        "ae2f7d417d5047c57501307619f8bd08546a02d9d1673c7f384525d79c21403b",
    ("D=2 fixture", "1", 0):
        "4d41213ffee385800bf1008e57439e4d2faf395ca2165484a10b44e70607c1ce",
    ("D=2 fixture", "1", 2):
        "d76bd76e10df03c0dbef7c7cc6e109e0787401a8b2e691d05419de29962193f7",
    ("D=2 fixture", "z1", 0):
        "ebed5f565bfe7db362f0db0af5f3939402d66d9d41cfd838fb30049f72b259ff",
    ("D=2 fixture", "z1", 2):
        "46acef82882db9ea9b2419ef3f7b0dc46f61173bb66ddbfd9aa235e1227f80a1",
    ("D=2 fixture", "w1^2", 0):
        "6181116c7bc4e1c0c0ddde98dd1424a55ad050c0c668f5b4587a6b610c84eaf8",
    ("D=2 fixture", "w1^2", 2):
        "a0e79a80c71fc066b2262f25b8a986e1153312b67ab02d4f3f16e187e11342cb",
    ("D=2 fixture", "(z^2)^-1", 0):
        "33534cee87e8b259b6577976c011ebd70ca2a01cdff60d9c9e4eb4db1210fdf5",
    ("D=2 fixture", "(z^2)^-1", 2):
        "f397770e16bbec64f0d3ed438d58178de0ec4c0ff42e3d05d17b6d15b7c8d2ee",
    ("D=2 fixture", "(w^2)^-1", 0):
        "9913d953f1b1fd77f80dcbd616bc2b3d385e99a11be430b56dba47ad41063942",
    ("D=2 fixture", "(w^2)^-1", 2):
        "d599265315d20331b9ad47462c54c0fb54905786b84c570bc649113b06ba82da",
    ("D=2 fixture", "((z-w)^2)^-1", 0):
        "7c7f10c35f5e4388abfad06fdf66947199cf940c7c5fd3f6f26a31d8cf6bc7b9",
    ("D=2 fixture", "((z-w)^2)^-1", 2):
        "913984e5aacf605c97e666ca738ab5feabe5972f0baa2b10c0540cde3df5c8ab",
    ("D=2 fixture", "z1((z-w)^2)^-2", 0):
        "c7555f6e7c64fe2b1ce91f9bf3bf8f51744f5d69c8f5dcd916176124a1eb9280",
    ("D=2 fixture", "z1((z-w)^2)^-2", 2):
        "157fded300f20906c87aafa3ac801558e0c4dad51a097d6bbf6f448f28019958",
}


def _golden_identity_digest(S, case):
    _, label, window = case
    F = _golden_kernels(S.D)[label]
    L = S.max_pole()
    if label == "1":
        report = jacobi_check_vla(S, L, window)
    else:
        report = borcherds_check(S, L, F, window)
    rhs = _summed(S, vla._borcherds_rhs(S, 0, 0, 0, F, _checker_depth(S, window)))
    return _sha256(_report_text(report) + _windows_text(rhs.windows))


@pytest.mark.parametrize("case", list(GOLDEN_IDENTITIES), ids=lambda case: "-".join(map(str, case)))
def test_identity_golden_digest(case):
    S = _GOLDEN_STRUCTURES[case[0]]()
    assert _golden_identity_digest(S, case) == GOLDEN_IDENTITIES[case]


@pytest.mark.parametrize("name", list(_GOLDEN_STRUCTURES))
def test_identity_golden_digest_on_one_structure(name):
    # A structure keeps the terms its checks form; run every case on one
    # structure, both ways round, so each check reads terms formed by
    # checks at other kernels and windows.
    S = _GOLDEN_STRUCTURES[name]()
    cases = [case for case in GOLDEN_IDENTITIES if case[0] == name]
    for case in cases + cases[::-1]:
        assert _golden_identity_digest(S, case) == GOLDEN_IDENTITIES[case], case
    # The depth does not involve L: Jacobi at two L shares every term, and
    # the reports differ only in the L of their headers.
    p = S.max_pole()
    low, high = jacobi_check_vla(S, p, 2), jacobi_check_vla(S, p + 1, 2)
    assert (low.detail, high.detail) == (f"L={p}, window=2", f"L={p + 1}, window=2")
    assert replace(low, detail=high.detail) == high


# (structure, window orders): ascending, descending and shuffled sweeps.
_SWEEPS = {
    "D=2 fixture": (_d2_fixture, ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3])),
    "current-like D=3": (lambda: _current_like_fixture(3), ([0, 1, 2], [2, 1, 0], [1, 0, 2])),
}


def _sweep_reports(S, windows):
    F = _golden_kernels(S.D)["z1"]
    return [(window, _report_text(jacobi_check_vla(S, 1, window)),
             _report_text(skew_check_vla(S, window)),
             _report_text(borcherds_check(S, 1, F, window))) for window in windows]


@pytest.mark.parametrize("name", list(_SWEEPS))
def test_window_sweeps_in_any_order_match_fresh_structures(name):
    # A structure keeps the deepest skew difference and residual it formed and
    # restricts them to shallower windows: a sweep in any order reports what
    # fresh structures do, and keeps one residual per triple and kernel, at
    # the deepest depth.
    make, orders = _SWEEPS[name]
    fresh = {window: _sweep_reports(make(), [window])[0] for window in orders[0]}
    for order in orders:
        S = make()
        assert _sweep_reports(S, order) == [fresh[window] for window in order], order
        residuals = {key: entry for key, entry in S._memo.items() if key[0] == "residual"}
        assert set(residuals) == {("residual", 0, 0, 0, F) for F in
                                  (Kernel.one(S.D), _golden_kernels(S.D)["z1"])}
        assert {depth for depth, _ in residuals.values()} == {_checker_depth(S, max(order))}


_SKEW_STRUCTURES = {
    "Cur(sl2)": lambda: d1_bridge(build_cur(LieStructure.sl2(), 1)),
    "W(1)": lambda: d1_bridge(build_wd(1)),
    "broken-skew W(1)": lambda: d1_bridge(_broken_skew_table(Fraction(-716483, 281743))),
    "broken-Jacobi sl2": lambda: d1_bridge(
        _broken_table(Fraction(90217, 4413), Fraction(-55021, 708893), Fraction(3, 999983))),
    # _d2_fixture is _current_like_fixture(2).
    "D=2 fixture": _d2_fixture,
    "current-like D=3": lambda: _current_like_fixture(3),
}

# sha256 of the concatenated skew_check_vla report texts at windows 0..6.
GOLDEN_SKEW = {
    "Cur(sl2)":
        "a758f208ea45131cf0ee869aa5b8b22f7671a4a55b9dbfc873f9c36c3bf21dfe",
    "W(1)":
        "f83f5c0da3135d3b466c043629c136f05c90e177d2db8abb4c91ad6fde57bd23",
    "broken-skew W(1)":
        "51a373c616890ea90a67916121769e685fdb14a6a3bf2037369403ec393273a5",
    "broken-Jacobi sl2":
        "a758f208ea45131cf0ee869aa5b8b22f7671a4a55b9dbfc873f9c36c3bf21dfe",
    "D=2 fixture":
        "3a6049375c91a0fd662233fcb0a82175c13c8b60964d8423980cb8d3e01fb128",
    "current-like D=3":
        "b3fcb89d863209cf16fadf08fd56dc5e49b3878c2cdb18ba62397d554e858f1a",
}


@pytest.mark.parametrize("name", list(GOLDEN_SKEW))
def test_skew_golden_digest(name):
    S = _SKEW_STRUCTURES[name]()
    text = "".join(_report_text(skew_check_vla(S, window)) for window in range(7))
    assert _sha256(text) == GOLDEN_SKEW[name]


def test_jacobi_d3_fixture_fails_with_golden_witnesses():
    report = jacobi_check_vla(_current_like_fixture(3), 1, 2)
    assert {f.label.split(" modes ")[0] for f in report.failures} == {"(L,L,L)"}
    assert len(report.failures) == 2375
    assert all(f.witness for f in report.failures)
    assert _sha256(_report_text(report)) == (
        "09f2ba4bd3a51e2236fa7ece719b027303ef64fbadd016b53d23c1f902ab9f79"
    )


def _scaled(S, factor):
    """S with every action coefficient multiplied by ``factor``."""
    return VLAStructure(S.D, S.generators,
                        {key: series.scale(factor) for key, series in S.actions.items()})


# The golden digests above use integral data; these pin the identity reports
# on data with wide denominators, where the integer product kernels clear
# and rebuild every coefficient.
_FRACTION_STRUCTURES = {
    "D=2 fixture * -716483/281743": lambda: _scaled(_d2_fixture(), Fraction(-716483, 281743)),
    "broken-Jacobi sl2": _SKEW_STRUCTURES["broken-Jacobi sl2"],
}

# sha256 of the report text at L = max pole (jacobi_check_vla for F = 1,
# borcherds_check otherwise), per (structure, F, window); recorded with the
# Fraction product loop that the integer kernels replaced.
GOLDEN_FRACTION_IDENTITIES = {
    ("D=2 fixture * -716483/281743", "1", 0):
        "60d667a6af11f1ab6d732662ddba54ab44e7c248a8d80c7ba83cb75980d74ad4",
    ("D=2 fixture * -716483/281743", "1", 2):
        "1f321f0765d3875e6c063c1a453b77c452926ad84e910be922769fe7f701d9fc",
    ("D=2 fixture * -716483/281743", "z1", 0):
        "b9559b52b9f461eecddc6b35dc77152f8934616d8125cf7cefb02f77b6a61abb",
    ("D=2 fixture * -716483/281743", "z1", 2):
        "3566828ff6b5fe641495b8f820879fa16e990257f4a01f6df9172a47f5a5124d",
    ("D=2 fixture * -716483/281743", "w1^2", 0):
        "55ed2cff32a6a72154152298d59fa4eb74fcc860a341ab8d75d708edb68303fb",
    ("D=2 fixture * -716483/281743", "w1^2", 2):
        "8cd7cc71d4549df7aa1c5a1c3b71d85e0ed245e008280ffcfe545a5a64d68c5a",
    ("D=2 fixture * -716483/281743", "((z-w)^2)^-1", 0):
        "dd584f1dbb76e2746a00bafa1dcdef397aec89992a89488211066207007e4c3f",
    ("D=2 fixture * -716483/281743", "((z-w)^2)^-1", 2):
        "c0f8755ac1a79a2b163232530d106164d176487b3ea46d861fc7698ac6a95c33",
    ("broken-Jacobi sl2", "1", 0):
        "941cb921e7a827d5d57e784c249860c627397e8a6b8e205f75e71202f57cfc21",
    ("broken-Jacobi sl2", "1", 2):
        "bcf5f72bc7e7661ab0f926de682f5f1c6fc955a7bbe672317af4fd6a11a55271",
    ("broken-Jacobi sl2", "z1", 0):
        "49359a6cf0e0298d2c0e1c3cb76e86c0d0ba7309e34f3143b45ffd1f79b19ed2",
    ("broken-Jacobi sl2", "z1", 2):
        "2ad3fda3ff3096bcd789a198d08e17ad0d62f1d10482c115141057cc78f94261",
    ("broken-Jacobi sl2", "w1^2", 0):
        "49359a6cf0e0298d2c0e1c3cb76e86c0d0ba7309e34f3143b45ffd1f79b19ed2",
    ("broken-Jacobi sl2", "w1^2", 2):
        "2ad3fda3ff3096bcd789a198d08e17ad0d62f1d10482c115141057cc78f94261",
    ("broken-Jacobi sl2", "((z-w)^2)^-1", 0):
        "65e1684cf08a697f7f4a4440f62c3f61d947d05769ca19ce1e03cb8c996c16ec",
    ("broken-Jacobi sl2", "((z-w)^2)^-1", 2):
        "29a78816f069e16abf44f21f09941824fd333e68726cd85db4b039169e6f4d73",
}


@pytest.mark.parametrize("case", list(GOLDEN_FRACTION_IDENTITIES),
                         ids=lambda case: "-".join(map(str, case)))
def test_identity_golden_digest_on_fraction_data(case):
    name, label, window = case
    S = _FRACTION_STRUCTURES[name]()
    L = S.max_pole()
    if label == "1":
        report = jacobi_check_vla(S, L, window)
    else:
        report = borcherds_check(S, L, _golden_kernels(S.D)[label], window)
    assert _sha256(_report_text(report)) == GOLDEN_FRACTION_IDENTITIES[case]
