"""Vertex Lie structures: action extension, skew/Jacobi/Borcherds checkers,
and the D = 1 bridge that lets the pseudoalgebra engine cross-examine them."""

from __future__ import annotations


import pytest

from lambdacone import vla
from lambdacone import (
    BracketTable,
    ConeSeries,
    Kernel,
    LambdaPoly,
    LieStructure,
    ModuleElement,
    VLAStructure,
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


def _broken_table():
    """Antisymmetric constants violating the Lie Jacobi identity."""
    vs = pseudo_space(1)
    entries = {
        (0, 1): LambdaPoly(vs, 3, {0: vs.one}),
        (1, 0): LambdaPoly(vs, 3, {0: -vs.one}),
        (0, 2): LambdaPoly(vs, 3, {1: vs.one}),
        (2, 0): LambdaPoly(vs, 3, {1: -vs.one}),
        (1, 2): LambdaPoly(vs, 3, {2: -vs.one}),
        (2, 1): LambdaPoly(vs, 3, {2: vs.one}),
    }
    return BracketTable(1, ("e", "h", "f"), entries)


def _d2_fixture():
    """The current-like D = 2 action (2 + T1 z1 + T2 z2) L (z^2)^{-1}."""
    vs = pseudo_space(2)
    el = lambda p: ModuleElement(vs, 1, {0: p})
    action = ConeSeries(2, "z", {
        (-1, 0, 1): el(vs.const(2)),
        (-1, 1, 1): el(vs.var("T", 1)),
        (-1, 1, 2): el(vs.var("T", 2)),
    })
    return VLAStructure(2, ("L",), {(0, 0): action})


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


def test_skew_bridge_agrees_with_pseudo():
    for table in (build_cur(LieStructure.sl2(), 1), build_wd(1), _broken_table()):
        S = d1_bridge(table)
        expected = skew_check(table).passed
        for window in range(7):
            got = skew_check_vla(S, window).passed
            if window == 0 and not expected:
                # a window can be too small to expose a violation
                continue
            assert got == expected


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


def _checker_depth(S, window):
    """The depth the identity checkers derive: window + 2 * u_pole_bound + 2."""
    t_degree = max(
        (p.total_degree() for series in S.actions.values()
         for el in series.coeffs.values() for p in el.coords.values()),
        default=0,
    )
    return window + 2 * (S.max_pole() + t_degree) + 2


def test_borcherds_rhs_windows_are_honest():
    # A deeper expansion agrees with a shallower one on everything the
    # shallower one claims to know.
    for S in (d1_bridge(build_wd(1)), _d2_fixture()):
        for F in _kernels(S.D):
            for window in (0, 2):
                depth = _checker_depth(S, window)
                shallow = vla._borcherds_rhs(S, 0, 0, 0, F, depth)
                deep = vla._borcherds_rhs(S, 0, 0, 0, F, depth + 6)
                restricted = deep.restrict(shallow.windows)
                assert restricted.windows == shallow.windows
                assert restricted.coeffs == shallow.coeffs
                if F == Kernel.one(S.D):
                    assert all(w.degmax >= window + 2 for w in shallow.windows)
