"""Window bookkeeping and refusal behavior of the mode-series layer."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lambdacone import (
    BiConeSeries,
    ConeSeries,
    Kernel,
    ModuleElement,
    TruncationError,
    VarSpace,
    VLAStructure,
    Window,
    WorkspaceError,
    bicone_from_poly,
    iota_expand,
    iota_kernel,
    pseudo_space,
)
from lambdacone import cone
from lambdacone.cone import FULL_WINDOW


def test_window_contains_and_shift():
    w = Window(3)
    assert w.contains(-5, 1)           # deep modes are known
    assert w.contains(1, 1)            # degree 3 boundary
    assert not w.contains(1, 2)        # degree 4 is unknown
    assert w.shift(4) == Window(7)


def test_window_intersect():
    assert Window(5).intersect(Window(2)) == Window(2)
    assert Window(5).intersect(FULL_WINDOW) == Window(5)
    assert FULL_WINDOW.intersect(Window(5)) == Window(5)
    assert FULL_WINDOW.shift(-3) == FULL_WINDOW


def test_constructor_drops_outside_window():
    series = ConeSeries(2, "z", {(0, 0, 1): Fraction(1), (2, 1, 1): Fraction(1)},
                        Window(2))
    assert series.coeffs == {(0, 0, 1): 1}


def test_residue_and_wick_truncation_errors():
    deep = ConeSeries(2, "z", {}, Window(-4))
    with pytest.raises(TruncationError):
        deep.residue()  # mode (-1, 0, 1) has degree -2 > -4
    with pytest.raises(TruncationError):
        deep.wick()


def test_bi_get_respects_box():
    series = iota_expand(1, 1, "zw", 3)
    assert series.get((-1, 0, 1), (0, 0, 1)) == 1
    with pytest.raises(TruncationError):
        series.get((-3, 0, 1), (2, 0, 1))  # w degree 4 beyond window 3


def test_add_intersects_windows():
    a = ConeSeries(1, "z", {(0, 0, 1): Fraction(1)}, Window(4))
    b = ConeSeries(1, "z", {(1, 0, 1): Fraction(2)}, Window(2))
    total = a + b
    assert total.window == Window(2)
    assert total.coeffs == {(0, 0, 1): 1, (1, 0, 1): 2}


_NOT_INT_MODES = {
    "float n": (lambda: ConeSeries(2, "z", {(0.5, 0, 1): 1}), TypeError, "n must be an int"),
    "float m": (lambda: ConeSeries(2, "z", {(0, 1.0, 1): 1}), TypeError, "m must be an int"),
    "float sigma": (lambda: ConeSeries(2, "z", {(0, 1, 1.0): 1}), TypeError,
                    "sigma must be an int"),
    "bool n and sigma": (lambda: ConeSeries(2, "z", {(True, 1, True): 1}), TypeError,
                         "n must be an int"),
    "2-tuple": (lambda: ConeSeries(2, "z", {(0, 1): 1}), ValueError, "3-tuple"),
    "2-tuple get": (lambda: ConeSeries(2, "z", {}).get((0, 0)), ValueError, "3-tuple"),
    "float get": (lambda: ConeSeries(2, "z", {}).get((0.0, 0, 1)), TypeError, "n must be an int"),
    "bi float n": (lambda: BiConeSeries(2, {((0.5, 0, 1), (0, 0, 1)): 1}), TypeError,
                   "n must be an int"),
    "bi float sigma": (lambda: BiConeSeries(2, {((0, 0, 1), (0, 0, 1.0)): 1}), TypeError,
                       "sigma must be an int"),
    "vla action": (lambda: VLAStructure(2, ("L",), {(0, 0): ConeSeries(
        2, "z", {(-1.5, 1, 1): ModuleElement(pseudo_space(2), 1, {0: pseudo_space(2).one})})}),
        TypeError, "n must be an int"),
    "float x^2 power": (lambda: ConeSeries(2, "z", {(0, 0, 1): 1}).mul_x2(0.5), TypeError,
                        "k must be an int"),
}


@pytest.mark.parametrize("case", list(_NOT_INT_MODES))
def test_mode_indices_must_be_ints(case):
    # A float or bool index is no mode: a series holding (0.5, 0, 1) would
    # carry it into products and pole bounds.
    make, error, match = _NOT_INT_MODES[case]
    with pytest.raises(error, match=match):
        make()


def test_one_and_two_variable_series_do_not_add():
    one = ConeSeries(1, "z", {(0, 0, 1): 1})
    two = BiConeSeries(1, {((0, 0, 1), (0, 0, 1)): 1})
    with pytest.raises(WorkspaceError, match="series mismatch"):
        one + two
    with pytest.raises(WorkspaceError, match="series mismatch"):
        two + one


def test_negation_scale_and_difference_keep_the_windows():
    # Negation and scaling keep the windows, a difference meets them slot by
    # slot, and equal coefficients on different windows make different
    # series, the zero series included.
    one = ConeSeries(1, "z", {(0, 0, 1): 1}, Window(4))
    two = BiConeSeries(1, {((0, 0, 1), (0, 0, 1)): 1}, (Window(4), FULL_WINDOW))
    for series, narrower in ((one, Window(2)), (two, (FULL_WINDOW, Window(3)))):
        narrow = series.restrict(narrower)
        assert narrow.coeffs == series.coeffs and narrow != series
        assert (-series).scale(-1) == series == series.scale(3) - series.scale(2)
        assert series - narrow == narrow - series == narrow.scale(0) != series.scale(0)


def test_iota_kernel_single_variable_poles_exact():
    # w1^2 / z^2 has no (z-w) pole: the expansion is exact, and w1^2 splits
    # into its trace part and the harmonic w1^2 - w2^2.
    series = iota_kernel(Kernel(2, w_exps=(2, 0), z_pole=1), "zw", 4)
    assert series.get((-1, 0, 1), (1, 0, 1)) == Fraction(1, 2)
    assert series.get((-1, 0, 1), (0, 2, 1)) == Fraction(1, 2)
    assert all(w.is_full for w in series.windows)


def test_iota_window_negative_rejected():
    with pytest.raises(ValueError, match="window must be >= 0"):
        iota_expand(1, 1, "zw", -1)
    with pytest.raises(ValueError, match="window must be >= 0"):
        iota_expand(2, 1, "zw", -1, (0, 0))


def test_mul_series_requires_exact_factor():
    windowed = iota_expand(1, 1, "zw", 3)
    with pytest.raises(TruncationError):
        windowed.mul_series(windowed)


def test_one_exact_factor_lets_the_other_be_windowed():
    # An exactly known factor times a windowed one is known to the windowed
    # factor's windows raised by the exact factor's least degrees, and a
    # deeper expansion of the windowed factor agrees there.
    for D in (1, 2, 3):
        vs = VarSpace(D, ("z", "w"))
        z1, w1 = vs.var("z", 1), vs.var("w", 1)
        for poly, degrees in ((z1 * w1, (1, 1)), (w1 ** 2, (0, 2)), (vs.one, (0, 0))):
            exact = bicone_from_poly(poly)
            for k, side, window in ((1, "zw", 3), (2, "wz", 2), (1, "wz", 4)):
                windowed = iota_expand(D, k, side, window)
                for bound in (None, (0, 0), (1, 2)):
                    shallow = exact.mul_series(windowed, bound)
                    deep = exact.mul_series(iota_expand(D, k, side, window + 8), bound)
                    assert shallow.windows == tuple(
                        w.shift(c) for w, c in zip(windowed.windows, degrees))
                    assert deep.restrict(shallow.windows) == shallow, (D, poly, k, side, bound)
                    assert shallow or bound == (0, 0)


def test_tensor_and_scale():
    a = ConeSeries(1, "z", {(-1, 0, 1): Fraction(2)})
    b = ConeSeries(1, "w", {(0, 1, 1): Fraction(3)})
    t = BiConeSeries(1, {(ma, mb): ca * cb for ma, ca in a.coeffs.items()
                         for mb, cb in b.coeffs.items()}, (a.window, b.window))
    assert t.coeffs == {((-1, 0, 1), (0, 1, 1)): 6}
    assert t.scale(Fraction(1, 2)).coeffs == {((-1, 0, 1), (0, 1, 1)): 3}
    for series in (a, t):
        with pytest.raises(TypeError, match="float"):
            series.scale(0.5)


def test_bounded_products_are_the_filtered_products():
    # Products only raise n, so a bound prunes terms without changing any
    # coefficient below it or any window.
    vs = VarSpace(2, ("z", "w"))
    kernel = iota_expand(2, 1, "zw", 4)
    poly = (vs.var("z", 1) - vs.var("w", 2)) ** 2 + vs.var("w", 1)
    exact = BiConeSeries(2, {
        ((-1, 0, 1), (-2, 1, 2)): Fraction(3),
        ((0, 2, 1), (-1, 0, 1)): Fraction(-1, 2),
        ((0, 0, 1), (-1, 3, 2)): Fraction(5),
    })
    kept = []
    for bound in ((0, 1), (-2, 1), (1, -1), (-3, 0)):
        for other in (bicone_from_poly(poly), exact):
            full, bounded = kernel.mul_series(other), kernel.mul_series(other, bound)
            assert bounded.windows == full.windows
            assert bounded.coeffs == {key: c for key, c in full.coeffs.items()
                                      if key[0][0] < bound[0] and key[1][0] < bound[1]}
            kept.append(len(bounded.coeffs))
    assert 0 in kept and any(kept)


def test_products_outside_the_windows_read_no_table(monkeypatch):
    # A product mode's total degree in each slot is deg_left + deg_right, so
    # a (left key, right key) pair above the result windows forms nothing:
    # the right key of degree 3 in z against a window-0 left factor, and the
    # one of degree 2 in w against a window -1, read no _times_harm table.
    left_keys = {((-1, 0, 1), (-1, 1, 1)): 3, ((-1, 1, 2), (-2, 2, 1)): Fraction(1, 2)}
    right = BiConeSeries(2, {((0, 0, 1), (0, 0, 1)): 1, ((0, 3, 1), (0, 0, 1)): 2,
                             ((0, 0, 1), (0, 2, 2)): Fraction(-1, 3)})
    windowed = BiConeSeries(2, left_keys, (Window(0), Window(-1)))
    read = set()
    times_harm = cone._times_harm

    def recorder(*args):
        read.add(args)
        return times_harm(*args)

    monkeypatch.setattr(cone, "_times_harm", recorder)
    product = windowed.mul_series(right)
    assert read == {(2, 0, 1, 0, 1), (2, 1, 1, 0, 1), (2, 1, 2, 0, 1), (2, 2, 1, 0, 1)}
    assert product.windows == (Window(0), Window(-1)) and product.coeffs
    full = BiConeSeries(2, left_keys).mul_series(right)
    assert product == full.restrict(product.windows)
