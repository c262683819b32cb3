"""Vertex Lie algebra structures in D dimensions and their axiom checkers.

A structure stores, for every generator pair, the singular part of the field
action a_i(z) a_j as an exact finite cone series with module-element
coefficients.  The checkers verify translation covariance (through the action
extension rules), skewsymmetry against e^{zT}(b(-z)a), and the Jacobi /
Borcherds identities, all at a caller-declared window.

The right-hand side of the Jacobi identity is assembled directly: the
(z-w)-kernels of a(z-w)b are iota-expanded in both regions and subtracted,
multiplied by the u-field of each coefficient acting on c evaluated at u = w
(the locality factor ((u+z-w)^2)^L of the textbook derivation cancels there;
see ``_borcherds_rhs``), and finally restricted to the part singular in both
z and w (which is how the outermost singular-part operation has to be read
for the two sides to have the same mode support).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping

from .cone import (
    BiConeSeries,
    ConeSeries,
    Kernel,
    Window,
    _times_mono,  # unused here; perfbench's tracer test looks it up on this module
    basis_poly_in,
    iota_kernel,
)
from .errors import TruncationError, WorkspaceError
from .pseudo import BracketTable, ModuleElement, pseudo_space
from .report import CheckReport, Failure
from .rings import Poly, VarSpace


class VLAStructure:
    """Generators, their module workspace, and the singular action table."""

    def __init__(self, D: int, generators, actions: Mapping):
        if D < 1:
            raise ValueError("D must be >= 1")
        generators = tuple(generators)
        if not generators:
            raise ValueError("generator list must be nonempty")
        self.D = D
        self.generators = generators
        self.vs = pseudo_space(D)
        r = len(generators)
        table = {}
        for i in range(r):
            for j in range(r):
                series = actions.get((i, j))
                if series is None:
                    series = ConeSeries.zero(D, "z")
                if series.D != D:
                    raise WorkspaceError("action series in a different dimension")
                if not series.window.is_full:
                    raise ValueError("action data must be exactly known (full window)")
                for (n, _, _), coeff in series.coeffs.items():
                    if n >= 0:
                        raise ValueError("action data must be a singular part (n < 0)")
                    if not isinstance(coeff, ModuleElement) or coeff.vs != self.vs or coeff.r != r:
                        raise WorkspaceError("action coefficients must be module elements")
                table[(i, j)] = series
        self.actions = table

    @property
    def r(self) -> int:
        return len(self.generators)

    def action(self, i: int, j: int) -> ConeSeries:
        return self.actions[(i, j)]

    def generator_element(self, k) -> ModuleElement:
        if isinstance(k, str):
            k = self.generators.index(k)
        return ModuleElement.generator(self.vs, self.r, k)

    def max_pole(self) -> int:
        return max((s.pole_order() for s in self.actions.values()), default=0)

    def __repr__(self):
        return f"VLAStructure(D={self.D}, generators={self.generators})"


def extend_action(S: VLAStructure, x: ModuleElement, y: ModuleElement) -> ConeSeries:
    """The field x(z) applied to y, for arbitrary module elements.

    Generator pairs read off the action table; a T factor in the first slot
    differentiates in z, one in the second slot acts as (T_alpha - d/dz_alpha).
    """
    if x.vs != S.vs or y.vs != S.vs or x.r != S.r or y.r != S.r:
        raise WorkspaceError("elements do not live over this structure")
    result = ConeSeries.zero(S.D, "z")
    for i, P in x.coords.items():
        for j, Q in y.coords.items():
            base = S.action(i, j)
            for monoQ, q in Q.terms.items():
                series = base
                for (_, alpha), e in monoQ:
                    for _ in range(e):
                        series = series.map_coeffs(
                            lambda me, a=alpha: me.mul_T(a)
                        ) - series.diff(alpha)
                for monoP, p in P.terms.items():
                    term = series
                    for (_, alpha), e in monoP:
                        for _ in range(e):
                            term = term.diff(alpha)
                    result = result + term.scale(p * q)
    return result


def apply_exp_zT(series: ConeSeries, zdeg: int) -> ConeSeries:
    """e^{zT} applied to a finite exact series, truncated at z-degree ``zdeg``.

    T acts by module multiplication on the coefficients, z by cone-mode
    multiplication.  The result is exactly known up to total degree
    min_hom(series) + zdeg: every deeper mode already received all its
    (finitely many) contributions.
    """
    if not series.window.is_full:
        raise TruncationError("e^{zT} needs an exactly-known source series")
    if not series.coeffs:
        return ConeSeries.zero(series.D, series.var)
    degmax = series.min_hom() + zdeg
    out = ConeSeries.zero(series.D, series.var, Window(None, degmax))
    vs_z = VarSpace(series.D, (series.var,))
    vs_mod = next(iter(series.coeffs.values())).vs
    for total in range(zdeg + 1):
        for exps in vs_z.monomials_of_degree(series.var, total):
            tpoly = vs_mod.one
            denom = 1
            for idx, e in enumerate(exps):
                if e:
                    tpoly = tpoly * vs_mod.var("T", idx + 1) ** e
                    denom *= factorial(e)
            factor = tpoly * Fraction(1, denom)
            term = series.map_coeffs(lambda me, f=factor: me.scale(f))
            if total:
                term = term.mul_poly(vs_z.from_exps(series.var, exps))
            out = out + term.restrict(Window(None, degmax))
    return out


def d1_bridge(table: BracketTable) -> VLAStructure:
    """Convert a D = 1 bracket table into singular cone-mode actions.

    The j-th product c_j lands at the Laurent pole z^{-j-1}, i.e. at the cone
    mode with 2n + m = -j - 1.
    """
    if table.D != 1:
        raise ValueError("the bridge is defined for D = 1 tables")
    actions = {}
    for (i, j), entry in table.entries.items():
        coeffs = {}
        for mono, element in entry.lambda_terms().items():
            jj = mono[0][1] if mono else 0
            c = element.scale(factorial(jj))
            ell = -jj - 1
            m = ell % 2
            n = (ell - m) // 2
            coeffs[(n, m, 1)] = c
        actions[(i, j)] = ConeSeries(1, "z", coeffs)
    return VLAStructure(1, table.generators, actions)


# ----------------------------------------------------------------------
# skewsymmetry
# ----------------------------------------------------------------------

def skew_check_vla(S: VLAStructure, window: int) -> CheckReport:
    """Compare a(z)b with the singular part of e^{zT}(b(-z)a).

    The exponential is truncated at z-degree ``window``; the two sides are
    compared on the region the truncation still answers for exactly, and the
    report records that region.
    """
    failures = []
    records = []
    for i in range(S.r):
        for j in range(S.r):
            label = f"({S.generators[i]},{S.generators[j]})"
            rhs = apply_exp_zT(S.action(j, i).parity_flip(), window).singular_part()
            diff = S.action(i, j).restrict(rhs.window) - rhs
            records.append((label, not diff))
            for mode, coeff in diff.items():
                failures.append(
                    Failure(f"{label} mode {mode}", coeff.format(S.generators))
                )
    return CheckReport(
        "vla-skew", len(records), tuple(failures), f"window={window}", tuple(records)
    )


# ----------------------------------------------------------------------
# Jacobi and Borcherds
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shifted_harmonic(D: int, m: int, sigma: int, vs: VarSpace) -> Poly:
    """h_{m,sigma}(z - w) as a polynomial over the (z, w) families."""
    poly = basis_poly_in(D, m, sigma, vs, "z")
    shift = {("z", a): vs.var("z", a) - vs.var("w", a) for a in range(1, D + 1)}
    return poly.subst(shift)


def _lhs_pair_term(S: VLAStructure, outer: int, series: ConeSeries, swap: bool) -> BiConeSeries:
    """outer(z) applied to each coefficient of a w-mode series (or swapped)."""
    out: dict = {}
    gen = S.generator_element(outer)
    for mode, element in series.coeffs.items():
        extended = extend_action(S, gen, element)
        for emode, coeff in extended.coeffs.items():
            key = (mode, emode) if swap else (emode, mode)
            total = out.get(key)
            out[key] = coeff if total is None else total + coeff
    return BiConeSeries(S.D, ("z", "w"), out)


def _borcherds_lhs(S: VLAStructure, i: int, j: int, k: int, F: Kernel, depth: int) -> BiConeSeries:
    """a(z)(b(w)c) iota_zw F  -  b(w)(a(z)c) iota_wz F, singular data throughout."""
    term1 = _lhs_pair_term(S, i, S.action(j, k), swap=False)
    term2 = _lhs_pair_term(S, j, S.action(i, k), swap=True)
    if F == Kernel.one(S.D):
        return term1 - term2
    left = iota_kernel(F, "zw", depth).mul_series(term1)
    right = iota_kernel(F, "wz", depth).mul_series(term2)
    return left - right


def _borcherds_rhs(S: VLAStructure, i: int, j: int, k: int, F: Kernel, depth: int) -> BiConeSeries:
    """Sum over the modes (n, m, sigma) of a(z-w)b, with coefficient x, of
    (iota_zw - iota_wz)(F ((z-w)^2)^n) h_{m,sigma}(z-w) x(w)c.

    The textbook derivation multiplies by the locality factor
    ((u+z-w)^2)^L, evaluates the u-field x(u)c at u = w and divides by
    (z^2)^L.  At u = w the factor is exactly (z^2)^L, and the u-fields here
    are finite and exactly known, so the two steps cancel: evaluating x(u)c
    at u = w is the w-slot mode product that ``mul_series`` computes once
    the u-field is lifted into the w slot at z-mode (0, 0, 1).  L is thus
    only the precondition L >= max pole order (the identity is stated for
    fields local of that order), checked by the caller.

    The z window is ``depth`` (the iota expansions); the w window is
    ``depth`` plus the least total degree of the u-field, whose poles fold
    into w.
    """
    D = S.D
    gen_k = S.generator_element(k)
    result = BiConeSeries.zero(D)
    for (n, m, sigma), element in S.action(i, j).coeffs.items():
        combined = Kernel(
            D,
            coeff=F.coeff,
            z_exps=F.z_exps,
            w_exps=F.w_exps,
            z_pole=F.z_pole,
            w_pole=F.w_pole,
            zw_pole=F.zw_pole - n,
        )
        diff = iota_kernel(combined, "zw", depth) - iota_kernel(combined, "wz", depth)
        if m:
            harmonic = _shifted_harmonic(D, m, sigma, VarSpace(D, ("z", "w")))
            diff = diff.mul_poly(harmonic)
        u_field = extend_action(S, element, gen_k)
        lifted = {((0, 0, 1), mode): coeff for mode, coeff in u_field.coeffs.items()}
        result = result + diff.mul_series(BiConeSeries(D, ("z", "w"), lifted))
    return result


def _identity_failures(S, label: str, lhs: BiConeSeries, rhs: BiConeSeries) -> list:
    for w in rhs.windows:
        if w.degmax is not None and w.degmax < -1:
            raise TruncationError(
                "derived window does not reach the singular region; raise the window"
            )
    failures = []
    diff = lhs.singular_joint() - rhs.singular_joint()
    for key, coeff in diff.items():
        failures.append(
            Failure(f"{label} modes {key}", coeff.format(S.generators))
        )
    return failures


def _run_identity(S: VLAStructure, L: int, F: Kernel, window: int, name: str) -> CheckReport:
    if window < 0:
        raise ValueError("window must be >= 0")
    needed = max(
        (S.action(i, k).pole_order() for i in range(S.r) for k in range(S.r)),
        default=0,
    )
    if L < needed:
        raise ValueError(f"L = {L} is below the largest action pole order {needed}")
    failures = []
    records = []
    # The u-field pole can exceed the action poles by the T-degree of the
    # coefficients (every T in the first slot differentiates once).
    u_pole_bound = S.max_pole() + max(
        (p.total_degree() for series in S.actions.values()
         for el in series.coeffs.values() for p in el.coords.values()),
        default=0,
    )
    # The u-field poles folded into w cost the RHS w window up to
    # 2 * u_pole_bound in total degree; this depth keeps both RHS windows at
    # least window + 2 deep.
    depth = window + 2 * u_pole_bound + 2
    for i in range(S.r):
        for j in range(S.r):
            for k in range(S.r):
                lhs = _borcherds_lhs(S, i, j, k, F, depth)
                rhs = _borcherds_rhs(S, i, j, k, F, depth)
                label = f"({S.generators[i]},{S.generators[j]},{S.generators[k]})"
                found = _identity_failures(S, label, lhs, rhs)
                records.append((label, not found))
                failures.extend(found)
    return CheckReport(
        name, len(records), tuple(failures), f"L={L}, window={window}", tuple(records)
    )


def jacobi_check_vla(S: VLAStructure, L: int, window: int) -> CheckReport:
    """The singular-part Jacobi identity, checked on the declared window."""
    return _run_identity(S, L, Kernel.one(S.D), window, "vla-jacobi")


def borcherds_check(S: VLAStructure, L: int, F: Kernel, window: int) -> CheckReport:
    """The Borcherds identity with kernel F, on singular-part data.

    For F = 1 this is the same comparison as :func:`jacobi_check_vla`.
    """
    if F.D != S.D:
        raise WorkspaceError("kernel dimension mismatch")
    return _run_identity(S, L, F, window, "borcherds")
