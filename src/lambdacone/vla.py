"""Vertex Lie algebra structures in D dimensions and their axiom checkers.

A structure stores, for every generator pair, the singular part of the field
action a_i(z) a_j as an exact finite cone series with module-element
coefficients.  The checkers verify translation covariance (through the action
extension rules), skewsymmetry against e^{zT}(b(-z)a), and the Jacobi /
Borcherds identities, all at a caller-declared window.

Skewsymmetry compares a(z)b with the singular part of e^{zT}(b(-z)a), and
``apply_exp_zT`` forms only that part: it applies z.T one factor at a time,
each factor one call of the cone layer's integer kernel for one-variable
products, and neither z nor T lowers a mode's n, so each regular mode is
dropped as soon as it is formed.

The right-hand side of the Jacobi identity is assembled directly: the
difference of the iota expansions of each (z-w)-kernel of a(z-w)b in both
regions, multiplied by the u-field of each coefficient acting on c evaluated
at u = w (the locality factor ((u+z-w)^2)^L of the textbook derivation
cancels there; see ``_borcherds_rhs``).  Both sides are lists of (scalar
kernel, field) products, every field kept as the int form (den, {bi-mode:
int vector}, windows) of ``cone._int_form``, built once per structure from
the coefficients of ``extend_action``, and the u-fields negated; each
residual lhs - rhs is one signed integer sum of them
(``cone._int_sum_of_products``), kept in the same form: no coefficient is
built, only to cancel or at all, and a violation becomes text once, written
straight from its vector (``pseudo._format_int_view``).  The
two sides are compared on the part singular in both z and w (which is how
the outermost singular-part operation has to be read for them to have the
same mode support), and only that part is formed: every product here (by
monomials, by h(z-w), by the lifted u-field, by a kernel) only raises the
mode index n, so the iota expansions and the products are bounded to n_z,
n_w below the poles of the factor still to come; a product adds total
degrees, so a pair of factor modes above the windows is skipped too, and no
term that cannot land in the compared region is built.

A structure is immutable after construction, so every term of the checks
is formed once per structure, in its private memo: the pair terms
a(z)(b(w)c), the lifted u-fields, each skew difference and residual lhs - rhs
at the deepest depth asked for (restricted, it is the shallower one), and one
report body per kernel and depth.  A polynomial kernel F iota-expands to
itself and only raises n, so its residual is the single product of F and
the F = 1 (Jacobi) one, which enters as it is kept: Jacobi passing implies
Borcherds passing, not conversely.  L, and in D = 1 the window, leave the
depth alone, so such checks share one report.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .cone import (
    BiConeSeries,
    ConeSeries,
    Kernel,
    Window,
    _gauss_terms,
    _int_form,
    _int_sum_of_products,
    _table_sum,
    _times_mono,
    basis_poly_in,
    bicone_from_poly,
    iota_kernel,
)
from .errors import TruncationError, WorkspaceError
from .ope1d import jth_from_lambda
from .pseudo import (BracketTable, ModuleElement, _format_int_view, _generator_names,
                     pseudo_space)
from .report import CheckReport, Failure
from .rings import VarSpace, _require_int


# The most terms a D >= 2 kernel's monomial part may form in its Gauss
# decomposition (``cone._gauss_terms``); above it, ``borcherds_check``
# refuses the kernel before building any table.
MAX_KERNEL_TERMS = 10**4


class VLAStructure:
    """Generators, their module workspace, and the singular action table.

    The structure is immutable after construction: ``actions`` is a
    read-only view that cannot be reassigned, and ``u_pole_bound`` is
    derived from it once.  The checkers keep the terms they form in
    ``_memo``, so each is formed once per structure.
    """

    def __init__(self, D: int, generators, actions: Mapping):
        if D < 1:
            raise ValueError("D must be >= 1")
        generators = _generator_names(generators)
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
                if series.var != "z":
                    raise WorkspaceError("action series in a variable other than z")
                if not series.window.is_full:
                    raise ValueError("action data must be exactly known (full window)")
                for (n, _, _), coeff in series.coeffs.items():
                    if n >= 0:
                        raise ValueError("action data must be a singular part (n < 0)")
                    if not isinstance(coeff, ModuleElement) or coeff.vs != self.vs or coeff.r != r:
                        raise WorkspaceError("action coefficients must be module elements")
                table[(i, j)] = series
        stray = [key for key in actions if key not in table]
        if stray:
            raise ValueError(f"action keys {stray} lie outside range({r})^2")
        self._actions = MappingProxyType(table)
        self._generator_elements = tuple(ModuleElement.generator(self.vs, r, k) for k in range(r))
        # A bound on the pole order of every field x(z)y with x or y an action
        # coefficient and the other a generator: the action poles plus the
        # T-degree of the coefficients (every T differentiates once).
        self.u_pole_bound = self.max_pole() + max(
            (p.total_degree() for series in table.values()
             for el in series.coeffs.values() for p in el.coords.values()),
            default=0,
        )
        # ("pair", outer, inner, k) -> the term's int form (den, {bi-mode:
        # int vector}, windows); ("u-fields", i, j, k) -> [(mode, negated int
        # form)]; ("skew", i, j) -> (the deepest depth formed, the term);
        # ("residual", i, j, k, F) -> (the deepest depth formed, its int
        # form); ("report", F, depth) -> (failures, records).
        self._memo: dict = {}

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def actions(self) -> Mapping:
        """The action table, read-only and not reassignable: ``u_pole_bound``
        and the memoized terms are derived from it."""
        return self._actions

    def action(self, i: int, j: int) -> ConeSeries:
        return self._actions[(i, j)]

    def generator_element(self, k) -> ModuleElement:
        if isinstance(k, str):
            k = self.generators.index(k)
        return self._generator_elements[k]

    def max_pole(self) -> int:
        return max((s.pole_order() for s in self._actions.values()), default=0)

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
        p_terms = P.dense("T")
        for j, Q in y.coords.items():
            base = S.action(i, j)
            for q_exps, q in Q.dense("T").items():
                series = base
                for alpha, e in enumerate(q_exps, 1):
                    for _ in range(e):
                        series = series.map_coeffs(
                            lambda me, a=alpha: me.mul_T(a)
                        ) - series.diff(alpha)
                for p_exps, p in p_terms.items():
                    term = series
                    for alpha, e in enumerate(p_exps, 1):
                        for _ in range(e):
                            term = term.diff(alpha)
                    result = result + term.scale(p * q)
    return result


def apply_exp_zT(series: ConeSeries, zdeg: int) -> ConeSeries:
    """The singular part of e^{zT} applied to a finite exact series, truncated
    at z-degree ``zdeg``: all that vertex-Lie data carry.

    T acts by module multiplication on the coefficients, z by cone-mode
    multiplication.  The sum is built one factor of z.T = sum_a z_a T_a at a
    time, term_t = (z.T) term_{t-1} / t, since (z.T)^t / t! is the sum of
    z^e T^e / e! over |e| = t.  Neither z_a nor T_a lowers a mode's n, so a
    mode with n >= 0 never becomes singular again and is dropped as soon as
    it is formed.  The result is exactly known up to total degree
    min_hom(series) + zdeg: every deeper mode already received all its
    (finitely many) contributions.

    The sum stops at the first empty term, since every later term is then
    empty too.  In D = 1 that happens by t = P, P = -min_hom(series) the
    pole order: every mode there has m <= 1, so n < 0 iff 2n + m <= -1, and
    term t lies at total degree >= t - P.  So a D = 1 series costs at most P
    steps whatever ``zdeg``; in D >= 2, z_a (x^2)^n h_m keeps a singular part
    at every m and the sum runs to ``zdeg``.

    Each step is one ``_table_sum`` over the pairs (a, mode), with the
    coefficient acted on by T_a and the ``_times_mono`` table of z_a, so a
    term is kept as numerators over one int denominator, which collects the
    table denominators and t!: integral data stay in ints and each term is
    divided once, when it is added.
    """
    _require_int("zdeg", zdeg)
    if zdeg < 0:
        raise ValueError("zdeg must be >= 0")
    if not series.window.is_full:
        raise TruncationError("e^{zT} needs an exactly-known source series")
    if not series.coeffs:
        return ConeSeries.zero(series.D, series.var)
    D = series.D
    window = Window(series.min_hom() + zdeg)
    z = [tuple(int(b == a) for b in range(D)) for a in range(D)]
    term = out = series.singular_part().restrict(window)
    den = 1  # term_t = term / den
    for t in range(1, zdeg + 1):
        if not term:
            break  # (z.T) of nothing is nothing: every later term is empty too
        step_den, step = _table_sum((coeff.mul_T(a + 1), n, 1, _times_mono(D, m, s, z[a]))
                                    for a in range(D) for (n, m, s), coeff in term.coeffs.items())
        den *= step_den * t
        term = term._like(step, (window,)).singular_part()
        out = out + term.scale(Fraction(1, den))
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
        for jj, c in jth_from_lambda(entry).products.items():
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
    report records that region.  The deepest difference per pair is kept and
    restricted (``apply_exp_zT`` is exact to min_hom + zdeg).  In D = 1 it
    stops by zdeg = P = -min_hom, whose window 0 holds every singular mode
    (2n + m <= -1): formed there it is complete, and a window only cuts it.
    """
    _require_int("window", window)
    if window < 0:
        raise ValueError("window must be >= 0")
    failures = []
    records = []
    for i in range(S.r):
        for j in range(S.r):
            label = f"({S.generators[i]},{S.generators[j]})"
            source = S.action(j, i)
            deepest = -source.min_hom() if S.D == 1 else window
            zdeg = min(window, deepest)
            stored, diff = S._memo.get(("skew", i, j), (-1, None))
            if stored < zdeg:
                rhs = apply_exp_zT(source.parity_flip(), deepest)
                stored, diff = deepest, S.action(i, j).restrict(rhs.window) - rhs
                S._memo["skew", i, j] = (stored, diff)
            diff = diff.restrict(diff.window.shift(zdeg - stored))
            records.append((label, not diff))
            for mode, coeff in diff.items():
                failures.append(
                    Failure(f"{label} mode {mode}", coeff.format(S.generators))
                )
    return CheckReport("vla-skew", tuple(failures), f"window={window}", tuple(records))


# ----------------------------------------------------------------------
# Jacobi and Borcherds
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rhs_kernel(F: Kernel, n: int, m: int, sigma: int, depth: int, bound: tuple) -> BiConeSeries:
    """(iota_zw - iota_wz)(F ((z-w)^2)^n) h_{m,sigma}(z-w), formed below ``bound``."""
    D = F.D
    combined = replace(F, zw_pole=F.zw_pole - n)
    diff = (iota_kernel(combined, "zw", depth, bound)
            - iota_kernel(combined, "wz", depth, bound))
    if m:
        vs = VarSpace(D, ("z", "w"))
        harmonic = basis_poly_in(D, m, sigma, vs).subst(
            {("z", a): vs.var("z", a) - vs.var("w", a) for a in range(1, D + 1)}
        )
        diff = diff.mul_series(bicone_from_poly(harmonic), bound)
    return diff


def _lhs_pair_term(S: VLAStructure, outer: int, inner: int, k: int) -> tuple:
    """outer(z)(inner(w)k), the generator ``outer`` applied to each
    coefficient of the w-mode series inner(w)k, as the int form (den,
    {bi-mode: int vector}, windows) of ``cone._int_form``: built once per
    structure, straight from the coefficients of ``extend_action``."""
    memo_key = ("pair", outer, inner, k)
    term = S._memo.get(memo_key)
    if term is None:
        gen = S.generator_element(outer)
        term = S._memo[memo_key] = _int_form({
            (emode, mode): coeff for mode, element in S.action(inner, k).coeffs.items()
            for emode, coeff in extend_action(S, gen, element).coeffs.items()})
    return term


def _borcherds_lhs(S: VLAStructure, i: int, j: int, k: int, F: Kernel, depth: int) -> list:
    """The two (kernel, int form) products whose sum is
    a(z)(b(w)c) iota_zw F  -  b(w)(a(z)c) iota_wz F, singular data throughout:
    (iota_zw F, a(z)(b(w)c)) and (-iota_wz F, b(w)(a(z)c)), for every F.

    The term b(w)(a(z)c) is the pair term a(z)(b(w)c) of the triple
    (b, a, c) with its z and w modes swapped, so each pair term is formed
    once per structure and serves both triples.  Without a (z-w) pole the
    two expansions are the same full-window series, so the products cancel
    where the pair terms agree, in the ints of the residual's sum.  Only
    the part singular in both z and w is formed: the kernel product raises
    n, and both field terms have poles of order at most ``S.u_pole_bound``
    in z and in w, so only the kernel bi-modes below that bound are
    expanded.
    """
    den, vectors, windows = _lhs_pair_term(S, j, i, k)
    term2 = den, {(wm, zm): vector for (zm, wm), vector in vectors.items()}, windows
    bound = (S.u_pole_bound, S.u_pole_bound)
    return [(iota_kernel(F, "zw", depth, bound), _lhs_pair_term(S, i, j, k)),
            (-iota_kernel(F, "wz", depth, bound), term2)]


def _borcherds_rhs(S: VLAStructure, i: int, j: int, k: int, F: Kernel, depth: int) -> list:
    """The (kernel, int form) products whose sum is minus the right-hand side:
    the part singular in both z and w of the sum over the modes
    (n, m, sigma) of a(z-w)b, with coefficient x, of
    (iota_zw - iota_wz)(F ((z-w)^2)^n) h_{m,sigma}(z-w) x(w)c.

    The textbook derivation multiplies by the locality factor
    ((u+z-w)^2)^L, evaluates the u-field x(u)c at u = w and divides by
    (z^2)^L.  At u = w the factor is exactly (z^2)^L, and the u-fields here
    are finite and exactly known, so the two steps cancel: evaluating x(u)c
    at u = w is the w-slot mode product that ``cone._int_sum_of_products``
    computes once the u-field is lifted into the w slot at z-mode (0, 0, 1).
    L is thus only the precondition L >= max pole order (the identity is
    stated for fields local of that order), checked by the caller.  The
    lifted u-fields do not depend on F or the depth: they are formed once
    per structure, as negated int forms, so the products carry the sign of
    lhs - rhs.

    No term outside the singular joint region is formed.  Multiplying by
    h(z-w) and by the lifted u-field only raises n, and the lift leaves z
    modes alone, so a kernel bi-mode matters only when n_z < 0 and n_w is
    below the u-field's pole, at most ``S.u_pole_bound``; the iota expansions
    are bounded there.  In particular the iota_wz half, whose z modes have
    n >= -z_pole, adds nothing unless F has a z pole.

    The z window of the sum is ``depth`` (the iota expansions); the w window
    is ``depth`` plus the least total degree of the u-field, whose poles fold
    into w.
    """
    fields_key = ("u-fields", i, j, k)
    u_fields = S._memo.get(fields_key)
    if u_fields is None:
        gen_k = S.generator_element(k)
        u_fields = []
        for mode, element in S.action(i, j).coeffs.items():
            u_field = extend_action(S, element, gen_k)
            u_fields.append((mode, _int_form({((0, 0, 1), umode): -coeff
                                              for umode, coeff in u_field.coeffs.items()})))
        S._memo[fields_key] = u_fields
    bound = (0, S.u_pole_bound)
    return [(_rhs_kernel(F, n, m, sigma, depth, bound), lifted)
            for (n, m, sigma), lifted in u_fields]


def _times_polynomial(S: VLAStructure, i: int, j: int, k: int, F: Kernel,
                      depth: int) -> tuple:
    """The one (kernel, int form) product F times the F = 1 residual: for
    F = z^e w^f, iota_zw F = iota_wz F = F and F only raises n.  The direct
    path expands each slot at least to F's degree c there, so its windows
    are the F = 1 ones raised by max(depth, c) - depth.  F is homogeneous,
    so the product raises every window by c, and the F = 1 residual enters
    as it is kept, int vectors over one denominator, cut to its windows
    lowered by min(depth, c): an exactly known F times a windowed factor,
    with nothing outside the windows formed."""
    one = _residual(S, i, j, k, Kernel.one(S.D), depth)
    degrees = (sum(F.z_exps), sum(F.w_exps))
    cut = _restricted(one, tuple(w.shift(-min(depth, c)) for w, c in zip(one[2], degrees)))
    vs = VarSpace(S.D, ("z", "w"))
    return bicone_from_poly(vs.from_exps("z", F.z_exps) * vs.from_exps("w", F.w_exps)), cut


def _restricted(form: tuple, windows: tuple) -> tuple:
    """An int form (den, {bi-mode: int vector}, windows) restricted to
    ``windows`` by the ``BiConeSeries`` bi-mode rule."""
    den, vectors, own = form
    windows = tuple(map(Window.intersect, own, windows))
    return den, BiConeSeries._kept(vectors, windows), windows


def _residual(S: VLAStructure, i: int, j: int, k: int, F: Kernel, depth: int) -> tuple:
    """lhs - rhs of the identity with kernel F for the triple (i, j, k) at
    ``depth``, as the int form (den, {bi-mode: int vector}, windows) of
    ``cone._int_sum_of_products``: one integer sum over the products of
    ``_borcherds_lhs`` and ``_borcherds_rhs`` (whose signs encode the
    difference; their fields are memoized int forms, so nothing is
    converted here), or over the one product of ``_times_polynomial`` for
    a polynomial kernel.  Only bi-modes with n_z < 0 and n_w < 0 are formed,
    and no coefficient is built: a violation stays int vectors until
    ``_run_identity`` formats it.

    The deepest residual per (i, j, k, F) is kept.  Each window is
    max(depth, c) plus a shift free of the depth, c F's least degree in that
    slot (``iota_kernel`` expands at least that deep), and the residual is
    exact on its windows, so a shallower one is it restricted, each window
    moved by max(depth, c) - max(stored, c).  A window below total degree -1
    cannot see the singular region: TruncationError, and nothing is stored.
    """
    key = ("residual", i, j, k, F)
    floors = (sum(F.z_exps) - 2 * F.z_pole, sum(F.w_exps) - 2 * F.w_pole)
    stored, residual = S._memo.get(key, (-1, None))
    if stored < depth:
        if F == Kernel.one(S.D) or F.z_pole or F.w_pole or F.zw_pole:
            products = _borcherds_lhs(S, i, j, k, F, depth) + _borcherds_rhs(S, i, j, k, F, depth)
        else:
            products = [_times_polynomial(S, i, j, k, F, depth)]
        residual = _int_sum_of_products(S.D, products, (0, 0))
        stored = depth
    windows = tuple(w.shift(max(depth, c) - max(stored, c))
                    for w, c in zip(residual[2], floors))
    if any(w.degmax is not None and w.degmax < -1 for w in windows):
        raise TruncationError(
            "derived window does not reach the singular region; raise the window"
        )
    S._memo[key] = (stored, residual)
    return residual if stored == depth else _restricted(residual, windows)


def _run_identity(S: VLAStructure, L: int, F: Kernel, window: int, name: str) -> CheckReport:
    """Compare lhs and rhs of the identity with kernel F on every triple.

    The u-field poles folded into w cost the right-hand w window up to
    2 * S.u_pole_bound in total degree, so the depth
    window + 2 * S.u_pole_bound + 2 keeps both windows of the residual at
    least window + 2 deep.

    D = 1 uses the window-0 depth 2 * S.u_pole_bound + 2 whatever the
    window.  There every mode has m <= 1, so n < 0 iff 2n + m <= -1: the
    doubly singular region is the set of bi-modes of total degree <= -1 in
    both slots, and it is finite.  A residual is exact on its windows, and
    ``_residual`` refuses one whose windows (both sides) miss total degree
    -1 in either slot.  So a residual it returns holds the whole doubly
    singular region and equals the true doubly singular residual at every
    window: the D = 1 report differs between windows only in its header.
    In D >= 2 the singular region is infinite and the depth follows the
    window.

    Each violation is written straight from its int vector
    (``pseudo._format_int_view``, the text of ``ModuleElement.format``), so
    no module element is built for a report.  The failures and records are
    kept per (F, depth): a check repeated at another L or D = 1 window, or
    as Borcherds at F = 1 after Jacobi, builds only its header.
    """
    _require_int("L", L)
    _require_int("window", window)
    if window < 0:
        raise ValueError("window must be >= 0")
    needed = S.max_pole()
    if L < needed:
        raise ValueError(f"L = {L} is below the largest action pole order {needed}")
    depth = (0 if S.D == 1 else window) + 2 * S.u_pole_bound + 2
    if ("report", F, depth) not in S._memo:
        failures, records = [], []
        names = S.generators
        for i in range(S.r):
            for j in range(S.r):
                for k in range(S.r):
                    label = f"({names[i]},{names[j]},{names[k]})"
                    den, vectors, _ = _residual(S, i, j, k, F, depth)
                    found = [Failure(f"{label} modes {key}", _format_int_view(den, vectors[key], names))
                             for key in sorted(vectors)]
                    records.append((label, not found))
                    failures.extend(found)
        S._memo["report", F, depth] = (tuple(failures), tuple(records))
    failures, records = S._memo["report", F, depth]
    return CheckReport(name, failures, f"L={L}, window={window}", records)


def jacobi_check_vla(S: VLAStructure, L: int, window: int) -> CheckReport:
    """The singular-part Jacobi identity, checked on the declared window."""
    return _run_identity(S, L, Kernel.one(S.D), window, "vla-jacobi")


def borcherds_check(S: VLAStructure, L: int, F: Kernel, window: int) -> CheckReport:
    """The Borcherds identity with kernel F, on singular-part data.

    For F = 1 this is the same comparison as :func:`jacobi_check_vla`.  The
    verdict is determined by vertex-Lie data only for a polynomial F
    (``z_exps`` and ``w_exps``), F times the Jacobi residual: Jacobi passing
    implies Borcherds passing, not conversely.  A kernel with a z, w or
    (z-w) pole is still expanded and compared, but then the identity reaches
    the regular parts of the fields (in D = 1 the n-th products with n < 0),
    which singular-part data lack, so valid structures can fail; the CLI
    offers no pole kernel for that reason.

    In D >= 2 the Gauss decomposition of F's monomial part has no closed
    form: a kernel whose decomposition could form more than
    ``MAX_KERNEL_TERMS`` terms (``cone._gauss_terms`` per slot, the
    monomials its Laplacian chain reaches) raises ValueError, with that
    count, before any table is built.  D = 1 decomposes in closed form.
    """
    if not isinstance(F, Kernel):
        raise TypeError(f"F must be a Kernel, got {F!r}")
    if F.D != S.D:
        raise WorkspaceError("kernel dimension mismatch")
    if S.D >= 2:
        terms = sum(_gauss_terms(S.D, sum(exps)) for exps in (F.z_exps, F.w_exps))
        if terms > MAX_KERNEL_TERMS:
            raise ValueError(
                f"the Gauss decomposition of the kernel's monomial part would form up to "
                f"{terms} terms, above the limit of {MAX_KERNEL_TERMS}; lower its degree"
            )
    return _run_identity(S, L, F, window, "borcherds")
