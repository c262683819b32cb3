"""Light-cone mode calculus in D dimensions.

A field coefficient is indexed by a *cone mode* (n, m, sigma) and stands for
(x^2)^n h_{m,sigma}(x), where x^2 = x_1^2 + ... + x_D^2 and {h_{m,sigma}} is
the canonical basis of harmonic homogeneous polynomials of degree m: the
harmonic extensions off x_D = 0 of the monomials with x_D exponent <= 1, a
closed-form reduced echelon basis, so representatives are deterministic.

The Gauss decomposition p = sum_j (x^2)^j p_j, p_j harmonic, underlies the
calculus.  Each p_j comes straight out of the Laplacian chain Delta^k p by
Horner's rule in x^2 (``_gauss_numerators``): ``gauss_decompose`` takes the
parts as polynomials, and the mode tables (h * x^e, h * h', the zonal
harmonics) read their sigma-coordinates as their values at the pivots
(``_harmonic_parts``), the same sum restricted to the pivot monomials.

Series over these modes carry an explicit truncation window; coefficients
outside the window are unknown, not zero, and every operation computes the
exact window it can still answer for.  Expansion of rational kernels
((z-w)^2)^{-k} in the region |w| < |z| (iota) is exact binomial expansion
in z^2, w^2 and z.w; each power (z.w)^b lands in bi-cone modes through the
zonal harmonics K_d[(z.w)^d].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, gcd, lcm, perm, prod
from typing import Mapping, Optional

from .errors import TruncationError, WorkspaceError
from .rings import (Poly, VarSpace, _clear, _exact, _Memo, _no_float, _quotient,
                    _require_int, dense_monomials)

Mode = tuple  # (n: int, m: int >= 0, sigma: int >= 1)

# The most machine words the build of one harmonic basis may form
# (``_basis_words``); above it, ``harmonic_basis`` refuses the degree before
# enumerating any pivot.  A 2-vCPU VM forms 0.5-3 million words a second, so
# an admitted build takes seconds, where (3, 400) exhausts memory.
MAX_BASIS_WORDS = 10**7


# ----------------------------------------------------------------------
# harmonic polynomials and the Gauss decomposition
# ----------------------------------------------------------------------

def h_dim(D: int, m: int) -> int:
    """Dimension of the space of harmonic homogeneous polynomials of degree m."""
    if D < 1:
        raise ValueError("D must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return comb(m + D - 1, D - 1) - (comb(m + D - 3, D - 1) if m >= 2 else 0)


def _raw_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _laplacian_table(D: int, m: int) -> _Memo:
    """{exps: ((lower exps, e(e - 1)), ...)}: the Laplacian stencil of each
    degree-m monomial in D variables, filled only for the monomials asked for."""
    return _Memo(lambda exps: tuple((exps[:a] + (e - 2,) + exps[a + 1:], e * (e - 1))
                                    for a, e in enumerate(exps) if e >= 2))


def _raw_laplacian(raw: dict, D: int, m: int) -> dict:
    """The Laplacian of a degree-m raw {exps: int} polynomial in D variables,
    each monomial's stencil read from ``_laplacian_table``."""
    table = _laplacian_table(D, m)
    out: dict = {}
    get = out.get
    for exps, c in raw.items():
        for low, w in table[exps]:
            out[low] = get(low, 0) + c * w
    return {k: v for k, v in out.items() if v}


def _laplacian_chain(D: int, m: int, raw: dict) -> list:
    """[p, Delta p, Delta^2 p, ...] for a degree-m raw {exps: int} polynomial
    p in D variables, down to the last nonzero Laplacian."""
    chain = [raw] if raw else []
    for degree in range(m, 1, -2):
        raw = _raw_laplacian(raw, D, degree)
        if not raw:
            break
        chain.append(raw)
    return chain


@lru_cache(maxsize=None)
def _x2_table(D: int, m: int, raised: int) -> _Memo:
    """{exps: (raised exps, ...)}: the monomials of x_1^2 + ... + x_raised^2
    times each degree-m monomial in D variables, all of weight 1, filled only
    for the monomials asked for."""
    return _Memo(lambda exps: tuple(exps[:a] + (e + 2,) + exps[a + 1:]
                                    for a, e in enumerate(exps[:raised])))


@lru_cache(maxsize=None)
def _pivots(D: int, m: int) -> tuple:
    """The pivots: degree-m monomials with x_D exponent <= 1, in canonical order."""
    return tuple(e for e in dense_monomials(D, m) if e[-1] <= 1)


@lru_cache(maxsize=None)
def _harmonic_raw(D: int, m: int) -> tuple:
    """Canonical harmonic basis at degree m as (den, numerators): raw
    {exps: int} dicts with h_{m,sigma} = numerators[sigma - 1] / den, where
    den is the least common denominator of the basis.  h_{m,sigma} is
    sum_j (-1)^j e!/(2j+e)! x_D^(2j+e) Delta'^j x'^a for pivot sigma x'^a x_D^e,
    Delta' the Laplacian in x_1..x_{D-1}: 1 at pivot sigma, 0 at the others.

    The coefficients are ints N over M = m!, c = M e!/(2j+e)!: exact while the
    chain is nonempty, as then 2j + e <= m and (2j+e)!/e! divides m!.  With
    g = gcd(M, N_1, ..., N_n), M / g is the least common denominator of the
    N_i / M: any common denominator L has M | L N_i and M | L M, so M | L g.
    Without a pivot (D = 1, m >= 2) the basis is empty, and m! is not formed."""
    if not h_dim(D, m):
        return 1, ()
    M, basis = factorial(m), []
    for pivot in _pivots(D, m):
        e, c, term, h = pivot[-1], M, {pivot[:-1]: 1}, {}
        while term:
            h.update((a + (e,), c * v) for a, v in term.items())
            c //= -(e + 1) * (e + 2)
            term = _raw_laplacian(term, D - 1, m - e)
            e += 2
        basis.append(h)
    g = gcd(M, *(v for h in basis for v in h.values()))
    return M // g, tuple({exps: v // g for exps, v in h.items()} for h in basis)


@lru_cache(maxsize=None)
def _projector_weights(D: int, d: int) -> tuple:
    """(c_0, ..., c_{d // 2}), ints with K_d[q] = sum_i c_i / c_0 (x^2)^i
    Delta^i q the harmonic part of a degree-d polynomial q (Axler, Bourdon
    and Ramey, Harmonic Function Theory, ch. 5), the weights of the Horner
    sum in ``_gauss_numerators``: c_0 = prod_i 2i(D + 2d - 2i - 2) and
    c_i = -c_{i-1} / (2i(D + 2d - 2i - 2)), exact as each step divides the
    product of the steps after it."""
    steps = [2 * i * (D + 2 * d - 2 * i - 2) for i in range(1, d // 2 + 1)]
    return tuple(accumulate(steps, lambda c_i, step: -c_i // step, initial=prod(steps)))


def _basis_words(D: int, m: int) -> int:
    """A closed-form bound, capped at 2^64, on the machine words that
    ``_harmonic_raw(D, m)`` forms: its terms, each an exponent vector of D
    ints and a coefficient of at most m! < 2^(m bit_length(m)), plus m!;
    0 without a pivot.

    Pivot x'^a x_D^e forms the terms of Delta'^k x'^a for every k, prod_i
    (a_i // 2 + 1) in all.  At most k = min(D - 1, m // 2) factors exceed 1,
    so by the AM-GM inequality the product is at most (m / (2k) + 1)^k, and
    there are h_dim(D, m) pivots.  With min(m, D - 2) >= 64 there are at
    least binom(m + D - 2, m) >= 2^64 pivots, and the cap is returned before
    any such binomial is formed.  D < 1 or m < 0 raises ValueError."""
    cap = 2**64
    if min(m, D - 2) >= 64:
        return cap
    k = min(D - 1, m // 2)
    terms = h_dim(D, m) * ((m + 2 * k) ** k // (2 * k) ** k if k > 0 else 1)
    return min(cap, (terms + 1) * (D + 1 + m * m.bit_length() // 64)) if terms else 0


def _gauss_factor(D: int, d: int, j: int) -> int:
    """N = prod_{k=1..j} 2k(2k + D - 2 + 2d): Delta^j (x^2)^j h = N h, h harmonic of degree d."""
    return prod(2 * k * (2 * k + D - 2 + 2 * d) for k in range(1, j + 1))


def _gauss_numerators(D: int, m: int, raw: dict, raised: int):
    """Yield (j, q, {exps: N}) for a degree-m raw polynomial p with int
    coefficients: with p = sum_j (x^2)^j p_j and p_j harmonic of degree
    d = m - 2j, p_j is {exps: N / q}, a part that may be 0.  With ``raised``
    = D the part is whole; with ``raised`` = D - 1 it is restricted to the
    pivots, the monomials with x_D exponent <= 1 (``_harmonic_parts``).

    p_j = K_d[L_j] / ``_gauss_factor(D, d, j)`` with L_k = Delta^k p, the
    ``_laplacian_chain``, and K_d[L_j] = sum_i c_i / c_0 (x^2)^i L_{j+i}, the
    c_i the ``_projector_weights``.  Horner's rule in x^2 sums it in ints:
    r = c_top L_{j+top}, then r <- c_i L_{j+i} + x^2 r down to i = 0, each
    x^2 r read from the ``_x2_table`` stencils, so q = c_0
    ``_gauss_factor(D, d, j)``.  x_D^2 raises the x_D exponent past 1, so a
    pivot of (x^2)^i L is reached from the pivots of L through x_1^2 + ... +
    x_{D-1}^2 alone: restricted, each level is cut to its pivots and only
    the first D - 1 variables are raised, and the pivot values come out
    exact.

    Each level j repeats the Horner steps of the levels below it: in D = 2
    the whole parts of a dense degree-m polynomial cost about m^3 / 12 terms,
    their pivot values O(m^2), 2 pivots a degree.  In D = 1, where
    h_dim(1, d) = 0 for d >= 2, c x^m is (x^2)^(m // 2) c x^(m % 2) at once,
    its own pivot.
    """
    if D == 1:
        yield from ((m // 2, 1, {(m % 2,): c}) for c in raw.values())
        return
    chain = _laplacian_chain(D, m, raw)
    if raised < D:
        chain = [{exps: v for exps, v in level.items() if exps[-1] <= 1} for level in chain]
    top = len(chain) - 1
    tables = [_x2_table(D, m - 2 * k - 2, raised) for k in range(top)]
    for j in range(len(chain)):
        d = m - 2 * j
        c = _projector_weights(D, d)
        r = {exps: c[top - j] * v for exps, v in chain[top].items()}
        for k in range(top - 1, j - 1, -1):
            w, table = c[k - j], tables[k]
            out = {exps: w * v for exps, v in chain[k].items()}
            get = out.get
            for exps, v in r.items():
                for up in table[exps]:
                    out[up] = get(up, 0) + v
            r = out
        yield j, c[0] * _gauss_factor(D, d, j), r


def _harmonic_parts(D: int, m: int, raw: dict):
    """Yield (j, d, q, {sigma: N}) for a degree-m raw polynomial p with int
    coefficients: with p = sum_j (x^2)^j p_j and p_j harmonic of degree
    d = m - 2j, coordinate sigma of p_j is N / q.  Each canonical basis
    vector is 1 at its own pivot and 0 at the others, so coordinate sigma is
    the value of p_j at pivot sigma (``_pivots``): the pivot-restricted
    ``_gauss_numerators``.  ``_decompose`` and ``_zonal`` use them.
    """
    for j, q, values in _gauss_numerators(D, m, raw, D - 1):
        d = m - 2 * j
        yield j, d, q, {sigma: v for sigma, pivot in enumerate(_pivots(D, d), start=1)
                        if (v := values.get(pivot))}


def _gauss_terms(D: int, c: int) -> int:
    """S(c, D) = sum_k binom(c - 2k + D - 1, D - 1): the monomials of the
    degrees c, c - 2, ... that the Laplacian chain of a degree-c polynomial
    can reach (``_laplacian_chain``), a bound on the terms its Gauss
    decomposition forms.  Closed form, O(D): S(c, D) + S(c - 1, D) =
    binom(c + D, D) counts every degree <= c, and S(c, D) - S(c - 1, D), the
    alternating sum, is S(c, D - 1); S(c, 0) is 1 for even c, else 0."""
    terms = 1 - c % 2
    for d in range(1, D + 1):
        terms = (comb(c + d, d) + terms) // 2
    return terms


def _least(den: int, table) -> tuple:
    """(R, ((key, int), ...)) with each int N of ``table`` over ``den`` read
    as N' / R, R least: R = den / gcd(den, N_1, ..., N_n)."""
    g = gcd(den, *(n for _, n in table))
    return den // g, tuple((key, n // g) for key, n in table)


def _decompose(D: int, m: int, raw: dict, den: int) -> tuple:
    """The degree-m int polynomial raw / den decomposed: (R, ((j, m',
    sigma), int) pairs), each coefficient the int over R, R least."""
    parts = [(j, d, q * den, coords) for j, d, q, coords in _harmonic_parts(D, m, raw)]
    common = lcm(*(q for _, _, q, _ in parts))
    return _least(common, [((j, d, sigma), n * (common // q))
                           for j, d, q, coords in parts for sigma, n in coords.items()])


@lru_cache(maxsize=None)
def _times_mono(D: int, m: int, sigma: int, exps: tuple) -> tuple:
    """h_{m,sigma} * x^exps decomposed: (den, ((dj, m', sigma'), int) pairs),
    each coefficient the int over den."""
    den, numerators = _harmonic_raw(D, m)
    return _decompose(D, m + sum(exps), _raw_mul(numerators[sigma - 1], {exps: 1}), den)


@lru_cache(maxsize=None)
def _times_harm(D: int, m1: int, s1: int, m2: int, s2: int) -> tuple:
    """h_{m1,s1} * h_{m2,s2} decomposed: (den, ((dj, m', sigma'), int) pairs)."""
    den1, a = _harmonic_raw(D, m1)
    den2, b = _harmonic_raw(D, m2)
    return _decompose(D, m1 + m2, _raw_mul(a[s1 - 1], b[s2 - 1]), den1 * den2)


@lru_cache(maxsize=None)
def _dh_table(D: int, m: int, sigma: int, alpha: int) -> tuple:
    """dh_{m,sigma}/dx_alpha decomposed: (den, ((0, m - 1, sigma'), int)
    pairs).  The derivative is harmonic, so its coordinates are its values
    at the pivots."""
    a = alpha - 1
    h_den, numerators = _harmonic_raw(D, m)
    ups = (p[:a] + (p[a] + 1,) + p[a + 1:] for p in (_pivots(D, m - 1) if m else ()))
    dh = ((s, up[a] * numerators[sigma - 1].get(up, 0)) for s, up in enumerate(ups, start=1))
    return _least(h_den, [((0, m - 1, s), v) for s, v in dh if v])


def _table_sum(entries) -> tuple:
    """The one integer kernel of the one-variable products: (den, {mode:
    numerator}), the sum over the entries (coeff, n, int factor, (d, table))
    of coeff * factor * q / d at (n + dj, m', sigma') for each
    ((dj, m', sigma'), q) of the table, over the least common denominator
    den of the tables.  A coefficient (scalar or module element) is
    multiplied by ints only; the caller divides once."""
    entries = list(entries)
    den = lcm(*(d for _, _, _, (d, _) in entries))
    out: dict = {}
    for coeff, n, factor, (d, table) in entries:
        factor *= den // d
        for (dj, m2, s2), q in table:
            mode = (n + dj, m2, s2)
            value = coeff * (factor * q)
            total = out.get(mode)
            out[mode] = value if total is None else total + value
    return den, out


def harmonic_basis(D: int, m: int) -> tuple:
    """The canonical harmonic basis at degree m, as polynomials in z.

    A degree whose build could form more than ``MAX_BASIS_WORDS`` machine
    words (``_basis_words``) raises ValueError, with that bound, before any
    table is built."""
    words = _basis_words(D, m)  # rejects D < 1 and m < 0
    if words > MAX_BASIS_WORDS:
        estimate = words if words < 2**64 else "2^64 or more"
        raise ValueError(
            f"the harmonic basis of degree {m} in D = {D} would form an estimated {estimate} "
            f"machine words, above the limit of {MAX_BASIS_WORDS}; lower the degree or the dimension"
        )
    den, numerators = _harmonic_raw(D, m)
    vs = VarSpace(D, ("z",))
    return tuple(vs._from_numerators("z", den, h) for h in numerators)


def basis_poly_in(D: int, m: int, sigma: int, vs: VarSpace) -> Poly:
    """h_{m,sigma} written in the z variables of an arbitrary workspace."""
    _validate_mode(D, (0, m, sigma))
    vs.check_var("z", D)
    den, numerators = _harmonic_raw(D, m)
    return vs._from_numerators("z", den, numerators[sigma - 1])


def _single_family(p: Poly) -> str:
    used = p.families_used()
    if len(used) > 1:
        raise WorkspaceError(f"expected a single-family polynomial, got {sorted(used)}")
    return used.pop() if used else "z"


def gauss_decompose(p: Poly) -> list:
    """Unique expression p = sum_j (x^2)^j p_j with every p_j harmonic.

    Returns [(j, p_j)] with nonzero p_j, sorted by j; exact reconstruction.
    A monomial of p_j has degree m - 2j, so it takes terms from the degree-m
    part of p only: each (degree, j) part comes straight out of the
    Laplacian chain of that degree by Horner's rule in x^2
    (``_gauss_numerators``), one int sum over one denominator read from
    lazily filled tables (the Laplacian and x^2 stencils and the monomial
    keys of ``rings``), and is built as a polynomial without re-validation;
    the parts of one j, on disjoint monomials, are added.  No harmonic basis
    is built.
    """
    family = _single_family(p)
    vs, D = p.vs, p.vs.D
    by_degree: dict = {}
    for exps, coeff in p.dense(family).items():
        by_degree.setdefault(sum(exps), {})[exps] = coeff
    levels: dict = {}
    for degree, raw in by_degree.items():
        clear, (raw,) = _clear(raw)
        for j, q, numerators in _gauss_numerators(D, degree, raw, D):
            part = vs._from_numerators(family, q * clear, numerators)
            levels[j] = levels[j] + part if j in levels else part
    return [(j, levels[j]) for j in sorted(levels) if levels[j]]


# ----------------------------------------------------------------------
# truncation windows
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """The region of mode space where a series is exactly known.

    A mode (n, m, sigma) is inside iff its total degree 2n + m is at most
    degmax, with None meaning the whole mode space.  Truncation cuts off high
    total degree, exactly like a Taylor remainder.
    """

    degmax: Optional[int] = None

    def contains(self, n: int, m: int) -> bool:
        return self.degmax is None or 2 * n + m <= self.degmax

    def intersect(self, other: "Window") -> "Window":
        if self.degmax is None or other.degmax is None:
            return other if self.degmax is None else self
        return Window(min(self.degmax, other.degmax))

    def shift(self, ddeg: int) -> "Window":
        """The window after a product raising every total degree by ``ddeg``."""
        return self if self.degmax is None or not ddeg else Window(self.degmax + ddeg)

    @property
    def is_full(self) -> bool:
        return self.degmax is None


FULL_WINDOW = Window()


def _validate_mode(D: int, mode: Mode) -> None:
    """Refuse a mode that is not a 3-tuple of ints, m < 0 and sigma outside
    1..h_dim(D, m).

    For D >= 2 the degree-m monomials in x_1..x_{i+1}, binom(m + i, i) of
    them for i = 0..D - 2, are pivots, so a sigma up to one of these counts
    is in range.  The walk stops once a count reaches sigma, and h_dim is
    formed only for a sigma above them all: binom(2 * 10^6, 10^6) alone
    takes 37 s on a 2-vCPU VM."""
    if not isinstance(mode, tuple) or len(mode) != 3:
        raise ValueError(f"a mode is a 3-tuple (n, m, sigma), got {mode!r}")
    n, m, sigma = mode
    for name, index in zip(("n", "m", "sigma"), mode):
        _require_int(name, index)
    if m < 0:
        raise ValueError(f"mode degree m must be >= 0, got {m}")
    count, i = (1 if D >= 2 else 0), 0
    while count < sigma and i < D - 2:
        i += 1
        count = count * (m + i) // i
    if not 1 <= sigma <= (count if count >= sigma else h_dim(D, m)):
        raise ValueError(f"sigma {sigma} out of range for (D={D}, m={m})")


# ----------------------------------------------------------------------
# windowed series core and one-variable cone series
# ----------------------------------------------------------------------

class _WindowedSeries:
    """What the one- and two-variable cone series share: dimension ``D``,
    series variable ``var`` (None for the two-slot series), ``coeffs`` keyed
    by one mode per slot, and ``windows``, one :class:`Window` per slot.

    A mode outside its slot's window is unknown, not zero: the constructor
    drops such keys (and zero coefficients), sums and differences keep the
    slot-by-slot intersection of the windows, and ``_lookup`` raises
    TruncationError there.  A subclass gives the window rule as
    ``_kept(coeffs, windows)``, one comprehension per class, and the slot
    modes of a key as ``_modes(key)``.
    """

    __slots__ = ("D", "var", "coeffs", "windows")

    def __init__(self, D: int, var: Optional[str], coeffs: Mapping, windows: tuple):
        for key, c in coeffs.items():
            for mode in self._modes(key):
                _validate_mode(D, mode)
            _no_float(c)
        self._fill(D, var, coeffs, windows)

    def _fill(self, D: int, var: Optional[str], coeffs: Mapping, windows: tuple) -> None:
        self.D = D
        self.var = var
        self.coeffs = self._kept(coeffs, windows)
        self.windows = windows

    def _like(self, coeffs, windows):
        # Series operations only form valid modes, so results skip validation.
        series = object.__new__(type(self))
        series._fill(self.D, self.var, coeffs, windows)
        return series

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.D == other.D
            and self.var == other.var
            and self.coeffs == other.coeffs
            and self.windows == other.windows
        )

    def items(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def _lookup(self, key):
        """Coefficient at a key; TruncationError where the window rule
        ``_kept`` would drop the key."""
        for mode in self._modes(key):
            _validate_mode(self.D, mode)
        if not self._kept({key: 1}, self.windows):
            raise TruncationError(f"mode {key} lies outside the windows {self.windows}")
        return self.coeffs.get(key, 0)

    def __add__(self, other):
        if self.D != other.D or self.var != other.var:
            raise WorkspaceError("series mismatch")
        windows = tuple(map(Window.intersect, self.windows, other.windows))
        out = dict(self.coeffs)
        for key, coeff in other.coeffs.items():
            total = out.get(key)
            out[key] = coeff if total is None else total + coeff
        return self._like(out, windows)

    def __neg__(self):
        return self._like({key: -c for key, c in self.coeffs.items()}, self.windows)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        factor = _exact(factor)  # rejects a float
        return self._like(
            {key: coeff * factor for key, coeff in self.coeffs.items()}, self.windows
        )

    def _restrict(self, windows: tuple):
        return self._like(self.coeffs, tuple(map(Window.intersect, self.windows, windows)))


class ConeSeries(_WindowedSeries):
    """Windowed series sum a_{n,m,sigma} (x^2)^n h_{m,sigma}(x).

    Coefficients are exact rationals (int or Fraction) or module elements;
    anything with +, scalar * and truthiness works, except a float.
    """

    __slots__ = ()

    def __init__(self, D: int, var: str, coeffs: Mapping, window: Window = FULL_WINDOW):
        super().__init__(D, var, coeffs, (window,))

    @staticmethod
    def _modes(mode: Mode) -> tuple:
        return (mode,)

    @staticmethod
    def _kept(coeffs: Mapping, windows: tuple) -> dict:
        (window,) = windows
        return {mode: c for mode, c in coeffs.items() if c and window.contains(mode[0], mode[1])}

    @property
    def window(self) -> Window:
        return self.windows[0]

    @classmethod
    def zero(cls, D: int, var: str = "z", window: Window = FULL_WINDOW) -> "ConeSeries":
        return cls(D, var, {}, window)

    def get(self, mode: Mode):
        """Coefficient at a mode; TruncationError outside the window."""
        return self._lookup(mode)

    def map_coeffs(self, fn) -> "ConeSeries":
        return self._like({mode: fn(coeff) for mode, coeff in self.coeffs.items()}, self.windows)

    def mul_x2(self, k: int) -> "ConeSeries":
        """Multiply by (x^2)^k: a pure mode shift."""
        _require_int("k", k)
        return self._like(
            {(n + k, m, s): c for (n, m, s), c in self.coeffs.items()},
            (self.window.shift(2 * k),),
        )

    def mul_poly(self, p: Poly) -> "ConeSeries":
        """Multiply by p, a polynomial in the series variable (another
        variable or dimension raises WorkspaceError), re-decomposing into cone
        modes: one :func:`_table_sum` over the ``_times_mono`` tables of the
        terms of p, with the cleared coefficients of p as the int factors."""
        if p.vs.D != self.D:
            raise WorkspaceError(f"polynomial in D = {p.vs.D}, series in D = {self.D}")
        p_den, (terms,) = _clear(p.dense(self.var))
        window = self.window.shift(min((sum(exps) for exps in terms), default=0))
        den, out = _table_sum((coeff, n, pc, _times_mono(self.D, m, s, exps))
                              for exps, pc in terms.items()
                              for (n, m, s), coeff in self.coeffs.items())
        return self._like(_divided(out, den * p_den), (window,))

    def diff(self, alpha: int) -> "ConeSeries":
        """Formal d/dx_alpha, alpha in 1..D.  d/dx_alpha (x^2)^n h is
        2n (x^2)^(n-1) x_alpha h, read from the ``_times_mono`` table of
        x_alpha, plus (x^2)^n dh/dx_alpha, read from ``_dh_table``: one
        :func:`_table_sum`, divided once."""
        _require_int("alpha", alpha)
        if not 1 <= alpha <= self.D:
            raise ValueError(f"alpha must be in 1..{self.D}, got {alpha}")
        x_alpha = tuple(int(b == alpha) for b in range(1, self.D + 1))
        entries = []
        for (n, m, s), coeff in self.coeffs.items():
            if n:
                entries.append((coeff, n - 1, 2 * n, _times_mono(self.D, m, s, x_alpha)))
            entries.append((coeff, n, 1, _dh_table(self.D, m, s, alpha)))
        den, out = _table_sum(entries)
        return self._like(_divided(out, den), (self.window.shift(-1),))

    def singular_part(self) -> "ConeSeries":
        return self._like(
            {mode: c for mode, c in self.coeffs.items() if mode[0] < 0}, self.windows
        )

    def parity_flip(self) -> "ConeSeries":
        """x -> -x: each mode picks up (-1)^m."""
        return self._like(
            {mode: (c if mode[1] % 2 == 0 else -c) for mode, c in self.coeffs.items()},
            self.windows,
        )

    def restrict(self, window: Window) -> "ConeSeries":
        return self._restrict((window,))

    def pole_order(self) -> int:
        """Least N with (x^2)^N * series regular: max(0, -min n)."""
        if not self.coeffs:
            return 0
        return max(0, -min(n for (n, _, _) in self.coeffs))

    def min_hom(self) -> int:
        return min((2 * n + m for (n, m, _) in self.coeffs), default=0)

    def residue(self):
        """Coefficient at (-D/2, 0, 1); defined for even D."""
        if self.D % 2:
            raise ValueError("residue requires even D")
        return self.get((-self.D // 2, 0, 1))

    def wick(self):
        """Coefficient at (0, 0, 1): the regular-product extraction."""
        return self.get((0, 0, 1))

    def __repr__(self):
        inner = ", ".join(f"{mode}: {c}" for mode, c in self.items())
        return f"ConeSeries({{{inner}}}, window={self.window})"


def _divided(coeffs: dict, den: int) -> dict:
    """Each coefficient (scalar or module element) divided by den."""
    if den == 1:
        return coeffs
    inverse = Fraction(1, den)
    return {mode: _exact(c * inverse) if type(c) is int or type(c) is Fraction
            else c.scale(inverse) for mode, c in coeffs.items()}


def cone_from_poly(p: Poly, var: Optional[str] = None) -> ConeSeries:
    """Exact cone-mode expansion of a polynomial (all modes known): the unit
    series times p."""
    family = var or _single_family(p)
    return ConeSeries(p.vs.D, family, {(0, 0, 1): 1}).mul_poly(p)


# ----------------------------------------------------------------------
# two-variable cone series
# ----------------------------------------------------------------------

class BiConeSeries(_WindowedSeries):
    """Windowed series over pairs of cone modes, the first in z, the second in w.

    The one product is :meth:`mul_series`, the integer kernel
    :func:`_int_sum_of_products` of one pair; a polynomial factor enters it
    as its exact expansion :func:`bicone_from_poly`.
    """

    __slots__ = ()

    def __init__(self, D: int, coeffs: Mapping, windows: tuple = (FULL_WINDOW, FULL_WINDOW)):
        super().__init__(D, None, coeffs, tuple(windows))

    @staticmethod
    def _modes(key: tuple) -> tuple:
        return key

    @staticmethod
    def _kept(coeffs: Mapping, windows: tuple) -> dict:
        """The bi-mode rule: the keys of ``coeffs`` with a nonzero value whose
        z mode lies in the first window and w mode in the second."""
        wz, ww = windows
        return {
            (m1, m2): c for (m1, m2), c in coeffs.items()
            if c and wz.contains(m1[0], m1[1]) and ww.contains(m2[0], m2[1])
        }

    @classmethod
    def zero(cls, D: int):
        return cls(D, {})

    @classmethod
    def _trusted(cls, D: int, coeffs: Mapping, windows: tuple = (FULL_WINDOW, FULL_WINDOW)):
        """A series without validation: every mode comes from a validated
        series or from the cone tables."""
        series = object.__new__(cls)
        series._fill(D, None, coeffs, tuple(windows))
        return series

    def get(self, mode1: Mode, mode2: Mode):
        return self._lookup((mode1, mode2))

    def mul_series(self, other: "BiConeSeries", bound: Optional[tuple] = None) -> "BiConeSeries":
        """Product of a series with scalar coefficients and a finite series,
        either of them exactly known (full windows); two windowed factors
        raise TruncationError (see :func:`_int_sum_of_products`).

        The product is the integer kernel over the int form of ``other``
        (:func:`_int_form`), and each surviving accumulator is built into one
        exact coefficient at the end (a scalar, or a module element through
        its ``_from_int_view``), an int when the common denominator is 1.
        The windows do not depend on ``bound``, so ``get`` reads 0 at a mode
        outside it whatever the unbounded product holds.
        """
        if self.D != other.D:
            raise WorkspaceError("series mismatch")
        den, sums, windows = _int_sum_of_products(
            self.D, ((self, _int_form(other.coeffs, other.windows)),), bound)
        build = next((c._from_int_view for c in other.coeffs.values()
                      if type(c) is not int and type(c) is not Fraction), _scalar_from_vector)
        return self._like({key: build(den, vector) for key, vector in sums.items()}, windows)

    def restrict(self, windows: tuple) -> "BiConeSeries":
        return self._restrict(windows)

    def __repr__(self):
        inner = ", ".join(f"{key}: {c}" for key, c in self.items())
        return f"BiConeSeries({{{inner}}}, windows={self.windows})"


def _least_degrees(coeffs: Mapping) -> tuple:
    """The least total degree 2n + m per slot over the keys, (0, 0) if none.
    A plain loop: the maps here are mostly one or two keys long."""
    if not coeffs:
        return 0, 0
    z_low = w_low = None
    for (n1, m1, _), (n2, m2, _) in coeffs:
        if z_low is None or 2 * n1 + m1 < z_low:
            z_low = 2 * n1 + m1
        if w_low is None or 2 * n2 + m2 < w_low:
            w_low = 2 * n2 + m2
    return z_low, w_low


def _int_form(coeffs: Mapping, windows: tuple = (FULL_WINDOW, FULL_WINDOW)) -> tuple:
    """(den, {bi-mode: int vector}, windows) with each coefficient of
    ``coeffs`` its vector over den, den least: a scalar c is {(): c * den}, a
    module element the numerators of its ``_int_view``.  The form in which
    :func:`_int_sum_of_products` reads a right factor and returns a sum."""
    views = {key: (c.denominator, {(): c.numerator}) if type(c) is int or type(c) is Fraction
             else c._int_view() for key, c in coeffs.items()}
    den = lcm(*(d for d, _ in views.values()))
    return den, {key: vector if d == den else {coord: n * (den // d) for coord, n in vector.items()}
                 for key, (d, vector) in views.items()}, windows


def _int_sum_of_products(D: int, products, bound: Optional[tuple] = None) -> tuple:
    """The one bi-cone product kernel: the sum of left * right over the
    (left series, right int form) pairs of ``products``, all of dimension D,
    each left with scalar coefficients, each right finite, as an int form
    (den, {bi-mode: int vector}, windows) that holds only the bi-modes whose
    vector does not cancel to 0.  :meth:`BiConeSeries.mul_series` is it for
    one pair; a sum whose signs encode a difference cancels in ints, and
    nothing is built from the vectors, so a residual stays integer data until
    a report formats it, and a sum can be a right factor again.

    In each pair at least one factor is exactly known (full windows); two
    windowed factors raise TruncationError.  The windowed factor's windows,
    raised by the exact factor's least total degrees, bound what the product
    knows: a product mode of degree W + c in a slot reads the windowed factor
    only to degree W when the exact one starts at c.  The sum's windows are
    the intersection of its products' windows.

    The left coefficients are cleared to int numerators, and the
    ``_times_harm`` tables are int numerators.  A first pass keeps the
    (left key, right key) pairs that form something, each with its
    denominator; a second brings every pair to the lcm of those by one int
    factor and adds its weighted vector straight into the one accumulator of
    each output bi-mode.

    Both cuts are decided per (left key, right key) pair, before its
    ``_times_harm`` tables are read.  Multiplying only raises n, so with
    ``bound`` = (bz, bw) a pair at n_z >= bz or n_w >= bw forms nothing
    (each table entry, whose raise dj varies, is tested too).  Total degree
    2n + m adds, as h_m h_m' decomposes within degree m + m', so a pair
    outside the windows, derived from all pairs first, forms nothing either.
    """
    windows = (FULL_WINDOW, FULL_WINDOW)
    for left, (_, vectors, right_windows) in products:
        exact, windowed = vectors, left.windows
        if not all(w.is_full for w in right_windows):
            exact, windowed = left.coeffs, right_windows
            if not all(w.is_full for w in left.windows):
                raise TruncationError("a product needs one exactly-known factor")
        windows = tuple(window.intersect(w.shift(low)) for window, w, low
                        in zip(windows, windowed, _least_degrees(exact)))
    wz, ww = windows
    bz, bw = (None, None) if bound is None else bound
    kept = []  # (denominator, left numerator, n_z, n_w, z table, w table, right vector)
    for left, (b_den, vectors, _) in products:
        a_den, (left_ints,) = _clear(left.coeffs)
        a_den *= b_den
        for ((na1, ma1, sa1), (na2, ma2, sa2)), ca in left_ints.items():
            for ((nb1, mb1, sb1), (nb2, mb2, sb2)), vector in vectors.items():
                n1, n2 = na1 + nb1, na2 + nb2
                if (bound is not None and (n1 >= bz or n2 >= bw)
                        or not (wz.contains(n1, ma1 + mb1) and ww.contains(n2, ma2 + mb2))):
                    continue
                d1, z_table = _times_harm(D, ma1, sa1, mb1, sb1)
                d2, w_table = _times_harm(D, ma2, sa2, mb2, sb2)
                kept.append((a_den * d1 * d2, ca, n1, n2, z_table, w_table, vector))
    den = lcm(*(pair_den for pair_den, *_ in kept))
    out: dict = {}
    for pair_den, ca, n1, n2, z_table, w_table, vector in kept:
        ca *= den // pair_den
        for (dj1, m1b, s1b), q1 in z_table:
            if bound is not None and n1 + dj1 >= bz:
                continue
            c1 = ca * q1
            mode1 = (n1 + dj1, m1b, s1b)
            for (dj2, m2b, s2b), q2 in w_table:
                if bound is not None and n2 + dj2 >= bw:
                    continue
                key = (mode1, (n2 + dj2, m2b, s2b))
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                weight = c1 * q2
                for coord, v in vector.items():
                    acc[coord] = acc.get(coord, 0) + weight * v
    return den, {key: acc for key, acc in out.items() if any(acc.values())}, windows


def _scalar_from_vector(den: int, vector: dict):
    return _quotient(vector.get((), 0), den)


def bicone_from_poly(p: Poly) -> BiConeSeries:
    """Exact bi-cone expansion of a polynomial in z and w (all modes known),
    summed in ints over one denominator."""
    D = p.vs.D
    p_den, (terms,) = _clear(p.dense("z", "w"))
    tables = {half: _times_mono(D, 0, 1, half) for exps in terms for half in (exps[:D], exps[D:])}
    den = lcm(*(d for d, _ in tables.values()))
    coeffs: dict = {}
    for exps, pc in terms.items():
        (d1, t1), (d2, t2) = tables[exps[:D]], tables[exps[D:]]
        pc *= (den // d1) * (den // d2)
        for mode1, q1 in t1:
            for mode2, q2 in t2:
                key = (mode1, mode2)
                coeffs[key] = coeffs.get(key, 0) + pc * q1 * q2
    den = p_den * den * den
    return BiConeSeries._trusted(D, {key: _quotient(c, den) for key, c in coeffs.items()})


# ----------------------------------------------------------------------
# iota expansions of rational kernels
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """The monomial z^z_exps * w^w_exps * (z^2)^(-z_pole) * (w^2)^(-w_pole)
    * ((z-w)^2)^(-zw_pole); for c times it, scale ``iota_kernel(F, ...)`` by c.
    """

    D: int
    z_exps: tuple = ()
    w_exps: tuple = ()
    z_pole: int = 0
    w_pole: int = 0
    zw_pole: int = 0

    def __post_init__(self):
        if self.D < 1:
            raise ValueError("D must be >= 1")
        object.__setattr__(self, "z_exps", tuple(self.z_exps) or (0,) * self.D)
        object.__setattr__(self, "w_exps", tuple(self.w_exps) or (0,) * self.D)
        if len(self.z_exps) != self.D or len(self.w_exps) != self.D:
            raise ValueError("exponent tuples must have length D")
        orders = self.z_exps + self.w_exps + (self.z_pole, self.w_pole, self.zw_pole)
        if any(type(e) is not int or e < 0 for e in orders):
            raise ValueError("exponents and pole orders must be ints >= 0")

    @classmethod
    def one(cls, D: int) -> "Kernel":
        return cls(D)


def _neg_binom(k: int, t: int) -> int:
    """binom(-k, t) = (-1)^t binom(k + t - 1, t)."""
    return (-1) ** t * comb(k + t - 1, t)


@lru_cache(maxsize=None)
def _zonal(D: int, d: int) -> tuple:
    """The zonal harmonic K_d[(z.w)^d] = sum G[s, s'] h_{d,s}(z) h_{d,s'}(w),
    as (den, ((s, s'), int) pairs) with G = int / den nonzero, in (s, s')
    order, den least.

    K_d[(z.w)^d] is harmonic in w, so its coordinate s' is its coefficient
    at the pivot p of s' (``_pivots``), d!/p! K_d[z^p]; and K_d[z^p] is the
    j = 0 part of the Gauss decomposition of z^p (``_harmonic_parts``), over
    the one denominator q = c_0 of ``_projector_weights(D, d)`` for every
    pivot.
    """
    out, q = [], 1
    for s2, pivot in enumerate(_pivots(D, d), start=1):
        _, _, q, coords = next(_harmonic_parts(D, d, {pivot: 1}))
        scale = factorial(d) // prod(map(factorial, pivot))
        out.extend(((s, s2), scale * n) for s, n in coords.items())
    return _least(q, sorted(out))


def _iota_zonal(D: int, k: int, small: int, depth: int, bound: tuple) -> dict:
    """The bi-modes of ((z-w)^2)^(-k) below ``bound``, with ``small`` the slot
    of the small variable.

    With b = t - a and d = b - 2j,
    ((z-w)^2)^(-k) = sum_{t,a} binom(-k,t) binom(t,a) (-2)^b
                     (big^2)^(-k-t) (small^2)^a (z.w)^b,
    and the Gauss decomposition of (z.w)^b in z is
    sum_j b!/d! / ``_gauss_factor(D, d, j)`` (z^2 w^2)^j K_d[(z.w)^d]
    (Delta_z^j (z.w)^b = b!/d! (w^2)^j (z.w)^d).  So each (t, a, j) fills
    the big mode (-k-t+j, d) and the small mode (a+j, d) with the zonal
    coefficients of ``_zonal``, and the small total degree is a + t.  Each
    (n_z, n_w, d) scales one table, so its scalars are summed first, in ints
    over one denominator, and each bi-mode is one product and one division.

    In D = 1 only j = b // 2 is visited: there d = b - 2j <= 1, and
    h_dim(1, d) = 0 for every d >= 2, so ``_zonal`` is empty at the others.
    The factor b!/d! / ``_gauss_factor(D, d, j)`` depends on (d, j) alone
    (b!/d! = perm(b, 2j), b = d + 2j), so it is formed once per (d, j) in
    ``factors``.  In D = 1 it is 1: prod_{k=1..j} 2k(2k - 1 + 2d) is
    (2j)! = b! at d = 0 and (2j + 1)! = b! at d = 1, and d! = 1.
    """
    big_bound, small_bound = bound[1 - small], bound[small]
    sums: dict = {}  # (n_z, n_w, d) -> (numerator, denominator)
    factors: dict = {}
    for t in range(depth + 1):
        c_t = _neg_binom(k, t)
        for a in range(min(t, depth - t, small_bound - 1) + 1):
            b = t - a
            base = c_t * comb(t, a) * (-2) ** b
            for j in range(b // 2 if D == 1 else 0, min(b // 2, small_bound - 1 - a) + 1):
                n_big, n_small = -k - t + j, a + j
                if n_big >= big_bound:
                    continue
                d = b - 2 * j
                key = (n_big, n_small, d) if small == 1 else (n_small, n_big, d)
                if (d, j) not in factors:
                    f = Fraction(perm(b, 2 * j), _gauss_factor(D, d, j))
                    factors[d, j] = f.numerator, f.denominator
                num, den = factors[d, j]
                total, total_den = sums.get(key, (0, den))
                common = lcm(total_den, den)
                sums[key] = total * (common // total_den) + base * num * (common // den), common
    return {((n_z, d, sz), (n_w, d, sw)): _quotient(num * g, den * _zonal(D, d)[0])
            for (n_z, n_w, d), (num, den) in sums.items() for (sz, sw), g in _zonal(D, d)[1]}


@lru_cache(maxsize=None, typed=True)
def iota_expand(D: int, k: int, side: str, window: int, bound: Optional[tuple] = None) -> BiConeSeries:
    """Expansion of ((z-w)^2)^(-k) with the ``side``-second variable small.

    For side "zw" the result is exact for every bi-mode whose w total degree
    is at most ``window`` (and for all z modes there); symmetrically for
    "wz".  The k = 0 expansion is the identity embedding, exact everywhere.
    Series are immutable, so the cached instance is shared.

    The coefficients are read off the zonal harmonics (``_iota_zonal``).
    With ``bound`` = (bz, bw), only the bi-modes with n_z < bz and n_w < bw
    are formed; without it, every bi-mode is.  The windows do not depend on
    the bound, so ``get`` reads 0 at a mode outside it whatever the
    unbounded expansion holds there.

    D, k and ``window`` must be ints, and the cache is typed, so a bool or a
    float is refused before anything is cached, never served an int's entry.
    """
    _require_int("D", D)
    _require_int("k", k)
    _require_int("window", window)
    if window < 0:
        raise ValueError("window must be >= 0")
    if D < 1:
        raise ValueError("D must be >= 1")
    if side not in ("zw", "wz"):
        raise ValueError("side must be 'zw' or 'wz'")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        # the constant 1, formed unless the bound excludes n_z = n_w = 0
        one = {((0, 0, 1), (0, 0, 1)): 1}
        return BiConeSeries._trusted(D, one if bound is None or min(bound) > 0 else {})
    small = 1 if side == "zw" else 0
    windows = [FULL_WINDOW, FULL_WINDOW]
    windows[small] = Window(window)
    if bound is None:
        # every formed bi-mode has n_small <= window and n_big < 0
        bound = (window + 1, window + 1)
    return BiConeSeries._trusted(D, _iota_zonal(D, k, small, window, bound), tuple(windows))


def iota_kernel(F: Kernel, side: str, depth: int, bound: Optional[tuple] = None) -> BiConeSeries:
    """iota expansion of a full kernel monomial, exact to ``depth`` in the
    small variable's total degree.

    The expansion of ((z-w)^2)^(-zw_pole) is multiplied once by the exact
    prefactor z^z_exps * w^w_exps * (z^2)^(-z_pole) * (w^2)^(-w_pole),
    the expansion of the polynomial part with n lowered by the poles.  With
    ``bound`` = (bz, bw), only bi-modes with n_z < bz and n_w < bw are
    formed; the prefactor lowers n by at most z_pole and w_pole, so the pole
    expansion is bounded by (bz + z_pole, bw + w_pole).  The windows do not
    depend on the bound, so ``get`` reads 0 at a mode outside it: with
    F = ((z-w)^2)^-1 in D = 2, the bi-mode ((-1, 0, 1), (0, 0, 1)) is 1
    unbounded and 0 at the bound (0, 0).  When the prefactor is 1, the
    cached pole expansion is the result.
    """
    _require_int("depth", depth)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    D = F.D
    small = 1 if side == "zw" else 0
    mono_deg = (sum(F.z_exps), sum(F.w_exps))[small]
    pole = (F.z_pole, F.w_pole)[small]
    pole_depth = max(0, depth - mono_deg + 2 * pole)
    pole_bound = None if bound is None else (bound[0] + F.z_pole, bound[1] + F.w_pole)
    expansion = iota_expand(D, F.zw_pole, side, pole_depth, pole_bound)
    if not (F.z_pole or F.w_pole or any(F.z_exps) or any(F.w_exps)):
        return expansion
    vs = VarSpace(D, ("z", "w"))
    poly = bicone_from_poly(vs.from_exps("z", F.z_exps) * vs.from_exps("w", F.w_exps))
    prefactor = poly._like({
        ((n1 - F.z_pole, m1, s1), (n2 - F.w_pole, m2, s2)): c
        for ((n1, m1, s1), (n2, m2, s2)), c in poly.coeffs.items()
    }, poly.windows)
    return expansion.mul_series(prefactor, bound)


def iota_antisym(F: Kernel, window: int) -> BiConeSeries:
    """(iota_{z,w} - iota_{w,z}) F on the common box window.

    Zero exactly when F has no (z-w)^2 pole; the delta-like difference
    otherwise.
    """
    _require_int("window", window)
    if window < 0:
        raise ValueError("window must be >= 0")
    left = iota_kernel(F, "zw", window)
    right = iota_kernel(F, "wz", window)
    box = (Window(window), Window(window))
    return left.restrict(box) - right.restrict(box)
