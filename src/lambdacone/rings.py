"""Exact sparse multivariate polynomial arithmetic over the rationals.

Variables come in named *families* (T, lam, mu, z, w), each of arity D,
so a variable is a pair ``(family, index)`` with ``1 <= index <= D``.  A
polynomial maps monomials to nonzero exact rationals, each an ``int`` or a
``Fraction``; a float is rejected with TypeError.  Constructors store an
integral value as an ``int``, so integer data stays in Python's fast int * int
and int + int arithmetic; a ``Fraction`` appears only where a denominator
does.  Since ``3 == Fraction(3)`` and the two hash alike, the stored type
never changes an equality or a hash.  Everything is immutable and hashable, and equality is
exact term-map equality, so "symbolic zero" is a hard assertion.

Other modules read and build exponent data only as dense vectors, through
``Poly.dense(*families)`` (``{exponent vector: coefficient}``, one length-D
block per family) and ``VarSpace.from_dense(family, {exps: c})``; the
canonical term order on those vectors is ``dense_key``.  How a monomial is
stored inside a polynomial is private to this module: it is a tuple of
``((family, index), exponent)`` pairs, sorted by (family order, index), with
no zero exponents.

The public constructor ``Poly(vs, terms)`` brings every coefficient to that
exact form (``_exact``) and drops zeros.  The arithmetic inside this module
builds its results with ``Poly._trusted(vs, terms)`` instead, which wraps the
dict as it is: a caller of ``_trusted`` guarantees sorted monomials and
nonzero int or ``Fraction`` coefficients, and hands the dict over (it is
never copied or written again).  ``VarSpace.var`` returns one shared instance
per variable; that is safe because nothing writes to a polynomial after it is
built.

``Packing`` is a second, private layout for the skew, Jacobi and S(D, chi)
closure checks: a monomial is one int with a bit field per variable, and tag
fields for generator indices above them.  It is exact by its degree bound:
the fields hold twice the packed degree, and only degree-preserving
substitutions run on packed terms.  Packed dicts live inside one check; the
packing itself is shared by every check of its shape (``shared_packing``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from typing import Iterable, Mapping, Optional

from .errors import WorkspaceError

FAMILIES = ("T", "lam", "mu", "z", "w")

Var = tuple  # (family: str, index: int), index is 1-based
Monomial = tuple  # sorted tuple of (Var, exponent) pairs, exponents > 0

_FAMILY_POS = {name: pos for pos, name in enumerate(FAMILIES)}


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``, once."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# Sort key (family position, index) of each variable, filled on demand.
_VAR_KEYS = _Memo(lambda var: (_FAMILY_POS[var[0]], var[1]))


def _no_float(value):
    """``value`` itself; a float raises TypeError."""
    if isinstance(value, float):
        raise TypeError(f"coefficients are exact rationals; got the float {value!r}")
    return value


def _require_int(name: str, value) -> None:
    """A bool is an int to Python but not a window, a degree or an axis."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def _exact(value):
    """``value`` as an exact coefficient: an int if integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(_no_float(value))
    return value.numerator if value.denominator == 1 else value


def _item_key(item) -> tuple:
    return _VAR_KEYS[item[0]]


def mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    keys = _VAR_KEYS
    # Disjoint, ordered variable ranges (a T part times a lam part) concatenate.
    if keys[a[-1][0]] < keys[b[0][0]]:
        return a + b
    if keys[b[-1][0]] < keys[a[0][0]]:
        return b + a
    exps: dict = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items(), key=_item_key))


def mono_sort_key(mono: Monomial) -> tuple:
    # Graded, then lexicographic in (family order, index); deterministic.
    return (mono_degree(mono), tuple((_VAR_KEYS[v], -e) for v, e in mono))


def dense_key(exps: tuple) -> tuple:
    """The canonical term order on dense exponent vectors.

    Graded, then the larger exponent of the earlier variable first: the
    order of ``mono_sort_key`` and of ``dense_monomials``.
    """
    return (sum(exps), tuple(-e for e in exps))


@lru_cache(maxsize=None)
def dense_monomials(D: int, m: int) -> tuple:
    """All degree-m exponent vectors in D variables, in the canonical order."""
    out = []
    for combo in combinations_with_replacement(range(D), m):
        exps = [0] * D
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)


def _mono_str(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for (family, index), e in mono:
        name = f"{family}{index}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


@dataclass(frozen=True)
class VarSpace:
    """A workspace: D space dimensions and an ordered set of variable families.

    D = 0 is the degenerate workspace whose polynomial ring is the constants;
    it backs the ordinary-Lie-algebra case of the pseudoalgebra engine.
    """

    D: int
    families: tuple = FAMILIES

    def __post_init__(self):
        if self.D < 0:
            raise ValueError(f"D must be >= 0, got {self.D}")
        if len(set(self.families)) != len(self.families):
            raise ValueError("duplicate family names")
        for name in self.families:
            if name not in _FAMILY_POS:
                raise ValueError(f"unknown family {name!r}")

    def check_var(self, family: str, index: int) -> None:
        if family not in self.families:
            raise WorkspaceError(f"family {family!r} not in workspace {self.families}")
        if not 1 <= index <= self.D:
            raise WorkspaceError(f"index {index} out of range 1..{self.D}")

    def var(self, family: str, index: int) -> "Poly":
        return _var(self, family, index)

    def const(self, value) -> "Poly":
        c = _exact(value)
        return Poly._trusted(self, {(): c} if c else {})

    @property
    def zero(self) -> "Poly":
        return Poly._trusted(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def monomials_of_degree(self, family: str, degree: int) -> tuple:
        """All degree-``degree`` monomials in one family, as dense exponent tuples."""
        if family not in self.families:
            raise WorkspaceError(f"family {family!r} not in workspace")
        return dense_monomials(self.D, degree)

    def from_dense(self, family: str, terms: Mapping) -> "Poly":
        """The polynomial ``sum c * prod_i family_i^exps[i]`` of ``{exps: c}``.

        Each vector must have length D and nonnegative entries.
        """
        if family not in self.families:
            raise WorkspaceError(f"family {family!r} not in workspace {self.families}")
        keys = _dense_keys(self.D, family)
        out = {}
        for exps, coeff in terms.items():
            if len(exps) != self.D or min(exps, default=0) < 0:
                raise ValueError(f"bad exponent vector {exps!r} for D = {self.D}")
            c = _exact(coeff)
            if c:
                out[keys[exps]] = c
        return Poly._trusted(self, out)

    def _from_numerators(self, family: str, den: int, numerators: Mapping) -> "Poly":
        """``from_dense(family, {exps: n / den})`` for int n, unchecked: the
        vectors are nonnegative and at most D long, a shorter one leaving the
        last variables at exponent 0, as ``Poly.dense`` and the cone tables
        give them; each coefficient is built by ``_quotient``, and a zero n
        is dropped."""
        keys = _dense_keys(self.D, family)
        out = {}
        for exps, n in numerators.items():
            if n:
                out[keys[exps]] = _quotient(n, den)
        return Poly._trusted(self, out)

    def from_exps(self, family: str, exps: Iterable[int], coeff=1) -> "Poly":
        """Monomial from a dense per-index exponent tuple of one family."""
        return self.from_dense(family, {tuple(exps): coeff})


class Poly:
    """Immutable sparse polynomial over a :class:`VarSpace`."""

    __slots__ = ("vs", "terms", "_hash", "_dense", "_degree")

    def __init__(self, vs: VarSpace, terms: Mapping):
        clean = {}
        for mono, coeff in terms.items():
            c = _exact(coeff)
            if c:
                clean[mono] = c
        self.vs = vs
        self.terms = clean
        self._hash = None
        self._dense = None
        self._degree = None

    @classmethod
    def _trusted(cls, vs: VarSpace, terms: dict) -> "Poly":
        """Wrap ``terms`` as is: sorted monomials, nonzero int or ``Fraction`` values."""
        poly = object.__new__(cls)
        poly.vs = vs
        poly.terms = terms
        poly._hash = None
        poly._dense = None
        poly._degree = None
        return poly

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.vs is not self.vs and other.vs != self.vs:
                raise WorkspaceError("polynomials live in different workspaces")
            return other
        if isinstance(other, (int, Fraction)):
            return self.vs.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = out.get(mono)
            if total is None:
                out[mono] = coeff
            else:
                total += coeff
                if total:
                    out[mono] = total
                else:
                    del out[mono]
        return Poly._trusted(self.vs, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vs, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Poly":
        """c * self for an int or Fraction c, without the general product."""
        c = _exact(c)
        if not c:
            return Poly._trusted(self.vs, {})
        return Poly._trusted(self.vs, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                total = out.get(m)
                out[m] = ca * cb if total is None else total + ca * cb
        return Poly._trusted(self.vs, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.vs.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and () in terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            if self.vs is other.vs or self.vs == other.vs:
                return self.terms == other.terms
            # Constants compare by value in any workspace, as they hash.
            return self.terms == other.terms and self._is_constant()
        if isinstance(other, (int, Fraction)):
            return self.terms == self.vs.const(other).terms
        return NotImplemented

    def __hash__(self):
        # A constant hashes as its value, since it compares equal to it.
        if self._hash is None:
            terms = self.terms
            if self._is_constant():
                self._hash = hash(terms.get((), 0))
            else:
                items = tuple(sorted(terms.items(), key=lambda kv: mono_sort_key(kv[0])))
                self._hash = hash((self.vs, items))
        return self._hash

    # -- calculus --------------------------------------------------------

    def diff(self, family: str, index: int) -> "Poly":
        """Formal partial derivative with respect to one variable."""
        self.vs.check_var(family, index)
        var = (family, index)
        # Lowering one exponent is injective on the monomials that contain
        # var, so no two terms meet and no coefficient cancels.
        out: dict = {}
        for mono, coeff in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v == var:
                    lowered = ((var, e - 1),) if e > 1 else ()
                    out[mono[:pos] + lowered + mono[pos + 1:]] = coeff * e
                    break
        return Poly._trusted(self.vs, out)

    def laplacian(self, family: str) -> "Poly":
        """Sum of second partials over all D indices of one family.

        ``cone`` works on raw exponent dicts; the callers of this ring form are
        the harmonicity oracles, ``_gauss_roundtrip`` in perfbench and the tests.
        """
        result = self.vs.zero
        for alpha in range(1, self.vs.D + 1):
            result = result + self.diff(family, alpha).diff(family, alpha)
        return result

    def subst(self, assignment: Mapping) -> "Poly":
        """Ring-homomorphism image; variables absent from ``assignment`` stay put.

        Keys are ``(family, index)`` pairs, values are polynomials over the
        same workspace (or ints/Fractions).
        """
        vs = self.vs
        images = {}
        for var, value in assignment.items():
            vs.check_var(*var)
            if not isinstance(value, Poly):
                value = vs.const(value)
            elif value.vs is not vs and value.vs != vs:
                raise WorkspaceError("substitution image in a different workspace")
            images[var] = value
        # Each monomial splits into a substituted part, whose image is
        # computed once per call, and a kept part that multiplies it.
        part_images: dict = {}
        out: dict = {}
        for mono, coeff in self.terms.items():
            part = tuple(item for item in mono if item[0] in images)
            kept = tuple(item for item in mono if item[0] not in images) if part else mono
            image = part_images.get(part)
            if image is None:
                image = vs.one
                for var, e in part:
                    image = image * images[var] ** e
                image = part_images[part] = image.terms
            for m, c in image.items():
                m = mono_mul(kept, m)
                total = out.get(m)
                out[m] = coeff * c if total is None else total + coeff * c
        return Poly._trusted(vs, {m: c for m, c in out.items() if c})

    def reinterpret(self, vs: VarSpace) -> "Poly":
        """The same exponent data read in a (larger) workspace."""
        for mono in self.terms:
            for (family, index), _ in mono:
                vs.check_var(family, index)
        return Poly._trusted(vs, dict(self.terms))

    # -- structure queries ------------------------------------------------

    def total_degree(self) -> int:
        """The largest monomial degree (0 for zero), scanned once per polynomial."""
        degree = self._degree
        if degree is None:
            degree = self._degree = max(map(mono_degree, self.terms), default=0)
        return degree

    def families_used(self) -> set:
        return {fam for mono in self.terms for (fam, _), _ in mono}

    def _split(self, families: tuple) -> list:
        """Per term: (dense vector of ``families``, the rest of the monomial, coefficient)."""
        D = self.vs.D
        blocks = {family: pos * D - 1 for pos, family in enumerate(families)}
        out = []
        for mono, coeff in self.terms.items():
            exps = [0] * (D * len(blocks))
            rest = []
            for item in mono:
                (family, index), e = item
                base = blocks.get(family)
                if base is None:
                    rest.append(item)
                else:
                    exps[base + index] = e
            out.append((tuple(exps), tuple(rest), coeff))
        return out

    def dense(self, *families) -> dict:
        """``{exponent vector: coefficient}``, one length-D block per family.

        The blocks are concatenated in the order given; a variable of any
        other family raises WorkspaceError.  The map is computed once per
        polynomial and shared, so callers must not write to it.
        """
        cached = self._dense
        if cached is not None and cached[0] == families:
            return cached[1]
        view = {}
        for exps, rest, coeff in self._split(families):
            if rest:
                raise WorkspaceError(
                    f"polynomial has variables outside the families {families}"
                )
            view[exps] = coeff
        self._dense = (families, view)
        return view

    def coefficients_in(self, families) -> dict:
        """Group terms by their exponents in ``families``.

        Returns a map from the dense vector of ``families`` (as in
        :meth:`dense`) to the cofactor Poly in the remaining variables.
        Splitting off the lam part of a bracket value is the caller.
        """
        out: dict = {}
        for exps, rest, coeff in self._split(tuple(families)):
            # (exps, rest) determines the monomial, so nothing cancels.
            out.setdefault(exps, {})[rest] = coeff
        return {key: Poly._trusted(self.vs, terms) for key, terms in out.items()}

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0]))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(_mono_str(mono))
            elif coeff == -1:
                parts.append(f"-{_mono_str(mono)}")
            else:
                parts.append(f"{coeff}*{_mono_str(mono)}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"


@lru_cache(maxsize=None)
def _dense_keys(D: int, family: str) -> _Memo:
    """{exps: monomial}: the stored monomial of each dense vector of one
    family, at most D long, filled only for the vectors asked for."""
    names = tuple((family, i) for i in range(1, D + 1))
    return _Memo(lambda exps: tuple((v, e) for v, e in zip(names, exps) if e))


@lru_cache(maxsize=None)
def _var(vs: VarSpace, family: str, index: int) -> Poly:
    # lru_cache stores no exception, so a bad variable raises on every call.
    vs.check_var(family, index)
    return Poly._trusted(vs, {(((family, index), 1),): 1})


def _quotient(n: int, den: int):
    """The exact coefficient n / den; no ``Fraction`` is built when den is 1."""
    return n if den == 1 else _exact(Fraction(n, den))


def _clear(*raws: dict) -> tuple:
    """(R, numerators): int dicts with raws[i] = numerators[i] / R, R least common denominator."""
    den = lcm(*(c.denominator for raw in raws for c in raw.values()))
    return den, tuple({e: c.numerator * (den // c.denominator) for e, c in raw.items()}
                      for raw in raws)


def _mul_add(out: dict, a: dict, b: dict, sign: int) -> dict:
    """``out[ma + mb] += sign * ca * cb`` over the packed terms of a and b; returns out.

    The shorter factor runs in the outer loop, so each of its terms pays the
    loop set-up once."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ma, ca in a.items():
        ca *= sign
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def shared_packing(vs: VarSpace, degree: int, tags: int = 0, r: int = 1) -> "Packing":
    """The one ``Packing(vs, degree, tags, r)`` of this process, built on
    first use; sharing it shares its memo of monomial keys and tag offsets."""
    return Packing(vs, degree, tags, r)


class Packing:
    """Monomials of one workspace packed into ints: ``{key: coefficient}`` dicts.

    Each variable owns a bit field of ``width = (2 * degree).bit_length()``
    bits, in (family order, index) order, so a monomial product is a key sum.
    :meth:`pack` admits total degree <= ``degree`` and :meth:`images` only
    homogeneous linear images, which keep total degree; so every exponent of
    a product of two packed polynomials is <= 2 * degree, and no field carries.
    A longer product is the caller's to bound: the closure check multiplies
    three factors whose variable families split so that each exponent still
    stays <= 2 * degree (``pseudo.sd_closure_check``).

    Above them sit ``tags`` tag fields, each wide enough for ``r - 1``.  When
    each tag field of a product is set (:meth:`add_tagged`) by one factor
    only, the caller's to keep as the degree bound is, a product of tagged
    sums holds every product of their summands, and :meth:`split` sorts it
    by tag.

    A packing depends only on ``(vs, degree, tags, r)``; callers take the
    shared one of :func:`shared_packing`.  It memoizes the key of every
    monomial it packs and the offset of every tag tuple it sets, so checks
    of one shape pay each only once per process.
    """

    def __init__(self, vs: VarSpace, degree: int, tags: int = 0, r: int = 1):
        self.vs, self.degree, self.r = vs, degree, r
        self.width = (2 * degree).bit_length()
        self.mask = (1 << self.width) - 1
        families = sorted(vs.families, key=_FAMILY_POS.__getitem__)
        order = [(family, i) for family in families for i in range(1, vs.D + 1)]
        self.shifts = shifts = {var: pos * self.width for pos, var in enumerate(order)}
        base, tag_width = len(order) * self.width, (r - 1).bit_length()
        self.tag_shifts = tuple(base + t * tag_width for t in range(tags))
        self.monomial_mask, self.tag_mask = (1 << base) - 1, (1 << tag_width) - 1
        self.keys = _Memo(lambda mono: sum(e << shifts[v] for v, e in mono))
        self.offsets = _Memo(self._offset)

    def pack(self, poly: Poly, degree: Optional[int] = None) -> dict:
        """``poly`` packed; ``degree`` is its total degree when the caller has
        already read it.  A degree above the packing's raises ValueError."""
        if degree is None:
            degree = poly.total_degree()
        if degree > self.degree:
            raise ValueError(f"total degree {degree} exceeds {self.degree}")
        keys = self.keys
        return {keys[mono]: c for mono, c in poly.terms.items()}

    def images(self, assignment: Mapping) -> tuple:
        """``(mask of the substituted fields, [(shift, packed image)])``, checked once."""
        mask, fields = 0, []
        for var, value in assignment.items():
            self.vs.check_var(*var)
            if not isinstance(value, Poly) or value.vs != self.vs:
                raise WorkspaceError("substitution images are polys over the workspace")
            if any(mono_degree(mono) != 1 for mono in value.terms):
                raise ValueError(f"image {value} of {var} is not homogeneous linear")
            mask |= self.mask << self.shifts[var]
            fields.append((self.shifts[var], self.pack(value, 1 if value else 0)))
        return mask, fields

    def subst(self, terms: dict, images: tuple, cache: dict) -> dict:
        """Substitute ``images``, keeping tag fields; ``cache`` (one per images)
        maps ``key & mask`` to its image."""
        mask, fields = images
        out: dict = {}
        get = out.get
        for key, coeff in terms.items():
            part = key & mask
            image = cache.get(part)
            if image is None:
                image = {0: 1}
                for shift, value in fields:
                    for _ in range(part >> shift & self.mask):
                        image = _mul_add({}, image, value, 1)
                image = cache[part] = {m: c for m, c in image.items() if c}
            rest = key - part
            for m, c in image.items():
                m += rest
                out[m] = get(m, 0) + coeff * c
        return {m: c for m, c in out.items() if c}

    def add_tagged(self, out: dict, terms: dict, values: tuple) -> dict:
        """``out[key + tag] += c`` over ``terms``, the tag setting one of
        ``values`` per tag field (None leaves a field 0); returns out."""
        offset = self.offsets[values]
        get = out.get
        for key, c in terms.items():
            key += offset
            out[key] = get(key, 0) + c
        return out

    def _offset(self, values: tuple) -> int:
        if len(values) != len(self.tag_shifts) or {*values} - {None, *range(self.r)}:
            raise ValueError(f"tag values {values} do not fit the tag fields of range({self.r})")
        return sum(v << shift for shift, v in zip(self.tag_shifts, values) if v is not None)

    def split(self, terms: dict) -> dict:
        """``{tag tuple: {monomial key: c}}`` of a tagged sum, nonzero c only."""
        low, mask, out = self.monomial_mask, self.tag_mask, {}
        for key, c in terms.items():
            if c:
                out.setdefault(tuple(key >> s & mask for s in self.tag_shifts), {})[key & low] = c
        return out

    def unpack(self, terms: dict) -> Poly:
        mask, out = self.mask, {}
        for key, c in terms.items():
            if c:
                mono = ((var, key >> shift & mask) for var, shift in self.shifts.items())
                out[tuple(item for item in mono if item[1])] = c
        return Poly._trusted(self.vs, out)
