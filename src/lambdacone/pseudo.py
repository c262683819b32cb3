"""Lie pseudoalgebras presented by bracket tables over C[T_1..T_D].

A bracket value is a polynomial in the lam-family variables with
coefficients in the free module over C[T].  One type, :class:`LambdaPoly`,
holds every such value flattened to ``generator index -> Poly in (T, lam)``;
a :class:`ModuleElement` is the case with no lam.  Values are validated once,
when built from outside data; sums and scalar multiples are not re-checked.
With that representation the two sesquilinearity rules, the skewsymmetry
substitution lam -> -T-lam and the Jacobi identity all become plain
polynomial substitutions, and every axiom check is an exact symbolic-zero
assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping

from .errors import WorkspaceError
from .linalg import kernel_basis
from .report import CheckReport, Failure
from .rings import (Poly, VarSpace, _clear, _dense_keys, _Memo, _mono_str, _mul_add, _no_float,
                    dense_key, shared_packing)

PSEUDO_FAMILIES = ("T", "lam", "mu")


@lru_cache(maxsize=None)
def pseudo_space(D: int) -> VarSpace:
    """The (T, lam, mu) workspace in D dimensions, one shared instance per D."""
    return VarSpace(D, PSEUDO_FAMILIES)


class LambdaPoly:
    """A bracket value [a lam b]: a polynomial in lam over the free module C[T]^r.

    Stored flattened as ``generator index -> nonzero Poly in (T, lam)``; the
    lam-graded view is available through :meth:`lambda_terms`.  The public
    constructor validates indices and workspaces and drops zero coordinates.
    Sums, negation and scalar multiples are built with :meth:`_trusted`,
    since they cannot break those invariants; a polynomial factor and a
    substitution go back through ``type(self)(...)``, so a subclass keeps
    its own invariant under both.
    """

    __slots__ = ("vs", "r", "coords")

    def __init__(self, vs: VarSpace, r: int, coords: Mapping):
        clean = {}
        for k, poly in coords.items():
            if not 0 <= k < r:
                raise ValueError(f"generator index {k} out of range")
            if not isinstance(poly, Poly):
                poly = vs.const(poly)
            if poly.vs != vs:
                raise WorkspaceError("coordinate in a different workspace")
            if poly:
                clean[k] = poly
        self.vs = vs
        self.r = r
        self.coords = clean

    @classmethod
    def _trusted(cls, vs: VarSpace, r: int, coords: dict):
        """Wrap ``coords`` as is: the caller guarantees the invariants of ``cls``."""
        value = object.__new__(cls)
        value.vs = vs
        value.r = r
        value.coords = coords
        return value

    @classmethod
    def zero(cls, vs: VarSpace, r: int):
        return cls._trusted(vs, r, {})

    def __add__(self, other):
        if other.vs != self.vs or other.r != self.r:
            raise WorkspaceError("values belong to different pseudoalgebra workspaces")
        out = dict(self.coords)
        for k, poly in other.coords.items():
            total = out.get(k)
            total = poly if total is None else total + poly
            if total:
                out[k] = total
            else:
                del out[k]
        # A sum with a lam-dependent value is no longer a module element.
        cls = type(self) if type(other) is type(self) else LambdaPoly
        return cls._trusted(self.vs, self.r, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)._trusted(self.vs, self.r, {k: -p for k, p in self.coords.items()})

    def scale(self, factor):
        """Multiply by a scalar or by a polynomial factor."""
        if type(factor) in (int, Fraction):
            if not factor:
                return type(self)._trusted(self.vs, self.r, {})
            return type(self)._trusted(
                self.vs, self.r, {k: p.scale(factor) for k, p in self.coords.items()}
            )
        return type(self)(self.vs, self.r, {k: p * factor for k, p in self.coords.items()})

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def subst(self, assignment: Mapping):
        return type(self)(
            self.vs, self.r, {k: p.subst(assignment) for k, p in self.coords.items()}
        )

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.vs == other.vs and self.r == other.r and self.coords == other.coords

    def lambda_terms(self) -> dict:
        """Map dense lam exponent vector -> ModuleElement coefficient."""
        out: dict = {}
        for k, poly in self.coords.items():
            for lam_exps, cofactor in poly.coefficients_in(("lam",)).items():
                out.setdefault(lam_exps, {})[k] = cofactor
        return {
            exps: ModuleElement(self.vs, self.r, coords) for exps, coords in out.items()
        }

    def format(self, names=None) -> str:
        if not self.coords:
            return "0"
        parts = []
        for k in sorted(self.coords):
            name = names[k] if names else f"a{k + 1}"
            text = str(self.coords[k])
            parts.append(name if text == "1" else f"({text})*{name}")
        return " + ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class ModuleElement(LambdaPoly):
    """An element of the free module C[T]^r: a bracket value with no lam.

    Its coordinates are checked to be polynomials in T at construction.
    Every inherited operation keeps that invariant: sums, negation and
    scalar multiples cannot introduce lam, and a polynomial factor or a
    substitution is re-checked, so ``scale(lam)`` raises WorkspaceError.
    """

    __slots__ = ()

    def __init__(self, vs: VarSpace, r: int, coords: Mapping):
        super().__init__(vs, r, coords)
        for poly in self.coords.values():
            if not poly.families_used() <= {"T"}:
                raise WorkspaceError("module coordinates must be polynomials in T")

    @classmethod
    def generator(cls, vs: VarSpace, r: int, k: int) -> "ModuleElement":
        return cls(vs, r, {k: vs.one})

    def mul_T(self, alpha: int) -> "ModuleElement":
        # T_alpha times a nonzero T-polynomial is a nonzero T-polynomial.
        T = self.vs.var("T", alpha)
        return ModuleElement._trusted(
            self.vs, self.r, {k: p * T for k, p in self.coords.items()}
        )

    def __hash__(self):
        return hash((self.vs, self.r, tuple(sorted(self.coords.items()))))

    def _int_view(self) -> tuple:
        """(den, {(k, T exponents): int}) with self = numerators / den, den
        least: the integer form in which ``cone`` sums module coefficients."""
        den, (numerators,) = _clear({(k, exps): c for k, p in self.coords.items()
                                     for exps, c in p.dense("T").items()})
        return den, numerators

    def _from_int_view(self, den: int, numerators: dict) -> "ModuleElement":
        """numerators / den, in the form of :meth:`_int_view`, over this
        element's workspace; an int stays an int when den is 1."""
        by_generator: dict = {}
        for (k, exps), n in numerators.items():
            by_generator.setdefault(k, {})[exps] = n
        vs = self.vs
        polys = ((k, vs._from_numerators("T", den, terms)) for k, terms in by_generator.items())
        return ModuleElement._trusted(vs, self.r, {k: p for k, p in polys if p})


@lru_cache(maxsize=None)
def _monomial_texts(D: int) -> _Memo:
    """{T exponent vector: (its ``dense_key``, its text as ``Poly.__str__``
    writes it)}, filled only for the vectors asked for."""
    keys = _dense_keys(D, "T")
    return _Memo(lambda exps: (dense_key(exps), _mono_str(keys[exps])))


def _format_int_view(den: int, numerators: Mapping, names=None) -> str:
    """The text of ``ModuleElement.format(names)`` for the element
    numerators / den, given in the form of :meth:`ModuleElement._int_view`
    (den > 0 need not be least, and a zero numerator is skipped), without
    building the element: each coefficient is reduced by one gcd and written
    as ``str`` writes an int or a ``Fraction``, the terms of a coordinate in
    ``dense_key`` order, and ``+ -`` rewritten as ``Poly.__str__`` does."""
    coords: dict = {}
    for (k, exps), n in numerators.items():
        if n:
            coords.setdefault(k, []).append((exps, n))
    if not coords:
        return "0"
    texts = _monomial_texts(len(exps))  # every vector is D long
    parts = []
    for k in sorted(coords):
        terms = []
        for (_, mono), n in sorted((texts[exps], n) for exps, n in coords[k]):
            g = gcd(n, den)
            coeff = str(n // g) if g == den else f"{n // g}/{den // g}"
            if mono == "1":
                terms.append(coeff)
            elif coeff == "1":
                terms.append(mono)
            elif coeff == "-1":
                terms.append(f"-{mono}")
            else:
                terms.append(f"{coeff}*{mono}")
        text = " + ".join(terms).replace("+ -", "- ")
        name = names[k] if names else f"a{k + 1}"
        parts.append(name if text == "1" else f"({text})*{name}")
    return " + ".join(parts)


@dataclass(frozen=True)
class ChiVector:
    """Rational vector chi entering the divergence constraint of S(D, chi)."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(_no_float(v)) for v in self.values))

    @classmethod
    def zero(cls, D: int) -> "ChiVector":
        return cls((0,) * D)

    @classmethod
    def unit(cls, D: int, alpha: int) -> "ChiVector":
        """The unit vector e_alpha, 1 <= alpha <= D."""
        if not 1 <= alpha <= D:
            raise ValueError(f"unit index {alpha} out of range 1..{D}")
        return cls(tuple(Fraction(int(i == alpha - 1)) for i in range(D)))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


class LieStructure:
    """Finite-dimensional Lie algebra given by structure constants.

    ``table`` is its D = 0 bracket table, with generators named "1".."n".
    Antisymmetry and the Jacobi identity are validated at construction by
    the skew and Jacobi checks of that table, so a LieStructure is a
    certificate, not a claim.
    """

    def __init__(self, dim: int, constants: Mapping):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        c: dict = {}
        for (i, j, k), value in constants.items():
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(f"index {idx} out of range for dim {dim}")
            value = Fraction(_no_float(value))
            if value:
                c[(i, j, k)] = value
        self.c = c
        self.table = _constant_table(self, 0, tuple(str(i + 1) for i in range(dim)))
        for report in (skew_check(self.table), jacobi_check(self.table)):
            if not report.passed:
                raise ValueError(
                    f"structure constants fail {report.name} at {report.failures[0].label}"
                )

    @classmethod
    def sl2(cls) -> "LieStructure":
        """Basis (e, h, f): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
        return cls(
            3,
            {
                (0, 2, 1): 1, (2, 0, 1): -1,
                (1, 0, 0): 2, (0, 1, 0): -2,
                (1, 2, 2): -2, (2, 1, 2): 2,
            },
        )


def _generator_names(generators) -> tuple:
    """``generators`` as a tuple, checked nonempty with unique names."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("generator list must be nonempty")
    if len(set(generators)) != len(generators):
        raise ValueError("generator names must be unique")
    return generators


class BracketTable:
    """Presentation of a Lie pseudoalgebra: D, generators and all pair brackets."""

    def __init__(self, D: int, generators, entries: Mapping):
        if D < 0:
            raise ValueError("D must be >= 0")
        generators = _generator_names(generators)
        self.D = D
        self.vs = pseudo_space(D)
        self.generators = generators
        r = len(generators)
        table: dict = {}
        for i in range(r):
            for j in range(r):
                entry = entries.get((i, j))
                if entry is None:
                    entry = LambdaPoly.zero(self.vs, r)
                if entry.vs != self.vs or entry.r != r:
                    raise WorkspaceError("entry in a different workspace")
                for poly in entry.coords.values():
                    if not poly.families_used() <= {"T", "lam"}:
                        raise WorkspaceError("bracket entries must live in (T, lam)")
                table[(i, j)] = entry
        stray = [key for key in entries if key not in table]
        if stray:
            raise ValueError(f"entry keys {stray} lie outside range({r})^2")
        self.entries = table

    @property
    def r(self) -> int:
        return len(self.generators)

    def entry(self, i: int, j: int) -> LambdaPoly:
        return self.entries[(i, j)]

    def generator_element(self, k) -> ModuleElement:
        if isinstance(k, str):
            k = self.generators.index(k)
        return ModuleElement.generator(self.vs, self.r, k)

    def element(self, coords: Mapping) -> ModuleElement:
        """Module element from ``{generator name or index: T-polynomial}``."""
        resolved = {}
        for key, poly in coords.items():
            k = self.generators.index(key) if isinstance(key, str) else key
            resolved[k] = poly
        return ModuleElement(self.vs, self.r, resolved)

    def __eq__(self, other):
        if not isinstance(other, BracketTable):
            return NotImplemented
        return (
            self.D == other.D
            and self.generators == other.generators
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"BracketTable(D={self.D}, generators={self.generators})"


# ----------------------------------------------------------------------
# constructors for the standard families
# ----------------------------------------------------------------------

def _constant_table(g: LieStructure, D: int, names: tuple) -> BracketTable:
    """The table over C[T_1..T_D] whose generator brackets are g's structure constants."""
    vs = pseudo_space(D)
    entries: dict = {}
    for (i, j, k), value in g.c.items():
        entries.setdefault((i, j), {})[k] = vs.const(value)
    return BracketTable(
        D, names, {key: LambdaPoly(vs, g.dim, coords) for key, coords in entries.items()}
    )


def build_cur(g: LieStructure, D: int) -> BracketTable:
    """Current pseudoalgebra over a Lie algebra: generator brackets are constant."""
    names = tuple(f"x{i + 1}" for i in range(g.dim)) if g.dim != 3 else ("e", "h", "f")
    return _constant_table(g, D, names)


def build_wd(D: int) -> BracketTable:
    """W(D): generators L^1..L^D with bracket (T_a + lam_a) L^b + lam_b L^a."""
    if D < 1:
        raise ValueError("W(D) needs D >= 1")
    vs = pseudo_space(D)
    names = tuple(f"L{a + 1}" for a in range(D))
    entries = {}
    for a in range(D):
        for b in range(D):
            coords: dict = {}
            coords[b] = vs.var("T", a + 1) + vs.var("lam", a + 1)
            coords[a] = coords.get(a, vs.zero) + vs.var("lam", b + 1)
            entries[(a, b)] = LambdaPoly(vs, D, coords)
    return BracketTable(D, names, entries)


def build_hd(D: int) -> BracketTable:
    """H(D), D even: one generator with bracket sum(lam_a T_{a+D/2} - lam_{a+D/2} T_a) L."""
    if D < 2 or D % 2:
        raise ValueError("H(D) needs even D >= 2")
    vs = pseudo_space(D)
    half = D // 2
    poly = vs.zero
    for a in range(1, half + 1):
        poly = poly + vs.var("lam", a) * vs.var("T", a + half)
        poly = poly - vs.var("lam", a + half) * vs.var("T", a)
    entries = {(0, 0): LambdaPoly(vs, 1, {0: poly})}
    return BracketTable(D, ("L",), entries)


def current_extend(table: BracketTable, Dprime: int) -> BracketTable:
    """Base extension to more T variables, keeping the same bracket."""
    if Dprime <= table.D:
        raise ValueError(f"target dimension {Dprime} must exceed {table.D}")
    vs = pseudo_space(Dprime)
    r = table.r
    entries = {}
    for key, entry in table.entries.items():
        entries[key] = LambdaPoly(
            vs, r, {k: p.reinterpret(vs) for k, p in entry.coords.items()}
        )
    return BracketTable(Dprime, table.generators, entries)


# ----------------------------------------------------------------------
# the sesquilinear extension and the axiom checkers
# ----------------------------------------------------------------------

def _shift_T_by(vs: VarSpace, family: str) -> dict:
    return {
        ("T", a): vs.var("T", a) + vs.var(family, a) for a in range(1, vs.D + 1)
    }


def _neg_lam(vs: VarSpace) -> dict:
    return {("T", a): -vs.var("lam", a) for a in range(1, vs.D + 1)}


def _images(element: ModuleElement, assignment: dict) -> list:
    """The (generator index, substituted coordinate) pairs of an element."""
    return [(k, poly.subst(assignment)) for k, poly in element.coords.items()]


def bracket_extend(table: BracketTable, x: ModuleElement, y: ModuleElement) -> LambdaPoly:
    """Bracket of arbitrary module elements via sesquilinearity.

    [P(T)a_i lam Q(T)a_j] = P(-lam) * Q(T+lam) * [a_i lam a_j], the product
    taken coordinate-wise in C[T, lam].
    """
    vs = table.vs
    if x.vs != vs or y.vs != vs or x.r != table.r or y.r != table.r:
        raise WorkspaceError("elements do not live over this bracket table")
    return _bracket_of_images(
        table, _images(x, _neg_lam(vs)), _images(y, _shift_T_by(vs, "lam"))
    )


def _bracket_of_images(table: BracketTable, x_images: list, y_images: list) -> LambdaPoly:
    """The bracket from the images P(-lam) of x and Q(T+lam) of y."""
    coords: dict = {}
    for i, P_neg in x_images:
        for j, Q_shift in y_images:
            factor = P_neg * Q_shift
            for k, poly in table.entry(i, j).coords.items():
                term = poly * factor
                total = coords.get(k)
                coords[k] = term if total is None else total + term
    return LambdaPoly(table.vs, table.r, coords)


def _packed_entries(table: BracketTable, tags: int = 0) -> tuple:
    """The shared packing (``rings.shared_packing``) for the table's entries
    and their pairwise products, with ``tags`` tag fields, and each entry
    packed.  Tables of one shape (workspace, largest entry degree, r) get the
    same packing, with its memo of monomial keys; each entry's total degree
    is read once per polynomial (``Poly.total_degree``), to size the packing
    and to pack it."""
    entries = {key: [(k, p, p.total_degree()) for k, p in entry.coords.items()]
               for key, entry in table.entries.items()}
    degree = max([1] + [d for coords in entries.values() for _, _, d in coords])
    packing = shared_packing(table.vs, degree, tags, table.r)
    return packing, {key: [(k, packing.pack(p, d)) for k, p, d in coords]
                     for key, coords in entries.items()}


def _check_assignments(vs: VarSpace, check: str) -> tuple:
    """The substitutions that ``check`` runs on packed terms."""
    var, ids = vs.var, range(1, vs.D + 1)
    if check == "skew":
        return ({("lam", a): -var("T", a) - var("lam", a) for a in ids},)
    if check == "closure":
        return (_neg_lam(vs),)
    # Jacobi: inner [a_i lam .], inner [a_j mu .], outer [. mu a_k] renamed,
    # the composed bracket's first slot at -(lam+mu), its variable lam+mu.
    rename_mu = {("lam", a): var("mu", a) for a in ids}
    return ({**rename_mu, **_shift_T_by(vs, "lam")}, _shift_T_by(vs, "mu"), rename_mu,
            {("T", a): -var("lam", a) - var("mu", a) for a in ids},
            {("lam", a): var("lam", a) + var("mu", a) for a in ids})


@lru_cache(maxsize=None)
def _substitutions(vs: VarSpace, degree: int, check: str) -> tuple:
    """``(images, cache)`` of each substitution of ``check``, for ``Packing.subst``.

    Built on a check's first call per workspace and packing degree, then
    shared: the images and the cache of substituted parts read only the
    monomial fields, which every packing of ``(vs, degree)`` lays out alike,
    whatever its tag fields.
    """
    packing = shared_packing(vs, degree)
    return tuple((packing.images(assignment), {})
                 for assignment in _check_assignments(vs, check))


def skew_check(table: BracketTable) -> CheckReport:
    """Assert [a_i lam a_j] + [a_j (-T-lam) a_i] = 0 for all generator pairs.

    Runs on packed monomials (``rings.Packing``): each entry is packed and
    substituted once, under the flip images shared by every check of the
    same packing degree (``_substitutions``), and each flipped partner is
    added straight into its pair's residual (``Packing.add_tagged`` with no
    tag); only failing residuals are unpacked, for witnesses.  Tables of one
    shape share the packing and its memo of monomial keys.
    """
    vs = table.vs
    packing, packed = _packed_entries(table)
    ((flip, cache),) = _substitutions(vs, packing.degree, "skew")
    flipped = {key: [(k, packing.subst(p, flip, cache)) for k, p in coords]
               for key, coords in packed.items()}
    failures = []
    records = []
    for i in range(table.r):
        for j in range(table.r):
            label = f"({table.generators[i]},{table.generators[j]})"
            residual: dict = {}
            for k, p in packed[(i, j)] + flipped[(j, i)]:
                packing.add_tagged(residual.setdefault(k, {}), p, ())
            bad = any(any(terms.values()) for terms in residual.values())
            records.append((label, not bad))
            if bad:
                coords = {k: packing.unpack(terms) for k, terms in residual.items()}
                witness = LambdaPoly(vs, table.r, coords).format(table.generators)
                failures.append(Failure(label, witness))
    return CheckReport("skew", tuple(failures), records=tuple(records))


def jacobi_check(table: BracketTable) -> CheckReport:
    """Assert [a_i lam [a_j mu a_k]] - [a_j mu [a_i lam a_k]] = [[a_i lam a_j]_(lam+mu) a_k].

    All three terms are assembled in C[T, lam, mu] by polynomial substitution:
    second-slot sesquilinearity shifts T by the outer bracket variable, and
    the first slot of the composed bracket evaluates its T-coefficients at
    -(lam+mu).  It runs on packed monomials (``rings.Packing``) with the
    generator indices (j, k, l) in three tag fields: per first generator i,
    each term is one product per contracted generator kp of two tagged sums,
    each setting the tags it knows, and those 3 * r products split by tag
    into the residuals of all r^2 triples (i, j, k).  Each packed entry is
    added with its tags straight into the sums, and each of the five
    substitutions meets each packed entry once, inside a tagged sum; only
    failing residuals are unpacked, for witnesses.  The packing and the
    five substitution images are shared by every check of the same shape,
    so a check of a known shape builds neither.
    """
    vs, r, names = table.vs, table.r, table.generators
    packing, packed = _packed_entries(table, 3)
    inner_lam, inner_mu, outer_mu, inner_sum, outer_sum = _substitutions(
        vs, packing.degree, "jacobi")
    add_tagged = packing.add_tagged

    def sums(items, substitution=None):
        # Per kp, the sum of its (kp, tag values, p) items tagged, then substituted.
        out = [{} for _ in range(r)]
        for kp, values, p in items:
            add_tagged(out[kp], p, values)
        return [packing.subst(p, *substitution) for p in out] if substitution else out

    # (a, b, c, p): p is coordinate c of [a_a lam a_b].  The factors tagged
    # (j, k), (j, l) and (k, l) do not depend on i; those tagged l, k, j do.
    coords = [(a, b, c, p) for (a, b), ps in packed.items() for c, p in ps]
    lam_left = sums(((c, (a, b, None), p) for a, b, c, p in coords), inner_lam)
    mu_right = sums(((b, (a, None, c), p) for a, b, c, p in coords), outer_mu)
    sum_right = sums(((a, (None, b, c), p) for a, b, c, p in coords), outer_sum)
    failures = []
    records = []
    for i in range(r):
        row = [(b, c, p) for b in range(r) for c, p in packed[(i, b)]]
        lam_right = sums((b, (None, None, c), p) for b, c, p in row)
        mu_left = sums(((c, (None, b, None), p) for b, c, p in row), inner_mu)
        sum_left = sums(((c, (b, None, None), p) for b, c, p in row), inner_sum)
        # [a_i lam [a_j mu a_k]] - [a_j mu [a_i lam a_k]] - [[a_i lam a_j]_(lam+mu) a_k]
        residual: dict = {}
        for kp in range(r):
            _mul_add(residual, lam_left[kp], lam_right[kp], 1)
            _mul_add(residual, mu_left[kp], mu_right[kp], -1)
            _mul_add(residual, sum_left[kp], sum_right[kp], -1)
        nonzero: dict = {}
        for (j, k, l), terms in packing.split(residual).items():
            nonzero.setdefault((j, k), []).append((l, terms))
        for j in range(r):
            for k in range(r):
                label = f"({names[i]},{names[j]},{names[k]})"
                bad = nonzero.get((j, k))
                records.append((label, not bad))
                if bad:
                    polys = sorted((l, packing.unpack(terms)) for l, terms in bad)
                    witness = " + ".join(f"({p})*{names[l]}" for l, p in polys)
                    failures.append(Failure(label, witness))
    return CheckReport("jacobi", tuple(failures), records=tuple(records))


# ----------------------------------------------------------------------
# S(D, chi): the divergence-free subalgebra of W(D)
# ----------------------------------------------------------------------

def sd_divergence(table: BracketTable, x: ModuleElement, chi: ChiVector) -> Poly:
    """The divergence symbol sum_a P_a * (T_a + chi_a) for x = sum_a P_a L^a.

    The product is taken in C[T]: under the symbol correspondence between
    T_a and the coordinate derivations this is the divergence of the vector
    field carried by x.  Zero iff x belongs to S(D, chi); that membership is
    stable under the W(D) bracket, which is what :func:`sd_closure_check`
    verifies.
    """
    D = table.D
    if table != build_wd(D):
        raise ValueError("divergence is defined on the W(D) presentation")
    if len(chi) != D:
        raise ValueError(f"chi must have length {D}")
    return _divergence(x, _symbol_factors(table.vs, chi))


def _symbol_factors(vs: VarSpace, chi: ChiVector) -> list:
    """The factors T_a + chi_a of the divergence symbol, a = 1..D."""
    return [vs.var("T", a + 1) + vs.const(chi[a]) for a in range(vs.D)]


def _divergence(x: LambdaPoly, factors: list) -> Poly:
    total = x.vs.zero
    for a, P in x.coords.items():
        total = total + P * factors[a]
    return total


def sd_basis(D: int, chi: ChiVector, degmax: int) -> list:
    """Canonical basis of divergence-free elements of T-degree <= degmax.

    The divergence sends T^e L^a to T^(e + e_a) + chi_a T^e, so its matrix is
    written down in closed form: the column (a, T^e) has 1 at the row of
    e + e_a and chi_a at the row of e.  The basis is the reduced echelon
    basis of its kernel (``linalg.kernel_basis``).
    """
    if len(chi) != D:
        raise ValueError(f"chi must have length {D}")
    if degmax < 0:
        raise ValueError("degmax must be >= 0")
    vs = pseudo_space(D)
    # The divergence raises degree by one, so images live in degree <= degmax + 1.
    monos = [m for deg in range(degmax + 2) for m in vs.monomials_of_degree("T", deg)]
    mono_index = {m: idx for idx, m in enumerate(monos)}
    columns = [(a, m) for a in range(D) for m in monos if sum(m) <= degmax]
    matrix = [[0] * len(columns) for _ in monos]
    for col, (a, exps) in enumerate(columns):
        raised = exps[:a] + (exps[a] + 1,) + exps[a + 1:]
        matrix[mono_index[raised]][col] = 1
        matrix[mono_index[exps]][col] = chi[a]
    basis = []
    for vector in kernel_basis(matrix, len(columns)):
        coords: dict = {}
        for col, value in enumerate(vector):
            if value:
                a, exps = columns[col]
                coords.setdefault(a, {})[exps] = value
        basis.append(ModuleElement(vs, D, {a: vs.from_dense("T", raw) for a, raw in coords.items()}))
    return basis


def sd_closure_check(D: int, chi: ChiVector, degmax: int) -> CheckReport:
    """Check that brackets of divergence-free elements stay divergence-free.

    Every lam-coefficient of every pairwise bracket of basis elements of
    T-degree <= degmax must have zero divergence.  The factors T_k + chi_k
    of the divergence contain no lam, so for x = sum_a P_a L^a and
    y = sum_b Q_b L^b the divergences of the lam-coefficients of [x lam y]
    are the lam-coefficients of

        R = sum_{a,b} P_a(-lam) Q_b(T+lam) E_ab,
        E_ab = sum_k [L^a lam L^b]_k (T_k + chi_k).

    The change of variables T -> T - lam is a ring automorphism of
    C[T, lam], so R = 0 exactly when S = sum_b Q_b(T) A_{x,b} = 0 with
    A_{x,b} = sum_a P_a(-lam) E_ab(T - lam, lam).  The D^2 entries E_ab are
    substituted once per check.  The basis indices x and y ride in two tag
    fields, so the A_{x,b} of every x come out of D^2 products of tagged sums
    and the S of every pair out of D more, split by tag.

    It runs on packed monomials (``rings.Packing``) with int coefficients:
    each basis element is packed once, cleared of denominators, and serves
    both as its P_a (before the substitution T -> -lam, a packed substitution
    whose images and cache every closure check of the same packing degree
    shares) and as its Q_b, tagged straight into the sums; the
    E_ab(T - lam, lam) are packed once and cleared with one shared
    denominator.  A nonzero scale of x, y
    or E scales S and leaves its zero test unchanged.  The packing degree is
    the largest total degree m among the packed polynomials, not ``degmax``.
    That is enough although S multiplies three factors: P_a(-lam) has only
    lam and Q_b only T, and deg E_ab <= m, so every exponent of S is at most
    2 * m; and each tag field is set by one factor.  A pair passes when its
    packed S has no nonzero coefficient; the witnesses of a failing pair come
    from its unscaled bracket, one per lam-monomial whose coefficient has
    nonzero divergence.
    """
    if degmax < 1:
        raise ValueError("degmax must be >= 1")
    table = build_wd(D)
    vs = table.vs
    basis = sd_basis(D, chi, degmax)
    neg_lam, shift = _neg_lam(vs), _shift_T_by(vs, "lam")
    unshift = {("T", a): vs.var("T", a) - vs.var("lam", a) for a in range(1, D + 1)}
    factors = _symbol_factors(vs, chi)
    # E_ab(T - lam, lam): the composed divergence of [L^a lam L^b].
    composed = {
        key: _divergence(entry, factors).subst(unshift)
        for key, entry in table.entries.items()
    }
    # Each polynomial's total degree is scanned once, to size the packing
    # and to pack it.
    scanned = [[(p, p.total_degree()) for p in polys]
               for polys in [composed.values()] + [x.coords.values() for x in basis]]
    degree = max(d for polys in scanned for _, d in polys)
    packing = shared_packing(vs, degree, 2, len(basis))
    cleared = [_clear(*(packing.pack(p, d) for p, d in polys))[1] for polys in scanned]
    composed = dict(zip(composed, cleared[0]))
    # Each basis element, packed and cleared once, gives its P_a and its Q_b.
    packed = [list(zip(x.coords, coords)) for x, coords in zip(basis, cleared[1:])]
    # Per generator a, the P_a tagged x and the Q_a tagged y of every basis
    # element; then per b, A_{x,b} of every x is one tagged sum over a, and
    # S of every pair is one product per b, split by tag.
    lefts, rights = [{} for _ in range(D)], [{} for _ in range(D)]
    for x, x_packed in enumerate(packed):
        for a, P in x_packed:
            packing.add_tagged(lefts[a], P, (x, None))
            packing.add_tagged(rights[a], P, (None, x))
    ((flip, cache),) = _substitutions(vs, degree, "closure")
    lefts = [packing.subst(P, flip, cache) for P in lefts]
    total: dict = {}
    for b in range(D):
        A: dict = {}
        for a in range(D):
            _mul_add(A, lefts[a], composed[(a, b)], 1)
        _mul_add(total, {m: c for m, c in A.items() if c}, rights[b], 1)
    nonzero = packing.split(total)
    failures = []
    records = []
    for i in range(len(basis)):
        for j in range(len(basis)):
            label = f"pair ({i},{j})"
            bad = (i, j) in nonzero
            records.append((label, not bad))
            if bad:
                bracket = _bracket_of_images(
                    table, _images(basis[i], neg_lam), _images(basis[j], shift)
                )
                for lam_exps, element in bracket.lambda_terms().items():
                    div = _divergence(element, factors)
                    if div:
                        lam_mono = vs.from_exps("lam", lam_exps)
                        failures.append(
                            Failure(f"{label} at lam-monomial {lam_mono}", str(div))
                        )
    detail = f"D={D}, chi={[str(v) for v in chi.values]}, degmax={degmax}, basis={len(basis)}"
    return CheckReport("closure", tuple(failures), detail, tuple(records))
