"""D = 1 formal distribution calculus.

The lam-bracket, the list of j-th products and the delta-function expansion
of a commutator are three encodings of the same data; this module converts
between them exactly and implements the locality rewrite
(z - w) * d_w^j delta / j! -> d_w^(j-1) delta / (j-1)!.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, NamedTuple

from .pseudo import LambdaPoly


def _require_d1(vs):
    if vs.D != 1:
        raise ValueError(f"this calculus is specific to D = 1, got D = {vs.D}")


def _d1_members(vs, members: Mapping, negative: str) -> dict:
    """The nonzero members of a D = 1 family indexed by j >= 0; a negative j
    raises ValueError(negative)."""
    _require_d1(vs)
    if any(j < 0 for j in members):
        raise ValueError(negative)
    return {j: element for j, element in members.items() if element}


class JthProductList:
    """The family a_(j) b, j >= 0, with finitely many nonzero members."""

    __slots__ = ("vs", "r", "products")

    def __init__(self, vs, r: int, products: Mapping):
        self.products = _d1_members(vs, products, "j-th products are indexed by j >= 0")
        self.vs = vs
        self.r = r

    def __eq__(self, other):
        if not isinstance(other, JthProductList):
            return NotImplemented
        return (self.vs, self.r, self.products) == (other.vs, other.r, other.products)

    def __repr__(self):
        inner = ", ".join(f"{j}: {el}" for j, el in sorted(self.products.items()))
        return f"JthProductList({{{inner}}})"


class DeltaDistribution:
    """sum_j c_j * d_w^j delta(z - w) / j! with module-valued coefficients c_j."""

    __slots__ = ("vs", "r", "parts")

    def __init__(self, vs, r: int, parts: Mapping):
        self.parts = _d1_members(vs, parts, "delta derivative order must be >= 0")
        self.vs = vs
        self.r = r

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if not isinstance(other, DeltaDistribution):
            return NotImplemented
        return (self.vs, self.r, self.parts) == (other.vs, other.r, other.parts)

    def __repr__(self):
        inner = ", ".join(f"{j}: {el}" for j, el in sorted(self.parts.items()))
        return f"DeltaDistribution({{{inner}}})"


def jth_from_lambda(L: LambdaPoly) -> JthProductList:
    """Read off a_(j) b = j! * (coefficient of lam^j)."""
    _require_d1(L.vs)
    products = {}
    for (j,), element in L.lambda_terms().items():
        products[j] = element.scale(factorial(j))
    return JthProductList(L.vs, L.r, products)


def lambda_from_jth(J: JthProductList) -> LambdaPoly:
    """Exact inverse of :func:`jth_from_lambda`."""
    vs = J.vs
    result = LambdaPoly.zero(vs, J.r)
    for j, element in J.products.items():
        factor = vs.from_exps("lam", (j,), Fraction(1, factorial(j)))
        result = result + LambdaPoly(element.vs, element.r, element.coords).scale(factor)
    return result


def commutator_from_lambda(L: LambdaPoly) -> DeltaDistribution:
    """[a(z), b(w)] = sum_j (a_(j) b)(w) d_w^j delta(z - w) / j!."""
    J = jth_from_lambda(L)
    return DeltaDistribution(J.vs, J.r, dict(J.products))


def delta_mul_pow(dist: DeltaDistribution, N: int) -> DeltaDistribution:
    """Multiply by (z - w)^N using the delta rewrite rules.

    One factor of (z - w) sends d_w^j delta / j! to d_w^(j-1) delta / (j-1)!
    and kills the j = 0 part; coefficients pass through unchanged since they
    depend on w only.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    parts = {j - N: c for j, c in dist.parts.items() if j >= N}
    return DeltaDistribution(dist.vs, dist.r, parts)


def locality_check(dist: DeltaDistribution) -> int:
    """Least N with (z - w)^N * dist = 0; equals 1 + max derivative order."""
    return 1 + max(dist.parts) if dist.parts else 0


class LaurentTerm(NamedTuple):
    """A single c * w^power term; power may be negative (two-sided series)."""

    coeff: Fraction
    power: int


def delta_pair(n: int, j: int) -> LaurentTerm:
    """Res_z z^n d_w^j delta(z - w) / j! = binom(n, j) w^(n - j).

    n ranges over all integers; the binomial is the generalized one
    (n)(n-1)...(n-j+1)/j!, so the result vanishes for 0 <= n < j.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    num = 1
    for i in range(j):
        num *= n - i
    return LaurentTerm(Fraction(num, factorial(j)), n - j)
