"""Line-oriented JSON files for algebra and structure definitions.

The first line is a header object carrying the kind, the dimension and the
generator names; every following line describes one bracket entry (for
pseudoalgebras), one structure constant (for Lie algebras) or one action
entry (for vertex Lie structures).  Rationals are numerator/denominator
string pairs and exponents are explicit dense vectors, so files are exact,
language-neutral and diffable; writers emit everything in a fixed canonical
order, making output byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cone import BiConeSeries, ConeSeries, harmonic_basis, iota_expand
from .pseudo import (
    BracketTable,
    ChiVector,
    LambdaPoly,
    LieStructure,
    ModuleElement,
    pseudo_space,
)
from .rings import Poly, dense_key
from .vla import VLAStructure


class AlgebraFileError(ValueError):
    """Malformed file or a violated structural invariant."""


@dataclass(frozen=True)
class LoadedAlgebra:
    kind: str
    obj: object
    chi: Optional[ChiVector] = None


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------

def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which are not indices."""
    return type(x) is int


def _frac_out(value) -> list:
    f = Fraction(value)
    return [str(f.numerator), str(f.denominator)]


def _frac_in(pair) -> Fraction:
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(p, str) for p in pair)
    ):
        raise AlgebraFileError(f"rational must be a [num, den] string pair, got {pair!r}")
    try:
        return Fraction(int(pair[0]), int(pair[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraFileError(f"bad rational {pair!r}: {exc}") from None


def _sorted_dense(terms: dict) -> list:
    return sorted(terms.items(), key=lambda kv: dense_key(kv[0]))


def _poly_out(poly: Poly, family: str = "T") -> list:
    return [[list(exps), _frac_out(c)] for exps, c in _sorted_dense(poly.dense(family))]


def _poly_in(data, vs, D: int) -> Poly:
    if not isinstance(data, list):
        raise AlgebraFileError("polynomial must be a list of [exps, coeff] pairs")
    terms = {}
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise AlgebraFileError(f"bad polynomial term {item!r}")
        exps, coeff = item
        if not isinstance(exps, list) or len(exps) != D or not all(
            _is_int(e) and e >= 0 for e in exps
        ):
            raise AlgebraFileError(f"bad exponent vector {exps!r}")
        if tuple(exps) in terms:
            raise AlgebraFileError(f"duplicate exponent vector {_dump(exps)}")
        terms[tuple(exps)] = _frac_in(coeff)
    return vs.from_dense("T", terms)


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise AlgebraFileError(f"unknown fields {sorted(unknown)} in {context}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------

def _entry_lines(generators: tuple, value_key: str, entry_terms) -> list:
    """One line per nonzero generator pair (i, j), whose ``entry_terms(i, j)``
    are (key written under ``value_key``, module element) pairs in file order."""
    lines = []
    for i in range(len(generators)):
        for j in range(len(generators)):
            terms = [
                {value_key: list(key), "gen": generators[k], "poly": _poly_out(element.coords[k])}
                for key, element in entry_terms(i, j)
                for k in sorted(element.coords)
            ]
            if terms:
                lines.append(_dump({"entry": [i + 1, j + 1], "terms": terms}))
    return lines


def serialize_table(table: BracketTable, chi: Optional[ChiVector] = None) -> str:
    header = {
        "kind": "pseudoalgebra",
        "D": table.D,
        "generators": list(table.generators),
    }
    if chi is not None:
        header["chi"] = [_frac_out(v) for v in chi.values]
    lines = [_dump(header)] + _entry_lines(
        table.generators, "lambda",
        lambda i, j: _sorted_dense(table.entry(i, j).lambda_terms()),
    )
    return "\n".join(lines) + "\n"


def serialize_lie(g: LieStructure, names=None) -> str:
    names = list(names) if names else [f"x{i + 1}" for i in range(g.dim)]
    header = {"kind": "lie", "dim": g.dim, "generators": names}
    lines = [_dump(header)]
    for (i, j, k) in sorted(g.c):
        lines.append(_dump({"c": [i + 1, j + 1, k + 1], "value": _frac_out(g.c[(i, j, k)])}))
    return "\n".join(lines) + "\n"


def serialize_vla(S: VLAStructure) -> str:
    header = {"kind": "vla", "D": S.D, "generators": list(S.generators)}
    lines = [_dump(header)] + _entry_lines(
        S.generators, "mode", lambda i, j: S.action(i, j).items()
    )
    return "\n".join(lines) + "\n"


def serialize_harmonic_basis(D: int, m: int, basis: tuple) -> str:
    header = {"kind": "harmonic-basis", "D": D, "m": m, "count": len(basis)}
    lines = [_dump(header)]
    for sigma, poly in enumerate(basis, start=1):
        lines.append(
            _dump({"sigma": sigma, "poly": _poly_out(poly, family="z")})
        )
    return "\n".join(lines) + "\n"


def serialize_iota(series: BiConeSeries, D: int, k: int, side: str, window: int) -> str:
    header = {"kind": "iota-expansion", "D": D, "k": k, "side": side, "window": window}
    lines = [_dump(header)]
    for (mz, mw), coeff in series.items():
        lines.append(_dump({"z": list(mz), "w": list(mw), "coeff": _frac_out(coeff)}))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------

def parse_algebra_text(text: str) -> LoadedAlgebra:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise AlgebraFileError("empty file")
    try:
        rows = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"invalid JSON: {exc}") from None
    header, body = rows[0], rows[1:]
    if not isinstance(header, dict) or "kind" not in header:
        raise AlgebraFileError("first line must be a header object with a 'kind'")
    kind = header["kind"]
    if kind == "lie":
        return _parse_lie(header, body)
    if kind == "pseudoalgebra":
        return _parse_table(header, body)
    if kind == "vla":
        return _parse_vla(header, body)
    raise AlgebraFileError(f"unknown kind {kind!r}")


def _names(header) -> list:
    names = header.get("generators")
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise AlgebraFileError("header must carry a nonempty generator name list")
    if len(set(names)) != len(names):
        raise AlgebraFileError("generator names must be unique")
    return names


def _parse_lie(header, body) -> LoadedAlgebra:
    _check_keys(header, {"kind", "dim", "generators"}, "lie header")
    names = _names(header)
    dim = header.get("dim")
    if not _is_int(dim) or dim != len(names):
        raise AlgebraFileError("dim must equal the number of generators")
    constants = {}
    for row in body:
        if not isinstance(row, dict):
            raise AlgebraFileError("body lines must be objects")
        _check_keys(row, {"c", "value"}, "lie entry")
        idx = row.get("c")
        if not isinstance(idx, list) or len(idx) != 3 or not all(map(_is_int, idx)):
            raise AlgebraFileError(f"bad structure-constant index {idx!r}")
        for x in idx:
            if not 1 <= x <= dim:
                raise AlgebraFileError(f"index {x} out of range for dim {dim}")
        key = tuple(x - 1 for x in idx)
        if key in constants:
            raise AlgebraFileError(f"duplicate structure constant [{','.join(map(str, idx))}]")
        constants[key] = _frac_in(row.get("value"))
    try:
        g = LieStructure(dim, constants)
    except ValueError as exc:
        raise AlgebraFileError(str(exc)) from None
    return LoadedAlgebra("lie", g)


def _parse_entry_terms(row, D, vs, names, value_key: str, seen: dict):
    """The 0-based key and the parsed terms of an entry line not yet in ``seen``."""
    _check_keys(row, {"entry", "terms"}, "entry line")
    idx = row.get("entry")
    if not isinstance(idx, list) or len(idx) != 2 or not all(map(_is_int, idx)):
        raise AlgebraFileError(f"bad entry index {idx!r}")
    i, j = idx[0] - 1, idx[1] - 1
    if not (0 <= i < len(names) and 0 <= j < len(names)):
        raise AlgebraFileError(f"entry index {idx!r} out of range")
    if (i, j) in seen:
        raise AlgebraFileError(f"duplicate entry [{idx[0]},{idx[1]}]")
    terms = row.get("terms")
    if not isinstance(terms, list):
        raise AlgebraFileError("'terms' must be a list")
    parsed = []
    term_keys = set()
    for term in terms:
        if not isinstance(term, dict):
            raise AlgebraFileError("terms must be objects")
        _check_keys(term, {value_key, "gen", "poly"}, "term")
        gen = term.get("gen")
        if gen not in names:
            raise AlgebraFileError(f"unknown generator {gen!r}")
        term_key = _dump({value_key: term.get(value_key), "gen": gen})
        if term_key in term_keys:
            raise AlgebraFileError(f"duplicate term {term_key} in entry [{idx[0]},{idx[1]}]")
        term_keys.add(term_key)
        poly = _poly_in(term.get("poly"), vs, D)
        parsed.append((term.get(value_key), names.index(gen), poly))
    return (i, j), parsed


def _parse_table(header, body) -> LoadedAlgebra:
    _check_keys(header, {"kind", "D", "generators", "chi"}, "pseudoalgebra header")
    names = _names(header)
    D = header.get("D")
    if not _is_int(D) or D < 0:
        raise AlgebraFileError("D must be a nonnegative integer")
    chi = None
    if "chi" in header:
        values = header["chi"]
        if not isinstance(values, list) or len(values) != D:
            raise AlgebraFileError("chi must be a list of D rationals")
        chi = ChiVector(tuple(_frac_in(v) for v in values))
    vs = pseudo_space(D)
    r = len(names)
    entries: dict = {}
    for row in body:
        if not isinstance(row, dict):
            raise AlgebraFileError("body lines must be objects")
        key, parsed = _parse_entry_terms(row, D, vs, names, "lambda", entries)
        value = LambdaPoly.zero(vs, r)
        for lam_exps, gen_index, poly in parsed:
            if (
                not isinstance(lam_exps, list)
                or len(lam_exps) != D
                or not all(_is_int(e) and e >= 0 for e in lam_exps)
            ):
                raise AlgebraFileError(f"bad lambda exponent vector {lam_exps!r}")
            lam = vs.from_exps("lam", lam_exps)
            value = value + LambdaPoly(vs, r, {gen_index: poly * lam})
        entries[key] = value
    try:
        table = BracketTable(D, names, entries)
    except ValueError as exc:
        raise AlgebraFileError(str(exc)) from None
    return LoadedAlgebra("pseudoalgebra", table, chi)


def _parse_vla(header, body) -> LoadedAlgebra:
    _check_keys(header, {"kind", "D", "generators"}, "vla header")
    names = _names(header)
    D = header.get("D")
    if not _is_int(D) or D < 1:
        raise AlgebraFileError("D must be a positive integer")
    vs = pseudo_space(D)
    r = len(names)
    actions: dict = {}
    for row in body:
        if not isinstance(row, dict):
            raise AlgebraFileError("body lines must be objects")
        key, parsed = _parse_entry_terms(row, D, vs, names, "mode", actions)
        coeffs: dict = {}
        for mode, gen_index, poly in parsed:
            if not isinstance(mode, list) or len(mode) != 3 or not all(map(_is_int, mode)):
                raise AlgebraFileError(f"bad mode index {mode!r}")
            mode = tuple(mode)
            element = ModuleElement(vs, r, {gen_index: poly})
            existing = coeffs.get(mode)
            coeffs[mode] = element if existing is None else existing + element
        try:
            actions[key] = ConeSeries(D, "z", coeffs)
        except ValueError as exc:
            raise AlgebraFileError(str(exc)) from None
    try:
        S = VLAStructure(D, names, actions)
    except ValueError as exc:
        raise AlgebraFileError(str(exc)) from None
    return LoadedAlgebra("vla", S)


def load_algebra(path) -> LoadedAlgebra:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_algebra_text(handle.read())


def emit_harmonic_basis(D: int, m: int) -> str:
    return serialize_harmonic_basis(D, m, harmonic_basis(D, m))


def emit_iota(D: int, k: int, side: str, window: int) -> str:
    return serialize_iota(iota_expand(D, k, side, window), D, k, side, window)
