"""The benchmark workloads: seeded inputs, the ops that are timed, and oracles.

A workload is a list of :class:`Op`.  Building it is the set-up: it makes every
input from the seed before the first op runs.  The seed varies values only,
never shapes (coefficients, which entry is mutated, scale factors, evaluation
points), so the work done, and every traced call count, does not depend on it.

Ops call the package through module attributes looked up at call time
(``cone.gauss_decompose``, not a name bound at import), so the tracer's
wrappers see them.  Oracles run after the last op, outside the timed and
traced region, and do not use the code path they check: verdicts are compared
with the other engine or with a theorem, outputs with an exact property or a
digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from lambdacone import algfiles, cli, cone, ope1d, pseudo, vla
from lambdacone.cone import ConeSeries, Kernel
from lambdacone.pseudo import (
    BracketTable, ChiVector, LambdaPoly, LieStructure, ModuleElement,
)
from lambdacone.rings import Poly, VarSpace

# sha256 of `lambdacone emit harmonic-basis` output, full and reduced size.
BASIS_DIGESTS = {
    (4, 8): "c5f9d1cfbf09e925b09f990e2bda1b4a339c71b30f1c3db36ed8403ee8319f3b",
    (3, 4): "bd3e0b34562ee9f4a37353f47d9a7a115f79f95a0de528be85bb9c7877dfe7df",
}

Expect = Union[bool, None, Callable[[], Optional[bool]]]


@dataclass
class Op:
    """One timed call.  ``expect`` is the verdict a CheckReport output must
    have (a callable computes it from an independent engine; None skips the
    verdict); ``check`` returns a problem description, or "" when the output
    is right."""

    name: str
    run: Callable[[], object]
    task: str = ""
    expect: Expect = None
    check: Optional[Callable[[object], str]] = None


def evaluate(op: Op, output) -> str:
    """The oracle verdict on one op's output: "" when it is right."""
    expected = op.expect() if callable(op.expect) else op.expect
    if expected is not None:
        passed = getattr(output, "passed", None)
        if passed is not expected:
            return f"verdict {passed}, expected {expected}"
    return op.check(output) if op.check else ""


def build(name: str, seed: int, small: bool, scratch: str) -> list:
    """All ops of one workload, with their inputs made from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    builders = {
        "pseudo-axioms": _pseudo_axioms,
        "cone-build": _cone_build,
        "vla-identities": _vla_identities,
    }
    return builders[name](rng, small, scratch)


# Seeded values are drawn from a wide range, so that no seed hits a special
# value (a zero, a coincidence such as a == c, c == 1) by chance: one would
# cancel terms and change the work, not only the values.
_WIDE = 10 ** 6


def _nonzero_fraction(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, _WIDE), rng.randint(1, _WIDE))


def _capture(argv) -> tuple:
    """``cli.main(argv)`` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _checked_count(count: int) -> Callable[[object], str]:
    return lambda report: "" if report.checked == count else (
        f"checked {report.checked} tuples, expected {count}")


# ----------------------------------------------------------------------
# pseudo-axioms
# ----------------------------------------------------------------------

def _mutate_off_diagonal(table: BracketTable, rng) -> tuple:
    """W(D) with one coefficient of a seeded off-diagonal entry changed.

    Returns (table, expected failing labels).  The residual of the mutated
    pair is exactly the change, so skew must fail at (a,b) and (b,a) only.
    """
    D, vs = table.D, table.vs
    a, b = rng.sample(range(D), 2)
    entry = table.entry(a, b)
    k = rng.choice(sorted(entry.coords))
    poly = entry.coords[k]
    mono = rng.choice(sorted(poly.terms))
    delta = _nonzero_fraction(rng)
    while poly.terms[mono] + delta == 0:
        delta = _nonzero_fraction(rng)
    mutated = Poly(vs, {**poly.terms, mono: poly.terms[mono] + delta})
    entries = dict(table.entries)
    entries[(a, b)] = LambdaPoly(vs, table.r, {**entry.coords, k: mutated})
    g = table.generators
    return BracketTable(D, g, entries), {f"({g[a]},{g[b]})", f"({g[b]},{g[a]})"}


def _fails_exactly_at(labels: set) -> Callable[[object], str]:
    def check(report) -> str:
        got = {f.label for f in report.failures}
        if got != labels:
            return f"failing pairs {sorted(got)}, expected {sorted(labels)}"
        if not all(f.witness for f in report.failures):
            return "failure without a witness"
        return ""
    return check


def _pseudo_axioms(rng, small: bool, scratch: str) -> list:
    ops = []
    degmax = 2 if small else 3
    for D in ((2,) if small else (2, 3)):
        for chi in (ChiVector.zero(D), ChiVector.unit(D, 1)):
            # S(D, chi) is a subalgebra of W(D): closure is a theorem.
            ops.append(Op(f"closure D={D} chi={[str(v) for v in chi.values]}",
                          lambda D=D, chi=chi: pseudo.sd_closure_check(D, chi, degmax),
                          "task_a", True))

    sl2 = LieStructure.sl2()
    tables = [pseudo.build_wd(D) for D in range(1, 3 if small else 9)]
    tables += [pseudo.build_cur(sl2, D) for D in range(1, 2 if small else 4)]
    tables += [pseudo.build_hd(D) for D in ((2,) if small else (2, 4))]
    tables += [pseudo.current_extend(t, t.D + 1) for t in list(tables)]
    for t in tables:
        label = f"{'/'.join(t.generators)} D={t.D}"
        # Every shipped family is a Lie pseudoalgebra: both axioms hold.
        ops.append(Op(f"skew {label}", lambda t=t: pseudo.skew_check(t),
                      "task_b", True, _checked_count(t.r ** 2)))
        ops.append(Op(f"jacobi {label}", lambda t=t: pseudo.jacobi_check(t),
                      "task_b", True, _checked_count(t.r ** 3)))

    cli_dim = 3 if small else 6

    def cli_output(result) -> str:
        code, text = result
        lines = text.splitlines()
        passes = sum(line.endswith(": pass") for line in lines)
        if code != 0 or "skew: pass" not in lines or "jacobi: pass" not in lines:
            return f"exit code {code}, output {lines[:2]}"
        if passes != 2 + cli_dim ** 2 + cli_dim ** 3:
            return f"{passes} pass lines"
        return ""

    ops.append(Op(f"cli check W --dim {cli_dim}",
                  lambda: _capture(["check", "W", "--dim", str(cli_dim),
                                    "--axioms", "skew,jacobi"]),
                  check=cli_output))

    # builtin -> file -> load_algebra -> check, with a seeded chi in the header.
    chi = ChiVector(tuple(_nonzero_fraction(rng) for _ in range(3)))
    chi_text = ",".join(str(v) for v in chi.values)
    path = os.path.join(scratch, f"roundtrip-{os.getpid()}.json")
    expected_table = pseudo.build_wd(3)
    state: dict = {}

    def load():
        state["loaded"] = algfiles.load_algebra(path)
        return state["loaded"]

    def loaded_right(loaded) -> str:
        if loaded.kind != "pseudoalgebra" or loaded.obj != expected_table or loaded.chi != chi:
            return "file round trip changed the algebra"
        return ""

    ops.append(Op("builtin S --dim 3 to file",
                  lambda: _capture(["builtin", "S", "--dim", "3", f"--chi={chi_text}",
                                    "--out", path]),
                  check=lambda r: "" if r[0] == 0 and os.path.exists(path) else f"exit {r[0]}"))
    ops.append(Op("load_algebra", load, check=loaded_right))
    ops.append(Op("skew loaded", lambda: pseudo.skew_check(state["loaded"].obj), "", True))
    ops.append(Op("jacobi loaded", lambda: pseudo.jacobi_check(state["loaded"].obj), "", True))

    # ope1d: the Virasoro-type W(1) instance and seeded delta distributions.
    w1 = pseudo.build_wd(1)
    vs1 = w1.vs
    bracket = w1.entry(0, 0)
    products = {0: ModuleElement(vs1, 1, {0: vs1.var("T", 1)}),
                1: ModuleElement(vs1, 1, {0: vs1.const(2)})}

    def ope_w1():
        J = ope1d.jth_from_lambda(bracket)
        back = ope1d.lambda_from_jth(J)
        N = ope1d.locality_check(ope1d.commutator_from_lambda(bracket))
        return J, back, N

    ops.append(Op("ope1d W(1) products", ope_w1,
                  check=lambda r: "" if (r[0].products == products and r[1] == bracket
                                         and r[2] == 2) else "wrong j-th products"))
    top = 5
    for i in range(4 if small else 12):
        parts = {j: ModuleElement(vs1, 1, {0: vs1.const(_nonzero_fraction(rng))})
                 for j in range(top + 1)}
        dist = ope1d.DeltaDistribution(vs1, 1, parts)

        def delta_ops(dist=dist):
            N = ope1d.locality_check(dist)
            return N, ope1d.delta_mul_pow(dist, N), ope1d.delta_mul_pow(dist, N - 1)

        # (z-w)^N kills d^j delta / j! exactly when N > j.
        ops.append(Op(f"delta_mul_pow #{i}", delta_ops,
                      check=lambda r, parts=parts: "" if (
                          r[0] == top + 1 and not r[1] and r[2].parts == {0: parts[top]}
                      ) else "delta rewrite is not sharp"))

    for D in range(2, 4 if small else 9):
        table, labels = _mutate_off_diagonal(pseudo.build_wd(D), rng)
        ops.append(Op(f"skew mutated W({D})", lambda t=table: pseudo.skew_check(t),
                      "", False, _fails_exactly_at(labels)))
    return ops


# ----------------------------------------------------------------------
# cone-build
# ----------------------------------------------------------------------

def _dense_homogeneous(vs: VarSpace, m: int, rng) -> Poly:
    """Every degree-m monomial, with seeded nonzero integer coefficients."""
    terms = {}
    for exps in vs.monomials_of_degree("z", m):
        (mono,) = vs.from_exps("z", exps).terms
        terms[mono] = rng.choice((-1, 1)) * rng.randint(1, _WIDE ** 2)
    return Poly(vs, terms)


def _gauss_roundtrip(p: Poly) -> Callable[[object], str]:
    def check(pieces) -> str:
        vs = p.vs
        z2 = vs.zero
        for a in range(1, vs.D + 1):
            z2 = z2 + vs.var("z", a) * vs.var("z", a)
        rebuilt = vs.zero
        for j, pj in pieces:
            if pj.laplacian("z"):
                return f"piece {j} is not harmonic"
            rebuilt = rebuilt + z2 ** j * pj
        return "" if rebuilt == p else "pieces do not sum back to the input"
    return check


def _point(rng, D: int) -> tuple:
    return tuple(_nonzero_fraction(rng) for _ in range(D))


def _evaluate(poly: Poly, point: tuple) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        for (_, index), e in mono:
            coeff *= point[index - 1] ** e
        total += coeff
    return total


def _iota_property(D: int, k: int, side: str, window: int, points: list):
    """The expansion evaluated at rational points, degree by degree.

    Scaling the small variable by s, ((z-w)^2)^(-k) = sum_d s^d A_d, and the
    series' modes of small-variable degree d must sum to A_d exactly for every
    d <= window.  A_d comes from the power series (a - 2bs + cs^2)^(-k) with
    a = big^2, b = z.w, c = small^2, computed in exact rationals.
    """
    basis = {}

    def mode_value(mode, x, x2):
        n, m, sigma = mode
        if (m, sigma) not in basis:
            basis[(m, sigma)] = cone.harmonic_basis(D, m)[sigma - 1]
        return x2 ** n * _evaluate(basis[(m, sigma)], x)

    def check(series) -> str:
        small = 1 if side == "zw" else 0
        for z, w in points:
            x = (z, w)
            sq = [sum(v * v for v in x[0]), sum(v * v for v in x[1])]
            a, c = sq[1 - small], sq[small]
            b = sum(u * v for u, v in zip(z, w))
            inv = [Fraction(0)] * (window + 1)  # 1 / (a - 2bs + cs^2)
            poly = [a, -2 * b, c]
            inv[0] = 1 / a
            for d in range(1, window + 1):
                acc = sum(poly[i] * inv[d - i] for i in (1, 2) if d - i >= 0)
                inv[d] = -acc / a
            series_k = [Fraction(1)] + [Fraction(0)] * window
            for _ in range(k):
                series_k = [sum(series_k[i] * inv[d - i] for i in range(d + 1))
                            for d in range(window + 1)]
            got = [Fraction(0)] * (window + 1)
            for modes, coeff in series.coeffs.items():
                degree = 2 * modes[small][0] + modes[small][1]
                if degree > window:
                    return f"mode {modes} beyond the window"
                got[degree] += (coeff * mode_value(modes[0], x[0], sq[0])
                                * mode_value(modes[1], x[1], sq[1]))
            if got != series_k:
                return f"expansion differs from the kernel at {x}"
        return ""
    return check


def _cone_build(rng, small: bool, scratch: str) -> list:
    ops = []
    shapes = ((2, 4), (3, 4)) if small else ((3, 10), (4, 8), (5, 6))
    batch = 3 if small else 10  # 30 warm decompositions in all
    for D, m in shapes:
        vs = VarSpace(D, ("z",))
        polys = [_dense_homogeneous(vs, m, rng) for _ in range(1 + batch)]
        # The first call builds the harmonic bases and the Gauss solver.
        ops.append(Op(f"gauss cold D={D} m={m}", lambda p=polys[0]: cone.gauss_decompose(p),
                      "task_a", check=_gauss_roundtrip(polys[0])))
        for i, p in enumerate(polys[1:]):
            ops.append(Op(f"gauss warm D={D} m={m} #{i}", lambda p=p: cone.gauss_decompose(p),
                          "task_b", check=_gauss_roundtrip(p)))

    D, m = (3, 4) if small else (4, 8)
    digest = BASIS_DIGESTS[(D, m)]
    ops.append(Op(f"emit harmonic-basis --dim {D} --m {m}",
                  lambda D=D, m=m: _capture(["emit", "harmonic-basis",
                                             "--dim", str(D), "--m", str(m)]),
                  check=lambda r: "" if r[0] == 0 and hashlib.sha256(
                      r[1].encode("utf-8")).hexdigest() == digest else "emitted basis changed"))

    window = 3 if small else 6
    for D in ((2,) if small else (2, 3)):
        for k in (1, 2):
            for side in ("zw", "wz"):
                points = [(_point(rng, D), _point(rng, D)) for _ in range(2)]
                ops.append(Op(f"iota_expand D={D} k={k} {side} window={window}",
                              lambda D=D, k=k, side=side: cone.iota_expand(D, k, side, window),
                              check=_iota_property(D, k, side, window, points)))
    return ops


# ----------------------------------------------------------------------
# vla-identities
# ----------------------------------------------------------------------

def _broken_jacobi_sl2(rng) -> BracketTable:
    """[e,h] = a e, [e,f] = b h, [h,f] = -c f: antisymmetric, but the Jacobi
    sum on (e,h,f) is -b(a+c) h, nonzero for a, c > 0 and b != 0."""
    vs = pseudo.pseudo_space(1)
    a, c = (abs(_nonzero_fraction(rng)) for _ in range(2))
    b = _nonzero_fraction(rng)
    entries = {
        (0, 1): LambdaPoly(vs, 3, {0: vs.const(a)}), (1, 0): LambdaPoly(vs, 3, {0: vs.const(-a)}),
        (0, 2): LambdaPoly(vs, 3, {1: vs.const(b)}), (2, 0): LambdaPoly(vs, 3, {1: vs.const(-b)}),
        (1, 2): LambdaPoly(vs, 3, {2: vs.const(-c)}), (2, 1): LambdaPoly(vs, 3, {2: vs.const(c)}),
    }
    return BracketTable(1, ("e", "h", "f"), entries)


def _broken_skew_w1(rng) -> BracketTable:
    """[L lam L] = (T + c lam) L with c != 2: skewsymmetry fails by (2-c) T L."""
    vs = pseudo.pseudo_space(1)
    c = _nonzero_fraction(rng)
    while c == 2:
        c = _nonzero_fraction(rng)
    entry = LambdaPoly(vs, 1, {0: vs.var("T", 1) + c * vs.var("lam", 1)})
    return BracketTable(1, ("L",), {(0, 0): entry})


def _failing_tuples(expected: set) -> Callable[[object], str]:
    def check(report) -> str:
        got = {f.label.split(" modes ")[0] for f in report.failures}
        return "" if got == expected else f"failing tuples {sorted(got)}, expected {sorted(expected)}"
    return check


def _vla_identities(rng, small: bool, scratch: str) -> list:
    ops = []
    L1 = 2
    windows = range(3) if small else range(7)
    d1_tables = [("Cur(sl2)", pseudo.build_cur(LieStructure.sl2(), 1)),
                 ("W(1)", pseudo.build_wd(1)),
                 ("broken-jacobi", _broken_jacobi_sl2(rng)),
                 ("broken-skew", _broken_skew_w1(rng))]
    bridged: dict = {}
    for label, table in d1_tables:
        # The pseudoalgebra engine gives the expected verdicts.
        verdicts: dict = {}

        def pseudo_verdict(axiom, table=table, verdicts=verdicts):
            if axiom not in verdicts:
                check = pseudo.skew_check if axiom == "skew" else pseudo.jacobi_check
                verdicts[axiom] = check(table).passed
            return verdicts[axiom]

        def bridge(label=label, table=table):
            bridged[label] = vla.d1_bridge(table)
            return bridged[label]

        ops.append(Op(f"d1_bridge {label}", bridge, "task_a"))
        for window in windows:
            def skew_expect(window=window, pseudo_verdict=pseudo_verdict):
                expected = pseudo_verdict("skew")
                # Window 0 can be too small to expose a skew violation.
                return None if window == 0 and not expected else expected

            ops.append(Op(f"skew_check_vla {label} window={window}",
                          lambda label=label, w=window: vla.skew_check_vla(bridged[label], w),
                          "task_a", skew_expect))
            ops.append(Op(f"jacobi_check_vla {label} L={L1} window={window}",
                          lambda label=label, w=window: vla.jacobi_check_vla(bridged[label], L1, w),
                          "task_a", lambda pv=pseudo_verdict: pv("jacobi")))
            # Borcherds with F = 1 is the Jacobi comparison.
            ops.append(Op(f"borcherds F=1 {label} L={L1} window={window}",
                          lambda label=label, w=window: vla.borcherds_check(
                              bridged[label], L1, Kernel.one(1), w),
                          "task_a", lambda pv=pseudo_verdict: pv("jacobi")))

    # (2 + T1 z1 + T2 z2) L (z^2)^{-1}, scaled: both sides of the identity are
    # quadratic in the action, so the failing tuples do not depend on the scale.
    vs2 = pseudo.pseudo_space(2)
    s = _nonzero_fraction(rng)
    el = lambda p: ModuleElement(vs2, 1, {0: p * s})
    fixture = vla.VLAStructure(2, ("L",), {(0, 0): ConeSeries(2, "z", {
        (-1, 0, 1): el(vs2.const(2)),
        (-1, 1, 1): el(vs2.var("T", 1)),
        (-1, 1, 2): el(vs2.var("T", 2)),
    })})
    fails = _failing_tuples({"(L,L,L)"})
    for L in ((1,) if small else (1, 2)):
        for window in ((0,) if small else (0, 2)):
            ops.append(Op(f"jacobi_check_vla D=2 fixture L={L} window={window}",
                          lambda L=L, w=window: vla.jacobi_check_vla(fixture, L, w),
                          "task_b", False, fails))
    if not small:
        for label, F in (("z1", Kernel(2, z_exps=(1, 0))), ("((z-w)^2)^-1", Kernel(2, zw_pole=1))):
            ops.append(Op(f"borcherds D=2 fixture F={label} L=1 window=1",
                          lambda F=F: vla.borcherds_check(fixture, 1, F, 1), "", False, fails))

    zero = vla.VLAStructure(2, ("a", "b"), {})
    ops.append(Op("jacobi_check_vla D=2 zero actions r=2",
                  lambda: vla.jacobi_check_vla(zero, 1, 3), "", True, _checked_count(8)))
    return ops
