"""Command-line front end: load or build algebras, run axiom suites, emit data.

Exit codes: 0 all requested checks pass, 1 at least one violation (every
violation is printed, one ``  violation at ...`` line each), 2 usage, parse or
invariant errors, 141 standard output closed early (the shell's code for
SIGPIPE, as in ``lambdacone ... | head -1``).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .algfiles import (
    AlgebraFileError,
    LoadedAlgebra,
    emit_harmonic_basis,
    emit_iota,
    load_algebra,
    serialize_table,
)
from .cone import Kernel
from .pseudo import (
    ChiVector,
    LieStructure,
    build_cur,
    build_hd,
    build_wd,
    current_extend,
    jacobi_check,
    sd_closure_check,
    skew_check,
)
from .vla import borcherds_check, jacobi_check_vla, skew_check_vla

BUILTINS = ("Cur", "W", "S", "H")

_AXIOMS = {
    "pseudoalgebra": ("skew", "jacobi", "closure"),
    "lie": ("skew", "jacobi"),
    "vla": ("vla-skew", "vla-jacobi", "borcherds"),
}


class CliError(Exception):
    """Usage-level failure: reported on stderr with exit code 2."""


def _parse_chi(text: str, D: int) -> ChiVector:
    try:
        values = tuple(Fraction(part) for part in text.split(",")) if text else ()
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad chi vector {text!r}: {exc}") from None
    if len(values) != D:
        raise CliError(f"chi must have {D} components, got {len(values)}")
    return ChiVector(values)


def _parse_exps(text: str, D: int, label: str) -> tuple:
    if not text:
        return (0,) * D
    try:
        exps = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad {label} exponents {text!r}: {exc}") from None
    if len(exps) != D or any(e < 0 for e in exps):
        raise CliError(f"{label} exponents must be {D} nonnegative integers")
    return exps


def make_builtin(name: str, dim: int, chi: str | None, target_dim: int | None) -> LoadedAlgebra:
    """Construct one of the named families: Cur (over sl2), W, S, H."""
    if name not in BUILTINS:
        raise CliError(f"unknown builtin {name!r}; choose from {', '.join(BUILTINS)}")
    if dim is None:
        raise CliError("builtin construction requires --dim")
    chi_vector = None
    try:
        if name == "Cur":
            table = build_cur(LieStructure.sl2(), dim)
        elif name == "W":
            table = build_wd(dim)
        elif name == "S":
            table = build_wd(dim)
            chi_vector = _parse_chi(chi, dim) if chi else ChiVector.zero(dim)
        else:
            table = build_hd(dim)
        if target_dim is not None:
            table = current_extend(table, target_dim)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if chi is not None and name != "S":
        raise CliError("--chi applies to the S builtin only")
    return LoadedAlgebra("pseudoalgebra", table, chi_vector)


def _resolve_target(args) -> LoadedAlgebra:
    target = args.target
    if os.path.exists(target):
        try:
            return load_algebra(target)
        except AlgebraFileError as exc:
            raise CliError(f"cannot load {target}: {exc}") from None
    if target in BUILTINS:
        return make_builtin(target, args.dim, args.chi, args.target_dim)
    raise CliError(f"{target!r} is neither an existing file nor a builtin name")


def run_checks(loaded: LoadedAlgebra, axioms, args) -> tuple:
    """Run the requested axioms; returns (exit_code, output lines)."""
    applicable = _AXIOMS[loaded.kind]
    for axiom in axioms:
        if axiom not in applicable:
            raise CliError(
                f"axiom {axiom!r} is not applicable to a {loaded.kind} "
                f"(choose from {', '.join(applicable)})"
            )
    # A Lie algebra is checked as its D = 0 bracket table.
    obj = loaded.obj.table if loaded.kind == "lie" else loaded.obj
    lines = []
    ok = True
    try:
        for axiom in axioms:
            if axiom == "skew":
                report = skew_check(obj)
            elif axiom == "jacobi":
                report = jacobi_check(obj)
            elif axiom == "closure":
                if obj.D < 1 or obj != build_wd(obj.D):
                    raise CliError("the closure axiom applies to the W(D) presentation only")
                chi = _parse_chi(args.chi, obj.D) if args.chi else (loaded.chi or ChiVector.zero(obj.D))
                report = sd_closure_check(obj.D, chi, args.degmax)
            elif axiom == "vla-skew":
                report = skew_check_vla(obj, args.window)
            else:
                L = args.L if args.L is not None else obj.max_pole()
                if axiom == "vla-jacobi":
                    report = jacobi_check_vla(obj, L, args.window)
                else:
                    F = Kernel(
                        obj.D,
                        z_exps=_parse_exps(args.F_zexp, obj.D, "--F-zexp"),
                        w_exps=_parse_exps(args.F_wexp, obj.D, "--F-wexp"),
                    )
                    report = borcherds_check(obj, L, F, args.window)
            lines.extend(report.lines())
            ok = ok and report.passed
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return (0 if ok else 1), lines


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cmd_check(args) -> int:
    loaded = _resolve_target(args)
    axioms = [a for a in args.axioms.split(",") if a]
    if not axioms:
        raise CliError("--axioms must name at least one axiom")
    repeated = next((a for pos, a in enumerate(axioms) if a in axioms[:pos]), None)
    if repeated:
        raise CliError(f"--axioms names {repeated!r} more than once")
    code, lines = run_checks(loaded, axioms, args)
    for line in lines:
        print(line)
    return code


def _cmd_builtin(args) -> int:
    loaded = make_builtin(args.name, args.dim, args.chi, args.target_dim)
    _write_output(serialize_table(loaded.obj, loaded.chi), args.out)
    return 0


def _cmd_emit(args) -> int:
    try:
        if args.kind == "harmonic-basis":
            if args.dim is None or args.m is None:
                raise CliError("harmonic-basis needs --dim and --m")
            text = emit_harmonic_basis(args.dim, args.m)
        elif args.kind == "iota-expansion":
            if args.dim is None or args.k is None:
                raise CliError("iota-expansion needs --dim and --k")
            text = emit_iota(args.dim, args.k, args.side, args.window)
        else:
            if args.name is None:
                raise CliError("emit bracket needs a builtin name")
            loaded = make_builtin(args.name, args.dim, args.chi, args.target_dim)
            text = serialize_table(loaded.obj, loaded.chi)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _write_output(text, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdacone",
        description="Exact axiom checks for lambda-bracket algebras and cone-mode structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run axiom checks on a file or builtin")
    check.add_argument("target", help="algebra file path or builtin name (Cur, W, S, H)")
    check.add_argument("--axioms", required=True,
                       help="comma list: skew,jacobi,closure,vla-skew,vla-jacobi,borcherds")
    check.add_argument("--dim", type=int, help="dimension for builtin targets")
    check.add_argument("--chi", help="chi vector, e.g. 1,0 (S builtin / closure)")
    check.add_argument("--target-dim", type=int, dest="target_dim",
                       help="current-extend a builtin to this dimension")
    check.add_argument("--degmax", type=int, default=2, help="degree bound for closure")
    check.add_argument("--window", type=int, default=4, help="window for vla checks")
    check.add_argument("--L", type=int, help="Borcherds/Jacobi integer L (default: max pole order)")
    # The Borcherds kernel F is a monomial z^a w^b: with a pole, the identity
    # needs the regular parts of the fields, which vertex-Lie data lack.
    check.add_argument("--F-zexp", default="", dest="F_zexp", help="z exponents of F, comma list")
    check.add_argument("--F-wexp", default="", dest="F_wexp", help="w exponents of F, comma list")

    builtin = sub.add_parser("builtin", help="write a builtin algebra definition file")
    builtin.add_argument("name", choices=BUILTINS)
    builtin.add_argument("--dim", type=int, required=True)
    builtin.add_argument("--chi", help="chi vector for S")
    builtin.add_argument("--target-dim", type=int, dest="target_dim")
    builtin.add_argument("--out", default="-", help="output path (default stdout)")

    emit = sub.add_parser("emit", help="emit generated data files")
    emit.add_argument("kind", choices=("harmonic-basis", "iota-expansion", "bracket"))
    emit.add_argument("name", nargs="?", help="builtin name (for kind=bracket)")
    emit.add_argument("--dim", type=int)
    emit.add_argument("--m", type=int, help="harmonic degree")
    emit.add_argument("--k", type=int, help="(z-w)^2 pole order")
    emit.add_argument("--side", choices=("zw", "wz"), default="zw")
    emit.add_argument("--window", type=int, default=4)
    emit.add_argument("--chi")
    emit.add_argument("--target-dim", type=int, dest="target_dim")
    emit.add_argument("--out", default="-", help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"check": _cmd_check, "builtin": _cmd_builtin, "emit": _cmd_emit}
    try:
        code = handlers[args.command](args)
        # Flush here, so a reader that left early is seen inside this handler.
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; send that to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
