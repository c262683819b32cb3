"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.  Everything here is either a hard symbolic-zero assertion
or an exact comparison on the stated window."""

from __future__ import annotations

import contextlib
import io
import random
import time
from fractions import Fraction

from lambdacone import cli
from lambdacone import (
    ChiVector,
    Kernel,
    LambdaPoly,
    LieStructure,
    borcherds_check,
    build_cur,
    build_hd,
    build_wd,
    commutator_from_lambda,
    current_extend,
    d1_bridge,
    delta_mul_pow,
    delta_pair,
    gauss_decompose,
    h_dim,
    harmonic_basis,
    iota_antisym,
    jacobi_check,
    jacobi_check_vla,
    jth_from_lambda,
    locality_check,
    pseudo_space,
    sd_closure_check,
    skew_check,
    skew_check_vla,
)
from lambdacone.linalg import rref
from lambdacone.ope1d import DeltaDistribution
from lambdacone.pseudo import ModuleElement
from lambdacone.rings import VarSpace


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_axiom_suite_exact():
    t0 = time.time()
    sl2 = LieStructure.sl2()
    tables = []
    for D in (1, 2, 3):
        tables.append(build_cur(sl2, D))
        tables.append(build_wd(D))
    tables.append(build_hd(2))
    tables.append(build_hd(4))
    tables.extend(current_extend(t, t.D + 1) for t in list(tables))
    ok = all(skew_check(t).passed and jacobi_check(t).passed for t in tables)
    elapsed = time.time() - t0
    _report(1, f"axiom suite exact, {len(tables)} tables in {elapsed:.2f}s", ok and elapsed < 60)


def test_criterion_2_sd_closure():
    ok = True
    for D in (2, 3):
        for chi in (ChiVector.zero(D), ChiVector.unit(D, 1)):
            ok = ok and sd_closure_check(D, chi, 3).passed
    _report(2, "S(D,chi) closure at degmax=3", ok)


def test_criterion_3_virasoro_instance():
    table = build_wd(1)
    vs = table.vs
    bracket = table.entry(0, 0)
    ok = bracket == LambdaPoly(vs, 1, {0: vs.var("T", 1) + 2 * vs.var("lam", 1)})
    products = jth_from_lambda(bracket).products
    ok = ok and products == {
        0: ModuleElement(vs, 1, {0: vs.var("T", 1)}),
        1: ModuleElement(vs, 1, {0: vs.const(2)}),
    }
    ok = ok and locality_check(commutator_from_lambda(bracket)) == 2
    _report(3, "Virasoro-type W(1) instance", ok)


def _kernel_rank(D, m):
    vs = VarSpace(D, ("z",))
    monos = vs.monomials_of_degree("z", m)
    images = [vs.from_exps("z", exps).laplacian("z") for exps in monos]
    targets = sorted({exps for img in images for exps in img.dense("z")})
    index = {exps: i for i, exps in enumerate(targets)}
    matrix = [[Fraction(0)] * len(monos) for _ in targets]
    for col, img in enumerate(images):
        for exps, coeff in img.dense("z").items():
            matrix[index[exps]][col] = coeff
    _, rank = rref(matrix)
    return len(monos) - rank


def test_criterion_4_harmonic_dimensions():
    ok = True
    cases = 0
    for D in (1, 2, 3, 4, 5):
        for m in range(7):
            cases += 1
            basis = harmonic_basis(D, m)
            ok = ok and h_dim(D, m) == _kernel_rank(D, m) == len(basis)
            ok = ok and all(not h.laplacian("z") for h in basis)
    _report(4, f"harmonic dimensions vs kernel rank, {cases} cases", ok)


def test_criterion_5_gauss_roundtrip():
    rng = random.Random(20260808)
    ok = True
    for _ in range(200):
        D = rng.randint(1, 4)
        vs = VarSpace(D, ("z",))
        poly = vs.zero
        for _ in range(rng.randint(1, 6)):
            exps = [0] * D
            for _ in range(rng.randint(0, 6)):
                exps[rng.randrange(D)] += 1
            poly = poly + vs.from_exps("z", exps, rng.randint(-9, 9))
        z2 = sum((vs.var("z", a) ** 2 for a in range(1, D + 1)), vs.zero)
        rebuilt = vs.zero
        for j, pj in gauss_decompose(poly):
            ok = ok and not pj.laplacian("z")
            rebuilt = rebuilt + (z2 ** j) * pj
        ok = ok and rebuilt == poly
    _report(5, "Gauss decomposition roundtrip, 200 random polynomials", ok)


def test_criterion_6_iota_antisymmetrization():
    ok = True
    for D in (1, 2, 3):
        e1 = tuple([1] + [0] * (D - 1))
        e2 = tuple([0] * (D - 1) + [1])
        pole_free = [
            Kernel(D),
            Kernel(D, z_exps=e1),
            Kernel(D, w_exps=e2),
            Kernel(D, z_pole=1),
            Kernel(D, w_pole=1),
            Kernel(D, z_exps=e1, w_exps=e1, z_pole=2, w_pole=1),
            Kernel(D, z_exps=e2, z_pole=1, w_pole=2),
        ]
        for F in pole_free:
            for window in range(7):
                ok = ok and not iota_antisym(F, window)
    diff = iota_antisym(Kernel(1, zw_pole=1), 6)
    ok = ok and bool(diff)
    for j in range(7):
        wmode = (j // 2, j % 2, 1)
        ell = -j - 2
        zmode = ((ell - ell % 2) // 2, ell % 2, 1)
        ok = ok and diff.get(zmode, wmode) == j + 1
    _report(6, "iota antisymmetrization window <= 6", ok)


def test_criterion_7_cross_engine_d1():
    ok = True
    for table in (build_cur(LieStructure.sl2(), 1), build_wd(1)):
        S = d1_bridge(table)
        skew_expected = skew_check(table).passed
        jacobi_expected = jacobi_check(table).passed
        for window in range(7):
            ok = ok and skew_check_vla(S, window).passed == skew_expected
            jac = jacobi_check_vla(S, 2, window)
            bor = borcherds_check(S, 2, Kernel.one(1), window)
            ok = ok and jac.passed == jacobi_expected
            ok = ok and bor.passed == jac.passed
    _report(7, "cross-engine D=1 equivalence on windows 0..6", ok)


def test_criterion_8_delta_calculus():
    vs = pseudo_space(1)
    rng = random.Random(31337)
    ok = True
    for _ in range(50):
        parts = {}
        for j in range(rng.randint(1, 6)):
            c = rng.randint(-5, 5)
            if c:
                parts[j] = ModuleElement(vs, 1, {0: vs.const(c)})
        dist = DeltaDistribution(vs, 1, parts)
        n = locality_check(dist)
        ok = ok and not delta_mul_pow(dist, n)
        if dist:
            ok = ok and bool(delta_mul_pow(dist, n - 1))
    for n in range(-4, 5):
        for j in range(5):
            num = 1
            for i in range(j):
                num *= n - i
            denom = 1
            for i in range(1, j + 1):
                denom *= i
            term = delta_pair(n, j)
            ok = ok and term.coeff == Fraction(num, denom) and term.power == n - j
    _report(8, "delta rewrite sharpness and residue pairing", ok)


def _run_cli(*argv):
    """``cli.main`` in-process: (exit code, stdout); stderr is captured and dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_criterion_9_cli_contract(tmp_path):
    ok = True
    jobs = [
        ["emit", "harmonic-basis", "--dim", "2", "--m", "2"],
        ["emit", "iota-expansion", "--dim", "1", "--k", "1", "--window", "4"],
        ["emit", "bracket", "Cur", "--dim", "1"],
        ["emit", "bracket", "W", "--dim", "2"],
        ["emit", "bracket", "S", "--dim", "2", "--chi", "1,0"],
        ["emit", "bracket", "H", "--dim", "2"],
    ]
    for idx, args in enumerate(jobs):
        a = tmp_path / f"{idx}_a.out"
        b = tmp_path / f"{idx}_b.out"
        code_a, _ = _run_cli(*args, "--out", str(a))
        code_b, _ = _run_cli(*args, "--out", str(b))
        ok = ok and code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    code_pass, _ = _run_cli("check", "W", "--dim", "2", "--axioms", "skew,jacobi")
    ok = ok and code_pass == 0
    broken = tmp_path / "broken.json"
    broken.write_text(
        '{"kind":"pseudoalgebra","D":1,"generators":["L"]}\n'
        '{"entry":[1,1],"terms":[{"lambda":[0],"gen":"L","poly":[[[0],["1","1"]]]}]}\n'
    )
    code_fail, out = _run_cli("check", str(broken), "--axioms", "skew")
    ok = ok and code_fail == 1 and "(2)*L" in out
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{this is not json\n")
    code_err, _ = _run_cli("check", str(malformed), "--axioms", "skew")
    ok = ok and code_err == 2
    _report(9, "CLI determinism and exit codes", ok)
