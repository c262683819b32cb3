"""CLI contract: exit codes, serialization roundtrips, deterministic output."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys

import pytest

from lambdacone import cli, cone
from lambdacone import (
    ChiVector,
    ConeSeries,
    LieStructure,
    ModuleElement,
    VLAStructure,
    build_cur,
    build_hd,
    build_wd,
    current_extend,
    d1_bridge,
    pseudo_space,
)
from lambdacone.algfiles import (
    AlgebraFileError,
    load_algebra,
    parse_algebra_text,
    serialize_lie,
    serialize_table,
    serialize_vla,
)


def run_cli(*argv):
    """``cli.main`` in-process: (exit code, stdout, stderr); a SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


BROKEN_TABLE = (
    '{"kind":"pseudoalgebra","D":1,"generators":["L"]}\n'
    '{"entry":[1,1],"terms":[{"lambda":[0],"gen":"L","poly":[[[0],["1","1"]]]}]}\n'
)


def test_exit_zero_on_pass():
    code, out, _ = run_cli("check", "W", "--dim", "2", "--axioms", "skew,jacobi")
    assert code == 0
    assert "skew: pass" in out and "jacobi: pass" in out


def test_exit_one_with_witness(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(BROKEN_TABLE)
    code, out, _ = run_cli("check", str(path), "--axioms", "skew")
    assert code == 1
    assert "(2)*L" in out


def test_exit_two_on_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind":"pseudoalgebra","D":1,"generators":["L"],"x":1}\n')
    code, _, err = run_cli("check", str(path), "--axioms", "skew")
    assert code == 2
    assert "unknown fields" in err


def test_exit_two_on_inapplicable_axiom():
    code, _, err = run_cli("check", "Cur", "--dim", "1", "--axioms", "borcherds")
    assert code == 2
    assert "not applicable" in err


@pytest.mark.parametrize("axioms", ["jacobi,jacobi", "skew,jacobi,skew"])
def test_exit_two_on_an_axiom_named_twice(axioms):
    code, out, err = run_cli("check", "W", "--dim", "2", "--axioms", axioms)
    assert code == 2 and out == ""
    repeated = axioms.split(",")[0]
    assert f"error: --axioms names {repeated!r} more than once" in err


def test_exit_two_on_unknown_target():
    code, _, err = run_cli("check", "NoSuchThing", "--axioms", "skew")
    assert code == 2


def test_usage_error_is_two():
    code, _, _ = run_cli("check")
    assert code == 2


def test_closure_axiom_via_cli():
    code, out, _ = run_cli(
        "check", "S", "--dim", "2", "--chi", "1,0", "--axioms", "closure", "--degmax", "2"
    )
    assert code == 0
    assert "closure: pass" in out


def test_stdout_closed_early_exits_141_without_traceback():
    # D = 4, degmax = 3 prints about 150 kB, more than a pipe and the reader's
    # buffer hold, so the writer still has output left when the pipe closes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "lambdacone.cli",
         "check", "S", "--dim", "4", "--axioms", "closure", "--degmax", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().startswith("closure: pass (D=4,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == ""


@pytest.mark.parametrize("degmax", ["0", "-1"])
def test_closure_degmax_below_one_is_a_usage_error(degmax):
    code, _, err = run_cli(
        "check", "S", "--dim", "2", "--axioms", "closure", "--degmax", degmax
    )
    assert code == 2
    assert "error: degmax must be >= 1" in err
    assert "Traceback" not in err


def test_closure_on_a_d0_table_is_a_usage_error(tmp_path):
    path = tmp_path / "cur0.json"
    path.write_text(serialize_table(build_cur(LieStructure.sl2(), 0)))
    for target in (("Cur", "--dim", "0"), (str(path),)):
        code, _, err = run_cli("check", *target, "--axioms", "closure")
        assert code == 2
        assert "the closure axiom applies to the W(D) presentation only" in err
        assert "Traceback" not in err


def test_vla_axioms_via_cli(tmp_path):
    path = tmp_path / "w1.json"
    path.write_text(serialize_vla(d1_bridge(build_wd(1))))
    code, out, _ = run_cli(
        "check", str(path), "--axioms", "vla-skew,vla-jacobi,borcherds",
        "--window", "4", "--L", "2",
    )
    assert code == 0
    assert "vla-skew: pass" in out and "vla-jacobi: pass" in out and "borcherds: pass" in out


def test_borcherds_kernels_via_cli_have_no_pole(tmp_path):
    # A pole kernel would print FAIL on valid data: the identity then needs
    # the regular parts of the fields, which vertex-Lie data lack.
    path = tmp_path / "cur1.json"
    path.write_text(serialize_vla(d1_bridge(build_cur(LieStructure.sl2(), 1))))
    code, out, _ = run_cli("check", str(path), "--axioms", "borcherds",
                           "--F-zexp", "1", "--window", "2")
    assert code == 0 and out.splitlines()[0] == "borcherds: pass (L=1, window=2)"
    for option in ("--F-k", "--F-a", "--F-b"):
        code, out, err = run_cli("check", str(path), "--axioms", "borcherds",
                                 option, "1", "--window", "2")
        assert code == 2 and not out
        assert f"unrecognized arguments: {option} 1" in err


def test_high_degree_d1_kernel_returns_at_once(tmp_path):
    # In D = 1, c x^m is (x^2)^(m // 2) c x^(m % 2): the Gauss decomposition
    # of z^99999999 needs no chain of Laplacians.
    path = tmp_path / "cur1.json"
    path.write_text(serialize_vla(d1_bridge(build_cur(LieStructure.sl2(), 1))))
    proc = subprocess.run(
        [sys.executable, "-m", "lambdacone.cli", "check", str(path), "--axioms", "borcherds",
         "--F-zexp", "99999999", "--window", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "borcherds: pass (L=1, window=0)"


def test_high_degree_kernel_in_d2_is_a_usage_error(tmp_path, monkeypatch):
    # D = 2 has no closed form: the kernel z1^99999999 is refused with exit 2
    # and the term count, before any Gauss table is built.
    def no_tables(*args):
        raise AssertionError("a Gauss table was built")

    vs = pseudo_space(2)
    el = lambda p: ModuleElement(vs, 1, {0: p})
    S = VLAStructure(2, ("L",), {(0, 0): ConeSeries(2, "z", {
        (-1, 0, 1): el(vs.const(2)), (-1, 1, 1): el(vs.var("T", 1)),
        (-1, 1, 2): el(vs.var("T", 2))})})
    path = tmp_path / "d2.json"
    path.write_text(serialize_vla(S))
    monkeypatch.setattr(cone, "_laplacian_chain", no_tables)
    code, out, err = run_cli("check", str(path), "--axioms", "borcherds",
                             "--F-zexp", "99999999,0", "--window", "0")
    assert code == 2 and not out
    assert err.startswith("error: the Gauss decomposition of the kernel's monomial part "
                          "would form up to 2500000050000001 terms")
    assert "Traceback" not in err


@pytest.mark.parametrize("dim,m,words", [("3", "400", "490260120"), ("40", "6", "2631101241"),
                                         ("2", "100000", "2656579695")])
def test_oversized_harmonic_basis_is_a_usage_error(monkeypatch, dim, m, words):
    # The bound is closed form: the shape is refused before any pivot is
    # enumerated, where the build would exhaust memory or run for hours.
    def no_pivots(*args):
        raise AssertionError("a pivot was enumerated")

    monkeypatch.setattr(cone, "_pivots", no_pivots)
    code, out, err = run_cli("emit", "harmonic-basis", "--dim", dim, "--m", m)
    assert code == 2 and not out
    assert err == (f"error: the harmonic basis of degree {m} in D = {dim} would form an estimated "
                   f"{words} machine words, above the limit of 10000000; lower the degree or "
                   f"the dimension\n")


def test_vla_skew_negative_window_is_a_usage_error(tmp_path):
    path = tmp_path / "w1.json"
    path.write_text(serialize_vla(d1_bridge(build_wd(1))))
    code, out, err = run_cli("check", str(path), "--axioms", "vla-skew", "--window", "-1")
    assert code == 2 and not out
    assert "error: window must be >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args,message", [
    (("harmonic-basis", "--dim", "2", "--m", "-1"), "error: m must be >= 0"),
    (("harmonic-basis", "--dim", "0", "--m", "1"), "error: D must be >= 1"),
    (("iota-expansion", "--dim", "0", "--k", "1"), "error: D must be >= 1"),
], ids=["m-1", "harmonic-dim0", "iota-dim0"])
def test_emit_bad_degree_or_dimension_is_a_usage_error(args, message):
    code, out, err = run_cli("emit", *args)
    assert code == 2 and not out
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("check", "S", "--dim", "2", "--chi", "1/0,0", "--axioms", "closure"),
    ("builtin", "S", "--dim", "2", "--chi", "1/0,0"),
    ("emit", "bracket", "S", "--dim", "2", "--chi", "0/0,1"),
], ids=["check", "builtin", "emit"])
def test_chi_with_a_zero_denominator_is_a_usage_error(args):
    code, out, err = run_cli(*args)
    assert code == 2 and not out
    assert "error: bad chi vector" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# serialization roundtrips
# ----------------------------------------------------------------------

def test_roundtrip_every_builtin(tmp_path):
    expected = {
        "Cur": build_cur(LieStructure.sl2(), 2),
        "W": build_wd(2),
        "S": build_wd(2),
        "H": build_hd(2),
    }
    for name, table in expected.items():
        path = tmp_path / f"{name}.json"
        args = ["builtin", name, "--dim", "2", "--out", str(path)]
        if name == "S":
            args += ["--chi", "1,0"]
        code, _, _ = run_cli(*args)
        assert code == 0
        loaded = load_algebra(path)
        assert loaded.obj == table
        if name == "S":
            assert loaded.chi == ChiVector((1, 0))


def test_roundtrip_current_extension(tmp_path):
    path = tmp_path / "h24.json"
    code, _, _ = run_cli("builtin", "H", "--dim", "2", "--target-dim", "4",
                         "--out", str(path))
    assert code == 0
    assert load_algebra(path).obj == current_extend(build_hd(2), 4)


def test_roundtrip_d0_table():
    table = build_cur(LieStructure.sl2(), 0)
    loaded = parse_algebra_text(serialize_table(table))
    assert loaded.obj == table


def test_roundtrip_lie_and_vla():
    g = LieStructure.sl2()
    loaded = parse_algebra_text(serialize_lie(g, ("e", "h", "f")))
    assert loaded.kind == "lie"
    assert loaded.obj.c == g.c
    S = d1_bridge(build_cur(g, 1))
    loaded = parse_algebra_text(serialize_vla(S))
    assert loaded.kind == "vla"
    assert loaded.obj.actions == S.actions


def test_lie_file_validation():
    bad = '{"kind":"lie","dim":2,"generators":["a","b"]}\n{"c":[1,2,1],"value":["1","1"]}\n'
    with pytest.raises(AlgebraFileError):
        parse_algebra_text(bad)  # antisymmetric partner missing
    empty = '{"kind":"pseudoalgebra","D":1,"generators":[]}\n'
    with pytest.raises(AlgebraFileError):
        parse_algebra_text(empty)
    header = '{"kind":"lie","dim":3,"generators":["a","b","c"]}\n'
    duplicate = header + (
        '{"c":[1,2,3],"value":["5","1"]}\n{"c":[2,1,3],"value":["-1","1"]}\n'
        '{"c":[1,2,3],"value":["1","1"]}\n'
    )
    with pytest.raises(AlgebraFileError, match=r"^duplicate structure constant \[1,2,3\]$"):
        parse_algebra_text(duplicate)
    for idx, bad_index in (("[0,1,1]", 0), ("[1,4,1]", 4)):
        row = '{"c":%s,"value":["1","1"]}\n' % idx
        with pytest.raises(AlgebraFileError, match=f"^index {bad_index} out of range for dim 3$"):
            parse_algebra_text(header + row)


W1_FILE = serialize_table(build_wd(1))
W1_VLA_FILE = serialize_vla(d1_bridge(build_wd(1)))
SL2_FILE = serialize_lie(LieStructure.sl2(), ("e", "h", "f"))


@pytest.mark.parametrize("text", [W1_FILE, W1_VLA_FILE], ids=["pseudoalgebra", "vla"])
def test_duplicate_entry_uses_the_file_indices(text):
    header, entry = text.splitlines()
    with pytest.raises(AlgebraFileError, match=r"^duplicate entry \[1,1\]$"):
        parse_algebra_text("\n".join([header, entry, entry]) + "\n")


@pytest.mark.parametrize("text,old,new,message", [
    (SL2_FILE, '"c":[1,3,2]', '"c":[true,3,2]', "bad structure-constant index"),
    ('{"kind":"lie","dim":1,"generators":["a"]}\n', '"dim":1', '"dim":true',
     "dim must equal the number of generators"),
    (W1_FILE, '"D":1', '"D":true', "D must be a nonnegative integer"),
    (W1_FILE, '"entry":[1,1]', '"entry":[true,true]', "bad entry index"),
    (W1_FILE, '"lambda":[1]', '"lambda":[true]', "bad lambda exponent vector"),
    (W1_FILE, '"poly":[[[1]', '"poly":[[[true]', "bad exponent vector"),
    (W1_VLA_FILE, '"D":1', '"D":true', "D must be a positive integer"),
    (W1_VLA_FILE, '"mode":[-1,0,1]', '"mode":[-1,0,true]', "bad mode index"),
], ids=["lie-index", "lie-dim", "table-D", "entry", "lambda", "poly", "vla-D", "mode"])
def test_json_booleans_are_not_integers(text, old, new, message):
    assert old in text
    with pytest.raises(AlgebraFileError, match=f"^{message}"):
        parse_algebra_text(text.replace(old, new, 1))


W1_LAMBDA_TERM = '{"gen":"L1","lambda":[1],"poly":[[[0],["2","1"]]]}'
W1_MODE_TERM = '{"gen":"L1","mode":[-1,0,1],"poly":[[[0],["2","1"]]]}'


@pytest.mark.parametrize("text,old,new,message", [
    (W1_FILE, '"poly":[[[0],["2","1"]]]', '"poly":[[[0],["1","1"]],[[0],["1","1"]]]',
     'duplicate exponent vector [0]'),
    (W1_FILE, W1_LAMBDA_TERM, ",".join([W1_LAMBDA_TERM.replace('"2"', '"1"')] * 2),
     'duplicate term {"gen":"L1","lambda":[1]} in entry [1,1]'),
    (W1_VLA_FILE, W1_MODE_TERM, ",".join([W1_MODE_TERM.replace('"2"', '"1"')] * 2),
     'duplicate term {"gen":"L1","mode":[-1,0,1]} in entry [1,1]'),
], ids=["poly", "table-term", "vla-term"])
def test_repeated_data_is_rejected_not_summed(text, old, new, message):
    assert old in text
    with pytest.raises(AlgebraFileError, match=f"^{re.escape(message)}$"):
        parse_algebra_text(text.replace(old, new, 1))


def test_lie_file_checks_via_cli(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(serialize_lie(LieStructure.sl2(), ("e", "h", "f")))
    code, out, _ = run_cli("check", str(path), "--axioms", "skew,jacobi")
    assert code == 0
    assert "skew: pass" in out and "jacobi: pass" in out


def test_emit_harmonic_basis_content(tmp_path):
    path = tmp_path / "basis.json"
    code, _, _ = run_cli("emit", "harmonic-basis", "--dim", "2", "--m", "2",
                         "--out", str(path))
    assert code == 0
    import json

    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["count"] == 2
    polys = [json.loads(line)["poly"] for line in lines[1:]]
    assert polys[0] == [[[2, 0], ["1", "1"]], [[0, 2], ["-1", "1"]]]
    assert polys[1] == [[[1, 1], ["1", "1"]]]


# sha256 of the emitted bytes, pinned so that the canonical harmonic basis and
# the iota coefficients cannot drift unseen.
GOLDEN_EMITS = [
    (["harmonic-basis", "--dim", "4", "--m", "8"],
     "c5f9d1cfbf09e925b09f990e2bda1b4a339c71b30f1c3db36ed8403ee8319f3b"),
    (["harmonic-basis", "--dim", "5", "--m", "6"],
     "1f2d3e83b361bc3ee88c4f2f91c509b94628f7fcbea98b1ffdf78b8d3da6fe4f"),
    (["iota-expansion", "--dim", "3", "--k", "2", "--window", "6"],
     "b4ab8ccd5d67d0731d234892ae7fc52f0631633adca0c2925e1aa7046127b135"),
    (["iota-expansion", "--dim", "2", "--k", "1", "--side", "wz", "--window", "6"],
     "be3c70e2a606dc0163abe0c2243ef775a89cceca97e47239962e8447908cb0a6"),
    (["iota-expansion", "--dim", "4", "--k", "3", "--window", "4"],
     "a723ccdbfca90637dca474536045f603486ca2786f9d695fa9e738a680d4ad4e"),
    (["iota-expansion", "--dim", "1", "--k", "2", "--window", "5"],
     "05c7b903a8c42f7739a484bd00e5eeaf75494ab199bed2e8e3b587afda2a727c"),
    (["iota-expansion", "--dim", "5", "--k", "1", "--window", "6"],
     "8416d2d14114bd6e2080db0f9a685e9cb2ddcd0ba9971b7dedf3d4bbbeeebc7f"),
    (["iota-expansion", "--dim", "4", "--k", "2", "--side", "wz", "--window", "8"],
     "12857023f083fb74dcf74f790672e7a8180d0a42899880ff269d9925ee9f1095"),
    (["iota-expansion", "--dim", "1", "--k", "1", "--window", "40"],
     "5dab279088612e1a3dd58ae33e5ab5a637374615a32f1afa43db75d965e4eee8"),
    (["iota-expansion", "--dim", "1", "--k", "2", "--side", "wz", "--window", "40"],
     "0a9721db674267f73fc9672cbfd29c10024a20a27fe4484ccd1acfe34fce47e8"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_EMITS,
                         ids=[" ".join(args) for args, _ in GOLDEN_EMITS])
def test_emit_golden_digest(tmp_path, args, digest):
    import hashlib

    path = tmp_path / "emit.json"
    assert run_cli("emit", *args, "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_emit_bracket_h2_content(tmp_path):
    path = tmp_path / "h2.json"
    code, _, _ = run_cli("emit", "bracket", "H", "--dim", "2", "--out", str(path))
    assert code == 0
    assert load_algebra(path).obj == build_hd(2)
    text = path.read_text()
    assert '"lambda":[1,0]' in text and '"lambda":[0,1]' in text


def test_emit_determinism(tmp_path):
    # Each emit runs in two interpreters with different string hash seeds, so
    # no output order can come from hashing.
    jobs = [
        ("harm", ["emit", "harmonic-basis", "--dim", "3", "--m", "3"]),
        ("iota", ["emit", "iota-expansion", "--dim", "1", "--k", "1", "--window", "4"]),
        ("bracket", ["emit", "bracket", "W", "--dim", "2"]),
    ]
    for label, args in jobs:
        outputs = []
        for seed in ("0", "1"):
            path = tmp_path / f"{label}_{seed}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "lambdacone.cli", *args, "--out", str(path)],
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


def test_emit_iota_geometric_coefficients(tmp_path):
    path = tmp_path / "iota.json"
    run_cli("emit", "iota-expansion", "--dim", "1", "--k", "1", "--window", "6",
            "--out", str(path))
    import json

    rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    by_wdeg = {2 * r["w"][0] + r["w"][1]: r["coeff"] for r in rows}
    for j in range(7):
        assert by_wdeg[j] == [str(j + 1), "1"]
