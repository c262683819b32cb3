"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import probe as probing  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--small"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_in_process(ops: list) -> tuple:
    records, outputs, _, _ = worker.run_ops(ops, tracing.caches())
    return records, outputs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_workload_at_reduced_size(workload):
    result = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_call_counts_do_not_depend_on_the_seed(workload):
    first, second = (_bench("--workload", workload, "--seed", seed, "--seconds", "1",
                            "--trace", "1") for seed in ("1", "2"))
    names = [name for name, _, _ in tracing.per_layer_catalogue()]
    assert list(first["metrics"]) == names
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert first["correct"] and second["correct"]


@pytest.mark.parametrize("workload", ["pseudo-axioms", "cone-build"])
def test_same_seed_same_inputs(workload, tmp_path):
    def outputs(seed):
        ops = workloads.build(workload, seed, True, str(tmp_path))
        return [repr(out) for out in _run_in_process(ops)[1]]

    assert outputs(3) == outputs(3)
    assert outputs(3) != outputs(4)


def test_tampered_expected_verdict_is_counted_as_an_error(tmp_path):
    ops = workloads.build("pseudo-axioms", 1, True, str(tmp_path))
    index = next(i for i, op in enumerate(ops) if op.expect is True)
    ops[index] = replace(ops[index], expect=False)
    records, outputs = _run_in_process(ops)
    assert worker.judge(ops, records, outputs) == 1
    assert records[index]["problem"] == "verdict True, expected False"


def test_output_oracles_reject_a_changed_coefficient(tmp_path):
    from fractions import Fraction

    ops = workloads.build("cone-build", 1, True, str(tmp_path))
    gauss = ops[0]
    iota = next(op for op in ops if op.name.startswith("iota_expand"))
    _, outputs = _run_in_process([gauss, iota])
    assert workloads.evaluate(gauss, outputs[0]) == ""
    assert workloads.evaluate(iota, outputs[1]) == ""

    (j, piece), *rest = outputs[0]
    assert workloads.evaluate(gauss, [(j, piece * 2), *rest]) != ""
    series = outputs[1]
    key = next(iter(series.coeffs))
    changed = series._like({**series.coeffs, key: series.coeffs[key] + Fraction(1, 7)},
                           series.windows)
    assert workloads.evaluate(iota, changed) != ""


def test_unexpected_exception_is_counted_as_an_error(tmp_path):
    ops = workloads.build("cone-build", 1, True, str(tmp_path))[:2]
    ops[1] = replace(ops[1], run=lambda: 1 / 0)
    records, outputs = _run_in_process(ops)
    assert worker.judge(ops, records, outputs) == 1
    assert records[1]["problem"].startswith("ZeroDivisionError")


def _bindings() -> dict:
    out = {}
    for module in tracing.package_modules():
        out[module.__name__] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("lambdacone"):
                out[value.__qualname__] = dict(vars(value))
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    import lambdacone
    from lambdacone import cone, rings, vla

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cone.iota_kernel is vla.iota_kernel is lambdacone.iota_kernel
        assert cone.iota_kernel is not before["lambdacone.cone"]["iota_kernel"]
        assert vla._times_mono is cone._times_mono
        assert rings.Poly.__radd__ is rings.Poly.__add__
        assert rings.Poly.__add__ is not before["Poly"]["__add__"]
        tracer.current_op = 7
        cone.gauss_decompose(rings.VarSpace(2, ("z",)).var("z", 1) ** 2)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert not changed, (owner, changed)

    spans = tracer.summary()
    assert spans["cone.gauss_decompose"]["calls"] == 1
    assert spans["rings.Poly.pow"]["calls"] == 1
    assert set(tracer.op) == {7}
    top = [i for i in range(len(tracer.start)) if tracer.parent[i] < 0]
    assert [tracer.names[tracer.name_id[i]] for i in top] == ["rings.VarSpace.var",
                                                              "rings.Poly.pow",
                                                              "cone.gauss_decompose"]


def test_self_time_excludes_child_spans(tmp_path):
    tracer = tracing.Tracer()
    outer = tracer._wrapper(lambda: inner(), "cone.outer")
    inner = tracer._wrapper(lambda: sum(range(20000)), "rings.inner")
    outer()
    total = tracer.end[0] - tracer.start[0]
    spans = tracer.summary()
    assert spans["cone.outer"]["self_s"] + spans["rings.inner"]["self_s"] == pytest.approx(total)
    tracer.write(tmp_path / "spans")
    names = [span[0] for span in tracing.read_spans(tmp_path / "spans")]
    assert names == ["cone.outer", "rings.inner"]


def test_probe_counts_each_interval_at_the_speed_seen_in_it():
    nominal = probing.NOMINAL_S
    probe = probing.Probe()
    # One probe per 0.1 s: at the reference speed for a second, then half as fast.
    probe.samples = [(i / 10, nominal) for i in range(10)]
    probe.samples += [(1 + i / 10, 2 * nominal) for i in range(10)]
    measured, ref = probe.at_reference_speed(0.0, 0.95)
    assert measured == pytest.approx(0.95 - 10 * nominal)
    assert ref == pytest.approx(measured)
    measured, ref = probe.at_reference_speed(1.0, 1.95)
    assert measured == pytest.approx(0.95 - 20 * nominal)
    assert ref == pytest.approx(measured / 2)
    # Too short to hold MIN_PROBES probes: the nearest ones judge it.
    measured, ref = probe.at_reference_speed(1.62, 1.64)
    assert measured == pytest.approx(0.02)
    assert ref == pytest.approx(0.01)


def test_probe_samples_while_started_and_restores_the_alarm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = probing.Probe()
    probe.start()
    try:
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert probe.spent == pytest.approx(sum(seconds for _, seconds in probe.samples))
    assert time.monotonic() - probe.clock() == pytest.approx(probe.spent, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    count = len(probe.samples)
    time.sleep(3 * probing.INTERVAL_S)
    assert len(probe.samples) == count


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in tracing.per_layer_catalogue()]
