"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, so every pass pays for the import
and for filling the ``lru_cache`` kernels, as a CLI call or a new pytest
session does.  It prints one JSON object: the pass's timings, op records,
cache deltas and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload cone-build --seed 1 --mode plain --out-dir DIR \
        --spawned SECONDS
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probe as probing  # noqa: E402

PROBE = probing.Probe()
if __name__ == "__main__":
    # Probe from here on, so that the import of the package is probed too.
    PROBE.start()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_ops(ops: list, kernels: dict, tracer=None) -> tuple:
    """Run the ops back to back; returns (records, outputs, first start, last end).

    An op that raises is recorded with its error and no output.
    """
    records, outputs = [], []
    clock = time.monotonic
    first = clock()
    for index, op in enumerate(ops):
        before = tracing.cache_totals(kernels)
        if tracer is not None:
            tracer.current_op = index
        start = clock()
        try:
            output, error = op.run(), ""
        except Exception as exc:  # an unexpected exception is a wrong result
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        after = tracing.cache_totals(kernels)
        records.append({
            "name": op.name, "task": op.task, "s": seconds, "start": start, "error": error,
            "cache_hits": after["hits"] - before["hits"],
            "cache_misses": after["misses"] - before["misses"],
        })
        outputs.append(output)
    return records, outputs, first, clock()


def judge(ops: list, records: list, outputs: list) -> int:
    """Fill in each record's oracle problem; returns the number of wrong ops."""
    failed = 0
    for op, record, output in zip(ops, records, outputs):
        problem = record["error"]
        if not problem:
            try:
                problem = workloads.evaluate(op, output)
            except Exception as exc:  # an output the oracle cannot read is wrong
                problem = f"oracle raised {type(exc).__name__}: {exc}"
        record["problem"] = problem
        failed += bool(problem)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the interpreter was started")
    parser.add_argument("--small", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.out_dir) as scratch:
        result = run_pass(args, scratch)
    print(json.dumps(result))
    return 0


def run_pass(args, scratch: str) -> dict:
    """Set up, run and judge one pass; returns its result record.

    Set-up time runs from ``args.spawned``, when run.py started this
    interpreter, to the first op.  Every time is also given at the reference
    speed of the probe.  The tracer's clock stops while a probe runs, so that
    no span counts probe time.
    """
    ops = workloads.build(args.workload, args.seed, args.small, scratch)
    kernels = tracing.caches()
    warm = sorted(name for name, fn in kernels.items() if fn.cache_info().currsize)
    problems = [f"cache {name} is not empty at the first op" for name in warm]
    first_op = time.monotonic()
    setup_s, setup_ref_s = PROBE.at_reference_speed(args.spawned, first_op)
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "problems": problems}
    if args.mode == "setup":
        PROBE.stop()
        return result

    tracer = tracing.Tracer(PROBE.clock) if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    try:
        records, outputs, first, last = run_ops(ops, kernels, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    PROBE.stop()
    wall, wall_ref = PROBE.at_reference_speed(first, last)
    for record in records:
        record["s"], record["ref_s"] = PROBE.at_reference_speed(
            record["start"], record["start"] + record["s"])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = judge(ops, records, outputs)
    result.update({
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "probes": len(PROBE.samples),
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(ops),
        "failed": failed,
        "ops": records,
    })
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, records, kernels, wall)
        stem = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}")
        tracer.write(stem)
        result["spans_file"] = stem + ".bin"
    return result

if __name__ == "__main__":
    sys.exit(main())
