"""lambdacone benchmark: cold-start time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload cone-build --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each pass runs one workload in a fresh interpreter (perfbench/worker.py), as a
closed loop of ops run back to back; the passes of a run are themselves run
back to back while at least half of the next one fits in ``--seconds``.  With
``--trace 0`` the run reports the end-to-end metrics: times in seconds at the
reference speed of perfbench/probe.py, each op counted with its median over
the passes, and memory as a median.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones.  The last line of output is one JSON object; the full record, with the
environment, the measured seconds and every op, is written under
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (imports nothing from the package)

WORKLOADS = ("pseudo-axioms", "cone-build", "vla-identities")
# task_a_s and task_b_s stand for a different pair of task times per workload.
TASKS = {
    "pseudo-axioms": ("closure_s", "lie_suite_s"),
    "cone-build": ("cold_basis_s", "decompose_s"),
    "vla-identities": ("bridge_d1_s", "jacobi_d2_s"),
}
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
    ("task_a_s", "s"), ("task_b_s", "s"),
)
SETUP_PROBES = 8   # extra set-up-only interpreters per untraced run
RUN_LIMIT_S = 170  # every run ends within 180 s


class BenchError(RuntimeError):
    """A pass could not run: the program is missing, crashed or hung."""


def _git_commit(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "lambdacone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


class Runner:
    """Starts the worker passes of one run and enforces the run's time limit."""

    def __init__(self, workload: str, seed: int, small: bool, out_dir: Path, started: float):
        self.workload, self.seed, self.small = workload, seed, small
        self.out_dir, self.started = out_dir, started

    def child(self, mode: str) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out-dir", str(self.out_dir),
               "--spawned", repr(spawned)]
        if self.small:
            cmd.append("--small")
        # A fixed hash seed keeps set iteration, and so traced call counts, repeatable.
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass of {self.workload} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass of {self.workload} failed:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["pass_s"] = time.monotonic() - spawned
        return result


def op_medians(passes: list, key: str) -> list:
    """(task, median of ``key`` over the passes) for each op."""
    return [(ops[0]["task"], statistics.median(op[key] for op in ops))
            for ops in zip(*(r["ops"] for r in passes))]


def time_metrics(passes: list, probes: list, key: str) -> dict:
    """wall_s, setup_s, task_a_s and task_b_s from the ``key`` time of each op.

    Each op counts with its median over the passes; set-up time is the median
    over the set-up probes and the passes.
    """
    ops = op_medians(passes, key)
    return {
        "wall_s": sum(s for _, s in ops),
        "setup_s": statistics.median(r["setup_" + key] for r in probes + passes),
        "task_a_s": sum(s for task, s in ops if task == "task_a"),
        "task_b_s": sum(s for task, s in ops if task == "task_b"),
    }


def measure(runner: Runner, seconds: int, trace: bool) -> dict:
    """Run passes back to back for about ``seconds``; returns the run's summary."""
    deadline = runner.started + seconds
    probes = [] if trace else [runner.child("setup") for _ in range(SETUP_PROBES)]
    passes, traced = [], []
    while True:
        begun = time.monotonic()
        passes.append(runner.child("plain"))
        if trace:
            traced.append(runner.child("traced"))
        took = time.monotonic() - begun
        # Run another pass when at least half of it fits before the deadline,
        # so that a run lasts ``seconds`` give or take half a pass.
        if time.monotonic() + took / 2 > deadline:
            break
    everything = probes + passes + traced
    problems = [p for r in everything for p in r["problems"]]
    problems += [f"{op['name']}: {op['problem']}" for r in passes + traced
                 for op in r["ops"] if op["problem"]]
    attempted = sum(r["attempted"] for r in passes + traced)
    failed = sum(r["failed"] for r in passes + traced)
    measured = {}
    if trace:
        metrics = {name: statistics.median([r["layers"][name] for r in traced])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = statistics.median(
            [t["wall_ref_s"] / p["wall_ref_s"] - 1 for p, t in zip(passes, traced)])
    else:
        ref = time_metrics(passes, probes, "ref_s")
        metrics = {
            "wall_s": ref["wall_s"],
            "setup_s": ref["setup_s"],
            "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in passes]),
            "task_a_s": ref["task_a_s"],
            "task_b_s": ref["task_b_s"],
        }
        measured = time_metrics(passes, probes, "s")
        # Above 1 the host ran faster than the reference speed, below 1 slower.
        measured["host_speed"] = statistics.median(
            sum(op["ref_s"] for op in r["ops"]) / sum(op["s"] for op in r["ops"])
            for r in passes)
    return {
        "workload": runner.workload, "seed": runner.seed, "trace": trace,
        "passes": len(passes), "traced_passes": len(traced), "setup_probes": len(probes),
        "attempted": attempted, "failed": failed, "problems": problems,
        "correct": not problems, "metrics": metrics, "measured": measured,
        "pass_records": everything,
    }


def units(trace: bool) -> dict:
    if trace:
        return {name: unit for name, unit, _ in tracing.per_layer_catalogue()}
    return dict(END_TO_END)


def report_lines(summary: dict) -> list:
    """Human-readable lines: every metric by name, with its unit."""
    workload = summary["workload"]
    lines = [f"{workload} seed={summary['seed']}: {summary['passes']} passes"
             + (f", {summary['traced_passes']} traced" if summary["trace"] else
                f" + {summary['setup_probes']} set-up probes")]
    unit = units(summary["trace"])
    named = dict(zip(("task_a_s", "task_b_s"), TASKS[workload]))
    for name, value in summary["metrics"].items():
        label = f"{named[name]} ({name})" if name in named else name
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {label:<40} {text} {unit[name]}")
    if summary["measured"]:
        measured = summary["measured"]
        lines.append(f"  {'as measured':<40} wall {measured['wall_s']:.6g} s, set-up "
                     f"{measured['setup_s']:.6g} s, host speed {measured['host_speed']:.3g}")
    frac = summary["failed"] / summary["attempted"]
    lines.append(f"  {'error_frac':<40} {frac:.6g} ({summary['failed']} of "
                 f"{summary['attempted']} ops)")
    lines.extend(f"  problem: {p}" for p in summary["problems"][:20])
    return lines


def result_line(summary: dict) -> dict:
    unit = units(summary["trace"])
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in summary["metrics"].items()},
    }


def _check_program() -> str:
    """Why the package cannot be benchmarked from this checkout, or ""."""
    package = ROOT / "src" / "lambdacone"
    if not (package / "__init__.py").is_file():
        return f"no lambdacone package under {ROOT / 'src'}"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lambdacone  # also writes the bytecode cache that every pass reads
    except Exception as exc:  # a package that does not import cannot be measured
        return f"cannot import lambdacone: {type(exc).__name__}: {exc}"
    if Path(lambdacone.__file__).resolve().parent != package.resolve():
        return f"lambdacone imports from {lambdacone.__file__}, not from this checkout"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    problem = _check_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = environment(ROOT)
    summaries = []
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            runner = Runner(workload, args.seed, args.small, out_dir, time.monotonic())
            summaries.append(measure(runner, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = _loadavg()

    for summary in summaries:
        record = dict(summary, environment=env)
        name = f"result-{summary['workload']}-seed{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
        for line in report_lines(summary):
            print(line)
    print("environment: " + json.dumps(env))
    if len(summaries) == 1:
        print(json.dumps(result_line(summaries[0])))
    else:
        # One object for all workloads, each metric under its workload's name.
        combined = {"correct": all(s["correct"] for s in summaries),
                    "attempted": sum(s["attempted"] for s in summaries),
                    "failed": sum(s["failed"] for s in summaries), "metrics": {}}
        for summary in summaries:
            named = dict(zip(("task_a_s", "task_b_s"), TASKS[summary["workload"]]))
            for name, entry in result_line(summary)["metrics"].items():
                combined["metrics"][f"{summary['workload']}.{named.get(name, name)}"] = entry
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
