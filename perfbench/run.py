"""mucorr benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a mucorr checkout. The harness imports `mucorr.cli`
from `src/` and calls `mucorr.cli.main(argv)` in-process, in a closed loop
with one caller, so each operation covers argument parsing, scenario load
and validation, evaluation, sampling, rendering and the `--out` write.
Every output is checked by the independent oracle in `oracle.py`.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
runs the same operations untraced and then traced, and reports the
per-layer split. Human-readable lines come first; the last line of
standard output is one JSON object. A fuller result file with provenance
is written to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from tracer import MODULES, Tracer
from workloads import WORKLOADS, cycle_length, make_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
#: One thread for numpy and its BLAS, so a run fits the cores it reports.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}

class Runner:
    """Writes each operation's inputs, calls the CLI, and checks the output."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.tracer: Tracer | None = None
        self.workload = workload
        self.seed = seed
        self.doc_path = work / "scenario.json"
        self.out_path = work / "out.txt"
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.setups: list[float] = []
        self.grid_points = 0
        self.mc_samples = 0
        self.mc_rows = 0
        self.se_band_misses = 0
        self.bytes_out = 0

    def prepare(self, op) -> list[str]:
        """Write the operation's scenario file, clear the old output, and
        return its argv with the real paths."""
        if op.doc is not None:
            self.doc_path.write_text(json.dumps(op.doc), encoding="utf-8")
        self.out_path.unlink(missing_ok=True)
        paths = {"DOC": str(self.doc_path), "OUT": str(self.out_path)}
        return [paths.get(arg, arg) for arg in op.argv]

    def run_op(self, index: int, timed: bool = True) -> None:
        op = make_op(self.workload, self.seed, index)
        argv = self.prepare(op)
        if self.tracer is not None:
            self.tracer.op = index
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = None
                print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - start
        self.record(index, op, code, stderr.getvalue(), elapsed if timed else None)

    def record(self, index: int, op, code, stderr: str, elapsed: float | None) -> None:
        out_text = None
        if self.out_path.exists():
            out_text = self.out_path.read_text(encoding="utf-8")
            self.bytes_out += self.out_path.stat().st_size
        result = oracle.check(op, code, stderr, out_text)
        self.attempted += 1
        if result.problems:
            self.failures.append(f"op {index} ({op.kind}, {op.fmt}): " + "; ".join(result.problems[:3]))
        if elapsed is not None:
            self.latencies.append(elapsed)
        if op.grid:
            self.grid_points += result.rows
        self.mc_samples += op.mc_samples * (code == 0)
        self.mc_rows += result.mc_rows
        self.se_band_misses += result.se_band_misses

    def setup_probe(self) -> None:
        """Time a fresh process that imports mucorr.cli and runs the
        workload's first operation, and check that operation's output."""
        op = make_op(self.workload, self.seed, 0)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(self.prepare(op))],
            capture_output=True, text=True, timeout=120, env={**os.environ, **THREAD_ENV}, cwd=ROOT,
        )
        try:
            reply = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.setups.append(reply["setup_s"])
        self.record(0, op, reply["exit"], proc.stderr, None)

    def loop(self, seconds: float, max_ops: int | None, probes: int = 0) -> int:
        """Run operations 1, 2, ... for `seconds` of loop time and whole cycles
        of the workload's mix, or for `max_ops`; return the count.

        The `probes` set-up probes are spread over the loop, between cycles,
        so that they sample the same drift in host speed as the operations;
        their time does not count against `seconds`.
        """
        cycle = cycle_length(self.workload)
        start = time.perf_counter()
        paused = 0.0
        done = 0
        while done != max_ops:
            elapsed = time.perf_counter() - start - paused
            if done % cycle == 0:
                if len(self.setups) < probes and elapsed >= seconds * len(self.setups) / probes:
                    before = time.perf_counter()
                    self.setup_probe()
                    paused += time.perf_counter() - before
                    continue
                if elapsed >= seconds:
                    break
            self.run_op(1 + done)
            done += 1
        while len(self.setups) < probes:
            self.setup_probe()
        return done


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runner: Runner) -> dict[str, tuple[float, str]]:
    lat = runner.latencies
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000.0 * _percentile(lat, 0.9), "ms"),
        "setup_s": (statistics.median(runner.setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def end_to_end_extras(runner: Runner) -> dict[str, tuple[float, str]]:
    """The error rate and, on mc-crosscheck, sampling throughput. They are
    printed and saved but not gated: each is 0 on some workload."""
    busy = sum(runner.latencies)
    extras = {
        "error_rate": (len(runner.failures) / runner.attempted, "ratio"),
        "latency_samples": (len(runner.latencies), "count"),
    }
    if runner.workload == "mc-crosscheck":
        extras["mc_samples_per_s"] = (runner.mc_samples / busy, "1/s")
    return extras


def per_layer(tr: Tracer, runner: Runner, ops: int) -> dict:
    """Means per traced operation, unless the unit says otherwise."""
    metrics = {}
    for module in MODULES:
        stat = tr.by_module[module]
        metrics[f"{module}.calls"] = (stat.calls / ops, "count")
        metrics[f"{module}.self_s"] = (stat.self_s / ops, "s")
        metrics[f"{module}.errors"] = (stat.errors / ops, "count")
    mc = tr.by_module["montecarlo"]
    metrics.update({
        "counterfactual.max_info_direction_s": (
            tr.by_name["counterfactual.max_info_direction"].outer_s / ops, "s"),
        "montecarlo.total_s": (mc.outer_s / ops, "s"),
        "montecarlo.samples_drawn": (tr.samples_drawn / ops, "count"),
        "montecarlo.ns_per_sample": (
            1e9 * mc.outer_s / tr.samples_drawn if tr.samples_drawn else 0.0, "ns"),
        "montecarlo.peak_alloc_mb": (tr.mc_peak_alloc / 2**20, "MB"),
        "montecarlo.se_band_miss_ratio": (
            runner.se_band_misses / runner.mc_rows if runner.mc_rows else 0.0, "ratio"),
        "montecarlo.se_band_rows": (runner.mc_rows, "count"),
        "scenarios.load_validate_s": (tr.load_validate.outer_s / ops, "s"),
        "nsbox.validate_no_signalling_s": (
            tr.by_name["nsbox.validate_no_signalling"].outer_s / ops, "s"),
        "scenarios.sweep_rows_s": (tr.by_name["scenarios.sweep_rows"].outer_s / ops, "s"),
        "scenarios.grid_points": (runner.grid_points / ops, "count"),
        "cli.render_s": (tr.by_name["cli.emit"].outer_s / ops, "s"),
        "cli.bytes_out": (runner.bytes_out / ops, "B"),
    })
    return metrics


def trace_extras(tr: Tracer, runner: Runner, ops: int, untraced_ops_per_s: float) -> dict:
    """The harness's own figures for a traced run: tracing cost, the
    wrapper cost taken off the layer times, and the spans kept."""
    traced_ops_per_s = ops / sum(runner.latencies)
    return {
        "bench.traced_ops": (ops, "count"),
        "bench.ops_per_s_traced": (traced_ops_per_s, "1/s"),
        "bench.ops_per_s_untraced": (untraced_ops_per_s, "1/s"),
        "bench.trace_overhead": (untraced_ops_per_s / traced_ops_per_s, "ratio"),
        "bench.wrapper_call_ns": (1e9 * tr.call_cost, "ns"),
        "bench.spans_kept": (len(tr.spans), "count"),
        "bench.span_stride": (tr.stride, "ops"),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, ops: int) -> dict:
    import mucorr
    import numpy

    return {
        "mucorr": mucorr.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, probes: int = SETUP_PROBES, max_ops: int | None = None) -> dict:
    """Run one workload and return its metrics, counts and failures."""
    from mucorr import cli

    runner = Runner(cli, workload, seed, work)
    runner.run_op(0, timed=False)
    if not trace:
        ops = runner.loop(seconds, max_ops, probes)
        metrics = end_to_end(runner)
        extras = end_to_end_extras(runner)
        spans = None
    else:
        untraced_ops_per_s = runner.loop(seconds / 2.0, max_ops) / sum(runner.latencies)
        runner.latencies.clear()
        runner.grid_points = runner.mc_rows = runner.se_band_misses = runner.bytes_out = 0
        tr = runner.tracer = Tracer()
        with tr:
            ops = runner.loop(seconds / 2.0, max_ops)
        runner.tracer = None
        metrics = per_layer(tr, runner, ops)
        extras = trace_extras(tr, runner, ops, untraced_ops_per_s)
        spans = tr.spans
    return {
        "metrics": metrics, "extras": extras, "ops": ops, "spans": spans,
        "attempted": runner.attempted, "failures": runner.failures,
        "latencies": list(runner.latencies),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mucorr" / "cli.py").is_file():
        print(f"error: no mucorr sources at {SRC}; run from a mucorr checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import mucorr

    if not Path(mucorr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mucorr from {mucorr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(result["failures"])
    record = {
        "provenance": provenance(args, result["ops"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in result["extras"].items()},
        "attempted": result["attempted"],
        "failed": failed,
        "failures": result["failures"][:50],
        "latencies_ms": [round(1000.0 * x, 3) for x in result["latencies"]],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if result["spans"] is not None:
        fields = ("op", "span", "parent", "name", "start", "end", "ok")
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")

    for message in result["failures"][:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  ops {result['ops']}  "
          f"closed loop, 1 caller  failed {failed}/{result['attempted']}")
    for name, (value, unit) in {**result["metrics"], **result["extras"]}.items():
        print(f"  {name:<38} {value:>16.6g} {unit}")
    summary = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
