#!/usr/bin/env python3
"""Benchmark harness for precursor-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload through the
public entry point ``precursor_lab.cli.main`` with ``--threads 1`` and one
BLAS/OpenMP thread.  Every operation is one ``cli.main`` call on the
workload's config, writing into a fresh output directory, and every output
is checked against a computation made apart from the program
(``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing ``precursor_lab`` and parsing the config),
``run_s`` (median time of one warm operation) and ``peak_rss_mb``.  Both
times are scaled to a reference machine speed by a fixed calibration kernel
timed just before and just after each interpreter's set-up and each
operation (see ``calibration.py``).  ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics from the spans
``tracing.py`` records.

An operation fails on an exception, a non-zero exit status or a failed
output check.  A failed operation is counted but never timed, and any
failure makes ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run go to ``perfbench/out/trace-<workload>-seed<N>.json``.
"""

import os

# one BLAS/OpenMP thread, pinned before numpy loads here or in a child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_DIR = HERE / "workloads"

WORKLOADS = ("sweep-z", "stochastic")
SETUP_INTERPRETERS = 7
IMPORTTIME_INTERPRETERS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "analysis.import_s": "s",
    "config.parse_s": "s",
    "grid.n": "samples",
    "grid.transforms": "count",
    "grid.transform_s": "s",
    "media.transfer_s": "s",
    "propagate.fft_s": "s",
    "stochastic.quadrature_s": "s",
    "stochastic.quad_calls": "count",
    "stochastic.monte_carlo_s": "s",
    "stochastic.observed_s": "s",
    "kernels.gamma_draws_s": "s",
    "analysis.metrics_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# Run in a fresh interpreter: import the package, then read and parse the
# config, timing both, with the calibration kernel run just before and just
# after in the same interpreter.  Prints one JSON line.
SETUP_CHILD = """
import json, sys, time
sys.path.append(sys.argv[2])
import calibration
before = calibration.kernel()
t0 = time.perf_counter()
import precursor_lab
t1 = time.perf_counter()
from precursor_lab.config import parse_config
parse_config(open(sys.argv[1]).read())
t2 = time.perf_counter()
setup_s = calibration.scale(t2 - t0, before, calibration.kernel())
print(json.dumps({"setup_s": setup_s, "parse_s": t2 - t1, "file": precursor_lab.__file__}))
"""


def calibrated(fn, *args):
    """Call ``fn``; return its result and its wall time at the reference speed."""
    before = calibration.kernel()
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    return result, calibration.scale(seconds, before, calibration.kernel())


class SetupError(Exception):
    """The benchmark cannot run here (no package source, a child failed)."""


def load_cli():
    """Import ``precursor_lab.cli`` from this checkout's ``src/``."""
    if not (SRC / "precursor_lab" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import precursor_lab.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "precursor_lab").resolve():
        raise SetupError(f"precursor_lab was imported from {cli.__file__}, not {SRC}")
    return cli


def write_config(workload: str, seed: int, run_dir: Path) -> Path:
    """The workload's committed config with the seed written into it."""
    text = (WORKLOAD_DIR / f"{workload}.ini").read_text()
    text, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    if count != 1:
        raise SetupError(f"{workload}.ini must have exactly one seed line")
    path = run_dir / "config.ini"
    path.write_text(text)
    return path


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_interpreter_setup(config: Path, importtime: bool) -> dict:
    """Import and parse timings from one fresh interpreter."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CHILD, str(config), str(HERE)]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["file"]).resolve().parent != (SRC / "precursor_lab").resolve():
        raise SetupError(f"set-up interpreter imported {result['file']}")
    if importtime:
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*precursor_lab\.analysis$", proc.stderr, re.M)
        if match is None:
            raise SetupError("no import time for precursor_lab.analysis")
        result["analysis_import_s"] = int(match.group(1)) * 1e-6
    return result


class Workload:
    """One workload in one run: its config, its operations and their checks."""

    def __init__(self, name: str, seed: int, cli, run_dir: Path):
        self.name = name
        self.cli = cli
        self.run_dir = run_dir
        self.config = write_config(name, seed, run_dir)
        self.params = checks.read_params(self.config)
        self.reference = checks.StochasticReference(self.params) if name == "stochastic" else None
        self.ops = 0
        self.failed = 0
        self.last_bytes = 0
        self.last_grid_n = 0

    def op(self, tracer: Tracer | None = None) -> float | None:
        """Run, time and check one operation.

        Returns the calibrated seconds of the ``cli.main`` call, or None when
        the operation failed.
        """
        out_dir = self.run_dir / f"op{self.ops}"
        self.ops += 1
        argv = [str(self.config), "--output-dir", str(out_dir), "--threads", "1"]

        def call():
            try:
                # the result line must stay the last line of standard output
                with contextlib.redirect_stdout(io.StringIO()):
                    if tracer is None:
                        return self.cli.main(argv)
                    return tracer.call("cli.main", self.cli.main, argv)
            except Exception:
                traceback.print_exc()
                return None

        status, seconds = calibrated(call)
        passed = status == 0
        if not passed:
            print(f"{self.name}: operation exited with status {status}", file=sys.stderr)
        else:
            try:
                self.check(out_dir)
            except checks.CheckError as exc:
                print(f"{self.name}: wrong output: {exc}", file=sys.stderr)
                passed = False
        self.failed += not passed
        self.last_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        summary = out_dir / "summary.txt"
        match = summary.is_file() and re.search(r"^grid: n=(\d+) ", summary.read_text(), re.M)
        self.last_grid_n = int(match.group(1)) if match else 0
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds if passed else None

    def check(self, out_dir: Path) -> None:
        if self.reference is None:
            checks.check_sweep_z(out_dir, self.params)
        else:
            self.reference.check(out_dir)


def passed_times(workload: Workload, seconds: float, step) -> list:
    """Results of ``step()`` until ``seconds`` have passed, failures dropped.

    The loop ends early, with no results, when the first three steps fail.
    """
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        result = step()
        if result is not None:
            results.append(result)
        elif not results and workload.failed >= 3:
            break
    return results


def measure_untraced(workload: Workload, seconds: float) -> dict:
    setups = [fresh_interpreter_setup(workload.config, importtime=False) for _ in range(SETUP_INTERPRETERS)]
    workload.op()  # warm-up: lazy imports, caches, the checkers' references
    times = passed_times(workload, seconds, workload.op)
    if not times:
        return {}
    print(f"{workload.name} calibrated operation times: {len(times)} passed, min {min(times):.4f} s, "
          f"median {statistics.median(times):.4f} s, max {max(times):.4f} s")
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload: Workload, seconds: float, spans_path: Path) -> dict:
    setups = [fresh_interpreter_setup(workload.config, importtime=True) for _ in range(IMPORTTIME_INTERPRETERS)]
    workload.op()  # warm-up
    tracer = Tracer()
    recorded = []

    def pair():
        """One untraced and one traced operation, or None if either failed."""
        untraced = workload.op()
        tracer.reset()
        tracer.install()
        try:
            traced = workload.op(tracer)
        finally:
            tracer.uninstall()
        if untraced is None or traced is None:
            return None
        numbers = tracer.layer_metrics()
        numbers["grid.n"] = workload.last_grid_n
        numbers["cli.bytes_written"] = workload.last_bytes
        numbers["trace.overhead_s"] = traced - untraced
        recorded.append(tracer.spans)
        return numbers

    layers = passed_times(workload, seconds, pair)
    if not layers:
        return {}
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "ops": recorded}))
    metrics = {name: statistics.median(op[name] for op in layers) for name in layers[0]}
    metrics["analysis.import_s"] = statistics.median(s["analysis_import_s"] for s in setups)
    metrics["config.parse_s"] = statistics.median(s["parse_s"] for s in setups)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        cli = load_cli()
        run_dir.mkdir(parents=True)
        workload = Workload(args.workload, args.seed, cli, run_dir)
        if args.trace:
            spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            values, units = measure_traced(workload, args.seconds, spans_path), PER_LAYER_UNITS
        else:
            values, units = measure_untraced(workload, args.seconds), END_TO_END_UNITS
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # no metrics when no operation passed
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if values}
    for name, metric in metrics.items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} operations: {workload.ops} attempted, {workload.failed} failed")
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.ops,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
