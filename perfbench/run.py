"""Benchmark of the `ducclab run` CLI.

One closed-loop client: the benchmark starts one `ducclab run` subprocess at
a time and waits for it, so at most one run occupies the machine.  Run from
the root of a checkout::

    python3 perfbench/run.py --workload ground-m12 --seed 1 --seconds 20 --trace 0

Workloads are listed in ``inputs.WORKLOADS``; ``--workload smoke`` runs the
seconds-long check on ``configs/hubbard_dimer.json``.  With ``--trace 0``
the end-to-end metrics are measured with tracing off; with ``--trace 1`` one
untraced and one traced run give the per-layer metrics of ``tracer.py`` and
the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  An operation (the input
check, a `validate` or a `run`) fails on a nonzero exit, a task not `ok`, a
value outside the bounds of ``checks.py``, or a report that differs from an
earlier report of the same workload, seed and program sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy

import checks
import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
SMOKE_CONFIG = os.path.join(ROOT, "configs", "hubbard_dimer.json")
SMOKE_ANCHOR = 2.0 - 2.0 * math.sqrt(2.0)   # Hubbard dimer, t=1, U=4

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0   # every child is killed past this point of the run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the console script `ducclab` is `ducclab.cli:main`; this is the same call
CLI = [sys.executable, "-c",
       "import sys; from ducclab.cli import main; sys.exit(main())"]

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".work_n3")):
        return "count"
    if name.endswith(".unique_ratio"):
        return "ratio"
    return "s"


@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Bench:
    """Operations of one benchmark invocation and their failures."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.problems: list[str] = []
        self.workdir = os.path.join(WORK, f"{workload}-{seed}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = SRC
        self.digests: set[str] = set()
        self.digest_file = os.path.join(
            WORK, "digests", f"{workload}-{seed}-{source_digest()[:16]}")

    @property
    def failed(self) -> int:
        return len(self.problems)

    def spawn(self, argv: list[str], log: str) -> Sample:
        """Run one child to completion; wall time, CPU and peak RSS come
        from ``os.wait4`` on that child alone."""
        timeout = max(1.0, TIME_LIMIT_S - (time.perf_counter() - self.t0))
        with open(os.path.join(self.workdir, log), "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)

    def operation(self, label: str, argv: list[str], outdir: str | None) -> Sample:
        """One attempted operation: a child run, plus the checks of its
        report when it writes one into ``outdir``."""
        self.attempted += 1
        sample = self.spawn(argv, f"{label}.log")
        if sample.code != 0:
            self.problems.append(f"{label}: exit code {sample.code}")
        elif outdir is not None:
            self.check_output(label, outdir)
        return sample

    def check_output(self, label: str, outdir: str) -> None:
        try:
            with open(os.path.join(outdir, "report.json")) as fh:
                report = json.load(fh)
            problems = checks.check_report(report, outdir)
            if self.workload == "smoke":
                problems += smoke_problems(report)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"{label}: unreadable output: {type(exc).__name__}: {exc}")
            return
        for p in problems:
            self.problems.append(f"{label}: {p}")
        self.digests.add(checks.report_digest(report))
        if len(self.digests) > 1:
            self.problems.append(f"{label}: report differs from an earlier run")
        self.compare_with_first_run(label)

    def compare_with_first_run(self, label: str) -> None:
        """Reports of one workload, seed and source tree must not change
        between invocations; the first one is kept under ``.work``."""
        digest = next(iter(self.digests))
        try:
            with open(self.digest_file) as fh:
                first = fh.read().strip()
        except FileNotFoundError:
            os.makedirs(os.path.dirname(self.digest_file), exist_ok=True)
            with open(self.digest_file, "w") as fh:
                fh.write(digest + "\n")
            return
        if first != digest:
            self.problems.append(f"{label}: report differs from the first run of these sources")


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ducclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def smoke_problems(report: dict) -> list[str]:
    tasks = {t["name"]: t for t in report["tasks"]}
    energy = tasks["fci"]["results"]["ground_energy"]
    if abs(energy - SMOKE_ANCHOR) > 1e-12:
        return [f"dimer ground energy {energy!r} != 2 - 2*sqrt(2)"]
    return []


def input_health(bench: Bench, config: str) -> dict:
    """FCI gap and reference weight of a generated Hamiltonian, computed
    through the package's public API; a seed outside the accepted range is
    a failed input, never replaced by another seed."""
    with open(config) as fh:
        cfg = json.load(fh)
    if cfg["system"]["kind"] != "fcidump":
        return {}
    bench.attempted += 1
    sys.path.insert(0, SRC)
    import ducclab
    ints, nelec = ducclab.read_fcidump(
        os.path.join(os.path.dirname(config), cfg["system"]["path"]))
    basis = ducclab.build_basis(ints.M, nelec)
    H = ducclab.hamiltonian_from_integrals(ints, basis)
    vals, vecs = np.linalg.eigh(H.matrix)
    ref = ducclab.aufbau_reference(ints.M, nelec)
    health = {"fci_gap": float(vals[1] - vals[0]),
              "reference_weight": float(abs(vecs[basis.index_of(ref), 0]) ** 2)}
    if (health["fci_gap"] < checks.MIN_GAP
            or health["reference_weight"] < checks.MIN_REFERENCE_WEIGHT):
        bench.problems.append(f"bad input for seed {bench.seed}: {health}")
    return health


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": ".".join(str(x) for x in sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_configuration": blas.get("openblas configuration"),
        "thread_vars_removed": [v for v in THREAD_VARS if v in os.environ],
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} min={min(values):.4f} max={max(values):.4f}"


def measure(bench: Bench, config: str, seconds: int) -> dict:
    """End-to-end metrics with tracing off."""
    setup = [bench.operation(f"validate{k}", CLI + ["validate", config], None)
             for k in range(SETUP_REPEATS)]
    runs: list[Sample] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_once(bench, config, f"run{len(runs)}"))
    series = {
        "run_s": [s.wall_s for s in runs],
        "cpu_s": [s.cpu_s for s in runs],
        "setup_s": [s.wall_s for s in setup],
        "peak_rss_mb": [s.peak_rss_mb for s in runs],
    }
    for name, values in series.items():
        print(f"# {name}: median {statistics.median(values):.4f} "
              f"{END_TO_END_UNITS[name]} ({quartiles(values)})")
    return {name: statistics.median(values) for name, values in series.items()}


def run_once(bench: Bench, config: str, label: str) -> Sample:
    outdir = os.path.join(bench.workdir, label)
    return bench.operation(label, CLI + ["run", config, "--seed", str(bench.seed),
                                         "--output", outdir], outdir)


def measure_traced(bench: Bench, config: str) -> dict:
    """Per-layer metrics from one traced run, and its overhead over one
    untraced run of the same input."""
    plain = run_once(bench, config, "run0")
    outdir = os.path.join(bench.workdir, "traced")
    trace_out = os.path.join(bench.workdir, "trace.json")
    traced = bench.operation(
        "traced", [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), config,
                   "--seed", str(bench.seed), "--output", outdir,
                   "--run-id", f"{bench.workload}-{bench.seed}",
                   "--trace-out", trace_out], outdir)
    try:
        with open(trace_out) as fh:
            metrics = json.load(fh)["metrics"]
    except (OSError, ValueError, KeyError) as exc:
        bench.problems.append(f"traced: no metrics: {exc}")
        metrics = {}
    metrics["tracing_overhead_s"] = traced.wall_s - plain.wall_s
    print(f"# spans: {os.path.relpath(trace_out, ROOT)}.spans.jsonl")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS) + ["smoke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ducclab", "cli.py")):
        print(f"no ducclab sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    if args.workload == "smoke":
        config = SMOKE_CONFIG
    else:
        config = inputs.write_workload(args.workload, args.seed,
                                       os.path.join(bench.workdir, "input"))
    print("# environment: " + json.dumps(environment(), sort_keys=True))
    print("# input: " + json.dumps(input_health(bench, config), sort_keys=True))
    if args.trace:
        values = measure_traced(bench, config)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = measure(bench, config, args.seconds)
        units = END_TO_END_UNITS
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    print(f"# fail_rate: {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4f} ratio")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
