"""Output checks behind `fail_rate`.

The bounds live here, in the benchmark, never in the program.  Where the
program's own `verify-all` battery checks the same value, the bound here is
the same or tighter.  The one exception is `max_consistency_deviation`:
`verify-all` bounds it by 1e-5 for its own step size, which quench-m10 does
not use.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# value name -> exclusive upper bound, per task
UPPER_BOUNDS = {
    "cluster": {"cc_residual": 1e-9, "roundtrip_residual": 1e-9},
    "sweep": {"reconstruction_residual": 1e-9},
    "downfold": {"ducc_delta_e": 1e-9, "sescc_delta_e": 1e-9},
    "imagtime": {"delta_e_vs_fci": 1e-8},
    "propagate": {
        "max_decomposition_residual": 1e-9,
        "norm_drift": 1e-9,
        "energy_drift": 1e-9,
        # the dt^4 discretisation error of quench-m10 (dt=0.02, 20 steps)
        # reads 2.7837e-05; the bound leaves a 7.8% margin above it
        "max_consistency_deviation": 3.0e-05,
    },
    "ecc": {"max_ldt_deviation": 1e-10, "max_lh_deviation": 1e-10,
            "max_action_deviation": 1e-10, "max_bch_deviation": 1e-10},
}

# generated Hamiltonians: smallest FCI gap and reference weight accepted
MIN_GAP = 0.1
MIN_REFERENCE_WEIGHT = 0.5


def report_digest(report: dict) -> str:
    """Digest of a report without its timestamp."""
    body = {k: v for k, v in report.items() if k != "generated_at"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


ARTIFACTS = {"fci": "fci_spectrum.csv", "imagtime": "imagtime_flow.csv",
             "propagate": "trajectory.csv"}


def _results(report: dict):
    """(task name, results) in run order; `verify-all` contributes the
    results of each task it ran."""
    for task in report["tasks"]:
        if task["name"] == "verify-all":
            yield from ((k, v) for k, v in task["results"].items()
                        if k in UPPER_BOUNDS or k in ARTIFACTS)
        else:
            yield task["name"], task["results"]


def check_report(report: dict, outdir: str) -> list[str]:
    """Every problem found in one run's report and CSV artifacts."""
    problems = [f"{t['name']}: {t['status']}: {t.get('error')}"
                for t in report["tasks"] if t["status"] != "ok"]
    if problems:
        return problems
    writers = {}
    for name, res in _results(report):
        for key, bound in UPPER_BOUNDS.get(name, {}).items():
            if not res[key] < bound:
                problems.append(f"{name}.{key} = {res[key]!r} not < {bound}")
        if name == "imagtime" and res["monotone_shifts"] is not True:
            problems.append("imagtime.monotone_shifts is not true")
        if name in ARTIFACTS:
            writers[name] = res   # a later task overwrites the same file
    for name, res in writers.items():
        if not _reads_back(name, res, os.path.join(outdir, ARTIFACTS[name])):
            problems.append(f"{ARTIFACTS[name]} does not read back")
    return problems


def _reads_back(name: str, res: dict, path: str) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not all(math.isfinite(float(v)) for row in rows for v in row.values()):
        return False
    if name == "fci":
        energies = [float(r["energy"]) for r in rows]
        return (len(rows) == res["dimension"]
                and energies[:len(res["roots"])] == res["roots"])
    if name == "imagtime":
        return len(rows) == res["steps"] + 1
    return (len(rows) == res["nsteps"] + 1
            and all(abs(float(r["norm"]) - 1.0) < 1e-9 for r in rows))
