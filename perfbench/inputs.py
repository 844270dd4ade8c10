"""Seeded inputs for the benchmark workloads.

Every input is a function of the workload name and the seed alone: the same
seed writes byte-identical files.  The program under test only ever sees the
files written here.
"""

from __future__ import annotations

import json
import os
from itertools import combinations_with_replacement

import numpy as np

# orbital-energy spacing and coupling scales of the random spin-orbital
# Hamiltonians: the one-body diagonal dominates, so every seed gives a gapped
# ground state close to the aufbau reference, while the couplings keep every
# amplitude nonzero
ORBITAL_SPACING = 0.5
ONE_BODY_COUPLING = 0.05
TWO_BODY_COUPLING = 0.02


def write_fcidump(path: str, M: int, N: int, seed: int) -> None:
    """Random real spin-orbital FCIDUMP over ``M`` orbitals and ``N`` electrons.

    Each unique eightfold-symmetric quadruple ``(ij|kl)`` is written once,
    then the one-body lines ``i j 0 0`` (i >= j) and the core line.
    """
    rng = np.random.default_rng([seed, M, N])
    pairs = [(i, j) for i in range(1, M + 1) for j in range(1, i + 1)]
    lines = [f" &FCI NORB={M},NELEC={N},MS2=0,", "  ORBSYM=" + "1," * M,
             "  ISYM=1,", " &END"]
    for (i, j), (k, l) in combinations_with_replacement(pairs, 2):
        val = TWO_BODY_COUPLING * rng.standard_normal()
        lines.append(f"{val: .16e} {k} {l} {i} {j}")
    for i, j in pairs:
        if i == j:
            val = ORBITAL_SPACING * (i - 1) - 1.0
        else:
            val = ONE_BODY_COUPLING * rng.standard_normal()
        lines.append(f"{val: .16e} {i} {j} 0 0")
    lines.append(f"{rng.uniform(-1.0, 1.0): .16e} 0 0 0 0")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# every workload uses the active window `auto_homo_lumo [2, 2]`; "fcidump"
# gives (M, N) of a generated Hamiltonian
WORKLOADS = {
    "ground-m12": {
        "fcidump": (12, 6),
        "tasks": [{"name": "fci"}, {"name": "cluster"}, {"name": "sweep"},
                  {"name": "downfold"}, {"name": "imagtime"}],
    },
    "quench-m10": {
        "system": {"kind": "hubbard", "L": 5, "t": 1.0, "U": 4.0},
        "electrons": 5,
        "tasks": [{"name": "propagate", "dt": 0.02, "nsteps": 20}],
    },
    "ecc-m10": {
        "fcidump": (10, 4),
        "tasks": [{"name": "ecc", "n_configs": 10}],
    },
}


def write_workload(name: str, seed: int, workdir: str) -> str:
    """Write the config (and FCIDUMP) of ``name`` for ``seed`` under
    ``workdir``; return the config path."""
    spec = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    cfg = {"partition": {"auto_homo_lumo": [2, 2]}, "tasks": spec["tasks"],
           "output_dir": "out", "seed": seed}
    if "fcidump" in spec:
        M, N = spec["fcidump"]
        write_fcidump(os.path.join(workdir, "ham.fcidump"), M, N, seed)
        cfg["system"] = {"kind": "fcidump", "path": "ham.fcidump"}
        cfg["electrons"] = N
    else:
        cfg["system"] = spec["system"]
        cfg["electrons"] = spec["electrons"]
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path
