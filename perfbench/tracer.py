"""In-process span tracer for ``ducclab run``.

Run as a script, it imports ``ducclab`` from the checkout's ``src/``, wraps
the package's public functions, the ``cli.TASKS`` entries and four dense
kernels with span timers or counters, runs the CLI in this process and
writes the spans and the per-layer metrics when the run ends::

    python3 perfbench/tracer.py CONFIG --seed N --output DIR --trace-out FILE

Nothing under ``src/`` changes: the wrappers are installed from outside by
rebinding module attributes, so every call site that looks a function up
through a module namespace goes through its wrapper.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fock", "operators", "cluster", "sweeps", "downfold", "dynamics",
          "imagtime", "ecc", "cli", "linalg")

# leaf functions called up to millions of times per run: counted, not timed,
# so that the tracer does not swamp the numbers it measures
COUNT_ONLY = frozenset({
    "fock.apply_excitation", "fock.apply_deexcitation",
    "fock.classify_determinant", "fock.signature_between",
    "fock.apply_operator_string", "fock.holes_and_particles",
})

# the dense kernels of the `linalg` layer: (module path, attribute)
KERNELS = (("scipy.linalg", "expm"), ("scipy.linalg", "schur"),
           ("numpy.linalg", "eigh"), ("numpy.linalg", "eig"))

# the per-layer metrics: `cli.task.<task>.wall_s`, and `.calls` (plus
# `.self_s` for the timed ones) of the functions below
TRACED_TASKS = ("fci", "cluster", "sweep", "downfold", "propagate",
                "imagtime", "ecc")

TIMED_FUNCTIONS = (
    "operators.logm_unitary",
    "linalg.expm", "linalg.schur", "linalg.eigh", "linalg.eig",
    "cluster.cluster_analyze", "cluster.excitation_matrix",
    "cluster.deexcitation_matrix", "cluster.build_projectors",
    "sweeps.decompose_state", "sweeps.sweep_external", "sweeps.sweep_internal",
    "sweeps.rotation_pairs", "sweeps.extract_sigmas",
    "downfold.downfold_ducc", "downfold.downfold_sescc", "downfold.cas_indices",
    "dynamics.propagate_full", "dynamics.decompose_trajectory",
    "dynamics.build_heff_td", "dynamics.propagate_internal",
    "dynamics.trajectory_to_csv",
    "imagtime.imaginary_evolve",
    "ecc.eval_ldt_forms", "ecc.eval_lh_forms", "ecc.x_int_ext_bch",
    "ecc.eval_ecc_action_integrand",
)
TRACED_CALLS = ("fock.apply_excitation", "fock.apply_deexcitation",
                "fock.classify_determinant", "fock.signature_between"
                ) + TIMED_FUNCTIONS

# reported together as `operators.build.self_s`
OPERATOR_BUILDERS = ("build_hubbard", "build_pairing",
                     "hamiltonian_from_integrals", "read_fcidump")


def _digest(h, obj) -> None:
    """Feed a deterministic fingerprint of ``obj`` into hash ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for x in obj:
            _digest(h, x)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k, v in obj.items():
            _digest(h, k)
            _digest(h, v)
        h.update(b"}")
    elif hasattr(obj, "masks") and hasattr(obj, "M"):
        # a FockBasis is fixed by its sector
        h.update(f"basis{obj.M},{obj.N}".encode())
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        _digest(h, [getattr(obj, f) for f in obj.__dataclass_fields__])
    else:
        h.update(repr(obj).encode())


def fingerprint(*args, **kwargs) -> str:
    h = hashlib.sha1()
    _digest(h, (args, sorted(kwargs.items())))
    return h.hexdigest()


# functions whose repeated work is measured: distinct argument fingerprints
# over calls gives `<name>.unique_ratio`
UNIQUE_TRACKED = frozenset({
    "sweeps.decompose_state", "cluster.cluster_analyze",
    "sweeps.rotation_pairs", "ecc.eval_ldt_forms", "linalg.expm",
})


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end.

    A span is ``[name, start, end, parent index]``; spans nest strictly
    because the CLI runs its tasks on one thread.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.inputs: dict[str, set] = defaultdict(set)
        self.work_n3 = 0

    def wrap(self, name: str, fn):
        count, inputs = self.counts[name], self.inputs
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                count[0] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        spans, stack, clock = self.spans, self.stack, time.perf_counter
        track = name in UNIQUE_TRACKED
        kernel = name.startswith("linalg.")

        def timed(*args, **kwargs):
            count[0] += 1
            if track:
                inputs[name].add(fingerprint(*args, **kwargs))
            if kernel:
                self.work_n3 += int(args[0].shape[0]) ** 3
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return functools.wraps(fn)(timed)

    def install(self, src_dir: str) -> None:
        """Wrap every public ducclab function in every ducclab namespace it
        is bound in, the ``cli.TASKS`` entries and the dense kernels."""
        sys.path.insert(0, src_dir)
        import ducclab
        from ducclab import cli
        modules = [importlib.import_module(f"ducclab.{m}") for m in LAYERS[:-1]]
        wrappers: dict = {}
        for mod in modules + [ducclab]:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr.startswith("task_")
                        or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("ducclab.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[obj])
        for task, fn in list(cli.TASKS.items()):
            cli.TASKS[task] = self.wrap(f"cli.task.{task}", fn)
        for modname, attr in KERNELS:
            mod = importlib.import_module(modname)
            setattr(mod, attr, self.wrap(f"linalg.{attr}", getattr(mod, attr)))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def wall_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, by name.  Functions a workload never
        calls read 0 calls and 0 s; an unused function's unique ratio reads
        1.0 (no repeated work)."""
        selfs, walls = self.self_times(), self.wall_times()
        m: dict[str, float] = {}
        m["cli.build_context.wall_s"] = walls["cli.build_context"]
        for task in TRACED_TASKS:
            m[f"cli.task.{task}.wall_s"] = walls[f"cli.task.{task}"]
        for name in TRACED_CALLS:
            m[f"{name}.calls"] = self.counts[name][0]
        for name in TIMED_FUNCTIONS:
            m[f"{name}.self_s"] = selfs[name]
        m["operators.build.self_s"] = sum(selfs[f"operators.{f}"]
                                          for f in OPERATOR_BUILDERS)
        m["linalg.work_n3"] = self.work_n3
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                       if k.split(".", 1)[0] == layer)
        for name in sorted(UNIQUE_TRACKED):
            n = self.counts[name][0]
            m[f"{name}.unique_ratio"] = len(self.inputs[name]) / n if n else 1.0
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--run-id", required=True,
                        help="identifier written with every span")
    parser.add_argument("--trace-out", required=True,
                        help="file for the per-layer metrics; spans go "
                             "beside it as <file>.spans.jsonl")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracer = Tracer(args.run_id)
    tracer.install(os.path.join(root, "src"))
    from ducclab import cli
    code = cli.main(["run", args.config, "--seed", str(args.seed),
                     "--output", args.output])
    tracer.write_spans(args.trace_out + ".spans.jsonl")
    with open(args.trace_out, "w") as fh:
        json.dump({"exit_code": code, "metrics": tracer.metrics()}, fh,
                  indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
