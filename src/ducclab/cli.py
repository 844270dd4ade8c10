"""Batch driver: parse a run configuration, execute named verification
tasks, emit a machine-readable report plus per-task CSV artifacts.

Config files are JSON::

    {
      "system":    {"kind": "hubbard", "L": 2, "t": 1.0, "U": 4.0},
      "electrons": 2,
      "partition": {"auto_homo_lumo": [1, 1]},
      "tasks":     [{"name": "fci"}, {"name": "downfold"}],
      "output_dir": "out",
      "seed": 1
    }

Exit codes: 0 success, 1 a task failed numerically, 2 configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .cluster import (cluster_analyze, excitation_matrix, exp_nilpotent,
                      random_amplitudes, sigma_lowest_order, split_amplitudes)
from .downfold import (downfold_ducc, downfold_sescc, effective_matrix_dump,
                       match_root, write_effective_json)
from .dynamics import (downfolded_quench, evaluate_lagrangians,
                       evaluate_sescc_lagrangian, trajectory_to_csv)
from .ecc import (EccConfiguration, EccMatrices, action_deviation, eval_ldt_forms,
                  eval_lh_forms, x_int_ext_bch)
from .errors import ConfigError, DuccLabError
from .fock import (DetClass, SpinOrbitalPartition, build_basis, determinant_table,
                   homo_lumo_partition)
from .imagtime import imaginary_evolve, write_flow_log
from .operators import (IntegralSet, QOperator, hamiltonian_from_integrals,
                        hubbard_integrals, pairing_integrals, read_fcidump)
from .sweeps import decompose_state

VERIFY_ALL_TASKS = ("fci", "cluster", "sweep", "downfold", "propagate", "imagtime", "ecc")
#: the per-task RNG stream is keyed on the index into this tuple
TASK_NAMES = VERIFY_ALL_TASKS + ("verify-all",)
INITIAL_STATES = ("reference", "ground", "noninteracting-ground")

_positive = (lambda v: v > 0, "> 0")
#: per task: parameter -> (type, default, (domain predicate, domain text));
#: floats must also be finite
TASK_PARAMS = {
    "fci": {"nroots": (int, 6, (lambda v: v >= 1, ">= 1"))},
    "propagate": {
        "dt": (float, 0.02, _positive),
        "nsteps": (int, 100, (lambda v: v >= 0, ">= 0")),
        "fd_order": (int, 4, (lambda v: v in (2, 4), "2 or 4")),
        "initial": (str, "reference", (lambda v: v in INITIAL_STATES,
                                       f"one of {INITIAL_STATES}")),
    },
    "imagtime": {"dtau": (float, 0.1, _positive), "tol": (float, 1e-10, _positive)},
    "ecc": {"n_configs": (int, 50, (lambda v: v >= 1, ">= 1")),
            "scale": (float, 0.1, (lambda v: True, "any number"))},
}
#: sub-task defaults of verify-all, below the user's nested parameters
VERIFY_ALL_DEFAULTS = {"propagate": {"dt": 0.02, "nsteps": 50}, "ecc": {"n_configs": 10}}
#: per task: result -> largest value that keeps the task's numbers meaningful
RESIDUAL_BOUNDS = {
    "cluster": {"cc_residual": 1e-9, "roundtrip_residual": 1e-9},
    "sweep": {"reconstruction_residual": 1e-9},
    "downfold": {"sescc_delta_e": 1e-9, "ducc_delta_e": 1e-9},
    "propagate": {"max_decomposition_residual": 1e-9},
}
_residual_check = lambda task, key: (task, (key,), RESIDUAL_BOUNDS[task][key])
#: verify-all's checks: name -> (task, results, bound); a check passes when
#: the largest of its results is below the bound
VERIFY_ALL_CHECKS = {
    "fci_vs_downfold": _residual_check("downfold", "ducc_delta_e"),
    "sescc_exact": _residual_check("downfold", "sescc_delta_e"),
    "cluster_residual": _residual_check("cluster", "cc_residual"),
    "sweep_reconstruction": _residual_check("sweep", "reconstruction_residual"),
    "td_consistency": ("propagate", ("max_consistency_deviation",), 1e-5),
    "imagtime_converged": ("imagtime", ("delta_e_vs_fci",), 1e-8),
    "ecc_identities": ("ecc", ("max_ldt_deviation", "max_lh_deviation"), 1e-10),
    "lagrangian_equivalence": ("lagrangians", ("ducc_max_mutual_deviation",), 1e-9),
}


@dataclass
class RunContext:
    """Everything a task needs: system, partition, reference, output sink.

    The ground-state stages (FCI eigenpairs, cluster amplitudes, sweep
    decomposition, DUCC Hamiltonian) are deterministic functions of the
    system, so each is computed once per run and shared by every task; a
    stage that raises is not cached.
    """

    config: dict
    basis: object
    H: QOperator
    ref: object
    part: SpinOrbitalPartition | None
    outdir: str
    seed: int
    _cache: dict = field(default_factory=dict)

    def rng(self, task: str) -> np.random.Generator:
        # per-task stream keyed on the canonical task id keeps reports
        # independent of task ordering
        return np.random.default_rng([self.seed, TASK_NAMES.index(task)])

    def _stage(self, key: str, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def ground_state(self):
        """FCI eigenpairs, every nonzero <ref|psi> turned real and positive."""
        def compute():
            vals, vecs = np.linalg.eigh(self.H.matrix)
            c = vecs[self.basis.index_of(self.ref)]
            return vals, vecs * np.divide(c.conj(), abs(c), out=np.ones_like(c), where=c != 0)
        return self._stage("ground", compute)

    def amplitudes(self):
        return self._stage("amplitudes", lambda: cluster_analyze(
            self.ground_state()[1][:, 0], self.ref, self.basis))

    def sweep(self):
        part = self.need_partition()
        return self._stage("sweep", lambda: decompose_state(
            self.ground_state()[1][:, 0], self.ref, part, self.basis))

    def ducc_hamiltonian(self):
        part = self.need_partition()
        return self._stage("ducc", lambda: downfold_ducc(
            self.H, self.sweep().sigma_ext, self.ref, part))

    def need_partition(self) -> SpinOrbitalPartition:
        if self.part is None:
            raise ConfigError("this task requires a partition")
        return self.part

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)


# -- configuration ------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    cfg["_config_dir"] = os.path.dirname(os.path.abspath(path))
    return cfg


def config_int(value, what: str, minimum: int | None = None) -> int:
    """An integer config value, checked rather than truncated: an integral
    number such as 2.0 is that integer; a bool, a non-integral number or a
    value below ``minimum`` is a :class:`ConfigError`."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{what}={value!r} is not an integer")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what}={value!r} is not an integer") from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{what}={value!r} must be >= {minimum}")
    return out


def config_float(value, what: str) -> float:
    """A finite float config value (not a bool), else a :class:`ConfigError`."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what}={value!r} is not float") from None
    if not math.isfinite(out):
        raise ConfigError(f"{what}={value!r} must be finite")
    return out


def run_settings(cfg: dict, output: str | None, seed: int | None) -> tuple[str | None, int]:
    """Output directory and seed of a command: the command-line values, else
    the config's ``output_dir`` (None if absent) and ``seed`` (default 0).
    The config's values are checked also when overridden, so that
    ``validate`` and ``run`` refuse the same configs."""
    outdir = cfg.get("output_dir")
    if outdir is not None and not isinstance(outdir, str):
        raise ConfigError(f"output_dir={outdir!r} is not a string")
    config_seed = config_int(cfg.get("seed", 0), "seed", minimum=0)
    return output or outdir, config_seed if seed is None else config_int(seed, "seed", minimum=0)


def _model_integrals(sys_cfg: dict, interacting: bool = True) -> IntegralSet:
    """Integral set of a hubbard or pairing system; without ``interacting``,
    the same set with ``U`` or ``g`` set to 0."""
    num = lambda key: config_float(sys_cfg[key], f"system.{key}")
    if sys_cfg["kind"] == "hubbard":
        U = num("U") if interacting else 0.0
        return hubbard_integrals(config_int(sys_cfg["L"], "system.L"), num("t"), U)
    g = num("g") if interacting else 0.0
    spacing = config_float(sys_cfg.get("spacing", 1.0), "system.spacing")
    return pairing_integrals(config_int(sys_cfg["levels"], "system.levels"), g, spacing)


def _build_system(cfg: dict):
    sys_cfg = cfg.get("system")
    if not isinstance(sys_cfg, dict) or "kind" not in sys_cfg:
        raise ConfigError("config needs system.kind")
    nelec = config_int(cfg.get("electrons"), "electrons", minimum=0)
    kind = sys_cfg["kind"]
    if kind not in ("hubbard", "pairing", "fcidump"):
        raise ConfigError(f"unknown system kind {kind!r}")
    try:
        if kind == "fcidump":
            path = sys_cfg["path"]
            if not os.path.isabs(path):
                path = os.path.join(cfg["_config_dir"], path)
            ints, file_nelec = read_fcidump(path)
            if file_nelec >= 0 and file_nelec != nelec:
                raise ConfigError(
                    f"FCIDUMP NELEC={file_nelec} != config electrons={nelec}")
            basis = build_basis(ints.M, nelec)
        else:
            # the basis guards the orbital count before the integrals exist
            key = "L" if kind == "hubbard" else "levels"
            basis = build_basis(2 * config_int(sys_cfg[key], f"system.{key}"), nelec)
            ints = _model_integrals(sys_cfg)
        return basis, hamiltonian_from_integrals(ints, basis)
    except KeyError as exc:
        raise ConfigError(f"system.{exc.args[0]} missing for kind={kind!r}") from exc
    except (OSError, TypeError, ValueError, IndexError, DuccLabError) as exc:
        raise ConfigError(f"system ({kind}): {exc}") from exc


def _build_partition(cfg: dict, M: int, N: int) -> SpinOrbitalPartition | None:
    pcfg = cfg.get("partition")
    if pcfg is None:
        return None
    if not isinstance(pcfg, dict):
        raise ConfigError("partition must be an object")
    if "auto_homo_lumo" in pcfg:
        try:
            no, nv = (config_int(x, "auto_homo_lumo") for x in pcfg["auto_homo_lumo"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("auto_homo_lumo needs two integers") from exc
        try:
            return homo_lumo_partition(M, N, no, nv)
        except DuccLabError as exc:
            raise ConfigError(str(exc)) from exc
    keys = ("occ_inactive", "occ_active", "virt_active", "virt_inactive")
    if not all(k in pcfg for k in keys):
        raise ConfigError(f"explicit partition needs keys {keys}")
    allow_arbitrary = pcfg.get("allow_arbitrary", False)
    if not isinstance(allow_arbitrary, bool):
        raise ConfigError(f"allow_arbitrary={allow_arbitrary!r} is not a bool")
    try:
        return SpinOrbitalPartition(
            *(tuple(config_int(p, k) for p in pcfg[k]) for k in keys),
            allow_arbitrary=allow_arbitrary)
    except (TypeError, DuccLabError) as exc:   # TypeError: an index list not a list
        raise ConfigError(str(exc)) from exc


def task_params(name: str, params: dict) -> dict:
    """Typed parameters of a task, defaults filled in.

    Raises ConfigError for any value the task cannot run with, so that
    ``validate`` and ``run`` reject the same configs.
    """
    out = {}
    for key, (kind, default, (ok, domain)) in TASK_PARAMS.get(name, {}).items():
        raw = params.get(key, default)
        if kind is str:
            value = raw
        else:
            value = (config_int if kind is int else config_float)(raw, f"task {name}: {key}")
        if not ok(value):
            raise ConfigError(f"task {name}: {key}={raw!r} must be {domain}")
        out[key] = value
    if name == "propagate" and 2 * out["nsteps"] < out["fd_order"]:
        # the velocity stencil runs on the 2 * nsteps + 1 half-step grid points
        raise ConfigError(f"task propagate: nsteps={out['nsteps']} is too few "
                          f"for fd_order={out['fd_order']}")
    return out


def verify_all_params(params: dict, name: str) -> dict:
    """Parameters of one verify-all sub-task: its defaults, then the
    user's nested ``params[name]`` object."""
    sub = params.get(name, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"task verify-all: {name} parameters must be an object")
    return {**VERIFY_ALL_DEFAULTS.get(name, {}), **sub}


def _check_task(cfg: dict, name: str, params: dict):
    if name == "verify-all":
        for sub in VERIFY_ALL_TASKS:
            _check_task(cfg, sub, verify_all_params(params, sub))
        return
    if task_params(name, params).get("initial") == "noninteracting-ground" \
            and cfg["system"]["kind"] not in ("hubbard", "pairing"):
        raise ConfigError("noninteracting-ground initial state needs a hubbard/pairing system")


def build_context(cfg: dict, outdir: str, seed: int) -> RunContext:
    basis, H = _build_system(cfg)
    part = _build_partition(cfg, basis.M, basis.N)
    if part is not None:
        if part.M != basis.M or part.N != basis.N:
            raise ConfigError(
                f"partition covers M={part.M}, N={part.N} but system has "
                f"M={basis.M}, N={basis.N}")
        ref = part.reference()
    else:
        from .fock import aufbau_reference
        ref = aufbau_reference(basis.M, basis.N)
    tasks = cfg.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("no tasks configured")
    for t in tasks:
        if not isinstance(t, dict) or t.get("name") not in TASK_NAMES:
            raise ConfigError(f"unknown task entry {t!r}; valid names: {TASK_NAMES}")
        _check_task(cfg, t["name"], t)
    return RunContext(cfg, basis, H, ref, part, outdir, seed)


# -- tasks ---------------------------------------------------------------------


def task_fci(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    vals, _ = ctx.ground_state()
    nroots = min(task_params("fci", params)["nroots"], len(vals))
    path = ctx.path("fci_spectrum.csv")
    with open(path, "w") as fh:
        fh.write("root,energy\n")
        for k, e in enumerate(vals):
            fh.write(f"{k},{format(float(e), '.17g')}\n")
    return {"ground_energy": float(vals[0]),
            "roots": [float(e) for e in vals[:nroots]],
            "dimension": ctx.basis.size}, [path]


def task_cluster(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    vals, vecs = ctx.ground_state()
    psi = vecs[:, 0]
    amps = ctx.amplitudes()
    tmat = excitation_matrix(amps, ctx.basis)
    e_ref = ctx.basis.unit_vector(ctx.basis.index_of(ctx.ref))
    recon = exp_nilpotent(tmat, e_ref, ctx.basis)
    c0 = psi[ctx.basis.index_of(ctx.ref)]
    roundtrip = float(np.linalg.norm(recon - psi / c0))
    # e^{-T} H e^{T} |ref>, never forming the similarity-transformed matrix
    hbar_ref = exp_nilpotent(-tmat, ctx.H.matrix @ recon, ctx.basis)
    energy = complex(e_ref.conj() @ hbar_ref)
    residual = float(np.linalg.norm(hbar_ref - energy * e_ref))
    results = {
        "roundtrip_residual": roundtrip,
        "cc_residual": residual,
        "energy_deviation": abs(energy.real - float(vals[0])),
        "amplitude_count": len(amps),
        "max_rank": amps.max_rank,
    }
    if ctx.part is not None:
        t_int, t_ext = split_amplitudes(amps, ctx.part)
        results["internal_count"] = len(t_int)
        results["external_count"] = len(t_ext)
    return results, []


def task_sweep(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    part = ctx.need_partition()
    res = ctx.sweep()
    external = determinant_table(ctx.basis, ctx.ref).classes(part) == DetClass.EXTERNAL
    sigma = res.sigma_ext
    return {
        "reconstruction_residual": res.residual,
        "external_support_after": float(np.linalg.norm(res.psi_act[external])),
        "delta": res.delta,
        "omega12_unitarity_defect": res.omega12_defect,
        "omega3_unitarity_defect": res.omega3_defect,
        "sigma_ext_antihermiticity": float(np.linalg.norm(sigma + sigma.conj().T)),
        "rotations": res.rotations,
    }, []


def task_downfold(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    part = ctx.need_partition()
    vals, _ = ctx.ground_state()
    e_fci = float(vals[0])

    t_int, t_ext = split_amplitudes(ctx.amplitudes(), part)
    heff_s = downfold_sescc(ctx.H, t_ext, ctx.ref, part)
    target = heff_s.restrict(exp_nilpotent(
        excitation_matrix(t_int, ctx.basis),
        ctx.basis.unit_vector(ctx.basis.index_of(ctx.ref)), ctx.basis))
    svals, svecs = heff_s.eigensystem()
    root = match_root(heff_s, target)
    sescc_delta = abs(complex(svals[root]).real - e_fci)
    tnorm = target / np.linalg.norm(target)
    overlap_deficit = 1.0 - abs(np.vdot(svecs[:, root], tnorm))

    sweep = ctx.sweep()
    heff_d = ctx.ducc_hamiltonian()
    dvals, _ = heff_d.eigensystem()
    ducc_delta = abs(float(dvals[0]) - e_fci)

    sigma_low = sigma_lowest_order(t_ext, ctx.basis)
    heff_low = downfold_ducc(ctx.H, sigma_low, ctx.ref, part, source="ducc-lowest-order")
    lvals, _ = heff_low.eigensystem()

    files = []
    for heff, name in ((heff_s, "heff_sescc.json"), (heff_d, "heff_ducc.json")):
        path = ctx.path(name)
        write_effective_json(heff, path, part=part)
        files.append(path)
    dump_path = ctx.path("heff_ducc.dump")
    with open(dump_path, "w") as fh:
        fh.write(effective_matrix_dump(heff_d))
    files.append(dump_path)
    return {
        "fci_ground_energy": e_fci,
        "cas_dimension": heff_d.dim,
        "sescc_delta_e": sescc_delta,
        "sescc_overlap_deficit": float(overlap_deficit),
        "ducc_delta_e": ducc_delta,
        "ducc_lowest_order_delta_e": abs(float(lvals[0]) - e_fci),
        "sweep_residual": sweep.residual,
    }, files


def _initial_state(ctx: RunContext, kind: str) -> np.ndarray:
    if kind == "reference":
        # quench: the reference determinant is never an eigenstate of an
        # interacting H, and keeps a large reference overlap along the way
        return ctx.basis.unit_vector(ctx.basis.index_of(ctx.ref))
    if kind == "ground":
        return ctx.ground_state()[1][:, 0]
    # noninteracting-ground, which _check_task admits for hubbard and pairing only
    h0 = hamiltonian_from_integrals(
        _model_integrals(ctx.config["system"], interacting=False), ctx.basis)
    return np.linalg.eigh(h0.matrix)[1][:, 0]


def task_propagate(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    """Quench evolution plus the downfolded-consistency study: the active
    coefficients are propagated under the time-dependent downfolded
    Hamiltonian and compared per step against the sweep decomposition."""
    part = ctx.need_partition()
    p = task_params("propagate", params)
    dt, nsteps, fd_order = p["dt"], p["nsteps"], p["fd_order"]
    psi0 = _initial_state(ctx, p["initial"])

    study = downfolded_quench(ctx.H, psi0, dt, nsteps, ctx.ref, part, fd_order)
    devs = study.rk4_deviation
    path = ctx.path("trajectory.csv")
    trajectory_to_csv(study, path)
    return {
        "dt": dt,
        "nsteps": nsteps,
        "max_consistency_deviation": float(devs.max()),
        "final_consistency_deviation": float(devs[-1]),
        "energy_drift": float(np.abs(study.energies - study.energies[0]).max()),
        "norm_drift": float(np.abs(study.norms - 1.0).max()),
        "max_decomposition_residual": float(study.residuals.max()),
    }, [path]


def task_imagtime(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    p = task_params("imagtime", params)
    dtau, tol = p["dtau"], p["tol"]
    heff = ctx.ducc_hamiltonian()
    vals, _ = ctx.ground_state()
    rng = ctx.rng("imagtime")
    c0 = rng.normal(size=heff.dim) + 1j * rng.normal(size=heff.dim)
    res = imaginary_evolve(heff, c0, dtau=dtau, tol=tol)
    shifts = [s for _, s, _ in res.history]
    monotone = all(s2 <= s1 + 1e-12 for s1, s2 in zip(shifts, shifts[1:]))
    path = ctx.path("imagtime_flow.csv")
    write_flow_log(res.history, path)
    return {
        "energy": res.energy,
        "delta_e_vs_fci": abs(res.energy - float(vals[0])),
        "steps": len(res.history) - 1,
        "monotone_shifts": bool(monotone),
    }, [path]


def task_ecc(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    part = ctx.need_partition()
    p = task_params("ecc", params)
    n_configs, scale = p["n_configs"], p["scale"]
    rng = ctx.rng("ecc")
    max_v, max_w, max_act, max_bch = 0.0, 0.0, 0.0, 0.0
    for _ in range(n_configs):
        cfg = EccConfiguration(
            t_int=random_amplitudes(ctx.ref, rng, part, "internal", scale),
            t_ext=random_amplitudes(ctx.ref, rng, part, "external", scale),
            x_int=random_amplitudes(ctx.ref, rng, part, "internal", scale),
            x_ext=random_amplitudes(ctx.ref, rng, part, "external", scale),
            dt_int=random_amplitudes(ctx.ref, rng, part, "internal", scale),
            dt_ext=random_amplitudes(ctx.ref, rng, part, "external", scale),
        )
        m = EccMatrices.build(cfg, ctx.basis)
        v1, v2, v4 = eval_ldt_forms(m, ctx.ref)
        w1, w2 = eval_lh_forms(m, ctx.H, ctx.ref)
        _, act_dev = action_deviation(v1, v4, w1, w2)
        direct, series, _ = x_int_ext_bch(m)
        max_v = max(max_v, abs(v1 - v2))
        max_w = max(max_w, abs(w1 - w2))
        max_act = max(max_act, act_dev)
        max_bch = max(max_bch, float(np.abs(direct - series).max()))
    return {
        "n_configs": n_configs,
        "max_ldt_deviation": max_v,
        "max_lh_deviation": max_w,
        "max_action_deviation": max_act,
        "max_bch_deviation": max_bch,
    }, []


def task_verify_all(ctx: RunContext, params: dict) -> tuple[dict, list[str]]:
    """Battery: every task above plus series/Lagrangian spot checks."""
    results: dict = {}
    files: list[str] = []
    for name in VERIFY_ALL_TASKS:
        sub_results, sub_files = run_task(ctx, name, verify_all_params(params, name))
        results[name] = sub_results
        files.extend(sub_files)

    part = ctx.need_partition()
    rng = ctx.rng("verify-all")
    # arguments are drawn left to right: internal, external, internal, ...
    amps = lambda kind: random_amplitudes(ctx.ref, rng, part, kind, 0.1)
    sigma = lambda kind: sigma_lowest_order(amps(kind), ctx.basis)
    la, lb, lc = evaluate_lagrangians(ctx.H, sigma("internal"), sigma("external"),
                                      sigma("internal"), sigma("external"), ctx.ref, part)
    f1, f2 = evaluate_sescc_lagrangian(
        ctx.H, amps("internal"), amps("external"), amps("internal"), amps("external"),
        amps("internal"), amps("external"), ctx.ref)
    results["lagrangians"] = {
        "ducc_max_mutual_deviation": max(abs(la - lb), abs(la - lc), abs(lb - lc)),
        "bivariational_deviation": abs(f1 - f2),
    }
    checks = {name: max(results[task][key] for key in keys) < bound
              for name, (task, keys, bound) in VERIFY_ALL_CHECKS.items()}
    results["checks"] = checks
    if not all(checks.values()):
        failed = [k for k, ok in checks.items() if not ok]
        raise DuccLabError(f"verification checks failed: {', '.join(failed)}")
    return results, files


def run_task(ctx: RunContext, name: str, params: dict) -> tuple[dict, list[str]]:
    """Run one task and fail it when a result breaches its residual bound."""
    results, files = TASKS[name](ctx, params)
    for key, bound in RESIDUAL_BOUNDS.get(name, {}).items():
        if not results[key] <= bound:   # NaN fails too
            raise DuccLabError(f"{name}: {key} = {results[key]:.3e} exceeds {bound:.0e}")
    return results, files


TASKS = {
    "fci": task_fci,
    "cluster": task_cluster,
    "sweep": task_sweep,
    "downfold": task_downfold,
    "propagate": task_propagate,
    "imagtime": task_imagtime,
    "ecc": task_ecc,
    "verify-all": task_verify_all,
}


# -- driver --------------------------------------------------------------------


def _echo_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def run(cfg: dict, outdir: str, seed: int) -> tuple[dict, int]:
    ctx = build_context(cfg, outdir, seed)
    os.makedirs(outdir, exist_ok=True)
    entries = [(t["name"], {k: v for k, v in t.items() if k != "name"})
               for t in cfg["tasks"]]

    def execute(name, params):
        try:
            results, files = run_task(ctx, name, params)
            return {"name": name, "status": "ok", "results": results,
                    "files": [os.path.basename(f) for f in files]}
        except (DuccLabError, np.linalg.LinAlgError, ValueError,
                ArithmeticError) as exc:
            return {"name": name, "status": "failed", "results": {},
                    "files": [], "error": f"{type(exc).__name__}: {exc}"}

    task_reports = [execute(name, params) for name, params in entries]

    report = {
        "config": _echo_config(cfg),
        "seed": seed,
        "versions": {
            "ducclab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(x) for x in sys.version_info[:3]),
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tasks": task_reports,
    }
    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [t for t in task_reports if t["status"] != "ok"]
    for t in failed:
        print(f"task {t['name']} failed: {t['error']}", file=sys.stderr)
    return report, (1 if failed else 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ducclab",
        description="Coupled-cluster downfolding verification laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the tasks of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="output directory (default: config output_dir)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_val = sub.add_parser("validate", help="parse and validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(output=None, seed=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        outdir, seed = run_settings(cfg, args.output, args.seed)
        if args.command == "validate":
            build_context(cfg, outdir=outdir or ".", seed=seed)
            print("config ok")
            return 0
        if not outdir:
            raise ConfigError("no output directory (config output_dir or --output)")
        if not os.path.isabs(outdir):
            outdir = os.path.join(cfg["_config_dir"], outdir)
        _, code = run(cfg, outdir, seed)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
