"""Batch driver: parse a run configuration, execute named verification
tasks, emit a machine-readable report plus the artifacts of every task that
passed.  This is the one module that writes files.

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
import numbers
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import __version__
from .errors import (ConfigError, DuccLabError, IntermediateNormalizationError,
                     InvalidDimensionError, OperatorPropertyError)
from .fock import (DeterminantTable, FockBasis, SpinOrbitalPartition, _check_sweep_ordering,
                   aufbau_reference, build_basis, determinant_table, homo_lumo_partition,
                   inactive_class_shape, pair_count, sector_size)
from .operators import (IntegralSet, QOperator, exp_anti_hermitian, hubbard_integrals,
                        pairing_integrals, read_fcidump)

# The modules that compute (cluster, downfold, dynamics, ecc, imagtime,
# sweeps) are imported inside the stages and tasks that use them, so that
# ``validate`` loads only what checks a config.
if TYPE_CHECKING:
    from .downfold import EffectiveHamiltonian

INITIAL_STATES = ("reference", "ground", "noninteracting-ground")
#: the environment variables that set the BLAS thread count, which moves
#: reported values at round-off; report.json records those that are set
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONFIG_KEYS = ("system", "electrons", "partition", "tasks", "output_dir", "seed")
SYSTEM_KEYS = {"hubbard": ("kind", "L", "t", "U"), "pairing": ("kind", "levels", "g", "spacing"),
               "fcidump": ("kind", "path")}

#: verify-all's checks beyond the sub-tasks' residual bounds: name -> (task,
#: results, bound); a check passes when the largest of its results is below
#: the bound
VERIFY_ALL_CHECKS = {
    "td_consistency": ("propagate", ("max_consistency_deviation",), 1e-5),
    "ecc_identities": ("ecc", ("max_ldt_deviation", "max_lh_deviation"), 1e-10),
    "lagrangian_equivalence": ("lagrangians",
                               ("ducc_max_mutual_deviation", "bivariational_deviation"), 1e-9),
}
#: largest deviation of the two routes of an ECC identity in one
#: configuration, relative to the larger of 1 and the first route's value
ECC_IDENTITY_RTOL = 1e-12
#: most configurations ``ecc`` evaluates as one stack: its memory stays
#: bounded whatever ``n_configs``
ECC_STACK = 16
#: the errors that fail a task (or, in ``downfold``, its lowest-order estimate)
#: instead of the run
TASK_ERRORS = (DuccLabError, np.linalg.LinAlgError, ValueError, ArithmeticError)
#: smallest FCI gap E1 - E0 of an analysed ground root: below it the root is
#: degenerate and the eigensolver returns an arbitrary mix of its states
MIN_GROUND_GAP = 1e-8
#: smallest reference weight |<ref|psi0>|^2 of an analysed ground root: below
#: it intermediate normalisation divides by round-off
MIN_REFERENCE_WEIGHT = 1e-8


def _check_ground_gap(vals: np.ndarray, what: str = "ground"):
    """Refuse a spectrum ``vals`` (ascending) whose lowest root is degenerate:
    a gap ``E1 - E0`` below :data:`MIN_GROUND_GAP` fails its task with an
    ``OperatorPropertyError`` naming the gap.  A one-root spectrum has no
    gap to check."""
    if len(vals) > 1 and vals[1] - vals[0] < MIN_GROUND_GAP:
        raise OperatorPropertyError(
            f"degenerate {what} root: gap E1 - E0 = {vals[1] - vals[0]:.3e} "
            f"below {MIN_GROUND_GAP:.0e}")


@dataclass
class RunContext:
    """Everything a task needs: the system's integrals, partition,
    reference and seed.

    The basis of the reference's sector, the dense Hamiltonian H, the
    determinant table of ``(basis, ref)`` and the ground-state stages (FCI
    eigenpairs, cluster amplitudes, sweep decomposition, its CAS columns,
    DUCC Hamiltonian) are deterministic functions of the system, so each is
    a cached property, computed when a task first reads it and shared by
    every later task; a stage that raises is not cached.  ``validate``
    reads none of them.  The stages past ``amplitudes`` read ``part``, which
    :func:`build_context` requires of every task that reaches them.
    """

    config: dict
    ints: IntegralSet
    ref: object
    part: SpinOrbitalPartition | None
    seed: int

    def rng(self, task: str) -> np.random.Generator:
        # per-task stream keyed on the task's place in TASKS keeps reports
        # independent of the config's task order
        return np.random.default_rng([self.seed, list(TASKS).index(task)])

    @cached_property
    def basis(self) -> FockBasis:
        return build_basis(self.ref.M, self.ref.N)

    @cached_property
    def H(self) -> QOperator:
        from .operators import hamiltonian_from_integrals
        return hamiltonian_from_integrals(self.ints, self.basis)

    @cached_property
    def ground_state(self) -> tuple[np.ndarray, np.ndarray]:
        """FCI spectrum and ground vector, its nonzero <ref|psi0> turned
        real and positive.

        One ``eigh`` in the dtype of H: every system the CLI builds is real,
        so its ground vector is real too, and the phase fix an exact sign.
        """
        vals, vecs = np.linalg.eigh(self.H.matrix)
        psi0 = vecs[:, 0].copy()
        c0 = psi0[self.basis.index_of(self.ref)]
        if c0 != 0:
            psi0 *= np.conj(c0) / abs(c0)
        return vals, psi0

    def ground_vector(self) -> np.ndarray:
        """The ground vector of :attr:`ground_state`, refused where an
        analysis of it means nothing: a degenerate root (gap below
        :data:`MIN_GROUND_GAP`; a one-determinant basis has no gap) or a
        reference weight below :data:`MIN_REFERENCE_WEIGHT`."""
        vals, psi0 = self.ground_state
        _check_ground_gap(vals)
        weight = abs(psi0[self.basis.index_of(self.ref)]) ** 2
        if weight < MIN_REFERENCE_WEIGHT:
            raise IntermediateNormalizationError(
                f"reference weight |<ref|psi0>|^2 = {weight:.3e} below "
                f"{MIN_REFERENCE_WEIGHT:.0e}")
        return psi0

    @cached_property
    def table(self) -> DeterminantTable:
        return determinant_table(self.basis, self.ref)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        from .cluster import cluster_analyze
        return cluster_analyze(self.ground_vector(), self.ref, self.basis)

    @cached_property
    def sweep(self):
        from .sweeps import decompose_state
        return decompose_state(self.ground_vector(), self.ref, self.part, self.basis)

    @cached_property
    def cas_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """CAS indices, and the CAS columns of e^{sigma_ext} that the sweep
        replayed, in the swept state's dtype."""
        return self.table.cas(self.part), self.sweep.cas_columns

    @cached_property
    def ducc_hamiltonian(self) -> EffectiveHamiltonian:
        from .downfold import EffectiveHamiltonian, ducc_projection
        cas, R = self.cas_columns
        return EffectiveHamiltonian(ducc_projection(self.H, R), cas, self.basis, "ducc", True)


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
    """An integer config value, checked rather than truncated: a number
    with no fractional part, such as 2 or 2.0; anything else (a string, a
    bool, 2.5) or a value below ``minimum`` is a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ConfigError(f"{what}={value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what}={value!r} must be >= {minimum}")
    return int(value)


def config_float(value, what: str) -> float:
    """A finite real number as a float; anything else (a string, a bool, an
    infinity, an integer beyond the float range) is a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what}={value!r} is not float")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{what}={value!r} must be finite")
    return out


def run_settings(cfg: dict, output: str | None, seed: int | None) -> tuple[str | None, int]:
    """Output directory and seed of a command: the command-line values, else
    the config's ``output_dir`` (None if absent) and ``seed`` (default 0).
    A relative ``output_dir`` starts at the config's directory, a relative
    command-line path at the working directory.
    The config's values are checked also when overridden, so that
    ``validate`` and ``run`` refuse the same configs."""
    outdir = cfg.get("output_dir")
    if outdir is not None and not isinstance(outdir, str):
        raise ConfigError(f"output_dir={outdir!r} is not a string")
    if outdir:
        outdir = os.path.join(cfg["_config_dir"], outdir)
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


def _build_system(cfg: dict) -> tuple[IntegralSet, int]:
    """The system's integral set and electron count; the sector is checked
    before any integral array exists."""
    sys_cfg = cfg.get("system")
    if not isinstance(sys_cfg, dict) or "kind" not in sys_cfg:
        raise ConfigError("config needs system.kind")
    nelec = config_int(cfg.get("electrons"), "electrons", minimum=0)
    kind = sys_cfg["kind"]
    if not isinstance(kind, str) or kind not in SYSTEM_KEYS:
        raise ConfigError(f"unknown system kind {kind!r}")
    _check_keys(sys_cfg, SYSTEM_KEYS[kind], "system")
    try:
        if kind == "fcidump":
            path = sys_cfg["path"]
            if not os.path.isabs(path):
                path = os.path.join(cfg["_config_dir"], path)
            ints, file_nelec = read_fcidump(path)
            if file_nelec >= 0 and file_nelec != nelec:
                raise ConfigError(
                    f"FCIDUMP NELEC={file_nelec} != config electrons={nelec}")
            sector_size(ints.M, nelec)
        else:
            key = "L" if kind == "hubbard" else "levels"
            sector_size(2 * config_int(sys_cfg[key], f"system.{key}"), nelec)
            ints = _model_integrals(sys_cfg)
        return ints, nelec
    except KeyError as exc:
        raise ConfigError(f"system.{exc.args[0]} missing for kind={kind!r}") from exc
    except ConfigError:
        raise
    except (OSError, TypeError, ValueError, IndexError, DuccLabError) as exc:
        raise ConfigError(f"system ({kind}): {exc}") from exc


def _build_partition(cfg: dict, M: int, N: int) -> SpinOrbitalPartition | None:
    pcfg = cfg.get("partition")
    if pcfg is None:
        return None
    if not isinstance(pcfg, dict):
        raise ConfigError("partition must be an object")
    if "auto_homo_lumo" in pcfg:
        _check_keys(pcfg, ("auto_homo_lumo",), "partition")
        try:
            no, nv = (config_int(x, "auto_homo_lumo") for x in pcfg["auto_homo_lumo"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("auto_homo_lumo needs two integers") from exc
        try:
            return homo_lumo_partition(M, N, no, nv)
        except DuccLabError as exc:
            raise ConfigError(str(exc)) from exc
    keys = ("occ_inactive", "occ_active", "virt_active", "virt_inactive")
    _check_keys(pcfg, keys, "partition")
    if not all(k in pcfg for k in keys):
        raise ConfigError(f"explicit partition needs keys {keys}")
    try:
        return SpinOrbitalPartition(*(tuple(config_int(p, k) for p in pcfg[k]) for k in keys))
    except (TypeError, DuccLabError) as exc:   # TypeError: an index list not a list
        raise ConfigError(str(exc)) from exc


def task_params(name: str, params: dict) -> dict:
    """Typed parameters of a task, defaults filled in; for ``verify-all``,
    the parameters of each sub-task: its defaults, then the user's nested
    object, parsed when the sub-task runs.

    Raises ConfigError for any value the task cannot run with, so that
    ``validate`` and ``run`` reject the same configs.
    """
    if name == "verify-all":
        subs = [sub for sub, task in TASKS.items() if task.verify_all is not None]
        _check_keys(params, subs, "task verify-all")
        for sub in subs:
            if not isinstance(params.get(sub, {}), dict):
                raise ConfigError(f"task verify-all: {sub} parameters must be an object")
        return {sub: {**TASKS[sub].verify_all, **params.get(sub, {})} for sub in subs}
    spec = TASKS[name].params
    _check_keys(params, spec, f"task {name}")
    out = {}
    for key, (kind, default, (ok, domain)) in spec.items():
        raw = params.get(key, default)
        if kind is str:
            value = raw
        else:
            value = (config_int if kind is int else config_float)(raw, f"task {name}: {key}")
        if not ok(value):
            raise ConfigError(f"task {name}: {key}={raw!r} must be {domain}")
        out[key] = value
    return out


def _check_keys(obj: dict, known, what: str):
    """Refuse a key outside ``known``; a key starting with ``_`` is internal."""
    unknown = [k for k in obj if k not in known and not k.startswith("_")]
    if unknown:
        raise ConfigError(f"{what}: unknown key(s) {', '.join(map(repr, unknown))}")


def _task_entries(cfg: dict) -> list[tuple[str, dict]]:
    """Name and parameters of each configured task: ``name`` is taken out of
    a top-level entry here, and no parameter object admits it."""
    tasks = cfg.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("no tasks configured")
    entries = []
    for t in tasks:
        name = t.get("name") if isinstance(t, dict) else None
        # a name that is no string (a list cannot even be looked up) is refused
        if not isinstance(name, str) or name not in TASKS:
            raise ConfigError(f"unknown task entry {t!r}; valid names: {tuple(TASKS)}")
        entries.append((name, {k: v for k, v in t.items() if k != "name"}))
    return entries


def _check_task(cfg: dict, part: SpinOrbitalPartition | None, name: str, params: dict):
    if TASKS[name].needs_partition and part is None:
        raise ConfigError(f"task {name} requires a partition")
    if TASKS[name].sweeps:
        try:
            _check_sweep_ordering(part)
        except InvalidDimensionError as exc:
            raise ConfigError(f"task {name}: {exc}") from exc
    p = task_params(name, params)
    if name == "verify-all":
        for sub, sub_params in p.items():
            _check_task(cfg, part, sub, sub_params)
    elif p.get("initial") == "noninteracting-ground" \
            and cfg["system"]["kind"] not in ("hubbard", "pairing"):
        raise ConfigError("noninteracting-ground initial state needs a hubbard/pairing system")


def build_context(cfg: dict, seed: int) -> RunContext:
    """The run context of a config, every check of ``validate`` passed: the
    config's keys and values, its partition against the system's sector,
    each task's parameters, and the run's estimated peak against
    :data:`MAX_PEAK_BYTES`.  Reads the integrals; builds no basis and no H."""
    _check_keys(cfg, CONFIG_KEYS, "config")
    ints, nelec = _build_system(cfg)
    part = _build_partition(cfg, ints.M, nelec)
    if part is not None:
        if part.M != ints.M or part.N != nelec:
            raise ConfigError(
                f"partition covers M={part.M}, N={part.N} but system has "
                f"M={ints.M}, N={nelec}")
        ref = part.reference()
    else:
        ref = aufbau_reference(ints.M, nelec)
    entries = _task_entries(cfg)
    for name, params in entries:
        _check_task(cfg, part, name, params)
    peak, name = peak_estimate(entries, ints.M, nelec, part)
    if peak > MAX_PEAK_BYTES:
        raise ConfigError(f"task {name}: estimated peak of {peak:,} bytes exceeds the "
                          f"budget of {MAX_PEAK_BYTES:,} bytes")
    return RunContext(cfg, ints, ref, part, seed)


# -- tasks ---------------------------------------------------------------------
#
# A task returns its results and its artifacts, ``{file name: text}`` in the
# order of the report's ``files``; only :func:`run` writes them.


def _csv_text(header: list[str], rows) -> str:
    """CSV with every number at 17 significant digits, which re-reads
    bit-exactly (an integer below 1e17 prints as itself)."""
    lines = [",".join(header)]
    lines += [",".join(format(float(x), ".17g") for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _effective_json(heff: EffectiveHamiltonian, part: SpinOrbitalPartition) -> str:
    from .downfold import effective_to_dict
    return json.dumps(effective_to_dict(heff, part), indent=2, sort_keys=True) + "\n"


def task_fci(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    vals, _ = ctx.ground_state
    nroots = min(params["nroots"], len(vals))
    return {"ground_energy": float(vals[0]),
            "roots": [float(e) for e in vals[:nroots]],
            "dimension": ctx.basis.size}, {
        "fci_spectrum.csv": _csv_text(["root", "energy"], enumerate(vals))}


def task_cluster(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    from .cluster import AmplitudeOperator, exp_nilpotent, split_amplitudes
    vals, _ = ctx.ground_state
    psi = ctx.ground_vector()
    amps = ctx.amplitudes
    T = AmplitudeOperator(amps, ctx.table)
    e_ref = ctx.basis.unit_vector(ctx.basis.index_of(ctx.ref))
    recon = exp_nilpotent(T, e_ref, ctx.basis)
    c0 = psi[ctx.basis.index_of(ctx.ref)]
    roundtrip = float(np.linalg.norm(recon - psi / c0))
    # e^{-T} H e^{T} |ref>, never forming the similarity-transformed matrix
    hbar_ref = exp_nilpotent(-T, ctx.H @ recon, ctx.basis)
    energy = complex(e_ref.conj() @ hbar_ref)
    residual = float(np.linalg.norm(hbar_ref - energy * e_ref))
    results = {
        "roundtrip_residual": roundtrip,
        "cc_residual": residual,
        "energy_deviation": abs(energy.real - float(vals[0])),
        "amplitude_count": int(np.count_nonzero(amps)),
        "max_rank": int(ctx.table.ranks[amps != 0].max(initial=0)),
    }
    if ctx.part is not None:
        t_int, t_ext = split_amplitudes(amps, ctx.table, ctx.part)
        results["internal_count"] = int(np.count_nonzero(t_int))
        results["external_count"] = int(np.count_nonzero(t_ext))
    return results, {}


def task_sweep(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    from .downfold import unit_columns
    res = ctx.sweep
    external = ctx.table.external(ctx.part)
    cas, R = ctx.cas_columns
    series = exp_anti_hermitian(res.sigma_ext, unit_columns(ctx.basis.size, cas, float))
    return {
        "reconstruction_residual": res.residual,
        "external_support_after": float(np.linalg.norm(res.psi_act[external])),
        "delta": res.delta,
        "omega12_unitarity_defect": res.omega12_defect,
        "omega3_unitarity_defect": res.omega3_defect,
        "generator_column_deviation": float(np.linalg.norm(series - R)),
        "rotations": res.rotations,
    }, {}


def task_downfold(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    from .cluster import sigma_lowest_order, split_amplitudes
    from .downfold import downfold_ducc, downfold_sescc, match_root
    part = ctx.part
    vals, _ = ctx.ground_state
    e_fci = float(vals[0])

    _, t_ext = split_amplitudes(ctx.amplitudes, ctx.table, part)
    heff_s = downfold_sescc(ctx.H, t_ext, ctx.ref, part)
    # on the CAS rows psi / c0 is e^{T_int}|ref>: no external excitation
    # string lands there; the root match and the overlap normalise
    target = heff_s.restrict(ctx.ground_vector())
    svals, svecs = heff_s.eigensystem()
    root = match_root(heff_s, target)
    sescc_delta = abs(complex(svals[root]).real - e_fci)
    tnorm = target / np.linalg.norm(target)
    overlap_deficit = 1.0 - abs(np.vdot(svecs[:, root], tnorm))

    sweep = ctx.sweep
    heff_d = ctx.ducc_hamiltonian
    dvals, _ = heff_d.eigensystem()
    ducc_delta = abs(float(dvals[0]) - e_fci)

    # the lowest-order energy is an estimate, not an exactness claim: one it
    # cannot form is a null with the reason, and the exact results stand
    try:
        sigma_low = sigma_lowest_order(t_ext, ctx.table)
        heff_low = downfold_ducc(ctx.H, sigma_low, ctx.ref, part, source="ducc-lowest-order")
        lvals, _ = heff_low.eigensystem()
        lowest = {"ducc_lowest_order_delta_e": abs(float(lvals[0]) - e_fci)}
    except TASK_ERRORS as exc:
        lowest = {"ducc_lowest_order_delta_e": None,
                  "ducc_lowest_order_error": f"{type(exc).__name__}: {exc}"}

    return {
        "fci_ground_energy": e_fci,
        "cas_dimension": heff_d.dim,
        "sescc_delta_e": sescc_delta,
        "sescc_overlap_deficit": float(overlap_deficit),
        "ducc_delta_e": ducc_delta,
        **lowest,
        "sweep_residual": sweep.residual,
    }, {"heff_sescc.json": _effective_json(heff_s, part),
        "heff_ducc.json": _effective_json(heff_d, part)}


def _initial_state(ctx: RunContext, kind: str) -> np.ndarray:
    if kind == "reference":
        # quench: the reference determinant is never an eigenstate of an
        # interacting H, and keeps a large reference overlap along the way
        return ctx.basis.unit_vector(ctx.basis.index_of(ctx.ref))
    if kind == "ground":
        return ctx.ground_vector()
    # noninteracting-ground, which _check_task admits for hubbard and pairing only
    from .operators import hamiltonian_from_integrals
    h0 = hamiltonian_from_integrals(
        _model_integrals(ctx.config["system"], interacting=False), ctx.basis)
    vals, vecs = np.linalg.eigh(h0.matrix)
    _check_ground_gap(vals, "noninteracting ground")
    return vecs[:, 0]


def task_propagate(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    """Quench evolution plus the downfolded-consistency study: the active
    coefficients are propagated under the time-dependent downfolded
    Hamiltonian and compared per step against the sweep decomposition."""
    from .dynamics import downfolded_quench
    dt, nsteps = params["dt"], params["nsteps"]
    psi0 = _initial_state(ctx, params["initial"])

    study = downfolded_quench(ctx.H, psi0, dt, nsteps, ctx.ref, ctx.part)
    devs = study.rk4_deviation
    # the whole-step grid: time, energy, norm, CAS weight, eigenvalues of Heff
    header = ["time", "energy", "norm", "cas_weight"]
    header += [f"heff_eig_{r}" for r in range(len(study.cas))]
    rows = ([study.dt * k, study.energies[j], study.norms[j],
             np.linalg.norm(study.states[j, study.cas]), *np.linalg.eigvalsh(study.heffs[j])]
            for k, j in enumerate(range(0, len(study.states), 2)))
    return {
        "dt": dt,
        "nsteps": nsteps,
        "max_consistency_deviation": float(devs.max()),
        "final_consistency_deviation": float(devs[-1]),
        "energy_drift": float(np.abs(study.energies - study.energies[0]).max()),
        "norm_drift": float(np.abs(study.norms - 1.0).max()),
        "max_decomposition_residual": float(study.residuals.max()),
    }, {"trajectory.csv": _csv_text(header, rows)}


def task_imagtime(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    from .imagtime import imaginary_evolve
    dtau, tol = params["dtau"], params["tol"]
    heff = ctx.ducc_hamiltonian
    vals, _ = ctx.ground_state
    rng = ctx.rng("imagtime")
    c0 = rng.normal(size=heff.dim) + 1j * rng.normal(size=heff.dim)
    res = imaginary_evolve(heff, c0, dtau=dtau, tol=tol)
    shifts = [s for _, s, _ in res.history]
    monotone = all(s2 <= s1 + 1e-12 for s1, s2 in zip(shifts, shifts[1:]))
    return {
        "energy": res.energy,
        "delta_e_vs_fci": abs(res.energy - float(vals[0])),
        "steps": len(res.history) - 1,
        "monotone_shifts": bool(monotone),
    }, {"imagtime_flow.csv": _csv_text(["step", "tau", "shift", "residual"],
                                      ((k, *h) for k, h in enumerate(res.history)))}


#: the six amplitude sets of an ECC configuration, drawn in this order
ECC_KINDS = dict(zip(("t_int", "t_ext", "x_int", "x_ext", "dt_int", "dt_ext"),
                     ("internal", "external") * 3))


# a frame of its own: each stack is freed before task_ecc draws the next
def _ecc_stack_deviations(ctx: RunContext, rng: np.random.Generator, first: int, width: int,
                          scale: float) -> list[tuple[float, float, float, float]]:
    """Draw configurations ``first`` .. ``first + width - 1`` one after another
    and check them as one stack: per configuration |v1 - v2|, |w1 - w2|, the
    action deviation and max|direct - series| of its BCH check.  Raises on
    the first configuration whose routes deviate beyond ECC_IDENTITY_RTOL."""
    from .cluster import random_amplitudes
    from .ecc import EccMatrices, action_deviation, eval_ldt_forms, eval_lh_forms, x_int_ext_bch
    draws = [{name: random_amplitudes(ctx.table, rng, ctx.part, kind, scale)
              for name, kind in ECC_KINDS.items()} for _ in range(width)]
    m = EccMatrices.build(ctx.table, **{name: np.stack([d[name] for d in draws], axis=1)
                                        for name in ECC_KINDS})
    del draws
    deviations = []
    forms = zip(*eval_ldt_forms(m, ctx.ref), *eval_lh_forms(m, ctx.H, ctx.ref))
    for b, values in enumerate(forms):
        v1, v2, v4, w1, w2 = map(complex, values)
        for name, a, c in (("lh", w1, w2), ("ldt", v1, v2)):
            if not abs(a - c) <= ECC_IDENTITY_RTOL * max(1.0, abs(a)):   # NaN fails too
                raise DuccLabError(
                    f"ecc configuration {first + b}: {name} forms {a:.16e} and {c:.16e} "
                    f"deviate beyond {ECC_IDENTITY_RTOL:.0e} relative")
        _, act_dev = action_deviation(v1, v4, w1, w2)
        direct, series, _ = x_int_ext_bch(m.config(b), ctx.part)
        # no class block at all when X_ext couples nothing (scale 0, no external)
        deviations.append((abs(v1 - v2), abs(w1 - w2), act_dev,
                           float(np.abs(direct - series).max(initial=0.0))))
        del direct, series   # freed before the next configuration's check
    return deviations


def task_ecc(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    n_configs, scale = params["n_configs"], params["scale"]
    rng = ctx.rng("ecc")
    max_v, max_w, max_act, max_bch = 0.0, 0.0, 0.0, 0.0
    for first in range(0, n_configs, ECC_STACK):
        width = min(ECC_STACK, n_configs - first)
        for dv, dw, dact, dbch in _ecc_stack_deviations(ctx, rng, first, width, scale):
            max_v = max(max_v, dv)
            max_w = max(max_w, dw)
            max_act = max(max_act, dact)
            max_bch = max(max_bch, dbch)
    return {
        "n_configs": n_configs,
        "max_ldt_deviation": max_v,
        "max_lh_deviation": max_w,
        "max_action_deviation": max_act,
        "max_bch_deviation": max_bch,
    }, {}


def task_verify_all(ctx: RunContext, params: dict) -> tuple[dict, dict]:
    """Battery: every task above plus series/Lagrangian spot checks; its
    artifacts are its sub-tasks', so that none is written unless all pass."""
    from .cluster import random_amplitudes, sigma_lowest_order
    from .dynamics import evaluate_lagrangians, evaluate_sescc_lagrangian
    results: dict = {}
    artifacts: dict = {}
    for name, sub_params in params.items():
        results[name], sub_artifacts = run_task(ctx, name, sub_params)
        artifacts.update(sub_artifacts)

    rng = ctx.rng("verify-all")
    # arguments are drawn left to right: internal, external, internal, ...
    amps = lambda kind: random_amplitudes(ctx.table, rng, ctx.part, kind, 0.1)
    sigma = lambda kind: sigma_lowest_order(amps(kind), ctx.table)
    la, lb, lc = evaluate_lagrangians(ctx.H, sigma("internal"), sigma("external"),
                                      sigma("internal"), sigma("external"), ctx.ref, ctx.part)
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
    return results, artifacts


def run_task(ctx: RunContext, name: str, params: dict) -> tuple[dict, dict]:
    """Run one task on its parsed parameters and fail it when a result
    breaches its residual bound or any number of its results, nested ones
    too, is not finite."""
    task = TASKS[name]
    results, artifacts = task(ctx, task_params(name, params))
    for key, bound in task.bounds.items():
        if not results[key] <= bound:   # NaN fails too
            raise DuccLabError(f"{name}: {key} = {results[key]:.3e} exceeds {bound:.0e}")
    stack = list(results.items())
    while stack:
        key, value = stack.pop(0)
        if isinstance(value, dict | list):
            inner = value.items() if isinstance(value, dict) else enumerate(value)
            stack += [(f"{key}.{k}", v) for k, v in inner]
        elif isinstance(value, numbers.Number) and not np.isfinite(value):
            raise DuccLabError(f"{name}: {key} = {value} is not finite")
    return results, artifacts


# -- peak memory ----------------------------------------------------------------
#
# A task's peak model gives the bytes of the arrays live at the task's peak,
# from the sizes of the sector and the task's parameters.  H stays cached
# for every task, and so does what the sweep stage keeps once a task has
# swept: :func:`peak_estimate` adds them to the largest task peak.
# Dense matrices are real (every system the command line builds is), states
# complex.  The factors are resident peaks of the kernels, measured with
# OpenBLAS on 2 vCPUs at n = 1500-2500.

#: largest estimated peak of a run, in bytes: a config above it is refused
#: (exit 2) before anything of the sector's size is allocated.  A constant,
#: not the machine's free memory, so that every machine gives the same exit
#: code: Hubbard L = 7 (dim 3432) runs every task (1.7 GB at most), and
#: M = 16, N = 8 (dim 12870) is refused every one (8 GB for ``fci``).
MAX_PEAK_BYTES = 4 * 2**30
#: bytes of an n x n ``eigh`` beyond its input, in units of the input: the
#: copy LAPACK works on, its 2 n^2 workspace and the eigenvectors (4.1-4.3
#: measured)
EIGH_PEAK = 5
#: bytes of ``logm_unitary`` on one block beyond its input, in units of the
#: input, on its worse path, the Cayley transform (13.3-13.6 measured; the
#: half-angle path 5.2-5.5)
LOG_PEAK = 14
#: bytes per determinant of the basis and the determinant table's rows, and
#: per entry of the table's pair list, with the temporaries of its build
ROW_BYTES, PAIR_BYTES = 768, 64
#: bytes per rotation of a sweep's record: the step and its pair views
STEP_BYTES = 1024


class Sizes(NamedTuple):
    """The sizes of a sector that a peak model reads: its dimension, its CAS
    dimension, the length of its determinant tables' pair list, and the
    number and largest size of its inactive classes with the number of
    class pairs an external set couples (:func:`ducclab.fock.inactive_class_shape`)."""

    dim: int
    ncas: int
    pairs: int
    classes: int
    class_size: int
    class_pairs: int


def _dense(s: Sizes, count: float) -> int:
    """Bytes of ``count`` real dim x dim matrices."""
    return int(count * 8 * s.dim ** 2)


def _table(s: Sizes) -> int:
    return ROW_BYTES * s.dim + PAIR_BYTES * s.pairs


def _sweep_stage(s: Sizes) -> int:
    # what the sweep stage keeps: its two dense generators and the CAS columns
    return _dense(s, 2) + 8 * s.dim * s.ncas


def _fci_peak(s: Sizes, params: dict) -> int:
    # the basis and the FCI eigh
    return ROW_BYTES * s.dim + _dense(s, EIGH_PEAK)


def _cluster_peak(s: Sizes, params: dict) -> int:
    # then the table and the amplitude operators on its pair list
    return _fci_peak(s, params) + _table(s) + PAIR_BYTES * s.pairs


def _sweep_peak(s: Sizes, params: dict) -> int:
    # omega3^+ and its log beside sigma_ext and the rotation record of
    # sweeps 1-2, then the products of the CAS columns and the eigensolves
    # of the CAS matrices; downfold's lowest-order generator stays below
    return (_table(s) + _dense(s, 1 + LOG_PEAK) + STEP_BYTES * s.dim
            + 32 * s.dim * s.ncas + 64 * s.ncas ** 2)


def _downfold_peak(s: Sizes, params: dict) -> int:
    # and its two Hamiltonians as JSON: a float object, a list slot and the
    # dumped text per entry while one is built, beside the other's text
    return _sweep_peak(s, params) + 320 * s.ncas ** 2


def _propagate_peak(s: Sizes, params: dict) -> int:
    # the exact states on the half-step grid, their Heff blocks and the CSV
    # text; beside them the full-space eigh (after the free H of a
    # noninteracting start), or a quench batch: its swept states, their
    # rotation record and replayed CAS columns, twice while split, beside
    # four older blocks and the velocity and projection temporaries of a point
    nsteps = params["nsteps"]
    points = 2 * nsteps + 1
    batch = min(max(1, s.dim // s.ncas), points)
    grid = (16 * points * (s.dim + s.ncas ** 2 + s.ncas + 34)
            + 64 * (nsteps + 1) * (s.ncas + 5))
    window = (16 * s.dim * batch * (2 * s.ncas + 5) + 128 * s.ncas * (s.dim + s.ncas)
              + STEP_BYTES * s.dim)
    return _table(s) + grid + max(_dense(s, 1 + EIGH_PEAK), window)


def _ecc_peak(s: Sizes, params: dict) -> int:
    # a stack of B configurations: their draws and chain vectors, eight
    # amplitude operators on the pair list (T, X, dT and T^T) and the build
    # or gather temporaries of one more; then one configuration's BCH class
    # blocks, about ten arrays of the coupled pairs and six of the classes
    width = min(ECC_STACK, params["n_configs"])
    stack = 16 * width * (7 * s.pairs + 32 * s.dim) + PAIR_BYTES * s.pairs
    bch = 16 * s.class_size ** 2 * (10 * s.class_pairs + 6 * s.classes)
    return _table(s) + stack + bch


def _verify_all_peak(s: Sizes, params: dict) -> int:
    # the largest of its sub-tasks, or its Lagrangian checks: four dense
    # complex generators and the two temporaries of the last
    lagrangians = _table(s) + _dense(s, 12) + 3 * PAIR_BYTES * s.pairs
    return max(lagrangians, *(TASKS[sub].peak(s, task_params(sub, sub_params))
                              for sub, sub_params in params.items()))


def peak_estimate(entries: list[tuple[str, dict]], M: int, N: int,
                  part: SpinOrbitalPartition | None) -> tuple[int, str]:
    """Estimated peak bytes of a run of the tasks ``entries`` (name and raw
    parameters) on the (M, N) sector, and the task whose peak sets it: H,
    what the sweep stage keeps if a task reads it, and the largest peak of
    the tasks (:attr:`Task.peak`).  Integer arithmetic on the sector's
    sizes: nothing is allocated."""
    if part is None:   # only fci and cluster run, which read no CAS
        shape = 1, 1, 1, 0
    else:
        n_act = len(part.occ_active) + len(part.virt_active)
        shape = math.comb(n_act, len(part.occ_active)), *inactive_class_shape(part)
    s = Sizes(sector_size(M, N), shape[0], pair_count(M, N), *shape[1:])
    peak, name = max((TASKS[name].peak(s, task_params(name, params)), name)
                     for name, params in entries)
    kept = _dense(s, 1)
    if any(TASKS[name].reads_sweep for name, _ in entries):
        kept += _sweep_stage(s)
    return kept + peak, name


@dataclass(frozen=True)
class Task:
    """A task, called as ``task(ctx, params)`` on the parameters
    :func:`task_params` parsed: ``peak`` its peak model, bytes from the
    sector's :class:`Sizes` and the parsed parameters (:func:`peak_estimate`);
    ``params`` maps a parameter to ``(type, default, (domain predicate,
    domain text))``, a float also finite; ``bounds`` a result to its largest
    meaningful value; ``sweeps``: it sweeps the ground state or quench
    states, so its partition must be in sweep order; ``reads_sweep``: it
    reads the sweep stage, which stays cached for every later task;
    ``verify_all`` its defaults as a verify-all sub-task (None: not one)."""

    run: Callable[[RunContext, dict], tuple[dict, dict]]
    peak: Callable[[Sizes, dict], int]
    params: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    needs_partition: bool = True
    sweeps: bool = False
    reads_sweep: bool = False
    verify_all: dict | None = field(default_factory=dict)

    def __call__(self, ctx: RunContext, params: dict) -> tuple[dict, dict]:
        return self.run(ctx, params)


_positive = (lambda v: v > 0, "> 0")
#: every task, in the order that keys its RNG stream (RunContext.rng)
TASKS = {
    "fci": Task(task_fci, _fci_peak, params={"nroots": (int, 6, (lambda v: v >= 1, ">= 1"))},
                needs_partition=False),
    "cluster": Task(task_cluster, _cluster_peak, needs_partition=False,
                    bounds={"cc_residual": 1e-9, "roundtrip_residual": 1e-9}),
    "sweep": Task(task_sweep, _sweep_peak, bounds={"reconstruction_residual": 1e-9,
                                                   "generator_column_deviation": 1e-9},
                  sweeps=True, reads_sweep=True),
    "downfold": Task(task_downfold, _downfold_peak, sweeps=True, reads_sweep=True,
                     bounds={"sescc_delta_e": 1e-9, "ducc_delta_e": 1e-9}),
    "propagate": Task(task_propagate, _propagate_peak, sweeps=True, params={
        "dt": (float, 0.02, _positive),
        "nsteps": (int, 100, (lambda v: v >= 2, ">= 2 for the velocity stencil")),
        "initial": (str, "reference", (lambda v: v in INITIAL_STATES,
                                       f"one of {INITIAL_STATES}")),
    }, bounds={"max_decomposition_residual": 1e-9}, verify_all={"dt": 0.02, "nsteps": 50}),
    "imagtime": Task(task_imagtime, _sweep_peak, params={"dtau": (float, 0.1, _positive),
                                                         "tol": (float, 1e-10, _positive)},
                     bounds={"delta_e_vs_fci": 1e-8}, sweeps=True, reads_sweep=True),
    "ecc": Task(task_ecc, _ecc_peak, params={
        "n_configs": (int, 50, (lambda v: v >= 1, ">= 1")),
        "scale": (float, 0.1, (lambda v: True, "any number"))}, verify_all={"n_configs": 10}),
    "verify-all": Task(task_verify_all, _verify_all_peak, reads_sweep=True, verify_all=None),
}


# -- driver --------------------------------------------------------------------


def _echo_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def run(cfg: dict, outdir: str, seed: int) -> tuple[dict, int]:
    """Run the config's tasks; write the artifacts of each task that passes
    into ``outdir``, then ``report.json``.  A failed task writes nothing."""
    ctx = build_context(cfg, seed)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir!r}: {exc}") from exc
    listings: dict = {}   # file name -> (text on disk, the entries listing it)

    def execute(name, params):
        try:
            results, artifacts = run_task(ctx, name, params)
        except TASK_ERRORS as exc:
            return {"name": name, "status": "failed", "results": {},
                    "files": [], "error": f"{type(exc).__name__}: {exc}"}
        entry = {"name": name, "status": "ok", "results": results, "files": list(artifacts)}
        for file_name, text in artifacts.items():
            _write(os.path.join(outdir, file_name), text)
            # the last writer's text stays on disk: the earlier entries
            # listing other text stop listing the file
            held, entries = listings.get(file_name, (text, []))
            if held != text:
                for earlier in entries:
                    earlier["files"].remove(file_name)
                entries = []
            listings[file_name] = (text, entries + [entry])
        return entry

    task_reports = [execute(name, params) for name, params in _task_entries(cfg)]

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "config": _echo_config(cfg),
        "seed": seed,
        "versions": {
            "ducclab": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(x) for x in sys.version_info[:3]),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_vars": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tasks": task_reports,
    }
    _write(os.path.join(outdir, "report.json"),
           json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
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
            build_context(cfg, seed)
            print("config ok")
            return 0
        if not outdir:
            raise ConfigError("no output directory (config output_dir or --output)")
        _, code = run(cfg, outdir, seed)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
