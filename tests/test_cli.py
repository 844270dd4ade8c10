import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import ducclab
from ducclab import cli, ecc
from ducclab.cli import main
from ducclab.errors import CasSupportError

from conftest import count_calls
from oracles import hamiltonian_from_terms, hubbard_terms, pairing_terms


def write_config(tmp_path, **overrides):
    cfg = {
        "system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": 4.0},
        "electrons": 2,
        "partition": {"auto_homo_lumo": [1, 1]},
        "tasks": [{"name": "fci"}],
        "output_dir": "out",
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_report(tmp_path):
    return json.loads((tmp_path / "out" / "report.json").read_text())


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        assert main(["validate", str(write_config(tmp_path))]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_empty_tasks_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, tasks=[])
        assert main(["validate", str(path)]) == 2
        assert "no tasks" in capsys.readouterr().err

    def test_unknown_task_rejected(self, tmp_path):
        path = write_config(tmp_path, tasks=[{"name": "frobnicate"}])
        assert main(["validate", str(path)]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2

    def test_partition_inconsistent(self, tmp_path):
        path = write_config(tmp_path, partition={"auto_homo_lumo": [3, 1]})
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


DIMER_FCIDUMP = ["&FCI NORB=4,NELEC=2,MS2=0,", "&END", "-1.0 1 3 0 0", "-1.0 2 4 0 0",
                 "4.0 1 1 2 2", "4.0 3 3 4 4"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fcidump,overrides", [
    (DIMER_FCIDUMP + ["0.5 5 5 0 0"], {}),
    (DIMER_FCIDUMP + ["0.7 1 0 0 0"], {}),
    (DIMER_FCIDUMP + ["0.5 1 1 0 2"], {}),
    (DIMER_FCIDUMP + ["abc 1 1 0 0"], {}),
    (None, {"system": {"kind": "fcidump", "path": "absent"}}),
    (None, {"electrons": 5}),
    (None, {"system": {"kind": "hubbard", "L": "x", "t": 1.0, "U": 4.0}}),
    (None, {"system": {"kind": "hubbard", "L": None, "t": 1.0, "U": 4.0}}),
    # refused by the orbital-count guard before any integral array exists
    (None, {"system": {"kind": "hubbard", "L": 10**6, "t": 1.0, "U": 4.0}}),
    (None, {"system": {"kind": "pairing", "levels": 10**6, "g": 0.5}}),
    # integers are checked, not truncated
    (None, {"system": {"kind": "hubbard", "L": 2.7, "t": 1.0, "U": 4.0}}),
    (None, {"electrons": True}),
    (None, {"partition": {"auto_homo_lumo": [1.9, 1]}}),
    (None, {"partition": {"occ_inactive": [], "occ_active": 1, "virt_active": [2],
                          "virt_inactive": [3]}}),
    # integrals are finite, checked before any arithmetic touches them
    (DIMER_FCIDUMP + ["nan 1 1 0 0"], {}),
    (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": float("inf")}}),
    (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": float("nan")}}),
    (None, {"seed": "abc"}),
    (None, {"seed": -3}),
    (None, {"output_dir": 5}),
    # floats are not bools
    (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": True}}),
    (None, {"tasks": [{"name": "propagate", "dt": True}]}),
    (None, {"tasks": [{"name": "imagtime", "tol": False}]}),
    # an out-of-order partition is admitted by a bool only
    (None, {"partition": {"occ_inactive": [], "occ_active": [0, 2], "virt_active": [1],
                          "virt_inactive": [3], "allow_arbitrary": "no"}}),
    (None, {"partition": {"occ_inactive": [], "occ_active": [0, 2], "virt_active": [1],
                          "virt_inactive": [3], "allow_arbitrary": 1}}),
], ids=["index-beyond-norb", "zero-index-would-wrap", "zero-index-two-electron",
        "non-numeric-value", "missing-fcidump", "electrons-above-M", "non-integer-L",
        "null-L", "oversized-L", "oversized-levels", "non-integral-L", "bool-electrons",
        "non-integral-window", "non-list-partition", "nan-fcidump-value", "infinite-U", "nan-U",
        "non-numeric-seed", "negative-seed", "non-string-output-dir", "bool-U", "bool-dt",
        "bool-tol", "string-allow-arbitrary", "int-allow-arbitrary"])
def test_malformed_input_is_config_error(tmp_path, capsys, command, fcidump, overrides):
    if fcidump is not None:
        (tmp_path / "FCIDUMP").write_text("\n".join(fcidump) + "\n")
        overrides = {"system": {"kind": "fcidump", "path": "FCIDUMP"}}
    assert main([command, str(write_config(tmp_path, **overrides))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("task", [
    {"name": "propagate", "dt": -1},
    {"name": "propagate", "dt": 0},
    {"name": "propagate", "dt": "fast"},
    {"name": "propagate", "dt": float("inf")},
    {"name": "propagate", "nsteps": -1},
    {"name": "propagate", "nsteps": 4, "fd_order": 3},
    {"name": "propagate", "nsteps": 1},
    {"name": "propagate", "nsteps": 0, "fd_order": 2},
    {"name": "propagate", "nsteps": 4, "initial": "excited"},
    {"name": "imagtime", "dtau": 0},
    {"name": "imagtime", "tol": -1e-10},
    {"name": "ecc", "n_configs": 0},
    {"name": "fci", "nroots": "all"},
    {"name": "verify-all", "propagate": {"dt": -1}},
    {"name": "verify-all", "propagate": {"nsteps": 1}},
    {"name": "verify-all", "imagtime": {"dtau": -0.1}},
    {"name": "verify-all", "ecc": "many"},
    {"name": "propagate", "nsteps": 20.9},
    {"name": "fci", "nroots": True},
], ids=["dt-negative", "dt-zero", "dt-non-numeric", "dt-infinite", "nsteps-negative",
        "fd-order-3", "too-few-points-order-4", "too-few-points-order-2",
        "unknown-initial", "dtau-zero", "tol-negative", "ecc-no-configs",
        "nroots-non-numeric", "verify-all-dt", "verify-all-nsteps", "verify-all-dtau",
        "verify-all-params-not-object", "nsteps-non-integral", "nroots-bool"])
def test_bad_task_parameter_is_config_error(tmp_path, capsys, command, task):
    assert main([command, str(write_config(tmp_path, tasks=[task]))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    assert main(["run", str(write_config(tmp_path)), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_integral_floats_are_integers(tmp_path):
    # 2.0 is the integer 2 in every integer field: the same report as ints
    reports = []
    for name, num in (("int", int), ("float", float)):
        workdir = tmp_path / name
        workdir.mkdir()
        path = write_config(workdir, system={"kind": "hubbard", "L": num(2), "t": 1.0, "U": 4.0},
                            electrons=num(2), partition={"auto_homo_lumo": [num(1), num(1)]},
                            tasks=[{"name": "fci", "nroots": num(2)}], seed=num(3))
        assert main(["run", str(path)]) == 0
        report = read_report(workdir)
        reports.append((report["seed"], report["tasks"]))
    assert reports[0] == reports[1]


def test_noninteracting_start_needs_model_system(tmp_path, capsys):
    (tmp_path / "FCIDUMP").write_text("\n".join(DIMER_FCIDUMP) + "\n")
    path = write_config(tmp_path, system={"kind": "fcidump", "path": "FCIDUMP"},
                        tasks=[{"name": "propagate", "nsteps": 4,
                                "initial": "noninteracting-ground"}])
    assert main(["validate", str(path)]) == 2
    assert "hubbard/pairing" in capsys.readouterr().err


@pytest.mark.parametrize("system,electrons,terms", [
    ({"kind": "hubbard", "L": 2, "t": 0.8, "U": 4.0}, 2, hubbard_terms(2, 0.8, 0.0)),
    ({"kind": "pairing", "levels": 3, "g": 0.4, "spacing": 0.7}, 2,
     pairing_terms(3, 0.0, 0.7)),
], ids=["hubbard", "pairing"])
def test_noninteracting_start_is_the_free_ground_state(tmp_path, system, electrons, terms):
    # the interacting model's integral set with U or g set to 0, against the
    # term list of the free model applied determinant by determinant
    cfg = cli.load_config(str(write_config(
        tmp_path, system=system, electrons=electrons,
        tasks=[{"name": "propagate", "nsteps": 4, "initial": "noninteracting-ground"}])))
    ctx = cli.build_context(cfg, str(tmp_path / "out"), seed=1)
    psi0 = cli._initial_state(ctx, "noninteracting-ground")
    vals, vecs = np.linalg.eigh(hamiltonian_from_terms(terms, ctx.basis).matrix)
    assert vals[1] - vals[0] > 1e-3   # a non-degenerate free ground state
    assert abs(abs(np.vdot(vecs[:, 0], psi0)) - 1.0) < 1e-12
    assert not np.allclose(abs(np.vdot(ctx.ground_state()[1][:, 0], psi0)), 1.0)


SCALAR_FERMION_ALGEBRA = ("apply_operator_string", "apply_excitation",
                          "signature_between", "holes_and_particles")


def test_one_determinant_layer():
    # the determinant tables are the package's one fermion algebra: the
    # scalar string helpers and the term-list builder live in tests/oracles.py
    modules = [ducclab] + [importlib.import_module(f"ducclab.{m.name}")
                           for m in pkgutil.iter_modules(ducclab.__path__)]
    bound = [f"{mod.__name__}.{name}" for mod in modules
             for name in SCALAR_FERMION_ALGEBRA if hasattr(mod, name)]
    assert bound == []
    H = ducclab.build_hubbard(2, 1.0, 4.0, ducclab.build_basis(4, 2))
    assert not hasattr(ducclab.QOperator, "from_terms")
    assert not hasattr(H, "terms")


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse costs start-up time and memory on every run
    src = os.path.dirname(os.path.dirname(os.path.abspath(ducclab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ducclab; print(sorted(m for m in sys.modules "
         "if m.startswith('scipy.sparse')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


SCIPY_LINALG_IMPORTERS = """
import builtins, sys
seen = set()
real_import = builtins.__import__

def recording_import(name, globals=None, locals=None, fromlist=(), level=0):
    importer = (globals or {}).get("__name__", "")
    if importer.startswith("ducclab") and (
            name.startswith("scipy.linalg")
            or (name == "scipy" and "linalg" in (fromlist or ()))):
        seen.add(importer)
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = recording_import
import ducclab
print(sorted(seen))
"""


def test_no_module_imports_scipy_linalg():
    # every kernel is spectral or a series on numpy alone, the full-space
    # propagator included: no run pays for importing scipy.linalg
    src = os.path.dirname(os.path.dirname(os.path.abspath(ducclab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCIPY_LINALG_IMPORTERS],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestRun:
    def test_fci_ground_energy(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        report = read_report(tmp_path)
        task = report["tasks"][0]
        assert task["status"] == "ok"
        assert task["results"]["ground_energy"] == pytest.approx(
            2.0 - 2.0 * np.sqrt(2.0), abs=1e-9)
        assert (tmp_path / "out" / "fci_spectrum.csv").exists()

    def test_sweep_downfold_pipeline(self, tmp_path):
        path = write_config(tmp_path, tasks=[{"name": "sweep"}, {"name": "downfold"}])
        assert main(["run", str(path)]) == 0
        report = read_report(tmp_path)
        downfold = report["tasks"][1]["results"]
        assert downfold["ducc_delta_e"] < 1e-9
        assert downfold["sescc_delta_e"] < 1e-9
        assert (tmp_path / "out" / "heff_ducc.json").exists()
        assert (tmp_path / "out" / "heff_ducc.dump").exists()

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg = write_config(
            tmp_path,
            tasks=[{"name": "fci"}, {"name": "imagtime"}, {"name": "ecc",
                                                           "n_configs": 3}])
        assert main(["run", str(cfg), "--output", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg), "--output", str(tmp_path / "b")]) == 0
        ra = (tmp_path / "a" / "report.json").read_text()
        rb = (tmp_path / "b" / "report.json").read_text()
        strip = lambda s: "\n".join(ln for ln in s.splitlines()
                                    if "generated_at" not in ln)
        assert strip(ra) == strip(rb)

    def test_seed_override_changes_random_results(self, tmp_path):
        cfg = write_config(tmp_path, tasks=[{"name": "imagtime"}])
        assert main(["run", str(cfg), "--output", str(tmp_path / "a"),
                     "--seed", "1"]) == 0
        assert main(["run", str(cfg), "--output", str(tmp_path / "b"),
                     "--seed", "2"]) == 0
        ta = json.loads((tmp_path / "a" / "report.json").read_text())
        tb = json.loads((tmp_path / "b" / "report.json").read_text())
        assert ta["tasks"][0]["results"]["steps"] != \
            tb["tasks"][0]["results"]["steps"] or \
            ta["tasks"][0]["results"]["energy"] != tb["tasks"][0]["results"]["energy"]

    def test_task_failure_exit_code(self, tmp_path, capsys):
        # propagate on a 1x1 CAS with zero-dimensional... use a partition-free
        # config so partition-requiring tasks fail numerically
        path = write_config(tmp_path, partition=None,
                            tasks=[{"name": "fci"}, {"name": "sweep"}])
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "sweep" in err
        report = read_report(tmp_path)
        assert report["tasks"][0]["status"] == "ok"
        assert report["tasks"][1]["status"] == "failed"

    def test_propagate_and_imagtime_artifacts(self, tmp_path):
        path = write_config(
            tmp_path,
            tasks=[{"name": "propagate", "dt": 0.02, "nsteps": 40},
                   {"name": "imagtime"}])
        assert main(["run", str(path)]) == 0
        report = read_report(tmp_path)
        prop = report["tasks"][0]["results"]
        assert prop["max_consistency_deviation"] < 1e-5
        assert prop["norm_drift"] < 1e-10
        assert (tmp_path / "out" / "imagtime_flow.csv").exists()
        # every field of the trajectory reads back to the study's value
        ctx = cli.build_context(cli.load_config(str(path)), str(tmp_path / "out"), seed=3)
        study = ducclab.downfolded_quench(ctx.H, cli._initial_state(ctx, "reference"),
                                          0.02, 40, ctx.ref, ctx.part, fd_order=4)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time,energy,norm,cas_weight,heff_eig_0,heff_eig_1"
        assert len(lines) == 1 + 41
        for k, line in enumerate(lines[1:]):
            psi = study.states[2 * k]
            expected = [0.02 * k, study.energies[2 * k], study.norms[2 * k],
                        np.linalg.norm(psi[study.cas]),
                        *np.linalg.eigvalsh(study.heffs[2 * k])]
            assert [float(x) for x in line.split(",")] == expected

    def test_pairing_system(self, tmp_path):
        path = write_config(
            tmp_path,
            system={"kind": "pairing", "levels": 3, "g": 0.4},
            partition={"auto_homo_lumo": [2, 2]},
            tasks=[{"name": "fci"}, {"name": "downfold"}])
        assert main(["run", str(path)]) == 0
        report = read_report(tmp_path)
        assert report["tasks"][1]["results"]["ducc_delta_e"] < 1e-9

    def test_fcidump_system(self, tmp_path):
        lines = ["&FCI NORB=4,NELEC=2,MS2=0,", "&END"]
        for p, q in ((0, 2), (1, 3), (2, 0), (3, 1)):
            if p < q:
                lines.append(f"-1.0 {p + 1} {q + 1} 0 0")
        for i in (0, 1):
            up, dn = 2 * i, 2 * i + 1
            lines.append(f"4.0 {up + 1} {up + 1} {dn + 1} {dn + 1}")
        (tmp_path / "FCIDUMP").write_text("\n".join(lines) + "\n")
        path = write_config(tmp_path,
                            system={"kind": "fcidump", "path": "FCIDUMP"},
                            tasks=[{"name": "fci"}])
        assert main(["run", str(path)]) == 0
        report = read_report(tmp_path)
        # hopping 0<->2 and 1<->3 in this orbital layout: same dimer spectrum
        assert report["tasks"][0]["results"]["ground_energy"] == pytest.approx(
            2.0 - 2.0 * np.sqrt(2.0), abs=1e-9)

    def test_verify_all(self, tmp_path):
        path = write_config(tmp_path, tasks=[{"name": "verify-all"}])
        assert main(["run", str(path)]) == 0
        report = read_report(tmp_path)
        checks = report["tasks"][0]["results"]["checks"]
        assert all(checks.values())


def test_residual_gates_fail_meaningless_tasks(tmp_path, capsys):
    # the ground state of Hubbard L=5, N=5 is a degenerate S_z doublet, and
    # eigh returns a mix with almost no reference weight: the cluster
    # amplitudes blow up and SES-CC misses the FCI energy; before that is
    # checked, downfold refuses the 1-norm of the lowest-order DUCC generator
    path = write_config(tmp_path, system={"kind": "hubbard", "L": 5, "t": 1.0, "U": 4.0},
                        electrons=5, partition={"auto_homo_lumo": [2, 2]},
                        tasks=[{"name": "fci"}, {"name": "cluster"}, {"name": "downfold"}])
    assert main(["run", str(path)]) == 1
    tasks = read_report(tmp_path)["tasks"]
    assert [t["status"] for t in tasks] == ["ok", "failed", "failed"]
    assert "cc_residual" in tasks[1]["error"] and "exceeds 1e-09" in tasks[1]["error"]
    assert "generator 1-norm" in tasks[2]["error"]
    err = capsys.readouterr().err
    assert "task cluster failed" in err and "task downfold failed" in err


@pytest.mark.parametrize("value", [10.0, float("nan")], ids=["10x", "nan"])
@pytest.mark.parametrize("task,key", [(task, key) for task, bounds in cli.RESIDUAL_BOUNDS.items()
                                      for key in bounds])
def test_every_residual_bound_fails_its_task(tmp_path, monkeypatch, task, key, value):
    # each bound, whatever the eigensolver returns: the task reports its
    # result at ten times the bound, or NaN, and run_task refuses it
    bound = cli.RESIDUAL_BOUNDS[task][key]
    results = {k: 0.0 for k in cli.RESIDUAL_BOUNDS[task]}
    results[key] = value * bound
    monkeypatch.setitem(cli.TASKS, task, lambda ctx, params: (results, []))
    ctx = cli.build_context(json.loads(write_config(tmp_path).read_text()), str(tmp_path), 0)
    with pytest.raises(ducclab.DuccLabError, match=f"^{task}: {key} = .* exceeds"):
        cli.run_task(ctx, task, {})


def write_seeded_fcidump(path, M, N, seed):
    """A random real FCIDUMP whose one-body diagonal dominates, so that the
    aufbau determinant carries most of a gapped ground state."""
    rng = np.random.default_rng([seed, M, N])
    pairs = [(i, j) for i in range(1, M + 1) for j in range(1, i + 1)]
    lines = [f"&FCI NORB={M},NELEC={N},MS2=0,", "&END"]
    for a, (i, j) in enumerate(pairs):
        lines += [f"{0.02 * rng.standard_normal():.16e} {i} {j} {k} {l}"
                  for k, l in pairs[:a + 1]]
    for i, j in pairs:
        val = 0.5 * (i - 1) - 1.0 if i == j else 0.05 * rng.standard_normal()
        lines.append(f"{val:.16e} {i} {j} 0 0")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("system", ["dimer", "fcidump"])
def test_sweep_delta_independent_of_eigenvector_phase(tmp_path, monkeypatch, system):
    # the ground state is turned so that <ref|psi> is real and positive:
    # the global phase delta reads 0 whatever phase the eigensolver returns
    overrides = {}
    if system == "fcidump":
        write_seeded_fcidump(tmp_path / "FCIDUMP", 8, 4, seed=5)
        overrides = {"system": {"kind": "fcidump", "path": "FCIDUMP"}, "electrons": 4,
                     "partition": {"auto_homo_lumo": [2, 2]}}
    path = write_config(tmp_path, tasks=[{"name": "sweep"}], **overrides)
    eigh = np.linalg.eigh
    results = []
    for k, phase in enumerate((1.0, -1.0, np.exp(0.7j))):
        def turned(a, *args, **kwargs):
            w, v = eigh(a, *args, **kwargs)
            return w, (v * phase if np.ndim(a) == 2 else v)
        monkeypatch.setattr(np.linalg, "eigh", turned)
        assert main(["run", str(path), "--output", str(tmp_path / str(k))]) == 0
        report = json.loads((tmp_path / str(k) / "report.json").read_text())
        results.append(report["tasks"][0]["results"])
    for res in results:
        assert abs(res["delta"]) < 1e-12
        assert res["reconstruction_residual"] < 1e-12
    assert len({r["rotations"] for r in results}) == 1


GROUND_PIPELINE = [{"name": n} for n in ("fci", "cluster", "sweep", "downfold", "imagtime")]


class TestGroundStagesOncePerRun:
    def test_work_budget(self, tmp_path, monkeypatch):
        calls = {"expm": 0}
        for name in ("decompose_state", "cluster_analyze", "downfold_ducc"):
            count_calls(monkeypatch, cli, name, calls)
        count_calls(monkeypatch, scipy.linalg, "expm", calls)
        assert main(["run", str(write_config(tmp_path, tasks=GROUND_PIPELINE))]) == 0
        # one DUCC Hamiltonian of the sweep, one of the lowest-order generator
        assert calls == {"decompose_state": 1, "cluster_analyze": 1,
                         "downfold_ducc": 2, "expm": 0}

    def test_imagtime_independent_of_task_list(self, tmp_path):
        alone = write_config(tmp_path, tasks=[{"name": "imagtime"}])
        assert main(["run", str(alone), "--output", str(tmp_path / "a")]) == 0
        full = write_config(tmp_path, tasks=GROUND_PIPELINE)
        assert main(["run", str(full), "--output", str(tmp_path / "b")]) == 0
        ta = json.loads((tmp_path / "a" / "report.json").read_text())["tasks"]
        tb = json.loads((tmp_path / "b" / "report.json").read_text())["tasks"]
        assert ta[0]["results"] == tb[-1]["results"]
        assert ((tmp_path / "a" / "imagtime_flow.csv").read_bytes()
                == (tmp_path / "b" / "imagtime_flow.csv").read_bytes())

    def test_failed_stage_fails_every_task_that_needs_it(self, tmp_path, monkeypatch):
        calls = {}

        def broken(*args, **kwargs):
            calls["decompose_state"] = calls.get("decompose_state", 0) + 1
            raise CasSupportError("injected")
        monkeypatch.setattr(cli, "decompose_state", broken)
        path = write_config(tmp_path, tasks=[{"name": "sweep"}, {"name": "downfold"}])
        assert main(["run", str(path)]) == 1
        assert [t["status"] for t in read_report(tmp_path)["tasks"]] == ["failed", "failed"]
        assert calls == {"decompose_state": 2}   # a stage that raised is not cached


class TestEccVectorChains:
    def test_work_budget(self, tmp_path, monkeypatch):
        # one set of six amplitude matrices per configuration, no dense exponential
        calls = {"expm": 0}
        for name in ("excitation_matrix", "deexcitation_matrix"):
            count_calls(monkeypatch, ecc, name, calls)
        count_calls(monkeypatch, scipy.linalg, "expm", calls)
        path = write_config(tmp_path, tasks=[{"name": "ecc", "n_configs": 3}])
        assert main(["run", str(path)]) == 0
        assert calls == {"excitation_matrix": 12, "deexcitation_matrix": 6, "expm": 0}
        assert read_report(tmp_path)["tasks"][0]["results"]["max_lh_deviation"] < 1e-12
