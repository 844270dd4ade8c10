import dataclasses
import functools
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ducclab
from ducclab import cli, cluster, downfold, dynamics, ecc, imagtime, operators, sweeps
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


def _refuse_constant(token):
    raise ValueError(f"report.json holds the non-finite token {token}")


def read_report(tmp_path):
    """report.json as strict JSON: a bare NaN, Infinity or -Infinity fails."""
    return json.loads((tmp_path / "out" / "report.json").read_text(),
                      parse_constant=_refuse_constant)


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
#: a partition the sweeps cannot take: an inactive hole above the active one
UNSWEEPABLE = {"system": {"kind": "hubbard", "L": 3, "t": 1.0, "U": 4.0}, "electrons": 2,
               "partition": {"occ_inactive": [1], "occ_active": [0], "virt_active": [2, 3],
                             "virt_inactive": [4, 5]}}


#: configs that both commands refuse with exit 2: name -> (FCIDUMP lines or
#: None, config overrides, or a whole config that is not an object)
MALFORMED_CONFIGS = {
    "index-beyond-norb": (DIMER_FCIDUMP + ["0.5 5 5 0 0"], {}),
    "zero-index-would-wrap": (DIMER_FCIDUMP + ["0.7 1 0 0 0"], {}),
    "zero-index-two-electron": (DIMER_FCIDUMP + ["0.5 1 1 0 2"], {}),
    "non-numeric-value": (DIMER_FCIDUMP + ["abc 1 1 0 0"], {}),
    "missing-fcidump": (None, {"system": {"kind": "fcidump", "path": "absent"}}),
    "electrons-above-M": (None, {"electrons": 5}),
    "non-integer-L": (None, {"system": {"kind": "hubbard", "L": "x", "t": 1.0, "U": 4.0}}),
    "null-L": (None, {"system": {"kind": "hubbard", "L": None, "t": 1.0, "U": 4.0}}),
    # refused by the orbital-count guard before any integral array exists
    "oversized-L": (None, {"system": {"kind": "hubbard", "L": 10**6, "t": 1.0, "U": 4.0}}),
    "oversized-levels": (None, {"system": {"kind": "pairing", "levels": 10**6, "g": 0.5}}),
    # integers are checked, not truncated
    "non-integral-L": (None, {"system": {"kind": "hubbard", "L": 2.7, "t": 1.0, "U": 4.0}}),
    "bool-electrons": (None, {"electrons": True}),
    "non-integral-window": (None, {"partition": {"auto_homo_lumo": [1.9, 1]}}),
    "non-list-partition": (None, {"partition": {"occ_inactive": [], "occ_active": 1,
                                                "virt_active": [2], "virt_inactive": [3]}}),
    # integrals are finite, checked before any arithmetic touches them
    "nan-fcidump-value": (DIMER_FCIDUMP + ["nan 1 1 0 0"], {}),
    "infinite-U": (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": float("inf")}}),
    "nan-U": (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": float("nan")}}),
    "non-numeric-seed": (None, {"seed": "abc"}),
    "negative-seed": (None, {"seed": -3}),
    "non-string-output-dir": (None, {"output_dir": 5}),
    # floats are not bools
    "bool-U": (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": True}}),
    "bool-dt": (None, {"tasks": [{"name": "propagate", "dt": True}]}),
    "bool-tol": (None, {"tasks": [{"name": "imagtime", "tol": False}]}),
    # allow_arbitrary is no key of a partition, whatever its value
    "string-allow-arbitrary": (None, {"partition": {
        "occ_inactive": [], "occ_active": [0, 2], "virt_active": [1], "virt_inactive": [3],
        "allow_arbitrary": "no"}}),
    "int-allow-arbitrary": (None, {"partition": {
        "occ_inactive": [], "occ_active": [0, 2], "virt_active": [1], "virt_inactive": [3],
        "allow_arbitrary": 1}}),
    # 10^9 steps of the dimer would hold 179 GiB of states
    "oversized-quench": (None, {"tasks": [{"name": "propagate", "nsteps": 10**9}]}),
    "non-object-root": (None, ["system", "electrons"]),
    "no-system-kind": (None, {"system": {"L": 2, "t": 1.0, "U": 4.0}}),
    "unknown-kind": (None, {"system": {"kind": "ising", "L": 2}}),
    "nelec-mismatch": (["&FCI NORB=4,NELEC=4,MS2=0,"] + DIMER_FCIDUMP[1:], {}),
    "missing-U": (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0}}),
    "non-object-partition": (None, {"partition": [1, 1]}),
    "partition-without-lists": (None, {"partition": {"occ_inactive": [], "occ_active": [0]}}),
    "partition-of-another-sector": (None, {"partition": {
        "occ_inactive": [], "occ_active": [0, 1], "virt_active": [2, 3],
        "virt_inactive": [4, 5]}}),
    "four-field-fcidump-line": (DIMER_FCIDUMP + ["0.5 1 1 0"], {}),
    # numbers are JSON numbers, not strings that would parse as one
    "string-L": (None, {"system": {"kind": "hubbard", "L": "2", "t": 1.0, "U": 4.0}}),
    "string-t": (None, {"system": {"kind": "hubbard", "L": 2, "t": "1.0", "U": 4.0}}),
    "string-U": (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": "4"}}),
    "string-electrons": (None, {"electrons": "2"}),
    "string-window": (None, {"partition": {"auto_homo_lumo": ["1", "1"]}}),
    "string-nroots": (None, {"tasks": [{"name": "fci", "nroots": "3"}]}),
    "string-n-configs": (None, {"tasks": [{"name": "ecc", "n_configs": "2"}]}),
    "string-scale": (None, {"tasks": [{"name": "ecc", "scale": "0.1"}]}),
    "string-seed": (None, {"seed": "1"}),
    # an integer beyond the float range is no finite float
    "beyond-float-U": (None, {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": 10**400}}),
    "beyond-float-dt": (None, {"tasks": [{"name": "propagate", "dt": -10**400}]}),
    # every task that sweeps needs a partition in sweep order
    **{f"unsweepable-{task}": (None, {**UNSWEEPABLE, "tasks": [{"name": task}]})
       for task in ("sweep", "downfold", "imagtime", "propagate", "verify-all")},
}


@pytest.mark.parametrize("command,fcidump,overrides", [
    pytest.param(command, fcidump, overrides, id=f"{name}-{command}")
    for name, (fcidump, overrides) in MALFORMED_CONFIGS.items()
    for command in ("validate", "run")
] + [pytest.param("run", None, {"output_dir": None}, id="no-output-directory-run")])
def test_malformed_input_is_config_error(tmp_path, capsys, command, fcidump, overrides):
    if fcidump is not None:
        (tmp_path / "FCIDUMP").write_text("\n".join(fcidump) + "\n")
        overrides = {"system": {"kind": "fcidump", "path": "FCIDUMP"}}
    if isinstance(overrides, dict):
        path = write_config(tmp_path, **overrides)
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(overrides))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    if fcidump is MALFORMED_CONFIGS["nelec-mismatch"][0]:
        assert err.startswith("configuration error: FCIDUMP NELEC=")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("system,named", [
    ({"kind": "hubbard", "L": 0, "t": 1.0, "U": 4.0}, "M=0"),
    ({"kind": "pairing", "levels": 0, "g": 0.5}, "M=0"),
    ({"kind": "fcidump", "path": "FCIDUMP"}, "NORB=0"),
], ids=["hubbard", "pairing", "fcidump"])
def test_zero_orbital_system_names_the_orbital_count(tmp_path, capsys, command, system, named):
    (tmp_path / "FCIDUMP").write_text("&FCI NORB=0,NELEC=0,&END\n0.5 0 0 0 0\n")
    path = write_config(tmp_path, system=system, electrons=0, partition=None)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: system ({system['kind']}): ")
    assert named in err and "Traceback" not in err


def test_tasks_that_do_not_sweep_take_an_unsweepable_partition(tmp_path):
    path = write_config(tmp_path, **UNSWEEPABLE, tasks=[
        {"name": "fci"}, {"name": "cluster"}, {"name": "ecc", "n_configs": 2}])
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    assert all(t["status"] == "ok" for t in read_report(tmp_path)["tasks"])


#: a partition in sweep order whose classes are no contiguous blocks, with a
#: reference (orbitals 0, 1, 3, 4) that is not the aufbau one
NON_CONTIGUOUS = {"system": {"kind": "hubbard", "L": 4, "t": 1.0, "U": 4.0}, "electrons": 4,
                  "partition": {"occ_inactive": [0], "occ_active": [1, 3, 4],
                                "virt_active": [2, 5], "virt_inactive": [6, 7]}}


def test_non_contiguous_partition_in_sweep_order_runs_every_task(tmp_path):
    path = write_config(tmp_path, **NON_CONTIGUOUS, seed=1, tasks=[
        {"name": "fci"}, {"name": "cluster"}, {"name": "sweep"}, {"name": "downfold"},
        {"name": "imagtime"}, {"name": "propagate", "dt": 0.02, "nsteps": 20},
        {"name": "ecc", "n_configs": 3}])
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    tasks = read_report(tmp_path)["tasks"]
    assert [t["status"] for t in tasks] == ["ok"] * 7
    results = {t["name"]: t["results"] for t in tasks}
    assert results["cluster"]["internal_count"] == math.comb(5, 3) - 1
    assert results["downfold"]["cas_dimension"] == math.comb(5, 3)
    assert results["downfold"]["ducc_delta_e"] < 1e-12
    assert results["propagate"]["max_consistency_deviation"] < 1e-5


def test_relative_output_starts_at_the_working_directory(tmp_path, monkeypatch):
    # a command-line path is the caller's; only the config's output_dir
    # starts at the config's directory
    (tmp_path / "full").mkdir()
    write_config(tmp_path / "full")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "full/config.json", "--output", "relout"]) == 0
    assert (tmp_path / "relout" / "report.json").exists()
    assert not (tmp_path / "full" / "relout").exists()
    assert main(["run", "full/config.json"]) == 0
    assert (tmp_path / "full" / "out" / "report.json").exists()
    assert not (tmp_path / "out").exists()


def test_uncreatable_output_directory_is_config_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(["run", str(write_config(tmp_path)), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot create output directory '{out}'")
    assert "Traceback" not in err


def test_fcidump_norb_above_the_orbital_cap_is_refused_before_allocating(tmp_path, capsys):
    # NORB=40 would take 164 MB of integral arrays before the basis refused it
    (tmp_path / "FCIDUMP").write_text("&FCI NORB=40,NELEC=2,&END\n0.5 0 0 0 0\n")
    path = write_config(tmp_path, system={"kind": "fcidump", "path": "FCIDUMP"}, partition=None)
    tracemalloc.start()
    try:
        code = main(["validate", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "NORB=40" in capsys.readouterr().err
    assert peak < 1e6


def test_validate_builds_no_hamiltonian(tmp_path, monkeypatch):
    # validate checks a config from its shape: on Hubbard L = 6 (dim 924, a
    # 6.8 MB H) no module builds H or even an integral set, and every array
    # stays small
    calls = {}
    for module in (operators, cli):
        if hasattr(module, "hamiltonian_from_integrals"):
            count_calls(monkeypatch, module, "hamiltonian_from_integrals", calls)
    count_calls(monkeypatch, operators.IntegralSet, "__init__", calls)
    path = write_config(tmp_path, system={"kind": "hubbard", "L": 6, "t": 1.0, "U": 4.0},
                        electrons=6, partition={"auto_homo_lumo": [2, 2]},
                        tasks=[{"name": name} for name in cli.TASKS])
    tracemalloc.start()
    try:
        code = main(["validate", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert calls == {}
    assert peak < 1e6


def cli_fresh(*args) -> subprocess.CompletedProcess:
    """``ducclab *args`` in a fresh interpreter, with its exit code and its
    standard error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ducclab.__file__)))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from ducclab.cli import main; sys.exit(main())",
         *map(str, args)], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


#: systems that pass every line and parameter check, but whose integrals
#: overflow: the antisymmetrized (12|12) - (11|22), and the top pairing
#: level's energy 2 * spacing
OVERFLOWING_SYSTEMS = {
    "fcidump": DIMER_FCIDUMP + ["1.7e308 1 2 1 2", "-1.7e308 1 1 2 2"],
    "pairing": {"kind": "pairing", "levels": 3, "g": 0.5, "spacing": 1e308},
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", list(OVERFLOWING_SYSTEMS))
def test_overflowing_integrals_are_refused_without_a_warning(tmp_path, command, kind):
    # both commands refuse the system as its integral set's build would, and
    # before any arithmetic overflows: no RuntimeWarning reaches stderr
    system = OVERFLOWING_SYSTEMS[kind]
    if kind == "fcidump":
        (tmp_path / "FCIDUMP").write_text("\n".join(system) + "\n")
        system = {"kind": "fcidump", "path": "FCIDUMP"}
    proc = cli_fresh(command, write_config(tmp_path, system=system))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"configuration error: system ({kind}): integrals have non-finite entries\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_subnormal_dt_is_config_error(tmp_path, capsys, command):
    # the quench steps dt / 2, which underflows to 0 at the smallest
    # subnormal dt and is subnormal at 1e-310, where run failed the task on
    # a NaN downfolded matrix: both commands refuse a dt whose half is below
    # the smallest normal float, by name and with that floor
    for dt in (5e-324, 1e-310):
        path = write_config(tmp_path, tasks=[{"name": "propagate", "dt": dt, "nsteps": 2}])
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: task propagate: dt={dt!r} needs dt / 2 >= "
            "2.2250738585072014e-308\n")
        assert not (tmp_path / "out").exists()
    path = write_config(tmp_path, tasks=[{"name": "propagate", "dt": 2 * sys.float_info.min,
                                          "nsteps": 2}])
    assert main(["validate", str(path)]) == 0


def test_validate_loads_no_numpy(tmp_path):
    # validate checks a hubbard, a pairing and an FCIDUMP config, every task
    # of each, from their shape: numpy never loads
    write_seeded_fcidump(tmp_path / "FCIDUMP", 8, 4, seed=1)
    paths = []
    for system, electrons in (({"kind": "hubbard", "L": 3, "t": 1.0, "U": 4.0}, 3),
                              ({"kind": "pairing", "levels": 3, "g": 0.5}, 2),
                              ({"kind": "fcidump", "path": "../FCIDUMP"}, 4)):
        (tmp_path / system["kind"]).mkdir()
        paths.append(write_config(tmp_path / system["kind"], system=system, electrons=electrons,
                                  tasks=[{"name": name} for name in cli.TASKS]))
    out = run_fresh("import sys; from ducclab.cli import main; "
                    "codes = [main(['validate', path]) for path in sys.argv[1:]]; "
                    "print(codes, 'numpy' in sys.modules)", *paths)
    assert out.splitlines() == ["config ok"] * 3 + ["[0, 0, 0] False"]


def test_sector_records_load_no_numpy():
    # the package's determinant and partition records and the references
    # built from them come from ducclab.shape: using them loads no numpy
    out = run_fresh("import sys, ducclab; "
                    "print(ducclab.homo_lumo_partition(8, 4, 2, 2).reference(), "
                    "ducclab.aufbau_reference(4, 2), ducclab.Determinant(5, 3), "
                    "ducclab.ExcitationSignature((0,), (3,)).rank, 'numpy' in sys.modules)")
    assert out.split() == ["|11110000>", "|1100>", "|101>", "1", "False"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("task", list(cli.TASKS))
def test_byte_budget_refuses_each_task(tmp_path, capsys, monkeypatch, command, task):
    # one byte below a task's estimated peak, both commands refuse the
    # config and name the estimate; at the estimate it passes
    path = write_config(tmp_path, tasks=[{"name": task}])
    peak, name = cli.peak_estimate([(task, {})], 4, 2, ducclab.homo_lumo_partition(4, 2, 1, 1))
    assert name == task
    monkeypatch.setattr(cli, "MAX_PEAK_BYTES", peak - 1)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: task {task}: estimated peak of {peak:,} bytes exceeds the "
        f"budget of {peak - 1:,} bytes\n")
    assert not (tmp_path / "out").exists()
    monkeypatch.setattr(cli, "MAX_PEAK_BYTES", peak)
    assert main(["validate", str(path)]) == 0


def test_byte_budget_admits_hubbard_l7_and_refuses_m16(tmp_path, capsys):
    # validate builds nothing of the sector's size, so both sectors are
    # checked here: L = 7 (dim 3432) runs every task, M = 16 (dim 12870) none
    for L, code in ((7, 0), (8, 2)):
        for task in cli.TASKS:
            path = write_config(tmp_path, system={"kind": "hubbard", "L": L, "t": 1.0, "U": 4.0},
                                electrons=L, partition={"auto_homo_lumo": [2, 2]},
                                tasks=[{"name": task}])
            assert main(["validate", str(path)]) == code, (L, task)
    assert capsys.readouterr().err.count("estimated peak of ") == len(cli.TASKS)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_oversized_quench_is_refused_before_allocating(tmp_path, capsys, command):
    path = write_config(tmp_path, tasks=[{"name": "propagate", "nsteps": 10**9}])
    tracemalloc.start()
    try:
        code = main([command, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: task propagate: estimated peak of ")
    assert peak < 1e6


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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides,message", [
    ({"sytem_typo": 1, "tasks": [{"name": "propagate", "n_steps": 3, "dtt": 0.5}]},
     "config: unknown key(s) 'sytem_typo'"),
    ({"tasks": [{"name": "propagate", "n_steps": 3, "dtt": 0.5}]},
     "task propagate: unknown key(s) 'n_steps', 'dtt'"),
    ({"tasks": [{"name": "propagate", "nsteps": 4, "fd_order": 4}]},
     "task propagate: unknown key(s) 'fd_order'"),
    ({"tasks": [{"name": "sweep", "nsteps": 4}]}, "task sweep: unknown key(s) 'nsteps'"),
    ({"tasks": [{"name": "verify-all", "propagte": {"nsteps": 4}}]},
     "task verify-all: unknown key(s) 'propagte'"),
    ({"tasks": [{"name": "verify-all", "propagate": {"n_steps": 4}}]},
     "task propagate: unknown key(s) 'n_steps'"),
    ({"tasks": [{"name": "verify-all", "ecc": {"name": "bogus", "n_configs": 2}}]},
     "task ecc: unknown key(s) 'name'"),
    ({"system": {"kind": "pairing", "levels": 2, "g": 0.4, "spacng": 0.5}},
     "system: unknown key(s) 'spacng'"),
    ({"system": {"kind": "fcidump", "path": "FCIDUMP", "U": 4.0}},
     "system: unknown key(s) 'U'"),
    ({"partition": {"auto_homo_lumo": [1, 1], "allow_arbitary": True}},
     "partition: unknown key(s) 'allow_arbitary'"),
    ({"partition": {"occ_inactive": [], "occ_active": [0], "virt_active": [2],
                    "virt_inactive": [3], "allow_arbitary": True}},
     "partition: unknown key(s) 'allow_arbitary'"),
    ({"partition": {"auto_homo_lumo": [1, 1], "allow_arbitrary": True}},
     "partition: unknown key(s) 'allow_arbitrary'"),
    ({"partition": {"occ_inactive": [], "occ_active": [0], "virt_active": [1, 2],
                    "virt_inactive": [3], "allow_arbitrary": True}},
     "partition: unknown key(s) 'allow_arbitrary'"),
], ids=["top-level", "task-entry", "stale-fd-order", "task-without-params",
        "verify-all-entry", "verify-all-sub-task", "verify-all-sub-task-name", "system-key", "system-key-of-other-kind",
        "partition-key", "explicit-partition-key", "auto-partition-with-explicit-key",
        "explicit-partition-allow-arbitrary"])
def test_unknown_key_is_config_error(tmp_path, capsys, command, overrides, message):
    assert main([command, str(write_config(tmp_path, **overrides))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name", [["fci"], {"a": 1}, None, 3],
                         ids=["list", "object", "null", "number"])
def test_malformed_task_name_is_config_error(tmp_path, capsys, command, name):
    # a name that is no string never reaches the task table, which cannot
    # look up a list or an object
    entry = {"name": name}
    assert main([command, str(write_config(tmp_path, tasks=[entry]))]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: unknown task entry {entry!r}; valid names: ('fci', 'cluster', "
        "'sweep', 'downfold', 'propagate', 'imagtime', 'ecc', 'verify-all')\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("task", [t for t in cli.TASKS if t not in ("fci", "cluster")])
def test_task_without_partition_is_config_error(tmp_path, capsys, command, task):
    path = write_config(tmp_path, partition=None, tasks=[{"name": "fci"}, {"name": task}])
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: task {task} requires a partition\n"
    assert not (tmp_path / "out").exists()


def test_fci_and_cluster_run_without_partition(tmp_path):
    path = write_config(tmp_path, partition=None, tasks=[{"name": "fci"}, {"name": "cluster"}])
    assert main(["run", str(path)]) == 0
    assert [t["status"] for t in read_report(tmp_path)["tasks"]] == ["ok", "ok"]


def test_underscore_keys_are_internal(tmp_path, capsys):
    path = write_config(tmp_path, _comment="x",
                        system={"kind": "hubbard", "L": 2, "t": 1.0, "U": 4.0, "_src": "x"},
                        partition={"auto_homo_lumo": [1, 1], "_note": 1},
                        tasks=[{"name": "fci", "_why": 1},
                               {"name": "verify-all", "_n": 2, "propagate": {"_x": 3}}])
    assert main(["validate", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


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
    ctx = cli.build_context(cfg, seed=1)
    psi0 = cli._initial_state(ctx, "noninteracting-ground")
    vals, vecs = np.linalg.eigh(hamiltonian_from_terms(terms, ctx.basis).matrix)
    assert vals[1] - vals[0] > 1e-3   # a non-degenerate free ground state
    assert abs(abs(np.vdot(vecs[:, 0], psi0)) - 1.0) < 1e-12
    assert not np.allclose(abs(np.vdot(ctx.ground_vector(), psi0)), 1.0)


def test_degenerate_noninteracting_start_is_refused(tmp_path, capsys):
    # the free Hubbard L=5, N=5 ground root is a doublet (gap 3.6e-15): the
    # start would be whichever mix of it eigh returns, so propagate refuses it
    path = write_config(tmp_path, system={"kind": "hubbard", "L": 5, "t": 1.0, "U": 4.0},
                        electrons=5, partition={"auto_homo_lumo": [2, 2]},
                        tasks=[{"name": "propagate", "nsteps": 2,
                                "initial": "noninteracting-ground"}])
    assert main(["run", str(path)]) == 1
    (task,) = read_report(tmp_path)["tasks"]
    assert task["status"] == "failed"
    gap = re.search(r"degenerate noninteracting ground root: gap E1 - E0 = (\S+) below "
                    + f"{cli.MIN_GROUND_GAP:.0e}", task["error"])
    assert gap and float(gap.group(1)) < cli.MIN_GROUND_GAP
    assert "task propagate failed" in capsys.readouterr().err


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
    H = ducclab.hamiltonian_from_integrals(ducclab.hubbard_integrals(2, 1.0, 4.0),
                                           ducclab.build_basis(4, 2))
    assert not hasattr(ducclab.QOperator, "from_terms")
    assert not hasattr(H, "terms")


def test_plain_amplitude_arrays_and_cached_context_properties(m6_basis, m6_ref, m6_part,
                                                              m6_table):
    # amplitude sets are plain arrays over the table's rows, the ECC sets
    # keyword arguments, and the run stages cached properties of the context
    psi = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
    amps = ducclab.random_amplitudes(m6_table, np.random.default_rng(0))
    for t in (ducclab.cluster_analyze(psi, m6_ref, m6_basis), amps,
              *ducclab.split_amplitudes(amps, m6_table, m6_part)):
        assert type(t) is np.ndarray and t.shape == (m6_basis.size,)
    # EccMatrices is the one class of ecc, in the module and in the package
    for mod in (ecc, ducclab):
        assert [name for name in dir(mod) if isinstance(getattr(mod, name), type)
                and getattr(mod, name).__module__ == "ducclab.ecc"] == ["EccMatrices"]
    # the context holds an FCIDUMP's line pass; the integral set is a stage
    assert [f.name for f in dataclasses.fields(cli.RunContext)] == [
        "config", "fcidump", "ref", "part", "seed"]
    stages = ("ints", "basis", "H", "ground_state", "table", "amplitudes", "sweep",
              "cas_columns", "ducc_hamiltonian")
    assert all(isinstance(vars(cli.RunContext)[name], functools.cached_property)
               for name in stages)
    assert {name for name, obj in vars(cli.RunContext).items()
            if callable(obj) and not name.startswith("__")} == {"rng", "ground_vector"}


def loaded_modules(module: str, prefix: str) -> str:
    """The modules named ``prefix...`` that importing ``module`` loads, in a
    fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ducclab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(sorted(m for m in sys.modules "
         f"if m.startswith({prefix!r})))"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse costs start-up time and memory on every run
    assert loaded_modules("ducclab", "scipy.sparse") == "[]"


def test_cli_import_leaves_scipy_linalg_unloaded():
    # importing scipy.linalg, even only its BLAS wrappers, costs every run
    # about 0.25 s of start-up on a 2-vCPU machine; no module may load it,
    # directly or through another package
    assert loaded_modules("ducclab.cli", "scipy.linalg") == "[]"


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: a run needs numpy alone
    assert loaded_modules("ducclab.cli", "scipy") == "[]"


def test_cli_import_loads_only_the_modules_that_check_a_config():
    # numpy and the modules that build and compute load when a stage or
    # task first needs them
    assert loaded_modules("ducclab.cli", "ducclab") == str(
        ["ducclab", "ducclab.cli", "ducclab.errors", "ducclab.shape"])
    assert loaded_modules("ducclab.cli", "numpy") == "[]"
    assert loaded_modules("ducclab", "ducclab") == "['ducclab']"


#: every name the package exports, by defining module; perfbench's input
#: check reads read_fcidump, build_basis, hamiltonian_from_integrals and
#: aufbau_reference
PACKAGE_EXPORTS = {
    "cluster": ("AmplitudeOperator", "cluster_analyze", "exp_nilpotent", "random_amplitudes",
                "sigma_lowest_order", "split_amplitudes"),
    "downfold": ("EffectiveHamiltonian", "cas_eigensolve", "downfold_ducc", "downfold_sescc",
                 "ducc_projection", "effective_to_dict", "match_root"),
    "dynamics": ("QuenchStudy", "downfolded_quench", "evaluate_lagrangians",
                 "evaluate_sescc_lagrangian", "grid_velocity", "propagate_full",
                 "propagate_internal"),
    "ecc": ("EccMatrices", "action_deviation", "eval_ldt_forms", "eval_lh_forms",
            "x_int_ext_bch"),
    "errors": ("BranchCutError", "CasSupportError", "ConfigError", "ConvergenceError",
               "DuccLabError", "IntermediateNormalizationError", "InvalidDimensionError",
               "NormDriftError", "OperatorPropertyError", "OrderingViolationError",
               "SectorMismatchError"),
    "fock": ("DeterminantTable", "FockBasis", "build_basis", "determinant_table"),
    "imagtime": ("FlowResult", "ImaginaryFlowState", "imaginary_evolve", "imaginary_step",
                 "initial_flow_state"),
    "operators": ("IntegralSet", "QOperator", "direct_sum_blocks", "hamiltonian_from_integrals",
                  "hubbard_integrals", "logm_unitary", "pairing_integrals", "read_fcidump"),
    "shape": ("Determinant", "ExcitationSignature", "SpinOrbitalPartition", "aufbau_reference",
              "homo_lumo_partition"),
    "sweeps": ("RotationStep", "SweepResult", "decompose_state", "rotation_for_target"),
}


@pytest.mark.parametrize("name,module", [(name, module) for module, names
                                         in PACKAGE_EXPORTS.items() for name in names])
def test_package_exports_resolve_on_first_use(name, module):
    defined = getattr(importlib.import_module(f"ducclab.{module}"), name)
    assert getattr(ducclab, name) is defined
    namespace = {}
    exec(f"from ducclab import {name}", namespace)
    assert namespace[name] is defined
    assert name in dir(ducclab)
    assert name in ducclab.__all__


DIMER_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "hubbard_dimer.json")


def run_fresh(code: str, *args, **env_vars) -> str:
    """Standard output of ``code`` run with ``args`` in a fresh interpreter
    whose environment has none of ``cli.THREAD_VARS`` and no
    OPENBLAS_THREAD_TIMEOUT, plus ``env_vars``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ducclab.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in cli.THREAD_VARS and k != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(PYTHONPATH=src, **env_vars)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout


def run_cli_fresh(*args, before="", **env_vars) -> str:
    """``ducclab *args`` by :func:`run_fresh`, after the statements ``before``;
    returns the run's OPENBLAS_THREAD_TIMEOUT as it printed it."""
    return run_fresh(
        before + "import os, sys; from ducclab.cli import main; code = main(sys.argv[1:]); "
        "print(os.environ.get('OPENBLAS_THREAD_TIMEOUT')); sys.exit(code)",
        *args, **env_vars).strip()


def test_report_versions_name_the_blas_build_and_thread_settings(tmp_path):
    # reported values move at round-off with the BLAS build and its thread
    # count; reading the build from numpy loads no scipy either
    out = run_fresh(
        "import sys; from ducclab.cli import main; code = main(['run', sys.argv[1]]); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); sys.exit(code)",
        write_config(tmp_path), OPENBLAS_NUM_THREADS="1")
    assert out.strip() == "[]"
    versions = read_report(tmp_path)["versions"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions["blas"] == f"{blas['name']} {blas['version']}"
    assert versions["thread_vars"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert set(versions) == {"ducclab", "numpy", "python", "blas", "thread_vars"}


@pytest.fixture(scope="module")
def dimer_outputs(tmp_path_factory):
    """(output directory, OPENBLAS_THREAD_TIMEOUT) of the dimer config run
    by :func:`run_cli_fresh`: as ``ducclab`` sets OpenBLAS up, and with
    numpy imported first, so that OpenBLAS keeps its own defaults."""
    outputs = {}
    for name, before in (("package", ""), ("numpy_first", "import numpy; ")):
        out = tmp_path_factory.mktemp(name)
        outputs[name] = out, run_cli_fresh("run", DIMER_PATH, "--output", out, before=before)
    return outputs


def test_run_sets_the_blas_thread_timeout_before_numpy(dimer_outputs):
    assert dimer_outputs["package"][1] == str(ducclab.BLAS_THREAD_TIMEOUT)
    assert dimer_outputs["numpy_first"][1] == "None"


def test_blas_thread_timeout_of_the_caller_wins(tmp_path):
    assert run_cli_fresh("run", write_config(tmp_path), OPENBLAS_THREAD_TIMEOUT="20") == "20"


def test_import_after_numpy_leaves_the_environment_untouched():
    # OpenBLAS read its settings when numpy loaded it: a variable set now
    # would change nothing but what the environment claims
    out = run_fresh("import os, numpy; before = dict(os.environ); import ducclab; "
                    "print(dict(os.environ) == before, 'OPENBLAS_THREAD_TIMEOUT' in os.environ)")
    assert out.split() == ["True", "False"]


def test_blas_thread_timeout_moves_no_result(dimer_outputs):
    # the timeout changes when idle helper threads sleep, not how a kernel
    # splits its work: every report value and artifact is the same.  The
    # report does not record the timeout, so the two reports are equal but
    # for their time stamps
    (package, _), (numpy_first, _) = dimer_outputs["package"], dimer_outputs["numpy_first"]
    names = sorted(os.listdir(package))
    assert names == sorted(os.listdir(numpy_first)) and "report.json" in names
    reports = [json.loads((out / "report.json").read_text()) for out in (package, numpy_first)]
    assert reports[0]["versions"]["thread_vars"] == {}
    for report in reports:
        del report["generated_at"]
    assert reports[0] == reports[1]
    for name in names:
        if name != "report.json":
            assert (package / name).read_bytes() == (numpy_first / name).read_bytes(), name


def test_suite_runs_under_a_blas_thread_timeout():
    # conftest imports ducclab before numpy, so the in-process tests run
    # under the OpenBLAS settings of a command-line run
    assert "OPENBLAS_THREAD_TIMEOUT" in os.environ


def test_suite_turns_complex_warnings_into_errors():
    # the message filter of pyproject.toml: a filter by numpy's warning
    # class would import numpy before conftest imports ducclab
    with pytest.raises(np.exceptions.ComplexWarning):
        np.array([1j]).astype(float)


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
        # dtau = 1e-9 stops the flow far from the ground energy: imagtime
        # fails numerically while fci passes
        path = write_config(tmp_path, tasks=[{"name": "fci"}, {"name": "imagtime", "dtau": 1e-9}])
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "task imagtime failed" in err
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
        ctx = cli.build_context(cli.load_config(str(path)), seed=3)
        study = ducclab.downfolded_quench(ctx.H, cli._initial_state(ctx, "reference"),
                                          0.02, 40, ctx.ref, ctx.part)
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
        assert set(checks) == set(cli.VERIFY_ALL_CHECKS)
        assert all(checks.values())

    def test_files_of_every_task(self, tmp_path):
        path = write_config(tmp_path, tasks=[
            {"name": name, **BATTERY_PARAMS.get(name, {})} for name in cli.TASKS])
        assert main(["run", str(path)]) == 0
        files = {t["name"]: t["files"] for t in read_report(tmp_path)["tasks"]}
        assert files == {
            "fci": ["fci_spectrum.csv"], "cluster": [], "sweep": [],
            "downfold": ["heff_sescc.json", "heff_ducc.json"],
            # verify-all's propagate (nsteps 50) rewrites trajectory.csv
            "propagate": [], "imagtime": ["imagtime_flow.csv"], "ecc": [],
            "verify-all": ["fci_spectrum.csv", "heff_sescc.json", "heff_ducc.json",
                           "trajectory.csv", "imagtime_flow.csv"]}
        assert sorted(os.listdir(tmp_path / "out")) == sorted(files["verify-all"] + ["report.json"])

    def test_propagate_from_the_ground_state_is_stationary(self, tmp_path):
        path = write_config(tmp_path, tasks=[{"name": "propagate", "dt": 0.02, "nsteps": 20,
                                              "initial": "ground"}])
        assert main(["run", str(path)]) == 0
        results = read_report(tmp_path)["tasks"][0]["results"]
        assert results["energy_drift"] < 1e-12
        assert results["norm_drift"] < 1e-12
        assert results["max_consistency_deviation"] < 1e-8


def test_failed_verify_all_check_fails_the_battery(tmp_path, capsys, monkeypatch):
    task, keys, _ = cli.VERIFY_ALL_CHECKS["td_consistency"]
    monkeypatch.setitem(cli.VERIFY_ALL_CHECKS, "td_consistency", (task, keys, 0.0))
    assert main(["run", str(write_config(tmp_path, tasks=[{"name": "verify-all"}]))]) == 1
    (entry,) = read_report(tmp_path)["tasks"]
    assert entry["status"] == "failed" and entry["files"] == []
    assert entry["error"] == "DuccLabError: verification checks failed: td_consistency"
    assert "task verify-all failed" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == ["report.json"]


def test_failed_bivariational_check_fails_the_battery(tmp_path, capsys, monkeypatch):
    sescc_lagrangian = dynamics.evaluate_sescc_lagrangian

    def deviating(*args):
        f1, f2 = sescc_lagrangian(*args)
        return f1, f2 + 1e-6
    monkeypatch.setattr(dynamics, "evaluate_sescc_lagrangian", deviating)
    assert main(["run", str(write_config(tmp_path, tasks=[{"name": "verify-all"}]))]) == 1
    (entry,) = read_report(tmp_path)["tasks"]
    assert entry["error"] == "DuccLabError: verification checks failed: lagrangian_equivalence"
    assert os.listdir(tmp_path / "out") == ["report.json"]


def test_listed_files_hold_the_text_of_their_task(tmp_path):
    # the dimer's verify-all rewrites six files; only trajectory.csv (nsteps
    # 50 against propagate's 200) gets other text, so only propagate's
    # listing of it goes
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                       "hubbard_dimer.json"))
    report, code = cli.run(cfg, str(tmp_path), 1)
    assert code == 0
    unlisted = set()
    for task, entry in zip(cfg["tasks"], report["tasks"]):
        # the task's own text, from a fresh context: each task draws its own stream
        params = {k: v for k, v in task.items() if k != "name"}
        _, artifacts = cli.run_task(cli.build_context(cfg, 1), task["name"], params)
        unlisted |= {(task["name"], f) for f in artifacts if f not in entry["files"]}
        for name in entry["files"]:
            assert (tmp_path / name).read_text() == artifacts[name]
    assert unlisted == {("propagate", "trajectory.csv")}


def test_task_order_keys_the_rng_streams():
    # RunContext.rng keys a task's stream on its place in TASKS: a new task
    # goes last, or every report of a seeded task changes
    assert list(cli.TASKS) == ["fci", "cluster", "sweep", "downfold", "propagate",
                               "imagtime", "ecc", "verify-all"]


def test_wrapped_task_entries_run_alike(tmp_path, monkeypatch):
    # a profiler replaces each TASKS entry by a functools.wraps wrapper that
    # calls it: the run's report and files stay the same, the wrapper keeps
    # the entry's bounds, and every run of a task, verify-all's sub-tasks
    # too, goes through its wrapper
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                       "hubbard_dimer.json"))
    plain, code = cli.run(cfg, str(tmp_path / "plain"), 1)
    assert code == 0
    calls = dict.fromkeys(cli.TASKS, 0)

    def wrap(name, entry):
        def timed(*args, **kwargs):
            calls[name] += 1
            return entry(*args, **kwargs)
        return functools.wraps(entry)(timed)

    for name, entry in list(cli.TASKS.items()):
        monkeypatch.setitem(cli.TASKS, name, wrap(name, entry))
        assert cli.TASKS[name].bounds == entry.bounds
    wrapped, code = cli.run(cfg, str(tmp_path / "wrapped"), 1)
    assert code == 0
    del plain["generated_at"], wrapped["generated_at"]
    assert wrapped == plain
    files = sorted(os.listdir(tmp_path / "plain"))
    assert sorted(os.listdir(tmp_path / "wrapped")) == files
    for name in files:
        if name != "report.json":
            assert (tmp_path / "wrapped" / name).read_text() == \
                (tmp_path / "plain" / name).read_text()
    # the config runs each task once, verify-all each of its sub-tasks again
    assert calls == {"fci": 2, "cluster": 1, "sweep": 2, "downfold": 2, "propagate": 2,
                     "imagtime": 2, "ecc": 2, "verify-all": 1}


def test_failed_tasks_write_no_artifacts(tmp_path):
    # dtau = 1e-9 fails imagtime alone and inside verify-all, after the
    # battery's other sub-tasks passed; fci's spectrum is the one artifact
    path = write_config(tmp_path, tasks=[
        {"name": "verify-all", "imagtime": {"dtau": 1e-9}}, {"name": "fci"},
        {"name": "imagtime", "dtau": 1e-9}])
    assert main(["run", str(path)]) == 1
    tasks = read_report(tmp_path)["tasks"]
    assert [(t["status"], t["files"]) for t in tasks] == [
        ("failed", []), ("ok", ["fci_spectrum.csv"]), ("failed", [])]
    assert sorted(os.listdir(tmp_path / "out")) == ["fci_spectrum.csv", "report.json"]


def test_residual_gates_fail_meaningless_tasks(tmp_path, capsys):
    # the ground root of Hubbard L=5, N=5 is a degenerate S_z doublet, of
    # which eigh returns an arbitrary mix: fci reports the spectrum, while
    # cluster and downfold refuse the gap before they analyse the mix (the
    # residual and generator-norm gates are tested on their own)
    path = write_config(tmp_path, system={"kind": "hubbard", "L": 5, "t": 1.0, "U": 4.0},
                        electrons=5, partition={"auto_homo_lumo": [2, 2]},
                        tasks=[{"name": "fci"}, {"name": "cluster"}, {"name": "downfold"}])
    assert main(["run", str(path)]) == 1
    tasks = read_report(tmp_path)["tasks"]
    assert [t["status"] for t in tasks] == ["ok", "failed", "failed"]
    gap = tasks[0]["results"]["roots"][1] - tasks[0]["results"]["roots"][0]
    assert gap < cli.MIN_GROUND_GAP
    for task in tasks[1:]:
        assert "degenerate ground root: gap E1 - E0 = " in task["error"]
        assert f"below {cli.MIN_GROUND_GAP:.0e}" in task["error"]
    err = capsys.readouterr().err
    assert "task cluster failed" in err and "task downfold failed" in err


def test_reference_weight_gate(tmp_path):
    # Hubbard L=6, N=6 in the site basis: a gapped ground root (0.401) whose
    # aufbau reference weight of 1.4e-10 leaves intermediate normalisation
    # dividing by round-off; cluster names the weight, not its residual
    path = write_config(tmp_path, system={"kind": "hubbard", "L": 6, "t": 1.0, "U": 4.0},
                        electrons=6, partition=None,
                        tasks=[{"name": "fci"}, {"name": "cluster"}])
    assert main(["run", str(path)]) == 1
    fci, cluster = read_report(tmp_path)["tasks"]
    assert fci["status"] == "ok" and cluster["status"] == "failed"
    assert fci["results"]["roots"][1] - fci["results"]["roots"][0] > 0.4
    assert "reference weight |<ref|psi0>|^2 = 1.357e-10 below" in cluster["error"]
    assert f"below {cli.MIN_REFERENCE_WEIGHT:.0e}" in cluster["error"]


def test_one_determinant_basis_has_no_gap_to_check(tmp_path):
    path = write_config(tmp_path, system={"kind": "hubbard", "L": 1, "t": 1.0, "U": 4.0},
                        electrons=2, partition=None,
                        tasks=[{"name": "fci"}, {"name": "cluster"}])
    assert main(["run", str(path)]) == 0
    fci, cluster = read_report(tmp_path)["tasks"]
    assert fci["results"]["roots"] == [4.0]
    assert cluster["results"]["cc_residual"] == 0.0


@pytest.mark.parametrize("electrons", [0, 4])
def test_empty_and_full_sectors_have_one_determinant(tmp_path, electrons):
    # no electron, or every orbital filled: the reference is the one
    # determinant, whose table has its row alone and no off-diagonal pair
    path = write_config(tmp_path, electrons=electrons, partition=None,
                        tasks=[{"name": "fci"}, {"name": "cluster"}])
    assert main(["run", str(path)]) == 0
    fci, cluster = read_report(tmp_path)["tasks"]
    assert fci["status"] == cluster["status"] == "ok"
    assert fci["results"]["dimension"] == 1
    assert fci["results"]["roots"] == [0.0 if electrons == 0 else 8.0]
    assert cluster["results"] == {"roundtrip_residual": 0.0, "cc_residual": 0.0,
                                  "energy_deviation": 0.0, "amplitude_count": 0,
                                  "max_rank": 0}


def test_complex_hamiltonian_is_solved_in_complex_arithmetic(tmp_path, monkeypatch):
    # a complex Hermitian H keeps its imaginary part: fci takes one complex
    # eigh and reports that matrix's ground energy, 8.8e-8 below the real one
    build = operators.hamiltonian_from_integrals
    built = []

    def complex_h(ints, basis):
        H = build(ints, basis)
        E = np.zeros_like(H.matrix)
        E[0, 1] = 1.0
        built.append(ducclab.QOperator(H.matrix + 1e-3j * (E - E.T), basis))
        return built[-1]
    monkeypatch.setattr(operators, "hamiltonian_from_integrals", complex_h)
    calls = {}
    count_calls(monkeypatch, np.linalg, "eigh", calls,
                key=lambda a, *args, **kwargs: (a.dtype.kind, a.shape))
    assert main(["run", str(write_config(tmp_path))]) == 0
    assert calls == {("c", (6, 6)): 1}
    energy = read_report(tmp_path)["tasks"][0]["results"]["ground_energy"]
    (H,) = built
    assert abs(energy - np.linalg.eigvalsh(H.matrix)[0]) < 1e-12
    assert np.linalg.eigvalsh(H.matrix.real)[0] - energy > 5e-8


@pytest.mark.parametrize("value", [10.0, float("nan")], ids=["10x", "nan"])
@pytest.mark.parametrize("task,key", [(task, key) for task, entry in cli.TASKS.items()
                                      for key in entry.bounds])
def test_every_residual_bound_fails_its_task(tmp_path, monkeypatch, task, key, value):
    # each bound, whatever the eigensolver returns: the task reports its
    # result at ten times the bound, or NaN, and run_task refuses it
    bounds = cli.TASKS[task].bounds
    results = {k: 0.0 for k in bounds}
    results[key] = value * bounds[key]
    monkeypatch.setitem(cli.TASKS, task, dataclasses.replace(
        cli.TASKS[task], run=lambda ctx, params: (results, {})))
    ctx = cli.build_context(json.loads(write_config(tmp_path).read_text()), 0)
    with pytest.raises(ducclab.DuccLabError, match=f"^{task}: {key} = .* exceeds"):
        cli.run_task(ctx, task, {})


@pytest.mark.parametrize("task,results,key", [
    ("fci", {"ground_energy": -1.0, "roots": [-1.0, math.inf], "dimension": 6}, "roots.1"),
    ("ecc", {"n_configs": 2, "max_bch_deviation": -math.inf}, "max_bch_deviation"),
    ("propagate", {"max_decomposition_residual": 0.0, "energy_drift": math.nan},
     "energy_drift"),
    ("verify-all", {"propagate": {"norm_drift": math.inf}, "checks": {"td_consistency": True}},
     "propagate.norm_drift"),
], ids=["list", "top-level", "nan", "nested"])
def test_non_finite_result_fails_its_task(tmp_path, monkeypatch, task, results, key):
    # a number that no bound covers, a nested one too, fails the entry: the
    # report names the key and stays strict JSON, and no artifact is written
    monkeypatch.setitem(cli.TASKS, task, dataclasses.replace(
        cli.TASKS[task], run=lambda ctx, params: (results, {"artifact.csv": "x\n"})))
    assert main(["run", str(write_config(tmp_path, tasks=[{"name": task}]))]) == 1
    (entry,) = read_report(tmp_path)["tasks"]
    assert entry["status"] == "failed"
    assert re.fullmatch(rf"DuccLabError: {task}: {re.escape(key)} = -?(inf|nan) is not finite",
                        entry["error"])
    assert os.listdir(tmp_path / "out") == ["report.json"]


@pytest.mark.parametrize("dt", [1e150, 1e300])
# the command line runs without the suite's RuntimeWarning filter
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_quench_fails_its_norm_gate(tmp_path, dt):
    # the RK4 stages overflow to NaN in the first step: the norm-drift gate
    # refuses it, where a NaN drift passed it as ok
    path = write_config(tmp_path, seed=1, tasks=[{"name": "propagate", "dt": dt, "nsteps": 2}])
    assert main(["run", str(path)]) == 1
    task = read_report(tmp_path)["tasks"][0]
    assert task["status"] == "failed"
    assert task["error"].startswith("NormDriftError: norm drift nan at step 0 exceeds")


def test_unconverged_imagtime_fails(tmp_path):
    # dtau = 1e-9 stops the flow by its tolerance far from the ground energy
    path = write_config(tmp_path, tasks=[{"name": "imagtime", "dtau": 1e-9}])
    assert main(["run", str(path)]) == 1
    task = read_report(tmp_path)["tasks"][0]
    assert task["status"] == "failed"
    assert re.match(r"DuccLabError: imagtime: delta_e_vs_fci = .* exceeds 1e-08", task["error"])


@pytest.mark.parametrize("dtau", [300, 700, 1000, 1e300])
def test_overflowing_imagtime_step_is_retaken(tmp_path, dtau):
    # on the dimer's full CAS, exp(-dtau (Heff - S)) of the first step
    # overflows: the step is retaken with its exponent shifted, and the flow
    # lands on the ground state
    path = write_config(tmp_path, partition={"auto_homo_lumo": [2, 2]}, seed=1,
                        tasks=[{"name": "imagtime", "dtau": dtau}])
    assert main(["run", str(path)]) == 0
    task = read_report(tmp_path)["tasks"][0]
    assert task["status"] == "ok"
    assert task["results"]["delta_e_vs_fci"] < 1e-8


def test_ecc_at_a_large_scale_stays_ok(tmp_path):
    # the identities hold relative to the size of their brackets
    path = write_config(tmp_path, tasks=[{"name": "ecc", "n_configs": 3, "scale": 50.0}])
    assert main(["run", str(path)]) == 0
    assert read_report(tmp_path)["tasks"][0]["results"]["max_lh_deviation"] > 1e-12


def test_ecc_fails_on_deviating_forms(tmp_path, monkeypatch):
    lh_forms = ecc.eval_lh_forms

    def deviating(*args):
        w1, w2 = lh_forms(*args)
        return w1, w2 * (1 + 1e-9)
    monkeypatch.setattr(ecc, "eval_lh_forms", deviating)
    path = write_config(tmp_path, tasks=[{"name": "ecc", "n_configs": 3}])
    assert main(["run", str(path)]) == 1
    task = read_report(tmp_path)["tasks"][0]
    assert task["status"] == "failed"
    assert task["error"].startswith("DuccLabError: ecc configuration 0: lh forms ")


def test_ecc_failure_names_a_configuration_past_the_first_stack(tmp_path, monkeypatch):
    # only configuration ECC_STACK + 2, the third of the second stack, deviates
    ldt_forms, widths = ecc.eval_ldt_forms, []

    def deviating(m, ref):
        v1, v2, v4 = ldt_forms(m, ref)
        widths.append(len(v1))
        if len(widths) == 2:
            v2 = v2.copy()
            v2[2] += 1e-6
        return v1, v2, v4
    monkeypatch.setattr(ecc, "eval_ldt_forms", deviating)
    path = write_config(tmp_path, tasks=[{"name": "ecc", "n_configs": cli.ECC_STACK + 5}])
    assert main(["run", str(path)]) == 1
    assert widths == [cli.ECC_STACK, 5]
    error = read_report(tmp_path)["tasks"][0]["error"]
    assert error.startswith(f"DuccLabError: ecc configuration {cli.ECC_STACK + 2}: ldt forms ")


def test_ecc_of_all_zero_amplitudes(tmp_path):
    # every set of every configuration is zero, or every external one is
    # (no determinant is external): X_ext holds no pair, so the BCH check
    # has no class block, and every pair of routes agrees exactly
    for window, scale in (([1, 1], 0), ([2, 2], 0.1)):
        path = write_config(tmp_path, partition={"auto_homo_lumo": window},
                            tasks=[{"name": "ecc", "n_configs": 3, "scale": scale}])
        assert main(["run", str(path)]) == 0
        results = read_report(tmp_path)["tasks"][0]["results"]
        assert results == {"n_configs": 3, "max_ldt_deviation": 0.0, "max_lh_deviation": 0.0,
                           "max_action_deviation": 0.0, "max_bch_deviation": 0.0}, window


def test_ecc_memory_is_bounded_by_one_stack(tmp_path):
    # configurations are drawn and checked a stack at a time: from 2 to 40
    # configurations the traced peak grows only until one stack is full
    # (holding all 40 would take about 20 times the peak of 2)
    write_seeded_fcidump(tmp_path / "FCIDUMP", 8, 4, seed=5)
    path = write_config(tmp_path, system={"kind": "fcidump", "path": "FCIDUMP"}, electrons=4,
                        partition={"auto_homo_lumo": [2, 2]})
    ctx = cli.build_context(cli.load_config(str(path)), 3)
    cli.run_task(ctx, "ecc", {"n_configs": 2})   # the memoised tables exist before tracing
    peaks = {}
    for n in (2, cli.ECC_STACK, 40):
        tracemalloc.start()
        try:
            cli.run_task(ctx, "ecc", {"n_configs": n})
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] <= 1.05 * peaks[cli.ECC_STACK]
    assert peaks[40] < 3 * peaks[2]


def write_seeded_fcidump(path, M, N, seed, coupling=0.05):
    """A random real FCIDUMP whose one-body diagonal dominates, so that the
    aufbau determinant carries most of a gapped ground state; a larger
    off-diagonal one-body ``coupling`` weakens that dominance."""
    rng = np.random.default_rng([seed, M, N])
    pairs = [(i, j) for i in range(1, M + 1) for j in range(1, i + 1)]
    lines = [f"&FCI NORB={M},NELEC={N},MS2=0,", "&END"]
    for a, (i, j) in enumerate(pairs):
        lines += [f"{0.02 * rng.standard_normal():.16e} {i} {j} {k} {l}"
                  for k, l in pairs[:a + 1]]
    for i, j in pairs:
        val = 0.5 * (i - 1) - 1.0 if i == j else coupling * rng.standard_normal()
        lines.append(f"{val:.16e} {i} {j} 0 0")
    path.write_text("\n".join(lines) + "\n")


#: how far a task's peak estimate may exceed its traced peak: the estimate
#: holds LAPACK's workspace, which tracemalloc does not see, and the log's
#: Cayley path, which these sweeps do not take
PEAK_FACTOR = 4
#: (M, N, window, tasks) of the peak-model check: dims 70, 252 and 924
PEAK_SECTORS = [(8, 4, [1, 1], list(cli.TASKS)), (8, 4, [3, 3], list(cli.TASKS)),
                (10, 5, [2, 2], list(cli.TASKS)),
                (12, 6, [2, 2], ["fci", "cluster", "sweep", "ecc"])]
PEAK_PARAMS = {"propagate": {"nsteps": 4}, "ecc": {"n_configs": 2},
               "verify-all": {"propagate": {"nsteps": 4}, "ecc": {"n_configs": 2}}}


@pytest.mark.parametrize("M,N,window,task", [
    pytest.param(M, N, window, task, id=f"m{M}-{window[0]}{window[1]}-{task}")
    for M, N, window, tasks in PEAK_SECTORS for task in tasks])
def test_peak_estimate_bounds_the_traced_peak(tmp_path, M, N, window, task):
    write_seeded_fcidump(tmp_path / "FCIDUMP", M, N, seed=1)
    params = PEAK_PARAMS.get(task, {})
    cfg = cli.load_config(str(write_config(
        tmp_path, system={"kind": "fcidump", "path": "FCIDUMP"}, electrons=N,
        partition={"auto_homo_lumo": window}, tasks=[{"name": task, **params}])))
    ctx = cli.build_context(cfg, seed=1)
    estimate, _ = cli.peak_estimate([(task, params)], M, N, ctx.part)
    tracemalloc.start()
    try:
        cli.run_task(ctx, task, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate <= PEAK_FACTOR * peak


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


def test_generator_column_deviation_ties_the_generator_to_the_replay(tmp_path, monkeypatch):
    # the sweep task checks e^{sigma_ext}[:, cas] against the replayed
    # columns the downfolding reads: columns replayed without a rotation fail it
    path = write_config(tmp_path, tasks=[{"name": "sweep"}, {"name": "downfold"}])
    assert main(["run", str(path)]) == 0
    sweep, downfold = read_report(tmp_path)["tasks"]
    assert sweep["results"]["generator_column_deviation"] < 1e-13
    assert downfold["results"]["ducc_delta_e"] < 1e-13
    decompose_state = sweeps.decompose_state

    def dropped_rotation(psi, ref, part, basis):
        res = decompose_state(psi, ref, part, basis)
        record, _ = sweeps.sweep_external(psi, ref, part, basis)
        cas = ducclab.determinant_table(basis, ref).cas(part)
        cols = ducclab.downfold.unit_columns(basis.size, cas, res.cas_columns.dtype)
        res.cas_columns = sweeps.replay(record[1:], cols)
        return res
    monkeypatch.setattr(sweeps, "decompose_state", dropped_rotation)
    assert main(["run", str(path)]) == 1
    sweep, downfold = read_report(tmp_path)["tasks"]
    assert sweep["error"].startswith("DuccLabError: sweep: generator_column_deviation = ")
    assert downfold["error"].startswith("DuccLabError: downfold: ducc_delta_e = ")


def test_downfold_reports_an_unformed_lowest_order_estimate_as_null(tmp_path):
    # the lowest-order generator of this ground state has 1-norm 9.9e4,
    # beyond what exp_anti_hermitian accepts: the estimate is a null with
    # the reason, and the exact SES-CC and DUCC results stand
    write_seeded_fcidump(tmp_path / "FCIDUMP", 8, 4, seed=1, coupling=1.0)
    path = write_config(tmp_path, system={"kind": "fcidump", "path": "FCIDUMP"},
                        electrons=4, partition={"auto_homo_lumo": [1, 1]},
                        tasks=[{"name": "downfold"}])
    assert main(["run", str(path)]) == 0
    res = read_report(tmp_path)["tasks"][0]["results"]
    assert res["ducc_lowest_order_delta_e"] is None
    assert res["ducc_lowest_order_error"] == (
        "OperatorPropertyError: generator 1-norm 9.907e+04 exceeds 1e+03")
    assert res["ducc_delta_e"] < 1e-13 and res["sescc_delta_e"] < 1e-12


def test_downfold_reports_a_formed_lowest_order_estimate_alone(tmp_path):
    path = write_config(tmp_path, tasks=[{"name": "downfold"}])
    assert main(["run", str(path)]) == 0
    res = read_report(tmp_path)["tasks"][0]["results"]
    assert 0 < res["ducc_lowest_order_delta_e"] < 1.0
    assert "ducc_lowest_order_error" not in res


def test_quench_failure_names_its_grid_time(tmp_path, monkeypatch):
    # half-grid states 4 and 5 share the sweep batch of points 3-5 (width
    # 6 // 2 on the dimer); without their reference component the batch
    # fails, and the report names the first of them by its time
    propagate_full = dynamics.propagate_full

    def without_reference(H, psi0, dt, nsteps):
        states = propagate_full(H, psi0, dt, nsteps)
        states[[4, 5], np.argmax(np.abs(psi0))] = 0.0
        return states
    monkeypatch.setattr(dynamics, "propagate_full", without_reference)
    path = write_config(tmp_path, tasks=[{"name": "propagate", "dt": 0.02, "nsteps": 5}])
    assert main(["run", str(path)]) == 1
    error = read_report(tmp_path)["tasks"][0]["error"]
    assert error.startswith("IntermediateNormalizationError: grid time t_4 = 0.04: ")
    assert "zero reference overlap" in error


GROUND_PIPELINE = [{"name": n} for n in ("fci", "cluster", "sweep", "downfold", "imagtime")]


class TestGroundStagesOncePerRun:
    def test_work_budget(self, tmp_path, monkeypatch):
        calls = {"expm": 0}
        for module, name in ((sweeps, "decompose_state"), (cluster, "cluster_analyze"),
                             (downfold, "downfold_ducc"), (downfold, "ducc_projection")):
            count_calls(monkeypatch, module, name, calls)
        count_calls(monkeypatch, scipy.linalg, "expm", calls)
        assert main(["run", str(write_config(tmp_path, tasks=GROUND_PIPELINE))]) == 0
        # one DUCC Hamiltonian of the sweep's replayed columns, one of the
        # lowest-order generator, whose projection downfold_ducc makes
        assert calls == {"decompose_state": 1, "cluster_analyze": 1,
                         "downfold_ducc": 1, "ducc_projection": 2, "expm": 0}

    def test_cas_columns_replayed_once(self, tmp_path, monkeypatch):
        # the two replays of decompose_state (sigma_ext, whose CAS columns
        # sweep and downfold share, and the third sweep) and no other
        calls = {}
        count_calls(monkeypatch, sweeps, "replay", calls)
        tasks = [{"name": n} for n in ("fci", "sweep", "downfold")]
        assert main(["run", str(write_config(tmp_path, tasks=tasks))]) == 0
        assert calls == {"replay": 2}

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
        monkeypatch.setattr(sweeps, "decompose_state", broken)
        path = write_config(tmp_path, tasks=[{"name": "sweep"}, {"name": "downfold"}])
        assert main(["run", str(path)]) == 1
        assert [t["status"] for t in read_report(tmp_path)["tasks"]] == ["failed", "failed"]
        assert calls == {"decompose_state": 2}   # a stage that raised is not cached


def test_stationary_pipeline_solves_fci_in_real_arithmetic(tmp_path, monkeypatch):
    # dim 70, CAS dim 6: every eigh is real -- the FCI, the stacked block
    # eighs of logm_unitary on the two sweep unitaries (omega12 is one
    # (1, 70, 70) block) and the two DUCC Hamiltonians -- and no Cayley solve;
    # the amplitudes of the real ground state are real, and so are every
    # amplitude operator and matrix and the SES-CC Hamiltonian, whose eig is
    # the only one
    write_seeded_fcidump(tmp_path / "FCIDUMP", 8, 4, seed=5)
    path = write_config(tmp_path, system={"kind": "fcidump", "path": "FCIDUMP"},
                        electrons=4, partition={"auto_homo_lumo": [2, 2]},
                        tasks=GROUND_PIPELINE)
    calls, eigs, dtypes = {}, {}, []
    count_calls(monkeypatch, np.linalg, "eigh", calls,
                key=lambda a, *args, **kwargs: (a.dtype.kind, a.shape))
    count_calls(monkeypatch, np.linalg, "eig", eigs,
                key=lambda a, *args, **kwargs: (a.dtype.kind, a.shape))
    count_calls(monkeypatch, np.linalg, "solve", calls)
    init = ducclab.AmplitudeOperator.__init__

    def recorded(op, *args):
        init(op, *args)
        dtypes.append(op.dtype)
    monkeypatch.setattr(ducclab.AmplitudeOperator, "__init__", recorded)
    assert main(["run", str(path)]) == 0
    assert calls[("f", (70, 70))] == 1
    assert calls[("f", (1, 70, 70))] == 1
    assert calls[("f", (6, 6))] == 2
    assert "solve" not in calls
    assert [key for key in calls if key[0] != "f"] == []
    assert eigs == {("f", (6, 6)): 1}
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}
    sweep = read_report(tmp_path)["tasks"][2]["results"]
    assert sweep["delta"] in (0.0, np.pi)


@pytest.mark.parametrize("initial", ["reference", "noninteracting-ground"])
def test_quench_of_a_real_hamiltonian_solves_it_in_real_arithmetic(tmp_path, monkeypatch,
                                                                   initial):
    # the Hubbard dimer is real: the quench's full-space eigh, and that of
    # the free start, are real ones
    calls = {}
    count_calls(monkeypatch, np.linalg, "eigh", calls,
                key=lambda a, *args, **kwargs: (a.dtype.kind, a.shape))
    path = write_config(tmp_path, tasks=[{"name": "propagate", "nsteps": 4,
                                          "initial": initial}])
    assert main(["run", str(path)]) == 0
    assert calls == {("f", (6, 6)): 1 if initial == "reference" else 2}


class TestEccVectorChains:
    def test_work_budget(self, tmp_path, monkeypatch):
        # per configuration: one BCH check on its class blocks; no dense
        # amplitude matrix and no dense exponential
        calls, configs = {"expm": 0}, []
        count_calls(monkeypatch, ducclab.AmplitudeOperator, "toarray", calls)
        count_calls(monkeypatch, scipy.linalg, "expm", calls)
        bch = ecc.x_int_ext_bch

        def recorded(m, part):
            configs.append(m)
            return bch(m, part)
        monkeypatch.setattr(ecc, "x_int_ext_bch", recorded)
        path = write_config(tmp_path, tasks=[{"name": "ecc", "n_configs": 3}])
        assert main(["run", str(path)]) == 0
        assert calls == {"expm": 0}
        assert len(configs) == 3
        for m in configs:
            ops = [f.name for f in dataclasses.fields(m) if f.name != "basis"]
            assert all(isinstance(getattr(m, name), ducclab.AmplitudeOperator) for name in ops)
        assert read_report(tmp_path)["tasks"][0]["results"]["max_lh_deviation"] < 1e-12


#: every task, sized so that one run of all of them takes a fraction of a second
BATTERY_PARAMS = {"propagate": {"nsteps": 4}, "ecc": {"n_configs": 2}}
#: the error types a failed task may name
BATTERY_ERRORS = {"LinAlgError"} | {
    name for name, obj in vars(ducclab.errors).items()
    if isinstance(obj, type) and issubclass(obj, ducclab.DuccLabError)}


@settings(max_examples=24)
@given(system=st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 4)]),
       window=st.sampled_from([[1, 1], [2, 2], [1, 2]]),
       coupling=st.sampled_from([0.05, 0.3, 1.0, 3.0]), seed=st.integers(0, 3))
def test_randomized_battery(tmp_path_factory, system, window, coupling, seed):
    # random real FCIDUMPs through every task: the run exits 0 or 1, a failed
    # task names a package error or a LinAlgError and writes no file, and an
    # ok one keeps its bounds
    tmp_path = tmp_path_factory.mktemp("battery")
    M, N = system
    write_seeded_fcidump(tmp_path / "FCIDUMP", M, N, seed, coupling)
    tasks = [{"name": name, **BATTERY_PARAMS.get(name, {})}
             for name, entry in cli.TASKS.items() if entry.verify_all is not None]
    tasks.append({"name": "verify-all", **BATTERY_PARAMS})
    path = write_config(tmp_path, system={"kind": "fcidump", "path": "FCIDUMP"},
                        electrons=N, partition={"auto_homo_lumo": window}, tasks=tasks)
    code = main(["run", str(path)])
    reports = read_report(tmp_path)["tasks"]
    assert code == int(any(t["status"] != "ok" for t in reports))
    # the output directory holds the report and the files of the ok tasks alone
    written = {name for t in reports if t["status"] == "ok" for name in t["files"]}
    assert sorted(os.listdir(tmp_path / "out")) == sorted(written | {"report.json"})
    for task in reports:
        if task["status"] != "ok":
            assert task["error"].split(":")[0] in BATTERY_ERRORS, task["error"]
            continue
        nested = task["results"] if task["name"] == "verify-all" else {
            task["name"]: task["results"]}
        for name, results in nested.items():
            # verify-all's nested lagrangians and checks are no tasks
            bounds = cli.TASKS[name].bounds if name in cli.TASKS else {}
            for key, bound in bounds.items():
                assert results[key] <= bound, (name, key)


#: float values at the edges of the parameter domains and of the float range
EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, 1e-300, 1e-9, 0.02, 1.0, 700.0, 1e150,
               1e300, 1.7976931348623157e308, 0.0, -1.0, math.inf, math.nan]
#: a tol below the round-off of the flow's energy is never met: the flow runs
#: to its 100000-step cap (5 s on the dimer) and fails, too slow to draw here
SMALLEST_TOL = 1e-6
EDGE_INTS = {"nroots": [1, 6, 10**18, 0], "nsteps": [2, 3, 10**9, 1],
             "n_configs": [1, 2, 0]}


def _params(task: str):
    """Every parameter of ``task``, drawn at the edges of its domain."""
    if task == "verify-all":
        subs = [sub for sub, entry in cli.TASKS.items() if entry.params and entry.verify_all]
        return st.fixed_dictionaries({sub: _params(sub) for sub in subs})
    drawn = {}
    for key, (kind, _, _) in cli.TASKS[task].params.items():
        if key == "tol":
            drawn[key] = st.one_of(st.sampled_from([x for x in EDGE_FLOATS if not
                                                    0 < x < SMALLEST_TOL]),
                                   st.floats(min_value=SMALLEST_TOL))
        elif kind is float:
            drawn[key] = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
        elif kind is int:
            drawn[key] = st.sampled_from(EDGE_INTS[key])
        else:
            drawn[key] = st.sampled_from(cli.INITIAL_STATES)
    return st.fixed_dictionaries(drawn)


def _numbers(obj) -> list:
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for value in obj for x in _numbers(value)]
    return [obj] if isinstance(obj, int | float) else []


@pytest.mark.parametrize("task", list(cli.TASKS))
# the command line runs without the suite's RuntimeWarning filter, and these
# edges overflow on purpose: the run must turn every overflow into a result
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40)
@given(data=st.data(), window=st.sampled_from([[1, 1], [2, 2]]))
def test_extreme_task_parameters_exit_cleanly(tmp_path_factory, task, data, window):
    # any parameter of the task on the dimer: exit 0, 1 or 2 and no escaped
    # exception, validate refusing exactly the configs that run refuses; a
    # report that parses strictly, every ok number finite
    tmp_path = tmp_path_factory.mktemp("edges")
    params = data.draw(_params(task))
    path = write_config(tmp_path, partition={"auto_homo_lumo": window},
                        tasks=[{"name": task, **params}])
    checked = main(["validate", str(path)])
    code = main(["run", str(path)])
    assert code in (0, 1, 2)
    assert checked == (2 if code == 2 else 0)
    if code == 2:
        assert not (tmp_path / "out").exists()
        return
    (entry,) = read_report(tmp_path)["tasks"]
    assert code == int(entry["status"] != "ok")
    if entry["status"] == "ok":
        assert all(math.isfinite(x) for x in _numbers(entry["results"])), entry
