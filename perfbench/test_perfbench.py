"""The benchmark's own test.  Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    out = result(bench("--workload", "smoke", "--seed", "0", "--seconds", "1",
                       "--trace", trace))
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "ecc-m10", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_fcidump_is_a_function_of_the_seed(tmp_path):
    a, b, c = (str(tmp_path / n) for n in "abc")
    inputs.write_fcidump(a, 6, 2, seed=7)
    inputs.write_fcidump(b, 6, 2, seed=7)
    inputs.write_fcidump(c, 6, 2, seed=8)
    text = open(a).read()
    assert text == open(b).read() != open(c).read()
    npairs = 6 * 7 // 2
    data = text.splitlines()[4:]
    assert len(data) == npairs * (npairs + 1) // 2 + npairs + 1
    assert "NORB=6,NELEC=2" in text


def test_checks_flag_a_value_past_its_bound(tmp_path):
    report = {"tasks": [{"name": "ecc", "status": "ok", "results": {
        "max_ldt_deviation": 2e-10, "max_lh_deviation": 0.0,
        "max_action_deviation": 0.0, "max_bch_deviation": 0.0}}]}
    assert checks.check_report(report, str(tmp_path)) == [
        "ecc.max_ldt_deviation = 2e-10 not < 1e-10"]
    report["tasks"][0]["status"] = "failed"
    assert checks.check_report(report, str(tmp_path))[0].startswith("ecc: failed")
