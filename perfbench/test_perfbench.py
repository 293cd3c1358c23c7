"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pace
import run
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "B", "flop"}


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    name = request.param
    return name, bench(name, 0), bench(name, 1), bench(name, 1)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(runs, trace, section):
    name, plain, traced, _ = runs
    proc = traced if trace else plain
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    lines = proc.stdout.splitlines()
    for metric in SPEC[section]:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} ") and f" {metric['unit']}" in line
                   for line in lines), f"{name}: {metric['name']} not printed"
    assert set(res["metrics"]) == {m["name"] for m in SPEC[section]}
    assert any(line.startswith("fail_ratio 0 1") for line in lines)
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "commit", "seed", "sizes"):
        assert key in env
    assert env["blas_threads"] <= env["nproc"]


def test_end_to_end_metrics_are_never_zero(runs):
    _, plain, _, _ = runs
    assert all(m["value"] > 0 for m in result(plain)["metrics"].values())


def test_counts_repeat_exactly(runs):
    name, _, first, second = runs
    counts = [
        {k: v["value"] for k, v in result(proc)["metrics"].items() if v["unit"] in COUNT_UNITS}
        for proc in (first, second)
    ]
    assert counts[0] == counts[1], name
    assert counts[0]["cli.main.calls"] == worker.COUNT_JOBS


def _flip_s_hat(text: str) -> str:
    record = json.loads(text)
    s_hat = record["results"]["s_hat"]
    record["results"]["s_hat"] = ("1" if s_hat[0] == "0" else "0") + s_hat[1:]
    return json.dumps(record)


def test_corrupted_output_counts_as_failed():
    sys.path.insert(0, str(ROOT / "src"))
    import dqc1lpn.cli as cli

    execute = worker.make_executor(cli)
    workload = workloads.LearnDense(tiny=True)
    clean = worker.timed_loop(workload, 3, 0.0, execute)
    assert clean.failed == 0 and len(clean.times) == worker.MIN_JOBS
    assert len(clean.refs) == len(clean.times) + 1

    def corrupted(argv):
        rc, out, seconds = execute(argv)
        return rc, _flip_s_hat(out), seconds

    tally = worker.timed_loop(workload, 3, 0.0, corrupted)
    assert tally.failed == len(tally.times) == worker.MIN_JOBS
    assert tally.ops == 0
    assert "s_hat" in tally.reasons[0]


def test_times_are_scaled_by_the_readings_around_them():
    nominal = pace.NOMINAL_S
    raw = {"times": [1.0, 3.0], "refs": [nominal, nominal, 2.0 * nominal]}
    assert run.calibrated(raw) == pytest.approx([1.0, 2.0])
    assert pace.scale(0.5, nominal, nominal) == pytest.approx(0.5)
    assert pace.reference() > 0.0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("learn-closed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_agree_with_the_package_formulas():
    """The checks' own tau must match the package at inputs where both apply."""
    sys.path.insert(0, str(ROOT / "src"))
    from dqc1lpn import lpn

    for s, theta in (("0110", 1.1), ("10011", 2.0), ("000", 0.7)):
        bits = [int(c) for c in s]
        taus = workloads.learner_taus(s, theta)
        for j in range(1, len(s) + 1):
            want = lpn.closed_form_tau(bits, theta, j, decoupled=range(1, j))
            assert abs(taus[j - 1] - want) < 1e-12
