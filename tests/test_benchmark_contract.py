"""The benchmark in perfbench/ still runs on this code and reports every metric.

perfbench/run.py prints its JSON result only when every worker succeeds, so a
renamed or deleted function that perfbench/worker.py wraps, a finest loop with
too few timed steps, or a crash in a workload leaves no result line at all.
These checks run the benchmark's own scripts as they are (≈15 s).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(PERFBENCH / script), *args], cwd=ROOT,
        env=dict(os.environ, **THREADS), capture_output=True, text=True,
        timeout=300)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _assert_traced_run_reports_every_layer(workload):
    proc = _run("run.py", "--workload", workload, "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, lines
    assert not [line for line in lines if "absent:" in line]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - set(result["metrics"])
    assert not missing


def test_energy_decay_traced_run_reports_every_layer():
    _assert_traced_run_reports_every_layer("energy-decay")


def test_mms_ladder_traced_run_reports_every_layer():
    # the convective path: its hooks see the stepper's convection solves,
    # which energy-decay (convection off) never makes
    _assert_traced_run_reports_every_layer("mms-ladder")


def test_mms_ladder_run_prints_its_result_last():
    # the line the benchmark reads is the last of stdout: nothing that fpsi
    # prints may follow it
    proc = _run("run.py", "--workload", "mms-ladder", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, lines


def test_mms_ladder_worker_times_the_finest_loop(tmp_path):
    proc = _run("worker.py", "--workload", "mms-ladder", "--seed", "0",
                "--trace", "0", "--work", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["error"] is None, result["error"]
    assert result["step_tail_s"] is not None
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert workloads.check("mms-ladder", result["outputs"],
                           reference["mms-ladder"], 0) == []


def test_mms_ladder_setup_probe_exits_cleanly(tmp_path):
    proc = _run("worker.py", "--workload", "mms-ladder", "--seed", "0",
                "--probe-loops", "5", "--work", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
