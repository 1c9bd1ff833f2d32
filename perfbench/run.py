"""Benchmark of fpsi: fixed workloads through the public entry point.

    python3 perfbench/run.py --workload mms-ladder --seed 0 --seconds 40 --trace 0

Each execution of a workload runs ``fpsi.cli.main`` in a fresh process, one
at a time (a closed loop with one caller), with BLAS/OpenMP threads pinned to
one.  Executions repeat while that brings the time they take nearer to
``--seconds``, at least one.  Before them, set-up probes measure set-up alone
a few more times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced execution and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it give every metric
with its unit, the output checks and the environment.  Full records, spans
included, are written under ``.perfbench/results``.

``--record-reference`` runs each workload once and rewrites reference.json,
the outputs the checks compare against.  Do so only at a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
STATE = ROOT / ".perfbench"

DEADLINE_S = 170.0
SETUP_PROBES = 5
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "step_p50_s": "s",
                    "step_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


class Runner:
    """Starts workers one at a time and keeps every run inside the deadline."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self._ids = itertools.count()

    def __call__(self, trace=0, probe_loops=0):
        """One worker process; returns (result, seconds it took)."""
        work = self.work / str(next(self._ids))
        work.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--probe-loops", str(probe_loops),
               "--work", str(work)]
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=dict(os.environ, **PINNED_THREADS),
                stdout=subprocess.DEVNULL,
                timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError("a worker ran past the benchmark's deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
        shutil.rmtree(work)
        return result, time.monotonic() - started

    def time_left(self):
        return self.deadline - time.monotonic()


def measure(runner, seconds, trace, loops):
    """Probes, untraced executions and (with ``trace``) one traced execution."""
    if trace:
        return [], [runner()[0]], runner(trace=1)[0]
    probes = [runner(probe_loops=loops)[0] for _ in range(SETUP_PROBES)]
    executions, elapsed, took = [], 0.0, 0.0
    while not executions or (metrics.another_execution(elapsed, took, seconds)
                             and took < runner.time_left() - 10):
        result, took = runner()
        executions.append(result)
        elapsed += took
    return probes, executions, None


def end_to_end(probes, executions):
    """Medians over executions; set-up also counts the probes' set-ups."""
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        runs = probes + executions if name == "setup_s" else executions
        out[name] = {"value": statistics.median(r[name] for r in runs), "unit": unit}
    return out


def environment(worker_env, seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, **worker_env, "git_commit": commit,
            "workload_seed": seed}


def report(args, probes, executions, traced, reference):
    wl = workloads.WORKLOADS[args.workload]
    everything = executions + ([traced] if traced else [])
    problems = [workloads.check(args.workload, ex["outputs"], reference, args.seed)
                for ex in everything]
    failed, attempted = metrics.failed_fraction(
        [(wl.steps, ex["ok_steps"], not p) for ex, p in zip(everything, problems)])
    for ex in executions:
        if ex["step_tail_s"] is None:
            raise BenchError("an execution has too few finest-loop step times; "
                             f"exit code {ex['exit_code']}, error: {ex['error']}")

    e2e = end_to_end(probes, executions)
    first = executions[0]
    lines = [f"workload {args.workload}, seed {args.seed}: {len(executions)} "
             f"execution(s), {len(probes)} set-up probe(s), one caller"]
    notes = {
        "wall_s": f"median of {len(executions)} execution(s)",
        "setup_s": f"median of {len(probes) + len(executions)} set-ups",
        "step_p50_s": f"median step of the finest loop, "
                      f"{first['step_samples']} samples per execution",
        "step_tail_s": f"p{first['step_tail_pct']:.2f} of "
                       f"{first['step_samples']} finest-loop steps, "
                       f"{metrics.TAIL_MIN_BEYOND} beyond it",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, m in e2e.items():
        lines.append(f"  {name:<12} {m['value']:.6g} {m['unit']:<3} {notes[name]}")
    lines.append(f"  {'failed_frac':<12} {failed}/{attempted} steps")
    if args.workload == "energy-decay":
        lines.append(f"  cli exit code {first['exit_code']}: "
                     f"{first['outputs']['verdict']}")
    bad = [f"execution {i}: {msg}" for i, p in enumerate(problems) for msg in p]
    lines.append("  checks: " + ("ok" if not bad else "; ".join(bad)))

    if traced:
        layer = dict(traced["layers"])
        layer["trace_overhead_s"] = {
            "value": traced["wall_s"] - first["wall_s"], "unit": "s"}
        for miss in traced["missing_hooks"]:
            lines.append(f"  absent: {miss['hook']} is missing, so " + (
                f"the metrics of span {miss['span']} are not reported"
                if miss["span"] else "outputs are checked at printed precision"))
        for name, m in layer.items():
            lines.append(f"  {name:<26} {m['value']:.6g} {m['unit']}")
        shown = layer
    else:
        shown = e2e

    env = environment(first["environment"], args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": shown, "problems": problems,
              "failed": failed, "attempted": attempted,
              "probes": probes, "executions": executions, "traced": traced}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record))

    print("\n".join(lines))
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": shown}))


def record_reference(work):
    reference = {}
    for name in workloads.WORKLOADS:
        runner = Runner(name, workloads.STORED_SEED, work / name)
        result, _ = runner()
        outputs = result["outputs"]
        if outputs["exit_code"] is None:
            raise BenchError(f"{name} crashed: {result['error']}")
        reference[name] = outputs
        print(f"{name}: exit code {outputs['exit_code']}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.STORED_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (args.workload or args.record_reference):
        ap.error("--workload is required")
    # Turn SIGTERM into an exception, so that a running worker is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fpsi" / "cli.py").is_file():
        print(f"no fpsi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = STATE / f"work-{os.getpid()}"
    try:
        if args.record_reference:
            record_reference(work)
            return 0
        reference = json.loads(REFERENCE.read_text())[args.workload]
        runner = Runner(args.workload, args.seed, work)
        wl = workloads.WORKLOADS[args.workload]
        probes, executions, traced = measure(runner, args.seconds, args.trace,
                                             wl.loops)
        report(args, probes, executions, traced, reference)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
