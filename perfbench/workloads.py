"""The fixed workloads, what each one outputs, and the output checks.

Each workload is one ``fpsi`` subcommand with a fixed configuration file.
Why each one was chosen is written down in README.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

# Seed whose energy trace is stored in reference.json; any other seed is
# checked by invariants only.
STORED_SEED = 0

# Relative agreement required against the references recorded from the seed
# commit.  Values only available as printed (6 significant digits) are
# compared at the printed precision instead.
RTOL = 1e-8
RTOL_PRINTED = 1e-6

SOLVER_TOLERANCE = 1e-9  # the solver.tolerance default, not overridden below

LADDER_CONFIG = """\
# The reference manufactured-solution ladder: every default applies.
mode = manufactured
levels = 2,4,8,16,32
"""

ENERGY_CONFIG = """\
# Zero-forcing decay from a random state, reference tau, constant operator.
mode = general
mesh.kind = structured
mesh.nx = 24
mesh.ny = 24
solver.convection = off
run.inflow = none
energy.steps = 50
run.seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    steps: int   # time steps of one execution (one operation each)
    loops: int   # time loops of one execution, each with its own set-up


WORKLOADS = {
    "mms-ladder": Workload("convergence", LADDER_CONFIG, 2 + 4 + 8 + 16 + 32, 5),
    "energy-decay": Workload("energy-check", ENERGY_CONFIG, 50, 1),
}


def config_text(name, seed):
    return WORKLOADS[name].config.format(seed=seed)


# --- outputs -----------------------------------------------------------------


def extract(name, out_dir, stdout, exit_code, captured, steps):
    """Everything the checks look at, as plain JSON-ready values.

    ``captured`` holds values taken from return values inside the process at
    full precision; a key is missing when the function it came from is.
    ``steps`` are the step records ``(loop, start, end, ok, residual)``.
    """
    out = {"exit_code": exit_code}
    if name == "mms-ladder":
        if "errors" in captured:
            out["errors"], out["errors_rtol"] = captured["errors"], RTOL
        else:
            out["errors"], out["errors_rtol"] = _csv_errors(out_dir), RTOL_PRINTED
    else:
        path = os.path.join(out_dir, "energy.csv")
        trace = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                trace = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
        out["energy"] = trace
        out["max_residual"] = max((s[4] for s in steps if s[3]), default=None)
        out["verdict"] = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return out


def _csv_errors(out_dir):
    path = os.path.join(out_dir, "convergence.csv")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    cols = [(i, h[2:]) for i, h in enumerate(header) if h.startswith("e_")]
    return [{name: float(row[i]) for i, name in cols} for row in rows]


# --- checks ------------------------------------------------------------------


def _close(a, b, rtol):
    if a is None or b is None or not math.isfinite(a):
        return False
    return abs(a - b) <= rtol * abs(b)


def check(name, outputs, reference, seed):
    """List of failed checks (empty when the outputs are correct)."""
    problems = []
    code = outputs["exit_code"]
    if name == "mms-ladder":
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        ref, got = reference["errors"], outputs["errors"]
        rtol = outputs["errors_rtol"]
        if len(got) != len(ref):
            problems.append(f"{len(got)} error rows, expected {len(ref)}")
        for level, (row, ref_row) in enumerate(zip(got, ref)):
            for field, value in ref_row.items():
                if not _close(row.get(field), value, rtol):
                    problems.append(f"level {level} error {field}: "
                                    f"{row.get(field)} vs {value}")
    else:
        if code not in (0, 1):
            problems.append(f"exit code {code}, expected a verdict (0 or 1)")
        trace = outputs["energy"]
        if len(trace) != WORKLOADS[name].steps + 1:
            problems.append(f"{len(trace)} energy values, expected "
                            f"{WORKLOADS[name].steps + 1}")
        if not all(math.isfinite(e) for e in trace):
            problems.append("non-finite energy")
        res = outputs["max_residual"]
        if res is None or not res <= SOLVER_TOLERANCE:
            problems.append(f"step residual {res} above {SOLVER_TOLERANCE}")
        if seed == STORED_SEED and not all(
                _close(a, b, RTOL) for a, b in zip(trace, reference["energy"])):
            problems.append("energy trace differs from the stored seed's")
    return problems
