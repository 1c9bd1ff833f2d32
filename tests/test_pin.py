"""Pin of the discrete solution against a reference stored in tests/data.

Three outputs are compared with ``data/pin_reference.json``: the nx = 2, 4, 8
manufactured ladder errors (rtol 1e-10), the nx=4 seed-0 ``energy-check``
trace (rtol 1e-10), and the vertex values of one small channel ``fpsi run``
(rtol 1e-12, with an absolute floor of 1e-12 of each field's largest value
for entries near zero).  A refactor that is meant to keep the solution must
keep this test green.

    python tests/test_pin.py     # rewrite the reference from this checkout

Rewrite it only at a commit whose outputs are known to be right.
"""

import json
import os
import sys

import numpy as np

from fpsi import cli, forms, verification

from _helpers import REFERENCE_PARAMS

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "pin_reference.json")

LADDER = [(2, 2), (4, 4), (8, 8)]

ENERGY_CONFIG = """\
mode = general
mesh.kind = structured
mesh.nx = 4
mesh.ny = 4
solver.convection = off
run.inflow = none
run.seed = 0
"""

CHANNEL_STEPS = 3
CHANNEL_CONFIG = f"""\
mode = general
mesh.kind = channel
mesh.nx = 10
mesh.ny = 14
time.tau = 0.001
time.final = {CHANNEL_STEPS * 0.001}
physics.mu_f = 0.01
physics.mu_p = 1033.6
physics.lambda_p = 49364.0
physics.phi = 0.3
physics.kappa = 0.001
physics.K = 1e6
nitsche.gamma = 30
output.dump_every = {CHANNEL_STEPS}
"""


def ladder_errors():
    params = forms.PhysicalParams(**REFERENCE_PARAMS)
    table = verification.convergence_study(LADDER, params, forms.NitscheParams())
    return [row["errors"] for row in table.rows]


def energy_trace(work):
    cfg = os.path.join(work, "energy.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(ENERGY_CONFIG)
    out = os.path.join(work, "energy")
    code = cli.main(["energy-check", "--config", cfg, "--out", out])
    with open(os.path.join(out, "energy.csv"), encoding="utf-8") as fh:
        trace = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
    return code, trace


def _read_vtk_point_data(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("POINT_DATA"))
    count = int(lines[start].split()[1])
    fields, i = {}, start + 1
    while i < len(lines):
        kind, name = lines[i].split()[:2]
        if kind == "SCALARS":
            rows = lines[i + 2:i + 2 + count]  # after the LOOKUP_TABLE line
            fields[name] = [float(v) for v in rows]
            i += 2 + count
        else:
            rows = lines[i + 1:i + 1 + count]
            fields[name] = [[float(v) for v in row.split()[:2]] for row in rows]
            i += 1 + count
    return fields


def channel_vertex_values(work):
    cfg = os.path.join(work, "channel.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CHANNEL_CONFIG)
    out = os.path.join(work, "channel")
    code = cli.main(["run", "--config", cfg, "--out", out])
    return code, _read_vtk_point_data(
        os.path.join(out, f"fields_{CHANNEL_STEPS:05d}.vtk"))


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def test_pin_ladder_errors():
    ref = _load_reference()["ladder_errors"]
    got = ladder_errors()
    assert len(got) == len(ref)
    for level, (row, ref_row) in enumerate(zip(got, ref)):
        assert set(row) == set(ref_row)
        for name, value in ref_row.items():
            assert abs(row[name] - value) <= 1e-10 * abs(value), (level, name)


def test_pin_energy_trace(tmp_path):
    ref = _load_reference()["energy"]
    code, trace = energy_trace(str(tmp_path))
    assert code == ref["exit_code"]
    np.testing.assert_allclose(trace, ref["trace"], rtol=1e-10, atol=0.0)


def test_pin_channel_vertex_values(tmp_path):
    ref = _load_reference()["channel"]
    code, fields = channel_vertex_values(str(tmp_path))
    assert code == ref["exit_code"] == cli.EXIT_OK
    assert set(fields) == set(ref["fields"])
    for name, want in ref["fields"].items():
        want = np.asarray(want)
        floor = 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(fields[name], want, rtol=1e-12, atol=floor,
                                   err_msg=name)


def record(work):
    energy_code, trace = energy_trace(work)
    channel_code, fields = channel_vertex_values(work)
    reference = {
        "ladder_errors": ladder_errors(),
        "energy": {"exit_code": energy_code, "trace": trace},
        "channel": {"exit_code": channel_code, "fields": fields},
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
        fh.write("\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as work:
        record(work)
    print(f"wrote {REFERENCE}", file=sys.stderr)
