import dataclasses
import os
import re

import numpy as np
import pytest

from fpsi import cli, forms
from fpsi.cli import ConfigError, main, parse_config, write_vtk

from _helpers import REFERENCE_PARAMS


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_gives_reference_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, ""))
    assert cfg["mode"] == "manufactured"
    p = cfg.physics
    assert p.lam_p == p.mu_p == p.mu_f == 10.0
    assert p.alpha_bjs == 1.0 and p.phi == 0.1
    assert cfg["physics.kappa"] == 1.0 and p.rho_f == 1.0 and p.K == 1.0
    assert p.theta == 0.0
    assert cfg.nitsche.gamma == 40.0 and cfg.nitsche.varsigma == 1
    assert abs(p.rho_p - 1.0) < 1e-15


def test_empty_config_is_the_reference_set(tmp_path):
    # the defaults of forms.PhysicalParams, which are the physics rows of
    # cli.KEYS, and the tests' REFERENCE_PARAMS hold one parameter set twice;
    # this keeps the two copies from drifting apart
    got = parse_config(write_config(tmp_path, "")).physics
    want = forms.PhysicalParams(**REFERENCE_PARAMS)
    for f in dataclasses.fields(forms.PhysicalParams):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "nope.cfg"))


def test_negative_gamma_rejected(tmp_path):
    path = write_config(tmp_path, "nitsche.gamma = -1\n")
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(path)


def test_phi_bound_violation_names_constraint(tmp_path):
    path = write_config(tmp_path, "physics.phi = 0.9\n")
    with pytest.raises(ConfigError, match=r"rho_s/\(rho_s\+rho_f\)"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    for key in ("physics.viscosity", "energy.amplitude"):
        path = write_config(tmp_path, f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
            parse_config(path)


def test_type_mismatch_names_key(tmp_path):
    path = write_config(tmp_path, "time.tau = soon\n")
    with pytest.raises(ConfigError, match="time.tau"):
        parse_config(path)


def test_comments_and_sections(tmp_path):
    path = write_config(tmp_path, """
# reference setup, coarse
mode = manufactured
mesh.nx = 4   # parsing strips trailing comments
mesh.ny = 4
time.tau = 0.00025
nitsche.varsigma = -1
""")
    cfg = parse_config(path)
    assert cfg["mesh.nx"] == cfg["mesh.ny"] == 4
    assert cfg.nitsche.varsigma == -1


def test_repeated_key_rejected(tmp_path):
    path = write_config(tmp_path, "physics.mu_f = 1\n# again\nphysics.mu_f = 10\n")
    with pytest.raises(ConfigError, match=r"run.cfg:3: key 'physics.mu_f' is "
                                          r"given twice, first on line 1"):
        parse_config(path)


def test_kappa_matrix_form(tmp_path):
    path = write_config(tmp_path, "physics.kappa = 2 0 0 3\n")
    cfg = parse_config(path)
    assert np.allclose(cfg.physics.kappa, [[2.0, 0.0], [0.0, 3.0]])
    bad = write_config(tmp_path, "physics.kappa = 1 2\n", name="bad.cfg")
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(bad)


def test_incompatible_time_grid_rejected(tmp_path):
    path = write_config(tmp_path, "time.tau = 0.0003\n")
    with pytest.raises(ConfigError, match="time"):
        parse_config(path)


FREE_TEXT_KEYS = {"mesh.path", "output.dir"}


@pytest.mark.parametrize("key", [k for k in cli.KEYS if k not in FREE_TEXT_KEYS])
def test_unparseable_value_names_its_key(tmp_path, capsys, key):
    path = write_config(tmp_path, f"{key} = ?\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        parse_config(path)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")


def test_only_paths_are_free_text():
    # every other key has a value that does not parse
    assert {k for k, (_, parse) in cli.KEYS.items() if parse is cli._text} == FREE_TEXT_KEYS


def test_every_default_written_out_is_the_empty_config(tmp_path):
    text = "".join(f"{key} = {default}\n" for key, (default, _) in cli.KEYS.items())
    full = parse_config(write_config(tmp_path, text))
    empty = parse_config(write_config(tmp_path, "", name="empty.cfg"))
    assert full.values == empty.values and full.tag_map == empty.tag_map == {}
    for f in dataclasses.fields(forms.PhysicalParams):
        assert np.array_equal(getattr(full.physics, f.name),
                              getattr(empty.physics, f.name)), f.name
    assert full.nitsche == empty.nitsche and full.grid == empty.grid


def test_readme_lists_the_keys_with_their_defaults():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    listed = [tuple(part.strip() for part in line.split("#", 1)[0].split("=", 1))
              for line in block.splitlines() if not line.startswith("#")]
    assert listed == [(key, default) for key, (default, _) in cli.KEYS.items()]


def test_byte_order_mark_is_skipped(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfmode = general\n")
    assert parse_config(str(cfg))["mode"] == "general"
    with open(GOLDEN_MSH, "rb") as fh:
        mesh = tmp_path / "bom.msh"
        mesh.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert parse_config(write_config(tmp_path, _msh_config(mesh))).build_mesh().num_cells == 8


def test_overflowing_load_is_a_solver_failure(tmp_path, capsys):
    # kappa^-1 = 1e300 overflows the load's norm; the run once passed the
    # residual check and printed a final energy of 7e24
    path = write_config(tmp_path, "mode = general\nmesh.nx = 4\nmesh.ny = 4\n"
                                  "physics.kappa = 1e-300\ntime.final = 0.00025\n")
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "step 1 (t=" in err and "physics.kappa" in err


# --- VTK ------------------------------------------------------------------------

def _tiny_state(mesh):
    spaces = forms.build_spaces(mesh)
    state = forms.StateVector.zero(spaces, time=0.25)
    for block in state.blocks:
        block.values[:] = np.arange(block.space.ndofs, dtype=float)
    return spaces, state


def _read_vtk(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    npoints = int(lines[4].split()[1])
    i = 5 + npoints
    ncells = int(lines[i].split()[1])
    cells = [tuple(map(int, ln.split()[1:])) for ln in lines[i + 1:i + 1 + ncells]]
    i += 1 + ncells
    assert lines[i].startswith("CELL_TYPES")
    types = lines[i + 1:i + 1 + ncells]
    i += 1 + ncells
    assert lines[i] == f"POINT_DATA {npoints}"
    fields = {}
    i += 1
    while i < len(lines):
        head = lines[i].split()
        if head[0] == "SCALARS":
            fields[head[1]] = np.array(
                [float(v) for v in lines[i + 2:i + 2 + npoints]])
            i += 2 + npoints
        elif head[0] == "VECTORS":
            fields[head[1]] = np.array(
                [[float(tok) for tok in ln.split()]
                 for ln in lines[i + 1:i + 1 + npoints]])
            i += 1 + npoints
        else:
            raise AssertionError(f"unexpected line {lines[i]!r}")
    return npoints, cells, types, fields


def test_write_vtk_structure(tmp_path, mesh22):
    spaces, state = _tiny_state(mesh22)
    path = str(tmp_path / "out.vtk")
    write_vtk(mesh22, state, path)
    npoints, cells, types, fields = _read_vtk(path)
    assert npoints == 9
    assert len(cells) == 8
    assert all(t == "5" for t in types)
    assert set(fields) == set(forms.BLOCK_NAMES)
    assert fields["u_f"].shape == (9, 3)
    assert np.all(fields["u_f"][:, 2] == 0.0)


def test_write_vtk_zero_fields(tmp_path, mesh22):
    spaces = forms.build_spaces(mesh22)
    state = forms.StateVector.zero(spaces)
    path = str(tmp_path / "zero.vtk")
    write_vtk(mesh22, state, path)
    _, _, _, fields = _read_vtk(path)
    for arr in fields.values():
        assert np.all(arr == 0.0)


def test_write_vtk_deterministic(tmp_path, mesh22):
    spaces, state = _tiny_state(mesh22)
    p1, p2 = str(tmp_path / "a.vtk"), str(tmp_path / "b.vtk")
    write_vtk(mesh22, state, p1)
    write_vtk(mesh22, state, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_vertex_sampling_matches_coefficients(tmp_path, mesh22):
    spaces, state = _tiny_state(mesh22)
    path = str(tmp_path / "sampled.vtk")
    write_vtk(mesh22, state, path)
    _, _, _, fields = _read_vtk(path)
    space = spaces.p_S
    vals = fields["p_S"]
    verts = space.mesh_nodes[:space.num_vertex_nodes]
    for local, vertex in enumerate(verts):
        assert vals[vertex] == state.block("p_S").values[local]
    outside = np.setdiff1d(np.arange(mesh22.num_vertices), verts)
    assert np.all(vals[outside] == 0.0)


# --- commands ---------------------------------------------------------------------

def test_main_bad_config_exit_code(tmp_path):
    path = write_config(tmp_path, "nitsche.gamma = -5\n")
    assert main(["convergence", "--config", path]) == cli.EXIT_CONFIG


def test_energy_check_preconditions(tmp_path):
    path = write_config(tmp_path, "run.inflow = parabolic\n"
                                  "solver.convection = off\n")
    assert main(["energy-check", "--config", path,
                 "--out", str(tmp_path / "o1")]) == cli.EXIT_CONFIG
    path = write_config(tmp_path, "run.inflow = none\n"
                                  "solver.convection = on\n", name="c2.cfg")
    assert main(["energy-check", "--config", path,
                 "--out", str(tmp_path / "o2")]) == cli.EXIT_CONFIG


def test_energy_check_single_step_monotone(tmp_path):
    path = write_config(tmp_path, """
mode = general
mesh.nx = 2
mesh.ny = 2
run.inflow = none
solver.convection = off
time.tau = 0.01
time.final = 0.01
energy.steps = 1
""")
    out = str(tmp_path / "energy")
    assert main(["energy-check", "--config", path, "--out", out]) == cli.EXIT_OK
    lines = open(os.path.join(out, "energy.csv")).read().splitlines()
    assert lines[0] == "step,energy"
    assert len(lines) == 3


def test_energy_check_without_steps(tmp_path):
    # a zero-step grid: the initial energy alone, and nothing to judge
    path = write_config(tmp_path, "mode = general\nmesh.nx = 2\nmesh.ny = 2\n"
                                  "run.inflow = none\nsolver.convection = off\n"
                                  "energy.steps = 0\n")
    out = str(tmp_path / "energy")
    assert main(["energy-check", "--config", path, "--out", out]) == cli.EXIT_OK
    lines = open(os.path.join(out, "energy.csv")).read().splitlines()
    assert lines[0] == "step,energy"
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_run_manufactured_prints_errors(tmp_path, capsys):
    # the final-time L2 error of every field, on the line after the energy;
    # general mode has no exact solution and prints no such line
    path = write_config(tmp_path, "mode = manufactured\nmesh.nx = 2\n"
                                  "mesh.ny = 2\ntime.tau = 0.0005\n")
    assert main(["run", "--config", path, "--out", str(tmp_path / "m")]) == 0
    lines = capsys.readouterr().out.splitlines()
    energy = next(i for i, line in enumerate(lines)
                  if line.startswith("final energy"))
    errors = lines[energy + 1]
    assert errors.startswith("final-time L2 errors ")
    values = dict(item.split() for item in
                  errors[len("final-time L2 errors "):].split(", "))
    assert list(values) == ["u_f", "p_S", "u_r", "p_P", "y_s", "u_s"]
    assert all(0.0 < float(v) < np.inf for v in values.values())
    general = write_config(tmp_path, "mode = general\nmesh.nx = 2\n"
                                     "mesh.ny = 2\nrun.inflow = none\n"
                                     "time.tau = 0.0005\n", name="g.cfg")
    assert main(["run", "--config", general, "--out", str(tmp_path / "g")]) == 0
    assert "errors" not in capsys.readouterr().out


def test_run_channel_dumps(tmp_path):
    path = write_config(tmp_path, """
mode = general
mesh.kind = channel
mesh.nx = 10
mesh.ny = 14
time.tau = 0.001
time.final = 0.003
physics.mu_f = 0.01
physics.mu_p = 1033.6
physics.lambda_p = 49364.0
physics.phi = 0.3
physics.kappa = 0.001
physics.K = 1e6
nitsche.gamma = 30
output.dump_every = 1
""")
    out = str(tmp_path / "channel")
    assert main(["run", "--config", path, "--out", out]) == cli.EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["fields_00001.vtk", "fields_00002.vtk", "fields_00003.vtk"]


def test_run_dump_cadence_zero(tmp_path):
    path = write_config(tmp_path, """
mode = general
mesh.kind = channel
mesh.nx = 10
mesh.ny = 14
time.tau = 0.001
time.final = 0.001
physics.mu_f = 0.01
physics.phi = 0.3
output.dump_every = 0
""")
    out = str(tmp_path / "nodump")
    assert main(["run", "--config", path, "--out", out]) == cli.EXIT_OK
    assert os.listdir(out) == []


def test_run_unwritable_output(tmp_path):
    path = write_config(tmp_path, "mode = general\nmesh.kind = channel\n"
                                  "mesh.nx = 10\nmesh.ny = 14\n")
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    assert main(["run", "--config", path,
                 "--out", str(blocked)]) == cli.EXIT_CONFIG


def test_convergence_degraded_penalty_fails(tmp_path):
    # gamma far below the coercivity threshold: degraded rates or a solver
    # failure, either way a nonzero exit
    path = write_config(tmp_path, """
levels = 2,4
nitsche.gamma = 0.01
""")
    out = str(tmp_path / "degraded")
    code = main(["convergence", "--config", path, "--out", out])
    assert code in (cli.EXIT_ACCEPTANCE, cli.EXIT_SOLVER)


def test_convergence_applies_solver_tolerance(tmp_path, capsys):
    # no step reaches a residual of 1e-30: the study stops at its first
    # step with a solver failure instead of passing the default tolerance
    path = write_config(tmp_path, "levels = 2,4\nsolver.tolerance = 1e-30\n")
    code = main(["convergence", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "step 1 (t=" in err and "solver.tolerance" in err


@pytest.mark.parametrize("levels", ["2", "4,2", "2,4,4"])
def test_convergence_needs_two_refining_levels(tmp_path, capsys, levels):
    path = write_config(tmp_path, f"levels = {levels}\n")
    code = main(["convergence", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "levels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["physics.mu_f = nan", "nitsche.gamma = nan",
                                  "physics.kappa = nan", "physics.phi = nan",
                                  "physics.alpha_bjs = inf",
                                  "physics.kappa = 1 0 0 nan"])
def test_non_finite_parameter_rejected(tmp_path, capsys, line):
    # a NaN would otherwise drop every operator term it multiplies
    path = write_config(tmp_path, "mode = general\nrun.inflow = none\n"
                                  "solver.convection = off\nmesh.nx = 4\n"
                                  f"mesh.ny = 4\nenergy.steps = 1\n{line}\n")
    code = main(["energy-check", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert line.split(" =")[0] in capsys.readouterr().err


def test_small_asymmetric_kappa_rejected(tmp_path, capsys):
    # 2e-13 off a 1e-8 diagonal is an asymmetry of 2e-5 relative
    path = write_config(tmp_path, "mode = general\nrun.inflow = none\n"
                                  "mesh.nx = 4\nmesh.ny = 4\n"
                                  "physics.kappa = 1e-8 2e-13 0 1e-8\n")
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "physics" in err and "symmetric" in err


@pytest.mark.parametrize("tau_factor", ["-1", "0.0003"])
def test_convergence_tau_factor_off_the_time_grid_rejected(tmp_path, capsys,
                                                           tau_factor):
    path = write_config(tmp_path, "levels = 2,4\n"
                                  f"convergence.tau_factor = {tau_factor}\n")
    code = main(["convergence", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "convergence.tau_factor" in err and "level nx=2" in err
    assert not (tmp_path / "o").exists()


def test_convergence_odd_levels_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "levels = 3,6\n")
    code = main(["convergence", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "levels: " in capsys.readouterr().err


@pytest.mark.parametrize("line, key, remedy", [
    ("mesh.nx = 0", "mesh.nx", "give a positive mesh.nx"),
    ("mesh.ny = 3", "mesh.ny", "use mesh.ny = 4"),
    ("levels =", "levels", "such as levels = 2,4,8,16,32"),
], ids=["nx zero", "structured ny odd", "levels empty"])
def test_mesh_size_errors_name_their_key(tmp_path, capsys, line, key, remedy):
    # rejected while parsing, before any command meshes or assembles
    path = write_config(tmp_path, line + "\n")
    with pytest.raises(ConfigError, match=rf"^{key}: .*{remedy}"):
        parse_config(path)
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")
    assert not (tmp_path / "o").exists()


def test_negative_energy_steps_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "mode = general\nrun.inflow = none\n"
                                  "solver.convection = off\nenergy.steps = -1\n")
    code = main(["energy-check", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "energy.steps" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_solver_tolerance_rejected(tmp_path, capsys, value):
    # no residual meets it: the run would fail only after assembly and LU
    path = write_config(tmp_path, "mesh.nx = 2\nmesh.ny = 2\n"
                                  f"solver.tolerance = {value}\n")
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "solver.tolerance" in capsys.readouterr().err


MSH_LINES = f"""
mesh.kind = msh
mesh.path = {os.path.join(os.path.dirname(__file__), "data", "two_layer_8tri.msh")}
mesh.tag.fluid = S
mesh.tag.porous = P
mesh.tag.interface = sigma
mesh.tag.wall_s = gamma_s
mesh.tag.wall_p = gamma_p_d
"""


@pytest.mark.parametrize("mesh_lines", [
    "mesh.kind = channel\nmesh.nx = 10\nmesh.ny = 14\n", MSH_LINES],
    ids=["channel", "msh"])
def test_manufactured_run_off_the_unit_square_rejected(tmp_path, capsys,
                                                       mesh_lines):
    # the manufactured corrections hold on y = 1/2 of the unit square only;
    # elsewhere the run would report errors of a problem it did not solve
    path = write_config(tmp_path, "mode = manufactured\n" + mesh_lines
                        + "time.tau = 0.001\ntime.final = 0.001\n")
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mode = manufactured" in err and "mesh.kind" in err
    assert "mode = general" in err
    assert not (tmp_path / "o").exists()


GOLDEN_MSH = "tests/data/two_layer_8tri.msh"


def _msh_config(mesh_path):
    return f"""
mode = general
mesh.kind = msh
mesh.path = {mesh_path}
mesh.tag.fluid = S
mesh.tag.porous = P
mesh.tag.interface = sigma
mesh.tag.wall_s = gamma_s
mesh.tag.wall_p = gamma_p_d
"""


def test_msh_config_roundtrip(tmp_path):
    cfg = parse_config(write_config(tmp_path, _msh_config(GOLDEN_MSH)))
    mesh = cfg.build_mesh()
    assert mesh.num_cells == 8
    assert len(mesh.edges_with_tag("sigma")) == 2


def _golden_with(tmp_path, old, new):
    """The golden MSH file with the bytes ``old`` replaced by ``new``."""
    with open(GOLDEN_MSH, "rb") as fh:
        data = fh.read()
    assert data.count(old) == 1
    path = tmp_path / "m.msh"
    path.write_bytes(data.replace(old, new))
    return path


@pytest.mark.parametrize("case", ["config not UTF-8", "config is a directory",
                                  "mesh is a directory", "mesh not UTF-8",
                                  "binary mesh", "node not a number"])
def test_unreadable_input_is_a_configuration_error(tmp_path, capsys, case):
    # each names the file, and the line where one is to blame, and exits 2
    if case == "config not UTF-8":
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"mode = general\nmesh.nx = 4\xff\n")
        named = f"{cfg}:2: not UTF-8"
    elif case == "config is a directory":
        cfg, named = tmp_path, f"{tmp_path}: cannot read"
    else:
        if case == "mesh is a directory":
            mesh = tmp_path / "meshes"
            mesh.mkdir()
            named = f"{mesh}: cannot read"
        elif case == "mesh not UTF-8":
            mesh = _golden_with(tmp_path, b"\n1 0 0 0\n", b"\n1 0 \xff 0\n")
            named = f"{mesh}:14: not UTF-8"
        elif case == "binary mesh":
            mesh = _golden_with(tmp_path, b"2.2 0 8", b"2.2 1 8")
            named = f"{mesh}: $MeshFormat '2.2 1 8' is not MSH version 2.2 of file type 0"
        else:
            mesh = _golden_with(tmp_path, b"\n1 0 0 0\n", b"\n1 zero 0 0\n")
            named = f"{mesh}:14: cannot read the $Nodes record '1 zero 0 0'"
        cfg = write_config(tmp_path, _msh_config(mesh))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert named in err


# --- fpsi run driven by a parsed config ----------------------------------------

def _run_lines(tmp_path, capsys, text):
    """Exit code and stdout lines of ``fpsi run`` on a config ``text``."""
    path = write_config(tmp_path, text)
    code = main(["run", "--config", path, "--out", str(tmp_path / "run")])
    return code, capsys.readouterr().out.splitlines()


def _l2_errors(line):
    assert line.startswith("final-time L2 errors ")
    pairs = (item.split() for item in line[len("final-time L2 errors "):].split(", "))
    return {name: float(value) for name, value in pairs}


def test_run_manufactured_mode_summary(tmp_path, capsys):
    code, lines = _run_lines(tmp_path, capsys, """
mode = manufactured
mesh.nx = 4
mesh.ny = 4
time.tau = 0.00025
time.final = 0.001
""")
    assert code == cli.EXIT_OK
    assert lines[0].startswith("completed 4 steps on ")
    energy, jump = lines[1].split(", interface jump seminorm ")
    assert np.isfinite(float(energy.split()[-1]))
    assert np.isfinite(float(jump))
    errors = _l2_errors(lines[2])
    assert set(errors) == {"u_f", "p_S", "u_r", "p_P", "y_s", "u_s"}
    assert all(np.isfinite(v) for v in errors.values())
    assert errors["u_f"] < 1e-3  # coarse-level sanity


def test_run_zero_steps_returns_initial_state(tmp_path, capsys):
    # every exact field vanishes at t = 0, so the final-time errors are the
    # norms of the final state: all zero for the initial state
    code, lines = _run_lines(tmp_path, capsys, """
mode = manufactured
mesh.nx = 2
mesh.ny = 2
time.tau = 0.0005
time.final = 0
""")
    assert code == cli.EXIT_OK
    assert lines[0].startswith("completed 0 steps on ")
    assert lines[1] == ("final energy 0.000000e+00, interface jump seminorm "
                        "n/a")
    assert set(_l2_errors(lines[2]).values()) == {0.0}


def test_run_general_mode_on_imported_mesh(tmp_path, capsys):
    # a step whose solution is not finite would exit with EXIT_SOLVER
    code, lines = _run_lines(tmp_path, capsys, """
mode = general
mesh.kind = msh
mesh.path = tests/data/two_layer_8tri.msh
mesh.tag.fluid = S
mesh.tag.porous = P
mesh.tag.interface = sigma
mesh.tag.wall_s = gamma_s
mesh.tag.wall_p = gamma_p_d
run.inflow = none
time.tau = 0.001
time.final = 0.003
""")
    assert code == cli.EXIT_OK
    assert lines[0].startswith("completed 3 steps on ")
    energy, jump = lines[1].split(", interface jump seminorm ")
    assert np.isfinite(float(energy.split()[-1])) and np.isfinite(float(jump))
    assert len(lines) == 2


def test_default_channel_rows_rejected_with_remedy(tmp_path, capsys):
    # the default 8 rows miss the default channel's interfaces (y = 0.3 and
    # 0.7 on [-0.2, 1.2]); 14 rows are the fewest that hit both
    path = write_config(tmp_path, "mode = general\nmesh.kind = channel\n")
    with pytest.raises(ConfigError, match=r"mesh\.ny: the 8-row channel grid.*"
                                          r"channel\.lower = 0\.3 or "
                                          r"channel\.upper = 0\.7.*"
                                          r"smallest mesh\.ny that fits is 14"):
        parse_config(path)
    out = str(tmp_path / "default-channel")
    assert main(["run", "--config", path, "--out", out]) == cli.EXIT_CONFIG
    assert "smallest mesh.ny that fits is 14" in capsys.readouterr().err
    fitted = write_config(tmp_path, "mode = general\nmesh.kind = channel\n"
                                    "mesh.ny = 14\n", name="fitted.cfg")
    assert parse_config(fitted)["mesh.ny"] == 14


def test_channel_rows_none_fit(tmp_path):
    path = write_config(tmp_path, "mesh.kind = channel\nchannel.lower = 0.3\n"
                                  "channel.upper = 0.70001\n")
    with pytest.raises(ConfigError, match=r"channel\.upper = 0\.70001; no row "
                                          r"count up to 1000 fits"):
        parse_config(path)
