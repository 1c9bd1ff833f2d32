"""Configuration, output writers, and the command-line entry point.

Exit codes: 0 success, 1 acceptance failure, 2 configuration error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from . import forms, mesh as meshmod, solver, verification

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

RATE_THRESHOLDS = {"u_f": 1.8, "u_r": 1.8, "y_s": 1.8, "u_s": 1.8,
                   "p_S": 1.5, "p_P": 1.5}


class ConfigError(ValueError):
    """Invalid configuration file or option."""


def _parabolic_profile(scale):
    def profile(y):
        return scale * 0.1 * (y + 0.2) * (1.2 - y)
    return profile


INFLOW_PROFILES = ("none", "parabolic")


# --- configuration keys ----------------------------------------------------------
# Each parser turns the text of one key into its value, or raises
# ConfigError naming the key.


def _text(key, text):
    return text


def _number(key, text):
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _positive(key, text):
    value = _number(key, text)
    if value <= 0:
        raise ConfigError(f"{key}: must be positive, got {value:g}")
    return value


def _integer(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _count(key, text):
    value = _integer(key, text)
    if value < 0:
        raise ConfigError(f"{key}: must be a nonnegative count, got {value}")
    return value


def _choice(*choices):
    def parse(key, text):
        if text not in choices:
            raise ConfigError(f"{key}: expected one of {choices}, got {text!r}")
        return text
    return parse


def _switch(key, text):
    return _choice("on", "off")(key, text) == "on"


def _kappa(key, text):
    try:
        kappa = np.array(text.split(), dtype=float)
    except ValueError:
        kappa = np.array([])
    if kappa.size not in (1, 4) or not np.all(np.isfinite(kappa)):
        raise ConfigError(f"{key}: expected 1 or 4 finite numbers, got {text!r}")
    return float(kappa[0]) if kappa.size == 1 else kappa.reshape(2, 2)


def _levels(key, text):
    try:
        levels = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, "
                          f"got {text!r}") from None
    if not levels:
        raise ConfigError(f"{key}: empty; give increasing even cell counts, "
                          "such as levels = 2,4,8,16,32")
    if any(n <= 0 for n in levels):
        raise ConfigError(f"{key}: cell counts must be positive, got {text!r}")
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(
            f"{key}: a convergence rate needs at least two strictly refining "
            f"levels (increasing cell counts), got {text!r}")
    if any(n % 2 for n in levels):
        raise ConfigError(f"{key}: each level is an nx x nx square split at "
                          f"y = 1/2, so nx must be even, got {text!r}")
    return levels


def _param_keys(section, params):
    """``{key: field}`` of the dataclass ``params``: ``section.<field name>``,
    except that the field ``lam_p`` is read from ``physics.lambda_p``."""
    return {f"{section}.{'lambda_p' if f.name == 'lam_p' else f.name}": f
            for f in dataclasses.fields(params)}


_PHYSICS = _param_keys("physics", forms.PhysicalParams)
_NITSCHE = _param_keys("nitsche", forms.NitscheParams)


def _param_rows(keys):
    """The rows of parameter keys: each field's default, parsed by its type."""
    return {key: (repr(f.default), _kappa if f.name == "kappa" else
                  _integer if isinstance(f.default, int) else _number)
            for key, f in keys.items()}


# The ``channel.*`` keys and the ``generate_channel`` keywords they set.
_CHANNEL = {"channel.length": "width", "channel.y0": "y0", "channel.height": "height",
            "channel.lower": "s_lower", "channel.upper": "s_upper"}


def _channel_rows():
    """The rows of the channel keys: ``generate_channel``'s keyword defaults."""
    keywords = inspect.signature(meshmod.generate_channel).parameters
    return {key: (repr(keywords[arg].default), _number) for key, arg in _CHANNEL.items()}


# One row per configuration key: its default, as the text a file would give,
# and its parser.  Keys ``mesh.tag.<name> = <tag>`` add to the MSH tag map.
KEYS = {
    "mode": ("manufactured", _choice("manufactured", "general")),
    "mesh.kind": ("structured", _choice("structured", "channel", "msh")),
    "mesh.nx": ("8", _integer),
    "mesh.ny": ("8", _integer),
    "mesh.path": ("", _text),
    **_param_rows(_PHYSICS),
    **_param_rows(_NITSCHE),
    "time.tau": ("0.000125", _number),
    "time.final": ("0.001", _number),
    "levels": ("2,4,8,16,32", _levels),
    "convergence.tau_factor": ("0.001", _number),
    **_channel_rows(),
    "output.dir": ("out", _text),
    "output.dump_every": ("0", _count),
    "solver.tolerance": (repr(solver.TOLERANCE), _positive),
    "solver.convection": ("on", _switch),
    "run.inflow": ("parabolic", _choice(*INFLOW_PROFILES)),
    "run.inflow_scale": ("1.0", _number),
    "run.seed": ("0", _integer),
    "energy.steps": ("50", _count),
}


@dataclasses.dataclass
class RunConfig:
    """A parsed configuration: the value of each key, read as ``config[key]``,
    the MSH tag map, and the parameter objects and time grid built from them."""

    values: dict
    tag_map: dict
    physics: forms.PhysicalParams
    nitsche: forms.NitscheParams
    grid: solver.TimeGrid
    _mesh: object = dataclasses.field(default=None, repr=False)

    def __getitem__(self, key):
        return self.values[key]

    def build_mesh(self):
        if self._mesh is None:
            kind, nx, ny = self["mesh.kind"], self["mesh.nx"], self["mesh.ny"]
            if kind == "structured":
                self._mesh = meshmod.generate_structured(nx, ny)
            elif kind == "channel":
                self._mesh = meshmod.generate_channel(
                    nx, ny, **{arg: self[key] for key, arg in _CHANNEL.items()})
            else:
                self._mesh = meshmod.import_msh(self["mesh.path"], self.tag_map)
        return self._mesh

    def boundary_values(self):
        """Dirichlet evaluators for general mode: inflow at x = x_min."""
        if self["run.inflow"] == "none":
            return {}
        profile = _parabolic_profile(self["run.inflow_scale"])
        mesh = self.build_mesh()
        x_min = float(mesh.vertices[:, 0].min())
        tol = 1e-9 * max(1.0, abs(x_min))

        def inflow(t, x, y):
            vals = np.zeros((len(np.atleast_1d(x)), 2))
            at_inlet = np.abs(np.atleast_1d(x) - x_min) < tol + 1e-12
            vals[at_inlet, 0] = profile(np.atleast_1d(y)[at_inlet])
            return vals

        return {"u_f": inflow, "u_r": inflow}


def _parse_lines(path):
    """The ``key = value`` entries of a config file; a key may appear once."""
    entries, first = {}, {}
    for lineno, raw in enumerate(meshmod.read_lines(path, ConfigError), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is given twice, "
                              f"first on line {first[key]}")
        entries[key], first[key] = value, lineno
    return entries


def _built(section, make, kwargs, hint=""):
    """``make(**kwargs)``; its ValueError becomes a ConfigError of ``section``."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}{hint}") from exc


def parse_config(path):
    """Read a line-oriented ``section.key = value`` file into a RunConfig.

    Missing keys take their ``KEYS`` default; unknown keys are rejected;
    every constraint violation names the offending key.
    """
    if not os.path.exists(path):
        raise ConfigError(f"configuration file not found: {path}")
    texts = {key: default for key, (default, _) in KEYS.items()}
    tag_map = {}
    for key, text in _parse_lines(path).items():
        if key.startswith("mesh.tag."):
            tag_map[key[len("mesh.tag."):]] = text
        elif key in texts:
            texts[key] = text
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    values = {key: parse(key, texts[key]) for key, (_, parse) in KEYS.items()}

    kind, nx, ny = values["mesh.kind"], values["mesh.nx"], values["mesh.ny"]
    mesh_path = values["mesh.path"]
    if kind == "msh":
        if not mesh_path:
            raise ConfigError("mesh.path: required when mesh.kind = msh")
        if not os.path.exists(mesh_path):
            raise ConfigError(f"mesh.path: file not found: {mesh_path}")
    if kind != "msh" and nx < 1:
        raise ConfigError(f"mesh.nx: the {kind} grid needs at least one "
                          f"column of cells, got {nx}; give a positive mesh.nx")
    if kind == "structured" and (ny < 2 or ny % 2):
        raise ConfigError(
            f"mesh.ny: the structured grid splits the unit square at y = 1/2 on "
            f"a grid line, so it needs an even, positive row count, got {ny}; "
            f"use mesh.ny = {max(2, ny + ny % 2)}")
    if kind == "channel":
        _require_channel_rows(values)

    return RunConfig(
        values, tag_map,
        physics=_built("physics", forms.PhysicalParams,
                       {f.name: values[key] for key, f in _PHYSICS.items()}),
        nitsche=_built("nitsche", forms.NitscheParams,
                       {f.name: values[key] for key, f in _NITSCHE.items()},
                       " (need gamma > 0 and varsigma in {-1, 0, 1})"),
        grid=_built("time", solver.TimeGrid,
                    {"tau": values["time.tau"], "final": values["time.final"]}))


def _require_channel_rows(values):
    """Reject a ``mesh.ny`` whose grid lines miss a channel interface."""
    ny, y0, height = values["mesh.ny"], values["channel.y0"], values["channel.height"]
    lower, upper = values["channel.lower"], values["channel.upper"]
    missed = [key for key in ("channel.lower", "channel.upper")
              if meshmod.channel_row(values[key], ny, y0, height) is None]
    if not missed:
        return
    fit = meshmod.smallest_channel_rows(y0, height, lower, upper)
    remedy = (f"the smallest mesh.ny that fits is {fit}" if fit is not None else
              f"no row count up to {meshmod.MAX_CHANNEL_ROWS} fits: move "
              "channel.lower and channel.upper onto a common grid")
    raise ConfigError(
        f"mesh.ny: the {ny}-row channel grid from y0 = {y0:g} over height "
        f"{height:g} has no interior grid line at "
        + " or ".join(f"{key} = {values[key]:g}" for key in missed)
        + f"; {remedy}")


# --- VTK output ---------------------------------------------------------------


def write_vtk(mesh, state, path):
    """Legacy ASCII VTK unstructured grid of every field at the mesh vertices.

    Each field takes its coefficients at the vertices of its subdomain and
    is zero at the others.
    """
    lines = ["# vtk DataFile Version 3.0",
             f"fpsi fields at t={state.time:.12g}",
             "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.num_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {mesh.num_cells} {4 * mesh.num_cells}")
    for tri in mesh.cells:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {mesh.num_cells}")
    lines.extend(["5"] * mesh.num_cells)
    lines.append(f"POINT_DATA {mesh.num_vertices}")
    for name, space in zip(forms.BLOCK_NAMES, state.spaces):
        full = np.zeros((mesh.num_vertices, space.components))
        coeffs = state.block(name).reshape(space.num_nodes, space.components)
        vertices = space.num_vertex_nodes
        full[space.mesh_nodes[:vertices]] = coeffs[:vertices]
        if space.components == 1:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in full[:, 0])
        else:
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{v[0]:.17g} {v[1]:.17g} 0" for v in full)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# --- subcommands ---------------------------------------------------------------


def _ensure_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {path!r} is not writable: {exc}")


def cmd_convergence(config, out_dir):
    """Run the refinement study, write the error table, check thresholds."""
    # checked here, not in parse_config: only this command steps by tau_factor
    tau_factor, final = config["convergence.tau_factor"], config["time.final"]
    for nx in config["levels"]:
        try:
            solver.TimeGrid(tau=(1.0 / nx) * tau_factor, final=final)
        except ValueError as exc:
            raise ConfigError(
                f"convergence.tau_factor: level nx={nx} steps by tau = "
                f"tau_factor / nx: {exc}; choose a positive tau_factor with "
                "time.final a multiple of tau_factor / nx at every level") from exc
    _ensure_outdir(out_dir)
    levels = [(nx, nx) for nx in config["levels"]]
    table = verification.convergence_study(
        levels, config.physics, config.nitsche, tau_factor=tau_factor,
        final_time=final, convection=config["solver.convection"],
        solver_tol=config["solver.tolerance"],
        progress=lambda nx, errs: print(f"  level nx={nx} done"))
    csv_path = os.path.join(out_dir, "convergence.csv")
    table.write_csv(csv_path)
    print(table.to_csv_string(), end="")
    print(f"wrote {csv_path}")

    failures = []
    for name, threshold in RATE_THRESHOLDS.items():
        rate = table.mean_rate(name)
        status = "ok" if rate >= threshold else "FAIL"
        print(f"rate {name}: {rate:.3f} (threshold {threshold}) {status}")
        if rate < threshold:
            failures.append(name)
    if not table.monotone_from_second_level():
        print("monotone decrease from level 2: FAIL")
        failures.append("monotonicity")
    else:
        print("monotone decrease from level 2: ok")
    return EXIT_ACCEPTANCE if failures else EXIT_OK


def cmd_run(config, out_dir):
    """One simulation: energy and jump lines, errors in manufactured mode."""
    # checked here, not in parse_config: convergence meshes its own unit
    # squares, and energy-check solves no manufactured problem
    manufactured = config["mode"] == "manufactured"
    if manufactured and config["mesh.kind"] != "structured":
        raise ConfigError(
            f"mode = manufactured needs mesh.kind = structured (its corrections "
            f"assume the unit square with S below y = 1/2), got mesh.kind = "
            f"{config['mesh.kind']}; use mode = general")
    _ensure_outdir(out_dir)
    mesh = config.build_mesh()
    spaces = forms.build_spaces(mesh)
    grid = config.grid
    if manufactured:
        sol, loads = verification.manufactured_problem(config.physics)
    else:
        sol, loads = None, {"boundary_values": config.boundary_values()}
    stepper = solver.TimeStepper(spaces, config.physics, config.nitsche, grid,
                                 convection=config["solver.convection"],
                                 solver_tol=config["solver.tolerance"], **loads)
    dump_every = config["output.dump_every"]
    dumps, jump = [], "n/a"

    def observe(index, previous, state, report):
        nonlocal jump
        if dump_every and index % dump_every == 0:
            path = os.path.join(out_dir, f"fields_{index:05d}.vtk")
            dumps.append(write_vtk(mesh, state, path))
        if index == grid.nsteps:
            seminorm = forms.interface_jump_seminorm(stepper.ctx, previous,
                                                     state, grid.tau)
            jump = f"{seminorm:.6e}"

    state = solver.march(stepper, forms.StateVector.zero(spaces), observe)
    print(f"completed {grid.nsteps} steps on {state.vector().size} dofs "
          f"(h_max={mesh.h_max():.4g})")
    energy = forms.energy_matrix(spaces, stepper.M, stepper.N)
    print(f"final energy {solver.discrete_energy(state, energy):.6e}, "
          f"interface jump seminorm {jump}")
    if sol is not None:
        errors, _ = verification.final_time_errors(state, sol)
        print("final-time L2 errors "
              + ", ".join(f"{k} {v:.6e}" for k, v in errors.items()))
    if dumps:
        print(f"wrote {len(dumps)} VTK dumps to {out_dir}")
    return EXIT_OK


def cmd_energy_check(config, out_dir):
    """Zero-forcing decay check from a random initial state."""
    if config["run.inflow"] != "none":
        raise ConfigError(
            "energy-check requires run.inflow = none (zero forcing)")
    if config["solver.convection"]:
        raise ConfigError(
            "energy-check requires solver.convection = off")
    _ensure_outdir(out_dir)
    spaces = forms.build_spaces(config.build_mesh())
    tau = config["time.tau"]
    grid = solver.TimeGrid(tau=tau, final=tau * config["energy.steps"])
    stepper = solver.TimeStepper(spaces, config.physics, config.nitsche, grid,
                                 convection=False,
                                 solver_tol=config["solver.tolerance"])
    rng = np.random.default_rng(config["run.seed"])
    state = forms.StateVector.zero(spaces)
    for name, space in zip(forms.BLOCK_NAMES, spaces):
        block = state.block(name)
        block[:] = rng.uniform(-1.0, 1.0, space.ndofs)
        block[space.dirichlet_dofs] = 0.0

    energy = forms.energy_matrix(spaces, stepper.M, stepper.N)
    energies = [solver.discrete_energy(state, energy)]
    solver.march(stepper, state, lambda n, previous, new, report: energies.append(
        solver.discrete_energy(new, energy)))

    csv_path = os.path.join(out_dir, "energy.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("step,energy\n")
        for i, e in enumerate(energies):
            fh.write(f"{i},{e:.17g}\n")
    slack = 1e-10 * energies[0]
    increases = [i for i in range(1, len(energies))
                 if energies[i] > energies[i - 1] + slack]
    print(f"wrote {csv_path}; initial energy {energies[0]:.6e}, "
          f"final {energies[-1]:.6e}")
    if increases:
        print(f"energy increased at steps {increases}")
        return EXIT_ACCEPTANCE
    print("energy trace non-increasing: ok")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fpsi",
        description="Coupled free-flow/poroelastic solver with weak "
                    "interface coupling")
    parser.add_argument("command",
                        choices=("convergence", "run", "energy-check"))
    parser.add_argument("--config", required=True, help="path to config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: output.dir)")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        out_dir = args.out or config["output.dir"]
        if args.command == "convergence":
            return cmd_convergence(config, out_dir)
        if args.command == "run":
            return cmd_run(config, out_dir)
        return cmd_energy_check(config, out_dir)
    except (ConfigError, forms.FormsError, meshmod.MeshError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
