"""Configuration, output writers, and the command-line entry point.

Exit codes: 0 success, 1 acceptance failure, 2 configuration error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

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

_DEFAULTS = {
    "mode": "manufactured",
    "mesh.kind": "structured",
    "mesh.nx": "8",
    "mesh.ny": "8",
    "mesh.path": "",
    "physics.rho_f": "1.0",
    "physics.rho_s": "1.0",
    "physics.mu_f": "10.0",
    "physics.mu_p": "10.0",
    "physics.lambda_p": "10.0",
    "physics.phi": "0.1",
    "physics.kappa": "1.0",
    "physics.K": "1.0",
    "physics.theta": "0.0",
    "physics.alpha_bjs": "1.0",
    "nitsche.gamma": "40.0",
    "nitsche.varsigma": "1",
    "time.tau": "0.000125",
    "time.final": "0.001",
    "levels": "2,4,8,16,32",
    "convergence.tau_factor": "0.001",
    "channel.length": "2.0",
    "channel.y0": "-0.2",
    "channel.height": "1.4",
    "channel.lower": "0.3",
    "channel.upper": "0.7",
    "output.dir": "out",
    "output.dump_every": "0",
    "solver.tolerance": "1e-9",
    "solver.convection": "on",
    "run.inflow": "parabolic",
    "run.inflow_scale": "1.0",
    "run.seed": "0",
    "energy.steps": "50",
}


@dataclass
class RunConfig:
    """Validated run configuration with mesh/params/grid builders."""

    mode: str
    mesh_kind: str
    nx: int
    ny: int
    mesh_path: str
    tag_map: dict
    physics: dict
    gamma: float
    varsigma: int
    tau: float
    final: float
    levels: list
    tau_factor: float
    channel: dict
    output_dir: str
    dump_every: int
    solver_tolerance: float
    convection: bool
    inflow: str
    inflow_scale: float
    seed: int
    energy_steps: int
    _mesh_cache: object = field(default=None, repr=False)

    def physical_params(self):
        return forms.PhysicalParams(**self.physics)

    def nitsche_params(self):
        return forms.NitscheParams(gamma=self.gamma, varsigma=self.varsigma)

    def time_grid(self):
        return solver.TimeGrid(tau=self.tau, final=self.final)

    def build_mesh(self):
        if self._mesh_cache is None:
            if self.mesh_kind == "structured":
                m = meshmod.generate_structured(self.nx, self.ny)
            elif self.mesh_kind == "channel":
                ch = self.channel
                m = meshmod.generate_channel(
                    self.nx, self.ny, y0=ch["y0"], width=ch["length"],
                    height=ch["height"], s_lower=ch["lower"],
                    s_upper=ch["upper"])
            elif self.mesh_kind == "msh":
                m = meshmod.import_msh(self.mesh_path, self.tag_map)
            else:
                raise ConfigError(f"mesh.kind: unknown kind {self.mesh_kind!r}")
            self._mesh_cache = m
        return self._mesh_cache

    def boundary_values(self):
        """Dirichlet evaluators for general mode: inflow at x = x_min."""
        if self.inflow == "none":
            return {}
        profile = _parabolic_profile(self.inflow_scale)
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


def _to_float(entries, key):
    try:
        value = float(entries[key])
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {entries[key]!r}")
    return value


def _to_int(entries, key):
    try:
        return int(entries[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {entries[key]!r}") from None


def _to_choice(entries, key, choices):
    value = entries[key]
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
    return value


def parse_config(path):
    """Read a line-oriented ``section.key = value`` file into a RunConfig.

    Missing keys take the reference parameter set as defaults; unknown keys
    are rejected; every constraint violation names the offending key.
    """
    if not os.path.exists(path):
        raise ConfigError(f"configuration file not found: {path}")
    entries = dict(_DEFAULTS)
    user = _parse_lines(path)
    tag_map = {}
    for key, value in user.items():
        if key.startswith("mesh.tag."):
            tag_map[key[len("mesh.tag."):]] = value
        elif key in entries:
            entries[key] = value
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    mode = _to_choice(entries, "mode", ("manufactured", "general"))
    mesh_kind = _to_choice(entries, "mesh.kind", ("structured", "channel", "msh"))
    mesh_path = entries["mesh.path"]
    if mesh_kind == "msh":
        if not mesh_path:
            raise ConfigError("mesh.path: required when mesh.kind = msh")
        if not os.path.exists(mesh_path):
            raise ConfigError(f"mesh.path: file not found: {mesh_path}")

    physics = dict(
        rho_f=_to_float(entries, "physics.rho_f"),
        rho_s=_to_float(entries, "physics.rho_s"),
        mu_f=_to_float(entries, "physics.mu_f"),
        mu_p=_to_float(entries, "physics.mu_p"),
        lam_p=_to_float(entries, "physics.lambda_p"),
        phi=_to_float(entries, "physics.phi"),
        kappa=_parse_kappa(entries["physics.kappa"]),
        K=_to_float(entries, "physics.K"),
        theta=_to_float(entries, "physics.theta"),
        alpha_bjs=_to_float(entries, "physics.alpha_bjs"),
    )
    try:
        forms.PhysicalParams(**physics)
    except forms.FormsError as exc:
        raise ConfigError(f"physics: {exc}") from exc

    gamma = _to_float(entries, "nitsche.gamma")
    varsigma = _to_int(entries, "nitsche.varsigma")
    try:
        forms.NitscheParams(gamma=gamma, varsigma=varsigma)
    except forms.FormsError as exc:
        raise ConfigError(f"nitsche: {exc} (need gamma > 0 and "
                          f"varsigma in {{-1, 0, 1}})") from exc

    tau = _to_float(entries, "time.tau")
    final = _to_float(entries, "time.final")
    try:
        solver.TimeGrid(tau=tau, final=final)
    except ValueError as exc:
        raise ConfigError(f"time: {exc}") from exc

    try:
        levels = [int(tok) for tok in entries["levels"].split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"levels: expected comma-separated integers, "
                          f"got {entries['levels']!r}") from None
    if not levels:
        raise ConfigError("levels: empty; give increasing even cell counts, "
                          "such as levels = 2,4,8,16,32")
    if any(n <= 0 for n in levels):
        raise ConfigError(f"levels: cell counts must be positive, got "
                          f"{entries['levels']!r}")
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(
            f"levels: a convergence rate needs at least two strictly refining "
            f"levels (increasing cell counts), got {entries['levels']!r}")
    if any(n % 2 for n in levels):
        raise ConfigError(f"levels: each level is an nx x nx square split at "
                          f"y = 1/2, so nx must be even, got {entries['levels']!r}")

    nx, ny = _to_int(entries, "mesh.nx"), _to_int(entries, "mesh.ny")
    if mesh_kind != "msh" and nx < 1:
        raise ConfigError(f"mesh.nx: the {mesh_kind} grid needs at least one "
                          f"column of cells, got {nx}; give a positive mesh.nx")
    if mesh_kind == "structured" and (ny < 2 or ny % 2):
        raise ConfigError(
            f"mesh.ny: the structured grid splits the unit square at y = 1/2 on "
            f"a grid line, so it needs an even, positive row count, got {ny}; "
            f"use mesh.ny = {max(2, ny + ny % 2)}")
    channel = {key: _to_float(entries, f"channel.{key}")
               for key in ("length", "y0", "height", "lower", "upper")}
    if mesh_kind == "channel":
        _require_channel_rows(ny, channel)

    dump_every = _to_int(entries, "output.dump_every")
    if dump_every < 0:
        raise ConfigError("output.dump_every: must be nonnegative")
    energy_steps = _to_int(entries, "energy.steps")
    if energy_steps < 0:
        raise ConfigError(
            f"energy.steps: must be a nonnegative step count, got {energy_steps}")
    solver_tolerance = _to_float(entries, "solver.tolerance")
    if solver_tolerance <= 0:
        raise ConfigError(
            f"solver.tolerance: must be positive, got {solver_tolerance:g}")

    return RunConfig(
        mode=mode, mesh_kind=mesh_kind,
        nx=nx, ny=ny,
        mesh_path=mesh_path, tag_map=tag_map, physics=physics,
        gamma=gamma, varsigma=varsigma, tau=tau, final=final,
        levels=levels, tau_factor=_to_float(entries, "convergence.tau_factor"),
        channel=channel,
        output_dir=entries["output.dir"], dump_every=dump_every,
        solver_tolerance=solver_tolerance,
        convection=_to_choice(entries, "solver.convection", ("on", "off")) == "on",
        inflow=_to_choice(entries, "run.inflow", INFLOW_PROFILES),
        inflow_scale=_to_float(entries, "run.inflow_scale"),
        seed=_to_int(entries, "run.seed"),
        energy_steps=energy_steps,
    )


def _require_channel_rows(ny, ch):
    """Reject a ``mesh.ny`` whose grid lines miss a channel interface."""
    y0, height = ch["y0"], ch["height"]
    missed = [key for key in ("lower", "upper")
              if meshmod.channel_row(ch[key], ny, y0, height) is None]
    if not missed:
        return
    fit = meshmod.smallest_channel_rows(y0, height, ch["lower"], ch["upper"])
    remedy = (f"the smallest mesh.ny that fits is {fit}" if fit is not None else
              f"no row count up to {meshmod.MAX_CHANNEL_ROWS} fits: move "
              "channel.lower and channel.upper onto a common grid")
    raise ConfigError(
        f"mesh.ny: the {ny}-row channel grid from y0 = {y0:g} over height "
        f"{height:g} has no interior grid line at "
        + " or ".join(f"channel.{key} = {ch[key]:g}" for key in missed)
        + f"; {remedy}")


def _parse_kappa(text):
    parts = text.split()
    try:
        kappa = np.array(parts, dtype=float)
    except ValueError:
        kappa = np.array([])
    if kappa.size not in (1, 4) or not np.all(np.isfinite(kappa)):
        raise ConfigError(f"physics.kappa: expected 1 or 4 finite numbers, got {text!r}")
    return float(kappa[0]) if kappa.size == 1 else kappa.reshape(2, 2)


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
    for name, block in zip(forms.BLOCK_NAMES, state.blocks):
        space = block.space
        full = np.zeros((mesh.num_vertices, space.components))
        coeffs = block.values.reshape(space.num_nodes, space.components)
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
    for nx in config.levels:
        try:
            solver.TimeGrid(tau=(1.0 / nx) * config.tau_factor, final=config.final)
        except ValueError as exc:
            raise ConfigError(
                f"convergence.tau_factor: level nx={nx} steps by tau = "
                f"tau_factor / nx: {exc}; choose a positive tau_factor with "
                "time.final a multiple of tau_factor / nx at every level") from exc
    _ensure_outdir(out_dir)
    params = config.physical_params()
    nitsche = config.nitsche_params()
    levels = [(nx, nx) for nx in config.levels]
    table = verification.convergence_study(
        levels, params, nitsche, tau_factor=config.tau_factor,
        final_time=config.final, convection=config.convection,
        solver_tol=config.solver_tolerance,
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
    if config.mode == "manufactured" and config.mesh_kind != "structured":
        raise ConfigError(
            f"mode = manufactured needs mesh.kind = structured (its corrections "
            f"assume the unit square with S below y = 1/2), got mesh.kind = "
            f"{config.mesh_kind}; use mode = general")
    _ensure_outdir(out_dir)
    mesh = config.build_mesh()
    spaces = forms.build_spaces(mesh)
    params = config.physical_params()
    grid = config.time_grid()
    if config.mode == "manufactured":
        sol, loads = verification.manufactured_problem(params)
    else:
        sol, loads = None, {"boundary_values": config.boundary_values()}
    stepper = solver.TimeStepper(spaces, params, config.nitsche_params(), grid,
                                 convection=config.convection,
                                 solver_tol=config.solver_tolerance, **loads)
    # the states before and after the latest step
    last = [forms.StateVector.zero(spaces, time=0.0)] * 2
    dumps = []

    def observe(index, state, report):
        last[:] = last[1], state
        if config.dump_every and index % config.dump_every == 0:
            path = os.path.join(out_dir, f"fields_{index:05d}.vtk")
            dumps.append(write_vtk(mesh, state, path))

    state = solver.march(stepper, last[1], observe)
    print(f"completed {grid.nsteps} steps on {state.vector().size} dofs "
          f"(h_max={mesh.h_max():.4g})")
    jump = "n/a"
    if grid.nsteps > 0:
        rate = (state.block("y_s").values - last[0].block("y_s").values) / grid.tau
        jump = f"{forms.interface_jump_seminorm(stepper.ctx, state, rate):.6e}"
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
    if config.inflow != "none":
        raise ConfigError(
            "energy-check requires run.inflow = none (zero forcing)")
    if config.convection:
        raise ConfigError(
            "energy-check requires solver.convection = off")
    _ensure_outdir(out_dir)
    spaces = forms.build_spaces(config.build_mesh())
    grid = solver.TimeGrid(tau=config.tau, final=config.tau * config.energy_steps)
    stepper = solver.TimeStepper(spaces, config.physical_params(),
                                 config.nitsche_params(), grid,
                                 convection=False,
                                 solver_tol=config.solver_tolerance)
    rng = np.random.default_rng(config.seed)
    state = forms.StateVector.zero(spaces)
    for block in state.blocks:
        block.values[:] = rng.uniform(-1.0, 1.0, block.space.ndofs)
        block.values[block.space.dirichlet_dofs] = 0.0

    energy = forms.energy_matrix(spaces, stepper.M, stepper.N)
    energies = [solver.discrete_energy(state, energy)]
    solver.march(stepper, state, lambda n, new, report: energies.append(
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
        out_dir = args.out or config.output_dir
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
