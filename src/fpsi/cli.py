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
    "energy.amplitude": "1.0",
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
    energy_amplitude: float
    source_path: str = ""
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
                    self.nx, self.ny, x0=0.0, y0=ch["y0"], width=ch["length"],
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
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            entries[key] = value
    return entries


def _to_float(entries, key):
    try:
        return float(entries[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {entries[key]!r}") from None


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
    if any(n <= 0 for n in levels) or not levels:
        raise ConfigError("levels: cell counts must be positive")

    dump_every = _to_int(entries, "output.dump_every")
    if dump_every < 0:
        raise ConfigError("output.dump_every: must be nonnegative")

    return RunConfig(
        mode=mode, mesh_kind=mesh_kind,
        nx=_to_int(entries, "mesh.nx"), ny=_to_int(entries, "mesh.ny"),
        mesh_path=mesh_path, tag_map=tag_map, physics=physics,
        gamma=gamma, varsigma=varsigma, tau=tau, final=final,
        levels=levels, tau_factor=_to_float(entries, "convergence.tau_factor"),
        channel={key: _to_float(entries, f"channel.{key}")
                 for key in ("length", "y0", "height", "lower", "upper")},
        output_dir=entries["output.dir"], dump_every=dump_every,
        solver_tolerance=_to_float(entries, "solver.tolerance"),
        convection=_to_choice(entries, "solver.convection", ("on", "off")) == "on",
        inflow=_to_choice(entries, "run.inflow", INFLOW_PROFILES),
        inflow_scale=_to_float(entries, "run.inflow_scale"),
        seed=_to_int(entries, "run.seed"),
        energy_steps=_to_int(entries, "energy.steps"),
        energy_amplitude=_to_float(entries, "energy.amplitude"),
        source_path=str(path),
    )


def _parse_kappa(text):
    parts = text.split()
    if len(parts) == 1:
        return float(parts[0])
    if len(parts) == 4:
        return np.array(parts, dtype=float).reshape(2, 2)
    raise ConfigError(f"physics.kappa: expected 1 or 4 numbers, got {text!r}")


# --- VTK output ---------------------------------------------------------------


@dataclass
class FieldDump:
    """Vertex-sampled snapshot of all six fields over the whole mesh."""

    time: float
    point_data: dict

    def validate(self, mesh):
        for name, arr in self.point_data.items():
            if arr.shape[0] != mesh.num_vertices:
                raise ValueError(
                    f"field {name!r} has {arr.shape[0]} values for "
                    f"{mesh.num_vertices} mesh vertices")


def state_to_dump(mesh, state):
    """Sample every field at mesh vertices (zero outside its subdomain)."""
    data = {}
    for name, block in zip(forms.BLOCK_NAMES, state.blocks):
        space = block.space
        comps = space.components
        full = np.zeros((mesh.num_vertices, comps))
        nvert = space.num_vertex_nodes
        coeffs = block.values.reshape(space.num_nodes, comps)
        full[space._verts] = coeffs[:nvert]
        data[name] = full[:, 0] if comps == 1 else full
    return FieldDump(time=state.time, point_data=data)


def write_vtk(mesh, dump, path):
    """Legacy ASCII VTK unstructured grid with per-vertex point data."""
    dump.validate(mesh)
    lines = ["# vtk DataFile Version 3.0",
             f"fpsi fields at t={dump.time:.12g}",
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
    for name, arr in dump.point_data.items():
        if arr.ndim == 1:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in arr)
        else:
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{v[0]:.17g} {v[1]:.17g} 0" for v in arr)
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
    _ensure_outdir(out_dir)
    params = config.physical_params()
    nitsche = config.nitsche_params()
    levels = [(nx, nx) for nx in config.levels]
    table = verification.convergence_study(
        levels, params, nitsche, tau_factor=config.tau_factor,
        final_time=config.final, convection=config.convection,
        progress=lambda nx, errs: print(f"  level nx={nx} done"))
    csv_path = os.path.join(out_dir, "convergence.csv")
    table.write_csv(csv_path)
    print(table.to_csv_string(), end="")
    print(f"wrote {csv_path}")

    failures = []
    for name, threshold in RATE_THRESHOLDS.items():
        rate = table.mean_rate(name, last=3)
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
    """General-mode simulation with optional VTK dumps."""
    _ensure_outdir(out_dir)
    mesh = config.build_mesh()
    dumps = []

    def on_step(state, index):
        if config.dump_every and index % config.dump_every == 0:
            path = os.path.join(out_dir, f"fields_{index:05d}.vtk")
            write_vtk(mesh, state_to_dump(mesh, state), path)
            dumps.append(path)

    summary = solver.run(config, on_step=on_step)
    if not np.all(np.isfinite(summary.final_state.vector())):
        print("non-finite field values in the final state", file=sys.stderr)
        return EXIT_SOLVER
    print(f"completed {summary.nsteps} steps on {summary.dof_count} dofs "
          f"(h_max={summary.h_max:.4g})")
    jump = ("n/a" if summary.jump_seminorm is None
            else f"{summary.jump_seminorm:.6e}")
    print(f"final energy {summary.energy[-1]:.6e}, interface jump seminorm "
          f"{jump}")
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
    mesh = config.build_mesh()
    spaces = forms.build_spaces(mesh)
    params = config.physical_params()
    nitsche = config.nitsche_params()
    grid = solver.TimeGrid(tau=config.tau, nsteps=config.energy_steps,
                           final=config.tau * config.energy_steps)
    stepper = solver.TimeStepper(spaces, params, nitsche, grid,
                                 convection=False,
                                 solver_tol=config.solver_tolerance)
    rng = np.random.default_rng(config.seed)
    state = forms.StateVector.zero(spaces)
    for block in state.blocks:
        block.values[:] = config.energy_amplitude * rng.uniform(
            -1.0, 1.0, block.space.ndofs)
        block.values[block.space.dirichlet_dofs] = 0.0

    energies = [solver.discrete_energy(state, params, stepper.ctx)]
    for n in range(1, grid.nsteps + 1):
        state, _ = stepper.step(state, n)
        energies.append(solver.discrete_energy(state, params, stepper.ctx))

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
