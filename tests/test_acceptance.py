"""Acceptance suite: one check per shipped claim, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines;
the convergence ladders and the channel runs dominate the runtime (a few
minutes single-threaded).
"""

import numpy as np
import pytest

from fpsi import fem, forms, mesh as meshmod, solver, verification
from fpsi.forms import NitscheParams, PhysicalParams, StateVector, build_spaces
from fpsi.mesh import generate_channel, generate_structured, interface_pairs

import _fd_gates as fd_gates
from _helpers import REFERENCE_PARAMS, interpolate, record_parts
from _oracles import X, Y, convection_dense, eps_eps_dense

LEVELS = [(n, n) for n in (2, 4, 8, 16, 32)]
RATE_FLOORS = {"u_f": 1.8, "u_r": 1.8, "y_s": 1.8, "u_s": 1.8,
               "p_S": 1.5, "p_P": 1.5}


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(**REFERENCE_PARAMS)


@pytest.fixture(scope="module")
def ladder40(params):
    return verification.convergence_study(LEVELS, params,
                                          NitscheParams(gamma=40.0, varsigma=1))


@pytest.fixture(scope="module")
def ladder80(params):
    return verification.convergence_study(LEVELS, params,
                                          NitscheParams(gamma=80.0, varsigma=1))


def test_criterion_1_convergence_rates(ladder40):
    rates = {name: ladder40.mean_rate(name) for name in RATE_FLOORS}
    ok = all(rates[name] >= floor for name, floor in RATE_FLOORS.items())
    monotone = ladder40.monotone_from_second_level()
    lines = ladder40.to_csv_string().strip().splitlines()
    shape_ok = len(lines) == 6 and all(len(l.split(",")) == 14 for l in lines)
    detail = ", ".join(f"{k}={v:.2f}" for k, v in rates.items()) + \
        f", monotone={monotone}"
    _report(1, "convergence-rate reproduction", ok and monotone and shape_ok,
            detail)


def test_criterion_2_oracle_gates(params):
    # the gates raise OracleError on disagreement; tolerances are 1e-6
    # relative (sources, finite differences) and, at these parameters, 1e-8
    # absolute (corrections, interface defects) at 220 random points
    try:
        fd_gates.check_all(params)
        ok, detail = True, "220 points, 1e-6 rel / 1e-8 abs"
    except fd_gates.OracleError as exc:  # pragma: no cover
        ok, detail = False, str(exc)
    _report(2, "source/correction oracle gates", ok, detail)


def test_criterion_3_energy_decay(params):
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    mesh = generate_structured(4, 4)
    spaces = build_spaces(mesh)
    grid = solver.TimeGrid(tau=0.02, final=1.0)
    stepper = solver.TimeStepper(spaces, params, nitsche, grid,
                                 convection=False)
    rng = np.random.default_rng(0)
    state = StateVector.zero(spaces)
    for name, space in zip(forms.BLOCK_NAMES, spaces):
        block = state.block(name)
        block[:] = rng.uniform(-1.0, 1.0, space.ndofs)
        block[space.dirichlet_dofs] = 0.0
    energy = forms.energy_matrix(spaces, stepper.M, stepper.N)
    energies = [solver.discrete_energy(state, energy)]
    solver.march(stepper, state, lambda n, previous, new, report: energies.append(
        solver.discrete_energy(new, energy)))
    diffs = np.diff(energies)
    slack = 1e-10 * energies[0]
    ok = bool((diffs <= slack).all())
    _report(3, "zero-data energy decay", ok,
            f"E0={energies[0]:.3e}, E50={energies[-1]:.3e}, "
            f"max step increase={diffs.max():.3e}, slack={slack:.1e}")


def test_criterion_4_penalty_structure(params):
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    ctx = forms.AssemblyContext(spaces, params, nitsche)
    mat = forms.from_contributions(
        spaces, record_parts(ctx, forms.INTERFACE_TERMS, kernel="jump_jump"))

    asym = (mat - mat.T).tocoo()
    sym_err = np.abs(asym.data).max() if asym.nnz else 0.0
    rng = np.random.default_rng(7)
    psd = all(x @ (mat @ x) >= -1e-12 * (x @ x)
              for x in rng.normal(size=(100, mat.shape[0])))
    state = StateVector.zero(spaces)
    for name in ("u_f", "u_r", "y_s"):
        state.block(name)[0::2] = rng.normal(size=getattr(spaces, name).num_nodes)
    x = state.vector()
    kernel_ok = x @ (mat @ x) <= 1e-12 * (x @ x)
    gamma_mu = nitsche.gamma * params.mu_f
    coarse = gamma_mu / interface_pairs(generate_structured(4, 4)).h_e
    fine = gamma_mu / interface_pairs(generate_structured(8, 8)).h_e
    scaling_ok = all(abs(f / c - 2.0) <= 1e-12 for c in coarse[:1] for f in fine)
    ok = sym_err <= 1e-12 and psd and kernel_ok and scaling_ok
    _report(4, "penalty symmetry/PSD/kernel/h-scaling", ok,
            f"|P-P^T|max={sym_err:.1e}, scaling factor exact")


def test_criterion_5_single_element_oracles(params):
    mesh = generate_structured(1, 2)
    spaces = build_spaces(mesh)
    nitsche = NitscheParams()
    ctx = forms.AssemblyContext(spaces, params, nitsche)

    # P1 mass against the closed form |K|/12 [[2,1,1],[1,2,1],[1,1,2]]
    rule = fem.quadrature_rule("triangle", 6)
    phi1, _ = fem.tabulate(1, rule.points)
    geo = fem.CellGeometry(mesh, spaces.p_P.cells, rule)
    mass_err = 0.0
    for c in range(len(spaces.p_P.cells)):
        local = np.einsum("q,qi,qj->ij", geo.wdet[c], phi1, phi1)
        area = 0.5 * abs(geo.det[c])
        ref = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        mass_err = max(mass_err, np.abs(local - ref).max())

    # P2 stiffness and convection locals against the symbolic assembler
    kern = forms._Kernels(ctx)
    sp_uf = spaces.u_f
    _, _, rows, cols, vals = kern.eps_eps("u_f", "u_f", 2 * params.mu_f)
    locals_stiff = vals.reshape(len(sp_uf.cells), 12, 12)
    w = interpolate(sp_uf, lambda t, x, y:
                    np.stack([1.0 + x - 2.0 * y, x * y], axis=-1))
    locals_conv = forms._expand_components(kern.convection("u_f", w))

    stiff_err = conv_err = 0.0
    w_sym = (1 + X - 2 * Y, X * Y)
    for c in range(len(sp_uf.cells)):
        tri = [tuple(mesh.vertices[v]) for v in mesh.cells[sp_uf.cells[c]]]
        dense = np.array(eps_eps_dense(tri, 2 * params.mu_f), dtype=float)
        stiff_err = max(stiff_err, np.abs(locals_stiff[c] - dense).max())
        dense_c = np.array(convection_dense(tri, w_sym), dtype=float)
        conv_err = max(conv_err, np.abs(locals_conv[c] - dense_c).max())

    ok = mass_err <= 1e-14 and stiff_err <= 1e-12 and conv_err <= 1e-12
    _report(5, "single-element oracles", ok,
            f"mass={mass_err:.1e}, stiffness={stiff_err:.1e}, "
            f"convection={conv_err:.1e}")


def test_criterion_6_invertibility(params):
    _, loads = verification.manufactured_problem(params)
    worst = 0.0
    ok = True
    for nx in (2, 4):
        for gamma in (40.0, 80.0):
            nitsche = NitscheParams(gamma=gamma, varsigma=1)
            mesh = generate_structured(nx, nx)
            spaces = build_spaces(mesh)
            grid = solver.TimeGrid(tau=1e-3 / nx, final=2e-3 / nx)
            stepper = solver.TimeStepper(spaces, params, nitsche, grid,
                                         **loads)

            def check(n, previous, state, report):
                nonlocal worst, ok
                worst = max(worst, report.residual)
                ok = ok and not report.pinned_pressure

            try:
                solver.march(stepper, StateVector.zero(spaces), check)
            except solver.SolverError:
                ok = False
    ok = ok and worst <= 1e-9
    _report(6, "pencil factorization at desk scale", ok,
            f"worst step residual {worst:.2e} over h in {{1/2,1/4}}, "
            f"gamma in {{40,80}}")


def test_criterion_7_gamma_robustness(ladder40, ladder80):
    max_rate_gap = 0.0
    max_err_ratio = 1.0
    for name in verification.ERROR_FIELDS:
        gap = abs(ladder40.mean_rate(name) - ladder80.mean_rate(name))
        max_rate_gap = max(max_rate_gap, gap)
        e40 = ladder40.rows[-1]["errors"][name]
        e80 = ladder80.rows[-1]["errors"][name]
        max_err_ratio = max(max_err_ratio, e80 / e40, e40 / e80)
    ok = max_rate_gap <= 0.3 and max_err_ratio <= 2.0
    _report(7, "penalty-parameter robustness", ok,
            f"max rate gap {max_rate_gap:.3f} (allowed 0.3), "
            f"max error ratio {max_err_ratio:.2f} (allowed 2)")


CHANNEL_PARAMS = dict(rho_f=1.0, rho_s=1.0, mu_f=0.01, mu_p=1.0336e3,
                      lam_p=4.9364e4, phi=0.3, kappa=1e-3, K=1e6, theta=0.0,
                      alpha_bjs=1.0)


def _channel_inflow(t, x, y):
    x = np.atleast_1d(x)
    vals = np.zeros((len(x), 2))
    at_inlet = np.abs(x) < 1e-9
    yy = np.atleast_1d(y)[at_inlet]
    vals[at_inlet, 0] = 0.1 * (yy + 0.2) * (1.2 - yy)
    return vals


def test_criterion_8_channel_demo():
    params = PhysicalParams(**CHANNEL_PARAMS)
    nitsche = NitscheParams(gamma=30.0, varsigma=1)
    jumps = {}
    finite = True
    for nx, ny in ((20, 14), (40, 28)):
        mesh = generate_channel(nx, ny)
        spaces = build_spaces(mesh)
        grid = solver.TimeGrid(tau=1e-3, final=0.1)
        stepper = solver.TimeStepper(
            spaces, params, nitsche, grid,
            boundary_values={"u_f": _channel_inflow, "u_r": _channel_inflow},
            convection=True)

        def final_jump(n, previous, state, report):
            if n == grid.nsteps:
                jumps[(nx, ny)] = forms.interface_jump_seminorm(
                    stepper.ctx, previous, state, grid.tau)

        state = solver.march(stepper, StateVector.zero(spaces), final_jump)
        finite = finite and bool(np.all(np.isfinite(state.vector())))
    coarse, fine = jumps[(20, 14)], jumps[(40, 28)]
    ok = finite and fine < coarse
    _report(8, "channel demo and interface jump decay", ok,
            f"100 steps finite={finite}, jump {coarse:.3e} -> {fine:.3e}")


def test_cli_convergence_exit_zero(tmp_path):
    # full command-line path over the reference ladder: thresholds met,
    # CSV written, exit code 0
    from fpsi import cli
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text("levels = 2,4,8,16,32\n")
    out = str(tmp_path / "out")
    code = cli.main(["convergence", "--config", str(cfg), "--out", out])
    csv_lines = open(f"{out}/convergence.csv", encoding="utf-8").read().splitlines()
    ok = code == cli.EXIT_OK and len(csv_lines) == 6
    print(f"[cli] convergence exit code {code}, csv rows {len(csv_lines) - 1}")
    assert ok
