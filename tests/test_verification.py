import math

import numpy as np
import pytest

from fpsi import fem, forms, verification
from fpsi.mesh import generate_structured
from fpsi.verification import (ERROR_FIELDS, ErrorTable, derive_corrections,
                               derive_sources)

import _fd_gates as fd_gates
from _fd_gates import ExactStresses, OracleError
from _helpers import REFERENCE_PARAMS, interpolate


@pytest.fixture(scope="module")
def sol():
    return ExactStresses()


def test_u_f_corner_value(sol):
    val = sol.u_f(1.0, np.array([1.0]), np.array([0.0]))
    assert np.allclose(val, [[1.0, 0.0]])


def test_p_s_origin_value(sol):
    for t in (0.3, 1.0, 2.5):
        val = sol.p_S(t, np.array([0.0]), np.array([0.0]))
        assert abs(val[0] - t**2) < 1e-15


def test_solid_velocity_is_displacement_rate(sol, rng):
    t = rng.uniform(0.05, 2.0, 100)
    x = rng.uniform(0.0, 1.0, 100)
    y = rng.uniform(0.5, 1.0, 100)
    assert np.abs(sol.u_s(t, x, y) - sol.dt_y_s(t, x, y)).max() == 0.0


def test_point_forms_double_angle_factors(rng):
    y = rng.uniform(0.0, 1.0, 500)
    p = verification.PointForms(rng.uniform(0.0, 1.0, 500), y)
    assert np.abs(p.c8 - np.cos(8.0 * math.pi * y)).max() <= 4e-15
    assert np.abs(p.s8 - np.sin(8.0 * math.pi * y)).max() <= 4e-15


def test_r_s_closed_form(rng):
    t = rng.uniform(0.1, 1.0, 50)
    x = rng.uniform(0.0, 1.0, 50)
    y = rng.uniform(0.0, 0.5, 50)
    expected = t * x**2 * np.cos(4 * np.pi * y) * (3.0 - 8.0 * np.pi * x)
    got = verification.PointForms(x, y).vel_div(t)
    assert np.abs(got - expected).max() < 1e-13


def test_derive_sources_oracle_gate(table1_params):
    sol = ExactStresses()
    fd_gates.check_derivatives(sol)  # raises on disagreement
    fd_gates.check_sources(sol, table1_params, derive_sources(table1_params))


def test_derive_corrections_oracle_gate(table1_params):
    fd_gates.check_corrections(ExactStresses(), table1_params,
                               derive_corrections(table1_params), 1.0)


def test_oracle_rejects_tampered_source(table1_params):
    sources = derive_sources(table1_params)
    sol = ExactStresses()
    broken = verification.SourceSet(
        f_S=lambda t, x, y: sources.f_S(t, x, y) * 1.001,
        load_u_r=sources.load_u_r, load_y_s=sources.load_y_s,
        r_S=sources.r_S, load_p_P=sources.load_p_P)
    with pytest.raises(OracleError, match=r"f_S.*\(t="):
        fd_gates.check_sources(sol, table1_params, broken)


def test_oracle_rejects_tampered_correction(table1_params):
    corr = derive_corrections(table1_params)
    sol = ExactStresses()
    broken = verification.InterfaceCorrections(
        m1=corr.m1, m2=lambda t, x, y: corr.m2(t, x, y) + 1e-6,
        m3=corr.m3, m4=corr.m4, m5=corr.m5)
    with pytest.raises(OracleError, match="m2"):
        fd_gates.check_corrections(sol, table1_params, broken, 1.0)


def test_correction_gate_scales_with_the_defect_terms():
    # at mu_f = 1e9 the tractions reach ~4e10 and the correct m2 misses a
    # 1e-8 gate by rounding alone (~1.5e-5); the gate, 1e-13 of the largest
    # term (~4.4e-3), passes it and still refuses m2 off by 1e-2
    params = forms.PhysicalParams(**{**REFERENCE_PARAMS, "mu_f": 1e9})
    corr = derive_corrections(params)
    broken = verification.InterfaceCorrections(
        m1=corr.m1, m2=lambda t, x, y: corr.m2(t, x, y) + 1e-2,
        m3=corr.m3, m4=corr.m4, m5=corr.m5)
    with pytest.raises(OracleError, match=r"m2.*above the gate 4\.4e-03"):
        fd_gates.check_corrections(ExactStresses(), params, broken, 1.0)


def test_m1_zero_everywhere(table1_params, rng):
    corr = derive_corrections(table1_params)
    t = rng.uniform(0.0, 2.0, 64)
    x = rng.uniform(0.0, 1.0, 64)
    assert np.abs(corr.m1(t, x, np.full_like(x, 0.5))).max() == 0.0


def test_m4_reduces_to_stress_trace_without_friction(rng):
    # with alpha = 0 the slip defect is the tangential stress trace alone,
    # which vanishes identically for this solution
    params = forms.PhysicalParams(**{**REFERENCE_PARAMS, "alpha_bjs": 0.0})
    corr = derive_corrections(params)
    sol = ExactStresses()
    t = rng.uniform(0.1, 1.0, 32)
    x = rng.uniform(0.0, 1.0, 32)
    y = np.full_like(x, 0.5)
    sig = sol.stress_f_S(params, t, x, y)
    trace_tan = np.einsum("...kd,d,k->...", sig, [0.0, 1.0], [1.0, 0.0])
    # sin(2 pi) roundoff enters the stress trace scaled by mu_f
    assert np.abs(corr.m4(t, x, y) + trace_tan).max() < 1e-12


def test_m5_closed_form(table1_params, rng):
    corr = derive_corrections(table1_params)
    t = rng.uniform(0.1, 1.0, 32)
    x = rng.uniform(0.0, 1.0, 32)
    expected = table1_params.mu_f * table1_params.alpha_bjs * t * x**3
    assert np.abs(corr.m5(t, x, np.full_like(x, 0.5)) - expected).max() < 1e-14


def _permeability_params(kappa):
    return forms.PhysicalParams(**{**REFERENCE_PARAMS, "kappa": kappa})


@pytest.mark.parametrize("kappa", [1e-4, 1e-8])
def test_corrections_pass_their_gate_below_unit_permeability(kappa):
    params = _permeability_params(kappa)
    fd_gates.check_corrections(ExactStresses(), params,
                               derive_corrections(params), kappa)


def test_m5_matches_symbolic_slip_defect(rng):
    # m5 = -(sigma_fP n_P) . tau - mu_f alpha / sqrt(kappa_tt) u_r . tau on
    # y = 1/2, from the exact fields by sympy
    import sympy as sp
    t, x, y = sp.symbols("t x y")
    params = _permeability_params(1e-4)
    mu_f, phi = params.mu_f, params.phi
    c, s = sp.cos(4 * sp.pi * y), sp.sin(4 * sp.pi * y)
    u_s = sp.Matrix([t * x**3 * c, -2 * t * x**3 * s])
    u_r = sp.Matrix([t**2 * s**2 - t * x**3 * c, t**2 * s**2 + 2 * t * x**3 * s])
    p_p = t**2 * (1 - sp.sin(4 * sp.pi * x) * s)
    grad = (u_r + u_s).jacobian([x, y])
    sigma = mu_f * phi * (grad + grad.T) - phi * p_p * sp.eye(2)
    n_p, tangent = sp.Matrix([0, -1]), sp.Matrix([1, 0])
    defect = (-(sigma * n_p).dot(tangent)
              - mu_f * params.alpha_bjs / sp.sqrt(params.kappa[0, 0])
              * u_r.dot(tangent))
    oracle = sp.lambdify((t, x), defect.subs(y, sp.Rational(1, 2)), "numpy")
    tt, xx = rng.uniform(0.1, 1.0, 64), rng.uniform(0.0, 1.0, 64)
    got = derive_corrections(params).m5(tt, xx, np.full_like(xx, 0.5))
    want = oracle(tt, xx)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("change", [
    {"kappa": 1e-4},
    {"kappa": 1e-6 * np.array([[2.0, 0.5], [0.5, 1.0]])},
    {"theta": -5.0},
], ids=["kappa 1e-4", "anisotropic kappa 1e-6", "theta -5"])
def test_ladder_converges_off_the_reference_set(change, nitsche_default):
    # an anisotropic Darcy tensor and a sink, each large enough that the
    # ladder sees them: dropping the off-diagonal of kappa^-1 takes the last
    # u_r rate to about 0, dropping the sink on (u_r, u_r) or (y_s, y_s)
    # makes every rate negative; at kappa = [[2, .5], [.5, 1]] or
    # theta = -0.5 neither would move a rate below 1.8
    params = forms.PhysicalParams(**{**REFERENCE_PARAMS, **change})
    table = verification.convergence_study([(2, 2), (4, 4), (8, 8)], params,
                                           nitsche_default)
    last = table.rates()[-1]
    assert all(last[name] >= 1.8 for name in ERROR_FIELDS), last


def test_interpolation_error_baseline(table1_params, sol):
    # nodal interpolants of the exact fields: L2 rates ~ degree + 1
    errors = {name: [] for name, _, _ in sol.fields()}
    levels = (8, 16, 32)
    for nx in levels:
        mesh = generate_structured(nx, nx)
        spaces = forms.build_spaces(mesh)
        for (name, value, grad), space in zip(sol.fields(), spaces):
            f = interpolate(space, value, 1.0)
            l2, _ = fem.error_norms(space, f, value, 1.0, grad, fem.norm_tables(space))
            errors[name].append(l2)
    for (name, _, _), space in zip(sol.fields(), forms.build_spaces(
            generate_structured(2, 2))):
        e = errors[name]
        rate = math.log(e[-2] / e[-1]) / math.log(2.0)
        floor = 2.9 if space.degree == 2 else 1.9
        assert rate >= floor, f"{name}: interpolation rate {rate:.2f}"


def test_error_table_rate_formula():
    table = ErrorTable()
    errs = dict.fromkeys(ERROR_FIELDS, 4e-4)
    table.add_row(100, 0.5, errs)
    table.add_row(400, 0.25, dict.fromkeys(ERROR_FIELDS, 1e-4))
    rates = table.rates()
    assert rates[0]["u_f"] is None
    assert abs(rates[1]["u_f"] - 2.0) < 1e-12


def test_error_table_single_row_no_rates():
    table = ErrorTable()
    table.add_row(100, 0.5, dict.fromkeys(ERROR_FIELDS, 1e-3))
    csv_text = table.to_csv_string()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[:2] == ["dofs", "h"]
    assert len(lines[0].split(",")) == 14


def test_error_table_csv_shape():
    table = ErrorTable()
    for i, h in enumerate((0.5, 0.25, 0.125, 0.0625, 0.03125)):
        table.add_row(100 * (i + 1), h,
                      {k: 10.0**(-i - j) for j, k in enumerate(ERROR_FIELDS)})
    lines = table.to_csv_string().strip().splitlines()
    assert len(lines) == 6
    assert all(len(line.split(",")) == 14 for line in lines)


def test_error_table_monotonicity_helper():
    table = ErrorTable()
    vals = [1.0, 2.0, 1.0, 0.5]  # rises level 0 -> 1, falls afterwards
    for i, v in enumerate(vals):
        table.add_row(10, 0.5**i, dict.fromkeys(ERROR_FIELDS, v))
    assert table.monotone_from_second_level()
    table2 = ErrorTable()
    for i, v in enumerate([1.0, 0.5, 0.7, 0.1]):
        table2.add_row(10, 0.5**i, dict.fromkeys(ERROR_FIELDS, v))
    assert not table2.monotone_from_second_level()


def test_convergence_study_rejects_nonrefining(table1_params, nitsche_default):
    with pytest.raises(ValueError, match="refine"):
        verification.convergence_study([(4, 4), (4, 4)], table1_params,
                                       nitsche_default)


def test_convergence_study_single_level(table1_params, nitsche_default):
    table = verification.convergence_study([(2, 2)], table1_params,
                                           nitsche_default)
    assert len(table.rows) == 1
    assert table.rates()[0]["u_f"] is None
    assert all(np.isfinite(v) for v in table.rows[0]["errors"].values())


def test_single_level_has_no_mean_rate(table1_params, nitsche_default):
    table = verification.convergence_study([(2, 2)], table1_params,
                                           nitsche_default)
    with pytest.raises(ValueError, match=r"u_f in a table of 1 level.*"
                                         r"two strictly refining levels"):
        table.mean_rate("u_f")


def test_manufactured_problem_loads(table1_params):
    # the exact solution's u_f, u_r and y_s are the Dirichlet data, and the
    # derived sources and corrections ride along as TimeStepper keywords
    sol, loads = verification.manufactured_problem(table1_params)
    assert set(loads) == {"sources", "corrections", "boundary_values"}
    assert set(loads["boundary_values"]) == {"u_f", "u_r", "y_s"}
    x, y = np.array([0.25, 0.75]), np.array([0.2, 0.9])
    for name, fn in loads["boundary_values"].items():
        assert np.array_equal(fn(0.5, x, y), getattr(sol, name)(0.5, x, y))
    assert isinstance(loads["sources"], verification.SourceSet)
    assert isinstance(loads["corrections"], verification.InterfaceCorrections)


def test_csv_output_deterministic(table1_params, nitsche_default):
    t1 = verification.convergence_study([(2, 2)], table1_params,
                                        nitsche_default)
    t2 = verification.convergence_study([(2, 2)], table1_params,
                                        nitsche_default)
    assert t1.to_csv_string() == t2.to_csv_string()


def _einsum_error_norms(space, values, exact, time, exact_grad):
    """``fem.error_norms`` as it was: four einsums on a fresh geometry."""
    rule = fem.quadrature_rule("triangle", 2 * space.degree + 2)
    phi, dphi = fem.tabulate(space.degree, rule.points)
    geo = fem.CellGeometry(space.mesh, space.cells, rule)
    grads = geo.physical_grads(dphi)
    x, y = geo.x[..., 0].ravel(), geo.x[..., 1].ravel()
    nc, nq = geo.wdet.shape
    k = space.components
    cvals = values.reshape(space.num_nodes, k)[space.cell_dofs]
    uh = np.einsum("ql,clk->cqk", phi, cvals)
    guh = np.einsum("cqld,clk->cqkd", grads, cvals)
    ue = np.asarray(exact(time, x, y), dtype=float).reshape(nc, nq, k)
    ge = np.asarray(exact_grad(time, x, y), dtype=float).reshape(nc, nq, k, 2)
    l2 = np.einsum("cq,cqk->", geo.wdet, (uh - ue) ** 2)
    h1 = np.einsum("cq,cqkd->", geo.wdet, (guh - ge) ** 2)
    return math.sqrt(l2), math.sqrt(h1)


@pytest.mark.parametrize("nx", [4, 8])
def test_final_time_errors_match_einsum_reference(sol, rng, nx):
    # shared quadrature tables and matrix products against the einsum form,
    # on interpolants of the exact fields with random nodal errors
    spaces = forms.build_spaces(generate_structured(nx, nx))
    state = forms.StateVector.zero(spaces, time=0.7)
    for name, value, _ in sol.fields():
        space = getattr(spaces, name)
        state.block(name)[:] = (interpolate(space, value, 0.7)
                                + 1e-3 * rng.standard_normal(space.ndofs))
    l2, h1 = verification.final_time_errors(state, sol)
    for name, value, grad in sol.fields():
        want = _einsum_error_norms(getattr(spaces, name), state.block(name), value,
                                   0.7, grad)
        for got, ref in zip((l2[name], h1[name]), want):
            assert abs(got - ref) <= 1e-13 * ref, name
