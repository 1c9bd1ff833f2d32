import math

import numpy as np
import pytest

from fpsi import fem, forms, verification
from fpsi.mesh import generate_structured
from fpsi.verification import (ERROR_FIELDS, ErrorTable, ExactSolution,
                               OracleError, derive_corrections, derive_sources,
                               exact_solution)


@pytest.fixture(scope="module")
def sol():
    return exact_solution()


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


def test_r_s_closed_form(sol, rng):
    t = rng.uniform(0.1, 1.0, 50)
    x = rng.uniform(0.0, 1.0, 50)
    y = rng.uniform(0.0, 0.5, 50)
    expected = t * x**2 * np.cos(4 * np.pi * y) * (3.0 - 8.0 * np.pi * x)
    assert np.abs(sol.div_u_f(t, x, y) - expected).max() < 1e-13


def test_derive_sources_oracle_gate(table1_params):
    derive_sources(table1_params, check=True)  # raises on disagreement


def test_derive_corrections_oracle_gate(table1_params):
    derive_corrections(table1_params, check=True)


def test_oracle_rejects_tampered_source(table1_params):
    sources = derive_sources(table1_params, check=False)
    sol = ExactSolution()
    broken = verification.SourceSet(
        f_S=lambda t, x, y: sources.f_S(t, x, y) * 1.001,
        load_u_r=sources.load_u_r, load_y_s=sources.load_y_s,
        r_S=sources.r_S, load_p_P=sources.load_p_P)
    with pytest.raises(OracleError, match=r"f_S.*\(t="):
        verification._check_sources(sol, table1_params, broken, 1, 50)


def test_oracle_rejects_tampered_correction(table1_params):
    corr = derive_corrections(table1_params, check=False)
    sol = ExactSolution()
    broken = verification.InterfaceCorrections(
        m1=corr.m1, m2=lambda t, x, y: corr.m2(t, x, y) + 1e-6,
        m3=corr.m3, m4=corr.m4, m5=corr.m5)
    with pytest.raises(OracleError, match="m2"):
        verification._check_corrections(sol, table1_params, broken, 1.0, 1, 50)


def test_m1_zero_everywhere(table1_params, rng):
    corr = derive_corrections(table1_params, check=False)
    t = rng.uniform(0.0, 2.0, 64)
    x = rng.uniform(0.0, 1.0, 64)
    assert np.abs(corr.m1(t, x, np.full_like(x, 0.5))).max() == 0.0


def test_m4_reduces_to_stress_trace_without_friction(rng):
    # with alpha = 0 the slip defect is the tangential stress trace alone,
    # which vanishes identically for this solution
    params = forms.PhysicalParams(**{**forms.REFERENCE_PARAMS, "alpha_bjs": 0.0})
    corr = derive_corrections(params, check=True)
    sol = ExactSolution()
    t = rng.uniform(0.1, 1.0, 32)
    x = rng.uniform(0.0, 1.0, 32)
    y = np.full_like(x, 0.5)
    sig = sol.stress_f_S(params, t, x, y)
    trace_tan = np.einsum("...kd,d,k->...", sig, [0.0, 1.0], [1.0, 0.0])
    # sin(2 pi) roundoff enters the stress trace scaled by mu_f
    assert np.abs(corr.m4(t, x, y) + trace_tan).max() < 1e-12


def test_m5_closed_form(table1_params, rng):
    corr = derive_corrections(table1_params, check=False)
    t = rng.uniform(0.1, 1.0, 32)
    x = rng.uniform(0.0, 1.0, 32)
    expected = table1_params.mu_f * table1_params.alpha_bjs * t * x**3
    assert np.abs(corr.m5(t, x, np.full_like(x, 0.5)) - expected).max() < 1e-14


def test_sources_require_constant_coefficients():
    params = forms.PhysicalParams(
        **{**forms.REFERENCE_PARAMS, "phi": lambda x, y: 0.1 + 0.0 * x})
    with pytest.raises(OracleError, match="constant"):
        derive_sources(params)


def test_interpolation_error_baseline(table1_params, sol):
    # nodal interpolants of the exact fields: L2 rates ~ degree + 1
    errors = {name: [] for name, _, _ in sol.fields()}
    levels = (8, 16, 32)
    for nx in levels:
        mesh = generate_structured(nx, nx)
        spaces = forms.build_spaces(mesh)
        for (name, value, grad), space in zip(sol.fields(), spaces):
            f = fem.interpolate(space, value, 1.0)
            l2, _ = fem.error_norms(f, value, 1.0, grad)
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


def test_csv_output_deterministic(table1_params, nitsche_default):
    t1 = verification.convergence_study([(2, 2)], table1_params,
                                        nitsche_default)
    t2 = verification.convergence_study([(2, 2)], table1_params,
                                        nitsche_default)
    assert t1.to_csv_string() == t2.to_csv_string()
