import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

from fpsi import fem, forms, solver, verification
from fpsi.forms import NitscheParams, PhysicalParams, StateVector, build_spaces
from fpsi.mesh import generate_structured
from fpsi.solver import (NonFiniteSolutionError, SingularSystemError,
                         SolverError, TimeGrid, TimeStepper, discrete_energy,
                         solve_linear)


def test_time_grid_consistency():
    grid = TimeGrid(tau=5e-4, final=1e-3)
    assert grid.nsteps == 2
    assert abs(grid.time_at(2) - 1e-3) < 1e-15
    with pytest.raises(ValueError, match="integer multiple"):
        TimeGrid(tau=3e-4, final=1e-3)
    with pytest.raises(ValueError, match="positive"):
        TimeGrid(tau=-1e-4, final=1e-3)


def test_solve_identity():
    b = np.array([2.0, -3.0, 0.5])
    x, res = solve_linear(sparse.identity(3, format="csr"), b)
    assert np.allclose(x, b)
    assert res < 1e-15


def test_solve_2x2_hand_case():
    mat = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, res = solve_linear(mat, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0])
    assert res <= 1e-9


def test_solve_singular_reported():
    mat = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        solve_linear(mat, np.array([1.0, 1.0]))


@pytest.fixture(scope="module")
def small_setup():
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    return mesh, spaces, params, nitsche


def test_zero_data_gives_zero_states(small_setup):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=5e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid)
    state = StateVector.zero(spaces)
    for n in range(1, grid.nsteps + 1):
        state, report = stepper.step(state, n)
        assert np.abs(state.vector()).max() < 1e-12
        assert report.residual <= 1e-9


def test_determinism_bit_identical(small_setup):
    mesh, spaces, params, nitsche = small_setup
    sol = verification.ExactSolution()
    sources = verification.derive_sources(params, check=False)
    corr = verification.derive_corrections(params, check=False)

    def one_run():
        grid = TimeGrid(tau=5e-4, final=1e-3)
        stepper = TimeStepper(
            spaces, params, nitsche, grid, sources=sources, corrections=corr,
            boundary_values=verification.manufactured_boundary_values(sol))
        state = StateVector.zero(spaces)
        out = []
        for n in range(1, grid.nsteps + 1):
            state, _ = stepper.step(state, n)
            out.append(state.vector().copy())
        return out

    a, b = one_run(), one_run()
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


def test_dirichlet_values_exact_on_boundary(small_setup):
    mesh, spaces, params, nitsche = small_setup
    sol = verification.ExactSolution()
    sources = verification.derive_sources(params, check=False)
    corr = verification.derive_corrections(params, check=False)
    grid = TimeGrid(tau=5e-4, final=1e-3)
    bvals = verification.manufactured_boundary_values(sol)
    stepper = TimeStepper(spaces, params, nitsche, grid, sources=sources,
                          corrections=corr, boundary_values=bvals)
    state = StateVector.zero(spaces)
    for n in range(1, grid.nsteps + 1):
        state, _ = stepper.step(state, n)
    for name in ("u_f", "u_r", "y_s"):
        space = state.block(name).space
        got = state.block(name).values[space.dirichlet_dofs]
        want = space.dirichlet_values(bvals[name], state.time)
        assert np.array_equal(got, want)  # elimination is exact, not approximate


def test_one_step_sanity_against_interpolants():
    # coarse single step: velocities and displacement within 10x of the
    # interpolated exact fields; the algebraic pressures stay finite (their
    # coarse-level response is orders above the tiny exact pressure)
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    sol = verification.ExactSolution()
    sources = verification.derive_sources(params, check=False)
    corr = verification.derive_corrections(params, check=False)
    grid = TimeGrid(tau=5e-4, final=5e-4)
    stepper = TimeStepper(spaces, params, nitsche, grid, sources=sources,
                          corrections=corr,
                          boundary_values=verification.manufactured_boundary_values(sol))
    state, _ = stepper.step(StateVector.zero(spaces), 1)
    assert np.all(np.isfinite(state.vector()))
    for name, value, grad in sol.fields():
        block = state.block(name)
        if name in ("p_S", "p_P"):
            continue
        err, _ = fem.error_norms(block, value, state.time, grad)
        interp = fem.interpolate(block.space, value, state.time)
        ierr, _ = fem.error_norms(interp, value, state.time, grad)
        norm = fem.field_l2_norm(interp)
        assert err <= 10.0 * max(ierr, 0.1 * norm), name


def _direct_step(stepper, state_prev, n):
    """One step's system built in full and solved with a fresh factor."""
    spaces = stepper.spaces
    t_n = stepper.grid.time_at(n)
    operator = stepper.M.matrix / stepper.grid.tau + stepper.N.matrix
    conv = forms.assemble_convection(spaces.u_f, state_prev.block("u_f"),
                                     stepper.ctx) if stepper.convection else None
    if conv is not None:
        operator = operator + forms.BlockSystem.from_contributions(
            spaces, [conv]).matrix
    rhs = (forms.assemble_F(spaces, stepper.sources, t_n,
                            corrections=stepper.corrections, ctx=stepper.ctx)
           + stepper.M.matrix / stepper.grid.tau @ state_prev.vector())
    system = fem.apply_dirichlet(forms.BlockSystem(spaces, operator, rhs),
                                 spaces, stepper.boundary_values, t_n)
    return solve_linear(system.matrix, system.rhs)[0]


def test_reused_factor_matches_direct_solve(small_setup):
    # the stepper's reused factor against a freshly factored one-shot system:
    # bit-identical while the operator is the factored one, to 1e-10 once
    # convection changes it
    mesh, spaces, params, nitsche = small_setup
    sol = verification.ExactSolution()
    sources = verification.derive_sources(params, check=False)
    corr = verification.derive_corrections(params, check=False)
    grid = TimeGrid(tau=5e-4, final=2e-3)
    for convection in (False, True):
        stepper = TimeStepper(
            spaces, params, nitsche, grid, sources=sources, corrections=corr,
            boundary_values=verification.manufactured_boundary_values(sol),
            convection=convection)
        state = StateVector.zero(spaces)
        for n in range(1, grid.nsteps + 1):
            want = _direct_step(stepper, state, n)
            state, report = stepper.step(state, n)
            assert report.factorized == (n == 1)
            if convection and n > 1:
                err = (np.linalg.norm(state.vector() - want)
                       / np.linalg.norm(want))
                assert err <= 1e-10
            else:
                assert np.array_equal(state.vector(), want)


def _counting_splu(monkeypatch):
    calls = {"n": 0}
    original = spla.splu

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def test_constant_operator_factors_once(small_setup, monkeypatch):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=5e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid, convection=False)
    calls = _counting_splu(monkeypatch)
    state = StateVector.zero(spaces)
    state.block("u_f").values[:] = 1.0
    factorized = []
    for n in range(1, grid.nsteps + 1):
        state, report = stepper.step(state, n)
        factorized.append(report.factorized)
    assert calls["n"] == 1
    assert factorized == [True, False, False, False, False]


def test_strong_convection_refactors(monkeypatch):
    # a fast flow and a long time step make the convection dominate the
    # factored M / tau + N, so defect correction with that factor diverges
    mesh = generate_structured(4, 4)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    grid = TimeGrid(tau=0.1, final=0.2)
    stepper = TimeStepper(spaces, params, nitsche, grid, convection=True)
    state, report = stepper.step(StateVector.zero(spaces), 1)
    assert report.factorized
    state.block("u_f").values[:] = 100.0
    want = _direct_step(stepper, state, 2)
    calls = _counting_splu(monkeypatch)
    new, report = stepper.step(state, 2)
    assert calls["n"] == 1
    assert report.factorized
    assert report.residual <= stepper.solver_tol
    err = np.linalg.norm(new.vector() - want) / np.linalg.norm(want)
    assert err <= 1e-10


def test_singularity_kind_from_superlu_message(monkeypatch):
    # the kind is read from SuperLU's message: "exactly singular" is
    # reported as structural, whether a row is empty or the matrix is rank
    # deficient; any other factorization failure is reported as numerical
    rhs = np.array([1.0, 1.0])
    for dense in ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]):
        with pytest.raises(SingularSystemError,
                           match=r"\(structural singularity\).*exactly singular"):
            solve_linear(sparse.csr_matrix(np.array(dense)), rhs)

    def failing(matrix):
        raise RuntimeError("not enough memory")

    monkeypatch.setattr(spla, "splu", failing)
    with pytest.raises(SingularSystemError,
                       match=r"\(numerical singularity\).*not enough memory"):
        solve_linear(sparse.identity(2, format="csr"), rhs)


def test_nan_load_names_step_and_remedy(small_setup, monkeypatch):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=2e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid)
    state, _ = stepper.step(StateVector.zero(spaces), 1)
    monkeypatch.setattr(forms, "assemble_F",
                        lambda spaces, *args, **kwargs: np.full(
                            sum(sp.ndofs for sp in spaces), np.nan))
    with pytest.raises(NonFiniteSolutionError,
                       match=r"step 2 \(t=0\.002\).*check the loads"):
        stepper.step(state, 2)


def test_residual_failure_names_step_and_remedy(small_setup):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=1e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid, solver_tol=0.0)
    state = StateVector.zero(spaces)
    state.block("u_f").values[:] = 1.0
    with pytest.raises(SolverError,
                       match=r"step 1 \(t=0\.001\).*exceeds tolerance.*"
                             r"smaller time step"):
        stepper.step(state, 1)


def test_pressure_pin_fallback(small_setup, monkeypatch):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=1e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid)
    calls = {"n": 0}
    original = solver.solve_linear

    def flaky(matrix, rhs, tol=1e-9, factor=None):
        if calls["n"] == 0:
            calls["n"] += 1
            raise SingularSystemError("injected failure")
        return original(matrix, rhs, tol, factor)

    monkeypatch.setattr(solver, "solve_linear", flaky)
    state, report = stepper.step(StateVector.zero(spaces), 1)
    assert report.pinned_pressure
    assert np.all(np.isfinite(state.vector()))

    stepper_strict = TimeStepper(spaces, params, nitsche, grid,
                                 pin_pressure_fallback=False)
    calls["n"] = 0
    with pytest.raises(SingularSystemError, match="gamma"):
        stepper_strict.step(StateVector.zero(spaces), 1)


def test_pin_decided_once_per_factor(small_setup, monkeypatch):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=3e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid)
    calls = _counting_splu(monkeypatch)
    counting = spla.splu

    def singular_once(matrix):
        if calls["n"] == 0:
            calls["n"] += 1
            raise RuntimeError("Factor is exactly singular")
        return counting(matrix)

    monkeypatch.setattr(spla, "splu", singular_once)
    state = StateVector.zero(spaces)
    reports = []
    for n in range(1, grid.nsteps + 1):
        state, report = stepper.step(state, n)
        reports.append(report)
    assert calls["n"] == 2  # the failed factorization and the pinned one
    assert [r.pinned_pressure for r in reports] == [True, True, True]
    assert [r.factorized for r in reports] == [True, False, False]
    assert state.block("p_S").values[0] == 0.0

# --- discrete energy -------------------------------------------------------------

def test_energy_zero_state(small_setup, table1_params):
    mesh, spaces, params, nitsche = small_setup
    assert discrete_energy(StateVector.zero(spaces), table1_params) == 0.0


def test_energy_unit_pore_pressure(small_setup, table1_params):
    mesh, spaces, params, nitsche = small_setup
    state = StateVector.zero(spaces)
    state.block("p_P").values[:] = 1.0
    # 1/2 (1 - phi)^2 / K over |Omega_P| = 1/2 * 0.81 * 0.5
    assert abs(discrete_energy(state, table1_params) - 0.2025) < 1e-14


def test_energy_sign_flip_invariance(small_setup, table1_params, rng):
    mesh, spaces, params, nitsche = small_setup
    state = StateVector.zero(spaces)
    for block in state.blocks:
        block.values[:] = rng.normal(size=block.space.ndofs)
    flipped = StateVector([fem.FieldCoefficients(b.space, -b.values)
                           for b in state.blocks])
    e1 = discrete_energy(state, table1_params)
    e2 = discrete_energy(flipped, table1_params)
    assert abs(e1 - e2) < 1e-12 * max(1.0, e1)


def test_time_refinement_keeps_spatial_error_dominant():
    # halving tau moves the final-time errors by less than the error itself
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    sol = verification.ExactSolution()
    sources = verification.derive_sources(params, check=False)
    corr = verification.derive_corrections(params, check=False)
    mesh = generate_structured(4, 4)
    spaces = build_spaces(mesh)
    errs = {}
    for tau in (2.5e-4, 1.25e-4):
        grid = TimeGrid(tau=tau, final=1e-3)
        stepper = TimeStepper(
            spaces, params, nitsche, grid, sources=sources, corrections=corr,
            boundary_values=verification.manufactured_boundary_values(sol))
        state = StateVector.zero(spaces)
        for n in range(1, grid.nsteps + 1):
            state, _ = stepper.step(state, n)
        errs[tau], _ = verification.final_time_errors(state, sol)
    for name in verification.ERROR_FIELDS:
        delta = abs(errs[2.5e-4][name] - errs[1.25e-4][name])
        assert delta < errs[2.5e-4][name], name
