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


class _CountingFactor:
    """A SuperLU factor whose triangular solves are counted."""

    def __init__(self, lu, counts):
        self._lu, self._counts = lu, counts

    def solve(self, rhs):
        self._counts["solves"] += 1
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _counting_solves(monkeypatch):
    counts = {"solves": 0, "factored": []}
    original = spla.splu

    def counting(matrix, **kwargs):
        counts["factored"].append(matrix)
        return _CountingFactor(original(matrix, **kwargs), counts)

    monkeypatch.setattr(spla, "splu", counting)
    return counts


def _manufactured_stepper(nx, final, convection):
    mesh = generate_structured(nx, nx)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    sol = verification.ExactSolution()
    return TimeStepper(
        spaces, params, NitscheParams(gamma=40.0, varsigma=1),
        TimeGrid(tau=1e-3 / nx, final=final),
        sources=verification.derive_sources(params, check=False),
        corrections=verification.derive_corrections(params, check=False),
        boundary_values=verification.manufactured_boundary_values(sol),
        convection=convection)


def test_convective_step_is_two_triangular_solves(monkeypatch):
    # the first step solves directly and sets the factor's floor; every
    # convective step then stops its defect correction at that floor after
    # one pass, and a convection-off step is one solve
    counts = _counting_solves(monkeypatch)
    for convection, per_step in ((True, 2), (False, 1)):
        stepper = _manufactured_stepper(4, 2e-3, convection)
        state = StateVector.zero(stepper.spaces)
        solves = []
        for n in range(1, stepper.grid.nsteps + 1):
            before = counts["solves"]
            state, report = stepper.step(state, n)
            solves.append(counts["solves"] - before)
            assert report.factorized == (n == 1)
        assert solves == [1] + [per_step] * (stepper.grid.nsteps - 1)
        assert stepper._factor.floor is not None
        assert report.residual <= solver.FLOOR_FACTOR * stepper._factor.floor


def test_factored_matrix_holds_no_stored_zeros(monkeypatch):
    # the matrix handed to splu is exactly the eliminated M / tau + N, even
    # though the per-step matrices carry the convection pattern's zeros
    counts = _counting_solves(monkeypatch)
    stepper = _manufactured_stepper(4, 1e-3, True)
    state = StateVector.zero(stepper.spaces)
    for n in range(1, stepper.grid.nsteps + 1):
        state, _ = stepper.step(state, n)
    dofs, _ = fem.dirichlet_data(stepper.M, stepper.spaces,
                                 stepper.boundary_values, 0.0)
    want, _ = fem.eliminate_matrix(
        stepper.M.matrix * (1.0 / stepper.grid.tau) + stepper.N.matrix, dofs)
    assert len(counts["factored"]) == 1
    assert counts["factored"][0].nnz == want.nnz
    # a refactor of a step's own operator drops its stored zeros too
    state.block("u_f").values[:] = 1e4
    stepper.step(state, stepper.grid.nsteps + 1)
    refactored = counts["factored"][-1]
    assert len(counts["factored"]) == 2
    assert refactored.nnz == np.count_nonzero(refactored.data)


def test_dissected_factor_cuts_fill_at_the_floor():
    # the first step at nx=16 factors the eliminated operator in nested-
    # dissection order: at most 0.75 of the L + U fill of SuperLU's default
    # (COLAMD, partial pivoting) on the same matrix, and its direct solve
    # still reaches a 1e-10 precision floor
    stepper = _manufactured_stepper(16, 1e-3 / 16, True)
    stepper.step(StateVector.zero(stepper.spaces), 1)
    factor = stepper._factor
    default = spla.splu(factor.csc)
    fill = factor.lu.L.nnz + factor.lu.U.nnz
    assert fill <= 0.75 * (default.L.nnz + default.U.nnz)
    assert factor.floor <= 1e-10


def test_saddle_point_with_zero_block_solves(rng):
    # [[A, B^T], [B, 0]] has a zero diagonal block, like p_S: the pivots
    # there come off the diagonal, and the solve stays at rounding level
    k, m = 20, 60
    d = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
    eye = sparse.identity(k)
    a = sparse.kron(eye, d) + sparse.kron(d, eye) + 0.1 * sparse.identity(k * k)
    b = sparse.random(m, k * k, density=0.01, random_state=rng)
    b = b + sparse.csr_matrix((np.ones(m), (np.arange(m), 5 * np.arange(m))),
                              shape=(m, k * k))
    matrix = sparse.bmat([[a, b.T], [b, None]], format="csr")
    rhs = rng.normal(size=k * k + m)
    factor = solver.Factor(matrix)
    x, res = solve_linear(matrix, rhs, factor=factor)
    assert res <= 1e-12
    assert factor.floor == res
    want = np.linalg.solve(matrix.toarray(), rhs)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def _assert_same_entries(got, want):
    # copies: the stepper's matrices share their index arrays
    got, want = sparse.csr_matrix(got, copy=True), sparse.csr_matrix(want, copy=True)
    got.eliminate_zeros()
    want.eliminate_zeros()
    assert np.array_equal((got != 0).toarray(), (want != 0).toarray())
    diff = np.abs((got - want).toarray())
    assert np.all(diff <= 1e-15 * np.abs(want.toarray()))


def _convection_reference(stepper, operator, conv, dofs):
    full = operator + forms.BlockSystem.from_contributions(
        stepper.spaces, [conv]).matrix
    return full, fem.eliminate_matrix(full, dofs)[0]


def test_fixed_pattern_matches_sparse_sum(monkeypatch, rng):
    stepper = _manufactured_stepper(2, 1e-3, True)
    stepper.step(StateVector.zero(stepper.spaces), 1)
    u_f = rng.normal(size=stepper.spaces.u_f.ndofs)
    conv = forms.assemble_convection(stepper.spaces.u_f, u_f, stepper.ctx)
    dofs, _ = fem.dirichlet_data(stepper.M, stepper.spaces, {}, 0.0)
    operator = stepper.M.matrix * (1.0 / stepper.grid.tau) + stepper.N.matrix
    for got, want in zip(stepper._update.matrices(conv[4]),
                         _convection_reference(stepper, operator, conv, dofs)):
        _assert_same_entries(got, want)

    # an operator storing nothing in the u_f block, so every nonzero of C
    # lies where the operator holds no entry
    in_uf = np.zeros(operator.shape[0], dtype=bool)
    in_uf[:stepper.spaces.u_f.ndofs] = True
    coo = operator.tocoo()
    drop = in_uf[coo.row] & in_uf[coo.col]
    thinned = sparse.csr_matrix((coo.data[~drop], (coo.row[~drop], coo.col[~drop])),
                                shape=operator.shape)
    _, keep = fem.eliminate_matrix(thinned, dofs)
    rows, cols = stepper.ctx.vec_pattern(stepper.spaces.u_f)
    update = solver._ConvectionUpdate(thinned, keep, rows, cols)
    for got, want in zip(update.matrices(conv[4]),
                         _convection_reference(stepper, thinned, conv, dofs)):
        _assert_same_entries(got, want)

    # after a pressure pin the pattern is rebuilt with the pinned dof
    pinned = _manufactured_stepper(2, 1e-3, True)
    original = spla.splu
    failures = iter([True])

    def singular_once(matrix, **kwargs):
        if next(failures, False):
            raise RuntimeError("Factor is exactly singular")
        return original(matrix, **kwargs)

    monkeypatch.setattr(spla, "splu", singular_once)
    _, report = pinned.step(StateVector.zero(pinned.spaces), 1)
    assert report.pinned_pressure
    pin_dofs = np.append(dofs, pinned.M.offsets[forms.BLOCK_NAMES.index("p_S")])
    for got, want in zip(pinned._update.matrices(conv[4]),
                         _convection_reference(pinned, operator, conv, pin_dofs)):
        _assert_same_entries(got, want)


def test_singularity_kind_from_superlu_message(monkeypatch):
    # the kind is read from SuperLU's message: "exactly singular" is
    # reported as structural, whether a row is empty or the matrix is rank
    # deficient; any other factorization failure is reported as numerical
    rhs = np.array([1.0, 1.0])
    for dense in ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]):
        with pytest.raises(SingularSystemError,
                           match=r"\(structural singularity\).*exactly singular"):
            solve_linear(sparse.csr_matrix(np.array(dense)), rhs)

    def failing(matrix, **kwargs):
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

    def singular_once(matrix, **kwargs):
        if calls["n"] == 0:
            calls["n"] += 1
            raise RuntimeError("Factor is exactly singular")
        return counting(matrix, **kwargs)

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


def _energy_own_geometry(state, params):
    """discrete_energy with its geometry built per call, as the reference."""
    mesh = state.block("u_f").space.mesh
    rule = fem.quadrature_rule("triangle", forms.VOLUME_QUAD_DEGREE)
    tab = {1: fem.tabulate(1, rule.points), 2: fem.tabulate(2, rule.points)}
    geo_s = fem.CellGeometry(mesh, mesh.cells_in("S"), rule)
    geo_p = fem.CellGeometry(mesh, mesh.cells_in("P"), rule)

    def at_quad(name, degree):
        block = state.block(name)
        space = block.space
        coeffs = block.values.reshape(space.num_nodes, space.components)
        return np.einsum("ql,clk->cqk", tab[degree][0], coeffs[space.cell_dofs])

    u_f = at_quad("u_f", 2)
    total = params.rho_f * np.einsum("cq,cqk->", geo_s.wdet, u_f**2)
    phi = params.phi.at(geo_p.x[..., 0], geo_p.x[..., 1])
    u_s, u_r, p_p = at_quad("u_s", 1), at_quad("u_r", 2), at_quad("p_P", 1)
    total += params.rho_s * np.einsum("cq,cq,cqk->", geo_p.wdet, 1.0 - phi, u_s**2)
    total += np.einsum("cq,cq,cqk->", geo_p.wdet, (1.0 - phi)**2 / params.K,
                       p_p**2)
    total += params.rho_f * np.einsum("cq,cq,cqk->", geo_p.wdet, phi,
                                      (u_r + u_s)**2)
    y_space = state.block("y_s").space
    grads = geo_p.physical_grads(tab[2][1])
    coeffs = state.block("y_s").values.reshape(y_space.num_nodes, 2)
    g = np.einsum("cqld,clk->cqkd", grads, coeffs[y_space.cell_dofs])
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    div = g[..., 0, 0] + g[..., 1, 1]
    total += 2.0 * params.mu_p * np.einsum("cq,cqkd->", geo_p.wdet, eps**2)
    total += params.lam_p * np.einsum("cq,cq->", geo_p.wdet, div**2)
    return 0.5 * float(total)


def test_energy_with_stepper_context_is_bit_identical(small_setup, rng):
    mesh, spaces, params, nitsche = small_setup
    stepper = TimeStepper(spaces, params, nitsche, TimeGrid(tau=1e-3, final=1e-3))
    state = StateVector.zero(spaces)
    for block in state.blocks:
        block.values[:] = rng.normal(size=block.space.ndofs)
    want = _energy_own_geometry(state, params)
    assert discrete_energy(state, params, stepper.ctx) == want
    assert discrete_energy(state, params) == want


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
