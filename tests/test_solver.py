import ast
import os
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

from fpsi import fem, forms, solver, verification
from fpsi.forms import NitscheParams, PhysicalParams, StateVector, build_spaces
from fpsi.mesh import generate_channel, generate_structured, interface_pairs
from fpsi.ordering import nested_dissection
from fpsi.solver import (NonFiniteSolutionError, SingularSystemError,
                         SolverError, TimeGrid, TimeStepper, discrete_energy,
                         solve_linear)

from _helpers import (INTERFACE_MESHES, REFERENCE_PARAMS, convection_parts,
                      interface_mesh, interpolate)


def test_time_grid_consistency():
    grid = TimeGrid(tau=5e-4, final=1e-3)
    assert grid.nsteps == 2
    assert abs(grid.time_at(2) - 1e-3) < 1e-15
    with pytest.raises(ValueError, match="integer multiple"):
        TimeGrid(tau=3e-4, final=1e-3)
    with pytest.raises(ValueError, match="positive"):
        TimeGrid(tau=-1e-4, final=1e-3)


def _one_shot(matrix, rhs):
    """``solve_linear`` with a fresh factor in the matrix graph's own order."""
    factor = solver.Factor(matrix, nested_dissection(matrix))
    return solve_linear(factor.matrix, rhs, 1e-9, factor)


def test_solve_identity():
    b = np.array([2.0, -3.0, 0.5])
    x, res = _one_shot(sparse.identity(3, format="csr"), b)
    assert np.allclose(x, b)
    assert res < 1e-15


def test_solve_2x2_hand_case():
    mat = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, res = _one_shot(mat, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0])
    assert res <= 1e-9


def test_solve_singular_reported():
    mat = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        _one_shot(mat, np.array([1.0, 1.0]))


@pytest.fixture(scope="module")
def small_setup():
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    return mesh, spaces, params, nitsche


def test_zero_data_gives_zero_states(small_setup):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=5e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid)

    def check(n, previous, state, report):
        assert np.abs(state.vector()).max() < 1e-12
        assert report.residual <= 1e-9

    solver.march(stepper, StateVector.zero(spaces), check)


def test_determinism_bit_identical(small_setup):
    mesh, spaces, params, nitsche = small_setup
    _, loads = verification.manufactured_problem(params)

    def one_run():
        grid = TimeGrid(tau=5e-4, final=1e-3)
        stepper = TimeStepper(spaces, params, nitsche, grid, **loads)
        out = []
        solver.march(stepper, StateVector.zero(spaces),
                     lambda n, previous, state, report: out.append(state.vector().copy()))
        return out

    a, b = one_run(), one_run()
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


def test_dirichlet_values_exact_on_boundary(small_setup):
    mesh, spaces, params, nitsche = small_setup
    _, loads = verification.manufactured_problem(params)
    grid = TimeGrid(tau=5e-4, final=1e-3)
    bvals = loads["boundary_values"]
    stepper = TimeStepper(spaces, params, nitsche, grid, **loads)
    state = solver.march(stepper, StateVector.zero(spaces))
    for name in ("u_f", "u_r", "y_s"):
        space = getattr(spaces, name)
        got = state.block(name)[space.dirichlet_dofs]
        want = space.dirichlet_values(bvals[name], state.time)
        assert np.array_equal(got, want)  # elimination is exact, not approximate


def test_one_step_sanity_against_interpolants():
    # coarse single step: velocities and displacement within 10x of the
    # interpolated exact fields; the algebraic pressures stay finite (their
    # coarse-level response is orders above the tiny exact pressure)
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    sol, loads = verification.manufactured_problem(params)
    grid = TimeGrid(tau=5e-4, final=5e-4)
    stepper = TimeStepper(spaces, params, nitsche, grid, **loads)
    state, _ = stepper.step(StateVector.zero(spaces), 1)
    assert np.all(np.isfinite(state.vector()))
    for name, value, grad in sol.fields():
        space = getattr(spaces, name)
        if name in ("p_S", "p_P"):
            continue
        tables = fem.norm_tables(space)
        err, _ = fem.error_norms(space, state.block(name), value, state.time, grad,
                                 tables)
        interp = interpolate(space, value, state.time)
        ierr, _ = fem.error_norms(space, interp, value, state.time, grad, tables)
        norm, _ = fem.error_norms(
            space, interp, lambda t, x, y: np.zeros((x.size, 2)), state.time,
            lambda t, x, y: np.zeros((x.size, 2, 2)), tables)
        assert err <= 10.0 * max(ierr, 0.1 * norm), name


def _direct_step(stepper, state_prev, n):
    """One step's system built in full and solved with a fresh factor.

    The factor takes the stepper's order, ``solver.mesh_order`` of the
    mesh, so it differs from the stepper's own factor only in being new.
    """
    spaces = stepper.spaces
    t_n = stepper.grid.time_at(n)
    operator = stepper.M / stepper.grid.tau + stepper.N
    conv = (forms.assemble_convection(stepper.ctx, state_prev.block("u_f"))
            if stepper.convection else None)
    if conv is not None:
        operator = operator + forms.from_contributions(
            spaces, convection_parts(stepper.ctx, conv))
    rhs = (stepper.load(t_n)
           + stepper.M / stepper.grid.tau @ state_prev.vector())
    dofs, vals = forms.dirichlet_data(spaces, stepper.boundary_values, t_n)
    matrix, _ = fem.eliminate_matrix(operator, dofs)
    rhs = fem.apply_dirichlet(operator[:, dofs], rhs, dofs, vals)
    factor = solver.Factor(matrix,
                           solver.mesh_order(spaces, stepper.ctx.pairs, dofs))
    return solve_linear(factor.matrix, rhs, 1e-9, factor)[0]


def test_reused_factor_matches_direct_solve(small_setup):
    # the stepper's reused factor against a freshly factored one-shot system:
    # bit-identical while the operator is the factored one, to 1e-10 once
    # convection changes it
    mesh, spaces, params, nitsche = small_setup
    _, loads = verification.manufactured_problem(params)
    grid = TimeGrid(tau=5e-4, final=2e-3)
    for convection in (False, True):
        stepper = TimeStepper(spaces, params, nitsche, grid,
                              convection=convection, **loads)

        def check(n, previous, state, report):
            want = _direct_step(stepper, previous, n)
            assert report.factorized == (n == 1)
            if convection and n > 1:
                err = (np.linalg.norm(state.vector() - want)
                       / np.linalg.norm(want))
                assert err <= 1e-10
            else:
                assert np.array_equal(state.vector(), want)

        solver.march(stepper, StateVector.zero(spaces), check)


@pytest.mark.parametrize("nx", [4, 16])
def test_load_polynomial_matches_quadrature(nx):
    # the manufactured load is quadratic in t: interpolating it at 0, T/2
    # and T reproduces assemble_F at every step time of the ladder's grid
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    spaces = build_spaces(generate_structured(nx, nx))
    sources = verification.derive_sources(params)
    corr = verification.derive_corrections(params)
    grid = TimeGrid(tau=1e-3 / nx, final=1e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid, sources=sources,
                          corrections=corr)
    for n in range(1, grid.nsteps + 1):
        t_n = grid.time_at(n)
        want = forms.assemble_F(stepper.ctx, sources, t_n, corr)
        dev = np.abs(stepper.load(t_n) - want).max() / np.abs(want).max()
        assert dev <= 1e-14, (n, dev)


def test_load_without_sources_is_zero(small_setup):
    mesh, spaces, params, nitsche = small_setup
    stepper = TimeStepper(spaces, params, nitsche, TimeGrid(tau=1e-3, final=2e-3))
    load = stepper.load(1e-3)
    assert load.shape == (spaces.size,) and not load.any()


def test_cubic_source_rejected(small_setup):
    mesh, spaces, params, nitsche = small_setup
    cubic = verification.SourceSet(
        f_S=lambda t, x, y: np.full(np.shape(x) + (2,), t**3))
    with pytest.raises(SolverError, match=r"load of f_S is not quadratic in t"
                                          r".*deviates from assemble_F at "
                                          r"t=0\.0015 by 1\.1\d*e-01 relative"
                                          r".*degree at most 2 in t"):
        TimeStepper(spaces, params, nitsche, TimeGrid(tau=1e-3, final=2e-3),
                    sources=cubic)


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
    state.block("u_f")[:] = 1.0
    factorized = []
    solver.march(stepper, state, lambda n, previous, state, report:
                 factorized.append(report.factorized))
    assert calls["n"] == 1
    assert factorized == [True, False, False, False, False]


def test_strong_convection_refactors(monkeypatch):
    # a fast flow and a long time step make the convection dominate the
    # factored M / tau + N, so defect correction with that factor diverges
    mesh = generate_structured(4, 4)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    grid = TimeGrid(tau=0.1, final=0.2)
    stepper = TimeStepper(spaces, params, nitsche, grid, convection=True)
    state, report = stepper.step(StateVector.zero(spaces), 1)
    assert report.factorized
    state.block("u_f")[:] = 100.0
    want = _direct_step(stepper, state, 2)
    calls = _counting_splu(monkeypatch)
    new, report = stepper.step(state, 2)
    assert calls["n"] == 1
    assert report.factorized
    assert report.residual <= stepper.solver_tol
    err = np.linalg.norm(new.vector() - want) / np.linalg.norm(want)
    assert err <= 1e-10


def test_refactor_holds_the_step_operator(rng):
    # the refactor of a strongly convective step factors that step's
    # eliminated M / tau + N + C(u), summed once, without stored zeros and
    # in the held order; later steps correct from it to the floor
    stepper = TimeStepper(build_spaces(generate_structured(4, 4)),
                          PhysicalParams(**REFERENCE_PARAMS),
                          NitscheParams(gamma=40.0, varsigma=1),
                          TimeGrid(tau=0.1, final=0.2), convection=True)
    state, _ = stepper.step(StateVector.zero(stepper.spaces), 1)
    order = stepper._factor.perm
    state.block("u_f")[:] = 100.0
    new, report = stepper.step(state, 2)
    assert report.factorized
    factor = stepper._factor
    assert factor.perm is order
    assert factor.matrix is not stepper._eliminated
    assert np.count_nonzero(factor.matrix.data) == factor.matrix.nnz
    conv = forms.assemble_convection(stepper.ctx, state.block("u_f"))
    dofs, _ = forms.dirichlet_data(stepper.spaces, stepper.boundary_values, 0.2)
    want, _ = fem.eliminate_matrix(
        stepper.M * (1.0 / stepper.grid.tau) + stepper.N
        + forms.from_contributions(stepper.spaces, convection_parts(stepper.ctx, conv)),
        dofs)
    _assert_same_entries(factor.matrix, want)
    for n in (3, 4):
        new.block("u_f")[:] = 100.0 * (1.0 + 1e-3 * rng.uniform(
            -1.0, 1.0, new.block("u_f").size))
        new, report = stepper.step(new, n)
        assert not report.factorized and report.solves >= 1
        assert stepper._factor is factor
        assert report.residual <= solver.FLOOR_FACTOR * factor.floor


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
    params = PhysicalParams(**REFERENCE_PARAMS)
    _, loads = verification.manufactured_problem(params)
    return TimeStepper(
        spaces, params, NitscheParams(gamma=40.0, varsigma=1),
        TimeGrid(tau=1e-3 / nx, final=final), convection=convection, **loads)


def test_convective_step_is_two_triangular_solves(monkeypatch):
    # the first step solves directly and sets the factor's floor; in this
    # short run every convective step then takes two solves to that floor,
    # one pass from the factor's solution or, while the extrapolated start
    # is still above it, two from that start; a convection-off step is one
    counts = _counting_solves(monkeypatch)
    for convection, per_step in ((True, 2), (False, 1)):
        stepper = _manufactured_stepper(4, 2e-3, convection)
        solves, reports, before = [], [], counts["solves"]

        def count(n, previous, state, report):
            nonlocal before
            solves.append(counts["solves"] - before)
            before = counts["solves"]
            assert report.factorized == (n == 1)
            reports.append(report)

        solver.march(stepper, StateVector.zero(stepper.spaces), count)
        report = reports[-1]
        assert solves == [1] + [per_step] * (stepper.grid.nsteps - 1)
        assert stepper._factor.floor is not None
        assert report.residual <= solver.FLOOR_FACTOR * stepper._factor.floor


def _extrapolating_march():
    # nx = 8, tau = 1.25e-4, T = 4e-3: 32 convective steps, the last ones
    # started within the floor
    stepper = _manufactured_stepper(8, 4e-3, True)
    steps = []
    final = solver.march(stepper, StateVector.zero(stepper.spaces),
                         lambda n, previous, state, report: steps.append((state, report)))
    return stepper, final, steps


def test_convective_steps_start_from_the_extrapolated_solution():
    # the first step solves directly; every later one starts its correction
    # from the extrapolated solutions, so once that start lies within the
    # floor one pass, one factor solve, ends the step
    stepper, _, steps = _extrapolating_march()
    solves = [report.solves for _, report in steps]
    assert solves[0] == 1
    assert max(solves[1:]) <= 2
    assert solves[-10:] == [1] * 10
    stop = solver.FLOOR_FACTOR * stepper._factor.floor
    for n, (state, report) in enumerate(steps, 1):
        assert report.residual <= stop
        assert report.factorized == (n == 1)
        dofs, vals = forms.dirichlet_data(stepper.spaces, stepper.boundary_values,
                                          state.time)
        assert np.array_equal(state.vector()[dofs], vals)


def test_step_from_a_copy_starts_from_the_factor_solution(monkeypatch):
    # only the state the stepper last returned, stepped at the next index,
    # is extrapolated from; a copy of it starts from the factor's solution,
    # a pass more or two, and agrees with the extrapolated step to the
    # solver's precision (max norm, as criterion 8 compares states)
    stepper, _, steps = _extrapolating_march()
    (previous, _), (guessed, report) = steps[-2:]
    guesses = []
    original = solver.solve_linear

    def recording(matrix, rhs, tol, factor, guess=None, *rest):
        guesses.append(guess)
        return original(matrix, rhs, tol, factor, guess, *rest)

    monkeypatch.setattr(solver, "solve_linear", recording)
    copy = StateVector(stepper.spaces, previous.vector().copy(), time=previous.time)
    solved, report_copy = stepper.step(copy, stepper.grid.nsteps)
    assert guesses == [None]
    assert report.solves == 1 and report_copy.solves >= 2
    assert report_copy.residual <= solver.FLOOR_FACTOR * stepper._factor.floor
    want = solved.vector()
    assert np.abs(guessed.vector() - want).max() <= 1e-12 * np.abs(want).max()


def test_poor_guess_costs_passes_not_accuracy(rng):
    # random vectors in place of the held solutions: the correction makes
    # more passes but ends at the floor, without refactoring
    stepper, final, _ = _extrapolating_march()
    stepper._history = [rng.standard_normal(stepper.spaces.size) for _ in range(3)]
    _, report = stepper.step(final, stepper.grid.nsteps + 1)
    assert report.solves > 1
    assert not report.factorized
    assert report.residual <= solver.FLOOR_FACTOR * stepper._factor.floor


def test_factored_matrix_holds_no_stored_zeros(monkeypatch):
    # the matrix handed to splu is exactly the eliminated M / tau + N, even
    # though the per-step matrices carry the convection pattern's zeros
    counts = _counting_solves(monkeypatch)
    stepper = _manufactured_stepper(4, 1e-3, True)
    state = solver.march(stepper, StateVector.zero(stepper.spaces))
    dofs, _ = forms.dirichlet_data(stepper.spaces, stepper.boundary_values, 0.0)
    want, _ = fem.eliminate_matrix(
        stepper.M * (1.0 / stepper.grid.tau) + stepper.N, dofs)
    assert len(counts["factored"]) == 1
    assert counts["factored"][0].nnz == want.nnz
    # a refactor of a step's own operator drops its stored zeros too
    state.block("u_f")[:] = 1e4
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
    default = spla.splu(factor.matrix.tocsc())
    fill = factor.lu.L.nnz + factor.lu.U.nnz
    assert fill <= 0.75 * (default.L.nnz + default.U.nnz)
    assert factor.floor <= 1e-10


# --- the factor's order from the mesh ------------------------------------------

def test_mesh_order_numbers_each_node_together(small_setup):
    # eliminated dofs first; then every node's free dofs side by side, in
    # index order, and every node once
    mesh, spaces, params, nitsche = small_setup
    dofs, _ = forms.dirichlet_data(spaces, {}, 0.0)
    perm = solver.mesh_order(spaces, interface_pairs(mesh), dofs)
    assert np.array_equal(np.sort(perm), np.arange(spaces.size))
    assert np.array_equal(perm[:dofs.size], np.sort(dofs))
    node = np.concatenate([np.repeat(sp.mesh_nodes, sp.components)
                           for sp in spaces])[perm[dofs.size:]]
    starts = np.flatnonzero(np.diff(node, prepend=-1))
    assert np.unique(node).size == starts.size
    runs = np.split(perm[dofs.size:], starts[1:])
    assert all(np.all(np.diff(run) > 0) for run in runs)


def test_mesh_order_is_reused_by_refactor_and_pin(small_setup, monkeypatch):
    # one order per time loop: the pinned factor after a singular first
    # factorization, and the refactor of a strongly convective step, take it
    mesh, spaces, params, nitsche = small_setup
    stepper = TimeStepper(spaces, params, nitsche,
                          TimeGrid(tau=0.1, final=0.2), convection=True)
    calls = {"order": 0, "splu": 0}
    order_of, factor_of = solver.mesh_order, spla.splu

    def counted_order(*args):
        calls["order"] += 1
        return order_of(*args)

    def singular_once(matrix, **kwargs):
        calls["splu"] += 1
        if calls["splu"] == 1:
            raise RuntimeError("Factor is exactly singular")
        return factor_of(matrix, **kwargs)

    monkeypatch.setattr(solver, "mesh_order", counted_order)
    monkeypatch.setattr(spla, "splu", singular_once)
    with pytest.warns(UserWarning, match="pinned global dof"):
        state, report = stepper.step(StateVector.zero(spaces), 1)
    assert report.pinned_pressure
    order = stepper._factor.perm
    state.block("u_f")[:] = 100.0
    _, report = stepper.step(state, 2)
    assert report.factorized and stepper._factor.perm is order
    assert calls == {"order": 1, "splu": 3}


def _nx8_stepper(workload):
    """A stepper on the nx=8 level of a benchmark workload."""
    if workload == "mms-ladder":
        return _manufactured_stepper(8, 1e-3 / 8, True)
    return TimeStepper(build_spaces(generate_structured(8, 8)),
                       PhysicalParams(**REFERENCE_PARAMS),
                       NitscheParams(gamma=40.0, varsigma=1),
                       TimeGrid(tau=1.25e-4, final=1.25e-4), convection=False)


@pytest.mark.parametrize("workload", ["mms-ladder", "energy-decay"])
def test_mesh_order_fill_below_matrix_order(workload):
    # the order of the mesh's node graph against nested dissection of the
    # factored matrix's own graph, same pivoting
    stepper = _nx8_stepper(workload)
    stepper.step(StateVector.zero(stepper.spaces), 1)
    factor = stepper._factor
    by_matrix = solver.Factor(factor.matrix, nested_dissection(factor.matrix))
    fill = lambda f: f.lu.L.nnz + f.lu.U.nnz
    assert fill(factor) < 0.9 * fill(by_matrix)


def _rounding_perturbed(matrix, rng):
    """Every entry times (1 + 1e-15 r), r uniform in [-1, 1]; entries below
    1e-14 of their row's largest magnitude set to exact zero."""
    out = sparse.csr_matrix(matrix, copy=True)
    out.data *= 1.0 + 1e-15 * rng.uniform(-1.0, 1.0, out.nnz)
    row_max = abs(out).max(axis=1).toarray().ravel()
    row = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr))
    out.data[np.abs(out.data) < 1e-14 * row_max[row]] = 0.0
    return out


@pytest.mark.parametrize("workload", ["mms-ladder", "energy-decay"])
def test_order_ignores_rounding_of_the_operator(workload, rng, monkeypatch):
    # the nx=8 operators of both benchmark workloads, assembled from parts
    # whose values are perturbed at rounding level, and then perturbed and
    # cleared of residues entry by entry: the stepper's order stays as it
    # is, and the LU fill within 0.1 %
    def first_factor(perturb):
        stepper = _nx8_stepper(workload)
        if perturb:
            stepper.N = _rounding_perturbed(stepper.N, rng)
            stepper._m_over_tau = _rounding_perturbed(stepper._m_over_tau, rng)
        stepper.step(StateVector.zero(stepper.spaces), 1)
        factor = stepper._factor
        return factor, factor.lu.L.nnz + factor.lu.U.nnz

    factor, fill = first_factor(False)
    assemble = forms.from_contributions

    def perturbed_parts(spaces, parts):
        parts = [part[:4] + (part[4] * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0,
                                                                  part[4].shape)),)
                 for part in parts]
        return assemble(spaces, parts)

    monkeypatch.setattr(forms, "from_contributions", perturbed_parts)
    perturbed, perturbed_fill = first_factor(True)
    assert not np.array_equal(perturbed.matrix.data, factor.matrix.data)
    assert np.array_equal(perturbed.matrix.indices, factor.matrix.indices)
    assert np.array_equal(perturbed.perm, factor.perm)
    assert abs(perturbed_fill - fill) <= 1e-3 * fill


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
    factor = solver.Factor(matrix, nested_dissection(matrix))
    x, res = solve_linear(factor.matrix, rhs, 1e-9, factor)
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


def _assert_step_system(stepper, operator, conv, dofs):
    # A0 + C_el, the system a convective step solves, and the lift's columns
    # of the operator plus C's, against the sparse sum with C eliminated
    full, eliminated = stepper._convection.matrices(conv)
    want = operator + forms.from_contributions(stepper.spaces,
                                               convection_parts(stepper.ctx, conv))
    _assert_same_entries(stepper._eliminated + eliminated,
                         fem.eliminate_matrix(want, dofs)[0])
    assert stepper._columns.shape == (want.shape[0], len(dofs))
    _assert_same_entries(stepper._columns + full[:, dofs], want[:, dofs])


def test_fixed_pattern_matches_sparse_sum(monkeypatch, rng):
    original = spla.splu
    stepper = _manufactured_stepper(2, 1e-3, True)
    stepper.step(StateVector.zero(stepper.spaces), 1)
    u_f = rng.normal(size=stepper.spaces.u_f.ndofs)
    conv = forms.assemble_convection(stepper.ctx, u_f)
    dofs, _ = forms.dirichlet_data(stepper.spaces, {}, 0.0)
    operator = stepper.M * (1.0 / stepper.grid.tau) + stepper.N
    _assert_step_system(stepper, operator, conv, dofs)

    # an operator storing nothing in the u_f block, so every nonzero of C
    # lies where A0 holds no entry; it is singular, so its factor is not
    # computed
    in_uf = np.zeros(operator.shape[0], dtype=bool)
    in_uf[:stepper.spaces.u_f.ndofs] = True
    coo = operator.tocoo()
    drop = in_uf[coo.row] & in_uf[coo.col]
    thinned = sparse.csr_matrix((coo.data[~drop], (coo.row[~drop], coo.col[~drop])),
                                shape=operator.shape)
    empty = _manufactured_stepper(2, 1e-3, True)
    empty._m_over_tau, empty.N = thinned, sparse.csr_matrix(thinned.shape)
    monkeypatch.setattr(spla, "splu", lambda matrix, **kwargs: None)
    empty._hold_operator(dofs)
    _assert_step_system(empty, thinned, conv, dofs)

    # after a pressure pin the columns, A0 and C's mask hold the pinned dof
    pinned = _manufactured_stepper(2, 1e-3, True)
    failures = iter([True])

    def singular_once(matrix, **kwargs):
        if next(failures, False):
            raise RuntimeError("Factor is exactly singular")
        return original(matrix, **kwargs)

    monkeypatch.setattr(spla, "splu", singular_once)
    with pytest.warns(UserWarning, match="pinned global dof"):
        _, report = pinned.step(StateVector.zero(pinned.spaces), 1)
    assert report.pinned_pressure
    pin_dofs = np.append(dofs, pinned.spaces.slice("p_S").start)
    _assert_step_system(pinned, operator, conv, pin_dofs)


def test_convection_matrix_sums_repeated_slots(rng):
    # slots with repeats, in and out of order, the block's three values laid
    # twice; the summed slot values must land where a sparse sum would put
    # them, on int32 indices, and the eliminated form zeroes the rows and
    # columns of the eliminated dofs
    rows = np.array([0, 1, 2, 2, 3, 1])
    cols = np.array([2, 2, 1, 1, 0, 2])
    block = rng.normal(size=(1, 1, 3))
    keep = np.array([1.0, 1.0, 0.0, 1.0])
    convection = solver._Convection(rows, cols, keep)
    full, eliminated = convection.matrices(block)
    vals = np.concatenate([block.ravel(), block.ravel()])
    want = sparse.csr_matrix((vals, (rows, cols)), shape=(4, 4)).toarray()
    assert full.nnz == eliminated.nnz == 4
    assert full.indices.dtype == full.indptr.dtype == np.int32
    assert np.shares_memory(full.indices, eliminated.indices)
    assert np.shares_memory(full.indptr, eliminated.indptr)
    assert np.abs(full.toarray() - want).max() <= 1e-15
    assert np.array_equal(eliminated.toarray(), want * np.outer(keep, keep))


def test_m_over_tau_shares_the_index_arrays_of_m():
    # the loop holds M's indices and indptr once; the values are those of
    # the scalar product, bit for bit
    stepper = _manufactured_stepper(2, 1e-3, False)
    m, m_over_tau = stepper.M, stepper._m_over_tau
    assert np.shares_memory(m.indices, m_over_tau.indices)
    assert np.shares_memory(m.indptr, m_over_tau.indptr)
    assert np.array_equal(m_over_tau.data, (m * (1.0 / stepper.grid.tau)).data)


def test_convective_stepper_holds_one_structure(rng):
    # after step 1, C and its eliminated form are two data arrays on one
    # int32 index structure, and the factor holds one matrix: the
    # eliminated operator without stored zeros, which the stepper reuses
    stepper = _manufactured_stepper(4, 2e-3, True)
    stepper.step(StateVector.zero(stepper.spaces), 1)
    u_f = rng.normal(size=stepper.spaces.u_f.ndofs)
    full, eliminated = stepper._convection.matrices(
        forms.assemble_convection(stepper.ctx, u_f))
    assert np.shares_memory(full.indices, eliminated.indices)
    assert np.shares_memory(full.indptr, eliminated.indptr)
    assert full.indices.dtype == np.int32
    factor = stepper._factor
    assert not hasattr(factor, "csc")
    assert [name for name, value in vars(factor).items()
            if sparse.issparse(value)] == ["matrix"]
    assert factor.matrix is stepper._eliminated
    assert np.count_nonzero(factor.matrix.data) == factor.matrix.nnz
    dofs, _ = forms.dirichlet_data(stepper.spaces, stepper.boundary_values, 0.0)
    compact, _ = fem.eliminate_matrix(
        stepper.M * (1.0 / stepper.grid.tau) + stepper.N, dofs)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(factor.matrix, name), getattr(compact, name))


def test_convection_off_matrix_stores_no_zeros(monkeypatch):
    # without convection no convection structure is built: every step solves
    # with the factor's own eliminated operator, which stores no zeros
    stepper = _manufactured_stepper(4, 2e-3, False)
    matrices = []
    original = solver.solve_linear

    def recording(matrix, *args):
        matrices.append(matrix)
        return original(matrix, *args)

    monkeypatch.setattr(solver, "solve_linear", recording)
    solver.march(stepper, StateVector.zero(stepper.spaces))
    assert stepper._convection is None
    assert len(matrices) == stepper.grid.nsteps
    assert all(matrix is stepper._factor.matrix for matrix in matrices)
    assert np.count_nonzero(matrices[0].data) == matrices[0].nnz


def _reachable(root, skip=("ctx", "spaces")):
    """Sparse matrices and numpy arrays reachable from ``root``'s attributes,
    through fpsi objects and containers; set-up data under ``skip`` aside."""
    seen, matrices, arrays = set(), [], []
    stack = [value for name, value in vars(root).items() if name not in skip]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if sparse.issparse(value):
            matrices.append(value)
        elif isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif type(value).__module__.startswith("fpsi"):
            stack.extend(vars(value).values())
    return matrices, arrays


@pytest.mark.parametrize("convection", [True, False])
def test_loop_holds_the_operator_once(convection, rng):
    # after step 1 the only full-size matrices the loop holds are M, N,
    # M / tau and the factor's A0; the lift keeps only the Dirichlet
    # columns, and C lives on its distinct slots, held with convection only
    stepper = _manufactured_stepper(8, 1e-3, convection)
    stepper.step(StateVector.zero(stepper.spaces), 1)
    size = stepper.spaces.size
    rows, cols = stepper.ctx.component_pattern("u_f")
    slots = np.unique(rows.astype(np.int64) * size + cols).size
    operators = (stepper.M, stepper.N, stepper._m_over_tau, stepper._factor.matrix)
    matrices, arrays = _reachable(stepper)
    big = [m for m in matrices if m.shape == (size, size) and m.nnz > slots]
    assert sorted(map(id, big)) == sorted(map(id, operators))
    dofs, _ = forms.dirichlet_data(stepper.spaces, stepper.boundary_values, 0.0)
    assert [m.shape for m in matrices if m.shape != (size, size)] == [(size, dofs.size)]
    # no array as long as the convection pattern, apart from C's slot
    # positions, lies outside the held operators
    held = [a for m in operators for a in (m.data, m.indices, m.indptr)]
    stray = [a for a in arrays
             if a.size > rows.size and not any(np.shares_memory(a, h) for h in held)]
    assert stray == []
    if not convection:
        assert stepper._convection is None
        return
    u_f = rng.normal(size=stepper.spaces.u_f.ndofs)
    for matrix in stepper._convection.matrices(
            forms.assemble_convection(stepper.ctx, u_f)):
        assert matrix.shape == (size, size) and matrix.nnz <= slots


def test_zero_velocity_step_after_convective_steps_is_direct(small_setup, monkeypatch):
    # a step from rest after convective ones solves with M / tau + N alone,
    # directly with the held factor: bit-identical to a fresh direct solve
    mesh, spaces, params, nitsche = small_setup
    _, loads = verification.manufactured_problem(params)
    stepper = TimeStepper(spaces, params, nitsche, TimeGrid(tau=5e-4, final=1.5e-3),
                          convection=True, **loads)
    counts = _counting_solves(monkeypatch)
    state = solver.march(stepper, StateVector.zero(spaces))
    state.block("u_f")[:] = 0.0
    want = _direct_step(stepper, state, 4)
    before = counts["solves"]
    new, report = stepper.step(state, 4)
    assert not report.factorized
    assert counts["solves"] - before == 1
    assert np.array_equal(new.vector(), want)


def test_direct_solve_refines_short_of_tolerance(monkeypatch, rng):
    # a direct solve whose residual lies within ten times the tolerance
    # makes one refinement pass: two triangular solves
    matrix = sparse.random(200, 200, density=0.05, random_state=rng) \
        + 10.0 * sparse.identity(200)
    matrix = sparse.csr_matrix(matrix)
    rhs = rng.normal(size=200)
    floor = _one_shot(matrix, rhs)[1]
    assert floor > 0.0
    counts = _counting_solves(monkeypatch)
    factor = solver.Factor(matrix, nested_dissection(matrix))
    x, res = solve_linear(factor.matrix, rhs, 5.0 * floor, factor)
    assert counts["solves"] == 2
    assert res <= 5.0 * floor


def test_singularity_kind_from_superlu_message(monkeypatch):
    # the kind is read from SuperLU's message: "exactly singular" is
    # reported as structural, whether a row is empty or the matrix is rank
    # deficient; any other factorization failure is reported as numerical
    rhs = np.array([1.0, 1.0])
    for dense in ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]):
        with pytest.raises(SingularSystemError,
                           match=r"\(structural singularity\).*exactly singular"):
            _one_shot(sparse.csr_matrix(np.array(dense)), rhs)

    def failing(matrix, **kwargs):
        raise RuntimeError("not enough memory")

    monkeypatch.setattr(spla, "splu", failing)
    with pytest.raises(SingularSystemError,
                       match=r"\(numerical singularity\).*not enough memory"):
        _one_shot(sparse.identity(2, format="csr"), rhs)


def test_nan_load_names_step_and_remedy(small_setup, monkeypatch):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=2e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid)
    state, _ = stepper.step(StateVector.zero(spaces), 1)
    monkeypatch.setattr(stepper, "load",
                        lambda t: np.full(sum(sp.ndofs for sp in spaces), np.nan))
    with pytest.raises(NonFiniteSolutionError,
                       match=r"step 2 \(t=0\.002\).*check the loads"):
        stepper.step(state, 2)


@pytest.mark.parametrize("case", ["load", "residual"])
def test_overflowing_norm_is_not_finite(case):
    # a norm that overflows to inf would make every relative residual read
    # 0 or NaN, and neither exceeds a tolerance
    matrix = sparse.diags([1e300, 1.0], format="csr")
    factor = solver.Factor(matrix, nested_dissection(matrix))
    with pytest.raises(NonFiniteSolutionError, match=f"{case}.* is inf"):
        if case == "load":
            solve_linear(factor.matrix, np.array([1e300, 1e300]), 1e-9, factor)
        else:
            solve_linear(matrix.copy(), np.array([1.0, 1.0]), 1e-9, factor,
                         guess=np.array([1e10, 0.0]))


def test_residual_failure_names_step_and_remedy(small_setup):
    mesh, spaces, params, nitsche = small_setup
    grid = TimeGrid(tau=1e-3, final=1e-3)
    stepper = TimeStepper(spaces, params, nitsche, grid, solver_tol=0.0)
    state = StateVector.zero(spaces)
    state.block("u_f")[:] = 1.0
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

    def flaky(matrix, rhs, tol, factor, *rest):
        if calls["n"] == 0:
            calls["n"] += 1
            raise SingularSystemError("injected failure")
        return original(matrix, rhs, tol, factor, *rest)

    monkeypatch.setattr(solver, "solve_linear", flaky)
    pin = spaces.slice("p_S").start
    with pytest.warns(UserWarning) as record:
        state, report = stepper.step(StateVector.zero(spaces), 1)
    assert len(record) == 1
    message = str(record[0].message)
    assert message.startswith("step 1 (t=0.001): ")
    assert f"pinned global dof {pin} (p_S dof 0)" in message
    assert "raise nitsche.gamma" in message
    assert "closed pure-Stokes cavity" in message
    assert report.pinned_pressure
    assert np.all(np.isfinite(state.vector()))


def test_ladder_pins_no_pressure(table1_params, nitsche_default):
    # a pin changes the solved system and warns; the reference ladder needs
    # none, so its levels raise no warning at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verification.convergence_study([(2, 2), (4, 4)], table1_params,
                                       nitsche_default)


def test_singular_after_pin_names_the_pinned_dof(small_setup, monkeypatch):
    # splu fails at the first factorization, which the pin mends, and again
    # at the refactorization that strong convection forces in step 2: a
    # second pin cannot help, so the error names the pinned dof and leaves
    # the penalty as the remedy
    mesh, spaces, params, nitsche = small_setup
    stepper = TimeStepper(spaces, params, nitsche,
                          TimeGrid(tau=0.1, final=0.2), convection=True)
    calls = {"n": 0}
    original = spla.splu

    def singular_twice(matrix, **kwargs):
        calls["n"] += 1
        if calls["n"] in (1, 3):
            raise RuntimeError("Factor is exactly singular")
        return original(matrix, **kwargs)

    monkeypatch.setattr(spla, "splu", singular_twice)
    with pytest.warns(UserWarning, match="pinned global dof"):
        state, report = stepper.step(StateVector.zero(spaces), 1)
    assert report.pinned_pressure
    state.block("u_f")[:] = 100.0
    pin = spaces.slice("p_S").start
    with pytest.raises(SingularSystemError) as info:
        stepper.step(state, 2)
    message = str(info.value)
    assert calls["n"] == 3
    assert message.startswith("step 2 (t=0.2): ")
    assert f"global dof {pin} (p_S dof 0) already pinned" in message
    assert "raising the penalty gamma" in message
    assert "pinning" not in message


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
    reports = []
    with pytest.warns(UserWarning, match="pinned global dof"):
        state = solver.march(stepper, StateVector.zero(spaces),
                             lambda n, previous, state, report: reports.append(report))
    assert calls["n"] == 2  # the failed factorization and the pinned one
    assert [r.pinned_pressure for r in reports] == [True, True, True]
    assert [r.factorized for r in reports] == [True, False, False]
    assert state.block("p_S")[0] == 0.0

# --- the time loop ---------------------------------------------------------------

def test_march_without_steps_returns_the_initial_state(small_setup):
    mesh, spaces, params, nitsche = small_setup
    stepper = TimeStepper(spaces, params, nitsche, TimeGrid(tau=1e-3, final=0.0))
    seen = []
    initial = StateVector.zero(spaces)
    assert solver.march(stepper, initial, lambda *args: seen.append(args)) is initial
    assert seen == []


def test_march_observes_each_step_in_order(small_setup):
    # the observer sees n = 1..nsteps, each with the state that step started
    # from (the initial state at n = 1), the state and the report it
    # returned, and march returns the last state
    mesh, spaces, params, nitsche = small_setup
    stepper = TimeStepper(spaces, params, nitsche, TimeGrid(tau=1e-3, final=3e-3))
    step, returned, seen = stepper.step, [], []

    def recorded(state, n):
        new, report = step(state, n)
        returned.append((n, state, new, report))
        return new, report

    stepper.step = recorded
    initial = StateVector.zero(spaces)
    final = solver.march(stepper, initial, lambda *args: seen.append(args))
    assert [n for n, _, _, _ in seen] == [1, 2, 3]
    assert all(a[0] == b[0] and a[1] is b[1] and a[2] is b[2] and a[3] is b[3]
               for a, b in zip(returned, seen))
    assert seen[0][1] is initial
    assert all(seen[k][1] is seen[k - 1][2] for k in (1, 2))
    assert len(returned) == 3 and final is seen[-1][2]


class _StepCalls(ast.NodeVisitor):
    """Qualified names of the functions and classes that call ``.step(``."""

    def __init__(self, module):
        self.scope, self.found = [module], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "step":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_march_steps():
    # one time loop: no function of the package but solver.march calls a
    # stepper's step, so run, convergence and energy-check cannot fork it
    root = os.path.dirname(solver.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                calls = _StepCalls(name[:-3])
                calls.visit(ast.parse(fh.read()))
            found += calls.found
    assert found == ["solver.march"]


# Each module of the package may import only modules before it here.
LAYERS = ("mesh", "ordering", "fem", "forms", "solver", "verification", "cli")


def _package_imports(tree):
    """Package modules that ``tree`` imports, at any depth, in any form."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fpsi."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "fpsi":
                continue
            parts = module.split(".")[1:] if node.level == 0 else module.split(".")
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_imports_follow_the_layer_order():
    # no import cycle, not even through a function-level import: mesh,
    # ordering, fem, forms, solver, verification and cli, each importing
    # only modules earlier in that order
    root = os.path.dirname(solver.__file__)
    wrong = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        module = name[:-3]
        rank = 0 if module == "__init__" else LAYERS.index(module)
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            imported = _package_imports(ast.parse(fh.read()))
        wrong += [f"{module} imports {other}" for other in sorted(imported)
                  if other not in LAYERS[:rank]]
    assert wrong == []


def test_solver_reads_no_quadrature_data():
    # forms is the one module that integrates: solver reads no tabulation,
    # cell geometry, quadrature weight or interface facet table
    with open(solver.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("tab", "geo", "wdet", "facet_stack")})
    assert read == []


# --- discrete energy -------------------------------------------------------------

def _energy_matrix(spaces, params, nitsche=NitscheParams()):
    """``forms.energy_matrix`` of the operators of a fresh context."""
    ctx = forms.AssemblyContext(spaces, params, nitsche)
    return forms.energy_matrix(spaces, forms.assemble_M(ctx), forms.assemble_N(ctx))


def _random_state(spaces, rng):
    state = StateVector.zero(spaces)
    for name, space in zip(forms.BLOCK_NAMES, spaces):
        state.block(name)[:] = rng.normal(size=space.ndofs)
    return state


def test_energy_zero_state(small_setup, table1_params):
    mesh, spaces, params, nitsche = small_setup
    energy = _energy_matrix(spaces, table1_params, nitsche)
    assert discrete_energy(StateVector.zero(spaces), energy) == 0.0


def test_energy_unit_pore_pressure(small_setup, table1_params):
    mesh, spaces, params, nitsche = small_setup
    state = StateVector.zero(spaces)
    state.block("p_P")[:] = 1.0
    energy = _energy_matrix(spaces, table1_params, nitsche)
    # 1/2 (1 - phi)^2 / K over |Omega_P| = 1/2 * 0.81 * 0.5
    assert abs(discrete_energy(state, energy) - 0.2025) < 1e-14


def _energy_own_geometry(state, params):
    """discrete_energy with its geometry built per call, as the reference."""
    mesh = state.spaces.u_f.mesh
    rule = fem.quadrature_rule("triangle", forms.VOLUME_QUAD_DEGREE)
    tab = {1: fem.tabulate(1, rule.points), 2: fem.tabulate(2, rule.points)}
    geo_s = fem.CellGeometry(mesh, mesh.cells_in("S"), rule)
    geo_p = fem.CellGeometry(mesh, mesh.cells_in("P"), rule)

    def at_quad(name, degree):
        space = getattr(state.spaces, name)
        coeffs = state.block(name).reshape(space.num_nodes, space.components)
        return tab[degree][0] @ coeffs[space.cell_dofs]

    def integral(wdet, density):
        return float(wdet.ravel() @ density.reshape(wdet.size, -1).sum(axis=1))

    u_f = at_quad("u_f", 2)
    total = params.rho_f * integral(geo_s.wdet, u_f**2)
    w = geo_p.wdet
    phi = params.phi
    u_s, u_r, p_p = at_quad("u_s", 1), at_quad("u_r", 2), at_quad("p_P", 1)
    total += params.rho_s * integral(w * (1.0 - phi), u_s**2)
    total += integral(w * (1.0 - phi)**2 / params.K, p_p**2)
    total += params.rho_f * integral(w * phi, (u_r + u_s)**2)
    y_space = state.spaces.y_s
    grads = geo_p.physical_grads(tab[2][1])
    c, q, nloc, _ = grads.shape
    coeffs = state.block("y_s").reshape(y_space.num_nodes, 2)
    g = (np.swapaxes(grads, 2, 3).reshape(c, 2 * q, nloc)
         @ coeffs[y_space.cell_dofs]).reshape(c, q, 2, 2)
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    total += 2.0 * params.mu_p * integral(w, eps**2)
    total += params.lam_p * integral(w, (g[..., 0, 0] + g[..., 1, 1])**2)
    return 0.5 * total


def _energy_einsum(state, params):
    """discrete_energy as per-entry einsum contractions, as the reference."""
    mesh = state.spaces.u_f.mesh
    rule = fem.quadrature_rule("triangle", forms.VOLUME_QUAD_DEGREE)
    tab = {1: fem.tabulate(1, rule.points), 2: fem.tabulate(2, rule.points)}
    geo_s = fem.CellGeometry(mesh, mesh.cells_in("S"), rule)
    geo_p = fem.CellGeometry(mesh, mesh.cells_in("P"), rule)

    def at_quad(name, degree):
        space = getattr(state.spaces, name)
        coeffs = state.block(name).reshape(space.num_nodes, space.components)
        return np.einsum("ql,clk->cqk", tab[degree][0], coeffs[space.cell_dofs])

    u_f = at_quad("u_f", 2)
    total = params.rho_f * np.einsum("cq,cqk->", geo_s.wdet, u_f**2)
    phi = np.full(geo_p.wdet.shape, params.phi)
    u_s, u_r, p_p = at_quad("u_s", 1), at_quad("u_r", 2), at_quad("p_P", 1)
    total += params.rho_s * np.einsum("cq,cq,cqk->", geo_p.wdet, 1.0 - phi, u_s**2)
    total += np.einsum("cq,cq,cqk->", geo_p.wdet, (1.0 - phi)**2 / params.K,
                       p_p**2)
    total += params.rho_f * np.einsum("cq,cq,cqk->", geo_p.wdet, phi,
                                      (u_r + u_s)**2)
    y_space = state.spaces.y_s
    grads = geo_p.physical_grads(tab[2][1])
    coeffs = state.block("y_s").reshape(y_space.num_nodes, 2)
    g = np.einsum("cqld,clk->cqkd", grads, coeffs[y_space.cell_dofs])
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    div = g[..., 0, 0] + g[..., 1, 1]
    total += 2.0 * params.mu_p * np.einsum("cq,cqkd->", geo_p.wdet, eps**2)
    total += params.lam_p * np.einsum("cq,cq->", geo_p.wdet, div**2)
    return 0.5 * float(total)


def test_energy_of_stepper_operators_matches_own_geometry(small_setup, rng):
    mesh, spaces, params, nitsche = small_setup
    stepper = TimeStepper(spaces, params, nitsche, TimeGrid(tau=1e-3, final=1e-3))
    energy = forms.energy_matrix(spaces, stepper.M, stepper.N)
    state = _random_state(spaces, rng)
    want = _energy_own_geometry(state, params)
    assert abs(discrete_energy(state, energy) - want) <= 1e-13 * want


# away from the reference set: every weight of the energy differs from 1
NON_REFERENCE_PARAMS = dict(REFERENCE_PARAMS, phi=0.3, theta=-0.5,
                            rho_s=2.0, K=3.0, mu_p=7.0, lam_p=100.0)


@pytest.mark.parametrize("nx", [4, 24])
def test_energy_matches_einsum_reference(nx):
    # 1/2 x^T E x against the energy integrated by einsum contractions, and
    # E symmetric
    spaces = build_spaces(generate_structured(nx, nx))
    rng = np.random.default_rng(nx)
    for values in (REFERENCE_PARAMS, NON_REFERENCE_PARAMS):
        params = PhysicalParams(**values)
        energy = _energy_matrix(spaces, params)
        assert abs(energy - energy.T).max() <= 1e-12 * abs(energy).max()
        for _ in range(5):
            state = _random_state(spaces, rng)
            want = _energy_einsum(state, params)
            assert abs(discrete_energy(state, energy) - want) <= 1e-13 * want


@pytest.mark.parametrize("case", ["anisotropic", "channel"])
def test_energy_matches_einsum_reference_off_the_square(case):
    if case == "anisotropic":
        mesh = generate_structured(8, 8)
        params = PhysicalParams(**dict(
            REFERENCE_PARAMS, kappa=[[2.0, 0.5], [0.5, 1.0]], theta=-0.5,
            phi=0.3, K=3.0, rho_s=2.0))
    else:
        mesh = generate_channel(10, 14)  # with tests/test_pin.py's parameters
        params = PhysicalParams(**dict(REFERENCE_PARAMS, mu_f=0.01,
                                       mu_p=1033.6, lam_p=49364.0, phi=0.3,
                                       kappa=1e-3, K=1e6))
    spaces = build_spaces(mesh)
    energy = _energy_matrix(spaces, params, NitscheParams(gamma=30.0))
    rng = np.random.default_rng(11)
    for _ in range(3):
        state = _random_state(spaces, rng)
        want = _energy_einsum(state, params)
        assert abs(discrete_energy(state, energy) - want) <= 1e-13 * want


def test_energy_sign_flip_invariance(small_setup, table1_params, rng):
    mesh, spaces, params, nitsche = small_setup
    state = _random_state(spaces, rng)
    flipped = StateVector(spaces, -state.vector())
    energy = _energy_matrix(spaces, table1_params, nitsche)
    e1 = discrete_energy(state, energy)
    e2 = discrete_energy(flipped, energy)
    assert abs(e1 - e2) < 1e-12 * max(1.0, e1)


def test_time_refinement_keeps_spatial_error_dominant():
    # halving tau moves the final-time errors by less than the error itself
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    sol, loads = verification.manufactured_problem(params)
    mesh = generate_structured(4, 4)
    spaces = build_spaces(mesh)
    errs = {}
    for tau in (2.5e-4, 1.25e-4):
        grid = TimeGrid(tau=tau, final=1e-3)
        stepper = TimeStepper(spaces, params, nitsche, grid, **loads)
        state = solver.march(stepper, StateVector.zero(spaces))
        errs[tau], _ = verification.final_time_errors(state, sol)
    for name in verification.ERROR_FIELDS:
        delta = abs(errs[2.5e-4][name] - errs[1.25e-4][name])
        assert delta < errs[2.5e-4][name], name


# --- Dirichlet lift and interface jump -------------------------------------------

@pytest.mark.parametrize("convection", [False, True])
def test_lift_matches_full_product(convection):
    # the stepper's lift, fem.apply_dirichlet by the held Dirichlet columns,
    # which skips the product when every prescribed value is zero, against
    # the product with the whole operator: bit for bit without convection or
    # without values
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    spaces = build_spaces(generate_structured(4, 4))
    _, loads = verification.manufactured_problem(params)
    stepper = TimeStepper(spaces, params, nitsche,
                          TimeGrid(tau=1e-3, final=3e-3),
                          convection=convection, **loads)
    state, _ = stepper.step(StateVector.zero(spaces), 1)
    rng = np.random.default_rng(7)
    dofs, vals = forms.dirichlet_data(spaces, stepper.boundary_values,
                                      stepper.grid.time_at(2))
    assert np.abs(vals).max() > 0.0
    rhs = rng.normal(size=spaces.size)
    operator = stepper._m_over_tau + stepper.N
    cases = [(operator, None)]
    if convection:
        conv = forms.assemble_convection(stepper.ctx, state.block("u_f"))
        full = stepper._convection.matrices(conv)[0]
        cases.append((operator + forms.from_contributions(
            spaces, convection_parts(stepper.ctx, conv)), full))
    for matrix, added in cases:
        for values in (vals, rng.normal(size=vals.size), np.zeros(vals.size)):
            want = np.array(rhs)
            if np.any(values):
                want -= matrix @ np.bincount(dofs, values, rhs.size)
            want[dofs] = values
            got = fem.apply_dirichlet(stepper._columns, rhs, dofs, values, added)
            assert np.array_equal(got[dofs], values)
            if added is None or not np.any(values):
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_jump_seminorm_matches_per_facet_reference(small_setup):
    import _per_facet
    _, _, params, nitsche = small_setup
    rng = np.random.default_rng(5)
    for kind in INTERFACE_MESHES:
        spaces = build_spaces(interface_mesh(kind))
        ctx = forms.AssemblyContext(spaces, params, nitsche)
        previous, state = _random_state(spaces, rng), _random_state(spaces, rng)
        tau = 0.25
        rate = (state.block("y_s") - previous.block("y_s")) / tau
        want = _per_facet.interface_jump_seminorm(ctx, state, rate)
        got = forms.interface_jump_seminorm(ctx, previous, state, tau)
        assert want > 0.0, kind
        assert abs(got - want) <= 1e-13 * want, kind
