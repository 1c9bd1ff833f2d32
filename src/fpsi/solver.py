"""Backward Euler stepping of the monolithic system and per-step solves."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from . import fem, forms
from .ordering import nested_dissection


class SolverError(RuntimeError):
    """Base class for linear-solve failures."""


class SingularSystemError(SolverError):
    """Factorization failed (structural or numerical singularity)."""


class NonFiniteSolutionError(SolverError):
    """The solve produced NaN or infinite entries."""


@dataclass(frozen=True)
class TimeGrid:
    """Constant-step grid: nsteps * tau must reproduce the final time."""

    tau: float
    final: float
    nsteps: int = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"time step must be positive, got {self.tau}")
        n = self.nsteps if self.nsteps is not None else round(self.final / self.tau)
        n = int(n)
        if n < 0 or abs(n * self.tau - self.final) > 1e-12 * max(1.0, self.final):
            raise ValueError(
                f"final time {self.final} is not an integer multiple of "
                f"tau={self.tau}")
        object.__setattr__(self, "nsteps", n)

    def time_at(self, n):
        return n * self.tau


@dataclass
class StepReport:
    index: int
    residual: float
    factorized: bool = False
    pinned_pressure: bool = False
    wall_time: float = 0.0


# Defect correction stops once the residual is within this factor of the
# held factor's floor: the residual its own direct solve reached.
FLOOR_FACTOR = 4.0

# SuperLU keeps a diagonal pivot while its magnitude is at least this
# fraction of the largest in its column.  Small enough that the symmetric
# nested-dissection order survives pivoting (1e-3 already costs ~2x fill at
# nx=32), and still a row swap where a diagonal entry is zero, as in the
# pressure blocks.
PIVOT_THRESHOLD = 1e-4


class Factor:
    """Sparse LU factor of ``matrix``, held across calls of ``solve_linear``.

    The rows and columns are ordered by ``ordering.nested_dissection`` of
    the matrix's sparsity pattern, so every factorization of one pattern
    orders the same way, and SuperLU pivots on the diagonal unless it is
    below ``PIVOT_THRESHOLD`` of its column.  ``matrix`` is the object that
    was factored; ``refresh`` replaces the factor with one of another
    matrix.  ``floor`` is the relative residual of the first direct solve
    with the factor (None until then): the precision this factor can reach.
    """

    def __init__(self, matrix):
        self.refresh(matrix)

    def refresh(self, matrix):
        """Order and factor ``matrix`` in place of the held factor.

        Stored zeros are dropped before ordering, so they cannot add fill.
        """
        csc = sparse.csc_matrix(matrix, copy=True)
        csc.eliminate_zeros()
        perm = nested_dissection(csc)
        try:
            lu = spla.splu(csc[perm][:, perm], permc_spec="NATURAL",
                           diag_pivot_thresh=PIVOT_THRESHOLD,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            kind = "structural" if "exactly singular" in str(exc).lower() else "numerical"
            raise SingularSystemError(
                f"sparse factorization failed ({kind} singularity): {exc}") from exc
        self.matrix, self.csc, self.lu = matrix, csc, lu
        self._perm, self._inverse = perm, np.argsort(perm)
        self.floor = None

    def solve(self, rhs):
        """Solve with the factored matrix: two triangular solves, permuted."""
        return self.lu.solve(rhs[self._perm])[self._inverse]


def solve_linear(matrix, rhs, tol=1e-9, factor=None):
    """Sparse LU solve with a residual check, reusing a held factor.

    Returns (solution, relative_residual), the residual taken against
    ``matrix``.  ``factor`` is a ``Factor`` kept by the caller; without one
    ``matrix`` is factored here, in the same nested-dissection order and
    with the same diagonal-preferring pivots as every ``Factor``.  With the factor of ``matrix`` itself the
    solve is direct, plus one refinement pass when the residual exceeds
    ``tol``; the first direct solve records the factor's floor.  A factor
    of another matrix preconditions defect correction, which stops when the
    residual is within ``FLOOR_FACTOR`` of that floor or no longer halves.
    If the residual still exceeds ``tol``, ``matrix`` is factored and its
    factor replaces the held one.  Structural or numerical singularities
    raise SingularSystemError; non-finite solutions raise
    NonFiniteSolutionError; a residual above ``tol`` raises SolverError.
    """
    rhs = np.asarray(rhs, dtype=float)
    factor = factor if factor is not None else Factor(matrix)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    x, res = _solve_with(factor, matrix, rhs, scale, tol)
    if res > tol and factor.matrix is not matrix:
        factor.refresh(matrix)
        x, res = _solve_with(factor, matrix, rhs, scale, tol)
    if not np.all(np.isfinite(x)):
        raise NonFiniteSolutionError("solution contains non-finite entries")
    if res > tol:
        raise SolverError(
            f"linear solve residual {res:.3e} exceeds tolerance {tol:.1e}")
    return x, res


def _solve_with(factor, matrix, rhs, scale, tol):
    x = factor.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise NonFiniteSolutionError("solution contains non-finite entries")
    if factor.matrix is matrix:
        csc = factor.csc
        res = float(np.linalg.norm(rhs - csc @ x)) / scale
        if res > tol:
            x = x + factor.solve(rhs - csc @ x)
            res = float(np.linalg.norm(rhs - csc @ x)) / scale
        if factor.floor is None:
            factor.floor = res
        return x, res
    # A pass below the factor's floor can only trade rounding for rounding;
    # a pass that does not halve the residual means the factor has stopped
    # converging.  Until a direct solve has set the floor only the second
    # exit applies.
    stop = FLOOR_FACTOR * factor.floor if factor.floor is not None else 0.0
    r = rhs - matrix @ x
    res = float(np.linalg.norm(r)) / scale
    while res > stop:
        x_new = x + factor.solve(r)
        r_new = rhs - matrix @ x_new
        res_new = float(np.linalg.norm(r_new)) / scale
        if not res_new < res:
            break
        halved = res_new <= 0.5 * res
        x, r, res = x_new, r_new, res_new
        if not halved:
            break
    return x, res


class _ConvectionUpdate:
    """M/tau + N and its eliminated form on one pattern that also holds C.

    Built with each factor from M/tau + N, the Dirichlet mask ``keep`` and
    the convection kernel's (rows, cols).  ``matrices(values)`` sums one
    step's convection values into both by a single ``np.bincount``; a data
    mask zeroes them in the eliminated rows and columns.  No sparse
    structure is built per step.
    """

    def __init__(self, operator, keep, rows, cols):
        pattern, self._pos = fem.fixed_pattern(operator, rows, cols)
        self._indices, self._indptr = pattern.indices, pattern.indptr
        self._shape = pattern.shape
        row = np.repeat(np.arange(pattern.shape[0]), np.diff(self._indptr))
        mask = keep[row] * keep[self._indices]
        unit = np.where(row == self._indices, 1.0 - keep[row], 0.0)
        # the data of both matrices, eliminated as fem.eliminate_matrix does;
        # C's rows come first, so only the head before _span ever changes
        self._op_now = pattern.data
        self._el_now = mask * pattern.data + unit
        span = self._span = int(self._pos.max()) + 1 if self._pos.size else 0
        self._op_head = self._op_now[:span].copy()
        self._el_head = self._el_now[:span].copy()
        self._mask = mask[:span]

    def matrices(self, values):
        """(operator + C, eliminated + masked C) for C's local values.

        Both share their index arrays, and data buffers that the next call
        overwrites: use them for this step's solve only, and never change
        their structure in place (``eliminate_zeros``, ``sort_indices``).
        """
        span = self._span
        conv = np.bincount(self._pos, weights=values, minlength=span)
        np.add(self._op_head, conv, out=self._op_now[:span])
        np.add(self._el_head, self._mask * conv, out=self._el_now[:span])
        return self._csr(self._op_now), self._csr(self._el_now)

    def _csr(self, data):
        return sparse.csr_matrix((data, self._indices, self._indptr),
                                 shape=self._shape)


class TimeStepper:
    """Backward Euler stepper: factors once, refreshes convection per step.

    The first step builds M / tau + N, eliminates its Dirichlet dofs and
    factors it.  With convection on, the same step lays M / tau + N and its
    eliminated form on one sparse pattern that also holds the convection
    block, so each later step adds the lagged C(u_prev) to both by one
    scatter of its local values, masked in the eliminated rows and columns,
    without building sparse structure.  The factor is a ``Factor``: SuperLU
    on the rows and columns in nested-dissection order of the eliminated
    operator's pattern, pivoting on the diagonal down to ``PIVOT_THRESHOLD``
    of its column; the ordering runs in the first step, not here.  Each step
    lifts the Dirichlet data of the new time level with that step's operator
    and solves with the held factor: directly while the operator is the factored one, by defect
    correction otherwise, which stops at the factor's precision floor (two
    triangular solves per convective step) or when the residual no longer
    halves.  A step whose correction ends above ``solver_tol`` factors its
    own operator, which later steps then reuse.  If a factorization is
    singular and ``pin_pressure_fallback`` is set, one free-flow pressure
    dof is pinned to zero and the pinned operator is factored, with the
    pattern rebuilt; the pin holds for every later step.
    """

    def __init__(self, spaces, params, nitsche, grid, sources=None,
                 corrections=None, boundary_values=None, convection=True,
                 solver_tol=1e-9, pin_pressure_fallback=True):
        self.spaces = spaces
        self.params = params
        self.nitsche = nitsche
        self.grid = grid
        self.sources = sources
        self.corrections = corrections
        self.boundary_values = boundary_values or {}
        self.convection = convection
        self.solver_tol = solver_tol
        self.pin_pressure_fallback = pin_pressure_fallback
        self.ctx = forms.AssemblyContext(spaces, params, nitsche)
        self.M = forms.assemble_M(spaces, params, nitsche, ctx=self.ctx)
        self.N = forms.assemble_N(spaces, params, nitsche, ctx=self.ctx)
        self._m_over_tau = self.M.matrix * (1.0 / grid.tau)
        self._operator = None    # M / tau + N, built by the first step
        self._eliminated = None  # its eliminated form; None until then
        self._update = None      # their fixed pattern with C, if convective
        self._pin = None         # the pinned pressure dof, if any
        self._factor = None

    def step(self, state_prev, step_index):
        """Advance from t_{n-1} to t_n = n tau; returns (state, report)."""
        t_n = self.grid.time_at(step_index)
        start = _time.perf_counter()
        conv = None
        if self.convection:
            conv = forms.assemble_convection(
                self.spaces.u_f, state_prev.block("u_f"), self.ctx)
        load = forms.assemble_F(self.spaces, self.sources, t_n,
                                corrections=self.corrections, ctx=self.ctx)
        rhs = load + self._m_over_tau @ state_prev.vector()
        dofs, vals = fem.dirichlet_data(self.M, self.spaces,
                                        self.boundary_values, t_n)
        held = self._factor and self._factor.lu
        where = f"step {step_index} (t={t_n:.6g})"
        try:
            x, res = self._solve(conv, rhs, dofs, vals)
        except SingularSystemError as exc:
            if not self.pin_pressure_fallback or self._pin is not None:
                raise SingularSystemError(
                    f"{where}: {exc}; consider raising the penalty gamma or "
                    "pinning a pressure dof") from exc
            self._pin = self.M.offsets[forms.BLOCK_NAMES.index("p_S")]
            self._eliminated = None
            try:
                x, res = self._solve(conv, rhs, dofs, vals)
            except SolverError as exc2:
                raise SingularSystemError(
                    f"{where} remains singular after pinning a pressure dof: "
                    f"{exc2}; consider raising the penalty gamma") from exc2
        except NonFiniteSolutionError as exc:
            raise NonFiniteSolutionError(
                f"{where}: {exc}; check the loads, the boundary data and the "
                "previous state for NaN or infinite values") from exc
        except SolverError as exc:
            raise SolverError(
                f"{where}: {exc}; consider a smaller time step or a larger "
                "solver.tolerance") from exc
        state = forms.StateVector.from_vector(self.spaces, x, time=t_n)
        report = StepReport(index=step_index, residual=res,
                            factorized=self._factor.lu is not held,
                            pinned_pressure=self._pin is not None,
                            wall_time=_time.perf_counter() - start)
        return state, report

    def _solve(self, conv, rhs, dofs, vals):
        """Eliminate, lift and solve one step's system with the held factor."""
        if self._pin is not None:
            dofs, vals = np.append(dofs, self._pin), np.append(vals, 0.0)
        if self._eliminated is None:
            operator = self._m_over_tau + self.N.matrix
            eliminated, keep = fem.eliminate_matrix(operator, dofs)
            self._factor = Factor(eliminated)
            self._operator, self._eliminated = operator, eliminated
            if self.convection:
                rows, cols = self.ctx.vec_pattern(self.spaces.u_f)
                start = self.M.offsets[forms.BLOCK_NAMES.index("u_f")]
                self._update = _ConvectionUpdate(operator, keep, rows + start,
                                                 cols + start)
        operator, matrix = self._operator, self._eliminated
        if conv is not None:
            operator, matrix = self._update.matrices(conv[4])
        return solve_linear(matrix, fem.lift_dofs(operator, rhs, dofs, vals),
                            self.solver_tol, self._factor)


def _field_at_quad(block, phi_table):
    space = block.space
    coeffs = block.values.reshape(space.num_nodes, space.components)
    return np.einsum("ql,clk->cqk", phi_table, coeffs[space.cell_dofs])


def discrete_energy(state, params, ctx=None):
    """Quadratic energy of a state.

    1/2 [ rho_f |u_f|^2 + rho_s (1 - phi) |u_s|^2 + (1 - phi)^2 / K |p_P|^2
          + rho_f phi |u_r + u_s|^2 + 2 mu_p |eps(y_s)|^2
          + lam_p |div y_s|^2 ]

    ``ctx`` is an ``AssemblyContext`` on the state's spaces, such as a
    stepper's; its geometry, tabulations and gradients are reused.  Without
    one a context is built for this call.
    """
    if ctx is None:
        ctx = forms.AssemblyContext(
            forms.Spaces(*(block.space for block in state.blocks)), params)
    tab = ctx.tab
    geo_s, geo_p = ctx.geo["S"], ctx.geo["P"]

    u_f = _field_at_quad(state.block("u_f"), tab[2][0])
    total = params.rho_f * np.einsum("cq,cqk->", geo_s.wdet, u_f**2)

    xp, yp = geo_p.x[..., 0], geo_p.x[..., 1]
    phi = params.phi.at(xp, yp)
    u_s = _field_at_quad(state.block("u_s"), tab[1][0])
    u_r = _field_at_quad(state.block("u_r"), tab[2][0])
    p_p = _field_at_quad(state.block("p_P"), tab[1][0])
    total += params.rho_s * np.einsum("cq,cq,cqk->", geo_p.wdet, 1.0 - phi, u_s**2)
    total += np.einsum("cq,cq,cqk->", geo_p.wdet, (1.0 - phi)**2 / params.K,
                       p_p**2)
    total += params.rho_f * np.einsum("cq,cq,cqk->", geo_p.wdet, phi,
                                      (u_r + u_s)**2)

    y_space = state.block("y_s").space
    grads = ctx.grads(y_space)
    coeffs = state.block("y_s").values.reshape(y_space.num_nodes, 2)
    g = np.einsum("cqld,clk->cqkd", grads, coeffs[y_space.cell_dofs])
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    div = g[..., 0, 0] + g[..., 1, 1]
    total += 2.0 * params.mu_p * np.einsum("cq,cqkd->", geo_p.wdet, eps**2)
    total += params.lam_p * np.einsum("cq,cq->", geo_p.wdet, div**2)
    return 0.5 * float(total)


def interface_jump_seminorm(ctx, state, rate_y_values):
    """Sum over interface facets of h_E^{-1} | n.u_f + n.u_r + n.d_t y |^2.

    ``rate_y_values`` holds the coefficients of the discrete displacement
    rate (typically the backward difference of y_s over the last step).
    """
    spaces = ctx.spaces
    total = 0.0
    for facet in ctx.facet_tables():
        pair = facet["pair"]
        jn = (ctx.trace_normal(spaces.u_f, facet, pair.normal_s)
              @ state.block("u_f").values[ctx.facet_cell_dofs(spaces.u_f, facet)]
              + ctx.trace_normal(spaces.u_r, facet, pair.normal_p)
              @ state.block("u_r").values[ctx.facet_cell_dofs(spaces.u_r, facet)]
              + ctx.trace_normal(spaces.y_s, facet, pair.normal_p)
              @ rate_y_values[ctx.facet_cell_dofs(spaces.y_s, facet)])
        total += float(facet["w"] @ jn**2) / pair.h_e
    return total


@dataclass
class RunSummary:
    mode: str
    dof_count: int
    h_max: float
    nsteps: int
    energy: list = field(default_factory=list)
    errors: dict = None
    h1_errors: dict = None
    jump_seminorm: float = None
    reports: list = field(default_factory=list)
    final_state: object = None


def run(config, on_step=None):
    """Execute one configured simulation and summarize it.

    ``config`` provides the mesh, parameters, grid, and mode (see the cli
    module).  In manufactured mode the load carries the derived sources and
    interface corrections and the summary includes final-time errors; in
    general mode boundary data comes from the configured profiles.
    ``on_step(state, index)`` is invoked after every accepted step.
    """
    from . import verification

    mesh = config.build_mesh()
    spaces = forms.build_spaces(mesh)
    params = config.physical_params()
    nitsche = config.nitsche_params()
    grid = config.time_grid()

    if config.mode == "manufactured":
        sol = verification.ExactSolution()
        sources = verification.derive_sources(params)
        corrections = verification.derive_corrections(params)
        bvals = verification.manufactured_boundary_values(sol)
    else:
        sources = None
        corrections = None
        bvals = config.boundary_values()

    stepper = TimeStepper(spaces, params, nitsche, grid, sources=sources,
                          corrections=corrections, boundary_values=bvals,
                          convection=config.convection,
                          solver_tol=config.solver_tolerance)
    state = forms.StateVector.zero(spaces, time=0.0)
    summary = RunSummary(mode=config.mode,
                         dof_count=sum(sp.ndofs for sp in spaces),
                         h_max=mesh.h_max(), nsteps=grid.nsteps)
    summary.energy.append(discrete_energy(state, params, stepper.ctx))
    prev = state
    for n in range(1, grid.nsteps + 1):
        prev = state
        state, report = stepper.step(state, n)
        summary.reports.append(report)
        summary.energy.append(discrete_energy(state, params, stepper.ctx))
        if on_step is not None:
            on_step(state, n)
    summary.final_state = state
    if grid.nsteps > 0:
        rate = (state.block("y_s").values - prev.block("y_s").values) / grid.tau
        summary.jump_seminorm = interface_jump_seminorm(stepper.ctx, state, rate)
    if config.mode == "manufactured":
        sol = verification.ExactSolution()
        summary.errors, summary.h1_errors = verification.final_time_errors(
            state, sol)
    return summary
