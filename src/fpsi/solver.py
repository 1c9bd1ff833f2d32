"""Backward Euler stepping of the monolithic system and per-step solves."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

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
    """Constant-step grid: final / tau must be an integer, the step count."""

    tau: float
    final: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"time step must be positive, got {self.tau}")
        n = self.nsteps
        if n < 0 or abs(n * self.tau - self.final) > 1e-12 * max(1.0, self.final):
            raise ValueError(
                f"final time {self.final} is not an integer multiple of "
                f"tau={self.tau}")

    @property
    def nsteps(self):
        return int(round(self.final / self.tau))

    def time_at(self, n):
        return n * self.tau


@dataclass
class StepReport:
    """One step's outcome; ``solves`` counts its ``Factor.solve`` calls."""

    residual: float
    factorized: bool = False
    pinned_pressure: bool = False
    solves: int = 0


# Relative residual every time step must reach, unless the caller gives its
# own (the ``solver.tolerance`` configuration key).
TOLERANCE = 1e-9

# Defect correction stops once the residual is within this factor of the
# held factor's floor: the residual its own direct solve reached.
FLOOR_FACTOR = 4.0

# Largest relative deviation (max norm) of the load polynomial from
# ``forms.assemble_F`` at the check time 3T/4 before the stepper refuses it.
LOAD_CHECK_RTOL = 1e-12

# SuperLU keeps a diagonal pivot while its magnitude is at least this
# fraction of the largest in its column.  Small enough that the symmetric
# nested-dissection order survives pivoting (1e-3 already costs ~2x fill at
# nx=32), and still a row swap where a diagonal entry is zero, as in the
# pressure blocks.
PIVOT_THRESHOLD = 1e-4


def mesh_order(spaces, pairs, eliminated):
    """Symmetric dof permutation from the nested dissection of the mesh.

    The graph's vertices are the mesh P2 nodes (``FunctionSpace.mesh_nodes``)
    that carry a dof outside ``eliminated``; two are adjacent when one cell,
    or the two cells of one interface facet in ``pairs``, hold both.  The
    ``eliminated`` dofs come first, then the free dofs node by node in the
    dissection's order, each node's in index order.  The order depends on
    the mesh and the spaces only, never on an operator's values.
    """
    mesh = spaces[0].mesh
    total = mesh.num_vertices + mesh.num_edges
    # the graph numbers edge nodes before vertex nodes, so a leaf eliminates
    # the velocities on its edges before the pressures at its vertices,
    # whose diagonal is zero until then: fewer off-diagonal pivots
    edges_first = lambda ids: (ids - mesh.num_vertices) % total
    node = edges_first(np.concatenate([np.repeat(sp.mesh_nodes, sp.components)
                                       for sp in spaces]))
    free = np.ones(node.size, dtype=bool)
    free[np.asarray(eliminated, dtype=np.int64)] = False
    carrying = np.zeros(total, dtype=bool)
    carrying[node[free]] = True
    index = np.cumsum(carrying) - 1
    cell_nodes = edges_first(
        np.hstack([mesh.cells, mesh.num_vertices + mesh.cell_edges]))
    cliques = [cell_nodes]
    if pairs:
        cliques.append(np.hstack([cell_nodes[pairs.cell_s], cell_nodes[pairs.cell_p]]))
    rows, cols = [], []
    for clique in cliques:
        k = clique.shape[1]
        rows.append(np.repeat(clique, k, axis=1).ravel())
        cols.append(np.tile(clique, (1, k)).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    both = carrying[rows] & carrying[cols]
    count = int(carrying.sum())
    graph = sparse.csr_matrix(
        (np.ones(int(both.sum())), (index[rows[both]], index[cols[both]])),
        shape=(count, count))
    rank = np.empty(count, dtype=np.int64)
    rank[nested_dissection(graph)] = np.arange(count)
    free_dofs = np.flatnonzero(free)
    by_node = np.argsort(rank[index[node[free_dofs]]], kind="stable")
    return np.concatenate([np.flatnonzero(~free), free_dofs[by_node]])


class Factor:
    """Sparse LU factor of a matrix, held across calls of ``solve_linear``.

    The rows and columns are permuted by ``perm``, such as ``mesh_order``'s;
    the order is fixed at construction and every ``refresh`` reuses it.
    SuperLU pivots on the diagonal unless it is below ``PIVOT_THRESHOLD`` of
    its column.  ``matrix`` is the factor's own copy of what it factored, a
    CSR matrix without stored zeros, so no later change to the caller's
    arrays reaches it; ``refresh`` replaces both with those of another
    matrix.  ``floor`` is the relative residual of the first direct solve
    with the factor (None until then): the precision this factor can reach.
    """

    def __init__(self, matrix, perm):
        self.perm = perm
        self._inverse = np.argsort(perm)
        self.solves = 0
        self.refresh(matrix)

    def refresh(self, matrix):
        """Factor ``matrix`` in the held order in place of the held factor.

        Stored zeros are dropped first, so they cannot add fill.
        """
        own = sparse.csr_matrix(matrix, copy=True)
        own.eliminate_zeros()
        try:
            lu = spla.splu(own.tocsc()[self.perm][:, self.perm], permc_spec="NATURAL",
                           diag_pivot_thresh=PIVOT_THRESHOLD,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            kind = "structural" if "exactly singular" in str(exc).lower() else "numerical"
            raise SingularSystemError(
                f"sparse factorization failed ({kind} singularity): {exc}") from exc
        self.matrix, self.lu = own, lu
        self.floor = None

    def solve(self, rhs):
        """Solve with the factored matrix: two triangular solves, permuted.

        ``solves`` counts the calls over the factor's life, refreshes included.
        """
        self.solves += 1
        return self.lu.solve(rhs[self.perm])[self._inverse]


def solve_linear(matrix, rhs, tol, factor, guess=None, addend=None):
    """Sparse LU solve of (matrix + addend) x = rhs with a residual check,
    reusing a held factor.

    Returns (solution, relative_residual), the residual taken against
    ``matrix + addend`` as two products, ``matrix @ x + addend @ x``: the
    sum is not built.  ``addend`` is a sparse matrix of the same shape, or
    None for none.  ``factor`` is a ``Factor`` kept by the caller, whose
    order also serves ``matrix``.  With the factor's own matrix,
    ``factor.matrix``, and no ``addend``, the solve is direct, plus one
    refinement pass when the residual exceeds ``tol / 10``; the first direct
    solve records the factor's floor, and ``guess`` is ignored.  Otherwise
    the factor preconditions defect correction, which starts from ``guess``
    (from the factor's solution of ``rhs`` without one) and stops when the
    residual is within ``FLOOR_FACTOR`` of that floor or no longer halves: a
    guess already within it costs no solve.  If a finite residual still exceeds
    ``tol``, ``matrix + addend`` is summed once and factored, in the held
    factor's order, and its factor replaces the held one.  Structural or
    numerical singularities raise SingularSystemError; a non-finite
    solution, load norm or residual raises NonFiniteSolutionError; a
    residual above ``tol`` raises SolverError.
    """
    rhs = np.asarray(rhs, dtype=float)
    norm = float(np.linalg.norm(rhs))
    if not np.isfinite(norm):
        raise NonFiniteSolutionError(f"the load's norm is {norm}")
    scale = max(norm, 1e-300)
    x, res = _solve_with(factor, matrix, rhs, scale, tol, guess, addend)
    if tol < res < np.inf and (factor.matrix is not matrix or addend is not None):
        factor.refresh(matrix if addend is None else matrix + addend)
        x, res = _solve_with(factor, factor.matrix, rhs, scale, tol)
    if not np.all(np.isfinite(x)):
        raise NonFiniteSolutionError("solution contains non-finite entries")
    if not np.isfinite(res):
        raise NonFiniteSolutionError(f"the relative residual is {res}")
    if res > tol:
        raise SolverError(
            f"linear solve residual {res:.3e} exceeds tolerance {tol:.1e}")
    return x, res


def _solve_with(factor, matrix, rhs, scale, tol, guess=None, addend=None):
    direct = factor.matrix is matrix and addend is None
    x = factor.solve(rhs) if direct or guess is None else guess
    if not np.all(np.isfinite(x)):
        raise NonFiniteSolutionError("solution contains non-finite entries")
    if direct:
        # refine short of tol: the floor of a finer mesh's factor can come
        # within a factor of ten of it
        res = float(np.linalg.norm(rhs - matrix @ x)) / scale
        if res > 0.1 * tol:
            x = x + factor.solve(rhs - matrix @ x)
            res = float(np.linalg.norm(rhs - matrix @ x)) / scale
        if factor.floor is None:
            factor.floor = res
        return x, res

    def residual(x):
        r = rhs - matrix @ x
        if addend is not None:
            r -= addend @ x
        return r

    # A pass below the factor's floor can only trade rounding for rounding;
    # a pass that does not halve the residual means the factor has stopped
    # converging.  Until a direct solve has set the floor only the second
    # exit applies.
    stop = FLOOR_FACTOR * factor.floor if factor.floor is not None else 0.0
    r = residual(x)
    res = float(np.linalg.norm(r)) / scale
    while res > stop:
        x_new = x + factor.solve(r)
        r_new = residual(x_new)
        res_new = float(np.linalg.norm(r_new)) / scale
        if not res_new < res:
            break
        halved = res_new <= 0.5 * res
        x, r, res = x_new, r_new, res_new
        if not halved:
            break
    return x, res


class _Convection:
    """C(u) on its own int32 CSR structure: the distinct slots of its entries.

    ``rows`` and ``cols`` place the convection block's values twice, once
    per velocity component, as ``ctx.component_pattern("u_f")`` does;
    ``keep`` is the mask of ``fem.eliminate_matrix``.  ``matrices(block)``
    sums one step's block into the slots of both components by a single
    ``np.bincount``, as a sparse sum would, and returns C and its
    eliminated form, zero in the rows and columns where ``keep`` is: two
    data arrays on the one structure.
    """

    def __init__(self, rows, cols, keep):
        size = keep.size
        slots, self._pos = np.unique(rows.astype(np.int64) * size + cols,
                                     return_inverse=True)
        row, col = np.divmod(slots, size)
        self._indices = col.astype(np.int32)
        self._indptr = np.searchsorted(row, np.arange(size + 1)).astype(np.int32)
        self._mask = keep[row] * keep[col]

    def matrices(self, block):
        data = np.bincount(self._pos, minlength=self._mask.size,
                           weights=np.tile(block.ravel(), 2))
        size = self._indptr.size - 1
        csr = lambda values: sparse.csr_matrix(
            (values, self._indices, self._indptr), shape=(size, size))
        return csr(data), csr(self._mask * data)


class TimeStepper:
    """Backward Euler stepper: factors once, applies convection per step.

    The first step builds M / tau + N, keeps its Dirichlet columns for the
    lift, eliminates it and drops it before the factor: the factor's own
    matrix, A0 = ``factor.matrix``, is the one operator the loop holds.
    With convection on, the lagged C(u_prev) lives on its own structure, a
    ``_Convection`` built after the factor, and each step solves with
    A0 + C_el, its eliminated form, as two products.  The factor is a
    ``Factor``: SuperLU on the rows and columns in ``mesh_order``, the
    nested dissection of the mesh's node graph, pivoting on the diagonal
    down to ``PIVOT_THRESHOLD`` of its column.  The order is computed once,
    in the first step, and every later factorization of the loop reuses it.
    Each step lifts the Dirichlet data of the new time level with the held
    columns and C's, by ``fem.apply_dirichlet`` (no product when every value
    is zero), and solves with the held factor: directly while the operator
    is the factored one (with a zero previous velocity, A0 alone), by
    defect correction otherwise, which stops at the factor's precision
    floor or when the residual no longer halves.  The stepper holds the
    solutions of its last three steps and the state it last returned: a
    convective step from that state, at the next index, starts its
    correction from their extrapolation, 3 x1 - 3 x2 + x3 (2 x1 - x2 with
    two held; newest first), with the constrained dofs set to their
    values, so after a short start-up one correction pass, one factor
    solve, reaches the floor; any other step
    starts from the factor's solution, one pass more.  A step whose
    correction ends above ``solver_tol`` factors its own A0 + C_el, which
    later steps then reuse.  If a factorization is singular, one free-flow
    pressure dof is pinned to zero, with a warning that names it, and the
    pinned operator is built and factored in the same order; the pin holds
    for every later step.

    The load is assembled once, here: the manufactured sources and interface
    corrections are quadratic in t, so ``forms.assemble_F`` at t = 0, T/2
    and T (T = ``grid.final``) gives the coefficients of
    F(t) = F0 + t F1 + t^2 F2 by exact three-node interpolation, and each
    step evaluates ``load(t)`` by vector updates.  A check against
    ``assemble_F`` at 3T/4 rejects loads of higher degree in t.
    """

    def __init__(self, spaces, params, nitsche, grid, sources=None,
                 corrections=None, boundary_values=None, convection=True,
                 solver_tol=TOLERANCE):
        self.spaces = spaces
        self.grid = grid
        self.sources = sources
        self.corrections = corrections
        self.boundary_values = boundary_values or {}
        self.convection = convection
        self.solver_tol = solver_tol
        self.ctx = forms.AssemblyContext(spaces, params, nitsche)
        self.M = forms.assemble_M(self.ctx)
        self.N = forms.assemble_N(self.ctx)
        # M's own index arrays: a scalar product would copy them
        self._m_over_tau = sparse.csr_matrix(
            (self.M.data * (1.0 / grid.tau), self.M.indices, self.M.indptr),
            shape=self.M.shape)
        self._load = self._load_polynomial()
        self._eliminated = None  # A0, the eliminated M / tau + N; None until step 1
        self._columns = None     # the Dirichlet columns of M / tau + N
        self._convection = None  # C's structure, with convection on
        self._pin = None         # the pinned pressure dof, if any
        self._order = None       # the factor's dof order, from the mesh
        self._factor = None
        self._last = None        # (state, step index) the last step returned
        self._history = []       # its solution and up to two before, newest first
        self._solves = 0         # factor solves of the current step

    def step(self, state_prev, step_index):
        """Advance from t_{n-1} to t_n = n tau; returns (state, report)."""
        t_n = self.grid.time_at(step_index)
        conv = None
        if self.convection:
            conv = forms.assemble_convection(self.ctx, state_prev.block("u_f"))
        chained = (self._last is not None and state_prev is self._last[0]
                   and step_index == self._last[1] + 1)
        history = self._history if chained else []
        guess = _extrapolate(history) if conv is not None else None
        rhs = self.load(t_n) + self._m_over_tau @ state_prev.vector()
        dofs, vals = forms.dirichlet_data(self.spaces, self.boundary_values, t_n)
        held = self._factor and self._factor.lu
        where = f"step {step_index} (t={t_n:.6g})"
        self._solves = 0
        try:
            x, res = self._solve(conv, rhs, dofs, vals, guess)
        except SingularSystemError as exc:
            if self._pin is not None:
                raise SingularSystemError(
                    f"{where}: {exc}, with global dof {self._pin} (p_S dof 0) "
                    "already pinned; consider raising the penalty gamma") from exc
            self._pin = self.spaces.slice("p_S").start
            warnings.warn(
                f"{where}: singular operator ({exc}); pinned global dof "
                f"{self._pin} (p_S dof 0) to zero for this and every later "
                "step; raise nitsche.gamma unless the domain is a closed "
                "pure-Stokes cavity, whose pressure is fixed only up to a "
                "constant")
            self._eliminated = None
            try:
                x, res = self._solve(conv, rhs, dofs, vals, guess)
            except SolverError as exc2:
                raise SingularSystemError(
                    f"{where} remains singular after pinning global dof "
                    f"{self._pin} (p_S dof 0): {exc2}; consider raising the "
                    "penalty gamma") from exc2
        except NonFiniteSolutionError as exc:
            raise NonFiniteSolutionError(
                f"{where}: {exc}; check the loads, the boundary data and the "
                "previous state for NaN or infinite values, and the parameter "
                "scales, such as physics.kappa, for products that overflow") from exc
        except SolverError as exc:
            raise SolverError(
                f"{where}: {exc}; consider a smaller time step or a larger "
                "solver.tolerance") from exc
        state = forms.StateVector(self.spaces, x, time=t_n)
        self._last, self._history = (state, step_index), [x] + history[:2]
        report = StepReport(residual=res, factorized=self._factor.lu is not held,
                            pinned_pressure=self._pin is not None,
                            solves=self._solves)
        return state, report

    def load(self, t):
        """Load vector at time t: F0 + t F1 + t^2 F2, zeros without loads."""
        if self._load is None:
            return np.zeros(self.spaces.size)
        f0, f1, f2 = self._load
        return f0 + t * f1 + (t * t) * f2

    def _load_polynomial(self):
        """(F0, F1, F2) interpolating ``forms.assemble_F`` at 0, T/2 and T.

        None when there are neither sources nor corrections.  Raises
        SolverError when the polynomial misses ``assemble_F`` at 3T/4 by
        more than ``LOAD_CHECK_RTOL``: the load is not quadratic in t.
        """
        if self.sources is None and self.corrections is None:
            return None

        def exact(t):
            return forms.assemble_F(self.ctx, self.sources, t, self.corrections)

        # a grid without steps still gets distinct nodes
        final = self.grid.final if self.grid.final > 0 else self.grid.tau
        half = 0.5 * final
        f_0, f_half, f_final = exact(0.0), exact(half), exact(final)
        f2 = (f_final - 2.0 * f_half + f_0) / (2.0 * half * half)
        f1 = (4.0 * f_half - 3.0 * f_0 - f_final) / (2.0 * half)
        coeffs = (f_0, f1, f2)
        t = 0.75 * final
        want = exact(t)
        got = f_0 + t * f1 + (t * t) * f2
        dev = float(np.abs(got - want).max()) / max(
            float(np.abs(want).max()), np.finfo(float).tiny)
        if dev > LOAD_CHECK_RTOL:
            names = ([f.name for f in fields(self.sources)
                      if getattr(self.sources, f.name) is not None]
                     if self.sources is not None else [])
            if self.corrections is not None:
                names.append("the interface corrections m1..m5")
            raise SolverError(
                f"the load of {', '.join(names)} is not quadratic in t: "
                f"interpolated at t = 0, {half:.6g} and {final:.6g}, it "
                f"deviates from assemble_F at t={t:.6g} by {dev:.3e} "
                f"relative (max norm, allowed {LOAD_CHECK_RTOL:.0e}); give "
                "sources and corrections of degree at most 2 in t")
        return coeffs

    def _solve(self, conv, rhs, dofs, vals, guess):
        """Eliminate, lift and solve one step's system with the held factor.

        ``guess``, if given, is overwritten at the constrained dofs by their
        values; the factor solves made, also by a failing solve, add to
        ``_solves``.
        """
        if self._pin is not None:
            dofs, vals = np.append(dofs, self._pin), np.append(vals, 0.0)
        if self._eliminated is None:
            self._hold_operator(dofs)
        full = addend = None
        if conv is not None:
            full, addend = self._convection.matrices(conv)
        load = fem.apply_dirichlet(self._columns, rhs, dofs, vals, full)
        if guess is not None:
            guess[dofs] = vals
        factor = self._factor
        start = factor.solves
        try:
            return solve_linear(self._eliminated, load, self.solver_tol, factor,
                                guess, addend)
        finally:
            self._solves += factor.solves - start

    def _hold_operator(self, dofs):
        """Factor the eliminated M / tau + N, dropped before ``splu``; keep its
        ``dofs`` columns, and build C's structure after the factor."""
        if self._order is None:
            self._order = mesh_order(self.spaces, self.ctx.pairs, dofs)
        operator = self._m_over_tau + self.N
        self._columns = operator[:, dofs]
        eliminated, keep = fem.eliminate_matrix(operator, dofs)
        del operator
        self._factor = Factor(eliminated, self._order)
        self._eliminated = self._factor.matrix
        if self.convection:
            self._convection = _Convection(*self.ctx.component_pattern("u_f"), keep)


def _extrapolate(history):
    """Next solution extrapolated from the last ones, newest first.

    Quadratic from three, linear from two, None from fewer.
    """
    if len(history) == 3:
        x1, x2, x3 = history
        return 3.0 * (x1 - x2) + x3
    if len(history) == 2:
        x1, x2 = history
        return 2.0 * x1 - x2
    return None


def discrete_energy(state, energy):
    """1/2 x^T E x of the state x with ``energy`` the matrix E.

    E is ``forms.energy_matrix(spaces, M, N)`` of the state's operators,
    such as a stepper's ``M`` and ``N``.
    """
    x = state.vector()
    return 0.5 * float(x @ (energy @ x))


def march(stepper, state, on_step=None):
    """Step ``state`` through ``stepper.grid``; returns the final state.

    The one time loop: steps 1..``grid.nsteps`` in order, each from the
    state the previous one returned.  After every accepted step
    ``on_step(n, previous, state, report)`` sees the step index, the state
    the step started from (the given ``state`` at n = 1), the new state and
    that step's ``StepReport``.  A grid without steps returns ``state`` and
    never calls the observer.
    """
    for n in range(1, stepper.grid.nsteps + 1):
        previous = state
        state, report = stepper.step(previous, n)
        if on_step is not None:
            on_step(n, previous, state, report)
    return state
