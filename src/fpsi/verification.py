"""Manufactured-solution verification: exact fields, sources, convergence.

The exact fields live on the unit square split at y = 1/2 (free flow below,
porous medium above) and every field carries a positive power of t, so all
initial interpolants vanish.  The forcing terms and the interface defect
corrections are closed forms, written out by hand; the tests check them
against a symbolic derivation from the strong equations.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fem, forms, mesh as meshmod
from .solver import TOLERANCE, TimeGrid, TimeStepper, march

FOUR_PI = 4.0 * math.pi


def _as_arrays(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x, y


class PointForms:
    """The exact solution's closed forms on one set of points.

    The spatial factors the closed forms share (trig of 4 pi x, 4 pi y and
    8 pi y, powers of x) are computed on first use and then reused by every
    form evaluated on the same set, so a source that combines many forms
    evaluates each factor once.  Vector forms return (n, 2); gradients
    return (n, 2) for scalars and (n, 2, 2) with entry [i, k, d] =
    d u_k / d x_d for vectors.
    """

    def __init__(self, x, y):
        self.x, self.y = _as_arrays(x, y)

    @cached_property
    def c(self):
        return np.cos(FOUR_PI * self.y)

    @cached_property
    def s(self):
        return np.sin(FOUR_PI * self.y)

    @cached_property
    def c8(self):
        return 1.0 - 2.0 * self.s**2  # cos(8 pi y) by the double angle

    @cached_property
    def s8(self):
        return 2.0 * self.s * self.c  # sin(8 pi y) by the double angle

    @cached_property
    def cx(self):
        return np.cos(FOUR_PI * self.x)

    @cached_property
    def sx(self):
        return np.sin(FOUR_PI * self.x)

    @cached_property
    def x2(self):
        return self.x**2

    @cached_property
    def x3(self):
        return self.x**3

    # -- free-flow / solid velocity (same closed form on both sides) -------

    def vel(self, t):
        return np.stack([t * self.x3 * self.c, -2.0 * t * self.x3 * self.s],
                        axis=-1)

    def vel_grad(self, t):
        c, s, x2, x3 = self.c, self.s, self.x2, self.x3
        g = np.empty(np.shape(self.x) + (2, 2))
        g[..., 0, 0] = 3.0 * t * x2 * c
        g[..., 0, 1] = -FOUR_PI * t * x3 * s
        g[..., 1, 0] = -6.0 * t * x2 * s
        g[..., 1, 1] = -2.0 * FOUR_PI * t * x3 * c
        return g

    def vel_dt(self, t):
        return np.stack([self.x3 * self.c, -2.0 * self.x3 * self.s], axis=-1)

    def vel_laplacian(self, t):
        x, x3, c, s = self.x, self.x3, self.c, self.s
        return np.stack([t * c * (6.0 * x - FOUR_PI**2 * x3),
                         t * s * (-12.0 * x + 2.0 * FOUR_PI**2 * x3)], axis=-1)

    def vel_grad_div(self, t):
        # div = t x^2 cos(4 pi y) (3 - 8 pi x)
        x, x2, c, s = self.x, self.x2, self.c, self.s
        return np.stack([t * c * (6.0 * x - 6.0 * FOUR_PI * x2),
                         -FOUR_PI * t * s * x2 * (3.0 - 2.0 * FOUR_PI * x)],
                        axis=-1)

    def vel_div(self, t):
        return t * self.x2 * self.c * (3.0 - 2.0 * FOUR_PI * self.x)

    # -- pressures (identical closed form in both subdomains) --------------

    def pressure(self, t):
        return t**2 * (1.0 - self.sx * self.s)

    def grad_pressure(self, t):
        g = np.empty(np.shape(self.x) + (2,))
        g[..., 0] = -FOUR_PI * t**2 * self.cx * self.s
        g[..., 1] = -FOUR_PI * t**2 * self.sx * self.c
        return g

    def dt_pressure(self, t):
        return 2.0 * t * (1.0 - self.sx * self.s)

    # -- relative pore velocity --------------------------------------------

    def u_r(self, t):
        x3, c, s = self.x3, self.c, self.s
        return np.stack([t**2 * s**2 - t * x3 * c,
                         t**2 * s**2 + 2.0 * t * x3 * s], axis=-1)

    def grad_u_r(self, t):
        x2, x3, c, s = self.x2, self.x3, self.c, self.s
        # d/dy sin^2(4 pi y) = 4 pi sin(8 pi y)
        s8 = self.s8
        g = np.empty(np.shape(self.x) + (2, 2))
        g[..., 0, 0] = -3.0 * t * x2 * c
        g[..., 0, 1] = FOUR_PI * t**2 * s8 + FOUR_PI * t * x3 * s
        g[..., 1, 0] = 6.0 * t * x2 * s
        g[..., 1, 1] = FOUR_PI * t**2 * s8 + 2.0 * FOUR_PI * t * x3 * c
        return g

    def dt_u_r(self, t):
        x3, c, s = self.x3, self.c, self.s
        return np.stack([2.0 * t * s**2 - x3 * c,
                         2.0 * t * s**2 + 2.0 * x3 * s], axis=-1)

    def lap_u_r(self, t):
        x, x3, c, s = self.x, self.x3, self.c, self.s
        ct = 2.0 * FOUR_PI**2 * t**2 * self.c8  # d2/dy2 of t^2 sin^2(4 pi y)
        return np.stack([ct - t * c * (6.0 * x - FOUR_PI**2 * x3),
                         ct + t * s * (12.0 * x - 2.0 * FOUR_PI**2 * x3)],
                        axis=-1)

    def grad_div_u_r(self, t):
        x, x2, c, s = self.x, self.x2, self.c, self.s
        # div u_r = -t x^2 c (3 - 8 pi x) + 4 pi t^2 sin(8 pi y)
        gx = -t * c * (6.0 * x - 6.0 * FOUR_PI * x2)
        gy = (FOUR_PI * t * s * x2 * (3.0 - 2.0 * FOUR_PI * x)
              + 2.0 * FOUR_PI**2 * t**2 * self.c8)
        return np.stack([gx, gy], axis=-1)

    def div_u_r(self, t):
        return (-t * self.x2 * self.c * (3.0 - 2.0 * FOUR_PI * self.x)
                + FOUR_PI * t**2 * self.s8)

    # -- solid displacement --------------------------------------------------

    def y_s(self, t):
        x3, c, s = self.x3, self.c, self.s
        return np.stack([0.5 * t**2 * x3 * c, -t**2 * x3 * s], axis=-1)

    def grad_y_s(self, t):
        x2, x3, c, s = self.x2, self.x3, self.c, self.s
        g = np.empty(np.shape(self.x) + (2, 2))
        g[..., 0, 0] = 1.5 * t**2 * x2 * c
        g[..., 0, 1] = -0.5 * FOUR_PI * t**2 * x3 * s
        g[..., 1, 0] = -3.0 * t**2 * x2 * s
        g[..., 1, 1] = -FOUR_PI * t**2 * x3 * c
        return g

    def lap_y_s(self, t):
        x, x3, c, s = self.x, self.x3, self.c, self.s
        return np.stack([t**2 * c * (3.0 * x - 0.5 * FOUR_PI**2 * x3),
                         t**2 * s * (-6.0 * x + FOUR_PI**2 * x3)], axis=-1)

    def grad_div_y_s(self, t):
        x, x2, c, s = self.x, self.x2, self.c, self.s
        # div y_s = t^2 x^2 c (1.5 - 4 pi x)
        gx = t**2 * c * (3.0 * x - 3.0 * FOUR_PI * x2)
        gy = -FOUR_PI * t**2 * s * x2 * (1.5 - FOUR_PI * x)
        return np.stack([gx, gy], axis=-1)


def _pointwise(form):
    """``f(t, x, y)`` evaluating the PointForms method named ``form``."""
    def evaluate(t, x, y):
        return getattr(PointForms(x, y), form)(t)
    evaluate.__name__ = evaluate.__qualname__ = form
    return staticmethod(evaluate)


class ExactSolution:
    """Closed-form fields with analytic derivatives, as ``f(t, x, y)``.

    Each evaluator is one closed form of ``PointForms``.  Vector evaluators
    return (n, 2); gradients return (n, 2) for scalars and (n, 2, 2) with
    entry [i, k, d] = d u_k / d x_d for vectors.
    """

    u_f = u_s = _pointwise("vel")
    grad_u_f = grad_u_s = _pointwise("vel_grad")

    p_S = p_P = _pointwise("pressure")
    grad_p_S = grad_p_P = _pointwise("grad_pressure")

    u_r = _pointwise("u_r")
    grad_u_r = _pointwise("grad_u_r")

    y_s = _pointwise("y_s")
    grad_y_s = _pointwise("grad_y_s")

    def fields(self):
        """(name, value, grad) triples in the monolithic block order."""
        return [
            ("u_f", self.u_f, self.grad_u_f),
            ("p_S", self.p_S, self.grad_p_S),
            ("u_r", self.u_r, self.grad_u_r),
            ("p_P", self.p_P, self.grad_p_P),
            ("y_s", self.y_s, self.grad_y_s),
            ("u_s", self.u_s, self.grad_u_s),
        ]


# --- derived sources ---------------------------------------------------------


@dataclass
class SourceSet:
    """Load densities for each test slot of the weak form.

    ``f_S`` pairs with the free-flow velocity test, ``load_u_r`` and
    ``load_y_s`` with the pore-velocity and solid tests (the general-form
    weights rho_f phi and rho_p are already baked in), ``r_S`` with the
    free-flow pressure test, and ``load_p_P`` with the pore-pressure test.
    """

    f_S: object = None
    load_u_r: object = None
    load_y_s: object = None
    r_S: object = None
    load_p_P: object = None


def derive_sources(params):
    """Closed-form forcing terms for the manufactured problem.

    Every load is the residual of the corresponding strong equation under
    the exact solution, returned as ``f(t, x, y)``.
    """
    phi, theta, kappa = params.phi, params.theta, params.kappa
    kappa_inv = np.linalg.inv(kappa)
    rho_p = params.rho_p

    # Each source evaluates its closed forms on one PointForms, so the
    # spatial factors are computed once per call.
    def f_S(t, x, y):
        p = PointForms(x, y)
        visc = params.mu_f * (p.vel_laplacian(t) + p.vel_grad_div(t))
        conv = np.einsum("...kd,...d->...k", p.vel_grad(t), p.vel(t))
        return (params.rho_f * p.vel_dt(t) - visc + p.grad_pressure(t) + conv)

    def _div_sigma_f_P(p, t):
        visc = params.mu_f * phi * (
            p.lap_u_r(t) + p.grad_div_u_r(t)
            + p.vel_laplacian(t) + p.vel_grad_div(t))
        return visc - phi * p.grad_pressure(t)

    def load_u_r(t, x, y):
        p = PointForms(x, y)
        u_r = p.u_r(t)
        inertial = params.rho_f * phi * (p.dt_u_r(t) + p.vel_dt(t))
        drag = phi**2 * np.einsum("kd,...d->...k", kappa_inv, u_r)
        sink = theta * (p.vel(t) + u_r)
        return inertial - _div_sigma_f_P(p, t) + drag - sink

    def load_y_s(t, x, y):
        p = PointForms(x, y)
        grad_div = p.grad_div_y_s(t)
        inertial = (params.rho_f * phi * p.dt_u_r(t) + rho_p * p.vel_dt(t))
        div_s = (params.mu_p * (p.lap_y_s(t) + grad_div)
                 + params.lam_p * grad_div
                 - (1.0 - phi) * p.grad_pressure(t))
        sink = theta * (p.u_r(t) + p.vel(t))
        return inertial - _div_sigma_f_P(p, t) - div_s - sink

    def r_S(t, x, y):
        return PointForms(x, y).vel_div(t)

    def load_p_P(t, x, y):
        p = PointForms(x, y)
        return ((1.0 - phi)**2 / params.K * p.dt_pressure(t)
                + p.vel_div(t) + phi * p.div_u_r(t))

    return SourceSet(f_S=f_S, load_u_r=load_u_r, load_y_s=load_y_s,
                     r_S=r_S, load_p_P=load_p_P)


# --- interface corrections ----------------------------------------------------


@dataclass
class InterfaceCorrections:
    """Defect terms restoring consistency of the interface conditions.

    Closed forms on the flat interface y = 1/2 with n_S = (0, 1) and
    tangent (1, 0); m3 is vector-valued, the others scalar.
    """

    m1: object
    m2: object
    m3: object
    m4: object
    m5: object


def derive_corrections(params):
    """Closed-form interface defects of the manufactured solution.

    Each ``m(t, x, y)`` is the defect of one interface condition under the
    exact solution, built from the exact stresses and velocities on y = 1/2.
    """
    phi, kappa = params.phi, params.kappa
    mu_f, mu_p, lam_p = params.mu_f, params.mu_p, params.lam_p
    alpha = params.alpha_bjs
    tangent = np.array([1.0, 0.0])
    z = float(tangent @ kappa @ tangent)

    def m1(t, x, y):
        # every normal trace vanishes on y = 1/2: sin(4 pi y) = 0 there
        x, _ = _as_arrays(x, y)
        return np.zeros(np.shape(x)) * t

    def m2(t, x, y):
        x, _ = _as_arrays(x, y)
        return 4.0 * FOUR_PI * mu_f * t * x**3 + (1.0 - phi) * t**2

    def m3(t, x, y):
        x, _ = _as_arrays(x, y)
        comp_y = (t**2 * x**2 * (2.0 * FOUR_PI * lam_p * x - 3.0 * lam_p
                                 + 4.0 * FOUR_PI * mu_p * x) / 2.0
                  - 4.0 * FOUR_PI * mu_f * t * x**3)
        return np.stack([np.zeros(np.shape(x)), comp_y], axis=-1)

    def m4(t, x, y):
        x, _ = _as_arrays(x, y)
        return np.zeros(np.shape(x)) * t

    def m5(t, x, y):
        # no tangential fluid traction on y = 1/2, and u_r . tau = -t x^3
        x, _ = _as_arrays(x, y)
        return mu_f * alpha / math.sqrt(z) * t * x**3

    return InterfaceCorrections(m1, m2, m3, m4, m5)


# --- error tables and the convergence study -----------------------------------

ERROR_FIELDS = ("u_f", "u_r", "p_S", "p_P", "y_s", "u_s")
# ``ErrorTable.mean_rate`` averages this many of the finest levels' rates.
MEAN_RATE_LEVELS = 3


@dataclass
class ErrorTable:
    """Per-level final-time errors and experimental orders of convergence."""

    rows: list = field(default_factory=list)

    def add_row(self, dofs, h, errors):
        self.rows.append({"dofs": int(dofs), "h": float(h), "errors": dict(errors)})

    def rates(self):
        """rate_l = log(e_{l-1}/e_l) / log(h_{l-1}/h_l); None on row 0."""
        out = [dict.fromkeys(ERROR_FIELDS)]
        for prev, cur in zip(self.rows, self.rows[1:]):
            row = {}
            ratio = math.log(prev["h"] / cur["h"])
            for name in ERROR_FIELDS:
                e0, e1 = prev["errors"].get(name), cur["errors"].get(name)
                if not e0 or not e1:
                    row[name] = None
                else:
                    row[name] = math.log(e0 / e1) / ratio
            out.append(row)
        return out

    def mean_rate(self, name):
        rates = [r[name] for r in self.rates()[1:] if r[name] is not None]
        if not rates:
            raise ValueError(
                f"no convergence rate of {name} in a table of "
                f"{len(self.rows)} level(s): a rate needs two strictly "
                "refining levels with nonzero errors")
        tail = rates[-MEAN_RATE_LEVELS:]
        return sum(tail) / len(tail)

    def monotone_from_second_level(self):
        """True when every field's error decreases strictly from row 1 on."""
        for name in ERROR_FIELDS:
            errs = [row["errors"][name] for row in self.rows]
            for a, b in zip(errs[1:], errs[2:]):
                if not b < a:
                    return False
        return True

    def to_csv_string(self):
        rates = self.rates()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["dofs", "h"]
        for name in ERROR_FIELDS:
            short = name.replace("_", "").lower()
            header += [f"e_{short}", f"rate_{short}"]
        writer.writerow(header)
        for row, rate in zip(self.rows, rates):
            rec = [row["dofs"], f"{row['h']:.6g}"]
            for name in ERROR_FIELDS:
                rec.append(f"{row['errors'][name]:.6e}")
                rec.append("" if rate[name] is None else f"{rate[name]:.3f}")
            writer.writerow(rec)
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_string())


def manufactured_problem(params):
    """Exact solution and ``TimeStepper`` loads of the manufactured problem.

    The loads are the keywords ``sources`` and ``corrections`` (the closed
    forms of ``derive_sources`` and ``derive_corrections`` for ``params``) and ``boundary_values`` (the exact u_f,
    u_r and y_s), passed as ``TimeStepper(..., **loads)``.
    """
    sol = ExactSolution()
    return sol, {"sources": derive_sources(params),
                 "corrections": derive_corrections(params),
                 "boundary_values": {"u_f": sol.u_f, "u_r": sol.u_r,
                                     "y_s": sol.y_s}}


def final_time_errors(state, sol):
    """L2 and H1-seminorm errors of every field at the state's timestamp.

    Fields of one subdomain and degree share their quadrature tables.
    """
    l2, h1, tables = {}, {}, {}
    for name, value, grad in sol.fields():
        space = getattr(state.spaces, name)
        key = (space.subdomain, space.degree)
        if key not in tables:
            tables[key] = fem.norm_tables(space)
        l2[name], h1[name] = fem.error_norms(space, state.block(name), value,
                                             state.time, grad, tables[key])
    return l2, h1


def convergence_study(levels, params, nitsche, tau_factor=1e-3, final_time=1e-3,
                      convection=True, solver_tol=TOLERANCE, progress=None):
    """Run the manufactured problem on refining grids and tabulate errors.

    ``levels`` is a sequence of (nx, ny) cell counts that must refine
    strictly; the time step follows tau = h * tau_factor with h = 1/nx.
    ``solver_tol`` is every step's residual tolerance (``TimeStepper``).
    """
    hs = [1.0 / nx for nx, _ in levels]
    if any(h1 >= h0 for h0, h1 in zip(hs, hs[1:])):
        raise ValueError("levels must refine strictly (h decreasing)")

    sol, loads = manufactured_problem(params)
    table = ErrorTable()
    for (nx, ny), h in zip(levels, hs):
        spaces = forms.build_spaces(meshmod.generate_structured(nx, ny))
        grid = TimeGrid(tau=h * tau_factor, final=final_time)
        stepper = TimeStepper(spaces, params, nitsche, grid,
                              convection=convection, solver_tol=solver_tol,
                              **loads)
        state = march(stepper, forms.StateVector.zero(spaces, time=0.0))
        errors, _ = final_time_errors(state, sol)
        if any(not np.isfinite(v) for v in errors.values()):
            raise RuntimeError(f"non-finite error at level nx={nx}")
        table.add_row(sum(sp.ndofs for sp in spaces), h, errors)
        if progress:
            progress(nx, errors)
    return table
