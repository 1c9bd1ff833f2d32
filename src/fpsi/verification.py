"""Manufactured-solution verification: exact fields, sources, convergence.

The exact fields live on the unit square split at y = 1/2 (free flow below,
porous medium above) and every field carries a positive power of t, so all
initial interpolants vanish.  Derived forcing terms are closed forms and are
gated at construction time against finite-difference oracles; the interface
defect corrections are gated against direct evaluation of each interface
condition.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fem, forms, mesh as meshmod

FOUR_PI = 4.0 * math.pi


class OracleError(AssertionError):
    """A derived closed form disagrees with its independent oracle."""


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

    def div_y_s(self, t):
        return t**2 * self.x2 * self.c * (1.5 - FOUR_PI * self.x)


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

    u_f = u_s = dt_y_s = _pointwise("vel")
    grad_u_f = grad_u_s = _pointwise("vel_grad")
    dt_u_f = dt_u_s = _pointwise("vel_dt")
    lap_u_f = lap_u_s = _pointwise("vel_laplacian")
    grad_div_u_f = grad_div_u_s = _pointwise("vel_grad_div")
    div_u_f = div_u_s = _pointwise("vel_div")

    p_S = p_P = pressure = _pointwise("pressure")
    grad_p_S = grad_p_P = grad_pressure = _pointwise("grad_pressure")
    dt_p_S = dt_p_P = dt_pressure = _pointwise("dt_pressure")

    u_r = _pointwise("u_r")
    grad_u_r = _pointwise("grad_u_r")
    dt_u_r = _pointwise("dt_u_r")
    lap_u_r = _pointwise("lap_u_r")
    grad_div_u_r = _pointwise("grad_div_u_r")
    div_u_r = _pointwise("div_u_r")

    y_s = _pointwise("y_s")
    grad_y_s = _pointwise("grad_y_s")
    lap_y_s = _pointwise("lap_y_s")
    grad_div_y_s = _pointwise("grad_div_y_s")
    div_y_s = _pointwise("div_y_s")

    # -- interface stress traces (general position, used by defect oracles) --

    def stress_f_S(self, params, t, x, y):
        """2 mu_f eps(u_f) - p_S I as an (n, 2, 2) array."""
        g = self.grad_u_f(t, *_as_arrays(x, y))
        e = 0.5 * (g + np.swapaxes(g, -1, -2))
        sig = 2.0 * params.mu_f * e
        p = self.p_S(t, *_as_arrays(x, y))
        sig[..., 0, 0] -= p
        sig[..., 1, 1] -= p
        return sig

    def stress_f_P(self, params, t, x, y):
        phi = params.phi.at(*_as_arrays(x, y))
        gr = self.grad_u_r(t, *_as_arrays(x, y))
        gs = self.grad_u_s(t, *_as_arrays(x, y))
        e = 0.5 * (gr + np.swapaxes(gr, -1, -2) + gs + np.swapaxes(gs, -1, -2))
        sig = 2.0 * params.mu_f * phi[..., None, None] * e
        p = phi * self.p_P(t, *_as_arrays(x, y))
        sig[..., 0, 0] -= p
        sig[..., 1, 1] -= p
        return sig

    def stress_s_P(self, params, t, x, y):
        phi = params.phi.at(*_as_arrays(x, y))
        g = self.grad_y_s(t, *_as_arrays(x, y))
        e = 0.5 * (g + np.swapaxes(g, -1, -2))
        sig = 2.0 * params.mu_p * e
        dil = params.lam_p * self.div_y_s(t, *_as_arrays(x, y))
        p = (1.0 - phi) * self.p_P(t, *_as_arrays(x, y))
        sig[..., 0, 0] += dil - p
        sig[..., 1, 1] += dil - p
        return sig

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


def exact_solution():
    return ExactSolution()


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

    @classmethod
    def from_body_forces(cls, params, f_S=None, f_P=None, theta=None):
        """General-mode sources: one body force per subdomain plus a sink."""
        load_u_r = load_y_s = load_p_P = None
        if f_P is not None:
            def load_u_r(t, x, y):
                phi = params.phi.at(x, y)
                return params.rho_f * phi[..., None] * np.asarray(f_P(t, x, y))

            def load_y_s(t, x, y):
                rho_p = params.rho_p_at(x, y)
                return rho_p[..., None] * np.asarray(f_P(t, x, y))
        if theta is not None:
            def load_p_P(t, x, y):
                return np.asarray(theta(t, x, y)) / params.rho_f
        return cls(f_S=f_S, load_u_r=load_u_r, load_y_s=load_y_s,
                   r_S=None, load_p_P=load_p_P)


def _require_constant(params):
    if params.phi.constant is None or params.theta.constant is None \
            or params.kappa.constant is None:
        raise OracleError(
            "manufactured sources are derived for constant porosity, "
            "permeability, and sink coefficients")
    return params.phi.constant, params.theta.constant, params.kappa.constant


def derive_sources(params, check=True, rng_seed=20240, npoints=220):
    """Closed-form forcing terms for the manufactured problem.

    Every load is the residual of the corresponding strong equation under
    the exact solution.  With ``check`` the closed forms are verified
    against central finite-difference oracles at random points before the
    source set is returned; disagreement raises OracleError naming the
    offending point.
    """
    phi, theta, kappa = _require_constant(params)
    sol = ExactSolution()
    kappa_inv = np.linalg.inv(kappa)
    rho_p = params.rho_s * (1.0 - phi) + params.rho_f * phi

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

    sources = SourceSet(f_S=f_S, load_u_r=load_u_r, load_y_s=load_y_s,
                        r_S=r_S, load_p_P=load_p_P)
    if check:
        _check_derivatives(sol, rng_seed, npoints)
        _check_sources(sol, params, sources, rng_seed, npoints)
    return sources


_FD_STEP = 1e-6
_FD_RTOL = 1e-6


def _fd_partial(fn, t, x, y, axis):
    h = _FD_STEP
    if axis == "t":
        return (np.asarray(fn(t + h, x, y)) - np.asarray(fn(t - h, x, y))) / (2 * h)
    if axis == "x":
        return (np.asarray(fn(t, x + h, y)) - np.asarray(fn(t, x - h, y))) / (2 * h)
    return (np.asarray(fn(t, x, y + h)) - np.asarray(fn(t, x, y - h))) / (2 * h)


def _sample_points(rng, npoints, y_range):
    t = rng.uniform(0.1, 1.0, npoints)
    x = rng.uniform(0.05, 0.95, npoints)
    y = rng.uniform(*y_range, npoints)
    return t, x, y


def _assert_close(label, a, b, rtol=_FD_RTOL, points=None):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max()))
    err = np.abs(a - b) / scale
    worst = int(np.argmax(err.reshape(err.shape[0], -1).max(axis=tuple(
        range(1, err.ndim))) if err.ndim > 1 else err))
    if err.max() > rtol:
        loc = ""
        if points is not None:
            t, x, y = points
            loc = f" at (t={t[worst]:.6f}, x={x[worst]:.6f}, y={y[worst]:.6f})"
        raise OracleError(
            f"{label}: closed form disagrees with oracle{loc} "
            f"(relative error {err.max():.3e})")


def _check_derivatives(sol, rng_seed, npoints):
    """Gate A: every analytic first derivative matches central differences."""
    rng = np.random.default_rng(rng_seed)
    specs = [
        ("u_f", sol.u_f, sol.grad_u_f, sol.dt_u_f, (0.05, 0.45)),
        ("u_r", sol.u_r, sol.grad_u_r, sol.dt_u_r, (0.55, 0.95)),
        ("u_s", sol.u_s, sol.grad_u_s, sol.dt_u_s, (0.55, 0.95)),
        ("y_s", sol.y_s, sol.grad_y_s, sol.dt_y_s, (0.55, 0.95)),
    ]
    for name, val, grad, dt, y_range in specs:
        t, x, y = _sample_points(rng, npoints, y_range)
        g = grad(t, x, y)
        _assert_close(f"grad {name} (x)", g[..., 0], _fd_partial(val, t, x, y, "x"),
                      points=(t, x, y))
        _assert_close(f"grad {name} (y)", g[..., 1], _fd_partial(val, t, x, y, "y"),
                      points=(t, x, y))
        _assert_close(f"dt {name}", dt(t, x, y), _fd_partial(val, t, x, y, "t"),
                      points=(t, x, y))
    for name, val, grad, dt in [("p_S", sol.p_S, sol.grad_p_S, sol.dt_p_S),
                                ("p_P", sol.p_P, sol.grad_p_P, sol.dt_p_P)]:
        t, x, y = _sample_points(rng, npoints, (0.05, 0.95))
        g = grad(t, x, y)
        _assert_close(f"grad {name} (x)", g[..., 0], _fd_partial(val, t, x, y, "x"),
                      points=(t, x, y))
        _assert_close(f"grad {name} (y)", g[..., 1], _fd_partial(val, t, x, y, "y"),
                      points=(t, x, y))
        _assert_close(f"dt {name}", dt(t, x, y), _fd_partial(val, t, x, y, "t"),
                      points=(t, x, y))


def _fd_div_tensor(stress_fn, t, x, y):
    """Divergence of a tensor field by central differences of its entries."""
    h = _FD_STEP
    sxp = np.asarray(stress_fn(t, x + h, y))
    sxm = np.asarray(stress_fn(t, x - h, y))
    syp = np.asarray(stress_fn(t, x, y + h))
    sym = np.asarray(stress_fn(t, x, y - h))
    ddx = (sxp - sxm) / (2 * h)
    ddy = (syp - sym) / (2 * h)
    return ddx[..., 0] + ddy[..., 1]


def _check_sources(sol, params, sources, rng_seed, npoints):
    """Gate B: loads match strong-form residuals with finite-difference
    outer derivatives applied to analytic stresses and velocities."""
    rng = np.random.default_rng(rng_seed + 1)
    phi, theta, kappa = _require_constant(params)
    kappa_inv = np.linalg.inv(kappa)
    rho_p = params.rho_s * (1.0 - phi) + params.rho_f * phi

    t, x, y = _sample_points(rng, npoints, (0.05, 0.45))
    div_sig = _fd_div_tensor(lambda tt, xx, yy: sol.stress_f_S(params, tt, xx, yy),
                             t, x, y)
    conv = np.einsum("...kd,...d->...k", sol.grad_u_f(t, x, y), sol.u_f(t, x, y))
    oracle = (params.rho_f * _fd_partial(sol.u_f, t, x, y, "t")
              - div_sig + conv)
    _assert_close("f_S", sources.f_S(t, x, y), oracle, points=(t, x, y))
    div_fd = (_fd_partial(lambda tt, xx, yy: sol.u_f(tt, xx, yy)[..., 0],
                          t, x, y, "x")
              + _fd_partial(lambda tt, xx, yy: sol.u_f(tt, xx, yy)[..., 1],
                            t, x, y, "y"))
    _assert_close("r_S", sources.r_S(t, x, y), div_fd, points=(t, x, y))

    t, x, y = _sample_points(rng, npoints, (0.55, 0.95))
    div_sig_fp = _fd_div_tensor(
        lambda tt, xx, yy: sol.stress_f_P(params, tt, xx, yy), t, x, y)
    drag = phi**2 * np.einsum("kd,...d->...k", kappa_inv, sol.u_r(t, x, y))
    sink = theta * (sol.u_s(t, x, y) + sol.u_r(t, x, y))
    oracle = (params.rho_f * phi * (_fd_partial(sol.u_r, t, x, y, "t")
                                    + _fd_partial(sol.u_s, t, x, y, "t"))
              - div_sig_fp + drag - sink)
    _assert_close("load_u_r", sources.load_u_r(t, x, y), oracle, points=(t, x, y))

    div_sig_sp = _fd_div_tensor(
        lambda tt, xx, yy: sol.stress_s_P(params, tt, xx, yy), t, x, y)
    oracle = (params.rho_f * phi * _fd_partial(sol.u_r, t, x, y, "t")
              + rho_p * _fd_partial(sol.u_s, t, x, y, "t")
              - div_sig_fp - div_sig_sp - sink)
    _assert_close("load_y_s", sources.load_y_s(t, x, y), oracle, points=(t, x, y))

    def div_vec(fn):
        return (_fd_partial(lambda tt, xx, yy: fn(tt, xx, yy)[..., 0],
                            t, x, y, "x")
                + _fd_partial(lambda tt, xx, yy: fn(tt, xx, yy)[..., 1],
                              t, x, y, "y"))

    oracle = ((1.0 - phi)**2 / params.K * _fd_partial(sol.p_P, t, x, y, "t")
              + div_vec(sol.dt_y_s) + phi * div_vec(sol.u_r))
    _assert_close("load_p_P", sources.load_p_P(t, x, y), oracle, points=(t, x, y))


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


def derive_corrections(params, check=True, rng_seed=7042, npoints=220):
    """Closed-form interface defects of the manufactured solution.

    With ``check`` each closed form is compared against direct evaluation
    of the corresponding interface-condition defect built from the exact
    stresses; disagreement raises OracleError.
    """
    phi, _, kappa = _require_constant(params)
    sol = ExactSolution()
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
        x, _ = _as_arrays(x, y)
        return mu_f * alpha * t * x**3

    corr = InterfaceCorrections(m1, m2, m3, m4, m5)
    if check:
        _check_corrections(sol, params, corr, z, rng_seed, npoints)
    return corr


_DEFECT_ATOL = 1e-8


def _check_corrections(sol, params, corr, z, rng_seed, npoints):
    rng = np.random.default_rng(rng_seed)
    t = rng.uniform(0.1, 1.0, npoints)
    x = rng.uniform(0.0, 1.0, npoints)
    y = np.full(npoints, 0.5)
    n_s = np.array([0.0, 1.0])
    n_p = -n_s
    tau = np.array([1.0, 0.0])
    mu_f, alpha = params.mu_f, params.alpha_bjs
    c_bjs = mu_f * alpha / math.sqrt(z)

    sig_s = sol.stress_f_S(params, t, x, y)
    sig_fp = sol.stress_f_P(params, t, x, y)
    sig_sp = sol.stress_s_P(params, t, x, y)
    tr_s = np.einsum("...kd,d->...k", sig_s, n_s)
    tr_fp = np.einsum("...kd,d->...k", sig_fp, n_p)
    tr_sp = np.einsum("...kd,d->...k", sig_sp, n_p)

    u_f = sol.u_f(t, x, y)
    u_s = sol.u_s(t, x, y)
    u_r = sol.u_r(t, x, y)

    defects = {
        "m1": u_f @ n_s + (u_s + u_r) @ n_p,
        "m2": -(tr_s @ n_s) + tr_fp @ n_p,
        "m3": tr_s + tr_fp + tr_sp,
        "m4": -(tr_s @ tau) - c_bjs * (u_f - u_s) @ tau,
        "m5": -(tr_fp @ tau) - c_bjs * u_r @ tau,
    }
    for name, oracle in defects.items():
        closed = np.asarray(getattr(corr, name)(t, x, y), dtype=float)
        err = np.abs(closed - oracle)
        if err.max() > _DEFECT_ATOL:
            worst = int(np.argmax(err.reshape(len(t), -1).max(axis=1)))
            raise OracleError(
                f"{name}: interface defect mismatch at "
                f"(t={t[worst]:.6f}, x={x[worst]:.6f}) "
                f"(absolute error {err.max():.3e})")


# --- error tables and the convergence study -----------------------------------

ERROR_FIELDS = ("u_f", "u_r", "p_S", "p_P", "y_s", "u_s")


@dataclass
class ErrorTable:
    """Per-level final-time errors and experimental orders of convergence."""

    rows: list = field(default_factory=list)

    def add_row(self, dofs, h, errors, h1_errors=None):
        self.rows.append({"dofs": int(dofs), "h": float(h),
                          "errors": dict(errors),
                          "h1_errors": dict(h1_errors or {})})

    def rates(self, which="errors"):
        """rate_l = log(e_{l-1}/e_l) / log(h_{l-1}/h_l); None on row 0."""
        out = [dict.fromkeys(ERROR_FIELDS)]
        for prev, cur in zip(self.rows, self.rows[1:]):
            row = {}
            ratio = math.log(prev["h"] / cur["h"])
            for name in ERROR_FIELDS:
                e0, e1 = prev[which].get(name), cur[which].get(name)
                if not e0 or not e1:
                    row[name] = None
                else:
                    row[name] = math.log(e0 / e1) / ratio
            out.append(row)
        return out

    def mean_rate(self, name, last=3):
        rates = [r[name] for r in self.rates()[1:] if r[name] is not None]
        tail = rates[-last:]
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


def manufactured_boundary_values(sol):
    return {"u_f": sol.u_f, "u_r": sol.u_r, "y_s": sol.y_s}


def final_time_errors(state, sol):
    """L2 and H1-seminorm errors of every field at the state's timestamp."""
    l2, h1 = {}, {}
    for name, value, grad in sol.fields():
        block = state.block(name)
        e2, e1 = fem.error_norms(block, value, state.time, grad)
        l2[name], h1[name] = e2, e1
    return l2, h1


def convergence_study(levels, params, nitsche, tau_factor=1e-3, final_time=1e-3,
                      convection=True, progress=None):
    """Run the manufactured problem on refining grids and tabulate errors.

    ``levels`` is a sequence of (nx, ny) cell counts that must refine
    strictly; the time step follows tau = h * tau_factor with h = 1/nx.
    """
    from .solver import TimeGrid, TimeStepper  # local import, no cycle at load

    hs = [1.0 / nx for nx, _ in levels]
    if any(h1 >= h0 for h0, h1 in zip(hs, hs[1:])):
        raise ValueError("levels must refine strictly (h decreasing)")

    sol = ExactSolution()
    sources = derive_sources(params)
    corrections = derive_corrections(params)
    table = ErrorTable()
    for (nx, ny), h in zip(levels, hs):
        mesh = meshmod.generate_structured(nx, ny)
        spaces = forms.build_spaces(mesh)
        tau = h * tau_factor
        grid = TimeGrid(tau=tau, final=final_time)
        stepper = TimeStepper(
            spaces, params, nitsche, grid, sources=sources,
            corrections=corrections,
            boundary_values=manufactured_boundary_values(sol),
            convection=convection)
        state = forms.StateVector.zero(spaces, time=0.0)
        for n in range(1, grid.nsteps + 1):
            state, _ = stepper.step(state, n)
        errors, h1_errors = final_time_errors(state, sol)
        if any(not np.isfinite(v) for v in errors.values()):
            raise RuntimeError(f"non-finite error at level nx={nx}")
        table.add_row(sum(sp.ndofs for sp in spaces), h, errors, h1_errors)
        if progress:
            progress(nx, errors)
    return table
