"""Finite-difference oracles of the manufactured closed forms.

These are the gates of acceptance criterion 2: central differences (step
1e-6) of the exact fields and of their stresses, at 220 random points drawn
from fixed seeds, against the closed forms of ``fpsi.verification``.  The
sources must agree to 1e-6 relative; the interface defects to 1e-13 of the
largest term that forms them, and never below 1e-8.  ``check_all(params)``
runs all three gates and raises OracleError naming the first disagreement.
"""

import math

import numpy as np

from fpsi.verification import (FOUR_PI, ExactSolution, PointForms, _as_arrays,
                               _pointwise, derive_corrections, derive_sources)


class OracleError(AssertionError):
    """A derived closed form disagrees with its independent oracle."""


def _div_y_s(t, x, y):
    """div y_s = t^2 x^2 cos(4 pi y) (1.5 - 4 pi x)."""
    p = PointForms(x, y)
    return t**2 * p.x2 * p.c * (1.5 - FOUR_PI * p.x)


class ExactStresses(ExactSolution):
    """The exact solution with the rates, the solid dilation and the stress
    tensors that only the tests read."""

    dt_u_f = dt_u_s = _pointwise("vel_dt")
    dt_y_s = _pointwise("vel")
    dt_p_S = dt_p_P = _pointwise("dt_pressure")
    dt_u_r = _pointwise("dt_u_r")
    div_y_s = staticmethod(_div_y_s)

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
        phi = params.phi
        gr = self.grad_u_r(t, *_as_arrays(x, y))
        gs = self.grad_u_s(t, *_as_arrays(x, y))
        e = 0.5 * (gr + np.swapaxes(gr, -1, -2) + gs + np.swapaxes(gs, -1, -2))
        sig = 2.0 * params.mu_f * phi * e
        p = phi * self.p_P(t, *_as_arrays(x, y))
        sig[..., 0, 0] -= p
        sig[..., 1, 1] -= p
        return sig

    def stress_s_P(self, params, t, x, y):
        phi = params.phi
        g = self.grad_y_s(t, *_as_arrays(x, y))
        e = 0.5 * (g + np.swapaxes(g, -1, -2))
        sig = 2.0 * params.mu_p * e
        dil = params.lam_p * self.div_y_s(t, *_as_arrays(x, y))
        p = (1.0 - phi) * self.p_P(t, *_as_arrays(x, y))
        sig[..., 0, 0] += dil - p
        sig[..., 1, 1] += dil - p
        return sig


_FD_STEP = 1e-6
_FD_RTOL = 1e-6

# Sample points of every oracle, and the seeds that draw them.
_ORACLE_POINTS = 220
_SOURCE_SEED = 20240
_CORRECTION_SEED = 7042


def _fd_partial(fn, t, x, y, axis):
    h = _FD_STEP
    if axis == "t":
        return (np.asarray(fn(t + h, x, y)) - np.asarray(fn(t - h, x, y))) / (2 * h)
    if axis == "x":
        return (np.asarray(fn(t, x + h, y)) - np.asarray(fn(t, x - h, y))) / (2 * h)
    return (np.asarray(fn(t, x, y + h)) - np.asarray(fn(t, x, y - h))) / (2 * h)


def _sample_points(rng, y_range):
    t = rng.uniform(0.1, 1.0, _ORACLE_POINTS)
    x = rng.uniform(0.05, 0.95, _ORACLE_POINTS)
    y = rng.uniform(*y_range, _ORACLE_POINTS)
    return t, x, y


def _assert_close(label, a, b, points):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max()))
    err = np.abs(a - b) / scale
    worst = int(np.argmax(err.reshape(err.shape[0], -1).max(axis=tuple(
        range(1, err.ndim))) if err.ndim > 1 else err))
    if err.max() > _FD_RTOL:
        t, x, y = points
        raise OracleError(
            f"{label}: closed form disagrees with oracle at (t={t[worst]:.6f}, "
            f"x={x[worst]:.6f}, y={y[worst]:.6f}) "
            f"(relative error {err.max():.3e})")


def check_derivatives(sol):
    """Gate A: every analytic first derivative matches central differences."""
    rng = np.random.default_rng(_SOURCE_SEED)
    specs = [
        ("u_f", sol.u_f, sol.grad_u_f, sol.dt_u_f, (0.05, 0.45)),
        ("u_r", sol.u_r, sol.grad_u_r, sol.dt_u_r, (0.55, 0.95)),
        ("u_s", sol.u_s, sol.grad_u_s, sol.dt_u_s, (0.55, 0.95)),
        ("y_s", sol.y_s, sol.grad_y_s, sol.dt_y_s, (0.55, 0.95)),
    ]
    for name, val, grad, dt, y_range in specs:
        t, x, y = _sample_points(rng, y_range)
        g = grad(t, x, y)
        _assert_close(f"grad {name} (x)", g[..., 0], _fd_partial(val, t, x, y, "x"),
                      points=(t, x, y))
        _assert_close(f"grad {name} (y)", g[..., 1], _fd_partial(val, t, x, y, "y"),
                      points=(t, x, y))
        _assert_close(f"dt {name}", dt(t, x, y), _fd_partial(val, t, x, y, "t"),
                      points=(t, x, y))
    for name, val, grad, dt in [("p_S", sol.p_S, sol.grad_p_S, sol.dt_p_S),
                                ("p_P", sol.p_P, sol.grad_p_P, sol.dt_p_P)]:
        t, x, y = _sample_points(rng, (0.05, 0.95))
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


def check_sources(sol, params, sources):
    """Gate B: loads match strong-form residuals with finite-difference
    outer derivatives applied to analytic stresses and velocities."""
    rng = np.random.default_rng(_SOURCE_SEED + 1)
    phi, theta, kappa = params.phi, params.theta, params.kappa
    kappa_inv = np.linalg.inv(kappa)
    rho_p = params.rho_p

    t, x, y = _sample_points(rng, (0.05, 0.45))
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

    t, x, y = _sample_points(rng, (0.55, 0.95))
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


# The interface-defect gate: _DEFECT_RTOL of the largest term that forms a
# defect, and never below _DEFECT_ATOL.  Not of the defect itself: the terms
# cancel (m1 and m4 vanish identically), and their rounding does not.
_DEFECT_ATOL = 1e-8
_DEFECT_RTOL = 1e-13


def check_corrections(sol, params, corr, z):
    """Gate C: each closed form matches its interface-condition defect."""
    rng = np.random.default_rng(_CORRECTION_SEED)
    t = rng.uniform(0.1, 1.0, _ORACLE_POINTS)
    x = rng.uniform(0.0, 1.0, _ORACLE_POINTS)
    y = np.full(_ORACLE_POINTS, 0.5)
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
    scale = max(float(np.abs(term).max()) for term in
                (tr_s, tr_fp, tr_sp, c_bjs * u_f, c_bjs * u_s, c_bjs * u_r))
    gate = max(_DEFECT_ATOL, _DEFECT_RTOL * scale)
    for name, oracle in defects.items():
        closed = np.asarray(getattr(corr, name)(t, x, y), dtype=float)
        err = np.abs(closed - oracle)
        if err.max() > gate:
            worst = int(np.argmax(err.reshape(len(t), -1).max(axis=1)))
            raise OracleError(
                f"{name}: interface defect mismatch at "
                f"(t={t[worst]:.6f}, x={x[worst]:.6f}) "
                f"(absolute error {err.max():.3e}, above the gate {gate:.1e} "
                f"for terms up to {scale:.3e})")


def check_all(params):
    """Gates A, B and C of ``params``'s sources and corrections."""
    sol = ExactStresses()
    check_derivatives(sol)
    check_sources(sol, params, derive_sources(params))
    tangent = np.array([1.0, 0.0])
    z = float(tangent @ params.kappa @ tangent)
    check_corrections(sol, params, derive_corrections(params), z)
