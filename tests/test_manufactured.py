"""The hand-written closed forms of ``fpsi.verification`` against the
symbolic manufactured family of ``_manufactured``, over the parameter set
that ``PhysicalParams`` accepts."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from fpsi import forms
from fpsi.verification import (FOUR_PI, PointForms, derive_corrections,
                               derive_sources)

from _fd_gates import ExactStresses
from _helpers import REFERENCE_PARAMS
from _manufactured import T, X, Y, Family

# Rounding allowance: this fraction of the summed magnitude of the terms
# that make up a load, a defect or a field form.
RTOL = 1e-12
POINTS = 32

SOURCES = ("f_S", "load_u_r", "load_y_s", "r_S", "load_p_P")
DEFECTS = ("m1", "m2", "m3", "m4", "m5")

# Every ExactStresses evaluator (those of ExactSolution and the test-side
# rates and solid dilation) and every PointForms form it does not expose,
# as (field, operator) of the symbolic family.
EXACT = {
    "u_f": ("u_f", "value"), "grad_u_f": ("u_f", "grad"), "dt_u_f": ("u_f", "dt"),
    "u_s": ("u_s", "value"), "grad_u_s": ("u_s", "grad"), "dt_u_s": ("u_s", "dt"),
    "dt_y_s": ("y_s", "dt"),
    "p_S": ("p_S", "value"), "grad_p_S": ("p_S", "grad"), "dt_p_S": ("p_S", "dt"),
    "p_P": ("p_P", "value"), "grad_p_P": ("p_P", "grad"), "dt_p_P": ("p_P", "dt"),
    "u_r": ("u_r", "value"), "grad_u_r": ("u_r", "grad"), "dt_u_r": ("u_r", "dt"),
    "y_s": ("y_s", "value"), "grad_y_s": ("y_s", "grad"),
    "div_y_s": ("y_s", "div"),
}
POINT_ONLY = {
    "vel_laplacian": ("u_f", "laplacian"), "vel_grad_div": ("u_f", "grad_div"),
    "vel_div": ("u_f", "div"),
    "lap_u_r": ("u_r", "laplacian"), "grad_div_u_r": ("u_r", "grad_div"),
    "div_u_r": ("u_r", "div"),
    "lap_y_s": ("y_s", "laplacian"), "grad_div_y_s": ("y_s", "grad_div"),
}


@pytest.fixture(scope="module")
def family():
    """The verification problem's exact fields, lambdified once."""
    c, s = sp.cos(4 * sp.pi * Y), sp.sin(4 * sp.pi * Y)
    vel = (T * X**3 * c, -2 * T * X**3 * s)
    pressure = T**2 * (1 - sp.sin(4 * sp.pi * X) * s)
    return Family(
        u_f=vel, p_S=pressure, p_P=pressure,
        u_r=(T**2 * s**2 - T * X**3 * c, T**2 * s**2 + 2 * T * X**3 * s),
        y_s=(T**2 * X**3 * c / 2, -T**2 * X**3 * s),
    ).compile({**EXACT, **POINT_ONLY})


def _assert_close(name, got, want):
    value, scale = want
    got = np.asarray(got, dtype=float)
    assert got.size == value.size, f"{name}: shape {got.shape}"
    got = got.reshape(value.shape)
    err = np.abs(got - value)
    bad = ~(err <= RTOL * scale)  # NaN fails too
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise AssertionError(
            f"{name}: closed form {got[i]:.17g} against symbolic "
            f"{value[i]:.17g} at point {i[0]} (error {err[i]:.3e}, terms "
            f"summing to {scale[i]:.3e} in magnitude)")


def _points(rng):
    return rng.uniform(0.0, 1.0, (3, POINTS))


def check_closed_forms(family, params, sources, corrections, rng):
    """Every source and correction of ``params`` against the family."""
    t, x, y = _points(rng)
    want = family(t, x, y, params)
    for name in SOURCES:
        _assert_close(name, getattr(sources, name)(t, x, y), want[name])
    y = np.full_like(x, 0.5)
    want = family(t, x, y, params)
    for name in DEFECTS:
        _assert_close(name, getattr(corrections, name)(t, x, y), want[name])


def _params(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # theta > 0 is accepted with a warning
        return forms.PhysicalParams(**values)


# Magnitudes over 60 decades.  A load multiplies at most three parameters,
# so far beyond these it over- or underflows, which says nothing about the
# closed forms.
magnitudes = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)


@st.composite
def accepted_params(draw):
    """A point of the set PhysicalParams accepts: positive densities,
    viscosities, Lame modulus and storage modulus, 0 < phi < rho_s /
    (rho_s + rho_f), any theta, alpha >= 0 and a symmetric positive
    definite kappa.  The condition number of kappa stays below 1e3: both
    the closed form and the symbolic inverse lose about its size in
    relative precision."""
    values = {name: draw(magnitudes)
              for name in ("rho_f", "rho_s", "mu_f", "mu_p", "lam_p", "K")}
    bound = values["rho_s"] / (values["rho_s"] + values["rho_f"])
    values["phi"] = bound * draw(st.floats(-30.0, -1e-3).map(lambda e: 10.0**e))
    values["theta"] = draw(st.sampled_from((-1.0, 0.0, 1.0))) * draw(magnitudes)
    values["alpha_bjs"] = draw(st.sampled_from((0.0, 1.0))) * draw(magnitudes)
    angle = draw(st.floats(0.0, math.pi))
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    eigs = np.array([1.0, 10.0 ** -draw(st.floats(0.0, 3.0))])
    kappa = draw(magnitudes) * (rot * eigs) @ rot.T
    values["kappa"] = 0.5 * (kappa + kappa.T)
    return values


def _reference(**change):
    return {**REFERENCE_PARAMS, **change}


@settings(max_examples=40, deadline=None)
@given(values=accepted_params(), seed=st.integers(0, 2**32 - 1))
@example(values=_reference(), seed=0)
@example(values=_reference(kappa=1e-4), seed=0)
@example(values=_reference(kappa=1e-8), seed=0)
@example(values=_reference(kappa=1e-6 * np.array([[2.0, 0.5], [0.5, 1.0]])),
         seed=0)
@example(values=_reference(theta=-5.0), seed=0)
@example(values=_reference(mu_f=1e9), seed=0)
def test_closed_forms_match_the_symbolic_family(family, values, seed):
    params = _params(values)
    check_closed_forms(family, params, derive_sources(params),
                       derive_corrections(params), np.random.default_rng(seed))


def test_field_forms_match_the_symbolic_family(family):
    # every PointForms form is checked: through the ExactStresses evaluator
    # that names it, or directly; div_y_s is the tests' own closed form
    exposed = {getattr(ExactStresses, name).__name__ for name in EXACT}
    methods = {name for name, member in vars(PointForms).items()
               if inspect.isfunction(member) and not name.startswith("_")}
    assert methods | {"_div_y_s"} == exposed | set(POINT_ONLY)
    t, x, y = _points(np.random.default_rng(5))
    want = family(t, x, y, _params(REFERENCE_PARAMS))
    for name in EXACT:
        _assert_close(name, getattr(ExactStresses, name)(t, x, y), want[name])
    for name in POINT_ONLY:
        _assert_close(name, getattr(PointForms(x, y), name)(t), want[name])


def _scaled_f_S(params, sources, corrections):
    f_S = sources.f_S
    return (dataclasses.replace(
        sources, f_S=lambda t, x, y: f_S(t, x, y) * (1.0 + 1e-6)), corrections)


def _m2_coefficient_off(params, sources, corrections):
    def m2(t, x, y):
        return (4.0 * FOUR_PI * params.mu_f * (1.0 + 1e-6) * t * x**3
                + (1.0 - params.phi) * t**2)
    return sources, dataclasses.replace(corrections, m2=m2)


def _m5_without_kappa(params, sources, corrections):
    def m5(t, x, y):
        return params.mu_f * params.alpha_bjs * t * x**3
    return sources, dataclasses.replace(corrections, m5=m5)


@pytest.mark.parametrize("mutate, kappa, name", [
    (_scaled_f_S, 1.0, "f_S"),
    (_m2_coefficient_off, 1.0, "m2"),
    (_m5_without_kappa, 1e-4, "m5"),
], ids=["f_S scaled by 1 + 1e-6", "m2 coefficient off by 1e-6",
        "m5 without 1/sqrt(kappa_tt)"])
def test_symbolic_check_rejects_a_mutated_closed_form(family, mutate, kappa,
                                                      name):
    params = _params(_reference(kappa=kappa))
    sources, corrections = mutate(params, derive_sources(params),
                                  derive_corrections(params))
    with pytest.raises(AssertionError, match=rf"^{name}: closed form"):
        check_closed_forms(family, params, sources, corrections,
                           np.random.default_rng(0))
