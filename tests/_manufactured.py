"""A symbolic manufactured-solution family: loads and interface defects.

``Family`` takes the exact fields as sympy expressions in (t, x, y), with the
material parameters as symbols, and derives from the strong equations of the
coupled model the five loads that ``fpsi.verification.derive_sources`` writes
out by hand and the five interface defects m1..m5 of ``derive_corrections``.
The defects are those of the interface conditions on the flat interface
y = 1/2, with n_S = (0, 1) = -n_P and tangent (1, 0):

    m1 = u_f . n_S + (u_s + u_r) . n_P
    m2 = -(sigma_fS n_S) . n_S + (sigma_fP n_P) . n_P
    m3 = sigma_fS n_S + sigma_fP n_P + sigma_sP n_P
    m4 = -(sigma_fS n_S) . tau - c (u_f - u_s) . tau
    m5 = -(sigma_fP n_P) . tau - c u_r . tau,   c = mu_f alpha / sqrt(kappa_tt)

A quantity is kept as a list of components, each a list of terms: one term
per physical contribution (an inertia, one derivative of one stress entry, a
convection, drag or sink term).  The terms cancel, so the rounding of a
closed form is measured against their summed magnitude, not against their
sum.  ``Family.compile()`` lambdifies every quantity once.

    Roache, "Code verification by the method of manufactured solutions",
    J. Fluids Eng. 124 (2002).
"""

import numpy as np
import sympy as sp

T, X, Y = sp.symbols("t x y", real=True)
PARAM_NAMES = ("rho_f", "rho_s", "mu_f", "mu_p", "lam_p", "phi", "K", "theta",
               "alpha_bjs", "k11", "k12", "k22")
PARAMS = sp.symbols(PARAM_NAMES, real=True)
(RHO_F, RHO_S, MU_F, MU_P, LAM_P, PHI, K, THETA, ALPHA, K11, K12, K22) = PARAMS

XY = (X, Y)
N_S, N_P, TAU = (0, 1), (0, -1), (1, 0)
INTERFACE_Y = sp.Rational(1, 2)


def magnitude(expr):
    """``expr`` with every sum replaced by the sum of its terms' magnitudes."""
    if expr.is_Add or expr.is_Mul:
        return expr.func(*map(magnitude, expr.args))
    if expr.is_Pow and expr.exp.is_Integer and expr.exp > 0:
        return magnitude(expr.base) ** expr.exp
    return sp.Abs(expr)


def _grad(u):
    """Entries d u_k / d x_d in the order (k, d), one term each."""
    return [[sp.diff(c, v)] for c in u for v in XY]


def _div(u):
    return [sp.diff(u[0], X), sp.diff(u[1], Y)]


def _scaled(coef, terms):
    return [coef * term for term in terms]


def _stress(weight, velocities, diagonal):
    """weight (grad u + grad u^T) summed over ``velocities``, plus the
    ``diagonal`` terms on k = d; entries [k][d] as term lists."""
    return [[[weight * (sp.diff(u[k], XY[d]) + sp.diff(u[d], XY[k]))
              for u in velocities] + (diagonal if k == d else [])
             for d in range(2)] for k in range(2)]


def _div_stress(sigma):
    return [[sp.diff(term, XY[d]) for d in range(2) for term in sigma[k][d]]
            for k in range(2)]


def _traction(sigma, n):
    return [[n[d] * term for d in range(2) for term in sigma[k][d]]
            for k in range(2)]


def _dot(vector_terms, n):
    return [n[k] * term for k in range(2) for term in vector_terms[k]]


def _vec(u):
    return [[c] for c in u]


class Family:
    """Loads, defects and field forms of one set of exact fields."""

    def __init__(self, u_f, p_S, u_r, p_P, y_s):
        u_s = [sp.diff(c, T) for c in y_s]
        self.fields = {"u_f": list(u_f), "p_S": p_S, "u_r": list(u_r),
                       "p_P": p_P, "y_s": list(y_s), "u_s": u_s}
        rho_p = RHO_S * (1 - PHI) + RHO_F * PHI
        kappa_inv = sp.Matrix([[K11, K12], [K12, K22]]).inv()
        sigma_fS = _stress(MU_F, [u_f], [-p_S])
        sigma_fP = _stress(MU_F * PHI, [u_r, u_s], [-PHI * p_P])
        sigma_sP = _stress(MU_P, [y_s], [LAM_P * sp.Add(*_div(y_s)),
                                         -(1 - PHI) * p_P])
        div_fS, div_fP, div_sP = map(_div_stress, (sigma_fS, sigma_fP, sigma_sP))
        self.loads = {
            "f_S": [[RHO_F * sp.diff(u_f[k], T)] + _scaled(-1, div_fS[k])
                    + [u_f[d] * sp.diff(u_f[k], XY[d]) for d in range(2)]
                    for k in range(2)],
            "load_u_r": [[RHO_F * PHI * sp.diff(u_r[k], T), RHO_F * PHI * sp.diff(u_s[k], T)]
                         + _scaled(-1, div_fP[k])
                         + [PHI**2 * kappa_inv[k, d] * u_r[d] for d in range(2)]
                         + [-THETA * u_s[k], -THETA * u_r[k]]
                         for k in range(2)],
            "load_y_s": [[RHO_F * PHI * sp.diff(u_r[k], T), rho_p * sp.diff(u_s[k], T)]
                         + _scaled(-1, div_fP[k]) + _scaled(-1, div_sP[k])
                         + [-THETA * u_r[k], -THETA * u_s[k]]
                         for k in range(2)],
            "r_S": [_div(u_f)],
            "load_p_P": [[(1 - PHI)**2 / K * sp.diff(p_P, T)] + _div(u_s)
                         + _scaled(PHI, _div(u_r))],
        }
        tr_s = _traction(sigma_fS, N_S)
        tr_fp = _traction(sigma_fP, N_P)
        tr_sp = _traction(sigma_sP, N_P)
        c_bjs = MU_F * ALPHA / sp.sqrt(K11)  # kappa_tt = tau . kappa tau
        defects = {
            "m1": [_dot(_vec(u_f), N_S) + _dot(_vec(u_s), N_P)
                   + _dot(_vec(u_r), N_P)],
            "m2": [_scaled(-1, _dot(tr_s, N_S)) + _dot(tr_fp, N_P)],
            "m3": [tr_s[k] + tr_fp[k] + tr_sp[k] for k in range(2)],
            "m4": [_scaled(-1, _dot(tr_s, TAU))
                   + _scaled(-c_bjs, _dot(_vec(u_f), TAU))
                   + _scaled(c_bjs, _dot(_vec(u_s), TAU))],
            "m5": [_scaled(-1, _dot(tr_fp, TAU))
                   + _scaled(-c_bjs, _dot(_vec(u_r), TAU))],
        }
        self.defects = {name: [[term.subs(Y, INTERFACE_Y) for term in terms]
                               for terms in comps]
                        for name, comps in defects.items()}

    def form(self, field, operator):
        """One derivative form of an exact field, as components of terms.

        ``operator`` is "value", "grad", "dt" (any field), or "div",
        "laplacian", "grad_div" (vector fields); vector gradients are in
        the order (k, d) of d u_k / d x_d.
        """
        u = self.fields[field]
        vector = isinstance(u, list)
        if operator == "value":
            return _vec(u) if vector else [[u]]
        if operator == "dt":
            return _vec(sp.diff(c, T) for c in u) if vector else [[sp.diff(u, T)]]
        if operator == "grad":
            return _grad(u) if vector else [[sp.diff(u, X)], [sp.diff(u, Y)]]
        if operator == "div":
            return [_div(u)]
        if operator == "laplacian":
            return [[sp.diff(c, X, 2), sp.diff(c, Y, 2)] for c in u]
        if operator == "grad_div":
            return [[sp.diff(u[0], X, v), sp.diff(u[1], Y, v)] for v in XY]
        raise ValueError(f"unknown operator {operator!r}")

    def compile(self, forms=None):
        """Evaluator of the loads, the defects and ``forms``.

        ``forms`` maps a name to a (field, operator) pair of ``form``.  The
        evaluator ``f(t, x, y, params)`` takes points and a
        ``fpsi.forms.PhysicalParams`` and returns, per name, the exact value
        and the summed magnitude of its terms, each of shape (n, components).
        The defects hold y = 1/2 and ignore ``y``.
        """
        quantities = {**self.loads, **self.defects}
        for name, (field, operator) in (forms or {}).items():
            quantities[name] = self.form(field, operator)
        layout, values, scales = {}, [], []
        for name, comps in quantities.items():
            layout[name] = slice(len(values), len(values) + len(comps))
            values += [sp.Add(*terms) for terms in comps]
            scales += [sp.Add(*map(magnitude, terms)) for terms in comps]
        fn = sp.lambdify((T, X, Y) + PARAMS, values + scales, "numpy")
        count = len(values)

        def evaluate(t, x, y, params):
            kappa = params.kappa  # the last three symbols are its entries
            args = [getattr(params, name) for name in PARAM_NAMES[:-3]]
            args += [kappa[0, 0], kappa[0, 1], kappa[1, 1]]
            shape = np.broadcast(t, x, y).shape
            out = [np.broadcast_to(np.asarray(v, dtype=float), shape)
                   for v in fn(t, x, y, *args)]
            value, scale = np.stack(out[:count], -1), np.stack(out[count:], -1)
            return {name: (value[..., at], scale[..., at])
                    for name, at in layout.items()}
        return evaluate
