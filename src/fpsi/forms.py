"""Variational forms and block assembly for the coupled flow/poroelastic system.

The monolithic unknown ordering is fixed as

    (u_f, p_S, u_r, p_P, y_s, u_s)

free-flow velocity and pressure, relative pore velocity, pore pressure,
solid displacement, and solid velocity.  Couplings that multiply a time
derivative of the trial variable are assembled into the matrix M, all
remaining couplings into N; backward Euler then solves (M / tau + N) x = F
with the convection block of N refreshed from the previous velocity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import fem
from .mesh import (TAG_GAMMA_P_D, TAG_GAMMA_P_N, TAG_GAMMA_S, interface_pairs)

BLOCK_NAMES = ("u_f", "p_S", "u_r", "p_P", "y_s", "u_s")

VOLUME_QUAD_DEGREE = 6
INTERFACE_QUAD_DEGREE = 6


class FormsError(ValueError):
    """Raised for invalid physical or penalty parameters."""


class Spaces(NamedTuple):
    u_f: fem.FunctionSpace
    p_S: fem.FunctionSpace
    u_r: fem.FunctionSpace
    p_P: fem.FunctionSpace
    y_s: fem.FunctionSpace
    u_s: fem.FunctionSpace


def build_spaces(mesh):
    """Canonical discrete spaces: P2^2-P1-P2^2-P1-P2^2-P1^2."""
    return Spaces(
        u_f=fem.build_space(mesh, 2, 2, "S", (TAG_GAMMA_S,)),
        p_S=fem.build_space(mesh, 1, 1, "S"),
        u_r=fem.build_space(mesh, 2, 2, "P", (TAG_GAMMA_P_D,)),
        p_P=fem.build_space(mesh, 1, 1, "P"),
        y_s=fem.build_space(mesh, 2, 2, "P", (TAG_GAMMA_P_D, TAG_GAMMA_P_N)),
        u_s=fem.build_space(mesh, 1, 2, "P"),
    )


class Coefficient:
    """Scalar material coefficient: a constant or a callable field f(x, y)."""

    def __init__(self, value, grad=None):
        if callable(value):
            self._fn = value
            self._grad = grad
            self.constant = None
        else:
            self._fn = None
            self._grad = None
            self.constant = float(value)

    def at(self, x, y):
        if self._fn is None:
            return np.full(np.shape(x), self.constant)
        return np.asarray(self._fn(x, y), dtype=float)

    def grad_at(self, x, y):
        out = np.zeros(np.shape(x) + (2,))
        if self._fn is None:
            return out
        if self._grad is not None:
            return np.asarray(self._grad(x, y), dtype=float)
        h = 1e-7  # fallback for callables supplied without a gradient
        out[..., 0] = (self._fn(x + h, y) - self._fn(x - h, y)) / (2 * h)
        out[..., 1] = (self._fn(x, y + h) - self._fn(x, y - h)) / (2 * h)
        return out


class TensorCoefficient:
    """2x2 material tensor: constant matrix, scalar, or callable field."""

    def __init__(self, value):
        if callable(value):
            self._fn = value
            self.constant = None
        else:
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 0:
                arr = float(arr) * np.eye(2)
            if arr.shape != (2, 2):
                raise FormsError("tensor coefficient must be 2x2")
            self._fn = None
            self.constant = arr

    def at(self, x, y):
        shape = np.shape(x)
        if self._fn is None:
            return np.broadcast_to(self.constant, shape + (2, 2)).copy()
        out = np.empty(shape + (2, 2))
        flat_x, flat_y = np.ravel(x), np.ravel(y)
        flat = out.reshape(-1, 2, 2)
        for i, (xi, yi) in enumerate(zip(flat_x, flat_y)):
            flat[i] = np.asarray(self._fn(xi, yi), dtype=float)
        return out

    def raw(self):
        return self._fn if self._fn is not None else self.constant


@dataclass
class PhysicalParams:
    """Material parameters of the coupled model.

    Porosity, permeability, and the sink term may be spatial fields; all
    other coefficients are positive constants.  The saturated density
    rho_p = rho_s (1 - phi) + rho_f phi is derived.
    """

    rho_f: float = 1.0
    rho_s: float = 1.0
    mu_f: float = 10.0
    mu_p: float = 10.0
    lam_p: float = 10.0
    phi: object = 0.1
    kappa: object = 1.0
    K: float = 1.0
    theta: object = 0.0
    alpha_bjs: float = 1.0

    def __post_init__(self):
        for name in ("rho_f", "rho_s", "mu_f", "mu_p", "lam_p", "K"):
            val = float(getattr(self, name))
            if val <= 0:
                raise FormsError(f"{name} must be positive, got {val}")
            setattr(self, name, val)
        self.alpha_bjs = float(self.alpha_bjs)
        if self.alpha_bjs < 0:
            raise FormsError(f"alpha_bjs must be nonnegative, got {self.alpha_bjs}")
        if not isinstance(self.phi, Coefficient):
            self.phi = Coefficient(self.phi)
        if not isinstance(self.theta, Coefficient):
            self.theta = Coefficient(self.theta)
        if not isinstance(self.kappa, TensorCoefficient):
            self.kappa = TensorCoefficient(self.kappa)
        if self.phi.constant is not None:
            self._check_samples(np.array([self.phi.constant]),
                                np.array([0.0]) if self.theta.constant is None
                                else np.array([self.theta.constant]))
        if self.kappa.constant is not None:
            self._check_kappa(self.kappa.constant[None, :, :])

    @property
    def phi_max_bound(self):
        return self.rho_s / (self.rho_s + self.rho_f)

    def rho_p_at(self, x, y):
        phi = self.phi.at(x, y)
        return self.rho_s * (1.0 - phi) + self.rho_f * phi

    def _check_samples(self, phi_vals, theta_vals):
        lo, hi = float(phi_vals.min()), float(phi_vals.max())
        if lo <= 0 or hi >= self.phi_max_bound:
            raise FormsError(
                f"porosity out of range: need 0 < phi < rho_s/(rho_s+rho_f) "
                f"= {self.phi_max_bound:.6g}, sampled range [{lo:.6g}, {hi:.6g}]")
        if theta_vals.max() > 0:
            warnings.warn("theta > 0 acts as a fluid source; the model "
                          "expects a sink (theta <= 0)")

    def _check_kappa(self, kap):
        sym_err = np.abs(kap - np.transpose(kap, (0, 2, 1))).max()
        if sym_err > 1e-12:
            raise FormsError("permeability tensor must be symmetric")
        eigs = np.linalg.eigvalsh(kap)
        if eigs.min() <= 0:
            raise FormsError(
                f"permeability tensor must be positive definite "
                f"(min eigenvalue {eigs.min():.3g})")

    def validate_on(self, mesh, quad_degree=VOLUME_QUAD_DEGREE):
        """Sample spatial coefficients at quadrature points and re-check."""
        rule = fem.quadrature_rule("triangle", quad_degree)
        geo = fem.CellGeometry(mesh, mesh.cells_in("P"), rule)
        x, y = geo.x[..., 0].ravel(), geo.x[..., 1].ravel()
        self._check_samples(self.phi.at(x, y), self.theta.at(x, y))
        self._check_kappa(self.kappa.at(x, y).reshape(-1, 2, 2))


# non-dimensional set used by the manufactured verification problem
REFERENCE_PARAMS = dict(rho_f=1.0, rho_s=1.0, mu_f=10.0, mu_p=10.0,
                        lam_p=10.0, phi=0.1, kappa=1.0, K=1.0, theta=0.0,
                        alpha_bjs=1.0)


@dataclass(frozen=True)
class NitscheParams:
    """Interface penalty gamma and consistency variant varsigma."""

    gamma: float = 40.0
    varsigma: int = 1

    def __post_init__(self):
        if self.gamma <= 0:
            raise FormsError(f"gamma must be positive, got {self.gamma}")
        if self.varsigma not in (-1, 0, 1):
            raise FormsError(f"varsigma must be -1, 0, or 1, got {self.varsigma}")


class BlockSystem:
    """Sparse square operator over the monolithic six-field dof layout."""

    def __init__(self, spaces, matrix, rhs=None):
        self.spaces = spaces
        self.block_names = BLOCK_NAMES
        self.sizes = tuple(sp.ndofs for sp in spaces)
        self.offsets = tuple(np.concatenate([[0], np.cumsum(self.sizes)])[:-1])
        self.size = sum(self.sizes)
        self.matrix = matrix
        self.rhs = rhs

    @classmethod
    def from_contributions(cls, spaces, contributions, rhs=None):
        sizes = [sp.ndofs for sp in spaces]
        offsets = np.concatenate([[0], np.cumsum(sizes)])[:-1]
        total = int(sum(sizes))
        idx = {name: i for i, name in enumerate(BLOCK_NAMES)}
        rows, cols, vals = [], [], []
        for test, trial, r, c, v in contributions:
            rows.append(np.asarray(r, dtype=np.int64) + offsets[idx[test]])
            cols.append(np.asarray(c, dtype=np.int64) + offsets[idx[trial]])
            vals.append(np.asarray(v, dtype=float))
        if rows:
            coo = sparse.coo_matrix(
                (np.concatenate(vals),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(total, total))
            matrix = coo.tocsr()
        else:
            matrix = sparse.csr_matrix((total, total))
        return cls(spaces, matrix, rhs)

    def block(self, test, trial):
        i = BLOCK_NAMES.index(test)
        j = BLOCK_NAMES.index(trial)
        r0, c0 = self.offsets[i], self.offsets[j]
        return self.matrix[r0:r0 + self.sizes[i], c0:c0 + self.sizes[j]]

    def block_pattern(self):
        """Set of (test, trial) block pairs holding structural nonzeros."""
        pruned = self.matrix.copy()
        pruned.eliminate_zeros()
        pattern = set()
        for i, test in enumerate(BLOCK_NAMES):
            for j, trial in enumerate(BLOCK_NAMES):
                r0, c0 = self.offsets[i], self.offsets[j]
                sub = pruned[r0:r0 + self.sizes[i], c0:c0 + self.sizes[j]]
                if sub.nnz:
                    pattern.add((test, trial))
        return pattern

    def with_matrix(self, matrix, rhs=None):
        return BlockSystem(self.spaces, matrix, self.rhs if rhs is None else rhs)


class StateVector:
    """Six coefficient blocks in the monolithic ordering plus a timestamp."""

    def __init__(self, blocks, time=0.0):
        blocks = tuple(blocks)
        if len(blocks) != 6:
            raise FormsError("state needs exactly six field blocks")
        self.blocks = blocks
        self.time = float(time)

    @classmethod
    def zero(cls, spaces, time=0.0):
        return cls([fem.FieldCoefficients(sp, np.zeros(sp.ndofs))
                    for sp in spaces], time)

    @classmethod
    def from_vector(cls, spaces, vec, time=0.0):
        vec = np.asarray(vec, dtype=float)
        blocks, pos = [], 0
        for sp in spaces:
            blocks.append(fem.FieldCoefficients(sp, vec[pos:pos + sp.ndofs]))
            pos += sp.ndofs
        if pos != vec.size:
            raise FormsError(f"vector length {vec.size} does not match spaces ({pos})")
        return cls(blocks, time)

    def vector(self):
        return np.concatenate([b.values for b in self.blocks])

    def block(self, name):
        return self.blocks[BLOCK_NAMES.index(name)]


# --- assembly context ------------------------------------------------------

class AssemblyContext:
    """Shared tabulations, geometry, and coefficient samples for assembly."""

    def __init__(self, spaces, params, nitsche=None, pairs=None,
                 quad_degree=VOLUME_QUAD_DEGREE):
        self.spaces = spaces
        self.params = params
        self.nitsche = nitsche
        mesh = spaces.u_f.mesh
        self.mesh = mesh
        params.validate_on(mesh)
        self.pairs = pairs if pairs is not None else interface_pairs(
            mesh, params.kappa.raw())
        self.rule = fem.quadrature_rule("triangle", quad_degree)
        self.tab = {1: fem.tabulate(1, self.rule.points),
                    2: fem.tabulate(2, self.rule.points)}
        self.geo = {sub: fem.CellGeometry(mesh, mesh.cells_in(sub), self.rule)
                    for sub in ("S", "P")}
        self._grads = {}
        p_geo = self.geo["P"]
        xp, yp = p_geo.x[..., 0], p_geo.x[..., 1]
        self.phi_P = params.phi.at(xp, yp)
        self.grad_phi_P = params.phi.grad_at(xp, yp)
        self.theta_P = params.theta.at(xp, yp)
        self.rho_p_P = params.rho_p_at(xp, yp)
        kap = params.kappa.at(xp, yp)
        self.kappa_inv_P = np.linalg.inv(kap)
        self.seg_rule = fem.quadrature_rule("segment", INTERFACE_QUAD_DEGREE)
        self._cell_pos = {sub: {int(c): i for i, c in enumerate(mesh.cells_in(sub))}
                          for sub in ("S", "P")}
        self._facets = [self._facet_data(pair) for pair in self.pairs]
        self.facet_stack = self._stack_facets()
        self._patterns = {}

    def grads(self, space):
        key = (space.subdomain, space.degree)
        if key not in self._grads:
            _, dphi = self.tab[space.degree]
            self._grads[key] = self.geo[space.subdomain].physical_grads(dphi)
        return self._grads[key]

    def vec_pattern(self, space):
        """(rows, cols) of a vector block's local entries, built once.

        The order is that of ``_contrib`` over ``vec_dofs`` x ``vec_dofs``,
        so a kernel's flattened local values line up with it.
        """
        key = (space.subdomain, space.degree)
        if key not in self._patterns:
            dofs = self.vec_dofs(space)
            nloc = dofs.shape[1]
            self._patterns[key] = (np.repeat(dofs, nloc, axis=1).ravel(),
                                   np.tile(dofs, (1, nloc)).ravel())
        return self._patterns[key]

    def phi_table(self, space):
        return self.tab[space.degree][0]

    def scal_dofs(self, space):
        return space.cell_dofs

    def vec_dofs(self, space):
        return (2 * space.cell_dofs[:, :, None]
                + np.arange(2)[None, None, :]).reshape(space.cell_dofs.shape[0], -1)

    # -- interface facet tabulations --------------------------------------

    def _facet_data(self, pair):
        mesh = self.mesh
        pa = mesh.vertices[pair.vertex_ids[0]]
        pb = mesh.vertices[pair.vertex_ids[1]]
        s = self.seg_rule.points[:, 0]
        xq = pa[None, :] + s[:, None] * (pb - pa)[None, :]
        we = self.seg_rule.weights * pair.h_e
        data = {"pair": pair, "x": xq, "w": we}
        for side, cell in (("S", pair.cell_s), ("P", pair.cell_p)):
            tri = mesh.cells[cell]
            p0 = mesh.vertices[tri[0]]
            jac = np.stack([mesh.vertices[tri[1]] - p0,
                            mesh.vertices[tri[2]] - p0], axis=1)
            ref = np.linalg.solve(jac, (xq - p0).T).T
            inv_jac = np.linalg.inv(jac)
            for deg in (1, 2):
                phi, dphi = fem.tabulate(deg, ref)
                grad = np.einsum("qld,de->qle", dphi, inv_jac)
                data[(side, deg, "phi")] = phi
                data[(side, deg, "grad")] = grad
            data[(side, "cell")] = cell
        return data

    def _stack_facets(self):
        """The facet tables stacked along a leading facet axis (None if none)."""
        facets = self._facets
        if not facets:
            return None
        stack = {key: np.stack([f[key] for f in facets]) for key in ("x", "w")}
        for attr in ("normal_s", "normal_p", "tangent", "h_e"):
            stack[attr] = np.array([getattr(f["pair"], attr) for f in facets])
        for side in ("S", "P"):
            for key in ((side, deg, kind) for deg in (1, 2)
                        for kind in ("phi", "grad")):
                stack[key] = np.stack([f[key] for f in facets])
            stack[(side, "pos")] = np.array(
                [self._cell_pos[side][f[(side, "cell")]] for f in facets])
        return stack

    def facet_tables(self):
        return self._facets

    def stacked_facet_dofs(self, space, vector=True):
        """``facet_cell_dofs`` of every facet at once: (facets, ndofs)."""
        dofs = space.cell_dofs[self.facet_stack[(space.subdomain, "pos")]]
        if vector and space.components == 2:
            return (2 * dofs[..., None] + np.arange(2)).reshape(dofs.shape[0], -1)
        return dofs

    def facet_cell_dofs(self, space, facet, vector=True):
        side = space.subdomain
        cell = facet[(side, "cell")]
        pos = self._cell_pos[side][cell]
        dofs = space.cell_dofs[pos]
        if vector and space.components == 2:
            return (2 * dofs[:, None] + np.arange(2)[None, :]).ravel()
        return dofs

    # trace feature vectors on one facet, per dof ---------------------------

    def trace_normal(self, space, facet, normal):
        """n . (basis vector dof) at facet quad points: (nq, 2*nloc)."""
        phi = facet[(space.subdomain, space.degree, "phi")]
        nq, nl = phi.shape
        out = np.empty((nq, 2 * nl))
        out[:, 0::2] = normal[0] * phi
        out[:, 1::2] = normal[1] * phi
        return out

    def trace_tangent(self, space, facet, tangent):
        return self.trace_normal(space, facet, tangent)

    def trace_values(self, space, facet):
        return facet[(space.subdomain, space.degree, "phi")]

    def trace_stress_nn(self, space, facet, normal):
        """(eps(basis) n) . n per vector dof: (nq, 2*nloc)."""
        grad = facet[(space.subdomain, space.degree, "grad")]
        gn = grad @ normal  # (nq, nloc)
        nq, nl = gn.shape
        out = np.empty((nq, 2 * nl))
        out[:, 0::2] = normal[0] * gn
        out[:, 1::2] = normal[1] * gn
        return out


def _expand_components(base):
    """Scalar local blocks (c, ni, nj) -> vector-interleaved (c, 2ni, 2nj)."""
    c, ni, nj = base.shape
    out = np.zeros((c, ni, 2, nj, 2))
    out[:, :, 0, :, 0] = base
    out[:, :, 1, :, 1] = base
    return out.reshape(c, 2 * ni, 2 * nj)


def _contrib(test_name, trial_name, row_map, col_map, local):
    c, ni, nj = local.shape
    rows = np.repeat(row_map, nj, axis=1)
    cols = np.tile(col_map, (1, ni))
    return (test_name, trial_name, rows.ravel(), cols.ravel(), local.ravel())


class _Kernels:
    """Volume integration kernels over one subdomain, einsum-batched."""

    def __init__(self, ctx):
        self.ctx = ctx

    def _wdet(self, space):
        return self.ctx.geo[space.subdomain].wdet

    def mass(self, test, trial, coeff, name_t, name_u):
        """(coeff w, z): scalar coefficient, identical component structure."""
        phi_t = self.ctx.phi_table(test)
        phi_u = self.ctx.phi_table(trial)
        w = self._wdet(test) * coeff
        base = np.einsum("cq,qi,qj->cij", w, phi_t, phi_u)
        if test.components == 2:
            local = _expand_components(base)
            return _contrib(name_t, name_u, self.ctx.vec_dofs(test),
                            self.ctx.vec_dofs(trial), local)
        return _contrib(name_t, name_u, self.ctx.scal_dofs(test),
                        self.ctx.scal_dofs(trial), base)

    def tensor_mass(self, test, trial, tensor, name_t, name_u):
        """(T w, z) with a 2x2 tensor coefficient sampled at quad points."""
        phi_t = self.ctx.phi_table(test)
        phi_u = self.ctx.phi_table(trial)
        w = self._wdet(test)
        local = np.einsum("cq,cqkl,qi,qj->cikjl", w, tensor, phi_t, phi_u)
        c, ni, _, nj, _ = local.shape
        return _contrib(name_t, name_u, self.ctx.vec_dofs(test),
                        self.ctx.vec_dofs(trial), local.reshape(c, 2 * ni, 2 * nj))

    def eps_eps(self, test, trial, coeff, name_t, name_u):
        """(coeff eps(u), eps(v)) for vector spaces on one subdomain."""
        g_t = self.ctx.grads(test)
        g_u = self.ctx.grads(trial)
        w = self._wdet(test) * coeff
        t1 = np.einsum("cq,cqid,cqjd->cij", w, g_t, g_u)
        t2 = np.einsum("cq,cqil,cqjk->cikjl", w, g_t, g_u)
        c, ni, nj = t1.shape
        local = 0.5 * t2
        local[:, :, 0, :, 0] += 0.5 * t1
        local[:, :, 1, :, 1] += 0.5 * t1
        return _contrib(name_t, name_u, self.ctx.vec_dofs(test),
                        self.ctx.vec_dofs(trial), local.reshape(c, 2 * ni, 2 * nj))

    def div_div(self, test, trial, coeff, name_t, name_u):
        g_t = self.ctx.grads(test)
        g_u = self.ctx.grads(trial)
        w = self._wdet(test) * coeff
        local = np.einsum("cq,cqik,cqjl->cikjl", w, g_t, g_u)
        c, ni, _, nj, _ = local.shape
        return _contrib(name_t, name_u, self.ctx.vec_dofs(test),
                        self.ctx.vec_dofs(trial), local.reshape(c, 2 * ni, 2 * nj))

    def pressure_div(self, scalar_sp, vector_sp, coeff, grad_coeff,
                     name_t, name_u, transpose=False, sign=1.0):
        """(q, div(coeff v)) = (q, coeff div v + grad(coeff) . v).

        With ``transpose`` the roles flip to a (v, q)-block carrying the
        same local values, used for the -(div v, p) pressure gradients.
        """
        phi_q = self.ctx.phi_table(scalar_sp)
        phi_v = self.ctx.phi_table(vector_sp)
        g_v = self.ctx.grads(vector_sp)
        w = self._wdet(vector_sp)
        local = np.einsum("cq,cq,qi,cqjl->cijl", w, coeff, phi_q, g_v)
        if grad_coeff is not None:
            local += np.einsum("cq,cql,qi,qj->cijl", w, grad_coeff, phi_q, phi_v)
        c, ni, nj, _ = local.shape
        local = sign * local.reshape(c, ni, 2 * nj)
        if transpose:
            return _contrib(name_t, name_u, self.ctx.vec_dofs(vector_sp),
                            self.ctx.scal_dofs(scalar_sp),
                            np.transpose(local, (0, 2, 1)).copy())
        return _contrib(name_t, name_u, self.ctx.scal_dofs(scalar_sp),
                        self.ctx.vec_dofs(vector_sp), local)

    def convection(self, space, advecting_values, name):
        """((w . grad) u, v) with the advecting field w given by coefficients.

        The rows and columns are ``ctx.vec_pattern(space)``, the same arrays
        on every call.
        """
        phi = self.ctx.phi_table(space)
        g = self.ctx.grads(space)
        w = self._wdet(space)
        coeffs = advecting_values.reshape(space.num_nodes, 2)
        # matrix products in place of einsum: this runs on every time step
        wq = phi @ coeffs[space.cell_dofs]                      # (c, q, d)
        wdotg = wq[..., 0, None] * g[..., 0] + wq[..., 1, None] * g[..., 1]
        base = phi.T @ (w[..., None] * wdotg)                   # (c, i, j)
        rows, cols = self.ctx.vec_pattern(space)
        return (name, name, rows, cols, _expand_components(base).ravel())

    def vector_load(self, space, values_cqk):
        phi = self.ctx.phi_table(space)
        w = self._wdet(space)
        # one matrix product over all cells: (q, i) x (c, q, k) -> (i, c, k)
        local = np.tensordot(phi, w[..., None] * values_cqk, axes=([0], [1]))
        return (self.ctx.vec_dofs(space).ravel(),
                np.transpose(local, (1, 0, 2)).ravel())

    def scalar_load(self, space, values_cq):
        phi = self.ctx.phi_table(space)
        w = self._wdet(space)
        local = (w * values_cq) @ phi
        return self.ctx.scal_dofs(space).ravel(), local.ravel()


# --- component assemblers ---------------------------------------------------

def assemble_volume_forms(spaces, params, ctx=None):
    """All subdomain (volume) couplings, split by M/N destination."""
    ctx = ctx or AssemblyContext(spaces, params)
    k = _Kernels(ctx)
    p = ctx.params
    phi = ctx.phi_P
    theta = ctx.theta_P
    ones_s = np.ones_like(ctx.geo["S"].wdet)
    ones_p = np.ones_like(ctx.geo["P"].wdet)

    m_parts = [
        # momentum storage terms
        k.mass(spaces.u_f, spaces.u_f, p.rho_f * ones_s, "u_f", "u_f"),
        k.mass(spaces.u_r, spaces.u_r, p.rho_f * phi, "u_r", "u_r"),
        k.mass(spaces.u_r, spaces.u_s, p.rho_f * phi, "u_r", "u_s"),
        k.mass(spaces.y_s, spaces.u_r, p.rho_f * phi, "y_s", "u_r"),
        k.mass(spaces.y_s, spaces.u_s, ctx.rho_p_P, "y_s", "u_s"),
        # velocity/displacement compatibility row
        k.mass(spaces.u_s, spaces.y_s, -ctx.rho_p_P, "u_s", "y_s"),
        # Brinkman stiffness acting on the displacement rate
        k.eps_eps(spaces.u_r, spaces.y_s, 2.0 * p.mu_f * phi, "u_r", "y_s"),
        k.eps_eps(spaces.y_s, spaces.y_s, 2.0 * p.mu_f * phi, "y_s", "y_s"),
        # sink terms on the displacement rate
        k.mass(spaces.u_r, spaces.y_s, -theta, "u_r", "y_s"),
        k.mass(spaces.y_s, spaces.y_s, -theta, "y_s", "y_s"),
        # pore-pressure storage and solid dilation rate
        k.mass(spaces.p_P, spaces.p_P, (1.0 - phi) ** 2 / p.K, "p_P", "p_P"),
        k.pressure_div(spaces.p_P, spaces.y_s, ones_p, None, "p_P", "y_s"),
    ]
    n_parts = [
        k.mass(spaces.u_s, spaces.u_s, ctx.rho_p_P, "u_s", "u_s"),
        k.eps_eps(spaces.u_f, spaces.u_f, 2.0 * p.mu_f * ones_s, "u_f", "u_f"),
        k.eps_eps(spaces.y_s, spaces.u_r, 2.0 * p.mu_f * phi, "y_s", "u_r"),
        k.eps_eps(spaces.u_r, spaces.u_r, 2.0 * p.mu_f * phi, "u_r", "u_r"),
        k.eps_eps(spaces.y_s, spaces.y_s, 2.0 * p.mu_p * ones_p, "y_s", "y_s"),
        k.div_div(spaces.y_s, spaces.y_s, p.lam_p * ones_p, "y_s", "y_s"),
        # pressure gradients: -(div v, p)
        k.pressure_div(spaces.p_S, spaces.u_f, ones_s, None, "u_f", "p_S",
                       transpose=True, sign=-1.0),
        k.pressure_div(spaces.p_P, spaces.y_s, ones_p, None, "y_s", "p_P",
                       transpose=True, sign=-1.0),
        k.pressure_div(spaces.p_P, spaces.u_r, phi, ctx.grad_phi_P, "u_r", "p_P",
                       transpose=True, sign=-1.0),
        # sink terms on the pore velocity
        k.mass(spaces.y_s, spaces.u_r, -theta, "y_s", "u_r"),
        k.mass(spaces.u_r, spaces.u_r, -theta, "u_r", "u_r"),
        # Darcy drag
        k.tensor_mass(spaces.u_r, spaces.u_r,
                      phi[..., None, None] ** 2 * ctx.kappa_inv_P, "u_r", "u_r"),
        # mass conservation rows: +(div u, q)
        k.pressure_div(spaces.p_S, spaces.u_f, ones_s, None, "p_S", "u_f"),
        k.pressure_div(spaces.p_P, spaces.u_r, phi, ctx.grad_phi_P, "p_P", "u_r"),
    ]
    return {"M": m_parts, "N": n_parts}


def assemble_bjs(spaces, params, pairs=None, ctx=None):
    """Tangential slip-friction couplings on the interface."""
    ctx = ctx or AssemblyContext(spaces, params, pairs=pairs)
    m_parts, n_parts = [], []
    coeff = params.mu_f * params.alpha_bjs
    if coeff == 0.0:
        return {"M": m_parts, "N": n_parts}
    for facet in ctx.facet_tables():
        pair = facet["pair"]
        c = coeff / np.sqrt(pair.z_perm)
        w = facet["w"] * c
        tt_f = ctx.trace_tangent(spaces.u_f, facet, pair.tangent)
        tt_y = ctx.trace_tangent(spaces.y_s, facet, pair.tangent)
        tt_r = ctx.trace_tangent(spaces.u_r, facet, pair.tangent)
        d_f = ctx.facet_cell_dofs(spaces.u_f, facet)
        d_y = ctx.facet_cell_dofs(spaces.y_s, facet)
        d_r = ctx.facet_cell_dofs(spaces.u_r, facet)

        def outer(rows_t, cols_t, sign):
            return sign * np.einsum("q,qa,qb->ab", w, rows_t, cols_t)

        # friction between free fluid and solid rate: ((u_f - d_t y) . tau,
        # (v_f - w_s) . tau); the u_f column goes to N, the y_s column to M
        n_parts.append(("u_f", "u_f", *_flat(d_f, d_f, outer(tt_f, tt_f, 1.0))))
        n_parts.append(("y_s", "u_f", *_flat(d_y, d_f, outer(tt_y, tt_f, -1.0))))
        m_parts.append(("u_f", "y_s", *_flat(d_f, d_y, outer(tt_f, tt_y, -1.0))))
        m_parts.append(("y_s", "y_s", *_flat(d_y, d_y, outer(tt_y, tt_y, 1.0))))
        # pore-velocity friction
        n_parts.append(("u_r", "u_r", *_flat(d_r, d_r, outer(tt_r, tt_r, 1.0))))
    return {"M": m_parts, "N": n_parts}


def _flat(rows_map, cols_map, local):
    ni, nj = local.shape
    rows = np.repeat(rows_map, nj)
    cols = np.tile(cols_map, ni)
    return rows, cols, local.ravel()


def assemble_nitsche_consistency(spaces, params, nitsche, pairs=None, ctx=None):
    """Interface stress-consistency couplings and their adjoints.

    Only the S-side trace of the normal stress (2 mu_f eps(u_f) - p_S I) n . n
    enters; the test jump spans (v_f . n_S + v_r . n_P + w_s . n_P).  The
    adjoint rows carry the varsigma weight on the velocity test and pair the
    trial jump with -q_S.
    """
    ctx = ctx or AssemblyContext(spaces, params, nitsche, pairs)
    sig = float(nitsche.varsigma)
    two_mu = 2.0 * params.mu_f
    m_parts, n_parts = [], []
    for facet in ctx.facet_tables():
        pair = facet["pair"]
        w = facet["w"]
        n_s, n_p = pair.normal_s, pair.normal_p
        snn_f = ctx.trace_stress_nn(spaces.u_f, facet, n_s)
        pv = ctx.trace_values(spaces.p_S, facet)
        jumps = [("u_f", ctx.trace_normal(spaces.u_f, facet, n_s),
                  ctx.facet_cell_dofs(spaces.u_f, facet)),
                 ("u_r", ctx.trace_normal(spaces.u_r, facet, n_p),
                  ctx.facet_cell_dofs(spaces.u_r, facet)),
                 ("y_s", ctx.trace_normal(spaces.y_s, facet, n_p),
                  ctx.facet_cell_dofs(spaces.y_s, facet))]
        d_f = ctx.facet_cell_dofs(spaces.u_f, facet)
        d_ps = ctx.facet_cell_dofs(spaces.p_S, facet, vector=False)

        for name, jn, dofs in jumps:
            # trial-side stress against the test jump:
            # -(2 mu_f eps(u_f) n . n)(jump v) and +(p_S)(jump v)
            n_parts.append((name, "u_f", *_flat(
                dofs, d_f, -two_mu * np.einsum("q,qa,qb->ab", w, jn, snn_f))))
            n_parts.append((name, "p_S", *_flat(
                dofs, d_ps, np.einsum("q,qa,qb->ab", w, jn, pv))))
            # adjoint: test stress against the trial jump
            dest = m_parts if name == "y_s" else n_parts
            if sig != 0.0:
                dest.append(("u_f", name, *_flat(
                    d_f, dofs, -sig * two_mu * np.einsum("q,qa,qb->ab", w, snn_f, jn))))
            dest.append(("p_S", name, *_flat(
                d_ps, dofs, -np.einsum("q,qa,qb->ab", w, pv, jn))))
    return {"M": m_parts, "N": n_parts}


def assemble_nitsche_penalty(spaces, params, nitsche, pairs=None, ctx=None):
    """Mass-conservation penalty (gamma mu_f / h_E) over the interface jump."""
    ctx = ctx or AssemblyContext(spaces, params, nitsche, pairs)
    m_parts, n_parts = [], []
    for facet in ctx.facet_tables():
        pair = facet["pair"]
        coeff = nitsche.gamma * params.mu_f / pair.h_e
        w = facet["w"] * coeff
        jumps = [("u_f", ctx.trace_normal(spaces.u_f, facet, pair.normal_s),
                  ctx.facet_cell_dofs(spaces.u_f, facet)),
                 ("u_r", ctx.trace_normal(spaces.u_r, facet, pair.normal_p),
                  ctx.facet_cell_dofs(spaces.u_r, facet)),
                 ("y_s", ctx.trace_normal(spaces.y_s, facet, pair.normal_p),
                  ctx.facet_cell_dofs(spaces.y_s, facet))]
        for t_name, t_jn, t_dofs in jumps:
            for u_name, u_jn, u_dofs in jumps:
                local = np.einsum("q,qa,qb->ab", w, t_jn, u_jn)
                part = (t_name, u_name, *_flat(t_dofs, u_dofs, local))
                (m_parts if u_name == "y_s" else n_parts).append(part)
    return {"M": m_parts, "N": n_parts}


def assemble_convection(space_f, previous_velocity, ctx):
    """Oseen-lagged convection block for the free-flow momentum equation."""
    if previous_velocity is None:
        return None
    values = (previous_velocity.values
              if isinstance(previous_velocity, fem.FieldCoefficients)
              else np.asarray(previous_velocity, dtype=float))
    if not np.any(values):
        return None
    return _Kernels(ctx).convection(space_f, values, "u_f")


def _merge(dest, *part_dicts):
    out = []
    for parts in part_dicts:
        out.extend(parts[dest])
    return out


def assemble_M(spaces, params, nitsche, pairs=None, ctx=None):
    """Matrix of all couplings that multiply time derivatives of the trials."""
    ctx = ctx or AssemblyContext(spaces, params, nitsche, pairs)
    parts = _merge("M",
                   assemble_volume_forms(spaces, params, ctx=ctx),
                   assemble_bjs(spaces, params, ctx=ctx),
                   assemble_nitsche_consistency(spaces, params, nitsche, ctx=ctx),
                   assemble_nitsche_penalty(spaces, params, nitsche, ctx=ctx))
    return BlockSystem.from_contributions(spaces, parts)


def assemble_N(spaces, params, nitsche, pairs=None, previous_velocity=None,
               ctx=None):
    """Matrix of all stationary couplings, including lagged convection."""
    ctx = ctx or AssemblyContext(spaces, params, nitsche, pairs)
    parts = _merge("N",
                   assemble_volume_forms(spaces, params, ctx=ctx),
                   assemble_bjs(spaces, params, ctx=ctx),
                   assemble_nitsche_consistency(spaces, params, nitsche, ctx=ctx),
                   assemble_nitsche_penalty(spaces, params, nitsche, ctx=ctx))
    conv = assemble_convection(spaces.u_f, previous_velocity, ctx)
    if conv is not None:
        parts.append(conv)
    return BlockSystem.from_contributions(spaces, parts)


def assemble_F(spaces, sources, time, corrections=None, params=None,
               nitsche=None, ctx=None):
    """Load vector: body forces, mass residuals, and interface corrections."""
    if ctx is None:
        if params is None:
            raise FormsError("assemble_F needs params when no context is given")
        ctx = AssemblyContext(spaces, params, nitsche)
    params = ctx.params
    nitsche = ctx.nitsche
    if corrections is not None and nitsche is None:
        raise FormsError("interface corrections require Nitsche parameters")
    k = _Kernels(ctx)
    sizes = [sp.ndofs for sp in spaces]
    offsets = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    rhs = np.zeros(int(sum(sizes)))

    def scatter(block, space, dofs, contrib):
        start = offsets[BLOCK_NAMES.index(block)]
        rhs[start:start + space.ndofs] += np.bincount(
            dofs, weights=contrib, minlength=space.ndofs)

    def add_vec(block, space, values_fn, geo):
        x, y = geo.x[..., 0], geo.x[..., 1]
        vals = values_fn(time, x.ravel(), y.ravel())
        vals = np.asarray(vals, dtype=float).reshape(x.shape + (2,))
        scatter(block, space, *k.vector_load(space, vals))

    def add_scal(block, space, values_fn, geo):
        x, y = geo.x[..., 0], geo.x[..., 1]
        vals = np.asarray(values_fn(time, x.ravel(), y.ravel()),
                          dtype=float).reshape(x.shape)
        scatter(block, space, *k.scalar_load(space, vals))

    if sources is not None:
        geo_s, geo_p = ctx.geo["S"], ctx.geo["P"]
        if sources.f_S is not None:
            add_vec("u_f", spaces.u_f, sources.f_S, geo_s)
        if sources.load_u_r is not None:
            add_vec("u_r", spaces.u_r, sources.load_u_r, geo_p)
        if sources.load_y_s is not None:
            add_vec("y_s", spaces.y_s, sources.load_y_s, geo_p)
        if sources.r_S is not None:
            add_scal("p_S", spaces.p_S, sources.r_S, geo_s)
        if sources.load_p_P is not None:
            add_scal("p_P", spaces.p_P, sources.load_p_P, geo_p)

    if corrections is not None:
        _add_interface_corrections(ctx, spaces, corrections, time, rhs, offsets)
    return rhs


def _add_interface_corrections(ctx, spaces, corr, time, rhs, offsets):
    """Manufactured-solution defect terms on the interface.

    The penalty-weighted mass defect m1 loads every jump slot with
    (gamma mu_f / h_E) m1; the stress-consistency adjoint pairs m1 with
    -varsigma 2 mu_f (eps(v_f) n . n) and with -q_S; m2..m5 restore the
    normal-stress, contact-force, and slip defects.  All facets are handled
    at once from ``ctx.facet_stack``.
    """
    fs = ctx.facet_stack
    if fs is None:
        return
    params, nitsche = ctx.params, ctx.nitsche
    sig = float(nitsche.varsigma)
    two_mu = 2.0 * params.mu_f
    w = fs["w"]                                   # (facets, nq)
    x, y = fs["x"][..., 0], fs["x"][..., 1]
    shape = x.shape
    n_s, n_p, tau = fs["normal_s"], fs["normal_p"], fs["tangent"]
    c_pen = (nitsche.gamma * params.mu_f / fs["h_e"])[:, None]

    def at_points(fn):
        return np.asarray(fn(time, x.ravel(), y.ravel()), dtype=float)

    m1 = at_points(corr.m1).reshape(shape)
    m2 = at_points(corr.m2).reshape(shape)
    m3 = at_points(corr.m3).reshape(shape + (2,))
    m4 = at_points(corr.m4).reshape(shape)
    m5 = at_points(corr.m5).reshape(shape)

    def along(space, direction, values):
        """sum_q w values (direction . basis vector) per facet and dof."""
        phi = fs[(space.subdomain, space.degree, "phi")]
        local = np.einsum("fq,fqi->fi", w * values, phi)
        return (local[..., None] * direction[:, None, :]).reshape(len(w), -1)

    def stress_nn(space, normal, values):
        """sum_q w values (eps(basis) n . n) per facet and dof."""
        grad = fs[(space.subdomain, space.degree, "grad")]
        gn = np.einsum("fqld,fd->fql", grad, normal)
        local = np.einsum("fq,fql->fl", w * values, gn)
        return (local[..., None] * normal[:, None, :]).reshape(len(w), -1)

    def scatter(block, space, vals, vector=True):
        dofs = ctx.stacked_facet_dofs(space, vector)
        start = offsets[BLOCK_NAMES.index(block)]
        rhs[start:start + space.ndofs] += np.bincount(
            dofs.ravel(), weights=vals.ravel(), minlength=space.ndofs)

    pen = c_pen * m1
    scatter("u_f", spaces.u_f, along(spaces.u_f, n_s, pen)
            - sig * two_mu * stress_nn(spaces.u_f, n_s, m1)
            - along(spaces.u_f, tau, m4))
    scatter("p_S", spaces.p_S,
            -np.einsum("fq,fqi->fi", w * m1, fs[("S", 1, "phi")]), vector=False)
    scatter("u_r", spaces.u_r, along(spaces.u_r, n_p, pen + m2)
            - along(spaces.u_r, tau, m5))
    phi_w = fs[(spaces.y_s.subdomain, spaces.y_s.degree, "phi")]
    m3_vals = np.einsum("fq,fqk,fqi->fik", w, m3, phi_w).reshape(len(w), -1)
    scatter("y_s", spaces.y_s, along(spaces.y_s, n_p, pen) + m3_vals
            + along(spaces.y_s, tau, m4))


def penalty_matrix(spaces, params, nitsche, pairs=None, ctx=None):
    """Full symmetric interface-penalty matrix over the monolithic layout."""
    ctx = ctx or AssemblyContext(spaces, params, nitsche, pairs)
    parts = _merge("M", assemble_nitsche_penalty(spaces, params, nitsche, ctx=ctx))
    parts += _merge("N", assemble_nitsche_penalty(spaces, params, nitsche, ctx=ctx))
    return BlockSystem.from_contributions(spaces, parts).matrix
