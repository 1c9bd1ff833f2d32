"""Variational forms and block assembly for the coupled flow/poroelastic system.

The monolithic unknown ordering is fixed as

    (u_f, p_S, u_r, p_P, y_s, u_s)

free-flow velocity and pressure, relative pore velocity, pore pressure,
solid displacement, and solid velocity.  Couplings that multiply a time
derivative of the trial variable are assembled into the matrix M, all
remaining couplings into N: ``VOLUME_TERMS`` and ``INTERFACE_TERMS`` declare
every term of the scheme with its matrix.  Backward Euler then solves
(M / tau + N) x = F with the convection block of N refreshed from the
previous velocity.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import fem
from .mesh import (TAG_GAMMA_P_D, TAG_GAMMA_P_N, TAG_GAMMA_S, interface_pairs)

VOLUME_QUAD_DEGREE = 6
INTERFACE_QUAD_DEGREE = 6

# Where a coupling vanishes in exact arithmetic, assembly leaves a rounding
# residue, 1e-20 to 1e-14 of the terms it came from, instead of an exact
# zero.  ``_contrib`` zeroes a kernel's local entries below this fraction of
# the largest magnitude in that kernel's array on the same cell or facet, and
# ``from_contributions`` drops sums below this fraction of the summed
# magnitudes of their own terms (couplings that cancel between cells).
# Neither test compares couplings of different coefficients, so no
# choice of units or parameters moves a genuine entry below it; and the
# stored pattern, with it the LU fill, does not depend on the rounding.
RESIDUE_RTOL = 1e-12


class FormsError(ValueError):
    """Raised for invalid physical or penalty parameters."""


class Spaces(NamedTuple):
    """The six discrete spaces in the monolithic order, and their layout.

    Block ``name`` occupies ``slice(name)`` of every monolithic vector and
    of the rows and columns of M and N; ``size`` is their length.
    """

    u_f: fem.FunctionSpace
    p_S: fem.FunctionSpace
    u_r: fem.FunctionSpace
    p_P: fem.FunctionSpace
    y_s: fem.FunctionSpace
    u_s: fem.FunctionSpace

    def slice(self, name):
        """The dofs of block ``name`` in the monolithic layout."""
        i = self._fields.index(name)
        start = sum(sp.ndofs for sp in self[:i])
        return slice(start, start + self[i].ndofs)

    @property
    def size(self):
        return sum(sp.ndofs for sp in self)


BLOCK_NAMES = Spaces._fields


def build_spaces(mesh):
    """Canonical discrete spaces: P2^2-P1-P2^2-P1-P2^2-P1^2."""
    return Spaces(
        u_f=fem.FunctionSpace(mesh, 2, 2, "S", (TAG_GAMMA_S,)),
        p_S=fem.FunctionSpace(mesh, 1, 1, "S"),
        u_r=fem.FunctionSpace(mesh, 2, 2, "P", (TAG_GAMMA_P_D,)),
        p_P=fem.FunctionSpace(mesh, 1, 1, "P"),
        y_s=fem.FunctionSpace(mesh, 2, 2, "P", (TAG_GAMMA_P_D, TAG_GAMMA_P_N)),
        u_s=fem.FunctionSpace(mesh, 1, 2, "P"),
    )


def _entries(row_dofs, col_dofs, terms):
    """Global (rows, cols) of the local entries at the flat indices ``terms``.

    Flat index t of a local array (cells or facets, ni, nj) is its entry
    (c, i, j) with c ni + i = t // nj and j = t % nj, which lies at row
    ``row_dofs[c, i]`` and column ``col_dofs[c, j]``.  This is the one
    place where dof maps expand into entries.
    """
    ni, nj = row_dofs.shape[1], col_dofs.shape[1]
    cell_row, j = np.divmod(terms, nj)
    return row_dofs.ravel()[cell_row], col_dofs.ravel()[cell_row // ni * nj + j]


@dataclass(eq=False)
class PhysicalParams:
    """Material parameters of the coupled model, all constants.

    ``kappa`` may be given as a scalar or a 2x2 array and is stored as the
    2x2 permeability tensor.  The saturated density
    rho_p = rho_s (1 - phi) + rho_f phi is derived.
    """

    rho_f: float = 1.0
    rho_s: float = 1.0
    mu_f: float = 10.0
    mu_p: float = 10.0
    lam_p: float = 10.0
    phi: float = 0.1
    kappa: object = 1.0
    K: float = 1.0
    theta: float = 0.0
    alpha_bjs: float = 1.0

    def __post_init__(self):
        for name in ("rho_f", "rho_s", "mu_f", "mu_p", "lam_p", "K"):
            val = float(getattr(self, name))
            if not 0 < val < np.inf:
                raise FormsError(f"{name} must be positive and finite, got {val}")
            setattr(self, name, val)
        self.alpha_bjs = float(self.alpha_bjs)
        if not 0 <= self.alpha_bjs < np.inf:
            raise FormsError(f"alpha_bjs must be finite and >= 0, got {self.alpha_bjs}")
        self.phi, self.theta = float(self.phi), float(self.theta)
        for name, val in (("porosity phi", self.phi), ("sink theta", self.theta)):
            if not np.isfinite(val):
                raise FormsError(f"{name} must be finite, got {val}")
        if not 0 < self.phi < self.phi_max_bound:
            raise FormsError(
                f"porosity out of range: need 0 < phi < rho_s/(rho_s+rho_f) "
                f"= {self.phi_max_bound:.6g}, got {self.phi:.6g}")
        if self.theta > 0:
            warnings.warn("theta > 0 acts as a fluid source; the model "
                          "expects a sink (theta <= 0)")
        kap = np.array(self.kappa, dtype=float)
        if kap.ndim == 0:
            kap = float(kap) * np.eye(2)
        if kap.shape != (2, 2):
            raise FormsError(f"permeability tensor must be 2x2, got shape {kap.shape}")
        if not np.all(np.isfinite(kap)):
            raise FormsError("permeability tensor must be finite, got "
                             f"{kap[~np.isfinite(kap)].flat[0]}")
        if np.abs(kap - kap.T).max() > 1e-12 * np.abs(kap).max():
            raise FormsError("permeability tensor must be symmetric")
        eigs = np.linalg.eigvalsh(kap)
        if eigs.min() <= 0:
            raise FormsError(
                f"permeability tensor must be positive definite "
                f"(min eigenvalue {eigs.min():.3g})")
        self.kappa = kap

    @property
    def phi_max_bound(self):
        return self.rho_s / (self.rho_s + self.rho_f)

    @property
    def rho_p(self):
        return self.rho_s * (1.0 - self.phi) + self.rho_f * self.phi


@dataclass(frozen=True)
class NitscheParams:
    """Interface penalty gamma and consistency variant varsigma."""

    gamma: float = 40.0
    varsigma: int = 1

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise FormsError(f"gamma must be positive and finite, got {self.gamma}")
        if self.varsigma not in (-1, 0, 1):
            raise FormsError(f"varsigma must be -1, 0, or 1, got {self.varsigma}")


def from_contributions(spaces, contributions):
    """Sum (test, trial, row_dofs, col_dofs, local) parts into CSR, int32 if it fits.

    ``local`` (cells or facets, ni, nj) holds one block per cell or
    facet; ``row_dofs`` (.., ni) and ``col_dofs`` (.., nj) are the test
    and trial block dofs of its rows and columns.  Exact zeros and sums
    below ``RESIDUE_RTOL`` of the summed magnitudes of their terms are
    left out of the pattern.  A non-finite term, which would make its
    sum fail that test and vanish, raises FormsError.
    """
    total = spaces.size
    index = np.int32 if total < np.iinfo(np.int32).max else np.int64
    entries, vals = [], []
    for test, trial, row_dofs, col_dofs, local in contributions:
        local = np.asarray(local, dtype=float)
        if not np.all(np.isfinite(local)):
            raise FormsError(f"non-finite term in block ({test}, {trial}): check "
                             "the parameters and coefficients for NaN or inf")
        terms = np.flatnonzero(local)
        rows = np.asarray(row_dofs, dtype=index) + index(spaces.slice(test).start)
        cols = np.asarray(col_dofs, dtype=index) + index(spaces.slice(trial).start)
        entries.append(_entries(rows, cols, terms))
        vals.append(local.ravel()[terms])
    if not entries:
        return sparse.csr_matrix((total, total))
    rows, cols = (np.concatenate(axis) for axis in zip(*entries))
    vals = np.concatenate(vals)
    # one conversion sums the values (real part) and their
    # magnitudes (imaginary part) entry by entry
    both = np.empty(vals.size, dtype=complex)
    both.real = vals
    np.abs(vals, out=both.imag)
    summed = sparse.coo_matrix((both, (rows, cols)), shape=(total, total)).tocsr()
    keep = np.abs(summed.data.real) >= RESIDUE_RTOL * summed.data.imag
    indptr = np.concatenate([[0], np.cumsum(keep)]).astype(index)
    matrix = sparse.csr_matrix(
        (summed.data.real[keep], summed.indices[keep], indptr[summed.indptr]),
        shape=(total, total))
    matrix.has_canonical_format = True
    return matrix


class StateVector:
    """The monolithic vector x, laid out by ``spaces``, and its time.

    ``block(name)`` is the view of block ``name`` in x: a write through it
    is a write to x.
    """

    def __init__(self, spaces, vector, time=0.0):
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (spaces.size,):
            raise FormsError(
                f"vector length {vector.size} does not match spaces ({spaces.size})")
        self.spaces = spaces
        self._vector = vector
        self.time = float(time)

    @classmethod
    def zero(cls, spaces, time=0.0):
        return cls(spaces, np.zeros(spaces.size), time)

    def vector(self):
        return self._vector

    def block(self, name):
        return self._vector[self.spaces.slice(name)]


def dirichlet_data(spaces, boundary_values, time):
    """Constrained monolithic dofs and their values at ``time``.

    ``boundary_values`` maps block names to ``f(t, x, y)`` evaluators; blocks
    without an entry keep only homogeneous constraints (value zero).
    """
    dofs, vals = [], []
    for name, space in zip(BLOCK_NAMES, spaces):
        fn = boundary_values.get(name) if boundary_values else None
        dofs.append(space.dirichlet_dofs + spaces.slice(name).start)
        vals.append(np.zeros(space.dirichlet_dofs.size) if fn is None
                    else space.dirichlet_values(fn, time))
    return np.concatenate(dofs), np.concatenate(vals)


# --- assembly context ------------------------------------------------------

class AssemblyContext:
    """One discrete problem: its spaces, parameters and Nitsche penalty.

    Holds the tabulations, geometry and interface facets that every
    assembler reads; the assemblers take no other input.
    """

    def __init__(self, spaces, params, nitsche):
        self.spaces = spaces
        self.params = params
        self.nitsche = nitsche
        mesh = spaces.u_f.mesh
        self.mesh = mesh
        self.rule = fem.quadrature_rule("triangle", VOLUME_QUAD_DEGREE)
        self.tab = {1: fem.tabulate(1, self.rule.points),
                    2: fem.tabulate(2, self.rule.points)}
        self.geo = {sub: fem.CellGeometry(mesh, mesh.cells_in(sub), self.rule)
                    for sub in ("S", "P")}
        self._grads, self._dof_maps = {}, {}
        self.pairs = interface_pairs(mesh)
        self.seg_rule = fem.quadrature_rule("segment", INTERFACE_QUAD_DEGREE)
        self.facet_stack = self._stack_facets()

    def grads(self, space):
        key = (space.subdomain, space.degree)
        if key not in self._grads:
            _, dphi = self.tab[space.degree]
            self._grads[key] = self.geo[space.subdomain].physical_grads(dphi)
        return self._grads[key]

    def phi_table(self, space):
        return self.tab[space.degree][0]

    def dof_map(self, space):
        """Block dofs of each cell's local basis: (cells, ndofs per cell).

        A vector space interleaves its components: node k holds 2k and 2k + 1.
        Built once per space.
        """
        if space not in self._dof_maps:
            dofs = space.cell_dofs
            self._dof_maps[space] = dofs if space.components == 1 else (
                2 * dofs[:, :, None] + np.arange(2)).reshape(dofs.shape[0], -1)
        return self._dof_maps[space]

    def component_pattern(self, name):
        """Global (rows, cols) of the convection block of vector block ``name``.

        ``assemble_convection``'s scalar (cells, nloc, nloc) block is laid
        once on the first component's cell dofs, then once on the second's,
        in order.  Built per call; a time loop holds its distinct slots
        once, 47 874 of 73 728 entries at nx = 32 (kept on the context:
        +7 % peak memory).
        """
        nodes = 2 * getattr(self.spaces, name).cell_dofs + self.spaces.slice(name).start
        pairs = [_entries(dofs, dofs, np.arange(dofs.size * dofs.shape[1]))
                 for dofs in (nodes, nodes + 1)]
        return tuple(np.concatenate(axis) for axis in zip(*pairs))

    # -- interface facet tabulations --------------------------------------

    def _stack_facets(self):
        """Tables of all interface facets along a leading facet axis, or None.

        Points ``"x"``, weights ``"w"``, the facets' ``h_e``, the
        tangential permeability ``z_perm`` = (kappa tangent) . tangent, per
        side and degree the adjacent cell's basis values and gradients,
        ``(side, deg, "phi" | "grad")``, and its index among the side's
        cells, ``(side, "pos")``.  The traces that every interface form
        reads, each (facets, nq, dofs): ``"jump"`` of u_f, u_r and y_s, the
        slots of u_f . n_S + u_r . n_P + y_s . n_P; ``"tau"``, their
        tangential components; ``"stress"``, eps(u_f) n_S . n_S and p_S.
        """
        pairs = self.pairs
        if not pairs:
            return None
        mesh = self.mesh
        pa, pb = (mesh.vertices[ends] for ends in pairs.vertex_ids.T)
        s = self.seg_rule.points[:, 0]
        x = pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]
        tangent = pairs.tangent
        stack = {"x": x, "h_e": pairs.h_e,
                 "z_perm": np.sum((tangent @ self.params.kappa) * tangent, axis=1),
                 "w": self.seg_rule.weights[None, :] * pairs.h_e[:, None]}
        for side, cells in (("S", pairs.cell_s), ("P", pairs.cell_p)):
            tri = mesh.vertices[mesh.cells[cells]]                 # (facets, 3, 2)
            # solve and inv per facet, as a facet alone would be tabulated
            p0 = tri[:, 0]
            jac = np.stack([tri[:, 1] - p0, tri[:, 2] - p0], axis=2)
            ref = np.swapaxes(np.linalg.solve(
                jac, np.swapaxes(x - p0[:, None, :], 1, 2)), 1, 2)
            inv_jac = np.linalg.inv(jac)
            for deg in (1, 2):
                phi, dphi = fem.tabulate(deg, ref.reshape(-1, 2))
                nloc = phi.shape[1]
                stack[(side, deg, "phi")] = phi.reshape(len(pairs), -1, nloc)
                stack[(side, deg, "grad")] = np.einsum(
                    "fqld,fde->fqle", dphi.reshape(len(pairs), -1, nloc, 2), inv_jac)
            stack[(side, "pos")] = np.searchsorted(mesh.cells_in(side), cells)

        def table(name, kind):
            space = getattr(self.spaces, name)
            return stack[(space.subdomain, space.degree, kind)]

        n_s = pairs.normal_s
        normals = {"u_f": n_s, "u_r": -n_s, "y_s": -n_s}
        stack["jump"] = {name: _vector_trace(table(name, "phi"), normal)
                         for name, normal in normals.items()}
        stack["tau"] = {name: _vector_trace(table(name, "phi"), tangent)
                        for name in normals}
        grad_n = (table("u_f", "grad") @ n_s[:, None, :, None])[..., 0]
        stack["stress"] = {"u_f": _vector_trace(grad_n, n_s),
                           "p_S": table("p_S", "phi")}
        return stack

    def facet_dofs(self, name):
        """Dofs of each facet's adjacent cell in block ``name``: (facets, ndofs)."""
        space = getattr(self.spaces, name)
        return self.dof_map(space)[self.facet_stack[(space.subdomain, "pos")]]


def _vector_trace(values, direction):
    """Each vector basis function's component along ``direction``: (facets, nq, 2 nloc).

    ``values`` (facets, nq, nloc) are scalar basis values or derivatives,
    ``direction`` (facets, 2) one vector per facet; components interleave.
    """
    f, q, n = values.shape
    return (values[..., None] * direction[:, None, None, :]).reshape(f, q, 2 * n)


def interface_jump_seminorm(ctx, previous, state, tau):
    """Sum over interface facets of h_E^{-1} | n.u_f + n.u_r + n.d_tau y |^2.

    u_f and u_r are those of ``state``; d_tau y is the backward difference
    of y_s from ``previous`` to ``state`` over the step ``tau``.
    """
    fs = ctx.facet_stack
    if fs is None:
        return 0.0
    values = {"u_f": state.block("u_f"), "u_r": state.block("u_r"),
              "y_s": (state.block("y_s") - previous.block("y_s")) / tau}
    jn = sum(np.einsum("fqa,fa->fq", fs["jump"][name], vals[ctx.facet_dofs(name)])
             for name, vals in values.items())
    return float(np.sum(fs["w"] * jn**2 / fs["h_e"][:, None]))


def _expand_components(base):
    """Scalar local blocks (c, ni, nj) -> vector-interleaved (c, 2ni, 2nj)."""
    c, ni, nj = base.shape
    out = np.zeros((c, ni, 2, nj, 2))
    out[:, :, 0, :, 0] = base
    out[:, :, 1, :, 1] = base
    return out.reshape(c, 2 * ni, 2 * nj)


def _cut_residues(local):
    """Zero, in place, the rounding residues of ``local`` on each cell or facet.

    ``local`` (cells or facets, ni, nj) is a kernel's own fresh array;
    returns it.
    """
    size = np.abs(local)
    local[size < RESIDUE_RTOL * size.max(axis=(1, 2), keepdims=True)] = 0.0
    return local


def _contrib(test, trial, row_dofs, col_dofs, local):
    """One kernel's part; its rounding residues on each cell or facet zeroed."""
    return (test, trial, row_dofs, col_dofs, _cut_residues(local))


class _Kernels:
    """Volume integration kernels over one subdomain, named by their blocks.

    Each kernel takes the test and trial block names, looks their spaces
    up in ``ctx.spaces`` and returns a part on the cells of their
    subdomain.  The cells are affine, one Jacobian J per cell, so each
    bilinear kernel contracts a per-cell geometry factor (det J, and J^-T
    for each derivative) with reference matrices summed over the points of
    ``ctx.rule``: the tensor representation of Kirby and Logg (ACM TOMS 32,
    2006).  A coefficient is therefore a constant.  ``eps_eps`` and
    ``div_div`` are built from one stiffness tensor per subdomain and
    degrees, H[c, e, f, i, j] = int_T d_e phi_i d_f phi_j (``_stiffness``);
    H and the arrays built from it live on this instance, for one assembly
    call, never on the context.  ``convection`` and the loads integrate
    fields that vary over the cell at the points.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self._stiffnesses, self._units = {}, {}

    def _space(self, name):
        return getattr(self.ctx.spaces, name)

    def _wdet(self, space):
        return self.ctx.geo[space.subdomain].wdet

    def _part(self, test, trial, local):
        dof_map = self.ctx.dof_map
        return _contrib(test, trial, dof_map(self._space(test)),
                        dof_map(self._space(trial)), local)

    def _mass_reference(self, sp_t, sp_u):
        """sum_q w_q phi_i phi_j on the reference cell: (ni, nj)."""
        return np.einsum("q,qi,qj->ij", self.ctx.rule.weights,
                         self.ctx.phi_table(sp_t), self.ctx.phi_table(sp_u))

    def mass(self, test, trial, coeff):
        """(coeff w, z): constant scalar coefficient, same component structure."""
        sp_t, sp_u = self._space(test), self._space(trial)
        geo = self.ctx.geo[sp_t.subdomain]
        base = (coeff * geo.det)[:, None, None] * self._mass_reference(sp_t, sp_u)
        if sp_t.components == 1:
            return self._part(test, trial, base)
        # the cut of the scalar base is that of its expansion, whose other
        # half is zeros: same per-cell maximum, same entries cut
        dof_map = self.ctx.dof_map
        return (test, trial, dof_map(sp_t), dof_map(sp_u),
                _expand_components(_cut_residues(base)))

    def tensor_mass(self, test, trial, tensor):
        """(T w, z) with a constant 2x2 tensor coefficient T."""
        sp_t, sp_u = self._space(test), self._space(trial)
        ref = self._mass_reference(sp_t, sp_u)
        ni, nj = ref.shape
        # the blocks (i, k) x (j, l) flatten to the interleaved (2i + k, 2j + l)
        kron = (ref[:, None, :, None] * tensor[None, :, None, :]).reshape(2 * ni, 2 * nj)
        geo = self.ctx.geo[sp_t.subdomain]
        return self._part(test, trial, geo.det[:, None, None] * kron)

    def _stiffness(self, sp_t, sp_u):
        """H (cells, 2, 2, ni, nj): int_T d_e phi_i d_f phi_j of the scalar bases."""
        key = (sp_t.subdomain, sp_t.degree, sp_u.degree)
        if key not in self._stiffnesses:
            ctx = self.ctx
            d_t, d_u = ctx.tab[sp_t.degree][1], ctx.tab[sp_u.degree][1]
            ref = np.einsum("q,qia,qjb->abij", ctx.rule.weights, d_t, d_u)
            geo = ctx.geo[sp_t.subdomain]
            g = geo.inv_jac_t                                   # (c, e, a)
            # det (J^-T)_ea (J^-T)_fb, rows (c, e, f) and columns (a, b)
            geom = (geo.det[:, None, None, None, None] * g[:, :, None, :, None]
                    * g[:, None, :, None, :]).reshape(-1, 4)
            ni, nj = ref.shape[2:]
            self._stiffnesses[key] = (geom @ ref.reshape(4, -1)).reshape(-1, 2, 2, ni, nj)
        return self._stiffnesses[key]

    def _unit(self, kernel, test, trial):
        """The local array of ``kernel`` with coefficient 1, residues cut:
        (cells, 2 ni, 2 nj), built from H once per subdomain and degrees."""
        sp_t, sp_u = self._space(test), self._space(trial)
        key = (kernel, sp_t.subdomain, sp_t.degree, sp_u.degree)
        if key not in self._units:
            h = self._stiffness(sp_t, sp_u)
            c, _, _, ni, nj = h.shape
            local = np.empty((c, ni, 2, nj, 2))                # [c, i, k, j, l]
            if kernel == "eps_eps":
                # eps(phi_i e_k) : eps(phi_j e_l) = (delta_kl (H_00 + H_11) + H_lk) / 2
                np.multiply(np.transpose(h, (0, 3, 2, 4, 1)), 0.5, out=local)
                trace = 0.5 * (h[:, 0, 0] + h[:, 1, 1])
                local[:, :, 0, :, 0] += trace
                local[:, :, 1, :, 1] += trace
            else:
                # div(phi_i e_k) div(phi_j e_l) = d_k phi_i d_l phi_j: H_kl
                local[...] = np.transpose(h, (0, 3, 1, 4, 2))
            self._units[key] = _cut_residues(local.reshape(c, 2 * ni, 2 * nj))
        return self._units[key]

    def _scaled(self, kernel, test, trial, coeff):
        # a multiple of a cut array has the cut's zeros: same entries cut
        dof_map = self.ctx.dof_map
        return (test, trial, dof_map(self._space(test)), dof_map(self._space(trial)),
                coeff * self._unit(kernel, test, trial))

    def eps_eps(self, test, trial, coeff):
        """(coeff eps(u), eps(v)) for vector spaces on one subdomain."""
        return self._scaled("eps_eps", test, trial, coeff)

    def div_div(self, test, trial, coeff):
        """(coeff div u, div v) for vector spaces on one subdomain."""
        return self._scaled("div_div", test, trial, coeff)

    def pressure_div(self, test, trial, coeff):
        """(q, coeff div v) for a scalar test q.

        For a scalar trial p it is the pressure gradient -(coeff div v, p):
        the same local values, negated and transposed.
        """
        gradient = self._space(trial).components == 1
        scalar, vector = (trial, test) if gradient else (test, trial)
        sp_q, sp_v = self._space(scalar), self._space(vector)
        ctx = self.ctx
        # int_T psi_i d_l phi_j = det sum_a (J^-T)_la B_a, with the reference
        # B_a = sum_q w_q psi_i d^_a phi_j
        ref = np.einsum("q,qi,qja->aij", ctx.rule.weights, ctx.phi_table(sp_q),
                        ctx.tab[sp_v.degree][1])
        geo = ctx.geo[sp_v.subdomain]
        scale = (-coeff if gradient else coeff) * geo.det
        _, ni, nj = ref.shape
        div = (scale[:, None, None] * geo.inv_jac_t).reshape(-1, 2) @ ref.reshape(2, -1)
        # (c, l, i, j) -> (c, i, j, l): the interleaved columns 2j + l
        local = np.transpose(div.reshape(-1, 2, ni, nj), (0, 2, 3, 1)).reshape(
            -1, ni, 2 * nj)
        return self._part(test, trial,
                          np.transpose(local, (0, 2, 1)) if gradient else local)

    def convection(self, name, advecting_values):
        """((w . grad) u, v) with the advecting field w given by coefficients.

        It couples each component with itself only, by the same scalar local
        blocks: returns that one (cells, nloc, nloc) array, which
        ``ctx.component_pattern(name)`` lays on both components.
        """
        space = self._space(name)
        phi = self.ctx.phi_table(space)
        g = self.ctx.grads(space)
        w = self._wdet(space)
        coeffs = advecting_values.reshape(space.num_nodes, 2)
        # matrix products in place of einsum: this runs on every time step
        wq = phi @ coeffs[space.cell_dofs]                      # (c, q, d)
        wdotg = wq[..., 0, None] * g[..., 0] + wq[..., 1, None] * g[..., 1]
        return phi.T @ (w[..., None] * wdotg)                   # (c, i, j)

    def vector_load(self, name, values_cqk):
        """(f, v) per cell: (name, dofs, local), both (cells, 2 nloc)."""
        space = self._space(name)
        phi = self.ctx.phi_table(space)
        w = self._wdet(space)
        # one matrix product over all cells: (q, i) x (c, q, k) -> (i, c, k)
        local = np.tensordot(phi, w[..., None] * values_cqk, axes=([0], [1]))
        return (name, self.ctx.dof_map(space),
                np.transpose(local, (1, 0, 2)).reshape(w.shape[0], -1))

    def scalar_load(self, name, values_cq):
        """(f, q) per cell: (name, dofs, local), both (cells, nloc)."""
        space = self._space(name)
        local = (self._wdet(space) * values_cq) @ self.ctx.phi_table(space)
        return name, self.ctx.dof_map(space), local


# --- component assemblers ---------------------------------------------------

def _sum_blocks(parts):
    """One part per (test, trial) block, in order of first appearance.

    The kernels of one block lay their local values on the same rows and
    columns, so the values add entry by entry.
    """
    blocks = {}
    for test, trial, rows, cols, vals in parts:
        held = blocks.get((test, trial))
        blocks[(test, trial)] = ((test, trial, rows, cols, vals) if held is None
                                 else held[:4] + (held[4] + vals,))
    return list(blocks.values())


# The scheme's terms in assembly order: ``kernel(test, trial, coeff(params,
# nitsche))`` is added to ``dest``, M for a coupling of a time derivative of
# the trial (``_rate``: of the displacement y_s), N for the others.
# np.square rounds phi * phi once; a Python float's ** 2 calls pow().
Term = namedtuple("Term", "label dest kernel test trial coeff")
VOLUME_TERMS = (
    Term("inertia_f", "M", "mass", "u_f", "u_f", lambda p, n: p.rho_f),
    Term("inertia_r", "M", "mass", "u_r", "u_r", lambda p, n: p.rho_f * p.phi),
    Term("inertia_rs", "M", "mass", "u_r", "u_s", lambda p, n: p.rho_f * p.phi),
    Term("inertia_yr", "M", "mass", "y_s", "u_r", lambda p, n: p.rho_f * p.phi),
    Term("inertia_ys", "M", "mass", "y_s", "u_s", lambda p, n: p.rho_p),
    Term("compatibility_rate", "M", "mass", "u_s", "y_s", lambda p, n: -p.rho_p),
    Term("brinkman_rate_r", "M", "eps_eps", "u_r", "y_s",
         lambda p, n: 2.0 * p.mu_f * p.phi),
    Term("brinkman_rate_y", "M", "eps_eps", "y_s", "y_s",
         lambda p, n: 2.0 * p.mu_f * p.phi),
    Term("sink_rate_r", "M", "mass", "u_r", "y_s", lambda p, n: -p.theta),
    Term("sink_rate_y", "M", "mass", "y_s", "y_s", lambda p, n: -p.theta),
    Term("storage", "M", "mass", "p_P", "p_P", lambda p, n: np.square(1.0 - p.phi) / p.K),
    Term("dilation_rate", "M", "pressure_div", "p_P", "y_s", lambda p, n: 1.0),
    Term("compatibility", "N", "mass", "u_s", "u_s", lambda p, n: p.rho_p),
    Term("viscous_f", "N", "eps_eps", "u_f", "u_f", lambda p, n: 2.0 * p.mu_f),
    Term("brinkman_y", "N", "eps_eps", "y_s", "u_r", lambda p, n: 2.0 * p.mu_f * p.phi),
    Term("brinkman_r", "N", "eps_eps", "u_r", "u_r", lambda p, n: 2.0 * p.mu_f * p.phi),
    Term("elastic_mu", "N", "eps_eps", "y_s", "y_s", lambda p, n: 2.0 * p.mu_p),
    Term("elastic_lam", "N", "div_div", "y_s", "y_s", lambda p, n: p.lam_p),
    # the pressure gradients -(div v, p); div_u_* are the mass rows' +(div u, q)
    Term("grad_p_S", "N", "pressure_div", "u_f", "p_S", lambda p, n: 1.0),
    Term("grad_p_P_y", "N", "pressure_div", "y_s", "p_P", lambda p, n: 1.0),
    Term("grad_p_P_r", "N", "pressure_div", "u_r", "p_P", lambda p, n: p.phi),
    Term("sink_y", "N", "mass", "y_s", "u_r", lambda p, n: -p.theta),
    Term("sink_r", "N", "mass", "u_r", "u_r", lambda p, n: -p.theta),
    Term("drag", "N", "tensor_mass", "u_r", "u_r",
         lambda p, n: np.square(p.phi) * np.linalg.inv(p.kappa)),
    Term("div_u_f", "N", "pressure_div", "p_S", "u_f", lambda p, n: 1.0),
    Term("div_u_r", "N", "pressure_div", "p_P", "u_r", lambda p, n: p.phi),
)

INTERFACE_TERMS = (
    # BJS ((u_f - d_t y) . tau, (v_f - w_s) . tau), then the pore friction
    Term("slip_f_y", "M", "slip", "u_f", "y_s", lambda p, n: -p.mu_f * p.alpha_bjs),
    Term("slip_y_y", "M", "slip", "y_s", "y_s", lambda p, n: p.mu_f * p.alpha_bjs),
    Term("slip_f_f", "N", "slip", "u_f", "u_f", lambda p, n: p.mu_f * p.alpha_bjs),
    Term("slip_y_f", "N", "slip", "y_s", "u_f", lambda p, n: -p.mu_f * p.alpha_bjs),
    Term("slip_r", "N", "slip", "u_r", "u_r", lambda p, n: p.mu_f * p.alpha_bjs),
    # per jump slot: the stress -2 mu_f eps(u_f) n . n + p_S, and its adjoint
    Term("stress_f", "N", "stress_jump", "u_f", "u_f", lambda p, n: -2.0 * p.mu_f),
    Term("stress_p_f", "N", "stress_jump", "u_f", "p_S", lambda p, n: 1.0),
    Term("adjoint_f", "N", "jump_stress", "u_f", "u_f",
         lambda p, n: -n.varsigma * (2.0 * p.mu_f)),
    Term("adjoint_p_f", "N", "jump_stress", "p_S", "u_f", lambda p, n: -1.0),
    Term("stress_r", "N", "stress_jump", "u_r", "u_f", lambda p, n: -2.0 * p.mu_f),
    Term("stress_p_r", "N", "stress_jump", "u_r", "p_S", lambda p, n: 1.0),
    Term("adjoint_r", "N", "jump_stress", "u_f", "u_r",
         lambda p, n: -n.varsigma * (2.0 * p.mu_f)),
    Term("adjoint_p_r", "N", "jump_stress", "p_S", "u_r", lambda p, n: -1.0),
    Term("stress_y", "N", "stress_jump", "y_s", "u_f", lambda p, n: -2.0 * p.mu_f),
    Term("stress_p_y", "N", "stress_jump", "y_s", "p_S", lambda p, n: 1.0),
    Term("adjoint_y", "M", "jump_stress", "u_f", "y_s",
         lambda p, n: -n.varsigma * (2.0 * p.mu_f)),
    Term("adjoint_p_y", "M", "jump_stress", "p_S", "y_s", lambda p, n: -1.0),
    # the mass-conservation penalty
    Term("penalty_f_f", "N", "jump_jump", "u_f", "u_f", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_f_r", "N", "jump_jump", "u_f", "u_r", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_f_y", "M", "jump_jump", "u_f", "y_s", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_r_f", "N", "jump_jump", "u_r", "u_f", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_r_r", "N", "jump_jump", "u_r", "u_r", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_r_y", "M", "jump_jump", "u_r", "y_s", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_y_f", "N", "jump_jump", "y_s", "u_f", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_y_r", "N", "jump_jump", "y_s", "u_r", lambda p, n: n.gamma * p.mu_f),
    Term("penalty_y_y", "M", "jump_jump", "y_s", "y_s", lambda p, n: n.gamma * p.mu_f),
)

# The terms whose blocks ``energy_matrix`` reads off M and N.
ENERGY_TERMS = ("inertia_f", "inertia_r", "inertia_rs", "storage",
                "compatibility", "elastic_mu", "elastic_lam")


def _facet_outer(w, rows_t, cols_t):
    """sum_q w rows_t cols_t per facet, by one einsum over all facets."""
    return np.einsum("fq,fqa,fqb->fab", w, rows_t, cols_t)


class _FacetKernels:
    """Interface kernels over every facet at once, named by their blocks.

    The stress of u_f is eps(u_f) n_S . n_S, that of p_S its value.  A
    per-facet weight is applied before the sum over the points, a scalar
    coefficient after it.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.fs = fs = ctx.facet_stack
        self.stress, self.jump, self.tau = fs["stress"], fs["jump"], fs["tau"]

    def _part(self, test, trial, local):
        facet_dofs = self.ctx.facet_dofs
        return _contrib(test, trial, facet_dofs(test), facet_dofs(trial), local)

    def slip(self, test, trial, coeff):
        """(coeff / sqrt(tau . kappa tau)) (u . tau, v . tau)."""
        w = self.fs["w"] * (coeff / np.sqrt(self.fs["z_perm"]))[:, None]
        return self._part(test, trial, _facet_outer(w, self.tau[test], self.tau[trial]))

    def stress_jump(self, test, trial, coeff):
        """coeff (stress of the trial, jump of the test)."""
        return self._part(test, trial, coeff * _facet_outer(
            self.fs["w"], self.jump[test], self.stress[trial]))

    def jump_stress(self, test, trial, coeff):
        """coeff (stress of the test, jump of the trial): the adjoint."""
        return self._part(test, trial, coeff * _facet_outer(
            self.fs["w"], self.stress[test], self.jump[trial]))

    def jump_jump(self, test, trial, coeff):
        """(coeff / h_E) (jump of the trial, jump of the test)."""
        w = self.fs["w"] * (coeff / self.fs["h_e"])[:, None]
        return self._part(test, trial, _facet_outer(w, self.jump[test], self.jump[trial]))


def _parts(kernels, terms):
    """The parts of ``terms`` by ``kernels``; a zero coefficient adds no part."""
    params, nitsche = kernels.ctx.params, kernels.ctx.nitsche
    return [getattr(kernels, t.kernel)(t.test, t.trial, c) for t in terms
            if np.any(c := t.coeff(params, nitsche))]


def assemble_convection(ctx, u_f_values):
    """Oseen-lagged convection block for the free-flow momentum equation.

    ``u_f_values`` are the u_f coefficients of the last step.  Returns the
    scalar local blocks of ``_Kernels.convection``, or None when the
    velocity is zero, as in the first step from rest.
    """
    if not np.any(u_f_values):
        return None
    return _Kernels(ctx).convection("u_f", u_f_values)


def _assemble(ctx, dest):
    """CSR matrix of the records of ``dest``: volume parts summed per block."""
    parts = _sum_blocks(_parts(_Kernels(ctx), [t for t in VOLUME_TERMS
                                               if t.dest == dest]))
    if ctx.facet_stack is not None:
        parts += _parts(_FacetKernels(ctx), [t for t in INTERFACE_TERMS
                                             if t.dest == dest])
    return from_contributions(ctx.spaces, parts)


def assemble_M(ctx):
    """Matrix of all couplings that multiply time derivatives of the trials."""
    return _assemble(ctx, "M")


def assemble_N(ctx):
    """Matrix of all stationary couplings; convection is assembled apart."""
    return _assemble(ctx, "N")


def energy_matrix(spaces, M, N):
    """Sparse E with 1/2 x^T E x the discrete energy of the state x.

    1/2 [ rho_f |u_f|^2 + rho_s (1 - phi) |u_s|^2 + (1 - phi)^2 / K |p_P|^2
          + rho_f phi |u_r + u_s|^2 + 2 mu_p |eps(y_s)|^2 + lam_p |div y_s|^2 ]

    E holds the blocks of M and N that the ``ENERGY_TERMS`` write, an
    off-diagonal one also transposed; no other coupling reaches them.
    """
    at = BLOCK_NAMES.index
    grid = [[None] * len(BLOCK_NAMES) for _ in BLOCK_NAMES]
    blocks = dict.fromkeys((t.dest, t.test, t.trial) for t in VOLUME_TERMS
                           if t.label in ENERGY_TERMS)
    for dest, test, trial in blocks:
        part = (M if dest == "M" else N)[spaces.slice(test), spaces.slice(trial)]
        grid[at(test)][at(trial)] = part
        if test != trial:
            grid[at(trial)][at(test)] = part.T
    # p_S holds no energy, but bmat needs the block's size
    grid[at("p_S")][at("p_S")] = sparse.csr_matrix((spaces.p_S.ndofs,) * 2)
    return sparse.bmat(grid, format="csr")


def assemble_F(ctx, sources, time, corrections=None):
    """Load vector: body forces, mass residuals, and interface corrections."""
    spaces = ctx.spaces
    k = _Kernels(ctx)
    rhs = np.zeros(spaces.size)
    if sources is not None:
        for name, values_fn in (("u_f", sources.f_S), ("u_r", sources.load_u_r),
                                ("y_s", sources.load_y_s), ("p_S", sources.r_S),
                                ("p_P", sources.load_p_P)):
            if values_fn is None:
                continue
            space = getattr(spaces, name)
            x = ctx.geo[space.subdomain].x                      # (c, q, 2)
            vals = np.asarray(values_fn(time, x[..., 0].ravel(), x[..., 1].ravel()),
                              dtype=float)
            if space.components == 2:
                _scatter(ctx, rhs, *k.vector_load(name, vals.reshape(x.shape)))
            else:
                _scatter(ctx, rhs, *k.scalar_load(name, vals.reshape(x.shape[:2])))
    if corrections is not None:
        _add_interface_corrections(ctx, corrections, time, rhs)
    return rhs


def _scatter(ctx, rhs, name, dofs, local):
    """Add local load values (cells or facets, n) at ``dofs`` of block ``name``."""
    rhs[ctx.spaces.slice(name)] += np.bincount(
        dofs.ravel(), weights=local.ravel(), minlength=getattr(ctx.spaces, name).ndofs)


def _add_interface_corrections(ctx, corr, time, rhs):
    """Manufactured-solution defect terms on the interface.

    The penalty-weighted mass defect m1 loads every jump slot with
    (gamma mu_f / h_E) m1; the stress-consistency adjoint pairs m1 with
    -varsigma 2 mu_f (eps(v_f) n . n) and with -q_S; m2..m5 restore the
    normal-stress, contact-force, and slip defects.  All facets are handled
    at once from the traces of ``ctx.facet_stack``.
    """
    fs = ctx.facet_stack
    if fs is None:
        return
    spaces, params, nitsche = ctx.spaces, ctx.params, ctx.nitsche
    sig = float(nitsche.varsigma)
    two_mu = 2.0 * params.mu_f
    w = fs["w"]                                   # (facets, nq)
    x, y = fs["x"][..., 0], fs["x"][..., 1]
    shape = x.shape
    c_pen = (nitsche.gamma * params.mu_f / fs["h_e"])[:, None]

    def at_points(fn):
        return np.asarray(fn(time, x.ravel(), y.ravel()), dtype=float)

    m1, m2, m4, m5 = (at_points(fn).reshape(shape)
                      for fn in (corr.m1, corr.m2, corr.m4, corr.m5))
    m3 = at_points(corr.m3).reshape(shape + (2,))

    def along(trace, values):
        """sum_q w values trace per facet and dof."""
        return np.einsum("fq,fqa->fa", w * values, trace)

    def load(name, normal_values, slip_values, own=None):
        """Scatter into ``name`` its load along the normal, ``own``, and along tau."""
        vals = along(fs["jump"][name], normal_values)
        vals = vals if own is None else vals + own
        _scatter(ctx, rhs, name, ctx.facet_dofs(name),
                 vals + along(fs["tau"][name], slip_values))

    pen = c_pen * m1
    load("u_f", pen, -m4, own=-sig * two_mu * along(fs["stress"]["u_f"], m1))
    _scatter(ctx, rhs, "p_S", ctx.facet_dofs("p_S"), -along(fs["stress"]["p_S"], m1))
    load("u_r", pen + m2, -m5)
    phi_w = fs[(spaces.y_s.subdomain, spaces.y_s.degree, "phi")]
    load("y_s", pen, m4,
         own=np.einsum("fq,fqk,fqi->fik", w, m3, phi_w).reshape(len(w), -1))
