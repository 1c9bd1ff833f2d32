"""Lagrange P1/P2 elements on triangles: quadrature, spaces, norms, BCs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import ALL_TAGS

MAX_QUAD_DEGREE = 6


class FEMError(ValueError):
    """Raised for invalid space construction or quadrature requests."""


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference triangle or the unit segment."""

    entity: str
    points: np.ndarray
    weights: np.ndarray
    degree: int


# Symmetric positive-weight rules on the reference triangle of the degrees
# that assembly and the error norms request (a lower degree takes the next
# rule up), stored as (degree, [(weight_on_unit_sum, (l0, l1, l2)), ...]);
# weights are scaled by the reference measure 1/2 when the rule is built.
_TRI_RULES = {
    4: [(0.223381589678011, (0.108103018168070, 0.445948490915965, 0.445948490915965)),
        (0.223381589678011, (0.445948490915965, 0.108103018168070, 0.445948490915965)),
        (0.223381589678011, (0.445948490915965, 0.445948490915965, 0.108103018168070)),
        (0.109951743655322, (0.816847572980459, 0.091576213509771, 0.091576213509771)),
        (0.109951743655322, (0.091576213509771, 0.816847572980459, 0.091576213509771)),
        (0.109951743655322, (0.091576213509771, 0.091576213509771, 0.816847572980459))],
    6: [(0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
        (0.050844906370207, (0.063089014491502, 0.873821971016996, 0.063089014491502)),
        (0.050844906370207, (0.063089014491502, 0.063089014491502, 0.873821971016996)),
        (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
        (0.116786275726379, (0.249286745170910, 0.501426509658179, 0.249286745170910)),
        (0.116786275726379, (0.249286745170910, 0.249286745170910, 0.501426509658179)),
        (0.082851075618374, (0.636502499121399, 0.310352451033785, 0.053145049844816)),
        (0.082851075618374, (0.636502499121399, 0.053145049844816, 0.310352451033785)),
        (0.082851075618374, (0.310352451033785, 0.636502499121399, 0.053145049844816)),
        (0.082851075618374, (0.310352451033785, 0.053145049844816, 0.636502499121399)),
        (0.082851075618374, (0.053145049844816, 0.636502499121399, 0.310352451033785)),
        (0.082851075618374, (0.053145049844816, 0.310352451033785, 0.636502499121399))],
}


def quadrature_rule(entity, degree):
    """Smallest shipped rule exact to at least the requested degree."""
    if degree > MAX_QUAD_DEGREE:
        raise FEMError(f"no quadrature rule of degree {degree} (max {MAX_QUAD_DEGREE})")
    if degree < 1:
        degree = 1
    if entity == "triangle":
        table_deg = min(d for d in _TRI_RULES if d >= degree)
        data = _TRI_RULES[table_deg]
        pts = np.array([(l1, l2) for _, (_, l1, l2) in data])
        wts = np.array([w for w, _ in data]) * 0.5
        return QuadratureRule("triangle", pts, wts, table_deg)
    if entity == "segment":
        npts = degree // 2 + 1
        x, w = np.polynomial.legendre.leggauss(npts)
        pts = 0.5 * (x + 1.0)
        wts = 0.5 * w
        return QuadratureRule("segment", pts.reshape(-1, 1), wts, 2 * npts - 1)
    raise FEMError(f"unknown quadrature entity {entity!r}")


def tabulate(degree, points):
    """Reference basis values and gradients at reference points.

    Returns (phi, dphi) with shapes (nq, nloc) and (nq, nloc, 2).  P2 local
    node order is vertices 0..2 then midpoints of edges (0,1), (1, 2), (2, 0),
    matching the mesh's local edge order.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    xi, eta = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if degree == 1:
        phi = lam
        dphi = np.broadcast_to(dlam, (len(pts), 3, 2)).copy()
        return phi, dphi
    if degree == 2:
        nq = len(pts)
        phi = np.empty((nq, 6))
        dphi = np.empty((nq, 6, 2))
        for i in range(3):
            phi[:, i] = lam[:, i] * (2 * lam[:, i] - 1)
            dphi[:, i, :] = (4 * lam[:, i, None] - 1) * dlam[i]
        for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            phi[:, 3 + k] = 4 * lam[:, a] * lam[:, b]
            dphi[:, 3 + k, :] = 4 * (lam[:, a, None] * dlam[b]
                                     + lam[:, b, None] * dlam[a])
        return phi, dphi
    raise FEMError(f"unsupported polynomial degree {degree}")


def _num_local(degree):
    return 3 if degree == 1 else 6


class FunctionSpace:
    """Scalar or 2-vector Lagrange space restricted to one subdomain.

    Scalar nodes are numbered deterministically: subdomain vertices in
    ascending global vertex id, then (for P2) subdomain edges in ascending
    global edge id.  ``mesh_nodes`` maps each scalar node to its mesh node:
    the vertex id, or ``mesh.num_vertices`` plus the edge id.  Vector
    degrees of freedom interleave components: dof = 2 * node + component.
    """

    def __init__(self, mesh, degree, components, subdomain, dirichlet_tags=()):
        if degree not in (1, 2):
            raise FEMError(f"degree must be 1 or 2, got {degree}")
        if components not in (1, 2):
            raise FEMError(f"components must be 1 or 2, got {components}")
        for tag in dirichlet_tags:
            if tag not in ALL_TAGS:
                raise FEMError(f"unknown Dirichlet tag {tag!r}")
        self.mesh = mesh
        self.degree = degree
        self.components = components
        self.subdomain = subdomain
        self.dirichlet_tags = frozenset(dirichlet_tags)

        self.cells = mesh.cells_in(subdomain)
        if self.cells.size == 0:
            raise FEMError(f"subdomain {subdomain!r} has no cells")
        cell_verts = mesh.cells[self.cells]

        verts = np.unique(cell_verts)
        vert_local = -np.ones(mesh.num_vertices, dtype=np.int64)
        vert_local[verts] = np.arange(verts.size)
        self.num_vertex_nodes = verts.size

        nloc = _num_local(degree)
        cell_dofs = np.empty((self.cells.size, nloc), dtype=np.int64)
        cell_dofs[:, :3] = vert_local[cell_verts]

        if degree == 2:
            cell_edge_ids = mesh.cell_edges[self.cells]
            edges = np.unique(cell_edge_ids)
            edge_local = -np.ones(mesh.num_edges, dtype=np.int64)
            edge_local[edges] = np.arange(edges.size)
            cell_dofs[:, 3:] = verts.size + edge_local[cell_edge_ids]
            self._edges = edges
            mids = 0.5 * (mesh.vertices[mesh.edges[edges, 0]]
                          + mesh.vertices[mesh.edges[edges, 1]])
            self.node_coords = np.vstack([mesh.vertices[verts], mids])
        else:
            self._edges = np.array([], dtype=np.int64)
            self.node_coords = mesh.vertices[verts].copy()
        self.mesh_nodes = np.concatenate([verts, mesh.num_vertices + self._edges])

        self._vert_local = vert_local
        self.cell_dofs = cell_dofs
        self.num_nodes = self.node_coords.shape[0]
        self.ndofs = self.num_nodes * components
        self.dirichlet_nodes = self._collect_dirichlet_nodes()
        comp = np.arange(components)
        self.dirichlet_dofs = (self.dirichlet_nodes[:, None] * components
                               + comp[None, :]).ravel()

    def _collect_dirichlet_nodes(self):
        mesh = self.mesh
        nodes = set()
        for tag in self.dirichlet_tags:
            for e in mesh.edges_with_tag(tag):
                a, b = mesh.edges[e]
                la, lb = self._vert_local[a], self._vert_local[b]
                if la < 0 or lb < 0:
                    continue  # facet belongs to the other subdomain
                nodes.add(int(la))
                nodes.add(int(lb))
                if self.degree == 2:
                    pos = np.searchsorted(self._edges, e)
                    if pos < self._edges.size and self._edges[pos] == e:
                        nodes.add(int(self.num_vertex_nodes + pos))
        return np.array(sorted(nodes), dtype=np.int64)

    def dirichlet_values(self, value_fn, time):
        """Prescribed values at the Dirichlet dofs, in dof order."""
        if self.dirichlet_nodes.size == 0:
            return np.zeros(0)
        xy = self.node_coords[self.dirichlet_nodes]
        vals = _eval_field(value_fn, time, xy[:, 0], xy[:, 1], self.components)
        return vals.ravel()

    def __repr__(self):
        return (f"FunctionSpace(P{self.degree}^{self.components} on "
                f"{self.subdomain}, {self.ndofs} dofs)")


def _eval_field(fn, time, x, y, components):
    vals = np.asarray(fn(time, x, y), dtype=float)
    if components == 1:
        return vals.reshape(-1)
    if vals.shape == (len(x), 2):
        return vals
    if vals.shape == (2, len(x)):
        return vals.T
    raise FEMError(f"vector field returned shape {vals.shape}, "
                   f"expected ({len(x)}, 2)")


class CellGeometry:
    """Affine map data for a batch of cells: Jacobians, dets, quad points."""

    def __init__(self, mesh, cells, rule):
        pts = mesh.vertices
        tri = mesh.cells[cells]
        p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
        jac = np.stack([p1 - p0, p2 - p0], axis=2)  # (c, 2, 2), columns are edges
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        self.inv_jac_t = np.transpose(inv, (0, 2, 1))
        self.det = det
        self.wdet = rule.weights[None, :] * det[:, None]  # (c, nq)
        ref = rule.points
        self.x = (p0[:, None, :]
                  + ref[None, :, 0, None] * (p1 - p0)[:, None, :]
                  + ref[None, :, 1, None] * (p2 - p0)[:, None, :])  # (c, nq, 2)

    def physical_grads(self, dphi_ref):
        """Map reference gradients to physical: (c, nq, nloc, 2)."""
        # sum over d of dphi_ref[q, l, d] inv_jac_t[c, e, d], two products
        return (dphi_ref[None, :, :, 0, None] * self.inv_jac_t[:, None, None, :, 0]
                + dphi_ref[None, :, :, 1, None] * self.inv_jac_t[:, None, None, :, 1])


def norm_tables(space):
    """Geometry and basis tables of ``error_norms`` on ``space``'s cells.

    Fields of one subdomain and degree on one mesh can share them.
    """
    rule = quadrature_rule("triangle", 2 * space.degree + 2)
    phi, dphi = tabulate(space.degree, rule.points)
    # rows (q, e): d/dxi_e of every basis function at point q
    return (CellGeometry(space.mesh, space.cells, rule), phi,
            np.swapaxes(dphi, 1, 2).reshape(-1, phi.shape[1]))


def error_norms(space, values, exact, time, exact_grad, tables):
    """L2 and H1-seminorm distance between a discrete and an analytic field.

    ``values`` are the field's coefficients in ``space``.  ``exact(t, x, y)``
    returns values, ``exact_grad(t, x, y)`` returns gradients with shape
    (n, 2) for scalar fields and (n, 2, 2) with entry [i, k, d] = d u_k /
    d x_d for vector fields.  ``tables`` are ``norm_tables(space)``.  The
    field and its reference gradients at the points are two matrix products
    over all cells; the affine maps then take the reference gradients to
    physical ones.
    """
    geo, phi, dphi = tables
    x = geo.x[..., 0].ravel()
    y = geo.x[..., 1].ravel()
    nc, nq = geo.wdet.shape
    k = space.components

    # coefficients as (local dof, cell and component)
    cvals = values.reshape(space.num_nodes, k)[space.cell_dofs]
    flat = np.moveaxis(cvals, 1, 0).reshape(-1, nc * k)
    uh = (phi @ flat).reshape(nq, nc, k)
    ref = (dphi @ flat).reshape(nq, 2, nc, k)
    # [q, d, c, k] = sum_e inv_jac_t[c, d, e] ref[q, e, c, k]
    jac = np.transpose(geo.inv_jac_t, (1, 2, 0))[None, :, :, :, None]
    guh = ref[:, None, 0] * jac[:, :, 0] + ref[:, None, 1] * jac[:, :, 1]

    if k == 1:
        ue = np.asarray(exact(time, x, y), dtype=float).reshape(nc, nq, 1)
    else:
        ue = _eval_field(exact, time, x, y, 2).reshape(nc, nq, 2)
    ge = np.asarray(exact_grad(time, x, y), dtype=float).reshape(nc, nq, k, 2)
    w = geo.wdet.T.ravel()
    l2 = w @ ((uh - np.swapaxes(ue, 0, 1)) ** 2).sum(axis=2).ravel()
    h1 = w @ ((guh - np.transpose(ge, (1, 3, 0, 2))) ** 2).sum(axis=(1, 3)).ravel()
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def eliminate_matrix(matrix, dofs):
    """Symmetric elimination of prescribed dofs from a square sparse matrix.

    Rows and columns are zeroed and the diagonal is set to one, so with the
    load of ``apply_dirichlet`` the constrained dofs solve to their prescribed
    values exactly.  Returns the eliminated matrix, a new object, and the
    mask ``keep`` (zero at ``dofs``, one elsewhere).  A matrix ``A`` later
    added to the system is eliminated by zeroing its entries in rows or
    columns where ``keep`` is zero; the unit diagonal is already in place.
    """
    keep = np.ones(matrix.shape[0])
    keep[np.asarray(dofs, dtype=np.int64)] = 0.0
    csr = sparse.csr_matrix(matrix, copy=True)
    csr.sum_duplicates()
    csr.data *= np.repeat(keep, np.diff(csr.indptr)) * np.take(keep, csr.indices)
    csr.eliminate_zeros()
    return csr + sparse.diags(1.0 - keep, format="csr"), keep


def apply_dirichlet(columns, rhs, dofs, values, addend=None):
    """Load half of ``eliminate_matrix``: ``rhs`` with prescribed ``values``
    at ``dofs`` lifted, a new vector.

    ``columns`` are the ``dofs`` columns of the operator before elimination,
    ``matrix[:, dofs]``; ``addend``, if given, is a whole matrix added to
    that operator.  Their products with the values move to the load, and
    the constrained entries take the values themselves; nothing is
    multiplied if all values are zero.
    """
    values = np.asarray(values, dtype=float)
    load = np.array(rhs, dtype=float)
    if np.any(values):
        load -= columns @ values
        if addend is not None:
            load -= addend @ np.bincount(dofs, values, load.size)
    load[dofs] = values
    return load
