"""Loop-based mesh building, kept as a test reference.

``mesh._build_mesh`` finds each edge's cells, tags the edges and validates
them with array operations, and ``mesh._structured_layers`` builds its grid
and tags its edges the same way.  This module holds the per-cell and
per-edge loops they replaced, with the tagging callback of the structured
generator that was called once per edge.
"""

import numpy as np

from fpsi.mesh import (ALL_TAGS, SUBDOMAIN_P, SUBDOMAIN_S, TAG_GAMMA_P_D,
                       TAG_GAMMA_S, TAG_GAMMA_S_N, TAG_INTERIOR, TAG_SIGMA, Mesh,
                       MeshError, _signed_area)


def build_mesh(vertices, cells, cell_tags, edge_tag_of):
    """``_build_mesh`` with ``edge_tag_of(a, b)`` called for every edge."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    cell_tags = np.asarray(cell_tags)
    p = vertices
    areas = _signed_area(p[cells[:, 0]], p[cells[:, 1]], p[cells[:, 2]])
    flipped = areas < 0
    if flipped.any():
        cells = cells.copy()
        cells[flipped, 1], cells[flipped, 2] = cells[flipped, 2], cells[flipped, 1]
        areas = np.abs(areas)

    raw = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    raw_sorted = np.sort(raw, axis=1)
    edges, inverse = np.unique(raw_sorted, axis=0, return_inverse=True)
    cell_edges = inverse.reshape(3, -1).T.copy()

    num_edges = edges.shape[0]
    edge_cells = np.full((num_edges, 2), -1, dtype=np.int64)
    for local in range(3):
        for c in range(cells.shape[0]):
            e = cell_edges[c, local]
            if edge_cells[e, 0] == -1:
                edge_cells[e, 0] = c
            elif edge_cells[e, 1] == -1:
                edge_cells[e, 1] = c
            else:
                raise MeshError(f"edge {e} shared by more than two cells")

    edge_tags = np.array([TAG_INTERIOR] * num_edges, dtype=object)
    for e in range(num_edges):
        tag = edge_tag_of(int(edges[e, 0]), int(edges[e, 1]))
        if tag is not None:
            if tag not in ALL_TAGS:
                raise MeshError(f"unknown facet tag {tag!r}")
            edge_tags[e] = tag

    mesh = Mesh(vertices=vertices, cells=cells, cell_tags=cell_tags,
                edges=edges, edge_tags=edge_tags, edge_cells=edge_cells,
                cell_edges=cell_edges)
    validate(mesh)
    return mesh


def validate(mesh):
    exterior = mesh.edge_cells[:, 1] == -1
    for e in range(mesh.num_edges):
        tag = mesh.edge_tags[e]
        if exterior[e]:
            if tag == TAG_INTERIOR:
                raise MeshError(f"boundary facet {e} carries no boundary tag")
            if tag == TAG_SIGMA:
                raise MeshError(f"interface facet {e} lies on the domain boundary")
        else:
            c0, c1 = mesh.edge_cells[e]
            t0, t1 = mesh.cell_tags[c0], mesh.cell_tags[c1]
            if tag == TAG_SIGMA:
                if {t0, t1} != {SUBDOMAIN_S, SUBDOMAIN_P}:
                    raise MeshError(
                        f"interface facet {e} must join one S-cell and one "
                        f"P-cell, found subdomains ({t0}, {t1})")
            elif tag == TAG_INTERIOR:
                if t0 != t1:
                    raise MeshError(
                        f"facet {e} separates subdomains {t0}/{t1} but is "
                        "not tagged as interface")
            else:
                raise MeshError(f"internal facet {e} carries boundary tag {tag!r}")


def structured_layers(nx, ny, x0, y0, width, height, subdomain_of_row,
                      s_outlet_do_nothing=False):
    """``mesh._structured_layers`` with its per-quad and per-edge loops."""
    dx, dy = width / nx, height / ny
    xs = x0 + dx * np.arange(nx + 1)
    ys = y0 + dy * np.arange(ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = np.array([(xs[i], ys[j])
                         for j in range(ny + 1) for i in range(nx + 1)])

    cells, tags = [], []
    for j in range(ny):
        sub = subdomain_of_row(j)
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
            tags.extend([sub, sub])
    cells = np.array(cells)
    cell_tags = np.array(tags, dtype=object)

    tol = 1e-12 * max(width, height)
    x1, y1 = x0 + width, y0 + height

    def row_of(y):
        return int(round((y - y0) / dy))

    def edge_tag_of(a, b):
        pa, pb = vertices[a], vertices[b]
        horizontal = abs(pa[1] - pb[1]) < tol
        if horizontal:
            j = row_of(pa[1])
            if 0 < j < ny:
                below, above = subdomain_of_row(j - 1), subdomain_of_row(j)
                if below != above:
                    return TAG_SIGMA
                return None
        on_left = abs(pa[0] - x0) < tol and abs(pb[0] - x0) < tol
        on_right = abs(pa[0] - x1) < tol and abs(pb[0] - x1) < tol
        on_bottom = horizontal and abs(pa[1] - y0) < tol
        on_top = horizontal and abs(pa[1] - y1) < tol
        if not (on_left or on_right or on_bottom or on_top):
            return None
        if horizontal:
            row = row_of(pa[1]) - (1 if on_top else 0)
        else:
            row = min(row_of(pa[1]), row_of(pb[1]))
        sub = subdomain_of_row(row)
        if sub == SUBDOMAIN_S:
            if s_outlet_do_nothing and on_right:
                return TAG_GAMMA_S_N
            return TAG_GAMMA_S
        return TAG_GAMMA_P_D

    return build_mesh(vertices, cells, cell_tags, edge_tag_of)
