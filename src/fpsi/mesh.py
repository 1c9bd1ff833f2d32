"""Conforming two-subdomain triangulations with a tagged internal interface.

A mesh partitions a polygonal domain into a free-flow region ("S") and a
porous region ("P") separated by an internal interface whose facets are
tagged ``sigma``.  Interface facets must be conforming: every sigma facet
is shared by exactly one S-cell and one P-cell.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass

import numpy as np

# Subdomain tags
SUBDOMAIN_S = "S"
SUBDOMAIN_P = "P"

# Facet tags.  gamma_s_n marks a do-nothing (zero traction) part of the
# free-flow boundary used by the channel geometry; the reference geometry
# only uses gamma_s.
TAG_GAMMA_S = "gamma_s"
TAG_GAMMA_S_N = "gamma_s_n"
TAG_GAMMA_P_D = "gamma_p_d"
TAG_GAMMA_P_N = "gamma_p_n"
TAG_SIGMA = "sigma"
TAG_INTERIOR = "interior"

BOUNDARY_TAGS = (TAG_GAMMA_S, TAG_GAMMA_S_N, TAG_GAMMA_P_D, TAG_GAMMA_P_N)
ALL_TAGS = BOUNDARY_TAGS + (TAG_SIGMA, TAG_INTERIOR)


class MeshError(ValueError):
    """Raised for invalid mesh topology, geometry, or tagging."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation with subdomain and facet tags.

    Attributes
    ----------
    vertices : (V, 2) float array
    cells : (C, 3) int array, counterclockwise vertex order
    cell_tags : (C,) array of "S"/"P"
    edges : (E, 2) int array of sorted vertex pairs, lexicographic order
    edge_tags : (E,) array of facet tags (``interior`` for internal edges)
    edge_cells : (E, 2) int array of adjacent cell ids (-1 when absent)
    cell_edges : (C, 3) int array; local edge k joins cell vertices k, k+1
    """

    vertices: np.ndarray
    cells: np.ndarray
    cell_tags: np.ndarray
    edges: np.ndarray
    edge_tags: np.ndarray
    edge_cells: np.ndarray
    cell_edges: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def cells_in(self, subdomain):
        """Indices of cells carrying the given subdomain tag."""
        if subdomain == "both":
            return np.arange(self.num_cells)
        return np.flatnonzero(self.cell_tags == subdomain)

    def edges_with_tag(self, tag):
        return np.flatnonzero(self.edge_tags == tag)

    def h_max(self):
        """Maximum cell diameter (longest edge over all cells)."""
        p = self.vertices
        lengths = np.linalg.norm(p[self.edges[:, 0]] - p[self.edges[:, 1]], axis=1)
        return float(lengths.max())


@dataclass(frozen=True, eq=False)
class InterfaceFacets:
    """The conforming interface facets in edge order, one array row each.

    Per facet: edge id, vertex ids, length ``h_e``, S-side and P-side cells
    and ``normal_s``, out of the S-side cell (the P side's is ``-normal_s``).
    The tangent is ``normal_s`` rotated by -90 degrees so that (tangent,
    normal_s) is a right-handed frame; interface data that is linear in the
    tangent must use the same convention.  ``len()`` is the facet count.
    """

    edge_ids: np.ndarray
    vertex_ids: np.ndarray
    h_e: np.ndarray
    normal_s: np.ndarray
    tangent: np.ndarray
    cell_s: np.ndarray
    cell_p: np.ndarray

    def __len__(self):
        return self.edge_ids.size


def _signed_area(p0, p1, p2):
    return 0.5 * ((p1[..., 0] - p0[..., 0]) * (p2[..., 1] - p0[..., 1])
                  - (p2[..., 0] - p0[..., 0]) * (p1[..., 1] - p0[..., 1]))


def _build_mesh(vertices, cells, cell_tags, tag_edges):
    """Assemble a validated Mesh from raw arrays.

    ``tag_edges(edges)`` maps the (E, 2) array of sorted vertex pairs to one
    facet tag per edge, None for an interior edge.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    cell_tags = np.asarray(cell_tags)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be a (V, 2) array")
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise MeshError("cells must be a (C, 3) array")

    # enforce counterclockwise orientation
    p = vertices
    areas = _signed_area(p[cells[:, 0]], p[cells[:, 1]], p[cells[:, 2]])
    flipped = areas < 0
    if flipped.any():
        cells = cells.copy()
        cells[flipped, 1], cells[flipped, 2] = cells[flipped, 2], cells[flipped, 1]
        areas = np.abs(areas)
    if np.any(areas <= 1e-15):
        raise MeshError("mesh contains a degenerate (zero-area) cell")

    # edge enumeration: sorted vertex pairs, lexicographic global order
    raw = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    raw_sorted = np.sort(raw, axis=1)
    edges, inverse = np.unique(raw_sorted, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    cell_edges = inverse.reshape(3, -1).T.copy()

    # each edge's cells in the order (local edge, cell) of the entries of
    # ``inverse``: the first two fill its slots, a third is an error
    num_edges, num_cells = edges.shape[0], cells.shape[0]
    order = np.argsort(inverse, kind="stable")
    owner = inverse[order]
    slot = np.arange(order.size) - np.searchsorted(owner, owner)
    if np.any(slot > 1):
        raise MeshError(f"edge {inverse[order[slot > 1].min()]} shared by "
                        "more than two cells")
    edge_cells = np.full((num_edges, 2), -1, dtype=np.int64)
    edge_cells[owner, slot] = order % num_cells

    tags = np.array(tag_edges(edges), dtype=object)
    named = np.not_equal(tags, None)
    known = np.zeros(num_edges, dtype=bool)
    for tag in ALL_TAGS:
        known |= tags == tag
    unknown = np.flatnonzero(named & ~known)
    if unknown.size:
        raise MeshError(f"unknown facet tag {tags[unknown[0]]!r}")
    tags[~named] = TAG_INTERIOR

    mesh = Mesh(vertices=vertices, cells=cells, cell_tags=cell_tags,
                edges=edges, edge_tags=tags, edge_cells=edge_cells,
                cell_edges=cell_edges)
    _validate(mesh)
    return mesh


def _validate(mesh):
    """Raise MeshError for the first edge, in edge order, tagged against its cells."""
    tags = mesh.edge_tags
    c0, c1 = mesh.edge_cells.T
    exterior = c1 == -1
    t0 = mesh.cell_tags[c0]
    t1 = mesh.cell_tags[np.where(exterior, c0, c1)]
    interior, sigma = tags == TAG_INTERIOR, tags == TAG_SIGMA
    joins_both = (((t0 == SUBDOMAIN_S) & (t1 == SUBDOMAIN_P))
                  | ((t0 == SUBDOMAIN_P) & (t1 == SUBDOMAIN_S)))
    faults = [
        (exterior & interior,
         lambda e: f"boundary facet {e} carries no boundary tag"),
        (exterior & sigma,
         lambda e: f"interface facet {e} lies on the domain boundary"),
        (~exterior & sigma & ~joins_both,
         lambda e: (f"interface facet {e} must join one S-cell and one "
                    f"P-cell, found subdomains ({t0[e]}, {t1[e]})")),
        (~exterior & interior & (t0 != t1),
         lambda e: (f"facet {e} separates subdomains {t0[e]}/{t1[e]} but is "
                    "not tagged as interface")),
        (~exterior & ~interior & ~sigma,
         lambda e: f"internal facet {e} carries boundary tag {tags[e]!r}"),
    ]
    first = [(int(np.argmax(mask)), message) for mask, message in faults
             if mask.any()]
    if first:
        e, message = min(first, key=lambda fault: fault[0])
        raise MeshError(message(e))


def interface_pairs(mesh):
    """All conforming interface facets with normals, tangents, and h_E."""
    edge_ids = mesh.edges_with_tag(TAG_SIGMA)
    vertex_ids = mesh.edges[edge_ids]
    c0, c1 = mesh.edge_cells[edge_ids].T
    s_first = mesh.cell_tags[c0] == SUBDOMAIN_S
    cell_s, cell_p = np.where(s_first, c0, c1), np.where(s_first, c1, c0)
    p = mesh.vertices
    pa, pb = (p[ends] for ends in vertex_ids.T)
    vec = pb - pa
    # one dot product per edge, rounded as np.linalg.norm(edge) rounds
    h_e = np.sqrt((vec[:, None, :] @ vec[:, :, None])[:, 0, 0])
    n = np.column_stack([vec[:, 1], -vec[:, 0]]) / h_e[:, None]
    inward = np.sum(n * (0.5 * (pa + pb) - p[mesh.cells[cell_s]].mean(axis=1)),
                    axis=1) < 0
    n[inward] = -n[inward]
    return InterfaceFacets(edge_ids=edge_ids, vertex_ids=vertex_ids, h_e=h_e,
                           normal_s=n, tangent=np.column_stack([n[:, 1], -n[:, 0]]),
                           cell_s=cell_s, cell_p=cell_p)


def generate_structured(nx, ny):
    """Structured triangulation of the unit square, S below y = 1/2, P above.

    Each grid quad is cut along its lower-left to upper-right diagonal so
    refinements are reproducible.  The split at y = 1/2 must be a grid line,
    so ``ny`` must be even.  Every porous boundary facet is Dirichlet.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be at least 1")
    if ny % 2:
        raise MeshError(f"split ordinate 0.5 is not an interior grid line; "
                        f"ny={ny} must be even for a centred split")
    half = ny // 2
    return _structured_layers(
        nx, ny, 0.0, 1.0, 1.0,
        lambda j: SUBDOMAIN_S if j < half else SUBDOMAIN_P)


def generate_channel(nx, ny, *, y0=-0.2, width=2.0, height=1.4,
                     s_lower=0.3, s_upper=0.7):
    """Three-layer channel: porous slabs above and below a free-flow core.

    The free-flow inlet (x = 0) is tagged ``gamma_s`` and the outlet
    ``gamma_s_n`` (do-nothing); all porous exterior facets are Dirichlet.
    Both layer interfaces must coincide with horizontal grid lines.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 2:
        raise MeshError("channel needs nx >= 1 and ny >= 2")
    rows = {}
    for name, s in (("lower", s_lower), ("upper", s_upper)):
        rows[name] = channel_row(s, ny, y0, height)
        if rows[name] is None:
            raise MeshError(
                f"{name} interface ordinate {s} is not an interior grid "
                f"line of the {ny}-row grid")
    if rows["lower"] >= rows["upper"]:
        raise MeshError("lower interface must lie below the upper interface")

    def subdomain_of_row(j):
        if rows["lower"] <= j < rows["upper"]:
            return SUBDOMAIN_S
        return SUBDOMAIN_P

    return _structured_layers(nx, ny, y0, width, height, subdomain_of_row,
                              s_outlet_do_nothing=True)


# Largest row count ``smallest_channel_rows`` tries.
MAX_CHANNEL_ROWS = 1000


def channel_row(s, ny, y0, height):
    """Row index of ordinate ``s`` on an ``ny``-row channel grid.

    None unless ``s`` is an interior grid line.
    """
    if ny < 1:
        return None
    j = (s - y0) / (height / ny)
    row = int(round(j))
    return row if abs(j - row) <= 1e-9 and 0 < row < ny else None


def smallest_channel_rows(y0, height, s_lower, s_upper):
    """Fewest grid rows (at least 2) that put both interfaces on grid lines.

    None when no row count up to ``MAX_CHANNEL_ROWS`` does.
    """
    return next((ny for ny in range(2, MAX_CHANNEL_ROWS + 1)
                 if channel_row(s_lower, ny, y0, height) is not None
                 and channel_row(s_upper, ny, y0, height) is not None), None)


def _structured_layers(nx, ny, y0, width, height, subdomain_of_row,
                       s_outlet_do_nothing=False):
    dx, dy = width / nx, height / ny
    xs = dx * np.arange(nx + 1)
    ys = y0 + dy * np.arange(ny + 1)
    # vertex j * (nx + 1) + i sits at (xs[i], ys[j])
    vertices = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])

    row_sub = np.empty(ny, dtype=object)
    row_sub[:] = [subdomain_of_row(j) for j in range(ny)]

    # two cells per grid quad, row by row: (v00, v10, v11) and (v00, v11, v01)
    j, i = np.divmod(np.arange(nx * ny), nx)
    v00 = j * (nx + 1) + i
    v10, v01 = v00 + 1, v00 + nx + 1
    cells = np.stack([v00, v10, v01 + 1, v00, v01 + 1, v01], axis=1).reshape(-1, 3)
    cell_tags = np.repeat(row_sub, 2 * nx)

    def tag_edges(edges):
        ja, ia = np.divmod(edges[:, 0], nx + 1)
        jb, ib = np.divmod(edges[:, 1], nx + 1)
        tags = np.full(edges.shape[0], None, dtype=object)
        horizontal = ja == jb
        # inner horizontal edges: the interface where the rows' subdomains
        # differ, interior otherwise
        inner = np.flatnonzero(horizontal & (ja > 0) & (ja < ny))
        tags[inner[row_sub[ja[inner] - 1] != row_sub[ja[inner]]]] = TAG_SIGMA
        on_right = (ia == nx) & (ib == nx)
        on_top = horizontal & (ja == ny)
        outer = np.flatnonzero(((ia == 0) & (ib == 0)) | on_right
                               | (horizontal & (ja == 0)) | on_top)
        row = np.where(horizontal[outer], ja[outer] - on_top[outer],
                       np.minimum(ja[outer], jb[outer]))
        free_flow = row_sub[row] == SUBDOMAIN_S
        tags[outer[free_flow]] = TAG_GAMMA_S
        if s_outlet_do_nothing:
            tags[outer[free_flow & on_right[outer]]] = TAG_GAMMA_S_N
        tags[outer[~free_flow]] = TAG_GAMMA_P_D
        return tags

    return _build_mesh(vertices, cells, cell_tags, tag_edges)


# --- Gmsh MSH 2.2 ASCII import ------------------------------------------

_MSH_LINE = 1
_MSH_TRIANGLE = 2


def read_lines(path, error):
    """The lines of the UTF-8 text file ``path``, without a leading byte-order mark.

    A file that cannot be read, such as a directory, or a line that is not
    UTF-8 raises ``error`` naming the file and, for a line, its number.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise error(f"{path}: cannot read the file: {exc.strerror or exc}") from None
    for lineno, line in enumerate(lines, 1):
        try:
            lines[lineno - 1] = line.decode("utf-8-sig" if lineno == 1 else "utf-8")
        except UnicodeDecodeError:
            raise error(f"{path}:{lineno}: not UTF-8 text") from None
    return lines


def import_msh(path, tag_map):
    """Read a Gmsh MSH 2.2 ASCII file with tagged triangles and lines.

    ``tag_map`` maps physical names (or stringified physical ids when the
    file has no $PhysicalNames section) to mesh tags: "S"/"P" for surfaces
    and facet tags for lines.  Interface conformity is validated.  A record
    that does not parse raises MeshError naming the file and its line.
    """
    lines = [ln.strip() for ln in read_lines(path, MeshError)]
    if not any(ln for ln in lines):
        raise MeshError(f"{path}: empty MSH file")

    sections = _split_sections(lines, path)
    if "MeshFormat" not in sections:
        raise MeshError(f"{path}: missing $MeshFormat section")
    fmt = (sections["MeshFormat"] or [(None, "")])[0][1]
    if fmt.split()[:2] != ["2.2", "0"]:
        raise MeshError(f"{path}: $MeshFormat {fmt!r} is not MSH version 2.2 "
                        "of file type 0 (ASCII)")

    phys_names = {}
    if "PhysicalNames" in sections:
        for lineno, ln in _records(path, sections, "PhysicalNames"):
            with _reading(path, "PhysicalNames", lineno, ln):
                parts = ln.split(maxsplit=2)
                phys_names[int(parts[1])] = parts[2].strip().strip('"')

    if "Nodes" not in sections or "Elements" not in sections:
        raise MeshError(f"{path}: missing $Nodes or $Elements section")

    known = {"MeshFormat", "PhysicalNames", "Nodes", "Elements"}
    for name in sections:
        if name not in known:
            warnings.warn(f"{path}: ignoring MSH section ${name}")

    node_id_to_idx, coords = {}, []
    for lineno, ln in _records(path, sections, "Nodes"):
        with _reading(path, "Nodes", lineno, ln):
            parts = ln.split()
            xy = (float(parts[1]), float(parts[2]))
            if not np.all(np.isfinite(xy)):
                raise MeshError(f"{path}:{lineno}: node coordinates must be "
                                f"finite, got {ln!r}")
            node_id_to_idx[int(parts[0])] = len(coords)
            coords.append(xy)
    vertices = np.array(coords)

    def resolve(phys_id):
        name = phys_names.get(phys_id, str(phys_id))
        if name not in tag_map:
            raise MeshError(f"{path}: physical tag {name!r} missing from tag_map")
        return tag_map[name]

    cells, cell_tags, tagged_lines = [], [], {}
    for lineno, ln in _records(path, sections, "Elements"):
        with _reading(path, "Elements", lineno, ln):
            parts = [int(tok) for tok in ln.split()]
            etype, ntags = parts[1], parts[2]
            tags, nodes = parts[3:3 + ntags], parts[3 + ntags:]
            if etype == _MSH_TRIANGLE:
                tag = resolve(tags[0]) if tags else None
                if tag not in (SUBDOMAIN_S, SUBDOMAIN_P):
                    raise MeshError(
                        f"{path}: triangle physical tag must map to S or P, got {tag!r}")
                if len(nodes) != 3:
                    raise MeshError(f"{path}:{lineno}: a triangle has 3 nodes, got {ln!r}")
                cells.append([node_id_to_idx[n] for n in nodes])
                cell_tags.append(tag)
            elif etype == _MSH_LINE:
                tag = resolve(tags[0]) if tags else None
                if tag not in (TAG_SIGMA,) + BOUNDARY_TAGS:
                    raise MeshError(
                        f"{path}: line physical tag must map to a facet tag, got {tag!r}")
                key = tuple(sorted(node_id_to_idx[n] for n in nodes))
                tagged_lines[key] = tag
            else:
                warnings.warn(f"{path}: ignoring element of type {etype}")
    if not cells:
        raise MeshError(f"{path}: no triangles found")
    for sub in (SUBDOMAIN_S, SUBDOMAIN_P):
        if sub not in cell_tags:
            raise MeshError(
                f"{path}: no triangle maps to subdomain {sub}, but the coupled "
                f"problem needs both S and P cells; map the physical name of "
                f"its triangles with mesh.tag.<name> = {sub}")

    cell_arr = np.array(cells)
    edge_set = set()
    for tri in cell_arr:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edge_set.add(tuple(sorted((int(tri[a]), int(tri[b])))))
    for key in tagged_lines:
        if key not in edge_set:
            raise MeshError(f"{path}: dangling facet {key} is not a cell edge")

    return _build_mesh(vertices, cell_arr, np.array(cell_tags, dtype=object),
                       lambda edges: [tagged_lines.get((int(a), int(b)))
                                      for a, b in edges])


@contextlib.contextmanager
def _reading(path, section, lineno, text):
    """Report a record of ``section`` that does not parse as a MeshError."""
    try:
        yield
    except MeshError:
        raise
    except (ValueError, IndexError, KeyError):
        raise MeshError(f"{path}:{lineno}: cannot read the ${section} record "
                        f"{text!r}") from None


def _records(path, sections, name):
    """(line number, text) of each record of a section that starts with its count."""
    body = sections[name]
    if not body:
        raise MeshError(f"{path}: ${name} is empty; it must start with its record count")
    with _reading(path, name, *body[0]):
        return body[1:1 + int(body[0][1])]


def _split_sections(lines, path):
    """Section name -> body lines, each as (line number, text)."""
    sections, name = {}, None
    for lineno, ln in enumerate(lines, 1):
        if name is not None and ln == f"$End{name}":
            name = None
        elif name is not None:
            sections[name].append((lineno, ln))
        elif ln.startswith("$") and not ln.startswith("$End"):
            name = ln[1:]
            sections[name] = []
    if name is not None:
        raise MeshError(f"{path}: unterminated section ${name}")
    return sections
