import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpsi import mesh as meshmod
from fpsi.mesh import MeshError, generate_channel, generate_structured, import_msh, interface_pairs

from _helpers import cell_areas, interface_mesh, subdomain_area


def test_structured_2x2_counts(mesh22):
    assert mesh22.num_vertices == 9
    assert mesh22.num_cells == 8
    assert len(mesh22.edges_with_tag("sigma")) == 2


def test_structured_1x2_counts():
    m = generate_structured(1, 2)
    assert m.num_vertices == 6
    assert m.num_cells == 4
    assert len(m.edges_with_tag("sigma")) == 1


def test_odd_ny_rejected():
    with pytest.raises(MeshError, match="even"):
        generate_structured(2, 3)


def test_subdomain_areas(mesh22):
    assert abs(subdomain_area(mesh22, "S") - 0.5) < 1e-12
    assert abs(subdomain_area(mesh22, "P") - 0.5) < 1e-12


def test_positive_cell_areas(mesh22):
    assert (cell_areas(mesh22) > 0).all()


def test_interface_pairs_structured_4x4():
    m = generate_structured(4, 4)
    pairs = interface_pairs(m)
    assert len(pairs) == 4
    assert np.all(np.abs(pairs.h_e - 0.25) < 1e-14)
    assert np.allclose(pairs.normal_s, [0.0, 1.0])
    assert np.all(np.abs(np.sum(pairs.normal_s * pairs.tangent, axis=1)) < 1e-14)
    assert np.all(np.abs(np.linalg.norm(pairs.tangent, axis=1) - 1.0) < 1e-14)


def test_interface_facets_on_a_slanted_interface():
    # the table against the vertices and cells alone: y += 0.3 x turns the
    # interface of the 8 x 8 square to the direction (1, 0.3)
    m = interface_mesh("sheared")
    pairs = interface_pairs(m)
    assert len(pairs) == 8
    a, b = m.vertices[pairs.vertex_ids[:, 0]], m.vertices[pairs.vertex_ids[:, 1]]
    edge, n = b - a, pairs.normal_s
    assert np.all(np.abs(np.linalg.norm(n, axis=1) - 1.0) < 1e-15)
    assert np.all(np.abs(np.sum(n * edge, axis=1)) < 1e-15 * pairs.h_e)
    centroid_s = m.vertices[m.cells[pairs.cell_s]].mean(axis=1)
    assert np.all(np.sum(n * (0.5 * (a + b) - centroid_s), axis=1) > 0.0)
    assert np.allclose(n, np.array([-0.3, 1.0]) / np.hypot(0.3, 1.0), rtol=0.0,
                       atol=1e-15)
    assert np.array_equal(pairs.tangent, np.column_stack([n[:, 1], -n[:, 0]]))
    assert np.all(np.abs(pairs.h_e - np.hypot(*edge.T)) <= 1e-15 * pairs.h_e)


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(1, 6), half_ny=st.integers(1, 4))
def test_sigma_pairing_property(nx, half_ny):
    m = generate_structured(nx, 2 * half_ny)
    pairs = interface_pairs(m)
    assert len(pairs) == nx
    assert np.array_equal(pairs.edge_ids, m.edges_with_tag("sigma"))
    assert np.array_equal(pairs.vertex_ids, m.edges[pairs.edge_ids])
    assert np.all(m.cell_tags[pairs.cell_s] == "S")
    assert np.all(m.cell_tags[pairs.cell_p] == "P")
    assert abs(subdomain_area(m, "S") + subdomain_area(m, "P") - 1.0) < 1e-12


def test_refinement_halves_h():
    coarse = generate_structured(2, 2)
    fine = generate_structured(4, 4)
    assert abs(fine.h_max() - 0.5 * coarse.h_max()) < 1e-14
    hc = interface_pairs(coarse).h_e
    hf = interface_pairs(fine).h_e
    assert all(abs(h - 0.5 * hc[0]) < 1e-14 for h in hf)


def test_channel_three_layers():
    m = generate_channel(10, 14)
    assert abs(subdomain_area(m, "S") - 2.0 * 0.4) < 1e-12
    assert abs(subdomain_area(m, "P") - 2.0 * 1.0) < 1e-12
    pairs = interface_pairs(m)
    assert len(pairs) == 20  # two interface lines of 10 facets each
    lower = np.abs(m.vertices[pairs.vertex_ids, 1].mean(axis=1) - 0.3) < 1e-9
    assert lower.sum() == (~lower).sum() == 10
    assert np.allclose(pairs.normal_s[lower], [0.0, -1.0])
    assert np.allclose(pairs.normal_s[~lower], [0.0, 1.0])
    assert len(m.edges_with_tag("gamma_s")) == 4  # inlet facets of the core
    assert len(m.edges_with_tag("gamma_s_n")) == 4  # outlet, do-nothing


def test_channel_interface_must_hit_grid_line():
    with pytest.raises(MeshError, match="grid"):
        generate_channel(10, 13)


GOLDEN = "tests/data/two_layer_8tri.msh"
TAGS = {"fluid": "S", "porous": "P", "interface": "sigma",
        "wall_s": "gamma_s", "wall_p": "gamma_p_d"}


def test_import_msh_golden_matches_generator(mesh22):
    m = import_msh(GOLDEN, TAGS)
    assert m.num_vertices == mesh22.num_vertices
    assert m.num_cells == mesh22.num_cells
    assert np.allclose(np.sort(m.vertices, axis=0),
                       np.sort(mesh22.vertices, axis=0))
    assert sorted(map(tuple, np.sort(m.cells, axis=1).tolist())) == \
        sorted(map(tuple, np.sort(mesh22.cells, axis=1).tolist()))
    assert len(m.edges_with_tag("sigma")) == 2
    assert m.cells_in("S").size == 4 and m.cells_in("P").size == 4


def test_import_msh_nonconforming_interface(tmp_path):
    # sigma line placed on an edge between two S triangles
    bad = (tmp_path / "bad.msh")
    with open(GOLDEN, encoding="utf-8") as fh:
        text = fh.read()
    # golden interface lines join nodes 4-5 and 5-6 (y = 0.5); move one onto
    # the diagonal edge 2-5, which joins two S cells
    bad.write_text(text.replace("9 1 2 3 3 4 5", "9 1 2 3 3 2 5"))
    with pytest.raises(MeshError, match="interface"):
        import_msh(bad, TAGS)


def test_import_msh_empty_file(tmp_path):
    empty = tmp_path / "empty.msh"
    empty.write_text("")
    with pytest.raises(MeshError, match="empty"):
        import_msh(empty, TAGS)


def test_import_msh_wrong_version(tmp_path):
    path = tmp_path / "v4.msh"
    path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(MeshError, match="version"):
        import_msh(path, TAGS)


def test_import_msh_missing_tag(tmp_path):
    path = tmp_path / "m.msh"
    with open(GOLDEN, encoding="utf-8") as fh:
        path.write_text(fh.read())
    with pytest.raises(MeshError, match="missing from tag_map"):
        import_msh(path, {"fluid": "S"})


def test_import_msh_dangling_facet(tmp_path):
    path = tmp_path / "dangling.msh"
    with open(GOLDEN, encoding="utf-8") as fh:
        text = fh.read()
    # line element between nodes 1 and 9 is no triangle edge
    text = text.replace("9 1 2 3 3 4 5", "9 1 2 3 3 1 9")
    path.write_text(text)
    with pytest.raises(MeshError, match="dangling"):
        import_msh(path, TAGS)


def test_import_msh_ignored_section_warns(tmp_path):
    path = tmp_path / "extra.msh"
    with open(GOLDEN, encoding="utf-8") as fh:
        text = fh.read()
    path.write_text(text + "$Periodic\n0\n$EndPeriodic\n")
    with pytest.warns(UserWarning, match="Periodic"):
        import_msh(path, TAGS)


# --- array-built meshes against the loops they replaced -------------------------

MESH_ARRAYS = ("vertices", "cells", "edges", "edge_tags", "edge_cells",
               "cell_edges")


def _assert_same_mesh(got, want):
    for name in MESH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert np.array_equal(got.cell_tags, want.cell_tags)


@pytest.mark.parametrize("nx", [2, 8, 32])
def test_structured_mesh_matches_loop_reference(nx):
    import _mesh_loops
    half = lambda j: "S" if j < nx // 2 else "P"
    _assert_same_mesh(generate_structured(nx, nx),
                      _mesh_loops.structured_layers(nx, nx, 0.0, 0.0, 1.0, 1.0, half))


def test_channel_mesh_matches_loop_reference():
    import _mesh_loops
    lower, upper = (meshmod.channel_row(s, 14, -0.2, 1.4) for s in (0.3, 0.7))
    core = lambda j: "S" if lower <= j < upper else "P"
    _assert_same_mesh(
        generate_channel(10, 14),
        _mesh_loops.structured_layers(10, 14, 0.0, -0.2, 2.0, 1.4, core,
                                      s_outlet_do_nothing=True))


def test_msh_mesh_matches_loop_reference(monkeypatch):
    import _mesh_loops
    seen = []
    build = meshmod._build_mesh

    def spy(vertices, cells, cell_tags, tag_edges):
        seen.append((vertices, cells, cell_tags, tag_edges))
        return build(vertices, cells, cell_tags, tag_edges)

    monkeypatch.setattr(meshmod, "_build_mesh", spy)
    got = import_msh(GOLDEN, TAGS)
    vertices, cells, cell_tags, tag_edges = seen[0]
    want = _mesh_loops.build_mesh(
        vertices, cells, cell_tags,
        lambda a, b: list(tag_edges(np.array([[a, b]])))[0])
    _assert_same_mesh(got, want)


def _faulty_inputs():
    """(name, vertices, cells, cell_tags, edge_tag_of) that a build rejects."""
    base = generate_structured(2, 2)
    tag_of = {(int(a), int(b)): t for (a, b), t in zip(base.edges, base.edge_tags)
              if t != "interior"}
    sigma = [k for k, t in tag_of.items() if t == "sigma"]
    outer = sorted(k for k, t in tag_of.items() if t != "sigma")
    inner = sorted({(int(a), int(b)) for a, b in base.edges} - set(tag_of))
    s_inner = next(k for k in inner
                   if all(base.vertices[v][1] <= 0.5 for v in k))
    retag = lambda changes: lambda a, b: {**tag_of, **changes}.get((a, b))
    v, c, t = base.vertices, base.cells, base.cell_tags
    return [
        ("untagged boundary", v, c, t, lambda a, b: None),
        ("unknown tag", v, c, t, retag({outer[0]: "bogus"})),
        ("interface on boundary", v, c, t, retag({outer[1]: "sigma"})),
        ("interface inside S", v, c, t, retag({s_inner: "sigma"})),
        ("untagged interface", v, c, t, retag({sigma[0]: None})),
        ("boundary tag inside", v, c, t, retag({inner[-1]: "gamma_s"})),
        ("three cells on an edge", v, np.vstack([c, c[:1]]),
         np.append(t, t[:1]), retag({})),
    ]


@pytest.mark.parametrize("case", _faulty_inputs(), ids=lambda case: case[0])
def test_mesh_faults_match_loop_reference(case):
    import _mesh_loops
    _, vertices, cells, cell_tags, edge_tag_of = case
    with pytest.raises(MeshError) as want:
        _mesh_loops.build_mesh(vertices, cells, cell_tags, edge_tag_of)
    with pytest.raises(MeshError) as got:
        meshmod._build_mesh(vertices, cells, cell_tags,
                            lambda edges: [edge_tag_of(int(a), int(b))
                                           for a, b in edges])
    assert str(got.value) == str(want.value)
