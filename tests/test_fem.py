import math

import numpy as np
import pytest
from scipy import sparse

from fpsi import fem
from fpsi.fem import (FEMError, FieldCoefficients, build_space, eliminate_dofs,
                      error_norms, interpolate, quadrature_rule, tabulate)
from fpsi.mesh import generate_structured


# --- quadrature ---------------------------------------------------------------

def test_triangle_rule_degree2_linear():
    rule = quadrature_rule("triangle", 2)
    val = np.sum(rule.weights * rule.points[:, 0])
    assert abs(val - 1.0 / 6.0) < 1e-14


def test_segment_rule_cubic():
    rule = quadrature_rule("segment", 3)
    val = np.sum(rule.weights * rule.points[:, 0] ** 3)
    assert abs(val - 0.25) < 1e-14


@pytest.mark.parametrize("entity,measure", [("triangle", 0.5), ("segment", 1.0)])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_weights_sum_to_measure(entity, measure, degree):
    rule = quadrature_rule(entity, degree)
    assert rule.weights.min() > 0
    assert abs(rule.weights.sum() - measure) < 1e-14


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_triangle_exactness_all_monomials(degree):
    # reference integral of x^a y^b is a! b! / (a + b + 2)!
    rule = quadrature_rule("triangle", degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))
            quad = np.sum(rule.weights
                          * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(quad - exact) <= 1e-14 * max(1.0, abs(exact) / exact)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_segment_exactness(degree):
    rule = quadrature_rule("segment", degree)
    for a in range(rule.degree + 1):
        exact = 1.0 / (a + 1)
        quad = np.sum(rule.weights * rule.points[:, 0] ** a)
        assert abs(quad - exact) < 1e-14


def test_quadrature_degree_beyond_table():
    with pytest.raises(FEMError, match="degree"):
        quadrature_rule("triangle", 7)


def test_basis_partition_of_unity():
    pts = np.array([[0.2, 0.3], [0.1, 0.05], [1 / 3, 1 / 3]])
    for deg in (1, 2):
        phi, dphi = tabulate(deg, pts)
        assert np.allclose(phi.sum(axis=1), 1.0)
        assert np.allclose(dphi.sum(axis=1), 0.0)


# --- spaces -------------------------------------------------------------------

def test_p1_scalar_dof_count(mesh22):
    sp = build_space(mesh22, 1, 1, "both")
    assert sp.ndofs == 9


def test_p2_scalar_dof_count(mesh22):
    sp = build_space(mesh22, 2, 1, "both")
    assert sp.ndofs == 25  # 9 vertices + 16 edges


def test_p2_vector_on_lower_half(mesh22):
    sp = build_space(mesh22, 2, 2, "S")
    assert sp.ndofs == 2 * (6 + 9)  # 6 vertices + 9 edges of the 4-cell half


def test_unknown_dirichlet_tag(mesh22):
    with pytest.raises(FEMError, match="unknown Dirichlet tag"):
        build_space(mesh22, 1, 1, "S", ("gamma_bogus",))


def test_dirichlet_partition(mesh22):
    sp = build_space(mesh22, 2, 2, "S", ("gamma_s",))
    # lower-half boundary minus the interface: 8 vertex + 8 midpoint nodes...
    # boundary nodes of the half-square: 3 bottom + 2x2 sides verts and the
    # interface endpoints; counted nodes lie on gamma_s facets only
    assert sp.dirichlet_dofs.size == 2 * len(sp.dirichlet_nodes)
    assert sp.num_interior_dofs == sp.ndofs - sp.dirichlet_dofs.size
    coords = sp.node_coords[sp.dirichlet_nodes]
    on_sigma_only = (np.abs(coords[:, 1] - 0.5) < 1e-12) & \
        (coords[:, 0] > 1e-12) & (coords[:, 0] < 1 - 1e-12)
    assert not on_sigma_only.any()


# --- interpolation ------------------------------------------------------------

def test_interpolate_constant(mesh22):
    sp = build_space(mesh22, 2, 1, "both")
    f = interpolate(sp, lambda t, x, y: np.full_like(x, 3.25))
    assert np.allclose(f.values, 3.25)


def test_interpolate_linear_exact_in_p2(mesh22):
    sp = build_space(mesh22, 2, 1, "both")
    f = interpolate(sp, lambda t, x, y: x + y)
    l2, h1 = error_norms(
        f, lambda t, x, y: x + y, 0.0,
        lambda t, x, y: np.stack([np.ones_like(x), np.ones_like(y)], axis=-1))
    assert l2 < 1e-13 and h1 < 1e-12


def test_interpolation_is_projection(mesh22):
    # re-interpolating the piecewise-polynomial interpolant changes nothing
    sp = build_space(mesh22, 2, 1, "both")
    f = interpolate(sp, lambda t, x, y: np.sin(x) * np.cosh(y))

    def eval_fh(t, x, y):
        return _point_eval(f, x, y)

    f2 = interpolate(sp, eval_fh)
    assert np.allclose(f.values, f2.values, atol=1e-14)


def _point_eval(field, x, y):
    """Brute-force point evaluation for tests: locate cells by barycentrics."""
    space = field.space
    mesh = space.mesh
    out = np.empty(len(x))
    coeffs = field.values.reshape(space.num_nodes, space.components)
    for i, (xi, yi) in enumerate(zip(x, y)):
        for c, cell in enumerate(space.cells):
            tri = mesh.cells[cell]
            p0, p1, p2 = mesh.vertices[tri]
            mat = np.array([p1 - p0, p2 - p0]).T
            ref = np.linalg.solve(mat, np.array([xi, yi]) - p0)
            if ref.min() > -1e-12 and ref.sum() < 1 + 1e-12:
                phi, _ = tabulate(space.degree, ref.reshape(1, 2))
                out[i] = phi[0] @ coeffs[space.cell_dofs[c], 0]
                break
        else:
            raise AssertionError(f"point ({xi}, {yi}) not located")
    return out


# --- error norms ---------------------------------------------------------------

def test_error_norms_constant_one():
    mesh = generate_structured(4, 4)
    sp = build_space(mesh, 1, 1, "both")
    f = FieldCoefficients(sp, np.ones(sp.ndofs))
    zero = lambda t, x, y: np.zeros_like(x)
    zgrad = lambda t, x, y: np.zeros(x.shape + (2,))
    l2, h1 = error_norms(f, zero, 0.0, zgrad)
    assert abs(l2 - 1.0) < 1e-14
    assert h1 < 1e-13


def test_error_norms_sine_against_zero():
    mesh = generate_structured(16, 16)
    sp = build_space(mesh, 1, 1, "both")
    f = FieldCoefficients(sp, np.zeros(sp.ndofs))
    c = 4 * np.pi

    def exact(t, x, y):
        return np.sin(c * x) * np.sin(c * y)

    def grad(t, x, y):
        return np.stack([c * np.cos(c * x) * np.sin(c * y),
                         c * np.sin(c * x) * np.cos(c * y)], axis=-1)

    l2, _ = error_norms(f, exact, 0.0, grad)
    assert abs(l2 - 0.5) < 2e-4  # degree-6 quadrature of the oscillatory field


def test_p1_mass_matrix_single_element():
    # |K|/12 [[2,1,1],[1,2,1],[1,1,2]] on an arbitrary triangle
    rule = quadrature_rule("triangle", 2)
    phi, _ = tabulate(1, rule.points)
    p = np.array([[0.3, -0.1], [1.7, 0.4], [0.6, 2.1]])
    e1, e2 = p[1] - p[0], p[2] - p[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    mass = 2 * area * np.einsum("q,qi,qj->ij", rule.weights, phi, phi)
    ref = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.abs(mass - ref).max() < 1e-14


# --- Dirichlet elimination ------------------------------------------------------

def test_eliminate_identity_with_value():
    mat = sparse.identity(2, format="csr")
    rhs = np.zeros(2)
    new_mat, new_rhs = eliminate_dofs(mat, rhs, [1], [5.0])
    x = np.linalg.solve(new_mat.toarray(), new_rhs)
    assert np.allclose(x, [0.0, 5.0])


def test_eliminate_lifts_coupling():
    mat = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    rhs = np.array([3.0, 3.0])
    new_mat, new_rhs = eliminate_dofs(mat, rhs, [0], [1.0])
    x = np.linalg.solve(new_mat.toarray(), new_rhs)
    assert np.allclose(x, [1.0, 1.0])


def test_eliminate_zero_values_keeps_interior_rhs(rng):
    a = rng.normal(size=(6, 6))
    mat = sparse.csr_matrix(a + a.T)
    rhs = rng.normal(size=6)
    new_mat, new_rhs = eliminate_dofs(mat, rhs, [1, 4], [0.0, 0.0])
    keep = [0, 2, 3, 5]
    assert np.allclose(new_rhs[keep], rhs[keep])
    assert np.allclose(new_rhs[[1, 4]], 0.0)


def test_eliminate_preserves_symmetry(rng):
    a = rng.normal(size=(8, 8))
    mat = sparse.csr_matrix(a + a.T)
    rhs = rng.normal(size=8)
    new_mat, _ = eliminate_dofs(mat, rhs, [0, 3, 7], [1.0, -2.0, 0.5])
    dense = new_mat.toarray()
    assert np.abs(dense - dense.T).max() < 1e-14


def _canonical(matrix):
    matrix = sparse.csr_matrix(matrix, copy=True)
    matrix.sort_indices()
    return matrix


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eliminate_matrix_equals_masking_products(seed):
    # the data mask gives what dk @ A @ dk + diag(1 - keep) gives, entry for
    # entry and in pattern: stored zeros, duplicates, eliminated rows and
    # columns and a missing diagonal included
    rng = np.random.default_rng(seed)
    n = 40
    coo = sparse.random(n, n, density=0.15, random_state=rng, format="coo")
    rows = np.r_[coo.row, 3, 3, 7]
    cols = np.r_[coo.col, 5, 5, 7]
    vals = np.r_[coo.data, 1.5, -0.5, 0.0]   # a duplicate and a stored zero
    vals[::9] = 0.0
    rows, cols, vals = rows[rows != 11], cols[rows != 11], vals[rows != 11]
    # row 11 stores nothing; the CSR arrays are built by hand so that the
    # duplicate stays unsummed
    order = np.argsort(rows, kind="stable")
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    matrix = sparse.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))
    assert not matrix.has_canonical_format
    dofs = np.r_[rng.choice(n, size=6, replace=False), 11]
    got, keep = fem.eliminate_matrix(matrix, dofs)
    dk = sparse.diags(keep)
    want = _canonical(dk @ matrix @ dk + sparse.diags(1.0 - keep))
    got = _canonical(got)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_fixed_pattern_holds_matrix_diagonal_and_pairs(rng):
    # pairs inside and outside the matrix's pattern, with repeats; the
    # summed pair values must land where a sparse sum would put them
    dense = np.array([[1.0, 0.0, 2.0, 0.0],
                      [0.0, 0.0, 0.0, 3.0],
                      [4.0, 5.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 6.0]])
    mat = sparse.csr_matrix(dense)
    rows = np.array([0, 1, 2, 2, 3, 1])
    cols = np.array([2, 2, 1, 1, 0, 2])
    vals = rng.normal(size=rows.size)
    pattern, positions = fem.fixed_pattern(mat, rows, cols)
    assert np.array_equal(pattern.toarray(), dense)
    stored = np.zeros((4, 4), dtype=bool)
    stored[dense != 0] = True
    stored[np.arange(4), np.arange(4)] = True
    stored[rows, cols] = True
    positions_held = sparse.csr_matrix(
        (np.ones(pattern.nnz), pattern.indices, pattern.indptr), shape=(4, 4))
    assert pattern.nnz == stored.sum()
    assert np.array_equal(positions_held.toarray() != 0, stored)
    summed = sparse.csr_matrix(
        (np.bincount(positions, weights=vals, minlength=pattern.nnz),
         pattern.indices, pattern.indptr), shape=(4, 4))
    want = sparse.csr_matrix((vals, (rows, cols)), shape=(4, 4)).toarray()
    assert np.abs(summed.toarray() - want).max() <= 1e-15
