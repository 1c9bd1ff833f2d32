import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

from fpsi import fem, forms
from fpsi.forms import NitscheParams, PhysicalParams
from fpsi.mesh import generate_structured
from fpsi.ordering import LEAF_SIZE, nested_dissection


def _grid_laplacian(k):
    d = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
    eye = sparse.identity(k)
    return (sparse.kron(eye, d) + sparse.kron(d, eye)).tocsc()


def _eliminated_operator(nx):
    spaces = forms.build_spaces(generate_structured(nx, nx))
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    ctx = forms.AssemblyContext(spaces, params, nitsche)
    M = forms.assemble_M(spaces, params, nitsche, ctx=ctx)
    N = forms.assemble_N(spaces, params, nitsche, ctx=ctx)
    dofs, _ = fem.dirichlet_data(M, spaces, {}, 0.0)
    return fem.eliminate_matrix(M.matrix * (nx / 1e-3) + N.matrix, dofs)[0]


def _is_permutation(perm, n):
    return perm.shape == (n,) and np.array_equal(np.sort(perm), np.arange(n))


@pytest.mark.parametrize("matrix", [
    sparse.csc_matrix((0, 0)),
    sparse.identity(1, format="csc"),
    sparse.identity(200, format="csc"),          # isolated vertices only
    _grid_laplacian(30),
    sparse.random(300, 300, density=0.01, random_state=3, format="csc"),
], ids=["empty", "one", "diagonal", "grid", "random"])
def test_returns_a_permutation(matrix):
    assert _is_permutation(nested_dissection(matrix), matrix.shape[0])


def test_operator_order_is_a_permutation_and_deterministic():
    matrix = _eliminated_operator(4)
    perm = nested_dissection(matrix)
    assert _is_permutation(perm, matrix.shape[0])
    assert np.array_equal(nested_dissection(matrix), perm)


def test_order_depends_on_the_pattern_only(rng):
    matrix = sparse.csr_matrix(_eliminated_operator(4))
    perm = nested_dissection(matrix)
    rescaled = matrix.copy()
    rescaled.data *= rng.uniform(0.5, 2.0, size=rescaled.nnz)
    assert np.array_equal(nested_dissection(rescaled), perm)
    # the same pattern stored column-wise, and with each row's entries shuffled
    assert np.array_equal(nested_dissection(matrix.tocsc()), perm)
    row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    shuffle = np.lexsort((rng.random(matrix.nnz), row))
    unsorted = sparse.csr_matrix(
        (matrix.data[shuffle], matrix.indices[shuffle], matrix.indptr),
        shape=matrix.shape)
    assert not unsorted.has_sorted_indices
    assert np.array_equal(nested_dissection(unsorted), perm)


def test_separator_is_numbered_after_both_halves():
    # a path of 2 * LEAF_SIZE + 1 vertices is cut at its middle vertex, the
    # one numbered last; each half is a leaf, numbered in index order
    n = 2 * LEAF_SIZE + 1
    path = sparse.diags([1.0, 2.0, 1.0], [-1, 0, 1], shape=(n, n))
    perm = nested_dissection(path)
    assert perm[-1] == LEAF_SIZE
    halves = sorted([perm[:LEAF_SIZE], perm[LEAF_SIZE:-1]], key=lambda p: p[0])
    assert np.array_equal(halves[0], np.arange(LEAF_SIZE))
    assert np.array_equal(halves[1], np.arange(LEAF_SIZE + 1, n))


def test_nested_dissection_cuts_grid_fill():
    # on a 2-D grid the ordering beats the natural band order by a wide margin
    matrix = _grid_laplacian(40)
    perm = nested_dissection(matrix)
    natural = spla.splu(matrix, permc_spec="NATURAL")
    dissected = spla.splu(matrix[perm][:, perm].tocsc(), permc_spec="NATURAL")
    fill = lambda lu: lu.L.nnz + lu.U.nnz
    assert fill(dissected) < 0.5 * fill(natural)
