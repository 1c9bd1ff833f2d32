import ast
import dataclasses
import glob
import os

import numpy as np
import pytest
import sympy as sp

from fpsi import fem, forms, mesh as meshmod
from fpsi.forms import (INTERFACE_TERMS, VOLUME_TERMS, AssemblyContext,
                        FormsError, NitscheParams, PhysicalParams, Spaces,
                        StateVector, assemble_convection, assemble_F, assemble_M,
                        assemble_N, build_spaces)
from fpsi.mesh import generate_structured, interface_pairs

from _fd_gates import ExactStresses
from _helpers import (INTERFACE_MESHES, REFERENCE_PARAMS, block, block_pattern,
                      interface_mesh, interpolate, record_parts)
from _oracles import X, Y, convection_dense, eps_eps_dense, mass_dense
from _per_facet import (facet_cell_dofs, facet_tables, trace_normal,
                        trace_stress_nn, trace_tangent, trace_values)


# --- parameter validation -------------------------------------------------------

def test_phi_bound_rejected():
    with pytest.raises(FormsError, match=r"rho_s/\(rho_s\+rho_f\)"):
        PhysicalParams(phi=0.9, rho_s=1.0, rho_f=1.0)


def test_negative_viscosity_rejected():
    with pytest.raises(FormsError, match="mu_f"):
        PhysicalParams(mu_f=-1.0)


def test_kappa_must_be_spd():
    with pytest.raises(FormsError, match="symmetric"):
        PhysicalParams(kappa=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(FormsError, match="positive definite"):
        PhysicalParams(kappa=np.array([[1.0, 2.0], [2.0, 1.0]]))
    # an asymmetry of 2e-5 relative is rejected at any scale: eigvalsh reads
    # the lower triangle alone, and inv(kappa) would carry it into the drag
    for scale in (1.0, 1e-8):
        with pytest.raises(FormsError, match="symmetric"):
            PhysicalParams(kappa=scale * np.array([[1.0, 2e-5], [0.0, 1.0]]))
    small = 1e-8 * np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(PhysicalParams(kappa=small).kappa, small)


def test_positive_theta_warns():
    with pytest.warns(UserWarning, match="sink"):
        PhysicalParams(theta=0.5)


def test_nitsche_validation():
    with pytest.raises(FormsError, match="gamma"):
        NitscheParams(gamma=-1.0)
    with pytest.raises(FormsError, match="varsigma"):
        NitscheParams(gamma=10.0, varsigma=2)


def test_non_finite_parameters_rejected():
    with pytest.raises(FormsError, match="mu_f"):
        PhysicalParams(mu_f=np.nan)
    with pytest.raises(FormsError, match="alpha_bjs"):
        PhysicalParams(alpha_bjs=np.inf)
    with pytest.raises(FormsError, match="porosity"):
        PhysicalParams(phi=np.nan)
    with pytest.raises(FormsError, match="permeability"):
        PhysicalParams(kappa=np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(FormsError, match="gamma"):
        NitscheParams(gamma=np.nan)


def test_non_finite_term_raises_naming_its_block(spaces22):
    part = ("u_r", "p_P", np.array([[0, 1]]), np.array([[0]]),
            np.array([[[1.0], [np.nan]]]))
    with pytest.raises(FormsError, match=r"\(u_r, p_P\)"):
        forms.from_contributions(spaces22, [part])


def test_derived_rho_p(table1_params):
    assert abs(table1_params.rho_p - 1.0) < 1e-14


# --- single-element / few-element oracle checks ---------------------------------

@pytest.fixture(scope="module")
def tiny():
    mesh = generate_structured(1, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams()
    ctx = AssemblyContext(spaces, params, nitsche)
    return mesh, spaces, params, nitsche, ctx


def _triangles_of(mesh, space):
    out = []
    for c in space.cells:
        out.append([tuple(mesh.vertices[v]) for v in mesh.cells[c]])
    return out


def _consistency(ctx, dest=None):
    """The stress-consistency records' parts and their adjoints' of ``dest``."""
    return (record_parts(ctx, INTERFACE_TERMS, dest, "stress_jump")
            + record_parts(ctx, INTERFACE_TERMS, dest, "jump_stress"))


def _penalty_matrix(ctx):
    return forms.from_contributions(
        ctx.spaces, record_parts(ctx, INTERFACE_TERMS, kernel="jump_jump"))


def _dense_from_parts(spaces, parts, test, trial):
    keep = [p for p in parts if p[0] == test and p[1] == trial]
    matrix = forms.from_contributions(spaces, keep)
    return block(spaces, matrix, test, trial).toarray()


def test_p2_stiffness_matches_symbolic(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = record_parts(ctx, VOLUME_TERMS, "N")
    got = _dense_from_parts(spaces, parts, "u_f", "u_f")
    expected = np.zeros_like(got)
    sp_uf = spaces.u_f
    for c, tri in enumerate(_triangles_of(mesh, sp_uf)):
        local = eps_eps_dense(tri, 2 * params.mu_f)
        dofs = (2 * sp_uf.cell_dofs[c][:, None] + np.arange(2)).ravel()
        for i, gi in enumerate(dofs):
            for j, gj in enumerate(dofs):
                expected[gi, gj] += float(local[i][j])
    assert np.abs(got - expected).max() < 1e-12


def test_p1_vector_mass_matches_symbolic(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = record_parts(ctx, VOLUME_TERMS, "N")
    got = _dense_from_parts(spaces, parts, "u_s", "u_s")  # rho_p mass
    expected = np.zeros_like(got)
    sp_us = spaces.u_s
    for c, tri in enumerate(_triangles_of(mesh, sp_us)):
        local = mass_dense(tri, 1.0, degree=1)  # rho_p = 1 for Table-1 set
        dofs = (2 * sp_us.cell_dofs[c][:, None] + np.arange(2)).ravel()
        for i, gi in enumerate(dofs):
            for j, gj in enumerate(dofs):
                expected[gi, gj] += float(local[i][j])
    assert np.abs(got - expected).max() < 1e-13


def test_convection_matches_symbolic(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    sp_uf = spaces.u_f

    def w_field(t, x, y):
        return np.stack([1.0 + x - 2.0 * y, x * y], axis=-1)

    w = interpolate(sp_uf, w_field)  # quadratic field, exact in P2
    part = assemble_convection(ctx, w)
    got = _dense_from_parts(spaces, part, "u_f", "u_f")
    expected = np.zeros_like(got)
    w_sym = (1 + X - 2 * Y, X * Y)
    for c, tri in enumerate(_triangles_of(mesh, sp_uf)):
        local = convection_dense(tri, w_sym)
        dofs = (2 * sp_uf.cell_dofs[c][:, None] + np.arange(2)).ravel()
        for i, gi in enumerate(dofs):
            for j, gj in enumerate(dofs):
                expected[gi, gj] += float(local[i][j])
    assert np.abs(got - expected).max() < 1e-12


def test_convection_zero_previous(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    zero = fem.FieldCoefficients(spaces.u_f, np.zeros(spaces.u_f.ndofs))
    assert assemble_convection(ctx, zero) is None


def test_convection_quadratic_form_matches_quadrature(tiny, rng):
    # c(w; u, u) from the assembled block equals direct quadrature of
    # (w . grad u) . u; for divergence-free no-outflow w it is a boundary term
    mesh, spaces, params, nitsche, ctx = tiny
    sp_uf = spaces.u_f
    w = fem.FieldCoefficients(sp_uf, rng.normal(size=sp_uf.ndofs))
    u = fem.FieldCoefficients(sp_uf, rng.normal(size=sp_uf.ndofs))
    part = assemble_convection(ctx, w)
    mat = _dense_from_parts(spaces, part, "u_f", "u_f")
    form_val = u.values @ mat @ u.values

    rule = fem.quadrature_rule("triangle", 6)
    phi, dphi = fem.tabulate(2, rule.points)
    geo = fem.CellGeometry(mesh, sp_uf.cells, rule)
    grads = geo.physical_grads(dphi)
    wc = w.values.reshape(-1, 2)[sp_uf.cell_dofs]
    uc = u.values.reshape(-1, 2)[sp_uf.cell_dofs]
    wq = np.einsum("ql,cld->cqd", phi, wc)
    uq = np.einsum("ql,cld->cqd", phi, uc)
    guq = np.einsum("cqld,clk->cqkd", grads, uc)
    direct = np.einsum("cq,cqd,cqkd,cqk->", geo.wdet, wq, guq, uq)
    assert abs(form_val - direct) < 1e-12 * max(1.0, abs(direct))


def test_a_s_p_vanishes_on_constants(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = record_parts(ctx, VOLUME_TERMS, "N")
    block = _dense_from_parts(spaces, parts, "y_s", "y_s")
    const = np.tile([1.0, -2.0], spaces.y_s.num_nodes)
    assert np.abs(block @ const).max() < 1e-12


def test_divergence_theorem_for_pressure_coupling(tiny):
    # b^S(v, 1) = -int div v = -int_Sigma v . n_S for v vanishing on gamma_s
    mesh, spaces, params, nitsche, ctx = tiny
    parts = record_parts(ctx, VOLUME_TERMS, "N")
    bt = _dense_from_parts(spaces, parts, "u_f", "p_S")  # -(div v, q)
    ones_p = np.ones(spaces.p_S.ndofs)
    volume_side = bt @ ones_p  # b^S(v_i, 1) per velocity dof

    edge_side = np.zeros(spaces.u_f.ndofs)
    for facet in facet_tables(ctx):
        nc = trace_normal(spaces.u_f, facet, facet["normal_s"])
        dofs = facet_cell_dofs(spaces.u_f, facet)
        edge_side[dofs] += -facet["w"] @ nc
    interior = np.setdiff1d(np.arange(spaces.u_f.ndofs),
                            spaces.u_f.dirichlet_dofs)
    assert np.abs(volume_side[interior] - edge_side[interior]).max() < 1e-13


# --- interface forms -------------------------------------------------------------

def test_z_identity_and_anisotropic(spaces22, mesh22):
    # Z = (kappa tangent) . tangent; the 2x2 interface is horizontal, tangent (1, 0)
    for kappa, z in ((1.0, 1.0), (np.diag([2.0, 3.0]), 2.0)):
        params = PhysicalParams(**{**REFERENCE_PARAMS, "kappa": kappa})
        ctx = AssemblyContext(spaces22, params, NitscheParams())
        assert np.all(np.abs(ctx.facet_stack["z_perm"] - z) < 1e-14)
    # sheared by y += 0.3 x, the interface has tangent (1, 0.3) / |(1, 0.3)|
    sheared = dataclasses.replace(mesh22, vertices=mesh22.vertices @ [[1.0, 0.3],
                                                                      [0.0, 1.0]])
    kappa = np.array([[2.0, 0.5], [0.5, 1.0]])
    params = PhysicalParams(**{**REFERENCE_PARAMS, "kappa": kappa})
    ctx = AssemblyContext(build_spaces(sheared), params, NitscheParams())
    tangent = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
    assert np.all(np.abs(ctx.facet_stack["z_perm"] - tangent @ kappa @ tangent)
                  < 1e-14)


def _identifiers(tree):
    """Every name, attribute, argument and definition named in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        for field in ("id", "attr", "arg", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                names.add(value)
    return names


def test_coefficients_are_constants_decided_in_forms():
    # the permeability reaches the interface through forms alone, and no
    # module samples a coefficient field
    with open(meshmod.__file__, encoding="utf-8") as fh:
        named = sorted(name for name in _identifiers(ast.parse(fh.read()))
                       if "kappa" in name or "z_perm" in name)
    assert named == []
    calls = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(forms.__file__),
                                              "*.py"))):
        with open(path, encoding="utf-8") as fh:
            calls += [f"{os.path.basename(path)}:{node.lineno}"
                      for node in ast.walk(ast.parse(fh.read()))
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "callable"]
    assert calls == []


def test_bjs_zero_friction(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    free = PhysicalParams(**{**REFERENCE_PARAMS, "alpha_bjs": 0.0})
    parts = record_parts(AssemblyContext(spaces, free, nitsche), INTERFACE_TERMS,
                         kernel="slip")
    assert parts == []


def test_bjs_tangential_unit_field():
    # unit tangential pore velocity, kappa = I, mu_f alpha = 1, |Sigma| = 1
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**{**REFERENCE_PARAMS, "mu_f": 1.0,
                               "alpha_bjs": 1.0})
    ctx = AssemblyContext(spaces, params, NitscheParams())
    parts = record_parts(ctx, INTERFACE_TERMS, "N", "slip")
    block = _dense_from_parts(spaces, parts, "u_r", "u_r")
    tang = np.tile([1.0, 0.0], spaces.u_r.num_nodes)
    assert abs(tang @ block @ tang - 1.0) < 1e-12
    normal = np.tile([0.0, 1.0], spaces.u_r.num_nodes)
    assert abs(normal @ block @ normal) < 1e-14


def test_bjs_quadratic_form_is_seminorm(tiny, rng):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = record_parts(ctx, INTERFACE_TERMS, "N", "slip")
    block = _dense_from_parts(spaces, parts, "u_r", "u_r")
    u = rng.normal(size=spaces.u_r.ndofs)
    form_val = u @ block @ u
    direct = 0.0
    for facet in facet_tables(ctx):
        tangent = facet["tangent"]
        tt = trace_tangent(spaces.u_r, facet, tangent)
        vals = tt @ u[facet_cell_dofs(spaces.u_r, facet)]
        z_perm = tangent @ params.kappa @ tangent
        coef = params.mu_f * params.alpha_bjs / np.sqrt(z_perm)
        direct += coef * facet["w"] @ vals**2
    assert abs(form_val - direct) < 1e-12 * max(1.0, direct)


def test_consistency_zero_for_stress_free_field(tiny):
    # the trial-stress side of the coupling vanishes when eps(u_f) n . n = 0
    # and p_S = 0; the pure trial-side rows are u_r and y_s
    mesh, spaces, params, nitsche, ctx = tiny
    parts = _consistency(ctx, "N")
    const = np.tile([2.0, -1.0], spaces.u_f.num_nodes)
    for row in ("u_r", "y_s"):
        block = _dense_from_parts(spaces, parts, row, "u_f")
        assert np.abs(block @ const).max() < 1e-13


def test_consistency_pressure_jump_pairing(tiny):
    # p_S = 1 against a unit normal test jump integrates to +1 on |Sigma| = 1
    mesh, spaces, params, nitsche, ctx = tiny
    parts = _consistency(ctx, "N")
    block = _dense_from_parts(spaces, parts, "u_r", "p_S")
    v_r = np.tile([0.0, -1.0], spaces.u_r.num_nodes)  # n_P . v_r = 1
    ones = np.ones(spaces.p_S.ndofs)
    assert abs(v_r @ block @ ones - 1.0) < 1e-12


def test_consistency_varsigma_zero_drops_adjoint_velocity_rows(tiny):
    mesh, spaces, params, _, ctx = tiny
    incomplete = NitscheParams(gamma=40.0, varsigma=0)
    parts = _consistency(AssemblyContext(spaces, params, incomplete))
    names = {(p[0], p[1]) for p in parts}
    assert ("u_f", "u_r") not in names  # adjoint velocity-test block gone
    assert ("p_S", "u_r") in names      # -q_S rows remain
    assert ("u_r", "u_f") in names      # trial-side stress rows remain


def test_consistency_adjoint_is_transpose_for_symmetric_variant(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = _consistency(ctx)
    trial_side = _dense_from_parts(spaces, parts, "u_r", "u_f")
    adjoint = _dense_from_parts(spaces, parts, "u_f", "u_r")
    assert np.abs(adjoint - trial_side.T).max() < 1e-12
    trial_y = _dense_from_parts(spaces, parts, "y_s", "u_f")
    adjoint_y = _dense_from_parts(spaces, parts, "u_f", "y_s")
    assert np.abs(adjoint_y - trial_y.T).max() < 1e-12


def test_penalty_requires_positive_gamma():
    with pytest.raises(FormsError, match="gamma"):
        NitscheParams(gamma=0.0)


@pytest.fixture(scope="module")
def penalty_22():
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    mat = _penalty_matrix(AssemblyContext(spaces, params, nitsche))
    return mesh, spaces, params, nitsche, mat


def test_penalty_symmetric_psd(penalty_22, rng):
    _, spaces, _, _, mat = penalty_22
    diff = (mat - mat.T).tocoo()
    assert np.abs(diff.data).max() if diff.nnz else 0.0 <= 1e-12
    dense_dim = mat.shape[0]
    for _ in range(100):
        x = rng.normal(size=dense_dim)
        assert x @ (mat @ x) >= -1e-12 * (x @ x)


def test_penalty_kernel_on_jump_free_states(penalty_22, rng):
    mesh, spaces, params, nitsche, mat = penalty_22
    state = StateVector.zero(spaces)
    for name in ("u_f", "u_r", "y_s"):
        block = state.block(name)
        block.values[0::2] = rng.normal(size=block.space.num_nodes)
    # tangential-only fields have zero normal trace on the flat interface
    x = state.vector()
    assert x @ (mat @ x) <= 1e-12 * (x @ x)


def test_penalty_unit_jump_single_facet():
    # one facet of length 1: constant unit jump gives gamma mu_f exactly
    mesh = generate_structured(1, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    mat = _penalty_matrix(AssemblyContext(spaces, params, nitsche))
    state = StateVector.zero(spaces)
    state.block("u_f").values[1::2] = 1.0  # u_f . n_S = 1, others zero
    x = state.vector()
    assert abs(x @ (mat @ x) - nitsche.gamma * params.mu_f) < 1e-10


def test_penalty_linear_in_gamma(penalty_22):
    mesh, spaces, params, _, mat = penalty_22
    mat2 = _penalty_matrix(AssemblyContext(spaces, params, NitscheParams(gamma=80.0)))
    diff = (mat2 - 2.0 * mat).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-9


def test_penalty_coefficient_h_scaling():
    params = PhysicalParams(**REFERENCE_PARAMS)
    gamma_mu = 40.0 * params.mu_f
    coarse = gamma_mu / interface_pairs(generate_structured(4, 4)).h_e
    fine = gamma_mu / interface_pairs(generate_structured(8, 8)).h_e
    assert all(abs(f / coarse[0] - 2.0) < 1e-12 for f in fine)


# --- assembled M and N -----------------------------------------------------------

EXPECTED_M_PATTERN = {
    ("u_f", "u_f"), ("u_f", "y_s"), ("p_S", "y_s"),
    ("u_r", "u_r"), ("u_r", "u_s"), ("u_r", "y_s"),
    ("p_P", "p_P"), ("p_P", "y_s"),
    ("y_s", "u_r"), ("y_s", "u_s"), ("y_s", "y_s"),
    ("u_s", "y_s"),
}

EXPECTED_N_PATTERN = {
    ("u_f", "u_f"), ("u_f", "u_r"), ("u_f", "p_S"),
    ("p_S", "u_f"), ("p_S", "u_r"),
    ("u_r", "u_f"), ("u_r", "u_r"), ("u_r", "p_S"), ("u_r", "p_P"),
    ("p_P", "u_r"),
    ("y_s", "u_f"), ("y_s", "u_r"), ("y_s", "y_s"), ("y_s", "p_S"),
    ("y_s", "p_P"),
    ("u_s", "u_s"),
}


@pytest.fixture(scope="module")
def assembled_22():
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    ctx = AssemblyContext(spaces, params, nitsche)
    m_sys = assemble_M(ctx)
    prev = fem.FieldCoefficients(spaces.u_f,
                                 np.full(spaces.u_f.ndofs, 0.37))
    n_sys = assemble_N(ctx)
    n_sys = n_sys + forms.from_contributions(spaces, assemble_convection(ctx, prev))
    return spaces, params, nitsche, m_sys, n_sys


def test_m_block_pattern(assembled_22):
    spaces, _, _, m_sys, _ = assembled_22
    assert block_pattern(spaces, m_sys) == EXPECTED_M_PATTERN


def test_n_block_pattern(assembled_22):
    spaces, _, _, _, n_sys = assembled_22
    assert block_pattern(spaces, n_sys) == EXPECTED_N_PATTERN


def test_total_dimension(assembled_22):
    spaces, _, _, m_sys, n_sys = assembled_22
    total = sum(sp.ndofs for sp in spaces)
    assert m_sys.shape == (total, total)
    assert n_sys.shape == (total, total)


def test_mass_subblocks_symmetric(assembled_22):
    spaces, _, _, m_sys, _ = assembled_22
    for name in ("u_f", "p_P"):
        mass = block(spaces, m_sys, name, name).toarray()
        assert np.abs(mass - mass.T).max() < 1e-14


def test_velocity_pressure_skew_pairing():
    # B^T and -B rows are exact negative transposes (skew-symmetric variant)
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=-1)
    n_sys = assemble_N(AssemblyContext(spaces, params, nitsche))
    for vel in ("u_f", "u_r"):
        bt = block(spaces, n_sys, vel, "p_S").toarray()
        minus_b = block(spaces, n_sys, "p_S", vel).toarray()
        assert np.abs(bt + minus_b.T).max() < 1e-12
    for vel, pcol in (("u_r", "p_P"), ("y_s", "p_P")):
        bt = block(spaces, n_sys, vel, pcol).toarray()
        if pcol == "p_P":
            # q_P rows pair with u_r only; y_s dilation sits in M
            other = block(spaces, n_sys, pcol, vel).toarray()
            if vel == "u_r":
                assert np.abs(bt + other.T).max() < 1e-12


def test_volume_operator_positive_semidefinite(rng):
    # with interface terms excluded (gamma -> 0, alpha = 0 limit) the
    # stationary operator is a sum of coercive forms plus skew pairings
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**{**REFERENCE_PARAMS, "alpha_bjs": 0.0})
    ctx = AssemblyContext(spaces, params, NitscheParams())
    parts = record_parts(ctx, VOLUME_TERMS, "N")
    matrix = forms.from_contributions(spaces, parts)
    for _ in range(50):
        x = rng.normal(size=spaces.size)
        assert x @ (matrix @ x) >= -1e-10 * (x @ x)


def test_assemble_f_zero_sources(assembled_22):
    spaces, params, nitsche, _, _ = assembled_22
    rhs = assemble_F(AssemblyContext(spaces, params, nitsche), None, 0.5)
    assert np.abs(rhs).max() == 0.0


def test_assemble_f_theta_partition_of_unity():
    from fpsi import verification
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    sources = verification.SourceSet(
        load_p_P=lambda t, x, y: np.full_like(x, 2.0) / params.rho_f)
    rhs = assemble_F(AssemblyContext(spaces, params, NitscheParams()), sources, 0.0)
    off = spaces.slice("p_P").start
    block = rhs[off:off + spaces.p_P.ndofs]
    # sum over the P1 partition of unity = rho_f^-1 theta |Omega_P|
    assert abs(block.sum() - 2.0 * 0.5) < 1e-14
    others = np.delete(rhs, np.arange(off, off + spaces.p_P.ndofs))
    assert np.abs(others).max() == 0.0


def test_assemble_f_manufactured_t0_limits(assembled_22):
    # the exact fields vanish at t = 0 but their time derivatives do not:
    # the free-flow and total-momentum loads converge to rho-weighted
    # velocity rates while every other load and correction vanishes
    from fpsi import verification
    spaces, params, nitsche, _, _ = assembled_22
    sources = verification.derive_sources(params)
    corrections = verification.derive_corrections(params)
    ctx = AssemblyContext(spaces, params, nitsche)
    rhs = assemble_F(ctx, sources, 0.0, corrections)

    sol = ExactStresses()
    rate_only = verification.SourceSet(
        f_S=lambda t, x, y: params.rho_f * sol.dt_u_f(0.0, x, y),
        load_y_s=lambda t, x, y: (params.rho_s * 0.9) * sol.dt_u_s(0.0, x, y))
    expected = assemble_F(ctx, rate_only, 0.0)
    assert np.abs(rhs - expected).max() < 1e-13

    x = np.linspace(0.05, 0.95, 7)
    for name in ("m1", "m2", "m4", "m5"):
        assert np.abs(getattr(corrections, name)(0.0, x, 0.5 * x)).max() == 0.0
    assert np.abs(corrections.m3(0.0, x, 0.5 * x)).max() == 0.0
    assert np.abs(sources.r_S(0.0, x, x)).max() == 0.0
    assert np.abs(sources.load_p_P(0.0, x, x)).max() == 0.0
    assert np.abs(sources.load_u_r(0.0, x, x)).max() < 1e-15


def _interface_corrections_per_facet(ctx, spaces, corr, time):
    """Facet-by-facet reference for the interface corrections of assemble_F."""
    params, nitsche = ctx.params, ctx.nitsche
    sig, two_mu = float(nitsche.varsigma), 2.0 * params.mu_f
    rhs = np.zeros(sum(sp.ndofs for sp in spaces))

    def scatter(block, dofs, vals):
        np.add.at(rhs, dofs + spaces.slice(block).start, vals)

    for facet in facet_tables(ctx):
        w = facet["w"]
        x, y = facet["x"][:, 0], facet["x"][:, 1]
        n_s, n_p, tau = facet["normal_s"], facet["normal_p"], facet["tangent"]
        c_pen = nitsche.gamma * params.mu_f / facet["h_e"]
        m1, m2, m4, m5 = (np.asarray(fn(time, x, y), dtype=float)
                          for fn in (corr.m1, corr.m2, corr.m4, corr.m5))
        m3 = np.asarray(corr.m3(time, x, y), dtype=float).reshape(-1, 2)

        def integral(vals, table):
            return np.einsum("q,q,qa->a", w, vals, table)

        nc_f = trace_normal(spaces.u_f, facet, n_s)
        nc_r = trace_normal(spaces.u_r, facet, n_p)
        nc_w = trace_normal(spaces.y_s, facet, n_p)
        tt_f = trace_normal(spaces.u_f, facet, tau)
        tt_r = trace_normal(spaces.u_r, facet, tau)
        tt_w = trace_normal(spaces.y_s, facet, tau)
        snn_f = trace_stress_nn(spaces.u_f, facet, n_s)
        phi_w = trace_values(spaces.y_s, facet)
        scatter("u_f", facet_cell_dofs(spaces.u_f, facet),
                integral(c_pen * m1, nc_f) - sig * two_mu * integral(m1, snn_f)
                - integral(m4, tt_f))
        scatter("p_S", facet_cell_dofs(spaces.p_S, facet),
                -integral(m1, trace_values(spaces.p_S, facet)))
        scatter("u_r", facet_cell_dofs(spaces.u_r, facet),
                integral(c_pen * m1, nc_r) + integral(m2, nc_r)
                - integral(m5, tt_r))
        m3_vec = np.einsum("q,qk,qi->ik", w, m3, phi_w).ravel()
        scatter("y_s", facet_cell_dofs(spaces.y_s, facet),
                integral(c_pen * m1, nc_w) + m3_vec + integral(m4, tt_w))
    return rhs


@pytest.mark.parametrize("varsigma", [-1, 1])
def test_interface_corrections_match_per_facet_reference(varsigma):
    # every defect nonzero, so each term of the all-facets assembly is
    # compared with the facet-by-facet loop it replaced, on a flat, a
    # two-sided and a slanted interface
    from fpsi import verification
    params = PhysicalParams(**REFERENCE_PARAMS)
    corr = verification.InterfaceCorrections(
        m1=lambda t, x, y: t * (1.0 + x**2),
        m2=lambda t, x, y: t * np.sin(3.0 * x),
        m3=lambda t, x, y: np.stack([t * x, t - x**3], axis=-1),
        m4=lambda t, x, y: 2.0 * t * x * y,
        m5=lambda t, x, y: t * np.cos(x))
    for kind in INTERFACE_MESHES:
        spaces = build_spaces(interface_mesh(kind))
        ctx = AssemblyContext(spaces, params,
                              NitscheParams(gamma=40.0, varsigma=varsigma))
        got = assemble_F(ctx, None, 0.7, corr)
        want = _interface_corrections_per_facet(ctx, spaces, corr, 0.7)
        assert np.abs(got).max() > 0.0, kind
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), kind


def _cell_dofs(space):
    """Block dofs of each cell, a vector space's components interleaved."""
    dofs = space.cell_dofs
    if space.components == 1:
        return dofs
    return np.stack([2 * dofs, 2 * dofs + 1], axis=-1).reshape(len(dofs), -1)


def test_loads_match_einsum_reference(tiny, rng):
    mesh, spaces, params, nitsche, ctx = tiny
    kern = forms._Kernels(ctx)
    for name in ("u_f", "u_r"):
        space = getattr(spaces, name)
        w = ctx.geo[space.subdomain].wdet
        vals = rng.normal(size=w.shape + (2,))
        block, dofs, got = kern.vector_load(name, vals)
        want = np.einsum("cq,qi,cqk->cik", w, ctx.phi_table(space), vals)
        assert block == name
        assert np.array_equal(dofs, _cell_dofs(space))
        assert np.abs(got - want.reshape(got.shape)).max() <= 1e-14 * np.abs(want).max()
    w = ctx.geo["P"].wdet
    vals = rng.normal(size=w.shape)
    block, dofs, got = kern.scalar_load("p_P", vals)
    want = np.einsum("cq,qi,cq->ci", w, ctx.phi_table(spaces.p_P), vals)
    assert block == "p_P"
    assert np.array_equal(dofs, spaces.p_P.cell_dofs)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_exact_solution_residual_decreases():
    from fpsi import verification
    params = PhysicalParams(**REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    sol = verification.ExactSolution()
    sources = verification.derive_sources(params)
    corr = verification.derive_corrections(params)
    T = 1e-3
    norms = []
    for nx in (4, 8, 16):
        mesh = generate_structured(nx, nx)
        spaces = build_spaces(mesh)
        tau = 1e-3 / nx
        ctx = AssemblyContext(spaces, params, nitsche)
        m_sys = assemble_M(ctx)

        def interp(t):
            return StateVector(
                [interpolate(space, val, t) for (nm, val, gr), space
                 in zip(sol.fields(), spaces)], time=t)

        x_now, x_prev = interp(T), interp(T - tau)
        n_sys = assemble_N(ctx)
        conv = forms.from_contributions(
            spaces, assemble_convection(ctx, x_prev.block("u_f")))
        op = m_sys * (1.0 / tau) + (n_sys + conv)
        rhs = assemble_F(ctx, sources, T, corr) \
            + (m_sys @ x_prev.vector()) / tau
        res = op @ x_now.vector() - rhs
        for name, space in zip(forms.BLOCK_NAMES, spaces):
            res[space.dirichlet_dofs + spaces.slice(name).start] = 0.0
        norms.append(np.linalg.norm(res))
    assert norms[1] < norms[0] / 1.9
    assert norms[2] < norms[1] / 1.9


def test_state_vector_round_trip(spaces22, rng):
    vec = rng.normal(size=sum(sp.ndofs for sp in spaces22))
    state = StateVector.from_vector(spaces22, vec, time=0.25)
    assert np.array_equal(state.vector(), vec)
    assert state.block("y_s").values.size == spaces22.y_s.ndofs


def test_spaces_own_the_block_layout(spaces22):
    # the slices tile the monolithic layout in block order; a state views
    # its vector through them; each constrained dof lies in its own block
    assert forms.BLOCK_NAMES is Spaces._fields
    slices = [spaces22.slice(name) for name in forms.BLOCK_NAMES]
    assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
    assert [s.stop - s.start for s in slices] == [sp.ndofs for sp in spaces22]
    assert slices[-1].stop == spaces22.size
    vec = np.arange(spaces22.size, dtype=float)
    state = StateVector.from_vector(spaces22, vec)
    for name, where in zip(forms.BLOCK_NAMES, slices):
        values = state.block(name).values
        assert np.shares_memory(values, vec)
        assert np.array_equal(values, vec[where])
    with pytest.raises(FormsError, match="vector length"):
        StateVector.from_vector(spaces22, vec[:-1])
    # block k prescribes the value k, so each value names its dof's block
    values = {name: lambda t, x, y, k=k: np.full((x.size, 2), float(k))
              for k, name in enumerate(forms.BLOCK_NAMES)
              if getattr(spaces22, name).components == 2}
    dofs, vals = forms.dirichlet_data(spaces22, values, 0.0)
    assert set(vals) == {0.0, 2.0, 4.0}  # u_f, u_r and y_s are constrained
    for dof, k in zip(dofs, vals.astype(int)):
        assert slices[k].start <= dof < slices[k].stop

EXPECTED_M_VOLUME_PATTERN = {
    ("u_f", "u_f"), ("u_r", "u_r"), ("u_r", "u_s"), ("u_r", "y_s"),
    ("y_s", "u_r"), ("y_s", "u_s"), ("y_s", "y_s"), ("u_s", "y_s"),
    ("p_P", "p_P"), ("p_P", "y_s"),
}


def test_m_volume_pattern_reduction(tiny):
    # the gamma -> 0, alpha = 0, theta = 0 reduction of M: mass blocks,
    # Brinkman stiffness on the displacement rate, and dilation coupling
    mesh, spaces, params, nitsche, ctx = tiny
    parts = record_parts(ctx, VOLUME_TERMS, "M")
    matrix = forms.from_contributions(spaces, parts)
    assert block_pattern(spaces, matrix) == EXPECTED_M_VOLUME_PATTERN


@pytest.mark.parametrize("nx", [2, 8])
def test_m_and_n_match_merge_of_both_destinations(nx, monkeypatch):
    # assemble_M and assemble_N each evaluate the records of their own
    # destination once, so the two together evaluate all 52; each result is
    # bit-identical to that destination's volume parts summed per block
    # followed by its interface parts
    mesh = generate_structured(nx, nx)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**REFERENCE_PARAMS)
    ctx = AssemblyContext(spaces, params, NitscheParams(gamma=40.0, varsigma=1))
    parts = forms._parts
    for dest, assemble in (("M", assemble_M), ("N", assemble_N)):
        evaluated = []
        monkeypatch.setattr(forms, "_parts", lambda kernels, terms:
                            evaluated.extend(terms) or parts(kernels, terms))
        got = assemble(ctx)
        monkeypatch.undo()
        assert sorted(evaluated) == sorted(t for t in VOLUME_TERMS + INTERFACE_TERMS
                                           if t.dest == dest)
        want = forms.from_contributions(
            spaces, forms._sum_blocks(record_parts(ctx, VOLUME_TERMS, dest))
            + record_parts(ctx, INTERFACE_TERMS, dest))
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), (dest, attr)


def test_term_tables_declare_each_term_once():
    # one record per term of the scheme, each kernel a method of its table's
    # kernel class; an interface coupling goes to M exactly when its trial is
    # y_s, whose rate is the interface velocity; and the blocks that
    # energy_matrix reads off M and N hold the energy terms alone
    terms = VOLUME_TERMS + INTERFACE_TERMS
    labels = [t.label for t in terms]
    assert len(labels) == 52 and len(set(labels)) == 52
    for table, kernels in ((VOLUME_TERMS, forms._Kernels),
                           (INTERFACE_TERMS, forms._FacetKernels)):
        assert all(not t.kernel.startswith("_")
                   and callable(getattr(kernels, t.kernel, None)) for t in table)
    assert {t.dest for t in terms} <= {"M", "N"}
    assert all((t.dest == "M") == (t.trial == "y_s") for t in INTERFACE_TERMS)
    assert set(forms.ENERGY_TERMS) <= set(labels)
    energy = {(t.dest, t.test, t.trial) for t in terms
              if t.label in forms.ENERGY_TERMS}
    others = {(t.dest, t.test, t.trial) for t in terms
              if t.label not in forms.ENERGY_TERMS}
    assert not energy & others


def test_every_record_is_live(monkeypatch):
    # deleting any one of the 52 records changes M or N, on a set-up where no
    # coefficient vanishes: an anisotropic permeability, a sink, the
    # symmetric variant and friction
    spaces = build_spaces(generate_structured(4, 4))
    params = PhysicalParams(**{**REFERENCE_PARAMS, "theta": -0.5, "alpha_bjs": 1.0,
                               "kappa": np.array([[2.0, 0.5], [0.5, 1.0]])})
    ctx = AssemblyContext(spaces, params, NitscheParams(varsigma=1))

    def arrays():
        return [getattr(mat, attr) for mat in (assemble_M(ctx), assemble_N(ctx))
                for attr in ("data", "indices", "indptr")]

    full = arrays()
    for table in ("VOLUME_TERMS", "INTERFACE_TERMS"):
        terms = getattr(forms, table)
        for i, term in enumerate(terms):
            monkeypatch.setattr(forms, table, terms[:i] + terms[i + 1:])
            assert not all(map(np.array_equal, full, arrays())), term.label
        monkeypatch.setattr(forms, table, terms)


# --- batched kernels and interface assemblers against their einsum forms -------

def _einsum_kernels(ctx):
    """The volume kernels' local blocks as per-entry einsum contractions."""

    def expand(base):
        c, ni, nj = base.shape
        out = np.zeros((c, ni, 2, nj, 2))
        out[:, :, 0, :, 0] = base
        out[:, :, 1, :, 1] = base
        return out.reshape(c, 2 * ni, 2 * nj)

    def wdet(space):
        return ctx.geo[space.subdomain].wdet

    def mass(test, trial, coeff):
        base = np.einsum("cq,qi,qj->cij", wdet(test) * coeff,
                         ctx.phi_table(test), ctx.phi_table(trial))
        return expand(base) if test.components == 2 else base

    def tensor_mass(test, trial, tensor):
        local = np.einsum("cq,kl,qi,qj->cikjl", wdet(test), tensor,
                          ctx.phi_table(test), ctx.phi_table(trial))
        c, ni, _, nj, _ = local.shape
        return local.reshape(c, 2 * ni, 2 * nj)

    def eps_eps(test, trial, coeff):
        g_t, g_u, w = ctx.grads(test), ctx.grads(trial), wdet(test) * coeff
        t1 = np.einsum("cq,cqid,cqjd->cij", w, g_t, g_u)
        local = 0.5 * np.einsum("cq,cqil,cqjk->cikjl", w, g_t, g_u)
        local[:, :, 0, :, 0] += 0.5 * t1
        local[:, :, 1, :, 1] += 0.5 * t1
        c, ni, _, nj, _ = local.shape
        return local.reshape(c, 2 * ni, 2 * nj)

    def div_div(test, trial, coeff):
        local = np.einsum("cq,cqik,cqjl->cikjl", wdet(test) * coeff,
                          ctx.grads(test), ctx.grads(trial))
        c, ni, _, nj, _ = local.shape
        return local.reshape(c, 2 * ni, 2 * nj)

    def pressure_div(scalar_sp, vector_sp, coeff):
        local = np.einsum("cq,qi,cqjl->cijl", wdet(vector_sp) * coeff,
                          ctx.phi_table(scalar_sp), ctx.grads(vector_sp))
        c, ni, nj, _ = local.shape
        return local.reshape(c, ni, 2 * nj)

    return dict(mass=mass, tensor_mass=tensor_mass, eps_eps=eps_eps,
                div_div=div_div, pressure_div=pressure_div)


# constant coefficients off the reference set: an anisotropic permeability
# keeps the off-diagonal of the Darcy tensor mass covered
ANISOTROPIC_PARAMS = {**REFERENCE_PARAMS,
                      "kappa": np.array([[2.0, 0.5], [0.5, 1.0]]),
                      "theta": -0.5, "phi": 0.3, "K": 3.0, "rho_s": 2.0}


# nx = 2, and the three interface meshes: 8 is ``interface_mesh("structured")``,
# and the sheared mesh's cells are slanted, so J^-T is not diagonal
@pytest.mark.parametrize("kind", [2, 8, "channel", "sheared"])
def test_kernels_match_einsum_reference(kind):
    # each reference-tensor kernel against its einsum form by quadrature at
    # the points, per local block; with its rounding residues cut, it has
    # the cut form's nonzero entries
    spaces = build_spaces(generate_structured(kind, kind) if kind in (2, 8)
                          else interface_mesh(kind))
    params = PhysicalParams(**ANISOTROPIC_PARAMS)
    ctx = AssemblyContext(spaces, params, NitscheParams())
    kern, ref = forms._Kernels(ctx), _einsum_kernels(ctx)
    phi = params.phi
    drag = phi**2 * np.linalg.inv(params.kappa)
    cases = [
        (kern.mass("u_f", "u_f", 2.0), ref["mass"](spaces.u_f, spaces.u_f, 2.0)),
        (kern.mass("u_r", "u_s", phi), ref["mass"](spaces.u_r, spaces.u_s, phi)),
        (kern.mass("p_P", "p_P", (1.0 - phi) ** 2),
         ref["mass"](spaces.p_P, spaces.p_P, (1.0 - phi) ** 2)),
        (kern.tensor_mass("u_r", "u_r", drag),
         ref["tensor_mass"](spaces.u_r, spaces.u_r, drag)),
        (kern.eps_eps("u_f", "u_f", 20.0),
         ref["eps_eps"](spaces.u_f, spaces.u_f, 20.0)),
        (kern.eps_eps("y_s", "u_r", 20.0 * phi),
         ref["eps_eps"](spaces.y_s, spaces.u_r, 20.0 * phi)),
        (kern.eps_eps("y_s", "y_s", 20.0),
         ref["eps_eps"](spaces.y_s, spaces.y_s, 20.0)),
        (kern.eps_eps("u_r", "y_s", 20.0 * phi),
         ref["eps_eps"](spaces.u_r, spaces.y_s, 20.0 * phi)),
        (kern.div_div("y_s", "y_s", 10.0 * phi),
         ref["div_div"](spaces.y_s, spaces.y_s, 10.0 * phi)),
        (kern.pressure_div("p_S", "u_f", 1.0),
         ref["pressure_div"](spaces.p_S, spaces.u_f, 1.0)),
        (kern.pressure_div("p_P", "u_r", phi),
         ref["pressure_div"](spaces.p_P, spaces.u_r, phi)),
        # a scalar trial makes the gradient form -(div v, p)
        (kern.pressure_div("u_r", "p_P", phi),
         -np.transpose(ref["pressure_div"](spaces.p_P, spaces.u_r, phi),
                       (0, 2, 1))),
        (kern.pressure_div("y_s", "p_P", 1.0),
         -np.transpose(ref["pressure_div"](spaces.p_P, spaces.y_s, 1.0),
                       (0, 2, 1))),
    ]
    for got, want in cases:
        name = got[:2]
        rows, cols = (_cell_dofs(getattr(spaces, n)) for n in name)
        assert want.shape == (rows.shape[0], rows.shape[1], cols.shape[1]), name
        assert np.array_equal(got[2], rows) and np.array_equal(got[3], cols), name
        assert got[4].shape == want.shape, name
        got_local = got[4].reshape(want.shape[0], -1)
        want_local = want.reshape(want.shape[0], -1)
        scale = np.abs(want_local).max(axis=1)
        assert np.all(scale > 0.0), name
        assert np.all(np.abs(got_local - want_local).max(axis=1) <= 1e-14 * scale), name
        cut = forms._cut_residues(want.copy())
        assert np.array_equal(got[4] != 0.0, cut != 0.0), name


@pytest.mark.parametrize("kind", INTERFACE_MESHES)
@pytest.mark.parametrize("varsigma", [-1, 0, 1])
def test_interface_assemblers_match_per_facet_reference(kind, varsigma):
    # the all-facets assemblers against the facet-by-facet loops they
    # replaced, summed into CSR matrices per destination: the batched parts
    # split by the routing rule, the per-facet ones routed by hand
    import _per_facet
    spaces = build_spaces(interface_mesh(kind))
    nitsche = NitscheParams(gamma=40.0, varsigma=varsigma)
    for alpha in (1.0, 0.0):
        params = PhysicalParams(**{**REFERENCE_PARAMS, "alpha_bjs": alpha})
        ctx = AssemblyContext(spaces, params, nitsche)
        pairs = [
            (lambda dest: record_parts(ctx, INTERFACE_TERMS, dest, "slip"),
             _per_facet.assemble_bjs(ctx)),
            (lambda dest: _consistency(ctx, dest),
             _per_facet.assemble_nitsche_consistency(ctx)),
            (lambda dest: record_parts(ctx, INTERFACE_TERMS, dest, "jump_jump"),
             _per_facet.assemble_nitsche_penalty(ctx)),
        ]
        for got, want in pairs:
            for dest in ("M", "N"):
                routed = got(dest)
                assert {p[:2] for p in routed} == {p[:2] for p in want[dest]}
                got_mat = forms.from_contributions(spaces, routed)
                want_mat = forms.from_contributions(spaces, want[dest])
                scale = abs(want_mat).max() if want_mat.nnz else 0.0
                diff = abs(got_mat - want_mat).max() if got_mat.nnz else 0.0
                assert diff <= 1e-14 * scale, (alpha, dest, diff, scale)
        if alpha == 0.0:
            assert record_parts(ctx, INTERFACE_TERMS, kernel="slip") == []


def test_from_contributions_drops_rounding_residues(spaces22):
    # 0.1 + 0.2 - 0.3 sums to 5.6e-17, a residue of its terms' magnitudes
    # 0.6; an exact zero goes too, a genuine small entry 1e-9 stays
    parts = [("u_f", "u_f", [[0, 1]], [[0, 1, 2, 3]],
              [[[1.0, 0.1, 1e-9, 0.0], [0.0, 2.0, 0.0, 0.0]]]),
             ("u_f", "u_f", [[0], [0]], [[1], [1]], [[[0.2]], [[-0.3]]])]
    matrix = forms.from_contributions(spaces22, parts)
    assert 0.1 + 0.2 - 0.3 != 0.0
    assert matrix.nnz == 3
    assert matrix[0, 0] == 1.0 and matrix[0, 2] == 1e-9 and matrix[1, 1] == 2.0
    assert matrix.indices.size == matrix.data.size == 3


def test_residue_cut_keeps_couplings_of_every_scale(spaces22, table1_params,
                                                   nitsche_default):
    # kappa = 1e-16 puts the Darcy drag in N's u_r rows ~1e15 above the
    # pressure gradient -(div v, phi p_P) beside it, and K = 1e16 puts the
    # storage in M's p_P rows ~1e-17 below the solid dilation rate beside
    # it: both stay, with their values, and M and N keep the pattern of
    # the reference parameters
    extreme = PhysicalParams(**{**REFERENCE_PARAMS, "kappa": 1e-16, "K": 1e16})
    want = [assemble(AssemblyContext(spaces22, table1_params, nitsche_default))
            for assemble in (assemble_M, assemble_N)]
    got = [assemble(AssemblyContext(spaces22, extreme, nitsche_default))
           for assemble in (assemble_M, assemble_N)]
    for g, w in zip(got, want):
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.indices, w.indices)
    m, n = got
    drag = abs(block(spaces22, n, "u_r", "u_r")).max()
    grad_p = block(spaces22, n, "u_r", "p_P").toarray()
    assert np.abs(grad_p).max() < 1e-12 * drag
    np.testing.assert_allclose(grad_p, block(spaces22, want[1], "u_r", "p_P").toarray(),
                               rtol=1e-14, atol=0.0)
    dilation = abs(block(spaces22, m, "p_P", "y_s")).max()
    storage = block(spaces22, m, "p_P", "p_P").toarray()
    assert 0.0 < np.abs(storage).max() < 1e-12 * dilation
    np.testing.assert_allclose(storage,
                               1e-16 * block(spaces22, want[0], "p_P", "p_P").toarray(),
                               rtol=1e-14, atol=0.0)
