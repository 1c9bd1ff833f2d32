import numpy as np
import pytest
import sympy as sp

from fpsi import fem, forms
from fpsi.forms import (AssemblyContext, BlockSystem, FormsError, NitscheParams,
                        PhysicalParams, Spaces, StateVector, assemble_bjs,
                        assemble_convection, assemble_F, assemble_M, assemble_N,
                        assemble_nitsche_consistency, assemble_nitsche_penalty,
                        assemble_volume_forms, build_spaces, penalty_matrix)
from fpsi.mesh import generate_structured, interface_pairs

from _oracles import X, Y, convection_dense, eps_eps_dense, mass_dense


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


def test_positive_theta_warns():
    with pytest.warns(UserWarning, match="sink"):
        PhysicalParams(theta=0.5)


def test_nitsche_validation():
    with pytest.raises(FormsError, match="gamma"):
        NitscheParams(gamma=-1.0)
    with pytest.raises(FormsError, match="varsigma"):
        NitscheParams(gamma=10.0, varsigma=2)


def test_derived_rho_p(table1_params):
    x = np.array([0.3])
    assert abs(table1_params.rho_p_at(x, x)[0] - 1.0) < 1e-14


# --- single-element / few-element oracle checks ---------------------------------

@pytest.fixture(scope="module")
def tiny():
    mesh = generate_structured(1, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams()
    ctx = AssemblyContext(spaces, params, nitsche)
    return mesh, spaces, params, nitsche, ctx


def _triangles_of(mesh, space):
    out = []
    for c in space.cells:
        out.append([tuple(mesh.vertices[v]) for v in mesh.cells[c]])
    return out


def _dense_from_parts(spaces, parts, test, trial):
    keep = [p for p in parts if p[0] == test and p[1] == trial]
    sys = BlockSystem.from_contributions(spaces, keep)
    return sys.block(test, trial).toarray()


def test_p2_stiffness_matches_symbolic(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = assemble_volume_forms(spaces, params, ctx=ctx)
    got = _dense_from_parts(spaces, parts["N"], "u_f", "u_f")
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
    parts = assemble_volume_forms(spaces, params, ctx=ctx)
    got = _dense_from_parts(spaces, parts["N"], "u_s", "u_s")  # rho_p mass
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

    w = fem.interpolate(sp_uf, w_field)  # quadratic field, exact in P2
    part = assemble_convection(sp_uf, w, ctx)
    got = _dense_from_parts(spaces, [part], "u_f", "u_f")
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
    assert assemble_convection(spaces.u_f, None, ctx) is None
    zero = fem.FieldCoefficients(spaces.u_f, np.zeros(spaces.u_f.ndofs))
    assert assemble_convection(spaces.u_f, zero, ctx) is None


def test_convection_quadratic_form_matches_quadrature(tiny, rng):
    # c(w; u, u) from the assembled block equals direct quadrature of
    # (w . grad u) . u; for divergence-free no-outflow w it is a boundary term
    mesh, spaces, params, nitsche, ctx = tiny
    sp_uf = spaces.u_f
    w = fem.FieldCoefficients(sp_uf, rng.normal(size=sp_uf.ndofs))
    u = fem.FieldCoefficients(sp_uf, rng.normal(size=sp_uf.ndofs))
    part = assemble_convection(sp_uf, w, ctx)
    mat = _dense_from_parts(spaces, [part], "u_f", "u_f")
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
    parts = assemble_volume_forms(spaces, params, ctx=ctx)
    block = _dense_from_parts(spaces, parts["N"], "y_s", "y_s")
    const = np.tile([1.0, -2.0], spaces.y_s.num_nodes)
    assert np.abs(block @ const).max() < 1e-12


def test_divergence_theorem_for_pressure_coupling(tiny):
    # b^S(v, 1) = -int div v = -int_Sigma v . n_S for v vanishing on gamma_s
    mesh, spaces, params, nitsche, ctx = tiny
    parts = assemble_volume_forms(spaces, params, ctx=ctx)
    bt = _dense_from_parts(spaces, parts["N"], "u_f", "p_S")  # -(div v, q)
    ones_p = np.ones(spaces.p_S.ndofs)
    volume_side = bt @ ones_p  # b^S(v_i, 1) per velocity dof

    edge_side = np.zeros(spaces.u_f.ndofs)
    for facet in ctx.facet_tables():
        pair = facet["pair"]
        nc = ctx.trace_normal(spaces.u_f, facet, pair.normal_s)
        dofs = ctx.facet_cell_dofs(spaces.u_f, facet)
        edge_side[dofs] += -facet["w"] @ nc
    interior = np.setdiff1d(np.arange(spaces.u_f.ndofs),
                            spaces.u_f.dirichlet_dofs)
    assert np.abs(volume_side[interior] - edge_side[interior]).max() < 1e-13


# --- interface forms -------------------------------------------------------------

def test_bjs_zero_friction(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    free = PhysicalParams(**{**forms.REFERENCE_PARAMS, "alpha_bjs": 0.0})
    parts = assemble_bjs(spaces, free, ctx=ctx)
    assert parts["M"] == [] and parts["N"] == []


def test_bjs_tangential_unit_field():
    # unit tangential pore velocity, kappa = I, mu_f alpha = 1, |Sigma| = 1
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**{**forms.REFERENCE_PARAMS, "mu_f": 1.0,
                               "alpha_bjs": 1.0})
    ctx = AssemblyContext(spaces, params, NitscheParams())
    parts = assemble_bjs(spaces, params, ctx=ctx)
    block = _dense_from_parts(spaces, parts["N"], "u_r", "u_r")
    tang = np.tile([1.0, 0.0], spaces.u_r.num_nodes)
    assert abs(tang @ block @ tang - 1.0) < 1e-12
    normal = np.tile([0.0, 1.0], spaces.u_r.num_nodes)
    assert abs(normal @ block @ normal) < 1e-14


def test_bjs_quadratic_form_is_seminorm(tiny, rng):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = assemble_bjs(spaces, params, ctx=ctx)
    block = _dense_from_parts(spaces, parts["N"], "u_r", "u_r")
    u = rng.normal(size=spaces.u_r.ndofs)
    form_val = u @ block @ u
    direct = 0.0
    for facet in ctx.facet_tables():
        pair = facet["pair"]
        tt = ctx.trace_tangent(spaces.u_r, facet, pair.tangent)
        vals = tt @ u[ctx.facet_cell_dofs(spaces.u_r, facet)]
        coef = params.mu_f * params.alpha_bjs / np.sqrt(pair.z_perm)
        direct += coef * facet["w"] @ vals**2
    assert abs(form_val - direct) < 1e-12 * max(1.0, direct)


def test_consistency_zero_for_stress_free_field(tiny):
    # the trial-stress side of the coupling vanishes when eps(u_f) n . n = 0
    # and p_S = 0; the pure trial-side rows are u_r and y_s
    mesh, spaces, params, nitsche, ctx = tiny
    parts = assemble_nitsche_consistency(spaces, params, nitsche, ctx=ctx)
    const = np.tile([2.0, -1.0], spaces.u_f.num_nodes)
    for row in ("u_r", "y_s"):
        block = _dense_from_parts(spaces, parts["N"], row, "u_f")
        assert np.abs(block @ const).max() < 1e-13


def test_consistency_pressure_jump_pairing(tiny):
    # p_S = 1 against a unit normal test jump integrates to +1 on |Sigma| = 1
    mesh, spaces, params, nitsche, ctx = tiny
    parts = assemble_nitsche_consistency(spaces, params, nitsche, ctx=ctx)
    block = _dense_from_parts(spaces, parts["N"], "u_r", "p_S")
    v_r = np.tile([0.0, -1.0], spaces.u_r.num_nodes)  # n_P . v_r = 1
    ones = np.ones(spaces.p_S.ndofs)
    assert abs(v_r @ block @ ones - 1.0) < 1e-12


def test_consistency_varsigma_zero_drops_adjoint_velocity_rows(tiny):
    mesh, spaces, params, _, ctx = tiny
    incomplete = NitscheParams(gamma=40.0, varsigma=0)
    parts = assemble_nitsche_consistency(spaces, params, incomplete, ctx=ctx)
    names = {(p[0], p[1]) for p in parts["M"] + parts["N"]}
    assert ("u_f", "u_r") not in names  # adjoint velocity-test block gone
    assert ("p_S", "u_r") in names      # -q_S rows remain
    assert ("u_r", "u_f") in names      # trial-side stress rows remain


def test_consistency_adjoint_is_transpose_for_symmetric_variant(tiny):
    mesh, spaces, params, nitsche, ctx = tiny
    parts = assemble_nitsche_consistency(spaces, params, nitsche, ctx=ctx)
    trial_side = _dense_from_parts(spaces, parts["N"], "u_r", "u_f")
    adjoint = _dense_from_parts(spaces, parts["N"], "u_f", "u_r")
    assert np.abs(adjoint - trial_side.T).max() < 1e-12
    trial_y = _dense_from_parts(spaces, parts["N"], "y_s", "u_f")
    adjoint_y = _dense_from_parts(spaces, parts["M"], "u_f", "y_s")
    assert np.abs(adjoint_y - trial_y.T).max() < 1e-12


def test_penalty_requires_positive_gamma():
    with pytest.raises(FormsError, match="gamma"):
        NitscheParams(gamma=0.0)


@pytest.fixture(scope="module")
def penalty_22():
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    mat = penalty_matrix(spaces, params, nitsche)
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
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    mat = penalty_matrix(spaces, params, nitsche)
    state = StateVector.zero(spaces)
    state.block("u_f").values[1::2] = 1.0  # u_f . n_S = 1, others zero
    x = state.vector()
    assert abs(x @ (mat @ x) - nitsche.gamma * params.mu_f) < 1e-10


def test_penalty_linear_in_gamma(penalty_22):
    mesh, spaces, params, _, mat = penalty_22
    mat2 = penalty_matrix(spaces, params, NitscheParams(gamma=80.0))
    diff = (mat2 - 2.0 * mat).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-9


def test_penalty_coefficient_h_scaling():
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    gamma_mu = 40.0 * params.mu_f
    coarse = [gamma_mu / p.h_e for p in interface_pairs(generate_structured(4, 4))]
    fine = [gamma_mu / p.h_e for p in interface_pairs(generate_structured(8, 8))]
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
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    ctx = AssemblyContext(spaces, params, nitsche)
    m_sys = assemble_M(spaces, params, nitsche, ctx=ctx)
    prev = fem.FieldCoefficients(spaces.u_f,
                                 np.full(spaces.u_f.ndofs, 0.37))
    n_sys = assemble_N(spaces, params, nitsche, previous_velocity=prev, ctx=ctx)
    return spaces, params, nitsche, m_sys, n_sys


def test_m_block_pattern(assembled_22):
    spaces, _, _, m_sys, _ = assembled_22
    assert m_sys.block_pattern() == EXPECTED_M_PATTERN


def test_n_block_pattern(assembled_22):
    spaces, _, _, _, n_sys = assembled_22
    assert n_sys.block_pattern() == EXPECTED_N_PATTERN


def test_total_dimension(assembled_22):
    spaces, _, _, m_sys, n_sys = assembled_22
    total = sum(sp.ndofs for sp in spaces)
    assert m_sys.matrix.shape == (total, total)
    assert n_sys.matrix.shape == (total, total)


def test_mass_subblocks_symmetric(assembled_22):
    spaces, _, _, m_sys, _ = assembled_22
    for name in ("u_f", "p_P"):
        block = m_sys.block(name, name if name != "u_f" else "u_f").toarray()
        assert np.abs(block - block.T).max() < 1e-14


def test_velocity_pressure_skew_pairing():
    # B^T and -B rows are exact negative transposes (skew-symmetric variant)
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=-1)
    n_sys = assemble_N(spaces, params, nitsche)
    for vel in ("u_f", "u_r"):
        bt = n_sys.block(vel, "p_S").toarray()
        minus_b = n_sys.block("p_S", vel).toarray()
        assert np.abs(bt + minus_b.T).max() < 1e-12
    for vel, pcol in (("u_r", "p_P"), ("y_s", "p_P")):
        bt = n_sys.block(vel, pcol).toarray()
        if pcol == "p_P":
            # q_P rows pair with u_r only; y_s dilation sits in M
            other = n_sys.block(pcol, vel).toarray()
            if vel == "u_r":
                assert np.abs(bt + other.T).max() < 1e-12


def test_volume_operator_positive_semidefinite(rng):
    # with interface terms excluded (gamma -> 0, alpha = 0 limit) the
    # stationary operator is a sum of coercive forms plus skew pairings
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**{**forms.REFERENCE_PARAMS, "alpha_bjs": 0.0})
    ctx = AssemblyContext(spaces, params, NitscheParams())
    parts = assemble_volume_forms(spaces, params, ctx=ctx)
    sys = BlockSystem.from_contributions(spaces, parts["N"])
    for _ in range(50):
        x = rng.normal(size=sys.size)
        assert x @ (sys.matrix @ x) >= -1e-10 * (x @ x)


def test_assemble_f_zero_sources(assembled_22):
    spaces, params, nitsche, _, _ = assembled_22
    rhs = assemble_F(spaces, None, 0.5, params=params, nitsche=nitsche)
    assert np.abs(rhs).max() == 0.0


def test_assemble_f_theta_partition_of_unity():
    from fpsi import verification
    mesh = generate_structured(2, 2)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    sources = verification.SourceSet.from_body_forces(
        params, theta=lambda t, x, y: np.full_like(x, 2.0))
    rhs = assemble_F(spaces, sources, 0.0, params=params,
                     nitsche=NitscheParams())
    sys = BlockSystem.from_contributions(spaces, [])
    off = sys.offsets[forms.BLOCK_NAMES.index("p_P")]
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
    sources = verification.derive_sources(params, check=False)
    corrections = verification.derive_corrections(params, check=False)
    ctx = AssemblyContext(spaces, params, nitsche)
    rhs = assemble_F(spaces, sources, 0.0, corrections=corrections, ctx=ctx)

    sol = verification.ExactSolution()
    rate_only = verification.SourceSet(
        f_S=lambda t, x, y: params.rho_f * sol.dt_u_f(0.0, x, y),
        load_y_s=lambda t, x, y: (params.rho_s * 0.9) * sol.dt_u_s(0.0, x, y))
    expected = assemble_F(spaces, rate_only, 0.0, ctx=ctx)
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
    offsets = BlockSystem.from_contributions(spaces, []).offsets
    rhs = np.zeros(sum(sp.ndofs for sp in spaces))

    def scatter(block, dofs, vals):
        np.add.at(rhs, dofs + offsets[forms.BLOCK_NAMES.index(block)], vals)

    for facet in ctx.facet_tables():
        pair, w = facet["pair"], facet["w"]
        x, y = facet["x"][:, 0], facet["x"][:, 1]
        n_s, n_p, tau = pair.normal_s, pair.normal_p, pair.tangent
        c_pen = nitsche.gamma * params.mu_f / pair.h_e
        m1, m2, m4, m5 = (np.asarray(fn(time, x, y), dtype=float)
                          for fn in (corr.m1, corr.m2, corr.m4, corr.m5))
        m3 = np.asarray(corr.m3(time, x, y), dtype=float).reshape(-1, 2)

        def integral(vals, table):
            return np.einsum("q,q,qa->a", w, vals, table)

        nc_f = ctx.trace_normal(spaces.u_f, facet, n_s)
        nc_r = ctx.trace_normal(spaces.u_r, facet, n_p)
        nc_w = ctx.trace_normal(spaces.y_s, facet, n_p)
        tt_f = ctx.trace_normal(spaces.u_f, facet, tau)
        tt_r = ctx.trace_normal(spaces.u_r, facet, tau)
        tt_w = ctx.trace_normal(spaces.y_s, facet, tau)
        snn_f = ctx.trace_stress_nn(spaces.u_f, facet, n_s)
        phi_w = ctx.trace_values(spaces.y_s, facet)
        scatter("u_f", ctx.facet_cell_dofs(spaces.u_f, facet),
                integral(c_pen * m1, nc_f) - sig * two_mu * integral(m1, snn_f)
                - integral(m4, tt_f))
        scatter("p_S", ctx.facet_cell_dofs(spaces.p_S, facet, vector=False),
                -integral(m1, ctx.trace_values(spaces.p_S, facet)))
        scatter("u_r", ctx.facet_cell_dofs(spaces.u_r, facet),
                integral(c_pen * m1, nc_r) + integral(m2, nc_r)
                - integral(m5, tt_r))
        m3_vec = np.einsum("q,qk,qi->ik", w, m3, phi_w).ravel()
        scatter("y_s", ctx.facet_cell_dofs(spaces.y_s, facet),
                integral(c_pen * m1, nc_w) + m3_vec + integral(m4, tt_w))
    return rhs


@pytest.mark.parametrize("varsigma", [-1, 1])
def test_interface_corrections_match_per_facet_reference(varsigma):
    # every defect nonzero, so each term of the all-facets assembly is
    # compared with the facet-by-facet loop it replaced
    from fpsi import verification
    mesh = generate_structured(4, 4)
    spaces = build_spaces(mesh)
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    ctx = AssemblyContext(spaces, params, NitscheParams(gamma=40.0, varsigma=varsigma))
    corr = verification.InterfaceCorrections(
        m1=lambda t, x, y: t * (1.0 + x**2),
        m2=lambda t, x, y: t * np.sin(3.0 * x),
        m3=lambda t, x, y: np.stack([t * x, t - x**3], axis=-1),
        m4=lambda t, x, y: 2.0 * t * x * y,
        m5=lambda t, x, y: t * np.cos(x))
    got = assemble_F(spaces, None, 0.7, corrections=corr, ctx=ctx)
    want = _interface_corrections_per_facet(ctx, spaces, corr, 0.7)
    assert np.abs(got).max() > 0.0
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_loads_match_einsum_reference(tiny, rng):
    mesh, spaces, params, nitsche, ctx = tiny
    kern = forms._Kernels(ctx)
    for space in (spaces.u_f, spaces.u_r):
        w = ctx.geo[space.subdomain].wdet
        vals = rng.normal(size=w.shape + (2,))
        dofs, got = kern.vector_load(space, vals)
        want = np.einsum("cq,qi,cqk->cik", w, ctx.phi_table(space), vals)
        assert np.array_equal(dofs, ctx.vec_dofs(space).ravel())
        assert np.abs(got - want.ravel()).max() <= 1e-14 * np.abs(want).max()
    w = ctx.geo["P"].wdet
    vals = rng.normal(size=w.shape)
    dofs, got = kern.scalar_load(spaces.p_P, vals)
    want = np.einsum("cq,qi,cq->ci", w, ctx.phi_table(spaces.p_P), vals)
    assert np.array_equal(dofs, spaces.p_P.cell_dofs.ravel())
    assert np.abs(got - want.ravel()).max() <= 1e-14 * np.abs(want).max()


def test_exact_solution_residual_decreases():
    from fpsi import verification
    params = PhysicalParams(**forms.REFERENCE_PARAMS)
    nitsche = NitscheParams(gamma=40.0, varsigma=1)
    sol = verification.ExactSolution()
    sources = verification.derive_sources(params, check=False)
    corr = verification.derive_corrections(params, check=False)
    T = 1e-3
    norms = []
    for nx in (4, 8, 16):
        mesh = generate_structured(nx, nx)
        spaces = build_spaces(mesh)
        tau = 1e-3 / nx
        ctx = AssemblyContext(spaces, params, nitsche)
        m_sys = assemble_M(spaces, params, nitsche, ctx=ctx)

        def interp(t):
            return StateVector(
                [fem.interpolate(space, val, t) for (nm, val, gr), space
                 in zip(sol.fields(), spaces)], time=t)

        x_now, x_prev = interp(T), interp(T - tau)
        n_sys = assemble_N(spaces, params, nitsche,
                           previous_velocity=x_prev.block("u_f"), ctx=ctx)
        op = m_sys.matrix * (1.0 / tau) + n_sys.matrix
        rhs = assemble_F(spaces, sources, T, corrections=corr, ctx=ctx) \
            + (m_sys.matrix @ x_prev.vector()) / tau
        res = op @ x_now.vector() - rhs
        sys = BlockSystem(spaces, op, rhs)
        for space, off in zip(spaces, sys.offsets):
            res[space.dirichlet_dofs + off] = 0.0
        norms.append(np.linalg.norm(res))
    assert norms[1] < norms[0] / 1.9
    assert norms[2] < norms[1] / 1.9


def test_state_vector_round_trip(spaces22, rng):
    vec = rng.normal(size=sum(sp.ndofs for sp in spaces22))
    state = StateVector.from_vector(spaces22, vec, time=0.25)
    assert np.array_equal(state.vector(), vec)
    assert state.block("y_s").values.size == spaces22.y_s.ndofs


EXPECTED_M_VOLUME_PATTERN = {
    ("u_f", "u_f"), ("u_r", "u_r"), ("u_r", "u_s"), ("u_r", "y_s"),
    ("y_s", "u_r"), ("y_s", "u_s"), ("y_s", "y_s"), ("u_s", "y_s"),
    ("p_P", "p_P"), ("p_P", "y_s"),
}


def test_m_volume_pattern_reduction(tiny):
    # the gamma -> 0, alpha = 0, theta = 0 reduction of M: mass blocks,
    # Brinkman stiffness on the displacement rate, and dilation coupling
    mesh, spaces, params, nitsche, ctx = tiny
    parts = assemble_volume_forms(spaces, params, ctx=ctx)
    sys = BlockSystem.from_contributions(spaces, parts["M"])
    assert sys.block_pattern() == EXPECTED_M_VOLUME_PATTERN
