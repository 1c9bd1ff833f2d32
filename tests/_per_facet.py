"""Facet-by-facet interface tables and assemblers, kept as test references.

``forms`` treats all interface facets at once from ``ctx.facet_stack``.
This module builds the same tables one facet at a time from the rows of the
context's interface facet table, with its own reference-point solve,
inverse Jacobian and traces, and holds the per-facet loops of the BJS,
Nitsche consistency and Nitsche penalty assemblers that the batched ones
replaced.
"""

import numpy as np

from fpsi import fem


def facet_tables(ctx):
    """One dict per interface facet: its frame, h_E, points, weights, basis tables."""
    mesh, pairs = ctx.mesh, ctx.pairs
    s = ctx.seg_rule.points[:, 0]
    facets = []
    for f in range(len(pairs)):
        pa = mesh.vertices[pairs.vertex_ids[f, 0]]
        pb = mesh.vertices[pairs.vertex_ids[f, 1]]
        xq = pa[None, :] + s[:, None] * (pb - pa)[None, :]
        h_e = float(pairs.h_e[f])
        data = {"normal_s": pairs.normal_s[f], "normal_p": -pairs.normal_s[f],
                "tangent": pairs.tangent[f], "h_e": h_e,
                "x": xq, "w": ctx.seg_rule.weights * h_e}
        for side, cell in (("S", pairs.cell_s[f]), ("P", pairs.cell_p[f])):
            tri = mesh.cells[cell]
            p0 = mesh.vertices[tri[0]]
            jac = np.stack([mesh.vertices[tri[1]] - p0,
                            mesh.vertices[tri[2]] - p0], axis=1)
            ref = np.linalg.solve(jac, (xq - p0).T).T
            inv_jac = np.linalg.inv(jac)
            for deg in (1, 2):
                phi, dphi = fem.tabulate(deg, ref)
                data[(side, deg, "phi")] = phi
                data[(side, deg, "grad")] = np.einsum("qld,de->qle", dphi, inv_jac)
            data[(side, "cell")] = cell
        facets.append(data)
    return facets


def facet_cell_dofs(space, facet):
    cell = facet[(space.subdomain, "cell")]
    pos = int(np.searchsorted(space.cells, cell))
    dofs = space.cell_dofs[pos]
    if space.components == 2:
        return (2 * dofs[:, None] + np.arange(2)[None, :]).ravel()
    return dofs


def trace_normal(space, facet, normal):
    """n . (basis vector dof) at facet quad points: (nq, 2*nloc)."""
    phi = facet[(space.subdomain, space.degree, "phi")]
    nq, nl = phi.shape
    out = np.empty((nq, 2 * nl))
    out[:, 0::2] = normal[0] * phi
    out[:, 1::2] = normal[1] * phi
    return out


def trace_tangent(space, facet, tangent):
    return trace_normal(space, facet, tangent)


def trace_values(space, facet):
    return facet[(space.subdomain, space.degree, "phi")]


def trace_stress_nn(space, facet, normal):
    """(eps(basis) n) . n per vector dof: (nq, 2*nloc)."""
    grad = facet[(space.subdomain, space.degree, "grad")]
    gn = grad @ normal
    nq, nl = gn.shape
    out = np.empty((nq, 2 * nl))
    out[:, 0::2] = normal[0] * gn
    out[:, 1::2] = normal[1] * gn
    return out


def _facet_part(rows_map, cols_map, local):
    """(row_dofs, col_dofs, local) of a part on this one facet."""
    return rows_map[None, :], cols_map[None, :], local[None, :, :]


def _outer(w, rows_t, cols_t):
    return np.einsum("q,qa,qb->ab", w, rows_t, cols_t)


def assemble_bjs(ctx):
    spaces, params = ctx.spaces, ctx.params
    m_parts, n_parts = [], []
    coeff = params.mu_f * params.alpha_bjs
    if coeff == 0.0:
        return {"M": m_parts, "N": n_parts}
    for facet in facet_tables(ctx):
        tangent = facet["tangent"]
        z_perm = tangent @ params.kappa @ tangent
        w = facet["w"] * (coeff / np.sqrt(z_perm))
        tt_f = trace_tangent(spaces.u_f, facet, tangent)
        tt_y = trace_tangent(spaces.y_s, facet, tangent)
        tt_r = trace_tangent(spaces.u_r, facet, tangent)
        d_f = facet_cell_dofs(spaces.u_f, facet)
        d_y = facet_cell_dofs(spaces.y_s, facet)
        d_r = facet_cell_dofs(spaces.u_r, facet)
        n_parts.append(("u_f", "u_f", *_facet_part(d_f, d_f, _outer(w, tt_f, tt_f))))
        n_parts.append(("y_s", "u_f", *_facet_part(d_y, d_f, -_outer(w, tt_y, tt_f))))
        m_parts.append(("u_f", "y_s", *_facet_part(d_f, d_y, -_outer(w, tt_f, tt_y))))
        m_parts.append(("y_s", "y_s", *_facet_part(d_y, d_y, _outer(w, tt_y, tt_y))))
        n_parts.append(("u_r", "u_r", *_facet_part(d_r, d_r, _outer(w, tt_r, tt_r))))
    return {"M": m_parts, "N": n_parts}


def _jumps(spaces, facet):
    return [(name, trace_normal(space, facet, facet[normal]),
             facet_cell_dofs(space, facet))
            for name, space, normal in (("u_f", spaces.u_f, "normal_s"),
                                        ("u_r", spaces.u_r, "normal_p"),
                                        ("y_s", spaces.y_s, "normal_p"))]


def assemble_nitsche_consistency(ctx):
    spaces = ctx.spaces
    sig = float(ctx.nitsche.varsigma)
    two_mu = 2.0 * ctx.params.mu_f
    m_parts, n_parts = [], []
    for facet in facet_tables(ctx):
        w = facet["w"]
        snn_f = trace_stress_nn(spaces.u_f, facet, facet["normal_s"])
        pv = trace_values(spaces.p_S, facet)
        d_f = facet_cell_dofs(spaces.u_f, facet)
        d_ps = facet_cell_dofs(spaces.p_S, facet)
        for name, jn, dofs in _jumps(spaces, facet):
            n_parts.append((name, "u_f", *_facet_part(
                dofs, d_f, -two_mu * _outer(w, jn, snn_f))))
            n_parts.append((name, "p_S", *_facet_part(dofs, d_ps, _outer(w, jn, pv))))
            dest = m_parts if name == "y_s" else n_parts
            if sig != 0.0:
                dest.append(("u_f", name, *_facet_part(
                    d_f, dofs, -sig * two_mu * _outer(w, snn_f, jn))))
            dest.append(("p_S", name, *_facet_part(d_ps, dofs, -_outer(w, pv, jn))))
    return {"M": m_parts, "N": n_parts}


def assemble_nitsche_penalty(ctx):
    m_parts, n_parts = [], []
    for facet in facet_tables(ctx):
        w = facet["w"] * (ctx.nitsche.gamma * ctx.params.mu_f / facet["h_e"])
        jumps = _jumps(ctx.spaces, facet)
        for t_name, t_jn, t_dofs in jumps:
            for u_name, u_jn, u_dofs in jumps:
                part = (t_name, u_name,
                        *_facet_part(t_dofs, u_dofs, _outer(w, t_jn, u_jn)))
                (m_parts if u_name == "y_s" else n_parts).append(part)
    return {"M": m_parts, "N": n_parts}


def interface_jump_seminorm(ctx, state, rate_y_values):
    spaces = ctx.spaces
    total = 0.0
    for facet in facet_tables(ctx):
        jn = (trace_normal(spaces.u_f, facet, facet["normal_s"])
              @ state.block("u_f")[facet_cell_dofs(spaces.u_f, facet)]
              + trace_normal(spaces.u_r, facet, facet["normal_p"])
              @ state.block("u_r")[facet_cell_dofs(spaces.u_r, facet)]
              + trace_normal(spaces.y_s, facet, facet["normal_p"])
              @ rate_y_values[facet_cell_dofs(spaces.y_s, facet)])
        total += float(facet["w"] @ jn**2) / facet["h_e"]
    return total
