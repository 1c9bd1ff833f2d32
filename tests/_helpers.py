"""Small helpers that only the tests use: the reference parameter set,
interpolation, areas, block patterns, the parts of chosen term records and
of the convection block, the meshes of the interface reference tests."""

import dataclasses

import numpy as np

from fpsi import forms
from fpsi.fem import _eval_field
from fpsi.forms import BLOCK_NAMES
from fpsi.mesh import _signed_area, generate_channel, generate_structured

# The non-dimensional set of the manufactured verification problem, which is
# also every physics default of an empty config file: the field defaults of
# ``forms.PhysicalParams``, which the physics rows of ``cli.KEYS`` read.
REFERENCE_PARAMS = dict(rho_f=1.0, rho_s=1.0, mu_f=10.0, mu_p=10.0,
                        lam_p=10.0, phi=0.1, kappa=1.0, K=1.0, theta=0.0,
                        alpha_bjs=1.0)


def interpolate(space, field, time=0.0):
    """Nodal interpolant: the field's values at every Lagrange node, in dof order."""
    x, y = space.node_coords[:, 0], space.node_coords[:, 1]
    return _eval_field(field, time, x, y, space.components).ravel()


def cell_areas(mesh):
    """Signed cell areas: positive for counterclockwise cells."""
    p = mesh.vertices[mesh.cells]
    return _signed_area(p[:, 0], p[:, 1], p[:, 2])


def subdomain_area(mesh, subdomain):
    return float(cell_areas(mesh)[mesh.cells_in(subdomain)].sum())


def block(spaces, matrix, test, trial):
    """The (test, trial) block of a monolithic matrix."""
    return matrix[spaces.slice(test), spaces.slice(trial)]


def block_pattern(spaces, matrix):
    """Set of (test, trial) block pairs of a monolithic matrix holding nonzeros."""
    pruned = matrix.copy()
    pruned.eliminate_zeros()
    return {(test, trial) for test in BLOCK_NAMES for trial in BLOCK_NAMES
            if block(spaces, pruned, test, trial).nnz}


def convection_parts(ctx, block):
    """``assemble_convection``'s scalar block as two parts, one per u_f component."""
    nodes = 2 * ctx.spaces.u_f.cell_dofs
    return [("u_f", "u_f", dofs, dofs, block) for dofs in (nodes, nodes + 1)]


def record_parts(ctx, terms, dest=None, kernel=None):
    """The parts of the records of one term table with ``dest`` and ``kernel``.

    ``None`` takes every destination or kernel.  The parts come in table
    order, one per record and not summed per block, and a record whose
    coefficient is exactly zero adds none, as ``assemble_M`` and
    ``assemble_N`` evaluate them.
    """
    kernels = forms._Kernels if terms is forms.VOLUME_TERMS else forms._FacetKernels
    return forms._parts(kernels(ctx), [t for t in terms if dest in (None, t.dest)
                                       and kernel in (None, t.kernel)])


# Interfaces of the per-facet reference tests: flat with S below, two flat
# lines with S between them, and slanted (y += 0.3 x), where a sign or
# component error in a normal or tangent no longer cancels.
INTERFACE_MESHES = ("structured", "channel", "sheared")


def interface_mesh(kind):
    """The mesh of one of ``INTERFACE_MESHES``."""
    if kind == "channel":
        return generate_channel(10, 14)
    square = generate_structured(8, 8)
    if kind == "structured":
        return square
    return dataclasses.replace(square, vertices=square.vertices @ np.array(
        [[1.0, 0.3], [0.0, 1.0]]))
