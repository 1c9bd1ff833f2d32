"""Fingerprints of the assembled operators, for checking a refactor bit for bit.

    python tests/operator_hashes.py             # fpsi from this checkout's src
    python tests/operator_hashes.py OTHER/src   # fpsi from another checkout

For each configuration below it prints the SHA-256 (first 24 hex digits) of
the ``data``, ``indices`` and ``indptr`` of M, N and E, and of the load
vector F with the manufactured sources and interface corrections at
t = T/2.  A change that must not move the discrete problem prints the same
lines as its parent: run it on both checkouts and diff the output.  Pytest
does not collect this file.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

KAPPA = [[2.0, 0.5], [0.5, 1.0]]
CHANNEL = dict(rho_f=1.0, rho_s=1.0, mu_f=0.01, mu_p=1.0336e3, lam_p=4.9364e4,
               phi=0.3, kappa=1e-3, K=1e6, theta=0.0, alpha_bjs=1.0)
HALF_FINAL_TIME = 5e-4


def configurations():
    """(name, mesh, physical parameters, gamma, varsigma) of every probe."""
    from fpsi.mesh import generate_structured
    from _helpers import REFERENCE_PARAMS as reference, interface_mesh

    anisotropic = {**reference, "kappa": KAPPA, "theta": -0.5}
    square = interface_mesh("structured")
    out = [(f"reference nx={nx}", generate_structured(nx, nx), reference, 40.0, 1)
           for nx in (4, 8, 32)]
    out += [(f"anisotropic nx=8 varsigma={s} alpha_bjs={a:g}", square,
             {**anisotropic, "alpha_bjs": a}, 40.0, s)
            for s in (-1, 0, 1) for a in (0.0, 1.0)]
    out += [("phi=0.3 K=3 rho_s=2 nx=8 varsigma=0 gamma=7", square,
             {**anisotropic, "phi": 0.3, "K": 3.0, "rho_s": 2.0}, 7.0, 0),
            ("channel 10x14 gamma=30", interface_mesh("channel"), CHANNEL, 30.0, 1),
            ("sheared nx=8 reference", interface_mesh("sheared"), reference, 40.0, 1),
            ("sheared nx=8 anisotropic", interface_mesh("sheared"), anisotropic, 40.0, 1)]
    return out


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:24]


def main(src):
    sys.path.insert(0, str(src))
    from fpsi import forms, verification

    for name, mesh, physics, gamma, varsigma in configurations():
        params = forms.PhysicalParams(**physics)
        spaces = forms.build_spaces(mesh)
        ctx = forms.AssemblyContext(spaces, params,
                                    forms.NitscheParams(gamma=gamma, varsigma=varsigma))
        m, n = forms.assemble_M(ctx), forms.assemble_N(ctx)
        e = forms.energy_matrix(spaces, m, n)
        f = forms.assemble_F(ctx, verification.derive_sources(params),
                             HALF_FINAL_TIME, verification.derive_corrections(params))
        sums = [f"{label} {digest(mat.data, mat.indices, mat.indptr)}"
                for label, mat in (("M", m), ("N", n), ("E", e))]
        print(f"{name}: " + "  ".join(sums + [f"F {digest(f)}"]))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1
         else Path(__file__).resolve().parent.parent / "src")
