"""Fingerprints of the assembled operators, for checking a refactor bit for bit.

    python tests/operator_hashes.py             # fpsi from this checkout's src
    python tests/operator_hashes.py OTHER/src   # fpsi from another checkout

For each configuration below it prints the SHA-256 (first 24 hex digits) of
the pattern (``indices`` and ``indptr``) and of the values (``data``) of M,
N and E, and of the load vector F with the manufactured sources and
interface corrections at t = T/2.  A second line per configuration holds
the SHA-256 of the state after three ``march`` steps of tau = 1e-3 with
convection on, from a seeded random state with zero Dirichlet dofs, drawn
as ``fpsi energy-check`` draws its start.  A change that must not move the
discrete problem prints the same lines as its parent: run it on both
checkouts and diff the output.

Given OTHER/src, it prints OTHER's lines and then, per configuration, the
largest entrywise deviation of this checkout's M, N and E from OTHER's,
relative to the largest magnitude in the entry's row of either, and that of
the state, relative to the largest magnitude of either state, so that a
change of the values at rounding level can be reviewed.  Pytest does not
collect this file.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

KAPPA = [[2.0, 0.5], [0.5, 1.0]]
CHANNEL = dict(rho_f=1.0, rho_s=1.0, mu_f=0.01, mu_p=1.0336e3, lam_p=4.9364e4,
               phi=0.3, kappa=1e-3, K=1e6, theta=0.0, alpha_bjs=1.0)
HALF_FINAL_TIME = 5e-4
STATE_STEPS, STATE_TAU, STATE_SEED = 3, 1e-3, 0
HERE = Path(__file__).resolve().parent


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


def random_start(forms, spaces):
    """A ``forms.StateVector`` of seeded uniform draws, zero at the Dirichlet dofs."""
    rng = np.random.default_rng(STATE_SEED)
    vector = np.zeros(spaces.size)
    for name, space in zip(forms.BLOCK_NAMES, spaces):
        block = vector[spaces.slice(name)]
        block[:] = rng.uniform(-1.0, 1.0, space.ndofs)
        block[space.dirichlet_dofs] = 0.0
    # a checkout from before ``StateVector(spaces, vector)`` has ``from_vector``
    return getattr(forms.StateVector, "from_vector", forms.StateVector)(spaces, vector)


def operators(src):
    """[(name, {"M", "N", "E", "F", "state"})] of every configuration, by fpsi
    from ``src``."""
    # a fresh import of fpsi, and of the helpers that import it, from ``src``
    for module in [m for m in sys.modules if m.split(".")[0] in ("fpsi", "_helpers")]:
        del sys.modules[module]
    sys.path.insert(0, str(src))
    try:
        from fpsi import forms, solver, verification
        out = []
        for name, mesh, physics, gamma, varsigma in configurations():
            params = forms.PhysicalParams(**physics)
            spaces = forms.build_spaces(mesh)
            nitsche = forms.NitscheParams(gamma=gamma, varsigma=varsigma)
            ctx = forms.AssemblyContext(spaces, params, nitsche)
            m, n = forms.assemble_M(ctx), forms.assemble_N(ctx)
            f = forms.assemble_F(ctx, verification.derive_sources(params),
                                 HALF_FINAL_TIME, verification.derive_corrections(params))
            stepper = solver.TimeStepper(
                spaces, params, nitsche,
                solver.TimeGrid(tau=STATE_TAU, final=STATE_STEPS * STATE_TAU))
            state = solver.march(stepper, random_start(forms, spaces))
            out.append((name, {"M": m, "N": n, "E": forms.energy_matrix(spaces, m, n),
                               "F": f, "state": state.vector()}))
        return out
    finally:
        sys.path.remove(str(src))


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:24]


def deviation(a, b):
    """max |a - b| over the entries, each relative to its row's largest |a| or |b|."""
    diff = abs(a - b).tocoo()
    scale = np.maximum(abs(a).max(axis=1).toarray().ravel(),
                       abs(b).max(axis=1).toarray().ravel())
    return float(np.max(diff.data / scale[diff.row], initial=0.0))


def main(src):
    ops = operators(src)
    for name, mats in ops:
        sums = [f"{label} pattern {digest(mats[label].indices, mats[label].indptr)} "
                f"data {digest(mats[label].data)}" for label in ("M", "N", "E")]
        print(f"{name}: " + "  ".join(sums + [f"F {digest(mats['F'])}"]))
    for name, mats in ops:
        print(f"{name}: state {digest(mats['state'])}")
    if Path(src).resolve() == (HERE.parent / "src").resolve():
        return
    print(f"largest deviation of {HERE.parent / 'src'} from {src}, "
          "per row's largest entry (the state's: per its largest entry):")
    for (name, other), (_, own) in zip(ops, operators(HERE.parent / "src")):
        a, b = own["state"], other["state"]
        state = float(np.abs(a - b).max()) / max(np.abs(a).max(), np.abs(b).max())
        print(f"{name}: " + "  ".join(
            [f"{label} {deviation(own[label], other[label]):.2e}" for label in ("M", "N", "E")]
            + [f"state {state:.2e}"]))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else HERE.parent / "src")
