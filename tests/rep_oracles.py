"""Dense counting oracles for representation multiplicities and hom spaces.

The library counts both from characters.  These count them by linear
algebra on the matrices themselves, independently of the irrep table's
characters: the rank of a character projector and the null space of the
vectorized commutation system.
"""

import numpy as np


def projector_rank(p: np.ndarray) -> int:
    """Rank of a symmetric idempotent via eigenvalue counting at 0.5."""
    eigs = np.linalg.eigvalsh(0.5 * (p + p.T))
    return int(np.sum(eigs > 0.5))


def kron_hom_dimension(rep_a, rep_b) -> int:
    """Dimension of ``{T : rho_b(g) T = T rho_a(g)}`` from the SVD of the Kronecker system."""
    da, db = rep_a.dim, rep_b.dim
    system = np.concatenate([
        np.kron(rep_b.matrices[g], np.eye(da)) - np.kron(np.eye(db), rep_a.matrices[g].T)
        for g in rep_a.group.elements()
    ])
    svals = np.linalg.svd(system, compute_uv=False)
    tol = 1e-8 * max(1.0, svals[0] if svals.size else 0.0)
    return int(np.sum(svals <= tol)) + max(0, da * db - svals.size)
