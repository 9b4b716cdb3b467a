"""Dense oracles for groups, representations, multiplicities, hom spaces and spectra.

The library counts multiplicities and hom dimensions from characters.
These count them by linear algebra on the matrices themselves,
independently of the irrep table's characters: the rank of a character
projector and the null space of the vectorized commutation system.  The
group and representation axioms are checked exhaustively on the tables,
and the eigenpair orbit property in the full space.
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


def check_associativity(group):
    """Exhaustively verify associativity of the composition table (orders <= 64)."""
    t = group.compose_table
    left = t[t, :]            # left[a, b, c] = (a*b)*c
    right = t[:, t]           # right[a, b, c] = a*(b*c)
    if not np.array_equal(left, right):
        raise AssertionError("composition table is not associative")


def validate_representation(rep, tol: float = 1e-10):
    """Check orthogonality, the homomorphism property and rho(e) = I."""
    eye = np.eye(rep.dim)
    if not np.array_equal(rep.matrices[0], eye):
        raise AssertionError("identity element is not represented by I")
    gram = np.einsum("gij,gkj->gik", rep.matrices, rep.matrices)
    worst = np.max(np.linalg.norm(gram - eye, axis=(1, 2)))
    if worst > tol:
        raise AssertionError(f"orthogonality residual {worst:.3e} > {tol:.1e}")
    prod = np.einsum("aij,bjk->abik", rep.matrices, rep.matrices)
    expected = rep.matrices[rep.group.compose_table]
    worst = np.max(np.linalg.norm(prod - expected, axis=(2, 3)))
    if worst > tol:
        raise AssertionError(f"homomorphism residual {worst:.3e} > {tol:.1e}")


def eigenvector_orbit_residual(k, rep, vals, vecs):
    """Largest ``||K rho(g) v - lam rho(g) v|| / ||v||`` over the group and the eigenpairs.

    The full-space check ``analysis.spectrum`` made before it checked each
    isotypic block on its irrep copies: one dense matvec per eigenvector
    and group element, with ``rep`` the representation in the operator's
    coordinates.
    """
    worst = 0.0
    for lam, v in zip(vals, vecs.T):
        nv = np.linalg.norm(v)
        if nv == 0:
            continue
        for g in rep.group.elements():
            gv = rep.matrices[g] @ v
            worst = max(worst, float(np.linalg.norm(k @ gv - lam * gv)) / nv)
    return worst


def cyclic_product_tables(factors):
    """``(compose_table, inverse_table)`` of ``C_{n_1} x C_{n_2} x ...`` built factor by factor.

    ``C_n`` composes as ``(i + j) mod n``; the product of ``a`` and ``b``
    numbers its elements ``id = id_a * |b| + id_b`` and composes
    componentwise.  This is the construction the groups were built by
    before they derived their tables from the factors' digits.
    """
    def cyclic(n):
        ids = np.arange(n)
        return (ids[:, None] + ids[None, :]) % n, (-ids) % n

    table, inverse = cyclic(factors[0])
    for n in factors[1:]:
        tb, invb = cyclic(n)
        ia, ib = np.divmod(np.arange(len(inverse) * n), n)
        table = table[np.ix_(ia, ia)] * n + tb[np.ix_(ib, ib)]
        inverse = inverse[ia] * n + invb[ib]
    return table, inverse
