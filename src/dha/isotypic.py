"""Isotypic decomposition of real orthogonal representations.

Any representation of a supported group splits into orthogonal isotypic
components, one per irrep, each holding all copies of that irrep.  This
module computes the orthogonal change of basis that makes every group
matrix exactly block-diagonal with explicit irrep blocks, plus the
projectors and per-block component extraction built on top of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import frozen_array
from .groups import Irrep, Representation, conjugate_representation, irreps_real

__all__ = [
    "DecompositionError",
    "IsotypicBlock",
    "IsotypicBasis",
    "character_projector",
    "isotypic_basis",
    "isotypic_project",
    "is_g_stable",
    "save_isotypic_basis",
]


class DecompositionError(ValueError):
    """Raised when an isotypic alignment cannot be computed; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class IsotypicBlock:
    """One isotypic component: ``multiplicity`` copies of ``irrep``."""

    irrep: Irrep
    multiplicity: int
    offset: int

    @property
    def size(self) -> int:
        return self.irrep.dim * self.multiplicity

    @property
    def label(self) -> str:
        return self.irrep.label

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.size)


@dataclass(frozen=True)
class IsotypicBasis:
    """A decomposed space: the orthogonal change of basis exposing its isotypic blocks.

    Rows of ``q`` are the new basis vectors expressed in the original one,
    so ``q @ rho(g) @ q.T`` is block-diagonal and equals, inside block
    ``i``, the direct sum of ``multiplicity`` copies of the stored irrep
    matrices.  This record is all the commutant
    (:func:`~dha.commutant.commutant_basis`) and the models built on it need.

    Construction measures the record once: ``tolerance_report`` holds its
    ``"orthogonality"`` and ``"conjugation"`` residuals.  It rejects
    nothing itself; :func:`isotypic_basis` and
    :func:`~dha.commutant.commutant_basis` each bound what they read.
    """

    q: np.ndarray
    blocks: tuple
    source_rep: Representation
    tolerance_report: dict = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q", frozen_array(self.q))
        object.__setattr__(self, "tolerance_report", {
            "orthogonality": self.orthogonality_residual(),
            "conjugation": self.conjugation_residual(),
        })

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def group(self):
        return self.source_rep.group

    def rotated_rep(self) -> Representation:
        """The source representation conjugated into this basis."""
        return conjugate_representation(self.source_rep, self.q, "isotypic")

    def conjugation_residual(self) -> float:
        """``max_g ||q rho(g) q^T - E(g)||_F``, ``E(g)`` the stored irrep copies of each block."""
        diff = self.q @ self.source_rep.matrices @ self.q.T
        for blk in self.blocks:
            for o in range(blk.offset, blk.offset + blk.size, blk.irrep.dim):
                diff[:, o:o + blk.irrep.dim, o:o + blk.irrep.dim] -= blk.irrep.matrices
        return float(np.max(np.linalg.norm(diff, axis=(1, 2))))

    def orthogonality_residual(self) -> float:
        return float(np.linalg.norm(self.q @ self.q.T - np.eye(self.dim)))


def character_projector(rep: Representation, irrep: Irrep) -> np.ndarray:
    """Orthogonal projector onto the isotypic component of ``irrep``.

    Uses the real character chi of the stored irrep matrices:
    ``P = d / (e |G|) * sum_g chi(g) rho(g)`` with ``e`` the irrep's
    endomorphism dimension, so rotation-type conjugate pairs are covered
    jointly and the result stays idempotent.
    """
    if rep.group != irrep.group:
        raise ValueError("representation and irrep belong to different groups")
    chi = irrep.character()
    scale = irrep.dim / (irrep.endomorphism_dim * rep.group.order)
    return scale * np.einsum("g,gij->ij", chi, rep.matrices)


def _matrix_unit(rep: Representation, irrep: Irrep, k: int, l: int) -> np.ndarray:
    """Transfer operator ``(d/|G|) sum_g irrep(g)[k, l] rho(g)``.

    Maps the ``l``-th basis slot of an irrep copy to the ``k``-th; the
    ``(0, 0)`` unit is the seed projector used to pick out copies.
    """
    coeff = irrep.matrices[:, k, l]
    scale = irrep.dim / rep.group.order
    return scale * np.einsum("g,gij->ij", coeff, rep.matrices)


#: Computed bases, keyed on the group (its cyclic factors and composition
#: table), the space label and the matrix bytes; least recently used
#: entries are dropped beyond ``_BASIS_CACHE_SIZE``.
_BASIS_CACHE: dict = {}
_BASIS_CACHE_SIZE = 16


def isotypic_basis(rep: Representation) -> IsotypicBasis:
    """Compute the isotypic basis of ``rep`` over the irreps of :func:`irreps_real`.

    Copies inside a component are aligned so the conjugated block equals
    exact direct sums of the stored irrep matrices: seeds are drawn from
    the image of the ``(0, 0)`` matrix-unit projector, each copy's basis
    is generated by the ``(k, 0)`` transfer operators, and copies are
    orthonormalized jointly.  Blocks with multiplicity zero are omitted.
    Results are memoized: an equal representation gets the same basis
    object as the first call.

    Raises
    ------
    DecompositionError
        If the conjugation residual exceeds 1e-6 after refinement.
    """
    group = rep.group
    key = (group.factors, group.compose_table.tobytes(), rep.space_label, rep.matrices.tobytes())
    basis = _BASIS_CACHE.pop(key, None)
    if basis is None:
        basis = _compute_isotypic_basis(rep)
    _BASIS_CACHE[key] = basis
    if len(_BASIS_CACHE) > _BASIS_CACHE_SIZE:
        del _BASIS_CACHE[next(iter(_BASIS_CACHE))]
    return basis


def _compute_isotypic_basis(rep: Representation) -> IsotypicBasis:
    table = irreps_real(rep.group)
    dim = rep.dim
    rows = []
    blocks = []
    offset = 0
    # Counts are rounded, not checked: the residual checks below reject a malformed rep.
    for irrep, mult in zip(table, table.multiplicities(rep, tol=0.5).tolist()):
        if mult <= 0:
            continue
        d = irrep.dim
        units = [_matrix_unit(rep, irrep, k, 0) for k in range(d)]
        block_vecs = _align_copies(units, mult, irrep.label)
        rows.extend(block_vecs)
        blocks.append(IsotypicBlock(irrep, mult, offset))
        offset += d * mult
    if offset != dim:
        raise DecompositionError(
            f"isotypic blocks account for {offset} of {dim} dimensions"
        )
    q = _joint_orthonormalize(np.array(rows))
    basis = IsotypicBasis(q, tuple(blocks), rep)
    resid = basis.tolerance_report["conjugation"]
    if resid > 1e-6:
        raise DecompositionError(f"conjugation residual {resid:.3e} exceeds 1e-6", residual=resid)
    return basis


def _align_copies(units, mult, label):
    """Pick copy seeds from the seed projector image and generate copies.

    Seeds are chosen greedily from the columns of the seed projector
    (largest residual against the span already generated, ties broken by
    the smaller column index).  The whole copy inherits the seed's sign,
    fixed so the seed's largest-magnitude entry is positive; flipping a
    full copy leaves the conjugated irrep block unchanged.
    """
    seed_proj = units[0]
    dim = seed_proj.shape[0]
    d = len(units)
    copies = []
    span = np.zeros((dim, 0))
    for _ in range(mult):
        resid = seed_proj - span @ (span.T @ seed_proj)
        norms = np.linalg.norm(resid, axis=0)
        j = int(np.argmax(norms))
        if norms[j] < 1e-8:
            raise DecompositionError(
                f"could not extract {mult} copies of {label}: seed residual {norms[j]:.3e}"
            )
        seed = resid[:, j] / norms[j]
        # Reproject once for numerical orthogonality against earlier copies.
        if span.shape[1]:
            seed = seed - span @ (span.T @ seed)
            seed = seed / np.linalg.norm(seed)
        pivot = int(np.argmax(np.abs(seed)))
        if seed[pivot] < 0:
            seed = -seed
        vecs = [u @ seed for u in units]
        copies.append((pivot, len(copies), vecs))
        span = np.concatenate([span, np.stack(vecs, axis=1)], axis=1)
    copies.sort(key=lambda item: (item[0], item[1]))
    out = []
    for _, _, vecs in copies:
        out.extend(vecs)
    return out


def _joint_orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt cleanup preserving row order and near-identity."""
    q = rows.astype(np.float64).copy()
    n = q.shape[0]
    for i in range(n):
        for j in range(i):
            q[i] -= (q[j] @ q[i]) * q[j]
        nrm = np.linalg.norm(q[i])
        if nrm < 1e-10:
            raise DecompositionError(f"basis row {i} degenerated during orthonormalization")
        q[i] /= nrm
    return q


def isotypic_project(x: np.ndarray, basis: IsotypicBasis, block_index: int) -> np.ndarray:
    """Component of ``x`` in one isotypic block, expressed in the original basis.

    Accepts ``(..., dim)`` input.  Components over all blocks sum back to
    ``x`` and are mutually orthogonal.
    """
    if not 0 <= block_index < len(basis.blocks):
        raise IndexError(f"block index {block_index} out of range ({len(basis.blocks)} blocks)")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != basis.dim:
        raise ValueError(f"vector width {x.shape[-1]} does not match dim {basis.dim}")
    qb = basis.q[basis.blocks[block_index].slice]
    return (x @ qb.T) @ qb


def is_g_stable(subspace_basis: np.ndarray, rep: Representation, tol: float = 1e-9) -> bool:
    """Whether the span of the given column vectors is preserved by the group.

    Measured as the largest residual of ``rho(g) V`` after projection onto
    ``span(V)``.  Rank-deficient input is rejected.
    """
    v = np.atleast_2d(np.asarray(subspace_basis, dtype=np.float64))
    if v.shape[0] != rep.dim:
        raise ValueError(f"subspace basis must have {rep.dim} rows")
    svals = np.linalg.svd(v, compute_uv=False)
    if svals.size == 0 or svals[-1] < 1e-10 * max(1.0, svals[0]):
        raise ValueError("subspace basis columns are not linearly independent")
    u, _ = np.linalg.qr(v)
    moved = np.einsum("gij,jk->gik", rep.matrices, u)
    resid = moved - np.einsum("ij,gjk->gik", u @ u.T, moved)
    return float(np.max(np.linalg.norm(resid, axis=(1, 2)))) <= tol


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_isotypic_basis(basis: IsotypicBasis, path):
    """Write the basis as JSON: group, blocks, ``q`` row-major and the tolerance report."""
    doc = {
        "group": basis.group.descriptor,
        "dim": basis.dim,
        "blocks": [
            {"irrep": blk.label, "d": blk.irrep.dim, "m": blk.multiplicity, "offset": blk.offset}
            for blk in basis.blocks
        ],
        "q": [float(v) for v in basis.q.reshape(-1)],
        "tolerance_report": dict(basis.tolerance_report),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))
