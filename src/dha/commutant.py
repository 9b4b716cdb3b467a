"""The commutant calculus: equivariant linear maps as block coefficients.

By Schur's lemma, a linear map commuting with every group matrix is
block-diagonal per isotypic component; inside a component it acts on copy
indices, with scalars for absolutely irreducible irreps and the
two-generator algebra spanned by I and the quarter-turn J for
rotation-type ones.  A map between two decomposed spaces is therefore a
coefficient vector ``theta`` over Frobenius-orthonormal generators
``E_jk (x) S / sqrt(d)`` (output copy ``j``, input copy ``k``, stamp ``S``
in ``I``, ``J``).  A :class:`CommutantBasis` is one such space of maps:
its generators live in one sparse table of their nonzeros in isotypic
coordinates, so assembling a map is one scatter and reading its
coordinates one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import fingerprint, frozen_array
from .groups import Representation, irreps_real
from .isotypic import IsotypicBasis

__all__ = [
    "CommutantBasis",
    "EquivariantLinearMap",
    "commutant_basis",
    "hom_basis",
    "assemble",
    "coordinates",
    "equivariant_project",
    "equivariance_residual",
    "hom_space_dimension",
]

#: The quarter-turn generator of the rotation-type endomorphism algebra.
_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _stamps(irrep) -> np.ndarray:
    """Unit-norm ``(e, d, d)`` spanning set of an irrep's endomorphisms: I, then J."""
    stamps = [np.eye(irrep.dim)] + ([_J] if irrep.field_type == "complex" else [])
    return np.array(stamps) / np.sqrt(irrep.dim)


@dataclass(frozen=True)
class CommutantBasis:
    """Frobenius-orthonormal basis of the equivariant maps from ``iso_in`` to ``iso``.

    ``iso_in`` defaults to ``iso``: the commutant of that space.  Spaces of
    different groups raise ``ValueError``.  Derived at construction,
    read-only: the map ``shape`` ``(iso.dim, iso_in.dim)``; the generators'
    nonzeros ``gen``, ``pos``, ``val`` in isotypic coordinates (generator
    ``gen[i]`` holds ``val[i]`` at flat position ``pos[i]``, no two at one
    position; numbered by ``iso`` block, output copy, input copy, then
    stamp I, J), and ``block_slices``, each ``iso`` block's coordinate
    range (empty where ``iso_in`` holds no copy of its irrep).
    """

    iso: IsotypicBasis
    iso_in: IsotypicBasis | None = None

    def __post_init__(self):
        iso_in = self.iso if self.iso_in is None else self.iso_in
        if iso_in.group != self.iso.group:
            raise ValueError("spaces carry different groups")
        by_label = {blk.label: blk for blk in iso_in.blocks}
        gen, pos, val = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
        slices, n = [], 0
        for blk_out in self.iso.blocks:
            blk_in, start = by_label.get(blk_out.label), n
            if blk_in is not None:
                stamps = _stamps(blk_in.irrep)
                e, d = stamps.shape[:2]
                s, r, c = np.nonzero(stamps)
                pair = np.arange(blk_out.multiplicity * blk_in.multiplicity)[:, None]
                j, k = np.divmod(pair, blk_in.multiplicity)
                gen.append((n + pair * e + s).ravel())
                pos.append(((blk_out.offset + j * d + r) * iso_in.dim + blk_in.offset + k * d + c).ravel())
                val.append(np.tile(stamps[s, r, c], pair.size))
                n += pair.size * e
            slices.append(slice(start, n))
        object.__setattr__(self, "iso_in", iso_in)
        object.__setattr__(self, "shape", (self.iso.dim, iso_in.dim))
        for name, parts in (("gen", gen), ("pos", pos), ("val", val)):
            object.__setattr__(self, name, frozen_array(np.concatenate(parts), parts[0].dtype))
        object.__setattr__(self, "block_slices", tuple(slices))
        object.__setattr__(self, "_n", n)

    def __len__(self):
        return self._n

    @property
    def blocks(self) -> tuple:
        """Block layout of the output space ``iso``."""
        return self.iso.blocks

    def assemble(self, theta: np.ndarray) -> np.ndarray:
        """``sum_l theta[..., l] B_l`` in isotypic coordinates; ``theta = I`` expands every generator."""
        out = np.zeros(theta.shape[:-1] + (self.shape[0] * self.shape[1],))
        out[..., self.pos] = theta[..., self.gen] * self.val
        return out.reshape(theta.shape[:-1] + self.shape)

    def coordinates(self, a: np.ndarray) -> np.ndarray:
        """Frobenius coordinates ``<A, B_l>`` of an isotypic-coordinate matrix."""
        return np.bincount(self.gen, a.reshape(-1)[self.pos] * self.val, minlength=len(self))

    def matrix(self, theta: np.ndarray) -> np.ndarray:
        """:meth:`assemble` in the original bases of both spaces."""
        return self.iso.q.T @ self.assemble(theta) @ self.iso_in.q

    def matrix_coordinates(self, a: np.ndarray) -> np.ndarray:
        """:meth:`coordinates` of a matrix given in the original bases of both spaces."""
        return self.coordinates(self.iso.q @ a @ self.iso_in.q.T)

    @cached_property
    def trivial_columns(self) -> np.ndarray:
        """Orthonormal columns, in ``iso``'s original basis, spanning its trivial component."""
        for blk in self.iso.blocks:
            if blk.label == "triv":
                return frozen_array(self.iso.q[blk.slice].T)
        return np.zeros((self.iso.dim, 0))

    @property
    def basis_matrices(self) -> np.ndarray:
        """The generators as a dense ``(n, dim, dim_in)`` stack, expanded on access."""
        return frozen_array(self.assemble(np.eye(len(self))))

    def layout_fingerprint(self) -> str:
        layout = [
            [blk.label, blk.irrep.dim, blk.multiplicity, blk.irrep.endomorphism_dim]
            for blk in self.blocks
        ]
        return fingerprint(
            {"group": self.iso.group.descriptor, "dim": self.iso.dim, "blocks": layout}
        )


@dataclass(frozen=True)
class EquivariantLinearMap:
    """An equivariant map as free coordinates over a :class:`CommutantBasis`."""

    basis: CommutantBasis
    theta: np.ndarray

    def __post_init__(self):
        theta = frozen_array(self.theta)
        if theta.shape != (len(self.basis),):
            raise ValueError(
                f"theta has length {theta.shape}, commutant dimension is {len(self.basis)}"
            )
        object.__setattr__(self, "theta", theta)


def commutant_basis(iso: IsotypicBasis) -> CommutantBasis:
    """Basis of all maps commuting with the representation of a decomposed space.

    The maps act in ``iso``'s isotypic coordinates, where the group
    matrices must be block-diagonal in irrep copies: a conjugation residual
    (``iso.tolerance_report``) above 1e-8 raises ``ValueError``.  The basis
    size is ``sum_i m_i^2 e_i`` with ``e_i`` the irrep endomorphism dimension.
    """
    resid = iso.tolerance_report["conjugation"]
    if resid > 1e-8:
        raise ValueError(f"isotypic basis is not block-aligned with its layout (residual {resid:.3e})")
    return CommutantBasis(iso)


def hom_basis(basis_in: IsotypicBasis, basis_out: IsotypicBasis) -> np.ndarray:
    """Orthonormal basis of equivariant maps between two decomposed spaces.

    Returns ``(n, dim_out, dim_in)`` matrices expressed in the ORIGINAL
    bases of both spaces (the isotypic changes of basis are folded in).
    Generators pair copies of matching irreps; inequivalent irreps
    contribute nothing.
    """
    basis = CommutantBasis(basis_out, basis_in)
    return basis.matrix(np.eye(len(basis)))


def assemble(emap: EquivariantLinearMap) -> np.ndarray:
    """Dense matrix ``sum_l theta_l B_l`` of an equivariant map (one scatter)."""
    return emap.basis.assemble(emap.theta)


def coordinates(a: np.ndarray, basis: CommutantBasis) -> np.ndarray:
    """Frobenius coordinates ``<A, B_l>`` of a matrix over a commutant basis (one gather)."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != basis.shape:
        raise ValueError(f"matrix shape {a.shape} does not match the commutant's {basis.shape}")
    return basis.coordinates(a)


def equivariant_project(a: np.ndarray, rep: Representation) -> np.ndarray:
    """Group-averaging projection ``(1/|G|) sum_g rho(g) A rho(g)^{-1}``.

    The Frobenius-orthogonal projection of ``a`` onto the commutant of
    ``rep``; idempotent and norm non-increasing.  O(|G| m^3): the products
    ``rho(g) A rho(g)^T`` are summed in element-id order, exactly for permutations.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (rep.dim, rep.dim):
        raise ValueError(f"matrix shape {a.shape} does not match representation dim {rep.dim}")
    out = np.zeros_like(a)
    for mat in rep.matrices:
        out += mat @ a @ mat.T
    return out / rep.group.order


def equivariance_residual(a: np.ndarray, rep: Representation) -> float:
    """``max_g || rho(g) A - A rho(g) ||_F``; zero exactly on the commutant."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (rep.dim, rep.dim):
        raise ValueError(f"matrix shape {a.shape} does not match representation dim {rep.dim}")
    comm = np.einsum("gij,jk->gik", rep.matrices, a) - np.einsum("ij,gjk->gik", a, rep.matrices)
    return float(np.max(np.linalg.norm(comm, axis=(1, 2))))


def hom_space_dimension(rep_a: Representation, rep_b: Representation) -> int:
    """Dimension of ``{T : rho_b(g) T = T rho_a(g) for all g}``.

    By Schur's lemma this is ``sum_i m_i(a) m_i(b) e_i`` over the irreps,
    with multiplicities ``m_i`` from characters and ``e_i`` the
    endomorphism dimension (2 for rotation-type irreps).  Raises
    ``ValueError`` for reps of different groups or non-integer counts.
    """
    if rep_a.group != rep_b.group:
        raise ValueError("representations belong to different groups")
    table = irreps_real(rep_a.group)
    endo = np.array([ir.endomorphism_dim for ir in table])
    return int(np.sum(table.multiplicities(rep_a) * table.multiplicities(rep_b) * endo))

