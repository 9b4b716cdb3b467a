"""Finite abelian symmetry groups and their real orthogonal representations.

Groups are assembled from cyclic factors (``C_n`` and direct products
thereof), which covers every group used elsewhere in the toolkit: the
cyclic groups, the Klein four-group ``C2xC2`` and products such as
``(C2xC2)xC2``.  Elements are dense integer ids ``0..order-1`` with id 0
the identity; all representation matrices are real orthogonal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._util import frozen_array

#: Default cap on group orders so exhaustive checks stay cheap.
MAX_GROUP_ORDER = 64

__all__ = [
    "FiniteGroup",
    "Representation",
    "Irrep",
    "IrrepTable",
    "UnsupportedGroupError",
    "make_cyclic",
    "direct_product",
    "group_from_descriptor",
    "regular_representation",
    "irreps_real",
    "rep_direct_sum",
    "regular_rep_copies",
    "conjugate_representation",
    "symmetric_square_rep",
    "orbit",
]


class UnsupportedGroupError(ValueError):
    """Raised for group structures outside the cyclic-factor scope."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite abelian group given by its composition table and cyclic factors.

    Attributes
    ----------
    order : int
        Number of elements.
    compose_table : ``(order, order)`` ndarray of int
        ``compose_table[a, b]`` is the id of ``a * b``.
    inverse_table : ``(order,)`` ndarray of int
        Id of the inverse of each element.
    factors : tuple of int
        Orders of the cyclic factors ``C_n``, most significant first; element
        ids are mixed-radix numbers in these factors.  They name the group
        (:attr:`descriptor`) and fix its irrep table (:func:`irreps_real`).
    """

    order: int
    compose_table: np.ndarray
    inverse_table: np.ndarray
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "compose_table", frozen_array(self.compose_table, np.intp))
        object.__setattr__(self, "inverse_table", frozen_array(self.inverse_table, np.intp))

    def inverse(self, a: int) -> int:
        return int(self.inverse_table[a])

    def elements(self) -> range:
        return range(self.order)

    @property
    def descriptor(self) -> str:
        """Text form such as ``"C5"`` or ``"C2xC2"``."""
        return "x".join(f"C{n}" for n in self.factors)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.compose_table, other.compose_table)
        )

    def __hash__(self):
        return hash((self.order, self.compose_table.tobytes()))

    def __repr__(self):
        return f"FiniteGroup({self.descriptor}, order={self.order})"


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group ``C_n`` whose ``compose_table[i, j]`` is ``(i + j) mod n``."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    ids = np.arange(n)
    table = (ids[:, None] + ids[None, :]) % n
    inverse = (-ids) % n
    return FiniteGroup(n, table, inverse, (int(n),))


def direct_product(a: FiniteGroup, b: FiniteGroup, max_order: int = MAX_GROUP_ORDER) -> FiniteGroup:
    """Direct product with componentwise composition.

    Element ids follow ``id = id_a * |b| + id_b``.  Raises ``ValueError``
    once the combined order exceeds ``max_order``.
    """
    order = a.order * b.order
    if order > max_order:
        raise ValueError(
            f"product order {order} exceeds the configured maximum {max_order}"
        )
    ia, ib = np.divmod(np.arange(order), b.order)
    ca = a.compose_table[np.ix_(ia, ia)]
    cb = b.compose_table[np.ix_(ib, ib)]
    table = ca * b.order + cb
    inverse = a.inverse_table[ia] * b.order + b.inverse_table[ib]
    return FiniteGroup(order, table, inverse, a.factors + b.factors)


_FACTOR_RE = re.compile(r"^C(\d+)$")


def group_from_descriptor(text: str, max_order: int = MAX_GROUP_ORDER) -> FiniteGroup:
    """Parse a group descriptor like ``"C5"``, ``"C2xC2"`` or ``"(C2xC2)xC2"``.

    Grammar: ``factor := "C" digits``, ``product := factor ("x" factor)*``.
    Parentheses are allowed but ignored since the product is associative
    for the element-id convention used here.
    """
    stripped = text.replace("(", "").replace(")", "").replace(" ", "")
    if not stripped:
        raise ValueError(f"empty group descriptor: {text!r}")
    factors = []
    for token in stripped.split("x"):
        m = _FACTOR_RE.match(token)
        if m is None:
            raise ValueError(f"bad group descriptor {text!r}: token {token!r}")
        factors.append(int(m.group(1)))
    group = make_cyclic(factors[0])
    for n in factors[1:]:
        group = direct_product(group, make_cyclic(n), max_order=max_order)
    return group


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Representation:
    """A real orthogonal matrix representation of a finite group.

    Attributes
    ----------
    group : FiniteGroup
    matrices : ``(|G|, dim, dim)`` ndarray
        One orthogonal matrix per element, indexed by element id.
    space_label : str
        Free-form name of the represented vector space.
    """

    group: FiniteGroup
    matrices: np.ndarray
    space_label: str = ""

    def __post_init__(self):
        mats = frozen_array(self.matrices)
        if mats.ndim != 3 or mats.shape[0] != self.group.order or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must have shape (|G|, dim, dim), got {mats.shape}")
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def character(self) -> np.ndarray:
        """Trace of each element's matrix, in element-id order."""
        return np.trace(self.matrices, axis1=1, axis2=2)

    def __repr__(self):
        label = f", space={self.space_label!r}" if self.space_label else ""
        return f"Representation({self.group.descriptor}, dim={self.dim}{label})"


@dataclass(frozen=True)
class Irrep:
    """An irreducible real representation of dimension 1 or 2.

    ``field_type`` distinguishes absolutely irreducible irreps ("real",
    commutant = scalars) from rotation-type ones ("complex", commutant
    spanned by I and the quarter-turn J).
    """

    group: FiniteGroup
    matrices: np.ndarray
    field_type: str
    label: str

    def __post_init__(self):
        object.__setattr__(self, "matrices", frozen_array(self.matrices))
        if self.field_type not in ("real", "complex"):
            raise ValueError(f"unknown field type {self.field_type!r}")

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def endomorphism_dim(self) -> int:
        """Dimension of the commutant of this irrep (1 real, 2 complex)."""
        return 1 if self.field_type == "real" else 2

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)

    def as_representation(self, space_label: str = "") -> Representation:
        return Representation(self.group, self.matrices, space_label or self.label)


@dataclass(frozen=True)
class IrrepTable:
    """Canonically ordered table of the real irreps of a group."""

    group: FiniteGroup
    irreps: tuple

    def __len__(self):
        return len(self.irreps)

    def __iter__(self):
        return iter(self.irreps)

    def __getitem__(self, i) -> Irrep:
        return self.irreps[i]

    @property
    def characters(self) -> np.ndarray:
        """Per-irrep, per-element character values, shape ``(k, |G|)``."""
        return np.stack([ir.character() for ir in self.irreps])

    def multiplicities(self, rep: Representation, tol: float = 1e-8) -> np.ndarray:
        """Multiplicity of each irrep in ``rep`` from character inner products.

        For rotation-type irreps the real character has self inner product
        2, which is divided out so the returned value counts copies of the
        stored 2-dimensional real irrep.  Raises ``ValueError`` if a count
        is further than ``tol`` from an integer (``tol=0.5`` only rounds).
        """
        if rep.group != self.group:
            raise ValueError("representation and table belong to different groups")
        chi = rep.character()
        raw = self.characters @ chi / self.group.order
        scaled = raw / np.array([ir.endomorphism_dim for ir in self.irreps])
        mult = np.rint(scaled).astype(int)
        if np.max(np.abs(scaled - mult)) > tol:
            raise ValueError(f"non-integer multiplicities {scaled}; not a representation of {self.group.descriptor}?")
        return mult


def regular_representation(group: FiniteGroup) -> Representation:
    """Left-translation permutation representation of dimension ``|G|``."""
    n = group.order
    mats = np.zeros((n, n, n))
    for g in group.elements():
        mats[g, group.compose_table[g, :], np.arange(n)] = 1.0
    return Representation(group, mats, "regular")


def _element_angle_table(group: FiniteGroup) -> tuple[np.ndarray, int]:
    """All character angle vectors of an abelian cyclic-factor group.

    Returns ``(angles, den)`` where ``angles[j, g]`` is the angle numerator
    of dual tuple ``j`` at element ``g``, in units of ``2*pi/den`` with
    ``den`` the group exponent.
    """
    factors = group.factors
    if math.prod(factors) != group.order:
        raise UnsupportedGroupError("cyclic factors do not match the group order")
    den = reduce(math.lcm, factors, 1)
    # Mixed-radix digits of each element id, most significant factor first;
    # dual tuples enumerate the same space, so one table serves both sides.
    digits = np.zeros((group.order, len(factors)), dtype=np.intp)
    rem = np.arange(group.order)
    for pos in range(len(factors) - 1, -1, -1):
        rem, digits[:, pos] = np.divmod(rem, factors[pos])
    weights = np.array([den // n for n in factors], dtype=np.intp)
    angles = (digits * weights) @ digits.T % den
    return angles, den


def _irrep_from_angles(group, angles, den, label) -> Irrep:
    angles = np.asarray(angles, dtype=np.intp)
    theta = 2.0 * np.pi * angles / den
    if np.all((2 * angles) % den == 0):
        chi = np.where(angles == 0, 1.0, -1.0)
        mats = chi.reshape(-1, 1, 1)
        return Irrep(group, mats, "real", label)
    c, s = np.cos(theta), np.sin(theta)
    mats = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    mats[0] = np.eye(2)
    return Irrep(group, mats, "complex", label)


def irreps_real(group: FiniteGroup) -> IrrepTable:
    """Canonical table of real irreps for an abelian cyclic-factor group.

    Characters of an abelian group are rotation-angle homomorphisms; each
    self-conjugate character yields a 1-dimensional irrep with values +-1,
    and each conjugate pair yields one 2-dimensional rotation irrep
    (field type "complex").  Ordering: trivial first, then 1-dimensional
    irreps by ascending character vector, then 2-dimensional irreps by
    ascending rotation-angle vector.
    """
    angles, den = _element_angle_table(group)
    one_dim = []
    two_dim = {}
    for row in angles:
        if np.all((2 * row) % den == 0):
            one_dim.append(tuple(int(a) for a in row))
        else:
            neg = tuple(int(a) for a in (-row) % den)
            pos = tuple(int(a) for a in row)
            two_dim[min(pos, neg)] = True
    one_dim = sorted(set(one_dim))
    trivial = tuple(0 for _ in range(group.order))
    one_dim.remove(trivial)
    # Sort 1-D irreps by their character vector (+1/-1 pattern), ascending.
    one_dim.sort(key=lambda row: tuple(1.0 if a == 0 else -1.0 for a in row))
    rotations = sorted(two_dim)

    irreps = [_irrep_from_angles(group, trivial, den, "triv")]
    n1 = len(one_dim)
    for i, row in enumerate(one_dim):
        label = "sgn" if n1 == 1 else f"sgn{i + 1}"
        irreps.append(_irrep_from_angles(group, row, den, label))
    for i, row in enumerate(rotations):
        irreps.append(_irrep_from_angles(group, row, den, f"rot{i + 1}"))

    table = IrrepTable(group, tuple(irreps))
    _certify_table(table)
    return table


def _certify_table(table: IrrepTable):
    """Irreducibility and character-orthogonality certificates."""
    group = table.group
    n = group.order
    for ir in table.irreps:
        chi = ir.character()
        norm = float(chi @ chi)
        want = n if ir.field_type == "real" else 2 * n
        if abs(norm - want) > 1e-8 * n:
            raise AssertionError(f"irrep {ir.label}: character norm {norm} != {want}")
        # Frobenius-Schur indicator: quaternionic entries (negative) never
        # arise for the supported groups and are rejected outright.
        squares = group.compose_table[np.arange(n), np.arange(n)]
        fs = float(np.sum(chi[squares]))
        if fs < -1e-8 * n:
            raise AssertionError(f"irrep {ir.label}: quaternionic indicator {fs}")
    chars = table.characters
    gram = chars @ chars.T / n
    off = gram - np.diag(np.diag(gram))
    if np.max(np.abs(off)) > 1e-12 * n:
        raise AssertionError("character rows are not orthogonal")
    # The regular representation must be rebuilt exactly by the table.
    dims = np.array([ir.dim for ir in table.irreps])
    mult = np.array([ir.dim // ir.endomorphism_dim for ir in table.irreps])
    if int(dims @ mult) != n:
        raise AssertionError("irrep dimensions do not account for the regular representation")


def rep_direct_sum(reps, space_label: str = "") -> Representation:
    """Block-diagonal direct sum of representations of one group."""
    reps = list(reps)
    if not reps:
        raise ValueError("need at least one representation")
    group = reps[0].group
    for r in reps[1:]:
        if r.group != group:
            raise ValueError("direct sum requires representations of the same group")
    dim = sum(r.dim for r in reps)
    mats = np.zeros((group.order, dim, dim))
    off = 0
    for r in reps:
        mats[:, off:off + r.dim, off:off + r.dim] = r.matrices
        off += r.dim
    return Representation(group, mats, space_label)


def regular_rep_copies(group: FiniteGroup, dim: int, space_label: str = "") -> Representation:
    """``dim/|G|`` stacked copies of the regular representation."""
    if dim % group.order != 0:
        raise ValueError(
            f"dimension {dim} is not a multiple of the group order {group.order}; "
            "the space is a stack of regular-representation copies"
        )
    reg = regular_representation(group)
    return rep_direct_sum([reg] * (dim // group.order), space_label)


def conjugate_representation(rep: Representation, v: np.ndarray, space_label: str = "") -> Representation:
    """Change of basis ``rho'(g) = V rho(g) V^T`` for orthogonal ``V``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (rep.dim, rep.dim):
        raise ValueError(f"change of basis must be {rep.dim}x{rep.dim}")
    mats = v @ rep.matrices @ v.T
    mats[0] = np.eye(rep.dim)  # exact identity; V V^T = I only to rounding
    return Representation(rep.group, mats, space_label or rep.space_label)


def _monomials(d: int):
    """Monomial index pairs ``(i, i)``, then ``(i, j)`` for ``i < j``, and scales 1, sqrt(2)."""
    iu, ju = np.triu_indices(d, 1)
    scale = np.r_[np.ones(d), np.full(iu.size, np.sqrt(2.0))]
    return np.r_[np.arange(d), iu], np.r_[np.arange(d), ju], scale


def symmetric_square_rep(rep: Representation, space_label: str = "") -> Representation:
    """Induced representation on quadratic monomials.

    The monomial basis is ``x_i^2`` followed by ``sqrt(2) x_i x_j`` for
    ``i < j``; with that scaling the induced matrices stay orthogonal.
    With ``R = rho(g)`` and those scales ``s``, entry ``((a, b), (k, l))`` is
    ``s_ab s_kl (R_ak R_bl + R_al R_bk) / 2``: O(|G| p^2) for ``p`` monomials.
    """
    ia, ib, scale = _monomials(rep.dim)
    mats = np.empty((rep.group.order, ia.size, ia.size))
    for r, out in zip(rep.matrices, mats):
        ra, rb = r[ia], r[ib]
        np.multiply(ra[:, ia], rb[:, ib], out=out)
        out += ra[:, ib] * rb[:, ia]
    mats *= np.outer(scale, 0.5 * scale)
    mats[0] = np.eye(ia.size)
    return Representation(rep.group, mats, space_label or f"sym2({rep.space_label})")


def quadratic_features(x: np.ndarray) -> np.ndarray:
    """Evaluate the monomials matching :func:`symmetric_square_rep`.

    Accepts ``(..., d)`` input and returns ``(..., d*(d+1)/2)``, each ``(s_ij x_i) x_j``.
    """
    x = np.asarray(x, dtype=np.float64)
    ia, ib, scale = _monomials(x.shape[-1])
    return scale * x[..., ia] * x[..., ib]


def orbit(x: np.ndarray, rep: Representation) -> list[np.ndarray]:
    """Group orbit ``[rho(g) x for g in G]`` in element-id order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (rep.dim,):
        raise ValueError(f"vector of length {x.shape} does not match dim {rep.dim}")
    return [rep.matrices[g] @ x for g in rep.group.elements()]
