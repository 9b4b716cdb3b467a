import numpy as np
import pytest

from dha.commutant import (
    EquivariantLinearMap,
    assemble,
    commutant_basis,
    coordinates,
    equivariance_residual,
    equivariant_project,
    hom_basis,
    hom_space_dimension,
)
from dha.groups import (
    group_from_descriptor,
    irreps_real,
    make_cyclic,
    regular_representation,
    regular_rep_copies,
)
from dha.isotypic import IsotypicBasis, isotypic_basis

from conftest import ABELIAN_GROUPS_LE_16


def iso_and_commutant(rep):
    iso = isotypic_basis(rep)
    return iso, commutant_basis(iso)


def brute_force_commutant_dim(rep):
    """Null-space dimension of the vectorized commutation system."""
    d = rep.dim
    rows = [
        np.kron(rep.matrices[g], np.eye(d)) - np.kron(np.eye(d), rep.matrices[g].T)
        for g in rep.group.elements()
    ]
    svals = np.linalg.svd(np.concatenate(rows, axis=0), compute_uv=False)
    return int(np.sum(svals <= 1e-8 * max(1.0, svals[0])))


# ---------------------------------------------------------------------------
# Commutant bases
# ---------------------------------------------------------------------------


def test_trivial_group_commutant_is_everything():
    rep = regular_rep_copies(make_cyclic(1), 3)
    _, cb = iso_and_commutant(rep)
    assert len(cb) == 9


def test_c2_regular_commutant_generators():
    _, cb = iso_and_commutant(regular_representation(make_cyclic(2)))
    assert len(cb) == 2
    mats = sorted(cb.basis_matrices.tolist())
    assert mats == [np.diag([0.0, 1.0]).tolist(), np.diag([1.0, 0.0]).tolist()]


def test_c4_regular_commutant_dimension_oracle():
    reg = regular_representation(make_cyclic(4))
    _, cb = iso_and_commutant(reg)
    assert len(cb) == 4
    assert brute_force_commutant_dim(reg) == 4


@pytest.mark.parametrize("desc", ABELIAN_GROUPS_LE_16)
def test_regular_commutant_dim_equals_group_order(desc):
    g = group_from_descriptor(desc)
    reg = regular_representation(g)
    _, cb = iso_and_commutant(reg)
    assert len(cb) == g.order
    assert brute_force_commutant_dim(reg) == g.order
    # Formula: sum of multiplicity^2 * endomorphism dim.
    formula = sum(b.multiplicity**2 * b.irrep.endomorphism_dim for b in cb.blocks)
    assert formula == g.order


def test_basis_matrices_commute_and_are_orthonormal():
    g = group_from_descriptor("C2xC3")
    iso, cb = iso_and_commutant(regular_rep_copies(g, 12))
    rep = iso.rotated_rep()
    for b in cb.basis_matrices:
        assert equivariance_residual(b, rep) <= 1e-10
    gram = np.einsum("lij,mij->lm", cb.basis_matrices, cb.basis_matrices)
    assert np.max(np.abs(gram - np.eye(len(cb)))) <= 1e-12


def test_misaligned_rep_rejected():
    g = make_cyclic(3)
    reg = regular_representation(g)
    iso = isotypic_basis(reg)
    with pytest.raises(ValueError, match="block-aligned"):
        commutant_basis(IsotypicBasis(iso.q[::-1], iso.blocks, reg))  # rows out of block order


# ---------------------------------------------------------------------------
# Group-averaging projection
# ---------------------------------------------------------------------------


def test_identity_projects_to_itself():
    rep = regular_representation(make_cyclic(5))
    assert np.max(np.abs(equivariant_project(np.eye(5), rep) - np.eye(5))) <= 1e-12


def test_trivial_group_projection_is_identity_map():
    rng = np.random.default_rng(0)
    rep = regular_rep_copies(make_cyclic(1), 4)
    a = rng.standard_normal((4, 4))
    assert np.array_equal(equivariant_project(a, rep), a)


def test_projection_matches_basis_reconstruction():
    rng = np.random.default_rng(1)
    reg = regular_representation(make_cyclic(3))
    iso, cb = iso_and_commutant(reg)
    rep_iso = iso.rotated_rep()
    a = rng.standard_normal((3, 3))
    proj = equivariant_project(a, rep_iso)
    recon = np.einsum("l,lij->ij", coordinates(a, cb), cb.basis_matrices)
    assert np.max(np.abs(proj - recon)) <= 1e-10


def test_projection_idempotent_and_contractive():
    rng = np.random.default_rng(2)
    rep = regular_rep_copies(group_from_descriptor("C2xC2"), 8)
    for _ in range(5):
        a = rng.standard_normal((8, 8))
        p = equivariant_project(a, rep)
        assert np.max(np.abs(equivariant_project(p, rep) - p)) <= 1e-12
        assert np.linalg.norm(p) <= np.linalg.norm(a) + 1e-12


# ---------------------------------------------------------------------------
# Equivariance residual
# ---------------------------------------------------------------------------


def test_residual_of_identity_is_zero():
    rep = regular_representation(make_cyclic(4))
    assert equivariance_residual(np.eye(4), rep) == 0.0


def test_residual_after_projection_small():
    rng = np.random.default_rng(3)
    rep = regular_rep_copies(make_cyclic(3), 6)
    for _ in range(5):
        a = rng.standard_normal((6, 6))
        assert equivariance_residual(equivariant_project(a, rep), rep) <= 1e-10


def test_projection_never_increases_residual():
    rng = np.random.default_rng(4)
    rep = regular_rep_copies(make_cyclic(3), 6)
    for _ in range(100):
        a = rng.standard_normal((6, 6))
        assert equivariance_residual(a, rep) >= equivariance_residual(
            equivariant_project(a, rep), rep
        )


# ---------------------------------------------------------------------------
# Assemble / coordinates
# ---------------------------------------------------------------------------


def test_assemble_zero_and_one_hot():
    _, cb = iso_and_commutant(regular_representation(make_cyclic(4)))
    zero = assemble(EquivariantLinearMap(cb, np.zeros(len(cb))))
    assert np.array_equal(zero, np.zeros((4, 4)))
    for l in range(len(cb)):
        theta = np.zeros(len(cb))
        theta[l] = 1.0
        assert np.array_equal(assemble(EquivariantLinearMap(cb, theta)), cb.basis_matrices[l])


def test_coordinate_roundtrip():
    rng = np.random.default_rng(5)
    _, cb = iso_and_commutant(regular_rep_copies(make_cyclic(5), 10))
    theta = rng.standard_normal(len(cb))
    back = coordinates(assemble(EquivariantLinearMap(cb, theta)), cb)
    assert np.max(np.abs(back - theta)) <= 1e-12


def test_assembled_map_is_block_diagonal():
    rng = np.random.default_rng(6)
    iso, cb = iso_and_commutant(regular_rep_copies(make_cyclic(3), 9))
    k = assemble(EquivariantLinearMap(cb, rng.standard_normal(len(cb))))
    mask = np.ones_like(k, dtype=bool)
    for blk in cb.blocks:
        mask[blk.slice, blk.slice] = False
    assert np.all(k[mask] == 0.0)
    assert equivariance_residual(k, iso.rotated_rep()) <= 1e-10


def test_theta_length_mismatch():
    _, cb = iso_and_commutant(regular_representation(make_cyclic(2)))
    with pytest.raises(ValueError, match="commutant dimension"):
        EquivariantLinearMap(cb, np.zeros(len(cb) + 1))


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


def test_schur_zero_between_inequivalent_irreps():
    table = irreps_real(make_cyclic(2))
    assert hom_space_dimension(table[0].as_representation(), table[1].as_representation()) == 0


def test_schur_scalar_for_real_irrep():
    table = irreps_real(make_cyclic(2))
    assert hom_space_dimension(table[0].as_representation(), table[0].as_representation()) == 1


def test_c5_rotation_self_hom_dimension_two():
    table = irreps_real(make_cyclic(5))
    rot = table[1].as_representation()
    assert hom_space_dimension(rot, rot) == 2


def test_schur_zero_law_across_canonical_table():
    for desc in ["C4", "C2xC2", "C5", "C2xC3"]:
        table = irreps_real(group_from_descriptor(desc))
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                dim = hom_space_dimension(a.as_representation(), b.as_representation())
                if i == j:
                    assert dim == a.endomorphism_dim
                else:
                    assert dim == 0


def test_hom_dimension_formula_and_basis_agree():
    g = group_from_descriptor("C2xC3")
    rep_a = regular_rep_copies(g, 6)
    rep_b = regular_rep_copies(g, 12)
    iso_a, iso_b = isotypic_basis(rep_a), isotypic_basis(rep_b)
    hb = hom_basis(iso_a, iso_b)
    assert hb.shape[0] == hom_space_dimension(rep_a, rep_b)
    worst = 0.0
    for mat in hb:
        for gg in g.elements():
            worst = max(
                worst,
                float(np.max(np.abs(rep_b.matrices[gg] @ mat - mat @ rep_a.matrices[gg]))),
            )
    assert worst <= 1e-10


def test_hom_group_mismatch():
    a = regular_representation(make_cyclic(2))
    b = regular_representation(make_cyclic(3))
    with pytest.raises(ValueError, match="different groups"):
        hom_space_dimension(a, b)


def test_hom_basis_empty_between_inequivalent_irreps():
    table = irreps_real(make_cyclic(3))
    iso_a = isotypic_basis(table[0].as_representation())
    iso_b = isotypic_basis(table[1].as_representation())
    hb = hom_basis(iso_a, iso_b)
    assert hb.shape == (0, 2, 1)
