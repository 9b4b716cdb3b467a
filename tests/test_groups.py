import numpy as np
import pytest

from dha.groups import (
    direct_product,
    group_from_descriptor,
    irreps_real,
    make_cyclic,
    orbit,
    quadratic_features,
    regular_representation,
    rep_direct_sum,
    symmetric_square_rep,
)
from dha.isotypic import character_projector
from rep_oracles import check_associativity, validate_representation
from rep_oracles import projector_rank as _projector_rank

from conftest import ABELIAN_GROUPS_LE_16


# ---------------------------------------------------------------------------
# Group construction
# ---------------------------------------------------------------------------


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.compose_table[0, 0] == 0
    assert g.inverse(0) == 0


def test_cyclic_modular_arithmetic():
    g = make_cyclic(4)
    assert g.compose_table[1, 3] == 0
    assert g.inverse(1) == 3
    assert g.compose_table[2, 3] == 1


def test_prime_cyclic_element_orders():
    g = make_cyclic(5)
    assert g.order == 5
    for a in range(1, 5):
        k, x = 1, a
        while x != 0:
            x, k = g.compose_table[x, a], k + 1
        assert k == 5


def test_zero_order_rejected():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_klein_four_group():
    k4 = direct_product(make_cyclic(2), make_cyclic(2))
    assert k4.order == 4
    for a in range(1, 4):
        assert k4.inverse(a) == a
        assert k4.compose_table[a, a] == 0


def test_order_eight_product_is_abelian():
    k4 = direct_product(make_cyclic(2), make_cyclic(2))
    g8 = direct_product(k4, make_cyclic(2))
    assert g8.order == 8
    for a in range(8):
        for b in range(8):
            assert g8.compose_table[a, b] == g8.compose_table[b, a]


def test_identity_factor_keeps_table():
    c5 = make_cyclic(5)
    prod = direct_product(make_cyclic(1), c5)
    assert prod.order == 5
    assert np.array_equal(prod.compose_table, c5.compose_table)


def test_product_size_cap():
    with pytest.raises(ValueError, match="maximum"):
        direct_product(make_cyclic(16), make_cyclic(8), max_order=64)
    assert direct_product(make_cyclic(16), make_cyclic(8), max_order=128).order == 128


def test_descriptor_roundtrip_and_parens():
    for desc in ["C5", "C2xC2", "C2xC3xC4"]:
        assert group_from_descriptor(desc).descriptor == desc
    a = group_from_descriptor("(C2xC2)xC2")
    b = group_from_descriptor("C2xC2xC2")
    assert a == b
    with pytest.raises(ValueError):
        group_from_descriptor("D4")
    with pytest.raises(ValueError):
        group_from_descriptor("")


@pytest.mark.parametrize("desc", ABELIAN_GROUPS_LE_16)
def test_group_tables_are_latin_squares_and_associative(desc):
    g = group_from_descriptor(desc)
    t = g.compose_table
    full = np.arange(g.order)
    for i in range(g.order):
        assert np.array_equal(np.sort(t[i]), full)
        assert np.array_equal(np.sort(t[:, i]), full)
    check_associativity(g)
    for a in range(g.order):
        assert g.compose_table[0, a] == a == g.compose_table[a, 0]
        assert g.compose_table[a, g.inverse(a)] == 0


# ---------------------------------------------------------------------------
# Regular representation
# ---------------------------------------------------------------------------


def test_regular_rep_c2_is_swap():
    reg = regular_representation(make_cyclic(2))
    assert np.array_equal(reg.matrices[1], np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_regular_rep_character():
    for desc in ["C3", "C2xC2", "C6"]:
        g = group_from_descriptor(desc)
        chi = regular_representation(g).character()
        assert chi[0] == g.order
        assert np.all(chi[1:] == 0.0)


def test_regular_rep_c3_cyclic_shift():
    reg = regular_representation(make_cyclic(3))
    s = reg.matrices[1]
    assert np.array_equal(np.linalg.matrix_power(s, 3), np.eye(3))
    assert np.array_equal(s @ np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))


@pytest.mark.parametrize("desc", ABELIAN_GROUPS_LE_16)
def test_representation_invariants(desc):
    g = group_from_descriptor(desc)
    validate_representation(regular_representation(g), tol=1e-10)


# ---------------------------------------------------------------------------
# Irrep tables
# ---------------------------------------------------------------------------


def test_irreps_c2():
    table = irreps_real(make_cyclic(2))
    assert [ir.dim for ir in table] == [1, 1]
    assert np.array_equal(table[0].character(), [1.0, 1.0])
    assert np.array_equal(table[1].character(), [1.0, -1.0])


def test_irreps_k4_four_one_dimensional():
    table = irreps_real(group_from_descriptor("C2xC2"))
    assert len(table) == 4
    assert all(ir.dim == 1 for ir in table)


def test_irreps_c5_against_projector_rank_oracle():
    # Independent oracle: decompose the C5 regular representation by the
    # rank of each character projector; multiplicities must rebuild dim 5.
    g = make_cyclic(5)
    table = irreps_real(g)
    assert [ir.dim for ir in table] == [1, 2, 2]
    assert [ir.field_type for ir in table] == ["real", "complex", "complex"]
    reg = regular_representation(g)
    total = 0
    for ir in table:
        rank = _projector_rank(character_projector(reg, ir))
        assert rank % ir.dim == 0
        mult = rank // ir.dim
        assert mult == 1
        total += mult * ir.dim
    assert total == 5


@pytest.mark.parametrize("desc", ABELIAN_GROUPS_LE_16)
def test_irrep_table_certificates(desc):
    g = group_from_descriptor(desc)
    table = irreps_real(g)
    n = g.order
    chars = table.characters
    # Irreducibility certificate per row.
    for ir in table:
        chi = ir.character()
        want = n if ir.field_type == "real" else 2 * n
        assert abs(float(chi @ chi) - want) < 1e-8
        validate_representation(ir.as_representation(), tol=1e-10)
        assert ir.matrices[0].tolist() == np.eye(ir.dim).tolist()
    # Character orthogonality between distinct rows.
    gram = chars @ chars.T / n
    for i in range(len(table)):
        for j in range(len(table)):
            if i != j:
                assert abs(gram[i, j]) <= 1e-12
    # Dimension accounting against the regular representation, with
    # multiplicities measured by projector rank.
    reg = regular_representation(g)
    total = 0
    for ir in table:
        rank = _projector_rank(character_projector(reg, ir))
        total += (rank // ir.dim) * ir.dim
    assert total == n


def test_canonical_ordering_is_stable():
    a = irreps_real(group_from_descriptor("C12"))
    b = irreps_real(group_from_descriptor("C12"))
    assert [ir.label for ir in a] == [ir.label for ir in b]
    assert a[0].label == "triv"
    angles = []
    for ir in a:
        if ir.field_type == "complex":
            angles.append(np.arctan2(ir.matrices[1][1, 0], ir.matrices[1][0, 0]) % (2 * np.pi))
    assert angles == sorted(angles)


# ---------------------------------------------------------------------------
# Direct sums and orbits
# ---------------------------------------------------------------------------


def test_direct_sum_of_trivials_is_identity():
    t = irreps_real(make_cyclic(2))[0].as_representation()
    s = rep_direct_sum([t, t])
    assert np.array_equal(s.matrices[0], np.eye(2))
    assert np.array_equal(s.matrices[1], np.eye(2))


def test_trivial_plus_sign():
    table = irreps_real(make_cyclic(2))
    s = rep_direct_sum([table[0].as_representation(), table[1].as_representation()])
    assert np.array_equal(s.matrices[1], np.diag([1.0, -1.0]))


def test_c3_irrep_sum_has_group_order_dim():
    table = irreps_real(make_cyclic(3))
    s = rep_direct_sum([ir.as_representation() for ir in table])
    assert s.dim == 3
    validate_representation(s)


def test_direct_sum_group_mismatch():
    a = irreps_real(make_cyclic(2))[0].as_representation()
    b = irreps_real(make_cyclic(3))[0].as_representation()
    with pytest.raises(ValueError, match="same group"):
        rep_direct_sum([a, b])


def test_orbit_zero_vector():
    reg = regular_representation(make_cyclic(4))
    orb = orbit(np.zeros(4), reg)
    assert len(orb) == 4
    assert all(np.array_equal(v, np.zeros(4)) for v in orb)


def test_orbit_c2_swap():
    reg = regular_representation(make_cyclic(2))
    orb = orbit(np.array([1.0, 2.0]), reg)
    assert np.array_equal(orb[0], [1.0, 2.0])
    assert np.array_equal(orb[1], [2.0, 1.0])


def test_orbit_norm_preservation():
    rng = np.random.default_rng(3)
    for desc in ["C5", "C2xC2", "C2xC3"]:
        reg = regular_representation(group_from_descriptor(desc))
        x = rng.standard_normal(reg.dim)
        for v in orbit(x, reg):
            assert abs(np.linalg.norm(v) - np.linalg.norm(x)) <= 1e-12


def test_orbit_dimension_mismatch():
    reg = regular_representation(make_cyclic(3))
    with pytest.raises(ValueError):
        orbit(np.zeros(4), reg)


# ---------------------------------------------------------------------------
# Quadratic feature representation
# ---------------------------------------------------------------------------


def test_symmetric_square_rep_is_orthogonal_homomorphism():
    rep = regular_representation(make_cyclic(3))
    sym = symmetric_square_rep(rep)
    assert sym.dim == 6
    validate_representation(sym, tol=1e-10)


def test_quadratic_features_transform_with_symmetric_square():
    rng = np.random.default_rng(7)
    rep = regular_representation(group_from_descriptor("C2xC2"))
    sym = symmetric_square_rep(rep)
    x = rng.standard_normal(rep.dim)
    for g in rep.group.elements():
        lhs = quadratic_features(rep.matrices[g] @ x)
        rhs = sym.matrices[g] @ quadratic_features(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_descriptor_tolerates_spaces():
    assert group_from_descriptor("C2 x C2").descriptor == "C2xC2"
