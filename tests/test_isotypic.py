import numpy as np
import pytest

from dha.groups import (
    conjugate_representation,
    group_from_descriptor,
    irreps_real,
    make_cyclic,
    regular_representation,
    rep_direct_sum,
)
from dha.isotypic import (
    DecompositionError,
    character_projector,
    is_g_stable,
    isotypic_basis,
    isotypic_project,
    save_isotypic_basis,
)

from conftest import ABELIAN_GROUPS_LE_16, random_orthogonal
from rep_oracles import projector_rank as _projector_rank


def scrambled_sum(group, table, mults, rng):
    """Direct sum with the given multiplicities, conjugated by a random
    orthogonal matrix.  Returns (rep, mults)."""
    parts = []
    for ir, m in zip(table, mults):
        parts.extend([ir.as_representation()] * m)
    plain = rep_direct_sum(parts)
    v = random_orthogonal(rng, plain.dim)
    return conjugate_representation(plain, v), list(mults)


# ---------------------------------------------------------------------------
# Character projectors
# ---------------------------------------------------------------------------


def test_trivial_projector_is_averaging():
    g = make_cyclic(2)
    proj = character_projector(regular_representation(g), irreps_real(g)[0])
    assert np.allclose(proj, 0.5 * np.ones((2, 2)), atol=1e-15)


@pytest.mark.parametrize("desc", ["C2", "C3", "C5", "C2xC2", "C2xC3"])
def test_projector_completeness(desc):
    g = group_from_descriptor(desc)
    reg = regular_representation(g)
    total = sum(character_projector(reg, ir) for ir in irreps_real(g))
    assert np.max(np.abs(total - np.eye(g.order))) <= 1e-12


def test_c3_rotation_projector_rank_two():
    g = make_cyclic(3)
    proj = character_projector(regular_representation(g), irreps_real(g)[1])
    assert _projector_rank(proj) == 2
    assert np.linalg.matrix_rank(proj, tol=1e-8) == 2


def test_projector_group_mismatch():
    with pytest.raises(ValueError):
        character_projector(regular_representation(make_cyclic(2)), irreps_real(make_cyclic(3))[0])


def test_projector_algebra_on_scrambled_sums():
    # P_i^2 = P_i and P_i P_j = 0 on random scrambled direct sums.
    rng = np.random.default_rng(11)
    for desc in ["C2", "C4", "C5", "C2xC2", "C3xC3", "C12", "C2xC2xC4"]:
        g = group_from_descriptor(desc)
        table = irreps_real(g)
        mults = rng.integers(0, 3, size=len(table))
        if mults.sum() == 0:
            mults[0] = 1
        rep, _ = scrambled_sum(g, table, mults, rng)
        projs = [character_projector(rep, ir) for ir in table]
        for i, p in enumerate(projs):
            assert np.max(np.abs(p @ p - p)) <= 1e-10
            for j, q in enumerate(projs):
                if i != j:
                    assert np.max(np.abs(p @ q)) <= 1e-10


# ---------------------------------------------------------------------------
# Isotypic basis
# ---------------------------------------------------------------------------


def test_c2_regular_basis_is_two_point_fourier():
    basis = isotypic_basis(regular_representation(make_cyclic(2)))
    want = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    # Up to row signs and order: compare absolute values rowwise.
    assert np.allclose(np.abs(basis.q), np.abs(want), atol=1e-12)
    assert [(b.label, b.irrep.dim, b.multiplicity) for b in basis.blocks] == [
        ("triv", 1, 1),
        ("sgn", 1, 1),
    ]


def test_idempotent_on_predecomposed_input():
    g = make_cyclic(4)
    table = irreps_real(g)
    rep = rep_direct_sum(
        [table[0].as_representation()]
        + [table[1].as_representation()] * 2
        + [table[2].as_representation()]
    )
    basis = isotypic_basis(rep)
    assert [(b.label, b.multiplicity) for b in basis.blocks] == [
        ("triv", 1), ("sgn", 2), ("rot1", 1),
    ]
    assert basis.conjugation_residual() <= 1e-10


def test_c3_regular_conjugates_to_rotation_block():
    g = make_cyclic(3)
    basis = isotypic_basis(regular_representation(g))
    assert [(b.label, b.irrep.dim, b.multiplicity) for b in basis.blocks] == [
        ("triv", 1, 1),
        ("rot1", 2, 1),
    ]
    rotated = basis.rotated_rep().matrices[1]
    angle = 2.0 * np.pi / 3.0
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    want[1:, 1:] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    assert np.max(np.abs(rotated - want)) <= 1e-10


@pytest.mark.parametrize("desc", ABELIAN_GROUPS_LE_16)
def test_scrambled_roundtrip_recovers_multiplicities(desc):
    rng = np.random.default_rng(hash(desc) % 2**32)
    g = group_from_descriptor(desc)
    table = irreps_real(g)
    for _ in range(3):
        mults = rng.integers(0, 3, size=len(table))
        if mults.sum() == 0:
            mults[-1] = 2
        rep, planted = scrambled_sum(g, table, mults, rng)
        basis = isotypic_basis(rep)
        found = {blk.label: blk.multiplicity for blk in basis.blocks}
        recovered = [found.get(ir.label, 0) for ir in table]
        assert recovered == planted
        assert basis.conjugation_residual() <= 1e-8
        assert basis.orthogonality_residual() <= 1e-9


def test_deterministic_basis():
    rng = np.random.default_rng(5)
    g = group_from_descriptor("C2xC3")
    rep, _ = scrambled_sum(g, irreps_real(g), [2, 1, 1, 0], rng)
    q1 = isotypic_basis(rep).q
    q2 = isotypic_basis(rep).q
    assert np.array_equal(q1, q2)


# ---------------------------------------------------------------------------
# Projection onto blocks
# ---------------------------------------------------------------------------


def test_components_resolve_identity_and_are_orthogonal():
    rng = np.random.default_rng(2)
    g = group_from_descriptor("C5")
    rep, _ = scrambled_sum(g, irreps_real(g), [2, 1, 1], rng)
    basis = isotypic_basis(rep)
    x = rng.standard_normal(rep.dim)
    comps = [isotypic_project(x, basis, i) for i in range(len(basis.blocks))]
    assert np.max(np.abs(sum(comps) - x)) <= 1e-12
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            assert abs(comps[i] @ comps[j]) <= 1e-12
    # Parseval
    assert abs(sum(c @ c for c in comps) - x @ x) <= 1e-12


def test_c2_symmetric_antisymmetric_split():
    basis = isotypic_basis(regular_representation(make_cyclic(2)))
    x = np.array([3.0, 1.0])
    assert np.allclose(isotypic_project(x, basis, 0), [2.0, 2.0], atol=1e-12)
    assert np.allclose(isotypic_project(x, basis, 1), [1.0, -1.0], atol=1e-12)


def test_projection_is_equivariant():
    rng = np.random.default_rng(8)
    g = group_from_descriptor("C2xC2")
    rep, _ = scrambled_sum(g, irreps_real(g), [1, 2, 1, 1], rng)
    basis = isotypic_basis(rep)
    x = rng.standard_normal(rep.dim)
    for i in range(len(basis.blocks)):
        px = isotypic_project(x, basis, i)
        for gg in g.elements():
            lhs = isotypic_project(rep.matrices[gg] @ x, basis, i)
            rhs = rep.matrices[gg] @ px
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_block_index_out_of_range():
    basis = isotypic_basis(regular_representation(make_cyclic(2)))
    with pytest.raises(IndexError):
        isotypic_project(np.zeros(2), basis, 5)


# ---------------------------------------------------------------------------
# G-stability
# ---------------------------------------------------------------------------


def test_full_space_is_stable():
    rep = regular_representation(make_cyclic(3))
    assert is_g_stable(np.eye(3), rep)


def test_isotypic_blocks_are_stable():
    rng = np.random.default_rng(1)
    g = make_cyclic(4)
    rep, _ = scrambled_sum(g, irreps_real(g), [1, 1, 1], rng)
    basis = isotypic_basis(rep)
    for blk in basis.blocks:
        cols = basis.q[blk.slice].T
        assert is_g_stable(cols, rep)


def test_generic_line_is_not_stable():
    rng = np.random.default_rng(4)
    rep = regular_representation(make_cyclic(3))
    v = rng.standard_normal((3, 1))
    v -= v.mean()  # remove the invariant direction, then perturb
    v[0] += 0.37
    assert not is_g_stable(v, rep, tol=1e-9)
    assert is_g_stable(np.ones((3, 1)), rep)


def test_degenerate_subspace_rejected():
    rep = regular_representation(make_cyclic(3))
    cols = np.ones((3, 2))
    with pytest.raises(ValueError, match="independent"):
        is_g_stable(cols, rep)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_basis_json_roundtrip(tmp_path):
    import json

    rng = np.random.default_rng(10)
    g = group_from_descriptor("C2xC3")
    rep, _ = scrambled_sum(g, irreps_real(g), [1, 1, 2, 0], rng)
    basis = isotypic_basis(rep)
    path = tmp_path / "basis.json"
    save_isotypic_basis(basis, path)
    doc = json.loads(path.read_text())
    assert (doc["group"], doc["dim"]) == ("C2xC3", basis.dim)
    assert np.array_equal(np.array(doc["q"]).reshape(basis.dim, basis.dim), basis.q)
    assert [(b["irrep"], b["d"], b["m"], b["offset"]) for b in doc["blocks"]] == [
        (b.label, b.irrep.dim, b.multiplicity, b.offset) for b in basis.blocks
    ]
    assert doc["tolerance_report"] == basis.tolerance_report


def test_decomposition_failure_carries_residual():
    from dha.groups import Representation

    rng = np.random.default_rng(0)
    g = make_cyclic(3)
    mats = regular_representation(g).matrices.copy()
    mats[1] += 1e-3 * rng.standard_normal((3, 3))  # no longer a homomorphism
    broken = Representation(g, mats, "broken")
    with pytest.raises(DecompositionError) as err:
        isotypic_basis(broken)
    assert err.value.residual is not None and err.value.residual > 1e-6


# ---------------------------------------------------------------------------
# Memoized default-table bases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("descriptor", ["C3", "C2xC2", "C2xC2xC2"])
def test_cached_basis_equals_fresh_computation(descriptor):
    from dha.groups import Representation
    from dha.isotypic import _compute_isotypic_basis

    group = group_from_descriptor(descriptor)
    rng = np.random.default_rng(4)
    table = irreps_real(group)
    rep, _ = scrambled_sum(group, table, [2] * len(table), rng)
    first = isotypic_basis(rep)
    # An equal but distinct representation object hits the cache.
    hit = isotypic_basis(Representation(group, np.array(rep.matrices), rep.space_label))
    assert hit is first
    fresh = _compute_isotypic_basis(rep)
    assert fresh is not hit
    assert hit.q.tobytes() == fresh.q.tobytes()
    assert [(b.label, b.multiplicity, b.offset) for b in hit.blocks] == [
        (b.label, b.multiplicity, b.offset) for b in fresh.blocks]
    assert hit.tolerance_report == fresh.tolerance_report


def test_basis_cache_tells_representations_apart():
    from dha.groups import Representation
    from dha.isotypic import _BASIS_CACHE, _BASIS_CACHE_SIZE

    group = make_cyclic(4)
    rep = regular_representation(group)
    base = isotypic_basis(rep)
    relabelled = isotypic_basis(Representation(group, rep.matrices, "other"))
    assert relabelled is not base and relabelled.source_rep.space_label == "other"
    v = random_orthogonal(np.random.default_rng(1), 4)
    moved = conjugate_representation(rep, v, rep.space_label)
    assert isotypic_basis(moved).source_rep is moved
    rng = np.random.default_rng(2)
    for _ in range(_BASIS_CACHE_SIZE + 3):
        isotypic_basis(conjugate_representation(rep, random_orthogonal(rng, 4)))
    assert len(_BASIS_CACHE) == _BASIS_CACHE_SIZE
