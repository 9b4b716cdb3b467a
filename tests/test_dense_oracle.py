"""The block-table commutant calculus against dense generator stacks.

The oracle builds every generator as a dense matrix with a stamp loop
(``E_jk (x) I`` and, for rotation-type irreps, ``E_jk (x) J``, scaled to
unit norm) and evaluates maps, coordinates, layer weights, gradients and
the equivariant fit by dense contractions over that stack.  The library
never materializes the stack; every case here checks it agrees anyway.
"""

import numpy as np
import pytest

from dha.commutant import (
    CommutantBasis,
    EquivariantLinearMap,
    assemble,
    commutant_basis,
    coordinates,
    hom_basis,
)
from dha.groups import group_from_descriptor, irreps_real, regular_rep_copies, rep_direct_sum
from dha.isotypic import isotypic_basis
from dha.koopman import default_ridge, eedmd_fit
from dha.nets import equivariant_net

from conftest import ABELIAN_GROUPS_LE_16

TOL = 1e-10
_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def oracle_generators(blocks_out, blocks_in, dim_out, dim_in):
    """Dense ``(n, dim_out, dim_in)`` generators in isotypic coordinates."""
    by_label = {blk.label: blk for blk in blocks_out}
    gens = []
    for blk_in in blocks_in:
        blk_out = by_label.get(blk_in.label)
        if blk_out is None:
            continue
        d = blk_in.irrep.dim
        stamps = [np.eye(d) / np.sqrt(d)]
        if blk_in.irrep.field_type == "complex":
            stamps.append(_J / np.sqrt(d))
        for j in range(blk_out.multiplicity):
            for k in range(blk_in.multiplicity):
                for stamp in stamps:
                    g = np.zeros((dim_out, dim_in))
                    g[
                        blk_out.offset + j * d:blk_out.offset + (j + 1) * d,
                        blk_in.offset + k * d:blk_in.offset + (k + 1) * d,
                    ] = stamp
                    gens.append(g)
    return np.array(gens).reshape(-1, dim_out, dim_in)


def oracle_hom_basis(iso_in, iso_out):
    gens = oracle_generators(iso_out.blocks, iso_in.blocks, iso_out.dim, iso_in.dim)
    return np.einsum("ji,njk,kl->nil", iso_out.q, gens, iso_in.q, optimize=True)


def oracle_commutant(iso):
    return oracle_generators(iso.blocks, iso.blocks, iso.dim, iso.dim)


def rel_err(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    if ref.size == 0:
        return 0.0
    return float(np.max(np.abs(new - ref))) / max(float(np.max(np.abs(ref))), 1e-300)


def spaces(desc):
    """Isotypic bases with unequal multiplicities and a lone-irrep space.

    ``a`` is one regular copy plus an extra copy of the last irrep, ``b``
    two regular copies, ``c`` the last irrep alone; every rotation-type
    irrep of the group appears in ``a`` and ``b``.
    """
    group = group_from_descriptor(desc)
    last = irreps_real(group)[-1].as_representation()
    rep_a = rep_direct_sum([regular_rep_copies(group, group.order), last])
    rep_b = regular_rep_copies(group, 2 * group.order)
    return {
        "a": (rep_a, isotypic_basis(rep_a)),
        "b": (rep_b, isotypic_basis(rep_b)),
        "c": (last, isotypic_basis(last)),
    }


@pytest.fixture(scope="module", params=ABELIAN_GROUPS_LE_16)
def case(request):
    return spaces(request.param)


#: (input space, output space) pairs of :func:`spaces`, square and not.
HOM_PAIRS = (("a", "b"), ("b", "a"), ("c", "a"), ("a", "c"), ("c", "b"))


def test_hom_basis_matches_oracle(case):
    for src, dst in HOM_PAIRS:
        iso_in, iso_out = case[src][1], case[dst][1]
        hb = hom_basis(iso_in, iso_out)
        assert rel_err(hb, oracle_hom_basis(iso_in, iso_out)) <= TOL, (src, dst)


def test_commutant_basis_matches_oracle(case):
    for name in ("a", "b"):
        iso = case[name][1]
        cb = commutant_basis(iso)
        ref = oracle_commutant(iso)
        assert len(cb) == ref.shape[0]
        assert rel_err(cb.basis_matrices, ref) <= TOL
        assert cb.block_slices[-1].stop == len(cb)
    rng = np.random.default_rng(4)
    for src, dst in HOM_PAIRS:
        iso_in, iso_out = case[src][1], case[dst][1]
        hb = CommutantBasis(iso_out, iso_in)
        ref = oracle_generators(iso_out.blocks, iso_in.blocks, iso_out.dim, iso_in.dim)
        assert len(hb) == ref.shape[0], (src, dst)
        assert rel_err(hb.basis_matrices, ref) <= TOL, (src, dst)
        tiled = [l for sl in hb.block_slices for l in range(len(hb))[sl]]
        assert len(hb.block_slices) == len(iso_out.blocks) and tiled == list(range(len(hb))), (src, dst)
        dense = oracle_hom_basis(iso_in, iso_out)
        theta = rng.standard_normal(len(hb))
        assert rel_err(hb.matrix(theta), np.tensordot(theta, dense, axes=1)) <= TOL, (src, dst)
        a = rng.standard_normal((iso_out.dim, iso_in.dim))
        assert rel_err(hb.matrix_coordinates(a), np.tensordot(dense, a, axes=([1, 2], [0, 1]))) <= TOL, (src, dst)


def test_assemble_and_coordinates_match_oracle(case):
    rng = np.random.default_rng(3)
    iso = case["a"][1]
    cb = commutant_basis(iso)
    ref = oracle_commutant(iso)
    theta = rng.standard_normal(len(cb))
    assert rel_err(assemble(EquivariantLinearMap(cb, theta)), np.einsum("l,lij->ij", theta, ref)) <= TOL
    a = rng.standard_normal((iso.dim, iso.dim))
    assert rel_err(coordinates(a, cb), np.einsum("lij,ij->l", ref, a)) <= TOL


def test_equivariant_layer_matches_oracle(case):
    (rep_in, iso_in), (rep_out, iso_out) = case["a"], case["b"]
    net = equivariant_net(rep_in, [], rep_out, np.random.default_rng(5))
    layer = net.layers[0]
    hb = oracle_hom_basis(iso_in, iso_out)
    # theta starts as the coordinates of the Glorot seed the layer drew.
    rng = np.random.default_rng(5)
    bound = np.sqrt(6.0 / (rep_in.dim + rep_out.dim))
    seed = rng.uniform(-bound, bound, size=(rep_out.dim, rep_in.dim))
    assert rel_err(layer.weight, np.tensordot(hb, seed, axes=([1, 2], [0, 1]))) <= TOL
    theta = np.random.default_rng(6).standard_normal(layer.weight.shape)
    net.set_parameters([theta, layer.bias])
    assert rel_err(layer.weight_matrix(), np.tensordot(theta, hb, axes=1)) <= TOL
    x = np.random.default_rng(7).standard_normal((5, rep_in.dim))
    cot = np.random.default_rng(8).standard_normal((5, rep_out.dim))
    _, cache = net.forward(x)
    grads, _ = net.backward(cache, cot)
    assert rel_err(grads[0], np.tensordot(hb, cot.T @ x, axes=([1, 2], [0, 1]))) <= TOL


@pytest.mark.parametrize("ridge", [None, 0.0])
def test_eedmd_fit_matches_oracle(case, ridge):
    rng = np.random.default_rng(11)
    iso = case["a"][1]
    x = rng.standard_normal((iso.dim, 6 * iso.dim))
    y = rng.standard_normal((iso.dim, 6 * iso.dim))
    lam = default_ridge(x) if ridge is None else ridge
    gens = oracle_commutant(iso)
    bx = np.einsum("lij,jn->lin", gens, iso.q @ x)
    gram = np.einsum("lin,kin->lk", bx, bx) + lam * np.eye(len(gens))
    rhs = np.einsum("lin,in->l", bx, iso.q @ y)
    ref = np.linalg.lstsq(gram, rhs, rcond=None)[0] if lam == 0.0 else np.linalg.solve(gram, rhs)
    assert rel_err(eedmd_fit(x, y, iso, ridge).theta, ref) <= TOL
