"""Group averaging and the quadratic-monomial rep against their einsum forms.

``equivariant_project`` adds ``|G|`` matmul products and
``symmetric_square_rep`` gathers products of two entries of ``rho(g)``.
The oracles below are the earlier three-operand ``einsum`` versions.  On
regular-copy (permutation) reps the projection must match bit for bit, so
the systems that ``random_symmetric_stable_system`` draws keep the
fingerprints the earlier version wrote (``tests/data/make_system_fingerprints.py``);
on general orthogonal reps a tolerance from float64 rounding applies.
A last test keeps three-operand ``einsum`` calls out of ``src/dha``.
"""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dha.commutant import equivariant_project
from dha.groups import (
    Representation,
    group_from_descriptor,
    quadratic_features,
    regular_rep_copies,
    symmetric_square_rep,
)

from conftest import ABELIAN_GROUPS_LE_16, random_orthogonal

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src" / "dha"


def einsum_project(a, rep):
    """``(1/|G|) sum_g rho(g) A rho(g)^T`` as one unoptimized triple sum."""
    return np.einsum("gij,jk,glk->il", rep.matrices, a, rep.matrices) / rep.group.order


def einsum_symmetric_square(rep):
    """Induced matrices ``<B_q, rho(g) B_p rho(g)^T>`` over the monomial basis."""
    d = rep.dim
    pairs = [(i, i) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)]
    basis = np.zeros((len(pairs), d, d))
    for p, (i, j) in enumerate(pairs):
        if i == j:
            basis[p, i, i] = 1.0
        else:
            basis[p, i, j] = basis[p, j, i] = 1.0 / np.sqrt(2.0)
    transformed = np.einsum("gik,pkl,gjl->gpij", rep.matrices, basis, rep.matrices)
    mats = np.einsum("qij,gpij->gqp", basis, transformed)
    mats[0] = np.eye(len(pairs))
    return mats


def loop_quadratic_features(x):
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    sq = x * x
    cross = [np.sqrt(2.0) * x[..., i] * x[..., j] for i in range(d) for j in range(i + 1, d)]
    if cross:
        return np.concatenate([sq, np.stack(cross, axis=-1)], axis=-1)
    return sq


def conjugated(rep, rng):
    v = random_orthogonal(rng, rep.dim)
    return Representation(rep.group, v @ rep.matrices @ v.T, rep.space_label)


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


@pytest.mark.parametrize("descriptor", ABELIAN_GROUPS_LE_16)
def test_projection_bitwise_on_regular_copies(descriptor):
    group = group_from_descriptor(descriptor)
    rng = np.random.default_rng(group.order)
    for copies in (1, 2, 3):
        rep = regular_rep_copies(group, copies * group.order, "X")
        for _ in range(3):
            a = rng.standard_normal((rep.dim, rep.dim))
            assert np.array_equal(equivariant_project(a, rep), einsum_project(a, rep))


@pytest.mark.parametrize("descriptor", ABELIAN_GROUPS_LE_16)
def test_projection_on_conjugated_reps(descriptor):
    group = group_from_descriptor(descriptor)
    rng = np.random.default_rng(100 + group.order)
    for copies in (1, 2):
        rep = conjugated(regular_rep_copies(group, copies * group.order, "X"), rng)
        a = rng.standard_normal((rep.dim, rep.dim))
        assert rel_err(equivariant_project(a, rep), einsum_project(a, rep)) <= 1e-13


def _load_fingerprint_script():
    spec = importlib.util.spec_from_file_location("make_system_fingerprints",
                                                  DATA / "make_system_fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drawn_systems_match_reference_fingerprints():
    script = _load_fingerprint_script()
    expected = json.loads((DATA / "system_fingerprints.json").read_text())
    assert {name: system.fingerprint() for name, system in script.systems()} == expected


@pytest.mark.parametrize("descriptor", ABELIAN_GROUPS_LE_16)
def test_symmetric_square_rep_matches_einsum(descriptor):
    group = group_from_descriptor(descriptor)
    rng = np.random.default_rng(200 + group.order)
    rep = regular_rep_copies(group, group.order, "X")
    for r in (rep, conjugated(rep, rng)):
        sym = symmetric_square_rep(r)
        assert sym.dim == r.dim * (r.dim + 1) // 2
        assert np.array_equal(sym.matrices[0], np.eye(sym.dim))
        assert rel_err(sym.matrices, einsum_symmetric_square(r)) <= 1e-12


@pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 3, 4), (4, 1), (6, 0), (0, 3)])
def test_quadratic_features_bitwise(shape):
    x = np.random.default_rng(sum(shape)).standard_normal(shape) * 10.0
    got, ref = quadratic_features(x), loop_quadratic_features(x)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def _einsum_operand_counts(path):
    """``(line, operands)`` of every ``np.einsum`` / ``numpy.einsum`` call."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        args = node.args
        if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            out.append((node.lineno, len(args) - 1))
        else:  # interleaved form: operand, sublist, ..., [output sublist]
            out.append((node.lineno, len(args) // 2))
    return out


def test_no_einsum_with_three_operands_in_library():
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line, n in _einsum_operand_counts(path) if n >= 3]
    assert not offenders, (
        "unoptimized einsum over three or more operands (cost is the product of "
        f"every index range): {offenders}"
    )
