import importlib.util
import json
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import ABELIAN_GROUPS_LE_16, random_orthogonal
from dha import groups, isotypic
from dha.analysis import (
    emit_plot_data,
    isotypic_energy,
    prediction_mse,
    spectrum,
)
from dha.commutant import CommutantBasis, EquivariantLinearMap, assemble, commutant_basis
from dha.groups import (
    conjugate_representation,
    group_from_descriptor,
    make_cyclic,
    regular_rep_copies,
    regular_representation,
)
from dha.isotypic import isotypic_basis
from dha.koopman import KoopmanModel, TrainConfig, train
from dha.systems import (
    SymmetricLinearSystem,
    TrajectoryDataset,
    generate_dataset,
    random_symmetric_stable_system,
    rollout,
    system_noise,
)
from rep_oracles import eigenvector_orbit_residual

DATA = Path(__file__).resolve().parent / "data"


def commutant_of(rep):
    iso = isotypic_basis(rep)
    return iso, commutant_basis(iso)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def test_scaled_identity_spectrum():
    iso, cb = commutant_of(regular_representation(make_cyclic(3)))
    from dha.commutant import coordinates

    alpha = 0.8
    emap = EquivariantLinearMap(cb, coordinates(alpha * np.eye(3), cb))
    report = spectrum(emap)
    for vals in report.eigenvalues:
        assert np.allclose(vals, alpha, atol=1e-12)
    assert report.spectral_radius == pytest.approx(alpha)


def test_c2_one_dimensional_blocks_tagged():
    iso, cb = commutant_of(regular_representation(make_cyclic(2)))
    # Generators are diag(1,0) / diag(0,1) in the isotypic basis; theta
    # therefore holds the per-block eigenvalues directly.
    theta = np.array([0.3, -0.7])
    report = spectrum(EquivariantLinearMap(cb, theta))
    by_label = dict(zip(report.block_labels, report.eigenvalues))
    assert by_label["triv"] == pytest.approx([0.3])
    assert by_label["sgn"] == pytest.approx([-0.7])


def test_rotation_block_conjugate_pair():
    # On a 2-dimensional rotation-type block the commutant generators are
    # I/sqrt(2) and J/sqrt(2); coefficients (a, b) give eigenvalues
    # (a +- i b)/sqrt(2).
    iso, cb = commutant_of(regular_representation(make_cyclic(3)))
    a, b = 0.5, 0.3
    theta = np.array([0.9, a, b])
    report = spectrum(EquivariantLinearMap(cb, theta))
    pair = report.eigenvalues[1]
    want = np.array([a + 1j * b, a - 1j * b]) / np.sqrt(2.0)
    assert np.allclose(np.sort_complex(pair), np.sort_complex(want), atol=1e-12)
    assert report.orbit_residual <= 1e-10


def test_block_spectrum_completeness():
    rng = np.random.default_rng(0)
    iso, cb = commutant_of(regular_rep_copies(make_cyclic(5), 10))
    emap = EquivariantLinearMap(cb, rng.standard_normal(len(cb)))
    report = spectrum(emap)
    full = np.linalg.eigvals(assemble(emap))
    tagged = np.concatenate(report.eigenvalues)
    assert np.allclose(np.sort_complex(tagged), np.sort_complex(full), atol=1e-8)


def test_spectrum_similarity_invariance():
    rng = np.random.default_rng(1)
    rep = regular_rep_copies(make_cyclic(4), 8)
    iso, cb = commutant_of(rep)
    emap = EquivariantLinearMap(cb, rng.standard_normal(len(cb)))
    k = assemble(emap)
    base = np.sort_complex(np.linalg.eigvals(k))
    rho = iso.rotated_rep()
    for g in rep.group.elements():
        conj = rho.matrices[g] @ k @ rho.matrices[g].T
        vals = np.sort_complex(np.linalg.eigvals(conj))
        assert np.max(np.abs(vals - base)) <= 1e-10


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("descriptor", ABELIAN_GROUPS_LE_16)
def test_block_orbit_check_matches_dense_oracle(descriptor, conjugated):
    rng = np.random.default_rng(len(descriptor))
    group = group_from_descriptor(descriptor)
    rep = regular_rep_copies(group, 2 * group.order)
    if conjugated:
        rep = conjugate_representation(rep, random_orthogonal(rng, rep.dim))
    iso, cb = commutant_of(rep)
    emap = EquivariantLinearMap(cb, rng.standard_normal(len(cb)))
    report = spectrum(emap)
    k = assemble(emap)
    for blk, vals, vecs in zip(iso.blocks, report.eigenvalues, report.eigenvectors):
        w, v = np.linalg.eig(k[blk.slice, blk.slice])
        full = np.zeros((rep.dim, w.size), dtype=complex)
        full[blk.slice] = v
        assert np.array_equal(vals, w) and np.array_equal(vecs, full)
    dense = eigenvector_orbit_residual(k, iso.rotated_rep(), np.concatenate(report.eigenvalues),
                                       np.concatenate(report.eigenvectors, axis=1))
    assert abs(report.orbit_residual - dense) <= 1e-12 * max(1.0, np.linalg.norm(k, 2))


def test_spectrum_builds_no_dense_representation(monkeypatch):
    iso, cb = commutant_of(regular_rep_copies(make_cyclic(4), 8))
    emap = EquivariantLinearMap(cb, np.random.default_rng(2).standard_normal(len(cb)))

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum formed a dense representation")

    monkeypatch.setattr(isotypic.IsotypicBasis, "rotated_rep", refuse)
    monkeypatch.setattr(isotypic, "conjugate_representation", refuse)
    monkeypatch.setattr(groups, "conjugate_representation", refuse)
    assert spectrum(emap).orbit_residual <= 1e-10


def test_checkpoint_spectra_match_reference_digests():
    spec = importlib.util.spec_from_file_location("make_spectrum_digests",
                                                  DATA / "make_spectrum_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expected = json.loads((DATA / "spectrum_digests.json").read_text())
    assert {name: script.digest(report) for name, report in script.reports().items()} == expected


def test_dense_spectrum_fallback():
    k = np.array([[0.5, 1.0], [0.0, 0.25]])
    report = spectrum(k)
    assert report.block_labels == ["dense"]
    assert report.orbit_residual is None
    assert sorted(np.real(report.eigenvalues[0])) == pytest.approx([0.25, 0.5])
    with pytest.raises(ValueError):
        spectrum(np.zeros((2, 3)))
    g = make_cyclic(2)
    hom = CommutantBasis(isotypic_basis(regular_rep_copies(g, 4)), isotypic_basis(regular_rep_copies(g, 2)))
    with pytest.raises(ValueError, match="map a space to itself"):
        spectrum(EquivariantLinearMap(hom, np.zeros(len(hom))))


# ---------------------------------------------------------------------------
# Isotypic energy
# ---------------------------------------------------------------------------


def test_energy_confined_to_one_block():
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    basis = isotypic_basis(rep)
    blk = basis.blocks[1]
    coeffs = np.zeros((20, 6))
    coeffs[:, blk.offset:blk.offset + blk.size] = np.random.default_rng(0).standard_normal(
        (20, blk.size)
    )
    traj = coeffs @ basis.q  # states lying inside one isotypic component
    energy = isotypic_energy(traj, basis)
    for i, label in enumerate(energy.block_labels):
        if label != blk.label:
            assert np.max(energy.block_energy[i]) <= 1e-12


def test_energy_parseval_per_step():
    rng = np.random.default_rng(2)
    rep = regular_rep_copies(make_cyclic(4), 8)
    basis = isotypic_basis(rep)
    traj = rng.standard_normal((50, 8))
    energy = isotypic_energy(traj, basis)
    assert np.max(np.abs(energy.block_energy.sum(axis=0) - energy.total)) <= 1e-12
    fr = energy.fractions
    assert np.allclose(fr.sum(axis=0), 1.0, atol=1e-12)


def test_decoupled_block_stays_empty_under_rollout():
    # Zero coupling into a block plus zero initial component keeps that
    # block's energy at zero along the whole trajectory.
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 4)
    basis = isotypic_basis(rep)
    rng = np.random.default_rng(3)
    from dha.commutant import commutant_basis as cbasis_fn

    cb = cbasis_fn(basis)
    theta = rng.standard_normal(len(cb))
    k_iso = np.einsum("l,lij->ij", theta, cb.basis_matrices)
    k_iso *= 0.9 / np.max(np.abs(np.linalg.eigvals(k_iso)))
    # Remove the sign-block dynamics entirely and start outside it.
    blk = basis.blocks[1]
    k_iso[blk.slice, blk.slice] = 0.0
    a = basis.q.T @ k_iso @ basis.q
    sys0 = SymmetricLinearSystem(a, rep, 0.0, np.zeros((0, 4)), np.zeros(0))
    x0 = basis.q.T @ np.concatenate([rng.standard_normal(blk.offset), np.zeros(blk.size)])
    traj = rollout(sys0, x0, 30)
    energy = isotypic_energy(traj, basis)
    assert np.max(energy.block_energy[1]) <= 1e-12


def test_energy_weighting():
    rep = regular_rep_copies(make_cyclic(2), 4)
    basis = isotypic_basis(rep)
    traj = np.ones((3, 4))
    w = np.array([2.0, 2.0, 2.0, 2.0])  # constant on coordinate orbits
    energy = isotypic_energy(traj, basis, weights=w)
    assert np.allclose(energy.total, 8.0)
    assert np.max(np.abs(energy.block_energy.sum(axis=0) - energy.total)) <= 1e-12


def test_orbit_constant_weights_scale_the_trajectory():
    basis = isotypic_basis(regular_rep_copies(make_cyclic(3), 6))
    traj = np.random.default_rng(2).standard_normal((7, 6))
    w = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    weighted = isotypic_energy(traj, basis, weights=w)
    scaled = isotypic_energy(traj * np.sqrt(w), basis)
    assert np.array_equal(weighted.block_energy, scaled.block_energy)
    assert np.array_equal(weighted.total, scaled.total)


@pytest.mark.parametrize(
    "weights, message",
    [([-1.0] * 6, ">= 0"), ([1.0, 1.0, np.nan, 1.0, 1.0, 1.0], ">= 0"), ([1.0] * 5, ">= 0"),
     ([1.0, 2.0, 3.0, 1.0, 1.0, 1.0], "orbits")],
)
def test_energy_rejects_bad_weights(weights, message):
    basis = isotypic_basis(regular_rep_copies(make_cyclic(3), 6))
    with pytest.raises(ValueError, match=message):
        isotypic_energy(np.ones((4, 6)), basis, weights=weights)


def test_energy_width_mismatch():
    basis = isotypic_basis(regular_representation(make_cyclic(2)))
    with pytest.raises(ValueError):
        isotypic_energy(np.zeros((5, 3)), basis)


# ---------------------------------------------------------------------------
# Prediction error
# ---------------------------------------------------------------------------


def test_exact_model_zero_error():
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.0, seed=4)
    ds = generate_dataset(sys0, n_train=4, n_test=6, horizon=15, seed=5)
    model = train("edmd", ds, TrainConfig(ridge=0.0))
    report = prediction_mse(model, ds, horizon=10)
    assert report.aggregate <= 1e-12
    assert np.all(report.per_horizon_mse <= 1e-12)


def test_zero_model_error_equals_signal_energy():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.0, seed=6)
    ds = generate_dataset(sys0, n_train=2, n_test=5, horizon=12, seed=7)
    model = KoopmanModel("edmd", rep, np.zeros((2, 2)))
    report = prediction_mse(model, ds, horizon=8)
    test = ds.split("test")
    want = np.mean([np.sum(t[1:9] ** 2) for t in test])
    assert report.aggregate == pytest.approx(want)


def test_equivariant_model_per_copy_errors_agree():
    # Test set built as exact group copies of the same initial states with
    # transported noise: an equivariant model's per-copy errors coincide.
    g = make_cyclic(3)
    rep = regular_rep_copies(g, 6)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.05, n_constraints=0, seed=8)
    ds_fit = generate_dataset(sys0, n_train=8, n_test=0, horizon=30, seed=9)
    model = train("eedmd", ds_fit, TrainConfig())

    rng = np.random.default_rng(10)
    trajs, tags = [], []
    for i in range(6):
        x0 = rng.uniform(-1, 1, 6)
        eps = system_noise(sys0, 12, noise_seed=1000 + i)
        base = rollout(sys0, x0, 12, noise=eps)
        for gg in g.elements():
            moved = rollout(sys0, rep.matrices[gg] @ x0, 12, noise=eps @ rep.matrices[gg].T)
            trajs.append(moved)
            tags.append("test")
    paired = TrajectoryDataset(np.array(trajs), tuple(tags), rep, 1.0, {})
    report = prediction_mse(model, paired, horizon=10)
    values = list(report.per_copy.values())
    assert len(values) >= 2
    spread = (max(values) - min(values)) / max(values)
    assert spread <= 1e-8


def test_horizon_validation():
    g = make_cyclic(2)
    rep = regular_rep_copies(g, 2)
    sys0 = random_symmetric_stable_system(g, rep, 0.9, sigma=0.0, seed=0)
    ds = generate_dataset(sys0, n_train=2, n_test=2, horizon=5, seed=0)
    model = train("edmd", ds, TrainConfig())
    for horizon in (50, 0, -2):
        with pytest.raises(ValueError, match="horizon"):
            prediction_mse(model, ds, horizon=horizon)


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------


def test_two_point_series_single_polyline(tmp_path):
    csv_path, svg_path = emit_plot_data({"a": ([0.0, 1.0], [1.0, 2.0])}, tmp_path / "plot")
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 1
    pts = svg.split('points="')[1].split('"')[0]
    assert len(pts.split()) == 2


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    series = {
        "one": (np.arange(5.0), rng.standard_normal(5)),
        "two": (np.arange(5.0), np.array([1e-17, 3.14159, -2.5e8, 0.1, 7.0])),
    }
    csv_path, _ = emit_plot_data(series, tmp_path / "rt")
    header, *lines = csv_path.read_text().splitlines()
    assert header == "series,x,y"
    rows = [line.split(",") for line in lines]
    for name, (xs, ys) in series.items():
        back = np.array([[float(x), float(y)] for n, x, y in rows if n == name])
        assert np.array_equal(back[:, 0], np.asarray(xs, float))
        assert np.array_equal(back[:, 1], np.asarray(ys, float))


def test_deterministic_bytes(tmp_path):
    series = {"s": ([0, 1, 2], [0.1, 0.2, 0.3])}
    p1 = emit_plot_data(series, tmp_path / "a", title="t", log_y=True)
    p2 = emit_plot_data(series, tmp_path / "b", title="t", log_y=True)
    assert p1[0].read_bytes() == p2[0].read_bytes()
    assert p1[1].read_text() == p2[1].read_text()


def test_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_data({}, tmp_path / "nothing")


def test_svg_escapes_markup_in_names_and_labels(tmp_path):
    series = {"a<b": ([0.0, 1.0], [1.0, 2.0]), "c&d>": ([0.0, 1.0], [2.0, 1.0])}
    _, svg_path = emit_plot_data(series, tmp_path / "model_a&b", title="x & y <z>",
                                 x_label="t<1", y_label="e&f")
    root = ElementTree.parse(svg_path).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for text in ("x & y <z>", "t<1", "e&f", "a<b", "c&d>"):
        assert text in texts
