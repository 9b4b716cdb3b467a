"""Post-hoc analysis: symmetry-tagged spectra, isotypic energy, prediction error.

The spectral report tags every eigenvalue of a fitted operator with the
isotypic block it comes from (equivariant operators decompose exactly, so
eigendecomposition runs block by block); trajectory energy splits into
per-block squared norms whose sum reproduces the total at every step; and
the prediction error aggregates the cumulative squared multi-step error
over initial states, including a per-quotient-copy breakdown.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import fmt17
from .commutant import EquivariantLinearMap, assemble, equivariance_residual
from .isotypic import IsotypicBasis, isotypic_project
from .koopman import KoopmanModel, predict_batch
from .systems import TrajectoryDataset, orbit_representative

__all__ = [
    "SpectrumReport",
    "EnergyDecomposition",
    "PredictionError",
    "spectrum",
    "isotypic_energy",
    "prediction_mse",
    "emit_plot_data",
]


@dataclass
class SpectrumReport:
    """Eigenvalues and eigenvector coordinates grouped by isotypic block."""

    block_labels: list
    eigenvalues: list
    eigenvectors: list
    spectral_radius: float
    orbit_residual: float | None = None

    def to_json(self) -> dict:
        return {
            "blocks": [
                {
                    "label": label,
                    "eigenvalues": [[float(v.real), float(v.imag)] for v in vals],
                    "eigenvectors_real": vecs.real.tolist(),
                    "eigenvectors_imag": vecs.imag.tolist(),
                }
                for label, vals, vecs in zip(self.block_labels, self.eigenvalues, self.eigenvectors)
            ],
            "spectral_radius": self.spectral_radius,
            "orbit_residual": self.orbit_residual,
        }

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))


def spectrum(operator) -> SpectrumReport:
    """Eigendecomposition tagged by isotypic block.

    For an :class:`EquivariantLinearMap` the blocks are exactly
    independent, so each block is decomposed on its own and the eigenpair
    orbit property (symmetric copies of an eigenvector share its
    eigenvalue) is verified and recorded.  The check also runs per block,
    where ``rho(g)`` acts on the irrep copies by the stored irrep matrix;
    the conjugation error of the basis ``q`` is its
    ``tolerance_report["conjugation"]``.  Eigenvectors are zero-padded to
    the full dimension.  A dense matrix is treated as a single untagged block.
    An operator that does not map a space to itself raises ``ValueError``.
    """
    if isinstance(operator, EquivariantLinearMap):
        if operator.basis.iso_in is not operator.basis.iso:
            raise ValueError("operator must map a space to itself")
        k = assemble(operator)
        labels, vals, vecs = [], [], []
        resid = 0.0
        for blk in operator.basis.blocks:
            sub = k[blk.slice, blk.slice]
            w, v = np.linalg.eig(sub)
            copies = v.reshape(blk.multiplicity, blk.irrep.dim, w.size)
            norms = np.linalg.norm(v, axis=0)
            for mat in blk.irrep.matrices:
                gv = (mat @ copies).reshape(v.shape)
                resid = max(resid, float(np.max(np.linalg.norm(sub @ gv - gv * w, axis=0) / norms)))
            full = np.zeros((k.shape[0], w.size), dtype=complex)
            full[blk.slice] = v
            labels.append(blk.label)
            vals.append(w)
            vecs.append(full)
        radius = max((float(np.max(np.abs(w))) for w in vals), default=0.0)
        return SpectrumReport(labels, vals, vecs, radius, resid)
    k = np.asarray(operator, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("operator must be square")
    w, v = np.linalg.eig(k)
    return SpectrumReport(["dense"], [w], [v], float(np.max(np.abs(w))) if w.size else 0.0, None)


@dataclass
class EnergyDecomposition:
    """Per-block energy series ``e_i(t) = ||x^(i)(t)||^2`` along a trajectory."""

    time: np.ndarray
    block_labels: list
    block_energy: np.ndarray   # (n_blocks, T)
    total: np.ndarray          # (T,)

    @property
    def fractions(self) -> np.ndarray:
        denom = np.where(self.total > 0, self.total, 1.0)
        return self.block_energy / denom

    def series(self, include_fractions: bool = True) -> dict:
        out = {f"energy[{lab}]": (self.time, self.block_energy[i])
               for i, lab in enumerate(self.block_labels)}
        out["energy[total]"] = (self.time, self.total)
        if include_fractions:
            frac = self.fractions
            for i, lab in enumerate(self.block_labels):
                out[f"fraction[{lab}]"] = (self.time, frac[i])
        return out


def isotypic_energy(trajectory: np.ndarray, basis: IsotypicBasis, weights=None) -> EnergyDecomposition:
    """Split a trajectory's squared norm across isotypic components.

    ``weights`` is an optional diagonal weighting (e.g. masses) applied as
    a coordinate rescaling before projection.  It must hold ``dim`` finite
    values ``>= 0`` and be constant on the coordinate orbits of the
    representation (``diag(w)`` commutes with it to 1e-10 relative), which
    keeps the split exact; other weights raise ``ValueError``.
    """
    traj = np.asarray(trajectory, dtype=np.float64)
    if traj.ndim != 2 or traj.shape[1] != basis.dim:
        raise ValueError(f"trajectory must be (T, {basis.dim})")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (basis.dim,) or not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError(f"weights must be {basis.dim} finite numbers >= 0, got {weights!r:.60}")
        if equivariance_residual(np.diag(w), basis.source_rep) > 1e-10 * max(1.0, w.max()):
            raise ValueError("weights must be constant on the coordinate orbits of the representation")
        traj = traj * np.sqrt(w)
    energies = np.zeros((len(basis.blocks), traj.shape[0]))
    for i in range(len(basis.blocks)):
        comp = isotypic_project(traj, basis, i)
        energies[i] = np.sum(comp * comp, axis=1)
    total = np.sum(traj * traj, axis=1)
    return EnergyDecomposition(np.arange(traj.shape[0]), [b.label for b in basis.blocks], energies, total)


@dataclass
class PredictionError:
    """Cumulative squared multi-step prediction error statistics."""

    horizon: int
    per_horizon_mse: np.ndarray     # mean squared error at each step 1..H
    aggregate: float                # mean over initial states of the H-step sum
    per_copy: dict                  # quotient-copy id -> aggregate over that copy
    per_copy_counts: dict

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "aggregate": self.aggregate,
            "per_horizon_mse": self.per_horizon_mse.tolist(),
            "per_copy": {str(k): v for k, v in self.per_copy.items()},
            "per_copy_counts": {str(k): v for k, v in self.per_copy_counts.items()},
        }


def prediction_mse(model: KoopmanModel, dataset: TrajectoryDataset, horizon: int) -> PredictionError:
    """Mean cumulative squared error of ``horizon``-step predictions on the test split.

    For every test trajectory the model is rolled out from the
    initial state and compared to the recorded states; the aggregate is
    the mean over trajectories of ``sum_{h=1..H} ||xhat_h - x_h||^2``,
    also reported per horizon step and broken down by the quotient copy of
    each initial state (the group element mapping it to its orbit
    representative).  ``horizon`` must lie in ``1 .. T`` for trajectories
    of ``T`` steps; anything else raises ``ValueError``.
    """
    if horizon < 1:
        raise ValueError(f"prediction horizon must be at least 1, got {horizon}")
    trajs = dataset.split("test")
    if trajs.shape[0] == 0:
        raise ValueError("no trajectories in split 'test'")
    if horizon > trajs.shape[1] - 1:
        raise ValueError(f"horizon {horizon} exceeds trajectory length {trajs.shape[1] - 1}")
    preds = predict_batch(model, trajs[:, 0], horizon)
    errs = np.sum((preds - trajs[:, 1:horizon + 1]) ** 2, axis=2)  # (n, H)
    per_horizon = errs.mean(axis=0)
    totals = errs.sum(axis=1)
    copies = [orbit_representative(x0, dataset.rep_x)[0] for x0 in trajs[:, 0]]
    per_copy, counts = {}, {}
    for gid in sorted(set(copies)):
        mask = np.array([c == gid for c in copies])
        per_copy[gid] = float(totals[mask].mean())
        counts[gid] = int(mask.sum())
    return PredictionError(horizon, per_horizon, float(totals.mean()), per_copy, counts)


# ---------------------------------------------------------------------------
# Plot data emission (CSV + static SVG)
# ---------------------------------------------------------------------------

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
]
#: Markup characters in SVG text content (``xml.sax.saxutils.escape`` without its import cost).
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def emit_plot_data(series: dict, base_path, title: str = "", log_y: bool = False,
                   x_label: str = "x", y_label: str = "y"):
    """Write a long-format CSV and a static SVG line chart for the series.

    ``series`` maps names to ``(x, y)`` arrays.  Output bytes are
    deterministic for identical inputs; floats carry 17 significant digits
    in the CSV.  Returns ``(csv_path, svg_path)``.
    """
    if not series:
        raise ValueError("no series to emit")
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_suffix(".csv")
    svg_path = base.with_suffix(".svg")
    lines = ["series,x,y"]
    for name, (xs, ys) in series.items():
        if "," in name:
            raise ValueError(f"series name may not contain commas: {name!r}")
        for x, y in zip(np.asarray(xs, float), np.asarray(ys, float)):
            lines.append(f"{name},{fmt17(x)},{fmt17(y)}")
    csv_path.write_text("\n".join(lines) + "\n")
    svg_path.write_text(_render_svg(series, title, log_y, x_label, y_label))
    return csv_path, svg_path


def _render_svg(series, title, log_y, x_label, y_label):
    title, x_label, y_label = (text.translate(_XML_TEXT) for text in (title, x_label, y_label))
    width, height = 800, 500
    ml, mr, mt, mb = 70, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    def transform_y(v):
        if log_y:
            return np.log10(np.maximum(np.asarray(v, float), 1e-300))
        return np.asarray(v, float)

    xs_all = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys_all = np.concatenate([transform_y(y) for _, y in series.values()])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for tx in np.linspace(x_lo, x_hi, 5):
        parts.append(
            f'<text x="{px(tx):.1f}" y="{mt + ph + 18}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{tx:.3g}</text>'
        )
    for ty in np.linspace(y_lo, y_hi, 5):
        label = f"1e{ty:.2f}" if log_y else f"{ty:.3g}"
        parts.append(
            f'<text x="{ml - 6}" y="{py(ty):.1f}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 {mt + ph / 2:.1f})">{y_label}</text>'
    )
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}"
            for x, y in zip(np.asarray(xs, float), transform_y(ys))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * i
        parts.append(
            f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 30}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml + pw + 35}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{name.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
