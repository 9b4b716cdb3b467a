"""Write the spectrum digests read by ``tests/test_analysis.py``.

    PYTHONPATH=src python tests/data/make_spectrum_digests.py

Loads the reference checkpoints whose operator is an equivariant map and
records a sha256 of the block labels, of the eigenvalue bytes, of the
eigenvector bytes and of the spectral radius of each one's
``analysis.spectrum``.  The committed ``spectrum_digests.json`` was written
by the library at commit 9b8501f, when the orbit property was still
checked in the full space; the test requires the same digests, so any
change to a single bit of an eigenpair shows.  The orbit residual is not
digested.  Re-running this script overwrites the file with the current
library's output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from dha.analysis import spectrum
from dha.koopman import load_model

HERE = Path(__file__).resolve().parent
OUT = HERE / "spectrum_digests.json"
CHECKPOINTS = ("checkpoint_eedmd_c3", "checkpoint_eedmd_poly2_c3", "checkpoint_edae_c3")


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digest(report) -> dict:
    """sha256 of the labels, eigenvalues, eigenvectors and radius of a spectrum report."""
    return {
        "labels": hashlib.sha256(json.dumps(report.block_labels).encode()).hexdigest(),
        "eigenvalues": _sha(report.eigenvalues),
        "eigenvectors": _sha(report.eigenvectors),
        "radius": _sha([np.float64(report.spectral_radius)]),
    }


def reports() -> dict:
    """Checkpoint name -> spectrum report of its operator."""
    return {name: spectrum(load_model(HERE / f"{name}.json").k_map) for name in CHECKPOINTS}


def main():
    result = {name: digest(report) for name, report in reports().items()}
    OUT.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
