"""Write the system fingerprints read by ``tests/test_projection_oracle.py``.

    PYTHONPATH=src python tests/data/make_system_fingerprints.py

Builds ``random_symmetric_stable_system`` at three sizes (C3, m = 6;
C2xC2xC2, m = 48; C2xC2, m = 12) for seeds 0-2 and records each system's
``fingerprint()``, which hashes the drift matrix, the noise level and the
constraints at 17 significant digits.  The committed
``system_fingerprints.json`` was written by the library at commit 7cde37c,
when ``equivariant_project`` was one three-operand ``einsum``; the test
rebuilds the same systems and requires the same fingerprints, so any change
to a single bit of a drawn system shows.  Re-running this script overwrites
the file with the current library's output.
"""

import json
from pathlib import Path

from dha.groups import group_from_descriptor, regular_rep_copies
from dha.systems import random_symmetric_stable_system

HERE = Path(__file__).resolve().parent
OUT = HERE / "system_fingerprints.json"
SEEDS = (0, 1, 2)
#: ``(name, group, state_dim, spectral_radius, sigma, n_constraints)``: the
#: default CLI config, a paper-size state and a long-rollout config.
SPECS = (
    ("c3-m6", "C3", 6, 0.95, 0.01, 2),
    ("c2xc2xc2-m48", "C2xC2xC2", 48, 0.95, 0.01, 2),
    ("c2xc2-m12", "C2xC2", 12, 0.95, 0.01, 2),
)


def systems():
    """``(name, system)`` for every pinned system."""
    out = []
    for name, descriptor, dim, radius, sigma, n_constraints in SPECS:
        group = group_from_descriptor(descriptor)
        rep = regular_rep_copies(group, dim, "X")
        for seed in SEEDS:
            system = random_symmetric_stable_system(
                group, rep, spectral_radius=radius, sigma=sigma,
                n_constraints=n_constraints, seed=seed, offset_range=(-2.0, -1.0),
            )
            out.append((f"{name}-seed{seed}", system))
    return out


def main():
    result = {name: system.fingerprint() for name, system in systems()}
    OUT.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
