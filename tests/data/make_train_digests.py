"""Write the training digests read by ``tests/test_train_oracle.py``.

    PYTHONPATH=src python tests/data/make_train_digests.py

Trains ``dae``, ``dae_aug`` and ``edae`` at a tiny config and records a
sha256 of each model's trained parameters and of its training report.
The committed ``train_digests.json`` was written by the library at commit
a95a876, before the train step worked in place and Adam kept flat moment
vectors; the test retrains the same models and requires the same digests,
so any change to a single bit of training shows.  Re-running this script
overwrites the file with the current library's output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from dha.groups import group_from_descriptor, regular_rep_copies
from dha.koopman import TrainConfig, train
from dha.systems import generate_dataset, random_symmetric_stable_system

HERE = Path(__file__).resolve().parent
OUT = HERE / "train_digests.json"
VARIANTS = ("dae", "dae_aug", "edae")


def _dataset(descriptor, dim, seed):
    group = group_from_descriptor(descriptor)
    rep = regular_rep_copies(group, dim, "X")
    system = random_symmetric_stable_system(group, rep, 0.9, sigma=0.01, n_constraints=0, seed=seed)
    return generate_dataset(system, n_train=4, n_test=2, horizon=20, seed=seed + 1)


def cases():
    """``(name, variant, dataset, config)`` for every digested fit."""
    out = []
    for descriptor, dim, latent, seed in (("C3", 6, 6, 3), ("C2xC2", 8, 8, 5)):
        data = _dataset(descriptor, dim, seed)
        for variant in VARIANTS:
            config = TrainConfig(latent_dim=latent, horizon=4, epochs=3, batch=16, seed=seed,
                                 hidden_layers=2, width=2 * dim, patience=1)
            out.append((f"{descriptor}-{variant}", variant, data, config))
    return out


def digest(model) -> dict:
    """sha256 of the trained parameters (shape, dtype, bytes) and of the report."""
    params = model.encoder.parameters() + model.decoder.parameters() + [model.k_matrix]
    if model.k_map is not None:
        params.append(model.k_map.theta)
    h = hashlib.sha256()
    for p in params:
        p = np.ascontiguousarray(p)
        h.update(f"{p.shape}{p.dtype.str}".encode())
        h.update(p.tobytes())
    report = json.dumps(model.training_report, sort_keys=True).encode()
    return {"params": h.hexdigest(), "report": hashlib.sha256(report).hexdigest()}


def main():
    result = {name: digest(train(variant, data, config)) for name, variant, data, config in cases()}
    OUT.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
