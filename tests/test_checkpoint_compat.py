"""Checkpoints written by earlier library versions still load.

``tests/data`` holds ``dha-model-v1`` checkpoints (C3, m = 6) with the
predictions the writing library made (see ``tests/data/make_checkpoints.py``):
``edae`` and ``eedmd`` from when equivariant maps were dense generator
stacks, and ``edmd``, ``dae``, ``dae_aug`` and a ``poly2`` ``eedmd`` from
before every variant was built by one constructor.  Loading must rebuild
the same architecture and block layout and reproduce those predictions.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dha.koopman import load_model, predict_batch

DATA = Path(__file__).resolve().parent / "data"


# checkpoint name -> variant it holds
VARIANT = {"edae": "edae", "eedmd": "eedmd", "edmd": "edmd", "dae": "dae",
           "dae_aug": "dae_aug", "eedmd_poly2": "eedmd"}


@pytest.mark.parametrize("name", list(VARIANT))
def test_reference_checkpoint_reproduces_predictions(name):
    model = load_model(DATA / f"checkpoint_{name}_c3.json")
    expected = json.loads((DATA / f"checkpoint_{name}_c3_predictions.json").read_text())
    ref = np.array(expected["predictions"])
    got = predict_batch(model, np.array(expected["x0"]), expected["horizon"])
    assert model.variant == VARIANT[name]
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _stepwise_predictions(model, x0, horizon):
    """Prediction as one matrix product and one decode per step, each on a fresh latent."""
    out = np.zeros((x0.shape[0], horizon, model.state_dim))
    z = model.encode(x0)
    for h in range(horizon):
        z = z @ model.k_matrix.T
        out[:, h] = model.decode(z)
    return out


@pytest.mark.parametrize("batch", [1, 2, 64])
@pytest.mark.parametrize("name", list(VARIANT))
def test_predict_batch_is_bitwise_the_stepwise_rollout(name, batch):
    model = load_model(DATA / f"checkpoint_{name}_c3.json")
    x0 = np.random.default_rng(batch).uniform(-1.0, 1.0, (batch, model.state_dim))
    assert np.array_equal(predict_batch(model, x0, 7), _stepwise_predictions(model, x0, 7))
