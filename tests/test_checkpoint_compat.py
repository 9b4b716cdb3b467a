"""Checkpoints written before the block-table representation still load.

``tests/data`` holds a ``dha-model-v1`` ``edae`` and ``eedmd`` checkpoint
(C3, m = 6) written when equivariant maps were dense generator stacks,
with the predictions the writing library made (see
``tests/data/make_checkpoints.py``).  Loading must rebuild the same block
layout and reproduce those predictions.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dha.koopman import load_model, predict_batch

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("variant", ["edae", "eedmd"])
def test_reference_checkpoint_reproduces_predictions(variant):
    model = load_model(DATA / f"checkpoint_{variant}_c3.json")
    expected = json.loads((DATA / f"checkpoint_{variant}_c3_predictions.json").read_text())
    ref = np.array(expected["predictions"])
    got = predict_batch(model, np.array(expected["x0"]), expected["horizon"])
    assert model.variant == variant
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
