"""Write the reference checkpoints read by ``tests/test_checkpoint_compat.py``.

    PYTHONPATH=src python tests/data/make_checkpoints.py

The committed files were written by the library at commit 5e8150d, when
equivariant layers and the commutant still stored dense generator stacks;
the test checks that later versions load them and reproduce the stored
predictions.  Re-running this script overwrites them with the current
library's output.
"""

import json
from pathlib import Path

import numpy as np

from dha.groups import make_cyclic, regular_rep_copies
from dha.koopman import TrainConfig, predict_batch, save_model, train
from dha.systems import generate_dataset, random_symmetric_stable_system

HERE = Path(__file__).resolve().parent
HORIZON = 5


def main():
    group = make_cyclic(3)
    rep = regular_rep_copies(group, 6, "X")
    system = random_symmetric_stable_system(group, rep, 0.9, sigma=0.01, n_constraints=0, seed=4)
    dataset = generate_dataset(system, n_train=4, n_test=2, horizon=20, seed=5)
    x0 = np.random.default_rng(6).uniform(-1.0, 1.0, (4, rep.dim))
    configs = {
        "edae": TrainConfig(latent_dim=6, horizon=4, epochs=3, batch=16, seed=7,
                            hidden_layers=1, width=6),
        "eedmd": TrainConfig(seed=0),
    }
    for variant, config in configs.items():
        model = train(variant, dataset, config)
        save_model(model, HERE / f"checkpoint_{variant}_c3.json")
        expected = {"x0": x0.tolist(), "horizon": HORIZON,
                    "predictions": predict_batch(model, x0, HORIZON).tolist()}
        (HERE / f"checkpoint_{variant}_c3_predictions.json").write_text(json.dumps(expected))


if __name__ == "__main__":
    main()
