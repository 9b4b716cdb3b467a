"""Write the reference checkpoints read by ``tests/test_checkpoint_compat.py``.

    PYTHONPATH=src python tests/data/make_checkpoints.py [name ...]

writes ``checkpoint_<name>_c3.json`` and its predictions for each named
entry of ``CONFIGS`` (default: all).  The committed ``edae`` and ``eedmd``
files were written by the library at commit 5e8150d, when equivariant
layers and the commutant still stored dense generator stacks; ``edmd``,
``dae``, ``dae_aug`` and ``eedmd_poly2`` were written at commit b93fa87,
before every variant was built by one constructor.  The test checks that
later versions load them and reproduce the stored predictions.
Re-running this script overwrites the named files with the current
library's output.
"""

import json
import sys
from pathlib import Path

import numpy as np

from dha.groups import make_cyclic, regular_rep_copies
from dha.koopman import TrainConfig, predict_batch, save_model, train
from dha.systems import generate_dataset, random_symmetric_stable_system

HERE = Path(__file__).resolve().parent
HORIZON = 5

_NETS = dict(latent_dim=6, horizon=4, epochs=3, batch=16, seed=7, hidden_layers=1, width=6)

# name -> (variant, training config)
CONFIGS = {
    "edae": ("edae", TrainConfig(**_NETS)),
    "eedmd": ("eedmd", TrainConfig(seed=0)),
    "edmd": ("edmd", TrainConfig(seed=0)),
    "dae": ("dae", TrainConfig(**_NETS)),
    "dae_aug": ("dae_aug", TrainConfig(**_NETS)),
    "eedmd_poly2": ("eedmd", TrainConfig(seed=0, observable="poly2")),
}


def main(names):
    group = make_cyclic(3)
    rep = regular_rep_copies(group, 6, "X")
    system = random_symmetric_stable_system(group, rep, 0.9, sigma=0.01, n_constraints=0, seed=4)
    dataset = generate_dataset(system, n_train=4, n_test=2, horizon=20, seed=5)
    x0 = np.random.default_rng(6).uniform(-1.0, 1.0, (4, rep.dim))
    for name in names:
        variant, config = CONFIGS[name]
        model = train(variant, dataset, config)
        save_model(model, HERE / f"checkpoint_{name}_c3.json")
        expected = {"x0": x0.tolist(), "horizon": HORIZON,
                    "predictions": predict_batch(model, x0, HORIZON).tolist()}
        (HERE / f"checkpoint_{name}_c3_predictions.json").write_text(json.dumps(expected))


if __name__ == "__main__":
    main(sys.argv[1:] or list(CONFIGS))
