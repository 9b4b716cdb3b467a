"""The public API of ``dha`` is pinned.

Removing or renaming a public name fails this test until ``PUBLIC_API``
is updated, and the change belongs in CHANGES.md.
"""

import dha

PUBLIC_API = [
    "CommutantBasis", "DecompositionError", "EnergyDecomposition", "EquivariantLinearMap",
    "FiniteGroup", "InfeasibilityError", "InvalidStateError", "Irrep", "IrrepTable",
    "IsotypicBasis", "IsotypicBlock", "KoopmanModel", "Layer", "Network",
    "NumericOverflowError", "PredictionError", "Representation", "SpectrumReport",
    "SymmetricLinearSystem", "TrainConfig", "TrainingDivergenceError", "TrajectoryDataset",
    "UnsupportedGroupError", "adam_init", "adam_step", "analysis", "assemble",
    "character_projector", "commutant", "commutant_basis", "conjugate_representation",
    "coordinates", "dae_loss", "default_hidden_width", "dense_net", "direct_product",
    "edmd_fit", "eedmd_fit", "emit_plot_data", "equivariance_residual", "equivariant_net",
    "equivariant_project", "generate_dataset", "group_from_descriptor", "groups", "hom_basis",
    "hom_space_dimension", "import_trajectories", "irreps_real", "is_g_stable", "isotypic",
    "isotypic_basis", "isotypic_energy", "isotypic_project", "koopman", "load_dataset",
    "load_model", "make_cyclic", "n_trainable_params", "net_equivariance_residual", "nets",
    "orbit", "orbit_representative", "predict", "predict_batch", "prediction_mse",
    "random_symmetric_stable_system", "regular_rep_copies", "regular_representation",
    "rep_descriptor", "rep_direct_sum", "rep_from_descriptor", "rollout", "save_dataset",
    "save_isotypic_basis", "save_metrics_csv", "save_model", "snapshot_pairs", "spectrum",
    "symmetric_square_rep", "system_noise", "systems", "train",
]


def test_public_api_is_pinned():
    assert sorted(dha.__all__) == PUBLIC_API
