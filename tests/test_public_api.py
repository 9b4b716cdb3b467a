"""The public API of ``dha`` is pinned: its names and its records' fields.

Removing or renaming a public name fails this test until ``PUBLIC_API``
is updated; adding, removing, renaming or reordering a field of a public
record (a dataclass) fails it until ``PUBLIC_FIELDS`` is.  Either change
belongs in CHANGES.md.
"""

import dataclasses

import dha

PUBLIC_API = [
    "CommutantBasis", "DecompositionError", "EnergyDecomposition", "EquivariantLinearMap",
    "FiniteGroup", "InfeasibilityError", "InvalidStateError", "Irrep", "IrrepTable",
    "IsotypicBasis", "IsotypicBlock", "KoopmanModel", "Layer", "Network",
    "PredictionError", "Representation", "SpectrumReport",
    "SymmetricLinearSystem", "TrainConfig", "TrainingDivergenceError", "TrajectoryDataset",
    "adam_init", "adam_step", "analysis", "assemble",
    "character_projector", "commutant", "commutant_basis", "conjugate_representation",
    "coordinates", "default_hidden_width", "dense_net", "direct_product",
    "edmd_fit", "eedmd_fit", "emit_plot_data", "equivariance_residual", "equivariant_net",
    "equivariant_project", "generate_dataset", "group_from_descriptor", "groups", "hom_basis",
    "hom_space_dimension", "import_trajectories", "irreps_real", "is_g_stable", "isotypic",
    "isotypic_basis", "isotypic_energy", "isotypic_project", "koopman", "load_dataset",
    "load_model", "make_cyclic", "n_trainable_params", "net_equivariance_residual", "nets",
    "orbit", "orbit_representative", "predict_batch", "prediction_mse",
    "random_symmetric_stable_system", "regular_rep_copies", "regular_representation",
    "rep_descriptor", "rep_direct_sum", "rep_from_descriptor", "rollout", "save_dataset",
    "save_isotypic_basis", "save_metrics_csv", "save_model", "snapshot_pairs", "spectrum",
    "symmetric_square_rep", "system_noise", "systems", "train",
]


def test_public_api_is_pinned():
    assert sorted(dha.__all__) == PUBLIC_API


#: ``dataclasses.fields`` names of every public record, in order.
PUBLIC_FIELDS = {
    "CommutantBasis": ["iso", "iso_in"],
    "EnergyDecomposition": ["time", "block_labels", "block_energy", "total"],
    "EquivariantLinearMap": ["basis", "theta"],
    "FiniteGroup": ["factors"],
    "Irrep": ["group", "matrices", "field_type", "label"],
    "IrrepTable": ["group", "irreps"],
    "IsotypicBasis": ["q", "blocks", "source_rep", "tolerance_report"],
    "IsotypicBlock": ["irrep", "multiplicity", "offset"],
    "KoopmanModel": ["variant", "rep_x", "k_matrix", "observable", "encoder", "decoder", "k_map",
                     "config", "training_report", "params"],
    "Layer": ["activation", "weight", "bias", "basis"],
    "PredictionError": ["horizon", "per_horizon_mse", "aggregate", "per_copy", "per_copy_counts"],
    "Representation": ["group", "matrices", "space_label"],
    "SpectrumReport": ["block_labels", "eigenvalues", "eigenvectors", "spectral_radius", "orbit_residual"],
    "SymmetricLinearSystem": ["a", "rep_x", "sigma", "constraint_rows", "constraint_offsets"],
    "TrainConfig": ["latent_dim", "horizon", "gamma", "lr", "epochs", "batch", "seed", "patience",
                    "hidden_layers", "width", "max_windows", "ridge", "observable", "decoder_equivariant"],
    "TrajectoryDataset": ["trajectories", "splits", "rep_x", "dt", "provenance"],
}


def test_public_record_fields_are_pinned():
    records = {name: getattr(dha, name) for name in dha.__all__ if dataclasses.is_dataclass(getattr(dha, name))}
    assert sorted(records) == sorted(PUBLIC_FIELDS)
    for name, cls in records.items():
        assert [f.name for f in dataclasses.fields(cls)] == PUBLIC_FIELDS[name], name
