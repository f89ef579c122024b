"""Proximity preserving binary codes.

Learns compact ±1 codes from near/far pair labels by solving a signed
graph min-cut per bit, fits kernel hashing functions for out-of-sample
points, and retrieves in Hamming space.
"""

from ppc.affinity import (
    AffinityConfig,
    Dataset,
    ProximityLabels,
    labels_by_class,
    labels_by_radius,
    load_dataset,
    radius_for_avg_neighbors,
    synth_2d,
    synth_blobs,
)
from ppc.hashing import (
    HashModel,
    KernelClassifier,
    KernelConfig,
    encode,
    fit_bit_classifier,
    load_model,
    save_model,
    train_with_hashing,
)
from ppc.index import PackedCodes, hamming, load_codes, pack, query_knn, query_radius, save_codes, unpack
from ppc.mincut import (
    SolverReport,
    bit_update,
    exhaustive_maxcut,
    init_fiedler,
    init_random,
    init_random_projection,
    init_signed_laplacian,
    objective,
    psd_shift,
    smallest_eigenpairs,
    vector_update,
)
from ppc.trainer import (
    LossReport,
    TrainConfig,
    TrainerState,
    accumulate,
    empirical_loss,
    hamming_from_gram,
    optimize_alpha,
    relaxed_loss,
    train,
    train_bit,
    weight_matrix,
)
from ppc.evalbench import PRCurve, auc, joint_histogram, precision_recall

__version__ = "0.1.0"

__all__ = [
    "AffinityConfig",
    "Dataset",
    "HashModel",
    "KernelClassifier",
    "KernelConfig",
    "LossReport",
    "PRCurve",
    "PackedCodes",
    "ProximityLabels",
    "SolverReport",
    "TrainConfig",
    "TrainerState",
    "accumulate",
    "auc",
    "bit_update",
    "empirical_loss",
    "encode",
    "exhaustive_maxcut",
    "fit_bit_classifier",
    "hamming",
    "hamming_from_gram",
    "init_fiedler",
    "init_random",
    "init_random_projection",
    "init_signed_laplacian",
    "joint_histogram",
    "labels_by_class",
    "labels_by_radius",
    "load_codes",
    "load_dataset",
    "load_model",
    "objective",
    "optimize_alpha",
    "pack",
    "precision_recall",
    "psd_shift",
    "query_knn",
    "query_radius",
    "radius_for_avg_neighbors",
    "relaxed_loss",
    "save_codes",
    "save_model",
    "smallest_eigenpairs",
    "synth_2d",
    "synth_blobs",
    "train",
    "train_bit",
    "train_with_hashing",
    "unpack",
    "vector_update",
    "weight_matrix",
]
