"""Governance-regularized federated Naive Bayes simulation framework."""

from .config import ExperimentConfig
from .data import CategoryMap, Dataset, FeatureSchema, SynthSpec, load_csv, synth_generate
from .evaluation import chi2_sf_1df, f1_macro, mcnemar_yates
from .experiment import ExperimentRecord, run_cell, run_grid, verify
from .governance import IccPrior, NodeProfile, compute_icc, normalize_prior
from .local_model import HybridModel, fit_hybrid, joint_log_scores
from .mog import MoGEnsemble, anll
from .partition import dirichlet_partition, jsd_heterogeneity, stratified_split
from .weights import (
    OptimizerConfig,
    learn_weights_icc,
    nelder_mead,
    weights_entropy,
    weights_fedavg,
)

__version__ = "0.1.0"

__all__ = [
    "CategoryMap",
    "Dataset",
    "ExperimentConfig",
    "ExperimentRecord",
    "FeatureSchema",
    "HybridModel",
    "IccPrior",
    "MoGEnsemble",
    "NodeProfile",
    "OptimizerConfig",
    "SynthSpec",
    "anll",
    "chi2_sf_1df",
    "compute_icc",
    "dirichlet_partition",
    "f1_macro",
    "fit_hybrid",
    "joint_log_scores",
    "jsd_heterogeneity",
    "learn_weights_icc",
    "load_csv",
    "mcnemar_yates",
    "nelder_mead",
    "normalize_prior",
    "run_cell",
    "run_grid",
    "stratified_split",
    "synth_generate",
    "verify",
    "weights_entropy",
    "weights_fedavg",
]
