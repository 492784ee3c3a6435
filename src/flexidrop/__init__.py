"""GNN training toolkit with trainable dropout retention and complexity bounds."""

__version__ = "0.1.0"

from .autodiff import GradCheckReport, Tape, Value, grad_check
from .bounds import (BoundContext, bound_report, complexity_prefactor,
                     complexity_regularizer, empirical_rademacher_exact,
                     empirical_rademacher_mc, generalization_bound, multilayer_bound,
                     single_layer_bound)
from .graphs import (Graph, ParseError, PropagationOperator, SplitSpec, ValidationError,
                     build_propagation, feature_inf_norm_max, generate_sbm,
                     inject_random_edges, load_graph, sample_absent_pairs)
from .metrics import accuracy, auc_score, dirichlet_energy, link_accuracy
from .model import (LayerParams, ModelConfig, NumericsError, forward, init_params,
                    link_loss, link_scores, load_checkpoint, retention_probabilities,
                    sample_negative_edges, save_checkpoint)
from .training import (AdamState, RunRecord, TrainConfig, TrainingAborted, TrainResult,
                       adam_step, depth_dims, grid_search, oversmoothing_profile,
                       robustness_sweep, run_cell, train)

__all__ = [
    "Tape", "Value", "grad_check", "GradCheckReport",
    "Graph", "PropagationOperator", "SplitSpec", "ParseError", "ValidationError",
    "load_graph", "generate_sbm", "build_propagation", "inject_random_edges",
    "sample_absent_pairs", "feature_inf_norm_max",
    "LayerParams", "ModelConfig", "NumericsError", "init_params", "forward",
    "retention_probabilities", "link_scores", "link_loss", "sample_negative_edges",
    "save_checkpoint", "load_checkpoint",
    "BoundContext", "complexity_prefactor", "single_layer_bound", "multilayer_bound",
    "complexity_regularizer", "generalization_bound", "empirical_rademacher_mc",
    "empirical_rademacher_exact", "bound_report",
    "TrainConfig", "TrainResult", "TrainingAborted", "AdamState", "RunRecord",
    "adam_step", "train", "run_cell", "grid_search", "depth_dims", "oversmoothing_profile",
    "robustness_sweep",
    "accuracy", "dirichlet_energy", "link_accuracy", "auc_score",
]
