"""Generalization-bound calculators and the retention regularizer.

The central quantity is the layerwise complexity bound

    M * prod_l ( max_j ||W_l[:, j]||_2 * ||p_l||_2 )

with prefactor M = 2^L * C * sqrt(2 * ln(2 d) / N) * max_u ||x_u||_inf,
where L is the depth, C the number of classes, d the feature dimension
and N the number of nodes. All logarithms here are natural. The bound's
derivation assumes a row-stochastic propagation operator.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Value
from .graphs import Graph, feature_inf_norm_max
from .model import BoundLayer, LayerParams, bind_layers, retention_probabilities

MC_CHUNK = 128   # Monte-Carlo sign draws per seed derived from the caller's


@dataclass(frozen=True)
class BoundContext:
    """Graph- and task-level constants the bound calculators need."""

    num_layers: int
    num_classes: int
    feature_dim: int
    num_nodes: int
    feature_inf_max: float

    def __post_init__(self):
        if self.num_layers < 1 or self.num_classes < 1 or self.feature_dim < 1 or self.num_nodes < 1:
            raise ValueError("bound context dimensions must be positive")
        if self.feature_inf_max < 0:
            raise ValueError("feature_inf_max must be >= 0")

    @classmethod
    def from_graph(cls, graph: Graph, num_layers: int) -> "BoundContext":
        return cls(num_layers=num_layers, num_classes=graph.num_classes,
                   feature_dim=graph.feature_dim, num_nodes=graph.num_nodes,
                   feature_inf_max=feature_inf_norm_max(graph))


def complexity_prefactor(ctx: BoundContext) -> float:
    """The constant M: doubles per layer, scales linearly in classes and
    in the largest absolute feature entry, and decays as 1/sqrt(N)."""
    return (2.0 ** ctx.num_layers) * ctx.num_classes * math.sqrt(
        2.0 * math.log(2.0 * ctx.feature_dim) / ctx.num_nodes) * ctx.feature_inf_max


def single_layer_bound(retention: float, weight_norm: float, feature_norm: float,
                       operator_row_norm: float, num_nodes: int) -> float:
    """Rademacher complexity bound for a one-layer model with uniform retention.

    ``retention`` is the shared keep probability, ``weight_norm`` bounds
    ||w||_2, ``feature_norm`` bounds every ||x_u||_2, and
    ``operator_row_norm`` bounds every l1 row norm of the propagation
    matrix (1 for row-stochastic aggregation; see
    PropagationOperator.max_row_norm). Setting retention = 1 recovers the
    dropout-free bound.
    """
    if not 0.0 <= retention <= 1.0:
        raise ValueError("retention must lie in [0, 1]")
    if min(weight_norm, feature_norm, operator_row_norm) < 0:
        raise ValueError("norm bounds must be >= 0")
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    return retention * weight_norm * feature_norm * operator_row_norm / math.sqrt(num_nodes)


def complexity_regularizer(tape: Tape, ctx: BoundContext,
                           layers: list[BoundLayer]) -> Value:
    """The layerwise bound as a differentiable Value on ``tape``.

    Gradients flow into both the weights (through the max column norm)
    and the retention logits (through ||p||_2) of layers bound trainable.
    """
    if len(layers) != ctx.num_layers:
        raise ValueError(f"{len(layers)} layers for a depth-{ctx.num_layers} context")
    total: Value | None = None
    for layer in layers:
        col_max = tape.max_reduce(tape.column_l2_norms(layer.weight))
        p_norm = tape.column_l2_norms(layer.retention)   # (k,1) column -> its single norm
        factor = tape.elementwise_mul(col_max, p_norm)
        total = factor if total is None else tape.elementwise_mul(total, factor)
    return tape.scalar_mul(complexity_prefactor(ctx), total)


def multilayer_bound(ctx: BoundContext, params: list[LayerParams]) -> float:
    """Non-differentiable report of the layerwise bound.

    Shares the regularizer implementation (evaluated on a throwaway
    tape), so the two are equal to the last bit.
    """
    tape = Tape()
    return complexity_regularizer(tape, ctx, bind_layers(tape, params, trainable=False)).item()


def generalization_bound(empirical_risk: float, rademacher: float,
                         loss_bound: float, delta: float, num_samples: int) -> float:
    """High-probability risk bound: empirical + 2 * complexity + confidence term.

    ``loss_bound`` caps the loss range; ``delta`` is the failure probability.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if loss_bound < 0 or rademacher < 0:
        raise ValueError("loss_bound and rademacher must be >= 0")
    return empirical_risk + 2.0 * rademacher + 3.0 * loss_bound * math.sqrt(
        math.log(2.0 / delta) / num_samples)


def _sup_means(signs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """For each sign row eps, sup over hypotheses of (1/N) sum_u eps_u h(x_u)."""
    n = outputs.shape[1]
    return (signs @ outputs.T).max(axis=1) / n


def empirical_rademacher_mc(outputs: np.ndarray, num_draws: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the empirical Rademacher complexity.

    ``outputs[h, u]`` is hypothesis h evaluated at sample u; the estimate
    is a lower bound for the complexity of any class containing those
    hypotheses. Draws are generated in chunks of ``MC_CHUNK`` with seeds
    derived from ``seed``. Returns (mean, standard error).
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[0] < 1:
        raise ValueError("outputs must be (num_hypotheses, num_samples)")
    if num_draws < 2:
        raise ValueError("need at least 2 draws for a standard error")
    n = outputs.shape[1]
    seeds = np.random.SeedSequence(seed).spawn(math.ceil(num_draws / MC_CHUNK))
    vals = []
    remaining = num_draws
    for ss in seeds:
        take = min(MC_CHUNK, remaining)
        signs = np.random.default_rng(ss).integers(0, 2, size=(take, n)) * 2.0 - 1.0
        vals.append(_sup_means(signs, outputs))
        remaining -= take
    vals = np.concatenate(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(num_draws))


def empirical_rademacher_exact(outputs: np.ndarray) -> float:
    """Exact empirical Rademacher complexity by enumerating all sign vectors.

    Feasible only for small samples; refuses more than 20 points.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[0] < 1:
        raise ValueError("outputs must be (num_hypotheses, num_samples)")
    n = outputs.shape[1]
    if n > 20:
        raise ValueError(f"exact enumeration of 2^{n} sign vectors is not feasible")
    total = 0.0
    count = 1 << n
    bits = np.arange(n, dtype=np.int64)
    for start in range(0, count, 65536):
        block = np.arange(start, min(start + 65536, count), dtype=np.int64)
        signs = (((block[:, None] >> bits[None, :]) & 1) * 2.0 - 1.0)
        total += _sup_means(signs, outputs).sum()
    return total / count


def bound_valid(propagation_mode: str) -> bool:
    """Whether the layerwise bound's row-stochastic assumption holds under ``propagation_mode``."""
    return propagation_mode == "row_stochastic"


def bound_report(ctx: BoundContext, params: list[LayerParams], propagation_mode: str) -> dict:
    """JSON-ready summary of the bound and its per-layer factors.

    ``bound_valid`` is false when the bound's assumption fails; the
    bound is still evaluated, and a warning is issued.
    """
    if not bound_valid(propagation_mode):
        warnings.warn("the layerwise bound assumes a row-stochastic propagation "
                      "operator; symmetric normalization voids its guarantee")
    col_norms = [float(np.sqrt((p.weight ** 2).sum(axis=0)).max()) for p in params]
    p_norms = [float(np.linalg.norm(p)) for p in retention_probabilities(params)]
    return {
        "prefactor": complexity_prefactor(ctx),
        "layer_weight_col_norm_max": col_norms,
        "layer_retention_norm": p_norms,
        "complexity_bound": multilayer_bound(ctx, params),
        "bound_valid": bound_valid(propagation_mode),
        "num_layers": ctx.num_layers,
        "num_classes": ctx.num_classes,
        "feature_dim": ctx.feature_dim,
        "num_nodes": ctx.num_nodes,
        "feature_inf_max": ctx.feature_inf_max,
    }
