"""Full-batch training with Adam, run records, and the sweeps built on run_cell."""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tape
from .bounds import BoundContext, bound_valid, complexity_regularizer, multilayer_bound
from .graphs import Graph, ValidationError, build_propagation, inject_random_edges
from .metrics import accuracy, auc_score, dirichlet_energy, link_accuracy
from .model import (FIXED_STRATEGIES, LayerParams, ModelConfig, NumericsError, bind_layers,
                    checked_fields, forward, init_params, link_loss, link_scores,
                    retention_probabilities, sample_negative_edges, train_forward_is_eval)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 256
    learning_rate: float = 0.01
    reg_lambda: float = 0.5
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**checked_fields(cls, d))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param), t=0)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new parameter and state."""
    if param.shape != grad.shape:
        raise ValueError(f"adam_step: param shape {param.shape} != grad shape {grad.shape}")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_param, AdamState(m=m, v=v, t=t)


class TrainingAborted(RuntimeError):
    """Raised when a layer output or the objective turns non-finite (NaN or inf).

    Carries the parameters whose forward or objective failed and the rows
    logged before them; the message gives the epoch and ``reason``, the
    NumericsError's message, which names the layer when the forward pass
    failed. The parameters after t steps fail as epoch t+1 (see train).
    """

    def __init__(self, epoch: int, params: list[LayerParams], record: "RunRecord", *,
                 reason: str):
        super().__init__(f"training aborted at epoch {epoch}: {reason}")
        self.epoch = epoch
        self.params = params
        self.record = record


@dataclass
class RunRecord:
    """Per-epoch rows plus a JSON-ready summary."""

    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: _fmt(row.get(k)) for k in self.columns})

    def write_summary(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary, indent=2, sort_keys=True))


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


@dataclass
class TrainResult:
    params: list[LayerParams]
    record: RunRecord
    final_logits: np.ndarray   # eval-mode logits of the returned parameters
    final_scores: dict         # their train/val/test accuracy, plus the test "auc" for links


def _epoch_seed(base_seed: int, epoch: int, stream: int) -> int:
    return int(np.random.SeedSequence([int(base_seed), int(stream), int(epoch)])
               .generate_state(1)[0])


def _record_columns(num_layers: int) -> list[str]:
    cols = ["epoch", "train_loss", "objective", "regularizer",
            "train_accuracy", "val_accuracy", "test_accuracy"]
    for i in range(1, num_layers + 1):
        cols += [f"retention_min_l{i}", f"retention_mean_l{i}", f"retention_max_l{i}"]
    cols.append("wall_clock_s")
    return cols


def _split_edges(graph: Graph, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle the edge list and cut it into train/val/test positives: 85%, 5%, the rest."""
    e = graph.num_edges
    order = np.random.default_rng(seed).permutation(e)
    n_train = int(0.85 * e)
    n_val = int(0.05 * e)
    edges = graph.edges
    return (edges[order[:n_train]], edges[order[n_train:n_train + n_val]],
            edges[order[n_train + n_val:]])


def train(graph: Graph, model_config: ModelConfig, train_config: TrainConfig) -> TrainResult:
    """Train on the full train mask; deterministic for a fixed seed.

    The trainable-retention strategy optimizes the weights and the
    retention logits against loss + reg_lambda * regularizer; every other
    strategy optimizes the weights alone against the plain loss.

    Row t of the record holds epoch t's loss and objective and the
    eval-mode scores and bound of params_t, the parameters after epoch
    t's step. When the train forward draws no mask
    (``train_forward_is_eval``), epoch t+1's train forward is the eval
    forward of params_t, so row t is completed from epoch t+1's tape: its
    logits, and its regularizer Value when that is on the objective. The
    last row, the 0-epoch state and the strategies that draw a mask are
    evaluated apart.

    A non-finite layer output or objective aborts with TrainingAborted,
    which carries the parameters that failed and the rows logged before
    them; when a layer output failed, the message names the layer. The
    forward of params_t fails as epoch t+1, whether it ran as epoch
    t+1's train forward or as row t's evaluation apart.
    """
    cfg = train_config
    flexi = model_config.strategy == "flexidrop"
    link_task = model_config.task == "link_prediction"
    reuse = train_forward_is_eval(model_config)
    params = init_params(model_config.layer_dims, cfg.seed)
    ctx = BoundContext.from_graph(graph, model_config.num_layers)

    if link_task:
        train_pos, val_pos, test_pos = _split_edges(graph, _epoch_seed(cfg.seed, 0, 3))
        if min(len(train_pos), len(val_pos), len(test_pos)) == 0:
            raise ValueError("link_prediction needs enough edges for a train/val/test split")
        # messages may only pass over training edges
        message_graph = graph.with_edges(train_pos)
        eval_negs = {name: sample_negative_edges(graph, len(pos), _epoch_seed(cfg.seed, 0, 4 + i))
                     for i, (name, pos) in enumerate(
                         (("train", train_pos), ("val", val_pos), ("test", test_pos)))}
        eval_pos = {"train": train_pos, "val": val_pos, "test": test_pos}
    else:
        message_graph = graph

    prop = build_propagation(message_graph, model_config.propagation_mode)

    states = [AdamState.zeros_like(p.weight) for p in params]
    z_states = [AdamState.zeros_like(p.retention_logits) for p in params] if flexi else None

    record = RunRecord(columns=_record_columns(model_config.num_layers))
    start = time.perf_counter()

    def score(logits: np.ndarray) -> dict:
        """Per-split accuracy of eval-mode ``logits``, plus the test "auc" for links."""
        if not link_task:
            return {name: accuracy(logits, graph.labels, mask)
                    for name, mask in (("train", graph.train_mask), ("val", graph.val_mask),
                                       ("test", graph.test_mask))}
        tape = Tape()
        embeddings = tape.leaf(logits)
        scored = {name: link_scores(tape, embeddings, eval_pos[name], eval_negs[name])
                  for name in ("train", "val", "test")}
        scores = {name: link_accuracy(probs.data, labels)
                  for name, (probs, labels) in scored.items()}
        probs, labels = scored["test"]
        scores["auc"] = auc_score(probs.data, labels)
        return scores

    def log_row(row: dict, scores: dict, regularizer: float) -> None:
        """Complete ``row`` with the scores and bound of ``params`` and append it."""
        row.update(regularizer=regularizer, train_accuracy=scores["train"],
                   val_accuracy=scores["val"], test_accuracy=scores["test"])
        for i, p in enumerate(retention_probabilities(params), start=1):
            row[f"retention_min_l{i}"] = float(p.min())
            row[f"retention_mean_l{i}"] = float(p.mean())
            row[f"retention_max_l{i}"] = float(p.max())
        row["wall_clock_s"] = time.perf_counter() - start
        record.rows.append(row)

    pending = None   # row t before its scores and bound, which come from params_t
    # the pass after the last epoch only evaluates the returned parameters
    for epoch in range(1, cfg.epochs + 2):
        try:
            if epoch > cfg.epochs or (pending and not reuse):
                logits = forward(Tape(), message_graph, prop, params, model_config,
                                 mode="eval").logits.data
                scores = score(logits)
                bound = multilayer_bound(ctx, params)
                if pending:
                    log_row(pending, scores, bound)
                    pending = None
            if epoch > cfg.epochs:
                break
            tape = Tape()
            layers = bind_layers(tape, params, trainable=True)
            out = forward(tape, message_graph, prop, layers, model_config, mode="train",
                          seed=_epoch_seed(cfg.seed, epoch, 1))
            if link_task:
                negs = sample_negative_edges(graph, len(train_pos), _epoch_seed(cfg.seed, epoch, 2))
                probs, labels = link_scores(tape, out.logits, train_pos, negs)
                loss = link_loss(tape, probs, labels)
            else:
                loss = tape.softmax_cross_entropy(out.logits, graph.labels, graph.train_mask)
            objective, reg = loss, None
            if flexi and cfg.reg_lambda > 0.0:
                reg = complexity_regularizer(tape, ctx, layers)
                objective = tape.add(loss, tape.scalar_mul(cfg.reg_lambda, reg))
            if pending:
                log_row(pending, score(out.logits.data),
                        multilayer_bound(ctx, params) if reg is None else reg.item())
                pending = None
            if not np.isfinite(objective.item()):
                raise NumericsError("non-finite loss")
        except NumericsError as exc:
            raise TrainingAborted(epoch, [p.copy() for p in params], record,
                                  reason=str(exc)) from exc

        tape.backward(objective)
        for i, layer in enumerate(layers):
            params[i].weight, states[i] = adam_step(
                params[i].weight, layer.weight.grad, states[i], cfg.learning_rate)
            if flexi:
                params[i].retention_logits, z_states[i] = adam_step(
                    params[i].retention_logits, layer.retention_logits.grad.ravel(), z_states[i],
                    cfg.learning_rate)

        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            pending = {"epoch": epoch, "train_loss": loss.item(), "objective": objective.item()}

    last = record.rows[-1] if record.rows else {}
    # reversed: a tie in validation accuracy goes to the later epoch
    best = max(reversed(record.rows), key=lambda row: row["val_accuracy"], default={})
    record.summary = {
        "model_config": model_config.to_dict(),
        "train_config": cfg.to_dict(),
        "epochs_run": cfg.epochs,
        "final_train_loss": last.get("train_loss"),
        "final_objective": last.get("objective"),
        "final_regularizer": bound,
        "bound_valid": bound_valid(model_config.propagation_mode),
        "final_train_accuracy": last.get("train_accuracy"),
        "final_val_accuracy": last.get("val_accuracy"),
        "final_test_accuracy": last.get("test_accuracy"),
        "best_val_epoch": best.get("epoch"),
        "best_val_accuracy": best.get("val_accuracy"),
        "test_accuracy_at_best_val": best.get("test_accuracy"),
        "retention_mean": [float(p.mean()) for p in retention_probabilities(params)],
    }
    if link_task and record.rows:
        record.summary["final_test_auc"] = scores["auc"]
    return TrainResult(params, record, logits, scores)


def _cell_model(base_model: ModelConfig, strategy: str, rate: float,
                **changes) -> ModelConfig:
    """``base_model`` running ``strategy``; only the fixed strategies take ``rate``."""
    return replace(base_model, strategy=strategy,
                   rate=float(rate) if strategy in FIXED_STRATEGIES else 0.0, **changes)


def run_cell(graph: Graph, model_config: ModelConfig, train_config: TrainConfig,
             **labels) -> dict:
    """Train one sweep cell and return its row, ``labels`` first.

    The accuracies and the final-layer Dirichlet energy come from
    train()'s final eval-mode evaluation (of the initial parameters when
    no epoch runs). A run that aborts or rejects its configuration
    becomes a row with status "failed: <reason>" and empty results, so
    the sweep around it goes on.
    """
    try:
        result = train(graph, model_config, train_config)
    except (TrainingAborted, ValueError, ArithmeticError) as exc:
        return dict(labels, test_accuracy=None, val_accuracy=None, final_energy=None,
                    status=f"failed: {exc}")
    return dict(labels, test_accuracy=result.final_scores["test"],
                val_accuracy=result.final_scores["val"],
                final_energy=dirichlet_energy(result.final_logits, graph), status="ok")


def grid_search(graph: Graph, base_model: ModelConfig, strategies, rates, seeds,
                train_config: TrainConfig) -> list[dict]:
    """Sweep (strategy, rate) x seeds; one row per run plus aggregate rows.

    For the fixed strategies the swept value is the dropout rate; the
    trainable-retention strategy has no rate, so the same values sweep
    the regularization weight instead, and "none" collapses to a single
    parameter-free cell. Failed runs are recorded and skipped in the
    aggregates.
    """
    rows = []
    for strategy in strategies:
        for value in [0.0] if strategy == "none" else list(rates):
            tc = (replace(train_config, reg_lambda=float(value)) if strategy == "flexidrop"
                  else train_config)
            cells = [run_cell(graph, _cell_model(base_model, strategy, value),
                              replace(tc, seed=int(seed)),
                              strategy=strategy, param=value, seed=int(seed))
                     for seed in seeds]
            ok = [c["test_accuracy"] for c in cells if c["status"] == "ok"]
            agg = {"strategy": strategy, "param": value, "seed": "aggregate",
                   "test_accuracy": None, "test_std": None,
                   "status": f"{len(ok)}/{len(seeds)} ok"}
            if ok:
                agg["test_accuracy"] = float(np.mean(ok))
                agg["test_std"] = float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0
            rows += cells + [agg]
    return rows


GRID_COLUMNS = ["strategy", "param", "seed", "test_accuracy", "val_accuracy",
                "test_std", "status"]


def oversmoothing_profile(graph: Graph, base_model: ModelConfig, depths, strategies,
                          train_config: TrainConfig, hidden_dim: int = 32,
                          rate: float = 0.0) -> list[dict]:
    """Train one model per (depth, strategy) and report accuracy and energy.

    Each cell is ``base_model`` with depth-many layers of width
    ``hidden_dim``. The energy is the Dirichlet energy of the final
    layer's eval-mode embeddings, so the randomized strategies are
    inactive and retention scaling is applied. ``rate`` is the dropout
    rate of the fixed strategies. Returns one row per (depth, strategy).
    """
    rows = []
    for depth in depths:
        if depth < 1:
            raise ValidationError("depths must be >= 1")
        dims = (graph.feature_dim,) + (hidden_dim,) * (depth - 1) + (graph.num_classes,)
        for strategy in strategies:
            config = _cell_model(base_model, strategy, rate, layer_dims=dims)
            rows.append(run_cell(graph, config, train_config, depth=depth, strategy=strategy))
    return rows


def robustness_sweep(graph: Graph, base_model: ModelConfig, fractions, strategies, seeds,
                     train_config: TrainConfig, rate: float = 0.0) -> list[dict]:
    """Retrain on edge-injected copies of the graph; evaluate on the clean test mask.

    Fraction 0 rows give each strategy's clean baseline. The test mask is
    never touched by the perturbation (only edges change), so accuracies
    are comparable across fractions. The injected edges are seeded from
    (seed, fraction), so rows do not depend on execution order. ``rate``
    is the dropout rate of the fixed strategies. Returns one row per
    (fraction, strategy, seed).
    """
    rows = []
    for fraction in fractions:
        for strategy in strategies:
            config = _cell_model(base_model, strategy, rate)
            for seed in seeds:
                inject_seed = int(np.random.SeedSequence([int(seed), int(round(fraction * 1000))])
                                  .generate_state(1)[0])
                perturbed = inject_random_edges(graph, fraction, inject_seed)
                rows.append(run_cell(perturbed, config, replace(train_config, seed=int(seed)),
                                     fraction=fraction, strategy=strategy, seed=int(seed)))
    return rows
