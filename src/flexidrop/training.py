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

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and epsilon


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
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.reg_lambda < np.inf:
            raise ValueError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
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
              lr: float) -> None:
    """One bias-corrected Adam update of ``param`` and ``state``, in place.

    Each value is computed in the operation order of the textbook
    formula, so the in-place update gives it bit for bit, with two
    temporaries instead of one per operation.
    """
    if param.shape != grad.shape:
        raise ValueError(f"adam_step: param shape {param.shape} != grad shape {grad.shape}")
    state.t += 1
    m, v = state.m, state.v
    step = np.multiply(1.0 - ADAM_BETA1, grad)
    m *= ADAM_BETA1
    m += step                                   # m = b1 m + (1 - b1) g
    np.multiply(1.0 - ADAM_BETA2, grad, out=step)
    step *= grad
    v *= ADAM_BETA2
    v += step                                   # v = b2 v + ((1 - b2) g) g
    denom = np.divide(v, 1.0 - ADAM_BETA2 ** state.t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS                           # sqrt(v_hat) + eps
    np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=step)
    step *= lr
    step /= denom                               # (lr m_hat) / (sqrt(v_hat) + eps)
    param -= step


class TrainingAborted(RuntimeError):
    """Raised when a layer output, the objective or a gradient turns non-finite (NaN or inf).

    Carries the parameters whose forward, objective or gradient failed and
    the rows logged before them; the message gives the epoch and
    ``reason``: the NumericsError's message, which names the layer when
    the forward pass failed, or the layer and parameter whose gradient
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
                writer.writerow({k: _fmt(k, row.get(k)) for k in self.columns})

    def write_summary(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary, indent=2, sort_keys=True))


def _fmt(column: str, value):
    if column == "wall_clock_s":   # fixed decimals: a rerun writes as many bytes
        return f"{value:.6f}"
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


def _record_columns(config: ModelConfig) -> list[str]:
    cols = ["epoch", "train_loss", "objective", "regularizer",
            "train_accuracy", "val_accuracy", "test_accuracy"]
    if config.strategy == "flexidrop":   # the one strategy with retention logits
        for i in range(1, config.num_layers + 1):
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

    The loop walks params_0 ... params_E, the parameters after t steps:
    it scores params_t, logs row t, then takes epoch t+1's step. Row t
    holds epoch t's loss and objective and params_t's eval-mode scores,
    bound and retention. A strategy whose train forward draws no mask
    (``train_forward_is_eval``) scores params_t from epoch t+1's train
    tape: its logits, and its regularizer Value when that is on the
    objective. Other states are scored apart, by an eval forward before
    the train one; params_E always is, and the summary describes it.

    A non-finite layer output, objective or gradient aborts with
    TrainingAborted, which carries the parameters that failed and the rows
    logged so far. The message names the layer whose output failed,
    or the layer and parameter whose gradient failed; the gradients are
    checked before the epoch's Adam step. The forward of params_t
    fails as epoch t+1, whether it ran as epoch t+1's train forward or as
    row t's evaluation apart.
    """
    cfg = train_config
    flexi = model_config.strategy == "flexidrop"
    reuse = train_forward_is_eval(model_config)
    params = init_params(model_config, cfg.seed)
    ctx = BoundContext.from_graph(graph, model_config.num_layers)

    # the task fixes the operator, the loss of a train forward and the scores of an eval one
    if model_config.task == "link_prediction":
        positives = dict(zip(("train", "val", "test"),
                             _split_edges(graph, _epoch_seed(cfg.seed, 0, 3))))
        if min(map(len, positives.values())) == 0:
            raise ValueError("link_prediction needs enough edges for a train/val/test split")
        negatives = {name: sample_negative_edges(graph, len(pos), _epoch_seed(cfg.seed, 0, 4 + i))
                     for i, (name, pos) in enumerate(positives.items())}
        train_pos = positives["train"]
        # messages may only pass over training edges
        prop = build_propagation(replace(graph, edges=train_pos), model_config.propagation_mode)

        def task_loss(tape, out, epoch):
            negs = sample_negative_edges(graph, len(train_pos), _epoch_seed(cfg.seed, epoch, 2))
            return link_loss(tape, *link_scores(tape, out, train_pos, negs))

        def score(logits):
            tape = Tape()
            embeddings = tape.leaf(logits)
            scored = {name: link_scores(tape, embeddings, pos, negatives[name])
                      for name, pos in positives.items()}
            probs, labels = scored["test"]
            return {**{name: link_accuracy(p.data, y) for name, (p, y) in scored.items()},
                    "auc": auc_score(probs.data, labels)}
    else:
        prop = build_propagation(graph, model_config.propagation_mode)

        def task_loss(tape, out, epoch):
            return tape.softmax_cross_entropy(out, graph.labels, graph.train_mask)

        def score(logits):
            return {name: accuracy(logits, graph.labels, getattr(graph, f"{name}_mask"))
                    for name in ("train", "val", "test")}

    # one vector [W_1, (z_1), W_2, (z_2), ...] (z under flexidrop alone) for all parameters,
    # stepped in place by one Adam update per epoch; params are views of its named segments
    segments = {f"layer {i} {name}": a for i, p in enumerate(params, start=1) for name, a in
                (("weight", p.weight), ("retention logits", p.retention_logits)) if a is not None}
    flat = np.concatenate([a.ravel() for a in segments.values()])
    ends = np.cumsum([a.size for a in segments.values()])
    parts = iter(np.split(flat, ends[:-1]))
    params = [LayerParams(next(parts).reshape(p.weight.shape), next(parts) if flexi else None)
              for p in params]
    adam = AdamState.zeros_like(flat)

    record = RunRecord(columns=_record_columns(model_config))
    start = time.perf_counter()
    for t in range(cfg.epochs + 1):   # scores params_t, then takes epoch t+1's step
        trains = t < cfg.epochs
        logs = t > 0 and (t % cfg.eval_every == 0 or not trains)
        scored = None   # params_t's scores, regularizer and retention probabilities
        try:
            if not trains or (logs and not reuse):   # scored apart
                logits = forward(Tape(), prop, params, model_config, mode="eval").data
                scored = (score(logits), multilayer_bound(ctx, params),
                          retention_probabilities(params))
            if trains:
                tape = Tape()
                layers = bind_layers(tape, params, trainable=True)
                # numpy need not warn of what forward and the objective check abort on
                with np.errstate(over="ignore", invalid="ignore"):
                    # a forward that draws no mask takes no seed
                    out = forward(tape, prop, layers, model_config, mode="train",
                                  seed=0 if reuse else _epoch_seed(cfg.seed, t + 1, 1))
                loss = task_loss(tape, out, t + 1)
                objective, reg = loss, None
                if flexi and cfg.reg_lambda > 0.0:
                    with np.errstate(over="ignore", invalid="ignore"):
                        reg = complexity_regularizer(tape, ctx, layers)
                        objective = tape.add(loss, tape.scalar_mul(cfg.reg_lambda, reg))
                if logs and reuse:   # scored from the tape; flexidrop's p = logistic(z) is on it
                    scored = (score(out.data),
                              multilayer_bound(ctx, params) if reg is None else reg.item(),
                              [layer.retention.data.ravel() for layer in layers] if flexi else [])
                if not np.isfinite(objective.item()):
                    raise NumericsError("non-finite loss")
        except NumericsError as exc:
            raise TrainingAborted(t + 1, params, record, reason=str(exc)) from exc
        finally:   # an abort of epoch t+1 still carries row t, if params_t was scored
            if logs and scored:
                record.rows.append({
                    "epoch": t, "train_loss": losses[0], "objective": losses[1],
                    "regularizer": scored[1],
                    **{f"{name}_accuracy": scored[0][name] for name in ("train", "val", "test")},
                    **{f"retention_{stat}_l{i}": float(getattr(p, stat)()) for i, p in
                       enumerate(scored[2], start=1) for stat in ("min", "mean", "max")},
                    "wall_clock_s": time.perf_counter() - start})
        if not trains:
            break
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            grad = np.concatenate([g.ravel() for g in tape.backward(objective, [
                v for layer in layers for v in (layer.weight, layer.retention_logits)
                if v is not None])])
        # a backward can overflow under a finite objective; Adam would spread it
        if not np.isfinite(grad).all():
            j = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(grad))[0], side="right"))
            raise TrainingAborted(t + 1, params, record,
                                  reason=f"non-finite gradient of {list(segments)[j]}")
        adam_step(flat, grad, adam, cfg.learning_rate)
        losses = loss.item(), objective.item()   # for row t+1
        # nothing this epoch made outlives it into the next epoch's forward
        del tape, layers, out, loss, objective, reg, grad

    scores, bound, retention = scored   # params_E's, from the last pass
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
        "retention_mean": [float(p.mean()) for p in retention],
    }
    if record.rows and "auc" in scores:
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
    no epoch runs). A run that aborts, or whose data train() rejects,
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
    parameter-free cell. A config that cannot be built raises before any
    cell trains; a failed run is a failed row, skipped in the aggregates.
    """
    groups = [(strategy, value, _cell_model(base_model, strategy, value),
               replace(train_config, reg_lambda=float(value)) if strategy == "flexidrop"
               else train_config)
              for strategy in strategies for value in ([0.0] if strategy == "none" else rates)]
    rows = []
    for strategy, value, model, tc in groups:
        cells = [run_cell(graph, model, replace(tc, seed=int(seed)),
                          strategy=strategy, param=value, seed=int(seed)) for seed in seeds]
        ok = [c["test_accuracy"] for c in cells if c["status"] == "ok"]
        agg = {"strategy": strategy, "param": value, "seed": "aggregate",
               "test_accuracy": None, "test_std": None, "status": f"{len(ok)}/{len(cells)} ok"}
        if ok:
            agg["test_accuracy"] = float(np.mean(ok))
            agg["test_std"] = float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0
        rows += cells + [agg]
    return rows


GRID_COLUMNS = ["strategy", "param", "seed", "test_accuracy", "val_accuracy",
                "test_std", "status"]


def depth_dims(graph: Graph, base_model: ModelConfig, depth: int,
               hidden_dim: int) -> tuple[int, ...]:
    """``layer_dims`` of a depth-``depth`` oversmoothing cell, hidden layers ``hidden_dim`` wide.

    Node classification ends in the class count; link prediction scores
    embeddings and ends in ``hidden_dim``.
    """
    if depth < 1:
        raise ValidationError("depths must be >= 1")
    out = hidden_dim if base_model.task == "link_prediction" else graph.num_classes
    return (graph.feature_dim,) + (hidden_dim,) * (depth - 1) + (out,)


def oversmoothing_profile(graph: Graph, base_model: ModelConfig, layer_dims, strategies,
                          train_config: TrainConfig, rate: float = 0.0) -> list[dict]:
    """Train one model per (layer dims, strategy) and report accuracy and energy.

    Each cell is ``base_model`` with one entry of ``layer_dims`` (see
    ``depth_dims``); its depth is that entry's layer count. The energy is
    the Dirichlet energy of the final layer's eval-mode embeddings, so
    the randomized strategies are inactive and retention scaling is
    applied. ``rate`` is the dropout rate of the fixed strategies. One row
    per (depth, strategy); a config that cannot be built raises before
    any cell trains, and a failed run is a failed row.
    """
    cells = [(_cell_model(base_model, strategy, rate, layer_dims=dims), strategy)
             for dims in layer_dims for strategy in strategies]
    return [run_cell(graph, config, train_config, depth=config.num_layers, strategy=strategy)
            for config, strategy in cells]


def robustness_sweep(graph: Graph, base_model: ModelConfig, fractions, strategies, seeds,
                     train_config: TrainConfig, rate: float = 0.0) -> list[dict]:
    """Retrain on edge-injected copies of the graph; evaluate on the clean test mask.

    Fraction 0 rows give each strategy's clean baseline. The test mask is
    never touched by the perturbation (only edges change), so accuracies
    are comparable across fractions. The injected edges are seeded from
    (seed, fraction), so rows do not depend on execution order; strategies
    share each graph. ``rate`` is the dropout rate of the fixed strategies.
    One row per (fraction, strategy, seed); a config or graph that cannot be
    built raises before any cell trains, and a failed run is a failed row.
    """
    seeds = [int(seed) for seed in seeds]
    configs = {strategy: _cell_model(base_model, strategy, rate) for strategy in strategies}
    graphs = {(fraction, seed): inject_random_edges(graph, fraction, int(np.random.SeedSequence(
        [seed, int(round(fraction * 1000))]).generate_state(1)[0]))
        for fraction in fractions for seed in seeds}
    return [run_cell(graphs[fraction, seed], configs[strategy], replace(train_config, seed=seed),
                     fraction=fraction, strategy=strategy, seed=seed)
            for fraction in fractions for strategy in strategies for seed in seeds]
