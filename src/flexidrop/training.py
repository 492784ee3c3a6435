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

    A non-finite layer output, objective or gradient aborts with
    TrainingAborted, which carries the parameters that failed and the rows
    logged before them. The message names the layer whose output failed,
    or the layer and parameter whose gradient failed; the gradients are
    checked before the epoch's Adam step. The forward of params_t
    fails as epoch t+1, whether it ran as epoch t+1's train forward or as
    row t's evaluation apart.
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

    # one vector for all parameters, laid out [W_1, z_1, W_2, z_2, ...], stepped
    # in place by one Adam update per epoch; params are views of it
    arrays = [a for p in params for a in (p.weight, p.retention_logits)]
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    parts = np.split(flat, ends[:-1])
    params = [LayerParams(w.reshape(p.weight.shape), z)
              for p, w, z in zip(params, parts[0::2], parts[1::2])]
    adam = AdamState.zeros_like(flat)

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

    def log_row(row: dict, scores: dict, regularizer: float, retention: list) -> None:
        """Complete ``row`` with the scores, bound and retention of ``params`` and append it."""
        row.update(regularizer=regularizer, train_accuracy=scores["train"],
                   val_accuracy=scores["val"], test_accuracy=scores["test"])
        for i, p in enumerate(retention, start=1):
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
                    log_row(pending, scores, bound, retention_probabilities(params))
                    pending = None
            if epoch > cfg.epochs:
                break
            tape = Tape()
            layers = bind_layers(tape, params, trainable=True)
            # a forward that draws no mask takes no seed
            out = forward(tape, message_graph, prop, layers, model_config, mode="train",
                          seed=0 if reuse else _epoch_seed(cfg.seed, epoch, 1))
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
                # flexidrop's p = logistic(z) of params_t is on this tape already
                log_row(pending, score(out.logits.data),
                        multilayer_bound(ctx, params) if reg is None else reg.item(),
                        [layer.retention.data.ravel() for layer in layers] if flexi
                        else retention_probabilities(params))
                pending = None
            if not np.isfinite(objective.item()):
                raise NumericsError("non-finite loss")
        except NumericsError as exc:
            raise TrainingAborted(epoch, params, record, reason=str(exc)) from exc

        # z off the loss path (every strategy but flexidrop) gets a zero gradient,
        # and Adam's step from zero moments leaves it exactly as it was
        grad = np.concatenate([g.ravel() for g in tape.backward(objective, [
            v for layer in layers for v in (layer.weight, layer.retention_logits)])])
        # a backward can overflow under a finite objective; Adam would spread it
        if not np.isfinite(grad).all():
            j = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(grad))[0], side="right"))
            raise TrainingAborted(epoch, params, record,
                                  reason=f"non-finite gradient of layer {j // 2 + 1} "
                                         f"{('weight', 'retention logits')[j % 2]}")
        adam_step(flat, grad, adam, cfg.learning_rate)

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
    applied. ``rate`` is the dropout rate of the fixed strategies.
    Returns one row per (depth, strategy).
    """
    rows = []
    for dims in layer_dims:
        for strategy in strategies:
            config = _cell_model(base_model, strategy, rate, layer_dims=dims)
            rows.append(run_cell(graph, config, train_config, depth=len(dims) - 1,
                                 strategy=strategy))
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
