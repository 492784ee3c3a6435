"""Graph convolutional model with trainable dropout retention.

Layer l computes H_l = P @ A_l @ W_l with A_l = m ∘ relu(H_{l-1}), where
m is the dropout mask for the chosen strategy and relu is skipped for
the raw input layer. The trainable-retention strategy replaces the random
mask by its expectation: every input column is scaled by its retention
probability p = logistic(z), identically in train and eval mode, so the
forward pass is deterministic and the logits z receive gradients. Since
(A_l diag(p_l)) W_l = A_l (diag(p_l) W_l), the scale sits on the rows of
the small k_in x k_out weight, not on the N rows of the activations:

    H_l = P @ A_l @ (diag(p_l) W_l)

Every layer follows one rule. A mask is applied to A_l first, and the two
products are ordered by width: a layer that narrows (k_out < k_in)
computes P @ (A_l @ W_l), so its sparse products, forward and backward,
are k_out wide; any other layer computes (P @ A_l) @ W_l. The sparse
products then cost O(|E| min(k_in, k_out)), the argument of Kipf &
Welling (arXiv:1609.02907). Both orders give the same H_l up to float
rounding. Layer 1's input X is a constant leaf, masked like any other
input. Only an unmasked layer 1 differs: P @ X is the same on every
epoch, so the ``PropagationOperator`` forms it on its first read and
keeps it, and the layer computes (P @ X) @ W_1 with no sparse product.
"""
from __future__ import annotations

import json
import operator
import sys
import zipfile
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import Tape, Value, sigmoid
from .graphs import (PROPAGATION_MODES, Graph, PropagationOperator, ValidationError,
                     sample_absent_pairs)
from .graphs import build_propagation  # noqa: F401  (bench/spans.py traces calls at this binding)

STRATEGIES = ("none", "flexidrop", "fixed_dropout", "dropnode", "dropedge")
FIXED_STRATEGIES = ("fixed_dropout", "dropnode", "dropedge")   # the ones with a dropout rate
TASKS = ("node_classification", "link_prediction")


class NumericsError(ArithmeticError):
    """A forward pass produced a non-finite value (NaN or inf); the message names the layer."""


@dataclass
class LayerParams:
    """One layer: a dense weight and, under flexidrop alone, per-input-column retention logits."""

    weight: np.ndarray                          # (k_in, k_out)
    retention_logits: np.ndarray | None = None  # (k_in,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.retention_logits is not None:
            self.retention_logits = np.asarray(self.retention_logits, dtype=np.float64).ravel()
            if self.retention_logits.shape[0] != self.weight.shape[0]:
                raise ValueError(f"retention logits length {self.retention_logits.shape[0]} "
                                 f"must match weight input width {self.weight.shape[0]}")


@dataclass(frozen=True)
class ModelConfig:
    layer_dims: tuple[int, ...]          # [d, hidden..., output]
    strategy: str = "none"
    rate: float = 0.0                    # dropout rate for the fixed strategies
    propagation_mode: str = "row_stochastic"
    task: str = "node_classification"

    def __post_init__(self):
        dims = tuple(_layer_dim(i, k) for i, k in enumerate(self.layer_dims))
        if len(dims) < 2 or any(k < 1 for k in dims):
            raise ValueError(f"layer_dims needs >= 2 positive entries, got {dims}")
        object.__setattr__(self, "layer_dims", dims)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy not in FIXED_STRATEGIES:
            if self.rate != 0.0:
                raise ValueError(f"strategy {self.strategy!r} takes no rate")
        elif not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must lie in [0, 1), got {self.rate}")
        if self.propagation_mode not in PROPAGATION_MODES:
            raise ValueError(f"unknown propagation mode {self.propagation_mode!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    def to_dict(self) -> dict:
        return {**asdict(self), "layer_dims": list(self.layer_dims)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**checked_fields(cls, d))


def _layer_dim(i: int, k) -> int:
    """Entry ``i`` of ``layer_dims`` as an int; floats and bools are rejected, not coerced."""
    if not isinstance(k, bool):
        try:
            return operator.index(k)
        except TypeError:
            pass
    raise ValueError(f"layer_dims[{i}] must be an integer, got {k!r}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:   # an int too large for a float is refused, not made inf
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _is_list_of(check, length=None):
    return lambda v: (isinstance(v, (list, tuple)) and length in (None, len(v))
                      and all(map(check, v)))


# JSON type, named as in a config field annotation -> (what the value must be, check)
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "dict": ("a mapping", lambda v: isinstance(v, dict)),
    "tuple[int, ...]": ("a list of integers", _is_list_of(_is_int)),
    "tuple[float, float, float]": ("a list of three numbers", _is_list_of(_is_number, 3)),
    "tuple[str, str, str]": ("a list of three strings",
                             _is_list_of(lambda v: isinstance(v, str), 3)),
}


def checked_fields(cls, d: dict) -> dict:
    """A copy of ``d`` checked against the fields of config dataclass ``cls``.

    Raises ValidationError naming the key for an unknown key, a missing
    required key, or a value of the wrong JSON type (strings are not
    parsed, and true/false are not integers). An integer in a float field
    or list comes back as a float, so 0 and 0.0 give the same config.
    """
    return checked_keys(cls.__name__, d, {f.name: f.type for f in fields(cls)},
                        [f.name for f in fields(cls) if f.default is MISSING])


def checked_keys(name: str, d: dict, types: dict[str, str], required=()) -> dict:
    """A copy of ``d`` checked against ``types``, a map from key to JSON type name.

    The type names are those of ``_FIELD_TYPES``. Checks and converts as
    ``checked_fields`` does, with ``name`` in place of the class name.
    """
    if not isinstance(d, dict):
        raise ValidationError(f"{name}: expected a mapping, got {type(d).__name__}")
    for key, value in d.items():
        if key not in types:
            raise ValidationError(f"{name}: unknown key {key!r}; known keys: "
                                  f"{', '.join(types)}")
        what, ok = _FIELD_TYPES[types[key]]
        if not ok(value):
            raise ValidationError(f"{name}: key {key!r} must be {what}, got {value!r}")
    for key in required:
        if key not in d:
            raise ValidationError(f"{name}: missing key {key!r}")
    return {key: float(value) if types[key] == "float" else [float(v) for v in value]
            if types[key] == "tuple[float, float, float]" else value for key, value in d.items()}


RETENTION_LOGIT_INIT = 2.0   # logistic(2) ~ 0.88, a gentle initial dropout


def init_params(config: ModelConfig, seed: int) -> list[LayerParams]:
    """Seeded Glorot-uniform weights and, under flexidrop alone, constant retention logits."""
    rng = np.random.default_rng(seed)
    params = []
    dims = config.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        z = np.full(fan_in, RETENTION_LOGIT_INIT) if config.strategy == "flexidrop" else None
        params.append(LayerParams(w, z))
    return params


def retention_probabilities(params: list[LayerParams]) -> list[np.ndarray]:
    """Retention probabilities logistic(z) of the layers that carry z, each inside (0, 1)."""
    return [sigmoid(p.retention_logits) for p in params if p.retention_logits is not None]


@dataclass
class BoundLayer:
    """Layer parameters bound to a tape: the weight leaf and, under flexidrop, the z leaf.

    The retention probabilities p = logistic(z) go on the tape on their
    first read; ``retention_logits`` is None where the params carry no z.
    """

    weight: Value
    retention_logits: Value | None

    @cached_property
    def retention(self) -> Value:
        return self.retention_logits.tape.sigmoid(self.retention_logits)


def bind_layers(tape: Tape, params: list[LayerParams], *, trainable: bool) -> list[BoundLayer]:
    """Put each layer's weight and, where it has them, retention logits on ``tape`` as leaves.

    ``trainable`` makes the leaves require gradients.
    """
    return [BoundLayer(tape.leaf(p.weight, requires_grad=trainable),
                       None if p.retention_logits is None
                       else tape.leaf(p.retention_logits.reshape(-1, 1), requires_grad=trainable))
            for p in params]


def _check_params(params: list[LayerParams] | list[BoundLayer], config: ModelConfig) -> None:
    dims = config.layer_dims
    if len(params) != config.num_layers:
        raise ValueError(f"{len(params)} layers of parameters for {config.num_layers} layers")
    for i, p in enumerate(params):
        if p.weight.shape != (dims[i], dims[i + 1]):
            raise ValueError(
                f"layer {i} weight shape {p.weight.shape} != {(dims[i], dims[i + 1])}")
        if (p.retention_logits is not None) != (config.strategy == "flexidrop"):
            wants = "needs" if p.retention_logits is None else "takes no"
            raise ValueError(f"layer {i}: strategy {config.strategy!r} {wants} retention logits")


def forward(tape: Tape, prop: PropagationOperator,
            params: list[LayerParams] | list[BoundLayer], config: ModelConfig,
            *, mode: str = "eval", seed: int = 0) -> Value:
    """Run the model on ``prop``'s features X, returning the logits.

    mode "train" applies the configured dropout strategy, "eval" disables
    the randomized strategies. Retention scaling is deterministic and
    applies in both modes. ``seed`` seeds the masks of a train forward
    that draws them; one that draws none (``train_forward_is_eval``)
    makes no generator and propagates with ``prop`` itself.

    Plain ``LayerParams`` go on the tape as constants in either mode: no
    caller could reach their leaves to take a gradient, so the tape
    records no node for them. To train, pass ``bind_layers(...,
    trainable=True)``'s layers and take gradients of their leaves.

    Every layer orders its products by width (see the module docstring);
    a ``fixed_dropout`` or ``dropnode`` mask on X is applied to a leaf
    of X, as masks on later layers' inputs are. An unmasked layer 1
    starts from ``prop.propagated``, the P X that ``prop`` forms on its
    first read and keeps. DropEdge's train forward builds its own
    operator from the edges of ``prop`` it keeps, which forms its own P X.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = prop.features
    if x.shape[1] != config.layer_dims[0]:
        raise ValueError(f"feature dim {x.shape[1]} != layer_dims[0] {config.layer_dims[0]}")
    if prop.mode != config.propagation_mode:
        raise ValueError(f"operator mode {prop.mode!r} != model propagation_mode "
                         f"{config.propagation_mode!r}")
    _check_params(params, config)
    layers = (params if isinstance(params[0], BoundLayer)
              else bind_layers(tape, params, trainable=False))

    draws = mode == "train" and not train_forward_is_eval(config)
    rng = np.random.default_rng(seed) if draws else None
    if draws and config.strategy == "dropedge":
        # resample the operator once per forward pass: drop graph edges,
        # keep self-loops, renormalize in the configured mode
        keep = rng.random(len(prop.edges)) >= config.rate
        prop = PropagationOperator(prop.mode, np.take(prop.edges, np.flatnonzero(keep), axis=0), x)

    masked = draws and config.strategy != "dropedge"   # a mask on every layer's input
    for li, layer in enumerate(layers):
        w = layer.weight
        if config.strategy == "flexidrop":
            w = tape.row_broadcast_mul(w, layer.retention)
        if li == 0 and not masked:   # X takes no gradient: P X is the operator's
            h = tape.matmul(tape.leaf(prop.propagated), w)
        else:
            a = tape.relu(h) if li > 0 else tape.leaf(x)
            if masked:   # in the memory order of the input it scales (Tape.matmul's rule sets it)
                order = "C" if a.data.flags.c_contiguous else "F"
                a = tape.elementwise_mul(a, tape.leaf(_draw_mask(rng, a.shape, config, order)))
            if w.shape[1] < w.shape[0]:
                h = tape.spmm(prop.matrix, tape.matmul(a, w), p_t=prop.transpose)
            else:
                h = tape.matmul(tape.spmm(prop.matrix, a, p_t=prop.transpose), w)
        if not np.isfinite(h.data).all():
            raise NumericsError(f"non-finite value at layer {li + 1}")
    return h


def _draw_mask(rng: np.random.Generator, shape: tuple[int, int], config: ModelConfig,
               order: str) -> np.ndarray:
    """The scaled ``fixed_dropout`` or ``dropnode`` keep mask of a layer input of
    ``shape``, in memory ``order``. The order does not change the draws."""
    if config.strategy == "fixed_dropout":
        return np.asarray(rng.random(shape) >= config.rate, order=order) / (1.0 - config.rate)
    rows = (rng.random(shape[0]) >= config.rate) / (1.0 - config.rate)
    return np.broadcast_to(rows.reshape(-1, 1), shape).copy(order=order)


def train_forward_is_eval(config: ModelConfig) -> bool:
    """Whether ``forward`` in mode "train" gives the mode "eval" logits bit for bit.

    It does when the strategy draws no mask: "none" and "flexidrop" take
    no rate (retention scaling is the same in both modes), and a fixed
    strategy at rate 0 keeps every entry, node and edge.
    """
    return config.rate == 0.0


def link_scores(tape: Tape, embeddings: Value, pos_edges: np.ndarray,
                neg_edges: np.ndarray) -> tuple[Value, np.ndarray]:
    """Edge probabilities logistic(<h_u, h_v>) for positive then negative pairs.

    The inner products come from one ``pair_dot`` op, so no per-pair copy
    of the embeddings is recorded. Returns the stacked probability column
    and the matching 0/1 label array (positives first).
    """
    pos = np.asarray(pos_edges, dtype=np.int64).reshape(-1, 2)
    neg = np.asarray(neg_edges, dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate([pos, neg], axis=0)
    if pairs.size == 0:
        raise ValueError("link_scores needs at least one pair")
    probs = tape.sigmoid(tape.pair_dot(embeddings, pairs))
    labels = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
    return probs, labels


def link_loss(tape: Tape, probs: Value, labels: np.ndarray) -> Value:
    """Mean binary cross-entropy; the log clamp keeps extreme scores finite."""
    y = labels.reshape(-1, 1)
    # the probability each label picks: p where y = 1, 1 - p where y = 0
    picked = tape.add(tape.leaf(1.0 - y), tape.elementwise_mul(tape.leaf(2.0 * y - 1.0), probs))
    return tape.scalar_mul(-1.0, tape.mean(tape.log(picked)))


def sample_negative_edges(graph: Graph, count: int, seed: int) -> np.ndarray:
    """Uniform non-edges for link prediction, one negative per requested slot."""
    return sample_absent_pairs(graph, count, np.random.default_rng(seed))


CHECKPOINT_FORMAT = 4   # 4: retention logits are stored under flexidrop alone


def save_checkpoint(path: str | Path, params: list[LayerParams],
                    config: ModelConfig, extra: dict | None = None) -> None:
    """Write the arrays of params that fit ``config`` to ``<path>.npz``, the config to ``.json``."""
    path = Path(path)
    _check_params(params, config)
    np.savez(path.with_suffix(".npz"), **{k: a for i, p in enumerate(params) for k, a in (
        (f"weight_{i}", p.weight), (f"retention_logits_{i}", p.retention_logits))
        if a is not None})
    manifest = {"format_version": CHECKPOINT_FORMAT, "config": config.to_dict()}
    if extra:
        manifest["extra"] = extra
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[list[LayerParams], ModelConfig, dict]:
    """The params, config and manifest at ``path``; bad input raises ValueError naming its file.

    The ``.npz`` must hold exactly each layer's ``weight_i`` and, under flexidrop
    alone, its ``retention_logits_i``, of the shapes the config's layer_dims give.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.with_suffix(".json").read_text())
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise ValueError("expected a mapping with a 'config' key")
        if manifest.get("format_version") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {manifest.get('format_version')!r}")
        config = ModelConfig.from_dict(manifest["config"])
    except ValueError as exc:
        raise ValueError(f"{path.with_suffix('.json')}: {exc}") from exc
    dims = config.layer_dims
    want = {f"weight_{i}": dims[i:i + 2] for i in range(config.num_layers)}
    if config.strategy == "flexidrop":
        want.update({f"retention_logits_{i}": dims[i:i + 1] for i in range(config.num_layers)})
    npz = path.with_suffix(".npz")
    try:
        # np.load leaks a handle it opens itself when zipfile rejects the file
        with open(npz, "rb") as f, np.load(f) as data:
            arrays = {name: data[name] for name in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:   # truncated, not a zip, pickled
        raise ValueError(f"{npz}: cannot read its arrays: {type(exc).__name__}: {exc}") from exc
    shapes = {k: a.shape for k, a in arrays.items()}
    if shapes != want:
        raise ValueError(f"{npz}: holds array shapes {shapes}, but layer_dims "
                         f"{list(dims)} need exactly {want}")
    return ([LayerParams(arrays[f"weight_{i}"], arrays.get(f"retention_logits_{i}"))
             for i in range(config.num_layers)], config, manifest)
