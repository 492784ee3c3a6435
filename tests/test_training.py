"""Adam optimizer, the training loop, and grid sweeps."""
import gc
import re
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

from flexidrop import training
from flexidrop.autodiff import Tape
from flexidrop.bounds import BoundContext, bound_report, multilayer_bound
from flexidrop.graphs import (Graph, ValidationError, build_propagation, generate_sbm,
                              inject_random_edges)
from flexidrop.metrics import accuracy, auc_score, dirichlet_energy
from flexidrop.model import (LayerParams, ModelConfig, NumericsError, forward, init_params,
                             link_scores, retention_probabilities, sample_negative_edges)
from flexidrop.training import (AdamState, GRID_COLUMNS, RunRecord, TrainConfig,
                                TrainingAborted, _epoch_seed, _split_edges, adam_step,
                                depth_dims, grid_search, oversmoothing_profile, robustness_sweep,
                                run_cell, train)


def sanity_graph(seed=0, n=60):
    return generate_sbm(n, 2, 0.3, 0.05, 4, 0.3, seed=seed)


def quick(epochs, **kw):
    kw.setdefault("learning_rate", 0.05)
    kw.setdefault("eval_every", 1)
    return TrainConfig(epochs=epochs, **kw)


# ---- config -------------------------------------------------------------------------


def test_train_config_roundtrips_through_dict():
    tc = TrainConfig(epochs=3, learning_rate=0.05, reg_lambda=0.0, seed=7, eval_every=2)
    assert TrainConfig.from_dict(tc.to_dict()) == tc
    assert TrainConfig.from_dict({}) == TrainConfig()


@pytest.mark.parametrize("config", (TrainConfig(), ModelConfig(layer_dims=(3, 2))))
def test_to_dict_has_a_key_for_every_field(config):
    # a field missing here would be dropped from summary.json and the manifests
    assert set(config.to_dict()) == {f.name for f in fields(config)}


@pytest.mark.parametrize("entries, key", (
    ({"reg_lamda": 0.1}, "reg_lamda"),          # unknown key: a typo must not train on a default
    ({"epochs": "4"}, "epochs"),                # string, not an int
    ({"epochs": True}, "epochs"),               # bool, not an int
    ({"seed": 1.5}, "seed"),                    # float, not an int
    ({"learning_rate": "0.1"}, "learning_rate"),
    ({"reg_lambda": None}, "reg_lambda"),
    ({"beta1": 0.9}, "beta1"),                  # Adam's moment and epsilon settings are fixed
    ({"beta2": 0.999}, "beta2"),
    ({"eps": 1e-8}, "eps"),
    ({"reg_lambda": 10 ** 400}, "reg_lambda"),  # an int no float holds
))
def test_train_config_from_dict_rejects_unknown_keys_and_wrong_types(entries, key):
    with pytest.raises(ValidationError, match=f"TrainConfig: .*'{key}'"):
        TrainConfig.from_dict(entries)


def test_from_dict_returns_int_spelled_floats_as_floats_and_leaves_its_input_alone():
    # an int-spelled float once reached summary.json and the manifests as an int
    given = {"learning_rate": 1, "reg_lambda": 0}
    config = TrainConfig.from_dict(given)
    assert given == {"learning_rate": 1, "reg_lambda": 0} and type(given["reg_lambda"]) is int
    assert type(config.learning_rate) is type(config.reg_lambda) is float
    assert type(ModelConfig.from_dict({"layer_dims": [3, 2], "rate": 0}).rate) is float


@pytest.mark.parametrize("key", ("learning_rate", "reg_lambda"))
@pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
def test_train_config_rejects_a_non_finite_rate_naming_the_field(key, value):
    # every ordered comparison with NaN is false, so "learning_rate <= 0" let NaN train
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        TrainConfig(**{key: value})
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        TrainConfig.from_dict({key: value})


@pytest.mark.parametrize("strategy, rate, task", (("flexidrop", 0.0, "node_classification"),
                                                  ("dropedge", 0.3, "link_prediction")))
def test_train_frees_every_tape_without_the_cyclic_collector(monkeypatch, strategy, rate,
                                                             task):
    refs = []

    class TrackedTape(Tape):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", TrackedTape)
    dims = (4, 8, 2) if task == "node_classification" else (4, 8, 8)
    gc.disable()
    try:
        result = train(sanity_graph(seed=2), ModelConfig(layer_dims=dims, strategy=strategy,
                                                         rate=rate, task=task), quick(4))
        assert len(refs) >= 4 and all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert result.record.rows


@pytest.mark.parametrize("strategy, rate, task", (("flexidrop", 0.0, "node_classification"),
                                                  ("fixed_dropout", 0.3, "node_classification"),
                                                  ("dropedge", 0.3, "link_prediction")))
def test_no_hidden_preactivation_outlives_its_epoch(monkeypatch, strategy, rate, task):
    # while epoch t+1's train forward runs, nothing holds epoch t's hidden
    # preactivations (every layer's but the last), its logits, nor, for links,
    # its pair-score column and negatives, nor their memory
    held, alive, in_train = [], [], []
    real_forward, real_relu = training.forward, Tape.relu
    real_negatives = training.sample_negative_edges
    real_loss = training.link_loss

    def hold(name, array):
        held.extend((name, weakref.ref(a)) for a in (array, array.base) if a is not None)

    def spy(*args, **kwargs):
        if kwargs["mode"] == "train":
            alive.append(sorted({name for name, ref in held if ref() is not None}))
            held.clear()
        in_train.append(kwargs["mode"] == "train")
        logits = real_forward(*args, **kwargs)
        in_train.pop()
        if kwargs["mode"] == "train":
            hold("logits", logits.data)
        return logits

    def spy_relu(self, x):   # a later layer's relu reads the preactivation before it
        if in_train and in_train[-1]:
            hold("hidden preactivation", x.data)
        return real_relu(self, x)

    def spy_negatives(*args):
        negs = real_negatives(*args)
        if alive:   # an epoch's; the splits' evaluation negatives live for the whole run
            hold("negatives", negs)
        return negs

    def spy_loss(tape, probs, labels):
        hold("pair scores", probs.data)
        return real_loss(tape, probs, labels)

    monkeypatch.setattr(training, "forward", spy)
    monkeypatch.setattr(Tape, "relu", spy_relu)
    monkeypatch.setattr(training, "sample_negative_edges", spy_negatives)
    monkeypatch.setattr(training, "link_loss", spy_loss)
    dims = (4, 16, 2) if task == "node_classification" else (4, 16, 8)
    gc.disable()
    try:
        train(sanity_graph(seed=2), ModelConfig(layer_dims=dims, strategy=strategy, rate=rate,
                                                task=task), quick(5))
    finally:
        gc.enable()
    assert alive == [[]] * 5
    assert {name for name, _ in held} >= {"hidden preactivation", "logits"}


def test_an_n2000_epoch_frees_each_backward_node_as_it_runs():
    # a 2000-node 128-256-4 flexidrop model: each 2000x256 float array is 3.9 MiB.
    # Were the backward to keep each node it has run, relu's backward would find
    # three of them live besides its sign mask (A_2, still held by the finished
    # layer-2 matmul's closure, relu's upstream gradient and its own), a 16.4 MiB
    # peak; freed as it runs, the backward peaks no higher than the forward
    graph = generate_sbm(2000, 4, 0.01, 0.001, 128, 0.1, seed=0)
    config = ModelConfig(layer_dims=(128, 256, 4), strategy="flexidrop")
    tracemalloc.start()
    try:
        result = train(graph, config, TrainConfig(epochs=2, learning_rate=0.01,
                                                  reg_lambda=0.01, seed=0, eval_every=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.record.rows) == 1
    assert peak <= 13.5 * 2**20, f"train() peaked at {peak / 2**20:.1f} MiB"


def test_an_n2000_dropedge_epoch_holds_only_its_own_arrays():
    # a 2000-node 128-64-32 DropEdge link model: each train forward propagates X
    # with its own operator, so the run operator's P X (2000x128, 1.95 MiB) is not
    # formed before the eval forward, and epoch t's logits, pair scores, labels and
    # negatives are gone before epoch t+1's forward; were both kept, it would peak
    # at 9.2 MiB
    graph = generate_sbm(2000, 4, 0.01, 0.001, 128, 0.1, seed=0)
    config = ModelConfig(layer_dims=(128, 64, 32), strategy="dropedge", rate=0.5,
                         task="link_prediction")
    tracemalloc.start()
    try:
        result = train(graph, config, TrainConfig(epochs=2, learning_rate=0.01,
                                                  reg_lambda=0.5, seed=0, eval_every=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.record.rows) == 1
    assert peak <= 7.5 * 2**20, f"train() peaked at {peak / 2**20:.1f} MiB"


# ---- Adam --------------------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    # bias correction makes the very first update lr * g/(|g| + ~0)
    param = np.zeros(3)
    grad = np.array([1.0, -2.0, 0.5])
    state = AdamState.zeros_like(param)
    adam_step(param, grad, state, lr=0.1)
    assert np.allclose(param, [-0.1, 0.1, -0.1], atol=1e-8)   # stepped in place
    assert state.t == 1


def test_adam_zero_gradient_keeps_param():
    param = np.array([1.5, -2.0])
    state = AdamState.zeros_like(param)
    adam_step(param, np.zeros(2), state, lr=0.1)
    assert np.array_equal(param, [1.5, -2.0])
    assert state.t == 1


def test_adam_matches_reference_implementation_over_steps():
    # Adam's moment decays and epsilon are fixed at 0.9, 0.999 and 1e-8
    rng = np.random.default_rng(30)
    param = rng.normal(size=(2, 3))
    state = AdamState.zeros_like(param)

    ref_p = param.copy()
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    for t in range(1, 6):
        g = rng.normal(size=(2, 3))
        adam_step(param, g, state, lr=0.02)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        ref_p = ref_p - 0.02 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(param, ref_p, atol=1e-12)


def test_in_place_adam_step_equals_the_out_of_place_formula():
    # the textbook update, one temporary per operation; the in-place step keeps its
    # operation order, so it must give every bit
    def formula(param, grad, m, v, t, lr):
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        return param - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v

    rng = np.random.default_rng(34)
    for shape in ((1,), (7,), (3, 5), (2, 3, 4)):
        param = rng.normal(size=shape)
        state = AdamState.zeros_like(param)
        m0, v0 = state.m, state.v
        want, m, v = param.copy(), state.m.copy(), state.v.copy()
        for t in range(1, 6):
            grad = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            assert adam_step(param, grad, state, lr=0.03) is None
            want, m, v = formula(want, grad, m, v, t, lr=0.03)
            assert state.m is m0 and state.v is v0   # the same arrays
            assert state.t == t
            assert np.array_equal(param, want), (shape, t)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v), (shape, t)


def test_flat_adam_step_equals_a_step_per_array():
    # train() steps one vector [W_1, z_1, W_2, z_2, ...]; Adam is elementwise, so that
    # gives each array's own step bit for bit. Without z on the loss path its gradient
    # is zero and the per-array loop leaves it out, as training did per array
    rng = np.random.default_rng(32)
    shapes = [(4, 8), (4,), (8, 3), (8,), (3, 1), (3,)]
    for with_z in (True, False):
        arrays = [rng.normal(size=shape) for shape in shapes]
        states = [AdamState.zeros_like(a) for a in arrays]
        flat = np.concatenate([a.ravel() for a in arrays])
        state = AdamState.zeros_like(flat)
        for _ in range(6):
            grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6) for shape in shapes]
            if not with_z:
                grads[1::2] = [np.zeros(shape) for shape in shapes[1::2]]
            adam_step(flat, np.concatenate([g.ravel() for g in grads]), state, lr=0.01)
            for i in range(0, len(arrays), 1 if with_z else 2):
                adam_step(arrays[i], grads[i], states[i], lr=0.01)
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))


# ---- propagation of the features ----------------------------------------------------


@pytest.mark.parametrize("task, strategy, rate, per_forward", (
    ("node_classification", "none", 0.0, 0),
    ("node_classification", "flexidrop", 0.0, 0),
    ("node_classification", "dropedge", 0.0, 0),
    ("node_classification", "fixed_dropout", 0.3, 0),   # masks X, then propagates the product
    ("node_classification", "dropedge", 0.5, 1),        # an operator per train forward
    ("link_prediction", "flexidrop", 0.0, 0),
    ("link_prediction", "dropedge", 0.5, 1),
))
def test_the_features_are_propagated_once_per_operator(monkeypatch, task, strategy, rate,
                                                       per_forward):
    g = sanity_graph()
    products = []
    real = sp.csr_matrix.__matmul__

    def spy(self, other):
        if other is g.features:
            products.append(self.shape)
        return real(self, other)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", spy)
    epochs = 4
    train(g, ModelConfig(layer_dims=(4, 8, 2), strategy=strategy, rate=rate, task=task),
          quick(epochs, reg_lambda=0.1))
    # at most once per operator, on first read: the run's operator once, then each
    # train forward's own operator under DropEdge
    assert len(products) == 1 + per_forward * epochs


def test_a_dropedge_run_propagates_its_operator_only_in_the_eval_forward(monkeypatch):
    # each train forward reads its own draw's P X; the run's operator forms its P X
    # only when the one eval forward (after the last epoch) reads it
    g = sanity_graph()
    run_ops, events = [], []
    real_build, real_forward = training.build_propagation, training.forward
    real_product = sp.csr_matrix.__matmul__

    def build(*args, **kwargs):
        run_ops.append(None)   # a product made while it is built is the run operator's
        run_ops[-1] = real_build(*args, **kwargs)
        return run_ops[-1]

    def spy_forward(*args, **kwargs):
        events.append(kwargs["mode"])
        return real_forward(*args, **kwargs)

    def spy_product(self, other):
        if other is g.features:
            run = any(op is None or self is op.matrix for op in run_ops)
            events.append("run P X" if run else "draw P X")
        return real_product(self, other)

    monkeypatch.setattr(training, "build_propagation", build)
    monkeypatch.setattr(training, "forward", spy_forward)
    monkeypatch.setattr(sp.csr_matrix, "__matmul__", spy_product)
    train(g, ModelConfig(layer_dims=(4, 8, 8), strategy="dropedge", rate=0.5,
                         task="link_prediction"), quick(4, eval_every=64))
    assert len(run_ops) == 1
    assert events == ["train", "draw P X"] * 4 + ["eval", "run P X"]


# ---- train loop basics -------------------------------------------------------------


def test_zero_epochs_returns_initial_params_and_empty_record():
    g = sanity_graph()
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy="flexidrop")
    res = train(g, cfg, quick(0))
    init = init_params(cfg, seed=0)
    for a, b in zip(res.params, init):
        assert np.array_equal(a.weight, b.weight)
    assert res.record.rows == []
    assert res.record.summary["final_test_accuracy"] is None


def test_training_is_deterministic():
    g = sanity_graph()
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy="flexidrop")
    a = train(g, cfg, quick(12, seed=5))
    b = train(g, cfg, quick(12, seed=5))
    assert a.record.summary == b.record.summary
    for ra, rb in zip(a.record.rows, b.record.rows):
        assert {k: v for k, v in ra.items() if k != "wall_clock_s"} == \
               {k: v for k, v in rb.items() if k != "wall_clock_s"}
    for pa, pb in zip(a.params, b.params):
        assert np.array_equal(pa.weight, pb.weight)
        assert np.array_equal(pa.retention_logits, pb.retention_logits)
    c = train(g, cfg, quick(12, seed=6))
    assert c.record.summary != a.record.summary


def test_objective_decreases_over_first_ten_epochs():
    g = sanity_graph()
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy="flexidrop")
    res = train(g, cfg, quick(10, reg_lambda=0.5))
    objs = [row["objective"] for row in res.record.rows]
    assert len(objs) == 10
    assert objs[-1] < objs[0]
    assert all(b < a for a, b in zip(objs, objs[1:]))


def test_logged_regularizer_matches_bound_recomputation():
    g = sanity_graph(seed=3)
    cfg = ModelConfig(layer_dims=(4, 6, 2), strategy="flexidrop")
    res = train(g, cfg, quick(7, reg_lambda=0.5))
    ctx = BoundContext.from_graph(g, cfg.num_layers)
    # final logged value must equal the bound recomputed from the final params
    assert res.record.rows[-1]["regularizer"] == multilayer_bound(ctx, res.params)


def test_nonflexi_strategies_do_not_move_retention():
    # they carry no retention logits, so no output reports a retention; their
    # bound is that of the p = 1 model they score
    g = sanity_graph(seed=4)
    for strategy, rate in (("none", 0.0), ("fixed_dropout", 0.4), ("dropedge", 0.3)):
        cfg = ModelConfig(layer_dims=(4, 5, 2), strategy=strategy, rate=rate)
        res = train(g, cfg, quick(5))
        assert all(p.retention_logits is None for p in res.params)
        assert res.record.summary["retention_mean"] == []
        assert not [c for c in res.record.columns if c.startswith("retention")]
        ctx = BoundContext.from_graph(g, cfg.num_layers)
        saturated = [LayerParams(p.weight, np.full(p.weight.shape[0], 1000.0))
                     for p in res.params]
        assert res.record.summary["final_regularizer"] == multilayer_bound(ctx, saturated)


@pytest.mark.parametrize("strategy, rate", (("none", 0.0), ("fixed_dropout", 0.4),
                                            ("dropnode", 0.3), ("dropedge", 0.3)))
@pytest.mark.parametrize("task", ("node_classification", "link_prediction"))
def test_a_non_flexidrop_run_trains_only_its_weights(monkeypatch, strategy, rate, task):
    # no tape holds a retention leaf, and the Adam vector is the weights alone
    trainable, steps = [], []
    real_leaf, real_step = Tape.leaf, training.adam_step

    def leaf(self, data, requires_grad=False):
        out = real_leaf(self, data, requires_grad)
        if requires_grad:
            trainable.append(out.shape)
        return out

    def step(param, grad, state, lr):
        steps.append(param.shape)
        real_step(param, grad, state, lr)

    monkeypatch.setattr(Tape, "leaf", leaf)
    monkeypatch.setattr(training, "adam_step", step)
    dims = (4, 5, 3)
    cfg = ModelConfig(layer_dims=dims, strategy=strategy, rate=rate, task=task)
    train(sanity_graph(seed=4), cfg, quick(3))
    assert trainable == [(4, 5), (5, 3)] * 3
    assert steps == [(sum(k_in * k_out for k_in, k_out in zip(dims, dims[1:])),)] * 3


def test_flexidrop_moves_retention_probabilities():
    g = sanity_graph(seed=5)
    cfg = ModelConfig(layer_dims=(4, 5, 2), strategy="flexidrop")
    res = train(g, cfg, quick(30, reg_lambda=0.5))
    probs = np.concatenate(retention_probabilities(res.params))
    assert np.abs(probs - 0.8807970779778823).max() > 1e-4


def test_record_contains_per_layer_retention_stats():
    g = sanity_graph(seed=6)
    cfg = ModelConfig(layer_dims=(4, 5, 2), strategy="flexidrop")
    res = train(g, cfg, quick(3))
    row = res.record.rows[0]
    for layer in (1, 2):
        lo = row[f"retention_min_l{layer}"]
        mid = row[f"retention_mean_l{layer}"]
        hi = row[f"retention_max_l{layer}"]
        assert 0.0 < lo <= mid <= hi < 1.0
    assert set(res.record.columns) == set(row)


def test_eval_every_thins_rows_but_keeps_final():
    g = sanity_graph(seed=7)
    cfg = ModelConfig(layer_dims=(4, 2), strategy="none")
    res = train(g, cfg, quick(10, eval_every=4))
    assert [row["epoch"] for row in res.record.rows] == [4, 8, 10]


def test_heavy_regularization_shrinks_retention_norm_monotonically():
    # with the regularizer dominating, ||p|| per layer must fall every epoch;
    # determinism makes shorter runs exact prefixes of longer ones
    g = sanity_graph(seed=8, n=40)
    cfg = ModelConfig(layer_dims=(4, 5, 2), strategy="flexidrop")
    norms = []
    for k in range(1, 21):
        res = train(g, cfg, quick(k, reg_lambda=1e6, eval_every=64))
        norms.append([np.linalg.norm(p) for p in retention_probabilities(res.params)])
    for prev, cur in zip(norms, norms[1:]):
        assert all(c < p for p, c in zip(prev, cur))


def test_plain_strategy_fits_sanity_graph():
    g = generate_sbm(200, 2, 0.1, 0.01, 16, 0.1, seed=42)
    cfg = ModelConfig(layer_dims=(16, 32, 2), strategy="none")
    res = train(g, cfg, TrainConfig(epochs=64, learning_rate=0.01, eval_every=16))
    assert res.record.summary["final_test_accuracy"] >= 0.9


def test_none_train_accuracy_at_least_heavy_fixed_dropout():
    g = sanity_graph(seed=9)
    plain = train(g, ModelConfig(layer_dims=(4, 8, 2), strategy="none"), quick(40))
    noisy = train(g, ModelConfig(layer_dims=(4, 8, 2), strategy="fixed_dropout", rate=0.5),
                  quick(40))
    assert plain.record.summary["final_train_accuracy"] >= \
        noisy.record.summary["final_train_accuracy"]


@pytest.mark.filterwarnings("ignore:overflow")
def test_nan_aborts_with_last_finite_params():
    # Graph rejects a NaN feature, so the forward is made to overflow instead:
    # both seed-3 weights are negative and sum to -1.92, so X @ W is -inf
    feats = np.full((8, 2), 1e308)
    masks = np.eye(3, 8, dtype=bool)
    g = Graph(feats, np.zeros(8, dtype=int) , np.asarray([(0, 1)]), 1, *masks)
    cfg = ModelConfig(layer_dims=(2, 1), strategy="none")
    with pytest.raises(TrainingAborted) as exc:
        train(g, cfg, quick(5, seed=3))
    assert exc.value.epoch == 1
    # the abort names the layer the forward named, and chains the forward's error
    assert str(exc.value) == "training aborted at epoch 1: non-finite value at layer 1"
    assert isinstance(exc.value.__cause__, NumericsError)
    init = init_params(cfg, seed=3)
    assert np.array_equal(exc.value.params[0].weight, init[0].weight)
    # untrained, the evaluation of the same parameters fails the same way
    with pytest.raises(TrainingAborted) as untrained:
        train(g, cfg, quick(0, seed=3))
    assert str(untrained.value) == str(exc.value)
    assert isinstance(untrained.value.__cause__, NumericsError)


def test_best_validation_tie_goes_to_the_last_logged_epoch():
    # one class and one output column: every prediction is right at every epoch
    g = sanity_graph(seed=10)
    g = Graph(g.features, np.zeros(g.num_nodes, dtype=int), g.edges, 1,
              g.train_mask, g.val_mask, g.test_mask)
    res = train(g, ModelConfig(layer_dims=(4, 8, 1), strategy="flexidrop"),
                quick(7, eval_every=3))
    assert [row["val_accuracy"] for row in res.record.rows] == [1.0, 1.0, 1.0]
    s = res.record.summary
    assert (s["best_val_epoch"], s["best_val_accuracy"]) == (7, 1.0)
    assert s["test_accuracy_at_best_val"] == res.record.rows[-1]["test_accuracy"]


@pytest.mark.parametrize("task, epochs", (("node_classification", 7), ("link_prediction", 7),
                                          ("node_classification", 0), ("link_prediction", 0)))
def test_one_eval_forward_per_logged_row(monkeypatch, task, epochs):
    # a strategy that draws no mask scores rows 3 and 6 from the train forwards of
    # epochs 4 and 7, so only the last row is scored apart; the others score every
    # row apart; an untrained model is scored once
    calls = []
    real_forward, real_bind = training.forward, training.bind_layers

    def counted(*args, **kwargs):
        calls.append(kwargs["mode"])
        return real_forward(*args, **kwargs)

    def counted_bind(*args, **kwargs):
        calls.append("bind")
        return real_bind(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counted)
    monkeypatch.setattr(training, "bind_layers", counted_bind)
    g = generate_sbm(60, 2, 0.4, 0.05, 4, 0.2, seed=13)
    for strategy, rate, apart in (("flexidrop", 0.0, 1), ("none", 0.0, 1),
                                  ("fixed_dropout", 0.3, 3), ("dropedge", 0.3, 3)):
        calls.clear()
        cfg = ModelConfig(layer_dims=(4, 8, 6 if task == "link_prediction" else 2),
                          strategy=strategy, rate=rate, task=task)
        res = train(g, cfg, quick(epochs, eval_every=3))
        assert [row["epoch"] for row in res.record.rows] == ([3, 6, 7] if epochs else [])
        assert calls.count("eval") == (apart if epochs else 1), strategy
        # one binding per epoch, each right before its train forward; the eval path binds none
        assert calls.count("train") == calls.count("bind") == epochs
        assert all(b == "train" for a, b in zip(calls, calls[1:]) if a == "bind")


@pytest.mark.parametrize("strategy, rate", (("none", 0.0), ("flexidrop", 0.0),
                                            ("fixed_dropout", 0.0), ("dropnode", 0.0),
                                            ("dropedge", 0.0), ("dropedge", 0.3)))
def test_row_t_equals_the_last_row_of_a_t_epoch_run(strategy, rate):
    # the last row of a t-epoch run is always scored apart, so a row scored from
    # the next epoch's train tape must match it key for key
    g = generate_sbm(60, 2, 0.4, 0.05, 4, 0.2, seed=14)
    for task in ("node_classification", "link_prediction"):
        cfg = ModelConfig(layer_dims=(4, 8, 6 if task == "link_prediction" else 2),
                          strategy=strategy, rate=rate, task=task)
        for reg_lambda in (0.5, 0.0):
            rows = train(g, cfg, quick(5, reg_lambda=reg_lambda, seed=2)).record.rows
            for t, row in enumerate(rows, start=1):
                alone = train(g, cfg, quick(t, reg_lambda=reg_lambda, seed=2)).record
                want = dict(alone.rows[-1], wall_clock_s=row["wall_clock_s"])
                assert row == want, (task, reg_lambda, t)
                assert alone.summary["final_regularizer"] == row["regularizer"]


@pytest.mark.parametrize("strategy, rate", (("none", 0.0), ("flexidrop", 0.0),
                                            ("fixed_dropout", 0.3), ("dropedge", 0.3)))
@pytest.mark.parametrize("task", ("node_classification", "link_prediction"))
def test_the_summary_describes_the_last_state_scored(monkeypatch, strategy, rate, task):
    g = sanity_graph(seed=6)
    cfg = ModelConfig(layer_dims=(4, 8, 2 if task == "node_classification" else 6),
                      strategy=strategy, rate=rate, task=task)
    ctx = BoundContext.from_graph(g, cfg.num_layers)
    flexi = strategy == "flexidrop"
    res = train(g, cfg, quick(4, eval_every=3))
    summary, last = res.record.summary, res.record.rows[-1]
    assert summary["retention_mean"] == ([last["retention_mean_l1"], last["retention_mean_l2"]]
                                         if flexi else [])
    assert summary["final_regularizer"] == last["regularizer"] == \
        bound_report(ctx, res.params, cfg.propagation_mode)["complexity_bound"]
    # untrained, the summary describes the initial parameters
    untrained = train(g, cfg, quick(0)).record.summary
    assert untrained["retention_mean"] == (pytest.approx([1 / (1 + np.exp(-2.0))] * 2)
                                           if flexi else [])
    assert untrained["final_regularizer"] == multilayer_bound(ctx, init_params(cfg, seed=0))
    # eval_every past the last epoch: row `epochs` alone, from the one eval forward
    modes, real = [], training.forward

    def spy(*args, **kwargs):
        modes.append(kwargs["mode"])
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "forward", spy)
    assert [row["epoch"] for row in train(g, cfg, quick(3, eval_every=5)).record.rows] == [3]
    assert modes.count("eval") == 1


@pytest.mark.parametrize("strategy, rate, logged", (("none", 0.0, []), ("flexidrop", 0.0, []),
                                                    ("fixed_dropout", 0.3, [1])),
                         ids=("none", "flexidrop", "fixed_dropout"))
def test_a_failed_train_forward_keeps_the_row_of_the_parameters_scored_apart(
        monkeypatch, strategy, rate, logged):
    # epoch 2's train forward fails on params_1. A strategy that draws a mask scored
    # params_1 apart before it, so row 1 is logged; one that draws none scores params_1
    # from that very forward, so no row 1 exists
    trains, real = [], training.forward

    def failing(*args, **kwargs):
        if kwargs["mode"] == "train":
            trains.append(1)
            if len(trains) == 2:
                raise NumericsError("non-finite value at layer 1")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "forward", failing)
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy=strategy, rate=rate)
    with pytest.raises(TrainingAborted) as exc:
        train(sanity_graph(), cfg, quick(3))
    assert str(exc.value) == "training aborted at epoch 2: non-finite value at layer 1"
    assert [row["epoch"] for row in exc.value.record.rows] == logged


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("strategy, rate", (("flexidrop", 0.0), ("fixed_dropout", 0.3)))
def test_nonfinite_evaluation_aborts_at_the_next_epoch(monkeypatch, strategy, rate):
    # Adam's second step returns weights scaled by 1e306, so layer 2 of any forward of
    # params_2 overflows. flexidrop meets it in epoch 3's train forward (or, in a 2-epoch
    # run, in the last row's evaluation), fixed_dropout in row 2's evaluation apart; all
    # abort as epoch 3 with params_2, row 1 and the forward's error as the cause
    real = training.adam_step
    # the weight entries of the flat vector: [W_1 (4x8), z_1 (4), W_2 (8x2), z_2 (8)]
    # under flexidrop, and [W_1, W_2], 48 entries, without retention logits
    flexi = strategy == "flexidrop"
    weights = np.r_[0:32, 36:52] if flexi else np.r_[0:48]

    def blown_up(param, grad, state, *args):
        assert param.shape == ((60,) if flexi else (48,))
        real(param, grad, state, *args)
        if state.t == 2:
            param[weights] *= 1e306

    monkeypatch.setattr(training, "adam_step", blown_up)
    g = sanity_graph(seed=15)
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy=strategy, rate=rate)
    aborts = []
    for epochs in (2, 5):
        with pytest.raises(TrainingAborted) as exc:
            train(g, cfg, quick(epochs))
        aborts.append(exc.value)
        assert exc.value.epoch == 3
        assert str(exc.value) == "training aborted at epoch 3: non-finite value at layer 2"
        assert isinstance(exc.value.__cause__, NumericsError)
        assert [row["epoch"] for row in exc.value.record.rows] == [1]
        assert np.abs(exc.value.params[0].weight).max() > 1e300
    short, long = aborts
    assert short.record.rows[0] == dict(long.record.rows[0],
                                        wall_clock_s=short.record.rows[0]["wall_clock_s"])
    for a, b in zip(short.params, long.params):
        assert np.array_equal(a.weight, b.weight)


@pytest.mark.parametrize("strategy, rate", (("flexidrop", 0.0), ("fixed_dropout", 0.3)))
def test_nonfinite_loss_still_logs_the_row_before_it(monkeypatch, strategy, rate):
    # epoch 3's forward is finite and its loss is not: row 2 is complete before
    # epoch 3's objective is checked, whether or not it came from epoch 3's tape
    real = Tape.softmax_cross_entropy
    losses = []

    def third_is_inf(self, *args):
        loss = real(self, *args)
        losses.append(loss)
        if len(losses) == 3:
            loss.data[...] = np.inf
        return loss

    monkeypatch.setattr(Tape, "softmax_cross_entropy", third_is_inf)
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy=strategy, rate=rate)
    with pytest.raises(TrainingAborted) as exc:
        train(sanity_graph(seed=16), cfg, quick(5))
    assert str(exc.value) == "training aborted at epoch 3: non-finite loss"
    assert [row["epoch"] for row in exc.value.record.rows] == [1, 2]


def nan_from_op_backward(op, per_epoch):
    """From epoch 3 on, ``op`` (``per_epoch`` calls an epoch) passes NaN down in backward."""
    def install(monkeypatch):
        real = getattr(Tape, op)
        calls = 0

        def nan_backward(self, x):
            nonlocal calls
            out = real(self, x)
            if out.requires_grad:
                calls += 1
                if calls > 2 * per_epoch:
                    idx, slots, vjp = self._nodes[-1]
                    self._nodes[-1] = (idx, slots, lambda g: vjp(np.full_like(g, np.nan)))
            return out

        monkeypatch.setattr(Tape, op, nan_backward)
    return install


def nan_leaf_gradient(layer, name):
    """From epoch 3 on, only layer ``layer``'s ``name`` leaf gets a NaN gradient."""
    def install(monkeypatch):
        real_bind, real_backward = training.bind_layers, Tape.backward
        bound = []   # one list of layers per epoch: train binds once an epoch

        def bind(*args, **kwargs):
            bound.append(real_bind(*args, **kwargs))
            return bound[-1]

        def backward(self, root, wrt):
            grads = real_backward(self, root, wrt)
            if len(bound) >= 3:
                leaf = getattr(bound[-1][layer - 1], name)
                grads = [np.full(v.shape, np.nan) if v is leaf else g
                         for v, g in zip(wrt, grads)]
            return grads

        monkeypatch.setattr(training, "bind_layers", bind)
        monkeypatch.setattr(Tape, "backward", backward)
    return install


@pytest.mark.parametrize("op, strategy, per_epoch, reason", (
    ("relu", "none", 1, "non-finite gradient of layer 1 weight"),
    ("sigmoid", "flexidrop", 2, "non-finite gradient of layer 1 retention logits"),
    # one leaf's gradient alone turns NaN; the guard's offsets must name it
    pytest.param(nan_leaf_gradient(2, "weight"), "none", None,
                 "non-finite gradient of layer 2 weight", id="layer2-weight-none"),
    pytest.param(nan_leaf_gradient(2, "weight"), "flexidrop", None,
                 "non-finite gradient of layer 2 weight", id="layer2-weight-flexidrop"),
    pytest.param(nan_leaf_gradient(2, "retention_logits"), "flexidrop", None,
                 "non-finite gradient of layer 2 retention logits",
                 id="layer2-retention_logits-flexidrop")))
def test_nonfinite_gradient_aborts_before_the_step(monkeypatch, op, strategy, per_epoch, reason):
    # from epoch 3 on, a gradient turns NaN while the objective stays finite; the
    # abort carries params_2, untouched by epoch 3's Adam step, and rows 1-2
    g = sanity_graph(seed=17)
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy=strategy)
    two = train(g, cfg, quick(2))
    poison = op if callable(op) else nan_from_op_backward(op, per_epoch)
    poison(monkeypatch)
    with pytest.raises(TrainingAborted) as exc:
        train(g, cfg, quick(5))
    assert str(exc.value) == f"training aborted at epoch 3: {reason}"
    assert [row["epoch"] for row in exc.value.record.rows] == [1, 2]
    for a, b in zip(exc.value.params, two.params):
        assert np.array_equal(a.weight, b.weight)
        assert (a.retention_logits is None) == (b.retention_logits is None)
        if a.retention_logits is not None:
            assert np.array_equal(a.retention_logits, b.retention_logits)


@pytest.mark.parametrize("strategy, rate, draws", (
    ("flexidrop", 0.0, False), ("none", 0.0, False), ("dropedge", 0.0, False),
    ("fixed_dropout", 0.3, True)))
def test_a_mask_free_epoch_derives_no_seed_and_makes_no_generator(monkeypatch, strategy, rate,
                                                                  draws):
    # stream 1 seeds the masks of epoch t's train forward; init_params makes one generator
    real_seed, real_rng = training._epoch_seed, np.random.default_rng
    streams, generators = [], []

    def epoch_seed(base_seed, epoch, stream):
        streams.append(stream)
        return real_seed(base_seed, epoch, stream)

    def default_rng(*args, **kwargs):
        generators.append(args)
        return real_rng(*args, **kwargs)

    g = sanity_graph(seed=18)
    monkeypatch.setattr(training, "_epoch_seed", epoch_seed)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    train(g, ModelConfig(layer_dims=(4, 8, 2), strategy=strategy, rate=rate), quick(4))
    assert streams.count(1) == (4 if draws else 0)
    assert len(generators) == (5 if draws else 1)


def test_summary_tracks_best_validation_epoch():
    g = sanity_graph(seed=10)
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy="flexidrop")
    res = train(g, cfg, quick(15))
    s = res.record.summary
    logged = {row["epoch"]: row for row in res.record.rows}
    best = s["best_val_epoch"]
    assert best in logged
    assert logged[best]["val_accuracy"] == max(r["val_accuracy"] for r in res.record.rows)
    assert s["test_accuracy_at_best_val"] == logged[best]["test_accuracy"]


# ---- record serialization ----------------------------------------------------------


def test_record_csv_roundtrip(tmp_path):
    g = sanity_graph(seed=11)
    cfg = ModelConfig(layer_dims=(4, 2), strategy="none")
    res = train(g, cfg, quick(4))
    path = tmp_path / "run.csv"
    res.record.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == res.record.columns
    assert len(lines) == 5
    # floats are written with repr, so parsing one back is exact
    first_loss = float(lines[1].split(",")[res.record.columns.index("train_loss")])
    assert first_loss == res.record.rows[0]["train_loss"]


def test_summary_json_sorted_and_stable(tmp_path):
    g = sanity_graph(seed=12)
    cfg = ModelConfig(layer_dims=(4, 2), strategy="none")
    res = train(g, cfg, quick(3))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    res.record.write_summary(p1)
    train(g, cfg, quick(3)).record.write_summary(p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---- link prediction ---------------------------------------------------------------


def test_link_prediction_end_to_end():
    g = generate_sbm(60, 2, 0.4, 0.05, 4, 0.2, seed=13)
    cfg = ModelConfig(layer_dims=(4, 8), strategy="flexidrop", task="link_prediction")
    res = train(g, cfg, quick(12, reg_lambda=0.01))
    s = res.record.summary
    assert 0.0 <= s["final_test_accuracy"] <= 1.0
    assert 0.0 <= s["final_test_auc"] <= 1.0
    again = train(g, cfg, quick(12, reg_lambda=0.01))
    assert again.record.summary == s


def test_link_prediction_needs_enough_edges():
    g = Graph(np.ones((4, 2)), np.zeros(4, dtype=int), np.asarray([(0, 1)]), 1,
              *np.eye(3, 4, dtype=bool))
    cfg = ModelConfig(layer_dims=(2, 4), strategy="none", task="link_prediction")
    with pytest.raises(ValueError, match="link_prediction"):
        train(g, cfg, quick(2))


@pytest.mark.parametrize("task, dims, want", (
    ("node_classification", (4, 8, 2), []),
    # the three splits' evaluation negatives, then one training draw per epoch
    ("link_prediction", (4, 8, 6), [(0, 4), (0, 5), (0, 6), (1, 2), (2, 2), (3, 2)])))
def test_negatives_are_drawn_for_links_alone_from_their_streams(monkeypatch, task, dims, want):
    real_seed, real_negatives = training._epoch_seed, training.sample_negative_edges
    streams, drawn = {}, []   # seed -> its (epoch, stream); the streams negatives are drawn from

    def epoch_seed(base_seed, epoch, stream):
        seed = real_seed(base_seed, epoch, stream)
        streams[seed] = (epoch, stream)
        return seed

    def negatives(graph, count, seed):
        drawn.append(streams[seed])
        return real_negatives(graph, count, seed)

    monkeypatch.setattr(training, "_epoch_seed", epoch_seed)
    monkeypatch.setattr(training, "sample_negative_edges", negatives)
    g = generate_sbm(60, 2, 0.4, 0.05, 4, 0.2, seed=13)
    train(g, ModelConfig(layer_dims=dims, task=task), quick(3))
    assert drawn == want


# ---- grid search -------------------------------------------------------------------


def test_grid_search_rows_and_aggregates():
    g = sanity_graph(seed=14, n=40)
    base = ModelConfig(layer_dims=(4, 6, 2), strategy="none")
    rows = grid_search(g, base, strategies=("none", "fixed_dropout"),
                       rates=(0.0, 0.5), seeds=(0, 1), train_config=quick(4))
    # none collapses to one cell; fixed_dropout sweeps both rates
    per_run = [r for r in rows if r["seed"] != "aggregate"]
    aggs = [r for r in rows if r["seed"] == "aggregate"]
    assert len(per_run) == 2 + 4
    assert len(aggs) == 1 + 2
    for agg in aggs:
        members = [r for r in per_run if r["strategy"] == agg["strategy"]
                   and r["param"] == agg["param"] and r["status"] == "ok"]
        accs = [r["test_accuracy"] for r in members]
        assert agg["test_accuracy"] == pytest.approx(np.mean(accs))
        want_std = np.std(accs, ddof=1) if len(accs) > 1 else 0.0
        assert agg["test_std"] == pytest.approx(want_std)


def test_grid_search_flexidrop_sweeps_lambda():
    g = sanity_graph(seed=15, n=40)
    base = ModelConfig(layer_dims=(4, 6, 2), strategy="flexidrop")
    rows = grid_search(g, base, strategies=("flexidrop",), rates=(0.0, 0.3),
                       seeds=(0,), train_config=quick(3))
    params = sorted(r["param"] for r in rows if r["seed"] != "aggregate")
    assert params == [0.0, 0.3]


@pytest.mark.filterwarnings("ignore:overflow")
def test_grid_search_records_failures_and_continues():
    g = sanity_graph(seed=16, n=40)
    base = ModelConfig(layer_dims=(4, 6, 2), strategy="flexidrop")
    rows = grid_search(g, base, strategies=("flexidrop",), rates=(1e308,),
                       seeds=(0, 1), train_config=quick(3))
    statuses = [r["status"] for r in rows if r["seed"] != "aggregate"]
    assert all(s.startswith("failed") for s in statuses)
    agg = [r for r in rows if r["seed"] == "aggregate"]
    assert len(agg) == 1
    assert agg[0]["test_accuracy"] is None


def test_grid_search_at_zero_epochs_aggregates_the_initial_models():
    g = sanity_graph(seed=17, n=40)
    rows = grid_search(g, ModelConfig(layer_dims=(4, 2)), strategies=("none",), rates=(),
                       seeds=(0, 1), train_config=quick(0))
    assert [r["status"] for r in rows] == ["ok", "ok", "2/2 ok"]
    assert rows[2]["test_accuracy"] == float(np.mean([r["test_accuracy"] for r in rows[:2]]))


def test_write_grid_csv(tmp_path):
    g = sanity_graph(seed=17, n=40)
    base = ModelConfig(layer_dims=(4, 2), strategy="none")
    rows = grid_search(g, base, strategies=("none",), rates=(0.0,), seeds=(0,),
                       train_config=quick(2))
    path = tmp_path / "grid.csv"
    RunRecord(GRID_COLUMNS, rows).write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == GRID_COLUMNS
    assert [line.split(",")[2] for line in lines[1:]] == ["0", "aggregate"]


# ---- every sweep builds its cells before the first one trains ---------------------


def count_trains(monkeypatch) -> list:
    """Replace training.train with a wrapper that records the graph of each call."""
    graphs, real = [], training.train

    def counted(graph, model_config, train_config):
        graphs.append(graph)
        return real(graph, model_config, train_config)

    monkeypatch.setattr(training, "train", counted)
    return graphs


@pytest.mark.parametrize("strategies, rates, message", (
    (("none", "fixed_dropout"), (0.1, 1.0), "rate must lie in [0, 1), got 1.0"),
    (("none", "flexidrop"), (0.1, -0.1), "reg_lambda must be finite and >= 0, got -0.1"),
    (("none", "flexdrop"), (0.1,), "unknown strategy 'flexdrop'")),
    ids=("rate-1", "negative-lambda", "unknown-strategy"))
def test_a_grid_cell_that_cannot_be_built_raises_before_any_cell_trains(monkeypatch, strategies,
                                                                        rates, message):
    trained = count_trains(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(message)):
        grid_search(sanity_graph(seed=14, n=40), ModelConfig(layer_dims=(4, 6, 2)), strategies,
                    rates, seeds=(0,), train_config=quick(2))
    assert trained == []


def test_an_oversmoothing_cell_that_cannot_be_built_raises_before_any_cell_trains(monkeypatch):
    g, base = sanity_graph(seed=14, n=40), ModelConfig(layer_dims=(4, 2))
    trained = count_trains(monkeypatch)
    dims = [depth_dims(g, base, depth, 0) for depth in (1, 2)]   # (4, 2), then (4, 0, 2)
    with pytest.raises(ValueError, match="layer_dims needs >= 2 positive entries"):
        oversmoothing_profile(g, base, dims, ("none",), quick(2))
    assert trained == []


def test_a_robustness_cell_that_cannot_be_built_raises_before_any_cell_trains(monkeypatch):
    trained = count_trains(monkeypatch)
    with pytest.raises(ValidationError, match=re.escape("fraction must lie in [0, 2]")):
        robustness_sweep(sanity_graph(seed=14, n=40), ModelConfig(layer_dims=(4, 2)),
                         fractions=(0.0, 2.5), strategies=("none",), seeds=(0,),
                         train_config=quick(2))
    assert trained == []


def test_the_strategies_of_a_robustness_sweep_share_each_graph_and_its_arrays(monkeypatch):
    g = sanity_graph(seed=19, n=40)
    trained, injected = count_trains(monkeypatch), []
    real = training.inject_random_edges

    def inject(graph, fraction, seed):
        injected.append(real(graph, fraction, seed))
        return injected[-1]

    monkeypatch.setattr(training, "inject_random_edges", inject)
    robustness_sweep(g, ModelConfig(layer_dims=(4, 6, 2)), fractions=(0.0, 0.5),
                     strategies=("none", "flexidrop"), seeds=(0, 1), train_config=quick(1))
    assert len(injected) == 4 and injected[0] is g   # one per (fraction, seed)
    # rows run fraction by fraction, strategy by strategy, seed by seed
    want = [injected[i] for i in (0, 1, 0, 1, 2, 3, 2, 3)]
    assert len(trained) == len(want) and all(h is w for h, w in zip(trained, want))
    for h in injected[2:]:
        assert h.num_edges > g.num_edges
        for name in ("features", "labels", "train_mask", "val_mask", "test_mask"):
            assert np.shares_memory(getattr(h, name), getattr(g, name)), name


# ---- sweep cells against a fresh eval forward ----------------------------------------


@pytest.mark.parametrize("epochs", (0, 5))
@pytest.mark.parametrize("fraction", (0.0, 0.5))
@pytest.mark.parametrize("propagation", ("symmetric", "row_stochastic"))
@pytest.mark.parametrize("strategy, rate", (("none", 0.0), ("flexidrop", 0.0),
                                            ("dropedge", 0.3), ("fixed_dropout", 0.3)))
def test_run_cell_matches_a_fresh_eval_forward(strategy, rate, propagation, fraction, epochs):
    # the sweeps used to re-run an eval forward on the trained parameters and
    # score that; run_cell reads train()'s own final evaluation instead
    graph = inject_random_edges(sanity_graph(seed=18, n=40), fraction, seed=3)
    cfg = ModelConfig(layer_dims=(4, 6, 2), strategy=strategy, rate=rate,
                      propagation_mode=propagation)
    tc = quick(epochs, reg_lambda=0.1, eval_every=2)
    row = run_cell(graph, cfg, tc, strategy=strategy, seed=0)
    res = train(graph, cfg, tc)
    logits = forward(Tape(), build_propagation(graph, propagation), res.params, cfg,
                     mode="eval").data
    assert row == {"strategy": strategy, "seed": 0,
                   "test_accuracy": accuracy(logits, graph.labels, graph.test_mask),
                   "val_accuracy": accuracy(logits, graph.labels, graph.val_mask),
                   "final_energy": dirichlet_energy(logits, graph), "status": "ok"}
    assert np.array_equal(res.final_logits, logits)


@pytest.mark.parametrize("strategy, rate", (("none", 0.0), ("flexidrop", 0.0),
                                            ("dropedge", 0.3)))
def test_link_final_test_auc_matches_a_fresh_eval_forward(strategy, rate):
    g = generate_sbm(60, 2, 0.4, 0.05, 4, 0.2, seed=13)
    cfg = ModelConfig(layer_dims=(4, 8, 6), strategy=strategy, rate=rate,
                      propagation_mode="symmetric", task="link_prediction")
    res = train(g, cfg, quick(6, reg_lambda=0.01, seed=2))
    # rebuild train()'s edge split and test negatives, then score a second forward
    train_pos, _, test_pos = _split_edges(g, _epoch_seed(2, 0, 3))
    test_negs = sample_negative_edges(g, len(test_pos), _epoch_seed(2, 0, 6))
    tape = Tape()
    logits = forward(tape, build_propagation(replace(g, edges=train_pos), "symmetric"),
                     res.params, cfg, mode="eval")
    probs, labels = link_scores(tape, logits, test_pos, test_negs)
    assert res.record.summary["final_test_auc"] == auc_score(probs.data, labels)
    assert np.array_equal(res.final_logits, logits.data)


def test_run_cell_records_a_failed_run():
    g = sanity_graph(seed=16, n=40)
    cfg = ModelConfig(layer_dims=(4, 6, 2), strategy="flexidrop")
    with np.errstate(over="ignore"):
        row = run_cell(g, cfg, quick(3, reg_lambda=1e308), strategy="flexidrop")
    assert row == {"strategy": "flexidrop", "test_accuracy": None, "val_accuracy": None,
                   "final_energy": None,
                   "status": "failed: training aborted at epoch 1: non-finite loss"}
