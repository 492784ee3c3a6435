"""Adam optimizer, the training loop, and grid sweeps."""
import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from flexidrop import training
from flexidrop.autodiff import Tape
from flexidrop.bounds import BoundContext, multilayer_bound
from flexidrop.graphs import (Graph, ValidationError, build_propagation, generate_sbm,
                              inject_random_edges)
from flexidrop.metrics import accuracy, auc_score, dirichlet_energy
from flexidrop.model import (ModelConfig, NumericsError, forward, init_params, link_scores,
                             retention_probabilities, sample_negative_edges)
from flexidrop.training import (AdamState, GRID_COLUMNS, RunRecord, TrainConfig,
                                TrainingAborted, _epoch_seed, _split_edges, adam_step,
                                grid_search, run_cell, train)


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
))
def test_train_config_from_dict_rejects_unknown_keys_and_wrong_types(entries, key):
    with pytest.raises(ValidationError, match=f"TrainConfig: .*'{key}'"):
        TrainConfig.from_dict(entries)


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
    # the run's operator once, then each train forward's own operator under DropEdge
    assert len(products) == 1 + per_forward * epochs


# ---- train loop basics -------------------------------------------------------------


def test_zero_epochs_returns_initial_params_and_empty_record():
    g = sanity_graph()
    cfg = ModelConfig(layer_dims=(4, 8, 2), strategy="flexidrop")
    res = train(g, cfg, quick(0))
    init = init_params(cfg.layer_dims, seed=0)
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
    g = sanity_graph(seed=4)
    for strategy, rate in (("none", 0.0), ("fixed_dropout", 0.4), ("dropedge", 0.3)):
        cfg = ModelConfig(layer_dims=(4, 5, 2), strategy=strategy, rate=rate)
        res = train(g, cfg, quick(5))
        for p in res.params:
            assert np.all(p.retention_logits == 2.0)


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
    init = init_params(cfg.layer_dims, seed=3)
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
    # a strategy that draws no mask completes rows 3 and 6 from the train forwards of
    # epochs 4 and 7, so only the last row is evaluated apart; the others evaluate
    # every row apart; an untrained model is evaluated once
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
    # the last row of a t-epoch run is always evaluated apart, so a row completed from
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


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("strategy, rate", (("flexidrop", 0.0), ("fixed_dropout", 0.3)))
def test_nonfinite_evaluation_aborts_at_the_next_epoch(monkeypatch, strategy, rate):
    # Adam's second step returns weights scaled by 1e306, so layer 2 of any forward of
    # params_2 overflows. flexidrop meets it in epoch 3's train forward (or, in a 2-epoch
    # run, in the last row's evaluation), fixed_dropout in row 2's evaluation apart; all
    # abort as epoch 3 with params_2, row 1 and the forward's error as the cause
    real = training.adam_step
    # the weight entries of the flat vector [W_1 (4x8), z_1 (4), W_2 (8x2), z_2 (8)]
    weights = np.r_[0:32, 36:52]

    def blown_up(param, grad, state, *args):
        assert param.shape == (60,)
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
                    idx, fn = self._nodes[-1]
                    self._nodes[-1] = (idx, lambda g, adj: fn(np.full_like(g, np.nan), adj))
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
    logits = forward(Tape(), graph, build_propagation(graph, propagation), res.params, cfg,
                     mode="eval").logits.data
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
    message_graph = g.with_edges(train_pos)
    tape = Tape()
    logits = forward(tape, message_graph, build_propagation(message_graph, "symmetric"),
                     res.params, cfg, mode="eval").logits
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
