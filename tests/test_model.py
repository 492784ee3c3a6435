"""Model forward passes, dropout strategies, and checkpointing."""
import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexidrop.autodiff import Tape, grad_check, sigmoid
from flexidrop.bounds import BoundContext, complexity_regularizer
from flexidrop.graphs import (Graph, ValidationError, build_propagation, generate_sbm,
                              propagation_from_edges)
from flexidrop.model import (CHECKPOINT_FORMAT, FIXED_STRATEGIES, STRATEGIES, BoundLayer,
                             LayerParams, ModelConfig, NumericsError, RETENTION_LOGIT_INIT,
                             bind_layers, forward, init_params, link_loss, link_scores,
                             load_checkpoint, retention_probabilities, sample_negative_edges,
                             save_checkpoint, train_forward_is_eval)


def sbm(seed=0, n=20, d=3):
    return generate_sbm(n, 2, 0.5, 0.1, d, 0.2, seed=seed)


def run_forward(graph, params, config, mode="eval", seed=0):
    tape = Tape()
    prop = build_propagation(graph, config.propagation_mode)
    return forward(tape, graph, prop, params, config, mode=mode, seed=seed)


# ---- config validation -------------------------------------------------------------


def test_config_rejects_bad_strategy():
    with pytest.raises(ValueError, match="strategy"):
        ModelConfig(layer_dims=(3, 2), strategy="gaussian")


def test_config_rejects_rate_for_trainable_strategies():
    for strategy in ("none", "flexidrop"):
        with pytest.raises(ValueError, match="rate"):
            ModelConfig(layer_dims=(3, 2), strategy=strategy, rate=0.5)


def test_config_rejects_rate_outside_unit_interval():
    with pytest.raises(ValueError):
        ModelConfig(layer_dims=(3, 2), strategy="fixed_dropout", rate=1.0)
    with pytest.raises(ValueError):
        ModelConfig(layer_dims=(3, 2), strategy="fixed_dropout", rate=-0.1)


def test_config_requires_two_dims():
    with pytest.raises(ValueError, match="layer_dims"):
        ModelConfig(layer_dims=(3,), strategy="none")


@pytest.mark.parametrize("dims, entry", (
    ((2.9, 2), 0),                  # a float used to be truncated to 2
    ((True, 2), 0),                 # a bool used to become 1
    ((3, np.float64(2.0)), 1),
    ((3, np.True_), 1),
    ((3, "2"), 1),
))
def test_config_rejects_non_integer_layer_dims(dims, entry):
    with pytest.raises(ValueError, match=rf"layer_dims\[{entry}\] must be an integer"):
        ModelConfig(layer_dims=dims)


def test_config_takes_numpy_integer_layer_dims_as_ints():
    cfg = ModelConfig(layer_dims=(np.int64(3), np.int32(2)))
    assert cfg.layer_dims == (3, 2)
    assert all(type(k) is int for k in cfg.layer_dims)


def test_config_roundtrips_through_dict():
    cfg = ModelConfig(layer_dims=(3, 8, 2), strategy="dropedge", rate=0.3,
                      propagation_mode="symmetric", task="link_prediction")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("entries, key", (
    ({"layer_dims": [3, 2], "stratgy": "none"}, "stratgy"),        # unknown key
    ({"strategy": "none"}, "layer_dims"),                           # missing key
    ({"layer_dims": [3, "2"]}, "layer_dims"),                       # string, not an int
    ({"layer_dims": [3, True]}, "layer_dims"),                      # bool, not an int
    ({"layer_dims": 3}, "layer_dims"),                              # not a list
    ({"layer_dims": [3, 2], "strategy": "dropedge", "rate": "0.3"}, "rate"),
    ({"layer_dims": [3, 2], "task": 1}, "task"),
    ({"layer_dims": [3, 2], "activation": "relu"}, "activation"),   # relu is fixed
))
def test_config_from_dict_rejects_unknown_keys_and_wrong_types(entries, key):
    with pytest.raises(ValidationError, match=f"ModelConfig: .*'{key}'"):
        ModelConfig.from_dict(entries)


# ---- initialization ----------------------------------------------------------------


def test_init_params_deterministic_and_glorot_bounded():
    a = init_params((5, 7, 2), seed=3)
    b = init_params((5, 7, 2), seed=3)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.weight, pb.weight)
        assert np.array_equal(pa.retention_logits, pb.retention_logits)
    assert np.abs(a[0].weight).max() <= np.sqrt(6.0 / 12.0)
    assert np.abs(a[1].weight).max() <= np.sqrt(6.0 / 9.0)
    c = init_params((5, 7, 2), seed=4)
    assert not np.array_equal(a[0].weight, c[0].weight)


def test_initial_retention_probability_frozen():
    params = init_params((4, 2), seed=0)
    (p,) = retention_probabilities(params)
    # logistic(2) to full double precision
    assert np.all(p == 0.8807970779778823)
    assert RETENTION_LOGIT_INIT == 2.0


def test_retention_goes_on_the_tape_on_its_first_read():
    # strategies that never scale by p must not record a sigmoid node per layer and epoch
    tape = Tape()
    (layer,) = bind_layers(tape, init_params((3, 2), seed=0), trainable=True)
    assert len(tape) == 0
    p = layer.retention
    assert len(tape) == 1 and p.op == "sigmoid" and layer.retention is p
    assert np.array_equal(p.data.ravel(), sigmoid(layer.retention_logits.data.ravel()))


@settings(max_examples=50, deadline=None)
@given(z=st.floats(-30, 30), dz=st.floats(0.01, 5.0))
def test_logistic_monotone_and_open_interval(z, dz):
    assert 0.0 < sigmoid(np.array(z)) < 1.0
    assert sigmoid(np.array(z + dz)) > sigmoid(np.array(z))


def test_logistic_extreme_inputs_saturate_without_overflow():
    assert sigmoid(np.array(1000.0)) == 1.0
    assert sigmoid(np.array(-1000.0)) == 0.0   # underflow to exactly 0 is fine here


# ---- plain forward -----------------------------------------------------------------


def isolated_graph(n=4, d=3, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    masks = np.eye(3, n, dtype=bool)
    return Graph(rng.normal(size=(n, d)), rng.integers(0, classes, n),
                 np.zeros((0, 2), dtype=int), classes, *masks)


def test_edgeless_single_layer_is_plain_linear_map():
    # with no edges both operators reduce to the identity, so logits = X @ W
    g = isolated_graph()
    cfg = ModelConfig(layer_dims=(3, 2), strategy="none")
    params = init_params(cfg.layer_dims, seed=1)
    res = run_forward(g, params, cfg)
    assert np.allclose(res.logits.data, g.features @ params[0].weight, atol=1e-14)


def test_constant_features_stay_constant_under_row_stochastic():
    g = sbm(seed=2, n=16, d=3)
    const = Graph(np.ones((16, 3)), g.labels, g.edges, g.num_classes,
                  g.train_mask, g.val_mask, g.test_mask)
    cfg = ModelConfig(layer_dims=(3, 4), strategy="none",
                      propagation_mode="row_stochastic")
    params = init_params(cfg.layer_dims, seed=0)
    res = run_forward(const, params, cfg)
    rows = res.logits.data
    assert np.abs(rows - rows[0]).max() <= 1e-12


def test_forward_rejects_wrong_feature_dim():
    g = sbm(seed=0, d=3)
    cfg = ModelConfig(layer_dims=(5, 2), strategy="none")
    with pytest.raises(ValueError, match="feature"):
        run_forward(g, init_params(cfg.layer_dims, seed=0), cfg)


@pytest.mark.parametrize("n, mode, message", (
    # a symmetric eval operator, while train-mode DropEdge would rebuild a row-stochastic one
    (20, "symmetric", "operator mode 'symmetric' != model propagation_mode 'row_stochastic'"),
    (22, "row_stochastic", "operator has 22 nodes, graph has 20"),
))
def test_forward_rejects_an_operator_that_does_not_match(n, mode, message):
    g = sbm(seed=0, d=3)
    prop = build_propagation(sbm(seed=0, n=n, d=3), mode)
    cfg = ModelConfig(layer_dims=(3, 2), strategy="dropedge", rate=0.3)
    for run_mode in ("train", "eval"):
        with pytest.raises(ValueError, match=message):
            forward(Tape(), g, prop, init_params(cfg.layer_dims, seed=0), cfg, mode=run_mode)


def test_forward_nan_raises_numerics_error():
    g = sbm(seed=0, d=3)
    cfg = ModelConfig(layer_dims=(3, 2), strategy="none")
    params = init_params(cfg.layer_dims, seed=0)
    params[0].weight[0, 0] = np.nan
    with pytest.raises(NumericsError, match="layer 1"):
        run_forward(g, params, cfg)


def test_forward_inf_weight_raises_numerics_error():
    # an inf weight without a NaN next to it used to pass the forward unnoticed
    g = sbm(seed=0, d=3)
    cfg = ModelConfig(layer_dims=(3, 4, 2), strategy="none")
    params = init_params(cfg.layer_dims, seed=0)
    params[1].weight[0, 0] = np.inf
    with pytest.raises(NumericsError, match="non-finite value at layer 2"):
        run_forward(g, params, cfg)


def test_preactivations_one_per_layer_and_final_is_logits():
    g = sbm(seed=1, d=3)
    cfg = ModelConfig(layer_dims=(3, 5, 4, 2), strategy="none")
    params = init_params(cfg.layer_dims, seed=2)
    res = run_forward(g, params, cfg)
    assert len(res.preactivations) == 3
    assert res.preactivations[-1] is res.logits
    assert res.logits.shape == (20, 2)


# ---- mean-field equivalence --------------------------------------------------------


def exhaustive_dropout_mean(graph, prop, weight, probs):
    """Expected P (x .* r) W over all 2^d shared mask vectors r."""
    d = len(probs)
    acc = np.zeros((graph.num_nodes, weight.shape[1]))
    pmat = prop.matrix.toarray()
    for bits in itertools.product((0.0, 1.0), repeat=d):
        r = np.array(bits)
        weight_prob = np.prod(np.where(r > 0, probs, 1.0 - probs))
        acc += weight_prob * (pmat @ (graph.features * r) @ weight)
    return acc


def test_flexidrop_forward_equals_exhaustive_expectation():
    g = sbm(seed=4, n=12, d=3)
    cfg = ModelConfig(layer_dims=(3, 2), strategy="flexidrop")
    params = init_params(cfg.layer_dims, seed=7)
    params[0].retention_logits[:] = np.array([0.3, -1.2, 2.0])
    prop = build_propagation(g, cfg.propagation_mode)
    expected = exhaustive_dropout_mean(g, prop, params[0].weight,
                                       sigmoid(params[0].retention_logits))
    res = run_forward(g, params, cfg)
    assert np.abs(res.logits.data - expected).max() <= 1e-12


def test_forward_refuses_an_unknown_mode():
    g = sbm(seed=5, d=4)
    cfg = ModelConfig(layer_dims=(4, 2), strategy="flexidrop")
    with pytest.raises(ValueError, match="unknown mode 'sample'"):
        run_forward(g, init_params(cfg.layer_dims, seed=8), cfg, mode="sample")


def test_flexidrop_eval_equals_train_mode():
    # mean-field scaling is deterministic, so train and eval forwards coincide
    g = sbm(seed=5, d=4)
    cfg = ModelConfig(layer_dims=(4, 6, 2), strategy="flexidrop")
    params = init_params(cfg.layer_dims, seed=8)
    a = run_forward(g, params, cfg, mode="train", seed=1)
    b = run_forward(g, params, cfg, mode="eval", seed=99)
    assert np.array_equal(a.logits.data, b.logits.data)


def test_train_forward_is_eval_exactly_where_the_predicate_holds():
    # training completes a logged row from the next epoch's train forward only where
    # the predicate holds, so there the two modes must agree bit for bit; elsewhere a
    # mask is drawn and they differ
    g = sbm(seed=14, n=30, d=4)
    params = init_params((4, 6, 2), seed=15)
    rng = np.random.default_rng(16)
    for p in params:
        p.retention_logits[:] = rng.normal(size=p.retention_logits.shape)
    for strategy, rate, propagation in itertools.product(
            STRATEGIES, (0.0, 0.3), ("row_stochastic", "symmetric")):
        if rate and strategy not in FIXED_STRATEGIES:
            continue
        cfg = ModelConfig(layer_dims=(4, 6, 2), strategy=strategy, rate=rate,
                          propagation_mode=propagation)
        same = np.array_equal(run_forward(g, params, cfg, mode="train", seed=17).logits.data,
                              run_forward(g, params, cfg, mode="eval").logits.data)
        assert same == train_forward_is_eval(cfg), (strategy, rate, propagation)


def test_flexidrop_saturated_retention_matches_no_dropout_bitwise():
    g = sbm(seed=6, d=3)
    flexi = ModelConfig(layer_dims=(3, 5, 2), strategy="flexidrop")
    plain = ModelConfig(layer_dims=(3, 5, 2), strategy="none")
    params = init_params(flexi.layer_dims, seed=9)
    for p in params:
        p.retention_logits[:] = 1000.0   # logistic saturates to exactly 1.0
    a = run_forward(g, params, flexi)
    b = run_forward(g, params, plain)
    assert np.array_equal(a.logits.data, b.logits.data)


# ---- fixed baselines ---------------------------------------------------------------


def test_fixed_dropout_rate_zero_is_identity_strategy():
    g = sbm(seed=8, d=3)
    fixed = ModelConfig(layer_dims=(3, 4, 2), strategy="fixed_dropout", rate=0.0)
    plain = ModelConfig(layer_dims=(3, 4, 2), strategy="none")
    params = init_params(fixed.layer_dims, seed=11)
    a = run_forward(g, params, fixed, mode="train", seed=3)
    b = run_forward(g, params, plain, mode="train", seed=3)
    assert np.array_equal(a.logits.data, b.logits.data)


def test_fixed_dropout_eval_mode_applies_no_mask():
    g = sbm(seed=9, d=3)
    fixed = ModelConfig(layer_dims=(3, 2), strategy="fixed_dropout", rate=0.6)
    plain = ModelConfig(layer_dims=(3, 2), strategy="none")
    params = init_params(fixed.layer_dims, seed=12)
    a = run_forward(g, params, fixed, mode="eval")
    b = run_forward(g, params, plain, mode="eval")
    assert np.array_equal(a.logits.data, b.logits.data)


def test_fixed_dropout_train_seeded_and_inverted_scaling():
    g = sbm(seed=10, n=30, d=6)
    cfg = ModelConfig(layer_dims=(6, 2), strategy="fixed_dropout", rate=0.5)
    params = [LayerParams(np.eye(6, 2), np.zeros(6))]
    a = run_forward(g, params, cfg, mode="train", seed=5)
    b = run_forward(g, params, cfg, mode="train", seed=5)
    c = run_forward(g, params, cfg, mode="train", seed=6)
    assert np.array_equal(a.logits.data, b.logits.data)
    assert not np.array_equal(a.logits.data, c.logits.data)
    # surviving entries are scaled by 1/(1-rate) = 2
    pmat = build_propagation(g, cfg.propagation_mode).matrix.toarray()
    masked = np.linalg.lstsq(pmat, a.logits.data, rcond=None)[0]
    # recovered pre-propagation activations are either 0 or twice the feature
    ratio = masked / np.where(g.features[:, :2] == 0, 1.0, g.features[:, :2])
    assert np.allclose(np.sort(np.unique(np.round(ratio, 6))), [0.0, 2.0])


def test_dropnode_zeroes_whole_rows():
    g = sbm(seed=11, n=40, d=4)
    cfg = ModelConfig(layer_dims=(4, 3), strategy="dropnode", rate=0.5)
    params = [LayerParams(np.ones((4, 3)), np.zeros(4))]
    res = run_forward(g, params, cfg, mode="train", seed=7)
    pmat = build_propagation(g, cfg.propagation_mode).matrix.toarray()
    pre = np.linalg.lstsq(pmat, res.logits.data, rcond=None)[0]
    row_sums = np.abs(pre).sum(axis=1)
    scaled = g.features @ params[0].weight * 2.0
    kept = row_sums > 1e-9
    assert 0 < kept.sum() < 40
    assert np.allclose(pre[kept], scaled[kept], atol=1e-9)


def test_rate_zero_dropedge_propagates_with_the_operator_itself():
    # it keeps every edge, so no operator is rebuilt and no generator is made
    g = generate_sbm(30, 2, 0.3, 0.05, 3, 0.1, seed=4)
    cfg = ModelConfig(layer_dims=(3, 2), strategy="dropedge", rate=0.0)
    prop = build_propagation(g, cfg.propagation_mode)
    params = init_params(cfg.layer_dims, seed=2)
    out = forward(Tape(), g, prop, params, cfg, mode="train", seed=5)
    assert out.operator is prop.matrix


def test_dropedge_eval_mode_is_identity_and_train_removes_edges():
    g = sbm(seed=12, n=30, d=3)
    cfg = ModelConfig(layer_dims=(3, 2), strategy="dropedge", rate=0.5)
    plain = ModelConfig(layer_dims=(3, 2), strategy="none")
    params = init_params(cfg.layer_dims, seed=13)
    a = run_forward(g, params, cfg, mode="eval")
    b = run_forward(g, params, plain, mode="eval")
    assert np.array_equal(a.logits.data, b.logits.data)

    t1 = run_forward(g, params, cfg, mode="train", seed=8)
    t2 = run_forward(g, params, cfg, mode="train", seed=8)
    t3 = run_forward(g, params, cfg, mode="train", seed=9)
    assert np.array_equal(t1.logits.data, t2.logits.data)
    assert not np.array_equal(t1.logits.data, t3.logits.data)
    # the sampled operator keeps self-loops so rows still sum to one
    sums = np.asarray(t1.operator.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-9
    assert t1.operator.nnz < build_propagation(g, "row_stochastic").matrix.nnz

    # the operator is exactly the one built from a graph holding the kept edges;
    # the forward draws its keep mask first from its seed
    for mode in ("row_stochastic", "symmetric"):
        mcfg = replace(cfg, propagation_mode=mode)
        for seed in (0, 8, 9, 31):
            got = run_forward(g, params, mcfg, mode="train", seed=seed).operator
            keep = np.random.default_rng(seed).random(g.num_edges) >= cfg.rate
            want = build_propagation(g.with_edges(g.edges[keep]), mode).matrix
            for attr in ("indptr", "indices", "data"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype
                assert np.array_equal(getattr(got, attr), getattr(want, attr))


# ---- multiply order ----------------------------------------------------------------


def reference_forward(tape, graph, prop, layers, config, mode, seed):
    """The forward before the multiply order was chosen by width: every layer
    computes (P @ A) @ W, with flexidrop's retention folded into W's rows as
    ``forward`` folds it. Same random draws, in the same order, as ``forward``."""
    rng = np.random.default_rng(seed)
    p_matrix = prop.matrix
    if config.strategy == "dropedge" and mode == "train":
        keep = rng.random(graph.num_edges) >= config.rate
        p_matrix = propagation_from_edges(graph.num_nodes, graph.edges[keep],
                                          config.propagation_mode, graph.features).matrix
    h = tape.leaf(graph.features)
    for li, layer in enumerate(layers):
        a = h if li == 0 else tape.relu(h)
        w = layer.weight
        if config.strategy == "flexidrop":
            w = tape.row_broadcast_mul(w, layer.retention)
        elif mode == "train" and config.strategy == "fixed_dropout" and config.rate > 0.0:
            mask = (rng.random(a.shape) >= config.rate) / (1.0 - config.rate)
            a = tape.elementwise_mul(a, tape.leaf(mask))
        elif mode == "train" and config.strategy == "dropnode" and config.rate > 0.0:
            rows = (rng.random(a.shape[0]) >= config.rate) / (1.0 - config.rate)
            a = tape.elementwise_mul(a, tape.leaf(np.repeat(rows.reshape(-1, 1), a.shape[1],
                                                            axis=1)))
        h = tape.matmul(tape.spmm(p_matrix, a, p_t=p_matrix.T.tocsr()), w)
    return h


def logits_and_grads(run, graph, params, config):
    """Logits, then the weight and retention-logit gradients of the train-set loss."""
    tape = Tape()
    layers = bind_layers(tape, params, trainable=True)
    logits = run(tape, layers)
    return [logits.data] + tape.backward(
        tape.softmax_cross_entropy(logits, graph.labels, graph.train_mask),
        [v for layer in layers for v in (layer.weight, layer.retention_logits)])


@settings(max_examples=80, deadline=None)
@example(dims=[3, 3, 2], n=6, density=0.5, strategy="flexidrop", rate=0.0, mode="train",
         propagation="row_stochastic", seed=5)   # a square weight: its rows and columns fit p
@given(dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       n=st.integers(2, 12), density=st.floats(0.0, 1.0),
       strategy=st.sampled_from(STRATEGIES), rate=st.floats(0.0, 0.9),
       mode=st.sampled_from(("train", "eval")),
       propagation=st.sampled_from(("row_stochastic", "symmetric")),
       seed=st.integers(0, 2**32 - 1))
def test_forward_matches_the_propagate_first_reference(dims, n, density, strategy, rate, mode,
                                                       propagation, seed):
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    masks = np.zeros((3, n), dtype=bool)
    masks[0, : (n + 1) // 2] = True
    g = Graph(rng.normal(size=(n, dims[0])), rng.integers(0, dims[-1], n),
              np.column_stack([iu[keep], iv[keep]]), dims[-1], *masks)
    config = ModelConfig(layer_dims=tuple(dims), strategy=strategy,
                         rate=rate if strategy in FIXED_STRATEGIES else 0.0,
                         propagation_mode=propagation)
    params = init_params(config.layer_dims, seed=seed % 1000)
    for p in params:
        p.retention_logits[:] = rng.normal(size=p.retention_logits.shape)
    prop = build_propagation(g, propagation)

    got = logits_and_grads(
        lambda t, layers: forward(t, g, prop, layers, config, mode, seed).logits, g, params, config)
    want = logits_and_grads(
        lambda t, layers: reference_forward(t, g, prop, layers, config, mode, seed),
        g, params, config)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    # on every drawn graph and width, flexidrop's folded layers equal the unfolded
    # (P (A diag p)) W, which scales the columns of A, so the rows of W, by p
    pmat = prop.matrix.toarray()
    h = g.features
    out = forward(Tape(), g, prop, params, replace(config, strategy="flexidrop", rate=0.0), mode)
    for li, (p, pre) in enumerate(zip(params, out.preactivations)):
        a = h if li == 0 else np.maximum(h, 0.0)
        h = (pmat @ (a * sigmoid(p.retention_logits)[None, :])) @ p.weight
        assert np.abs(pre.data - h).max() <= 1e-12 * np.abs(h).max()


@pytest.mark.parametrize("strategy", ("fixed_dropout", "dropnode"))
@pytest.mark.parametrize("dims", ((3, 6, 2), (6, 2, 3), (5, 2), (2, 5), (40, 4)))
def test_a_masked_layer_1_matches_the_reference(strategy, dims):
    # a masked layer 1 follows the width rule: (P (X m)) W where it widens, as the
    # reference computes it, and P ((X m) W) where it narrows
    g = sbm(seed=3, n=16, d=dims[0])
    config = ModelConfig(layer_dims=dims, strategy=strategy, rate=0.3)
    params = init_params(dims, seed=5)
    prop = build_propagation(g, config.propagation_mode)
    for seed in (0, 1, 2):
        got = logits_and_grads(
            lambda t, layers: forward(t, g, prop, layers, config, "train", seed).logits,
            g, params, config)
        want = logits_and_grads(
            lambda t, layers: reference_forward(t, g, prop, layers, config, "train", seed),
            g, params, config)
        for a, b in zip(got, want):
            if len(dims) == 2 and dims[1] >= dims[0]:   # one layer, the reference's order
                assert np.array_equal(a, b)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("strategy", ("fixed_dropout", "dropnode"))
def test_a_mask_on_a_column_major_input_is_the_row_major_draw(monkeypatch, strategy):
    # layer 1's 300x64 @ 64x64 product is above the small-matrix size, so it comes
    # back column-major and layer 2's mask is drawn column-major: same draws.
    # Layer 1's mask, on the row-major X, is drawn row-major
    masks = {}
    real = Tape.elementwise_mul

    def spy(self, a, b):
        masks.setdefault(key, []).append(b.data)
        return real(self, a, b)

    monkeypatch.setattr(Tape, "elementwise_mul", spy)
    dims = (64, 64, 3)
    g = sbm(seed=4, n=300, d=dims[0])
    config = ModelConfig(layer_dims=dims, strategy=strategy, rate=0.3)
    params = init_params(dims, seed=2)
    prop = build_propagation(g, config.propagation_mode)
    key = "got"
    got = logits_and_grads(
        lambda t, layers: forward(t, g, prop, layers, config, "train", 3).logits,
        g, params, config)
    key = "want"
    want = logits_and_grads(
        lambda t, layers: reference_forward(t, g, prop, layers, config, "train", 3),
        g, params, config)
    assert masks["got"][0].flags.c_contiguous
    assert masks["got"][1].flags.f_contiguous and not masks["got"][1].flags.c_contiguous
    for got_mask, want_mask in zip(masks["got"][:2], masks["want"][:2]):
        assert np.array_equal(got_mask, want_mask)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("dims", ((3, 6, 2), (6, 2, 3), (4, 5, 5, 2), (3, 2)))
@pytest.mark.parametrize("strategy, rate", (("none", 0.0), ("flexidrop", 0.0), ("dropedge", 0.0),
                                            ("fixed_dropout", 0.3), ("dropnode", 0.3)))
def test_a_train_forward_makes_one_spmm_per_layer_after_the_first(monkeypatch, dims,
                                                                   strategy, rate):
    # an unmasked layer 1 starts from the operator's P X and records no sparse product;
    # every other layer, a masked layer 1 included, records one, of its narrower width
    widths = []
    real = Tape.spmm

    def counted(self, p, x, *, p_t):
        widths.append(x.shape[1])
        return real(self, p, x, p_t=p_t)

    monkeypatch.setattr(Tape, "spmm", counted)
    g = sbm(seed=2, n=12, d=dims[0])
    config = ModelConfig(layer_dims=dims, strategy=strategy, rate=rate)
    run_forward(g, init_params(dims, seed=1), config, mode="train", seed=4)
    masked = strategy in ("fixed_dropout", "dropnode")
    assert widths == [min(k_in, k_out) for li, (k_in, k_out) in enumerate(zip(dims, dims[1:]))
                      if li > 0 or masked]


def test_forward_refuses_an_operator_built_from_other_features():
    g = sbm(seed=0, n=20, d=3)
    config = ModelConfig(layer_dims=(3, 4, 2))
    params = init_params(config.layer_dims, seed=0)
    cases = (
        (build_propagation(g.with_edges(g.edges[:5]), "row_stochastic"), None),   # the same X
        (build_propagation(sbm(seed=1, n=20, d=3), "row_stochastic"),
         r"built from features of shape \(20, 3\), not from the graph's features of shape "
         r"\(20, 3\)"),
        (build_propagation(sbm(seed=0, n=20, d=4), "row_stochastic"),
         r"built from features of shape \(20, 4\), not from the graph's features of shape "
         r"\(20, 3\)"),
    )
    for prop, refusal in cases:
        if refusal is None:
            forward(Tape(), g, prop, params, config)
        else:
            with pytest.raises(ValueError, match=refusal):
                forward(Tape(), g, prop, params, config)
    # features equal to the graph's but held in another array are refused too
    twin = Graph(g.features.copy(), g.labels, g.edges, g.num_classes,
                 g.train_mask, g.val_mask, g.test_mask)
    with pytest.raises(ValueError, match=r"built from features of shape \(20, 3\)"):
        forward(Tape(), g, build_propagation(twin, "row_stochastic"), params, config)


def test_grad_check_flexidrop_with_regularizer_through_a_reordered_layer():
    # layer 2 narrows 6 -> 2 and so multiplies by W before propagating
    g = sbm(seed=11, n=10, d=3)
    config = ModelConfig(layer_dims=(3, 6, 2), strategy="flexidrop")
    params = init_params(config.layer_dims, seed=4)
    prop = build_propagation(g, config.propagation_mode)
    ctx = BoundContext.from_graph(g, config.num_layers)
    k = config.num_layers

    def objective(tape, leaves):
        layers = [BoundLayer(leaves[i], leaves[k + i]) for i in range(k)]
        out = forward(tape, g, prop, layers, config, mode="train")
        loss = tape.softmax_cross_entropy(out.logits, g.labels, g.train_mask)
        return tape.add(loss, tape.scalar_mul(0.5, complexity_regularizer(tape, ctx, layers)))

    report = grad_check(objective, [p.weight for p in params] +
                        [p.retention_logits.reshape(-1, 1) for p in params])
    assert report.passed, str(report)
    assert report.entries_checked == 3 * 6 + 6 * 2 + 3 + 6


def test_grad_check_the_link_prediction_path():
    # weights and retention logits -> forward -> link_scores -> link_loss
    g = generate_sbm(12, 2, 0.6, 0.2, 3, 0.1, seed=5)
    config = ModelConfig(layer_dims=(3, 4, 2), strategy="flexidrop", task="link_prediction")
    params = init_params(config.layer_dims, seed=6)
    prop = build_propagation(g, config.propagation_mode)
    negs = sample_negative_edges(g, g.num_edges, seed=7)
    k = config.num_layers

    def objective(tape, leaves):
        layers = [BoundLayer(leaves[i], leaves[k + i]) for i in range(k)]
        out = forward(tape, g, prop, layers, config, mode="train")
        probs, labels = link_scores(tape, out.logits, g.edges, negs)
        return link_loss(tape, probs, labels)

    report = grad_check(objective, [p.weight for p in params] +
                        [p.retention_logits.reshape(-1, 1) for p in params])
    assert report.passed, str(report)
    assert report.entries_checked == 3 * 4 + 4 * 2 + 3 + 4


# ---- link prediction helpers -------------------------------------------------------


def test_link_scores_zero_embeddings_give_half():
    tape = Tape()
    emb = tape.leaf(np.zeros((6, 4)))
    pos = np.array([[0, 1], [2, 3]])
    neg = np.array([[4, 5]])
    probs, labels = link_scores(tape, emb, pos, neg)
    assert np.allclose(probs.data, 0.5)
    assert labels.tolist() == [1, 1, 0]


def test_link_scores_match_sigmoid_of_dot_products():
    rng = np.random.default_rng(20)
    emb_data = rng.normal(size=(8, 5))
    tape = Tape()
    emb = tape.leaf(emb_data)
    pos = np.array([[0, 1], [2, 5]])
    neg = np.array([[3, 4], [6, 7]])
    probs, _ = link_scores(tape, emb, pos, neg)
    pairs = np.vstack([pos, neg])
    want = 1.0 / (1.0 + np.exp(-(emb_data[pairs[:, 0]] * emb_data[pairs[:, 1]]).sum(axis=1)))
    assert np.allclose(probs.data.ravel(), want, atol=1e-12)


def test_link_loss_prefers_correct_ranking():
    rng = np.random.default_rng(21)
    emb_data = rng.normal(size=(4, 3))

    def loss_for(scale):
        tape = Tape()
        emb = tape.leaf(emb_data * scale)
        probs, labels = link_scores(tape, emb, np.array([[0, 1]]), np.array([[2, 3]]))
        return link_loss(tape, probs, labels).item()

    aligned = emb_data.copy()
    aligned[1] = aligned[0]
    aligned[3] = -aligned[2]
    tape = Tape()
    emb = tape.leaf(aligned)
    probs, labels = link_scores(tape, emb, np.array([[0, 1]]), np.array([[2, 3]]))
    good = link_loss(tape, probs, labels).item()
    assert good < loss_for(1.0) or good < np.log(2.0)


def test_sample_negative_edges_avoids_existing():
    g = sbm(seed=13, n=20, d=3)
    rng = np.random.default_rng(0)
    neg = sample_negative_edges(g, 15, rng)
    existing = set(map(tuple, g.edges.tolist()))
    assert neg.shape == (15, 2)
    assert not existing & set(map(tuple, neg.tolist()))


# ---- checkpointing -----------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    cfg = ModelConfig(layer_dims=(3, 6, 2), strategy="flexidrop",
                      propagation_mode="symmetric")
    params = init_params(cfg.layer_dims, seed=14)
    path = str(tmp_path / "model")
    save_checkpoint(path, params, cfg, extra={"epoch": 12})
    loaded, loaded_cfg, manifest = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert manifest["extra"]["epoch"] == 12
    assert manifest["format_version"] == CHECKPOINT_FORMAT
    # the config's layer_dims is the one statement of the array shapes
    assert set(manifest) == {"format_version", "config", "extra"}
    with np.load(tmp_path / "model.npz") as data:
        assert data.files == ["weight_0", "retention_logits_0", "weight_1", "retention_logits_1"]
    for a, b in zip(params, loaded):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.retention_logits, b.retention_logits)


def test_checkpoint_of_another_format_fails_naming_it(tmp_path):
    cfg = ModelConfig(layer_dims=(3, 2), strategy="none")
    path = str(tmp_path / "model")
    save_checkpoint(path, init_params(cfg.layer_dims, seed=15), cfg)
    meta = json.loads((tmp_path / "model.json").read_text())
    # format 1 wrote the model config with an activation field, format 2 a
    # list of layer shapes beside the config
    for version, changes in ((1, {"config": {**meta["config"], "activation": "relu"}}),
                             (2, {"layers": [{"weight_shape": [3, 2], "retention_len": 3}]})):
        (tmp_path / "model.json").write_text(json.dumps({**meta, **changes,
                                                         "format_version": version}))
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'model.json'}: unsupported checkpoint format {version}")):
            load_checkpoint(path)


@pytest.mark.parametrize("params", (
    lambda ps: ps[:1],
    lambda ps: ps + ps[-1:],
    lambda ps: [ps[0], LayerParams(np.zeros((6, 3)), np.zeros(6))],
), ids=("one-layer-missing", "one-layer-extra", "wrong-shape"))
def test_save_checkpoint_refuses_params_that_do_not_fit_the_config(tmp_path, params):
    cfg = ModelConfig(layer_dims=(3, 6, 2), strategy="none")
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "model", params(init_params(cfg.layer_dims, seed=15)), cfg)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("manifest", ([], "model", {"format_version": 3}),
                         ids=("a-list", "a-string", "no-config"))
def test_checkpoint_rejects_a_manifest_without_a_config_naming_it(tmp_path, manifest):
    # these raised TypeError or KeyError, which the command line does not catch
    cfg = ModelConfig(layer_dims=(3, 2), strategy="none")
    save_checkpoint(tmp_path / "model", init_params(cfg.layer_dims, seed=15), cfg)
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 'model.json'}: expected a mapping with a 'config' key")):
        load_checkpoint(tmp_path / "model")


@pytest.mark.parametrize("arrays", (
    lambda a: {k: v for k, v in a.items() if k != "retention_logits_1"},
    lambda a: {k: v for k, v in a.items() if k != "weight_0"},
    lambda a: {**a, "weight_2": np.zeros((2, 2))},
    lambda a: {**a, "retention_logits_1": np.zeros(5)},
    lambda a: {**a, "weight_1": a["weight_1"].T},
), ids=("missing-retention", "missing-weight", "extra-weight", "long-retention",
        "transposed-weight"))
def test_checkpoint_rejects_an_archive_without_exactly_the_configs_arrays(tmp_path, arrays):
    # a missing array raised KeyError from the archive, and an extra one was ignored
    cfg = ModelConfig(layer_dims=(3, 6, 2), strategy="none")
    save_checkpoint(tmp_path / "model", init_params(cfg.layer_dims, seed=15), cfg)
    with np.load(tmp_path / "model.npz") as data:
        held = {k: data[k] for k in data.files}
    np.savez(tmp_path / "model.npz", **arrays(held))
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 'model.npz'}: holds array shapes ")) as exc:
        load_checkpoint(tmp_path / "model")
    assert "layer_dims [3, 6, 2] need exactly" in str(exc.value)


def test_checkpoint_rejects_tampered_manifest(tmp_path):
    cfg = ModelConfig(layer_dims=(3, 2), strategy="none")
    params = init_params(cfg.layer_dims, seed=15)
    path = str(tmp_path / "model")
    save_checkpoint(path, params, cfg, extra={})
    meta = json.loads((tmp_path / "model.json").read_text())
    meta["config"]["layer_dims"] = [3, 9]
    (tmp_path / "model.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path)
