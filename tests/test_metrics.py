"""Evaluation metrics and the oversmoothing / robustness sweeps."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flexidrop.graphs import Graph, ValidationError, generate_sbm
from flexidrop.metrics import accuracy, auc_score, dirichlet_energy, link_accuracy
from flexidrop.model import ModelConfig
from flexidrop.training import (TrainConfig, depth_dims, oversmoothing_profile,
                                robustness_sweep)


def graph_with(edges, features, labels=None, classes=2):
    n = len(features)
    labels = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
    return Graph(np.asarray(features, dtype=float), labels,
                 np.asarray(edges, dtype=int).reshape(-1, 2), classes,
                 np.ones(n, dtype=bool), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))


# ---- accuracy ----------------------------------------------------------------------


def test_accuracy_basic_and_masked():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels, np.ones(3, dtype=bool)) == pytest.approx(2 / 3)
    assert accuracy(logits, labels, np.array([True, True, False])) == 1.0


def test_accuracy_tie_goes_to_lowest_class():
    logits = np.array([[1.0, 1.0]])
    assert accuracy(logits, np.array([0]), np.ones(1, dtype=bool)) == 1.0
    assert accuracy(logits, np.array([1]), np.ones(1, dtype=bool)) == 0.0


@st.composite
def masked_logits(draw):
    # integer values force ties; +-1e300 are the extremes
    entry = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e300, 1e300),
                      st.sampled_from([1e300, -1e300]))
    c = draw(st.integers(1, 12))
    n = draw(st.integers(1, 20))
    logits = draw(hnp.arrays(np.float64, (n, c), elements=entry, fill=entry))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
    mask = draw(hnp.arrays(np.bool_, n, elements=st.booleans()))
    mask[draw(st.integers(0, n - 1))] = True
    return logits, labels, mask


@settings(max_examples=200, deadline=None)
@example((np.array([[1.0, 3.0, 3.0], [-3.0, -3.0, -3.0]]), np.array([2, 0]),
          np.array([True, True])))   # ties: the first maximum is class 1, then class 0
@example((np.array([[1e300, -1e300], [-1e300, 1e300], [-1e300, -1e300]]), np.array([0, 0, 1]),
          np.array([True, False, True])))   # the extremes
@given(masked_logits())
def test_accuracy_takes_the_first_class_holding_the_row_max(case):
    logits, labels, mask = case
    # max() returns the first of equal keys: the lowest class of a tie
    preds = [max(range(row.size), key=lambda j: row[j]) for row in logits[mask]]
    assert accuracy(logits, labels, mask) == float((np.array(preds) == labels[mask]).mean())


def test_accuracy_empty_mask_raises():
    with pytest.raises(ValidationError, match="selects no nodes"):
        accuracy(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=bool))


def test_accuracy_matches_loop_oracle():
    rng = np.random.default_rng(40)
    logits = rng.normal(size=(50, 4))
    labels = rng.integers(0, 4, 50)
    mask = rng.random(50) < 0.6
    hits = sum(1 for i in range(50) if mask[i] and int(np.argmax(logits[i])) == labels[i])
    assert accuracy(logits, labels, mask) == pytest.approx(hits / mask.sum())


# ---- Dirichlet energy --------------------------------------------------------------


def test_dirichlet_two_node_example():
    # one edge, embeddings 0 and [1,1]: energy = 2 * ||(1,1)||^2 / 2 = 2
    g = graph_with([(0, 1)], [[0.0], [0.0]])
    emb = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert dirichlet_energy(emb, g) == pytest.approx(2.0, abs=1e-12)


def test_dirichlet_no_edges_is_zero():
    g = graph_with(np.zeros((0, 2)).reshape(0, 2), [[1.0], [2.0], [3.0]])
    emb = np.random.default_rng(0).normal(size=(3, 4))
    assert dirichlet_energy(emb, g) == 0.0


def test_dirichlet_matches_loop_oracle():
    g = generate_sbm(30, 2, 0.4, 0.1, 3, 0.5, seed=41)
    emb = np.random.default_rng(42).normal(size=(30, 5))
    total = sum(np.sum((emb[u] - emb[v]) ** 2) for u, v in g.edges)
    assert dirichlet_energy(emb, g) == pytest.approx(2.0 * total / 30, rel=1e-12)


def test_dirichlet_translation_invariant():
    g = generate_sbm(20, 2, 0.4, 0.1, 3, 0.5, seed=43)
    emb = np.random.default_rng(44).normal(size=(20, 3))
    shifted = emb + np.array([5.0, -2.0, 100.0])
    assert dirichlet_energy(shifted, g) == pytest.approx(dirichlet_energy(emb, g), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.0, 20.0))
def test_dirichlet_scales_quadratically(scale):
    g = graph_with([(0, 1), (1, 2)], [[0.0], [0.0], [0.0]])
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    base = dirichlet_energy(emb, g)
    assert dirichlet_energy(scale * emb, g) == pytest.approx(scale ** 2 * base, rel=1e-9,
                                                             abs=1e-12)


def test_dirichlet_constant_embedding_is_zero():
    g = generate_sbm(16, 2, 0.5, 0.2, 2, 0.0, seed=45)
    assert dirichlet_energy(np.ones((16, 7)), g) == 0.0


# ---- link metrics ------------------------------------------------------------------


def test_link_accuracy_threshold():
    scores = np.array([0.9, 0.4, 0.6, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert link_accuracy(scores, labels) == pytest.approx(0.5)
    assert link_accuracy(scores, labels, threshold=0.05) == pytest.approx(0.5)


def test_auc_perfect_and_random():
    labels = np.array([1, 1, 0, 0])
    assert auc_score(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 1.0
    assert auc_score(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 0.0
    assert auc_score(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(46)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    assert auc_score(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)))


def test_auc_single_class_raises():
    with pytest.raises(ValidationError, match="positive and one negative"):
        auc_score(np.array([0.1, 0.9]), np.array([1, 1]))


# ---- sweeps ------------------------------------------------------------------------


def sweep_train_config():
    return TrainConfig(epochs=3, learning_rate=0.05, reg_lambda=0.1, eval_every=4)


def test_oversmoothing_profile_shape():
    g = generate_sbm(40, 2, 0.4, 0.1, 4, 0.2, seed=47)
    base = ModelConfig(layer_dims=(4, 2))
    rows = oversmoothing_profile(g, base, [depth_dims(g, base, d, 8) for d in (1, 2)],
                                 strategies=("none", "flexidrop"),
                                 train_config=sweep_train_config())
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"depth", "strategy", "test_accuracy", "val_accuracy",
                            "final_energy", "status"}
        assert row["status"] == "ok"
        assert row["final_energy"] >= 0.0
        assert 0.0 <= row["test_accuracy"] <= 1.0
    assert sorted({r["depth"] for r in rows}) == [1, 2]


def test_robustness_sweep_shape_and_clean_baseline():
    g = generate_sbm(40, 2, 0.4, 0.1, 4, 0.2, seed=48)
    rows = robustness_sweep(g, ModelConfig(layer_dims=(4, 8, 2)), fractions=(0.0, 0.5),
                            strategies=("none",), seeds=(0, 1),
                            train_config=sweep_train_config())
    assert len(rows) == 4
    frac0 = [r for r in rows if r["fraction"] == 0.0]
    assert len(frac0) == 2
    for row in rows:
        assert set(row) == {"fraction", "strategy", "seed", "test_accuracy", "val_accuracy",
                            "final_energy", "status"}
        assert row["status"] == "ok"


def test_robustness_sweep_deterministic():
    g = generate_sbm(40, 2, 0.4, 0.1, 4, 0.2, seed=49)
    kw = dict(base_model=ModelConfig(layer_dims=(4, 8, 2)), fractions=(0.5,),
              strategies=("none",), seeds=(3,), train_config=sweep_train_config())
    assert robustness_sweep(g, **kw) == robustness_sweep(g, **kw)


@settings(max_examples=50, deadline=None)
@given(data=st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=2, max_size=40))
def test_auc_equals_the_scipy_rank_formula_exactly(data):
    # heavy ties: scores take at most six values; the reference is the
    # scipy.stats.rankdata formula auc_score used before ranking in numpy
    from scipy.stats import rankdata
    scores = np.array([s / 5.0 for s, _ in data])
    labels = np.array([float(y) for _, y in data])
    npos = int(labels.sum())
    nneg = labels.size - npos
    if npos == 0 or nneg == 0:
        return
    ranks = rankdata(scores)
    want = float((ranks[labels > 0.5].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))
    assert auc_score(scores, labels) == want
