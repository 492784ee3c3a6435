"""Complexity bounds against arbitrary-precision oracles.

Every closed-form quantity is recomputed with mpmath at 50 digits and the
float64 implementation must agree to 1e-10 relative error. Derived example
values were produced by the oracle first and frozen below.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from flexidrop.autodiff import Tape, grad_check
from flexidrop.bounds import (BoundContext, bound_report, complexity_prefactor,
                              complexity_regularizer, empirical_rademacher_exact,
                              empirical_rademacher_mc, generalization_bound,
                              multilayer_bound, single_layer_bound)
from flexidrop.model import (BoundLayer, LayerParams, ModelConfig, bind_layers,
                             init_params)

mp.mp.dps = 50


# ---- oracles (independent arbitrary-precision implementations) ---------------------


def oracle_prefactor(L, C, d, N, xinf):
    t = mp.sqrt(2 * mp.log(2 * d) / N)
    return mp.mpf(2) ** L * C * t * xinf


def oracle_single_layer(p, b1, b2, b3, n):
    return mp.mpf(p) * b1 * b2 * b3 / mp.sqrt(n)


def oracle_generalization(emp, rad, cap, delta, n):
    return mp.mpf(emp) + 2 * mp.mpf(rad) + 3 * cap * mp.sqrt(mp.log(2 / mp.mpf(delta)) / n)


def oracle_multilayer(ctx, params):
    total = oracle_prefactor(ctx.num_layers, ctx.num_classes, ctx.feature_dim,
                             ctx.num_nodes, ctx.feature_inf_max)
    for layer in params:
        cols = [mp.sqrt(mp.fsum(mp.mpf(x) ** 2 for x in layer.weight[:, j]))
                for j in range(layer.weight.shape[1])]
        p = [1 / (1 + mp.e ** (-mp.mpf(z))) for z in layer.retention_logits]
        pnorm = mp.sqrt(mp.fsum(q ** 2 for q in p))
        total *= max(cols) * pnorm
    return total


def rel_err(got, want):
    w = float(want)
    return abs(got - w) / max(1.0, abs(w))


# ---- prefactor ---------------------------------------------------------------------


def test_prefactor_citation_scale_case():
    # 2 layers, 7 classes, 1433 features, 2708 nodes, unit max feature
    ctx = BoundContext(num_layers=2, num_classes=7, feature_dim=1433,
                       num_nodes=2708, feature_inf_max=1.0)
    got = complexity_prefactor(ctx)
    # frozen from the mpmath oracle
    assert got == pytest.approx(2.1469581595778835, abs=1e-12)
    assert rel_err(got, oracle_prefactor(2, 7, 1433, 2708, 1.0)) < 1e-12


def test_prefactor_random_inputs_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        L = int(rng.integers(1, 9))
        C = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5000))
        N = int(rng.integers(2, 100000))
        xinf = float(rng.uniform(0.01, 50.0))
        ctx = BoundContext(num_layers=L, num_classes=C, feature_dim=d,
                           num_nodes=N, feature_inf_max=xinf)
        assert rel_err(complexity_prefactor(ctx), oracle_prefactor(L, C, d, N, xinf)) < 1e-10


def test_prefactor_doubles_per_layer():
    base = dict(num_classes=3, feature_dim=10, num_nodes=500, feature_inf_max=2.0)
    vals = [complexity_prefactor(BoundContext(num_layers=L, **base)) for L in range(1, 7)]
    for a, b in zip(vals, vals[1:]):
        assert b == 2.0 * a     # multiplying a float by 2 is exact


def test_prefactor_scales_inverse_sqrt_n():
    base = dict(num_layers=2, num_classes=3, feature_dim=10, feature_inf_max=1.0)
    v4 = complexity_prefactor(BoundContext(num_nodes=4, **base))
    v16 = complexity_prefactor(BoundContext(num_nodes=16, **base))
    v64 = complexity_prefactor(BoundContext(num_nodes=64, **base))
    assert v4 / v16 == pytest.approx(2.0, rel=1e-12)
    assert v16 / v64 == pytest.approx(2.0, rel=1e-12)


def test_context_from_graph():
    from flexidrop.graphs import generate_sbm
    g = generate_sbm(40, 2, 0.3, 0.1, 5, 0.0, seed=0)
    ctx = BoundContext.from_graph(g, num_layers=3)
    assert ctx.num_nodes == 40
    assert ctx.num_classes == 2
    assert ctx.feature_dim == 5
    assert ctx.feature_inf_max == 1.0
    assert ctx.num_layers == 3


def test_context_validation():
    with pytest.raises(ValueError):
        BoundContext(num_layers=0, num_classes=2, feature_dim=3, num_nodes=5,
                     feature_inf_max=1.0)


# ---- single layer bound ------------------------------------------------------------


def test_single_layer_worked_example():
    # p=0.5, B1=2, B2=3, B3=4, N=16 -> 0.5 * 24 / 4 = 3
    assert single_layer_bound(0.5, 2.0, 3.0, 4.0, 16) == pytest.approx(3.0, abs=1e-12)


def test_single_layer_random_inputs_against_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = float(rng.uniform(0.0, 1.0))
        b1, b2, b3 = rng.uniform(0.01, 20.0, size=3)
        n = int(rng.integers(1, 10000))
        got = single_layer_bound(p, b1, b2, b3, n)
        assert rel_err(got, oracle_single_layer(p, b1, b2, b3, n)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(p=st.floats(0.0, 1.0), scale=st.floats(0.1, 10.0))
def test_single_layer_linear_in_retention(p, scale):
    got = single_layer_bound(p, scale, 1.0, 1.0, 4)
    base = single_layer_bound(1.0, scale, 1.0, 1.0, 4)
    assert got == pytest.approx(p * base, rel=1e-12, abs=1e-300)


# ---- generalization bound ----------------------------------------------------------


def test_generalization_worked_example():
    # emp=0.5, rad=0.1, cap=1, delta=0.05, n=100; frozen from the oracle
    got = generalization_bound(0.5, 0.1, 1.0, 0.05, 100)
    assert got == pytest.approx(1.2761936747919524, abs=1e-12)
    assert rel_err(got, oracle_generalization(0.5, 0.1, 1.0, 0.05, 100)) < 1e-12


def test_generalization_random_inputs_against_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        emp = float(rng.uniform(0.0, 5.0))
        rad = float(rng.uniform(0.0, 2.0))
        cap = float(rng.uniform(0.1, 20.0))
        delta = float(rng.uniform(1e-6, 0.5))
        n = int(rng.integers(1, 100000))
        got = generalization_bound(emp, rad, cap, delta, n)
        assert rel_err(got, oracle_generalization(emp, rad, cap, delta, n)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(rad=st.floats(0.0, 5.0), extra=st.floats(0.001, 5.0))
def test_generalization_monotone_in_rademacher(rad, extra):
    lo = generalization_bound(0.1, rad, 1.0, 0.05, 50)
    hi = generalization_bound(0.1, rad + extra, 1.0, 0.05, 50)
    assert hi > lo


def test_generalization_decreasing_in_sample_count():
    vals = [generalization_bound(0.1, 0.0, 1.0, 0.05, n) for n in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]


def test_generalization_validates_delta():
    with pytest.raises(ValueError):
        generalization_bound(0.1, 0.1, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        generalization_bound(0.1, 0.1, 1.0, 1.5, 10)


# ---- multilayer bound / regularizer ------------------------------------------------


def two_layer_params(seed=0, dims=(3, 4, 2)):
    cfg = ModelConfig(layer_dims=dims, strategy="flexidrop")
    return init_params(cfg.layer_dims, seed=seed), cfg


def test_multilayer_worked_example_modulo_prefactor():
    # single layer, weight columns with norms (5, 0) -> max 5,
    # retention (0.5, 0.5) -> ||p|| = sqrt(0.5); product term is 5*sqrt(0.5)
    layer = LayerParams(weight=np.array([[3.0, 0.0], [4.0, 0.0]]),
                        retention_logits=np.array([0.0, 0.0]))
    ctx = BoundContext(num_layers=1, num_classes=2, feature_dim=2, num_nodes=16,
                       feature_inf_max=1.0)
    got = multilayer_bound(ctx, [layer])
    want = complexity_prefactor(ctx) * 5.0 * np.sqrt(0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_multilayer_random_inputs_against_oracle():
    rng = np.random.default_rng(14)
    for _ in range(30):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=int(rng.integers(2, 5))))
        params = [LayerParams(weight=rng.normal(size=(a, b)),
                              retention_logits=rng.normal(size=a))
                  for a, b in zip(dims, dims[1:])]
        ctx = BoundContext(num_layers=len(params), num_classes=int(rng.integers(2, 8)),
                           feature_dim=dims[0], num_nodes=int(rng.integers(2, 3000)),
                           feature_inf_max=float(rng.uniform(0.1, 5.0)))
        got = multilayer_bound(ctx, params)
        assert rel_err(got, oracle_multilayer(ctx, params)) < 1e-10


def test_regularizer_forward_equals_multilayer_bound_exactly():
    params, cfg = two_layer_params(seed=5)
    ctx = BoundContext(num_layers=2, num_classes=2, feature_dim=3, num_nodes=64,
                       feature_inf_max=1.0)
    tape = Tape()
    layers = bind_layers(tape, params, trainable=True)
    reg = complexity_regularizer(tape, ctx, layers)
    assert reg.item() == multilayer_bound(ctx, params)   # same code path, bit-exact


def test_regularizer_is_differentiable_everywhere_sampled():
    # joint FD check over both weight matrices and both logit vectors
    params, cfg = two_layer_params(seed=9)
    ctx = BoundContext(num_layers=2, num_classes=2, feature_dim=3, num_nodes=64,
                       feature_inf_max=1.0)
    flat = [params[0].weight, params[0].retention_logits.reshape(-1, 1),
            params[1].weight, params[1].retention_logits.reshape(-1, 1)]

    def f(tape, leaves):
        w0, z0, w1, z1 = leaves
        bound = [BoundLayer(w0, z0), BoundLayer(w1, z1)]
        return complexity_regularizer(tape, ctx, bound)

    report = grad_check(f, flat, h=1e-5, tol=1e-4)
    assert report.passed, str(report)


def test_regularizer_monotone_in_weight_scale():
    params, _ = two_layer_params(seed=2)
    ctx = BoundContext(num_layers=2, num_classes=2, feature_dim=3, num_nodes=64,
                       feature_inf_max=1.0)
    small = multilayer_bound(ctx, params)
    scaled = [LayerParams(weight=2.0 * p.weight, retention_logits=p.retention_logits)
              for p in params]
    assert multilayer_bound(ctx, scaled) == pytest.approx(4.0 * small, rel=1e-12)


# ---- Rademacher estimators ---------------------------------------------------------


def test_exact_rademacher_sign_class_frozen_value():
    # class {h, -h} with h = all-ones over 4 points: E|S4|/4 where S4 is a sum of
    # 4 signs; E|S4| = 24/16 so the complexity is 0.375 exactly
    outputs = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]])
    assert empirical_rademacher_exact(outputs) == 0.375


def test_exact_rademacher_zero_class():
    assert empirical_rademacher_exact(np.zeros((3, 5))) == 0.0


def test_exact_rademacher_matches_bruteforce_oracle():
    rng = np.random.default_rng(15)
    outputs = rng.normal(size=(5, 8))
    n = outputs.shape[1]
    total = 0.0
    for bits in range(2 ** n):
        eps = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(n)])
        total += (outputs @ eps).max() / n
    assert empirical_rademacher_exact(outputs) == pytest.approx(total / 2 ** n, rel=1e-12)


def test_exact_rademacher_rejects_large_n():
    with pytest.raises(ValueError, match="not feasible"):
        empirical_rademacher_exact(np.zeros((2, 21)))


def test_mc_rademacher_is_deterministic_and_covers_exact():
    rng = np.random.default_rng(16)
    outputs = rng.normal(size=(6, 10))
    exact = empirical_rademacher_exact(outputs)
    est1, err1 = empirical_rademacher_mc(outputs, num_draws=4000, seed=123)
    est2, err2 = empirical_rademacher_mc(outputs, num_draws=4000, seed=123)
    assert est1 == est2 and err1 == err2
    assert abs(est1 - exact) <= 4 * err1
    est3, _ = empirical_rademacher_mc(outputs, num_draws=4000, seed=124)
    assert est3 != est1


def test_mc_rademacher_stderr_shrinks_with_draws():
    rng = np.random.default_rng(17)
    outputs = rng.normal(size=(4, 30))
    _, small = empirical_rademacher_mc(outputs, num_draws=500, seed=0)
    _, large = empirical_rademacher_mc(outputs, num_draws=50000, seed=0)
    assert large < small


def test_mc_rademacher_nonnegative_for_symmetric_class():
    rng = np.random.default_rng(18)
    h = rng.normal(size=(1, 12))
    outputs = np.vstack([h, -h])
    est, _ = empirical_rademacher_mc(outputs, num_draws=2000, seed=5)
    assert est >= 0.0


# ---- report ------------------------------------------------------------------------


def test_bound_report_contents_and_warning():
    import json
    params, cfg = two_layer_params(seed=1)
    ctx = BoundContext(num_layers=2, num_classes=2, feature_dim=3, num_nodes=50,
                       feature_inf_max=1.0)
    report = bound_report(ctx, params, propagation_mode="row_stochastic")
    json.dumps(report)      # must be serializable
    assert report["num_layers"] == 2
    assert report["complexity_bound"] == multilayer_bound(ctx, params)
    assert report["prefactor"] == complexity_prefactor(ctx)
    assert len(report["layer_weight_col_norm_max"]) == 2
    assert set(report) == {"prefactor", "layer_weight_col_norm_max", "layer_retention_norm",
                           "complexity_bound", "bound_valid", "num_layers", "num_classes",
                           "feature_dim", "num_nodes", "feature_inf_max"}
    assert report["bound_valid"] is True

    with pytest.warns(UserWarning, match="row-stochastic"):
        symmetric = bound_report(ctx, params, propagation_mode="symmetric")
    assert symmetric["bound_valid"] is False
    assert symmetric["complexity_bound"] == report["complexity_bound"]

