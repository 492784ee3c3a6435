"""Tape autodiff: finite-difference oracles and frozen hand examples."""
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from flexidrop.autodiff import EXP_CLAMP, GradCheckReport, Tape, Value, grad_check


def leaf(tape, data, requires_grad=True):
    return tape.leaf(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def fd_gradient(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function of one ndarray."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        hi, lo = x.copy(), x.copy()
        hi[idx] += h
        lo[idx] -= h
        g[idx] = (fn(hi) - fn(lo)) / (2 * h)
    return g


def analytic_grad(build, x):
    """build(tape, leaf) -> scalar Value; returns (value, grad array)."""
    tape = Tape()
    v = leaf(tape, x)
    out = build(tape, v)
    tape.backward(out)
    return out.item(), v.grad.copy()


def check_op(build, x, tol=1e-6):
    val, grad = analytic_grad(build, x)

    def scalar(arr):
        t = Tape()
        return build(t, leaf(t, arr)).item()

    num = fd_gradient(scalar, np.asarray(x, dtype=np.float64))
    denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))
    assert np.abs(grad - num).max() / denom.max() < tol, f"analytic {grad} vs fd {num}"
    return val


# ---- frozen examples --------------------------------------------------------------


def test_cross_entropy_two_equal_logits_is_log_two():
    tape = Tape()
    logits = leaf(tape, [[0.0, 0.0]])
    loss = tape.softmax_cross_entropy(logits, np.array([0]), np.array([True]))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)
    tape.backward(loss)
    # softmax is (1/2, 1/2); gradient is p - onehot(0)
    assert np.allclose(logits.grad, [[-0.5, 0.5]], atol=1e-12)


def test_column_norm_three_four_five():
    tape = Tape()
    v = leaf(tape, [[3.0], [4.0]])
    out = tape.column_l2_norms(v)
    assert out.item() == pytest.approx(5.0, abs=1e-12)
    tape.backward(out)
    assert np.allclose(v.grad, [[0.6], [0.8]], atol=1e-12)


def test_column_norm_zero_column_has_zero_grad():
    tape = Tape()
    v = leaf(tape, [[0.0, 3.0], [0.0, 4.0]])
    out = tape.sum(tape.column_l2_norms(v))
    tape.backward(out)
    assert np.allclose(v.grad, [[0.0, 0.6], [0.0, 0.8]], atol=1e-12)


def test_product_reduce_gradient_is_partial_products():
    tape = Tape()
    v = leaf(tape, [[2.0], [3.0], [5.0]])
    out = tape.product_reduce(v)
    assert out.item() == 30.0
    tape.backward(out)
    assert np.allclose(v.grad, [[15.0], [10.0], [6.0]], atol=1e-12)


def test_product_reduce_handles_zero_entry():
    tape = Tape()
    v = leaf(tape, [[2.0], [0.0], [5.0]])
    out = tape.product_reduce(v)
    assert out.item() == 0.0
    tape.backward(out)
    # d/dv_i prod = prod of the others, computed without dividing by zero
    assert np.allclose(v.grad, [[0.0], [10.0], [0.0]], atol=1e-12)


def test_max_reduce_ties_take_lowest_index():
    tape = Tape()
    v = leaf(tape, [[2.0], [2.0]])
    out = tape.max_reduce(v)
    tape.backward(out)
    assert np.allclose(v.grad, [[1.0], [0.0]])
    assert tape.argmax_trace == [0]


def test_relu_zero_input_has_zero_gradient():
    tape = Tape()
    v = leaf(tape, [[0.0]])
    out = tape.sum(tape.relu(v))
    tape.backward(out)
    assert v.grad[0, 0] == 0.0


def test_exp_log_clamp_behaviour():
    tape = Tape()
    big = leaf(tape, [[60.0]])
    out = tape.exp(big)
    assert out.item() == pytest.approx(np.exp(EXP_CLAMP))
    tape.backward(out)
    assert big.grad[0, 0] == 0.0        # clamped region is flat

    tape2 = Tape()
    tiny = leaf(tape2, [[0.0]])
    out2 = tape2.log(tiny)
    assert out2.item() == -EXP_CLAMP    # log input floored at exp(-50)
    tape2.backward(out2)
    assert tiny.grad[0, 0] == 0.0


def test_all_ops_finite_on_zero_inputs():
    tape = Tape()
    x = leaf(tape, np.zeros((3, 2)))
    v = leaf(tape, np.zeros((2, 1)))
    m = sp.csr_matrix(np.zeros((3, 3)))
    outs = [tape.matmul(x, leaf(tape, np.zeros((2, 2)))),
            tape.spmm(m, x), tape.add(x, x), tape.sub(x, x),
            tape.elementwise_mul(x, x), tape.row_broadcast_mul(x, v),
            tape.relu(x), tape.sigmoid(x), tape.log(x), tape.exp(x),
            tape.sum(x), tape.mean(x), tape.column_l2_norms(x),
            tape.max_reduce(v), tape.product_reduce(v),
            tape.scalar_mul(0.0, tape.sum(x)),
            tape.softmax_cross_entropy(leaf(tape, np.zeros((3, 2))),
                                       np.zeros(3, dtype=int), np.ones(3, dtype=bool))]
    for out in outs:
        assert np.isfinite(out.data).all()


# ---- finite-difference checks per op ---------------------------------------------


RNG = np.random.default_rng(2024)


def test_matmul_gradient():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))

    def build(t, v):
        return t.mean(t.matmul(v, t.leaf(b)))

    check_op(build, a)

    def build_rhs(t, v):
        return t.mean(t.matmul(t.leaf(a), v))

    check_op(build_rhs, b)


def test_spmm_matches_dense_matmul_forward_and_backward():
    rng = np.random.default_rng(5)
    for n in (4, 17, 50):
        dense = (rng.random((n, n)) < 0.2) * rng.random((n, n))
        m = sp.csr_matrix(dense)
        x = rng.normal(size=(n, 3))

        tape = Tape()
        xa = leaf(tape, x)
        out = tape.mean(tape.spmm(m, xa))
        tape.backward(out)

        tape2 = Tape()
        xb = leaf(tape2, x)
        out2 = tape2.mean(tape2.matmul(tape2.leaf(dense), xb))
        tape2.backward(out2)

        assert abs(out.item() - out2.item()) <= 1e-10
        assert np.abs(xa.grad - xb.grad).max() <= 1e-10


def test_elementwise_and_broadcast_gradients():
    x = RNG.normal(size=(4, 3))
    v = RNG.normal(size=(3, 1))

    def build_mul(t, a):
        return t.mean(t.elementwise_mul(a, t.leaf(x + 1.0)))

    check_op(build_mul, x)

    def build_rb_x(t, a):
        return t.mean(t.row_broadcast_mul(a, t.leaf(v)))

    check_op(build_rb_x, x)

    def build_rb_v(t, a):
        return t.mean(t.row_broadcast_mul(t.leaf(x), a))

    check_op(build_rb_v, v)


def test_unary_op_gradients():
    x = RNG.normal(size=(3, 3)) * 2.0
    for name in ("relu", "sigmoid", "exp"):
        def build(t, a, name=name):
            return t.mean(getattr(t, name)(a))

        check_op(build, x + 0.01)   # keep relu away from the kink

    def build_log(t, a):
        return t.mean(t.log(a))

    check_op(build_log, np.abs(x) + 0.5)


def test_reduction_gradients():
    x = np.abs(RNG.normal(size=(5, 1))) + 0.3

    def build_prod(t, a):
        return t.product_reduce(a)

    check_op(build_prod, x)

    def build_norms(t, a):
        return t.max_reduce(t.column_l2_norms(a))

    check_op(build_norms, RNG.normal(size=(4, 3)))


def test_softmax_cross_entropy_gradient_masked():
    logits = RNG.normal(size=(6, 4))
    labels = RNG.integers(0, 4, size=6)
    mask = np.array([True, False, True, True, False, True])

    def build(t, a):
        return t.softmax_cross_entropy(a, labels, mask)

    check_op(build, logits)


def test_cross_entropy_extreme_logits_stay_finite():
    tape = Tape()
    logits = leaf(tape, [[1000.0, -1000.0], [-1000.0, 1000.0]])
    loss = tape.softmax_cross_entropy(logits, np.array([0, 0]), np.ones(2, dtype=bool))
    assert np.isfinite(loss.item())
    tape.backward(loss)
    assert np.isfinite(logits.grad).all()


# ---- tape mechanics ---------------------------------------------------------------


def test_backward_requires_scalar_root():
    tape = Tape()
    v = leaf(tape, [[1.0], [2.0]])
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(tape.relu(v))


def test_value_reuse_accumulates_gradient():
    tape = Tape()
    v = leaf(tape, [[3.0]])
    out = tape.sum(tape.add(v, v))
    tape.backward(out)
    assert v.grad[0, 0] == 2.0


def test_repeated_backward_accumulates_into_grad():
    tape = Tape()
    v = leaf(tape, [[3.0]])
    out = tape.sum(v)
    tape.backward(out)
    tape.backward(out)
    assert v.grad[0, 0] == 2.0      # documented: grads add across calls


def reference_acc(adj, v, g):
    """Gradient accumulation into a fresh zeros array per Value, added in place."""
    if not v.requires_grad:
        return
    if adj[v._idx] is None:
        adj[v._idx] = np.zeros_like(v.data)
    adj[v._idx] += g


# a, b take gradients and c does not; in each graph ``add`` hands one upstream
# gradient array to two parents, and one of them then gets a second contribution
SHARED_GRADIENT_GRAPHS = {
    "add_then_reuse_a": lambda t, a, b, c: t.sum(t.add(t.add(a, b), a)),
    "add_feeds_mul_by_b": lambda t, a, b, c: t.sum(t.elementwise_mul(t.add(a, b), b)),
    "sub_and_nested_adds": lambda t, a, b, c: t.mean(t.add(t.sub(a, b), t.add(b, t.add(a, a)))),
    "through_matmul_and_scale": lambda t, a, b, c: t.sum(t.add(
        t.matmul(t.add(a, b), c), t.row_broadcast_mul(t.add(b, b), t.column_l2_norms(c)))),
}


@pytest.mark.parametrize("name", sorted(SHARED_GRADIENT_GRAPHS))
def test_shared_gradient_arrays_equal_fresh_accumulation(monkeypatch, name):
    def grads():
        tape = Tape()
        rng = np.random.default_rng(3)
        a, b = (leaf(tape, rng.normal(size=(3, 3))) for _ in range(2))
        c = leaf(tape, rng.normal(size=(3, 3)), requires_grad=False)
        root = SHARED_GRADIENT_GRAPHS[name](tape, a, b, c)
        tape.backward(root)
        tape.backward(root)   # the second pass adds onto the stored grads
        assert c.grad is None
        return [v.grad for v in tape._values]

    got = grads()
    with monkeypatch.context() as m:
        m.setattr(Tape, "_acc", staticmethod(reference_acc))
        want = grads()
    assert [g is None for g in got] == [g is None for g in want]
    for g, w in zip(got, want):
        if g is not None:
            assert np.array_equal(g, w)
            assert not g.flags.writeable


def test_stored_grads_share_storage_and_are_read_only():
    tape = Tape()
    a = leaf(tape, [[1.0]])
    b = leaf(tape, [[2.0]])
    tape.backward(tape.add(a, b))
    assert a.grad is b.grad          # add hands one array to both operands
    with pytest.raises(ValueError, match="read-only"):
        a.grad += 1.0
    assert b.grad[0, 0] == 1.0


def test_values_are_confined_to_one_tape():
    t1, t2 = Tape(), Tape()
    v = leaf(t1, [[1.0]])
    with pytest.raises(ValueError, match="tape"):
        t2.relu(v)


def test_a_tape_is_freed_by_reference_counting():
    # nothing a tape records refers back to it, so the tape goes with its last
    # reference, before the cyclic collector runs; every op's backward is exercised
    def run():
        tape = Tape()
        rng = np.random.default_rng(0)
        a, b = leaf(tape, rng.uniform(-1, 1, (3, 4))), leaf(tape, rng.uniform(-1, 1, (4, 2)))
        v = leaf(tape, rng.uniform(0.5, 1.5, (4, 1)))
        m = tape.spmm(sp.identity(3, format="csr"), tape.matmul(a, b))
        s = tape.sub(tape.add(m, tape.relu(m)), tape.scalar_mul(0.5, m))
        e = tape.elementwise_mul(s, tape.sigmoid(s))
        r = tape.row_broadcast_mul(tape.exp(a), tape.log(v))
        mix = tape.add(tape.max_reduce(tape.column_l2_norms(e)),
                       tape.product_reduce(tape.column_l2_norms(r)))
        ce = tape.softmax_cross_entropy(e, np.array([0, 1, 0]), np.ones(3, dtype=bool))
        root = tape.add(tape.add(tape.mean(e), tape.sum(r)), tape.add(mix, ce))
        tape.backward(root)
        assert a.grad is not None and v.grad is not None
        return weakref.ref(tape), a

    gc.disable()
    try:
        ref, survivor = run()
        assert ref() is None
        assert survivor.tape is None   # a Value does not keep its tape alive
    finally:
        gc.enable()


def test_shape_mismatch_raises():
    tape = Tape()
    a = leaf(tape, np.zeros((2, 2)))
    b = leaf(tape, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        tape.add(a, b)
    with pytest.raises(ValueError):
        tape.matmul(a, b)


def test_requires_grad_false_leaves_get_no_gradient():
    tape = Tape()
    a = leaf(tape, [[2.0]])
    b = leaf(tape, [[3.0]], requires_grad=False)
    out = tape.sum(tape.elementwise_mul(a, b))
    tape.backward(out)
    assert a.grad[0, 0] == 3.0
    assert b.grad is None


def test_tape_replay_is_bit_deterministic():
    def run():
        tape = Tape()
        x = leaf(tape, RNG_FIXED.copy())
        out = tape.mean(tape.sigmoid(tape.matmul(x, tape.leaf(W_FIXED))))
        tape.backward(out)
        return out.item(), x.grad.copy()

    a_val, a_grad = run()
    b_val, b_grad = run()
    assert a_val == b_val
    assert np.array_equal(a_grad, b_grad)


RNG_FIXED = np.random.default_rng(77).normal(size=(5, 3))
W_FIXED = np.random.default_rng(78).normal(size=(3, 2))


def test_leaf_coercion_rules():
    tape = Tape()
    assert tape.leaf(2.0).shape == (1, 1)
    assert tape.leaf(np.zeros(3)).shape == (3, 1)   # 1-D becomes a column
    with pytest.raises(ValueError, match="2-D"):
        tape.leaf(np.zeros((2, 2, 2)))


# ---- grad_check harness ------------------------------------------------------------


def test_grad_check_passes_smooth_function():
    def f(tape, leaves):
        (x,) = leaves
        return tape.mean(tape.sigmoid(tape.elementwise_mul(x, x)))

    report = grad_check(f, [np.random.default_rng(1).normal(size=(3, 2))])
    assert isinstance(report, GradCheckReport)
    assert report.passed
    assert report.entries_checked == 6
    assert report.max_rel_error < 1e-6
    assert report.failures == []


def test_grad_check_excludes_near_ties_in_max_reduce():
    v = np.array([[1.0], [1.0 + 1e-12]])

    def f(tape, leaves):
        return tape.max_reduce(leaves[0])

    report = grad_check(f, [v])
    assert report.passed
    assert len(report.excluded) >= 1


def test_grad_check_reports_nan_as_failure():
    bad = np.array([[1.0, np.nan]])

    def f(tape, leaves):
        return tape.mean(leaves[0])

    report = grad_check(f, [bad])
    assert not report.passed
    assert any("nan" in str(fail).lower() for fail in report.failures)


def test_grad_check_multiple_params():
    rng = np.random.default_rng(3)

    def f(tape, leaves):
        x, w = leaves
        return tape.mean(tape.relu(tape.matmul(x, w)))

    report = grad_check(f, [rng.normal(size=(4, 3)), rng.normal(size=(3, 2))])
    assert report.passed
    assert report.entries_checked == 12 + 6 - len(report.excluded)
