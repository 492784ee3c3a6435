"""Tape autodiff: finite-difference oracles and frozen hand examples."""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flexidrop.autodiff import EXP_CLAMP, GradCheckReport, Tape, Value, grad_check, sigmoid


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
    (grad,) = tape.backward(out, [v])
    return out.item(), grad


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
    (grad,) = tape.backward(loss, [logits])
    # softmax is (1/2, 1/2); gradient is p - onehot(0)
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-12)


def test_column_norm_three_four_five():
    tape = Tape()
    v = leaf(tape, [[3.0], [4.0]])
    out = tape.column_l2_norms(v)
    assert out.item() == pytest.approx(5.0, abs=1e-12)
    (grad,) = tape.backward(out, [v])
    assert np.allclose(grad, [[0.6], [0.8]], atol=1e-12)


def test_column_norm_zero_column_has_zero_grad():
    tape = Tape()
    v = leaf(tape, [[0.0, 3.0], [0.0, 4.0]])
    out = tape.sum(tape.column_l2_norms(v))
    (grad,) = tape.backward(out, [v])
    assert np.allclose(grad, [[0.0, 0.6], [0.0, 0.8]], atol=1e-12)


def test_product_reduce_gradient_is_partial_products():
    tape = Tape()
    v = leaf(tape, [[2.0], [3.0], [5.0]])
    out = tape.product_reduce(v)
    assert out.item() == 30.0
    (grad,) = tape.backward(out, [v])
    assert np.allclose(grad, [[15.0], [10.0], [6.0]], atol=1e-12)


def test_product_reduce_handles_zero_entry():
    tape = Tape()
    v = leaf(tape, [[2.0], [0.0], [5.0]])
    out = tape.product_reduce(v)
    assert out.item() == 0.0
    (grad,) = tape.backward(out, [v])
    # d/dv_i prod = prod of the others, computed without dividing by zero
    assert np.allclose(grad, [[0.0], [10.0], [0.0]], atol=1e-12)


def test_max_reduce_ties_take_lowest_index():
    tape = Tape()
    v = leaf(tape, [[2.0], [2.0]])
    out = tape.max_reduce(v)
    (grad,) = tape.backward(out, [v])
    assert np.allclose(grad, [[1.0], [0.0]])
    assert tape.argmax_trace == [0]


def test_relu_zero_input_has_zero_gradient():
    tape = Tape()
    v = leaf(tape, [[0.0]])
    out = tape.sum(tape.relu(v))
    (grad,) = tape.backward(out, [v])
    assert grad[0, 0] == 0.0


def test_exp_log_clamp_behaviour():
    tape = Tape()
    big = leaf(tape, [[60.0]])
    out = tape.exp(big)
    assert out.item() == pytest.approx(np.exp(EXP_CLAMP))
    (grad,) = tape.backward(out, [big])
    assert grad[0, 0] == 0.0            # clamped region is flat

    tape2 = Tape()
    tiny = leaf(tape2, [[0.0]])
    out2 = tape2.log(tiny)
    assert out2.item() == -EXP_CLAMP    # log input floored at exp(-50)
    (grad2,) = tape2.backward(out2, [tiny])
    assert grad2[0, 0] == 0.0


def test_all_ops_finite_on_zero_inputs():
    tape = Tape()
    x = leaf(tape, np.zeros((3, 2)))
    v = leaf(tape, np.zeros((2, 1)))
    m = sp.csr_matrix(np.zeros((3, 3)))
    outs = [tape.matmul(x, leaf(tape, np.zeros((2, 2)))),
            tape.spmm(m, x, p_t=m.T.tocsr()), tape.add(x, x), tape.sub(x, x),
            tape.elementwise_mul(x, x), tape.row_broadcast_mul(leaf(tape, np.zeros((2, 3))), v),
            tape.relu(x), tape.sigmoid(x), tape.log(x), tape.exp(x),
            tape.sum(x), tape.mean(x), tape.column_l2_norms(x),
            tape.max_reduce(v), tape.product_reduce(v),
            tape.scalar_mul(0.0, tape.sum(x)), tape.pair_dot(x, np.array([[0, 1], [2, 2]])),
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
        out = tape.mean(tape.spmm(m, xa, p_t=m.T.tocsr()))
        (ga,) = tape.backward(out, [xa])

        tape2 = Tape()
        xb = leaf(tape2, x)
        out2 = tape2.mean(tape2.matmul(tape2.leaf(dense), xb))
        (gb,) = tape2.backward(out2, [xb])

        assert abs(out.item() - out2.item()) <= 1e-10
        assert np.abs(ga - gb).max() <= 1e-10


def test_pair_dot_matches_the_selection_matrix_path():
    # the reference selects h[u] and h[v] with two m-by-N 0/1 matrices, multiplies
    # them entrywise and row-sums with a ones column; the pairs repeat (0, 3),
    # hold u == v pairs, and leave node 8 out
    rng = np.random.default_rng(17)
    n, k = 9, 4
    pairs = np.array([[0, 3], [5, 5], [0, 3], [3, 0], [7, 1], [2, 2], [6, 4], [1, 7]])
    h = rng.normal(size=(n, k))
    w = rng.normal(size=(len(pairs), 1))

    def reference(tape, hv):
        m = len(pairs)
        sel_u = sp.csr_matrix((np.ones(m), (np.arange(m), pairs[:, 0])), shape=(m, n))
        sel_v = sp.csr_matrix((np.ones(m), (np.arange(m), pairs[:, 1])), shape=(m, n))
        prod = tape.elementwise_mul(tape.spmm(sel_u, hv, p_t=sel_u.T.tocsr()),
                                    tape.spmm(sel_v, hv, p_t=sel_v.T.tocsr()))
        return tape.matmul(prod, tape.leaf(np.ones((k, 1))))

    outs, grads = [], []
    for build in (reference, lambda tape, hv: tape.pair_dot(hv, pairs)):
        tape = Tape()
        hv = leaf(tape, h)
        out = build(tape, hv)
        grads += tape.backward(tape.sum(tape.elementwise_mul(out, tape.leaf(w))), [hv])
        outs.append(out.data)
    assert outs[1].shape == (len(pairs), 1)
    assert np.abs(outs[1] - outs[0]).max() <= 1e-12 * np.abs(outs[0]).max()
    assert np.abs(grads[1] - grads[0]).max() <= 1e-12 * np.abs(grads[0]).max()
    assert not grads[1][8].any()


@pytest.mark.parametrize("pairs", ([[0, 1], [-1, 2]], [[0, 4]], [[4, 4]]))
def test_pair_dot_rejects_an_index_outside_the_rows(pairs):
    # numpy would wrap -1 to the last row; a pair index names one of the N rows
    tape = Tape()
    h = leaf(tape, np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"pair_dot: pair indices must lie in \[0, 4\)"):
        tape.pair_dot(h, np.array(pairs))


def test_elementwise_and_broadcast_gradients():
    x = RNG.normal(size=(4, 3))
    v = RNG.normal(size=(3, 1))   # scales the rows of x.T (3, 4)

    def build_mul(t, a):
        return t.mean(t.elementwise_mul(a, t.leaf(x + 1.0)))

    check_op(build_mul, x)

    def build_rb_x(t, a):
        return t.mean(t.row_broadcast_mul(a, t.leaf(v)))

    check_op(build_rb_x, x.T)

    def build_rb_v(t, a):
        return t.mean(t.row_broadcast_mul(t.leaf(x.T), a))

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


def two_branch_sigmoid(x):
    """The logistic function as two masked branches, 1/(1+exp(-x)) and exp(x)/(1+exp(x))."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_the_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(40)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                        745.2, -745.2, 709.8, -709.8, 37.0, -37.0, 5e-324, -5e-324])
    cases = [np.zeros(0), np.array([0.5]), np.array([-0.5]), special,
             *(rng.uniform(-800.0, 800.0, size=k) for k in (1, 3, 7, 101, 11001)),
             *(rng.normal(scale=s, size=k) for s in (1.0, 30.0) for k in (5, 11001)),
             rng.normal(scale=5.0, size=(11001, 1))]   # the column the link decoder scores
    for x in cases:
        got, want = sigmoid(x), two_branch_sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), x


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
    (grad,) = tape.backward(loss, [logits])
    assert np.isfinite(grad).all()


# ---- dense products and class-major reductions -------------------------------------

# (m, k, n) of a (m, k) @ (k, n) product and the layout its result must have: a tall
# product (m > n) of more than 10**6 multiply-adds comes back column-major ("F"),
# every other one row-major ("C")
PRODUCT_SHAPES = [
    ((2000, 128, 256), "F"),    # node2000_flexidrop's layer 1
    ((2000, 256, 4), "F"),      # its A W_2
    ((256, 2000, 4), "F"),      # its A^T g, as a forward product
    ((1001, 100, 10), "F"),     # just above the limit
    ((1000, 100, 10), "C"),     # on the limit
    ((200, 256, 2), "C"),       # tall, below: node200_cli's A W_2
    ((200, 16, 256), "C"),      # wide, below
    ((128, 2000, 256), "C"),    # wide, above
    ((4, 256, 2000), "C"),      # wide, above
    ((300, 64, 300), "C"),      # square, above
]


def product_error_bound(x, y):
    """|fl(x @ y) - x @ y| <= gamma_k (|x| @ |y|) entrywise for any summation order.

    gamma_k = k u / (1 - k u), u = 2**-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.5). Twice that bounds two products that round differently.
    """
    u = np.finfo(np.float64).eps / 2
    k = x.shape[1]
    return 2 * (k * u / (1 - k * u)) * (np.abs(x) @ np.abs(y))


@pytest.mark.parametrize("shape, layout", PRODUCT_SHAPES, ids=lambda s: "x".join(map(str, s))
                         if isinstance(s, tuple) else s)
def test_matmul_products_agree_with_numpy_and_take_the_pinned_layout(shape, layout):
    m, k, n = shape
    rng = np.random.default_rng(m * k + n)
    a, b, g = rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=(m, n))
    tape = Tape()
    av, bv = leaf(tape, a), leaf(tape, b)
    out = tape.matmul(av, bv)
    # sum(out * g) hands matmul the upstream gradient g exactly
    ga, gb = tape.backward(tape.sum(tape.elementwise_mul(out, leaf(tape, g, False))), [av, bv])
    for got, x, y in ((out.data, a, b), (ga, g, b.T), (gb, a.T, g)):
        assert np.all(np.abs(got - x @ y) <= product_error_bound(x, y))
    assert out.data.flags[f"{layout}_CONTIGUOUS"]
    assert not out.data.flags[f"{'C' if layout == 'F' else 'F'}_CONTIGUOUS"]


def test_gradients_through_mixed_memory_orders_are_the_row_major_ones():
    # a column-major leaf meets a row-major mask and, in backward, row-major upstream
    # gradients (g W^T is below the small-matrix size); elementwise products are exact
    rng = np.random.default_rng(9)
    x, m = rng.normal(size=(2000, 64)), rng.normal(size=(2000, 64))
    w, g = rng.normal(size=(64, 4)), rng.normal(size=(2000, 4))
    grads = []
    for order in "CF":
        tape = Tape()
        xv = leaf(tape, np.asarray(x, order=order))
        assert xv.data.flags[f"{order}_CONTIGUOUS"]   # a leaf keeps its order
        out = tape.matmul(tape.relu(tape.elementwise_mul(xv, leaf(tape, m, False))),
                          leaf(tape, w, False))
        grads += tape.backward(tape.sum(tape.elementwise_mul(out, leaf(tape, g, False))), [xv])
    assert grads[1].tobytes() == grads[0].tobytes()


def test_pair_dot_of_a_column_major_h_is_the_row_major_one():
    # a widening last layer hands pair_dot column-major embeddings
    rng = np.random.default_rng(12)
    h, pairs, w = rng.normal(size=(50, 6)), rng.integers(0, 50, size=(40, 2)), rng.normal(size=(40, 1))
    results = []
    for order in "CF":
        tape = Tape()
        hv = leaf(tape, np.asarray(h, order=order))
        out = tape.pair_dot(hv, pairs)
        results += [out.data, *tape.backward(
            tape.sum(tape.elementwise_mul(out, leaf(tape, w, False))), [hv])]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(results[:2], results[2:]))


def old_softmax_cross_entropy(logits, labels, mask):
    """The row-wise formula, with the row max taken twice, and its gradient."""
    idx = np.flatnonzero(mask)
    z = logits[idx]
    shift = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shift)
    denom = ez.sum(axis=1, keepdims=True)
    probs = ez / denom
    lse = np.log(denom).ravel() + z.max(axis=1)
    losses = lse - z[np.arange(idx.size), labels[idx]]
    grad = np.zeros_like(logits)
    delta = probs.copy()
    delta[np.arange(idx.size), labels[idx]] -= 1.0
    grad[idx] = delta * (1.0 / idx.size)
    return np.array([[losses.mean()]]), grad


# integer values force ties, +-1e300 the extremes of the shift
LOGIT_ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e300, 1e300),
    st.sampled_from([1e300, -1e300, np.nextafter(1e300, 0.0), np.nextafter(-1e300, 0.0)]))


@st.composite
def masked_logits(draw):
    c = draw(st.integers(1, 12))
    n = draw(st.integers(1, 20))
    logits = draw(hnp.arrays(np.float64, (n, c), elements=LOGIT_ENTRIES, fill=LOGIT_ENTRIES))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
    mask = draw(hnp.arrays(np.bool_, n, elements=st.booleans()))
    mask[draw(st.integers(0, n - 1))] = True
    return logits, labels, mask


@settings(max_examples=200, deadline=None)
@example((np.array([[1.0, 3.0, 3.0], [-3.0, -3.0, -3.0]]), np.array([2, 0]),
          np.array([True, True])))   # tied rows
@example((np.array([[1e300, -1e300, np.nextafter(1e300, 0.0)],
                    [-1e300, np.nextafter(-1e300, 0.0), -1e300]]), np.array([1, 0]),
          np.array([True, True])))   # the extremes of the shift
@given(masked_logits())
def test_softmax_cross_entropy_equals_the_row_wise_formula_bit_for_bit(case):
    logits, labels, mask = case
    tape = Tape()
    z = leaf(tape, logits)
    loss = tape.softmax_cross_entropy(z, labels, mask)
    (grad,) = tape.backward(loss, [z])
    want_loss, want_grad = old_softmax_cross_entropy(logits, labels, mask)
    assert loss.data.tobytes() == want_loss.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


# ---- tape mechanics ---------------------------------------------------------------


def test_backward_requires_scalar_root():
    tape = Tape()
    v = leaf(tape, [[1.0], [2.0]])
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(tape.relu(v), [v])


def test_value_reuse_accumulates_gradient():
    tape = Tape()
    v = leaf(tape, [[3.0]])
    out = tape.sum(tape.add(v, v))
    (grad,) = tape.backward(out, [v])
    assert grad[0, 0] == 2.0


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
        # the second call must leave the arrays the first one returned as they were
        return tape.backward(root, [a, b]) + tape.backward(root, [a, b])

    got = grads()
    with monkeypatch.context() as m:
        m.setattr(Tape, "_acc", staticmethod(reference_acc))
        want = grads()
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert not g.flags.writeable


def test_returned_grads_share_storage_and_are_read_only():
    tape = Tape()
    a = leaf(tape, [[1.0]])
    b = leaf(tape, [[2.0]])
    ga, gb = tape.backward(tape.add(a, b), [a, b])
    assert ga is gb                  # add hands one array to both operands
    with pytest.raises(ValueError, match="read-only"):
        ga += 1.0
    assert gb[0, 0] == 1.0


def test_two_roots_on_one_tape_get_their_own_gradients():
    # nothing is stored between calls: a second backward, from the same root or
    # another, returns exactly what a fresh tape would
    def build():
        tape = Tape()
        rng = np.random.default_rng(8)
        w, z = leaf(tape, rng.normal(size=(4, 3))), leaf(tape, rng.normal(size=(4, 1)))
        h = tape.row_broadcast_mul(w, tape.sigmoid(z))
        return tape, w, z, tape.mean(tape.relu(h)), tape.max_reduce(tape.column_l2_norms(h))

    tape, w, z, loss, reg = build()
    first = tape.backward(loss, [w, z])
    assert [g.tobytes() for g in tape.backward(loss, [w, z])] == [g.tobytes() for g in first]
    tape2, w2, z2, _, reg2 = build()
    want = tape2.backward(reg2, [w2, z2])
    assert [g.tobytes() for g in tape.backward(reg, [w, z])] == [g.tobytes() for g in want]
    # a leaf the root does not reach gets zeros of its shape
    (gz,) = tape.backward(tape.sum(w), [z])
    assert gz.shape == (4, 1) and not gz.any()


def test_backward_takes_only_leaves_that_require_grad():
    t1, t2 = Tape(), Tape()
    a, frozen = leaf(t1, [[2.0]]), leaf(t1, [[3.0]], requires_grad=False)
    mid = t1.relu(a)
    root = t1.sum(t1.elementwise_mul(mid, frozen))
    for bad in (mid, frozen):
        with pytest.raises(ValueError, match=r"wrt\[1\] must be a leaf that requires grad"):
            t1.backward(root, [a, bad])
    with pytest.raises(ValueError, match=r"wrt\[0\].*different tape"):
        t1.backward(root, [leaf(t2, [[1.0]])])
    with pytest.raises(TypeError, match=r"wrt\[0\].*must be a Value"):
        t1.backward(root, [np.ones((1, 1))])


def chain(tape, v):
    """Forty elementwise ops on v: relu, sigmoid and a scaling in turn."""
    ops = (tape.relu, tape.sigmoid, lambda u: tape.scalar_mul(0.9, u))
    for i in range(40):
        v = ops[i % 3](v)
    return v


def test_backward_drops_each_adjoint_once_its_node_has_run():
    # on a 1000x100 leaf every adjoint is 800 kB; holding all 40 would peak
    # near 40 arrays, dropping them leaves the live one and a backward's temporaries
    x = np.random.default_rng(9).normal(size=(1000, 100))
    tape = Tape()
    xv = tape.leaf(x, requires_grad=True)
    root = tape.mean(chain(tape, xv))
    tracemalloc.start()
    try:
        (grad,) = tape.backward(root, [xv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.shape == x.shape and grad.any()
    assert peak < 6 * x.nbytes, f"backward peaked at {peak / x.nbytes:.1f} arrays"


def test_an_eval_tape_keeps_no_intermediate_arrays():
    # no op takes a gradient, so the tape records nothing and each
    # intermediate goes with its last reference; the chain's output remains
    x = np.random.default_rng(9).normal(size=(1000, 100))
    tracemalloc.start()
    try:
        tape = Tape()
        out = chain(tape, tape.leaf(x))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 0 and out.shape == x.shape
    assert held < 2 * x.nbytes, f"the eval tape holds {held / x.nbytes:.1f} arrays"


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
        eye = sp.identity(3, format="csr")
        m = tape.spmm(eye, tape.matmul(a, b), p_t=eye)
        s = tape.sub(tape.add(m, tape.relu(m)), tape.scalar_mul(0.5, m))
        e = tape.elementwise_mul(s, tape.sigmoid(s))
        r = tape.row_broadcast_mul(tape.exp(b), tape.log(v))
        mix = tape.add(tape.max_reduce(tape.column_l2_norms(e)),
                       tape.product_reduce(tape.column_l2_norms(r)))
        ce = tape.softmax_cross_entropy(e, np.array([0, 1, 0]), np.ones(3, dtype=bool))
        ce = tape.add(ce, tape.sum(tape.pair_dot(e, np.array([[0, 2], [1, 1]]))))
        root = tape.add(tape.add(tape.mean(e), tape.sum(r)), tape.add(mix, ce))
        ga, gv = tape.backward(root, [a, v])
        assert ga.any() and gv.any()
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
    m = sp.csr_matrix(np.ones((4, 3)))
    assert tape.spmm(m, b, p_t=m.T.tocsr()).shape == (4, 2)
    with pytest.raises(ValueError, match="p_t has shape"):
        tape.spmm(m, b, p_t=m)
    with pytest.raises(TypeError, match="sparse"):
        tape.spmm(m, b, p_t=np.ones((3, 4)))


def test_requires_grad_false_leaves_get_no_gradient():
    tape = Tape()
    a = leaf(tape, [[2.0]])
    b = leaf(tape, [[3.0]], requires_grad=False)
    out = tape.sum(tape.elementwise_mul(a, b))
    (grad,) = tape.backward(out, [a])
    assert grad[0, 0] == 3.0
    with pytest.raises(ValueError, match="requires grad"):
        tape.backward(out, [b])


def test_tape_replay_is_bit_deterministic():
    def run():
        tape = Tape()
        x = leaf(tape, RNG_FIXED.copy())
        out = tape.mean(tape.sigmoid(tape.matmul(x, tape.leaf(W_FIXED))))
        (grad,) = tape.backward(out, [x])
        return out.item(), grad

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
