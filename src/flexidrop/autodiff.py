"""Reverse-mode automatic differentiation on an append-only tape.

Every tensor is a 2-D float64 ``Value``. Scalars are shaped (1, 1) and
vectors are columns (k, 1). There is no implicit broadcasting. Two ops
bend shapes: ``row_broadcast_mul`` scales the rows of a (k, m) matrix by
a (k, 1) column, and ``pair_dot`` maps an (N, k) matrix and m raw index
pairs (u, v) to the (m, 1) column of row inner products <h[u], h[v]>;
its backward is one sparse product, (B + B^T) h with B holding the
upstream gradient g_j at (u_j, v_j). Every other op raises at
construction time on mismatched shapes. A Value belongs to exactly one
Tape for its whole life.

A node is ``(out_idx, input_slots, vjp)``: the index of its output's
adjoint, one adjoint index per input (None for an input that takes no
gradient), and a closure. ``vjp(g)`` maps the output's gradient g to a
tuple of one gradient per input, None where that gradient is not needed,
and touches no adjoint: ``Tape.backward`` alone accumulates them. Each op
decides at record time which arrays its vjp captures, so it computes no
gradient an input does not take and holds no array only such a gradient
would read.

Nothing a tape records refers back to the tape: a Value holds it by weak
reference and no vjp holds it. The tape keeps only its nodes, which are
recorded only for ops that take a gradient, so an eval tape holds no
intermediate arrays, and a tape is freed with its caller's last
reference, not by the cyclic collector. A vjp holds no Value either, only
the arrays it reads: ``relu``'s reads its input's sign mask, not the
input, so that input is freed with its caller's last reference while the
tape lives on. ``Tape.backward(root, wrt)`` returns the gradients of the
leaves in ``wrt`` and stores none.

One backward per tape: backward spends the tape, dropping each node, its
vjp and every array the vjp holds, as soon as that node has run,
so the arrays a finished node read are freed before the next node
allocates its gradients. A second backward on a spent tape raises
``ValueError``, as does recording a node on it; the gradients of two roots
come from two tapes. ``len(tape)`` still counts the nodes recorded.

A Value's array may be row- or column-major: ``matmul`` forms a tall
product above ``SMALL_PRODUCT`` column-major, where OpenBLAS is faster.
The backward of ``relu`` and of ``elementwise_mul``, which see hidden
activations, multiply in their upstream gradient's order, copying an
operand whose order differs, since numpy multiplies mixed orders several
times slower.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# exp/log arguments are clamped so results stay within exp(+-50); the
# clamped regions have exact zero derivative, which finite differences agree with
EXP_CLAMP = 50.0

# OpenBLAS forms a product of at most this many multiply-adds (m n k) with its
# small-matrix kernel; above it, its packed kernel forms a tall result faster
# column-major
SMALL_PRODUCT = 10**6

# pair_dot gathers and multiplies about this many entries of h's rows at a time
PAIR_BLOCK = 2**15


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; a tall one (more rows than columns) above SMALL_PRODUCT comes back column-major."""
    m, n = a.shape[0], b.shape[1]
    if m > n and m * n * a.shape[1] > SMALL_PRODUCT:
        return (b.T @ a.T).T
    return a @ b


def _order(a: np.ndarray) -> str:
    """a's memory order: "F" for a column-major array that is not also row-major, else "C"."""
    return "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"


def _in_order_of(x: np.ndarray, like: np.ndarray) -> np.ndarray:
    """x in like's memory order, copied if it differs: numpy multiplies mixed orders 2-9x slower."""
    return np.asarray(x, order=_order(like))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), evaluated without overflow for any sign."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))   # exp(-|x|) <= 1; min(x, -x) keeps the sign of a NaN
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Value:
    """Node in a computation: data and provenance tag."""

    __slots__ = ("data", "requires_grad", "op", "_tape", "_idx")

    def __init__(self, data: np.ndarray, requires_grad: bool, op: str, tape: "Tape"):
        self.data = data
        self.requires_grad = requires_grad
        self.op = op
        self._tape = weakref.ref(tape)
        self._idx = tape._count   # the index of this Value's adjoint in backward
        tape._count += 1

    @property
    def tape(self) -> "Tape | None":
        """The tape that recorded this Value, or None once that tape is gone."""
        return self._tape()

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ValueError(f"item() on non-scalar Value of shape {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Value(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"Values are 2-D matrices; got array of ndim {arr.ndim}")
    return arr if arr.flags.f_contiguous else np.ascontiguousarray(arr)


class Tape:
    """Append-only record of operations, walked once in reverse by backward().

    A tape and its Values are confined to a single thread; independent
    tapes may run concurrently.
    """

    def __init__(self):
        self._count = 0                              # Values made so far
        self._recorded = 0                           # nodes recorded, spent or not
        # (output index, input indices, vjp), not yet run; None once backward has spent the tape
        self._nodes: list[tuple[int, tuple[int | None, ...], object]] | None = []
        self.argmax_trace: list[int] = []            # max_reduce choices, in op order

    def __len__(self) -> int:
        return self._recorded

    # ---- construction helpers -------------------------------------------------

    def leaf(self, data, requires_grad: bool = False) -> Value:
        return Value(_as_matrix(data), requires_grad, "leaf", self)

    def _own(self, v: Value, arg: str, op: str) -> Value:
        if not isinstance(v, Value):
            raise TypeError(f"{op}: argument {arg!r} must be a Value, got {type(v).__name__}")
        if v.tape is not self:
            raise ValueError(f"{op}: argument {arg!r} belongs to a different tape")
        return v

    def _record(self, data: np.ndarray, op: str, inputs: tuple[Value, ...], vjp) -> Value:
        # a list comprehension and count(), not generators: this runs for every op, eval ones too
        slots = tuple([x._idx if x.requires_grad else None for x in inputs])
        rg = slots.count(None) < len(slots)
        out = Value(data, rg, op, self)
        if rg:
            if self._nodes is None:
                raise ValueError(f"{op}: the tape is spent, its backward has run; "
                                 "record on a new Tape")
            self._nodes.append((out._idx, slots, vjp))
            self._recorded += 1
        return out

    # ---- op set ---------------------------------------------------------------

    def matmul(self, a: Value, b: Value) -> Value:
        a = self._own(a, "a", "matmul")
        b = self._own(b, "b", "matmul")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
        ad = a.data if b.requires_grad else None   # read for b's gradient only
        bd = b.data if a.requires_grad else None
        return self._record(_dot(a.data, b.data), "matmul", (a, b), lambda g: (
            None if bd is None else _dot(g, bd.T), None if ad is None else _dot(ad.T, g)))

    def spmm(self, p, x: Value, *, p_t) -> Value:
        """Sparse @ dense. The sparse operands are raw matrices and never take gradients.

        ``p_t`` is ``p``'s transpose, in any sparse format, formed by the
        caller once for all the products with ``p`` (``PropagationOperator``
        carries ``matrix.T``, a CSC view of P's arrays). Backward multiplies
        by it, so no transpose is formed per call. Only its shape is
        checked: a ``p_t`` that is not ``p``'s transpose gives wrong
        gradients.
        """
        if not (sp.issparse(p) and sp.issparse(p_t)):
            raise TypeError("spmm: p and p_t must be scipy sparse matrices")
        x = self._own(x, "x", "spmm")
        if p.shape[1] != x.shape[0]:
            raise ValueError(f"spmm: inner dimensions differ, {p.shape} @ {x.shape}")
        if p_t.shape != p.shape[::-1]:
            raise ValueError(f"spmm: p_t has shape {p_t.shape}, p {p.shape}")
        return self._record(np.asarray(p @ x.data), "spmm", (x,),
                            lambda g: (np.asarray(p_t @ g),))

    def _same_shape_binary(self, a: Value, b: Value, op: str):
        a = self._own(a, "a", op)
        b = self._own(b, "b", op)
        if a.shape != b.shape:
            raise ValueError(f"{op}: shapes differ, {a.shape} vs {b.shape}")
        return a, b

    def add(self, a: Value, b: Value) -> Value:
        a, b = self._same_shape_binary(a, b, "add")
        return self._record(a.data + b.data, "add", (a, b), lambda g: (g, g))

    def sub(self, a: Value, b: Value) -> Value:
        a, b = self._same_shape_binary(a, b, "sub")
        return self._record(a.data - b.data, "sub", (a, b), lambda g: (g, -g))

    def elementwise_mul(self, a: Value, b: Value) -> Value:
        a, b = self._same_shape_binary(a, b, "elementwise_mul")
        ad = a.data if b.requires_grad else None   # read for b's gradient only
        bd = b.data if a.requires_grad else None
        return self._record(a.data * b.data, "elementwise_mul", (a, b), lambda g: (
            None if bd is None else g * _in_order_of(bd, g),
            None if ad is None else g * _in_order_of(ad, g)))

    def row_broadcast_mul(self, x: Value, v: Value) -> Value:
        """Multiply row i of x (k, m) by entry i of the column vector v (k, 1).

        The model scales a weight's input rows by their retention
        probabilities with it, so the gradient of v is a k-by-m row sum.
        """
        x = self._own(x, "x", "row_broadcast_mul")
        v = self._own(v, "v", "row_broadcast_mul")
        if v.shape != (x.shape[0], 1):
            raise ValueError(
                f"row_broadcast_mul: vector must be ({x.shape[0]}, 1), got {v.shape}")
        xd = x.data if v.requires_grad else None   # read for v's gradient only
        vd = v.data if x.requires_grad else None
        return self._record(x.data * v.data, "row_broadcast_mul", (x, v), lambda g: (
            None if vd is None else g * vd,
            None if xd is None else (g * xd).sum(axis=1, keepdims=True)))

    def pair_dot(self, h: Value, pairs: np.ndarray) -> Value:
        """Inner products <h[u_j], h[v_j]> of the rows of h (N, k), as an (m, 1) column.

        ``pairs`` is a raw (m, 2) integer array that never takes gradients.
        The forward takes the pairs in blocks of max(2, PAIR_BLOCK // k): it
        gathers a block's rows of h[u] and h[v], multiplies them in place
        and row-sums them with a product by a ones column into its part of
        the output, so it makes no (m, k) temporary. Each row's sum is the
        one a single product over all m pairs gives, since the last block
        takes a lone last pair: numpy forms a one-row product as a dot
        product, which sums in another order. With B holding g_j at
        (u_j, v_j), the gradient of h is (B + B^T) h, one sparse product
        over 2m entries; B's index arrays are formed here, once, and the
        backward fills in only g.
        """
        h = self._own(h, "h", "pair_dot")
        n, k = h.shape
        # numpy would wrap a negative index to a row from the end
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError(f"pair_dot: pair indices must lie in [0, {n})")
        m = pairs.shape[0]
        u, v = pairs[:, 0], pairs[:, 1]
        hd = np.ascontiguousarray(h.data)   # a column-major h's rows are strided
        out, ones = np.empty((m, 1)), np.ones((k, 1))
        step, s = max(2, PAIR_BLOCK // max(k, 1)), 0
        for e in (*range(step, m - 1, step), m):
            rows = np.take(hd, u[s:e], axis=0)
            rows *= np.take(hd, v[s:e], axis=0)
            np.matmul(rows, ones, out=out[s:e])
            s = e
        vjp = None
        if h.requires_grad:
            # the index type scipy would convert B's indices to
            coords = np.empty((2, 2 * m), dtype=np.int32 if n <= 2**31 - 1 else np.int64)
            coords[0, :m] = coords[1, m:] = u
            coords[0, m:] = coords[1, :m] = v

            def vjp(g):
                b = sp.coo_matrix((np.tile(g.ravel(), 2), (coords[0], coords[1])), shape=(n, n))
                return (b @ hd,)
        return self._record(out, "pair_dot", (h,), vjp)

    def relu(self, x: Value) -> Value:
        x = self._own(x, "x", "relu")
        mask = x.data > 0.0
        return self._record(np.maximum(x.data, 0.0), "relu", (x,),
                            lambda g: (g * _in_order_of(mask, g),))

    def sigmoid(self, x: Value) -> Value:
        x = self._own(x, "x", "sigmoid")
        out = sigmoid(x.data)
        return self._record(out, "sigmoid", (x,), lambda g: (g * out * (1.0 - out),))

    def log(self, x: Value) -> Value:
        """Natural log of the input clamped into [exp(-50), exp(50)]."""
        x = self._own(x, "x", "log")
        lo, hi = np.exp(-EXP_CLAMP), np.exp(EXP_CLAMP)
        clamped = np.clip(x.data, lo, hi)
        inside = (x.data >= lo) & (x.data <= hi)
        return self._record(np.log(clamped), "log", (x,), lambda g: (g * inside / clamped,))

    def exp(self, x: Value) -> Value:
        """Exponential of the input clamped into [-50, 50]."""
        x = self._own(x, "x", "exp")
        clamped = np.clip(x.data, -EXP_CLAMP, EXP_CLAMP)
        inside = np.abs(x.data) <= EXP_CLAMP
        out = np.exp(clamped)
        return self._record(out, "exp", (x,), lambda g: (g * inside * out,))

    def sum(self, x: Value) -> Value:
        x = self._own(x, "x", "sum")
        shape, order = x.shape, _order(x.data)
        return self._record(np.array([[x.data.sum()]]), "sum", (x,),
                            lambda g: (np.full(shape, g[0, 0], order=order),))

    def mean(self, x: Value) -> Value:
        x = self._own(x, "x", "mean")
        inv = 1.0 / x.data.size
        shape, order = x.shape, _order(x.data)
        return self._record(np.array([[x.data.mean()]]), "mean", (x,),
                            lambda g: (np.full(shape, g[0, 0] * inv, order=order),))

    def column_l2_norms(self, w: Value) -> Value:
        """Euclidean norm of each column of w (d, k), returned as a (k, 1) vector.

        A zero column has norm 0 and zero gradient (a valid subgradient).
        """
        w = self._own(w, "w", "column_l2_norms")
        wd = w.data
        norms = np.sqrt((wd ** 2).sum(axis=0))

        def vjp(g):
            scale = np.where(norms > 0.0, g.ravel() / np.where(norms > 0.0, norms, 1.0), 0.0)
            return (wd * scale[None, :],)
        return self._record(norms.reshape(-1, 1), "column_l2_norms", (w,), vjp)

    def max_reduce(self, v: Value) -> Value:
        """Maximum entry of a column vector; ties route the gradient to the lowest index."""
        v = self._own(v, "v", "max_reduce")
        if v.shape[1] != 1:
            raise ValueError(f"max_reduce: expected a column vector, got {v.shape}")
        idx = int(np.argmax(v.data.ravel()))
        self.argmax_trace.append(idx)
        shape = v.shape

        def vjp(g):
            gv = np.zeros(shape)
            gv[idx, 0] = g[0, 0]
            return (gv,)
        return self._record(np.array([[v.data[idx, 0]]]), "max_reduce", (v,), vjp)

    def product_reduce(self, v: Value) -> Value:
        """Product of the entries of a column vector.

        The gradient for entry i is the product of all other entries,
        computed by prefix/suffix products so single zeros stay exact.
        """
        v = self._own(v, "v", "product_reduce")
        if v.shape[1] != 1:
            raise ValueError(f"product_reduce: expected a column vector, got {v.shape}")
        flat = v.data.ravel()
        k = flat.size
        prefix = np.ones(k)
        suffix = np.ones(k)
        if k > 1:
            prefix[1:] = np.cumprod(flat[:-1])
            suffix[:-1] = np.cumprod(flat[::-1][:-1])[::-1]
        return self._record(np.array([[flat.prod() if k else 1.0]]), "product_reduce", (v,),
                            lambda g: ((g[0, 0] * prefix * suffix).reshape(-1, 1),))

    def scalar_mul(self, c: float, x: Value) -> Value:
        x = self._own(x, "x", "scalar_mul")
        c = float(c)
        return self._record(c * x.data, "scalar_mul", (x,), lambda g: (c * g,))

    def softmax_cross_entropy(self, logits: Value, labels: np.ndarray,
                              mask: np.ndarray) -> Value:
        """Mean cross-entropy of row-softmax(logits) against integer labels over a node mask.

        Fused with a max-shifted log-sum-exp, so raw logits of any
        magnitude are safe without the exp clamp.
        """
        logits = self._own(logits, "logits", "softmax_cross_entropy")
        n, c = logits.shape
        labels = np.asarray(labels, dtype=np.int64).ravel()
        mask = np.asarray(mask, dtype=bool).ravel()
        if labels.shape[0] != n or mask.shape[0] != n:
            raise ValueError("softmax_cross_entropy: labels and mask must have one entry per row")
        if labels.size and (labels.min() < 0 or labels.max() >= c):
            raise ValueError(f"softmax_cross_entropy: labels must lie in [0, {c})")
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise ValueError("softmax_cross_entropy: mask selects no rows")
        z = logits.data[idx]
        top = np.ascontiguousarray(z.T).max(axis=0)   # class-major: a long-axis reduction
        ez = np.exp(z - top[:, None])
        denom = ez.sum(axis=1, keepdims=True)
        probs = ez / denom
        lse = np.log(denom).ravel() + top
        losses = lse - z[np.arange(idx.size), labels[idx]]
        m = idx.size
        order = _order(logits.data)

        def vjp(g):
            grad = np.zeros((n, c), order=order)
            delta = probs.copy()
            delta[np.arange(idx.size), labels[idx]] -= 1.0
            grad[idx] = delta * (g[0, 0] / m)
            return (grad,)
        return self._record(np.array([[losses.mean()]]), "softmax_cross_entropy",
                            (logits,), vjp)

    # ---- reverse pass ---------------------------------------------------------

    def backward(self, root: Value, wrt: list[Value]) -> list[np.ndarray]:
        """d(root)/d(v), read-only, for each leaf v in ``wrt`` that requires grad.

        Zeros where root does not depend on v. Nothing is stored. This is
        the one place adjoints are read and written: nodes run in reverse
        order of recording, each one's vjp maps its output's adjoint to
        its inputs' gradients, and each gradient is added to its input's
        adjoint in input order. Gradients are never added in place, so one
        array may be returned for several Values (``add`` hands its
        upstream gradient to both operands).

        One backward per tape: it spends the tape. Each node, with its vjp
        and the arrays the vjp holds, is dropped as soon as it has run,
        and each node's adjoint once its vjp has read it. A second call
        raises ``ValueError``; take another root's gradients on a tape of
        its own. ``len(self)`` is left as it was.
        """
        root = self._own(root, "root", "backward")
        if root.shape != (1, 1):
            raise ValueError(f"backward: root must be a scalar, got shape {root.shape}")
        for i, v in enumerate(wrt):
            if self._own(v, f"wrt[{i}]", "backward").op != "leaf" or not v.requires_grad:
                raise ValueError(f"backward: wrt[{i}] must be a leaf that requires grad, got {v}")
        if self._nodes is None:
            raise ValueError("backward: the tape is spent, its backward has run; "
                             "record the computation on a new Tape")
        nodes, self._nodes = self._nodes, None
        adj: list[np.ndarray | None] = [None] * self._count
        adj[root._idx] = np.ones((1, 1))
        while nodes:
            # rebinding vjp drops the node that ran last, with the arrays only it held
            out_idx, slots, vjp = nodes.pop()
            g = adj[out_idx]
            if g is None:
                continue
            adj[out_idx] = None
            # out of place: add hands one array to both its inputs
            for slot, grad in zip(slots, vjp(g), strict=True):
                if slot is not None:
                    adj[slot] = grad if adj[slot] is None else adj[slot] + grad
            del grad   # adj keeps what is still needed; free the rest before the next node
        grads = [np.zeros(v.shape) if adj[v._idx] is None else adj[v._idx] for v in wrt]
        for g in grads:
            g.setflags(write=False)
        return grads


@dataclass
class GradCheckReport:
    max_rel_error: float = 0.0
    entries_checked: int = 0
    failures: list = field(default_factory=list)   # (param, entry, analytic, numeric, err)
    excluded: list = field(default_factory=list)   # (param, entry, reason)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"gradcheck {status}: max rel err {self.max_rel_error:.3e} over "
                f"{self.entries_checked} entries, {len(self.failures)} failures, "
                f"{len(self.excluded)} excluded")


def grad_check(f, params: list[np.ndarray], h: float = 1e-5,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of ``f`` against central finite differences.

    ``f(tape, leaves)`` must build a scalar Value from the given leaf
    Values and be deterministic. Relative error uses the denominator
    max(1, |analytic|, |numeric|). Entries whose +-h evaluations disagree
    on a max_reduce argmax sit on a subgradient tie and are excluded
    rather than failed; a non-finite (NaN or infinite) analytic or numeric
    value fails with its location.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]

    tape = Tape()
    leaves = [tape.leaf(p, requires_grad=True) for p in params]
    analytic = tape.backward(f(tape, leaves), leaves)
    base_trace = list(tape.argmax_trace)

    def eval_at(point: list[np.ndarray]) -> tuple[float, list[int]]:
        t = Tape()
        out = f(t, [t.leaf(p) for p in point])
        return out.item(), list(t.argmax_trace)

    report = GradCheckReport()
    for pi, p in enumerate(params):
        flat = p.ravel()
        for ei in range(flat.size):
            orig = flat[ei]
            work = [q.copy() for q in params]
            work[pi].ravel()[ei] = orig + h
            f_plus, trace_plus = eval_at(work)
            work[pi].ravel()[ei] = orig - h
            f_minus, trace_minus = eval_at(work)
            a = float(analytic[pi].ravel()[ei])
            num = (f_plus - f_minus) / (2.0 * h)
            if not (np.isfinite(a) and np.isfinite(num)):
                report.failures.append((pi, ei, a, num, float("nan")))
                continue
            if trace_plus != trace_minus or trace_plus != base_trace:
                report.excluded.append((pi, ei, "max_reduce tie crossed"))
                continue
            err = abs(a - num) / max(1.0, abs(a), abs(num))
            report.entries_checked += 1
            if err > report.max_rel_error:
                report.max_rel_error = err
            if err > tol:
                report.failures.append((pi, ei, a, num, err))
    return report
