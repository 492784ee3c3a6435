"""Reverse-mode automatic differentiation on an append-only tape.

Every tensor is a 2-D float64 ``Value``. Scalars are shaped (1, 1) and
vectors are columns (k, 1). There is no implicit broadcasting: the only
shape-bending op is ``row_broadcast_mul``, and every other op raises at
construction time on mismatched shapes. A Value belongs to exactly one
Tape for its whole life.

Nothing a tape records refers back to the tape: a Value holds it by weak
reference and no backward closure holds it. A tape is therefore freed
with the caller's last reference to it, not later by the cyclic garbage
collector.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# exp/log arguments are clamped so results stay within exp(+-50); the
# clamped regions have exact zero derivative, which finite differences agree with
EXP_CLAMP = 50.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), evaluated without overflow for any sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Value:
    """Node in a computation: data, gradient slot, and provenance tag."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_tape", "_idx")

    def __init__(self, data: np.ndarray, requires_grad: bool, op: str,
                 tape: "Tape", idx: int):
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.op = op
        self._tape = weakref.ref(tape)
        self._idx = idx

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
    return np.ascontiguousarray(arr)


class Tape:
    """Append-only record of operations, walked once in reverse by backward().

    A tape and its Values are confined to a single thread; independent
    tapes may run concurrently.
    """

    def __init__(self):
        self._values: list[Value] = []
        self._nodes: list[tuple[int, object]] = []   # (output index, backward fn)
        self.argmax_trace: list[int] = []            # max_reduce choices, in op order

    def __len__(self) -> int:
        return len(self._nodes)

    # ---- construction helpers -------------------------------------------------

    def leaf(self, data, requires_grad: bool = False) -> Value:
        v = Value(_as_matrix(data), requires_grad, "leaf", self, len(self._values))
        self._values.append(v)
        return v

    def _own(self, v: Value, arg: str, op: str) -> Value:
        if not isinstance(v, Value):
            raise TypeError(f"{op}: argument {arg!r} must be a Value, got {type(v).__name__}")
        if v.tape is not self:
            raise ValueError(f"{op}: argument {arg!r} belongs to a different tape")
        return v

    def _record(self, data: np.ndarray, op: str, inputs: tuple[Value, ...], backward) -> Value:
        rg = any(x.requires_grad for x in inputs)
        out = Value(data, rg, op, self, len(self._values))
        self._values.append(out)
        if rg:
            self._nodes.append((out._idx, backward))
        return out

    @staticmethod
    def _acc(adj: list, v: Value, g: np.ndarray) -> None:
        # out of place: ``g`` may also have been handed to another parent
        if v.requires_grad:
            prev = adj[v._idx]
            adj[v._idx] = g if prev is None else prev + g

    # ---- op set ---------------------------------------------------------------

    def matmul(self, a: Value, b: Value) -> Value:
        a = self._own(a, "a", "matmul")
        b = self._own(b, "b", "matmul")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

        def backward(g, adj):
            if a.requires_grad:
                Tape._acc(adj, a, g @ b.data.T)
            if b.requires_grad:
                Tape._acc(adj, b, a.data.T @ g)
        return self._record(a.data @ b.data, "matmul", (a, b), backward)

    def spmm(self, p, x: Value) -> Value:
        """Sparse @ dense. The sparse operand is a raw matrix and never takes gradients.

        Backward multiplies by ``p.T``, which for a CSR ``p`` is a CSC view
        of the same arrays: no transposed copy is built, and an eval-mode
        product never pays for one.
        """
        if not sp.issparse(p):
            raise TypeError("spmm: first operand must be a scipy sparse matrix")
        x = self._own(x, "x", "spmm")
        if p.shape[1] != x.shape[0]:
            raise ValueError(f"spmm: inner dimensions differ, {p.shape} @ {x.shape}")

        def backward(g, adj):
            Tape._acc(adj, x, np.asarray(p.T @ g))
        return self._record(np.asarray(p @ x.data), "spmm", (x,), backward)

    def _same_shape_binary(self, a: Value, b: Value, op: str):
        a = self._own(a, "a", op)
        b = self._own(b, "b", op)
        if a.shape != b.shape:
            raise ValueError(f"{op}: shapes differ, {a.shape} vs {b.shape}")
        return a, b

    def add(self, a: Value, b: Value) -> Value:
        a, b = self._same_shape_binary(a, b, "add")

        def backward(g, adj):
            Tape._acc(adj, a, g)
            Tape._acc(adj, b, g)
        return self._record(a.data + b.data, "add", (a, b), backward)

    def sub(self, a: Value, b: Value) -> Value:
        a, b = self._same_shape_binary(a, b, "sub")

        def backward(g, adj):
            Tape._acc(adj, a, g)
            Tape._acc(adj, b, -g)
        return self._record(a.data - b.data, "sub", (a, b), backward)

    def elementwise_mul(self, a: Value, b: Value) -> Value:
        a, b = self._same_shape_binary(a, b, "elementwise_mul")

        def backward(g, adj):
            Tape._acc(adj, a, g * b.data)
            Tape._acc(adj, b, g * a.data)
        return self._record(a.data * b.data, "elementwise_mul", (a, b), backward)

    def row_broadcast_mul(self, x: Value, v: Value) -> Value:
        """Multiply every row of x (N, k) elementwise by the column vector v (k, 1)."""
        x = self._own(x, "x", "row_broadcast_mul")
        v = self._own(v, "v", "row_broadcast_mul")
        if v.shape != (x.shape[1], 1):
            raise ValueError(
                f"row_broadcast_mul: vector must be ({x.shape[1]}, 1), got {v.shape}")
        row = v.data.ravel()

        def backward(g, adj):
            if x.requires_grad:
                Tape._acc(adj, x, g * row[None, :])
            if v.requires_grad:
                Tape._acc(adj, v, (g * x.data).sum(axis=0, keepdims=True).T)
        return self._record(x.data * row[None, :], "row_broadcast_mul", (x, v), backward)

    def relu(self, x: Value) -> Value:
        x = self._own(x, "x", "relu")
        mask = x.data > 0.0

        def backward(g, adj):
            Tape._acc(adj, x, g * mask)
        return self._record(np.maximum(x.data, 0.0), "relu", (x,), backward)

    def sigmoid(self, x: Value) -> Value:
        x = self._own(x, "x", "sigmoid")
        out = sigmoid(x.data)

        def backward(g, adj):
            Tape._acc(adj, x, g * out * (1.0 - out))
        return self._record(out, "sigmoid", (x,), backward)

    def log(self, x: Value) -> Value:
        """Natural log of the input clamped into [exp(-50), exp(50)]."""
        x = self._own(x, "x", "log")
        lo, hi = np.exp(-EXP_CLAMP), np.exp(EXP_CLAMP)
        clamped = np.clip(x.data, lo, hi)
        inside = (x.data >= lo) & (x.data <= hi)

        def backward(g, adj):
            Tape._acc(adj, x, g * inside / clamped)
        return self._record(np.log(clamped), "log", (x,), backward)

    def exp(self, x: Value) -> Value:
        """Exponential of the input clamped into [-50, 50]."""
        x = self._own(x, "x", "exp")
        clamped = np.clip(x.data, -EXP_CLAMP, EXP_CLAMP)
        inside = np.abs(x.data) <= EXP_CLAMP
        out = np.exp(clamped)

        def backward(g, adj):
            Tape._acc(adj, x, g * inside * out)
        return self._record(out, "exp", (x,), backward)

    def sum(self, x: Value) -> Value:
        x = self._own(x, "x", "sum")

        def backward(g, adj):
            Tape._acc(adj, x, np.full_like(x.data, g[0, 0]))
        return self._record(np.array([[x.data.sum()]]), "sum", (x,), backward)

    def mean(self, x: Value) -> Value:
        x = self._own(x, "x", "mean")
        inv = 1.0 / x.data.size

        def backward(g, adj):
            Tape._acc(adj, x, np.full_like(x.data, g[0, 0] * inv))
        return self._record(np.array([[x.data.mean()]]), "mean", (x,), backward)

    def column_l2_norms(self, w: Value) -> Value:
        """Euclidean norm of each column of w (d, k), returned as a (k, 1) vector.

        A zero column has norm 0 and zero gradient (a valid subgradient).
        """
        w = self._own(w, "w", "column_l2_norms")
        norms = np.sqrt((w.data ** 2).sum(axis=0))

        def backward(g, adj):
            scale = np.where(norms > 0.0, g.ravel() / np.where(norms > 0.0, norms, 1.0), 0.0)
            Tape._acc(adj, w, w.data * scale[None, :])
        return self._record(norms.reshape(-1, 1), "column_l2_norms", (w,), backward)

    def max_reduce(self, v: Value) -> Value:
        """Maximum entry of a column vector; ties route the gradient to the lowest index."""
        v = self._own(v, "v", "max_reduce")
        if v.shape[1] != 1:
            raise ValueError(f"max_reduce: expected a column vector, got {v.shape}")
        idx = int(np.argmax(v.data.ravel()))
        self.argmax_trace.append(idx)

        def backward(g, adj):
            gv = np.zeros_like(v.data)
            gv[idx, 0] = g[0, 0]
            Tape._acc(adj, v, gv)
        return self._record(np.array([[v.data[idx, 0]]]), "max_reduce", (v,), backward)

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

        def backward(g, adj):
            Tape._acc(adj, v, (g[0, 0] * prefix * suffix).reshape(-1, 1))
        return self._record(np.array([[flat.prod() if k else 1.0]]), "product_reduce", (v,), backward)

    def scalar_mul(self, c: float, x: Value) -> Value:
        x = self._own(x, "x", "scalar_mul")
        c = float(c)

        def backward(g, adj):
            Tape._acc(adj, x, c * g)
        return self._record(c * x.data, "scalar_mul", (x,), backward)

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
        shift = z - z.max(axis=1, keepdims=True)
        ez = np.exp(shift)
        denom = ez.sum(axis=1, keepdims=True)
        probs = ez / denom
        lse = np.log(denom).ravel() + z.max(axis=1)
        losses = lse - z[np.arange(idx.size), labels[idx]]
        m = idx.size

        def backward(g, adj):
            grad = np.zeros_like(logits.data)
            delta = probs.copy()
            delta[np.arange(idx.size), labels[idx]] -= 1.0
            grad[idx] = delta * (g[0, 0] / m)
            Tape._acc(adj, logits, grad)
        return self._record(np.array([[losses.mean()]]), "softmax_cross_entropy",
                            (logits,), backward)

    # ---- reverse pass ---------------------------------------------------------

    def backward(self, root: Value) -> None:
        """Accumulate d(root)/d(v) into v.grad for every requires_grad Value.

        Calling backward twice without clearing grads adds the gradients
        again; callers that want fresh gradients build a fresh tape.
        Gradients are never added in place, so one array may be stored as
        the grad of several Values (``add`` hands its upstream gradient to
        both operands); stored grads are read-only for that reason.
        """
        root = self._own(root, "root", "backward")
        if root.shape != (1, 1):
            raise ValueError(f"backward: root must be a scalar, got shape {root.shape}")
        adj: list[np.ndarray | None] = [None] * len(self._values)
        adj[root._idx] = np.ones((1, 1))
        for out_idx, fn in reversed(self._nodes):
            g = adj[out_idx]
            if g is not None:
                fn(g, adj)
        for v in self._values:
            if v.requires_grad and adj[v._idx] is not None:
                v.grad = adj[v._idx] if v.grad is None else v.grad + adj[v._idx]
                v.grad.setflags(write=False)


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    entries_checked: int
    failures: list = field(default_factory=list)   # (param, entry, analytic, numeric, err)
    excluded: list = field(default_factory=list)   # (param, entry, reason)

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
    rather than failed; a NaN anywhere fails with its location.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]

    tape = Tape()
    leaves = [tape.leaf(p, requires_grad=True) for p in params]
    root = f(tape, leaves)
    tape.backward(root)
    base_trace = list(tape.argmax_trace)
    analytic = [lv.grad if lv.grad is not None else np.zeros_like(lv.data) for lv in leaves]

    def eval_at(point: list[np.ndarray]) -> tuple[float, list[int]]:
        t = Tape()
        out = f(t, [t.leaf(p) for p in point])
        return out.item(), list(t.argmax_trace)

    report = GradCheckReport(passed=True, max_rel_error=0.0, entries_checked=0)
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
            if np.isnan(a) or np.isnan(num):
                report.failures.append((pi, ei, a, num, float("nan")))
                report.passed = False
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
                report.passed = False
    return report
