"""Spans and counters recorded from outside the package.

The tracer replaces public functions at the binding their caller uses
(``training`` imports ``forward`` by name, so ``training.forward`` is the
binding to replace, not ``model.forward``) with wrappers that record a
span per call: name, start, end and the enclosing span. Counts such as
flops and output bytes are computed from the same calls' arguments and
results. Nothing under ``src/`` changes; ``restore`` puts every original
binding back.
"""
from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field

# Tape ops whose time and calls are reported one by one; every other op is
# recorded under the one name ``autodiff.other_ops``.
REPORTED_OPS = ("matmul", "spmm", "row_broadcast_mul", "elementwise_mul", "relu", "sigmoid",
                "log", "softmax_cross_entropy", "column_l2_norms", "max_reduce")
OTHER_OPS = ("leaf", "add", "sub", "exp", "sum", "mean", "product_reduce", "scalar_mul")

MODULES = ("graphs", "autodiff", "model", "bounds", "training", "metrics", "cli")


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Span i runs from ``starts[i]`` to ``ends[i]``; ``parents[i]`` is the
    index of the span that caused it, or -1 for a root.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in starts]
    for s, e, parent in zip(starts, ends, parents):
        if parent >= 0:
            children[parent].append((s, e))
    return [(e - s) - union_length(kids, s, e)
            for s, e, kids in zip(starts, ends, children)]


@dataclass
class Tracer:
    """In-memory span and counter store for one job at a time."""

    # one entry per span, in the order spans start; plain lists of str,
    # float and int so recording creates no objects the collector tracks
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    gc_collections: int = 0
    gc_pause_s: float = 0.0
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _gc_start: float | None = None

    # ---- recording ------------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a string or a function of the call's arguments;
        ``count(args, kwargs, result)`` returns counter increments.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name if isinstance(name, str) else name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def install(self) -> None:
        """Patch every traced binding of the flexidrop package and hook the collector."""
        from flexidrop import autodiff, bounds, cli, graphs, model, training

        for op in REPORTED_OPS:
            self.patch(autodiff.Tape, op, f"autodiff.{op}", _OP_COUNTS.get(op, _out_bytes))
        for op in OTHER_OPS:
            self.patch(autodiff.Tape, op, "autodiff.other_ops",
                       None if op == "leaf" else _out_bytes)   # leaves wrap existing arrays
        self.patch(autodiff.Tape, "backward", "autodiff.backward",
                   lambda a, k, r: {"autodiff.tape_nodes": len(a[0])})

        for owner in (graphs, cli):
            self.patch(owner, "generate_sbm", "graphs.generate_sbm")
        self.patch(cli, "load_graph", "graphs.load_graph")
        for owner in (training, model):
            self.patch(owner, "build_propagation", "graphs.build_propagation")
        self.patch(model, "sample_absent_pairs", "graphs.sample_absent_pairs",
                   lambda a, k, r: {"graphs.sample_absent_pairs.pairs": len(r)})

        self.patch(training, "forward", _forward_name)
        for fn in ("link_scores", "link_loss", "sample_negative_edges"):
            self.patch(training, fn, f"model.{fn}")
        self.patch(cli, "save_checkpoint", "model.save_checkpoint")

        for owner in (training, bounds):
            self.patch(owner, "complexity_regularizer", "bounds.complexity_regularizer")
            self.patch(owner, "multilayer_bound", "bounds.multilayer_bound")
        self.patch(cli, "bound_report", "bounds.bound_report")

        for owner in (training, cli):
            self.patch(owner, "train", "training.train")
        self.patch(training, "adam_step", "training.adam_step")
        self.patch(training.RunRecord, "write_csv", "training.RunRecord.write_csv")

        for fn in ("accuracy", "link_accuracy", "auc_score"):
            self.patch(training, fn, f"metrics.{fn}")

        self.patch(cli, "run", "cli.run")
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        """Undo ``install``: every patched binding gets its original back."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget recorded spans and counts, keeping the installed wrappers."""
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()
        self.counts.clear()
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # ---- reporting ------------------------------------------------------------

    def job_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        ``wall_s`` is the job's time to result; the part of it that no
        span covers is reported as ``untraced_remainder_s``, so the module
        self times plus that remainder add up to ``wall_s``.
        """
        selfs = self_times(self.starts, self.ends, self.parents)
        total: Counter = Counter()
        calls: Counter = Counter()
        own: Counter = Counter()
        root_s = 0.0
        for name, s, e, parent, own_s in zip(self.names, self.starts, self.ends, self.parents,
                                             selfs):
            total[name] += e - s
            calls[name] += 1
            own[name] += own_s
            if parent < 0:
                root_s += e - s

        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.s"], out[f"{name}.calls"] = total[name], calls[name]
        for name in ("model.forward", "training.train", "cli.run"):
            out[f"{name}.self_s"] = sum(v for k, v in own.items() if k.startswith(name))
        for module in MODULES:
            out[f"{module}.self_s"] = sum(v for k, v in own.items()
                                          if k.startswith(module + "."))
        out.update({k: self.counts[k] for k in COUNTERS})
        out["process.gc_collections"] = self.gc_collections
        out["process.gc_pause_s"] = self.gc_pause_s
        out["untraced_remainder_s"] = wall_s - root_s
        return out


def _out_bytes(args, kwargs, result) -> dict[str, int]:
    return {"autodiff.out_bytes": result.data.nbytes}


def _matmul_counts(args, kwargs, result) -> dict[str, int]:
    _, a, b = args
    return {"autodiff.matmul.flops": 2 * a.shape[0] * a.shape[1] * b.shape[1],
            "autodiff.out_bytes": result.data.nbytes}


def _spmm_counts(args, kwargs, result) -> dict[str, int]:
    _, p, x = args
    return {"autodiff.spmm.flops": 2 * p.nnz * x.shape[1],
            "autodiff.out_bytes": result.data.nbytes}


_OP_COUNTS = {"matmul": _matmul_counts, "spmm": _spmm_counts}


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "eval")
    return f"model.forward.{mode}"


# Span names reported as layers, each with busy time and calls.
LAYERS = ("graphs.generate_sbm", "graphs.load_graph", "graphs.build_propagation",
          "graphs.sample_absent_pairs", "autodiff.backward",
          *(f"autodiff.{op}" for op in REPORTED_OPS), "autodiff.other_ops",
          "model.forward.train", "model.forward.eval", "model.link_scores", "model.link_loss",
          "model.sample_negative_edges", "model.save_checkpoint",
          "bounds.complexity_regularizer", "bounds.multilayer_bound", "bounds.bound_report",
          "training.train", "training.adam_step", "training.RunRecord.write_csv",
          "metrics.accuracy", "metrics.link_accuracy", "metrics.auc_score", "cli.run")

# Counters computed from call arguments and results; they repeat exactly
# for a fixed seed.
COUNTERS = ("autodiff.tape_nodes", "autodiff.matmul.flops", "autodiff.spmm.flops",
            "autodiff.out_bytes", "graphs.sample_absent_pairs.pairs")
