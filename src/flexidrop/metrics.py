"""Evaluation metrics: node and link accuracy, ranking AUC, Dirichlet energy."""
from __future__ import annotations

import numpy as np

from .graphs import Graph, ValidationError


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of masked nodes whose argmax class matches the label.

    Ties go to the lowest class index. An empty mask is an error rather
    than a silent 0/0.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0] or mask.shape[0] != labels.shape[0]:
        raise ValidationError("accuracy: logits, labels, and mask disagree on node count")
    if not mask.any():
        raise ValidationError("accuracy: mask selects no nodes")
    preds = np.argmax(logits[mask], axis=1)
    return float((preds == labels[mask]).mean())


def dirichlet_energy(embeddings: np.ndarray, graph: Graph) -> float:
    """Mean squared feature disagreement across the graph's original edges.

    E = (1/N) * sum_u sum_{v in N(u)} ||x_u - x_v||^2, where the
    neighborhoods come from the raw edge list (no self-loops), so each
    undirected edge contributes from both endpoints.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != graph.num_nodes:
        raise ValidationError("dirichlet_energy: embeddings must be (num_nodes, k)")
    if graph.num_edges == 0:
        return 0.0
    diffs = x[graph.edges[:, 0]] - x[graph.edges[:, 1]]
    return float(2.0 * (diffs ** 2).sum() / graph.num_nodes)


def link_accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of pairs whose prediction (an edge when score >= 0.5) matches the label."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape or scores.size == 0:
        raise ValidationError("link_accuracy: scores and labels must be equal-length and non-empty")
    return float(((scores >= 0.5) == (labels > 0.5)).mean())


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs ranked right, ties half.

    Needs both classes present. The pair count is a half-integer sum,
    exact in float64, so the result equals the average-rank formula's.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel() > 0.5
    npos = int(labels.sum())
    nneg = labels.size - npos
    if npos == 0 or nneg == 0:
        raise ValidationError("auc_score: need at least one positive and one negative")
    neg = np.sort(scores[~labels])
    pos = scores[labels]
    # negatives strictly below each positive count 1, tied ones 1/2
    wins = (np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")).sum() / 2.0
    return float(wins / (npos * nneg))

