"""Graph containers, file loaders, synthetic generators, and propagation operators."""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """An input file could not be parsed; the message names the file and line."""


class ValidationError(ValueError):
    """Structurally valid input that violates a data contract."""


PROPAGATION_MODES = ("symmetric", "row_stochastic")


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sort each pair as (min, max), then sort rows and drop duplicates."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return edges.reshape(0, 2)
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    return np.unique(np.column_stack([lo, hi]), axis=0)


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph with a fixed train/val/test node split.

    Edges are stored canonically: each undirected edge appears once as
    (u, v) with u < v. Self-loops are rejected at construction time.
    """

    features: np.ndarray   # (N, d) float64
    labels: np.ndarray     # (N,) int64, values in [0, num_classes)
    edges: np.ndarray      # (E, 2) int64, canonical
    num_classes: int
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
        bad = np.argwhere(~np.isfinite(feats))
        if bad.size:
            row, col = bad[0]
            raise ValidationError(
                f"feature row {row}, column {col} is {feats[row, col]}; features must be finite")
        n = feats.shape[0]
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if labels.shape[0] != n:
            raise ValidationError(f"{labels.shape[0]} labels for {n} feature rows")
        if self.num_classes < 1:
            raise ValidationError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValidationError("labels must lie in [0, num_classes)")
        edges = _canonical_edges(self.edges)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValidationError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValidationError("self-loops are not allowed in the edge list")
        masks = []
        for name in ("train_mask", "val_mask", "test_mask"):
            m = np.asarray(getattr(self, name), dtype=bool).ravel()
            if m.shape[0] != n:
                raise ValidationError(f"{name} has length {m.shape[0]}, expected {n}")
            masks.append(m)
        # masks must be pairwise disjoint; their union may be a strict subset
        if np.any(masks[0] & masks[1]) or np.any(masks[0] & masks[2]) or np.any(masks[1] & masks[2]):
            raise ValidationError("train/val/test masks overlap")
        for arr in (feats, labels, edges, *masks):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "train_mask", masks[0])
        object.__setattr__(self, "val_mask", masks[1])
        object.__setattr__(self, "test_mask", masks[2])

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> sp.csr_matrix:
        """Binary symmetric adjacency without self-loops."""
        n, edges = self.num_nodes, self.edges
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
        a.sort_indices()
        return a

    def with_edges(self, edges: np.ndarray) -> "Graph":
        """Copy of this graph with a different edge set."""
        return Graph(self.features, self.labels, edges, self.num_classes,
                     self.train_mask, self.val_mask, self.test_mask)


@dataclass(frozen=True)
class PropagationOperator:
    """Normalized message-passing matrix P, self-loops included, its transpose, and P X.

    Both matrices are CSR. The transpose is what a backward pass
    multiplies by, so it is built once with P, never per product. A+I is
    symmetric, so P^T has P's sparsity pattern; a symmetric P is its own
    transpose.

    ``features`` is the (N, d) input X the operator was built for, and
    ``propagated`` is P X, computed here once and read-only: layer 1's
    unmasked input is X, which takes no gradient, so that propagation is
    the same in every forward with this operator. ``model.forward``
    refuses an operator whose ``features`` are not its graph's array.
    """

    mode: str                 # one of PROPAGATION_MODES
    matrix: sp.csr_matrix     # (N, N), stored entries all > 0
    transpose: sp.csr_matrix  # P^T, the same shape and stored-entry count
    features: np.ndarray      # X, (N, d)
    propagated: np.ndarray = field(init=False)   # P X, (N, d), read-only

    def __post_init__(self):
        if self.mode not in PROPAGATION_MODES:
            raise ValidationError(f"unknown propagation mode {self.mode!r}")
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValidationError("propagation matrix must be square")
        if m.nnz and m.data.min() <= 0.0:
            raise ValidationError("propagation matrix has non-positive stored entries")
        if self.mode == "row_stochastic":
            sums = m @ np.ones(m.shape[1])   # a CSR product; m.sum(axis=1) costs ~5x more
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValidationError("row-stochastic operator rows must sum to 1")
        if self.transpose.shape != m.shape or self.transpose.nnz != m.nnz:
            raise ValidationError(f"propagation transpose has shape {self.transpose.shape} and "
                                  f"{self.transpose.nnz} entries, the matrix {m.shape} and {m.nnz}")
        x = self.features
        if x.ndim != 2 or x.shape[0] != m.shape[0]:
            raise ValidationError(f"features of shape {x.shape} for a {m.shape[0]}-node "
                                  "propagation matrix")
        px = np.asarray(m @ x)
        px.setflags(write=False)
        object.__setattr__(self, "propagated", px)

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def max_row_norm(self) -> float:
        """Largest l1 norm over rows; the operator constant the bounds need.

        The complexity bounds control each aggregated feature through the
        triangle inequality over a row of the operator, so the right row
        norm is l1 (exactly 1 for a row-stochastic operator). An l2 row
        norm here would make the one-layer bound falsifiable by exhaustive
        enumeration on small graphs.
        """
        return float(np.abs(self.matrix).sum(axis=1).max())


def build_propagation(graph: Graph, mode: str = "row_stochastic") -> PropagationOperator:
    """Build the normalized propagation operator for ``graph``, with P X of its features.

    Self-loops are always added before normalization, so every row has
    degree >= 1 and isolated nodes stay well defined.

    mode "symmetric":       D^{-1/2} (A + I) D^{-1/2}
    mode "row_stochastic":  D^{-1} (A + I), rows sum to exactly 1
    """
    return propagation_from_edges(graph.num_nodes, graph.edges, mode, graph.features)


def propagation_from_edges(num_nodes: int, edges: np.ndarray, mode: str,
                           features: np.ndarray) -> PropagationOperator:
    """``build_propagation`` for ``num_nodes`` nodes, an edge array and ``features``.

    ``edges`` must already be canonical, as ``Graph.edges`` and any row
    subset of it are; it is not validated again. DropEdge calls this once
    per training forward, so the CSR arrays are assembled directly: both
    directions of every edge plus the self-loops, sorted once by their
    row-major code, with degrees from a bincount of the rows. The
    transpose shares P's pattern and index arrays; row-stochastic, its
    entries are ``(1/deg)[col]``. The operator holds the propagation
    P X of ``features`` (see ``PropagationOperator``).
    """
    if mode not in PROPAGATION_MODES:
        raise ValidationError(f"unknown propagation mode {mode!r}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(num_nodes, dtype=np.int64)
    codes = np.sort(np.concatenate([edges[:, 0] * num_nodes + edges[:, 1],
                                    edges[:, 1] * num_nodes + edges[:, 0],
                                    loops * num_nodes + loops]))
    rows, cols = np.divmod(codes, num_nodes)
    deg = np.bincount(rows, minlength=num_nodes)
    indptr = np.concatenate([[0], np.cumsum(deg)])
    shape = (num_nodes, num_nodes)
    if mode == "symmetric":
        dinv = 1.0 / np.sqrt(deg)
        mat = sp.csr_matrix((dinv[rows] * dinv[cols], cols, indptr), shape=shape)
        return PropagationOperator(mode=mode, matrix=mat, transpose=mat, features=features)
    inv = 1.0 / deg
    mat = sp.csr_matrix((inv[rows], cols, indptr), shape=shape)
    transpose = sp.csr_matrix((inv[cols], mat.indices, mat.indptr), shape=shape)
    return PropagationOperator(mode=mode, matrix=mat, transpose=transpose, features=features)


@dataclass(frozen=True)
class SplitSpec:
    """Node split: either three fractions with a shuffle seed, or explicit index files."""

    fractions: tuple[float, float, float] | None = None
    seed: int | None = None
    index_files: tuple[str, str, str] | None = None

    @classmethod
    def from_fractions(cls, train: float, val: float, test: float, seed: int) -> "SplitSpec":
        return cls(fractions=(train, val, test), seed=seed)

    @classmethod
    def from_index_files(cls, train: str, val: str, test: str) -> "SplitSpec":
        return cls(index_files=(train, val, test))

    def resolve(self, num_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if (self.fractions is None) == (self.index_files is None):
            raise ValidationError("split spec needs fractions or index files, not both")
        if self.fractions is not None:
            fr = self.fractions
            if any(f < 0 for f in fr) or sum(fr) > 1.0 + 1e-12:
                raise ValidationError("split fractions must be non-negative and sum to <= 1")
            if self.seed is None:
                raise ValidationError("fraction split requires a shuffle seed")
            order = np.random.default_rng(self.seed).permutation(num_nodes)
            parts = np.split(order, np.cumsum([int(f * num_nodes) for f in fr]))
            return tuple(np.isin(np.arange(num_nodes), part) for part in parts[:3])
        masks = [_read_index_file(path, num_nodes) for path in self.index_files]
        for (a, ma), (b, mb) in itertools.combinations(zip(self.index_files, masks), 2):
            both = np.flatnonzero(ma & mb)
            if both.size:
                raise ValidationError(f"node {both[0]} is listed in both {a} and {b}")
        return tuple(masks)


def _data_lines(path: str):
    """Yield (1-based line number, stripped line) for each non-blank, non-``#`` line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _read_index_file(path: str, num_nodes: int) -> np.ndarray:
    """The node mask of the indices ``path`` lists, one per line."""
    mask = np.zeros(num_nodes, dtype=bool)
    for lineno, line in _data_lines(path):
        try:
            idx = int(line)
        except ValueError:
            raise ParseError(f"{path}, line {lineno}: expected a node index, got {line!r}") from None
        if not 0 <= idx < num_nodes:
            raise ValidationError(f"{path}, line {lineno}: node index {idx} out of range [0, {num_nodes})")
        mask[idx] = True
    return mask


def _read_numeric_csv(path: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in _data_lines(path):
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError:
            raise ParseError(f"{path}, line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, row)):   # float() parses nan and inf
            text = next(p for p, x in zip(line.split(","), row) if not math.isfinite(x))
            raise ParseError(f"{path}, line {lineno}: non-finite field {text.strip()!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}, line {lineno}: expected {width} fields, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def load_graph(edge_file: str, feature_file: str, label_file: str,
               split: SplitSpec) -> Graph:
    """Load a graph from an edge list plus headerless feature/label CSVs.

    The edge file holds one ``u v`` pair per line (whitespace separated);
    lines starting with ``#`` are ignored. Row i of the feature and label
    files describes node i. Duplicate and reversed edges collapse to one
    undirected edge; self-loop lines are dropped with a warning.
    """
    features = _read_numeric_csv(feature_file)
    n = features.shape[0]

    raw_labels = _read_numeric_csv(label_file)
    if raw_labels.shape[1] != 1:
        raise ParseError(f"{label_file}: expected one label per row, got {raw_labels.shape[1]} fields")
    labels_f = raw_labels.ravel()
    if labels_f.shape[0] != n:
        raise ValidationError(
            f"{label_file}: {labels_f.shape[0]} labels for {n} feature rows")
    if np.any(labels_f != np.round(labels_f)) or np.any(labels_f < 0):
        raise ValidationError(f"{label_file}: labels must be non-negative integers")
    labels = labels_f.astype(np.int64)

    pairs = []
    for lineno, line in _data_lines(edge_file):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{edge_file}, line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{edge_file}, line {lineno}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(
                f"{edge_file}, line {lineno}: edge ({u}, {v}) references a node id >= {n}")
        if u == v:
            warnings.warn(f"{edge_file}, line {lineno}: dropping self-loop on node {u}")
            continue
        pairs.append((u, v))

    num_classes = int(labels.max()) + 1 if labels.size else 1
    train_m, val_m, test_m = split.resolve(n)
    return Graph(features, labels, pairs, num_classes, train_m, val_m, test_m)


def generate_sbm(num_nodes: int, num_blocks: int, p_in: float, p_out: float,
                 feature_dim: int, noise_scale: float, seed: int,
                 split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)) -> Graph:
    """Sample a stochastic block model graph with noisy one-hot block features.

    Nodes are assigned to equal-size contiguous blocks; each within-block
    pair is connected independently with probability ``p_in`` and each
    cross-block pair with ``p_out``. Features are the one-hot block
    indicator embedded in ``feature_dim`` dimensions plus Gaussian noise of
    scale ``noise_scale``; labels are the block assignments. The same seed
    reproduces the graph, the features, and the node split exactly.
    """
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValidationError("need 0 <= p_out < p_in <= 1")
    if num_nodes < 1 or num_blocks < 1 or num_nodes % num_blocks != 0:
        raise ValidationError("num_blocks must divide num_nodes")
    if feature_dim < num_blocks:
        raise ValidationError("feature_dim must be >= num_blocks to embed the block indicator")
    if noise_scale < 0:
        raise ValidationError("noise_scale must be >= 0")

    rng = np.random.default_rng(seed)
    block_size = num_nodes // num_blocks
    labels = np.arange(num_nodes) // block_size

    iu, iv = np.triu_indices(num_nodes, k=1)
    probs = np.where(labels[iu] == labels[iv], p_in, p_out)
    keep = rng.random(iu.size) < probs
    edges = np.column_stack([iu[keep], iv[keep]])

    features = np.zeros((num_nodes, feature_dim))
    features[np.arange(num_nodes), labels] = 1.0
    features += noise_scale * rng.standard_normal((num_nodes, feature_dim))

    split = SplitSpec.from_fractions(*split_fractions, seed=int(rng.integers(2**31)))
    train_m, val_m, test_m = split.resolve(num_nodes)
    return Graph(features, labels, edges, num_blocks, train_m, val_m, test_m)


def sample_absent_pairs(graph: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` distinct node pairs that are not edges of ``graph``.

    Pairs are canonical (u < v), never self-loops, drawn uniformly without
    replacement. Raises ValidationError when fewer than ``count`` absent
    pairs exist.

    A sparse request (at most half the absent pairs) returns exactly the
    pairs of drawing ``u = rng.integers(n)``, ``v = rng.integers(n)`` one
    pair at a time and skipping self-loops, edges and repeats; the draws
    are made in batches, so the state ``rng`` is left in is unspecified.
    Pass a generator that is not used afterwards. A batch is deduplicated
    with one sort of its pair codes: the smallest draw index in a run of
    equal codes is the code's first draw; the distinct codes, sorted, are
    tested against those seen so far, and the accepted first draws are put
    back in draw order. No code is multiplied by a draw index to do this.
    """
    n = graph.num_nodes
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    total_pairs = n * (n - 1) // 2
    pool = total_pairs - graph.num_edges
    if count > pool:
        raise ValidationError(
            f"cannot sample {count} absent pairs: only {pool} available")
    existing = graph.edges[:, 0] * n + graph.edges[:, 1]   # sorted: edges are canonical
    if count > pool // 2:
        # dense request: enumerate the complement and sample without replacement
        iu, iv = np.triu_indices(n, k=1)
        codes = iu.astype(np.int64) * n + iv
        chosen = rng.choice(codes[~np.isin(codes, existing)], size=count, replace=False)
        return np.column_stack([chosen // n, chosen % n]).astype(np.int64)
    seen = existing   # sorted codes a new pair must avoid
    picked = np.zeros(0, dtype=np.int64)   # accepted codes in draw order
    while True:
        # an ordered draw hits a free absent pair with probability 2 * free / n^2
        free = pool - picked.size
        batch = int((count - picked.size) * n * n / (2 * free) * 1.1) + 16
        u, v = rng.integers(n, size=(batch, 2)).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes = (lo * n + hi)[lo != hi]
        order = np.argsort(codes)
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))   # codes are >= 0
        fresh = ~np.isin(codes[order[starts]], seen, assume_unique=True)
        codes = codes[np.sort(np.minimum.reduceat(order, starts)[fresh])]
        picked = np.concatenate([picked, codes])
        if picked.size >= count:
            picked = picked[:count]
            return np.column_stack([picked // n, picked % n])
        seen = np.sort(np.concatenate([seen, codes]))   # disjoint, so still distinct


def inject_random_edges(graph: Graph, fraction: float, seed: int) -> Graph:
    """Add ``floor(fraction * |E|)`` new edges sampled uniformly among absent pairs.

    New edges are distinct from each other and from existing edges, never
    self-loops. Raises ValidationError if the graph has too few absent
    pairs to satisfy the request.
    """
    if not 0.0 <= fraction <= 2.0:
        raise ValidationError("fraction must lie in [0, 2]")
    count = int(fraction * graph.num_edges)
    if count == 0:
        return graph
    new = sample_absent_pairs(graph, count, np.random.default_rng(seed))
    return graph.with_edges(np.concatenate([graph.edges, new], axis=0))


def feature_inf_norm_max(graph: Graph) -> float:
    """max_u ||x_u||_inf over all nodes: the largest absolute feature entry."""
    if graph.features.size == 0:
        return 0.0
    return float(np.abs(graph.features).max())
