"""Graph containers, file loaders, synthetic generators, and propagation operators."""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
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


@dataclass(frozen=True)
class PropagationOperator:
    """Normalized message-passing matrix P over ``edges`` plus self-loops, with P^T and P X.

    Self-loops are always added before normalization, so every row has
    degree >= 1 and isolated nodes stay well defined:

    mode "symmetric":       D^{-1/2} (A + I) D^{-1/2}
    mode "row_stochastic":  D^{-1} (A + I), rows sum to exactly 1

    ``edges`` must be canonical, as ``Graph.edges`` and any row subset of
    it are: int64 of shape (E, 2), u < v on every row, rows strictly
    increasing, every endpoint in [0, N), where N is the number of rows
    of ``features``; anything else raises ValidationError. DropEdge builds
    one per training forward, so the CSR ``matrix`` is assembled directly:
    both directions of every edge plus the self-loops, sorted once by
    their row-major code, with degrees from a bincount of the rows.
    ``transpose`` is ``matrix.T``: a CSC view that shares P's data,
    indices and indptr, which a backward pass multiplies by (a
    row-stochastic P is not its own transpose).

    ``features`` is the (N, d) input X, and ``propagated`` is P X,
    computed on its first read, then kept and read-only: layer 1's
    unmasked input is X, which takes no gradient, so that propagation is
    the same in every forward with this operator. A train forward that
    masks X or rebuilds the operator (DropEdge) does not read it.
    """

    mode: str                 # one of PROPAGATION_MODES
    edges: np.ndarray         # (E, 2) int64, canonical
    features: np.ndarray      # X, (N, d)
    matrix: sp.csr_matrix = field(init=False)      # (N, N)
    transpose: sp.csc_matrix = field(init=False)   # P^T = matrix.T, sharing its arrays

    def __post_init__(self):
        if self.mode not in PROPAGATION_MODES:
            raise ValidationError(f"unknown propagation mode {self.mode!r}")
        if self.features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {self.features.shape}")
        edges = self.edges
        if edges.dtype != np.int64 or edges.ndim != 2 or edges.shape[1] != 2:
            raise ValidationError(f"edges must be int64 of shape (E, 2), got {edges.dtype} "
                                  f"of shape {edges.shape}")
        n = self.features.shape[0]
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValidationError(f"an edge endpoint lies outside [0, {n})")
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise ValidationError("every edge (u, v) must have u < v")
        uv = edges[:, 0] * n + edges[:, 1]   # row-major codes
        if np.any(uv[1:] <= uv[:-1]):
            raise ValidationError("edges must be distinct and sorted by (u, v)")
        loops = np.arange(n, dtype=np.int64)
        codes = np.sort(np.concatenate([uv, edges[:, 1] * n + edges[:, 0], loops * n + loops]))
        rows, cols = np.divmod(codes, n)
        deg = np.bincount(rows, minlength=n)
        if self.mode == "symmetric":
            dinv = 1.0 / np.sqrt(deg)
            data = dinv[rows] * dinv[cols]
        else:
            data = (1.0 / deg)[rows]
        mat = sp.csr_matrix((data, cols, np.concatenate([[0], np.cumsum(deg)])), shape=(n, n))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "transpose", mat.T)

    @cached_property
    def propagated(self) -> np.ndarray:
        """P X, (N, d), read-only."""
        px = np.asarray(self.matrix @ self.features)
        px.setflags(write=False)
        return px

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
    """The ``PropagationOperator`` of ``graph``'s edges and features in ``mode``."""
    return PropagationOperator(mode, graph.edges, graph.features)


@dataclass(frozen=True)
class SplitSpec:
    """Node split: either three fractions with a shuffle seed, or explicit index files."""

    fractions: tuple[float, float, float] | None = None
    seed: int | None = None
    index_files: tuple[str, str, str] | None = None

    def resolve(self, num_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if (self.fractions is None) == (self.index_files is None):
            raise ValidationError("split spec needs fractions or index files, not both")
        if self.fractions is not None:
            fr = self.fractions
            if len(fr) != 3:
                raise ValidationError(f"split needs 3 fractions, got {len(fr)}")
            if not (all(0.0 <= f <= 1.0 for f in fr) and sum(fr) <= 1.0 + 1e-12):
                raise ValidationError(f"split fractions {list(fr)} must be >= 0 and sum to <= 1")
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

    Memory: one float64 uniform draw per node pair, N(N-1)/2 of them
    (16 MB at N=2000), and nothing else of that size. The draws are made
    in one call because the random stream, and with it every graph a seed
    gives, is that of one ``rng.random(N(N-1)/2)``; pair k is the k-th
    pair (u, v), u < v, in row-major order. Only the pairs whose draw lies
    under ``p_in`` (a superset of the edges, as ``p_out < p_in``) are
    mapped to (u, v), and the cross-block ones among them are kept when
    their draw also lies under ``p_out``: the same comparisons as testing
    every pair against its own probability.
    """
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValidationError("need 0 <= p_out < p_in <= 1")
    if num_nodes < 1 or num_blocks < 1 or num_nodes % num_blocks != 0:
        raise ValidationError("num_blocks must divide num_nodes")
    if feature_dim < num_blocks:
        raise ValidationError("feature_dim must be >= num_blocks to embed the block indicator")
    if not 0.0 <= noise_scale < math.inf:
        raise ValidationError(f"noise_scale must be finite and >= 0, got {noise_scale}")

    rng = np.random.default_rng(seed)
    block_size = num_nodes // num_blocks
    labels = np.arange(num_nodes) // block_size

    edges = _sbm_edges(rng.random(num_nodes * (num_nodes - 1) // 2), labels, p_in, p_out)

    features = np.zeros((num_nodes, feature_dim))
    features[np.arange(num_nodes), labels] = 1.0
    features += noise_scale * rng.standard_normal((num_nodes, feature_dim))

    split = SplitSpec(fractions=tuple(split_fractions), seed=int(rng.integers(2**31)))
    train_m, val_m, test_m = split.resolve(num_nodes)
    return Graph(features, labels, edges, num_blocks, train_m, val_m, test_m)


def _sbm_edges(draws: np.ndarray, labels: np.ndarray, p_in: float, p_out: float) -> np.ndarray:
    """The (u, v) pairs, u < v, whose draw lies under their block pair's probability.

    ``draws[k]`` belongs to the k-th pair in row-major order; row u's
    pairs start at index u (2N - u - 1) / 2. Needs ``p_out < p_in``.
    """
    n = labels.size
    k = np.flatnonzero(draws < p_in)
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(starts, k, side="right") - 1
    v = k - starts[u] + u + 1
    keep = (labels[u] == labels[v]) | (draws[k] < p_out)
    return np.column_stack([u[keep], v[keep]])


def sample_absent_pairs(graph: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` distinct node pairs that are not edges of ``graph``.

    Pairs are canonical (u < v), never self-loops, drawn uniformly without
    replacement. Raises ValidationError when ``count`` is not a
    non-negative integer or fewer than ``count`` absent pairs exist.

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
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ValidationError(f"count must be a non-negative integer, got {count!r}")
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
    return replace(graph, edges=np.concatenate([graph.edges, new], axis=0))


def feature_inf_norm_max(graph: Graph) -> float:
    """max_u ||x_u||_inf over all nodes: the largest absolute feature entry."""
    if graph.features.size == 0:
        return 0.0
    return float(np.abs(graph.features).max())
