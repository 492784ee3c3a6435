"""Graph containers, loaders, generators, and propagation operators."""
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from flexidrop.graphs import (Graph, ParseError, PropagationOperator, SplitSpec,
                              ValidationError, build_propagation, feature_inf_norm_max,
                              generate_sbm, inject_random_edges, load_graph,
                              sample_absent_pairs)


def tiny_graph(edges, n=4, d=2, classes=2):
    rng = np.random.default_rng(0)
    masks = np.zeros((3, n), dtype=bool)
    masks[0, : n // 2] = True
    masks[1, n // 2] = True
    masks[2, n // 2 + 1:] = True
    return Graph(rng.normal(size=(n, d)), rng.integers(0, classes, n), np.asarray(edges),
                 classes, *masks)


# ---- Graph container --------------------------------------------------------------


def test_graph_canonicalizes_edges():
    g = tiny_graph([(2, 1), (1, 2), (0, 3)])
    assert g.edges.tolist() == [[0, 3], [1, 2]]
    assert g.num_edges == 2


def test_graph_rejects_self_loop():
    with pytest.raises(ValidationError, match="self-loop"):
        tiny_graph([(1, 1)])


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValidationError, match="out of range"):
        tiny_graph([(0, 9)])


def test_graph_rejects_overlapping_masks():
    mask = np.ones(3, dtype=bool)
    with pytest.raises(ValidationError, match="overlap"):
        Graph(np.zeros((3, 1)), np.zeros(3, dtype=int), np.zeros((0, 2), dtype=int),
              1, mask, mask, np.zeros(3, dtype=bool))


def test_graph_rejects_label_out_of_class_range():
    with pytest.raises(ValidationError, match="labels"):
        Graph(np.zeros((2, 1)), np.array([0, 5]), np.zeros((0, 2), dtype=int), 2,
              *(np.zeros(2, dtype=bool) for _ in range(3)))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_graph_rejects_non_finite_features_naming_the_first(bad):
    feats = np.zeros((4, 3))
    feats[1, 2] = bad
    feats[3, 0] = np.inf
    with pytest.raises(ValidationError, match=r"row 1, column 2 is -?(nan|inf)"):
        Graph(feats, np.zeros(4, dtype=int), np.zeros((0, 2), dtype=int), 1,
              *(np.zeros(4, dtype=bool) for _ in range(3)))


def test_graph_arrays_are_read_only():
    g = tiny_graph([(0, 1)])
    with pytest.raises(ValueError):
        g.features[0, 0] = 9.0


# ---- propagation operators --------------------------------------------------------


def test_triangle_symmetric_all_entries_one_third():
    # A + I on a triangle is the all-ones 3x3 matrix, every degree is 3,
    # so D^{-1/2} (A+I) D^{-1/2} has every entry 1/3
    g = tiny_graph([(0, 1), (1, 2), (0, 2)], n=3)
    prop = build_propagation(g, "symmetric")
    dense = prop.matrix.toarray()
    assert np.allclose(dense, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_single_isolated_node_both_modes():
    g = Graph(np.ones((1, 1)), np.zeros(1, dtype=int), np.zeros((0, 2), dtype=int), 1,
              np.ones(1, dtype=bool), np.zeros(1, dtype=bool), np.zeros(1, dtype=bool))
    for mode in ("symmetric", "row_stochastic"):
        prop = build_propagation(g, mode)
        assert prop.matrix.toarray().tolist() == [[1.0]]


def test_row_stochastic_rows_sum_to_one():
    for seed in range(5):
        g = generate_sbm(60, 3, 0.3, 0.05, 4, 0.1, seed=seed)
        prop = build_propagation(g, "row_stochastic")
        sums = np.asarray(prop.matrix.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-9


def test_propagation_matches_dense_oracle():
    g = generate_sbm(30, 2, 0.4, 0.1, 3, 0.1, seed=7)
    a = np.eye(30)
    a[g.edges[:, 0], g.edges[:, 1]] = a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    deg = a.sum(axis=1)
    sym = build_propagation(g, "symmetric").matrix.toarray()
    row = build_propagation(g, "row_stochastic").matrix.toarray()
    dinv = 1.0 / np.sqrt(deg)
    assert np.allclose(sym, dinv[:, None] * a * dinv[None, :], atol=1e-14)
    assert np.allclose(row, a / deg[:, None], atol=1e-14)


def test_propagation_rebuild_is_bit_identical():
    g = generate_sbm(40, 2, 0.3, 0.05, 3, 0.1, seed=3)
    a = build_propagation(g, "symmetric").matrix
    b = build_propagation(g, "symmetric").matrix
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def coo_propagation(n, edges, mode):
    """The operator built through COO, an identity add and broadcast multiplies."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    a.sort_indices()
    a = a + sp.identity(n, format="csr")
    a.sum_duplicates()
    a.sort_indices()
    deg = np.asarray(a.sum(axis=1)).ravel()
    if mode == "symmetric":
        dinv = 1.0 / np.sqrt(deg)
        mat = a.multiply(dinv[:, None]).multiply(dinv[None, :]).tocsr()
    else:
        mat = a.multiply(1.0 / deg[:, None]).tocsr()
    mat.sort_indices()
    return mat


def operator_cases():
    """(num_nodes, edges) pairs: empty edge sets, random graphs, DropEdge subsets."""
    rng = np.random.default_rng(31)
    cases = [(5, np.zeros((0, 2), dtype=np.int64)), (1, np.zeros((0, 2), dtype=np.int64))]
    for _ in range(12):
        n = int(rng.integers(2, 120))
        pairs = rng.integers(0, n, (int(rng.integers(1, 2 * n)), 2))
        # canonical, as Graph stores them; most draws leave some nodes isolated
        cases.append((n, tiny_graph(pairs[pairs[:, 0] != pairs[:, 1]], n=n).edges))
    g = generate_sbm(300, 3, 0.05, 0.005, 3, 0.1, seed=8)
    for rate in (0.0, 0.5, 0.9, 1.0):   # DropEdge keeps a row subset of graph.edges
        cases.append((g.num_nodes, g.edges[rng.random(g.num_edges) >= rate]))
    return cases


def test_propagation_from_edges_gives_the_coo_construction_bit_for_bit():
    for n, edges in operator_cases():
        for mode in ("symmetric", "row_stochastic"):
            got = PropagationOperator(mode, edges, np.zeros((n, 1))).matrix
            want = coo_propagation(n, edges, mode)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, mode, name)


def test_propagation_transpose_is_the_matrix_transpose_bit_for_bit():
    # P^T is a view of P's arrays; its products equal those of the built CSR transpose
    rng = np.random.default_rng(32)
    for n, edges in operator_cases():
        for mode in ("symmetric", "row_stochastic"):
            prop = PropagationOperator(mode, edges, np.zeros((n, 1)))
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(prop.transpose, name),
                                        getattr(prop.matrix, name)), (n, mode, name)
            csr = prop.matrix.T.tocsr()
            for width, order in itertools.product((1, 4, 32), "CF"):
                g = np.asarray(rng.normal(size=(n, width)), order=order)
                got, want = np.asarray(prop.transpose @ g), np.asarray(csr @ g)
                assert got.tobytes() == want.tobytes(), (n, mode, width, order)


@pytest.mark.parametrize("edges, message", (
    pytest.param(np.array([[0, 1, 2]]), r"int64 of shape \(E, 2\)", id="bad shape"),
    pytest.param(np.array([[0, 1]], dtype=np.int32), r"int64 of shape \(E, 2\)", id="int32"),
    pytest.param(np.array([[-1, 2]]), r"outside \[0, 4\)", id="negative"),
    pytest.param(np.array([[0, 1], [2, 4]]), r"outside \[0, 4\)", id="endpoint N"),
    pytest.param(np.array([[0, 1], [2, 1]]), "u < v", id="u > v"),
    pytest.param(np.array([[0, 1], [2, 2]]), "u < v", id="self-loop"),
    pytest.param(np.array([[1, 2], [0, 3]]), "distinct and sorted", id="unsorted"),
    pytest.param(np.array([[0, 1], [1, 3], [1, 3]]), "distinct and sorted", id="repeated"),
))
def test_propagation_operator_rejects_malformed_edges(edges, message):
    for mode in ("symmetric", "row_stochastic"):
        with pytest.raises(ValidationError, match=message):
            PropagationOperator(mode, edges, np.zeros((4, 1)))


def test_propagation_operator_derives_its_transpose():
    # P and P^T are built from the edges; neither is taken from the caller
    edges = np.array([[0, 1]])
    good = sp.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    for name in ("matrix", "transpose"):
        with pytest.raises(TypeError, match=name):
            PropagationOperator("row_stochastic", edges, np.zeros((2, 1)), **{name: good})


def test_propagation_forms_p_x_on_first_read_and_keeps_it(monkeypatch):
    g = generate_sbm(40, 2, 0.3, 0.05, 3, 0.1, seed=3)
    products = []
    real = sp.csr_matrix.__matmul__

    def spy(self, other):
        if other is g.features:
            products.append(self.shape)
        return real(self, other)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", spy)
    for mode in ("symmetric", "row_stochastic"):
        prop = build_propagation(g, mode)
        assert products == []
        px = prop.propagated
        assert products == [(40, 40)]
        assert px.tobytes() == np.asarray(real(prop.matrix, g.features)).tobytes()
        assert not px.flags.writeable
        assert prop.propagated is px
        assert products == [(40, 40)]
        products.clear()


def test_propagation_entries_positive():
    g = generate_sbm(20, 2, 0.5, 0.1, 2, 0.0, seed=0)
    for mode in ("symmetric", "row_stochastic"):
        assert build_propagation(g, mode).matrix.data.min() > 0.0


def test_max_row_norm_is_l1_and_one_for_row_stochastic():
    g = generate_sbm(24, 2, 0.4, 0.1, 2, 0.0, seed=1)
    row = build_propagation(g, "row_stochastic")
    assert row.max_row_norm() == pytest.approx(1.0, abs=1e-12)
    sym = build_propagation(g, "symmetric")
    dense = np.abs(sym.matrix.toarray())
    assert sym.max_row_norm() == pytest.approx(dense.sum(axis=1).max(), abs=1e-14)


# ---- loader -----------------------------------------------------------------------


def write_dataset(tmp_path, edge_text, features, labels):
    e = tmp_path / "edges.txt"
    e.write_text(edge_text)
    f = tmp_path / "features.csv"
    f.write_text("\n".join(",".join(repr(x) for x in row) for row in features) + "\n")
    l = tmp_path / "labels.csv"
    l.write_text("\n".join(str(x) for x in labels) + "\n")
    return str(e), str(f), str(l)


def test_load_graph_roundtrip(tmp_path):
    feats = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    paths = write_dataset(tmp_path, "# comment line\n0 1\n1 2\n", feats, [0, 1, 0])
    g = load_graph(*paths, SplitSpec(fractions=(0.34, 0.33, 0.33), seed=0))
    assert g.num_nodes == 3
    assert g.feature_dim == 2
    assert g.num_classes == 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert np.allclose(g.features, feats)


def test_load_graph_collapses_duplicate_and_reversed_edges(tmp_path):
    paths = write_dataset(tmp_path, "0 1\n1 0\n0 1\n", [[0.0], [0.0]], [0, 0])
    g = load_graph(*paths, SplitSpec(fractions=(0.5, 0.0, 0.5), seed=0))
    assert g.edges.tolist() == [[0, 1]]


def test_load_graph_drops_self_loop_with_warning(tmp_path):
    paths = write_dataset(tmp_path, "0 0\n0 1\n", [[0.0], [0.0]], [0, 0])
    with pytest.warns(UserWarning, match="line 1.*self-loop"):
        g = load_graph(*paths, SplitSpec(fractions=(0.5, 0.0, 0.5), seed=0))
    assert g.edges.tolist() == [[0, 1]]


def test_load_graph_parse_error_names_line(tmp_path):
    paths = write_dataset(tmp_path, "0 1\nnot an edge\n", [[0.0], [0.0]], [0, 0])
    with pytest.raises(ParseError, match="line 2"):
        load_graph(*paths, SplitSpec(fractions=(0.5, 0.0, 0.5), seed=0))


def test_load_graph_rejects_edge_beyond_node_count(tmp_path):
    paths = write_dataset(tmp_path, "0 7\n", [[0.0], [0.0]], [0, 0])
    with pytest.raises(ValidationError, match="line 1.*node id >= 2"):
        load_graph(*paths, SplitSpec(fractions=(0.5, 0.0, 0.5), seed=0))


def test_load_graph_label_count_mismatch(tmp_path):
    paths = write_dataset(tmp_path, "0 1\n", [[0.0], [0.0]], [0, 0, 1])
    with pytest.raises(ValidationError, match="3 labels for 2 feature rows"):
        load_graph(*paths, SplitSpec(fractions=(0.5, 0.0, 0.5), seed=0))


def test_load_graph_non_numeric_feature(tmp_path):
    paths = write_dataset(tmp_path, "0 1\n", [[0.0], [0.0]], [0, 0])
    (tmp_path / "features.csv").write_text("0.0,1.0\nx,2.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_graph(*paths, SplitSpec(fractions=(0.5, 0.0, 0.5), seed=0))


@pytest.mark.parametrize("name, text, field", (
    ("features.csv", "0.0,1.0\n# a comment\nnan,2.0\n", "nan"),
    ("features.csv", "0.0,1.0\n# a comment\n3.0, -inf\n", "-inf"),
    ("labels.csv", "0\n# a comment\ninf\n", "inf"),
))
def test_load_graph_names_the_file_line_of_a_non_finite_field(tmp_path, name, text, field):
    # float() parses nan and inf; the comment makes the file line 3 for data row 2
    paths = write_dataset(tmp_path, "0 1\n", [[0.0, 0.0], [0.0, 0.0]], [0, 0])
    (tmp_path / name).write_text(text)
    with pytest.raises(ParseError, match=re.escape(f"{tmp_path / name}, line 3: "
                                                   f"non-finite field {field!r}")):
        load_graph(*paths, SplitSpec(fractions=(0.5, 0.0, 0.5), seed=0))


def test_split_from_index_files(tmp_path):
    paths = write_dataset(tmp_path, "0 1\n1 2\n2 3\n", [[0.0]] * 4, [0, 0, 1, 1])
    for name, idx in (("tr", [0, 1]), ("va", [2]), ("te", [3])):
        (tmp_path / name).write_text("\n".join(str(i) for i in idx) + "\n")
    split = SplitSpec(index_files=(str(tmp_path / "tr"), str(tmp_path / "va"),
                                   str(tmp_path / "te")))
    g = load_graph(*paths, split)
    assert g.train_mask.tolist() == [True, True, False, False]
    assert g.val_mask.tolist() == [False, False, True, False]
    assert g.test_mask.tolist() == [False, False, False, True]


def test_split_names_both_index_files_that_list_a_node(tmp_path):
    paths = write_dataset(tmp_path, "0 1\n1 2\n2 3\n", [[0.0]] * 4, [0, 0, 1, 1])
    for name, idx in (("tr", [0, 1]), ("va", [2]), ("te", [3, 1])):
        (tmp_path / name).write_text("\n".join(str(i) for i in idx) + "\n")
    split = SplitSpec(index_files=tuple(str(tmp_path / name) for name in ("tr", "va", "te")))
    with pytest.raises(ValidationError, match=re.escape(
            f"node 1 is listed in both {tmp_path / 'tr'} and {tmp_path / 'te'}")):
        load_graph(*paths, split)


def test_split_fractions_validation():
    with pytest.raises(ValidationError, match="sum"):
        SplitSpec(fractions=(0.8, 0.3, 0.3), seed=0).resolve(10)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_split_fractions_refuse_a_non_finite_fraction_naming_it(bad):
    # NaN passed both comparisons, and int(NaN * N) raised a bare "cannot convert"
    with pytest.raises(ValidationError, match=rf"split fractions \[{bad}, 0.2, 0.2\] must be"):
        SplitSpec(fractions=(bad, 0.2, 0.2), seed=0).resolve(10)


def test_split_needs_three_fractions():
    with pytest.raises(ValidationError, match="3 fractions, got 2"):
        SplitSpec(fractions=(0.5, 0.5), seed=0).resolve(10)
    with pytest.raises(ValidationError, match="3 fractions, got 4"):
        generate_sbm(8, 2, 0.5, 0.1, 2, 0.1, seed=0, split_fractions=(0.4, 0.2, 0.2, 0.2))


def test_split_fraction_masks_disjoint_and_sized():
    tr, va, te = SplitSpec(fractions=(0.6, 0.2, 0.2), seed=5).resolve(100)
    assert tr.sum() == 60 and va.sum() == 20 and te.sum() == 20
    assert not (tr & va).any() and not (tr & te).any() and not (va & te).any()


# ---- SBM generator ----------------------------------------------------------------


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_sbm_refuses_a_non_finite_noise_scale_naming_it(bad):
    # it once passed the check and failed later, naming a feature entry, not the key
    with pytest.raises(ValidationError, match=f"noise_scale must be finite and >= 0, got {bad}"):
        generate_sbm(8, 2, 0.5, 0.1, 2, bad, seed=0)


def test_sbm_reproducible_and_valid():
    a = generate_sbm(200, 2, 0.1, 0.01, 16, 0.1, seed=42)
    b = generate_sbm(200, 2, 0.1, 0.01, 16, 0.1, seed=42)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.train_mask, b.train_mask)
    assert a.num_classes == 2
    assert np.array_equal(a.labels, np.arange(200) // 100)


def test_sbm_zero_cross_probability_gives_no_cross_edges():
    g = generate_sbm(60, 3, 0.5, 0.0, 3, 0.0, seed=1)
    assert g.num_edges > 0
    assert (g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]).all()


def test_sbm_edge_count_matches_binomial_moments():
    # oracle: within-block pairs 2 * C(100, 2), cross pairs 100 * 100;
    # the mean over 100 seeds must sit within 3 standard errors
    n_in_pairs = 2 * (100 * 99 // 2)
    n_out_pairs = 100 * 100
    expected = n_in_pairs * 0.1 + n_out_pairs * 0.01
    var = n_in_pairs * 0.1 * 0.9 + n_out_pairs * 0.01 * 0.99
    counts = [generate_sbm(200, 2, 0.1, 0.01, 4, 0.0, seed=s).num_edges for s in range(100)]
    stderr = np.sqrt(var / 100)
    assert abs(np.mean(counts) - expected) <= 3 * stderr


def test_sbm_features_embed_block_indicator():
    g = generate_sbm(40, 2, 0.3, 0.1, 5, 0.0, seed=3)
    onehot = np.zeros((40, 5))
    onehot[np.arange(40), g.labels] = 1.0
    assert np.array_equal(g.features, onehot)


def reference_generate_sbm(num_nodes, num_blocks, p_in, p_out, feature_dim, noise_scale,
                           seed, split_fractions=(0.6, 0.2, 0.2)):
    """The generator that tests every pair against its own probability, via triu_indices."""
    rng = np.random.default_rng(seed)
    labels = np.arange(num_nodes) // (num_nodes // num_blocks)
    iu, iv = np.triu_indices(num_nodes, k=1)
    probs = np.where(labels[iu] == labels[iv], p_in, p_out)
    keep = rng.random(iu.size) < probs
    edges = np.column_stack([iu[keep], iv[keep]])
    features = np.zeros((num_nodes, feature_dim))
    features[np.arange(num_nodes), labels] = 1.0
    features += noise_scale * rng.standard_normal((num_nodes, feature_dim))
    split = SplitSpec(fractions=tuple(split_fractions), seed=int(rng.integers(2**31)))
    return Graph(features, labels, edges, num_blocks, *split.resolve(num_nodes))


@pytest.mark.parametrize("spec", (
    (1, 1, 0.5, 0.1, 1, 0.1, 0),
    (2, 1, 0.9, 0.1, 1, 0.1, 0),
    (2, 2, 0.9, 0.5, 2, 0.1, 4),
    (50, 1, 0.3, 0.1, 3, 0.1, 1),            # one block
    (50, 50, 0.3, 0.1, 50, 0.1, 1),          # a block per node: every pair is cross-block
    (60, 3, 1.0, 0.4, 4, 0.2, 5),            # p_in = 1: every draw lies under it
    (60, 3, 0.6, 0.0, 4, 0.2, 5),            # p_out = 0
    *((2000, 4, 0.01, 0.001, 128, 0.1, seed) for seed in range(3)),   # the benchmark's graphs
    (2709, 7, 0.005, 0.0005, 16, 0.1, 11),   # Cora's node count
))
def test_sbm_is_the_per_pair_reference_bit_for_bit(spec):
    got, want = generate_sbm(*spec), reference_generate_sbm(*spec)
    for name in ("edges", "features", "labels", "train_mask", "val_mask", "test_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.num_classes == want.num_classes


def test_sbm_holds_one_array_of_pair_draws_and_nothing_else_that_size():
    # 2000 nodes have 1999000 pairs: 15.25 MiB of float64 draws. The per-pair
    # index, label and probability arrays of the reference took the peak to 62.9 MiB.
    tracemalloc.start()
    try:
        generate_sbm(2000, 4, 0.01, 0.001, 128, 0.1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sbm_validates_probabilities_and_divisibility():
    with pytest.raises(ValidationError):
        generate_sbm(10, 2, 0.1, 0.2, 4, 0.0, seed=0)   # p_out > p_in
    with pytest.raises(ValidationError):
        generate_sbm(10, 3, 0.5, 0.1, 4, 0.0, seed=0)   # blocks don't divide nodes
    with pytest.raises(ValidationError):
        generate_sbm(10, 2, 0.5, 0.1, 1, 0.0, seed=0)   # feature_dim < blocks


# ---- edge injection ---------------------------------------------------------------


def path_graph(n):
    edges = [(i, i + 1) for i in range(n - 1)]
    return tiny_graph(edges, n=n)


def test_inject_zero_fraction_returns_same_edges():
    g = path_graph(10)
    assert inject_random_edges(g, 0.0, seed=0) is g


def test_inject_adds_floor_fraction_count():
    g = path_graph(101)   # exactly 100 edges
    out = inject_random_edges(g, 0.5, seed=0)
    assert out.num_edges == 150
    out = inject_random_edges(g, 0.333, seed=0)
    assert out.num_edges == 133


def test_inject_new_edges_are_absent_and_distinct():
    g = path_graph(30)
    out = inject_random_edges(g, 1.0, seed=4)
    before = set(map(tuple, g.edges.tolist()))
    after = set(map(tuple, out.edges.tolist()))
    assert len(after) == out.num_edges       # canonical storage already dedups
    assert before < after
    assert len(after - before) == g.num_edges


def test_inject_deterministic():
    g = path_graph(30)
    a = inject_random_edges(g, 0.8, seed=9)
    b = inject_random_edges(g, 0.8, seed=9)
    assert np.array_equal(a.edges, b.edges)


def test_inject_pool_exhaustion_raises():
    complete = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    g = tiny_graph(complete, n=5)
    with pytest.raises(ValidationError, match="absent pairs"):
        inject_random_edges(g, 0.5, seed=0)


def test_inject_dense_request_uses_full_complement():
    g = path_graph(8)   # 7 edges, 21 pairs, 14 absent
    out = inject_random_edges(g, 2.0, seed=2)
    assert out.num_edges == 21


def test_sample_absent_pairs_never_collides():
    g = path_graph(12)
    pairs = sample_absent_pairs(g, 10, np.random.default_rng(0))
    existing = set(map(tuple, g.edges.tolist()))
    assert len(set(map(tuple, pairs.tolist()))) == 10
    assert not existing & set(map(tuple, pairs.tolist()))
    assert (pairs[:, 0] < pairs[:, 1]).all()


@pytest.mark.parametrize("count", (-1, 2.5, True, "3"))
def test_sample_absent_pairs_refuses_a_count_that_is_not_a_non_negative_integer(count):
    # -1 once returned 10 pairs (a slice [:-1]), and 2.5 raised a bare TypeError
    with pytest.raises(ValidationError, match="count must be a non-negative integer"):
        sample_absent_pairs(path_graph(20), count, np.random.default_rng(0))


def test_sample_absent_pairs_takes_a_numpy_integer_count():
    g = path_graph(20)
    assert_same_array(sample_absent_pairs(g, np.int64(5), np.random.default_rng(0)),
                      sample_absent_pairs(g, 5, np.random.default_rng(0)))


def reference_sample_absent_pairs(graph, count, rng):
    """The sampler as one Python rejection loop over a set, one pair per draw."""
    n = graph.num_nodes
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    total_pairs = n * (n - 1) // 2
    pool = total_pairs - graph.num_edges
    if count > pool:
        raise ValidationError(
            f"cannot sample {count} absent pairs: only {pool} available")
    existing = set(int(u) * n + int(v) for u, v in graph.edges)
    if count > pool // 2:
        iu, iv = np.triu_indices(n, k=1)
        codes = iu.astype(np.int64) * n + iv
        absent = codes[~np.isin(codes, np.fromiter(existing, dtype=np.int64, count=len(existing)))]
        chosen = rng.choice(absent, size=count, replace=False)
        return np.column_stack([chosen // n, chosen % n]).astype(np.int64)
    picked = []
    seen = set(existing)
    while len(picked) < count:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        lo, hi = (u, v) if u < v else (v, u)
        code = lo * n + hi
        if code in seen:
            continue
        seen.add(code)
        picked.append((lo, hi))
    return np.asarray(picked, dtype=np.int64)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 60), density=st.floats(0.0, 1.0), graph_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_sample_absent_pairs_equals_the_one_pair_at_a_time_draw(n, density, graph_seed, seed,
                                                                share):
    iu, iv = np.triu_indices(n, k=1)
    keep = np.random.default_rng(graph_seed).random(iu.size) < density
    g = tiny_graph(np.column_stack([iu[keep], iv[keep]]), n=n)
    pool = iu.size - g.num_edges
    for count in sorted({0, 1, pool // 2, pool // 2 + 1, pool, int(share * pool)}):
        if count > pool:
            continue
        got = sample_absent_pairs(g, count, np.random.default_rng(seed))
        assert_same_array(got, reference_sample_absent_pairs(g, count, np.random.default_rng(seed)))
    with pytest.raises(ValidationError, match="absent pairs"):
        sample_absent_pairs(g, pool + 1, np.random.default_rng(seed))


def test_sample_absent_pairs_equals_the_one_pair_at_a_time_draw_at_n2000():
    # the link-prediction benchmark's size: ~6.5k edges, one negative per edge
    g = generate_sbm(2000, 4, 0.01, 0.001, 8, 0.1, seed=101)
    for count in (1, g.num_edges):
        assert_same_array(sample_absent_pairs(g, count, np.random.default_rng(count)),
                          reference_sample_absent_pairs(g, count, np.random.default_rng(count)))


class CountingGenerator:
    """A seeded generator that counts the batches ``integers`` draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("seed", (0, 10))
def test_sample_absent_pairs_equals_the_one_pair_at_a_time_draw_over_several_batches(seed):
    # half the absent pairs, the largest sparse request: repeats within a batch leave
    # it short, so later batches must skip the codes the earlier ones accepted
    g = generate_sbm(120, 3, 0.2, 0.02, 3, 0.1, seed=7)
    count = (120 * 119 // 2 - g.num_edges) // 2
    rng = CountingGenerator(seed)
    got = sample_absent_pairs(g, count, rng)
    assert rng.calls >= 2   # seed 0 takes two batches, seed 10 three
    assert_same_array(got, reference_sample_absent_pairs(g, count, np.random.default_rng(seed)))


# ---- feature norm -----------------------------------------------------------------


def test_feature_inf_norm_max_cases():
    g = tiny_graph([(0, 1)])
    assert feature_inf_norm_max(g) == np.abs(g.features).max()
    zeros = Graph(np.zeros((2, 3)), np.zeros(2, dtype=int), np.zeros((0, 2), dtype=int),
                  1, *(np.zeros(2, dtype=bool) for _ in range(3)))
    assert feature_inf_norm_max(zeros) == 0.0
    signed = Graph(np.array([[-7.5, 2.0]]), np.zeros(1, dtype=int),
                   np.zeros((0, 2), dtype=int), 1,
                   *(np.zeros(1, dtype=bool) for _ in range(3)))
    assert feature_inf_norm_max(signed) == 7.5
