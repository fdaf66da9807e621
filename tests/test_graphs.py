"""Tests for graph construction, rating containers, and the product operator."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components

from discshift.graphs import (
    GraphLaplacian,
    ProductOperator,
    RatingMatrix,
    community_graph,
    content_graph,
    fast_diag_preconditioner,
    knn_feature_graph,
    laplacian_from_weights,
    product_apply,
    product_dense,
    synthetic_netflix,
    trivial_graph,
)
from discshift.linalg import SparseSym, load_edge_list


def path_graph(n):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return laplacian_from_weights(SparseSym.from_dense(W))


def random_graph(n, seed, p=0.4):
    rng = np.random.default_rng(seed)
    W = np.triu((rng.random((n, n)) < p) * rng.uniform(0.2, 1.0, (n, n)), 1)
    return laplacian_from_weights(SparseSym.from_dense(W + W.T))


# ---------------------------------------------------------------- Laplacian


def test_laplacian_two_node():
    W = SparseSym.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    G = laplacian_from_weights(W)
    assert_allclose(G.laplacian.toarray(), [[1.0, -1.0], [-1.0, 1.0]])
    assert G.max_degree == 1.0


def test_laplacian_edgeless():
    G = laplacian_from_weights(SparseSym.from_dense(np.zeros((3, 3))))
    assert_allclose(G.laplacian.toarray(), np.zeros((3, 3)))
    assert G.max_degree == 0.0
    assert G.n_components() == 3


def test_laplacian_zero_row_sums():
    rng = np.random.default_rng(0)
    for seed in range(10):
        G = random_graph(8, seed)
        L = G.laplacian.toarray()
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12


def test_spectrum_is_cached_read_only_eigh():
    for G in (random_graph(9, 3), path_graph(5), trivial_graph()):
        assert G.spectrum is G.spectrum
        evals, evecs = G.spectrum
        ref_vals, ref_vecs = np.linalg.eigh(G.laplacian.toarray())
        assert np.array_equal(evals, ref_vals) and np.array_equal(evecs, ref_vecs)
        for a in (evals, evecs):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


def test_components_match_scipy_labels():
    disconnected = np.zeros((5, 5))
    disconnected[0, 3] = disconnected[3, 0] = disconnected[1, 2] = disconnected[2, 1] = 1.0
    cases = [(path_graph(6), 1), (random_graph(12, 4, p=0.15), 6),
             (laplacian_from_weights(SparseSym.from_dense(disconnected)), 3),
             (laplacian_from_weights(SparseSym.from_dense(np.zeros((4, 4)))), 4)]
    for G, expected in cases:
        ncomp, labels = connected_components(G.weights.csr, directed=False)
        assert G.components is G.components
        assert np.array_equal(G.components, labels)
        assert G.n_components() == ncomp == expected
        with pytest.raises(ValueError, match="read-only"):
            G.components[0] = 1
    assert np.array_equal(cases[2][0].components, [0, 1, 1, 0, 2])
    assert laplacian_from_weights(SparseSym.from_dense(np.zeros((0, 0)))).n_components() == 0


def test_graph_laplacian_compares_by_identity():
    G, H = path_graph(3), path_graph(3)
    assert G == G and G != H
    assert len({G, H, G}) == 2


def test_laplacian_rejects_negative_weight():
    with pytest.raises(ValueError):
        laplacian_from_weights(SparseSym.from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]])))


def test_laplacian_weights_any_scale_finite_only(tmp_path):
    # A row-sum guard of 1e-10 used to reject every such graph at 1e6 (its
    # row sums round at ~1e-9), and NaN or inf weights passed every check.
    rng = np.random.default_rng(0)
    for scale in (1e3, 1e6, 1e12):
        for _ in range(20):
            W = np.triu(rng.uniform(0.0, scale, (20, 20)), 1)
            G = laplacian_from_weights(SparseSym.from_dense(W + W.T))
            assert np.abs(G.laplacian @ np.ones(20)).max() <= 1e-12 * G.max_degree
    for bad in (np.nan, np.inf, -np.inf):
        W = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            SparseSym.from_dense(W)
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 {bad}\n")
        with pytest.raises(ValueError, match="NaN or infinite"):
            load_edge_list(path)


def test_trivial_graph():
    G = trivial_graph()
    assert G.n == 1
    assert G.max_degree == 0.0


# ---------------------------------------------------------------- variation


def test_variation_constant_is_zero():
    G = path_graph(5)
    x = np.full(5, 2.5)
    assert x @ (G.laplacian @ x) == pytest.approx(0.0, abs=1e-15)


def test_variation_single_edge():
    W = SparseSym.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    G = laplacian_from_weights(W)
    x = np.array([0.0, 1.0])
    assert x @ (G.laplacian @ x) == pytest.approx(1.0)


def test_variation_matches_pairwise_sum():
    rng = np.random.default_rng(1)
    for seed in range(5):
        G = random_graph(7, seed)
        x = rng.standard_normal(7)
        W = G.weights.csr.toarray()
        ref = sum(W[k, l] * (x[k] - x[l]) ** 2
                  for k in range(7) for l in range(k + 1, 7))
        assert abs(x @ (G.laplacian @ x) - ref) <= 1e-10


# ---------------------------------------------------------------------- kNN


def test_knn_identical_features_complete_graph():
    G = knn_feature_graph(np.zeros((3, 2)), k=1)
    W = G.weights.csr.toarray()
    assert_allclose(W, np.ones((3, 3)) - np.eye(3))


def test_knn_collinear_points():
    G = knn_feature_graph(np.array([0.0, 1.0, 10.0]), k=1)
    W = G.weights.csr.toarray()
    assert W[0, 1] > 0
    assert W[1, 2] > 0  # node 10's nearest neighbor is 1; kept by symmetrization
    assert W[0, 2] == 0.0


def test_knn_symmetric_nonnegative():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 3))
    G = knn_feature_graph(X, k=4)
    W = G.weights.csr.toarray()
    assert_allclose(W, W.T)
    assert (W >= 0).all()


def test_knn_rejects_bad_k():
    with pytest.raises(ValueError):
        knn_feature_graph(np.zeros((3, 1)), k=3)


# -------------------------------------------------------------- RatingMatrix


def test_rating_matrix_basic():
    R = RatingMatrix(2, 3, [0, 1], [1, 2], [4.0, 2.0])
    assert R.n_known == 2
    dense = R.to_dense()
    assert dense[0, 1] == 4.0 and dense[1, 2] == 2.0 and dense[0, 0] == 0.0


def test_rating_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        RatingMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])


def test_rating_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        RatingMatrix(2, 2, [2], [0], [1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: laplacian_from_weights(SparseSym.from_dense(np.eye(2))),
     "adjacency diagonal must be zero"),
    (lambda: knn_feature_graph([[np.nan], [1.0], [2.0]], k=1), "features contain NaN/Inf"),
    (lambda: RatingMatrix(2, 2, [0, 1], [0], [1.0, 2.0]), "triplet arrays must align"),
    (lambda: RatingMatrix(2, 2, [[0, 1]], [[0, 1]], [[1.0, 2.0]]),
     "rating triplets must be 1-D arrays"),
    (lambda: content_graph(RatingMatrix.from_dense(np.ones((3, 3))), axis="diag"),
     "axis must be 'rows' or 'cols'"),
    (lambda: content_graph(RatingMatrix.from_dense(np.ones((1, 3))), axis="rows"),
     "need at least 2 nodes to build a graph"),
    (lambda: community_graph(3, 0, 0.9, 0.1), "need 1 <= n_communities <= n_nodes"),
    (lambda: community_graph(3, 4, 0.9, 0.1), "need 1 <= n_communities <= n_nodes"),
    (lambda: synthetic_netflix(1, 4), "need m, n >= 2"),
    (lambda: synthetic_netflix(4, 4, n_row_comm=5), "community counts cannot exceed dimensions"),
    (lambda: ProductOperator(path_graph(2), path_graph(2), -1.0, 0.0),
     "alpha and beta must be nonnegative"),
    (lambda: product_apply(ProductOperator(path_graph(2), path_graph(2), 1.0, 1.0), np.ones(3)),
     "dimension mismatch: operator is 4, vector is (3,)"),
], ids=["adjacency-diagonal", "knn-nan-features", "ratings-misaligned", "ratings-2d",
        "content-axis", "content-one-node", "communities-zero", "communities-too-many",
        "netflix-size", "netflix-communities", "operator-negative-weight",
        "apply-wrong-length"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_rating_matrix_subset_takes_integer_positions():
    R = RatingMatrix(3, 2, [0, 1, 2], [0, 1, 0], [1.0, 2.0, 3.0])
    S = R.subset(np.array([2, 0]))
    assert S.rows.tolist() == [2, 0] and S.vals.tolist() == [3.0, 1.0]
    assert R.subset([]).n_known == 0
    # Fractional positions were truncated, and negative ones wrapped.
    for bad, msg in [([0.9, 1.7], "integer"), ([1.0], "integer"), ([True], "integer"),
                     ([-1], "position index -1 outside"), ([3], "position index 3 outside")]:
        with pytest.raises(ValueError, match=msg):
            R.subset(bad)


def test_rating_matrix_from_dense_nan_missing():
    Y = np.array([[1.0, np.nan], [np.nan, 4.0]])
    R = RatingMatrix.from_dense(Y)
    assert R.n_known == 2
    assert np.array_equal(R.mask_bool(), [[True, False], [False, True]])


# ------------------------------------------------------------ content graph


def test_content_graph_hand_toy():
    # row 0: items {0: 5, 1: 3}; row 1: {0: 5, 1: 1}; row 2: {1: 3, 2: 4}
    # d(0,1) = sqrt(0 + 4)/sqrt(2) = sqrt(2); d(0,2) = 0; d(1,2) = 2
    # d_min = 0, default d_s = 60th pct -> sqrt(2) retained, 2 cut
    # gamma = mean of (d - d_min)^2 over retained = (2 + 0)/2 = 1
    R = RatingMatrix(3, 3, [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 1, 2],
                     [5.0, 3.0, 5.0, 1.0, 3.0, 4.0])
    G = content_graph(R, axis="rows")
    W = G.weights.csr.toarray()
    assert abs(W[0, 1] - np.exp(-2.0)) <= 1e-12
    assert abs(W[0, 2] - 1.0) <= 1e-12
    assert W[1, 2] == 0.0


def test_content_graph_identical_rows_weight_one():
    R = RatingMatrix(3, 2, [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1],
                     [3.0, 4.0, 3.0, 4.0, 1.0, 1.0])
    G = content_graph(R, axis="rows")
    assert G.weights.csr.toarray()[0, 1] == pytest.approx(1.0)


def test_content_graph_disjoint_support_zero_weight():
    # rows 0 and 2 share no rated column; their weight must be 0
    R = RatingMatrix(3, 3, [0, 1, 1, 2], [0, 0, 2, 2], [5.0, 5.0, 2.0, 2.0])
    G = content_graph(R, axis="rows")
    W = G.weights.csr.toarray()
    assert W[0, 2] == 0.0
    assert W[0, 1] > 0 and W[1, 2] > 0


def test_content_graph_warns_when_disconnected():
    # two user pairs with no overlap across pairs
    R = RatingMatrix(4, 4, [0, 1, 2, 3], [0, 0, 2, 2], [5.0, 5.0, 2.0, 2.0])
    with pytest.warns(UserWarning, match="disconnected"):
        content_graph(R, axis="rows")


def test_content_graph_all_overlaps_empty():
    R = RatingMatrix(2, 2, [0, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError):
        content_graph(R, axis="rows")


def test_content_graph_cols_axis():
    R = RatingMatrix(3, 3, [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 1, 2],
                     [5.0, 3.0, 5.0, 1.0, 3.0, 4.0])
    with pytest.warns(UserWarning):
        G = content_graph(R, axis="cols")
    assert G.n == 3


# ---------------------------------------------------------- community graph


def test_community_graph_disconnected_without_crossing():
    with pytest.raises(RuntimeError, match="in 50 attempts"):
        community_graph(4, 2, 1.0, 0.0, seed=0)


def test_community_graph_connected_at_scale():
    G, labels = community_graph(100, 4, 0.3, 0.01, seed=0)
    assert G.n_components() == 1
    assert len(np.unique(labels)) == 4
    # near-even partition
    counts = np.bincount(labels)
    assert counts.min() >= 24 and counts.max() <= 26


def test_community_graph_labels_partition():
    _, labels = community_graph(10, 3, 0.9, 0.2, seed=1)
    assert labels.shape == (10,)
    assert set(labels.tolist()) == {0, 1, 2}


def test_community_graph_validates_probs():
    with pytest.raises(ValueError):
        community_graph(10, 2, 0.2, 0.5, seed=0)


# --------------------------------------------------------- synthetic dataset


def test_synthetic_noiseless_equals_truth():
    b = synthetic_netflix(20, 15, 3, 3, noise_sigma=0.0, seed=3,
                          p_in=0.9, p_out=0.15)
    assert_allclose(b.ratings.to_dense(), b.ground_truth)


def test_synthetic_full_density():
    b = synthetic_netflix(200, 100, 4, 4, seed=0)
    assert b.ratings.n_known == 20000


def test_synthetic_range_and_labels():
    b = synthetic_netflix(20, 15, 3, 3, seed=4, p_in=0.9, p_out=0.15)
    assert b.ground_truth.min() >= 1.0 and b.ground_truth.max() <= 5.0
    assert len(np.unique(b.row_labels)) == 3
    assert len(np.unique(b.col_labels)) == 3


def test_synthetic_smooth_on_own_graph():
    # ground truth varies less on the planted graphs than a permuted control
    wins = 0
    for seed in range(10):
        b = synthetic_netflix(24, 18, 3, 3, seed=seed, p_in=0.9, p_out=0.15)
        rng = np.random.default_rng(1000 + seed)
        perm = rng.permutation(b.ground_truth.ravel()).reshape(b.ground_truth.shape)
        L = b.row_graph.laplacian
        var = sum(x @ (L @ x) for x in b.ground_truth.T)
        var_perm = sum(x @ (L @ x) for x in perm.T)
        wins += var < var_perm
    assert wins == 10


def test_synthetic_noise_perturbs():
    b0 = synthetic_netflix(20, 15, 3, 3, noise_sigma=0.0, seed=5,
                           p_in=0.9, p_out=0.15)
    b1 = synthetic_netflix(20, 15, 3, 3, noise_sigma=0.6, seed=5,
                           p_in=0.9, p_out=0.15)
    assert_allclose(b0.ground_truth, b1.ground_truth)
    assert not np.allclose(b1.ratings.to_dense(), b1.ground_truth)
    assert b1.ratings.to_dense().min() >= 1.0
    assert b1.ratings.to_dense().max() <= 5.0


# ----------------------------------------------------------- product operator


def test_product_apply_identity_limit():
    # alpha = beta = 0 with everything sampled: Q = I
    rg, cg = path_graph(3), path_graph(4)
    op = ProductOperator(rg, cg, 0.0, 0.0, np.ones(12))
    x = np.arange(12, dtype=np.float64)
    assert_allclose(product_apply(op, x), x)


def test_product_apply_constant_nullspace():
    rg, cg = path_graph(3), path_graph(4)
    op = ProductOperator(rg, cg, 0.3, 0.7)
    assert_allclose(product_apply(op, np.ones(12)), np.zeros(12), atol=1e-14)


def test_product_apply_matches_kronecker():
    rng = np.random.default_rng(6)
    for seed in range(8):
        rg, cg = random_graph(4, seed), random_graph(6, 100 + seed)
        diag = (rng.random(24) < 0.5).astype(np.float64)
        op = ProductOperator(rg, cg, 0.2, 0.4, diag)
        Q = product_dense(op)
        x = rng.standard_normal(24)
        assert np.max(np.abs(product_apply(op, x) - Q @ x)) <= 1e-12


def test_product_apply_bitwise_equals_column_major_formula():
    # The column-major formula product_apply used before it worked on the
    # (n, m) C-order view; the sums are the same, term for term.
    def column_major(op, x):
        X = x.reshape((op.m, op.n), order="F")
        smooth = (op.alpha * (op.row_graph.laplacian @ X)
                  + op.beta * (op.col_graph.laplacian @ X.T).T)
        return op.sample_diag * x + smooth.ravel(order="F")

    rng = np.random.default_rng(7)
    for seed, (m, n) in enumerate([(30, 20), (7, 11), (2, 9)]):
        diag = (rng.random(m * n) < 0.3).astype(np.float64)
        op = ProductOperator(random_graph(m, seed), random_graph(n, 50 + seed),
                             0.7, 1.3, diag)
        x = rng.standard_normal(op.size)
        assert np.array_equal(product_apply(op, x), column_major(op, x))


def test_product_operator_copy_isolated():
    rg, cg = path_graph(2), path_graph(2)
    op = ProductOperator(rg, cg, 0.1, 0.1)
    op2 = op.copy()
    op2.sample_diag[0] = 1.0
    assert op.sample_diag[0] == 0.0


def test_product_operator_validates_diag():
    rg, cg = path_graph(2), path_graph(2)
    with pytest.raises(ValueError):
        ProductOperator(rg, cg, 0.1, 0.1, np.full(4, 0.5))
    with pytest.raises(ValueError):
        ProductOperator(rg, cg, 0.1, 0.1, np.ones(3))


def test_product_dense_cap():
    rg, cg = path_graph(70), path_graph(70)
    with pytest.raises(ValueError):
        product_dense(ProductOperator(rg, cg, 0.1, 0.1))


# ------------------------------------------------ fast-diagonalization inverse


def test_preconditioner_inverts_shifted_smooth_part():
    # T = (S + cI)^-1 with c the mean of the diagonal term, floored at 1/mn.
    rng = np.random.default_rng(8)
    for seed, k in enumerate([0, 1, 3]):
        op = ProductOperator(random_graph(7, seed), random_graph(5, 20 + seed), 2.3, 4.1)
        op.sample_diag[rng.choice(35, k, replace=False)] = 1.0
        smooth = product_dense(op) - np.diag(op.sample_diag)
        T = op.preconditioner()
        for _ in range(3):
            x = rng.standard_normal(35)
            want = np.linalg.solve(smooth + max(k, 1) / 35 * np.eye(35), x)
            assert np.max(np.abs(T(x) - want)) <= 1e-10


@pytest.mark.parametrize("mode", ["cluster", "group"])
def test_preconditioner_inverts_igcs_block(mode):
    # An IGCS block w_diag * diag(ind) + w_lap * L is the product of its
    # factor with a one-node graph.
    rng = np.random.default_rng(9)
    G = random_graph(9, 3) if mode == "cluster" else random_graph(6, 4)
    w_diag, w_lap = (0.3, 0.8) if mode == "cluster" else (0.7, 1.9)
    for k in (0, 1, 4):
        ind = np.zeros(G.n)
        ind[rng.choice(G.n, k, replace=False)] = 1.0
        diag = w_diag * ind
        T = fast_diag_preconditioner(G, trivial_graph(), w_lap, 0.0, diag)
        c = max(diag.sum(), 1.0) / G.n
        block = w_lap * G.laplacian.toarray()
        x = rng.standard_normal(G.n)
        assert np.max(np.abs(T(x) - np.linalg.solve(block + c * np.eye(G.n), x))) <= 1e-10


def test_preconditioner_rule_drops_it_on_dense_samples_at_weak_smoothing():
    # At alpha = beta = 0.01 every mode of the smooth part lies below the
    # unit diagonal, and with 10% of the grid sampled plain iterations win.
    d = synthetic_netflix(120, 80, 4, 4, seed=1)
    rng = np.random.default_rng(1)
    sampled = np.zeros(120 * 80)
    sampled[rng.choice(sampled.size, 960, replace=False)] = 1.0
    assert ProductOperator(d.row_graph, d.col_graph, 0.01, 0.01, sampled).preconditioner() is None
    # GCS's sparse samples, and strong smoothing at any density, keep it.
    few = np.zeros(120 * 80)
    few[:80] = 1.0
    assert ProductOperator(d.row_graph, d.col_graph, 0.01, 0.01, few).preconditioner() is not None
    assert ProductOperator(d.row_graph, d.col_graph, 1.0, 1.0, sampled).preconditioner() is not None


EIGENBASIS_SAMPLES = {  # (rows, cols) of the sampled entries on a 12 x 9 grid
    "none": ([], []),
    "one column": ([0, 3, 4, 8, 11], [6] * 5),
    "three columns": ([0, 1, 2, 3, 4, 6, 9, 11], [2, 2, 2, 5, 5, 7, 7, 7]),
    "spread": ([1] * 9 + [5] * 7 + [10] * 4 + [7] * 3,
               list(range(9)) + list(range(7)) + [2, 4, 6, 8] + [1, 2, 3]),
}


@pytest.mark.parametrize("case", sorted(EIGENBASIS_SAMPLES))
def test_eigenbasis_operator_matches_the_dense_product(case):
    # Q in the coordinates y = B'x of its smooth part's eigenbasis B, against
    # B formed column by column: B'B = I, B'QB, and B'TB for the
    # preconditioner T, with the rule read the same way. The sampled term
    # runs on x's sampled columns in "one column" and "three columns", and
    # on its 4 sampled rows in "spread", 23 > m + n entries over all 9
    # columns. Two samples are set before the build and the rest added
    # after, as GCS adds its picks.
    d = synthetic_netflix(12, 9, 2, 2, seed=4, p_in=0.8, p_out=0.1)
    op = ProductOperator(d.row_graph, d.col_graph, 0.7, 1.3)
    rows, cols = EIGENBASIS_SAMPLES[case]
    lin = [i + 12 * j for i, j in zip(rows, cols)]
    op.sample_diag[lin[:2]] = 1.0
    eig = op.eigenbasis()
    for k in lin[2:]:
        eig.add(k)
        op.sample_diag[k] = 1.0
    B = np.column_stack([eig.basis @ e for e in np.eye(op.size)])
    assert np.max(np.abs(B.T @ B - np.eye(op.size))) <= 1e-12
    QB = B.T @ product_dense(op) @ B
    T = op.preconditioner()
    assert eig.preconditioned == (T is not None)
    rng = np.random.default_rng(4)
    for _ in range(3):
        y = rng.standard_normal(op.size)
        assert np.max(np.abs(eig.basis.T @ (eig.basis @ y) - y)) <= 1e-12
        assert np.max(np.abs(eig.basis.T @ y - B.T @ y)) <= 1e-12
        assert np.max(np.abs(eig.apply(y) - QB @ y)) <= 1e-12 * np.abs(QB @ y).max()
        if T is not None:
            assert np.max(np.abs(eig.precond(y) - B.T @ T(B @ y))) <= 1e-12 * np.abs(y).max()


@pytest.mark.parametrize("shape", [(301, 1), (2, 301)])
def test_preconditioner_none_above_factor_cap(shape):
    # 300 nodes is the largest factor the preconditioner's cost was measured
    # on. Above the cap the rule answers from the sizes alone: no factor
    # spectrum (a dense eigh) is computed for a preconditioner not used.
    rg = path_graph(shape[0]) if shape[0] > 1 else trivial_graph()
    cg = path_graph(shape[1]) if shape[1] > 1 else trivial_graph()
    op = ProductOperator(rg, cg, 1.0, 1.0)
    op.sample_diag[0] = 1.0
    assert op.preconditioner() is None and op.eigenbasis() is None
    assert "spectrum" not in vars(rg) and "spectrum" not in vars(cg)
