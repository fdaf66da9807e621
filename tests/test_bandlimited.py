"""Tests for the bandlimited basis, A-optimal selection, and reconstruction."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import discshift.bandlimited as bandlimited
from discshift.bandlimited import (
    AOPT_EPS,
    aopt_local_search,
    aopt_objective,
    aopt_pick,
    aopt_pool,
    bandlimited_basis,
    bandlimited_reconstruct,
)
from discshift.graphs import ProductOperator, laplacian_from_weights, synthetic_netflix
from discshift.linalg import SolverOptions, SparseSym
from discshift.sampling import (
    TIE_TOL,
    SampleSet,
    argmax_abs_tied,
    gcs_sample,
    greedy_disc_shift,
)
from oracles import aopt_pick_reference


def path_graph(n):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return laplacian_from_weights(SparseSym.from_dense(W))


def random_graph(n, seed, p=0.6):
    rng = np.random.default_rng(seed)
    while True:
        W = np.triu((rng.random((n, n)) < p) * rng.uniform(0.5, 1.5, (n, n)), 1)
        G = laplacian_from_weights(SparseSym.from_dense(W + W.T))
        if G.n_components() == 1:
            return G


def brute_force_aopt(basis, op, K, L_pool):
    """Reference reimplementation of the pooled greedy selection."""
    Q = np.zeros((op.size, op.size))
    from discshift.graphs import product_dense

    Q = product_dense(op)
    sampled = op.sample_diag.astype(bool).copy()
    chosen = []
    pairs = []
    for _ in range(K):
        _, vecs = np.linalg.eigh(Q)
        phi = vecs[:, 0]
        cand = np.flatnonzero(~sampled)
        n_pool = min(L_pool, cand.size)
        pool = []
        remaining = cand.tolist()
        for _ in range(n_pool):
            mags = np.abs(phi[remaining])
            pick = remaining[int(np.flatnonzero(mags >= mags.max() - 1e-4)[0])]
            pool.append(pick)
            remaining.remove(pick)
        best_idx, best_val = None, None
        for c in sorted(pool):
            val = aopt_objective(basis, chosen + [c])
            if best_val is None or val < best_val - 1e-12:
                best_idx, best_val = c, val
        chosen.append(best_idx)
        sampled[best_idx] = True
        Q[best_idx, best_idx] += 1.0
        pairs.append((best_idx % op.m, best_idx // op.m))
    return pairs


# -------------------------------------------------------------------- basis


def test_basis_rank_one_is_constants():
    rg, cg = path_graph(4), path_graph(3)
    basis = bandlimited_basis(rg, cg, k1=1, k2=1)
    assert_allclose(np.abs(basis.U[:, 0]), np.full(3, 1 / np.sqrt(3)), atol=1e-12)
    assert_allclose(np.abs(basis.V[:, 0]), np.full(4, 1 / np.sqrt(4)), atol=1e-12)


def test_basis_orthonormal_columns():
    rg, cg = random_graph(5, 0), random_graph(4, 1)
    basis = bandlimited_basis(rg, cg, k1=3, k2=2)
    T = np.kron(basis.U, basis.V)
    assert_allclose(T.T @ T, np.eye(6), atol=1e-9)


def test_basis_rows_match_kron():
    rg, cg = random_graph(4, 2), random_graph(5, 3)
    basis = bandlimited_basis(rg, cg, k1=2, k2=3)
    T = np.kron(basis.U, basis.V)
    lin = [0, 5, 11, 19]
    assert_allclose(basis.rows(lin), T[lin], atol=1e-12)


def test_basis_rows_bitwise_equal_to_kron_loop():
    rg, cg = random_graph(7, 8), random_graph(6, 9)
    basis = bandlimited_basis(rg, cg, k1=3, k2=4)
    lin = [41, 0, 7, 41, 13, 6]
    ref = np.array([np.kron(basis.U[l // 7], basis.V[l % 7]) for l in lin])
    assert np.array_equal(basis.rows(lin), ref)
    assert basis.rows([]).shape == (0, 12)
    with pytest.raises(ValueError):
        basis.rows([3, -1])


def test_basis_slices_the_cached_spectra():
    rg, cg = random_graph(7, 8), random_graph(6, 9)
    basis = bandlimited_basis(rg, cg, k1=3, k2=4)
    assert np.array_equal(basis.U, cg.spectrum[1][:, :3])
    assert np.array_equal(basis.V, rg.spectrum[1][:, :4])
    assert np.array_equal(basis.U, np.linalg.eigh(cg.laplacian.toarray())[1][:, :3])
    assert np.array_equal(basis.V, np.linalg.eigh(rg.laplacian.toarray())[1][:, :4])


def test_bundle_and_basis_run_one_eigh_per_graph(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    bundle = synthetic_netflix(12, 10, 2, 2, seed=1, p_in=0.6)
    bandlimited_basis(bundle.row_graph, bundle.col_graph, k1=3, k2=3)
    assert calls == [(12, 12), (10, 10)]


def test_basis_rejects_fractional_and_out_of_range_indices():
    # These used to be truncated ([0.7] read as [0]) or to fail in numpy's
    # fancy indexing without naming the index.
    basis = bandlimited_basis(path_graph(3), path_graph(3), k1=2, k2=2)
    for bad in ([0.7], [0.0, 3.0], np.array([0.7, 3.2, 5.9, 8.1])):
        with pytest.raises(ValueError, match="sample must be integer linear indices"):
            basis.rows(bad)
    with pytest.raises(ValueError, match="integer linear indices"):
        aopt_objective(basis, [0.7, 3.2, 5.9, 8.1])
    with pytest.raises(ValueError, match="integer linear indices"):
        bandlimited_reconstruct(basis, [0.5, 1, 2, 4.0], np.zeros(4))
    for call in (lambda: basis.rows([9]), lambda: aopt_objective(basis, [0, 3, 9]),
                 lambda: bandlimited_reconstruct(basis, [0, 9, 2, 4], np.zeros(4))):
        with pytest.raises(ValueError, match=re.escape("sample index 9 outside [0, 9)")):
            call()
    assert basis.rows(np.array([], dtype=np.int64)).shape == (0, 4)


def test_basis_apply_matches_materialized():
    rng = np.random.default_rng(4)
    rg, cg = random_graph(4, 5), random_graph(3, 6)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    T = np.kron(basis.U, basis.V)
    for _ in range(5):
        z = rng.standard_normal(4)
        assert np.max(np.abs(basis.apply(z) - T @ z)) <= 1e-12


def test_basis_validates_ranks():
    rg, cg = path_graph(3), path_graph(2)
    with pytest.raises(ValueError):
        bandlimited_basis(rg, cg, k1=3, k2=1)
    with pytest.raises(ValueError):
        bandlimited_basis(rg, cg, k1=1, k2=0)


def test_basis_beyond_dense_oracle_cap():
    # The 512-node cap of the tests' dense oracle does not apply here.
    basis = bandlimited_basis(path_graph(520), path_graph(3), k1=2, k2=2)
    assert basis.V.shape == (520, 2)
    assert_allclose(basis.V.T @ basis.V, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------- objective


def test_aopt_full_sampling_scores_rank():
    rg, cg = random_graph(4, 10), random_graph(3, 11)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    full = SampleSet(tuple((i, j) for j in range(3) for i in range(4)),
                     m=4, budget=12)
    # T has orthonormal columns, so the full Gram is the identity
    assert aopt_objective(basis, full.linear) == pytest.approx(4.0, abs=1e-9)


def test_aopt_empty_selection():
    rg, cg = path_graph(4), path_graph(3)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    assert aopt_objective(basis, []) == pytest.approx(4.0 / AOPT_EPS)


def test_aopt_matches_dense_inverse():
    # full-rank selections are scored unregularized and match to 1e-9;
    # deficient Grams sit at scale 1/eps where only a relative check is fair
    rng = np.random.default_rng(12)
    rg, cg = random_graph(4, 13), random_graph(4, 14)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    for size in [5, 9]:
        lin = rng.choice(16, size=size, replace=False).tolist()
        R = basis.rows(lin)
        ref = float(np.trace(np.linalg.inv(R.T @ R)))
        assert abs(aopt_objective(basis, lin) - ref) <= 1e-9


def test_aopt_deficient_selection_regularized():
    rng = np.random.default_rng(30)
    rg, cg = random_graph(4, 13), random_graph(4, 14)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    lin = rng.choice(16, size=2, replace=False).tolist()
    R = basis.rows(lin)
    ref = float(np.trace(np.linalg.inv(R.T @ R + AOPT_EPS * np.eye(4))))
    val = aopt_objective(basis, lin)
    assert abs(val - ref) / ref <= 1e-7


def test_aopt_batched_scores_equal_single_scores():
    basis = bandlimited_basis(random_graph(12, 5), random_graph(10, 6), 4, 4)
    rng = np.random.default_rng(6)
    # |chosen| = 0 (empty), 7 (k+1 < 16: deficient), 15 (k+1 = 16: the
    # step that reaches full rank) and 30 (full rank).
    for k in (0, 7, 15, 30):
        perm = rng.permutation(120)
        chosen, pool = perm[:k], perm[k:k + 50]
        S = np.column_stack([np.tile(chosen, (50, 1)), pool])
        batch = aopt_objective(basis, S)
        assert batch.shape == (50,)
        assert [aopt_objective(basis, row.tolist()) for row in S] == batch.tolist()
        assert [aopt_objective(basis, row[::-1]) for row in S] == batch.tolist()
        if k + 1 < basis.rank:
            assert batch.min() > 1 / AOPT_EPS
        else:
            assert batch.max() < 1 / AOPT_EPS
    assert aopt_objective(basis, np.empty((0, 3), dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError, match="3-D"):
        aopt_objective(basis, np.zeros((2, 2, 2), dtype=np.int64))


def slot_by_slot_pool(phi, available, L_pool):
    """Reference pool fill: one argmax_abs_tied pick per slot over every
    remaining available index."""
    remaining = available.copy()
    pool = []
    for _ in range(min(L_pool, int(remaining.sum()))):
        pool.append(argmax_abs_tied(phi, np.flatnonzero(remaining)))
        remaining[pool[-1]] = False
    return pool


def test_aopt_pool_equals_slot_by_slot_argmax():
    rng = np.random.default_rng(40)
    for _ in range(300):
        size = int(rng.integers(1, 200))
        # Magnitudes on a grid of TIE_TOL/3 steps: exact ties, and tie bands
        # that chain across several values.
        phi = rng.choice([-1.0, 1.0], size) * (0.01 + TIE_TOL / 3 * rng.integers(0, 12, size))
        available = rng.random(size) < 0.8
        available[rng.integers(size)] = True
        L_pool = int(rng.integers(1, size + 1))
        assert aopt_pool(phi, available, L_pool) == sorted(slot_by_slot_pool(phi, available, L_pool))
    # Every candidate is tied with the top one, so each slot's band (100
    # candidates) is wider than the pool (5 slots): the lowest indices win.
    phi = np.full(100, 0.1)
    phi[::7] += 0.5 * TIE_TOL
    available = np.ones(100, dtype=bool)
    assert aopt_pool(phi, available, 5) == slot_by_slot_pool(phi, available, 5) == [0, 1, 2, 3, 4]


def test_aopt_pool_untied_magnitudes_are_the_top_l_pool():
    # Magnitudes at least 1e-3 apart: every window holds one entry, so the
    # pool is the set of the top L_pool available indices by |phi|.
    rng = np.random.default_rng(41)
    phi = rng.permutation(np.arange(1, 301) * 1e-3) * rng.choice([-1.0, 1.0], 300)
    available = rng.random(300) < 0.7
    order = np.argsort(-np.abs(phi))
    expected = sorted(order[available[order]][:40].tolist())
    assert aopt_pool(phi, available, 40) == sorted(slot_by_slot_pool(phi, available, 40)) == expected


def test_aopt_pool_takes_a_window_whole(monkeypatch):
    # Indices 0-9 are tied, and the top is index 9, the last of the window:
    # the picks walk all ten in index order before the top moves. Indices 10
    # and 11 are not tied with that top; the next window is the two of them,
    # up to the new top at 11. argmax_abs_tied names the first pick only.
    phi = np.full(14, 0.05)
    phi[:10] = 0.1 - TIE_TOL * np.linspace(0.9, 0.1, 10)
    phi[9] = 0.1
    phi[10:12] = [0.1 - 1.5 * TIE_TOL, 0.1 - 1.2 * TIE_TOL]
    available = np.ones(14, dtype=bool)
    expected = list(range(12))
    assert slot_by_slot_pool(phi, available, 12) == expected
    calls = []
    monkeypatch.setattr(bandlimited, "argmax_abs_tied",
                        lambda *args: calls.append(args) or argmax_abs_tied(*args))
    assert aopt_pool(phi, available, 12) == expected
    assert aopt_pool(phi, available, 6) == expected[:6]
    assert len(calls) == 2


def test_aopt_pool_all_tied_band_larger_than_pool():
    # A-opt step 0: phi is the constant vector up to rounding, so every
    # available index is tied with every other and the pool is the lowest
    # L_pool of them, in index order, wherever the top lies.
    rng = np.random.default_rng(42)
    phi = np.full(600, 1 / np.sqrt(600)) + 1e-12 * rng.standard_normal(600)
    available = rng.random(600) < 0.5
    for L_pool in (1, 7, 50):
        pool = aopt_pool(phi, available, L_pool)
        assert pool == np.flatnonzero(available)[:L_pool].tolist()
        assert pool == sorted(slot_by_slot_pool(phi, available, L_pool))


def test_aopt_pool_l_pool_at_least_the_band():
    # L_pool at or beyond the available count takes every available index.
    rng = np.random.default_rng(43)
    for _ in range(50):
        size = int(rng.integers(1, 60))
        phi = rng.choice([-1.0, 1.0], size) * (0.01 + TIE_TOL / 2 * rng.integers(0, 6, size))
        available = rng.random(size) < 0.6
        available[rng.integers(size)] = True
        for L_pool in (int(available.sum()), size + 5):
            pool = aopt_pool(phi, available, L_pool)
            assert pool == sorted(slot_by_slot_pool(phi, available, L_pool))
            assert pool == np.flatnonzero(available).tolist()


def test_aopt_pool_calls_argmax_abs_tied_once_per_fill_at_most_once_per_slot(monkeypatch):
    calls = []

    def spy(vec, candidates, tie_tol=TIE_TOL):
        calls.append(len(candidates))
        return argmax_abs_tied(vec, candidates, tie_tol)

    monkeypatch.setattr(bandlimited, "argmax_abs_tied", spy)
    rng = np.random.default_rng(44)
    for _ in range(200):
        size = int(rng.integers(1, 200))
        phi = rng.choice([-1.0, 1.0], size) * (0.01 + TIE_TOL / 3 * rng.integers(0, 12, size))
        available = rng.random(size) < 0.8
        available[rng.integers(size)] = True
        L_pool = int(rng.integers(1, size + 1))
        calls.clear()
        pool = aopt_pool(phi, available, L_pool)
        assert 1 <= len(calls) <= len(pool)
        assert pool == sorted(slot_by_slot_pool(phi, available, L_pool))


# ------------------------------------------------------------- local search


def test_local_search_full_pool_is_plain_greedy():
    rg, cg = random_graph(4, 15), random_graph(3, 16)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    op = ProductOperator(rg, cg, 0.1, 0.1)
    ss = aopt_local_search(basis, op, K=5, L_pool=12)
    assert list(ss.pairs) == brute_force_aopt(basis, op, 5, 12)


def test_local_search_pool_one_is_gcs():
    rg, cg = path_graph(3), path_graph(2)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    op = ProductOperator(rg, cg, 0.1, 0.1)
    ss = aopt_local_search(basis, op, K=3, L_pool=1)
    gcs, _ = gcs_sample(op, 3)
    assert ss.pairs == gcs.pairs


def test_local_search_rejects_a_basis_of_another_grid():
    # A 3x2 operator and a basis of the 2x3 grid have the same mn; scoring
    # would decode the linear indices with the wrong m.
    rg, cg = path_graph(3), path_graph(2)
    op = ProductOperator(rg, cg, 0.1, 0.1)
    basis = bandlimited_basis(cg, rg, k1=2, k2=2)
    with pytest.raises(ValueError, match="basis is for a 2x3 grid, the operator for 3x2"):
        aopt_local_search(basis, op, K=2, L_pool=3)


def test_local_search_mid_pool_matches_reference():
    rg, cg = random_graph(4, 17), random_graph(3, 18)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    op = ProductOperator(rg, cg, 0.1, 0.1)
    ss = aopt_local_search(basis, op, K=3, L_pool=4)
    assert list(ss.pairs) == brute_force_aopt(basis, op, 3, 4)


def test_aopt_pick_reused_picks_as_a_fresh_rule():
    # The rule reads the run's picks from the loop, so a second run with the
    # same rule starts from no picks.
    bundle = synthetic_netflix(30, 20, 3, 3, seed=0, p_in=0.6, p_out=0.05)
    basis = bandlimited_basis(bundle.row_graph, bundle.col_graph, k1=4, k2=4)
    op = ProductOperator(bundle.row_graph, bundle.col_graph, 1.0, 1.0)
    rule = aopt_pick(basis, 20)
    first, _ = greedy_disc_shift(op, 12, rule, "A-opt")
    again, _ = greedy_disc_shift(op, 12, rule, "A-opt")
    fresh, _ = greedy_disc_shift(op, 12, aopt_pick(basis, 20), "A-opt")
    assert again.pairs == fresh.pairs == first.pairs


def test_local_search_validates_pool():
    rg, cg = path_graph(3), path_graph(2)
    basis = bandlimited_basis(rg, cg, k1=1, k2=1)
    op = ProductOperator(rg, cg, 0.1, 0.1)
    with pytest.raises(ValueError):
        aopt_local_search(basis, op, K=1, L_pool=0)
    with pytest.raises(ValueError):
        aopt_local_search(basis, op, K=7, L_pool=1)


# ----------------------------------------------------------- reconstruction


def test_reconstruct_full_sampling_exact():
    rng = np.random.default_rng(20)
    rg, cg = random_graph(4, 21), random_graph(5, 22)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    x = basis.apply(rng.standard_normal(4))
    lin = list(range(20))
    xhat = bandlimited_reconstruct(basis, lin, x[lin])
    assert np.max(np.abs(xhat - x)) <= 1e-10


def test_reconstruct_partial_sampling():
    rng = np.random.default_rng(23)
    rg, cg = random_graph(4, 24), random_graph(5, 25)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    x = basis.apply(rng.standard_normal(4))
    lin = sorted(rng.choice(20, size=8, replace=False).tolist())
    assert np.linalg.matrix_rank(basis.rows(lin)) == 4  # setup sanity
    xhat = bandlimited_reconstruct(basis, lin, x[lin])
    assert np.linalg.norm(xhat - x) <= 1e-8


def test_reconstruct_rank_deficiency_raises():
    rg, cg = path_graph(4), path_graph(5)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    with pytest.raises(np.linalg.LinAlgError, match="rank"):
        bandlimited_reconstruct(basis, [0, 1, 2], np.zeros(3))


def test_reconstruct_validates_alignment():
    rg, cg = path_graph(4), path_graph(5)
    basis = bandlimited_basis(rg, cg, k1=2, k2=2)
    with pytest.raises(ValueError):
        bandlimited_reconstruct(basis, [0, 1, 2, 3], np.zeros(3))


def test_aopt_step_zero_converges_on_singular_start():
    # Unsampled, the operator is singular and its next eigenvalue is only
    # 0.030: plain residual iterations stall near a residual of 5e-6 (tol
    # 1e-6) at step 0, preconditioned ones converge in 3.
    d = synthetic_netflix(60, 40, 4, 4, noise_sigma=0.6, seed=32212)
    op = ProductOperator(d.row_graph, d.col_graph, 1.0, 1.0)
    basis = bandlimited_basis(d.row_graph, d.col_graph, 4, 4)
    ss = aopt_local_search(basis, op, 40, 50, SolverOptions(seed=32212))
    assert len(ss) == 40 and len(set(ss.pairs)) == 40


# Picks of aopt_local_search on 60x40 inputs with structurally tied
# candidates: their scores differ by 1.4e-12 to 2.5e-10, so the order in
# which the Gram matrix is summed decides between them. A scorer that
# updates the Gram by rank one picked differently on all four.
GOLDEN_60x40 = {
    1107: [8, 1179, 201, 1868, 654, 681, 1974, 39, 594, 2181, 783, 1221, 213, 1599,
           1959, 1071, 1263, 2214, 111, 728, 1307, 940, 1941, 71, 1283, 2259, 256,
           619, 1923, 812, 234, 947, 731, 512, 2228, 1274, 1731, 2031, 188, 1096],
    1108: [43, 643, 1210, 32, 490, 632, 1352, 829, 532, 1368, 1969, 610, 1461, 81,
           681, 1954, 1822, 1423, 3, 770, 521, 903, 1323, 1930, 170, 806, 1226,
           1982, 884, 506, 1250, 2057, 888, 100, 1233, 2073, 1848, 813, 237, 977],
    1204: [15, 615, 57, 717, 1230, 1210, 70, 670, 1317, 1575, 810, 570, 1874, 1913,
           1595, 1820, 1893, 134, 825, 1762, 35, 674, 1628, 1975, 1886, 113, 1175,
           1493, 2250, 80, 806, 1454, 1930, 1653, 715, 2315, 95, 663, 1475, 3],
    1606: [46, 24, 37, 1320, 2026, 856, 1237, 854, 2017, 1216, 1897, 14, 891, 1366,
           2184, 63, 665, 1202, 572, 561, 776, 824, 1352, 1934, 1644, 1913, 411,
           684, 825, 1064, 2174, 1431, 1884, 340, 436, 1271, 1965, 1235, 1706, 2071],
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_60x40))
def test_aopt_picks_golden_on_tied_inputs(seed):
    d = synthetic_netflix(60, 40, 4, 4, noise_sigma=0.6, seed=seed)
    op = ProductOperator(d.row_graph, d.col_graph, 1.0, 1.0)
    basis = bandlimited_basis(d.row_graph, d.col_graph, 4, 4)
    ss = aopt_local_search(basis, op, 40, 50, SolverOptions(seed=seed))
    assert ss.linear.tolist() == GOLDEN_60x40[seed]


# (m, n, p_in, k1 = k2, L_pool, K, alpha = beta, seeds) on 4x4 communities:
# the golden inputs, weak smoothing, a 2x2 basis, and plain greedy
# (L_pool = mn) on a smaller grid.
SCREEN_CELLS = {
    "golden": (60, 40, 0.3, 4, 50, 40, 1.0, sorted(GOLDEN_60x40)),
    "weak": (60, 40, 0.3, 4, 50, 40, 0.01, [1301, 1302]),
    "basis-2x2": (60, 40, 0.3, 2, 50, 40, 1.0, [1401, 1402]),
    "plain-greedy": (32, 20, 0.6, 4, 640, 30, 1.0, [1501]),
}


@pytest.mark.parametrize("cell", sorted(SCREEN_CELLS))
def test_aopt_screened_picks_equal_the_whole_pool_rule(cell):
    m, n, p_in, k, L_pool, K, ab, seeds = SCREEN_CELLS[cell]
    for seed in seeds:
        d = synthetic_netflix(m, n, 4, 4, noise_sigma=0.6, seed=seed, p_in=p_in)
        op = ProductOperator(d.row_graph, d.col_graph, ab, ab)
        basis = bandlimited_basis(d.row_graph, d.col_graph, k, k)
        opts = SolverOptions(seed=seed)
        ref, _ = greedy_disc_shift(op, K, aopt_pick_reference(basis, L_pool), "A-opt", opts=opts)
        ss = aopt_local_search(basis, op, K, L_pool, opts)
        assert ss.linear.tolist() == ref.linear.tolist(), seed


def scored_rows(monkeypatch):
    """Patch aopt_objective to record (picks so far, rows scored) per call."""
    calls, score = [], bandlimited.aopt_objective

    def counted(basis, S):
        calls.append((np.shape(S)[1] - 1, np.shape(S)[0]))
        return score(basis, S)

    monkeypatch.setattr(bandlimited, "aopt_objective", counted)
    return calls


def golden_run(seed):
    d = synthetic_netflix(60, 40, 4, 4, noise_sigma=0.6, seed=seed)
    op = ProductOperator(d.row_graph, d.col_graph, 1.0, 1.0)
    basis = bandlimited_basis(d.row_graph, d.col_graph, 4, 4)
    return aopt_local_search(basis, op, 40, 50, SolverOptions(seed=seed)).linear.tolist()


def test_aopt_full_rank_picks_score_only_the_screened_rows(monkeypatch):
    # On input 1108 every pick from the 16th on has a well-conditioned Gram
    # of its picks, so the screen keeps one or two of the 50 pool members;
    # the first 16 picks score the whole pool.
    calls = scored_rows(monkeypatch)
    assert golden_run(1108) == GOLDEN_60x40[1108]
    assert [rows for t, rows in calls if t < 16] == [50] * 16
    full_rank = [rows for t, rows in calls if t >= 16]
    assert len(full_rank) == 24
    assert max(full_rank) <= 2 and sum(full_rank) <= 30


def test_aopt_rank_one_scores_off_by_a_quarter_delta_score_the_whole_pool(monkeypatch):
    # Rank-one scores shifted by the screen's width keep the same members,
    # but each differs from its exact score by more than DELTA / 4: every
    # screened pick then scores the whole pool, and picks as before.
    screen = bandlimited._rank_one_screen

    def shifted(basis, picks, pool):
        got = screen(basis, picks, pool)
        return got and (got[0] + got[1], got[1])

    monkeypatch.setattr(bandlimited, "_rank_one_screen", shifted)
    calls = scored_rows(monkeypatch)
    assert golden_run(1108) == GOLDEN_60x40[1108]
    full_rank = [rows for t, rows in calls if t >= 16]
    assert len(full_rank) == 48
    assert full_rank[1::2] == [50] * 24 and max(full_rank[::2]) <= 2


@pytest.mark.parametrize("w, screens", [(1e-9, False), (1e-2, True)])
def test_aopt_screen_declines_an_ill_conditioned_gram(w, screens):
    # Picks 0 and 1 give the Gram G0 = diag(1, w), above GRAM_RANK_TOL
    # either way. At w = 1e-9 the rank-one error bound exceeds a quarter of
    # the screen's width, so the pick scores the whole pool.
    V = np.array([[1.0, 0.0], [0.0, np.sqrt(w)], [0.6, 0.8]])
    basis = bandlimited.BandlimitedBasis(U=np.ones((1, 1)), V=V)
    assert (bandlimited._rank_one_screen(basis, [0, 1], np.array([2])) is not None) == screens
