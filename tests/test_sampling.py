"""Tests for the greedy samplers and sample-set persistence."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import discshift.graphs as graphs
import discshift.sampling as sampling

from discshift.bandlimited import aopt_local_search, aopt_pick, bandlimited_basis
from discshift.graphs import (
    ProductOperator,
    community_graph,
    laplacian_from_weights,
    product_dense,
    synthetic_netflix,
    trivial_graph,
)
from discshift.linalg import (
    ConvergenceError,
    SolverOptions,
    SparseSym,
    lobpcg_smallest,
    random_unit,
)
from discshift.sampling import (
    SampleSet,
    argmax_abs_tied,
    gcs_sample,
    greedy_disc_shift,
    igcs_sample,
    lambda_max_bound,
    load_sample_set,
    random_sample,
    save_sample_set,
)
from oracles import exact_greedy_oracle, fast_diag_inverse


def path_graph(n):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return laplacian_from_weights(SparseSym.from_dense(W))


def random_graph(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    while True:
        W = np.triu((rng.random((n, n)) < p) * rng.uniform(0.5, 1.5, (n, n)), 1)
        G = laplacian_from_weights(SparseSym.from_dense(W + W.T))
        if G.n_components() == 1:
            return G


def dense_lambda_min(op):
    return float(np.linalg.eigvalsh(product_dense(op))[0])


TIE = 1e-4


def reference_gcs(op, K):
    """Dense-eig reimplementation of the greedy selection loop."""
    Q = product_dense(op)
    sampled = op.sample_diag.astype(bool).copy()
    pairs = []
    for _ in range(K):
        _, vecs = np.linalg.eigh(Q)
        phi = vecs[:, 0]
        cand = np.flatnonzero(~sampled)
        mags = np.abs(phi[cand])
        k = int(cand[np.flatnonzero(mags >= mags.max() - TIE)[0]])
        Q[k, k] += 1.0
        sampled[k] = True
        pairs.append((k % op.m, k // op.m))
    return pairs


# ---------------------------------------------------------------- SampleSet


def test_sample_set_linear_view():
    ss = SampleSet(((0, 0), (2, 1)), m=3, budget=2)
    assert ss.linear.tolist() == [0, 5]
    assert ss.ij.tolist() == [[0, 0], [2, 1]]
    for bad, msg in ((((0, 0), (3, 0)), "row 3 out of range for m=3"),
                     (((0, -1), (-1, 0)), "negative column -1")):
        with pytest.raises(ValueError, match=msg):
            SampleSet(bad, m=3, budget=2).linear


def test_sample_set_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        SampleSet(((0, 0), (0, 0)), m=2, budget=2)
    with pytest.raises(ValueError, match="distinct"):
        SampleSet(((1, 0), (0, 1), (0, 0), (1, 1), (0, 1)), m=2, budget=5)
    # same row or same column is not a repeat
    assert len(SampleSet(((0, 1), (1, 0), (0, 0), (1, 1)), m=2, budget=4)) == 4


def test_sample_set_pairs_are_python_ints():
    ss = SampleSet(((np.int64(2), np.int32(1)), (0, 0), (1, 2)), m=3, budget=3)
    assert ss.pairs == ((2, 1), (0, 0), (1, 2))
    assert all(type(v) is int for pair in ss.pairs for v in pair)


def test_sample_set_takes_an_int_array():
    src = np.array([[2, 1], [0, 0]], dtype=np.int32)
    ss = SampleSet(src, m=3, budget=2)
    assert ss.ij.dtype == np.int64 and not ss.ij.flags.writeable
    src[0, 0] = 1  # the set holds its own copy
    assert ss.pairs == ((2, 1), (0, 0))
    assert SampleSet(np.zeros((0, 2), dtype=np.int64), m=3, budget=0).pairs == ()
    with pytest.raises(ValueError, match="distinct"):
        SampleSet(np.array([[1, 1], [1, 1]]), m=3, budget=2)


def test_sample_set_rejects_malformed_pairs():
    for bad in (((0, 0, 1),), ((0, 1, 2), (3,)), ((0.5, 1),), ((),), (0, 1),
                np.array([[0, 1, 2]]), np.array([[0.5, 1.0]]), (("0", 1),)):
        with pytest.raises(ValueError, match="integer pairs"):
            SampleSet(bad, m=3, budget=3)
    with pytest.raises(ValueError, match="beyond int64"):
        SampleSet(((2**63, 0),), m=3, budget=1)


def test_sample_set_rejects_overflow():
    with pytest.raises(ValueError):
        SampleSet(((0, 0), (1, 0)), m=2, budget=1)


def test_sample_set_checks_columns_when_given_n():
    assert SampleSet(((0, 0), (1, 3)), m=2, budget=2).n is None
    assert SampleSet(((0, 0), (1, 2)), m=2, budget=2, n=3).n == 3
    with pytest.raises(ValueError, match=r"pair \(1, 3\) outside the 2x3 grid"):
        SampleSet(((0, 0), (1, 3)), m=2, budget=2, n=3)


def test_argmax_abs_tied_prefers_lowest():
    v = np.array([0.5, -0.50004, 0.49999])
    # indices 0..2 are all within 1e-4 of the max magnitude
    assert argmax_abs_tied(v, np.arange(3), tie_tol=1e-4) == 0
    assert argmax_abs_tied(v, np.arange(3), tie_tol=1e-9) == 1


# ---------------------------------------------------------------------- GCS


def test_gcs_empty_budget():
    op = ProductOperator(path_graph(3), path_graph(2), 0.1, 0.1)
    ss, state = gcs_sample(op, 0)
    assert len(ss) == 0
    assert state.iter_counts == []


def test_gcs_first_pick_is_linear_zero():
    # no samples yet: phi is constant, all magnitudes tie, lowest index wins
    for seed in range(3):
        op = ProductOperator(random_graph(4, seed), random_graph(3, 10 + seed),
                             0.1, 0.1)
        ss, _ = gcs_sample(op, 1, opts=SolverOptions(seed=seed))
        assert ss.pairs[0] == (0, 0)


def test_samplers_warm_start_with_the_exact_image(monkeypatch):
    # A warm start carries the previous solve's image plus the new diagonal
    # term, which equals a fresh application bit for bit (GCS and IGCS).
    real = sampling.lobpcg_smallest
    exact = []

    def spy(apply, x0, opts, precond, image=None):
        if image is not None:
            exact.append(np.array_equal(image, apply(x0)))
        return real(apply, x0, opts, precond, image)

    monkeypatch.setattr(sampling, "lobpcg_smallest", spy)
    d = synthetic_netflix(12, 9, 2, 2, seed=1, p_in=0.8, p_out=0.1)
    gcs_sample(ProductOperator(d.row_graph, d.col_graph, 1.0, 0.5), 10)
    assert len(exact) == 9
    igcs_sample(d.row_graph, d.col_graph, 1.0, 0.5, zeta=3, K=12)
    assert len(exact) > 9 and all(exact)


def test_samplers_start_fresh_once_per_streak(monkeypatch):
    # A solve with no image starts from a random vector: GCS does so at step 0
    # only, or at every step without warm starts; IGCS at the start of each
    # streak, i.e. each run of picks in one (mode, block), a streak cut short
    # by an exhausted block included.
    real = sampling.lobpcg_smallest
    fresh = []

    def spy(apply, x0, opts, precond, image=None):
        fresh.append(image is None)
        return real(apply, x0, opts, precond, image)

    monkeypatch.setattr(sampling, "lobpcg_smallest", spy)
    d = synthetic_netflix(60, 40, 3, 3, noise_sigma=0.6, seed=5)
    allowed = np.random.default_rng(5).choice(60 * 40, size=300, replace=False)
    _, state = igcs_sample(d.row_graph, d.col_graph, 1.0, 0.5, q=0.3, zeta=3, K=120,
                           allowed=allowed, opts=SolverOptions(seed=5))
    streaks = 1 + sum(a[:2] != b[:2] for a, b in zip(state.steps, state.steps[1:]))
    assert len(fresh) == 120 and sum(fresh) == streaks == 42
    op = ProductOperator(d.row_graph, d.col_graph, 1.0, 0.5)
    for warm_start, want in ((True, 1), (False, 15)):
        fresh.clear()
        gcs_sample(op, 15, allowed=allowed, warm_start=warm_start)
        assert len(fresh) == 15 and sum(fresh) == want


def test_samplers_build_no_image_for_a_fresh_start(monkeypatch):
    # A step that starts from a random vector takes no image, so the loop
    # never reads the last pair's: GCS without warm starts, and IGCS with
    # zeta=1, whose every step starts a streak, in x and in eigen coordinates.
    real = sampling.lobpcg_smallest
    monkeypatch.setattr(sampling, "lobpcg_smallest",
                        lambda *args: dataclasses.replace(real(*args), image=None))
    d = synthetic_netflix(12, 9, 2, 2, seed=1, p_in=0.8, p_out=0.1)
    gcs_sample(ProductOperator(d.row_graph, d.col_graph, 1.0, 0.5), 10, warm_start=False)
    for cap in (graphs.FAST_DIAG_CAP, 0):
        monkeypatch.setattr(graphs, "FAST_DIAG_CAP", cap)
        igcs_sample(d.row_graph, d.col_graph, 1.0, 0.5, zeta=1, K=12)


@pytest.mark.parametrize("r", [0, 1, 5, 25])
def test_igcs_block_in_eigen_coordinates_matches_x_coordinates(r):
    # One block w_diag * diag(sampled) + w_lap * L, solved in the factor's
    # eigenbasis and on x with the fast-diagonalization inverse, from
    # the same start: the same iterations and, mapped back, the same |phi|.
    # r = 25 of 30 applies the sampled term through the 5 unsampled rows.
    G = synthetic_netflix(30, 20, 2, 2, seed=3).row_graph
    rng = np.random.default_rng(r)
    sampled = np.zeros(G.n, dtype=bool)
    sampled[rng.choice(G.n, r, replace=False)] = True
    w_diag, w_lap = 0.4, 1.5
    diag = w_diag * sampled
    x0 = random_unit(rng, G.n)
    ref = lobpcg_smallest(lambda v: w_lap * (G.laplacian @ v) + diag * v, x0, SolverOptions(),
                          fast_diag_inverse(G, trivial_graph(), w_lap, 0.0, diag))
    apply, precond, U = sampling._block(G, w_diag, w_lap, sampled)
    pair = lobpcg_smallest(apply, U.T @ x0, SolverOptions(), precond)
    assert ref.converged and pair.converged
    assert pair.iterations == ref.iterations
    assert np.abs(np.abs(U @ pair.vec) - np.abs(ref.vec)).max() <= 1e-12


def test_unconverged_solve_names_sampler_step_once(monkeypatch):
    # With one LOBPCG iteration allowed, the first solve fails; each sampler
    # raises after that one solve, naming itself and its step exactly once.
    real = sampling.lobpcg_smallest
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sampling, "lobpcg_smallest", spy)
    d = synthetic_netflix(30, 20, 2, 2, seed=1)
    op = ProductOperator(d.row_graph, d.col_graph, 1.0, 1.0)
    opts = SolverOptions(max_iter=1)
    basis = bandlimited_basis(d.row_graph, d.col_graph, 2, 2)
    runs = [(lambda: gcs_sample(op, 3, opts=opts), "GCS product 0 (pick 0)",
             ["product", "pick"]),
            (lambda: aopt_local_search(basis, op, 3, 2, opts=opts), "A-opt product 0 (pick 0)",
             ["product", "pick"]),
            (lambda: igcs_sample(d.row_graph, d.col_graph, 1.0, 1.0, K=3, opts=opts),
             "IGCS cluster 0 (pick 0)", ["cluster", "pick"])]
    for run, what, words in runs:
        calls.clear()
        with pytest.raises(ConvergenceError) as exc:
            run()
        msg = str(exc.value)
        assert msg.startswith(f"{what}: eigensolver did not converge"), msg
        assert all(msg.count(w) == 1 for w in words), msg
        assert len(calls) == 1


def test_gcs_matches_dense_reference():
    op = ProductOperator(path_graph(3), path_graph(2), 0.1, 0.1)
    ss, _ = gcs_sample(op, 3)
    assert list(ss.pairs) == reference_gcs(op, 3)


def test_gcs_matches_dense_reference_random_instances():
    for seed in range(5):
        op = ProductOperator(random_graph(4, seed), random_graph(4, 50 + seed),
                             0.2, 0.15)
        ss, _ = gcs_sample(op, 6, opts=SolverOptions(seed=seed))
        assert list(ss.pairs) == reference_gcs(op, 6)


def test_gcs_deterministic():
    op = ProductOperator(random_graph(5, 0), random_graph(4, 1), 0.1, 0.1)
    a, sa = gcs_sample(op, 5, opts=SolverOptions(seed=7))
    b, sb = gcs_sample(op, 5, opts=SolverOptions(seed=7))
    assert a.pairs == b.pairs
    assert sa.iter_counts == sb.iter_counts


def test_gcs_does_not_mutate_caller():
    op = ProductOperator(path_graph(3), path_graph(3), 0.1, 0.1)
    gcs_sample(op, 2)
    assert op.sample_diag.sum() == 0.0


def test_gcs_lambda_min_monotone_below_one():
    op = ProductOperator(random_graph(4, 2), random_graph(3, 3), 0.1, 0.1)
    ss, _ = gcs_sample(op, 6)
    probe = op.copy()
    prev = dense_lambda_min(probe)
    for (i, j) in ss.pairs:
        probe.sample_diag[i + probe.m * j] = 1.0
        lam = dense_lambda_min(probe)
        assert lam >= prev - 1e-10
        assert lam < 1.0
        prev = lam


def test_gcs_respects_allowed_mask():
    op = ProductOperator(path_graph(3), path_graph(2), 0.1, 0.1)
    ss, _ = gcs_sample(op, 3, allowed=np.array([2, 3, 5]))
    assert set(ss.linear) == {2, 3, 5}


def test_gcs_budget_over_pool():
    op = ProductOperator(path_graph(2), path_graph(2), 0.1, 0.1)
    with pytest.raises(ValueError):
        gcs_sample(op, 5)


def test_gcs_cold_start_same_picks():
    op = ProductOperator(path_graph(3), path_graph(2), 0.1, 0.1)
    warm, _ = gcs_sample(op, 3, warm_start=True)
    cold, _ = gcs_sample(op, 3, warm_start=False)
    assert warm.pairs == cold.pairs


def test_gcs_resumes_from_preloaded_diag():
    op = ProductOperator(path_graph(3), path_graph(2), 0.1, 0.1)
    diag = np.zeros(6)
    diag[0] = 1.0
    op2 = ProductOperator(op.row_graph, op.col_graph, 0.1, 0.1, diag)
    ss, _ = gcs_sample(op2, 2)
    assert 0 not in ss.linear


# GCS where the fast-diagonalization rule (EigenbasisOperator.preconditioned)
# turns off mid-run, so the warm start crosses from preconditioned to plain
# solves: check [12]'s seed-0 input, and `gen --seed 1`'s 60x40 input at
# alpha = beta = 0.01. Per case: the first pick solved without the
# preconditioner, the SHA-256 of the picks as JSON, the LOBPCG iterations of
# every pick up to one past that switch, and the SHA-256 of all step records
# with the iteration total. Recorded with the solves preconditioned on x.
# The 60x40 input's counts past pick 50 follow rounding: there, scaling the
# switching pick's start by 1 + 1e-15 noise changes them from pick 51 on,
# and the total from 11,491 to 11,495, so they are not pinned.
SWITCH_GOLDEN = {
    "check-12": (12, "ce5ba3e65f5e79702ff5b431a16680879e595a74c2b564f619376988a5fc0653",
                 [4, 3, 6, 7, 7, 8, 9, 10, 10, 10, 10, 10, 34, 32],
                 ("94a3aefb3dced1d910876933198d3ca2b4037f1982012240909c9a8345cd634a", 3049)),
    "gen-60x40": (25, "9ee755efacb96e78d786509be5d8d1345ad69b9420c8512ace3bc312e2e0244f",
                  [4, 3, 6, 9, 9, 9, 10, 14, 15, 15, 18, 17, 16, 20, 21, 24, 24, 25, 29, 28,
                   28, 26, 28, 26, 28, 50, 50], None),
}


@pytest.mark.parametrize("case", sorted(SWITCH_GOLDEN))
def test_gcs_picks_golden_across_the_preconditioner_switch(case):
    d, alpha, K = {
        "check-12": (synthetic_netflix(30, 20, 3, 3, seed=0, p_in=0.6, p_out=0.05), 0.1, 100),
        "gen-60x40": (synthetic_netflix(60, 40, 4, 4, seed=1, p_in=0.3, p_out=0.01), 0.01, 240),
    }[case]
    op = ProductOperator(d.row_graph, d.col_graph, alpha, alpha)
    ss, state = gcs_sample(op, K, opts=SolverOptions(seed=0))
    eig = op.eigenbasis()
    on = [eig.preconditioned]
    for k in ss.linear.tolist():
        eig.add(k)
        on.append(eig.preconditioned)
    switch = on.index(False)
    assert not any(on[switch:])
    sha = lambda v: hashlib.sha256(json.dumps(v).encode()).hexdigest()
    switch_golden, picks_sha, iters, full = SWITCH_GOLDEN[case]
    assert (switch, sha(ss.linear.tolist())) == (switch_golden, picks_sha)
    assert state.iter_counts[:switch + 2] == iters
    if full is not None:
        assert (sha(state.steps), sum(state.iter_counts)) == full


# --------------------------------------------------------------------- IGCS


def test_igcs_first_pick():
    ss, _ = igcs_sample(path_graph(4), path_graph(3), 0.1, 0.1, K=1)
    assert ss.pairs == ((0, 0),)


def test_igcs_defaults_accepted():
    ss, state = igcs_sample(path_graph(4), path_graph(3), 0.1, 0.1, K=4)
    assert len(ss) == 4
    assert len(state.iter_counts) == 4


def test_igcs_validates_parameters():
    rg, cg = path_graph(3), path_graph(3)
    with pytest.raises(ValueError):
        igcs_sample(rg, cg, 0.1, 0.1, q=0.0, K=1)
    with pytest.raises(ValueError):
        igcs_sample(rg, cg, 0.1, 0.1, zeta=0, K=1)
    with pytest.raises(ValueError):
        igcs_sample(rg, cg, 0.1, 0.1, K=10)


def test_igcs_trace_matches_hand_simulation():
    # 4x3, zeta=2, K=6, dense-eig reimplementation of the block alternation
    rg, cg = random_graph(4, 11), random_graph(3, 12)
    q, alpha, beta, zeta, K = 0.5, 0.1, 0.1, 2, 6
    Lr, Lc = rg.laplacian.toarray(), cg.laplacian.toarray()

    sampled = np.zeros((4, 3), dtype=bool)
    mode, block, streak = "cluster", 0, 0
    steps = []
    pairs = []
    while len(pairs) < K:
        if mode == "cluster":
            avail = ~sampled[:, block]
            M = q * np.diag(sampled[:, block].astype(float)) + alpha * Lr
        else:
            avail = ~sampled[block, :]
            M = (1 - q) * np.diag(sampled[block, :].astype(float)) + beta * Lc
        if not avail.any():
            block = (block + 1) % (3 if mode == "cluster" else 4)
            streak = 0
            continue
        streak += 1
        _, vecs = np.linalg.eigh(M)
        phi = vecs[:, 0]
        cand = np.flatnonzero(avail)
        mags = np.abs(phi[cand])
        k = int(cand[np.flatnonzero(mags >= mags.max() - TIE)[0]])
        entry = (k, block) if mode == "cluster" else (block, k)
        sampled[entry] = True
        pairs.append(entry)
        steps.append((mode, block, k))
        if streak >= zeta:
            mode = "group" if mode == "cluster" else "cluster"
            block, streak = k, 0

    ss, state = igcs_sample(rg, cg, alpha, beta, q=q, zeta=zeta, K=K)
    assert list(ss.pairs) == pairs
    assert [step[:3] for step in state.steps] == steps


def test_igcs_strict_alternation_zeta_one():
    ss, state = igcs_sample(path_graph(4), path_graph(4), 0.1, 0.1, zeta=1, K=6)
    modes = [mode for mode, *_ in state.steps]
    assert modes == ["cluster", "group", "cluster", "group", "cluster", "group"]
    # each switch lands on the block of the previous pick
    for prev, cur in zip(state.steps, state.steps[1:]):
        assert cur[1] == prev[2]


def test_igcs_exhausts_pool():
    ss, _ = igcs_sample(path_graph(3), path_graph(2), 0.1, 0.1, zeta=2, K=6)
    assert len(ss) == 6
    assert set(ss.linear) == set(range(6))


def test_igcs_deterministic():
    rg, cg = random_graph(5, 20), random_graph(4, 21)
    a, _ = igcs_sample(rg, cg, 0.1, 0.1, zeta=2, K=8, opts=SolverOptions(seed=3))
    b, _ = igcs_sample(rg, cg, 0.1, 0.1, zeta=2, K=8, opts=SolverOptions(seed=3))
    assert a.pairs == b.pairs


# The picks, the sha256 of the JSON of the IGCS step records' (mode, block,
# index) and the LOBPCG iteration total on a 60x40 instance with a seeded
# 300-entry allowed pool. IGCS runs out of blocks four times there, wrapping
# once from the last cluster to cluster 0.
POOL_GOLDEN = {
    "igcs": ([2, 47, 38, 998, 518, 698, 661, 705, 680, 1280, 2360, 1520, 1545, 1526,
              1529, 809, 1409, 690, 930, 2130, 2111, 2154, 2132, 1592, 92, 2372,
              2357, 2368, 31, 6, 27, 1287, 1887, 1107, 1085, 1138, 1090, 430, 1930,
              790, 831, 792, 817, 1417, 277, 637, 602, 640, 624, 1464, 1644, 924,
              909, 958, 952, 352, 1912, 532, 499, 489, 515, 875, 2315, 335, 319, 351,
              315, 915, 2235, 255, 242, 262, 246, 1146, 1446, 726, 743, 775, 737,
              1877, 2177, 437, 454, 475, 441, 81, 1162, 1882, 1342, 1323, 1367, 1327,
              1627, 1687, 1747, 1787, 1773, 1751, 1391, 1031, 1631, 1667, 1668, 1632,
              1872, 1692, 1752, 1780, 1790, 1750, 1690, 130, 370, 401, 385, 362,
              1862, 2163, 1023, 1263],
             "587245076da3282016a8dcddfd1de0f468c2d2eafc29f05e0a68aa850ca01356", 809),
    "gcs": ([2, 841, 26, 872, 831, 1146, 1621, 1667, 91, 924, 1681, 130, 882, 475,
             1263, 1804, 1730, 168, 1122, 432, 1773, 1162, 1857, 262, 1031, 315, 1751,
             952, 401, 1882, 1206, 553, 1974, 1422, 726, 2003, 345, 1107, 1644, 637],
            286),
    "aopt": [65, 909, 95, 930, 1631, 1667, 1138, 168, 1826, 262, 1391, 1773, 432,
             1180, 1734, 351, 999, 1692, 362, 1031],
}


def test_sampler_picks_golden_with_allowed_pool():
    d = synthetic_netflix(60, 40, 3, 3, noise_sigma=0.6, seed=5)
    allowed = np.random.default_rng(5).choice(60 * 40, size=300, replace=False)
    opts = SolverOptions(seed=5)
    ss, state = igcs_sample(d.row_graph, d.col_graph, 1.0, 0.5, q=0.3, zeta=3, K=120,
                            allowed=allowed, opts=opts)
    steps_hash = hashlib.sha256(json.dumps([s[:3] for s in state.steps]).encode()).hexdigest()
    assert (ss.linear.tolist(), steps_hash, sum(state.iter_counts)) == POOL_GOLDEN["igcs"]
    runs = [(ss, state)]
    op = ProductOperator(d.row_graph, d.col_graph, 1.0, 0.5)
    ss, state = gcs_sample(op, 40, allowed=allowed, opts=opts, warm_start=False)
    assert (ss.linear.tolist(), sum(state.iter_counts)) == POOL_GOLDEN["gcs"]
    runs.append((ss, state))
    basis = bandlimited_basis(d.row_graph, d.col_graph, 3, 3)
    ss, state = greedy_disc_shift(op, 20, aopt_pick(basis, 10), "A-opt", allowed, opts)
    assert ss.linear.tolist() == POOL_GOLDEN["aopt"]
    runs.append((ss, state))
    # Every greedy sampler keeps one (mode, block, index, iterations) record
    # per pick, and iter_counts is its iteration column; GCS and A-opt solve
    # the one block ("product", 0), where the index is the linear pick.
    for ss, state in runs:
        assert len(state.steps) == len(ss) and state.iter_counts == [s[3] for s in state.steps]
    for ss, state in runs[1:]:
        assert [s[:3] for s in state.steps] == [("product", 0, k) for k in ss.linear.tolist()]


# IGCS on 30x20 with the preconditioner's factor cap lowered to 25: the 30-node
# cluster blocks run unpreconditioned in x coordinates and the 20-node group
# blocks preconditioned. Picks, the SHA-256 of the step records' (mode, block,
# index) as JSON and the LOBPCG iteration total, per zeta.
CAP_GOLDEN = {
    1: ([0, 300, 323, 293, 283, 313, 320, 290, 278, 308, 324, 294, 284, 314, 327, 297,
         270, 450, 473, 113, 103, 463, 470, 110, 98, 458, 474, 114, 104, 464, 477, 117,
         90, 390, 413, 143, 133, 403, 410, 140, 128, 398, 414, 144, 134, 404, 417, 147,
         120, 420, 443, 53, 43, 433, 440, 50, 38, 428, 444, 54],
        "a5ab259d90ab0974aaae163aa2961b02d84663458d0e8c29ed9e0a24e649ec0c", 1539),
    3: ([0, 23, 11, 311, 461, 281, 293, 284, 290, 320, 470, 110, 103, 104, 113, 323, 473,
         413, 403, 404, 410, 140, 440, 50, 43, 44, 53, 443, 503, 233, 223, 224, 230, 500,
         200, 590, 583, 584, 593, 203, 533, 83, 73, 74, 80, 380, 260, 560, 553, 554, 563,
         383, 173, 263, 253, 248, 254, 314, 434, 464],
        "b0e530d45b93708fba32b08f09bfd22e8d8c2ae8971d8cea0576f31752aa28bc", 1170),
}


@pytest.mark.parametrize("zeta", sorted(CAP_GOLDEN))
def test_igcs_picks_golden_across_the_factor_cap(monkeypatch, zeta):
    monkeypatch.setattr(graphs, "FAST_DIAG_CAP", 25)
    d = synthetic_netflix(30, 20, 2, 2, noise_sigma=0.6, seed=3)
    ss, state = igcs_sample(d.row_graph, d.col_graph, 1.0, 0.5, q=0.4, zeta=zeta, K=60,
                            opts=SolverOptions(seed=3))
    assert {mode for mode, *_ in state.steps} == {"cluster", "group"}
    steps_hash = hashlib.sha256(json.dumps([s[:3] for s in state.steps]).encode()).hexdigest()
    assert (ss.linear.tolist(), steps_hash, sum(state.iter_counts)) == CAP_GOLDEN[zeta]


# ------------------------------------------------------------------- random


def test_random_exhaustive():
    ss = random_sample(2, 3, 6, seed=0)
    assert set(ss.linear) == set(range(6))


def test_random_deterministic():
    a = random_sample(5, 5, 10, seed=42)
    b = random_sample(5, 5, 10, seed=42)
    assert a.pairs == b.pairs


def test_random_respects_allowed():
    allowed = np.array([0, 3, 7])
    ss = random_sample(4, 2, 2, seed=1, allowed=allowed)
    assert set(ss.linear) <= {0, 3, 7}


def test_allowed_indices_outside_grid_rejected():
    for bad in ([-1], [6], [0, 7]):
        with pytest.raises(ValueError, match=rf"allowed index {bad[-1]} outside \[0, 6\)"):
            random_sample(2, 3, 1, allowed=bad)


def test_allowed_must_be_integer_indices():
    # Fractional indices used to be truncated ([0.5] allowed entry 0) and a
    # boolean mask was read as a mask; both are rejected now.
    for bad in ([0.5], [0.2, 0.7], [5.0], np.ones(6, dtype=bool)):
        with pytest.raises(ValueError, match="allowed must be integer linear indices"):
            random_sample(2, 3, 1, allowed=bad)
    with pytest.raises(ValueError, match="exceeds available pool 0"):
        random_sample(2, 3, 1, allowed=[])
    assert random_sample(2, 3, 1, allowed=np.array([4], dtype=np.uint8)).linear.tolist() == [4]


def test_random_over_budget():
    with pytest.raises(ValueError):
        random_sample(2, 2, 5, seed=0)


def sampler_set(method, K, allowed=None, initial=None):
    """The SampleSet of one sampler on 6x4 path graphs; initial, the 0/1
    diagonal of entries already observed, is for GCS and A-opt."""
    Gr, Gc = path_graph(6), path_graph(4)
    op = ProductOperator(Gr, Gc, 1.0, 1.0, initial)
    if method == "gcs":
        return gcs_sample(op, K, allowed=allowed)[0]
    if method == "aopt":
        return aopt_local_search(bandlimited_basis(Gr, Gc, 2, 2), op, K, 3, allowed=allowed)
    if method == "igcs":
        return igcs_sample(Gr, Gc, 1.0, 1.0, K=K, allowed=allowed)[0]
    return random_sample(6, 4, K, allowed=allowed)


@pytest.mark.parametrize("method", ["gcs", "aopt", "igcs", "random"])
def test_sampler_sets_record_their_grid(method):
    ss = sampler_set(method, 5)
    assert (ss.m, ss.n, len(ss)) == (6, 4, 5)


@pytest.mark.parametrize("method", ["gcs", "aopt", "igcs", "random"])
def test_every_sampler_raises_the_same_budget_error(method):
    # A pool of 2: two allowed entries, or, where the sampler takes observed
    # entries, four allowed of which two are already observed.
    if method in ("gcs", "aopt"):
        initial = np.zeros(24)
        initial[[0, 1]] = 1.0
        args = dict(allowed=[0, 1, 2, 3], initial=initial)
    else:
        args = dict(allowed=[0, 1])
    with pytest.raises(ValueError, match=r"^budget 3 exceeds available pool 2$"):
        sampler_set(method, 3, **args)
    with pytest.raises(ValueError, match=r"^budget -1 is negative$"):
        sampler_set(method, -1, **args)


def test_random_roughly_uniform():
    # 10,000 single draws from 4 cells; each count near 2500 within 3 sigma
    counts = np.zeros(4)
    for s in range(10000):
        ss = random_sample(2, 2, 1, seed=s)
        counts[ss.linear[0]] += 1
    sigma = np.sqrt(10000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)


# ------------------------------------------------------------- exact greedy


def test_oracle_empty_budget():
    op = ProductOperator(path_graph(3), path_graph(2), 0.1, 0.1)
    ss, trace = exact_greedy_oracle(op, 0)
    assert len(ss) == 0 and trace == []


def test_oracle_trace_monotone():
    op = ProductOperator(random_graph(4, 30), random_graph(3, 31), 0.1, 0.1)
    _, trace = exact_greedy_oracle(op, 6)
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_oracle_first_step_dominates_any_pick():
    # step 1 is provable: the exact maximizer beats every single addition
    for seed in range(8):
        op = ProductOperator(random_graph(4, 60 + seed), random_graph(3, 90 + seed),
                             0.1, 0.1)
        _, trace = exact_greedy_oracle(op, 1)
        ss, _ = gcs_sample(op, 1)
        probe = op.copy()
        probe.sample_diag[ss.linear[0]] = 1.0
        assert trace[0] >= dense_lambda_min(probe) - 1e-9


def test_oracle_dominates_gcs_per_step():
    # later prefixes can fall behind in general (greedy myopia); on this
    # fixed mn=12 path-product instance dominance holds at every step
    op = ProductOperator(path_graph(4), path_graph(3), 1.0, 1.0)
    _, trace = exact_greedy_oracle(op, 5)
    ss, _ = gcs_sample(op, 5)
    probe = op.copy()
    for t, (i, j) in enumerate(ss.pairs):
        probe.sample_diag[i + probe.m * j] = 1.0
        assert trace[t] >= dense_lambda_min(probe) - 1e-9


def test_oracle_cap():
    op = ProductOperator(path_graph(10), path_graph(10), 0.1, 0.1)
    with pytest.raises(ValueError):
        exact_greedy_oracle(op, 1)


# ------------------------------------------------------------ lambda bound


def test_lambda_max_bound_paths():
    assert lambda_max_bound(path_graph(3), path_graph(2), 0.1, 0.1) == pytest.approx(1.6)


def test_lambda_max_bound_edgeless():
    e3 = laplacian_from_weights(SparseSym.from_dense(np.zeros((3, 3))))
    e2 = laplacian_from_weights(SparseSym.from_dense(np.zeros((2, 2))))
    assert lambda_max_bound(e3, e2, 0.5, 0.5) == 1.0


def test_lambda_max_bound_sound():
    rng = np.random.default_rng(40)
    for trial in range(50):
        rg = random_graph(int(rng.integers(2, 6)), int(rng.integers(0, 10000)))
        cg = random_graph(int(rng.integers(2, 6)), int(rng.integers(0, 10000)))
        size = rg.n * cg.n
        diag = (rng.random(size) < rng.random()).astype(np.float64)
        alpha, beta = rng.uniform(0.05, 1.0, 2)
        op = ProductOperator(rg, cg, alpha, beta, diag)
        lam_max = float(np.linalg.eigvalsh(product_dense(op))[-1])
        assert lam_max <= lambda_max_bound(rg, cg, alpha, beta) + 1e-10


# -------------------------------------------------------------- persistence


def test_sample_set_roundtrip(tmp_path):
    ss = SampleSet(((0, 0), (2, 1), (1, 1)), m=3, budget=3)
    path = tmp_path / "s.csv"
    save_sample_set(ss, path, meta={"method": "gcs", "seed": 0, "alpha": 0.1,
                                    "beta": 0.1, "wall_time_seconds": 0.5})
    loaded, meta = load_sample_set(path, m=3, n=2)
    assert loaded.pairs == ss.pairs
    assert meta["method"] == "gcs"
    assert meta["K"] == 3
    assert meta["q"] is None
    assert (tmp_path / "s.json").exists()


def test_sample_set_load_without_sidecar(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("row,col\n1,2\n0,0\n")
    ss, meta = load_sample_set(path, m=2, n=3)
    assert ss.pairs == ((1, 2), (0, 0))
    assert meta == {}


def test_sample_set_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("row,col\nx,y\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load_sample_set(path, m=2, n=2)

