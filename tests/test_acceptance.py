"""Release acceptance gate.

Fourteen numbered checks covering eigenvalue-bound soundness, greedy sampler
behaviour, solver accuracy, the reconstruction error bound, end-to-end RMSE
ordering on synthetic data, and the bandlimited extension. Each check prints
one PASS/FAIL line; conftest echoes the collected lines into the terminal
summary so they survive output capture.

The checks are intentionally self-contained: every reference value comes
from a dense eigensolve, a materialized Kronecker product, or an exhaustive
search written out here, never from the code under test.
"""

import time

import numpy as np

from discshift.bandlimited import (
    aopt_local_search,
    aopt_objective,
    bandlimited_basis,
    bandlimited_reconstruct,
)
from discshift.completion import (
    CompletionProblem,
    dglr_gradient,
    dglr_objective,
    dglr_solve,
    mse_upper_bound,
    rmse_eval,
)
from discshift.graphs import (
    ProductOperator,
    RatingMatrix,
    community_graph,
    laplacian_from_weights,
    product_dense,
    synthetic_netflix,
    trivial_graph,
)
from discshift.linalg import (
    SolverOptions,
    SparseSym,
    cg_solve,
    gershgorin_bounds,
    lobpcg_smallest,
)
from discshift.sampling import (
    SampleSet,
    gcs_sample,
    igcs_sample,
    lambda_max_bound,
    random_sample,
)
from oracles import exact_greedy_oracle

RESULTS = []


def _report(num, name, ok, detail):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line, flush=True)
    return ok


def random_graph(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    while True:
        W = np.triu((rng.random((n, n)) < p) * rng.uniform(0.5, 1.5, (n, n)), 1)
        G = laplacian_from_weights(SparseSym.from_dense(W + W.T))
        if G.n_components() == 1:
            return G


def random_operator(rng, m_hi, n_hi, shifted="some"):
    """Random connected dual-graph operator, optionally with unit shifts."""
    m = int(rng.integers(2, m_hi + 1))
    n = int(rng.integers(2, n_hi + 1))
    op = ProductOperator(random_graph(m, int(rng.integers(1e6))),
                         random_graph(n, int(rng.integers(1e6))),
                         float(rng.uniform(0.1, 2.0)),
                         float(rng.uniform(0.1, 2.0)))
    if shifted == "some":
        k = int(rng.integers(0, m * n // 2 + 1))
        for l in rng.choice(m * n, size=k, replace=False):
            op.sample_diag[l] += 1.0
    return op, m, n


def test_01_gershgorin_lower_bound_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = np.inf
    for _ in range(500):
        n = int(rng.integers(2, 21))
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        centers, radii = gershgorin_bounds(SparseSym.from_dense(A))
        lo = np.min(centers - radii)
        lam = np.linalg.eigvalsh(A)[0]
        worst = min(worst, lam - lo)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 10.0
    assert _report(1, "gershgorin lower bound sound on 500 random matrices",
                   ok, f"min margin {worst:.2e}, {elapsed:.1f}s")


def test_02_greedy_energy_stays_on_unsampled():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    steps = 0
    for run in range(50):
        op, m, n = random_operator(rng, 8, 6, shifted="none")
        while m * n > 48:
            op, m, n = random_operator(rng, 8, 6, shifted="none")
        K = min(8, m * n - 1)
        ss, _ = gcs_sample(op, K, opts=SolverOptions(seed=run))
        work = op.copy()
        prev = -np.inf
        sampled = []
        for (i, j) in ss.pairs:
            work.sample_diag[i + m * j] += 1.0
            sampled.append(i + m * j)
            w, V = np.linalg.eigh(product_dense(work))
            phi = np.abs(V[:, 0])
            mask = np.zeros(m * n, dtype=bool)
            mask[sampled] = True
            if not phi[mask].max() < phi[~mask].max() + 1e-9:
                violations += 1
            if not (w[0] < 1.0 and w[0] >= prev - 1e-12):
                violations += 1
            prev = w[0]
            steps += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    assert _report(2, "sampled energy below unsampled at every greedy step",
                   ok, f"{steps} steps over 50 runs, {violations} violations, "
                       f"{elapsed:.1f}s")


def test_03_unit_shift_eigenvalue_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_lo = worst_hi = np.inf
    for _ in range(100):
        op, m, n = random_operator(rng, 5, 5)
        Q = product_dense(op)
        w, V = np.linalg.eigh(Q)
        lam0, phi = w[0], V[:, 0]
        i = int(rng.integers(m * n))
        B = Q.copy()
        B[i, i] += 1.0
        wb, Vb = np.linalg.eigh(B)
        beta0, psi = wb[0], Vb[:, 0]
        worst_lo = min(worst_lo, beta0 - (lam0 + psi[i] ** 2))
        worst_hi = min(worst_hi, (lam0 + phi[i] ** 2) - beta0)
    elapsed = time.perf_counter() - t0
    ok = worst_lo >= -1e-8 and worst_hi >= -1e-8 and elapsed < 30.0
    assert _report(3, "shifted eigenvalue sandwiched by eigenvector entries",
                   ok, f"100 pairs, min slacks {worst_lo:.1e}/{worst_hi:.1e}, "
                       f"{elapsed:.1f}s")


def test_04_small_shift_argmax_matches_eigenvector():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    delta = 1e-6
    matches = 0
    count = 0
    while count < 100:
        op, m, n = random_operator(rng, 4, 4)
        Q = product_dense(op)
        w, V = np.linalg.eigh(Q)
        phi = np.abs(V[:, 0])
        srt = np.sort(phi)
        if srt[-1] - srt[-2] <= 1e-4:
            continue
        count += 1
        lam = np.empty(m * n)
        for i in range(m * n):
            Qi = Q.copy()
            Qi[i, i] += delta
            lam[i] = np.linalg.eigvalsh(Qi)[0]
        matches += int(np.argmax(lam)) == int(np.argmax(phi))
    elapsed = time.perf_counter() - t0
    ok = matches >= 95 and elapsed < 60.0
    assert _report(4, "tiny-shift argmax agrees with eigenvector magnitude",
                   ok, f"{matches}/100 matched, {elapsed:.1f}s")


def test_05_largest_eigenvalue_degree_bound():
    rng = np.random.default_rng(5)
    worst = np.inf
    violations = 0
    for _ in range(50):
        op, m, n = random_operator(rng, 6, 6)
        op.sample_diag[:] = np.minimum(op.sample_diag, 1.0)
        bound = lambda_max_bound(op.row_graph, op.col_graph, op.alpha, op.beta)
        lam_max = np.linalg.eigvalsh(product_dense(op))[-1]
        worst = min(worst, bound - lam_max)
        violations += lam_max > bound
    ok = violations == 0
    assert _report(5, "largest eigenvalue within the degree bound", ok,
                   f"50 instances, 0 violations required, got {violations}, "
                   f"min margin {worst:.2e}")


def test_06_split_superadditivity_and_permutation_similarity():
    rng = np.random.default_rng(6)
    worst = np.inf
    for _ in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        rg = random_graph(m, int(rng.integers(1e6)))
        cg = random_graph(n, int(rng.integers(1e6)))
        a = float(rng.uniform(0.1, 2))
        b = float(rng.uniform(0.1, 2))
        q = float(rng.uniform(0.05, 0.95))
        s = (rng.random(m * n) < rng.uniform(0.1, 0.9)).astype(float)
        Lr = rg.laplacian.toarray()
        Lc = cg.laplacian.toarray()
        Q = np.diag(s) + a * np.kron(np.eye(n), Lr) + b * np.kron(Lc, np.eye(m))
        Q1 = q * np.diag(s) + a * np.kron(np.eye(n), Lr)
        Q2 = (1 - q) * np.diag(s) + b * np.kron(Lc, np.eye(m))
        gap = (np.linalg.eigvalsh(Q)[0]
               - np.linalg.eigvalsh(Q1)[0] - np.linalg.eigvalsh(Q2)[0])
        worst = min(worst, gap)

    worst_perm = 0.0
    for t in range(5):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        Lc = random_graph(n, 600 + t).laplacian.toarray()
        ev_a = np.sort(np.linalg.eigvalsh(np.kron(Lc, np.eye(m))))
        ev_b = np.sort(np.linalg.eigvalsh(np.kron(np.eye(m), Lc)))
        worst_perm = max(worst_perm, np.abs(ev_a - ev_b).max())
    ok = worst >= -1e-9 and worst_perm <= 1e-8
    assert _report(6, "split eigenvalues superadditive; factor orders commute",
                   ok, f"min split slack {worst:.1e}, "
                       f"max multiset deviation {worst_perm:.1e}")


def test_07_solver_oracles():
    rng = np.random.default_rng(77)
    worst_cg = 0.0
    for t in range(20):
        n = int(rng.integers(5, 31))
        A = rng.normal(size=(n, n))
        A = A @ A.T + n * np.eye(n)
        b = rng.normal(size=n)
        x = cg_solve(lambda v: A @ v, b, SolverOptions(tol=1e-13, seed=t))
        ref = np.linalg.solve(A, b)
        worst_cg = max(worst_cg,
                       np.linalg.norm(x - ref) / np.linalg.norm(ref))

    worst_eig = 0.0
    for t in range(20):
        op, m, n = random_operator(rng, 7, 7)
        op.sample_diag[:] = np.minimum(op.sample_diag, 1.0)
        if not op.sample_diag.any():
            op.sample_diag[0] = 1.0
        lam_ref = np.linalg.eigvalsh(product_dense(op))[0]
        x0 = np.random.default_rng(t).normal(size=m * n)
        pair = lobpcg_smallest(op.apply, x0 / np.linalg.norm(x0),
                               SolverOptions(seed=t))
        worst_eig = max(worst_eig, abs(pair.value - lam_ref))

    worst_kron = 0.0
    for t in range(20):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        rg = random_graph(m, int(rng.integers(1e6)))
        cg = random_graph(n, int(rng.integers(1e6)))
        a = float(rng.uniform(0.1, 2))
        b2 = float(rng.uniform(0.1, 2))
        op = ProductOperator(rg, cg, a, b2)
        op.sample_diag[:] = (rng.random(m * n) < 0.4).astype(float)
        Q = (np.diag(op.sample_diag)
             + a * np.kron(np.eye(n), rg.laplacian.toarray())
             + b2 * np.kron(cg.laplacian.toarray(), np.eye(m)))
        x = rng.normal(size=m * n)
        worst_kron = max(worst_kron, np.abs(op.apply(x) - Q @ x).max())

    ok = worst_cg <= 1e-8 and worst_eig <= 1e-6 and worst_kron <= 1e-12
    assert _report(7, "iterative solvers match dense references", ok,
                   f"cg rel {worst_cg:.1e}, eig abs {worst_eig:.1e}, "
                   f"kron abs {worst_kron:.1e}")


def test_08_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    m, n = 4, 3
    rg, cg = random_graph(m, 80), random_graph(n, 81)
    truth = rng.uniform(1, 5, (m, n))
    omega = random_sample(m, n, 6, seed=8)
    p = CompletionProblem(observations=RatingMatrix.from_dense(truth),
                          omega=omega, row_graph=rg, col_graph=cg,
                          alpha=0.3, beta=0.2)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        X = rng.uniform(0, 5, (m, n))
        g = dglr_gradient(X, p)
        fd = np.zeros_like(X)
        for i in range(m):
            for j in range(n):
                E = np.zeros_like(X)
                E[i, j] = h
                fd[i, j] = (dglr_objective(X + E, p)
                            - dglr_objective(X - E, p)) / (2 * h)
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(g))
    ok = worst <= 1e-5
    assert _report(8, "analytic gradient matches central differences", ok,
                   f"20 points, worst rel err {worst:.1e}")


def test_09_reconstruction_error_bound():
    rng = np.random.default_rng(9)
    worst = np.inf
    for t in range(50):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(3, 7))
        rg = random_graph(m, int(rng.integers(1e6)))
        cg = random_graph(n, int(rng.integers(1e6)))
        a = float(rng.uniform(0.1, 1.5))
        b = float(rng.uniform(0.1, 1.5))
        truth = rng.uniform(1, 5, (m, n))
        noise = rng.normal(0, 0.5, (m, n))
        omega = random_sample(m, n, max(1, m * n // 2), seed=t)
        p = CompletionProblem(
            observations=RatingMatrix.from_dense(truth + noise), omega=omega,
            row_graph=rg, col_graph=cg, alpha=a, beta=b)
        op = ProductOperator(rg, cg, a, b)
        for (i, j) in omega.pairs:
            op.sample_diag[i + m * j] = 1.0
        Q = product_dense(op)
        y = (truth + noise).reshape(-1, order="F")
        x_star = np.linalg.solve(Q, op.sample_diag * y).reshape((m, n),
                                                                order="F")
        lam = np.linalg.eigvalsh(Q)[0]
        rho, bound, actual = mse_upper_bound(x_star, truth, noise, p, lam)
        worst = min(worst, bound - actual)
    ok = worst >= -1e-9
    assert _report(9, "noisy reconstruction error within its bound", ok,
                   f"50 instances, min (bound - error) {worst:.2e}")


def test_10_rmse_ordering_on_synthetic_data():
    t0 = time.perf_counter()
    alpha = beta = 1.0
    M, N = 60, 40
    budgets = [120, 240, 480]
    rmse = {}

    def run_cells(bundle, by_budget, method, noise):
        data = bundle.ratings
        pos = {(int(i), int(j)): p
               for p, (i, j) in enumerate(zip(data.rows, data.cols))}
        for K, pairs in by_budget.items():
            omega = SampleSet(tuple(pairs), m=M, budget=K)
            chosen = set(omega.pairs)
            positions = np.array(sorted(pos[pr] for pr in omega.pairs),
                                 dtype=np.int64)
            prob = CompletionProblem(
                observations=data.subset(positions), omega=omega,
                row_graph=bundle.row_graph, col_graph=bundle.col_graph,
                alpha=alpha, beta=beta)
            rep = dglr_solve(prob, SolverOptions(seed=0),
                             estimate_lambda_min=False)
            held = [(i, j) for i in range(M) for j in range(N)
                    if (i, j) not in chosen]
            rmse.setdefault((noise, method, K), []).append(
                rmse_eval(rep.x_star, bundle.ground_truth, held))

    for seed in range(10):
        clean = synthetic_netflix(M, N, 4, 4, noise_sigma=0.0, seed=seed)
        noisy = synthetic_netflix(M, N, 4, 4, noise_sigma=0.6, seed=seed)
        op = ProductOperator(clean.row_graph, clean.col_graph, alpha, beta)
        gcs_ss, _ = gcs_sample(op, 480, opts=SolverOptions(seed=seed))
        igcs_ss, _ = igcs_sample(clean.row_graph, clean.col_graph, alpha,
                                 beta, q=0.5, zeta=1, K=480,
                                 opts=SolverOptions(seed=seed))
        by_method = {
            "gcs": {K: gcs_ss.pairs[:K] for K in budgets},
            "igcs": {K: igcs_ss.pairs[:K] for K in budgets},
            "random": {K: random_sample(M, N, K, seed=seed).pairs
                       for K in budgets},
        }
        for method, by_budget in by_method.items():
            run_cells(clean, by_budget, method, 0.0)
            run_cells(noisy, by_budget, method, 0.6)

    ordering_ok = True
    worst_ratio = 0.0
    detail_cells = []
    for noise in (0.0, 0.6):
        for K in budgets:
            g = float(np.mean(rmse[(noise, "gcs", K)]))
            i = float(np.mean(rmse[(noise, "igcs", K)]))
            r = float(np.mean(rmse[(noise, "random", K)]))
            ordering_ok &= g < r
            ordering_ok &= abs(i - g) <= 0.1 * g
            worst_ratio = max(worst_ratio, i / g)
            detail_cells.append(f"s={noise} K={K}: {g:.3f}<{r:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ordering_ok and elapsed < 300.0
    assert _report(10, "greedy beats random rmse; block variant stays close",
                   ok, f"{'; '.join(detail_cells)}; "
                       f"worst block/greedy ratio {worst_ratio:.3f}, "
                       f"{elapsed:.0f}s")


def test_11_first_picks_spread_across_communities():
    hits = 0
    for seed in range(10):
        g, labels = community_graph(100, 4, 0.3, 0.01, seed=seed)
        op = ProductOperator(g, trivial_graph(), 1.0, 0.0)
        ss, _ = gcs_sample(op, 4, opts=SolverOptions(seed=seed))
        hits += len({labels[i] for i, _ in ss.pairs}) == 4
    ok = hits >= 8
    assert _report(11, "first four picks land in four communities", ok,
                   f"{hits}/10 seeds (need 8)")


def test_12_warm_start_efficiency():
    warm_wins = 0
    iters = []
    for seed in range(5):
        b = synthetic_netflix(30, 20, 3, 3, seed=seed, p_in=0.6, p_out=0.05)
        op = ProductOperator(b.row_graph, b.col_graph, 0.1, 0.1)
        _, sw = gcs_sample(op, 100, opts=SolverOptions(seed=seed),
                           warm_start=True)
        _, sc = gcs_sample(op, 100, opts=SolverOptions(seed=seed),
                           warm_start=False)
        warm_wins += sum(sw.iter_counts) <= sum(sc.iter_counts)
        iters.append((sum(sw.iter_counts), sum(sc.iter_counts)))

    # Block reuse: IGCS with zeta=7 warm-starts every solve but the first of
    # each 7-pick streak, zeta=1 none. The gate compares their LOBPCG
    # iteration totals, which are deterministic for the seed (16,351 against
    # 21,126), not wall times: a solve in the factor eigenbasis is cheap, so
    # the per-pick work both runs share dominates their times, and the gap
    # between them falls within machine noise. The wall times are printed
    # only. Under a per-pick iteration cap that every solve reaches, both
    # totals equal cap * K and the check fails: it measures iterations saved,
    # and such a cap leaves none to save.
    big = synthetic_netflix(200, 100, 4, 4, seed=0)
    totals, walls = {}, {}
    for zeta in (7, 1):
        t0 = time.perf_counter()
        _, state = igcs_sample(big.row_graph, big.col_graph, 0.1, 0.1, q=0.5,
                               zeta=zeta, K=2000, opts=SolverOptions(seed=0))
        walls[zeta] = time.perf_counter() - t0
        totals[zeta] = sum(state.iter_counts)
    ok = warm_wins >= 4 and totals[7] < totals[1]
    assert _report(12, "warm starts cut solver work", ok,
                   f"warm<=cold on {warm_wins}/5 seeds {iters}; "
                   f"block reuse {totals[7]} < fresh {totals[1]} iterations "
                   f"({walls[7]:.1f}s, {walls[1]:.1f}s)")


def test_13_greedy_tracks_exact_oracle():
    ratios = []
    for s in range(10):
        rg, _ = community_graph(6, 2, 0.9, 0.05, seed=300 + s)
        cg, _ = community_graph(6, 2, 0.9, 0.05, seed=400 + s)
        op = ProductOperator(rg, cg, 1.0, 1.0)
        ss, _ = gcs_sample(op, 5, opts=SolverOptions(seed=s))
        work = op.copy()
        for (i, j) in ss.pairs:
            work.sample_diag[i + 6 * j] += 1.0
        lam = np.linalg.eigvalsh(product_dense(work))[0]
        _, trace = exact_greedy_oracle(op, 5)
        ratios.append(lam / trace[-1])
    ok = min(ratios) >= 0.9
    assert _report(13, "greedy final eigenvalue tracks the exact oracle", ok,
                   f"10 instances, min ratio {min(ratios):.4f}, "
                   f"mean {np.mean(ratios):.4f} (diagnostic)")


def test_14_bandlimited_recovery_and_aopt_match():
    rng = np.random.default_rng(14)
    worst_rec = 0.0
    for t in range(5):
        m, n, k1, k2 = 5, 4, 2, 2
        rg, cg = random_graph(m, 100 + t), random_graph(n, 200 + t)
        basis = bandlimited_basis(rg, cg, k1, k2)
        T = np.kron(basis.U, basis.V)
        signal = T @ rng.normal(size=k1 * k2)
        while True:
            S = np.sort(rng.choice(m * n, size=2 * k1 * k2, replace=False))
            if np.linalg.matrix_rank(T[S]) == k1 * k2:
                break
        x_hat = bandlimited_reconstruct(basis, S, signal[S])
        worst_rec = max(worst_rec, np.abs(x_hat - signal).max())

    def brute_force_greedy(basis, K, mn):
        chosen = []
        for _ in range(K):
            best, best_score = None, np.inf
            for c in range(mn):
                if c in chosen:
                    continue
                sc = aopt_objective(basis, chosen + [c])
                if sc < best_score - 1e-12:
                    best, best_score = c, sc
            chosen.append(best)
        return chosen

    mismatches = 0
    for t in range(4):
        m, n = 4, 4
        rg, cg = random_graph(m, 300 + t), random_graph(n, 400 + t)
        basis = bandlimited_basis(rg, cg, 2, 2)
        op = ProductOperator(rg, cg, 1.0, 1.0)
        ss = aopt_local_search(basis, op, 5, L_pool=m * n)
        got = [i + m * j for (i, j) in ss.pairs]
        if got != brute_force_greedy(basis, 5, m * n):
            mismatches += 1
    ok = worst_rec <= 1e-8 and mismatches == 0
    assert _report(14, "bandlimited recovery exact; pooled search matches "
                       "brute force", ok,
                   f"max recovery err {worst_rec:.1e}, "
                   f"{mismatches}/4 selection mismatches")
