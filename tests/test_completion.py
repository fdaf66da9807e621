"""Tests for the dual-graph completion solver and its diagnostics."""

import csv
import dataclasses
import json
import logging
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components

import discshift.completion as completion
import discshift.sampling as sampling

from discshift.completion import (
    CompletionProblem,
    check_positive_definite,
    dglr_gradient,
    dglr_objective,
    dglr_solve,
    mse_upper_bound,
    rmse_eval,
    save_report,
    write_dense_csv,
)
from discshift.graphs import (
    EigenbasisOperator,
    ProductOperator,
    RatingMatrix,
    laplacian_from_weights,
    product_dense,
    synthetic_netflix,
)
from discshift.linalg import ConvergenceError, SolverOptions, SparseSym
from discshift.sampling import SampleSet, random_sample


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


def full_sample_set(m, n):
    return SampleSet(tuple((i, j) for j in range(n) for i in range(m)),
                     m=m, budget=m * n)


def make_problem(m, n, seed, alpha=0.1, beta=0.1, frac=0.5, noise=0.0):
    rng = np.random.default_rng(seed)
    rg, cg = random_graph(m, seed), random_graph(n, seed + 1000)
    truth = rng.uniform(1.0, 5.0, (m, n))
    omega = random_sample(m, n, max(1, int(frac * m * n)), seed=seed)
    obs_vals = truth + (rng.normal(0, noise, (m, n)) if noise else 0.0)
    observed = RatingMatrix.from_dense(obs_vals)
    p = CompletionProblem(observations=observed, omega=omega,
                          row_graph=rg, col_graph=cg, alpha=alpha, beta=beta)
    return p, truth


# --------------------------------------------------------------- validation


def test_problem_rejects_unobserved_omega():
    obs = RatingMatrix(2, 2, [0, 1], [0, 0], [3.0, 2.0])
    # omega as a SampleSet, a list of pairs and a (k, 2) array: each names
    # its first unobserved pair.
    for omega in (SampleSet(((0, 0), (1, 1)), m=2, budget=2), [(0, 0), (1, 1)],
                  np.array([[0, 0], [1, 1]])):
        with pytest.raises(ValueError, match=re.escape(
                "omega contains unobserved entries (missing from the ratings), e.g. (1, 1)")):
            CompletionProblem(obs, omega, path_graph(2), path_graph(2), 0.1, 0.1)


def test_problem_rejects_out_of_range_omega():
    # fully observed, so only the grid check can reject; -1 would wrap to 1.
    # A SampleSet of m=2 rows rejects the negative pairs and (2, 0) itself.
    obs = RatingMatrix.from_dense(np.ones((2, 2)))
    for pair, msg in [((0, -1), "negative column -1"), ((-1, 0), "row -1 out of range for m=2"),
                      ((2, 0), "row 2 out of range for m=2"),
                      ((0, 2), "pair (0, 2) outside the 2x2 grid")]:
        with pytest.raises(ValueError, match=re.escape(msg)):
            omega = SampleSet(((0, 0), pair), m=2, budget=2)
            CompletionProblem(obs, omega, path_graph(2), path_graph(2), 0.1, 0.1)
    omega = SampleSet(((0, 0), (2, 0)), m=3, budget=2)  # a SampleSet of a larger grid
    with pytest.raises(ValueError, match=re.escape("pair (2, 0) outside the 2x2 grid")):
        CompletionProblem(obs, omega, path_graph(2), path_graph(2), 0.1, 0.1)


def test_problem_rejects_zero_weights_partial():
    obs = RatingMatrix(2, 2, [0], [0], [3.0])
    omega = SampleSet(((0, 0),), m=2, budget=1)
    with pytest.raises(ValueError):
        CompletionProblem(obs, omega, path_graph(2), path_graph(2), 0.0, 0.1)


def test_problem_rejects_negative_weights():
    obs = RatingMatrix.from_dense(np.ones((2, 2)))
    for alpha, beta in [(-0.1, 0.1), (0.1, -0.1)]:
        with pytest.raises(ValueError, match="^alpha and beta must be nonnegative$"):
            CompletionProblem(obs, full_sample_set(2, 2), path_graph(2), path_graph(2),
                              alpha, beta)


def test_solve_names_an_unconverged_cg():
    p, _ = make_problem(6, 5, seed=3)
    with pytest.raises(ConvergenceError,
                       match=r"^completion CG did not converge \(CG did not converge in 1 "
                             r"iterations \(relative residual .*\)\); operator may be nearly "
                             r"singular \(check sampling of weakly connected components\)$"):
        dglr_solve(p, SolverOptions(max_iter=1))


@pytest.mark.parametrize("f", [dglr_objective, dglr_gradient])
def test_objective_and_gradient_check_the_shape(f):
    p, _ = make_problem(4, 3, seed=0)
    with pytest.raises(ValueError, match="^shape mismatch$"):
        f(np.zeros((3, 4)), p)


def test_problem_rejects_dim_mismatch():
    obs = RatingMatrix(2, 3, [0], [0], [3.0])
    omega = SampleSet(((0, 0),), m=2, budget=1)
    with pytest.raises(ValueError):
        CompletionProblem(obs, omega, path_graph(2), path_graph(2), 0.1, 0.1)


def test_pd_check_unsampled_component():
    # row graph splits into {0,1} and {2,3}; nothing sampled in the second
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    rg = laplacian_from_weights(SparseSym.from_dense(W))
    cg = path_graph(3)
    obs = RatingMatrix.from_dense(np.ones((4, 3)))
    omega = SampleSet(((0, 0), (1, 2)), m=4, budget=2)
    p = CompletionProblem(obs, omega, rg, cg, 0.1, 0.1)
    with pytest.raises(ValueError, match="singular"):
        check_positive_definite(p)


def test_pd_check_passes_when_all_components_hit():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    rg = laplacian_from_weights(SparseSym.from_dense(W))
    cg = path_graph(3)
    obs = RatingMatrix.from_dense(np.ones((4, 3)))
    omega = SampleSet(((0, 0), (2, 1)), m=4, budget=2)
    p = CompletionProblem(obs, omega, rg, cg, 0.1, 0.1)
    check_positive_definite(p)


def test_pd_check_no_samples():
    obs = RatingMatrix.from_dense(np.ones((3, 3)))
    omega = SampleSet((), m=3, budget=0)
    p = CompletionProblem(obs, omega, path_graph(3), path_graph(3), 0.1, 0.1)
    with pytest.raises(ValueError, match="singular"):
        check_positive_definite(p)


def _problem_on_components(rng, m, n):
    """Random factor graphs split into random components (each a path over
    the nodes that share a label), fully rated with signed values, and a
    random sample set of at most a few pairs."""
    graphs = []
    for size in (m, n):
        labels = rng.integers(0, rng.integers(1, 4), size)
        W = np.zeros((size, size))
        for lab in np.unique(labels):
            nodes = np.flatnonzero(labels == lab)
            W[nodes[:-1], nodes[1:]] = W[nodes[1:], nodes[:-1]] = 1.0
        graphs.append(laplacian_from_weights(SparseSym.from_dense(W)))
    obs = RatingMatrix.from_dense(rng.normal(0.0, 2.0, (m, n)))
    k = int(rng.integers(0, min(8, m * n) + 1))
    lin = rng.choice(m * n, size=k, replace=False)
    omega = SampleSet(tuple((int(l % m), int(l // m)) for l in lin), m=m, budget=k)
    return CompletionProblem(obs, omega, graphs[0], graphs[1], 0.2, 0.3)


def test_rhs_and_sample_diag_match_per_pair_loop():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = _problem_on_components(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        Y = np.zeros((p.m, p.n))
        s = np.zeros(p.m * p.n)
        dense = p.observations.to_dense()
        for i, j in p.omega.pairs:
            Y[i, j] = dense[i, j]
            s[i + p.m * j] = 1.0
        assert p.rhs().tobytes() == Y.ravel(order="F").tobytes()
        assert p.operator().sample_diag.tobytes() == s.tobytes()


def test_pd_check_names_first_unhit_component_like_nested_loop():
    rng = np.random.default_rng(22)
    raised = 0
    for _ in range(500):
        p = _problem_on_components(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        _, row_comp = connected_components(p.row_graph.weights.csr, directed=False)
        _, col_comp = connected_components(p.col_graph.weights.csr, directed=False)
        hit = {(int(row_comp[i]), int(col_comp[j])) for i, j in p.omega.pairs}
        expected = next((f"(row comp {a}, col comp {b}) holds no sample"
                         for a in range(row_comp.max() + 1)
                         for b in range(col_comp.max() + 1) if (a, b) not in hit), None)
        if expected is None:
            check_positive_definite(p)
        else:
            raised += 1
            with pytest.raises(ValueError, match=re.escape(expected)):
                check_positive_definite(p)
    assert 0 < raised < 500


# -------------------------------------------------------------------- solve


def test_solve_identity_system():
    # full sampling with alpha = beta = 0: the operator is the identity
    rng = np.random.default_rng(0)
    Y = rng.uniform(1, 5, (3, 4))
    obs = RatingMatrix.from_dense(Y)
    p = CompletionProblem(obs, full_sample_set(3, 4), path_graph(3),
                          path_graph(4), 0.0, 0.0)
    rep = dglr_solve(p)
    assert_allclose(rep.x_star, Y, atol=1e-10)


def test_solve_constant_truth_one_sample():
    obs = RatingMatrix(3, 3, [1], [1], [2.5])
    omega = SampleSet(((1, 1),), m=3, budget=1)
    p = CompletionProblem(obs, omega, path_graph(3), path_graph(3), 0.3, 0.7)
    rep = dglr_solve(p, opts=SolverOptions(tol=1e-12))
    assert_allclose(rep.x_star, np.full((3, 3), 2.5), atol=1e-8)


def test_solve_matches_dense():
    for seed in range(5):
        p, _ = make_problem(4, 3, seed)
        rep = dglr_solve(p, opts=SolverOptions(tol=1e-13))
        Q = product_dense(p.operator())
        ref = np.linalg.solve(Q, p.rhs()).reshape((4, 3), order="F")
        err = np.linalg.norm(rep.x_star - ref) / np.linalg.norm(ref)
        assert err <= 1e-8


@pytest.mark.parametrize("weight,in_eigenbasis", [(1.0, True), (0.01, False)])
def test_solve_matches_dense_on_both_cg_paths(monkeypatch, weight, in_eigenbasis):
    # CG runs in the product eigenbasis where the fast-diagonalization rule
    # holds (alpha = beta = 1), and on x, unpreconditioned, where it does not
    # (alpha = beta = 0.01 with 10% of the grid sampled). At the default
    # tolerance the residual of x itself meets it; at 1e-10, x matches a
    # dense solve (the operator's condition number is about 460 at 0.01).
    d = synthetic_netflix(40, 30, 4, 4, noise_sigma=0.6, seed=2)
    omega = random_sample(40, 30, 120, seed=2)
    p = CompletionProblem(d.ratings, omega, d.row_graph, d.col_graph, weight, weight)
    op = p.operator()
    assert op.eigenbasis().preconditioned == in_eigenbasis
    real, operators = completion.cg_solve, []

    def spy(apply, *args):
        operators.append(apply.__self__)
        return real(apply, *args)

    monkeypatch.setattr(completion, "cg_solve", spy)
    assert dglr_solve(p).residual <= 1e-8
    rep = dglr_solve(p, SolverOptions(tol=1e-10))
    assert rep.residual <= 1e-10
    assert len(operators) == 2
    assert all(isinstance(o, EigenbasisOperator if in_eigenbasis else ProductOperator)
               for o in operators)
    ref = np.linalg.solve(product_dense(op), p.rhs()).reshape((40, 30), order="F")
    assert np.linalg.norm(rep.x_star - ref) <= 1e-7 * np.linalg.norm(ref)


def test_solve_reports_small_residual_and_lambda():
    p, _ = make_problem(5, 4, 7)
    rep = dglr_solve(p)
    assert rep.residual <= 1e-8
    lam_ref = float(np.linalg.eigvalsh(product_dense(p.operator()))[0])
    assert abs(rep.lambda_min_est - lam_ref) <= 1e-6


def test_solve_logs_unconverged_lambda_estimate(monkeypatch, caplog):
    real = completion.lobpcg_smallest

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(completion, "lobpcg_smallest", unconverged)
    p, _ = make_problem(5, 4, 7)
    with caplog.at_level(logging.WARNING, logger="discshift.completion"):
        rep = dglr_solve(p)
    assert rep.residual <= 1e-8
    assert np.isfinite(rep.lambda_min_est)
    assert "lambda_min estimate did not converge" in caplog.text


def test_solve_skips_lambda_when_disabled():
    p, _ = make_problem(4, 3, 8)
    rep = dglr_solve(p, estimate_lambda_min=False)
    assert np.isnan(rep.lambda_min_est)


def test_solve_singular_raises():
    obs = RatingMatrix.from_dense(np.ones((3, 3)))
    omega = SampleSet((), m=3, budget=0)
    p = CompletionProblem(obs, omega, path_graph(3), path_graph(3), 0.1, 0.1)
    with pytest.raises(ValueError, match="singular"):
        dglr_solve(p)


# ------------------------------------------------------- objective/gradient


def test_objective_perfect_fit_no_regularizer():
    Y = np.arange(12, dtype=np.float64).reshape(3, 4) + 1
    obs = RatingMatrix.from_dense(Y)
    p = CompletionProblem(obs, full_sample_set(3, 4), path_graph(3),
                          path_graph(4), 0.0, 0.0)
    assert dglr_objective(Y, p) == pytest.approx(0.0, abs=1e-15)
    assert_allclose(dglr_gradient(Y, p), np.zeros((3, 4)), atol=1e-15)


def test_objective_constant_everything_vanishes():
    obs = RatingMatrix.from_dense(np.full((3, 3), 2.0))
    p = CompletionProblem(obs, full_sample_set(3, 3), path_graph(3),
                          path_graph(3), 0.4, 0.6)
    assert dglr_objective(np.full((3, 3), 2.0), p) == pytest.approx(0.0, abs=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    p, _ = make_problem(4, 3, 10, alpha=0.3, beta=0.2)
    h = 1e-6
    for _ in range(20):
        X = rng.uniform(0, 5, (4, 3))
        g = dglr_gradient(X, p)
        fd = np.zeros_like(X)
        for i in range(4):
            for j in range(3):
                E = np.zeros_like(X)
                E[i, j] = h
                fd[i, j] = (dglr_objective(X + E, p) - dglr_objective(X - E, p)) / (2 * h)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) <= 1e-5


def test_gradient_zero_at_solution():
    p, _ = make_problem(4, 4, 11)
    rep = dglr_solve(p, opts=SolverOptions(tol=1e-13))
    # the solver minimizes the quadratic, so the gradient vanishes there
    assert np.linalg.norm(dglr_gradient(rep.x_star, p)) <= 1e-8


# -------------------------------------------------------------- error bound


def test_bound_collapses_for_constant_noiseless():
    obs = RatingMatrix(3, 3, [1], [1], [2.5])
    omega = SampleSet(((1, 1),), m=3, budget=1)
    p = CompletionProblem(obs, omega, path_graph(3), path_graph(3), 0.3, 0.7)
    rep = dglr_solve(p, opts=SolverOptions(tol=1e-13))
    truth = np.full((3, 3), 2.5)
    lam = float(np.linalg.eigvalsh(product_dense(p.operator()))[0])
    rho, bound, actual = mse_upper_bound(rep.x_star, truth, np.zeros((3, 3)), p, lam)
    assert rho == pytest.approx(0.0, abs=1e-12)
    assert bound == pytest.approx(0.0, abs=1e-10)
    assert actual <= 1e-7


def test_bound_limits_to_noise_norm():
    # alpha = beta -> 0 with full sampling: Q -> I, rho -> 0
    rng = np.random.default_rng(12)
    truth = rng.uniform(1, 5, (3, 3))
    N = rng.normal(0, 0.1, (3, 3))
    obs = RatingMatrix.from_dense(truth + N)
    p = CompletionProblem(obs, full_sample_set(3, 3), path_graph(3),
                          path_graph(3), 1e-12, 1e-12)
    Q = product_dense(p.operator())
    xs = np.linalg.solve(Q, p.rhs()).reshape((3, 3), order="F")
    lam = float(np.linalg.eigvalsh(Q)[0])
    rho, bound, actual = mse_upper_bound(xs, truth, N, p, lam)
    assert bound == pytest.approx(np.linalg.norm(N.ravel()), rel=1e-6)
    assert actual <= bound + 1e-9


def test_bound_holds_on_noisy_instances():
    # the bound covers the exact minimizer, so solve densely
    for seed in range(10):
        p, truth = make_problem(4, 3, 100 + seed, frac=0.6, noise=0.3)
        N = p.observations.to_dense() - truth
        Q = product_dense(p.operator())
        xs = np.linalg.solve(Q, p.rhs()).reshape((4, 3), order="F")
        lam = float(np.linalg.eigvalsh(Q)[0])
        _, bound, actual = mse_upper_bound(xs, truth, N, p, lam)
        assert actual <= bound + 1e-9


def test_bound_rejects_bad_lambda():
    p, truth = make_problem(3, 3, 13)
    with pytest.raises(ValueError):
        mse_upper_bound(truth, truth, np.zeros((3, 3)), p, 0.0)


# --------------------------------------------------------------------- RMSE


def test_rmse_perfect():
    truth = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert rmse_eval(truth, truth, [(0, 0), (1, 2)]) == 0.0


def test_rmse_constant_offset():
    truth = np.zeros((3, 3))
    est = truth + 0.75
    pairs = [(i, j) for i in range(3) for j in range(3)]
    assert rmse_eval(est, truth, pairs) == pytest.approx(0.75)


def test_rmse_matches_direct_formula():
    rng = np.random.default_rng(14)
    est = rng.uniform(1, 5, (4, 4))
    truth = rng.uniform(1, 5, (4, 4))
    pairs = [(0, 1), (2, 3), (3, 0)]
    ref = np.sqrt(np.mean([(est[i, j] - truth[i, j]) ** 2 for i, j in pairs]))
    assert rmse_eval(est, truth, pairs) == pytest.approx(ref, abs=1e-15)


def test_rmse_rejects_empty():
    with pytest.raises(ValueError):
        rmse_eval(np.zeros((2, 2)), np.zeros((2, 2)), [])


def test_rmse_rejects_pairs_outside_grid():
    # numpy would wrap -1 to the last row and score that entry
    est, truth = np.ones((3, 2)), np.zeros((3, 2))
    for pair in [(-1, 0), (0, -1), (3, 0), (0, 2)]:
        with pytest.raises(ValueError, match=re.escape(f"pair {pair} outside the 3x2 grid")):
            rmse_eval(est, truth, [(0, 0), pair, (1, 1)])


def test_rmse_accepts_sample_set():
    truth = np.zeros((2, 2))
    ss = SampleSet(((0, 0),), m=2, budget=1)
    assert rmse_eval(truth + 1.0, truth, ss) == pytest.approx(1.0)


def test_sample_set_of_the_grid_skips_the_entry_rule(monkeypatch):
    # A SampleSet built on the problem's grid (m and n) already holds the
    # entry rule, so CompletionProblem and rmse_eval do not run it again.
    calls = []
    real = sampling.entry_pairs
    monkeypatch.setattr(sampling, "entry_pairs", lambda *a: calls.append(a) or real(*a))
    obs, est = RatingMatrix.from_dense(np.ones((2, 3))), np.ones((2, 3))
    on_grid = SampleSet(((0, 0), (1, 2)), m=2, budget=2, n=3)
    calls.clear()
    CompletionProblem(obs, on_grid, path_graph(2), path_graph(3), 0.1, 0.1)
    assert rmse_eval(est, est - 1.0, on_grid) == 1.0
    assert calls == []
    # A set without n, and plain pairs, are checked.
    no_n = SampleSet(((0, 0), (1, 2)), m=2, budget=2)
    calls.clear()
    CompletionProblem(obs, no_n, path_graph(2), path_graph(3), 0.1, 0.1)
    rmse_eval(est, est, no_n)
    rmse_eval(est, est, [(0, 0), (1, 2)])
    assert len(calls) == 3
    other = SampleSet(((0, 0), (1, 4)), m=2, budget=2, n=5)  # another grid's n
    with pytest.raises(ValueError, match=re.escape("pair (1, 4) outside the 2x3 grid")):
        CompletionProblem(obs, other, path_graph(2), path_graph(3), 0.1, 0.1)
    with pytest.raises(ValueError, match=re.escape("pair (1, 4) outside the 2x3 grid")):
        rmse_eval(est, est, other)


# -------------------------------------------------------------- report I/O


def test_save_report_json_and_csv(tmp_path):
    p, truth = make_problem(3, 3, 15)
    rep = dglr_solve(p)
    rep.rmse = rmse_eval(rep.x_star, truth, [(0, 0), (1, 1)])
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "x.csv"
    save_report(rep, jpath, cpath)
    payload = json.loads(jpath.read_text())
    assert payload["shape"] == [3, 3]
    assert payload["residual"] <= 1e-8
    assert payload["rmse"] == rep.rmse
    assert set(payload) == {"residual", "lambda_min_est", "rmse", "shape"}
    rows = [line.split(",") for line in cpath.read_text().strip().splitlines()]
    assert len(rows) == 3 and len(rows[0]) == 3
    X = np.array([[float(v) for v in row] for row in rows])
    assert_allclose(X, rep.x_star)


def test_write_dense_csv_bytes_match_csv_writer(tmp_path):
    X = np.array([[np.nan, np.inf, -np.inf, -0.0],
                  [1e-300, 0.1, 1.0 / 3.0, 5.0],
                  [1e16, -2.5e-8, 0.0, 123456789.125]])
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        writer = csv.writer(f)
        for row in X:
            writer.writerow([repr(float(v)) for v in row])
    out = tmp_path / "x.csv"
    write_dense_csv(X, out)
    assert out.read_bytes() == ref.read_bytes()
    assert b"nan,inf,-inf,-0.0\r\n1e-300,0.1," in out.read_bytes()


def test_save_report_nan_becomes_null(tmp_path):
    p, _ = make_problem(3, 3, 16)
    rep = dglr_solve(p, estimate_lambda_min=False)
    jpath = tmp_path / "r.json"
    save_report(rep, jpath)
    payload = json.loads(jpath.read_text())
    assert payload["lambda_min_est"] is None
    assert payload["rmse"] is None

