"""Tests for the sparse-symmetric container and the iterative solvers."""

import os
import re
import stat
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.sparse as sp

import discshift.linalg as linalg
from discshift.bandlimited import aopt_local_search, bandlimited_basis
from discshift.completion import CompletionProblem, rmse_eval
from discshift.experiments import load_ratings
from discshift.graphs import (
    ProductOperator,
    RatingMatrix,
    laplacian_from_weights,
    product_dense,
    synthetic_netflix,
)
from discshift.linalg import (
    ConvergenceError,
    SolverOptions,
    SparseSym,
    cg_solve,
    entry_pairs,
    gershgorin_bounds,
    load_edge_list,
    lobpcg_smallest,
    save_edge_list,
)
from discshift.sampling import (
    SampleSet,
    gcs_sample,
    igcs_sample,
    load_sample_set,
    random_sample,
)
from oracles import fast_diag_inverse


def path_laplacian(n):
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i] += 1.0
        L[i + 1, i + 1] += 1.0
        L[i, i + 1] -= 1.0
        L[i + 1, i] -= 1.0
    return SparseSym.from_dense(L)


def random_spd(n, rng, shift=0.1):
    M = rng.standard_normal((n, n))
    return M @ M.T + shift * np.eye(n)


def gapped_spd(n, rng):
    """SPD with a clear gap below the second eigenvalue."""
    return np.diag(np.linspace(1.0, 4.0, n)) + 0.05 * random_spd(n, rng, shift=0.0)


def random_sparse_sym(n, rng, density=0.3):
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return SparseSym.from_dense(A + A.T)


# ---------------------------------------------------------------- SparseSym


def test_sparsesym_path_annihilates_constants():
    A = path_laplacian(3)
    assert_allclose(A.csr @ np.ones(3), np.zeros(3), atol=1e-15)


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = random_sparse_sym(8, rng)
        x = rng.standard_normal(8)
        assert np.max(np.abs(A.csr @ x - A.csr.toarray() @ x)) <= 1e-12


def test_sparsesym_holds_one_csr():
    A = path_laplacian(4)
    assert A.csr is A.csr
    assert A.row_offsets is A.csr.indptr and A.values is A.csr.data
    G = laplacian_from_weights(SparseSym.from_dense(np.ones((3, 3)) - np.eye(3)))
    assert type(G.laplacian) is sp.csr_matrix


def test_sparsesym_rejects_noncanonical_csr():
    # row 0 lists column 1 before column 0
    unsorted = sp.csr_matrix((np.array([2.0, 1.0, 2.0]), np.array([1, 0, 0]),
                              np.array([0, 2, 3])), shape=(2, 2))
    with pytest.raises(ValueError, match="sorted"):
        SparseSym(unsorted)
    dup = sp.csr_matrix((np.array([1.0, 1.0]), np.array([0, 0]),
                         np.array([0, 2, 2])), shape=(2, 2))
    with pytest.raises(ValueError, match="duplicates"):
        SparseSym(dup)


def test_sparsesym_from_scipy_sums_duplicates():
    # row 0 stores column 0 twice (1 + 2)
    dup = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 3.0]), np.array([0, 0, 1, 0]),
                         np.array([0, 3, 4])), shape=(2, 2))
    assert not dup.has_canonical_format
    A = SparseSym.from_scipy(dup)
    assert A.csr.nnz == 3
    assert_allclose(A.csr.toarray(), [[3.0, 3.0], [3.0, 0.0]])


def test_sparsesym_roundtrip_dense():
    rng = np.random.default_rng(1)
    A = random_sparse_sym(10, rng)
    B = SparseSym.from_dense(A.csr.toarray())
    assert_allclose(A.csr.toarray(), B.csr.toarray())


def test_sparsesym_rejects_asymmetric():
    with pytest.raises(ValueError):
        SparseSym.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_sparsesym_diagonal():
    A = SparseSym.from_dense(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(A.csr.diagonal(), [3.0, 1.0, 2.0])


# ----------------------------------------------------------------------- CG


def test_cg_identity_returns_rhs():
    rng = np.random.default_rng(2)
    b = rng.standard_normal(7)
    x = cg_solve(np.eye(7).__matmul__, b)
    assert_allclose(x, b, atol=1e-10)


def test_cg_zero_rhs():
    assert_allclose(cg_solve(np.eye(4).__matmul__, np.zeros(4)), np.zeros(4))


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = random_spd(12, rng)
        b = rng.standard_normal(12)
        x = cg_solve(A.__matmul__, b)
        ref = np.linalg.solve(A, b)
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-7


def test_cg_raises_on_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(ConvergenceError):
        cg_solve(A.__matmul__, np.array([1.0, 1.0]))


def test_cg_nonconvergence_reports_residual():
    rng = np.random.default_rng(5)
    A = random_spd(30, rng, shift=1e-8)
    b = rng.standard_normal(30)
    with pytest.raises(ConvergenceError) as exc:
        cg_solve(A.__matmul__, b, SolverOptions(tol=1e-15, max_iter=2))
    assert exc.value.residual is not None and exc.value.residual > 0


# ------------------------------------------------------------------- LOBPCG


def test_lobpcg_identity():
    rng = np.random.default_rng(6)
    pair = lobpcg_smallest(np.eye(8).__matmul__, rng.standard_normal(8))
    assert pair.converged
    assert abs(pair.value - 1.0) <= 1e-8
    assert abs(np.linalg.norm(pair.vec) - 1.0) <= 1e-12


def test_lobpcg_path_nullspace():
    rng = np.random.default_rng(7)
    pair = lobpcg_smallest(path_laplacian(5).csr.__matmul__, rng.standard_normal(5))
    assert abs(pair.value) <= 1e-8
    # constant vector up to sign
    target = np.ones(5) / np.sqrt(5)
    aligned = pair.vec * np.sign(pair.vec[0]) * np.sign(target[0])
    assert_allclose(aligned, target, atol=1e-5)


def test_lobpcg_matches_dense_eig():
    rng = np.random.default_rng(8)
    for _ in range(10):
        A = random_spd(20, rng)
        pair = lobpcg_smallest(A.__matmul__, rng.standard_normal(20))
        lam_ref = np.linalg.eigvalsh(A)[0]
        assert abs(pair.value - lam_ref) <= 1e-6


def test_lobpcg_warm_start_converges_fast():
    rng = np.random.default_rng(9)
    A = random_spd(25, rng)
    _, V = np.linalg.eigh(A)
    pair = lobpcg_smallest(A.__matmul__, V[:, 0])
    assert pair.converged and pair.iterations <= 2


def test_lobpcg_flags_nonconvergence():
    rng = np.random.default_rng(10)
    A = random_spd(40, rng)
    pair = lobpcg_smallest(A.__matmul__, rng.standard_normal(40),
                           SolverOptions(tol=1e-14, max_iter=1))
    assert not pair.converged
    assert pair.iterations == 1
    assert pair.residual > 0


def test_lobpcg_rejects_zero_start():
    with pytest.raises(ValueError):
        lobpcg_smallest(np.eye(3).__matmul__, np.zeros(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SparseSym(sp.coo_matrix(np.eye(2))),
     TypeError, "SparseSym needs a float64 scipy CSR matrix"),
    (lambda: SparseSym(sp.csr_matrix(np.zeros((2, 3)))), ValueError, "matrix must be square"),
    (lambda: SolverOptions(tol=0.0), ValueError, "tol must be positive"),
    (lambda: SolverOptions(max_iter=0), ValueError, "max_iter must be at least 1"),
    # p'Ap is NaN on the first step.
    (lambda: cg_solve(lambda p: np.array([np.nan, 0.0]), np.ones(2)),
     ConvergenceError, "NaN/Inf encountered in CG"),
    # p'Ap = 2e-200 is finite and positive, but the step of 5e199 sends the
    # residual's square norm past the float range.
    (lambda: cg_solve(lambda p: np.array([1e-200, 1.0]), np.array([1.0, 1e-200])),
     ConvergenceError, "NaN/Inf encountered in CG"),
    (lambda: lobpcg_smallest(np.eye(3).__matmul__, np.ones(3), image=np.ones(2)),
     ValueError, "image must have the shape of the initial vector"),
], ids=["sparsesym-not-csr", "sparsesym-not-square", "opts-tol", "opts-max-iter",
        "cg-nan-curvature", "cg-inf-residual", "lobpcg-image-shape"])
def test_input_checks_name_the_fault(call, error, message):
    # With numpy's warnings as errors, each fault still raises its own error.
    with warnings.catch_warnings(), pytest.raises(error, match=f"^{re.escape(message)}$"):
        warnings.simplefilter("error", RuntimeWarning)
        call()


def counting(A):
    """Dense operator that counts its applications in .calls."""
    def apply(x):
        apply.calls += 1
        return A @ x
    apply.calls = 0
    return apply


@pytest.mark.parametrize("warm", [False, True])
def test_lobpcg_one_application_per_iteration(warm):
    rng = np.random.default_rng(12)
    for _ in range(5):
        A = gapped_spd(30, rng)
        x0 = rng.standard_normal(30)
        if warm:
            x0 = np.linalg.eigh(A)[1][:, 0] + 1e-3 * x0
        apply = counting(A)
        pair = lobpcg_smallest(apply, x0)
        assert pair.converged
        assert apply.calls <= pair.iterations + 2


def test_lobpcg_residual_is_fresh():
    rng = np.random.default_rng(13)
    for opts in (SolverOptions(), SolverOptions(tol=1e-14, max_iter=3)):
        A = random_spd(25, rng)
        pair = lobpcg_smallest(A.__matmul__, rng.standard_normal(25), opts)
        v = pair.vec
        dense = np.linalg.norm(A @ v - pair.value * v)
        assert abs(pair.residual - dense) <= 1e-6 * dense + 1e-13


def test_lobpcg_confirms_convergence_with_a_fresh_image():
    # One application returns a wrong image. The error rides along in the
    # carried A x, so the carried residual converges to the wrong place; the
    # confirming application sees it and the iteration goes on from there.
    rng = np.random.default_rng(15)
    A = gapped_spd(30, rng)
    e = rng.standard_normal(30)
    apply = counting(A)

    def corrupted(x):
        y = apply(x)
        return y + 1e-4 * np.linalg.norm(x) * e if apply.calls == 4 else y

    pair = lobpcg_smallest(corrupted, rng.standard_normal(30))
    v = pair.vec
    assert pair.converged
    assert apply.calls == pair.iterations + 3  # start, two confirmations
    assert pair.residual == pytest.approx(np.linalg.norm(A @ v - pair.value * v),
                                          rel=1e-6)
    assert abs(pair.value - np.linalg.eigvalsh(A)[0]) <= 1e-9


def test_lobpcg_converges_without_p(monkeypatch):
    # Cut p from every step whose p is not almost orthogonal to span{x, w};
    # w is orthogonal to x, so it stays and the steps become steepest descent.
    rng = np.random.default_rng(14)
    A = gapped_spd(30, rng)
    monkeypatch.setattr(linalg, "RR_PIVOT_TOL", 0.99)
    ritz = linalg._ritz
    sizes = []

    def spy(M, K, three):
        out = ritz(M, K, three)
        sizes.append((3 if three else 2, out is None))
        return out

    monkeypatch.setattr(linalg, "_ritz", spy)
    pair = lobpcg_smallest(A.__matmul__, rng.standard_normal(30))
    assert (3, True) in sizes
    assert pair.converged
    assert abs(pair.value - np.linalg.eigvalsh(A)[0]) <= 1e-9


def test_lobpcg_preconditioner_without_shift_applies_once_per_iteration():
    # A preconditioner with no `shift` (here a diagonal scale) gives no image
    # of T r, so A is applied to it: once per iteration, plus the start and
    # the confirming application.
    rng = np.random.default_rng(16)
    for _ in range(5):
        A = gapped_spd(30, rng)
        inv = 1.0 / (np.diag(A) + 0.5)
        apply = counting(A)
        pair = lobpcg_smallest(apply, rng.standard_normal(30), precond=lambda r: inv * r)
        assert pair.converged and pair.iterations >= 2
        assert abs(pair.value - np.linalg.eigvalsh(A)[0]) <= 1e-9
        assert apply.calls == pair.iterations + 2


def sampled_products():
    """Product operators where the fast-diagonalization rule holds, with
    that inverse on x (oracles.fast_diag_inverse), from no samples to a few."""
    for seed, (alpha, k) in enumerate([(1.0, 0), (1.0, 3), (0.3, 1), (2.0, 12)]):
        d = synthetic_netflix(12, 9, 2, 2, seed=seed, p_in=0.8, p_out=0.1)
        op = ProductOperator(d.row_graph, d.col_graph, alpha, 0.5 * alpha)
        rng = np.random.default_rng(seed)
        op.sample_diag[rng.choice(op.size, k, replace=False)] = 1.0
        assert op.eigenbasis().preconditioned
        yield op, fast_diag_inverse(op.row_graph, op.col_graph, op.alpha, op.beta,
                                    op.sample_diag), rng


def test_preconditioned_cg_matches_dense_solve():
    for op, T, rng in sampled_products():
        if not op.sample_diag.any():
            continue  # singular
        b = rng.standard_normal(op.size)
        x = cg_solve(op.apply, b, SolverOptions(tol=1e-12), T)
        ref = np.linalg.solve(product_dense(op), b)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_preconditioned_lobpcg_matches_dense_eig():
    for op, T, rng in sampled_products():
        A = product_dense(op)
        evals = np.linalg.eigvalsh(A)
        apply = counting(A)
        pair = lobpcg_smallest(apply, rng.standard_normal(op.size), precond=T)
        assert pair.converged
        assert abs(pair.value - evals[0]) <= 1e-9
        v = pair.vec
        assert pair.residual == pytest.approx(np.linalg.norm(A @ v - pair.value * v),
                                              rel=1e-6, abs=1e-13)
        assert np.array_equal(pair.image, A @ v)
        # Once per iteration, at the start and to confirm.
        assert pair.iterations >= 2 and apply.calls == pair.iterations + 2


def test_preconditioned_lobpcg_given_an_image_applies_only_to_confirm():
    # Given the image of x0, the operator is applied once per iteration and
    # to confirm, not at the start.
    for op, T, rng in sampled_products():
        A = product_dense(op)
        apply = counting(A)
        x0 = np.linalg.eigh(A)[1][:, 0] + 1e-3 * rng.standard_normal(op.size)
        pair = lobpcg_smallest(apply, x0, precond=T, image=A @ x0)
        assert pair.converged and pair.iterations >= 1
        assert apply.calls == pair.iterations + 1
        # A start already within tol is still confirmed, not returned as is.
        apply.calls = 0
        again = lobpcg_smallest(apply, pair.vec, precond=T, image=pair.image)
        assert again.converged and again.iterations == 0 and apply.calls == 1


def test_lobpcg_wrong_image_or_shift_is_never_silent():
    # A wrong image of x0 corrupts the carried images; the reported value
    # and residual still come from a fresh application and `converged`
    # follows that residual.
    for op, T, rng in sampled_products():
        A = product_dense(op)
        x0 = rng.standard_normal(op.size)
        for image in (A @ x0 + 0.1 * rng.standard_normal(op.size), 2.0 * (A @ x0)):
            pair = lobpcg_smallest(A.__matmul__, x0, SolverOptions(), T, image)
            v = pair.vec
            assert pair.value == pytest.approx(v @ A @ v, rel=1e-12, abs=1e-14)
            assert pair.residual == pytest.approx(np.linalg.norm(A @ v - pair.value * v),
                                                  rel=1e-6, abs=1e-13)
            assert pair.converged == (pair.residual <= linalg.LOBPCG_TOL)


# Picks recorded with the three-application Gram-Schmidt solver this one
# replaced; the samplers must not notice. Total LOBPCG iterations recorded
# with the fast-diagonalization preconditioner.
GOLDEN = {
    3: {
        "gcs": ([0, 315, 16, 450, 405, 41, 80, 311, 466, 74, 114, 392, 436, 91,
                 421, 199, 500, 188, 491, 49, 494, 191, 527, 232, 300, 31, 474,
                 294, 320, 224], 164),
        "igcs": ([0, 300, 323, 293, 283, 313, 320, 290, 278, 308, 324, 294, 284,
                  314, 327, 297, 270, 450, 473, 113, 103, 463, 470, 110, 98, 458,
                  474, 114, 104, 464, 477, 117, 90, 390, 413, 53, 43, 403, 410,
                  50], 329),
        "aopt": [8, 323, 452, 83, 311, 71, 413, 114, 474, 134, 206, 397],
    },
    4: {
        "gcs": ([0, 300, 75, 321, 63, 366, 255, 585, 571, 246, 376, 53, 333, 128,
                 347, 21, 156, 313, 145, 528, 211, 371, 227, 353, 13, 428, 161,
                 324, 171, 517], 162),
        "igcs": ([0, 300, 321, 21, 6, 306, 323, 23, 13, 313, 324, 24, 11, 311,
                  318, 18, 3, 303, 320, 20, 1, 301, 325, 25, 8, 308, 319, 19, 12,
                  312, 322, 22, 9, 309, 317, 17, 7, 307, 327, 27], 319),
        "aopt": [6, 321, 306, 21, 68, 592, 81, 341, 382, 248, 126, 144],
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_sampler_picks_golden(seed):
    d = synthetic_netflix(30, 20, n_row_comm=2, n_col_comm=2, noise_sigma=0.6,
                          seed=seed)
    op = ProductOperator(d.row_graph, d.col_graph, 1.0, 1.0)
    opts = SolverOptions(seed=seed)
    want = GOLDEN[seed]
    ss, state = gcs_sample(op, 30, opts=opts)
    assert (ss.linear.tolist(), sum(state.iter_counts)) == want["gcs"]
    ss, state = igcs_sample(d.row_graph, d.col_graph, 1.0, 1.0, K=40, opts=opts)
    assert (ss.linear.tolist(), sum(state.iter_counts)) == want["igcs"]
    basis = bandlimited_basis(d.row_graph, d.col_graph, 3, 3)
    assert aopt_local_search(basis, op, 12, 10, opts=opts).linear.tolist() == want["aopt"]


# --------------------------------------------------------------- Gershgorin


def test_gershgorin_diagonal():
    centers, radii = gershgorin_bounds(SparseSym.from_dense(np.diag([1.0, 2.0])))
    assert_allclose(centers, [1.0, 2.0])
    assert_allclose(radii, [0.0, 0.0])
    assert np.min(centers - radii) == 1.0


def test_gershgorin_unit_self_loop_moves_left_end():
    # Laplacian discs have left end 0; a unit self-loop moves that row's to 1.
    L = path_laplacian(4).csr.toarray()
    L[2, 2] += 1.0
    centers, radii = gershgorin_bounds(SparseSym.from_dense(L))
    assert_allclose(centers - radii, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_gershgorin_sound_on_random_matrices():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 15))
        A = random_sparse_sym(n, rng, density=0.5)
        lam_min = np.linalg.eigvalsh(A.csr.toarray())[0]
        centers, radii = gershgorin_bounds(A)
        left = np.min(centers - radii)
        assert lam_min >= left - 1e-10


# ---------------------------------------------------------------- edge list


def test_edge_list_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    A = random_sparse_sym(9, rng)
    path = tmp_path / "g.txt"
    save_edge_list(A, path)
    B = load_edge_list(path)
    assert_allclose(A.csr.toarray(), B.csr.toarray(), atol=1e-15)


def test_edge_list_keeps_a_trailing_node_without_edges(tmp_path):
    # Node 2 has no edge, so no `i j value` line names it; the `# n=` line
    # keeps the node count. A file without that line infers max index + 1.
    A = SparseSym.from_dense(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    path = tmp_path / "g.txt"
    save_edge_list(A, path)
    B = load_edge_list(path)
    assert B.n == 3 and load_edge_list(path, n=3).n == 3
    assert_allclose(A.csr.toarray(), B.csr.toarray(), atol=0)
    with pytest.raises(ValueError, match=re.escape("g.txt: 3 nodes in the file, expected 4")):
        load_edge_list(path, n=4)
    path.write_text("0 1 0.5\n")
    assert load_edge_list(path).n == 2 and load_edge_list(path, n=3).n == 3


def test_edge_list_plain_floats(tmp_path):
    A = SparseSym.from_dense(np.array([[0.0, 0.5], [0.5, 0.0]]))
    path = tmp_path / "g.txt"
    save_edge_list(A, path)
    text = path.read_text()
    assert "0 1 0.5" in text
    assert "float64" not in text


def test_edge_list_pins_float_bytes(tmp_path):
    # Upper triangle in row order; the lower mirror is not written.
    # Non-finite values are rejected by SparseSym, so the extremes are finite.
    upper = {(0, 1): 5e-324, (0, 2): 1.7976931348623157e308, (1, 1): -0.0,
             (1, 3): -2.5, (2, 2): 0.1, (2, 3): 1e-300, (3, 3): 1 / 3}
    entries = sorted({**upper, **{(j, i): v for (i, j), v in upper.items()}}.items())
    ij = np.array([e[0] for e in entries])
    vals = np.array([e[1] for e in entries])
    A = SparseSym(sp.csr_matrix((vals, (ij[:, 0], ij[:, 1])), shape=(4, 4)))
    path = tmp_path / "g.txt"
    save_edge_list(A, path)
    assert path.read_bytes() == (b"# n=4\n0 1 5e-324\n0 2 1.7976931348623157e+308\n1 1 -0.0\n1 3 -2.5\n"
                                 b"2 2 0.1\n2 3 1e-300\n3 3 0.3333333333333333\n")



def test_open_new_replaces_a_regular_file(tmp_path):
    # Unlinked and made anew, not truncated: a handle on the old file still
    # reads the old bytes.
    path = tmp_path / "out.txt"
    path.write_text("old")
    with open(path) as old:
        with linalg.open_new(path) as f:
            f.write("new")
        assert old.read() == "old"
    assert path.read_text() == "new"


def test_open_new_writes_links_and_special_files_in_place(tmp_path):
    target, link, other = tmp_path / "target.txt", tmp_path / "link.txt", tmp_path / "other.txt"
    target.write_text("old")
    link.symlink_to(target)
    with linalg.open_new(link) as f:
        f.write("via link")
    assert link.is_symlink() and target.read_text() == "via link"
    os.link(target, other)
    with linalg.open_new(other) as f:
        f.write("via hard link")
    assert os.path.samefile(target, other) and target.read_text() == "via hard link"
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with linalg.open_new(fifo) as f:
            f.write("via fifo")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.read(reader, 64) == b"via fifo"
    finally:
        os.close(reader)


def test_open_new_leaves_a_read_only_file_to_open(tmp_path, monkeypatch):
    # Not unlinked, so open's PermissionError stands; os.access is patched
    # because root may write any file.
    path = tmp_path / "out.txt"
    path.write_text("old")
    inode = path.stat().st_ino
    monkeypatch.setattr(linalg.os, "access", lambda p, mode: False)
    with linalg.open_new(path) as f:
        f.write("new")
    assert path.stat().st_ino == inode and path.read_text() == "new"


def test_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_edge_list(path)


def test_edge_list_rejects_lower_triangle(tmp_path):
    path = tmp_path / "low.txt"
    path.write_text("1 0 2.0\n")
    with pytest.raises(ValueError):
        load_edge_list(path)


def test_edge_list_names_line_of_negative_or_lower_entry(tmp_path):
    path = tmp_path / "e.txt"
    for bad, what in (("2 1 1.0", "lower-triangle entry"), ("0 -1 1.0", "negative index")):
        path.write_text(f"# c\n0 1 1.0\n\n{bad}\n0 2 1.0\n")
        with pytest.raises(ValueError, match=f"e.txt:4: {what}"):
            load_edge_list(path)


def test_edge_list_rejects_duplicate_edge(tmp_path):
    # A repeated edge used to be summed into one of twice the weight.
    path = tmp_path / "e.txt"
    for edge in ("0 1", "1 1"):
        path.write_text(f"# c\n{edge} 1.0\n0 2 1.0\n\n{edge} 1.0\n")
        i, j = edge.split()
        with pytest.raises(ValueError, match=re.escape(
                f"e.txt:5: duplicate edge ({i},{j}), first at line 2")):
            load_edge_list(path)


def test_edge_list_names_index_beyond_n(tmp_path):
    # An index of n or above used to raise scipy's bare "axis 0 index 5
    # exceeds matrix dimension 3".
    path = tmp_path / "e.txt"
    path.write_text("# c\n0 1 1.0\n1 5 1.0\n")
    with pytest.raises(ValueError, match=re.escape("e.txt:3: index (1,5) out of range for n=3")):
        load_edge_list(path, n=3)
    assert load_edge_list(path, n=6).n == 6


def test_edge_list_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# header\n\n0 1 1.0\n")
    B = load_edge_list(path)
    assert B.n == 2
    assert B.csr.toarray()[0, 1] == 1.0


# -------------------------------------------------------------- text tables


def ratings_entries(path):
    r = load_ratings(path)
    return list(zip(r.rows.tolist(), r.cols.tolist()))


def pairs_entries(path):
    return list(load_sample_set(path, m=4, n=4)[0].pairs)


def edge_entries(path):
    upper = sp.triu(load_edge_list(path).csr).tocoo()
    return list(zip(upper.row.tolist(), upper.col.tolist()))


# entries read back, separator, the columns as the reader's error names them
READERS = {
    "ratings": (ratings_entries, ",", "row,col,value"),
    "pairs": (pairs_entries, ",", "row,col"),
    "edges": (edge_entries, " ", "i j value"),
}


def table_line(kind, i, j):
    _, sep, columns = READERS[kind]
    return sep.join([str(i), str(j), "1.5"][:columns.count(sep) + 1])


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_skip_blank_comment_and_header_lines(tmp_path, kind):
    path = tmp_path / "t.txt"
    path.write_text("\n".join([
        "# a comment", "", "row,col,value", table_line(kind, 0, 1), "",
        table_line(kind, 1, 2) + " # a trailing comment", "row,col,value", ""]))
    assert READERS[kind][0](path) == [(0, 1), (1, 2)]


@pytest.mark.parametrize("bad", ["short", "extra column", "1_0", "x"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_name_first_malformed_line(tmp_path, kind, bad):
    entries, sep, columns = READERS[kind]
    line = {"short": "0",
            "extra column": table_line(kind, 0, 2) + sep + "7",
            "1_0": table_line(kind, "1_0", 2),
            "x": table_line(kind, "x", 2)}[bad]
    path = tmp_path / "t.txt"
    path.write_text("\n".join(["# c", "row,col,value", table_line(kind, 0, 1), "",
                               line, table_line(kind, 1, 2), "0"]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"t.txt:5: expected '{columns}'") + "$"):
        entries(path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_report_index_beyond_int64(tmp_path, kind):
    path = tmp_path / "t.txt"
    path.write_text("\n".join(["# c", table_line(kind, 0, 1), table_line(kind, 1, 2**64)]))
    with pytest.raises(ValueError, match=re.escape(f"t.txt:3: index (1,{2**64}) out of range")):
        READERS[kind][0](path)


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_name_a_repeated_entry_and_its_first_line(tmp_path, kind, source):
    # A pipe, as a shell's process substitution passes it, reads empty the
    # second time: the lines are named from the one read.
    text = "\n".join(["# c", "row,col,value", table_line(kind, 0, 1), "",
                      table_line(kind, 1, 2), table_line(kind, 0, 1)]) + "\n"
    if source == "file":
        path = tmp_path / "t.txt"
        path.write_text(text)
    else:
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        path = f"/dev/fd/{r}"
    try:
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:6: ")
                           + r".*\(0, ?1\).*, first at line 3$"):
            READERS[kind][0](path)
    finally:
        if source == "pipe":
            os.close(r)


# --------------------------------------------------------------- entry rule

# Per fault: (row, col) pairs of the 3x2 grid whose last pair breaks the entry
# rule, and linear indices i + 3j that carry the fault to the entry points
# that take those. A linear index list may repeat an index (a batch of A-opt
# selections does), so it has no "repeated" case.
BAD_ENTRIES = {
    "fractional": ([(0, 0), (0.5, 1)], [0, 3.5]),
    "whole float": ([(0, 0), (1.0, 1)], [0, 4.0]),
    "bool": ([(0, 0), (True, 0)], [0, True]),
    "negative": ([(0, 0), (-1, 0)], [0, -1]),
    "row >= m": ([(0, 0), (3, 1)], [0, 6]),
    "col >= n": ([(0, 0), (0, 2)], [0, 6]),
    "repeated": ([(0, 0), (1, 1), (0, 0)], None),
    "beyond int64": ([(0, 0), (2**63, 0)], [0, 2**63]),
}


def _entry_points(tmp_path):
    """name -> (takes pairs, call). Each call reads its entries on the 3x2 grid."""
    g3, g2 = (laplacian_from_weights(SparseSym.from_dense(np.eye(k, k=1) + np.eye(k, k=-1)))
              for k in (3, 2))
    basis = bandlimited_basis(g3, g2, k1=1, k2=1)

    def table(name, header, pairs, line):
        path = tmp_path / name
        path.write_text(header + "".join(line(i, j) for i, j in pairs))
        return path

    return {
        "SampleSet": (True, lambda p: SampleSet(p, m=3, budget=len(p))),
        "RatingMatrix": (True, lambda p: RatingMatrix(3, 2, [i for i, _ in p], [j for _, j in p],
                                                      np.ones(len(p)))),
        "rmse_eval": (True, lambda p: rmse_eval(np.ones((3, 2)), np.zeros((3, 2)), p)),
        "CompletionProblem": (True, lambda p: CompletionProblem(
            RatingMatrix.from_dense(np.ones((3, 2))), SampleSet(p, m=3, budget=len(p)),
            g3, g2, 0.1, 0.1)),
        "load_ratings": (True, lambda p: load_ratings(
            table("r.csv", "# m=3 n=2\n", p, lambda i, j: f"{i},{j},1.5\n"))),
        "load_sample_set": (True, lambda p: load_sample_set(
            table("s.csv", "row,col\n", p, lambda i, j: f"{i},{j}\n"), 3, 2)),
        # An edge list's grid is square, n x n with n = 2; (3, 1) is lower.
        "load_edge_list": (True, lambda p: load_edge_list(
            table("e.txt", "", p, lambda i, j: f"{i} {j} 1.5\n"), n=2)),
        "allowed": (False, lambda lin: random_sample(3, 2, 1, allowed=lin)),
        "BandlimitedBasis.rows": (False, lambda lin: basis.rows(lin)),
    }


def test_every_entry_point_keeps_the_entry_rule(tmp_path):
    good = ([(0, 0), (0, 1)], [0, 3])
    for name, (takes_pairs, call) in _entry_points(tmp_path).items():
        call(good[0] if takes_pairs else good[1])
        for fault, (pairs, linear) in BAD_ENTRIES.items():
            if name == "SampleSet" and fault == "col >= n":
                continue  # a SampleSet knows m only; CompletionProblem checks n
            bad = pairs if takes_pairs else linear
            if bad is None:
                continue
            with pytest.raises(ValueError):
                call(bad)


def test_entry_pairs_names_the_first_bad_pair():
    assert entry_pairs([], 3, 2).shape == (0, 2)
    ij = entry_pairs(np.array([[2, 1], [0, 0]], dtype=np.uint8), 3, 2)
    assert ij.dtype == np.int64 and ij.tolist() == [[2, 1], [0, 0]]
    for pairs, msg, k, first in (
            ([(0, 0), (0, 2), (0, 0)], "pair (0, 2) outside the 3x2 grid", 1, None),
            ([(0, 0), (1, 1), (0, 0), (5, 0)], "sample pairs must be distinct: (0, 0) repeats", 2, 0),
            ([(0, 0), (True, 1)], "sample pairs must be (row, col) integer pairs", None, None)):
        with pytest.raises(linalg.EntryError, match=re.escape(msg)) as err:
            entry_pairs(pairs, 3, 2)
        assert (err.value.k, err.value.first) == (k, first)
    with pytest.raises(ValueError, match="beyond int64"):
        entry_pairs([(0, 2**62)], 3)  # its linear index i + 3j would overflow


def test_edge_list_reports_earlier_of_two_faults(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("0 1 1.0\n0 1 1.0\n2 1 1.0\n")
    with pytest.raises(ValueError, match=re.escape("e.txt:2: duplicate edge (0,1), first at line 1")):
        load_edge_list(path)
    path.write_text("2 1 1.0\n0 1 1.0\n0 1 1.0\n")
    with pytest.raises(ValueError, match="e.txt:1: lower-triangle"):
        load_edge_list(path)
