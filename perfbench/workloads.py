"""The benchmark's workloads and the checks on their outputs.

Every workload draws its data from `synthetic_netflix` with 4x4 communities,
noise_sigma = 0.6 and alpha = beta = 1, and runs sample -> complete -> eval.
Each is sized so that a different layer of the package does most of the
work (see perfbench/README.md):

- gcs-9k6: GCS on 120x80 through the API; the product-operator matvec and
  LOBPCG's own Python dominate.
- cli-igcs-60k: gen/sample/complete/eval through `discshift.cli.main` at
  300x200; factor-sized IGCS solves, CSV/JSON I/O and the CLI's own loops.
- aopt-2k4: A-optimal local search on 60x40 through the API; candidate
  scoring in the bandlimited layer dominates.

The budgets are kept small (K = 80, 600 and 40) because a pass's time
varies about 12% between inputs: a 40 s run must pass many inputs for its
median to hold still across seeds.

The checks recompute every output the program reports with plain numpy and
scipy, never with the package's own operator code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse as sp

import discshift.bandlimited as bandlimited
import discshift.cli as cli
import discshift.completion as completion
import discshift.graphs as graphs
import discshift.linalg as linalg
import discshift.sampling as sampling
from tracer import span

ALPHA = BETA = 1.0
NOISE_SIGMA = 0.6
COMMUNITIES = 4
BASIS_K = 4  # k1 = k2 of the bandlimited basis that scores every pick set

# CG stops when its recursively updated residual is below 1e-8 relative;
# the residual recomputed from X* drifts from it by rounding only.
CG_TOL = 1e-8
RESIDUAL_LIMIT = CG_TOL * 1.01
RMSE_RTOL = 1e-9
AOPT_RTOL = 1e-8


@dataclass
class Dataset:
    """One generated input plus the harness's own copies of its truth."""

    seed: int
    m: int
    n: int
    W_row: sp.csr_matrix  # adjacencies as the harness reads them
    W_col: sp.csr_matrix
    truth: np.ndarray  # noiseless ground truth, m x n
    observed: np.ndarray  # noisy ratings, m x n (fully observed)
    basis: Optional[object] = None  # BandlimitedBasis for aopt_score
    api: dict = field(default_factory=dict)  # package objects (API workloads)
    dir: Optional[Path] = None  # generated files (CLI workload)


@dataclass
class PassOutput:
    """What one sample -> complete -> eval pass produced, and its timings."""

    sample_s: float
    complete_s: float
    eval_s: float
    picks: list  # ordered (row, col) pairs
    solves: list  # (prefix length, X* as m x n array)
    rmse: float
    lambda_min: float
    operations: int  # library or CLI calls the pass made

    @property
    def pipeline_s(self) -> float:
        return self.sample_s + self.complete_s + self.eval_s


def pick_hash(picks) -> str:
    """SHA-256 of the ordered pick list, one `row,col` line per pick."""
    text = "".join(f"{i},{j}\n" for i, j in picks)
    return hashlib.sha256(text.encode()).hexdigest()


def laplacian(W: sp.csr_matrix) -> sp.csr_matrix:
    return (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def product_matrix(d: Dataset, picks) -> sp.csr_matrix:
    """Q = diag(s) + alpha I(x)L_r + beta L_c(x)I on column-major vec(X)."""
    s = np.zeros(d.m * d.n)
    for i, j in picks:
        s[i + d.m * j] = 1.0
    Q = (ALPHA * sp.kron(sp.identity(d.n), laplacian(d.W_row))
         + BETA * sp.kron(laplacian(d.W_col), sp.identity(d.m))
         + sp.diags(s))
    return Q.tocsr()


def matvec_bytes(d: Dataset) -> int:
    """Computed compulsory traffic of one product-operator matvec: both
    factor Laplacians in CSR (8-byte values, 4-byte indices) plus reading x
    and the sample diagonal and writing the result (8 bytes per entry).
    Temporaries and cache misses are not counted."""
    csr = sum(laplacian(W).nnz * 12 + (W.shape[0] + 1) * 4 for W in (d.W_row, d.W_col))
    return int(csr + 3 * 8 * d.m * d.n)


def unsampled(d: Dataset, picks) -> np.ndarray:
    mask = np.ones((d.m, d.n), dtype=bool)
    for i, j in picks:
        mask[i, j] = False
    return mask


def aopt_reference(basis, picks, m: int) -> float:
    """Tr[(T_S' T_S)^-1] by explicit rows and a dense inverse; falls back to
    the package's documented eps rule when T_S is rank deficient."""
    lin = sorted(i + m * j for i, j in picks)
    R = np.array([np.kron(basis.U[l // m], basis.V[l % m]) for l in lin])
    G = R.T @ R
    evals = np.linalg.eigvalsh(G)
    if len(lin) >= G.shape[0] and evals[0] > bandlimited.GRAM_RANK_TOL:
        return float(np.trace(np.linalg.inv(G)))
    evals = np.where(evals > bandlimited.GRAM_RANK_TOL, evals, 0.0)
    return float(np.sum(1.0 / (evals + bandlimited.AOPT_EPS)))


def check_pass(d: Dataset, K: int, out: PassOutput) -> tuple:
    """Run the output checks of one pass.

    Returns (checks, aopt_score) where checks is a list of
    (name, passed, detail).
    """
    checks = []
    picks = out.picks
    in_range = all(0 <= i < d.m and 0 <= j < d.n for i, j in picks)
    checks.append(("picks", len(picks) == K and len(set(picks)) == K and in_range,
                   f"{len(picks)} picks, {len(set(picks))} distinct, in range {in_range}"))
    if not in_range:
        return checks, float("nan")
    for k, X in out.solves:
        omega = picks[:k]
        Y = np.zeros((d.m, d.n))
        rows, cols = np.array(omega).T
        Y[rows, cols] = d.observed[rows, cols]
        b = Y.ravel(order="F")
        r = product_matrix(d, omega) @ X.ravel(order="F") - b
        rel = float(np.linalg.norm(r) / np.linalg.norm(b))
        checks.append((f"residual@{k}", rel <= RESIDUAL_LIMIT, f"{rel:.3e}"))
    mask = unsampled(d, picks)
    X = out.solves[-1][1]
    ref = float(np.sqrt(np.mean((X[mask] - d.truth[mask]) ** 2)))
    checks.append(("rmse", abs(out.rmse - ref) <= RMSE_RTOL * ref,
                   f"reported {out.rmse!r} recomputed {ref!r}"))
    score = bandlimited.aopt_objective(d.basis, [i + d.m * j for i, j in picks])
    ref = aopt_reference(d.basis, picks, d.m)
    checks.append(("aopt_score", abs(score - ref) <= AOPT_RTOL * abs(ref),
                   f"aopt_objective {score!r} recomputed {ref!r}"))
    return checks, score


def _csr_from_sym(W) -> sp.csr_matrix:
    return sp.csr_matrix((W.values, W.col_indices, W.row_offsets), shape=(W.n, W.n))


class ApiWorkload:
    """Shared set-up and completion for the workloads that call the API."""

    name = ""
    m = n = K = 0
    prefixes: tuple = ()
    inputs = 0  # inputs a run sets up and passes at least once each
    setup_repeats = 4  # set-ups timed per untraced pass (set-up is ~15 ms)

    def setup(self, seed: int, workdir: Path) -> Dataset:
        bundle = graphs.synthetic_netflix(
            self.m, self.n, COMMUNITIES, COMMUNITIES, noise_sigma=NOISE_SIGMA, seed=seed)
        op = graphs.ProductOperator(bundle.row_graph, bundle.col_graph, ALPHA, BETA)
        basis = bandlimited.bandlimited_basis(
            bundle.row_graph, bundle.col_graph, BASIS_K, BASIS_K)
        return Dataset(
            seed=seed, m=self.m, n=self.n,
            W_row=_csr_from_sym(bundle.row_graph.weights),
            W_col=_csr_from_sym(bundle.col_graph.weights),
            truth=bundle.ground_truth, observed=bundle.ratings.to_dense(),
            basis=basis, api={"bundle": bundle, "op": op})

    def prepare(self, d: Dataset) -> None:
        """Harness-side preparation outside the timed set-up (none here)."""

    def sample(self, d: Dataset, opts):
        raise NotImplementedError

    def run_pass(self, d: Dataset, tracer) -> PassOutput:
        bundle = d.api["bundle"]
        opts = linalg.SolverOptions(seed=d.seed)
        t0 = time.perf_counter()
        with span(tracer, "bench.sample"):
            ss = self.sample(d, opts)
        t1 = time.perf_counter()
        reports = []
        with span(tracer, "bench.complete"):
            for k in self.prefixes:
                omega = sampling.SampleSet(ss.pairs[:k], m=d.m, budget=k)
                with span(tracer, "completion.problem_build"):
                    problem = completion.CompletionProblem(
                        observations=bundle.ratings, omega=omega,
                        row_graph=bundle.row_graph, col_graph=bundle.col_graph,
                        alpha=ALPHA, beta=BETA)
                reports.append(completion.dglr_solve(problem, opts))
        t2 = time.perf_counter()
        eval_pairs = list(zip(*np.nonzero(unsampled(d, ss.pairs))))
        t3 = time.perf_counter()
        with span(tracer, "bench.eval"):
            rmse = completion.rmse_eval(reports[-1].x_star, d.truth, eval_pairs)
        t4 = time.perf_counter()
        return PassOutput(
            sample_s=t1 - t0, complete_s=t2 - t1, eval_s=t4 - t3,
            picks=list(ss.pairs),
            solves=[(k, r.x_star) for k, r in zip(self.prefixes, reports)],
            rmse=rmse, lambda_min=reports[-1].lambda_min_est,
            operations=2 + len(self.prefixes))


class GcsWorkload(ApiWorkload):
    """GCS, K = 80 on 120x80, then completion at budgets 20, 40 and 80."""

    name = "gcs-9k6"
    m, n, K = 120, 80, 80
    prefixes = (20, 40, 80)
    inputs = 11

    def sample(self, d, opts):
        ss, _ = sampling.gcs_sample(d.api["op"], self.K, opts=opts)
        return ss


class AoptWorkload(ApiWorkload):
    """A-optimal local search, K = 40 with a 50-candidate pool, on 60x40."""

    name = "aopt-2k4"
    m, n, K = 60, 40, 40
    L_POOL = 50
    prefixes = (40,)
    inputs = 14

    def sample(self, d, opts):
        return bandlimited.aopt_local_search(d.basis, d.api["op"], self.K,
                                             self.L_POOL, opts=opts)


def run_cli(argv) -> str:
    """discshift.cli.main in-process; returns its stdout, raises on failure."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"discshift {argv[0]} exited with {rc}")
    return buf.getvalue()


def _write_pairs(path: Path, mask: np.ndarray) -> None:
    rows, cols = np.nonzero(mask)
    with open(path, "w", newline="") as f:
        f.write("row,col\n")
        f.writelines(f"{i},{j}\n" for i, j in zip(rows.tolist(), cols.tolist()))


def _read_pairs(path: Path) -> list:
    with open(path, newline="") as f:
        return [(int(r[0]), int(r[1])) for r in list(csv.reader(f))[1:] if r]


def _read_adjacency(path: Path, size: int) -> sp.csr_matrix:
    e = np.loadtxt(path, ndmin=2)
    i, j, w = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
    off = i != j
    W = sp.coo_matrix((np.concatenate([w, w[off]]),
                       (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]))),
                      shape=(size, size))
    return W.tocsr()


class CliIgcsWorkload:
    """gen -> sample (IGCS, K = 600) -> complete -> eval through the CLI on
    300x200."""

    name = "cli-igcs-60k"
    m, n, K = 300, 200, 600
    inputs = 5
    setup_repeats = 1

    def setup(self, seed: int, workdir: Path) -> Dataset:
        out = workdir / f"data-{seed}"
        run_cli(["gen", "--m", self.m, "--n", self.n, "--row-comm", COMMUNITIES,
                 "--col-comm", COMMUNITIES, "--noise-sigma", NOISE_SIGMA,
                 "--seed", seed, "--out-dir", out])
        return Dataset(seed=seed, m=self.m, n=self.n, W_row=None, W_col=None,
                       truth=None, observed=None, dir=out)

    def prepare(self, d: Dataset) -> None:
        """Read the generated files with plain numpy and write the truth in
        the ratings format `eval` reads."""
        out = d.dir
        d.W_row = _read_adjacency(out / "row_graph.txt", self.m)
        d.W_col = _read_adjacency(out / "col_graph.txt", self.n)
        d.truth = np.loadtxt(out / "ground_truth.csv", delimiter=",", ndmin=2)
        r = np.loadtxt(out / "ratings.csv", delimiter=",", skiprows=2, ndmin=2)
        d.observed = np.zeros((self.m, self.n))
        d.observed[r[:, 0].astype(np.int64), r[:, 1].astype(np.int64)] = r[:, 2]
        with open(out / "truth.csv", "w") as f:
            f.write(f"# m={self.m} n={self.n}\nrow,col,value\n")
            f.writelines(f"{i},{j},{float(d.truth[i, j])!r}\n"
                         for j in range(self.n) for i in range(self.m))
        row_graph = graphs.laplacian_from_weights(linalg.SparseSym.from_scipy(d.W_row))
        col_graph = graphs.laplacian_from_weights(linalg.SparseSym.from_scipy(d.W_col))
        d.basis = bandlimited.bandlimited_basis(row_graph, col_graph, BASIS_K, BASIS_K)

    def run_pass(self, d: Dataset, tracer) -> PassOutput:
        out = d.dir
        picks_csv, report = out / "picks.csv", out / "report.json"
        x_csv, eval_csv = out / "x.csv", out / "eval_set.csv"
        graphs_args = ["--row-graph", out / "row_graph.txt",
                       "--col-graph", out / "col_graph.txt",
                       "--alpha", ALPHA, "--beta", BETA, "--seed", d.seed]
        t0 = time.perf_counter()
        with span(tracer, "bench.sample"):
            run_cli(["sample", "--method", "igcs", "--budget", self.K,
                     "--out", picks_csv] + graphs_args)
        t1 = time.perf_counter()
        picks = _read_pairs(picks_csv)
        _write_pairs(eval_csv, unsampled(d, picks))
        t2 = time.perf_counter()
        with span(tracer, "bench.complete"):
            run_cli(["complete", "--ratings", out / "ratings.csv", "--omega", picks_csv,
                     "--out", report, "--x-out", x_csv] + graphs_args)
        t3 = time.perf_counter()
        with span(tracer, "bench.eval"):
            printed = run_cli(["eval", "--completed", x_csv, "--truth", out / "truth.csv",
                               "--eval-set", eval_csv])
        t4 = time.perf_counter()
        with open(report) as f:
            lam = json.load(f)["lambda_min_est"]
        X = np.loadtxt(x_csv, delimiter=",", ndmin=2)
        return PassOutput(
            sample_s=t1 - t0, complete_s=t3 - t2, eval_s=t4 - t3,
            picks=picks, solves=[(len(picks), X)],
            rmse=float(printed.split()[1]), lambda_min=float(lam), operations=3)


WORKLOADS = {w.name: w for w in (GcsWorkload(), CliIgcsWorkload(), AoptWorkload())}
