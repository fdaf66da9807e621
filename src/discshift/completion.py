"""Dual-graph regularized completion.

Solves (diag(s) + alpha * I (x) L_r + beta * L_c (x) I) vec(X) = vec(Y) by
conjugate gradient, where Y is the observed matrix zero-filled off the
sample set: in the eigenbasis of the operator's smooth part, preconditioned
by fast diagonalization, where that pays, and on the implicit product
operator otherwise. Also: the quadratic objective and its gradient, the
reconstruction-error upper bound, and RMSE scoring.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .graphs import ProductOperator, RatingMatrix, GraphLaplacian
from .linalg import (ConvergenceError, SolverOptions, cg_solve, lobpcg_smallest, open_new,
                     random_unit)
from .sampling import SampleSet, grid_pairs

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompletionProblem:
    """Observed values on a sample set plus the dual graphs and weights.

    omega keeps the entry rule on the graphs' grid (`sampling.grid_pairs`).
    `sampled` is the boolean m x n mask of omega, built once here; the
    operator, right-hand side, objective and PD check all read it.
    """

    observations: RatingMatrix
    omega: SampleSet
    row_graph: GraphLaplacian
    col_graph: GraphLaplacian
    alpha: float
    beta: float
    sampled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n = self.row_graph.n, self.col_graph.n
        if (self.observations.m, self.observations.n) != (m, n):
            raise ValueError("observation dims must match the graphs")
        rows, cols = grid_pairs(self.omega, m, n).T
        known = self.observations.mask_bool()[rows, cols]
        if not known.all():
            k = np.argmin(known)
            i, j = rows[k], cols[k]
            raise ValueError("omega contains unobserved entries (missing from the "
                             f"ratings), e.g. ({i}, {j})")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if (self.alpha == 0 or self.beta == 0) and len(self.omega) < m * n:
            raise ValueError("alpha = 0 or beta = 0 requires full sampling")
        sampled = np.zeros((m, n), dtype=bool)
        sampled[rows, cols] = True
        object.__setattr__(self, "sampled", sampled)

    @property
    def m(self) -> int:
        return self.row_graph.n

    @property
    def n(self) -> int:
        return self.col_graph.n

    def operator(self) -> ProductOperator:
        return ProductOperator(self.row_graph, self.col_graph, self.alpha, self.beta,
                               self.sampled.ravel(order="F").astype(np.float64))

    def rhs(self) -> np.ndarray:
        """vec(Y) zero-filled off the sample set, column-major."""
        Y = np.where(self.sampled, self.observations.to_dense(), 0.0)
        return Y.ravel(order="F")


@dataclass
class CompletionReport:
    """Solve output; rmse is filled by callers that hold the ground truth."""

    x_star: np.ndarray
    residual: float
    lambda_min_est: float
    rmse: Optional[float] = None


def check_positive_definite(p: CompletionProblem) -> None:
    """Exact PD test: every (row component x col component) needs a sample.

    The smooth part's nullspace is spanned by indicators of product-graph
    components, which are exactly products of factor-graph components; the
    diagonal term removes a null direction iff the component holds a sample.
    (alpha = 0 or beta = 0 needs full sampling, which CompletionProblem
    enforces and which hits every component.)
    """
    row_comp, col_comp = p.row_graph.components, p.col_graph.components
    hit = np.zeros((row_comp.max() + 1, col_comp.max() + 1), dtype=bool)
    rows, cols = np.nonzero(p.sampled)
    hit[row_comp[rows], col_comp[cols]] = True
    if not hit.all():
        a, b = np.argwhere(~hit)[0]  # row-major: the first unhit (a, b)
        raise ValueError("operator is singular: product component "
                         f"(row comp {a}, col comp {b}) holds no sample")


def dglr_solve(p: CompletionProblem, opts: Optional[SolverOptions] = None,
               estimate_lambda_min: bool = True) -> CompletionReport:
    """Solve the completion system; returns X*, the final relative residual,
    and (optionally) a LOBPCG estimate of the operator's smallest eigenvalue.
    Where the operator's eigenbasis() is `preconditioned`, CG and the
    estimate solve there, in y = (V (x) U)'x, where the preconditioner is a
    diagonal scale, and x = (V (x) U)y; elsewhere both run on x,
    unpreconditioned. The residual is that of x on the operator itself.

    Raises on a singular operator (unsampled product-graph component) and on
    CG non-convergence, which reports the final residual.
    """
    check_positive_definite(p)
    opts = opts or SolverOptions()
    op = p.operator()
    b = p.rhs()
    eig = op.eigenbasis()
    eig = eig if eig is not None and eig.preconditioned else None
    try:
        if eig is None:
            x = cg_solve(op.apply, b, opts)
        else:
            x = eig.basis @ cg_solve(eig.apply, eig.basis.T @ b, opts, eig.precond)
    except ConvergenceError as e:
        raise ConvergenceError(
            f"completion CG did not converge ({e}); operator may be nearly "
            "singular (check sampling of weakly connected components)",
            residual=e.residual) from None
    b_norm = np.linalg.norm(b)
    residual = float(np.linalg.norm(op.apply(x) - b) / b_norm) if b_norm else 0.0

    lam = np.nan
    if estimate_lambda_min:
        eig_opts = SolverOptions(seed=opts.seed)
        x0 = random_unit(np.random.default_rng(eig_opts.seed), op.size)
        if eig is None:
            pair = lobpcg_smallest(op.apply, x0, eig_opts)
        else:
            pair = lobpcg_smallest(eig.apply, eig.basis.T @ x0, eig_opts, eig.precond)
        if not pair.converged:
            _log.warning("lambda_min estimate did not converge (residual %.3e "
                         "after %d iterations)", pair.residual, pair.iterations)
        lam = float(pair.value)
    return CompletionReport(
        x_star=x.reshape((p.m, p.n), order="F"),
        residual=residual,
        lambda_min_est=lam,
    )


def _smooth(X, p: CompletionProblem) -> np.ndarray:
    """alpha * Lr X + beta * X Lc: the smooth part of Q applied to an m x n X."""
    return p.alpha * (p.row_graph.laplacian @ X) + p.beta * (p.col_graph.laplacian @ X.T).T


def dglr_objective(X, p: CompletionProblem) -> float:
    """0.5||mask(X - Y)||_F^2 + (alpha/2) tr(X'LrX) + (beta/2) tr(XLcX')."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (p.m, p.n):
        raise ValueError("shape mismatch")
    fit = p.sampled * (X - p.observations.to_dense())
    return 0.5 * float(np.sum(fit * fit)) + 0.5 * float(np.sum(X * _smooth(X, p)))


def dglr_gradient(X, p: CompletionProblem) -> np.ndarray:
    """mask(X - Y) + alpha * Lr X + beta * X Lc."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (p.m, p.n):
        raise ValueError("shape mismatch")
    return p.sampled * (X - p.observations.to_dense()) + _smooth(X, p)


def mse_upper_bound(x_star, ground_truth, noise, p: CompletionProblem,
                    lambda_min_q: float) -> Tuple[float, float, float]:
    """Reconstruction error bound rho / lambda_min + ||vec(N)||_2.

    rho is the smooth-part energy of the noisy ground truth,
    ||(alpha I (x) Lr + beta Lc (x) I) vec(X + N)||_2. The bound covers the
    exact minimizer; feed it solutions solved tightly (the 1e-9 acceptance
    slack does not absorb loose CG tolerances).

    Returns (rho, bound, actual_error).
    """
    if not lambda_min_q > 0:
        raise ValueError(f"lambda_min estimate must be positive, got {lambda_min_q}")
    X = np.asarray(ground_truth, dtype=np.float64)
    N = np.asarray(noise, dtype=np.float64)
    Xs = np.asarray(x_star, dtype=np.float64)
    rho = float(np.linalg.norm(_smooth(X + N, p).ravel(order="F")))
    bound = rho / lambda_min_q + float(np.linalg.norm(N.ravel(order="F")))
    actual = float(np.linalg.norm((Xs - X).ravel(order="F")))
    return rho, bound, actual


def rmse_eval(x_star, ground_truth, eval_set) -> float:
    """Root mean squared error over (row, col) pairs: a SampleSet, a sequence
    of pairs or a (k, 2) array, which must keep the entry rule
    (`linalg.entry_pairs`) on x_star's grid (`sampling.grid_pairs`).
    """
    Xs = np.asarray(x_star, dtype=np.float64)
    G = np.asarray(ground_truth, dtype=np.float64)
    rows, cols = grid_pairs(eval_set, *Xs.shape).T
    if rows.size == 0:
        raise ValueError("empty evaluation set")
    diff = Xs[rows, cols] - G[rows, cols]
    return float(np.sqrt(np.mean(diff * diff)))


def save_report(report: CompletionReport, json_path, x_csv_path=None) -> None:
    """Scalar fields as JSON; optionally X* as a dense row-major CSV."""
    def _clean(v):
        if v is None:
            return None
        v = float(v)
        return v if np.isfinite(v) else None

    payload = {
        "residual": _clean(report.residual),
        "lambda_min_est": _clean(report.lambda_min_est),
        "rmse": _clean(report.rmse),
        "shape": list(report.x_star.shape),
    }
    with open_new(json_path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    if x_csv_path is not None:
        write_dense_csv(report.x_star, x_csv_path)


def write_dense_csv(X, path) -> None:
    """A dense matrix as row-major CSV with CRLF line ends, as csv.writer
    writes it; values round-trip exactly through repr."""
    with open_new(path, newline="") as f:
        f.writelines(",".join(map(repr, row.tolist())) + "\r\n"
                     for row in np.asarray(X, dtype=np.float64))
