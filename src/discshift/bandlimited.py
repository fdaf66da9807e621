"""Dual-bandlimited model: Kronecker eigenbasis, A-optimal sampling, LS recovery.

A matrix signal that is bandlimited on both factor graphs lives in the span of
T = U_k1 (x) V_k2, the Kronecker product of the lowest-frequency eigenvectors
of the column and row Laplacians. Sampling quality is scored by the A-optimal
objective Tr[(T_S' T_S)^-1] over the sampled rows T_S, and signals are
recovered by least squares on those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .graphs import GraphLaplacian, ProductOperator, mat_index
from .linalg import SolverOptions, dense_sym_eig
from .sampling import (
    TIE_TOL,
    SampleSet,
    _normalize_allowed,
    _random_unit,
    _solve_step,
    argmax_abs_tied,
)

AOPT_EPS = 1e-8
GRAM_RANK_TOL = 1e-10


@dataclass(frozen=True)
class BandlimitedBasis:
    """First k1 / k2 Laplacian eigenvectors of the column / row graphs.

    T = U_k1 (x) V_k2 is applied through reshapes, never materialized for
    large problems.
    """

    U: np.ndarray  # n x k1, column-graph eigenvectors
    V: np.ndarray  # m x k2, row-graph eigenvectors

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[0]

    @property
    def k1(self) -> int:
        return self.U.shape[1]

    @property
    def k2(self) -> int:
        return self.V.shape[1]

    @property
    def rank(self) -> int:
        return self.k1 * self.k2

    def apply(self, z) -> np.ndarray:
        """T @ z for coefficient vectors z of length k1*k2."""
        z = np.asarray(z, dtype=np.float64)
        Z = z.reshape((self.k2, self.k1), order="F")
        return (self.V @ Z @ self.U.T).ravel(order="F")

    def apply_t(self, y) -> np.ndarray:
        """T' @ y for signals y of length m*n."""
        y = np.asarray(y, dtype=np.float64)
        Y = y.reshape((self.m, self.n), order="F")
        return (self.V.T @ Y @ self.U).ravel(order="F")

    def rows(self, linear_indices) -> np.ndarray:
        """Stack of T's rows at the given product-graph indices."""
        lin = np.asarray(linear_indices, dtype=np.int64)
        if lin.size and lin.min() < 0:
            raise ValueError(f"negative linear index {lin.min()}")
        j, i = np.divmod(lin, self.m)
        # Row r is kron(U[j_r], V[i_r]): entry p*k2 + q is U[j_r, p] * V[i_r, q].
        return (self.U[j][:, :, None] * self.V[i][:, None, :]).reshape(lin.size, self.rank)

    def materialize(self, cap: int = 4096) -> np.ndarray:
        if self.m * self.n > cap:
            raise ValueError("refusing to materialize a large basis")
        return np.kron(self.U, self.V)


def bandlimited_basis(row_graph: GraphLaplacian, col_graph: GraphLaplacian,
                      k1: int, k2: int) -> BandlimitedBasis:
    """Ascending-eigenvalue bases of both factor Laplacians."""
    n, m = col_graph.n, row_graph.n
    if not (1 <= k1 <= n):
        raise ValueError(f"k1={k1} out of range for column graph of size {n}")
    if not (1 <= k2 <= m):
        raise ValueError(f"k2={k2} out of range for row graph of size {m}")
    col_pairs = dense_sym_eig(col_graph.laplacian.to_dense())
    row_pairs = dense_sym_eig(row_graph.laplacian.to_dense())
    U = np.column_stack([p.vec for p in col_pairs[:k1]])
    V = np.column_stack([p.vec for p in row_pairs[:k2]])
    return BandlimitedBasis(U=U, V=V)


def _gram(basis: BandlimitedBasis, linear_indices) -> np.ndarray:
    if len(linear_indices) == 0:
        return np.zeros((basis.rank, basis.rank))
    R = basis.rows(linear_indices)
    return R.T @ R


def aopt_objective(basis: BandlimitedBasis, S, eps: Optional[float] = None) -> float:
    """A-optimal score Tr[(T_S' T_S + eps I)^-1] of a selection.

    eps defaults to 1e-8 while the Gram matrix cannot be full rank (or is
    numerically singular) and to 0 once it is safely invertible, so full-rank
    selections are scored exactly. The selection is scored as a set: rows
    enter the Gram in sorted order, and eigenvalues at or below
    GRAM_RANK_TOL count as exact zeros. Otherwise 1/(eps + noise) would
    amplify null-space rounding into the score and make near-tied
    candidates compare differently across evaluation orders.
    """
    lin = S.linear if isinstance(S, SampleSet) else list(S)
    G = _gram(basis, sorted(int(l) for l in lin))
    evals = np.linalg.eigvalsh(0.5 * (G + G.T))
    evals = np.where(evals > GRAM_RANK_TOL, evals, 0.0)
    if eps is None:
        full_rank = len(lin) >= basis.rank and evals[0] > 0
        eps = 0.0 if full_rank else AOPT_EPS
    shifted = evals + eps
    if np.any(shifted <= 0):
        raise np.linalg.LinAlgError(
            "sampled Gram matrix singular beyond regularization")
    return float(np.sum(1.0 / shifted))


def aopt_local_search(basis: BandlimitedBasis, op: ProductOperator, K: int,
                      L_pool: int, opts: Optional[SolverOptions] = None,
                      allowed=None, tie_tol: float = TIE_TOL) -> SampleSet:
    """A-optimal greedy sampling restricted to a local candidate pool.

    Each step ranks unsampled indices by the magnitude of the current
    operator's first eigenvector, keeps the top L_pool as candidates, scores
    each by aopt_objective(S + candidate), picks the minimizer, and shifts
    that disc (diagonal +1) before the next eigensolve. Pool membership uses
    the same tie rule as the final pick (magnitudes within tie_tol tie, the
    lowest linear index wins) so the selection does not depend on eigensolver
    noise. L_pool = 1 reduces to gcs_sample's picks; L_pool = mn is plain
    greedy A-optimal.
    """
    size = op.size
    if not (1 <= L_pool <= size):
        raise ValueError(f"L_pool={L_pool} out of range")
    opts = opts or SolverOptions()
    op = op.copy()
    mask = _normalize_allowed(allowed, size)
    available = mask & (op.sample_diag == 0)
    if K > int(available.sum()):
        raise ValueError(f"budget {K} exceeds available pool {int(available.sum())}")

    rng = np.random.default_rng(opts.seed)
    warm = None
    chosen: List[int] = []
    pairs: List[Tuple[int, int]] = []

    for t in range(K):
        x0 = warm if warm is not None else _random_unit(rng, size)
        pair = _solve_step(op.apply, x0, opts, rng, size, f"A-opt step {t}")
        phi = pair.vec
        cand = np.flatnonzero(available)
        n_pool = min(L_pool, cand.size)
        pool = []
        remaining = cand.tolist()
        for _ in range(n_pool):
            pick = argmax_abs_tied(phi, np.array(remaining), tie_tol)
            pool.append(pick)
            remaining.remove(pick)
        best_idx, best_val = None, None
        for c in sorted(pool):
            val = aopt_objective(basis, chosen + [c])
            if best_val is None or val < best_val - 1e-12:
                best_idx, best_val = c, val
        chosen.append(best_idx)
        available[best_idx] = False
        op.sample_diag[best_idx] = 1.0
        pairs.append(mat_index(best_idx, op.m))
        warm = phi

    return SampleSet(tuple(pairs), m=op.m, budget=K)


def bandlimited_reconstruct(basis: BandlimitedBasis, S, y_S) -> np.ndarray:
    """Least-squares recovery of a dual-bandlimited signal from samples.

    Exact for noiseless bandlimited signals whenever the sampled basis rows
    have full column rank. Raises on rank deficiency, reporting the rank.
    """
    lin = S.linear if isinstance(S, SampleSet) else list(S)
    y_S = np.asarray(y_S, dtype=np.float64)
    if y_S.shape != (len(lin),):
        raise ValueError("y_S must align with the sample set")
    R = basis.rows(lin)
    rank = int(np.linalg.matrix_rank(R))
    if rank < basis.rank:
        raise np.linalg.LinAlgError(
            f"sampled basis is rank deficient: rank {rank} < {basis.rank}")
    z, *_ = np.linalg.lstsq(R, y_S, rcond=None)
    return basis.apply(z)
