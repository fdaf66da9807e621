"""Dual-bandlimited model: Kronecker eigenbasis, A-optimal sampling, LS recovery.

A matrix signal that is bandlimited on both factor graphs lives in the span of
T = U_k1 (x) V_k2, the Kronecker product of the lowest-frequency eigenvectors
of the column and row Laplacians. Sampling quality is scored by the A-optimal
objective Tr[(T_S' T_S)^-1] over the sampled rows T_S, and signals are
recovered by least squares on those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .graphs import GraphLaplacian, ProductOperator
from .linalg import SolverOptions, checked_linear
from .sampling import SampleSet, argmax_abs_tied, greedy_disc_shift, tied

AOPT_EPS = 1e-8
GRAM_RANK_TOL = 1e-10


@dataclass(frozen=True)
class BandlimitedBasis:
    """First k1 / k2 Laplacian eigenvectors of the column / row graphs.

    T = U_k1 (x) V_k2 is applied through reshapes, never materialized.
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

    def rows(self, linear_indices) -> np.ndarray:
        """T's rows at the given product-graph indices, an integer array in
        [0, mn) or an empty sequence: shape linear_indices.shape + (k1*k2,)."""
        lin = checked_linear(linear_indices, self.m * self.n, "sample")
        j, i = np.divmod(lin, self.m)
        # Row r is kron(U[j_r], V[i_r]): entry p*k2 + q is U[j_r, p] * V[i_r, q].
        return (self.U[j][..., :, None] * self.V[i][..., None, :]).reshape(lin.shape + (self.rank,))


def bandlimited_basis(row_graph: GraphLaplacian, col_graph: GraphLaplacian,
                      k1: int, k2: int) -> BandlimitedBasis:
    """Ascending-eigenvalue bases of both factor Laplacians."""
    n, m = col_graph.n, row_graph.n
    if not (1 <= k1 <= n):
        raise ValueError(f"k1={k1} out of range for column graph of size {n}")
    if not (1 <= k2 <= m):
        raise ValueError(f"k2={k2} out of range for row graph of size {m}")
    return BandlimitedBasis(U=col_graph.spectrum[1][:, :k1], V=row_graph.spectrum[1][:, :k2])


def aopt_objective(basis: BandlimitedBasis, S):
    """A-optimal score Tr[(T_S' T_S + eps I)^-1] of a selection S of linear
    indices, as a float; of each row of a (b, k) array of selections, as a
    (b,) array. A single selection is scored as a batch of one.

    eps is AOPT_EPS = 1e-8 while the Gram matrix cannot be full rank (or is
    numerically singular) and to 0 once it is safely invertible, so full-rank
    selections are scored exactly. A selection is scored as a set: rows
    enter the Gram in sorted order, and eigenvalues at or below
    GRAM_RANK_TOL count as exact zeros. Otherwise 1/(eps + noise) would
    amplify null-space rounding into the score and make near-tied
    candidates compare differently across evaluation orders. Each Gram is
    formed exactly from its rows; a rank-one update of a shared one rounds
    differently and changes which of two near-tied candidates wins.
    """
    S = np.asarray(S)
    if S.ndim not in (1, 2):
        raise ValueError(f"selections must be 1-D or 2-D, not {S.ndim}-D")
    R = basis.rows(np.sort(np.atleast_2d(S), axis=-1))
    G = np.matmul(R.swapaxes(-1, -2), R)
    evals = np.linalg.eigvalsh(0.5 * (G + G.swapaxes(-1, -2)))
    evals = np.where(evals > GRAM_RANK_TOL, evals, 0.0)
    full_rank = (R.shape[-2] >= basis.rank) & (evals[:, 0] > 0)
    shifted = evals + np.where(full_rank, 0.0, AOPT_EPS)[:, None]
    if np.any(shifted <= 0):
        raise np.linalg.LinAlgError(
            "sampled Gram matrix singular beyond regularization")
    scores = np.sum(1.0 / shifted, axis=-1)
    return float(scores[0]) if S.ndim == 1 else scores


def aopt_pool(phi: np.ndarray, available: np.ndarray, L_pool: int) -> List[int]:
    """The min(L_pool, #available) indices that as many successive
    argmax_abs_tied picks over the available ones take, as an ascending
    list: the pool is a set, and the picks' order is not kept.

    Only candidates tied (`sampling.tied`) with the L_pool-th largest |phi|
    can be picked: every pick's tie band lies inside that set, the band, so
    the picks run over it alone. Sorted by |phi|, the band splits into runs
    where an entry is not tied with the one above it. top - TIE_TOL rounds
    monotonically in top, so no entry of a later run ties with the top of an
    earlier one: the picks take each run whole before the next, and every
    run above the one that holds the last slot comes in at once. The first
    pick is argmax_abs_tied's; the rest of the last run is walked a tie
    window at a time. While the largest remaining |phi|, the top, stays, the
    picks walk the entries tied with it in index order, so a window is taken
    whole, up to its last entry at the top.
    """
    cand = np.flatnonzero(available)
    count = min(L_pool, cand.size)
    mags = np.abs(phi[cand])
    kth = np.partition(mags, cand.size - count)[cand.size - count]
    band = cand[tied(mags, kth)]
    mags = np.abs(phi[band])  # -inf once taken
    ranked = np.sort(mags)[::-1][:count]
    lo = np.flatnonzero(np.append(True, ~tied(ranked[1:], ranked[:-1])))[-1]  # the last run
    taken = (mags > ranked[lo]) | (band == argmax_abs_tied(phi, band))
    mags[taken] = -np.inf
    while left := count - np.count_nonzero(taken):
        top = mags.max()
        last = mags.size - 1 - np.argmax(mags[::-1])  # the last entry at the top
        take = np.flatnonzero(tied(mags[:last + 1], top))[:left]
        taken[take] = True
        mags[take] = -np.inf
    return band[taken].tolist()


def aopt_pick(basis: BandlimitedBasis, L_pool: int):
    """A-optimal pick rule for greedy_disc_shift.

    The pool is aopt_pool, the top L_pool available indices by |phi| under
    GCS's tie rule, so that it does not depend on eigensolver noise; the
    pick is the pool member that minimizes aopt_objective of the run's
    picks so far plus it. The whole pool is scored in one batch, in
    aopt_pool's ascending order, so a score within 1e-12 of the best goes
    to the lowest index.
    """
    if not (1 <= L_pool <= basis.m * basis.n):
        raise ValueError(f"L_pool={L_pool} out of range")

    def pick(phi, available, picks):
        pool = aopt_pool(phi, available, L_pool)
        S = np.empty((len(pool), len(picks) + 1), dtype=np.int64)
        S[:, :-1] = picks
        S[:, -1] = pool
        best_idx, best_val = None, None
        for c, val in zip(pool, aopt_objective(basis, S).tolist()):
            if best_val is None or val < best_val - 1e-12:
                best_idx, best_val = c, val
        return best_idx

    return pick


def aopt_local_search(basis: BandlimitedBasis, op: ProductOperator, K: int,
                      L_pool: int, opts: Optional[SolverOptions] = None,
                      allowed=None) -> SampleSet:
    """A-optimal greedy sampling restricted to a local candidate pool: the
    greedy_disc_shift loop with aopt_pick. L_pool = 1 reduces to gcs_sample's
    picks; L_pool = mn is plain greedy A-optimal. The basis must be built
    for op's grid.
    """
    if (basis.m, basis.n) != (op.m, op.n):
        raise ValueError(f"basis is for a {basis.m}x{basis.n} grid, "
                         f"the operator for {op.m}x{op.n}")
    return greedy_disc_shift(op, K, aopt_pick(basis, L_pool), "A-opt", allowed, opts)[0]


def bandlimited_reconstruct(basis: BandlimitedBasis, S, y_S) -> np.ndarray:
    """Least-squares recovery of a dual-bandlimited signal from its samples
    y_S at the linear indices S.

    Exact for noiseless bandlimited signals whenever the sampled basis rows
    have full column rank. Raises on rank deficiency, reporting the rank.
    """
    y_S = np.asarray(y_S, dtype=np.float64)
    if y_S.shape != (len(S),):
        raise ValueError("y_S must align with the sample set")
    R = basis.rows(S)
    rank = int(np.linalg.matrix_rank(R))
    if rank < basis.rank:
        raise np.linalg.LinAlgError(
            f"sampled basis is rank deficient: rank {rank} < {basis.rank}")
    z, *_ = np.linalg.lstsq(R, y_S, rcond=None)
    return basis.apply(z)
