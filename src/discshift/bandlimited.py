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
AOPT_MARGIN = 1e-12  # a pool score replaces the pick only when more than this below it
SCREEN_REL = 1e-6  # the rank-one screen's width relative to its least score


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


def _rank_one_screen(basis: BandlimitedBasis, picks, pool) -> Optional[tuple]:
    """(a, DELTA) for aopt_pick's screen: a the pool's rank-one scores and
    DELTA the screen's width; None when the picks' Gram cannot screen.

    With G0 the Gram of the picks' rows and r a pool member's row, the
    score is tr[(G0 + r r')^-1] = tr(G0^-1) - |G0^-1 r|^2 / (1 + r' G0^-1 r)
    (Sherman-Morrison). G0 is built afresh from the picks and inverted
    through its eigendecomposition Q diag(w) Q'. T has orthonormal columns,
    so every Gram of its rows lies below the identity (w <= 1) and every
    score above k. A backward-stable eigh perturbs G0 by about k eps in
    norm, which moves a score by about k eps tr(G0^-1) / w_min at most, and
    evaluating the formula adds about k eps tr(G0^-1); eta = 4 k eps
    tr(G0^-1) / w_min bounds both, for every member alike. DELTA is
    SCREEN_REL |a*| + 2 (L + 1) AOPT_MARGIN, a* the least score and L the
    pool's size. None while G0 has fewer than k rows or w_min <=
    GRAM_RANK_TOL (aopt_objective then scores with AOPT_EPS and its rank
    clamp, which no rank-one update reproduces), or when eta > DELTA / 4.
    """
    if len(picks) < basis.rank:
        return None
    R0 = basis.rows(picks)
    w, Q = np.linalg.eigh(R0.T @ R0)
    if w[0] <= GRAM_RANK_TOL:
        return None
    P = basis.rows(pool)
    Y = P @ ((Q / w) @ Q.T)
    trace = float(np.sum(1.0 / w))
    a = trace - np.einsum("ij,ij->i", Y, Y) / (1.0 + np.einsum("ij,ij->i", Y, P))
    delta = SCREEN_REL * abs(a.min()) + 2 * (len(pool) + 1) * AOPT_MARGIN
    eta = 4 * basis.rank * np.finfo(float).eps * trace / w[0]
    return (a, delta) if eta <= delta / 4 else None


def aopt_pick(basis: BandlimitedBasis, L_pool: int):
    """A-optimal pick rule for greedy_disc_shift.

    The pool is aopt_pool, the top L_pool available indices by |phi| under
    GCS's tie rule, so that it does not depend on eigensolver noise. A
    member's score is aopt_objective of the run's picks so far plus it. The
    rule scans the pool in aopt_pool's ascending order: the first member is
    the pick so far, and a later one replaces it exactly when its score lies
    more than AOPT_MARGIN below the pick's. So a near-tie need not go to
    the lowest index: scores 5, 5 - 0.9e-12 and 5 - 1.8e-12 pick the third,
    which lies more than the margin below the first (the second does not).

    A rank-one screen (_rank_one_screen) decides which members need an
    exact score. The exact scores alone decide the pick, and it is the
    whole pool's pick bit for bit:
    - Let s be the exact scores, s* the least, L the pool's size and N the
      members with s <= s* + (L + 1) AOPT_MARGIN. A scan over any part of
      the pool that holds N picks as the whole scan does. The two scans
      part when one takes a member the other lacks, which lies outside N.
      While they are apart, the lower of their two picks falls by at most
      the margin per member scanned, fewer than L in all, so it stays above
      s* plus the margin: both scans take the least member when it comes.
      Once they share a pick within the margin of s*, no member outside N
      can replace it.
    - The screen keeps, in pool order, the members whose rank-one score a
      lies within DELTA of the least, a*. If every |a - s| <= eta, each
      member of N has a - a* <= (L + 1) AOPT_MARGIN + 2 eta, which is at
      most DELTA when eta <= DELTA / 4, since DELTA >= 2 (L + 1)
      AOPT_MARGIN. The screen runs only when its a priori eta meets that.
    - A kept member whose exact score lies more than DELTA / 4 from its
      rank-one score sends the pick back to the whole pool: the same
      scoring, with every member kept.
    Every pick before the picks' Gram G0 has rank k, and every pick whose
    G0 is too ill-conditioned for eta, scores the whole pool. The rule
    keeps no state: G0 is built from the picks on each call.
    """
    if not (1 <= L_pool <= basis.m * basis.n):
        raise ValueError(f"L_pool={L_pool} out of range")

    def pick(phi, available, picks):
        pool = np.asarray(aopt_pool(phi, available, L_pool))
        S = np.empty((pool.size, len(picks) + 1), dtype=np.int64)
        S[:, :-1] = picks
        S[:, -1] = pool
        keep = np.ones(pool.size, dtype=bool)
        screen = _rank_one_screen(basis, picks, pool)
        if screen is not None:
            approx, delta = screen
            keep = approx <= approx.min() + delta
        scores = aopt_objective(basis, S[keep])
        if screen is not None and np.any(np.abs(scores - approx[keep]) > delta / 4):
            keep[:] = True
            scores = aopt_objective(basis, S)
        best_idx, best_val = None, None
        for c, val in zip(pool[keep].tolist(), scores.tolist()):
            if best_val is None or val < best_val - AOPT_MARGIN:
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
