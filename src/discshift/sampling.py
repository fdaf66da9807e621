"""Sampling strategies over the product graph.

The greedy disc-shift loop repeatedly solves for the current operator's
first eigenvector, warm-started, picks an entry from it, and adds a unit
self-loop there. GCS picks the largest-magnitude entry; the A-optimal local
search in `bandlimited` runs the same loop with a pooled pick rule. The
block-wise variant (IGCS) alternates between per-column "cluster" and
per-row "group" blocks of the split operator so every eigensolve stays
factor-sized. A uniform random baseline and an exact greedy oracle (dense,
test-scale only) round things out.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, List, Optional, Tuple

import numpy as np

from .graphs import GraphLaplacian, ProductOperator, lin_index, mat_index, product_dense
from .linalg import (
    ConvergenceError,
    EigenPair,
    SolverOptions,
    lobpcg_smallest,
    random_unit,
    read_table,
)

_log = logging.getLogger(__name__)

# Magnitudes this close to the candidate max count as tied; the lowest linear
# index wins. Calibrated to the eigenvector error of LOBPCG at its default
# tolerance, and matching the gap below which selection is ambiguous anyway.
TIE_TOL = 1e-4


@dataclass(frozen=True)
class SampleSet:
    """Ordered entry selections with their column-major linear view."""

    pairs: Tuple[Tuple[int, int], ...]
    m: int
    budget: int

    def __post_init__(self):
        try:
            flat = np.fromiter(chain.from_iterable(self.pairs), dtype=np.int64)
        except OverflowError:
            raise ValueError("sample pair index beyond int64") from None
        pairs = tuple(zip(flat[0::2].tolist(), flat[1::2].tolist()))
        if pairs != tuple(self.pairs):  # a pair of another length, or a non-integer
            raise ValueError("sample pairs must be (row, col) integer pairs")
        object.__setattr__(self, "pairs", pairs)
        ij = flat.reshape(-1, 2)
        ij = ij[np.lexsort(ij.T)]
        if np.any((ij[1:] == ij[:-1]).all(axis=1)):
            raise ValueError("sample pairs must be distinct")
        if len(self.pairs) > self.budget:
            raise ValueError("more samples than budget")

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def linear(self) -> List[int]:
        return [lin_index(i, j, self.m) for i, j in self.pairs]


def in_grid(pairs, m: int, n: int) -> np.ndarray:
    """(row, col) pairs as a (k, 2) array; raises ValueError naming the first
    pair outside the m x n grid (numpy would wrap a negative index)."""
    ij = np.asarray(pairs).reshape(-1, 2)
    outside = ((ij < 0) | (ij >= (m, n))).any(axis=1)
    if outside.any():
        i, j = ij[np.argmax(outside)]
        raise ValueError(f"pair ({i}, {j}) outside the {m}x{n} grid")
    return ij


@dataclass
class SamplerState:
    """What a greedy sampler reports per pick: its LOBPCG iterations (a
    retry's included) and, for IGCS, the (mode, block, index) of the pick."""

    iter_counts: List[int] = field(default_factory=list)
    steps: List[Tuple[str, int, int]] = field(default_factory=list)


def argmax_abs_tied(vec: np.ndarray, candidates: np.ndarray, tie_tol: float = TIE_TOL) -> int:
    """Index of the largest |vec| entry among candidates, lowest index on ties."""
    cand = np.asarray(candidates)
    mags = np.abs(vec[cand])
    top = mags.max()
    return int(cand[np.flatnonzero(mags >= top - tie_tol)[0]])


def _normalize_allowed(allowed, size: int) -> np.ndarray:
    if allowed is None:
        return np.ones(size, dtype=bool)
    allowed = np.asarray(allowed)
    if allowed.dtype == bool:
        if allowed.shape != (size,):
            raise ValueError("allowed mask length must be m*n")
        return allowed.copy()
    mask = np.zeros(size, dtype=bool)
    mask[allowed.astype(np.int64)] = True
    return mask


def _solve_step(apply, x0, opts, rng, n, what):
    """One eigensolve; retry once from a fresh random start before giving up."""
    pair = lobpcg_smallest(apply, x0, opts)
    if not pair.converged:
        _log.warning("%s: eigensolver did not converge (residual %.3e after %d "
                     "iterations); retrying from a random start",
                     what, pair.residual, pair.iterations)
        retry = lobpcg_smallest(apply, random_unit(rng, n), opts)
        retry = EigenPair(retry.value, retry.vec, retry.residual,
                          pair.iterations + retry.iterations, retry.converged)
        if not retry.converged:
            raise ConvergenceError(
                f"{what}: eigensolver did not converge "
                f"(residual {retry.residual:.3e})", residual=retry.residual)
        return retry
    return pair


def greedy_disc_shift(op: ProductOperator, K: int,
                      pick: Callable[[np.ndarray, np.ndarray], int], what: str,
                      allowed=None, opts: Optional[SolverOptions] = None,
                      warm_start: bool = True) -> Tuple[SampleSet, SamplerState]:
    """The greedy disc-shift loop shared by GCS and A-optimal local search.

    Each of the K steps solves for the first eigenvector phi of the current
    operator (warm-started with the previous phi unless warm_start is off),
    takes k = pick(phi, available), available being the boolean mask of
    unsampled allowed indices (read only), and sets diagonal entry k to 1.
    what names the sampler in convergence errors. The caller's operator is
    not mutated. Returns (SampleSet, SamplerState).
    """
    opts = opts or SolverOptions()
    op = op.copy()
    size = op.size
    available = _normalize_allowed(allowed, size) & (op.sample_diag == 0)
    if K > int(available.sum()):
        raise ValueError(f"budget {K} exceeds available pool {int(available.sum())}")

    rng = np.random.default_rng(opts.seed)
    warm: Optional[np.ndarray] = None
    pairs: List[Tuple[int, int]] = []
    state = SamplerState()
    for t in range(K):
        x0 = warm if warm is not None else random_unit(rng, size)
        pair = _solve_step(op.apply, x0, opts, rng, size, f"{what} step {t}")
        k_star = pick(pair.vec, available)
        op.sample_diag[k_star] = 1.0
        available[k_star] = False
        pairs.append(mat_index(k_star, op.m))
        state.iter_counts.append(pair.iterations)
        if warm_start:
            warm = pair.vec
    return SampleSet(tuple(pairs), m=op.m, budget=K), state


def gcs_sample(op: ProductOperator, K: int, allowed=None,
               opts: Optional[SolverOptions] = None,
               warm_start: bool = True) -> Tuple[SampleSet, SamplerState]:
    """Greedy disc-shift sampling on the full product operator.

    The greedy_disc_shift loop, picking the available index with the largest
    |phi| (ties to the lowest linear index). Returns (SampleSet, SamplerState).
    """
    def pick(phi, available):
        return argmax_abs_tied(phi, np.flatnonzero(available))

    return greedy_disc_shift(op, K, pick, "GCS", allowed, opts, warm_start)


def igcs_sample(row_graph: GraphLaplacian, col_graph: GraphLaplacian,
                alpha: float, beta: float, q: float = 0.5, zeta: int = 1,
                K: int = 1, allowed=None,
                opts: Optional[SolverOptions] = None) -> Tuple[SampleSet, SamplerState]:
    """Block-wise greedy sampling alternating clusters (columns) and groups (rows).

    Starting from cluster j = 0, each cluster step solves the m x m block
    q * diag(indicator_col_j) + alpha * L_r for its first eigenvector, picks
    the best unsampled allowed row, and marks the entry in both the cluster
    and group indicators. After zeta consecutive picks the sampler jumps to
    the group of the last picked row (matrix (1-q) * diag(indicator_row_i) +
    beta * L_c), and so on until K entries are chosen. The warm vector lives
    only within one block streak; each new streak starts from a seeded random
    vector. An exhausted block advances to the next block index, wrapping.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if zeta < 1:
        raise ValueError("zeta must be >= 1")
    m, n = row_graph.n, col_graph.n
    opts = opts or SolverOptions()
    allowed2d = _normalize_allowed(allowed, m * n).reshape((m, n), order="F")
    pool = int(allowed2d.sum())
    if K > pool:
        raise ValueError(f"budget {K} exceeds available pool {pool}")

    Lr = row_graph.csr()
    Lc = col_graph.csr()
    q_hat = 1.0 - q
    sampled = np.zeros((m, n), dtype=bool)
    rng = np.random.default_rng(opts.seed)

    mode = "cluster"
    block = 0
    streak = 0
    warm: Optional[np.ndarray] = None
    pairs: List[Tuple[int, int]] = []
    state = SamplerState()

    skips = 0
    while len(pairs) < K:
        if mode == "cluster":
            avail = allowed2d[:, block] & ~sampled[:, block]
            n_blocks = n
        else:
            avail = allowed2d[block, :] & ~sampled[block, :]
            n_blocks = m
        if not avail.any():
            block = (block + 1) % n_blocks
            streak = 0
            warm = None
            skips += 1
            if skips > n_blocks:
                raise RuntimeError("no available block; pool exhausted unexpectedly")
            continue
        skips = 0
        streak += 1
        if mode == "cluster":
            ind = sampled[:, block].astype(np.float64)
            apply = lambda v: q * (ind * v) + alpha * (Lr @ v)
            dim = m
        else:
            ind = sampled[block, :].astype(np.float64)
            apply = lambda v: q_hat * (ind * v) + beta * (Lc @ v)
            dim = n
        x0 = warm if warm is not None else random_unit(rng, dim)
        pair = _solve_step(apply, x0, opts,
                           rng, dim, f"IGCS {mode} {block} (pick {len(pairs)})")
        phi = pair.vec
        k_star = argmax_abs_tied(phi, np.flatnonzero(avail))
        if mode == "cluster":
            entry = (k_star, block)
        else:
            entry = (block, k_star)
        sampled[entry] = True
        pairs.append(entry)
        state.steps.append((mode, block, k_star))
        state.iter_counts.append(pair.iterations)
        warm = phi
        if streak >= zeta:
            mode = "group" if mode == "cluster" else "cluster"
            block = k_star
            streak = 0
            warm = None

    return SampleSet(tuple(pairs), m=m, budget=K), state


def random_sample(m: int, n: int, K: int, seed: int = 0, allowed=None) -> SampleSet:
    """Uniform sampling without replacement from the allowed pool."""
    mask = _normalize_allowed(allowed, m * n)
    pool = np.flatnonzero(mask)
    if K > pool.size:
        raise ValueError(f"budget {K} exceeds available pool {pool.size}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(pool, size=K, replace=False)
    return SampleSet(tuple(mat_index(int(l), m) for l in picks), m=m, budget=K)


def exact_greedy_oracle(op: ProductOperator, K: int, cap: int = 64,
                        tie_tol: float = 1e-12) -> Tuple[SampleSet, List[float]]:
    """Brute-force greedy: per step, add the unit self-loop that maximizes the
    smallest eigenvalue, evaluated densely over every candidate.

    Test oracle only; refuses mn above `cap`. Returns the selections and the
    per-step smallest eigenvalue right after each addition.
    """
    size = op.size
    if size > cap:
        raise ValueError(f"mn={size} above exact oracle cap {cap}")
    Q = product_dense(op)
    sampled = op.sample_diag.astype(bool).copy()
    pairs: List[Tuple[int, int]] = []
    trace: List[float] = []
    for _ in range(K):
        cand = np.flatnonzero(~sampled)
        if cand.size == 0:
            raise ValueError("budget exceeds pool")
        best = None
        for k in cand:
            Qk = Q.copy()
            Qk[k, k] += 1.0
            lam = float(np.linalg.eigvalsh(Qk)[0])
            if best is None or lam > best[1] + tie_tol:
                best = (int(k), lam)
        k_star, lam_star = best
        Q[k_star, k_star] += 1.0
        sampled[k_star] = True
        pairs.append(mat_index(k_star, op.m))
        trace.append(lam_star)
    return SampleSet(tuple(pairs), m=op.m, budget=K), trace


def lambda_max_bound(row_graph: GraphLaplacian, col_graph: GraphLaplacian,
                     alpha: float, beta: float) -> float:
    """Upper bound on the largest eigenvalue of the sampled product operator."""
    return 2.0 * alpha * row_graph.max_degree + 2.0 * beta * col_graph.max_degree + 1.0


def save_sample_set(ss: SampleSet, csv_path, meta: Optional[dict] = None) -> None:
    """Persist selections as `row,col` CSV plus a JSON sidecar of run metadata.

    The sidecar always carries the keys method, K, seed, alpha, beta, q, zeta,
    iter_counts and wall_time_seconds (null when not applicable).
    """
    csv_path = str(csv_path)
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["row", "col"])
        writer.writerows(ss.pairs)
    sidecar = {
        "method": None,
        "K": ss.budget,
        "seed": None,
        "alpha": None,
        "beta": None,
        "q": None,
        "zeta": None,
        "iter_counts": None,
        "wall_time_seconds": None,
    }
    sidecar.update(meta or {})
    with open(_sidecar_path(csv_path), "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_sample_set(csv_path, m: int, budget: Optional[int] = None):
    """Load a `row,col` table (see `read_table`) and its sidecar if present;
    returns (SampleSet, meta)."""
    csv_path = str(csv_path)
    pairs = read_table(csv_path, [("row", "i8"), ("col", "i8")]).tolist()
    meta = {}
    try:
        with open(_sidecar_path(csv_path)) as f:
            meta = json.load(f)
    except FileNotFoundError:
        pass
    k = budget if budget is not None else max(len(pairs), int(meta.get("K") or 0))
    try:
        return SampleSet(tuple(pairs), m=m, budget=k), meta
    except ValueError as e:
        raise ValueError(f"{csv_path}: {e}") from None


def _sidecar_path(csv_path: str) -> str:
    if csv_path.endswith(".csv"):
        return csv_path[:-4] + ".json"
    return csv_path + ".json"

