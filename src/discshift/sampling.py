"""Sampling strategies over the product graph.

Every greedy sampler runs one disc-shift loop: each step solves for its
operator's first eigenvector, picks an entry, and shifts that entry's
Gershgorin disc by a self-loop. A step schedule says what each step solves.
GCS and the A-optimal local search in `bandlimited` run the one-block
schedule on the full product operator with their own pick rules; IGCS runs
GCS's rule on a block schedule alternating per-column "cluster" and per-row
"group" blocks of the split operator, so every eigensolve stays
factor-sized. A step may carry a basis, in which the loop maps the start and
the eigenvector: wherever the fast-diagonalization rule holds
(graphs.EigenbasisOperator), the product operator is solved in the
eigenbasis of its smooth part, and an IGCS block whose factor has at most
FAST_DIAG_CAP nodes in the factor's eigenbasis; there the preconditioner is
a diagonal scale. The loop alone warm-starts, names and records each step,
mapping a warm start across a change of basis; each eigensolve runs once,
and one that does not converge raises ConvergenceError.
A uniform random baseline rounds things out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import graphs
from .graphs import GraphLaplacian, ProductOperator
from .linalg import (
    ConvergenceError,
    SolverOptions,
    checked_linear,
    entry_pairs,
    lobpcg_smallest,
    open_new,
    random_unit,
    read_table,
)

# Magnitudes within this absolute band of the candidate max count as tied; the
# lowest linear index wins. The band does not scale with |phi| (entries about
# 1/sqrt(size)): at 120x80 it ties about half the candidates. ROADMAP item 1
# proposes exact argmax in its place.
TIE_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Ordered entry selections as one read-only (k, 2) int64 array `ij` of
    (row, col) pairs on m rows and, when n is given, n columns
    (`linalg.entry_pairs`), built from a sequence of pairs or a (k, 2)
    array; `pairs` and `linear` derive from it. Compares by identity."""

    ij: np.ndarray
    m: int
    budget: int
    n: Optional[int] = None

    def __post_init__(self):
        ij = entry_pairs(self.ij, self.m, self.n)
        ij.flags.writeable = False
        object.__setattr__(self, "ij", ij)
        if len(ij) > self.budget:
            raise ValueError("more samples than budget")

    def __len__(self) -> int:
        return len(self.ij)

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(map(tuple, self.ij.tolist()))

    @property
    def linear(self) -> np.ndarray:
        """Column-major indices i + m*j."""
        return self.ij[:, 0] + self.m * self.ij[:, 1]


def grid_pairs(pairs, m: int, n: int) -> np.ndarray:
    """pairs (a SampleSet, a sequence of pairs or a (k, 2) array) as a (k, 2)
    int64 array under the entry rule on the m x n grid. A SampleSet built on
    that grid already holds the rule, so its `ij` is returned unchecked."""
    if isinstance(pairs, SampleSet) and (pairs.m, pairs.n) == (m, n):
        return pairs.ij
    return entry_pairs(getattr(pairs, "ij", pairs), m, n)


def _from_linear(lin, m: int, n: int, budget: int) -> SampleSet:
    """The SampleSet on the m x n grid of column-major linear indices, in
    their order. It records n, so it passes the entry rule once, here."""
    j, i = divmod(np.asarray(lin, dtype=np.int64), m)
    return SampleSet(np.column_stack((i, j)), m, budget, n)


@dataclass
class SamplerState:
    """What a greedy sampler reports: one (mode, block, index, iterations)
    record per pick, the last being its solve's LOBPCG iterations."""

    steps: List[Tuple[str, int, int, int]] = field(default_factory=list)

    @property
    def iter_counts(self) -> List[int]:
        return [step[3] for step in self.steps]


def tied(mags, top, tie_tol: float = TIE_TOL):
    """The tie test: which of mags count as tied with top, by lying within
    tie_tol below it. argmax_abs_tied's top is its candidates' largest."""
    return mags >= top - tie_tol


def argmax_abs_tied(vec: np.ndarray, candidates: np.ndarray, tie_tol: float = TIE_TOL) -> int:
    """Index of the largest |vec| entry among candidates, lowest index on ties."""
    cand = np.asarray(candidates)
    mags = np.abs(vec[cand])
    return int(cand[np.flatnonzero(tied(mags, mags.max(), tie_tol))[0]])


def _pool(allowed, size: int, K: int, taken=None) -> np.ndarray:
    """Every sampler's pool: the boolean mask over [0, size) of the allowed
    linear indices (all when None; an empty sequence allows none) less those
    marked in the boolean mask taken. Raises `budget K is negative` when K < 0
    and `budget K exceeds available pool P` when the pool holds fewer than K
    indices."""
    if K < 0:
        raise ValueError(f"budget {K} is negative")
    mask = np.full(size, allowed is None)
    if allowed is not None:
        mask[checked_linear(allowed, size, "allowed")] = True
    if taken is not None:
        mask[taken] = False
    if K > (P := int(np.count_nonzero(mask))):
        raise ValueError(f"budget {K} exceeds available pool {P}")
    return mask


def _largest_abs(phi, available, picks):
    """GCS's pick rule: the available index with the largest |phi|, ties to
    the lowest index."""
    return argmax_abs_tied(phi, np.flatnonzero(available))


def _disc_shift(steps, K: int, pick: Callable[[np.ndarray, np.ndarray, List[int]], int],
                m: int, n: int, opts: SolverOptions, name: str,
                warm_start: bool = True) -> Tuple[SampleSet, SamplerState]:
    """The greedy disc-shift loop: the one place that solves, picks, records
    and warm-starts, for K steps of the schedule `steps`.

    steps is a generator, sent each pick k (None first), that yields the next
    step as (apply, precond, basis, available, weight, (offset, stride),
    block): the operator and preconditioner as they stand, the orthogonal
    matrix whose columns are the solve's coordinates (an array or a
    graphs.KronBasis; None: the solve runs on the indices themselves), the
    boolean mask of available indices, the diagonal weight of a pick, the
    map k -> offset + stride * k to linear indices, and the block's (mode,
    index). It shifts the picked disc when sent k. A step starts from the
    last pair if warm_start is on and the last step solved the same block,
    mapped into the step's basis if that changed, else from a seeded random
    vector. It solves once (failing as `<name> <mode> <index> (pick <t>)`),
    takes k = pick(basis @ vec, available, picks), picks being the linear
    picks so far (read only), and records (mode, index, k, iterations).
    Returns (SampleSet on the m x n grid, SamplerState).
    """
    rng = np.random.default_rng(opts.seed)
    picks: List[int] = []
    state = SamplerState()
    k = last = last_basis = None
    for t in range(K):
        apply, precond, basis, available, weight, (offset, stride), block = steps.send(k)
        if block != last or not warm_start:
            x0, image = random_unit(rng, available.size), None
            if basis is not None:
                x0 = basis.T @ x0
        elif basis is not None or last_basis is not None:
            x0 = pair.vec
            if basis is not last_basis:  # the same block in new coordinates
                x0 = x0 if last_basis is None else last_basis @ x0
                x0 = x0 if basis is None else basis.T @ x0
            image = apply(x0)
        else:
            # The last step solved this block, and its pick added `weight` at
            # diagonal entry k, which was 0, so the image gains weight * vec[k];
            # each schedule's operator adds its diagonal term last, so this
            # equals the new operator's image bit for bit.
            x0, image = pair.vec, pair.image.copy()
            image[k] += weight * x0[k]
        pair = lobpcg_smallest(apply, x0, opts, precond, image)
        if not pair.converged:
            raise ConvergenceError(
                f"{name} {block[0]} {block[1]} (pick {t}): eigensolver did not converge "
                f"(residual {pair.residual:.3e})", residual=pair.residual)
        k = pick(pair.vec if basis is None else basis @ pair.vec, available, picks)
        picks.append(offset + stride * k)
        state.steps.append((*block, k, pair.iterations))
        last, last_basis = block, basis
    return _from_linear(picks, m, n, K), state


def greedy_disc_shift(op: ProductOperator, K: int,
                      pick: Callable[[np.ndarray, np.ndarray, List[int]], int], what: str,
                      allowed=None, opts: Optional[SolverOptions] = None,
                      warm_start: bool = True) -> Tuple[SampleSet, SamplerState]:
    """The disc-shift loop on one block, the full product operator: shared
    by GCS and A-optimal local search.

    Each of the K steps solves for the first eigenvector phi of the current
    operator, warm-started with the previous phi unless warm_start is off.
    Where op.eigenbasis(), built once per run, is `preconditioned` for Q as
    it stands, the step solves there, where the preconditioner is a
    diagonal scale; elsewhere on x, unpreconditioned. It takes k =
    pick(phi, available, picks), available being the boolean mask of
    unsampled allowed indices and picks the run's picks so far (both read
    only), and sets diagonal entry k to 1. Its one block is ("product", 0);
    what names the sampler. op is not mutated.
    Returns (SampleSet, SamplerState).
    """
    op = op.copy()
    available = _pool(allowed, op.size, K, taken=op.sample_diag != 0)
    eig = op.eigenbasis()

    def steps():
        while True:
            if eig is not None and eig.preconditioned:
                step = eig.apply, eig.precond, eig.basis
            else:
                step = op.apply, None, None
            k = yield (*step, available, 1.0, (0, 1), ("product", 0))
            op.sample_diag[k] = 1.0
            available[k] = False
            if eig is not None:
                eig.add(k)

    return _disc_shift(steps(), K, pick, op.m, op.n, opts or SolverOptions(), what, warm_start)


def gcs_sample(op: ProductOperator, K: int, allowed=None,
               opts: Optional[SolverOptions] = None,
               warm_start: bool = True) -> Tuple[SampleSet, SamplerState]:
    """Greedy disc-shift sampling on the full product operator.

    The greedy_disc_shift loop, picking the available index with the largest
    |phi| (ties to the lowest linear index). Returns (SampleSet, SamplerState).
    """
    return greedy_disc_shift(op, K, _largest_abs, "GCS", allowed, opts, warm_start)


def _block(G: GraphLaplacian, w_diag: float, w_lap: float, sampled: np.ndarray):
    """(apply, precond, basis) for the IGCS block w_diag * diag(sampled) +
    w_lap * L of the factor graph G, as `_disc_shift` takes them.

    A factor within graphs.FAST_DIAG_CAP gets its spectrum
    L = U diag(lam) U' and the coordinates y = U'x: there the block is
    w_lap * diag(lam) plus a term of rank r, the number of sampled entries,
    and the preconditioner (w_lap L + cI)^-1, with c as
    graphs.EigenbasisOperator sets it, is a diagonal scale. A larger factor
    runs on x itself, unpreconditioned, with the diagonal term added last.
    """
    diag = w_diag * sampled
    if G.n > graphs.FAST_DIAG_CAP:
        L = G.laplacian
        return (lambda x: w_lap * (L @ x) + diag * x), None, None
    lam, U = G.spectrum
    wlam = w_lap * lam
    inv = 1.0 / (wlam + max(float(diag.sum()), 1.0) / diag.size)
    if 2 * np.count_nonzero(sampled) <= sampled.size:
        U_S = U[sampled]  # U' diag(d) U = w_diag U_S' U_S
        apply = lambda y: wlam * y + U_S.T @ (w_diag * (U_S @ y))
    else:  # = w_diag (I - U_C' U_C) on the unsampled rows U_C: fewer rows
        U_C, wlam_d = U[~sampled], wlam + w_diag
        apply = lambda y: wlam_d * y - U_C.T @ (w_diag * (U_C @ y))
    return apply, (lambda r: inv * r), U


def igcs_sample(row_graph: GraphLaplacian, col_graph: GraphLaplacian,
                alpha: float, beta: float, q: float = 0.5, zeta: int = 1,
                K: int = 1, allowed=None,
                opts: Optional[SolverOptions] = None) -> Tuple[SampleSet, SamplerState]:
    """Block-wise greedy sampling alternating clusters (columns) and groups (rows).

    The disc-shift loop on a block schedule. Starting from cluster j = 0,
    each cluster step solves the m x m block q * diag(indicator_col_j) +
    alpha * L_r for its first eigenvector, picks the unsampled allowed row
    by GCS's rule, and marks the entry in both the cluster and group
    indicators. After zeta consecutive picks the schedule jumps to the group
    of the last picked row (matrix (1-q) * diag(indicator_row_i) + beta *
    L_c), and so on until K entries are chosen. A block whose factor is
    within FAST_DIAG_CAP is solved in its factor's eigenbasis, where the
    fast-diagonalization preconditioner is a diagonal scale (`_block`). Each
    new streak starts from a seeded random vector, since the loop warm-starts
    only within a block. An exhausted block advances to the next block index,
    wrapping; one always has an available entry, since the blocks of a mode
    partition the grid and K is at most the pool.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if zeta < 1:
        raise ValueError("zeta must be >= 1")
    m, n = row_graph.n, col_graph.n
    allowed2d = _pool(allowed, m * n, K).reshape((m, n), order="F")

    # Per mode: (index in block, block) views of the allowed and sampled grids,
    # factor graph, diagonal and Laplacian weights, linear-index strides.
    sampled = np.zeros((m, n), dtype=bool)
    modes = {"cluster": (allowed2d, sampled, row_graph, q, alpha, (1, m)),
             "group": (allowed2d.T, sampled.T, col_graph, 1.0 - q, beta, (m, 1))}

    def steps():
        mode, block, streak = "cluster", 0, 0
        while True:
            allow, samp, G, w_diag, w_lap, stride = modes[mode]
            while not (avail := allow[:, block] & ~samp[:, block]).any():
                block, streak = (block + 1) % samp.shape[1], 0
            apply, precond, U = _block(G, w_diag, w_lap, samp[:, block])
            k = yield (apply, precond, U, avail, w_diag, (block * stride[1], stride[0]),
                       (mode, block))
            samp[k, block] = True
            streak += 1
            if streak >= zeta:
                mode, block, streak = "group" if mode == "cluster" else "cluster", k, 0

    return _disc_shift(steps(), K, _largest_abs, m, n, opts or SolverOptions(), "IGCS")


def random_sample(m: int, n: int, K: int, seed: int = 0, allowed=None) -> SampleSet:
    """Uniform sampling without replacement from the allowed pool."""
    pool = np.flatnonzero(_pool(allowed, m * n, K))
    rng = np.random.default_rng(seed)
    return _from_linear(rng.choice(pool, size=K, replace=False), m, n, K)


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
    with open_new(csv_path, newline="") as f:
        np.savetxt(f, ss.ij, fmt="%d", delimiter=",", newline="\r\n",  # as csv.writer
                   header="row,col", comments="")
    sidecar = {**dict.fromkeys(("method", "seed", "alpha", "beta", "q", "zeta",
                                "iter_counts", "wall_time_seconds")),
               "K": ss.budget, **(meta or {})}
    with open_new(_sidecar_path(csv_path)) as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_sample_set(csv_path, m: int, n: int):
    """Load a `row,col` table (see `read_table`) of m x n grid entries
    (`entry_pairs`) and its sidecar if present; returns (SampleSet, meta).
    The budget is the sidecar's K, or the pair count if that is larger or
    there is no sidecar. A pair out of the grid or repeated raises with its
    line number."""
    csv_path = str(csv_path)
    meta = {}
    try:
        with open(_sidecar_path(csv_path)) as f:
            meta = json.load(f)
    except FileNotFoundError:
        pass
    budget = int(meta.get("K") or 0)

    def sample_set(t, _):
        return SampleSet(np.column_stack((t["row"], t["col"])), m=m,
                         budget=max(len(t), budget), n=n)

    return read_table(csv_path, [("row", "i8"), ("col", "i8")], sample_set), meta


def _sidecar_path(csv_path: str) -> str:
    if csv_path.endswith(".csv"):
        return csv_path[:-4] + ".json"
    return csv_path + ".json"

