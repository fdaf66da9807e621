"""Graph construction and the implicit product-graph operator.

Feature kNN graphs, content (co-rating) graphs, planted-partition community
graphs, a synthetic block-smooth ratings generator, and the never-materialized
operator  Q = diag(s) + alpha * I (x) L_r + beta * L_c (x) I  acting on
column-major vectorized m x n matrices, with its form in the eigenbasis of
the smooth part, where the fast-diagonalization inverse is a diagonal scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .linalg import EntryError, SparseSym, as_int64, checked_linear, entry_pairs

COMMUNITY_DRAWS = 50
PRODUCT_DENSE_CAP = 4096
# The fast-diagonalization rule (EigenbasisOperator, _fast_diag_pays): no
# eigenbasis above FAST_DIAG_CAP nodes per factor, the largest its cost was
# measured on, and no preconditioned product solve past FAST_DIAG_SHARE.
# IGCS solves a block in its factor's eigenbasis under the same cap.
FAST_DIAG_CAP = 300
FAST_DIAG_SHARE = 0.01


@dataclass(frozen=True, eq=False)
class GraphLaplacian:
    """Weighted undirected graph with its combinatorial Laplacian L = D - W.

    The one home of what is derived from the graph, each computed once:
    `laplacian` is L as CSR, and `spectrum` and `components` are cached on
    first use. Their arrays are shared, not copied; do not modify them.
    """

    n: int
    weights: SparseSym
    laplacian: sp.csr_matrix
    max_degree: float

    @cached_property
    def spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """(evals, evecs) of the dense L as np.linalg.eigh returns them,
        ascending; both read-only."""
        evals, evecs = np.linalg.eigh(self.laplacian.toarray())
        evals.flags.writeable = evecs.flags.writeable = False
        return evals, evecs

    @cached_property
    def components(self) -> np.ndarray:
        """Connected-component label of each node, read-only."""
        labels = connected_components(self.weights.csr, directed=False)[1]
        labels.flags.writeable = False
        return labels

    def n_components(self) -> int:
        return int(self.components.max()) + 1 if self.n else 0


def laplacian_from_weights(W: SparseSym) -> GraphLaplacian:
    """Build L = D - W from a nonnegative, zero-diagonal adjacency."""
    Wm = W.csr
    if Wm.nnz and Wm.data.min() < 0:
        raise ValueError("negative edge weight")
    diag = Wm.diagonal()
    if np.any(diag != 0):
        raise ValueError("adjacency diagonal must be zero")
    degrees = np.asarray(Wm.sum(axis=1)).ravel()
    L = sp.diags(degrees) - Wm  # a canonical CSR, symmetric as W is
    max_degree = float(degrees.max()) if W.n else 0.0
    return GraphLaplacian(n=W.n, weights=W, laplacian=L, max_degree=max_degree)


def trivial_graph() -> GraphLaplacian:
    """Single node, no edges. Used to run samplers in single-graph mode."""
    empty = SparseSym.from_dense(np.zeros((1, 1)))
    return laplacian_from_weights(empty)


def knn_feature_graph(features, k: int = 10) -> GraphLaplacian:
    """Weighted k-nearest-neighbor graph over feature vectors.

    Parameters
    ----------
    features : (n, d) array
    k : int
        Neighbor count (default 10). Neighbor sets are tie-inclusive: every
        node at the k-th nearest distance is kept.

    Weights are exp(-d^2 / sigma^2) with sigma the mean distance over all
    retained neighbor pairs; the directed graph is symmetrized by
    max(w_ij, w_ji). Zero distances get weight 1 even when sigma == 0.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain NaN/Inf")
    if k < 1 or k >= n:
        raise ValueError(f"k={k} must satisfy 1 <= k <= n-1 (n={n})")

    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.clip(d2, 0.0, None, out=d2)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, np.inf)

    # k-th nearest distance per node; ties at that distance are all kept.
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    neighbor = dist <= kth[:, None]

    sigma = float(dist[neighbor].mean())
    return _kernel_graph(neighbor, dist ** 2, sigma ** 2)


def _kernel_graph(keep: np.ndarray, sq: np.ndarray, width: float) -> GraphLaplacian:
    """The graph of weights exp(-sq / width) on the off-diagonal `keep`
    pairs, symmetrized by max(w_ij, w_ji); 1 on them when width <= 0 (the
    default widths are 0 only when every kept sq is)."""
    W = np.zeros(keep.shape)
    W[keep] = np.exp(-sq[keep] / width) if width > 0 else 1.0
    return laplacian_from_weights(SparseSym.from_dense(np.maximum(W, W.T)))


@dataclass(frozen=True)
class RatingMatrix:
    """Partially observed m x n rating matrix stored as aligned 1-D triplet
    arrays, whose (row, col) pairs keep the entry rule (`linalg.entry_pairs`)."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        rows, cols = (as_int64(a, "rating") for a in (self.rows, self.cols))
        vals = np.asarray(self.vals, dtype=np.float64)
        if rows is None or cols is None:
            raise ValueError("rating indices must be integers")
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must align")
        if rows.ndim != 1:
            raise ValueError("rating triplets must be 1-D arrays")
        try:
            entry_pairs(np.column_stack((rows, cols)), self.m, self.n)
        except EntryError as e:
            if e.k is None:
                raise
            ij = f"({rows[e.k]},{cols[e.k]})"
            raise EntryError(f"index {ij} out of range for {self.m}x{self.n}"
                             if e.first is None else f"duplicate entry {ij}",
                             e.k, e.first) from None
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite rating value")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @property
    def n_known(self) -> int:
        return int(self.rows.size)

    def to_dense(self) -> np.ndarray:
        """The ratings as an m x n array, 0 where unobserved."""
        Y = np.zeros((self.m, self.n))
        Y[self.rows, self.cols] = self.vals
        return Y

    def mask_bool(self) -> np.ndarray:
        M = np.zeros((self.m, self.n), dtype=bool)
        M[self.rows, self.cols] = True
        return M

    def subset(self, positions) -> "RatingMatrix":
        """The entries at `positions`, integer indices into the triplets
        (`linalg.checked_linear`), in that order."""
        idx = checked_linear(positions, self.n_known, "position")
        return RatingMatrix(self.m, self.n, self.rows[idx], self.cols[idx], self.vals[idx])

    @classmethod
    def from_dense(cls, Y) -> "RatingMatrix":
        """The finite entries of Y; NaN or inf marks an unobserved entry."""
        Y = np.asarray(Y, dtype=np.float64)
        m, n = Y.shape
        rows, cols = np.nonzero(np.isfinite(Y))
        return cls(m, n, rows, cols, Y[rows, cols])


def content_graph(Z: RatingMatrix, axis: str = "rows", d_s: Optional[float] = None,
                  gamma: Optional[float] = None) -> GraphLaplacian:
    """Similarity graph from co-rating overlap.

    For nodes i, j with overlap R_ij (entries rated by both), the distance is
    d_ij = ||z_i(R_ij) - z_j(R_ij)||_2 / sqrt(|R_ij|), infinite when the
    overlap is empty. Weights are exp(-(d_ij - d_min)^2 / gamma) for
    d_ij <= d_s and 0 otherwise.

    Defaults: d_s is the 60th percentile of the finite pairwise distances and
    gamma the mean of (d_ij - d_min)^2 over retained edges. A disconnected
    result is allowed but reported via a warning with the component count.
    """
    if axis not in ("rows", "cols"):
        raise ValueError("axis must be 'rows' or 'cols'")
    V = Z.to_dense()
    M = Z.mask_bool().astype(np.float64)
    if axis == "cols":
        V = V.T
        M = M.T
    n = V.shape[0]
    if n < 2:
        raise ValueError("need at least 2 nodes to build a graph")

    A = V * M
    counts = M @ M.T
    s_sq = (A * A) @ M.T
    cross = A @ A.T
    d2_sum = s_sq + s_sq.T - 2.0 * cross
    np.clip(d2_sum, 0.0, None, out=d2_sum)

    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.sqrt(d2_sum / counts)
    dist[counts == 0] = np.inf
    np.fill_diagonal(dist, np.inf)

    offdiag = ~np.eye(n, dtype=bool)
    finite = np.isfinite(dist) & offdiag
    if not finite.any():
        raise ValueError("every pairwise overlap is empty; no graph can be built")

    d_min = float(dist[finite].min())
    if d_s is None:
        d_s = float(np.percentile(dist[finite], 60))
    retained = finite & (dist <= d_s)
    if gamma is None:
        dev = (dist[retained] - d_min) ** 2
        gamma = float(dev.mean()) if dev.size else 0.0

    G = _kernel_graph(retained, (dist - d_min) ** 2, gamma)
    ncomp = G.n_components()
    if ncomp > 1:
        warnings.warn(f"content graph is disconnected ({ncomp} components)")
    return G


def community_graph(n_nodes: int, n_communities: int, p_in: float, p_out: float,
                    seed: int = 0):
    """Planted-partition graph with unit weights, resampled until connected
    (at most COMMUNITY_DRAWS draws).

    Returns (GraphLaplacian, labels). Communities are contiguous index blocks
    with sizes differing by at most one.
    """
    if n_communities < 1 or n_communities > n_nodes:
        raise ValueError("need 1 <= n_communities <= n_nodes")
    if not (0 <= p_out < p_in <= 1):
        raise ValueError("need 0 <= p_out < p_in <= 1")
    sizes = [n_nodes // n_communities + (1 if c < n_nodes % n_communities else 0)
             for c in range(n_communities)]
    labels = np.repeat(np.arange(n_communities), sizes)
    rng = np.random.default_rng(seed)

    same = labels[:, None] == labels[None, :]
    probs = np.where(same, p_in, p_out)
    iu = np.triu_indices(n_nodes, k=1)

    for _ in range(COMMUNITY_DRAWS):
        draw = rng.random(iu[0].size) < probs[iu]
        W = np.zeros((n_nodes, n_nodes))
        W[iu[0][draw], iu[1][draw]] = 1.0
        W += W.T
        G = laplacian_from_weights(SparseSym.from_dense(W))
        if G.n_components() == 1:
            return G, labels
    raise RuntimeError(
        f"could not draw a connected graph in {COMMUNITY_DRAWS} attempts "
        f"(n={n_nodes}, k={n_communities}, p_in={p_in}, p_out={p_out})"
    )


@dataclass(frozen=True)
class SyntheticRatings:
    """Output bundle of synthetic_netflix."""

    ratings: RatingMatrix
    row_graph: GraphLaplacian
    col_graph: GraphLaplacian
    ground_truth: np.ndarray
    row_labels: np.ndarray
    col_labels: np.ndarray


def synthetic_netflix(m: int, n: int, n_row_comm: int = 4, n_col_comm: int = 4,
                      noise_sigma: float = 0.0, seed: int = 0,
                      p_in: float = 0.3, p_out: float = 0.01) -> SyntheticRatings:
    """Fully observed block-smooth rating matrix with its factor graphs.

    Ground truth = per-(row block, col block) base level in {1..5} plus a
    smooth perturbation spanned by the 3 lowest nonconstant eigenvectors of
    each factor Laplacian, clipped to [1, 5]. Observations add optional
    i.i.d. Gaussian noise (std = noise_sigma), clipped to the same range, at
    100% density.
    """
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    if n_row_comm > m or n_col_comm > n:
        raise ValueError("community counts cannot exceed dimensions")
    rng = np.random.default_rng(seed)
    row_graph, row_labels = community_graph(
        m, n_row_comm, p_in, p_out, seed=int(rng.integers(2**31)))
    col_graph, col_labels = community_graph(
        n, n_col_comm, p_in, p_out, seed=int(rng.integers(2**31)))

    levels = rng.integers(1, 6, size=(n_row_comm, n_col_comm)).astype(np.float64)
    base = levels[row_labels][:, col_labels]

    n_modes = 3
    Ur = row_graph.spectrum[1][:, 1:1 + n_modes]
    Uc = col_graph.spectrum[1][:, 1:1 + n_modes]
    C = rng.standard_normal((Ur.shape[1], Uc.shape[1]))
    bump = Ur @ C @ Uc.T
    peak = np.max(np.abs(bump))
    if peak > 0:
        bump *= 0.5 / peak

    truth = np.clip(base + bump, 1.0, 5.0)
    obs = truth
    if noise_sigma > 0:
        obs = np.clip(truth + rng.normal(0.0, noise_sigma, size=truth.shape), 1.0, 5.0)
    return SyntheticRatings(
        ratings=RatingMatrix.from_dense(obs),
        row_graph=row_graph,
        col_graph=col_graph,
        ground_truth=truth,
        row_labels=row_labels,
        col_labels=col_labels,
    )


@dataclass
class ProductOperator:
    """Q = diag(sample) + alpha * I (x) L_r + beta * L_c (x) I, applied implicitly.

    sample_diag is the 0/1 indicator over the mn product-graph nodes in
    column-major order. Everything else is immutable; samplers mutate only
    their own copy of sample_diag.
    """

    row_graph: GraphLaplacian
    col_graph: GraphLaplacian
    alpha: float
    beta: float
    sample_diag: np.ndarray = None

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.sample_diag is None:
            self.sample_diag = np.zeros(self.size, dtype=np.float64)
        else:
            self.sample_diag = np.asarray(self.sample_diag, dtype=np.float64)
            if self.sample_diag.shape != (self.size,):
                raise ValueError("sample_diag must have length m*n")
            bad = ~np.isin(self.sample_diag, (0.0, 1.0))
            if bad.any():
                raise ValueError("sample_diag entries must be 0 or 1")

    @property
    def m(self) -> int:
        return self.row_graph.n

    @property
    def n(self) -> int:
        return self.col_graph.n

    @property
    def size(self) -> int:
        return self.row_graph.n * self.col_graph.n

    def copy(self) -> "ProductOperator":
        return ProductOperator(self.row_graph, self.col_graph, self.alpha,
                               self.beta, self.sample_diag.copy())

    def apply(self, x: np.ndarray) -> np.ndarray:
        return product_apply(self, x)

    def eigenbasis(self) -> Optional[EigenbasisOperator]:
        """Q as it stands in the eigenbasis of its smooth part, or None where
        a factor has more than FAST_DIAG_CAP nodes (EigenbasisOperator)."""
        spectra = _smooth_spectrum(self.row_graph, self.col_graph, self.alpha, self.beta)
        if spectra is None:
            return None
        return EigenbasisOperator(*spectra, np.flatnonzero(self.sample_diag))


def product_apply(op: ProductOperator, x) -> np.ndarray:
    """Apply Q to a column-major vectorized m x n matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.size,):
        raise ValueError(f"dimension mismatch: operator is {op.size}, vector is {x.shape}")
    # Y is the n x m C-order view of x, i.e. X transposed, so Lc @ Y and
    # (Lr @ Y.T).T are already laid out as the output.
    Y = x.reshape((op.n, op.m))
    out = op.beta * (op.col_graph.laplacian @ Y)
    out += op.alpha * (op.row_graph.laplacian @ Y.T).T
    out = out.ravel()
    out += op.sample_diag * x
    return out


@dataclass(frozen=True, eq=False)
class KronBasis:
    """The matrix V (x) U (U m x m, V n x n) on column-major m x n vectors,
    applied through reshapes; `T` is its transpose, V' (x) U'. With factor
    eigenvectors U and V, x = basis @ y sums the modes V[:, j] (x) U[:, i]
    with weights y, whose n x m C-order view is indexed (j, i). The arrays
    are shared, not copied; do not modify them."""

    U: np.ndarray
    V: np.ndarray

    @property
    def T(self) -> "KronBasis":
        return KronBasis(self.U.T, self.V.T)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return (self.V @ x.reshape((self.V.shape[1], self.U.shape[1])) @ self.U.T).ravel()


def _smooth_spectrum(row_graph: GraphLaplacian, col_graph: GraphLaplacian,
                     alpha: float, beta: float):
    """(U, V, smooth) for S = alpha I (x) L_r + beta L_c (x) I: the factor
    eigenvectors (GraphLaplacian.spectrum) and S's eigenvalues as an n x m
    array, smooth[j, i] being that of the mode V[:, j] (x) U[:, i]. None
    when a factor has more than FAST_DIAG_CAP nodes, before any spectrum is
    computed."""
    if max(row_graph.n, col_graph.n) > FAST_DIAG_CAP:
        return None
    lam, U = row_graph.spectrum
    mu, V = col_graph.spectrum
    return U, V, beta * mu[:, None] + alpha * lam


def _fast_diag_pays(smooth: np.ndarray, nonzero: int, low: int) -> bool:
    """The fast-diagonalization rule (EigenbasisOperator.preconditioned) on
    S's eigenvalues `smooth`, for a diagonal term d with `nonzero` nonzero
    entries and `low` modes of S below max(d).

    Samples on the low modes cost the preconditioned solvers iterations. The
    rule was set when a preconditioned CG iteration on x cost about 2.5
    plain ones: on a product of two graphs, False when (#nonzero d / mn) *
    (#low modes / mn) exceeds FAST_DIAG_SHARE, as at alpha = beta = 0.01
    with 10% of the grid sampled; on one graph (the other a point) it won at
    every density measured. It still pays for CG in the eigenbasis (random
    samples, 2-core EPYC, one BLAS thread): past it, at 120 x 80, alpha =
    beta = 0.01 and 10% sampled, CG there took 5.0 ms against 3.4 ms plain,
    and at 300 x 200 and 20% sampled 31 ms against 20 ms. It no longer fits
    GCS: on check [12]'s seed-0 run (30 x 20, alpha = beta = 0.1, K = 100),
    solving every pick preconditioned took 1,438 LOBPCG iterations against
    the rule's 3,049. A re-tune changes picks, so the rule stays.
    """
    return min(smooth.shape) <= 1 or nonzero * low <= FAST_DIAG_SHARE * smooth.size ** 2


class EigenbasisOperator:
    """Q = S + diag(d) of a ProductOperator (d is 0/1), in the coordinates
    y = B'x of S's eigenbasis B = V (x) U, the KronBasis `basis`.

    With the factor spectra L_r = U diag(lam) U' and L_c = V diag(mu) V',
    Q = diag(smooth) + B'diag(d)B there, and the fast-diagonalization
    inverse (S + cI)^-1 (Lynch, Rice & Thomas, Numer. Math. 6, 1964), four
    dense products of factor size on x, is the diagonal scale `precond`.
    c = max(sum(d), 1) / mn, the mean of d floored so the inverse stays
    bounded on S's null space. The sampled term runs on x's g sampled
    columns alone, or its sampled rows where that costs less: 4gm(n + m)
    flops, at most the four products' 4mn(m + n). `preconditioned` is the
    rule `_fast_diag_pays` for Q as it stands: where it holds, GCS, A-opt
    and dglr_solve solve here, elsewhere on x, unpreconditioned.
    ProductOperator.eigenbasis() builds one per run, or None, before any
    spectrum is computed, where a factor has more than FAST_DIAG_CAP nodes,
    since the basis maps grow as mn(m + n) against the sparse matvec's nnz.
    add(k) changes only c and d.
    """

    def __init__(self, U: np.ndarray, V: np.ndarray, smooth: np.ndarray, sampled):
        self.basis = KronBasis(U, V)
        self.smooth = smooth
        self._d = np.zeros(smooth.shape)  # d in the n x m layout of y
        self._d.ravel()[sampled] = 1.0
        # The rule's low modes: those below d's largest entry, which is 1
        # once any entry is sampled (with none, the rule holds regardless).
        self._low = np.count_nonzero(smooth < 1.0)
        self._set()

    def add(self, k: int) -> None:
        """Set d at the linear index k to 1."""
        self._d.ravel()[k] = 1.0
        self._set()

    def _set(self) -> None:
        d, (n, m) = self._d, self._d.shape
        self._count = np.count_nonzero(d)
        self._inv = (1.0 / (self.smooth + max(self._count, 1) / d.size)).ravel()
        cols, rows = np.flatnonzero(d.any(axis=1)), np.flatnonzero(d.any(axis=0))
        U, V = self.basis.U, self.basis.V
        # (by rows, G, mask, F): x's sampled columns are G Y F', masked by d.
        self._rank = (None if not self._count else
                      (False, V[cols], d[cols], U) if cols.size * m <= rows.size * n
                      else (True, U[rows], d[:, rows].T, V))

    @property
    def preconditioned(self) -> bool:
        return _fast_diag_pays(self.smooth, self._count, self._low)

    def precond(self, r: np.ndarray) -> np.ndarray:
        return self._inv * r

    def apply(self, y: np.ndarray) -> np.ndarray:
        Y = y.reshape(self.smooth.shape)
        out = self.smooth * Y
        if self._rank is not None:
            by_rows, G, mask, F = self._rank
            R = G.T @ ((mask * ((G @ (Y.T if by_rows else Y)) @ F.T)) @ F)
            out += R.T if by_rows else R
        return out.ravel()


def product_dense(op: ProductOperator) -> np.ndarray:
    """Materialize Q. Oracle/test use only; refuses mn above PRODUCT_DENSE_CAP."""
    mn = op.size
    if mn > PRODUCT_DENSE_CAP:
        raise ValueError(f"refusing to materialize {mn} x {mn} product operator")
    Lr = op.row_graph.laplacian.toarray()
    Lc = op.col_graph.laplacian.toarray()
    Q = op.alpha * np.kron(np.eye(op.n), Lr) + op.beta * np.kron(Lc, np.eye(op.m))
    Q[np.diag_indices(mn)] += op.sample_diag
    return Q
