"""Sparse symmetric linear algebra kernels.

CSR storage, conjugate gradient, a single-vector LOBPCG for the smallest
eigenpair (with warm start; one operator application per iteration plus one
that confirms the final residual; its Rayleigh-Ritz step runs on Python
floats around one LAPACK eigensolve), both optionally preconditioned,
Gershgorin disc utilities, the one reader of the package's numeric text
tables (it parses their `# k=<int>` directive and names the line of each
entry fault), the one rule for matrix entries, the one opener of every
file the package writes, and edge-list I/O.
"""

from __future__ import annotations

import io
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

# Module-wide solver defaults. CG is used for linear systems, LOBPCG for the
# smallest eigenpair; both caps are generous for the problem sizes here.
CG_TOL = 1e-8
LOBPCG_TOL = 1e-6
LOBPCG_MAX_ITER = 500
# LOBPCG leaves p out of a Rayleigh-Ritz step when the last Cholesky pivot of
# the unit-diagonal Gram matrix of (x, w, p) is below RR_PIVOT_TOL, i.e. when p
# lies within an angle of about RR_PIVOT_TOL of span{x, w}. A pivot taken from
# a Gram matrix is off by about eps / pivot, 1e-10 at the cut, so the cut is
# still well resolved. GCS and IGCS at 120x80 never came below 8e-4.
# A step shorter than P_DROP_TOL (x has unit norm) leaves no p at all.
RR_PIVOT_TOL = 1e-6
P_DROP_TOL = 1e-14

SYMMETRY_TOL = 1e-12

# Text tables (ratings, sample sets, edge lists) skip everything from `#` (a
# comment) or `row` (a header) to the end of a line. read_table deletes what
# `row` skips before parsing, keeping every newline, because np.loadtxt takes
# a second comment marker through a per-line Python pass instead of its C
# tokenizer.
_HEADER = re.compile("row[^\n]*")


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class SparseSym:
    """Symmetric sparse matrix held as one canonical scipy CSR.

    The matrix is validated once, here: it must be a square float64 CSR in
    canonical format (sorted column indices, no duplicate entries), finite
    and symmetric within 1e-12. `csr` and the array properties are views of
    that one matrix, shared rather than copied; do not modify them.
    Build instances with from_scipy or from_dense.
    """

    csr: sp.csr_matrix

    def __post_init__(self):
        m = self.csr
        if not (sp.issparse(m) and m.format == "csr" and m.dtype == np.float64):
            raise TypeError("SparseSym needs a float64 scipy CSR matrix")
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not m.has_canonical_format:
            raise ValueError("CSR must have sorted column indices and no duplicates")
        if not np.isfinite(m.data).all():
            raise ValueError("matrix has NaN or infinite entries")
        d = m - m.T
        if d.nnz and np.max(np.abs(d.data)) > SYMMETRY_TOL:
            raise ValueError("matrix is not symmetric within 1e-12")

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def row_offsets(self) -> np.ndarray:
        return self.csr.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self.csr.indices

    @property
    def values(self) -> np.ndarray:
        return self.csr.data

    @classmethod
    def from_scipy(cls, m) -> "SparseSym":
        """Copy any scipy sparse matrix, summing duplicate entries."""
        m = sp.csr_matrix(m, dtype=np.float64, copy=True)
        m.sum_duplicates()
        return cls(m)

    @classmethod
    def from_dense(cls, a) -> "SparseSym":
        return cls.from_scipy(sp.csr_matrix(np.asarray(a, dtype=np.float64)))


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its unit-norm eigenvector plus solver bookkeeping.
    `image` is A vec from the application that computed `residual`, where
    the solver keeps it (`lobpcg_smallest`)."""

    value: float
    vec: np.ndarray
    residual: float = 0.0
    iterations: int = 0
    converged: bool = True
    image: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances for the iterative solvers.

    tol / max_iter of None pick the per-solver defaults (CG: 1e-8 and 10n,
    LOBPCG: 1e-6 and 500). seed drives any random initial vectors.
    """

    tol: Optional[float] = None
    max_iter: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """A standard-normal draw of length n, normalized: a random start vector."""
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def cg_solve(apply: Callable[[np.ndarray], np.ndarray], b,
             opts: Optional[SolverOptions] = None,
             precond: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """Conjugate gradient for a symmetric positive definite system, from x = 0.

    Parameters
    ----------
    apply : callable
        x -> A x for an SPD operator A.
    b : ndarray
        Right-hand side. b = 0 returns x = 0 immediately.
    opts : SolverOptions
        tol is a relative residual bound (default 1e-8); max_iter defaults
        to 10n.
    precond : callable, optional
        r -> T r for an SPD approximation T of A^-1; the search directions
        are built from T r instead of r. The stopping test reads the
        unpreconditioned residual b - A x. None runs plain CG.

    Raises
    ------
    ConvergenceError
        If max_iter is exhausted (final residual attached) or the iteration
        produces non-finite values / detects an indefinite operator.
    """
    opts = opts or SolverOptions()
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    tol = CG_TOL if opts.tol is None else opts.tol
    max_iter = 10 * n if opts.max_iter is None else opts.max_iter

    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n)

    x = np.zeros(n)
    r = b.copy()
    z = r if precond is None else precond(r)
    p = z.copy()
    r_norm = b_norm
    if r_norm / b_norm <= tol:
        return x

    # An overflow or invalid value is left to the finiteness checks, which
    # raise ConvergenceError, rather than to numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rz = float(r @ z)
        for _ in range(max_iter):
            Ap = apply(p)
            pAp = float(p @ Ap)
            if not np.isfinite(pAp):
                raise ConvergenceError("NaN/Inf encountered in CG")
            if pAp <= 0.0:
                raise ConvergenceError("operator is not positive definite (p'Ap <= 0)")
            gamma = rz / pAp
            x = x + gamma * p
            r = r - gamma * Ap
            r_norm = np.sqrt(float(r @ r))
            if not np.isfinite(r_norm):
                raise ConvergenceError("NaN/Inf encountered in CG")
            if r_norm / b_norm <= tol:
                return x
            z = r if precond is None else precond(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new

    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {r_norm / b_norm:.3e})",
        residual=r_norm / b_norm,
    )


def _residual(V, AV, lam):
    """Write A x - lambda x into V[2] (x = V[1]) and return its norm."""
    np.multiply(V[1], lam, out=V[2])
    np.subtract(AV[1], V[2], out=V[2])
    return math.sqrt(V[2] @ V[2])  # np.linalg.norm's own arithmetic


def _restart(A, V, AV, image=None):
    """Normalize x = V[1] and set A x: apply A afresh, or divide `image`, the
    image of x as it was, by the same norm. Returns (lambda, residual)."""
    norm = math.sqrt(V[1] @ V[1])
    V[1] /= norm
    if image is None:
        AV[1] = A(V[1])
    else:
        np.divide(image, norm, out=AV[1])
    lam = float(V[1] @ AV[1])
    return lam, _residual(V, AV, lam)


def _ritz(M, K, three):
    """Smallest eigenpair (lambda, c) of K c = lambda M c with c'Mc = 1, on
    the leading 3x3 block of M and K (2x2 unless three), given as lists of
    rows of floats; c is a list of 3 floats, c[2] = 0 unless three.

    Returns None when the Cholesky factor of the unit-diagonal Gram matrix
    fails or its last pivot, the sine of the angle between the last basis
    vector and the span of the others, is below RR_PIVOT_TOL.
    """
    # At k <= 3 numpy's and LAPACK's per-call costs exceed the arithmetic, so
    # everything but the eigensolve runs on Python floats.
    # L L' = S M S for S = diag(s), and P = L^-1 S, so that P M P' = I.
    s0, s1 = 1.0 / math.sqrt(M[0][0]), 1.0 / math.sqrt(M[1][1])
    l00 = math.sqrt(M[0][0] * (s0 * s0))
    l10 = M[0][1] * (s1 * s0) / l00
    d = M[1][1] * (s1 * s1) - l10 * l10
    if not d > 0.0:
        return None
    l11 = math.sqrt(d)
    p00, p11 = s0 / l00, s1 / l11
    p10 = -l10 * p00 / l11
    # B = P K P', from the rows r of P K; only its upper triangle is set,
    # which is all the eigensolver reads.
    r0, r1 = p10 * K[0][0] + p11 * K[0][1], p10 * K[0][1] + p11 * K[1][1]
    B = [[p00 * p00 * K[0][0], p00 * r0], [0.0, p10 * r0 + p11 * r1]]
    if three:
        s2 = 1.0 / math.sqrt(M[2][2])
        l20 = M[0][2] * (s2 * s0) / l00
        l21 = (M[1][2] * (s2 * s1) - l20 * l10) / l11
        d = M[2][2] * (s2 * s2) - l20 * l20 - l21 * l21
        if not d > 0.0 or not math.sqrt(d) >= RR_PIVOT_TOL:
            return None
        l22 = math.sqrt(d)
        p20, p21, p22 = -(l20 * p00 + l21 * p10) / l22, -l21 * p11 / l22, s2 / l22
        r0, r1, r2 = (p20 * K[0][i] + p21 * K[1][i] + p22 * K[2][i] for i in range(3))
        B[0].append(p00 * r0)
        B[1].append(p10 * r0 + p11 * r1)
        B.append([0.0, 0.0, p20 * r0 + p21 * r1 + p22 * r2])
    elif not l11 >= RR_PIVOT_TOL:
        return None
    evals, Y, _ = lapack.dsyevd(B)
    y = Y[:, 0].tolist()
    c = [p00 * y[0] + p10 * y[1], p11 * y[1], 0.0]
    if three:
        c = [c[0] + p20 * y[2], c[1] + p21 * y[2], p22 * y[2]]
    return float(evals[0]), c


def _carried(c, M):
    """(c'Mc, d'Mc, d'Md) for d = c with d[0] = 0, on the 3x3 Gram matrix M
    of a basis B given as lists: the Gram entries of x = B c and p = B d."""
    c0, c1, c2 = c
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = M
    d0, d1, d2 = m01 * c1 + m02 * c2, m11 * c1 + m12 * c2, m12 * c1 + m22 * c2
    dMc = c1 * (m01 * c0 + d1) + c2 * (m02 * c0 + d2)
    return c0 * (m00 * c0 + d0) + dMc, dMc, c1 * d1 + c2 * d2


def lobpcg_smallest(apply: Callable[[np.ndarray], np.ndarray], x0,
                    opts: Optional[SolverOptions] = None,
                    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    image: Optional[np.ndarray] = None) -> EigenPair:
    """Smallest eigenpair of a symmetric PSD operator, block size 1.

    Each iteration does a Rayleigh-Ritz step on span{x, w, p} where w is the
    residual, or its image under precond, and p the previous search
    direction. x0 seeds the subspace, so passing the previous eigenvector
    warm-starts the solve.

    A x and A p are carried forward as the same linear combinations that
    produce x and p (Knyazev, SIAM J. Sci. Comput. 23(2), 2001), so each
    iteration needs only A w, and the operator is applied to w once. The
    Gram matrices of the 3x3 (2x2 without p) Rayleigh-Ritz problem take
    their w entries from one matrix-vector product and their x and p entries
    from the previous step's coefficients; p is left out when it is
    numerically in span{x, w} (see RR_PIVOT_TOL). The small problem runs on
    Python floats but for one LAPACK eigensolve (`_ritz`).

    Before returning, A x is recomputed with one more operator application,
    and the reported value, residual and image are taken from it. A result
    whose fresh residual is above tol goes on iterating, and the check is
    not counted as an iteration. So a solve applies the operator once per
    iteration, once to confirm, and once at the start unless it is given
    the image of x0. A wrong image can cost iterations or leave the solve
    unconverged, but it is never reported as converged.

    Parameters
    ----------
    apply : callable
        x -> A x for a symmetric PSD operator A.
    x0 : ndarray
        Nonzero initial vector.
    opts : SolverOptions
        tol bounds the absolute residual ||A v - lambda v|| (default 1e-6);
        max_iter defaults to 500.
    precond : callable, optional
        r -> T r for an SPD T; only the search direction w = T r changes.
        The convergence test and the reported residual stay those of A
        itself. None searches along the residual.
    image : ndarray, optional
        A x0, for a warm start whose image is known (EigenPair.image, updated
        for what changed in A). A is then not applied to x0, and the start
        is confirmed like any other iterate, even if already within tol.

    Returns
    -------
    EigenPair
        Best iterate, with its freshly computed residual and image;
        `converged` is False if the tolerance was not reached within
        max_iter.
    """
    opts = opts or SolverOptions()
    x0 = np.asarray(x0, dtype=np.float64)
    norm0 = np.linalg.norm(x0)
    if norm0 == 0.0 or not np.isfinite(norm0):
        raise ValueError("initial vector must be nonzero and finite")

    if image is not None:
        image = np.asarray(image, dtype=np.float64)
        if image.shape != x0.shape:
            raise ValueError("image must have the shape of the initial vector")

    tol = LOBPCG_TOL if opts.tol is None else opts.tol
    max_iter = LOBPCG_MAX_ITER if opts.max_iter is None else opts.max_iter

    # X holds the rows [p, x, w] in V and their images in AV, so that their
    # dot products with w are one product. Each step writes the next [p, x]
    # and images into the other buffer, and the two swap.
    X, X_next = np.zeros((2, 3, x0.size)), np.empty((2, 3, x0.size))
    V, AV = X
    V[1] = x0
    lam, res = _restart(apply, V, AV, image)
    fresh, has_p = image is None, False
    # Gram entries of the carried (x, p): B'B in G and B'AB in H, as
    # (x'x, x'p, p'p).
    G, H = (1.0, 0.0, 0.0), (lam, 0.0, 0.0)
    it = 0
    while True:
        if res <= tol:
            if fresh:
                break
            # The carried A x had drifted; go on from the fresh one, without
            # the p whose image carries the same drift.
            lam, res = _restart(apply, V, AV)
            fresh, has_p = True, False
            G, H = (1.0,) + G[1:], (lam,) + H[1:]
            continue
        if it == max_iter:
            break
        w = V[2]
        if precond is not None:
            w[:] = precond(w)
        AV[2] = apply(w)
        gp, gx, gw, hp, hx, hw = (X.reshape(6, -1) @ w).tolist()
        # On the basis (x, w, p); the p row and column are unused without p.
        M = [[G[0], gx, G[1]], [gx, gw, gp], [G[1], gp, G[2]]]
        K = [[H[0], hx, H[1]], [hx, hw, hp], [H[1], hp, H[2]]]
        ritz = _ritz(M, K, has_p)
        if ritz is None and has_p:
            ritz = _ritz(M, K, False)
        it += 1
        if ritz is None:
            break  # w adds no direction to x: nothing left to search
        lam, (c0, c1, c2) = ritz
        # x_new = B c and p_new = x_new - c[0] x, the step away from the old
        # x. Without p, c[2] = 0 leaves every sum below as it is.
        G, H = _carried((c0, c1, c2), M), _carried((c0, c1, c2), K)
        # [p_new, x_new] and their images from the rows [p, x, w].
        np.matmul([[c2, 0.0, c1], [c2, c0, c1]], X, out=X_next[:, :2])
        X, X_next = X_next, X
        V, AV = X
        has_p = G[2] > P_DROP_TOL ** 2
        res = _residual(V, AV, lam)
        fresh = False

    if not fresh:
        lam, res = _restart(apply, V, AV)
    return EigenPair(lam, V[1].copy(), residual=res, iterations=it,
                     converged=bool(res <= tol), image=AV[1].copy())


def gershgorin_bounds(A: SparseSym) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row Gershgorin discs as (centers, radii); min(centers - radii)
    lower-bounds every eigenvalue."""
    rows = np.repeat(np.arange(A.n), np.diff(A.row_offsets))
    off = A.col_indices != rows
    radii = np.bincount(rows[off], weights=np.abs(A.values[off]), minlength=A.n)
    return A.csr.diagonal(), radii


def open_new(path, newline=None):
    """open(path, "w", newline=newline) on a new file. A regular file at
    `path` with one link, which the caller may write, is unlinked first: on
    ext4, closing a file that was truncated (or renamed over) flushes it,
    40-90 ms each. Anything else (a symlink, FIFO, device, hard-linked or
    read-only file) is opened in place, as open(path, "w") opens it."""
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass
    return open(path, "w", newline=newline)


def save_edge_list(A: SparseSym, path) -> None:
    """Write a `# n=<nodes>` line, then the upper triangle (incl. diagonal)
    as `i j value` lines, 0-based."""
    rows = np.repeat(np.arange(A.n), np.diff(A.row_offsets))
    upper = A.col_indices >= rows
    with open_new(path) as f:
        f.write(f"# n={A.n}\n")
        f.writelines(f"{i} {c} {v!r}\n" for i, c, v in
                     zip(rows[upper].tolist(), A.col_indices[upper].tolist(),
                         A.values[upper].tolist()))


def read_table(path, dtype, build, delimiter: Optional[str] = ",", keys=()):
    """Parse a numeric text table and return build(records, directive), the
    records being one per data line, in file order.

    The fields of the structured `dtype` name the columns; delimiter None
    splits on whitespace. Empty lines and everything from `#` or `row` (a
    header) to the end of a line are skipped. The directive is the integers
    of the last `# k1=<int> k2=<int>` comment for the names in `keys`, in
    their order, or None without such a comment or without keys.

    The file is read once, stripped of what `row` skips, and parsed in one
    np.loadtxt call with `#` as its only marker; only when that fails are
    the lines scanned, to raise `<path>:<line>: expected '<columns>'` for the
    first one numpy rejects, or `index (...) out of range` when an integer
    column overflows int64. A ValueError that build raises is re-raised as
    `<path>: <message>`, or as `<path>:<line>: <message>` when it is an
    EntryError on record k, the line being k's; a repeat adds
    `, first at line <L>`, the line of the record it repeats.
    """
    dtype = np.dtype(dtype)
    kw = dict(dtype=dtype, delimiter=delimiter, comments="#", ndmin=1)
    with open(path) as f:
        text = f.read()
    directive = "#[ \t]*" + "[ \t]+".join(rf"{k}[ \t]*=[ \t]*(\d+)" for k in keys)
    found = [d.groups() for d in re.finditer(directive, text)] if keys else []
    text = _HEADER.sub("", text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a table with no data lines
        try:
            records = np.loadtxt(io.StringIO(text), **kw)
        except ValueError as err:
            for lineno, line in enumerate(text.split("\n"), start=1):
                try:
                    np.loadtxt([line], **kw)
                except ValueError:
                    ints = [v.strip() for v, name in zip(line.split(delimiter), dtype.names)
                            if dtype[name].kind == "i"]
                    try:
                        huge = any(abs(int(v)) >= 2**63 for v in ints)
                    except ValueError:
                        huge = False
                    what = (f"index ({','.join(ints)}) out of range" if huge else
                            f"expected '{(delimiter or ' ').join(dtype.names)}'")
                    raise ValueError(f"{path}:{lineno}: {what}") from None
            raise ValueError(f"{path}: {err}") from None
    try:
        return build(records, tuple(map(int, found[-1])) if found else None)
    except ValueError as e:
        if not (isinstance(e, EntryError) and e.k is not None):
            raise ValueError(f"{path}: {e}") from None
        lines = [lineno for lineno, line in enumerate(text.split("\n"), start=1)
                 if line.split("#", 1)[0].strip()]
        first = "" if e.first is None else f", first at line {lines[e.first]}"
        raise ValueError(f"{path}:{lines[e.k]}: {e}{first}") from None


def as_int64(a, what: str) -> Optional[np.ndarray]:
    """a as a new int64 array of its shape, or None unless every element is an
    integer (an empty sequence counts): not a bool, even in a list of ints,
    where numpy reads True as 1, nor a float, whole or not. An integer beyond
    int64 raises `<what> index beyond int64`."""
    if not isinstance(a, np.ndarray) or a.dtype in (object, np.uint64):
        a = np.asarray(a, dtype=object)  # astype(int64) then checks the range
        if not all(issubclass(t, (int, np.integer)) and t is not bool
                   for t in set(map(type, a.flat))):
            return None
    elif a.dtype.kind not in "iu":
        return None if a.size else a.astype(np.int64)
    try:
        return a.astype(np.int64)
    except OverflowError:
        raise ValueError(f"{what} index beyond int64") from None


def checked_linear(idx, size: int, what: str) -> np.ndarray:
    """idx as int64 linear indices into [0, size), in idx's shape. They must
    be integers (`as_int64`), or an empty sequence; the error names
    `what` and the first index outside the range."""
    idx = as_int64(idx, what)
    if idx is None:
        raise ValueError(f"{what} must be integer linear indices")
    outside = (idx < 0) | (idx >= size)
    if outside.any():  # numpy would wrap a negative index
        raise ValueError(f"{what} index {idx.flat[np.argmax(outside)]} outside [0, {size})")
    return idx


class EntryError(ValueError):
    """A pair that breaks `entry_pairs`' rule, at position `k`; `first` is
    that of the earlier pair it repeats. Both None where they do not apply."""

    def __init__(self, message, k=None, first=None):
        super().__init__(message)
        self.k, self.first = k, first


def entry_pairs(pairs, m: int, n: Optional[int] = None) -> np.ndarray:
    """The one rule for matrix entries: `pairs` (a sequence of (row, col)
    pairs or a (k, 2) array) as a new (k, 2) int64 array, if each pair is two
    integers (`as_int64`) inside the m x n grid (n None: any column >= 0) and
    unlike every earlier pair. Otherwise EntryError names the first bad pair:
    `pair (i, j) outside the <m>x<n> grid` (n None: `row i out of range for
    m=<m>` or `negative column j`) or `sample pairs must be distinct: (i, j)
    repeats`. A linear index i + m*j beyond int64 raises ValueError."""
    ij = as_int64(pairs, "sample pair")
    if ij is None or ij.shape != (0,) and (ij.ndim != 2 or ij.shape[1] != 2):
        raise EntryError("sample pairs must be (row, col) integer pairs")
    ij = ij.reshape(-1, 2)  # an empty sequence reads as shape (0,)
    rows, cols = ij.T
    out = (rows < 0) | (rows >= m) | (cols < 0) | (cols >= (np.inf if n is None else n))
    if m * (int(cols.max(initial=-1)) + 1 if n is None else n) > np.iinfo(np.int64).max:
        raise ValueError("sample pair index beyond int64")
    # Pairs outside the grid get distinct negative keys, so none repeats.
    key = np.where(out, -1 - np.arange(len(ij)), rows + m * cols)
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(ij), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    bad = out | repeat
    if bad.any():
        k = int(np.argmax(bad))
        i, j = ij[k].tolist()
        if repeat[k]:
            raise EntryError(f"sample pairs must be distinct: ({i}, {j}) repeats",
                             k, int(np.argmax(key == key[k])))
        raise EntryError(f"pair ({i}, {j}) outside the {m}x{n} grid" if n is not None
                         else f"row {i} out of range for m={m}" if not 0 <= i < m
                         else f"negative column {j}", k)
    return ij


def load_edge_list(path, n: Optional[int] = None) -> SparseSym:
    """Read an `i j value` upper-triangle edge list (see `read_table`) and
    mirror it. A `# n=<N>` comment fixes the node count, and a given n that
    differs from it raises naming both; without one the count is n, or else
    the largest index plus one. The first line that breaks the entry rule
    (`entry_pairs`, on the n x n grid) or holds a lower-triangle entry raises
    with its line number."""
    def upper(t, nodes):
        i, j = t["i"], t["j"]
        if nodes and n is not None and nodes[0] != n:
            raise ValueError(f"{nodes[0]} nodes in the file, expected {n}")
        size = nodes[0] if nodes else int(j.max(initial=-1)) + 1 if n is None else n
        lower = np.flatnonzero(j < i)
        k, first = (lower[0] if lower.size else i.size), None
        try:  # the lines before the first lower-triangle one
            entry_pairs(np.column_stack((i[:k], j[:k])), size, size)
        except EntryError as e:
            k, first = e.k, e.first
        if k < i.size:
            raise EntryError("negative index" if min(i[k], j[k]) < 0
                             else "lower-triangle entry in upper-triangle file" if j[k] < i[k]
                             else f"index ({i[k]},{j[k]}) out of range for n={size}"
                             if first is None else f"duplicate edge ({i[k]},{j[k]})", k, first)
        return i, j, t["value"], size

    i, j, v, size = read_table(path, [("i", "i8"), ("j", "i8"), ("value", "f8")], upper,
                               delimiter=None, keys=("n",))
    off = i != j
    m = sp.csr_matrix((np.concatenate([v, v[off]]),
                       (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]))),
                      shape=(size, size))
    return SparseSym.from_scipy(m)
