"""Dataset ingestion, split protocol, experiment orchestration, metric export.

An experiment cell is one (seed, method, budget) triple: build graphs, sample
from the pool, complete from the initial data plus the samples, score RMSE on
entries the solver never saw. Wall time is measured around sampling only.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .bandlimited import aopt_pick, bandlimited_basis
from .completion import CompletionProblem, dglr_solve, rmse_eval, save_report
from .graphs import (
    GraphLaplacian,
    ProductOperator,
    RatingMatrix,
    content_graph,
    knn_feature_graph,
    laplacian_from_weights,
    synthetic_netflix,
)
from .linalg import SolverOptions, load_edge_list, open_new, read_table
from .sampling import (
    SampleSet,
    gcs_sample,
    greedy_disc_shift,
    igcs_sample,
    random_sample,
    save_sample_set,
)

METRICS_HEADER = "method,seed,K,rmse,lambda_min_est,wall_time_seconds,lobpcg_total_iters"
METHODS = ("gcs", "igcs", "random", "aopt")
# The parameters of a `synthetic:` dataset spec, which are also the flags of
# `discshift gen`, with their defaults.
GENERATOR_DEFAULTS = {"m": 60, "n": 40, "row_comm": 4, "col_comm": 4,
                      "noise_sigma": 0.0, "p_in": 0.3, "p_out": 0.01}


@dataclass
class ExperimentConfig:
    """Everything one experiment sweep needs.

    dataset is either a ratings CSV path or a generator spec like
    `synthetic:m=60,n=40,row_comm=4,col_comm=4,noise_sigma=0.6`. Budgets are
    fractions of m*n (floats below 1) or absolute counts; when the list is
    empty the sweep runs the single budget sample_budget_fraction.
    """

    dataset: str
    initial_fraction: float = 0.0
    sample_budget_fraction: float = 1.0
    eval_fraction: float = 0.0
    methods: List[str] = field(default_factory=lambda: ["gcs"])
    budgets: List[Union[int, float]] = field(default_factory=list)
    alpha: float = 0.1
    beta: float = 0.1
    q: float = 0.5
    zeta: int = 1
    l_pool: int = 1
    k1: int = 4
    k2: int = 4
    graph_source: str = "provided"
    knn_k: int = 10
    seeds: List[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"
    row_graph: Optional[str] = None
    col_graph: Optional[str] = None
    features_row: Optional[str] = None
    features_col: Optional[str] = None
    tol: Optional[float] = None

    def __post_init__(self):
        for name in ("initial_fraction", "sample_budget_fraction", "eval_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        total = self.initial_fraction + self.sample_budget_fraction + self.eval_fraction
        if total > 1.0 + 1e-12:
            raise ValueError(f"split fractions sum to {total} > 1")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {sorted(METHODS)}")


@dataclass(frozen=True)
class MetricsRow:
    method: str
    seed: int
    K: int
    rmse: float
    lambda_min_est: float
    wall_time_seconds: float
    lobpcg_total_iters: int

    def __post_init__(self):
        for name in ("rmse", "lambda_min_est", "wall_time_seconds"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def load_ratings(path) -> RatingMatrix:
    """Read a `row,col,value` table (see `read_table`). A `# m=<M> n=<N>`
    comment fixes dimensions; otherwise they are inferred from the data. An
    entry out of range or repeated raises with its line number.
    """
    def ratings(t, dims):
        rows, cols = t["row"], t["col"]
        m, n = dims or (int(rows.max(initial=-1)) + 1, int(cols.max(initial=-1)) + 1)
        return RatingMatrix(m, n, rows, cols, t["value"])

    return read_table(path, [("row", "i8"), ("col", "i8"), ("value", "f8")], ratings,
                      keys=("m", "n"))


def save_ratings(data: RatingMatrix, path) -> None:
    with open_new(path) as f:
        f.write(f"# m={data.m} n={data.n}\n")
        f.write("row,col,value\n")
        f.writelines(f"{i},{j},{v!r}\n" for i, j, v in
                     zip(data.rows.tolist(), data.cols.tolist(), data.vals.tolist()))


def split_dataset(data: RatingMatrix, cfg: ExperimentConfig,
                  seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (initial, pool, eval) split of the known entries.

    Returns position arrays indexing data's triplets. Sizes are
    round(fraction * n_known) for initial and pool; eval takes
    round(eval_fraction * n_known), all drawn from one seeded shuffle.
    """
    n_known = data.n_known
    n_init = int(round(cfg.initial_fraction * n_known))
    n_pool = int(round(cfg.sample_budget_fraction * n_known))
    n_eval = int(round(cfg.eval_fraction * n_known))
    if n_init + n_pool + n_eval > n_known:
        raise ValueError(
            f"split sizes {n_init}+{n_pool}+{n_eval} overflow {n_known} known entries")
    perm = np.random.default_rng(seed).permutation(n_known)
    gamma = np.sort(perm[:n_init])
    pool = np.sort(perm[n_init:n_init + n_pool])
    evalset = np.sort(perm[n_init + n_pool:n_init + n_pool + n_eval])
    return gamma, pool, evalset


def _parse_generator_spec(spec: str) -> dict:
    body = spec.split(":", 1)[1] if ":" in spec else ""
    params = {}
    for part in filter(None, (p.strip() for p in body.split(","))):
        if "=" not in part:
            raise ValueError(f"bad generator parameter {part!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        params[key] = val
    out = {key: type(default)(params.pop(key, default))
           for key, default in GENERATOR_DEFAULTS.items()}
    if params:
        raise ValueError(f"unknown generator parameters {sorted(params)}")
    return out


def resolve_dataset(dataset: str, seed: int):
    """Load a ratings file or run a generator spec.

    Returns (ratings, ground_truth or None, row_graph or None, col_graph or None).
    """
    if dataset.startswith("synthetic"):
        g = _parse_generator_spec(dataset)
        bundle = synthetic_netflix(g["m"], g["n"], g["row_comm"], g["col_comm"],
                                   noise_sigma=g["noise_sigma"], seed=seed,
                                   p_in=g["p_in"], p_out=g["p_out"])
        return bundle.ratings, bundle.ground_truth, bundle.row_graph, bundle.col_graph
    data = load_ratings(dataset)
    return data, None, None, None


def _resolve_graphs(cfg: ExperimentConfig, data: RatingMatrix, gamma: np.ndarray,
                    gen_row: Optional[GraphLaplacian], gen_col: Optional[GraphLaplacian]):
    if cfg.graph_source == "provided":
        if gen_row is not None and gen_col is not None:
            return gen_row, gen_col
        if not (cfg.row_graph and cfg.col_graph):
            raise ValueError("graph_source=provided needs row_graph/col_graph paths")
        row = load_edge_list(cfg.row_graph, n=data.m)
        col = load_edge_list(cfg.col_graph, n=data.n)
        return laplacian_from_weights(row), laplacian_from_weights(col)
    if cfg.graph_source == "g2_content":
        if gamma.size == 0:
            raise ValueError("g2_content needs a nonempty initial split")
        base = data.subset(gamma)  # never look past the initial data
        return content_graph(base, axis="rows"), content_graph(base, axis="cols")
    if cfg.graph_source == "g1_features":
        if not (cfg.features_row and cfg.features_col):
            raise ValueError("g1_features needs features_row/features_col paths")
        feat_r = np.loadtxt(cfg.features_row, delimiter=",", ndmin=2)
        feat_c = np.loadtxt(cfg.features_col, delimiter=",", ndmin=2)
        return (knn_feature_graph(feat_r, k=cfg.knn_k),
                knn_feature_graph(feat_c, k=cfg.knn_k))
    raise ValueError(f"unknown graph_source {cfg.graph_source!r}")


def resolve_budget(budget, mn: int, pool_size: int) -> int:
    """Fractions of mn resolve by rounding; absolute counts must be whole."""
    if isinstance(budget, float) and 0 < budget < 1:
        K = int(round(budget * mn))
    else:
        K = int(budget)
        if K != budget:
            raise ValueError(f"budget {budget} is not a whole number of samples")
    if not (1 <= K <= pool_size):
        raise ValueError(f"budget {budget} -> K={K} outside pool of {pool_size}")
    return K


def run_sampler(params, method: str, K: int, seed: int, m: int, n: int,
                row_graph=None, col_graph=None, initial=None, allowed=None):
    """Run one sampler; returns (SampleSet, sidecar metadata).

    params supplies alpha, beta, q, zeta, l_pool, k1 and k2: an
    ExperimentConfig or the CLI's parsed arguments. initial is the 0/1
    diagonal of entries observed before sampling (GCS and A-opt only),
    allowed the candidate pool as in the samplers. Only random sampling
    runs without graphs. The metadata is what save_sample_set writes beside
    the picks; iter_counts holds the per-pick LOBPCG iterations of the
    greedy samplers and is None for random sampling. Wall time covers the
    whole call. A-opt runs as aopt_local_search does, through the shared
    loop, so that its state is at hand.
    """
    opts = SolverOptions(seed=seed)
    state = None
    t0 = time.perf_counter()
    if method == "gcs":
        op = ProductOperator(row_graph, col_graph, params.alpha, params.beta, initial)
        ss, state = gcs_sample(op, K, allowed=allowed, opts=opts)
    elif method == "igcs":
        ss, state = igcs_sample(row_graph, col_graph, params.alpha, params.beta,
                                q=params.q, zeta=params.zeta, K=K, allowed=allowed,
                                opts=opts)
    elif method == "random":
        ss = random_sample(m, n, K, seed=seed, allowed=allowed)
    elif method == "aopt":
        basis = bandlimited_basis(row_graph, col_graph, params.k1, params.k2)
        op = ProductOperator(row_graph, col_graph, params.alpha, params.beta, initial)
        ss, state = greedy_disc_shift(op, K, aopt_pick(basis, params.l_pool), "A-opt",
                                      allowed, opts)
    else:
        raise ValueError(f"unknown method {method!r}")
    wall = time.perf_counter() - t0
    return ss, {"method": method, "K": K, "seed": seed,
                "alpha": params.alpha, "beta": params.beta,
                "q": params.q if method == "igcs" else None,
                "zeta": params.zeta if method == "igcs" else None,
                "iter_counts": state.iter_counts if state else None,
                "wall_time_seconds": wall}


def run_experiment(cfg: ExperimentConfig) -> List[MetricsRow]:
    """Run the full (seed x method x budget) sweep.

    Each cell writes its SampleSet CSV/JSON and completion report under
    cfg.output_dir. A failing cell is recorded in failures.log and skipped;
    the remaining cells still run. A failures.log or metrics.csv of an earlier
    run is removed first, so both describe this run only.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    for name in ("failures.log", "metrics.csv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.output_dir, name))
    rows: List[MetricsRow] = []
    failures: List[str] = []

    for seed in cfg.seeds:
        data, truth, gen_row, gen_col = resolve_dataset(cfg.dataset, seed)
        gamma, pool, evalset = split_dataset(data, cfg, seed)
        row_graph, col_graph = _resolve_graphs(cfg, data, gamma, gen_row, gen_col)
        m, n = data.m, data.n
        mn = m * n

        ij = np.column_stack((data.rows, data.cols))
        lin = data.rows + m * data.cols
        gamma_diag = np.zeros(mn)
        gamma_diag[lin[gamma]] = 1.0

        score_target = truth if truth is not None else data.to_dense()

        for method in cfg.methods:
            for budget in (cfg.budgets or [cfg.sample_budget_fraction]):
                tag = None
                try:
                    K = resolve_budget(budget, mn, pool.size)
                    tag = f"{method}_seed{seed}_K{K}"
                    ss, meta = run_sampler(
                        cfg, method, K, seed, m, n, row_graph, col_graph,
                        initial=gamma_diag, allowed=lin[pool])

                    # The solver reads only the omega entries of the ratings.
                    problem = CompletionProblem(
                        observations=data,
                        omega=SampleSet(np.concatenate((ij[gamma], ss.ij)), m=m,
                                        budget=gamma.size + K, n=n),
                        row_graph=row_graph, col_graph=col_graph,
                        alpha=cfg.alpha, beta=cfg.beta)
                    report = dglr_solve(problem, SolverOptions(tol=cfg.tol, seed=seed))

                    # The unpicked pool, in pool order, unless an eval split is set.
                    cell_eval = ij[evalset] if evalset.size else \
                        ij[pool[~np.isin(lin[pool], ss.linear)]]
                    rmse = rmse_eval(report.x_star, score_target, cell_eval)

                    save_sample_set(ss, os.path.join(cfg.output_dir, tag + ".csv"), meta=meta)
                    report.rmse = rmse
                    save_report(report, os.path.join(cfg.output_dir, tag + "_report.json"))

                    rows.append(MetricsRow(
                        method=method, seed=seed, K=K, rmse=rmse,
                        lambda_min_est=report.lambda_min_est,
                        wall_time_seconds=meta["wall_time_seconds"],
                        lobpcg_total_iters=sum(meta["iter_counts"] or ())))
                except Exception as e:  # failure isolation per cell
                    failures.append(
                        f"{method},{seed},{budget},{type(e).__name__}: {e}")

    if failures:
        with open_new(os.path.join(cfg.output_dir, "failures.log")) as f:
            f.write("\n".join(failures) + "\n")
    rows.sort(key=lambda r: (r.method, r.seed, r.K))
    return rows


def export_metrics(rows: Sequence[MetricsRow], path) -> None:
    """Plot-ready CSV, one row per experiment cell."""
    if not rows:
        raise ValueError("no metric rows to export")
    with open_new(path) as f:
        f.write(METRICS_HEADER + "\n")
        for r in rows:
            f.write(f"{r.method},{r.seed},{r.K},{r.rmse!r},{r.lambda_min_est!r},"
                    f"{r.wall_time_seconds!r},{r.lobpcg_total_iters}\n")


def parse_config(path) -> ExperimentConfig:
    """Parse `key = value` lines into an ExperimentConfig.

    Each value converts to its field's annotated type: a List is comma
    separated, and a Union takes the first of its types that converts, so
    Optional[X] converts as X and a budget of `24` stays an int. `#` starts
    a comment. Unknown keys raise.
    """
    raw = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            raw[key] = val

    def convert(tp, val: str):
        if get_origin(tp) is list:
            return [convert(get_args(tp)[0], v.strip()) for v in val.split(",") if v.strip()]
        if get_origin(tp) is Union:
            *first, last = (t for t in get_args(tp) if t is not type(None))
            for t in first:
                try:
                    return t(val)
                except ValueError:
                    pass
            return last(val)
        return tp(val)

    types = get_type_hints(ExperimentConfig)
    kwargs = {}
    for key, val in raw.items():
        if key not in types:
            raise ValueError(f"{path}: unknown config key {key!r}")
        kwargs[key] = convert(types[key], val)
    if "dataset" not in kwargs:
        raise ValueError(f"{path}: config must set 'dataset'")
    return ExperimentConfig(**kwargs)
