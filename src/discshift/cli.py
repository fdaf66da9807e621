"""Command-line interface.

Subcommands: gen (synthetic data), graph (build G1/G2), sample (run a
sampler), complete (solve the regularized system), eval (RMSE), experiment
(config-driven sweep).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

# perfbench/layers.py traces the CLI's file I/O under the names _load_pairs
# and _write_dense_csv.
from .completion import CompletionProblem, dglr_solve, rmse_eval, save_report
from .completion import write_dense_csv as _write_dense_csv
from .experiments import (
    GENERATOR_DEFAULTS,
    METHODS,
    ExperimentConfig,
    export_metrics,
    load_ratings,
    parse_config,
    resolve_budget,
    run_experiment,
    run_sampler,
    save_ratings,
)
from .graphs import (
    content_graph,
    knn_feature_graph,
    laplacian_from_weights,
    synthetic_netflix,
)
from .linalg import ConvergenceError, SolverOptions, load_edge_list, save_edge_list
from .sampling import load_sample_set, save_sample_set


def _exit(e, path, files=()):
    """A SystemExit for an OSError or ValueError raised while reading `path`
    or `files`: its message starts with the file it names, else with `path`."""
    msg = f"{e.filename}: {e.strerror}" if isinstance(e, OSError) and e.filename else str(e)
    return SystemExit(msg if msg.startswith((str(path), *files)) else f"{path}: {msg}")


def _read(reader, path, *args, **kwargs):
    """reader(path, *args, **kwargs), for every file the CLI reads; a file it
    cannot open or parse exits with a message that starts with the path."""
    try:
        return reader(path, *args, **kwargs)
    except (OSError, ValueError) as e:
        raise _exit(e, path)


def _load_graph(path):
    return _read(lambda p: laplacian_from_weights(load_edge_list(p)), path)


def _load_pairs(path, m, n):
    """A `row,col` CSV of entries of the m x n grid as a SampleSet."""
    return _read(load_sample_set, path, m, n)[0]


def _cmd_gen(args):
    try:
        bundle = synthetic_netflix(args.m, args.n, args.row_comm, args.col_comm,
                                   noise_sigma=args.noise_sigma, seed=args.seed,
                                   p_in=args.p_in, p_out=args.p_out)
    except RuntimeError as e:
        raise SystemExit(f"{e}; raise --p-in or lower --row-comm/--col-comm")
    os.makedirs(args.out_dir, exist_ok=True)
    ratings = os.path.join(args.out_dir, "ratings.csv")
    save_ratings(bundle.ratings, ratings)
    rg = os.path.join(args.out_dir, "row_graph.txt")
    cg = os.path.join(args.out_dir, "col_graph.txt")
    save_edge_list(bundle.row_graph.weights, rg)
    save_edge_list(bundle.col_graph.weights, cg)
    gt = os.path.join(args.out_dir, "ground_truth.csv")
    _write_dense_csv(bundle.ground_truth, gt)
    for path in (ratings, rg, cg, gt):
        print(f"wrote {path}")
    return 0


def _cmd_graph(args):
    if (args.ratings is None) == (args.features is None):
        raise SystemExit("pass exactly one of --ratings (G2) or --features (G1)")
    if args.ratings:
        data = _read(load_ratings, args.ratings)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            g = content_graph(data, axis=args.axis, d_s=args.d_s, gamma=args.gamma)
        for w in caught:  # a disconnected graph: one line, not Python's warning
            print(f"warning: {w.message}", file=sys.stderr)
    else:
        feats = _read(np.loadtxt, args.features, delimiter=",", ndmin=2)
        g = knn_feature_graph(feats, k=args.k)
    save_edge_list(g.weights, args.out)
    print(f"wrote {args.out} ({g.n} nodes, {g.weights.csr.nnz // 2} edges, "
          f"{g.n_components()} component(s))")
    return 0


def _cmd_sample(args):
    row_graph = _load_graph(args.row_graph) if args.row_graph else None
    col_graph = _load_graph(args.col_graph) if args.col_graph else None
    if args.method != "random" and (row_graph is None or col_graph is None):
        raise SystemExit(f"--method {args.method} needs --row-graph and --col-graph")
    if row_graph is not None and col_graph is not None:
        m, n = row_graph.n, col_graph.n
    elif args.m and args.n:
        m, n = args.m, args.n
    else:
        raise SystemExit("pass --row-graph/--col-graph or --m/--n")

    mn = m * n
    allowed = _load_pairs(args.pool, m, n).linear if args.pool else None
    pool_size = mn if allowed is None else allowed.size
    try:
        K = resolve_budget(float(args.budget), mn, pool_size)
    except ValueError as e:
        raise SystemExit(f"--budget: {e}")
    ss, meta = run_sampler(args, args.method, K, args.seed, m, n,
                           row_graph, col_graph, allowed=allowed)
    save_sample_set(ss, args.out, meta=meta)
    print(f"wrote {args.out} ({len(ss)} samples, {meta['wall_time_seconds']:.3f}s)")
    return 0


def _cmd_complete(args):
    data = _read(load_ratings, args.ratings)
    row_graph = _load_graph(args.row_graph)
    col_graph = _load_graph(args.col_graph)
    omega = _load_pairs(args.omega, data.m, data.n)
    try:
        problem = CompletionProblem(
            observations=data, omega=omega, row_graph=row_graph,
            col_graph=col_graph, alpha=args.alpha, beta=args.beta)
        report = dglr_solve(problem, SolverOptions(tol=args.tol, seed=args.seed))
    except (ValueError, ConvergenceError) as e:
        if str(e).startswith("omega contains unobserved entries"):
            raise SystemExit(f"{args.omega}: {e}; sample rated entries only, passing "
                             f"`sample --pool` their row,col pairs "
                             f"(`cut -d, -f1,2 {args.ratings}`)")
        raise SystemExit(str(e))
    save_report(report, args.out, x_csv_path=args.x_out)
    print(f"wrote {args.out} (residual {report.residual:.3e}, "
          f"lambda_min_est {report.lambda_min_est:.6f})")
    if args.x_out:
        print(f"wrote {args.x_out}")
    return 0


def _cmd_eval(args):
    X = _read(np.loadtxt, args.completed, delimiter=",", ndmin=2)
    truth = _read(load_ratings, args.truth)
    if X.shape != (truth.m, truth.n):
        raise SystemExit(f"{args.completed}: shape {X.shape[0]}x{X.shape[1]} does not "
                         f"match the truth's {truth.m}x{truth.n}")
    eval_set = _load_pairs(args.eval_set, truth.m, truth.n)
    try:
        rmse = rmse_eval(X, truth.to_dense(), eval_set)
    except ValueError as e:
        raise SystemExit(f"{args.eval_set}: {e}")
    print(f"rmse {rmse!r} over {len(eval_set)} entries")
    return 0


def _cmd_experiment(args):
    cfg = _read(parse_config, args.config)
    try:
        rows = run_experiment(cfg)
    except (OSError, ValueError) as e:
        # Raised before the first cell: a dataset, graph or feature file that
        # cannot be read, named first as _read names it, or a config that
        # does not fit the data.
        files = tuple(str(p) for p in (cfg.dataset, cfg.row_graph, cfg.col_graph,
                                       cfg.features_row, cfg.features_col) if p)
        raise _exit(e, args.config, files)
    out = os.path.join(cfg.output_dir, "metrics.csv")
    if rows:
        export_metrics(rows, out)
        print(f"wrote {out} ({len(rows)} rows)")
    failures = os.path.join(cfg.output_dir, "failures.log")
    if os.path.exists(failures):
        print(f"some cells failed; see {failures}", file=sys.stderr)
        return 1
    if not rows:
        print("no cells ran", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    def add_flags(p, defaults):
        """One --<key> flag per item of `defaults`, typed and defaulted by its value."""
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)

    def config_flags(p, *names):
        """--<name> flags with ExperimentConfig's defaults."""
        add_flags(p, {name: getattr(ExperimentConfig, name) for name in names})

    parser = argparse.ArgumentParser(
        prog="discshift",
        description="Greedy disc-shift sampling and dual-graph regularized completion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic block-smooth dataset")
    add_flags(p, GENERATOR_DEFAULTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("graph", help="build a similarity graph (G1 or G2)")
    p.add_argument("--ratings", help="ratings CSV for the content graph (G2)")
    p.add_argument("--axis", choices=("rows", "cols"), default="rows")
    p.add_argument("--d-s", type=float, default=None,
                   help="distance threshold (default: 60th percentile)")
    p.add_argument("--gamma", type=float, default=None,
                   help="kernel width (default: mean squared deviation)")
    p.add_argument("--features", help="feature CSV for the kNN graph (G1)")
    p.add_argument("--k", type=int, default=ExperimentConfig.knn_k)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("sample", help="select matrix entries to observe")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--budget", required=True,
                   help="absolute K, or a fraction of m*n when < 1")
    config_flags(p, "alpha", "beta", "q", "zeta", "l_pool", "k1", "k2")
    p.add_argument("--pool", help="CSV of allowed row,col entries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--row-graph", help="row-graph adjacency edge list")
    p.add_argument("--col-graph", help="column-graph adjacency edge list")
    p.add_argument("--m", type=int, help="rows (random sampling without graphs)")
    p.add_argument("--n", type=int, help="cols (random sampling without graphs)")
    p.add_argument("--out", required=True, help="output CSV (JSON sidecar beside it)")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("complete", help="solve the regularized completion system")
    p.add_argument("--ratings", required=True)
    p.add_argument("--omega", required=True, help="CSV of observed row,col entries")
    p.add_argument("--row-graph", required=True)
    p.add_argument("--col-graph", required=True)
    config_flags(p, "alpha", "beta")
    p.add_argument("--tol", type=float, default=ExperimentConfig.tol)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--x-out", help="optional dense CSV of the reconstruction")
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("eval", help="score a reconstruction on held-out entries")
    p.add_argument("--completed", required=True, help="dense CSV of X*")
    p.add_argument("--truth", required=True, help="ratings CSV with true values")
    p.add_argument("--eval-set", required=True, help="CSV of row,col entries")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("experiment", help="run a config-driven sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
