"""Per-layer metrics of the traced run.

`install` wraps the package's public functions where their callers look them
up; `layer_metrics` turns the recorded spans into one number per metric.
Layer names are the package's modules.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

import discshift.bandlimited as bandlimited
import discshift.cli as cli
import discshift.completion as completion
import discshift.graphs as graphs
import discshift.sampling as sampling
from tracer import tail_percentile

LOBPCG_SPANS = ("linalg.lobpcg", "completion.lambda_est")


def _eig_info(args, pair) -> dict:
    return {"iterations": int(pair.iterations), "converged": bool(pair.converged)}


def _tie_info(args, picked) -> dict:
    """Candidates the selection rule treats as tied with the top |phi|."""
    try:
        mags = np.abs(np.asarray(args["vec"])[np.asarray(args["candidates"])])
        tied = int(np.count_nonzero(mags >= mags.max() - args["tie_tol"]))
    except KeyError:
        return {}
    return {"tied": tied, "candidates": int(mags.size)}


def install(tracer) -> None:
    """Wrap every traced call site. Absent targets are listed in
    tracer.missing instead of failing the run."""
    eig = {"on_result": _eig_info, "wrap_apply": True}
    tie = {"on_result": _tie_info}
    for owner, attr, name, kw in [
        (graphs, "product_apply", "graphs.product_apply", {}),
        (graphs, "synthetic_netflix", "graphs.synthetic_netflix", {}),
        (cli, "synthetic_netflix", "graphs.synthetic_netflix", {}),
        (sampling, "lobpcg_smallest", "linalg.lobpcg", eig),
        (completion, "lobpcg_smallest", "completion.lambda_est", eig),
        (completion, "cg_solve", "linalg.cg", {"wrap_apply": True}),
        (completion, "dglr_solve", "completion.dglr_solve", {}),
        (cli, "dglr_solve", "completion.dglr_solve", {}),
        (cli, "CompletionProblem", "completion.problem_build", {}),
        (completion, "rmse_eval", "completion.rmse_eval", {}),
        (cli, "rmse_eval", "completion.rmse_eval", {}),
        (sampling, "argmax_abs_tied", "sampling.select", tie),
        (bandlimited, "argmax_abs_tied", "sampling.select", tie),
        (bandlimited, "aopt_objective", "bandlimited.score", {}),
        (bandlimited.BandlimitedBasis, "rows", "bandlimited.rows", {}),
        (bandlimited, "bandlimited_basis", "bandlimited.basis", {}),
        (cli, "load_ratings", "experiments.ratings_io", {}),
        (cli, "save_ratings", "experiments.ratings_io", {}),
        (cli, "load_edge_list", "linalg.edge_list_io", {}),
        (cli, "save_edge_list", "linalg.edge_list_io", {}),
        (cli, "save_sample_set", "sampling.sample_set_io", {}),
        (cli, "_load_pairs", "sampling.sample_set_io", {}),
        (cli, "save_report", "completion.report_io", {}),
        (cli, "_write_dense_csv", "completion.report_io", {}),
        (cli, "_cmd_gen", "cli.gen", {}),
        (cli, "_cmd_sample", "cli.sample", {}),
        (cli, "_cmd_complete", "cli.complete", {}),
        (cli, "_cmd_eval", "cli.eval", {}),
    ]:
        tracer.patch(owner, attr, name, **kw)


# (metric, unit, better). Every metric is reported on every workload; a
# layer that a workload does not run reads 0.
PER_LAYER = [
    ("graphs.matvec_calls", "count", "lower"),
    ("graphs.matvec_s", "s", "lower"),
    ("graphs.matvec_bytes_per_call", "B", "lower"),
    ("graphs.generate_s", "s", "lower"),
    ("linalg.lobpcg_calls", "count", "lower"),
    ("linalg.lobpcg_iters_per_pick", "iters/pick", "lower"),
    ("linalg.matvecs_per_lobpcg_iter", "matvecs/iter", "lower"),
    ("linalg.lobpcg_self_s", "s", "lower"),
    ("linalg.lobpcg_unconverged", "count", "lower"),
    ("linalg.lobpcg_converged_ratio", "ratio", "higher"),
    ("linalg.cg_iters", "count", "lower"),
    ("linalg.cg_s", "s", "lower"),
    ("linalg.edge_list_io_s", "s", "lower"),
    ("completion.solve_s", "s", "lower"),
    ("completion.lambda_est_s", "s", "lower"),
    ("completion.lambda_est_iters", "count", "lower"),
    ("completion.problem_build_s", "s", "lower"),
    ("completion.rmse_eval_s", "s", "lower"),
    ("completion.report_io_s", "s", "lower"),
    ("sampling.select_calls", "count", "lower"),
    ("sampling.select_s", "s", "lower"),
    ("sampling.pick_ms_p50", "ms", "lower"),
    ("sampling.pick_ms_tail", "ms", "lower"),
    ("sampling.pick_tail_pct", "%", "higher"),
    ("sampling.pick_tail_beyond", "count", "higher"),
    ("sampling.pick_samples", "count", "higher"),
    ("sampling.tied_per_select", "count", "lower"),
    ("sampling.tie_ratio", "ratio", "lower"),
    ("sampling.sample_set_io_s", "s", "lower"),
    ("bandlimited.score_calls", "count", "lower"),
    ("bandlimited.score_s", "s", "lower"),
    ("bandlimited.rows_s", "s", "lower"),
    ("bandlimited.basis_s", "s", "lower"),
    ("bandlimited.aopt_score", "trace", "lower"),
    ("experiments.ratings_io_s", "s", "lower"),
    ("cli.gen_s", "s", "lower"),
    ("cli.sample_s", "s", "lower"),
    ("cli.complete_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.complete_self_s", "s", "lower"),
    ("bench.sample_s", "s", "lower"),
    ("bench.complete_s", "s", "lower"),
    ("bench.pipeline_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# metric -> span name whose total duration it reports
_DURATIONS = {
    "graphs.matvec_s": "graphs.product_apply",
    "graphs.generate_s": "graphs.synthetic_netflix",
    "linalg.cg_s": "linalg.cg",
    "linalg.edge_list_io_s": "linalg.edge_list_io",
    "completion.solve_s": "completion.dglr_solve",
    "completion.lambda_est_s": "completion.lambda_est",
    "completion.problem_build_s": "completion.problem_build",
    "completion.rmse_eval_s": "completion.rmse_eval",
    "completion.report_io_s": "completion.report_io",
    "sampling.select_s": "sampling.select",
    "sampling.sample_set_io_s": "sampling.sample_set_io",
    "bandlimited.score_s": "bandlimited.score",
    "bandlimited.rows_s": "bandlimited.rows",
    "bandlimited.basis_s": "bandlimited.basis",
    "experiments.ratings_io_s": "experiments.ratings_io",
    "cli.gen_s": "cli.gen",
    "cli.sample_s": "cli.sample",
    "cli.complete_s": "cli.complete",
    "cli.eval_s": "cli.eval",
    "bench.sample_s": "bench.sample",
    "bench.complete_s": "bench.complete",
}


def _range_sums(tracer, lo: int, hi: int, self_t: list) -> dict:
    """Raw sums over spans lo..hi-1 of the tracer."""
    names, start, end, parent, info = (tracer.names, tracer.start, tracer.end,
                                       tracer.parent, tracer.info)
    dur = defaultdict(float)
    calls = Counter()
    s = Counter()
    for k in range(lo, hi):
        name = names[k]
        dur[name] += end[k] - start[k]
        calls[name] += 1
        if name in LOBPCG_SPANS:
            facts = info.get(k, {})
            s["lobpcg_iters"] += facts.get("iterations", 0)
            s["lobpcg_converged"] += facts.get("converged", False)
            s["lobpcg_self"] += self_t[k - lo]
            if name == "linalg.lobpcg":
                s["sampler_iters"] += facts.get("iterations", 0)
            else:
                s["lambda_est_iters"] += facts.get("iterations", 0)
        elif name == "sampling.select":
            facts = info.get(k, {})
            s["tied"] += facts.get("tied", 0)
            s["candidates"] += facts.get("candidates", 0)
        elif name == "linalg.operator" and parent[k] >= 0:
            s["operator_under_" + names[parent[k]]] += 1
        if name.startswith("cli."):
            s["cli_self"] += self_t[k - lo]
            if name == "cli.complete":
                s["cli_complete_self"] += self_t[k - lo]
    out = {m: dur.get(span_name, 0.0) for m, span_name in _DURATIONS.items()}
    out.update({
        "matvec_calls": calls["graphs.product_apply"],
        "lobpcg_calls": sum(calls[n] for n in LOBPCG_SPANS),
        "select_calls": calls["sampling.select"],
        "score_calls": calls["bandlimited.score"],
        "lobpcg_operator": sum(s["operator_under_" + n] for n in LOBPCG_SPANS),
        "cg_iters": s["operator_under_linalg.cg"],
        "pipeline": dur["bench.sample"] + dur["bench.complete"] + dur["bench.eval"],
    })
    out.update(s)
    return out


def pick_durations(tracer, lo: int, hi: int) -> list:
    """Wall time of each sampler step in spans lo..hi-1, in seconds.

    A step starts with its first sampler eigensolve (a retry after an
    unconverged solve belongs to the same step) and ends where the next step
    starts; the last step ends with the last selection or scoring call.
    """
    starts, retry = [], False
    last_end = None
    for k in range(lo, hi):
        name = tracer.names[k]
        if name == "linalg.lobpcg":
            if not retry:
                starts.append(tracer.start[k])
            retry = not tracer.info.get(k, {}).get("converged", True)
        elif name in ("sampling.select", "bandlimited.score"):
            last_end = tracer.end[k]
    if not starts or last_end is None:
        return []
    return list(np.diff(starts + [last_end]))


def layer_metrics(tracer, setup_ranges, pass_ranges, overhead, aopt_score) -> dict:
    """Per-layer metrics: the mean cost of one set-up plus one pipeline pass.

    setup_ranges: span index ranges (lo, hi) of the traced set-ups.
    pass_ranges: (lo, hi, picks, matvec_bytes) of the traced passes.
    overhead: (traced, untraced) mean pipeline_s of warm passes of input 0.
    aopt_score: A-optimal score of input 0's picks (a quality figure).
    """
    self_t = tracer.self_times()

    def sums(lo, hi):
        return _range_sums(tracer, lo, hi, self_t[lo:hi])

    def mean(parts):
        acc = defaultdict(float)
        for part in parts:
            for key, val in part.items():
                acc[key] += val / len(parts)
        return acc

    pass_sums = [sums(lo, hi) for lo, hi, _, _ in pass_ranges]
    setup = mean([sums(lo, hi) for lo, hi in setup_ranges])
    work = mean(pass_sums)
    both = defaultdict(float)
    for part in (setup, work):
        for key, val in part.items():
            both[key] += val

    picks = sum(p for _, _, p, _ in pass_ranges) / len(pass_ranges)
    bytes_total = sum(s["matvec_calls"] * b for s, (_, _, _, b) in zip(pass_sums, pass_ranges))
    calls_total = sum(s["matvec_calls"] for s in pass_sums)
    steps = []
    for lo, hi, _, _ in pass_ranges:
        steps.extend(pick_durations(tracer, lo, hi))
    p50 = float(np.median(steps)) * 1e3 if steps else 0.0
    tail_p, tail_v, beyond = tail_percentile(steps) if steps else (0.0, 0.0, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    traced, untraced = overhead
    out = {m: both[m] for m in _DURATIONS}
    out.update({
        "graphs.matvec_calls": both["matvec_calls"],
        "graphs.matvec_bytes_per_call": ratio(bytes_total, calls_total),
        "linalg.lobpcg_calls": both["lobpcg_calls"],
        "linalg.lobpcg_iters_per_pick": ratio(work["sampler_iters"], picks),
        "linalg.matvecs_per_lobpcg_iter": ratio(both["lobpcg_operator"], both["lobpcg_iters"]),
        "linalg.lobpcg_self_s": both["lobpcg_self"],
        "linalg.lobpcg_unconverged": both["lobpcg_calls"] - both["lobpcg_converged"],
        "linalg.lobpcg_converged_ratio": ratio(both["lobpcg_converged"], both["lobpcg_calls"]),
        "linalg.cg_iters": both["cg_iters"],
        "completion.lambda_est_iters": both["lambda_est_iters"],
        "sampling.select_calls": both["select_calls"],
        "sampling.pick_ms_p50": p50,
        "sampling.pick_ms_tail": tail_v * 1e3,
        "sampling.pick_tail_pct": tail_p,
        "sampling.pick_tail_beyond": beyond,
        "sampling.pick_samples": len(steps),
        "sampling.tied_per_select": ratio(both["tied"], both["select_calls"]),
        "sampling.tie_ratio": ratio(both["tied"], both["candidates"]),
        "bandlimited.score_calls": both["score_calls"],
        "bandlimited.aopt_score": aopt_score,
        "cli.self_s": both["cli_self"],
        "cli.complete_self_s": both["cli_complete_self"],
        "bench.pipeline_s": work["pipeline"],
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": ratio(traced - untraced, untraced),
    })
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
