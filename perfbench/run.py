#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gcs-9k6 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The run builds its inputs from --seed and runs set-up -> sample ->
complete -> eval passes over them until --seconds is spent, checking every
pass's outputs. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. The exit code is non-zero when any check or operation failed.
Details of the run (environment, pick hashes, checks, per-pass figures, and
the spans of a traced run) are written under ./.perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# One BLAS/OpenMP thread: at most nproc, and steadier than two threads on a
# shared two-core machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [  # (metric, unit), gated by the bounds in BENCHMARK.json
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("picks_per_s", "picks/s"),
    ("rmse", "rating"),
    ("lambda_min", "eigenvalue"),
    ("peak_rss_mb", "MiB"),
]
# Printed with the end-to-end metrics but not gated: across seeds, one
# completion's time varies about 4x between inputs (cold lambda_min
# estimate) and the A-optimal score of IGCS picks is heavy-tailed, so
# neither stays within a 0.25 bound over a run's few inputs.
REPORTED = [("complete_s", "s"), ("aopt_score", "trace")]
# A traced run starts with these passes of input 0 (True: traced): a cold
# untraced pass to warm the process up, then untraced and traced passes in
# turn, whose means give the tracing overhead.
OVERHEAD_PASSES = (False, False, True, False, True)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def dataset_seed(seed: int, rep: int) -> int:
    """Seed of the rep-th input of a run; distinct for seeds and reps."""
    return seed * 100 + rep


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run passes over the run's inputs until the time is spent.

    Each pass sets its input up (timed, so set-up is sampled across the
    whole run; an untraced pass times `workload.setup_repeats` set-ups of
    its input) and runs sample -> complete -> eval on it. Every input gets
    one pass; then the inputs are passed again in turn, each repeat checked
    to reproduce its input's first pass exactly, while another pass still
    fits in `seconds`. A traced run instead starts with the passes of input 0
    in OVERHEAD_PASSES and then traces passes over the inputs in turn.
    Returns the metrics, the counts and the details to save.
    """
    import layers
    import workloads
    from tracer import Tracer

    deadline = time.perf_counter() + seconds
    tracer = Tracer() if trace else None
    counts = {"attempted": 0, "failed": 0}
    failures = []

    def tally(ok: bool, what: str = "") -> None:
        counts["attempted"] += 1
        if not ok:
            counts["failed"] += 1
            failures.append(what)

    def recording(on: bool):
        return tracer.recording(on) if tracer is not None else nullcontext()

    def mark() -> int:
        return len(tracer.names) if tracer is not None else 0

    n = workload.inputs
    lead = OVERHEAD_PASSES if trace else ()
    order = [0] * len(lead) + list(range(n))
    mandatory = len(lead) if trace else n
    setup_times, setup_ranges, pass_ranges = [], [], []
    passes, first_of = [], {}
    longest, k = 0.0, -1
    if tracer is not None:
        layers.install(tracer)
    try:
        while k + 1 < mandatory or time.perf_counter() + longest <= deadline:
            k += 1
            di = order[k] if k < len(order) else (k - len(order)) % n
            traced = tracer is not None and (k >= len(lead) or lead[k])
            t0 = time.perf_counter()
            lo = mark()
            try:
                with recording(traced):
                    d = workload.setup(dataset_seed(seed, di), workdir)
                t1 = time.perf_counter()
                mid = mark()
                if tracer is None:  # more set-up samples, same input
                    for _ in range(workload.setup_repeats - 1):
                        s0 = time.perf_counter()
                        workload.setup(dataset_seed(seed, di), workdir)
                        setup_times.append(time.perf_counter() - s0)
                workload.prepare(d)
                with recording(traced):
                    out = workload.run_pass(d, tracer)
            except Exception as e:  # counted as a failed operation
                tally(False, f"pass {k} (input {di}): {type(e).__name__}: {e}")
                longest = max(longest, time.perf_counter() - t0)
                continue
            setup_times.append(t1 - t0)
            counts["attempted"] += 1 + out.operations
            if traced:
                setup_ranges.append((lo, mid))
                pass_ranges.append((mid, mark(), len(out.picks), workloads.matvec_bytes(d)))
            checks, score = workloads.check_pass(d, workload.K, out)
            digest = workloads.pick_hash(out.picks)
            if di in first_of:
                ref = first_of[di]
                same = (ref["picks_sha256"], ref["rmse"], ref["lambda_min"]) == \
                    (digest, out.rmse, out.lambda_min)
                checks.append(("determinism", same, f"repeats pass {ref['pass']}"))
            record = {"pass": k, "input": di, "seed": d.seed, "traced": traced,
                      "setup_s": t1 - t0, "sample_s": out.sample_s,
                      "complete_s": out.complete_s, "eval_s": out.eval_s,
                      "pipeline_s": out.pipeline_s, "K": len(out.picks),
                      "picks_sha256": digest, "rmse": out.rmse,
                      "lambda_min": out.lambda_min, "aopt_score": score,
                      "checks": checks}
            first_of.setdefault(di, record)
            for name, ok, detail in checks:
                tally(ok, f"pass {k} (input {di}) check {name}: {detail}")
            passes.append(record)
            longest = max(longest, time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.restore()

    result = {"passes": passes, "failures": failures,
              "picks_sha256": {first_of[i]["seed"]: first_of[i]["picks_sha256"]
                               for i in sorted(first_of)},
              **counts}
    if not passes:
        raise RuntimeError("no pass completed: " + "; ".join(failures))
    if trace:
        paired = [p for p in passes if 0 < p["pass"] < len(lead)]
        on = [p["pipeline_s"] for p in paired if p["traced"]]
        off = [p["pipeline_s"] for p in paired if not p["traced"]]
        if not pass_ranges or not on or not off:
            raise RuntimeError("no traced pass to compare: " + "; ".join(failures))
        result["metrics"] = layers.layer_metrics(
            tracer, setup_ranges, pass_ranges,
            (statistics.mean(on), statistics.mean(off)), first_of[0]["aopt_score"])
        result["units"] = {name: unit for name, unit, _ in layers.PER_LAYER}
        result["missing_trace_targets"] = tracer.missing
        result["tracer"] = tracer
        return result
    firsts = list(first_of.values())
    result["metrics"] = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(p["pipeline_s"] for p in passes),
        "picks_per_s": statistics.median(p["K"] / p["sample_s"] for p in passes),
        "rmse": statistics.median(p["rmse"] for p in firsts),
        "lambda_min": statistics.median(p["lambda_min"] for p in firsts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["reported"] = {
        "complete_s": statistics.median(p["complete_s"] for p in passes),
        "aopt_score": statistics.median(p["aopt_score"] for p in firsts),
    }
    result["units"] = dict(END_TO_END + REPORTED)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import discshift
    except ImportError as e:
        print(f"error: cannot import discshift from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(discshift.__file__).resolve().is_relative_to(src):
        print(f"error: discshift imported from {discshift.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / tag
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()

    try:
        res = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception as e:
        print(f"error: {args.workload} did not run: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1

    tracer = res.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{tag}-spans.jsonl.gz")
    metrics, units = res["metrics"], res.pop("units")
    attempted, failed = res["attempted"], res["failed"]
    with open(OUT_DIR / f"{tag}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, **res}, f, indent=1, default=str)

    print(f"# environment {json.dumps(env)}")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(res['passes'])} passes on {len(res['picks_sha256'])} inputs")
    for input_seed, digest in res["picks_sha256"].items():
        print(f"# picks_sha256 input seed {input_seed} {digest}")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    for name, value in res.get("reported", {}).items():
        print(f"# {name} {value:.6g} {units[name]} (reported, not gated)")
    print(f"# failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for what in res["failures"]:
        print(f"# FAILED {what}")
    ok = failed == 0
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
