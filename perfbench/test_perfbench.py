"""Tests of the benchmark's own arithmetic and of its determinism.

Run with:  PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import discshift.bandlimited as bandlimited  # noqa: E402
import discshift.graphs as graphs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from run import dataset_seed  # noqa: E402
from tracer import Tracer, self_time, tail_percentile  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # Children overlap (1-3 and 2-4) and one sticks out past the parent's end.
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)]) == pytest.approx(3.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(0.0)


def test_tracer_self_times_use_direct_children_only():
    tr = Tracer()
    # parent 0 -> child 1 -> grandchild 2; parent 0 -> child 3
    tr.names = ["a", "b", "c", "d"]
    tr.start = [0.0, 1.0, 1.5, 5.0]
    tr.end = [10.0, 4.0, 2.0, 6.0]
    tr.parent = [-1, 0, 1, 0]
    assert tr.self_times() == pytest.approx([6.0, 2.5, 0.5, 1.0])


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))  # 100 samples: p90 leaves exactly 10 above it
    assert tail_percentile(xs) == (90.0, 90, 10)
    xs = list(range(1, 1001))  # 1000 samples: p99 leaves 10 above it
    assert tail_percentile(xs) == (99.0, 990, 10)
    # Ties at the percentile value do not count as beyond it.
    xs = [1.0] * 95 + [2.0] * 5
    assert tail_percentile(xs)[0] == 50.0
    # Too few samples for any rung falls back to the median rung.
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)


def test_patches_are_restored():
    original = graphs.product_apply
    tr = Tracer()
    layers.install(tr)
    assert graphs.product_apply is not original
    tr.restore()
    assert graphs.product_apply is original
    assert bandlimited.BandlimitedBasis.rows.__name__ == "rows"
    assert not tr.missing


@pytest.fixture(scope="module")
def aopt_two_passes(tmp_path_factory):
    w = workloads.WORKLOADS["aopt-2k4"]
    d = w.setup(dataset_seed(0, 0), tmp_path_factory.mktemp("aopt"))
    w.prepare(d)
    return w, d, w.run_pass(d, None), w.run_pass(d, None)


def test_two_passes_with_one_seed_agree(aopt_two_passes):
    w, d, first, second = aopt_two_passes
    assert workloads.pick_hash(first.picks) == workloads.pick_hash(second.picks)
    assert first.rmse == second.rmse
    assert first.lambda_min == second.lambda_min
    checks, _ = workloads.check_pass(d, w.K, first)
    assert all(ok for _, ok, _ in checks), checks


def test_lambda_min_matches_dense_spectrum(aopt_two_passes):
    _, d, first, _ = aopt_two_passes
    op = d.api["op"].copy()
    for i, j in first.picks:
        op.sample_diag[i + d.m * j] = 1.0
    dense = np.linalg.eigvalsh(graphs.product_dense(op))[0]
    assert abs(first.lambda_min - dense) <= 1e-5


def test_checks_catch_wrong_outputs(aopt_two_passes):
    w, d, first, _ = aopt_two_passes
    bad = workloads.PassOutput(**{**first.__dict__, "rmse": first.rmse * 1.01,
                                  "picks": first.picks[:-1] + [first.picks[0]]})
    failed = {name for name, ok, _ in workloads.check_pass(d, w.K, bad)[0] if not ok}
    assert {"picks", "rmse"} <= failed
