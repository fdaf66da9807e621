"""The package API that the benchmark reaches outside the CLI.

`perfbench/workloads.py` builds the `cli-igcs-60k` inputs through `gen` and
then, in `prepare`, calls `linalg.SparseSym.from_scipy`,
`graphs.laplacian_from_weights` and `bandlimited.bandlimited_basis` itself.
The API workloads slice `SampleSet.pairs`, rebuild `SampleSet`s from the
slices and check the picks as a set of tuples. No other test reaches those
calls the way the benchmark makes them, so a change to that surface would
otherwise break the benchmark unnoticed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def test_cli_workload_setup_and_prepare(tmp_path):
    w = workloads.CliIgcsWorkload()
    d = w.setup(0, tmp_path)
    w.prepare(d)
    assert d.truth.shape == d.observed.shape == (w.m, w.n)
    assert d.W_row.shape == (w.m, w.m) and d.W_col.shape == (w.n, w.n)
    assert d.basis.U.shape == (w.n, workloads.BASIS_K)
    assert d.basis.V.shape == (w.m, workloads.BASIS_K)
    assert np.isfinite(d.basis.U).all() and np.isfinite(d.basis.V).all()
    assert (tmp_path / "data-0" / "truth.csv").exists()


@pytest.mark.parametrize("workload", [workloads.GcsWorkload, workloads.AoptWorkload])
def test_api_workload_pass_checks(workload, tmp_path):
    w = workload()
    d = w.setup(0, tmp_path)
    w.prepare(d)
    out = w.run_pass(d, None)
    checks, _ = workloads.check_pass(d, w.K, out)
    assert [name for name, ok, _ in checks if not ok] == [], checks
