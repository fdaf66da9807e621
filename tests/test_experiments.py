"""Tests for dataset I/O, splitting, and the experiment sweep harness."""

import builtins
import os
import re
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from discshift import completion, experiments, graphs, linalg, sampling
from discshift.experiments import (
    METRICS_HEADER,
    ExperimentConfig,
    MetricsRow,
    export_metrics,
    load_ratings,
    parse_config,
    resolve_budget,
    resolve_dataset,
    run_experiment,
    save_ratings,
    split_dataset,
)
from discshift.graphs import RatingMatrix, synthetic_netflix
from discshift.linalg import save_edge_list
from discshift.sampling import load_sample_set

TINY_SYNTH = "synthetic:m=12,n=9,row_comm=3,col_comm=3,p_in=0.9,p_out=0.2"


# ------------------------------------------------------------------ ratings


def test_load_ratings_empty_with_directive(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# m=2 n=2\n")
    data = load_ratings(path)
    assert (data.m, data.n) == (2, 2)
    assert data.n_known == 0


def test_load_ratings_opens_its_file_once(tmp_path, monkeypatch):
    # The `# m= n=` directive comes from the text that is parsed, not from
    # a second read; a directive after the header and data lines still counts.
    path = tmp_path / "r.csv"
    path.write_text("row,col,value\n0,0,1.0\n1,1,2.0\n# m=4 n=3\n")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    data = load_ratings(path)
    monkeypatch.undo()
    assert opened == [path]
    assert (data.m, data.n, data.n_known) == (4, 3, 2)


def test_save_ratings_pins_float_bytes(tmp_path):
    # RatingMatrix rejects non-finite values, so a plain record stands in
    # for it: the writer formats whatever triplets it is given.
    data = SimpleNamespace(m=2, n=4, rows=np.array([0, 1, 0, 1, 0, 1, 0]),
                           cols=np.array([0, 0, 1, 1, 2, 2, 3]),
                           vals=np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1, 1 / 3]))
    path = tmp_path / "r.csv"
    save_ratings(data, path)
    assert path.read_bytes() == (b"# m=2 n=4\nrow,col,value\n"
                                 b"0,0,nan\n1,0,inf\n0,1,-inf\n1,1,-0.0\n"
                                 b"0,2,1e-300\n1,2,0.1\n0,3,0.3333333333333333\n")


def test_ratings_roundtrip(tmp_path):
    orig = RatingMatrix(3, 4, [0, 2, 1], [0, 3, 1], [4.0, 2.5, 1.0])
    path = tmp_path / "r.csv"
    save_ratings(orig, path)
    back = load_ratings(path)
    assert (back.m, back.n) == (3, 4)
    assert np.array_equal(back.mask_bool(), orig.mask_bool())
    assert np.array_equal(back.to_dense(), orig.to_dense())


def test_load_ratings_infers_dims(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("row,col,value\n0,0,1.0\n4,2,3.0\n")
    data = load_ratings(path)
    assert (data.m, data.n) == (5, 3)


def test_load_ratings_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,0,1.0\n0,0,2.0\n")
    with pytest.raises(ValueError, match="dup.csv:2: duplicate entry \\(0,0\\), first at line 1"):
        load_ratings(path)


def test_load_ratings_error_lines_count_skipped_lines(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# m=3 n=3\n0,0,1\nrow,col,value\n\n1,1,2 # note\n0,0,3\n")
    with pytest.raises(ValueError, match=r"r.csv:6: duplicate entry \(0,0\), first at line 2$"):
        load_ratings(path)


def test_load_ratings_names_file_of_non_finite_value(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("0,0,1\n0,1,nan\n")
    with pytest.raises(ValueError, match=r"r.csv: non-finite rating value"):
        load_ratings(path)


def test_load_ratings_reports_first_bad_line(tmp_path):
    # The loader's error names the first line that is out of range or repeats
    # an earlier entry, as a line-by-line scan would.
    def first_bad(entries, m, n):
        seen = {}
        for lineno, (i, j) in entries:
            if not (0 <= i < m and 0 <= j < n):
                return f":{lineno}: index ({i},{j}) out of range for {m}x{n}"
            if (i, j) in seen:
                return f":{lineno}: duplicate entry ({i},{j}), first at line {seen[(i, j)]}"
            seen[(i, j)] = lineno
        return None

    rng = np.random.default_rng(0)
    path = tmp_path / "r.csv"
    kinds = set()
    for _ in range(60):
        m, n = 3, 4
        lines, entries = ["# m=3 n=4", "row,col,value"], []
        for _ in range(int(rng.integers(1, 12))):
            if rng.random() < 0.2:
                lines.append("")
            i, j = (int(v) for v in rng.integers(-1, [m + 1, n + 1]))
            if rng.random() < 0.9:
                i, j = min(max(i, 0), m - 1), min(max(j, 0), n - 1)
            lines.append(f"{i},{j},1.5")
            entries.append((len(lines), (i, j)))
        path.write_text("\n".join(lines) + "\n")
        want = first_bad(entries, m, n)
        kinds.add(want.split()[1] if want else "ok")
        if want is None:
            assert load_ratings(path).n_known == len(entries)
        else:
            with pytest.raises(ValueError, match=re.escape(f"r.csv{want}") + "$"):
                load_ratings(path)
    assert kinds == {"ok", "index", "duplicate"}


def test_load_ratings_rejects_out_of_range(tmp_path):
    path = tmp_path / "oob.csv"
    path.write_text("# m=2 n=2\n3,0,1.0\n")
    with pytest.raises(ValueError, match="out of range"):
        load_ratings(path)


def test_load_ratings_rejects_index_beyond_int64(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("# m=2 n=2\n0,0,1.0\n0,99999999999999999999,2.0\n")
    with pytest.raises(ValueError, match=r"huge.csv:3: index \(0,99999999999999999999\) out of range"):
        load_ratings(path)


def test_load_ratings_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n")
    with pytest.raises(ValueError, match="bad.csv:1"):
        load_ratings(path)


# -------------------------------------------------------------------- split


def test_split_sixty_twenty_twenty():
    rng = np.random.default_rng(0)
    data = RatingMatrix.from_dense(rng.uniform(1, 5, (10, 10)))
    cfg = ExperimentConfig(dataset="x", initial_fraction=0.6,
                           sample_budget_fraction=0.2, eval_fraction=0.2)
    gamma, pool, evalset = split_dataset(data, cfg, seed=1)
    assert (gamma.size, pool.size, evalset.size) == (60, 20, 20)
    combined = np.concatenate([gamma, pool, evalset])
    assert np.unique(combined).size == 100


def test_split_everything_initial():
    data = RatingMatrix.from_dense(np.ones((5, 4)))
    cfg = ExperimentConfig(dataset="x", initial_fraction=1.0,
                           sample_budget_fraction=0.0)
    gamma, pool, evalset = split_dataset(data, cfg, seed=0)
    assert gamma.size == 20 and pool.size == 0 and evalset.size == 0
    with pytest.raises(ValueError):
        resolve_budget(0.5, 20, pool.size)


def test_split_deterministic():
    data = RatingMatrix.from_dense(np.ones((8, 8)))
    cfg = ExperimentConfig(dataset="x", initial_fraction=0.5,
                           sample_budget_fraction=0.25, eval_fraction=0.25)
    a = split_dataset(data, cfg, seed=3)
    b = split_dataset(data, cfg, seed=3)
    for x, y in zip(a, b):
        assert_allclose(x, y)


def test_split_rounding_overflow():
    data = RatingMatrix.from_dense(np.ones((1, 3)))
    cfg = ExperimentConfig(dataset="x", initial_fraction=0.5,
                           sample_budget_fraction=0.5)
    # round(1.5) twice asks for 4 of 3 entries
    with pytest.raises(ValueError, match="overflow"):
        split_dataset(data, cfg, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", methods=["gcs", "bogus"])
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", initial_fraction=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", initial_fraction=0.8,
                         sample_budget_fraction=0.5)


# ------------------------------------------------------------------- budget


def test_resolve_budget_fraction():
    assert resolve_budget(0.05, 2400, 2400) == 120


def test_resolve_budget_absolute():
    assert resolve_budget(7, 100, 50) == 7
    assert resolve_budget(5.0, 100, 50) == 5


def test_resolve_budget_bounds():
    with pytest.raises(ValueError):
        resolve_budget(0.001, 100, 100)  # rounds to 0
    with pytest.raises(ValueError):
        resolve_budget(80, 100, 50)  # beyond pool


def test_resolve_budget_rejects_fractional_count():
    for budget in (2.7, 1.5):
        with pytest.raises(ValueError, match="whole number"):
            resolve_budget(budget, 100, 100)


# ----------------------------------------------------------------- datasets


def test_resolve_dataset_synthetic():
    data, truth, rg, cg = resolve_dataset(TINY_SYNTH, seed=0)
    assert (data.m, data.n) == (12, 9)
    assert truth.shape == (12, 9)
    assert rg.n == 12 and cg.n == 9


def test_resolve_dataset_rejects_unknown_params():
    with pytest.raises(ValueError, match="unknown generator"):
        resolve_dataset("synthetic:m=4,n=4,bogus=1", seed=0)


def test_resolve_dataset_rejects_a_parameter_without_value():
    with pytest.raises(ValueError, match="^bad generator parameter 'm4'$"):
        resolve_dataset("synthetic:m4,n=4", seed=0)


def test_resolve_dataset_file(tmp_path):
    path = tmp_path / "d.csv"
    save_ratings(RatingMatrix(2, 2, [0, 1], [0, 1], [1.0, 2.0]), path)
    data, truth, rg, cg = resolve_dataset(str(path), seed=0)
    assert data.n_known == 2
    assert truth is None and rg is None and cg is None


# -------------------------------------------------------------------- sweep


def test_run_experiment_smoke(tmp_path):
    cfg = ExperimentConfig(dataset=TINY_SYNTH, methods=["random"],
                           sample_budget_fraction=0.5, budgets=[10],
                           seeds=[0], output_dir=str(tmp_path / "out"))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    r = rows[0]
    assert r.method == "random" and r.K == 10
    assert np.isfinite(r.rmse) and r.rmse >= 0
    assert r.lobpcg_total_iters == 0
    out = tmp_path / "out"
    assert (out / "random_seed0_K10.csv").exists()
    assert (out / "random_seed0_K10.json").exists()
    assert (out / "random_seed0_K10_report.json").exists()
    assert not (out / "failures.log").exists()


def test_run_experiment_sidecar_records_iterations(tmp_path):
    cfg = ExperimentConfig(dataset=TINY_SYNTH, methods=["gcs", "igcs", "aopt"],
                           sample_budget_fraction=0.5, budgets=[6],
                           seeds=[0], output_dir=str(tmp_path / "out"))
    rows = run_experiment(cfg)
    assert [r.method for r in rows] == ["aopt", "gcs", "igcs"]
    for r in rows:
        _, meta = load_sample_set(tmp_path / "out" / f"{r.method}_seed0_K6.csv", m=12, n=9)
        assert len(meta["iter_counts"]) == 6
        assert sum(meta["iter_counts"]) == r.lobpcg_total_iters > 0


def test_run_experiment_checks_each_omega_once(tmp_path, monkeypatch):
    # Each cell's omega (the initial entries and the picks) passes the entry
    # rule once, as its SampleSet is built on the grid; CompletionProblem
    # does not check it again.
    seen, omegas = [], []
    rule, problem = linalg.entry_pairs, experiments.CompletionProblem

    def rule_spy(pairs, *args):
        seen.append(np.asarray(pairs).tolist())
        return rule(pairs, *args)

    def problem_spy(**kw):
        omegas.append(kw["omega"].ij.tolist())
        return problem(**kw)

    for mod in (linalg, graphs, sampling, completion, experiments):
        if hasattr(mod, "entry_pairs"):
            monkeypatch.setattr(mod, "entry_pairs", rule_spy)
    monkeypatch.setattr(experiments, "CompletionProblem", problem_spy)
    cfg = ExperimentConfig(dataset=TINY_SYNTH, initial_fraction=0.2, sample_budget_fraction=0.5,
                           methods=["gcs", "igcs", "random", "aopt"], budgets=[6],
                           seeds=[0], output_dir=str(tmp_path / "out"))
    assert len(run_experiment(cfg)) == 4
    assert not (tmp_path / "out" / "failures.log").exists()
    assert len(omegas) == 4 and all(len(o) > 6 for o in omegas)
    # A-opt with l_pool = 1 picks as GCS does, so two cells may share an omega.
    assert [seen.count(o) for o in omegas] == [omegas.count(o) for o in omegas]


def test_run_experiment_grid_and_order(tmp_path):
    cfg = ExperimentConfig(dataset=TINY_SYNTH, methods=["random", "gcs"],
                           sample_budget_fraction=0.5, budgets=[6, 12],
                           seeds=[0, 1], output_dir=str(tmp_path / "out"))
    rows = run_experiment(cfg)
    assert len(rows) == 8
    keys = [(r.method, r.seed, r.K) for r in rows]
    assert keys == sorted(keys)


def test_run_experiment_deterministic(tmp_path):
    cfg = dict(dataset=TINY_SYNTH, methods=["gcs"], sample_budget_fraction=0.4,
               budgets=[8], seeds=[2])
    a = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "a"), **cfg))
    b = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "b"), **cfg))
    for ra, rb in zip(a, b):
        assert (ra.method, ra.seed, ra.K) == (rb.method, rb.seed, rb.K)
        assert ra.rmse == rb.rmse
        assert ra.lambda_min_est == rb.lambda_min_est
        assert ra.lobpcg_total_iters == rb.lobpcg_total_iters


def test_run_experiment_isolates_failures(tmp_path):
    # sampling the whole pool leaves nothing to score against
    cfg = ExperimentConfig(dataset=TINY_SYNTH, methods=["random"],
                           sample_budget_fraction=1.0, budgets=[108],
                           seeds=[0], output_dir=str(tmp_path / "out"))
    rows = run_experiment(cfg)
    assert rows == []
    log = (tmp_path / "out" / "failures.log").read_text()
    assert "random,0," in log


def test_run_experiment_fixed_eval_split(tmp_path):
    cfg = ExperimentConfig(dataset=TINY_SYNTH, methods=["random"],
                           sample_budget_fraction=0.4, eval_fraction=0.3,
                           budgets=[10], seeds=[0],
                           output_dir=str(tmp_path / "out"))
    rows = run_experiment(cfg)
    assert len(rows) == 1 and np.isfinite(rows[0].rmse)


def test_run_experiment_scores_unpicked_pool_in_order(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(experiments, "rmse_eval",
                        lambda x, truth, ev: seen.append(np.asarray(ev).tolist()) or 1.0)
    cfg = ExperimentConfig(dataset=TINY_SYNTH, methods=["random", "igcs"],
                           initial_fraction=0.2, sample_budget_fraction=0.5,
                           budgets=[6], seeds=[0], output_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    data = resolve_dataset(TINY_SYNTH, 0)[0]
    pool = split_dataset(data, cfg, 0)[1]
    for method, got in zip(cfg.methods, seen):
        ss, _ = load_sample_set(tmp_path / "out" / f"{method}_seed0_K6.csv", m=12, n=9)
        pool_pairs = [[int(data.rows[p]), int(data.cols[p])] for p in pool]
        assert got == [pr for pr in pool_pairs if tuple(pr) not in set(ss.pairs)]


def test_run_experiment_g2_graphs(tmp_path):
    rng = np.random.default_rng(5)
    data = RatingMatrix.from_dense(rng.integers(1, 6, (10, 8)).astype(float))
    path = tmp_path / "d.csv"
    save_ratings(data, path)
    cfg = ExperimentConfig(dataset=str(path), initial_fraction=0.6,
                           sample_budget_fraction=0.2, eval_fraction=0.2,
                           methods=["random"], budgets=[8], seeds=[0],
                           graph_source="g2_content",
                           output_dir=str(tmp_path / "out"))
    rows = run_experiment(cfg)
    assert len(rows) == 1 and np.isfinite(rows[0].rmse)


@pytest.mark.parametrize("graphs, message", [
    (dict(graph_source="provided"), "graph_source=provided needs row_graph/col_graph paths"),
    (dict(graph_source="g2_content"), "g2_content needs a nonempty initial split"),
    (dict(graph_source="g3"), "unknown graph_source 'g3'"),
])
def test_run_experiment_names_a_graph_source_it_cannot_build(tmp_path, graphs, message):
    path = tmp_path / "d.csv"
    save_ratings(RatingMatrix.from_dense(np.ones((4, 3))), path)
    cfg = ExperimentConfig(dataset=str(path), sample_budget_fraction=0.5, methods=["random"],
                           output_dir=str(tmp_path / "out"), **graphs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(cfg)


def test_run_sampler_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        experiments.run_sampler(ExperimentConfig(dataset=TINY_SYNTH), "bogus", 1, 0, 2, 2)


def test_run_experiment_provided_graph_files(tmp_path):
    bundle = synthetic_netflix(12, 9, 3, 3, seed=0, p_in=0.9, p_out=0.2)
    ratings, rg, cg = tmp_path / "d.csv", tmp_path / "rg.txt", tmp_path / "cg.txt"
    save_ratings(bundle.ratings, ratings)
    save_edge_list(bundle.row_graph.weights, rg)
    save_edge_list(bundle.col_graph.weights, cg)
    out = tmp_path / "out"
    cfg = ExperimentConfig(dataset=str(ratings), sample_budget_fraction=0.5,
                           methods=["gcs", "random"], budgets=[6], seeds=[0, 1],
                           graph_source="provided", row_graph=str(rg),
                           col_graph=str(cg), output_dir=str(out))
    rows = run_experiment(cfg)
    assert [(r.method, r.seed, r.K) for r in rows] == [
        ("gcs", 0, 6), ("gcs", 1, 6), ("random", 0, 6), ("random", 1, 6)]
    assert all(np.isfinite(r.rmse) for r in rows)
    assert not (out / "failures.log").exists()


def test_run_experiment_g1_feature_graphs(tmp_path):
    rng = np.random.default_rng(6)
    data = RatingMatrix.from_dense(rng.integers(1, 6, (10, 8)).astype(float))
    path, fr, fc = tmp_path / "d.csv", tmp_path / "fr.csv", tmp_path / "fc.csv"
    save_ratings(data, path)
    np.savetxt(fr, rng.normal(size=(10, 3)), delimiter=",")
    np.savetxt(fc, rng.normal(size=(8, 3)), delimiter=",")
    out = tmp_path / "out"
    cfg = ExperimentConfig(dataset=str(path), sample_budget_fraction=0.5,
                           methods=["gcs", "random"], budgets=[8], seeds=[0],
                           graph_source="g1_features", features_row=str(fr),
                           features_col=str(fc), knn_k=3, output_dir=str(out))
    rows = run_experiment(cfg)
    assert [(r.method, r.seed, r.K) for r in rows] == [("gcs", 0, 8), ("random", 0, 8)]
    assert all(np.isfinite(r.rmse) for r in rows)
    assert not (out / "failures.log").exists()


# ------------------------------------------------------------------ metrics


def test_metrics_roundtrip(tmp_path):
    rows = [
        MetricsRow("gcs", 0, 120, 0.8421, 0.0312, 1.25, 4310),
        MetricsRow("random", 1, 120, 1.0112, 0.0101, 0.002, 0),
    ]
    path = tmp_path / "m.csv"
    export_metrics(rows, path)
    text = path.read_text()
    assert text == (f"{METRICS_HEADER}\n"
                    "gcs,0,120,0.8421,0.0312,1.25,4310\n"
                    "random,1,120,1.0112,0.0101,0.002,0\n")
    # Every field reads back as it was written.
    back = [MetricsRow(method, int(seed), int(K), float(rmse), float(lam), float(wall),
                       int(iters))
            for method, seed, K, rmse, lam, wall, iters in
            (line.split(",") for line in text.splitlines()[1:])]
    assert back == rows


def test_metrics_row_rejects_nonfinite():
    with pytest.raises(ValueError):
        MetricsRow("gcs", 0, 1, float("nan"), 0.0, 0.0, 0)


def test_export_metrics_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        export_metrics([], tmp_path / "m.csv")


# ------------------------------------------------------------------- config


def test_parse_config_full(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# sweep config\n"
        f"dataset = {TINY_SYNTH}\n"
        "methods = gcs, random\n"
        "budgets = 0.05, 0.1, 24\n"
        "seeds = 0, 1, 2\n"
        "alpha = 0.2\n"
        "beta = 0.3\n"
        "zeta = 7\n"
        "sample_budget_fraction = 0.5\n"
        "output_dir = results\n"
    )
    cfg = parse_config(path)
    assert cfg.dataset == TINY_SYNTH
    assert cfg.methods == ["gcs", "random"]
    assert cfg.budgets == [0.05, 0.1, 24]
    assert cfg.seeds == [0, 1, 2]
    assert cfg.alpha == 0.2 and cfg.beta == 0.3 and cfg.zeta == 7
    assert cfg.output_dir == "results"


def test_parse_config_every_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "dataset = d.csv\n"
        "initial_fraction = 0.1\n"
        "sample_budget_fraction = 0.5\n"
        "eval_fraction = 0.2\n"
        "methods = gcs, igcs ,random,aopt\n"
        "budgets = 0.05, 24\n"
        "alpha = 1\n"
        "beta = 0.5\n"
        "q = 0.25\n"
        "zeta = 3\n"
        "l_pool = 7\n"
        "k1 = 2\n"
        "k2 = 5\n"
        "graph_source = g1_features\n"
        "knn_k = 6\n"
        "seeds = 9\n"
        "seeds = 3, 4  # the last duplicate wins\n"
        "output_dir = out dir\n"
        "row_graph = r.txt\n"
        "col_graph = c.txt\n"
        "features_row = fr.csv\n"
        "features_col = fc.csv\n"
        "tol = 1e-9\n"
    )
    cfg = parse_config(path)
    expected = {
        "dataset": "d.csv", "initial_fraction": 0.1, "sample_budget_fraction": 0.5,
        "eval_fraction": 0.2, "methods": ["gcs", "igcs", "random", "aopt"],
        "budgets": [0.05, 24], "alpha": 1.0, "beta": 0.5, "q": 0.25, "zeta": 3,
        "l_pool": 7, "k1": 2, "k2": 5, "graph_source": "g1_features", "knn_k": 6,
        "seeds": [3, 4], "output_dir": "out dir", "row_graph": "r.txt",
        "col_graph": "c.txt", "features_row": "fr.csv", "features_col": "fc.csv",
        "tol": 1e-9,
    }
    got = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    assert got == expected

    def types(v):
        return [type(x) for x in v] if isinstance(v, list) else type(v)

    assert {k: types(v) for k, v in got.items()} == {k: types(v) for k, v in expected.items()}


@pytest.mark.parametrize("text,message", [
    ("dataset = x\nwat = 1\n", ": unknown config key 'wat'"),
    ("dataset = x\nalpha 1\n", ":2: expected 'key = value'"),
    ("alpha = 1\n", ": config must set 'dataset'"),
], ids=["unknown-key", "bad-line", "no-dataset"])
def test_parse_config_messages(tmp_path, text, message):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{message}") + "$"):
        parse_config(path)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dataset = x\nwat = 1\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_parse_config_rejects_bad_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dataset x\n")
    with pytest.raises(ValueError, match="exp.cfg:1"):
        parse_config(path)
