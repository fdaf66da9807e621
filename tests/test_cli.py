"""End-to-end tests for the command-line interface."""

import contextlib
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import discshift.cli as cli
import discshift.completion as completion
import discshift.experiments as experiments
import discshift.graphs as graphs
import discshift.linalg as linalg
import discshift.sampling as sampling
from discshift.cli import build_parser, main
from discshift.experiments import (
    GENERATOR_DEFAULTS,
    ExperimentConfig,
    load_ratings,
    resolve_dataset,
    run_sampler,
)
from discshift.graphs import laplacian_from_weights
from discshift.linalg import load_edge_list
from discshift.sampling import load_sample_set

GEN_ARGS = ["--m", "12", "--n", "9", "--row-comm", "3", "--col-comm", "3",
            "--p-in", "0.9", "--p-out", "0.2", "--seed", "0"]


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", *GEN_ARGS, "--out-dir", str(out)]) == 0
    return out


def test_gen_writes_bundle(dataset):
    data = load_ratings(dataset / "ratings.csv")
    assert (data.m, data.n) == (12, 9)
    for name in ("row_graph.txt", "col_graph.txt", "ground_truth.csv"):
        assert (dataset / name).exists()
    truth = np.loadtxt(dataset / "ground_truth.csv", delimiter=",", ndmin=2)
    assert truth.shape == (12, 9)
    assert load_edge_list(dataset / "row_graph.txt").n == 12


def test_graph_knn(tmp_path):
    feats = tmp_path / "feats.csv"
    np.savetxt(feats, np.random.default_rng(0).normal(size=(8, 3)),
               delimiter=",")
    out = tmp_path / "g.txt"
    code = main(["graph", "--features", str(feats), "--k", "3",
                 "--out", str(out)])
    assert code == 0
    assert load_edge_list(out).n == 8


def test_graph_content(dataset, tmp_path):
    out = tmp_path / "g2.txt"
    code = main(["graph", "--ratings", str(dataset / "ratings.csv"),
                 "--axis", "rows", "--out", str(out)])
    assert code == 0
    assert load_edge_list(out).n == 12


def test_content_graph_with_an_isolated_last_row_round_trips(tmp_path, capsys):
    # Row 3's ratings lie farther than --d-s from every other row's, so the
    # row graph's last node has no edge and no edge-list line. The graph file
    # still carries 4 nodes, so sample and complete run on the 4x4 grid.
    ratings, pool = tmp_path / "r.csv", tmp_path / "pool.csv"
    entries = {(0, 0): 4.0, (0, 1): 4.5, (0, 2): 4.0, (1, 0): 4.5, (1, 1): 4.0,
               (1, 3): 4.5, (2, 1): 4.5, (2, 2): 4.0, (2, 3): 4.0, (3, 0): 1.0,
               (3, 2): 1.5, (3, 3): 1.0}
    ratings.write_text("# m=4 n=4\n" + "".join(f"{i},{j},{v}\n" for (i, j), v in entries.items()))
    pool.write_text("".join(f"{i},{j}\n" for i, j in entries))
    rg, cg, picks = (str(tmp_path / name) for name in ("rg.txt", "cg.txt", "s.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI reports it as one line, not a warning
        assert main(["graph", "--ratings", str(ratings), "--axis", "rows", "--d-s", "1",
                     "--out", rg]) == 0
    assert capsys.readouterr().err == "warning: content graph is disconnected (2 components)\n"
    assert main(["graph", "--ratings", str(ratings), "--axis", "cols", "--out", cg]) == 0
    assert load_edge_list(rg).n == 4
    assert main(["sample", "--method", "gcs", "--budget", "6", "--pool", str(pool),
                 "--row-graph", rg, "--col-graph", cg, "--out", picks]) == 0
    assert any(i == 3 for i, _ in load_sample_set(picks, m=4, n=4)[0].pairs)
    assert main(["complete", "--ratings", str(ratings), "--omega", picks, "--row-graph", rg,
                 "--col-graph", cg, "--out", str(tmp_path / "rep.json")]) == 0
    assert json.loads((tmp_path / "rep.json").read_text())["shape"] == [4, 4]


def test_graph_requires_one_source(tmp_path):
    with pytest.raises(SystemExit, match="exactly one"):
        main(["graph", "--out", str(tmp_path / "g.txt")])


def test_sample_gcs(dataset, tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sample", "--method", "gcs", "--budget", "6",
                 "--row-graph", str(dataset / "row_graph.txt"),
                 "--col-graph", str(dataset / "col_graph.txt"),
                 "--alpha", "1.0", "--beta", "1.0", "--out", str(out)])
    assert code == 0
    ss, meta = load_sample_set(out, m=12, n=9)
    assert len(ss) == 6 and len(set(ss.pairs)) == 6
    assert meta["method"] == "gcs" and meta["K"] == 6
    assert meta["q"] is None
    assert len(meta["iter_counts"]) == 6


def test_sample_fractional_budget(dataset, tmp_path):
    out = tmp_path / "s.csv"
    main(["sample", "--method", "random", "--budget", "0.1",
          "--row-graph", str(dataset / "row_graph.txt"),
          "--col-graph", str(dataset / "col_graph.txt"), "--out", str(out)])
    ss, _ = load_sample_set(out, m=12, n=9)
    assert len(ss) == round(0.1 * 108)


def test_sample_random_without_graphs(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sample", "--method", "random", "--budget", "5",
                 "--m", "4", "--n", "3", "--seed", "1", "--out", str(out)])
    assert code == 0
    ss, _ = load_sample_set(out, m=4, n=3)
    assert len(ss) == 5
    assert all(0 <= i < 4 and 0 <= j < 3 for i, j in ss.pairs)


def test_sample_igcs_respects_pool(dataset, tmp_path):
    pool = tmp_path / "pool.csv"
    allowed = [(i, j) for i in range(6) for j in range(4)]
    pool.write_text("".join(f"{i},{j}\n" for i, j in allowed))
    out = tmp_path / "s.csv"
    code = main(["sample", "--method", "igcs", "--budget", "8",
                 "--zeta", "2", "--pool", str(pool),
                 "--row-graph", str(dataset / "row_graph.txt"),
                 "--col-graph", str(dataset / "col_graph.txt"),
                 "--out", str(out)])
    assert code == 0
    ss, meta = load_sample_set(out, m=12, n=9)
    assert set(ss.pairs) <= set(allowed)
    assert meta["zeta"] == 2


def test_sample_matches_run_sampler(dataset, tmp_path):
    pool = tmp_path / "pool.csv"
    allowed = [(i, j) for i in range(8) for j in range(6)]
    pool.write_text("".join(f"{i},{j}\n" for i, j in allowed))
    lin = np.array([i + 12 * j for i, j in allowed])
    rg = laplacian_from_weights(load_edge_list(dataset / "row_graph.txt"))
    cg = laplacian_from_weights(load_edge_list(dataset / "col_graph.txt"))
    params = ExperimentConfig(dataset="unused", alpha=0.5, beta=0.25, q=0.4,
                              zeta=2, l_pool=3, k1=2, k2=3)
    for method in ("gcs", "igcs", "random", "aopt"):
        out = tmp_path / f"{method}.csv"
        assert main(["sample", "--method", method, "--budget", "5", "--seed", "3",
                     "--alpha", "0.5", "--beta", "0.25", "--q", "0.4",
                     "--zeta", "2", "--l-pool", "3", "--k1", "2", "--k2", "3",
                     "--pool", str(pool),
                     "--row-graph", str(dataset / "row_graph.txt"),
                     "--col-graph", str(dataset / "col_graph.txt"),
                     "--out", str(out)]) == 0
        ss, meta = load_sample_set(out, m=12, n=9)
        ref, ref_meta = run_sampler(params, method, 5, 3, 12, 9, rg, cg,
                                    allowed=lin)
        assert ss.pairs == ref.pairs
        del meta["wall_time_seconds"], ref_meta["wall_time_seconds"]
        assert meta == ref_meta


def test_sample_gcs_needs_graphs(tmp_path):
    with pytest.raises(SystemExit, match="needs --row-graph"):
        main(["sample", "--method", "gcs", "--budget", "3",
              "--m", "4", "--n", "3", "--out", str(tmp_path / "s.csv")])


def test_sample_needs_graphs_or_shape(tmp_path):
    with pytest.raises(SystemExit, match="^pass --row-graph/--col-graph or --m/--n$"):
        main(["sample", "--method", "random", "--budget", "3",
              "--out", str(tmp_path / "s.csv")])


def test_sample_aopt(dataset, tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sample", "--method", "aopt", "--budget", "5",
                 "--k1", "2", "--k2", "2", "--l-pool", "3",
                 "--row-graph", str(dataset / "row_graph.txt"),
                 "--col-graph", str(dataset / "col_graph.txt"),
                 "--out", str(out)])
    assert code == 0
    ss, _ = load_sample_set(out, m=12, n=9)
    assert len(ss) == 5


def test_complete_and_eval(dataset, tmp_path, capsys):
    data = load_ratings(dataset / "ratings.csv")
    rng = np.random.default_rng(2)
    picked = rng.choice(data.n_known, size=40, replace=False)
    omega = tmp_path / "omega.csv"
    omega.write_text("".join(f"{data.rows[p]},{data.cols[p]}\n"
                             for p in picked))
    report = tmp_path / "report.json"
    x_out = tmp_path / "x.csv"
    code = main(["complete", "--ratings", str(dataset / "ratings.csv"),
                 "--omega", str(omega),
                 "--row-graph", str(dataset / "row_graph.txt"),
                 "--col-graph", str(dataset / "col_graph.txt"),
                 "--alpha", "1.0", "--beta", "1.0",
                 "--out", str(report), "--x-out", str(x_out)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["shape"] == [12, 9]
    assert doc["residual"] < 1e-6
    X = np.loadtxt(x_out, delimiter=",", ndmin=2)
    assert X.shape == (12, 9)

    held_out = [p for p in range(data.n_known) if p not in set(picked)][:20]
    eval_csv = tmp_path / "eval.csv"
    eval_csv.write_text("".join(f"{data.rows[p]},{data.cols[p]}\n"
                                for p in held_out))
    code = main(["eval", "--completed", str(x_out),
                 "--truth", str(dataset / "ratings.csv"),
                 "--eval-set", str(eval_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "rmse" in out and "20 entries" in out


def test_complete_rejects_unknown_omega(tmp_path):
    from discshift.experiments import save_ratings
    from discshift.graphs import RatingMatrix
    from discshift.linalg import SparseSym, save_edge_list

    ratings = tmp_path / "r.csv"
    save_ratings(RatingMatrix(2, 2, [0, 1], [0, 1], [1.0, 2.0]), ratings)
    path2 = SparseSym.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = tmp_path / "g.txt"
    save_edge_list(path2, g)
    omega = tmp_path / "omega.csv"
    omega.write_text("0,1\n")  # in range but never rated
    with pytest.raises(SystemExit) as exit_:
        main(["complete", "--ratings", str(ratings), "--omega", str(omega),
              "--row-graph", str(g), "--col-graph", str(g),
              "--out", str(tmp_path / "r.json")])
    assert str(exit_.value) == (
        f"{omega}: omega contains unobserved entries (missing from the ratings), e.g. "
        f"(0, 1); sample rated entries only, passing `sample --pool` their row,col "
        f"pairs (`cut -d, -f1,2 {ratings}`)")
    omega.write_text("0,0\n2,0\n")
    with pytest.raises(SystemExit, match=r"omega.csv:2: pair \(2, 0\) outside the 2x2 grid$"):
        main(["complete", "--ratings", str(ratings), "--omega", str(omega),
              "--row-graph", str(g), "--col-graph", str(g),
              "--out", str(tmp_path / "r.json")])


def test_complete_reports_singular_operator(tmp_path):
    ratings = tmp_path / "r.csv"
    ratings.write_text("# m=4 n=2\nrow,col,value\n0,0,1.0\n1,1,2.0\n2,0,3.0\n")
    rg, cg = tmp_path / "rg.txt", tmp_path / "cg.txt"
    rg.write_text("0 1 1.0\n2 3 1.0\n")  # two row components
    cg.write_text("0 1 1.0\n")
    omega = tmp_path / "omega.csv"
    omega.write_text("0,0\n")  # samples only the first row component
    with pytest.raises(SystemExit, match="operator is singular"):
        main(["complete", "--ratings", str(ratings), "--omega", str(omega),
              "--row-graph", str(rg), "--col-graph", str(cg),
              "--out", str(tmp_path / "r.json")])


def test_sample_rejects_fractional_budget(tmp_path):
    with pytest.raises(SystemExit, match="--budget: budget 2.7 is not a whole number"):
        main(["sample", "--method", "random", "--budget", "2.7", "--m", "4",
              "--n", "3", "--out", str(tmp_path / "s.csv")])


def test_eval_checks_its_set_once(dataset, tmp_path, monkeypatch):
    # The eval set passes the entry rule once, as it is read: its SampleSet
    # records the grid, and rmse_eval does not check it again.
    X = tmp_path / "x.csv"
    np.savetxt(X, np.ones((12, 9)), delimiter=",")
    eval_csv = tmp_path / "eval.csv"
    eval_csv.write_text("row,col\n0,0\n3,2\n11,8\n")
    seen = []
    real = linalg.entry_pairs

    def spy(pairs, *args):
        seen.append(np.asarray(pairs).tolist())
        return real(pairs, *args)

    for mod in (linalg, graphs, sampling, completion, experiments, cli):
        if hasattr(mod, "entry_pairs"):
            monkeypatch.setattr(mod, "entry_pairs", spy)
    assert main(["eval", "--completed", str(X), "--truth", str(dataset / "ratings.csv"),
                 "--eval-set", str(eval_csv)]) == 0
    assert seen.count([[0, 0], [3, 2], [11, 8]]) == 1


def test_eval_rejects_duplicate_pairs(dataset, tmp_path):
    X = tmp_path / "x.csv"
    np.savetxt(X, np.ones((12, 9)), delimiter=",")
    eval_csv = tmp_path / "eval.csv"
    eval_csv.write_text("0,0\n1,2\n0,0\n")
    with pytest.raises(SystemExit, match=re.escape(
            "eval.csv:3: sample pairs must be distinct: (0, 0) repeats, first at line 1") + "$"):
        main(["eval", "--completed", str(X), "--truth", str(dataset / "ratings.csv"),
              "--eval-set", str(eval_csv)])


def test_eval_rejects_empty_eval_set(dataset, tmp_path):
    X = tmp_path / "x.csv"
    np.savetxt(X, np.ones((12, 9)), delimiter=",")
    eval_csv = tmp_path / "eval.csv"
    eval_csv.write_text("row,col\n")
    with pytest.raises(SystemExit, match="^" + re.escape(f"{eval_csv}: empty evaluation set")):
        main(["eval", "--completed", str(X), "--truth", str(dataset / "ratings.csv"),
              "--eval-set", str(eval_csv)])


def test_eval_rejects_negative_pair(dataset, tmp_path):
    # -1 would wrap to row 11 and score that entry instead
    X = tmp_path / "x.csv"
    np.savetxt(X, np.ones((12, 9)), delimiter=",")
    eval_csv = tmp_path / "eval.csv"
    eval_csv.write_text("0,0\n-1,0\n")
    with pytest.raises(SystemExit,
                       match=r"eval.csv:2: pair \(-1, 0\) outside the 12x9 grid$"):
        main(["eval", "--completed", str(X), "--truth", str(dataset / "ratings.csv"),
              "--eval-set", str(eval_csv)])


def test_eval_rejects_pair_beyond_grid(dataset, tmp_path):
    X = tmp_path / "x.csv"
    np.savetxt(X, np.ones((12, 9)), delimiter=",")
    eval_csv = tmp_path / "eval.csv"
    eval_csv.write_text("40,0\n0,0\n")
    with pytest.raises(SystemExit,
                       match=r"eval.csv:1: pair \(40, 0\) outside the 12x9 grid$"):
        main(["eval", "--completed", str(X), "--truth", str(dataset / "ratings.csv"),
              "--eval-set", str(eval_csv)])


def test_eval_rejects_completed_matrix_of_another_shape(dataset, tmp_path):
    # A larger X used to die with an IndexError on (15, 0), which lies outside
    # the truth; for a smaller one the eval set was blamed.
    X = tmp_path / "x.csv"
    eval_csv = tmp_path / "eval.csv"
    eval_csv.write_text("0,0\n15,0\n")
    for rows in (20, 6):
        np.savetxt(X, np.ones((rows, 9)), delimiter=",")
        with pytest.raises(SystemExit,
                           match=rf"x.csv: shape {rows}x9 does not match the truth's 12x9"):
            main(["eval", "--completed", str(X), "--truth", str(dataset / "ratings.csv"),
                  "--eval-set", str(eval_csv)])


def test_gen_without_connected_graph_exits_with_hint(tmp_path):
    # The default four communities at three rows each rarely connect.
    with pytest.raises(SystemExit, match=r"could not draw a connected graph .*; "
                                         r"raise --p-in or lower --row-comm/--col-comm"):
        main(["gen", "--m", "12", "--n", "8", "--out-dir", str(tmp_path / "g")])


def test_gen_beyond_dense_oracle_cap(tmp_path):
    out = tmp_path / "big"
    assert main(["gen", "--m", "520", "--n", "6", "--col-comm", "1",
                 "--out-dir", str(out)]) == 0
    data = load_ratings(out / "ratings.csv")
    assert (data.m, data.n, data.n_known) == (520, 6, 3120)


def test_sample_rejects_pool_pair_outside_grid(dataset, tmp_path):
    pool = tmp_path / "pool.csv"
    for bad in ("-1,0", "0,9", "12,0"):
        pool.write_text(f"0,0\n{bad}\n")
        with pytest.raises(SystemExit,
                           match=rf"pool.csv:2: pair \({bad.replace(',', ', ')}\) "
                                 r"outside the 12x9 grid$"):
            main(["sample", "--method", "random", "--budget", "1",
                  "--pool", str(pool), "--m", "12", "--n", "9",
                  "--out", str(tmp_path / "s.csv")])


BAD_FILES = {
    "ratings.csv": ("# m=12 n=9\n0,0,1.0\n0,0,2.0\n",
                    ":3: duplicate entry (0,0), first at line 2"),
    "lower.txt": ("1 0 1.0\n", ":1: lower-triangle entry"),
    "nan.txt": ("0 1 nan\n", ": matrix has NaN or infinite entries"),
    "dense.csv": ("1,2,x\n", ": could not convert string 'x' to float64"),
    "int.cfg": ("dataset = synthetic\nzeta = x\n", ": invalid literal for int()"),
    "key.cfg": ("dataset = synthetic\nbogus = 1\n", ": unknown config key 'bogus'"),
    # Not written: the path once, not Python's `[Errno 2] ...: '<path>'`.
    "missing.csv": (None, ": No such file or directory"),
}


@pytest.mark.parametrize("reader,bad", [
    ("complete --ratings", "ratings.csv"), ("eval --truth", "ratings.csv"),
    ("graph --ratings", "ratings.csv"), ("complete --row-graph", "lower.txt"),
    ("sample --col-graph", "nan.txt"), ("eval --completed", "dense.csv"),
    ("graph --features", "dense.csv"), ("experiment --config", "int.cfg"),
    ("experiment --config", "key.cfg"), ("experiment dataset", "ratings.csv"),
    ("experiment row_graph", "lower.txt"), ("complete --ratings", "missing.csv"),
    ("complete --omega", "missing.csv"), ("complete --row-graph", "missing.csv"),
    ("sample --pool", "missing.csv"), ("experiment dataset", "missing.csv")])
def test_unreadable_file_exits_naming_it(dataset, tmp_path, reader, bad):
    # Each of these used to end in a traceback; the loadtxt and config
    # errors did not name the file at all.
    path = tmp_path / bad
    text, msg = BAD_FILES[bad]
    if text is not None:
        path.write_text(text)
    X, pairs = str(tmp_path / "x.csv"), str(tmp_path / "pairs.csv")
    np.savetxt(X, np.ones((12, 9)), delimiter=",")
    with open(pairs, "w") as f:
        f.write("0,0\n")
    ratings, rg, cg = (str(dataset / name) for name in ("ratings.csv", "row_graph.txt",
                                                         "col_graph.txt"))
    out = str(tmp_path / "out")

    def complete(ratings=ratings, omega=pairs, rg=rg):
        return ["complete", "--ratings", ratings, "--omega", omega, "--row-graph", rg,
                "--col-graph", cg, "--out", out]

    def evaluate(X=X, truth=ratings):
        return ["eval", "--completed", X, "--truth", truth, "--eval-set", pairs]

    argv = {"complete --ratings": complete(ratings=str(path)),
            "eval --truth": evaluate(truth=str(path)),
            "graph --ratings": ["graph", "--ratings", str(path), "--out", out],
            "complete --omega": complete(omega=str(path)),
            "complete --row-graph": complete(rg=str(path)),
            "sample --pool": ["sample", "--method", "random", "--budget", "1", "--pool",
                              str(path), "--m", "12", "--n", "9", "--out", out],
            "sample --col-graph": ["sample", "--method", "gcs", "--budget", "2",
                                   "--row-graph", rg, "--col-graph", str(path), "--out", out],
            "eval --completed": evaluate(X=str(path)),
            "graph --features": ["graph", "--features", str(path), "--out", out],
            "experiment --config": ["experiment", "--config", str(path)]}
    # A config whose dataset or provided graph is the bad file.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {path if reader == 'experiment dataset' else ratings}\n"
                   f"row_graph = {path}\ncol_graph = {cg}\noutput_dir = {out}\n")
    argv = argv.get(reader, ["experiment", "--config", str(cfg)])
    with pytest.raises(SystemExit, match="^" + re.escape(f"{path}{msg}")):
        main(argv)


@pytest.mark.parametrize("writer", ["gen --out-dir", "graph --out", "sample --out",
                                    "complete --out", "complete --x-out",
                                    "experiment output_dir"])
def test_unwritable_output_exits_naming_it(dataset, tmp_path, writer):
    # Each of these used to end in a traceback. A file in a missing
    # directory is `No such file or directory`; gen and experiment create a
    # missing output directory, so theirs is one below a regular file.
    (tmp_path / "file").write_text("")
    if writer in ("gen --out-dir", "experiment output_dir"):
        path, msg = tmp_path / "file" / "out", "Not a directory"
    else:
        path, msg = tmp_path / "missing" / "out", "No such file or directory"
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,0\n")
    ratings, rg, cg = (str(dataset / name) for name in ("ratings.csv", "row_graph.txt",
                                                         "col_graph.txt"))
    complete = ["complete", "--ratings", ratings, "--omega", str(pairs), "--row-graph", rg,
                "--col-graph", cg]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {ratings}\nrow_graph = {rg}\ncol_graph = {cg}\n"
                   f"output_dir = {path}\n")
    argv = {
        "gen --out-dir": ["gen", *GEN_ARGS, "--out-dir", str(path)],
        "graph --out": ["graph", "--ratings", ratings, "--out", str(path)],
        "sample --out": ["sample", "--method", "gcs", "--budget", "2", "--row-graph", rg,
                         "--col-graph", cg, "--out", str(path)],
        "complete --out": complete + ["--out", str(path)],
        "complete --x-out": complete + ["--out", str(tmp_path / "r.json"),
                                        "--x-out", str(path)],
        "experiment output_dir": ["experiment", "--config", str(cfg)],
    }[writer]
    with pytest.raises(SystemExit, match="^" + re.escape(f"{path}: {msg}") + "$"):
        main(argv)



def test_output_that_is_a_directory_exits_naming_it(tmp_path):
    out = tmp_path / "picks.csv"
    out.mkdir()
    with pytest.raises(SystemExit, match="^" + re.escape(f"{out}: Is a directory") + "$"):
        main(["sample", "--method", "random", "--budget", "2", "--m", "3", "--n", "3",
              "--out", str(out)])
    assert out.is_dir()


SYNTHETIC = "synthetic:m=12,n=9,row_comm=3,col_comm=3,p_in=0.9,p_out=0.2"

# Every file the package writes: the names a writer writes under a
# directory, and a call that writes them with content that depends on v.
WRITERS = {
    "save_ratings": (["r.csv"], lambda d, v: experiments.save_ratings(
        graphs.RatingMatrix(2, 2, [0, 1], [0, 1], [v, 2.5]), d / "r.csv")),
    "save_edge_list": (["g.txt"], lambda d, v: linalg.save_edge_list(
        linalg.SparseSym.from_dense(np.array([[0.0, v], [v, 0.0]])), d / "g.txt")),
    "write_dense_csv": (["x.csv"], lambda d, v: completion.write_dense_csv(
        np.full((2, 3), v), d / "x.csv")),
    "save_report": (["r.json", "x.csv"], lambda d, v: completion.save_report(
        completion.CompletionReport(np.full((2, 3), v), 1e-9, v), d / "r.json",
        x_csv_path=d / "x.csv")),
    "save_sample_set": (["s.csv", "s.json"], lambda d, v: sampling.save_sample_set(
        sampling.SampleSet([(0, int(v))], m=2, budget=1), d / "s.csv", meta={"seed": v})),
    "export_metrics": (["metrics.csv"], lambda d, v: experiments.export_metrics(
        [experiments.MetricsRow("random", 0, 1, v, v, v, 0)], d / "metrics.csv")),
    "failures.log": (["failures.log"], lambda d, v: experiments.run_experiment(ExperimentConfig(
        dataset=SYNTHETIC, methods=["random"], budgets=[9998 + int(v)],
        sample_budget_fraction=0.5, output_dir=str(d)))),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_make_new_files(tmp_path, writer):
    # A rewritten output is a new file, not the old one truncated: a handle
    # on the old file still reads the old bytes, and the path reads what a
    # fresh write gives.
    names, write = WRITERS[writer]
    rewritten, fresh = tmp_path / "rewritten", tmp_path / "fresh"
    rewritten.mkdir()
    fresh.mkdir()
    write(rewritten, 1.0)
    old = [(rewritten / name).read_bytes() for name in names]
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(rewritten / name, "rb")) for name in names]
        write(rewritten, 2.0)
        write(fresh, 2.0)
        for name, before, h in zip(names, old, handles):
            assert (rewritten / name).read_bytes() == (fresh / name).read_bytes() != before
            assert h.read() == before


def test_experiment_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "results"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = synthetic:m=12,n=9,row_comm=3,col_comm=3,p_in=0.9,p_out=0.2\n"
        "methods = random, gcs\n"
        "budgets = 6\n"
        "seeds = 0\n"
        "sample_budget_fraction = 0.5\n"
        f"output_dir = {out_dir}\n"
    )
    code = main(["experiment", "--config", str(cfg)])
    assert code == 0
    header, *rows = (out_dir / "metrics.csv").read_text().splitlines()
    assert header == experiments.METRICS_HEADER
    cells = [(method, K) for method, _, K, *_ in (r.split(",") for r in rows)]
    assert cells == [("gcs", "6"), ("random", "6")]


def test_experiment_config_error_names_the_config(tmp_path):
    # Raised before the first cell, outside the per-cell failure isolation.
    out_dir, cfg = tmp_path / "results", tmp_path / "exp.cfg"
    cfg.write_text("dataset = synthetic:m=12,n=9,row_comm=3,col_comm=3,p_in=0.9,p_out=0.2\n"
                   f"graph_source = g1_features\noutput_dir = {out_dir}\n")
    with pytest.raises(SystemExit, match="^" + re.escape(f"{cfg}: g1_features needs")):
        main(["experiment", "--config", str(cfg)])


def test_experiment_reports_failures(tmp_path, capsys):
    out_dir = tmp_path / "results"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dataset = synthetic:m=12,n=9,row_comm=3,col_comm=3,p_in=0.9,p_out=0.2\n"
        "methods = random\n"
        "budgets = 9999\n"  # beyond the pool
        "seeds = 0\n"
        "sample_budget_fraction = 0.5\n"
        f"output_dir = {out_dir}\n"
    )
    code = main(["experiment", "--config", str(cfg)])
    assert code == 1
    assert (out_dir / "failures.log").exists()
    assert "failures.log" in capsys.readouterr().err



def test_experiment_rerun_describes_only_that_run(tmp_path, capsys):
    # A clean run into the directory of a failing one used to exit 1 on the
    # old failures.log, and a failing run kept an earlier metrics.csv.
    out_dir, cfg = tmp_path / "results", tmp_path / "exp.cfg"

    def run(budget):
        cfg.write_text(f"dataset = {SYNTHETIC}\nmethods = random\nbudgets = {budget}\n"
                       f"sample_budget_fraction = 0.5\noutput_dir = {out_dir}\n")
        return main(["experiment", "--config", str(cfg)])

    assert run(9999) == 1 and (out_dir / "failures.log").exists()
    assert run(6) == 0
    assert (out_dir / "metrics.csv").exists() and not (out_dir / "failures.log").exists()
    assert run(9999) == 1
    assert not (out_dir / "metrics.csv").exists()


def test_experiment_without_methods_runs_no_cells(tmp_path, capsys):
    out_dir, cfg = tmp_path / "results", tmp_path / "exp.cfg"
    cfg.write_text("dataset = synthetic:m=12,n=9,row_comm=3,col_comm=3,p_in=0.9,p_out=0.2\n"
                   f"methods =\noutput_dir = {out_dir}\n")
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert "no cells ran" in capsys.readouterr().err
    assert not (out_dir / "metrics.csv").exists()
    assert not (out_dir / "failures.log").exists()


def test_parser_defaults_are_the_config_defaults():
    parser = build_parser()
    cfg = ExperimentConfig(dataset="unused")
    sample = vars(parser.parse_args(["sample", "--method", "gcs", "--budget", "1",
                                     "--out", "s.csv"]))
    for name in ("alpha", "beta", "q", "zeta", "l_pool", "k1", "k2"):
        assert sample[name] == getattr(cfg, name)
        assert type(sample[name]) is type(getattr(cfg, name))
    complete = vars(parser.parse_args(["complete", "--ratings", "r", "--omega", "o",
                                       "--row-graph", "a", "--col-graph", "b",
                                       "--out", "x"]))
    assert (complete["alpha"], complete["beta"], complete["tol"]) == (cfg.alpha, cfg.beta, cfg.tol)
    graph = vars(parser.parse_args(["graph", "--features", "f", "--out", "g"]))
    assert graph["k"] == cfg.knn_k
    gen = vars(parser.parse_args(["gen", "--out-dir", "d"]))
    assert {key: gen[key] for key in GENERATOR_DEFAULTS} == GENERATOR_DEFAULTS


def test_gen_defaults_are_the_synthetic_spec_defaults(tmp_path):
    assert main(["gen", "--out-dir", str(tmp_path)]) == 0
    data = load_ratings(tmp_path / "ratings.csv")
    spec, *_ = resolve_dataset("synthetic", seed=0)
    assert (data.m, data.n) == (spec.m, spec.n) == (60, 40)
    assert np.array_equal(data.to_dense(), spec.to_dense())


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_help_runs():
    proc = subprocess.run([sys.executable, "-m", "discshift.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sample" in proc.stdout and "complete" in proc.stdout
