"""Tests for the command-line interface."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptodist import cli, datagen, ground_cost, ot_core, transfer
from ptodist.datagen import read_dataset, write_dataset
from ptodist.ground_cost import GroundCostWeights, pairwise_cost_matrix
from ptodist.tasks import shortest_path_task


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def gen_topk_file(tmp_path, name, gamma, seed, instances=8, resources=6):
    path = tmp_path / name
    code = run_cli([
        "gen", "--family", "topk", "--gamma", str(gamma), "--instances", str(instances),
        "--resources", str(resources), "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_writes_dataset(tmp_path, capsys):
    path = gen_topk_file(tmp_path, "a.plds", 0.65, 7, instances=10)
    ds = read_dataset(path)
    assert len(ds) == 10
    assert "gamma" in capsys.readouterr().out


def test_gen_usage_errors(tmp_path):
    out = str(tmp_path / "x.plds")
    # missing --gamma for topk
    assert run_cli(["gen", "--family", "topk", "--out", out]) == 1
    # invalid family
    assert run_cli(["gen", "--family", "auction", "--out", out]) == 1


@pytest.mark.parametrize("option, value", [(o, v) for o in ("--instances", "--features") for v in ("0", "-1")])
def test_gen_size_below_one_is_a_usage_error(tmp_path, capsys, option, value):
    out = tmp_path / "x.plds"
    assert run_cli(["gen", "--family", "inventory", option, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(f"error: argument {option}: must be at least 1, got '{value}'\n")
    assert not out.exists()


@pytest.mark.parametrize("family, option, least", [
    ("topk", "--resources", 1), ("topk", "--k", 1), ("grid", "--p", 2), ("grid", "--classes", 1)])
def test_gen_size_below_its_least_is_a_usage_error(tmp_path, capsys, family, option, least):
    out = tmp_path / "x.plds"
    gamma = ["--gamma", "0.5"] if family == "topk" else []
    base = ["gen", "--family", family, *gamma, "--instances", "2", "--out", str(out)]
    for value in (str(least - 1), "-1"):
        assert run_cli([*base, option, value]) == 1
        assert capsys.readouterr().err.endswith(f"error: argument {option}: must be at least {least}, got '{value}'\n")
        assert not out.exists()
    assert run_cli([*base, option, str(least)]) == 0
    # K > N stays the task's data error
    if family == "topk":
        assert run_cli([*base, "--resources", "2", "--k", "3"]) == 2
        assert "need 1 <= K <= N, got K=3, N=2" in capsys.readouterr().err


def test_gen_grid_and_inventory(tmp_path):
    grid = tmp_path / "g.plds"
    assert run_cli(["gen", "--family", "grid", "--p", "5", "--instances", "4",
                    "--cost-seed", "1", "--map-seed", "2", "--out", str(grid)]) == 0
    inv = tmp_path / "i.plds"
    assert run_cli(["gen", "--family", "inventory", "--instances", "4",
                    "--mean-seed", "1", "--theta-seed", "2", "--out", str(inv)]) == 0
    assert read_dataset(grid).task.kind == "shortest_path"
    assert read_dataset(inv).task.kind == "inventory"


@pytest.mark.parametrize("family, given, generate", [
    ("topk", ["--gamma", "0.5"], lambda: datagen.gen_topk(0.5)),
    ("grid", [], lambda: datagen.gen_grid(0, 0)),
    ("inventory", [], lambda: datagen.gen_inventory(0, 0)),
])
def test_gen_leaves_out_no_option_at_the_generators_defaults(tmp_path, family, given, generate):
    out, expected = tmp_path / "cli.plds", tmp_path / "library.plds"
    assert run_cli(["gen", "--family", family, *given, "--out", str(out)]) == 0
    write_dataset(generate(), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_gen_negative_length_weight_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "g.plds"
    assert run_cli(["gen", "--family", "grid", "--p", "3", "--instances", "4",
                    "--length-weight", "-0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: task param 'length_weight' must be nonnegative, got -0.5\n"
    assert not out.exists()


def test_dist_self_is_zero(tmp_path, capsys):
    path = gen_topk_file(tmp_path, "a.plds", 0.3, 1)
    assert run_cli(["dist", str(path), str(path)]) == 0
    assert float(capsys.readouterr().out.splitlines()[-1]) == 0.0


def test_dist_breakdown_and_weights(tmp_path, capsys):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    b = gen_topk_file(tmp_path, "b.plds", 1.0, 2)
    bd = tmp_path / "breakdown.csv"
    assert run_cli(["dist", str(a), str(b), "--alpha-x", "0.5", "--alpha-y", "0.5",
                    "--alpha-w", "0", "--breakdown", str(bd)]) == 0
    printed = float(capsys.readouterr().out.splitlines()[-1])
    rows = read_rows(bd)
    assert len(rows) == 8 * 8
    # feature-label reduction: decision terms do not enter any total
    for r in rows:
        total = 0.5 * float(r["feature_term"]) + 0.5 * float(r["label_term"])
        assert abs(float(r["total"]) - total) < 1e-12
    assert printed > 0.0
    # on a 20 x 20 pair at the default weights, the totals read i-major are
    # the cost matrix the distance is solved on, bit for bit
    a = gen_topk_file(tmp_path, "a20.plds", 0.0, 1, instances=20, resources=25)
    b = gen_topk_file(tmp_path, "b20.plds", 1.0, 2, instances=20, resources=25)
    for mode in ("as-written", "symmetrized"):
        assert run_cli(["dist", str(a), str(b), "--mode", mode, "--breakdown", str(bd)]) == 0
        rows = read_rows(bd)
        assert [(int(r["i"]), int(r["j"])) for r in rows] == [(i, j) for i in range(20) for j in range(20)]
        w = GroundCostWeights(1 / 3, 1 / 3, 1 / 3)
        C = pairwise_cost_matrix(read_dataset(a), read_dataset(b), w, mode=mode).entries
        assert np.array_equal(np.array([float(r["total"]) for r in rows]), C.ravel())


@pytest.mark.parametrize("rows, cols, solver", [(8, 8, "exact"), (8, 6, "exact"), (8, 6, "sinkhorn")])
def test_dist_breakdown_total_is_the_cost_the_distance_was_solved_on(tmp_path, capsys, rows, cols, solver):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1, instances=rows)
    b = gen_topk_file(tmp_path, "b.plds", 1.0, 2, instances=cols)
    bd = tmp_path / "breakdown.csv"
    capsys.readouterr()
    assert run_cli(["dist", str(a), str(b), "--solver", solver, "--epsilon", "0.05", "--breakdown", str(bd)]) == 0
    printed = float(capsys.readouterr().out)
    total = np.array([float(r["total"]) for r in read_rows(bd)]).reshape(rows, cols)
    assert ground_cost.transport(ot_core.CostMatrix(total), solver, 0.05)[1] == printed


def test_dist_breakdown_that_cannot_be_written_prints_no_distance(tmp_path, capsys):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    capsys.readouterr()
    assert run_cli(["dist", str(a), str(a), "--breakdown", str(tmp_path)]) == 2  # a directory
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ")


WEIGHTS = "--alpha-x, --alpha-y, --alpha-w: ground-cost weights"


@pytest.mark.parametrize("command, given, message", [
    ("transfer", ["--budget", "0"], "argument --budget: must be at least 1, got '0'"),
    ("sweep", ["--budget", "0"], "argument --budget: must be at least 1, got '0'"),
    ("bound", ["--budget", "0"], "argument --budget: must be at least 1, got '0'"),
    ("sweep", ["--resolution", "0"], "argument --resolution: must be at least 1, got '0'"),
    ("dist", ["--solver", "sinkhorn", "--epsilon", "-1"], "argument --epsilon: must be positive and finite, got '-1'"),
    ("dist", ["--solver", "sinkhorn", "--epsilon", "nan"], "argument --epsilon: must be positive and finite, got 'nan'"),
    ("dist", ["--solver", "sinkhorn", "--epsilon", "inf"], "argument --epsilon: must be positive and finite, got 'inf'"),
    ("dist", ["--alpha-x", "2"], f"{WEIGHTS} must sum to 1, got 2.666666666666667"),
    ("dist", ["--alpha-x", "nan"], f"{WEIGHTS} must be nonnegative and finite, got alpha_x=nan"),
    ("transfer", ["--alpha-x", "2"], f"{WEIGHTS} must sum to 1, got 2.666666666666667"),
], ids=["transfer-budget-0", "sweep-budget-0", "bound-budget-0", "sweep-resolution-0", "dist-epsilon--1",
        "dist-epsilon-nan", "dist-epsilon-inf", "dist-alpha-x-2", "dist-alpha-x-nan", "transfer-alpha-x-2"])
def test_numeric_option_out_of_range_is_a_usage_error(tmp_path, capsys, command, given, message):
    # the dataset files do not exist: reading them first would be a data error (exit 2)
    a, b, out = (str(tmp_path / name) for name in ("missing-a.plds", "missing-b.plds", "out.csv"))
    files = [a, b] if command == "dist" else ["--source", a, "--target", b, "--out", out]
    assert run_cli([command, *files, *given]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].endswith(f"{command}: error: {message}")
    assert captured.out == ""
    assert not (tmp_path / "out.csv").exists()


def test_dist_task_mismatch_exit_code(tmp_path):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    g = tmp_path / "g.plds"
    run_cli(["gen", "--family", "grid", "--p", "4", "--instances", "3", "--out", str(g)])
    assert run_cli(["dist", str(a), str(g)]) == 2


def test_commands_name_the_task_param_two_files_differ_in(tmp_path, capsys):
    a, b = tmp_path / "a.plds", tmp_path / "b.plds"
    for path, weight in ((a, "0"), (b, "5")):
        assert run_cli(["gen", "--family", "grid", "--p", "4", "--instances", "3", "--length-weight", weight,
                        "--out", str(path)]) == 0
    out = str(tmp_path / "out.csv")
    for argv in (["dist", str(a), str(b)],
                 ["transfer", "--source", str(b), "--target", str(a), "--budget", "10", "--out", out],
                 ["sweep", *["--source", str(b)] * 3, "--target", str(a), "--budget", "10", "--out", out],
                 ["bound", "--source", str(a), "--target", str(b), "--budget", "10", "--out", out]):
        capsys.readouterr()
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"{a} vs {b}: 'shortest_path' task param 'length_weight' differs: 0.0 vs 5.0" in err, argv
    assert not (tmp_path / "out.csv").exists()


def test_missing_task_param_exit_code(tmp_path, capsys):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    lines = a.read_text().splitlines()
    header = json.loads(lines[0])
    del header["task"]["params"]["n_resources"]
    bad = tmp_path / "bad.plds"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert run_cli(["dist", str(a), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1: task params missing 'n_resources'" in err
    assert "Traceback" not in err


def test_grid_header_may_leave_out_the_optional_params(tmp_path, capsys):
    a, b = tmp_path / "a.plds", tmp_path / "b.plds"
    for path, cost_seed in ((a, "1"), (b, "3")):
        assert run_cli(["gen", "--family", "grid", "--p", "4", "--instances", "5",
                        "--cost-seed", cost_seed, "--map-seed", "2", "--out", str(path)]) == 0
    header, *rest = b.read_text().splitlines()
    header = json.loads(header)
    for key in ("neighborhood", "count_start", "length_weight"):
        del header["task"]["params"][key]
    short = tmp_path / "short.plds"
    short.write_text("\n".join([json.dumps(header)] + rest) + "\n")
    assert read_dataset(b).task == read_dataset(short).task == shortest_path_task(4)
    capsys.readouterr()
    assert run_cli(["dist", str(a), str(b)]) == 0
    full = capsys.readouterr().out
    assert run_cli(["dist", str(a), str(short)]) == 0
    assert capsys.readouterr().out == full


def test_negative_grid_cost_is_numerical_failure(tmp_path, capsys):
    g = tmp_path / "g.plds"
    assert run_cli(["gen", "--family", "grid", "--p", "3", "--instances", "3",
                    "--cost-seed", "1", "--map-seed", "2", "--out", str(g)]) == 0
    # a label below zero, where shortest paths are undefined
    header, first, *rest = g.read_text().splitlines()
    record = json.loads(first)
    record["y"][4] = -1.5
    bad = tmp_path / "negative.plds"
    bad.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
    capsys.readouterr()
    code = run_cli(["transfer", "--source", str(bad), "--target", str(bad),
                    "--budget", "20", "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: shortest-path cell cost -1.5 ")
    assert "Traceback" not in err


def test_grid_transfer_sweep_and_bound_finish(tmp_path):
    # predictions are clipped at 0, so training on grid data never leaves
    # the nonnegative costs where shortest paths are defined
    paths = []
    for seed in range(4):
        paths.append(str(tmp_path / f"g{seed}.plds"))
        assert run_cli(["gen", "--family", "grid", "--p", "5", "--instances", "6", "--cost-seed", str(seed),
                        "--map-seed", str(10 + seed), "--out", paths[-1]]) == 0
    target, *sources = paths
    for command in ("transfer", "sweep"):
        out = tmp_path / f"{command}.csv"
        args = [command, "--target", target, "--budget", "100", "--out", str(out)]
        if command == "sweep":
            args += ["--resolution", "2"]
        for s in sources:
            args += ["--source", s]
        assert run_cli(args) == 0, command
        assert len(read_rows(out)) == (3 if command == "transfer" else 6)
    out = tmp_path / "bound.csv"
    # given constants, and the probe's (20 000 trials of grid labels)
    for constants in (["--k1", "1", "--k2", "1"], []):
        assert run_cli(["bound", "--source", sources[0], "--target", target, "--budget", "100",
                        *constants, "--out", str(out)]) == 0, constants
        assert all(r["holds"] == "true" for r in read_rows(out))


def test_grid_sweep_on_sources_sharing_the_map_seed(tmp_path):
    # the sources have the target's features, so at the feature corner every
    # distance is 0 and that one vertex has no R-squared
    paths = []
    for cost_seed in range(1, 5):
        paths.append(str(tmp_path / f"m{cost_seed}.plds"))
        assert run_cli(["gen", "--family", "grid", "--p", "6", "--instances", "6", "--map-seed", "7",
                        "--cost-seed", str(cost_seed), "--out", paths[-1]]) == 0
    target, *sources = paths
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--target", target, "--budget", "100", "--resolution", "2", "--out", str(out)]
    for s in sources:
        args += ["--source", s]
    assert run_cli(args) == 0
    rows = read_rows(out)
    assert len(rows) == 6
    for r in rows:
        if r["alpha_x"] == "1":
            assert r["r2"] == "undefined"
        else:
            assert 0.0 <= float(r["r2"]) <= 1.0


def test_dist_sinkhorn_nonconvergence_is_numerical_failure(tmp_path, capsys):
    paths = []
    for cost_seed in (1, 2):
        paths.append(str(tmp_path / f"g{cost_seed}.plds"))
        assert run_cli(["gen", "--family", "grid", "--instances", "20", "--cost-seed", str(cost_seed),
                        "--map-seed", "5", "--out", paths[-1]]) == 0
    capsys.readouterr()
    # at the default epsilon this pair is still 2e-5 off its marginals after
    # the default 10 000 iterations
    code = run_cli(["dist", *paths, "--solver", "sinkhorn"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("numerical failure: Sinkhorn at epsilon 0.01 did not converge")
    assert "after 10000 iterations" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_dist_sinkhorn_converged_is_not_below_exact(tmp_path, capsys):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    b = gen_topk_file(tmp_path, "b.plds", 1.0, 2)
    assert run_cli(["dist", str(a), str(b)]) == 0
    exact = float(capsys.readouterr().out.splitlines()[-1])
    assert run_cli(["dist", str(a), str(b), "--solver", "sinkhorn", "--epsilon", "0.1"]) == 0
    assert float(capsys.readouterr().out.splitlines()[-1]) >= exact - 1e-9


def test_transfer_trains_target_once(tmp_path, monkeypatch):
    srcs = [gen_topk_file(tmp_path, f"s{i}.plds", g, 10 + i) for i, g in enumerate((0.0, 0.6, 1.2))]
    tgt = gen_topk_file(tmp_path, "t.plds", 0.65, 30)
    trained = []
    train = transfer.train_regret_min

    def counting_train(task, dataset, **kwargs):
        trained.append(dataset)
        return train(task, dataset, **kwargs)

    monkeypatch.setattr(transfer, "train_regret_min", counting_train)
    args = ["transfer", "--target", str(tgt), "--budget", "100", "--out", str(tmp_path / "t.csv")]
    for s in srcs:
        args += ["--source", str(s)]
    assert run_cli(args) == 0
    assert len(trained) == len(srcs) + 1
    assert len(read_rows(tmp_path / "t.csv")) == len(srcs)


def test_missing_file_exit_code(tmp_path):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    assert run_cli(["dist", str(a), str(tmp_path / "nope.plds")]) == 2


@pytest.mark.parametrize("command", ["dist", "transfer", "repro"])
def test_a_directory_for_a_file_is_a_data_error(tmp_path, capsys, command):
    a = str(gen_topk_file(tmp_path, "a.plds", 0.0, 1))
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {"dist": ["dist", str(folder), a],
            "transfer": ["transfer", "--source", a, "--target", a, "--budget", "10", "--out", str(folder)],
            "repro": ["repro", "--config", str(folder), "--out-dir", str(tmp_path / "out")]}[command]
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(folder) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
@pytest.mark.parametrize("command", ["transfer", "sweep", "bound", "dist"])
def test_an_output_that_cannot_be_written_fails_before_the_work(tmp_path, monkeypatch, capsys, command, where):
    # the work raises an ArithmeticError (exit 3) if it starts at all
    def no_work(*args, **kwargs):
        raise ArithmeticError("the work started")
    monkeypatch.setattr(transfer, "train_regret_min", no_work)
    monkeypatch.setattr(ground_cost, "transport", no_work)
    a = str(gen_topk_file(tmp_path, "a.plds", 0.0, 1))
    out = str(tmp_path if where == "a directory" else tmp_path / "missing" / "out.csv")
    argv = ["dist", a, a, "--breakdown", out] if command == "dist" else [
        command, "--source", a, "--target", a, "--budget", "10", "--out", out]
    capsys.readouterr()
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ") and out in captured.err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, capsys):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    binary = tmp_path / "binary.plds"
    binary.write_bytes(b'{"task": "\xd0\x00\xff"}\n')
    capsys.readouterr()
    assert run_cli(["dist", str(binary), str(a)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {binary}: not UTF-8 text: 'utf-8' codec ")
    # a repro config likewise, before any output is made
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"seed=3\nbudget\xff=5\n")
    assert run_cli(["repro", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {cfg}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff ")
    assert not (tmp_path / "out").exists()


def test_lp_failure_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # with no time to run, HiGHS stops the unequal-size pair's LP unsolved
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1, instances=8)
    b = gen_topk_file(tmp_path, "b.plds", 1.0, 2, instances=6)
    monkeypatch.setitem(ot_core._HIGHS_OPTIONS, "time_limit", 0.0)
    capsys.readouterr()
    assert run_cli(["dist", str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: exact OT linear program failed: Time limit reached\n"
    assert captured.out == ""


def test_other_errors_are_not_reported_as_numerical_failure(tmp_path, capsys, monkeypatch):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1)
    monkeypatch.setattr(ground_cost, "transport", _raise(RuntimeError("not numerical")))
    with pytest.raises(RuntimeError, match="not numerical"):
        run_cli(["dist", str(a), str(a)])
    assert "numerical failure" not in capsys.readouterr().err


def test_transfer_command(tmp_path):
    a = gen_topk_file(tmp_path, "a.plds", 0.0, 1, resources=25)
    b = gen_topk_file(tmp_path, "b.plds", 1.2, 2, resources=25)
    c = gen_topk_file(tmp_path, "c.plds", 0.65, 3, resources=25)
    out = tmp_path / "transfer.csv"
    assert run_cli(["transfer", "--source", str(a), "--source", str(b),
                    "--target", str(c), "--budget", "400", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    for r in rows:
        assert r["target_id"] == str(c)
        float(r["distance"])  # parses


def test_transfer_onto_a_target_of_zero_regret_writes_undefined(tmp_path):
    # a gamma-0 target's utilities rise with the feature, so the model trained on it has zero regret
    source = gen_topk_file(tmp_path, "s.plds", 1.2, 2, instances=10)
    target = gen_topk_file(tmp_path, "t.plds", 0.0, 1, instances=10)
    out = tmp_path / "transfer.csv"
    assert run_cli(["transfer", "--source", str(source), "--target", str(target),
                    "--budget", "200", "--out", str(out)]) == 0
    [row] = read_rows(out)
    assert (row["transferability"], row["regret_target_on_target"]) == ("undefined", "0")


def test_sweep_command(tmp_path):
    srcs = [gen_topk_file(tmp_path, f"s{i}.plds", g, 10 + i)
            for i, g in enumerate((0.0, 0.4, 0.8, 1.2))]
    tgt = gen_topk_file(tmp_path, "t.plds", 0.65, 30)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--target", str(tgt), "--resolution", "2",
            "--budget", "300", "--out", str(out)]
    for s in srcs:
        args += ["--source", str(s)]
    assert run_cli(args) == 0
    rows = read_rows(out)
    assert len(rows) == 6
    for r in rows:
        s = float(r["alpha_x"]) + float(r["alpha_y"]) + float(r["alpha_w"])
        assert abs(s - 1.0) < 1e-12


def test_bound_command_perfect_self_pair(tmp_path):
    a = gen_topk_file(tmp_path, "a.plds", 0.65, 5, instances=8, resources=25)
    out = tmp_path / "bound.csv"
    code = run_cli(["bound", "--source", str(a), "--target", str(a),
                    "--budget", "300", "--out", str(out)])
    rows = read_rows(out)
    assert len(rows) == 4  # default lambda grid 0.5,1,2,4
    assert code == 0
    assert all(r["holds"] == "true" for r in rows)


@pytest.mark.parametrize("given", [["--k1", "2.0"], ["--k2", "2.0"]])
def test_bound_one_lipschitz_constant_is_a_usage_error(tmp_path, capsys, monkeypatch, given):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(transfer, "train_regret_min", no_training)
    out = tmp_path / "bound.csv"
    # the dataset files do not exist: reading them first would be a data error (exit 2)
    code = run_cli(["bound", "--source", str(tmp_path / "missing-a.plds"),
                    "--target", str(tmp_path / "missing-b.plds"), "--out", str(out), *given])
    assert code == 1
    err = capsys.readouterr().err
    assert "--k1" in err and "--k2" in err
    assert not out.exists()


def test_bound_that_fails_writes_false_and_exits_3(tmp_path, capsys, monkeypatch):
    reports = transfer._bound_reports

    def failing_reports(*args):
        first, *rest = reports(*args)
        return [dataclasses.replace(first, lhs=first.rhs + 1.0), *rest]

    monkeypatch.setattr(transfer, "_bound_reports", failing_reports)
    a = gen_topk_file(tmp_path, "a.plds", 0.65, 5, instances=6, resources=6)
    out = tmp_path / "bound.csv"
    capsys.readouterr()
    assert run_cli(["bound", "--source", str(a), "--target", str(a), "--lambdas", "1,2",
                    "--k1", "2", "--k2", "1.5", "--budget", "50", "--out", str(out)]) == 3
    assert [r["holds"] for r in read_rows(out)] == ["false", "true"]
    assert capsys.readouterr().out == f"wrote 2 bound rows to {out}; all_hold=False\n"


def test_bound_lambda_grid_option(tmp_path):
    a = gen_topk_file(tmp_path, "a.plds", 0.65, 5, instances=6, resources=6)
    out = tmp_path / "bound.csv"
    code = run_cli(["bound", "--source", str(a), "--target", str(a), "--lambdas", "0.25,3",
                    "--k1", "2", "--k2", "1.5", "--budget", "50", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert [(r["lambda"], r["k1"], r["k2"]) for r in rows] == [("0.25", "2", "1.5"), ("3", "2", "1.5")]


@pytest.mark.parametrize("given, option", [
    (["--lambdas", "nan"], "--lambdas"),
    (["--lambdas", "inf"], "--lambdas"),
    (["--lambdas", "0"], "--lambdas"),
    (["--lambdas", "abc"], "--lambdas"),
    (["--lambdas", "1,,2"], "--lambdas"),
    (["--lambdas="], "--lambdas"),
    (["--k1", "nan", "--k2", "1"], "--k1"),
    (["--k1", "1", "--k2", "inf"], "--k2"),
    (["--k1", "-1", "--k2", "1"], "--k1"),
])
def test_bound_bad_lambda_or_constant_is_a_usage_error(tmp_path, capsys, monkeypatch, given, option):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(transfer, "train_regret_min", no_training)
    out = tmp_path / "bound.csv"
    # the dataset files do not exist: reading them first would be a data error (exit 2)
    code = run_cli(["bound", "--source", str(tmp_path / "missing-a.plds"),
                    "--target", str(tmp_path / "missing-b.plds"), "--out", str(out), *given])
    assert code == 1
    assert f"argument {option}:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rerun_is_bit_identical(tmp_path):
    hashes = []
    for run in range(2):
        out = tmp_path / f"run{run}.plds"
        assert run_cli(["gen", "--family", "topk", "--gamma", "0.65",
                        "--instances", "6", "--seed", "9", "--out", str(out)]) == 0
        hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


SMALL_REPRO = "seed=3\nbudget=200\nresolution=2\ninstances=8\n"  # criterion 9's config
REPRO_TABLES = ("motivating_regrets.csv", "motivating_distances.csv",
                "weight_sweep.csv", "sweep_transferability.csv", "target_shift_grid.csv")


def test_repro_command_small_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_REPRO)
    out_dir = tmp_path / "out"
    assert run_cli(["repro", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    for name in REPRO_TABLES:
        assert (out_dir / name).exists(), name
    assert len(read_rows(out_dir / "weight_sweep.csv")) == 6


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("patched, exc, exit_code", [
    (None, None, 0),
    ("weight_sweep", ValueError("sweep failed"), 2),
    ("feature_label_pooled_distances", ArithmeticError("pooled failed"), 3),
])
def test_repro_joins_its_threads_on_every_path(tmp_path, monkeypatch, patched, exc, exit_code):
    if patched:
        monkeypatch.setattr(transfer, patched, _raise(exc))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_REPRO)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    earlier = {name: f"{name} of an earlier run\n".encode() for name in REPRO_TABLES}
    for name, data in earlier.items():
        (out_dir / name).write_bytes(data)
    before = threading.active_count()
    assert run_cli(["repro", "--config", str(cfg), "--out-dir", str(out_dir)]) == exit_code
    assert threading.active_count() == before
    # the tables are written after all the work: a failed run leaves the earlier ones as they were
    now = {name: (out_dir / name).read_bytes() for name in REPRO_TABLES}
    if patched:
        assert now == earlier
    else:
        assert all(now[name] != earlier[name] for name in REPRO_TABLES)


@pytest.mark.parametrize("lines, lineno, message", [
    (["seed=abc"], 1, "seed must be an integer, got 'abc'"),
    (["# small", "budget=200", "", "instances=2.5"], 4, "instances must be an integer, got '2.5'"),
    (["seed=3", "sed=5"], 2, "unknown key 'sed'; known keys are seed, budget, resolution, instances"),
    (["resolution=2", "resolution"], 2, "expected key=value"),
    (["seed=-1"], 1, "seed must be at least 0, got '-1'"),
    (["seed=3", "budget=0"], 2, "budget must be at least 1, got '0'"),
    (["resolution=0"], 1, "resolution must be at least 1, got '0'"),
    (["# none", "instances=0"], 2, "instances must be at least 1, got '0'"),
])
def test_repro_config_errors_name_the_line(tmp_path, capsys, lines, lineno, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("\n".join(lines) + "\n")
    assert run_cli(["repro", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {cfg}: line {lineno}: {message}\n"
    assert not (tmp_path / "out").exists()


# --- malformed dataset files --------------------------------------------------

NAN, INF = float("nan"), float("inf")
NON_OBJECTS = [5, 1.5, "s", None, True, [1.0]]
NOT_INT = ["3", 1.5, True, None, [1], {"a": 1}, NAN]
NOT_NUMBER = ["0.5", True, None, [0.5], {"a": 1.0}, NAN, INF, 10**400]
NOT_NUMBERS = ["s", 5, None, {"a": 1.0}, [], ["s"], [None], [True], [NAN], [-INF], [[1.0]]]
BAD_ELEMENTS = ["s", None, True, [1.0], {"a": 1.0}, NAN, INF, -INF, -(10**400)]
# values that each task param must not take
PARAM_POOLS = {
    "n_resources": NOT_INT, "k": NOT_INT, "p": NOT_INT, "neighborhood": NOT_INT,
    "count_start": [1, "true", None, [True], NAN], "length_weight": NOT_NUMBER,
    "demand_values": NOT_NUMBERS, "inventory_params": NON_OBJECTS,
}
FUZZ_GEN = {
    "topk": ["--family", "topk", "--gamma", "0.5", "--resources", "3"],
    "grid": ["--family", "grid", "--p", "2"],
    "inventory": ["--family", "inventory"],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for family, argv in FUZZ_GEN.items():
        path = root / f"{family}.plds"
        assert run_cli(["gen", *argv, "--instances", "3", "--out", str(path)]) == 0
        files[family] = (path, path.read_text().splitlines())
    return root, files


def _mutations(obj, lineno, kind):
    """(action, path into the line's JSON, values) triples that make the line invalid."""
    if lineno > 0:
        fields = [("x",), ("y",), ("z",)]
        return ([("line", (), NON_OBJECTS)] + [("delete", f, None) for f in fields]
                + [(action, f, pool) for f in fields
                   for action, pool in (("set", NOT_NUMBERS), ("element", BAD_ELEMENTS),
                                        ("ragged", None))])
    params = obj["task"]["params"]
    out = [("line", (), NON_OBJECTS), ("delete", ("task",), None), ("delete", ("provenance",), None),
           ("delete", ("task", "kind"), None), ("delete", ("task", "params"), None),
           ("set", ("task",), NON_OBJECTS), ("set", ("provenance",), NON_OBJECTS + [{}]),
           ("set", ("task", "kind"), [5, None, True, [1.0], {"a": 1}]),
           ("set", ("task", "params"), NON_OBJECTS)]
    required = {"topk": ("n_resources", "k"), "shortest_path": ("p",), "inventory": tuple(params)}
    out += [("delete", ("task", "params", key), None) for key in required[kind]]
    out += [("set", ("task", "params", key), PARAM_POOLS[key]) for key in params]
    if kind == "inventory":
        out.append(("element", ("task", "params", "demand_values"), BAD_ELEMENTS))
        out += [("set", ("task", "params", "inventory_params", key), NOT_NUMBER)
                for key in params["inventory_params"]]
    return out


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_malformed_dataset_file_is_a_line_numbered_data_error(fuzz_files, data):
    root, files = fuzz_files
    kind = data.draw(st.sampled_from(sorted(files)))
    path, lines = files[kind]
    lineno = data.draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[lineno])
    action, where, pool = data.draw(st.sampled_from(
        _mutations(obj, lineno, "shortest_path" if kind == "grid" else kind)))
    value = data.draw(st.sampled_from(pool)) if pool else None
    if action == "line":
        obj = value
    else:
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        last = where[-1]
        if action == "delete":
            del parent[last]
        elif action == "set":
            parent[last] = value
        elif action == "element":
            parent[last][data.draw(st.integers(0, len(parent[last]) - 1))] = value
        elif data.draw(st.booleans()):  # ragged: one value too many or too few
            parent[last].append(0.5)
        else:
            parent[last].pop()
    bad = root / "bad.plds"
    bad.write_text("\n".join(lines[:lineno] + [json.dumps(obj)] + lines[lineno + 1:]) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["dist", str(path), str(bad)])
    assert code == 2, (action, where, value, err.getvalue())
    assert f"{bad}: line " in err.getvalue()
    assert "Traceback" not in err.getvalue()


def _with_features(tmp_path, values_text):
    """A 3-resource top-K file, and a copy with line 3's features replaced by ``values_text``, raw JSON."""
    path = gen_topk_file(tmp_path, "good.plds", 0.5, 3, instances=3, resources=3)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    lines[2] = '{"x": %s, "y": %s, "z": %s}' % (values_text, json.dumps(rec["y"]), json.dumps(rec["z"]))
    bad = tmp_path / "bad.plds"
    bad.write_text("\n".join(lines) + "\n")
    return path, bad


@pytest.mark.parametrize("values, reason", [
    *[(f"[0.5, {v}, 0.1]", "field 'x' must be a nonempty list of numbers")
      for v in ("true", '"0.5"', "null", "[0.5]", '{"a": 0.5}')],
    ("[]", "field 'x' must be a nonempty list of numbers"),
    *[(f"[0.5, {v}, 0.1]", "sample has a non-finite value")
      for v in ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400, "-1" + "0" * 400)],
], ids=["bool", "string", "null", "nested", "object", "empty", "nan", "inf", "-inf", "1e999", "10**400",
        "-10**400"])
def test_each_bad_sample_value_is_a_line_numbered_data_error(tmp_path, capsys, values, reason):
    good, bad = _with_features(tmp_path, values)
    assert run_cli(["dist", str(good), str(bad)]) == 2
    assert capsys.readouterr().err == f"data error: {bad}: line 3: {reason}\n"


def test_integer_sample_values_read_as_the_nearest_float(tmp_path):
    for ints in ([3, -7, 2**53 + 1], [10**300, -(2**70 + 1), 12345678901234567890123456789]):
        _, path = _with_features(tmp_path, json.dumps(ints))
        assert read_dataset(path).X[1].tolist() == np.array(ints, dtype=float).tolist()
    # the token -0 reads as the float it spells, -0.0
    _, path = _with_features(tmp_path, "[-0, 0, 0.5]")
    assert np.signbit(read_dataset(path).X[1]).tolist() == [True, False, False]
