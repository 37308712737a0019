"""Tests for the verdicts of tools/bench_pairs.py, on synthetic runs."""

import argparse
import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

TIGHT = [1.0 + 0.01 * i for i in range(10)]  # quartiles 4.3 % of the median apart
WIDE = [2.0 + 0.2 * i for i in range(10)]    # quartiles 31 % of the median apart


def make_runs(parent, change, failed=(0, 0)):
    """Pairs that read ``parent[i]`` and ``change[i]`` on every metric."""
    def side(value, n_failed):
        return dict({m: value for m in bench_pairs.METRICS}, failed=n_failed, attempted=10, correct=True)
    return {str(i + 1): {"seed": i, "parent": side(p, failed[0]), "change": side(c, failed[1])}
            for i, (p, c) in enumerate(zip(parent, change))}


def test_bounds_are_the_benchmarks():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert bench_pairs.BOUNDS == {m["name"]: m["bound"] for m in declared}
    summary = bench_pairs.summarize(make_runs(TIGHT, TIGHT))
    assert all(summary[m]["bound"] == bench_pairs.BOUNDS[m] for m in bench_pairs.METRICS)


@pytest.mark.parametrize("parent, change, verdict", [
    (TIGHT, [v - 0.2 for v in TIGHT], "better"),
    (WIDE, [0.5 + 0.01 * i for i in range(10)], "better"),  # wide, but every change run is lower
    (TIGHT, TIGHT, "unchanged"),
    (TIGHT, [v + 0.01 for v in TIGHT], "unchanged"),  # higher, within every bound
    (TIGHT, [1.3 * v for v in TIGHT], "worse"),
    (WIDE, [1.3 * v for v in WIDE], "worse"),  # worse is told even where the parent is wide
    (WIDE, WIDE, "unresolved"),
    (WIDE, [v - 0.1 for v in WIDE], "unresolved"),  # lower in every pair, not below every parent run
])
def test_verdict_of_each_outcome(parent, change, verdict):
    summary = bench_pairs.summarize(make_runs(parent, change))
    assert {summary[m]["verdict"] for m in bench_pairs.METRICS} == {verdict}


def test_verdict_follows_each_metrics_bound():
    # +10 %: inside the 25 % time bounds, outside the 5 % memory bound
    summary = bench_pairs.summarize(make_runs(TIGHT, [1.1 * v for v in TIGHT]))
    assert {m: summary[m]["verdict"] for m in bench_pairs.METRICS} == {
        m: "worse" if bench_pairs.BOUNDS[m] < 0.1 else "unchanged" for m in bench_pairs.METRICS}


@pytest.mark.parametrize("failed, grew", [((0, 0), False), ((0, 1), True), ((1, 1), False), ((2, 1), False)])
def test_failed_share(failed, grew):
    summary = bench_pairs.summarize(make_runs(TIGHT, TIGHT, failed))
    assert summary["failed_share_grew"] is grew
    assert summary["failed_ops"] == {"parent": f"{10 * failed[0]} of 100", "change": f"{10 * failed[1]} of 100"}


def make_tree(root, files):
    for name, text in files.items():
        path = root / "bench" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


BENCH_FILES = {"run.py": "run\n", "worker.py": "worker\n", "out/last.json": "{}\n"}


def fake_git(monkeypatch):
    """Answer ``git rev-parse`` for the stub trees, which are no git clones; run every other command."""
    run = bench_pairs.subprocess.run
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kwargs: argparse.Namespace(stdout="abc\n")
                        if argv[0] == "git" else run(argv, **kwargs))


@pytest.mark.parametrize("edit, differing", [
    ({}, []),
    ({"worker.py": "worker, edited\n"}, ["worker.py"]),
    ({"extra.py": "new\n"}, ["extra.py"]),
    ({"out/last.json": "[]\n", "out/more.json": "{}\n"}, []),  # run outputs are not bench code
])
def test_trees_must_hold_the_same_bench_files(tmp_path, monkeypatch, edit, differing):
    parent = make_tree(tmp_path / "parent", BENCH_FILES)
    change = make_tree(tmp_path / "change", {**BENCH_FILES, **edit})
    assert bench_pairs.differing_bench_files(parent, change) == differing
    assert bench_pairs.differing_bench_files(change, parent) == differing
    if differing:
        def no_run(*args):
            raise AssertionError("a run started")
        monkeypatch.setattr(bench_pairs, "run_bench", no_run)
        out = tmp_path / "BENCH.json"
        argv = ["--parent", str(parent), "--change", str(change), "--workload", "bound", "--pairs", "2",
                "--first-seed", "1", "--out", str(out), "--describe", "d", "--claim", "c"]
        assert bench_pairs.main(argv) == 2
        assert not out.exists()


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_a_usage_error(tmp_path, monkeypatch, capsys, pairs):
    def no_run(*args):
        raise AssertionError("a run started")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "bound", "--pairs", pairs,
            "--first-seed", "1", "--out", str(out), "--describe", "d", "--claim", "c"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert f"--pairs: must be at least 2, got {int(pairs)}" in capsys.readouterr().err
    assert not out.exists()


def test_the_record_gives_the_source_lines_of_each_tree(tmp_path, monkeypatch):
    trees = {}
    for side, lines in (("parent", 3), ("change", 5)):
        trees[side] = make_tree(tmp_path / side, BENCH_FILES)
        src = trees[side] / "src" / "ptodist"
        src.mkdir(parents=True)
        (src / "a.py").write_text("x = 1\n" * (lines - 1), encoding="utf-8")
        (src / "b.py").write_text("y = 2\n", encoding="utf-8")
        (src / "notes.txt").write_text("not source\n" * 7, encoding="utf-8")  # only *.py files count
        (src / "sub").mkdir()
        (src / "sub" / "c.py").write_text("z = 3\n" * 7, encoding="utf-8")  # nor files below src/ptodist
    run = dict({m: 1.0 for m in bench_pairs.METRICS}, failed=0, attempted=10, correct=True, rounds=4)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: dict(run))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: argparse.Namespace(stdout="abc\n"))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]), "--workload", "bound",
            "--pairs", "2", "--first-seed", "7", "--out", str(out), "--describe", "d", "--claim", "c"]
    assert bench_pairs.main(argv) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 5}


def test_a_failed_run_is_reported_and_writes_no_record(tmp_path, monkeypatch, capsys):
    fake_git(monkeypatch)
    failing = {"run.py": "import sys\nfor i in range(12):\n    print(f'err-{i:02d}', file=sys.stderr)\nsys.exit(1)\n"}
    parent = make_tree(tmp_path / "parent", failing)
    change = make_tree(tmp_path / "change", failing)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "bound", "--pairs", "2",
            "--first-seed", "7", "--out", str(out), "--describe", "d", "--claim", "c", "--seconds", "1"]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert f"the parent run in {parent} failed (pair 1, seed 7): exit 1" in err
    assert [line for line in err.splitlines() if line.startswith("err-")] == [f"err-{i:02d}" for i in range(2, 12)]
    assert not out.exists()


RESULT = json.dumps({"correct": True, "attempted": 10, "failed": 0,
                     "metrics": {m: {"value": 1.0} for m in bench_pairs.METRICS}})


def run_script(rounds):
    """A stub ``bench/run.py`` that writes a result file of ``rounds`` rounds
    (none for ``None``) and prints a good result."""
    write = "" if rounds is None else (
        "import sys\nfrom pathlib import Path\nout = Path('bench/out')\nout.mkdir(exist_ok=True)\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "(out / f\"result-{args['--workload']}-seed{args['--seed']}-trace0.json\").write_text("
        f"{json.dumps({'round_s': [0.1] * rounds})!r})\n")
    return write + f"print('progress')\nprint({RESULT!r})\n"


@pytest.mark.parametrize("last_line, what", [
    ("no result", "its last line of output is not a result (JSONDecodeError: "),
    (RESULT[:-1], "its last line of output is not a result (JSONDecodeError: "),
    (json.dumps({"correct": True}), "its last line of output is not a result (KeyError: 'metrics')"),
    (RESULT.replace('"correct": true', '"correct": false'), 'it reads "correct": false'),
], ids=["text", "cut", "no-metrics", "incorrect"])
def test_a_malformed_or_incorrect_run_is_reported_and_writes_no_record(tmp_path, monkeypatch, capsys,
                                                                       last_line, what):
    # the change's run is bad; the parent's, which runs first, is good
    parent = make_tree(tmp_path / "parent", {"run.py": run_script(3)})
    change = make_tree(tmp_path / "change", {
        "run.py": f"import sys\nprint('err-tail', file=sys.stderr)\nprint({last_line!r})\n"})
    monkeypatch.setattr(bench_pairs, "differing_bench_files", lambda *trees: [])  # the stubs differ
    fake_git(monkeypatch)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "bound", "--pairs", "2",
            "--first-seed", "7", "--out", str(out), "--describe", "d", "--claim", "c", "--seconds", "1"]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert f"the change run in {change} failed (pair 1, seed 7): {what}" in err
    assert err.endswith("; the last lines of its stderr:\nerr-tail\n")
    assert not out.exists()


def test_each_pair_prints_every_end_to_end_metric_of_both_runs(tmp_path, monkeypatch, capsys):
    values = {"parent": 2.0, "change": 1.0}
    def fake_run(tree, workload, seed, seconds):
        side = Path(tree).name
        return dict({m: values[side] + i / 8 for i, m in enumerate(bench_pairs.METRICS)},
                    failed=0, attempted=10, correct=True, rounds=int(10 * values[side]))
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: argparse.Namespace(stdout="abc\n"))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "bound",
            "--pairs", "2", "--first-seed", "7", "--out", str(out), "--describe", "d", "--claim", "c"]
    assert bench_pairs.main(argv) == 0
    def side(name):
        return (name + " " + ", ".join(f"{m} {values[name] + i / 8:.4g}" for i, m in enumerate(bench_pairs.METRICS))
                + f", rounds {int(10 * values[name])}")
    assert capsys.readouterr().err.splitlines() == [
        f"bound pair 1: {side('parent')}; {side('change')}",  # the parent runs first in odd pairs
        f"bound pair 2: {side('change')}; {side('parent')}",
    ]
    assert json.loads(out.read_text())["workloads"]["bound"]["runs"]["1"]["change"] == fake_run("change", "bound", 7, 20)


def test_each_run_records_its_round_count(tmp_path, monkeypatch, capsys):
    # the runs' result files give 4 and 6 rounds; the record keeps each with its run
    parent = make_tree(tmp_path / "parent", {"run.py": run_script(4)})
    change = make_tree(tmp_path / "change", {"run.py": run_script(6)})
    monkeypatch.setattr(bench_pairs, "differing_bench_files", lambda *trees: [])  # the stubs differ
    fake_git(monkeypatch)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "bound", "--pairs", "2",
            "--first-seed", "7", "--out", str(out), "--describe", "d", "--claim", "c", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [re.findall(r"(parent|change) [^;]*, rounds (\d+)", line) for line in lines] == [
        [("parent", "4"), ("change", "6")], [("change", "6"), ("parent", "4")]]  # the parent first in odd pairs
    runs = json.loads(out.read_text())["workloads"]["bound"]["runs"]
    assert [(r["seed"], r["parent"]["rounds"], r["change"]["rounds"]) for r in runs.values()] == [(7, 4, 6), (8, 4, 6)]


def test_a_run_without_a_result_file_is_reported_and_writes_no_record(tmp_path, monkeypatch, capsys):
    parent = make_tree(tmp_path / "parent", {"run.py": run_script(None)})
    change = make_tree(tmp_path / "change", {"run.py": run_script(4)})
    monkeypatch.setattr(bench_pairs, "differing_bench_files", lambda *trees: [])  # the stubs differ
    fake_git(monkeypatch)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "bound", "--pairs", "2",
            "--first-seed", "7", "--out", str(out), "--describe", "d", "--claim", "c", "--seconds", "1"]
    assert bench_pairs.main(argv) == 2
    path = parent / "bench" / "out" / "result-bound-seed7-trace0.json"
    assert (f"the parent run in {parent} failed (pair 1, seed 7): its result file {path} gives no round count "
            "(FileNotFoundError: ") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_tree_that_is_not_a_git_checkout_is_refused_before_any_run(tmp_path, monkeypatch, capsys, side):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no repository above the trees counts
    trees = {name: make_tree(tmp_path / name, BENCH_FILES) for name in ("parent", "change")}
    other = trees["change" if side == "parent" else "parent"]
    for git_argv in (["init", "-q"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                                      "--allow-empty", "-m", "stub"]):
        subprocess.run(["git", "-C", str(other), *git_argv], check=True, capture_output=True)

    def no_run(*args):
        raise AssertionError("a run started")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]), "--workload", "bound",
            "--pairs", "2", "--first-seed", "1", "--out", str(out), "--describe", "d", "--claim", "c"]
    assert bench_pairs.main(argv) == 2
    assert f"the {side} tree {trees[side]} is not a git checkout" in capsys.readouterr().err
    assert not out.exists()
