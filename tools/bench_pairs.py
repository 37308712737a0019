"""Paired benchmark runs of two source trees: a parent and a change.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --workload training --pairs 10 --first-seed 21 --out BENCH_21.json \
        --describe "what the change does" --claim "what it should move"

Each pair runs ``bench/run.py`` once in each tree, at one seed per pair
(``--first-seed`` + pair index), one process at a time; the parent runs first
in odd pairs and the change first in even ones. A run that exits non-zero
ends the pairs, and so does one whose last line of output is not a result or
whose result does not read ``"correct": true``, or whose result file gives
no round count: its side, tree, pair, seed, what was wrong (the exit code,
say) and the last 10 lines of its stderr are reported, no record is written,
and the exit code is 2. A run's round count is the length of ``round_s`` in
the ``bench/out/result-<workload>-seed<seed>-trace0.json`` that
``bench/run.py`` writes; a faster round means more rounds, so memory that
grows per round reads against it. After each pair, every end-to-end metric
and the round count of both runs are printed to stderr. Each tree runs its
own ``bench/`` on its own ``src/``, so both sides must hold the same bench
code: two trees whose ``bench/`` files differ (by sha256; ``bench/out/`` and
``__pycache__`` are left out) are refused before any run, and so is a tree
where ``git rev-parse HEAD`` fails (the record names the parent's commit).
The record gives each tree's line count of ``src/ptodist/*.py`` (``src_lines``),
so a change's size stands beside its metrics.
The workload's section of ``--out`` is replaced (other workloads are kept):
every run's end-to-end metrics and round count, and per metric each side's
median and quartiles (inclusive method), the change-to-parent ratio of the
medians, the number of pairs in which the change reads lower (ties count for
neither) and whether the gain rule holds: the change lower in at least nine
tenths of the pairs, and the medians further apart than the parent's
quartiles.

Each metric also gets a verdict under its ``bound`` in ``BENCHMARK.json``
(every metric there is better lower): ``worse`` when the change's median is
above the parent's by more than the bound (a fraction of the parent's
median); else ``unresolved`` when the parent's quartiles are further apart
than the bound, again as a fraction of its median, and not every change run
is below every parent run; else ``better`` when the gain rule holds, and
``unchanged`` otherwise. ``failed_share_grew`` tells whether the change
failed a larger share of its operations than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

# the end-to-end metrics and their bounds, as the benchmark declares them
BOUNDS = {m["name"]: m["bound"] for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
METRICS = tuple(BOUNDS)


def differing_bench_files(parent, change):
    """The files under ``bench/`` that the two trees do not hold alike, by
    sha256, sorted; ``bench/out/`` and ``__pycache__`` are left out."""
    def digests(tree):
        bench = Path(tree) / "bench"
        rels = (p.relative_to(bench) for p in bench.rglob("*") if p.is_file())
        return {rel.as_posix(): hashlib.sha256((bench / rel).read_bytes()).hexdigest()
                for rel in rels if rel.parts[0] != "out" and "__pycache__" not in rel.parts}
    a, b = digests(parent), digests(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def src_lines(tree):
    """The number of lines in the tree's ``src/ptodist/*.py`` files, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (Path(tree) / "src" / "ptodist").glob("*.py"))


class BadRun(Exception):
    """A run that gives no metrics to compare: what was wrong with it, and its stderr."""

    def __init__(self, what, stderr):
        super().__init__(what)
        self.stderr = stderr


def run_bench(tree, workload, seed, seconds):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise BadRun(f"exit {proc.returncode}", proc.stderr)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        run = dict({m: result["metrics"][m]["value"] for m in METRICS},
                   failed=result["failed"], attempted=result["attempted"], correct=result["correct"])
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise BadRun(f"its last line of output is not a result ({type(exc).__name__}: {exc})",
                     proc.stderr) from None
    if run["correct"] is not True:
        raise BadRun(f"it reads \"correct\": {json.dumps(run['correct'])}", proc.stderr)
    path = Path(tree) / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    try:
        run["rounds"] = len(json.loads(path.read_text(encoding="utf-8"))["round_s"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise BadRun(f"its result file {path} gives no round count ({type(exc).__name__}: {exc})",
                     proc.stderr) from None
    return run


def summarize(runs):
    summary = {}
    for m in METRICS:
        parent = [r["parent"][m] for r in runs.values()]
        change = [r["change"][m] for r in runs.values()]
        p1, p_med, p3 = statistics.quantiles(parent, n=4, method="inclusive")
        c1, c_med, c3 = statistics.quantiles(change, n=4, method="inclusive")
        wins = sum(c < p for p, c in zip(parent, change))
        gain = wins >= 0.9 * len(runs) and p_med - c_med > p3 - p1
        bound = BOUNDS[m]
        if c_med > p_med * (1 + bound):
            verdict = "worse"
        elif p3 - p1 > bound * p_med and max(change) >= min(parent):
            verdict = "unresolved"
        else:
            verdict = "better" if gain else "unchanged"
        summary[m] = {
            "parent_median": round(p_med, 4), "parent_iqr": [round(p1, 4), round(p3, 4)],
            "change_median": round(c_med, 4), "change_iqr": [round(c1, 4), round(c3, 4)],
            "ratio": round(c_med / p_med, 3), "change_better_in": wins,
            "gain_rule_met": gain, "bound": bound, "verdict": verdict,
        }
    shares = {}
    for side in ("parent", "change"):
        failed = sum(r[side]["failed"] for r in runs.values())
        attempted = sum(r[side]["attempted"] for r in runs.values())
        summary.setdefault("failed_ops", {})[side] = f"{failed} of {attempted}"
        shares[side] = failed / attempted if attempted else 0.0
    summary["failed_share_grew"] = shares["change"] > shares["parent"]
    summary["all_correct"] = all(r[s]["correct"] for r in runs.values() for s in ("parent", "change"))
    summary["runs"] = runs
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="source tree of the parent commit (a git clone)")
    p.add_argument("--change", required=True, help="source tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--describe", required=True, help="what the change does")
    p.add_argument("--claim", required=True, help="which metrics should move, and which should not")
    args = p.parse_args(argv)
    if args.pairs < 2:  # the quartiles need two runs a side
        p.error(f"argument --pairs: must be at least 2, got {args.pairs}")

    differing = differing_bench_files(args.parent, args.change)
    if differing:
        print(f"bench_pairs: the trees' bench/ files differ: {', '.join(differing)}", file=sys.stderr)
        return 2
    trees = {"parent": args.parent, "change": args.change}
    commits = {}
    for side, tree in trees.items():
        try:
            commits[side] = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], check=True,
                                           capture_output=True, text=True).stdout.strip()
        except subprocess.CalledProcessError as exc:
            print(f"bench_pairs: the {side} tree {tree} is not a git checkout: {exc.stderr.strip()}",
                  file=sys.stderr)
            return 2
    runs = {}
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        runs[str(pair)] = {"seed": seed}
        for side in order:
            try:
                runs[str(pair)][side] = run_bench(trees[side], args.workload, seed, args.seconds)
            except BadRun as exc:
                tail = "\n".join(exc.stderr.splitlines()[-10:])
                print(f"bench_pairs: the {side} run in {trees[side]} failed (pair {pair}, seed {seed}): "
                      f"{exc}; the last lines of its stderr:\n{tail}", file=sys.stderr)
                return 2
        print(f"{args.workload} pair {pair}: " + "; ".join(  # each side in the order it ran
            side + " " + ", ".join(f"{m} {runs[str(pair)][side][m]:.4g}" for m in METRICS)
            + f", rounds {runs[str(pair)][side]['rounds']}" for side in order),
            file=sys.stderr)

    out = Path(args.out)
    record = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    record.update({
        "change": args.describe,
        "claim": args.claim,
        "parent_commit": commits["parent"],
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "command": "python3 bench/run.py --workload W --seed S --seconds %d --trace 0" % args.seconds,
        "protocol": ("alternating pairs, the parent first in odd pairs, one seed per pair, one process "
                     "at a time; medians and quartiles (inclusive method) per side; change_better_in "
                     "counts pairs where the change's value is lower"),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    record.setdefault("workloads", {})[args.workload] = summarize(runs)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
