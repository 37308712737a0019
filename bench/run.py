"""Benchmark of ptodist: runs one workload and prints its result.

    python3 bench/run.py --workload distance --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``ptodist`` is imported from its
``src`` directory. Each workload process is fresh and single-threaded. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A fuller record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3        # set-up is measured this many times per run; the median is reported
DEADLINE_S = 170.0       # the whole run, every process included
WORKLOADS = ("distance", "training", "bound")


def fail(message) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_worker(args, setup_only, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(OUT)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--launched", repr(time.monotonic())]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{tail}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} not found")
    if not (ROOT / "src" / "ptodist" / "__init__.py").is_file():
        return fail(f"no ptodist sources under {ROOT / 'src'}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    try:
        setups = [run_worker(args, True, deadline)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
        main_run = run_worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(f"workload {args.workload} did not complete: {exc}")
    setups.append(main_run["setup_s"])

    ops = [op for rnd in main_run["rounds"] for op in rnd]
    round_s = [sum(seconds for _, seconds, _ in rnd) for rnd in main_run["rounds"]]
    if args.trace:
        values = main_run["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(round_s),
            "op_p50_ms": 1000.0 * statistics.median(seconds for _, seconds, _ in ops),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        return fail(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    errors = main_run["errors"]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(1 for _, _, failed in ops if failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  setup_s_all=setups, round_s=round_s, rounds=main_run["rounds"], errors=errors,
                  imports=main_run["imports"], versions=main_run["versions"],
                  machine={"platform": platform.platform(), "nproc": os.cpu_count()})
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
