"""One benchmark process: set-up, then timed rounds of one workload.

``run.py`` starts this script in a fresh, single-threaded interpreter and
passes the monotonic clock reading taken just before the launch, so the
set-up time counts interpreter start, ``import ptodist``, input generation
and the dataset file round trip. The last line of standard output is one
JSON object with the measurements.

Untraced (``--trace 0``): whole rounds of the workload's operations run
until ``--seconds`` have passed, at least one round. Traced (``--trace 1``):
the set-up runs traced, then one untraced round and one traced round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import shutil
import sys
import tempfile
import time
import traceback


def _timed_import(name):
    t0 = time.perf_counter()
    __import__(name)
    return time.perf_counter() - t0


def run_round(workload):
    """Runs every operation once; returns [(name, seconds, failed, output)]."""
    done = []
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception:  # an operation that raises counts as failed; the round goes on
            seconds = time.perf_counter() - t0
            print(f"operation {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            done.append((op.name, seconds, True, None))
            continue
        seconds = time.perf_counter() - t0
        out = op.collect(raw)
        done.append((op.name, seconds, bool(op.failed(out)), out))
    return done


def _digest(out):
    return hashlib.sha256(pickle.dumps(out)).hexdigest()


def check_rounds(workload, rounds):
    """Round one against the references; every later round must repeat it bit for bit."""
    first = {name: out for name, _, failed, out in rounds[0] if not failed}
    errors = workload.check(first)
    expected = {name: _digest(out) for name, out in first.items()}
    for k, rnd in enumerate(rounds[1:], start=2):
        for name, _, failed, out in rnd:
            if not failed and name in expected and _digest(out) != expected[name]:
                errors.append(f"{name}: round {k} output differs from round 1")
    return errors


def per_layer(tracer, imports, overhead_s):
    t = tracer
    metrics = {
        "import.ptodist_s": imports["ptodist"],
        "import.scipy_optimize_s": imports["scipy.optimize"],
        "datagen.generate.calls": t.calls("datagen.generate"),
        "datagen.generate.self_s": t.self_s("datagen.generate"),
        "datagen.file_io.self_s": t.self_s("datagen.file_io"),
        "tasks.oracle.calls": sum(t.calls(f"tasks.oracle.{k}") for k in ("topk", "shortest_path", "inventory")),
        "tasks.oracle.topk.self_s": t.self_s("tasks.oracle.topk"),
        "tasks.oracle.inventory.self_s": t.self_s("tasks.oracle.inventory"),
        "tasks.oracle.shortest_path.self_s": t.self_s("tasks.oracle.shortest_path"),
        "tasks.oracle.repeat_share": t.oracle_repeat_share(),
        "transfer.train_regret_min.repeat_share": t.training_repeat_share(),
        "ot_core.sinkhorn.iterations": t.counters.get("ot_core.sinkhorn.iterations", 0),
        "ot_core.sinkhorn.unconverged": t.counters.get("ot_core.sinkhorn.unconverged", 0),
        "trace.overhead_s": overhead_s,
    }
    for name in ("tasks.objective", "tasks.validate_decision", "ground_cost.component_matrices",
                 "ot_core.assignment", "ot_core.lp", "ot_core.sinkhorn", "transfer.train_regret_min",
                 "transfer.mean_regret", "transfer.predict"):
        metrics[name + ".calls"] = t.calls(name)
    for name in ("tasks.objective", "tasks.validate_decision", "tasks.empirical_lipschitz",
                 "ground_cost.component_matrices", "ot_core.assignment", "ot_core.lp",
                 "ot_core.sinkhorn", "transfer.train_regret_min", "transfer.mean_regret",
                 "transfer.weight_sweep", "transfer.predict", "transfer.evaluate_bound",
                 "transfer.estimate_phi", "cli.command"):
        metrics[name + ".self_s"] = t.self_s(name)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--launched", type=float, required=True, help="time.monotonic() just before launch")
    p.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    p.add_argument("--workdir", required=True, help="directory for this process's files")
    args = p.parse_args(argv)

    imports = {name: _timed_import(name) for name in ("ptodist", "scipy.optimize")}
    import numpy
    import ptodist
    import scipy
    import tracing
    import workloads

    expected_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(ptodist.__file__), expected_src]) != expected_src:
        print(f"ptodist was imported from {ptodist.__file__}, not from {expected_src}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix="work-", dir=args.workdir)
    try:
        tracer = tracing.Tracer(ptodist) if args.trace else None
        if tracer:
            tracer.install()
        workload = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.launched
        result = {"setup_s": setup_s, "imports": imports, "versions": {
            "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        if tracer:
            tracer.uninstall()
            rounds = [run_round(workload)]
            tracer.install()
            rounds.append(run_round(workload))
            tracer.uninstall()
        else:
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(run_round(workload))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        result.update(
            errors=check_rounds(workload, rounds),
            rounds=[[(name, seconds, failed) for name, seconds, failed, _ in rnd] for rnd in rounds],
            peak_rss_mb=peak_rss_mb,
        )
        if tracer:
            untraced_s, traced_s = (sum(seconds for _, seconds, _, _ in rnd) for rnd in rounds)
            result["per_layer"] = per_layer(tracer, imports, traced_s - untraced_s)
            tracer.dump(os.path.join(args.workdir, f"trace-{args.workload}-seed{args.seed}.json"),
                        extra={"untraced_round_s": untraced_s, "traced_round_s": traced_s})
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
