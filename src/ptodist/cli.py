"""Command-line entry point: dataset generation, distances, transferability,
weight sweeps, bound checks, and one-command experiment reproduction.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import datagen, ground_cost, tasks, transfer
from .datagen import DatasetFormatError, PtODataset, read_dataset, write_dataset
from .ground_cost import GroundCostWeights, decision_aware_distance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def fmt(v: float) -> str:
    """17-significant-digit decimal serialization; bit-exact for doubles."""
    return format(float(v), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_finite(text: str) -> float:
    """An option value that must be a number in (0, inf): a usage error otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _at_least(least: int):
    """An option type: an integer of at least ``least``, a usage error otherwise."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
        return value
    return parse


def _positive_finite_list(text: str) -> list[float]:
    """A comma-separated list of :func:`_positive_finite` values."""
    return [_positive_finite(item) for item in text.split(",")]


def _cell(value) -> str:
    """The CSV text of a value: a float via :func:`fmt`, ``None`` as
    ``undefined``, a bool as ``true``/``false``, anything else via ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    return "undefined" if value is None else str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)


# each family of ``gen``: its generator and the params it takes from the options
_GENERATORS = {
    "topk": (datagen.gen_topk, ("gamma", "n_resources", "n_instances", "k", "seed")),
    "grid": (datagen.gen_grid, ("class_cost_seed", "map_seed", "p", "n_classes", "n_instances", "length_weight")),
    "inventory": (datagen.gen_inventory, ("mean_shift_seed", "theta_seed", "n_features", "n_instances", "seed")),
}


def cmd_gen(args) -> int:
    if args.family == "topk" and "gamma" not in args:
        print("gen: error: --gamma is required for --family topk", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    generator, params = _GENERATORS[args.family]
    ds = generator(**{name: getattr(args, name) for name in params if name in args})
    write_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples to {args.out}: {ds.provenance}")
    return EXIT_OK


def _read_same_task(paths) -> list[PtODataset]:
    """Read dataset files that must all hold the first file's task."""
    datasets = [read_dataset(p) for p in paths]
    for p, ds in zip(paths[1:], datasets[1:]):
        try:
            tasks.shared_task(datasets[0].task, ds.task)
        except ValueError as exc:
            raise DatasetFormatError(f"{paths[0]} vs {p}: {exc}") from None
    return datasets


def _weights(args) -> GroundCostWeights:
    """The ``--alpha-*`` options as ground-cost weights; weights that are not
    a convex combination are a usage error, reported before any file is read."""
    try:
        return GroundCostWeights(args.alpha_x, args.alpha_y, args.alpha_w)
    except ValueError as exc:
        print(f"{args.command}: error: --alpha-x, --alpha-y, --alpha-w: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def cmd_dist(args) -> int:
    w = _weights(args)
    a, b = _read_same_task([args.dataset_a, args.dataset_b])
    terms = ground_cost.component_matrices(a, b, args.mode)
    cost = ground_cost.CostMatrix(ground_cost._weighted(w, *terms))
    distance = ground_cost.transport(cost, args.solver, args.epsilon)[1]
    if args.breakdown:
        # one row per pair (i, j), i-major, made a row of i at a time; totals
        # are the entries of the cost matrix the distance was solved on
        matrices = (*terms, cost.entries)
        _write_csv(
            args.breakdown,
            ["i", "j", "feature_term", "label_term", "decision_term", "total"],
            ((i, j, *values) for i in range(len(cost.entries))
             for j, values in enumerate(zip(*(t[i].tolist() for t in matrices)))),
        )
    print(fmt(distance))  # after the breakdown, so a failed write prints nothing
    return EXIT_OK


def cmd_transfer(args) -> int:
    w = _weights(args)
    target, *sources = _read_same_task([args.target, *args.source])
    records = transfer.transfer_records(target.task, sources, target, budget=args.budget, seed=args.seed)
    rows = [
        (path, args.target, decision_aware_distance(source, target, w, mode=args.mode),
         w.alpha_x, w.alpha_y, w.alpha_w,
         rec.transferability, rec.regret_source_on_target, rec.regret_target_on_target)
        for path, source, rec in zip(args.source, sources, records)
    ]
    _write_csv(
        args.out,
        ["source_id", "target_id", "distance", "alpha_x", "alpha_y", "alpha_w",
         "transferability", "regret_source_on_target", "regret_target_on_target"],
        rows,
    )
    print(f"wrote {len(rows)} transfer records to {args.out}")
    return EXIT_OK


def _sweep_rows(rows_out):
    """CSV rows of a weight sweep; an R-squared with no line to fit is None."""
    return [(w.alpha_x, w.alpha_y, w.alpha_w, r2) for w, r2 in rows_out]


def cmd_sweep(args) -> int:
    target, *sources = _read_same_task([args.target, *args.source])
    rows_out, _ = transfer.weight_sweep(
        target.task, sources, target,
        grid_resolution=args.resolution, mode=args.mode,
        budget=args.budget, seed=args.seed,
    )
    _write_csv(args.out, ["alpha_x", "alpha_y", "alpha_w", "r2"], _sweep_rows(rows_out))
    print(f"wrote {len(rows_out)} sweep rows to {args.out}")
    return EXIT_OK


def cmd_bound(args) -> int:
    if (args.k1 is None) != (args.k2 is None):
        print("bound: error: --k1 and --k2 must be given together", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    source, target = _read_same_task([args.source, args.target])
    task = source.task
    f = transfer.train_regret_min(task, source, budget=args.budget, seed=args.seed)
    joint = PtODataset(
        task, *(np.concatenate([getattr(source, k), getattr(target, k)]) for k in "XYZ"),
        provenance={"generator": "union", "of": [str(args.source), str(args.target)]},
    )
    f_tilde = transfer.train_regret_min(task, joint, budget=args.budget, seed=args.seed)
    if args.k1 is not None:
        k1, k2 = args.k1, args.k2
    else:
        k1, k2 = transfer.default_lipschitz_constants(task, task.label_dim, seed=args.seed)
    reports = transfer._bound_reports(task, f, f_tilde, source, target, args.lambdas, k1, k2)
    rows = [(rep.lam, rep.lhs, rep.joint_regret_source, rep.joint_regret_target, rep.lipschitz_term,
             rep.scaled_ot_term, rep.k1, rep.k2, rep.alpha_w, rep.phi, rep.holds) for rep in reports]
    all_hold = all(rep.holds for rep in reports)
    _write_csv(
        args.out,
        ["lambda", "lhs", "joint_regret_source", "joint_regret_target",
         "lipschitz_term", "scaled_ot_term", "k1", "k2", "alpha_w", "phi", "holds"],
        rows,
    )
    print(f"wrote {len(rows)} bound rows to {args.out}; all_hold={all_hold}")
    return EXIT_OK if all_hold else EXIT_NUMERIC


# each setting of ``repro``: its default and its least value
_REPRO_SETTINGS = {"seed": (7, 0), "budget": (3000, 1), "resolution": (10, 1), "instances": (50, 1)}


def _read_config(path) -> dict:
    """The settings of ``repro``: the defaults, overridden by the integer
    ``key=value`` lines of the UTF-8 config file at ``path``, each at least
    its minimum."""
    cfg = {key: default for key, (default, _) in _REPRO_SETTINGS.items()}
    if path is None:
        return cfg
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetFormatError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in cfg:
            raise DatasetFormatError(
                f"{path}: line {lineno}: unknown key {key!r}; known keys are {', '.join(_REPRO_SETTINGS)}")
        try:
            cfg[key] = int(value)
        except ValueError:
            raise DatasetFormatError(f"{path}: line {lineno}: {key} must be an integer, got {value!r}") from None
        least = _REPRO_SETTINGS[key][1]
        if cfg[key] < least:
            raise DatasetFormatError(f"{path}: line {lineno}: {key} must be at least {least}, got {value!r}")
    return cfg


def cmd_repro(args) -> int:
    cfg = _read_config(args.config)
    seed, budget, resolution, n_instances = (cfg[k] for k in ("seed", "budget", "resolution", "instances"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # motivating example: sources gamma=0 and gamma=1.2, target gamma=0.65
    task = tasks.topk_task(25, 1)
    d_a = datagen.gen_topk(0.0, n_instances=n_instances, seed=seed + 1)
    d_b = datagen.gen_topk(1.2, n_instances=n_instances, seed=seed + 2)
    d_c = datagen.gen_topk(0.65, n_instances=n_instances, seed=seed + 3)
    # the pooled baseline's assignments run beside everything else; the tables
    # are written once all of them are computed, so a failure leaves none new
    with ThreadPoolExecutor(1) as pool:
        pooled = pool.submit(transfer.feature_label_pooled_distances, [d_a, d_b], d_c)
        # weight sweep over gamma-shifted sources onto d_c; its records carry the
        # regret of the model trained on d_c, which the motivating example reports
        gammas = np.linspace(0.0, 1.3, 9)
        sources = [
            datagen.gen_topk(g, n_instances=n_instances, seed=seed + 10 + i)
            for i, g in enumerate(gammas)
        ]
        rows_out, records = transfer.weight_sweep(
            task, sources, d_c, grid_resolution=resolution, budget=budget, seed=seed
        )

        theta_a = transfer.train_regret_min(task, d_a, budget=budget, seed=seed)
        theta_b = transfer.train_regret_min(task, d_b, budget=budget, seed=seed)
        regret_rows = [
            ("trained_on_gamma_0.0", transfer.mean_regret(task, theta_a, d_c)),
            ("trained_on_gamma_1.2", transfer.mean_regret(task, theta_b, d_c)),
            ("trained_on_target", records[0].regret_target_on_target),
        ]
        w_dec = GroundCostWeights(0.5, 0.0, 0.5)
        decision_ac, decision_bc = (decision_aware_distance(d, d_c, w_dec) for d in (d_a, d_b))

        # target-shift study on the grid task, with and without a path-length term
        grid_rows = []
        w_third = GroundCostWeights(1 / 3, 1 / 3, 1 / 3)
        w_fl = GroundCostWeights(0.5, 0.5, 0.0)
        for variant, lw in (("cost_only", 0.0), ("cost_plus_length", 5.0)):
            tgt = datagen.gen_grid(
                class_cost_seed=seed + 100, map_seed=seed + 200,
                n_instances=min(n_instances, 20), length_weight=lw,
            )
            for shift in range(4):
                src = datagen.gen_grid(
                    class_cost_seed=seed + 101 + shift, map_seed=seed + 200,
                    n_instances=min(n_instances, 20), length_weight=lw,
                )
                grid_rows.append((variant, shift, decision_aware_distance(src, tgt, w_fl),
                                  decision_aware_distance(src, tgt, w_third)))
        pooled_ac, pooled_bc = pooled.result()
    for name, header, rows in (
        ("motivating_regrets.csv", ["model", "target_regret"], regret_rows),
        ("weight_sweep.csv", ["alpha_x", "alpha_y", "alpha_w", "r2"], _sweep_rows(rows_out)),
        ("sweep_transferability.csv",
         ["gamma", "transferability", "regret_source_on_target", "regret_target_on_target"],
         [(g, r.transferability, r.regret_source_on_target, r.regret_target_on_target)
          for g, r in zip(gammas, records)]),
        ("target_shift_grid.csv",
         ["task_variant", "shift_id", "feature_label_distance", "decision_aware_distance"], grid_rows),
        ("motivating_distances.csv", ["pair", "feature_label_pooled", "decision_aware"],
         [("A_to_C", pooled_ac, decision_ac), ("B_to_C", pooled_bc, decision_bc)]),
    ):
        _write_csv(out_dir / name, header, rows)
    print(f"wrote reproduction tables to {out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ptodist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the options that several commands share, each stated once
    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--alpha-x", type=float, default=1 / 3)
    weights.add_argument("--alpha-y", type=float, default=1 / 3)
    weights.add_argument("--alpha-w", type=float, default=1 / 3)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=list(ground_cost.MODES), default="as-written")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--out", required=True)

    # an option left out is not passed, so the generator's own default applies
    p = sub.add_parser("gen", parents=[seeded], argument_default=argparse.SUPPRESS,
                       help="generate a synthetic dataset file")
    p.add_argument("--family", required=True, choices=list(_GENERATORS))
    p.add_argument("--gamma", type=float, help="topk: target-shift parameter")
    p.add_argument("--instances", dest="n_instances", type=_at_least(1))
    p.add_argument("--resources", dest="n_resources", type=_at_least(1), help="topk: resources per instance")
    p.add_argument("--k", type=_at_least(1), help="topk: selection size")
    p.add_argument("--p", type=_at_least(2), help="grid: side length")
    p.add_argument("--classes", dest="n_classes", type=_at_least(1), help="grid: number of cell classes")
    p.add_argument("--cost-seed", dest="class_cost_seed", type=int, default=0, help="grid: class-cost table seed")
    p.add_argument("--map-seed", type=int, default=0, help="grid: class-map seed")
    p.add_argument("--length-weight", type=float, help="grid: per-cell length penalty")
    p.add_argument("--mean-seed", dest="mean_shift_seed", type=int, default=0, help="inventory: feature-mean seed")
    p.add_argument("--theta-seed", type=int, default=0, help="inventory: score-matrix seed")
    p.add_argument("--features", dest="n_features", type=_at_least(1), help="inventory: feature dimension")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dist", parents=[weights, mode], help="decision-aware distance between two dataset files")
    p.add_argument("dataset_a")
    p.add_argument("dataset_b")
    p.add_argument("--solver", choices=["exact", "sinkhorn"], default="exact")
    p.add_argument("--epsilon", type=_positive_finite, default=0.01)
    p.add_argument("--breakdown", default=None, help="write per-pair cost breakdown CSV here")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("transfer", parents=[weights, mode, seeded],
                       help="regret transferability of sources onto a target")
    p.add_argument("--source", action="append", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--budget", type=_at_least(1), default=5000)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("sweep", parents=[mode, seeded], help="R-squared over the ground-cost weight simplex")
    p.add_argument("--source", action="append", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--resolution", type=_at_least(1), default=10)
    p.add_argument("--budget", type=_at_least(1), default=5000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound", parents=[seeded], help="empirical adaptation-bound check")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lambdas", type=_positive_finite_list, default="0.5,1,2,4",
                   help="comma-separated lambda grid, each value positive and finite")
    p.add_argument("--k1", type=_positive_finite, default=None)
    p.add_argument("--k2", type=_positive_finite, default=None)
    p.add_argument("--budget", type=_at_least(1), default=3000)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("repro", help="run the full experiment pipelines into one directory")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_repro)

    return parser


def _refuse_unwritable(*paths):
    """Raise the OSError that opening a given path for writing would raise when
    it is a directory or its parent directory is missing; no file is made."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an output that cannot be written fails before any work
        _refuse_unwritable(getattr(args, "out", None), getattr(args, "breakdown", None))
        return args.func(args)
    except (DatasetFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
