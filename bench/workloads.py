"""The benchmark's workloads: inputs made from a seed, and the fixed list of
operations that one round runs.

``build(workload, seed, workdir)`` is the set-up: it generates the datasets
with ``ptodist.datagen``, writes each through the dataset file format and
reads it back, and returns a ``Workload``. Operations call ``ptodist``
through module attributes, so a tracer installed later sees the calls.
``Workload.check`` checks round one's outputs against ``checks``.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import ptodist
import ptodist.cli

datagen, ground_cost, ot_core = ptodist.datagen, ptodist.ground_cost, ptodist.ot_core
tasks, transfer, cli = ptodist.tasks, ptodist.transfer, ptodist.cli

THIRDS = (1 / 3, 1 / 3, 1 / 3)
LAMBDAS = (0.5, 1.0, 2.0, 4.0)
SINKHORN_EPSILON = 0.01          # the `dist` default
TRANSFER_BUDGET = 100
TRANSFER_INSTANCES = 30


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # turns a raw result into what is checked; runs outside the timed region
    collect: Callable[[object], object] = lambda out: out
    failed: Callable[[object], bool] = lambda out: False


@dataclass
class Workload:
    ops: list
    check: Callable[[dict], list]   # outputs of round one by op name -> errors


def _weights(w):
    return ground_cost.GroundCostWeights(*w)


def _draw_weights(rng):
    a, b, _ = rng.dirichlet(np.ones(3))
    return (float(a), float(b), float(1.0 - a - b))


def _seed(rng):
    return int(rng.integers(1 << 31))


class _Files:
    """Writes datasets through the file format and reads them back."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.paths = {}

    def __call__(self, name, dataset):
        path = os.path.join(self.workdir, name + ".plds")
        datagen.write_dataset(dataset, path)
        self.paths[name] = path
        return datagen.read_dataset(path)


# --- distance ----------------------------------------------------------------


def _family_datasets(family, rng, n, m, files, tag):
    """A target and six sources of one family: four of size n, two of size m."""
    sizes = [n] * 5 + [m] * 2
    if family == "topk":
        gammas = rng.uniform(0.0, 1.3, len(sizes))
        made = [datagen.gen_topk(float(g), n_instances=s, seed=_seed(rng)) for g, s in zip(gammas, sizes)]
    elif family == "grid":  # target shift: shared class maps, new class costs
        map_seed = _seed(rng)
        made = [datagen.gen_grid(_seed(rng), map_seed, n_instances=s) for s in sizes]
    else:  # feature shift: shared labeling mechanism, new feature mean
        theta_seed = _seed(rng)
        made = [datagen.gen_inventory(_seed(rng), theta_seed, n_instances=s, seed=_seed(rng))
                for s in sizes]
    return [files(f"{tag}-{i}", d) for i, d in enumerate(made)]


def _distance(rng, files):
    specs = {}   # op name -> (source, target, weights, mode)
    symmetric = []
    for family, n in (("topk", 50), ("grid", 20), ("inventory", 50)):
        t, *src = _family_datasets(family, rng, n, n * 6 // 5, files, family)
        for i in range(3):  # equal sizes: the assignment path
            specs[f"{family}.exact.as-written.{i}"] = (src[i], t, _draw_weights(rng), "as-written")
        w = _draw_weights(rng)
        specs[f"{family}.exact.symmetrized.fwd"] = (src[3], t, w, "symmetrized")
        specs[f"{family}.exact.symmetrized.rev"] = (t, src[3], w, "symmetrized")
        symmetric.append((f"{family}.exact.symmetrized.fwd", f"{family}.exact.symmetrized.rev"))
        for i in range(2):  # unequal sizes: the LP path
            specs[f"{family}.exact.lp.{i}"] = (src[4 + i], t, _draw_weights(rng), "as-written")
    # Large enough that building the dense LP shows. The shift and weights are
    # fixed and only the samples are drawn: HiGHS's time on this size varies
    # up to 2x with the shift, so two draws of one shift keep rounds steady.
    for i in range(2):
        big_a = files(f"big-{i}-a", datagen.gen_topk(0.3, n_instances=200, seed=_seed(rng)))
        big_b = files(f"big-{i}-b", datagen.gen_topk(0.9, n_instances=240, seed=_seed(rng)))
        specs[f"topk.exact.lp.200x240.{i}"] = (big_a, big_b, THIRDS, "as-written")

    # Fixed inputs, whatever the seed: Sinkhorn stops unconverged on the grid
    # and inventory pairs every time, and those operations count as failed.
    sinkhorn = {
        "topk.sinkhorn": (datagen.gen_topk(0.3, seed=1), datagen.gen_topk(0.9, seed=2)),
        "grid.sinkhorn": (datagen.gen_grid(1, 5, n_instances=20), datagen.gen_grid(2, 5, n_instances=20)),
        "inventory.sinkhorn": (datagen.gen_inventory(1, 3, seed=1), datagen.gen_inventory(2, 3, seed=2)),
    }
    sinkhorn = {k: (files(k + "-a", a), files(k + "-b", b)) for k, (a, b) in sinkhorn.items()}

    def exact_op(name, a, b, w, mode):
        return Op(name, lambda: ground_cost.decision_aware_distance(a, b, _weights(w), mode=mode))

    def sinkhorn_op(name, a, b):
        def run():
            cost = ground_cost.pairwise_cost_matrix(a, b, _weights(THIRDS))
            return ot_core.solve_sinkhorn(cost, ot_core.Marginal.uniform(len(a)),
                                          ot_core.Marginal.uniform(len(b)), epsilon=SINKHORN_EPSILON)
        return Op(name, run, failed=lambda res: not res.converged)

    ops = [exact_op(name, *spec) for name, spec in specs.items()]
    ops += [sinkhorn_op(name, a, b) for name, (a, b) in sinkhorn.items()]

    def check(outputs):
        errs = []
        for name, (a, b, w, mode) in specs.items():
            if name in outputs:
                ref, tol = checks.distance(a.task, checks.arrays(a), checks.arrays(b), w, mode)
                errs += checks.check_distance(outputs[name], ref, tol, name)
        for fwd, rev in symmetric:
            if fwd in outputs and rev in outputs:
                errs += checks.check_symmetric(outputs[fwd], outputs[rev], fwd)
        for name, (a, b) in sinkhorn.items():
            if name in outputs:
                C = checks.cost_matrix(a.task, checks.arrays(a), checks.arrays(b), THIRDS)
                errs += checks.check_sinkhorn(outputs[name], C, checks.ot_other_method(C), name)
        return errs

    return Workload(ops, check)


# --- training ----------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _training(seed, rng, files, workdir):
    theta_seed = _seed(rng)
    target = files("inv-target", datagen.gen_inventory(
        _seed(rng), theta_seed, n_instances=TRANSFER_INSTANCES, seed=_seed(rng)))
    sources = [files(f"inv-source-{i}", datagen.gen_inventory(
        _seed(rng), theta_seed, n_instances=TRANSFER_INSTANCES, seed=_seed(rng))) for i in range(2)]
    repro_seed = int(seed)
    config = os.path.join(workdir, "repro.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"seed={repro_seed}\n")  # every other key at its default
    repro_dir = os.path.join(workdir, "repro")
    repro_tables = ("motivating_regrets", "motivating_distances", "weight_sweep",
                    "sweep_transferability", "target_shift_grid")

    def cli_op(name, argv, collect):
        return Op(name, lambda: cli.main(argv), collect=lambda code: (code, collect()))

    ops = [cli_op("repro", ["repro", "--config", config, "--out-dir", repro_dir],
                  lambda: {t: _read_csv(os.path.join(repro_dir, t + ".csv")) for t in repro_tables})]
    for i in range(len(sources)):
        out = os.path.join(workdir, f"transfer-{i}.csv")
        argv = ["transfer", "--source", files.paths[f"inv-source-{i}"], "--target",
                files.paths["inv-target"], "--budget", str(TRANSFER_BUDGET), "--seed", str(seed), "--out", out]
        ops.append(cli_op(f"transfer.inventory.{i}", argv, lambda out=out: _read_csv(out)))

    def check(outputs):
        errs = []
        for name, (code, _) in outputs.items():
            if code != 0:
                errs.append(f"{name}: exit code {code}")
        if "repro" in outputs:
            errs += _check_repro(outputs["repro"][1], repro_seed)
        tgt = checks.arrays(target)
        r_zero = checks.zero_model_regret(target.task, tgt[0], tgt[1])
        for i, src in enumerate(sources):
            name = f"transfer.inventory.{i}"
            if name not in outputs:
                continue
            (row,) = outputs[name][1]
            errs += _check_transfer_row(row, r_zero, name)
            ref, tol = checks.distance(target.task, checks.arrays(src), tgt, THIRDS)
            errs += checks.check_distance(float(row["distance"]), ref, tol, name)
        return errs

    return Workload(ops, check)


def _check_transfer_row(row, r_zero, label):
    t = row["transferability"]
    return checks.check_transfer_row(None if t == "undefined" else float(t),
                                     float(row["regret_source_on_target"]),
                                     float(row["regret_target_on_target"]), r_zero, label)


def _check_repro(tables, seed):
    """Checks `repro` at its default configuration, regenerating its datasets
    the way `ptodist repro` does."""
    errs = []
    n = 50
    task = tasks.topk_task(25, 1)
    d_a = datagen.gen_topk(0.0, n_instances=n, seed=seed + 1)
    d_b = datagen.gen_topk(1.2, n_instances=n, seed=seed + 2)
    d_c = datagen.gen_topk(0.65, n_instances=n, seed=seed + 3)
    c = checks.arrays(d_c)
    r_zero = checks.zero_model_regret(task, c[0], c[1])

    regrets = {r["model"]: float(r["target_regret"]) for r in tables["motivating_regrets"]}
    if any(v < 0 for v in regrets.values()):
        errs.append(f"repro: negative motivating regret {regrets}")
    if regrets.get("trained_on_target", np.inf) > r_zero + 1e-9:
        errs.append(f"repro: target-trained regret exceeds the all-zero model's {r_zero!r}")
    for row, d in zip(tables["motivating_distances"], (d_a, d_b)):
        ref, tol = checks.distance(task, checks.arrays(d), c, (0.5, 0.0, 0.5))
        errs += checks.check_distance(float(row["decision_aware"]), ref, tol, f"repro: {row['pair']}")

    transfers = []
    for row in tables["sweep_transferability"]:
        t = float(row["transferability"])
        transfers.append(t)
        errs += checks.check_transfer_row(t, float(row["regret_source_on_target"]),
                                          float(row["regret_target_on_target"]), r_zero,
                                          f"repro: sweep gamma {row['gamma']}")
    components = [checks.cost_components(task, checks.arrays(datagen.gen_topk(g, n_instances=n, seed=seed + 10 + i)), c)
                  for i, g in enumerate(np.linspace(0.0, 1.3, 9))]
    if len(tables["weight_sweep"]) != 66:
        errs.append(f"repro: {len(tables['weight_sweep'])} sweep rows, expected 66")
    for row in tables["weight_sweep"]:
        ax, ay, aw = (float(row[k]) for k in ("alpha_x", "alpha_y", "alpha_w"))
        dists = [checks.ot_assignment(ax * F + ay * L + aw * W) for F, L, W in components]
        errs += checks.check_r2(float(row["r2"]), dists, transfers, f"repro: sweep row {ax, ay, aw}")

    for row in tables["target_shift_grid"]:
        lw = 0.0 if row["task_variant"] == "cost_only" else 5.0
        shift = int(row["shift_id"])
        tgt = datagen.gen_grid(seed + 100, seed + 200, n_instances=20, length_weight=lw)
        src = datagen.gen_grid(seed + 101 + shift, seed + 200, n_instances=20, length_weight=lw)
        for col, w in (("feature_label_distance", (0.5, 0.5, 0.0)), ("decision_aware_distance", THIRDS)):
            ref, tol = checks.distance(tgt.task, checks.arrays(src), checks.arrays(tgt), w)
            errs += checks.check_distance(float(row[col]), ref, tol,
                                          f"repro: grid {row['task_variant']} {shift} {col}")
    return errs


# --- bound -------------------------------------------------------------------


def _bound(seed, rng, files):
    # (task, pairs, instances, model dimension, unequal sizes). The topk pairs
    # are all square so that the median operation sits inside one cluster of
    # like-sized operations; the inventory pairs take the LP path.
    families = {"topk": (tasks.topk_task(5, 1), 25, 20, 2, False),
                "inventory": (tasks.inventory_task(), 5, 30, 10, True)}
    pairs = []   # (family, index, source, target, f, f_tilde)
    for family, (task, count, n, dim, unequal) in families.items():
        theta_seed = _seed(rng)
        for i in range(count):
            sizes = (n, n * 6 // 5 if unequal and i % 2 else n)  # every other inventory pair unequal
            made = []
            for size in sizes:
                if family == "topk":
                    made.append(datagen.gen_topk(float(rng.uniform(0.0, 1.3)), n_resources=5,
                                                 n_instances=size, seed=_seed(rng)))
                else:
                    made.append(datagen.gen_inventory(_seed(rng), theta_seed, n_instances=size, seed=_seed(rng)))
            src, tgt = (files(f"{family}-{i}-{role}", d) for role, d in zip(("source", "target"), made))
            f, f_tilde = (transfer.PredictiveModel("linear", rng.normal(0.0, 1.0, dim)) for _ in range(2))
            pairs.append((family, i, src, tgt, f, f_tilde))

    constants = {}

    def lipschitz_op(family):
        task = families[family][0]

        def run():
            constants[family] = transfer.default_lipschitz_constants(task, 5, seed=seed)
            return constants[family]
        return Op(f"lipschitz.{family}", run)

    def bound_op(family, i, src, tgt, f, f_tilde, lam):
        task = families[family][0]
        return Op(f"bound.{family}.{i}.lambda{lam:g}",
                  lambda: transfer.evaluate_bound(task, f, f_tilde, src, tgt, lam, *constants[family]))

    ops = [lipschitz_op(family) for family in families]
    ops += [bound_op(*pair, lam) for pair in pairs for lam in LAMBDAS]

    def check(outputs):
        errs = []
        for family in families:
            k1, k2 = outputs.get(f"lipschitz.{family}", (1.0, 1.0))
            if not (np.isfinite(k1) and k1 > 0 and k1 == k2):
                errs.append(f"lipschitz.{family}: constants {k1!r}, {k2!r}")
        for family, i, src, tgt, f, f_tilde in pairs:
            task = families[family][0]
            (Xs, Ys, _), (Xt, Yt, _) = checks.arrays(src), checks.arrays(tgt)
            lhs = checks.mean_regret(task, f.theta, Xt, Yt)
            err_s = checks.mean_regret(task, f_tilde.theta, Xs, Ys)
            err_t = checks.mean_regret(task, f_tilde.theta, Xt, Yt)
            # rows: target with the model's decisions; columns: source with oracle decisions
            lifted_t = (Xt, Yt, checks.oracle_decisions(task, checks.predictions(task, f.theta, Xt)))
            lifted_s = (Xs, Ys, checks.oracle_decisions(task, Ys))
            F, L, W = checks.cost_components(task, lifted_t, lifted_s)
            for lam in LAMBDAS:
                name = f"bound.{family}.{i}.lambda{lam:g}"
                if name not in outputs or f"lipschitz.{family}" not in outputs:
                    continue
                k1, k2 = outputs[f"lipschitz.{family}"]
                alpha_w = 1.0 / (lam * k1 + k2 + 1.0)
                C = alpha_w * (lam * k1 * F + k2 * L + W)
                d_ot = checks.ot_other_method(C)
                errs += checks.check_bound(outputs[name], lam, k1, k2, lhs, err_s, err_t,
                                           d_ot, checks.ptodist_tolerance(C, d_ot), name)
        return errs

    return Workload(ops, check)


def build(workload, seed, workdir):
    rng = np.random.default_rng(seed)
    files = _Files(workdir)
    if workload == "distance":
        return _distance(rng, files)
    if workload == "training":
        return _training(seed, rng, files, workdir)
    if workload == "bound":
        return _bound(seed, rng, files)
    raise ValueError(f"unknown workload {workload!r}")
