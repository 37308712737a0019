"""Tests of the benchmark's own checks, tracer and entry point.

    python3 -m pytest bench/test_bench.py

Each check must accept ptodist's output and reject a deliberately wrong
value. The last tests run every workload briefly through ``run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import ptodist  # noqa: E402
import tracing  # noqa: E402
from ptodist import datagen, ground_cost, tasks, transfer  # noqa: E402

THIRDS = (1 / 3, 1 / 3, 1 / 3)


def _pair(n, m, family="topk"):
    if family == "topk":
        return datagen.gen_topk(0.2, n_instances=n, seed=11), datagen.gen_topk(1.0, n_instances=m, seed=12)
    return (datagen.gen_inventory(1, 5, n_instances=n, seed=11),
            datagen.gen_inventory(2, 5, n_instances=m, seed=12))


@pytest.mark.parametrize("family", ["topk", "inventory"])
@pytest.mark.parametrize("sizes", [(12, 12), (12, 15)])
@pytest.mark.parametrize("mode", ["as-written", "symmetrized"])
def test_distance_check_accepts_ptodist_and_rejects_1e6_relative(family, sizes, mode):
    a, b = _pair(*sizes, family)
    value = ground_cost.decision_aware_distance(a, b, ground_cost.GroundCostWeights(*THIRDS), mode=mode)
    ref, tol = checks.distance(a.task, checks.arrays(a), checks.arrays(b), THIRDS, mode)
    assert checks.check_distance(value, ref, tol, "d") == []
    assert checks.check_distance(value * (1 + 1e-6), ref, tol, "d")
    assert checks.check_distance(value * (1 - 1e-6), ref, tol, "d")


def test_reference_ot_methods_agree_with_brute_force():
    from itertools import permutations
    rng = np.random.default_rng(0)
    C = rng.uniform(0, 1, (5, 5))
    brute = min(C[range(5), list(p)].sum() for p in permutations(range(5))) / 5
    assert checks.close(checks.ot_lp(C), brute)
    assert checks.close(checks.ot_assignment(C), brute)
    # 2 x 4 uniform problem: each row sends 1/2 to two columns of 1/4
    C = rng.uniform(0, 1, (2, 4))
    brute = min(C[0, list(s)].sum() + C[1, [j for j in range(4) if j not in s]].sum()
                for s in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))) / 4
    assert checks.close(checks.ot_assignment(C), brute)
    assert checks.close(checks.ot_lp(C), brute)


def test_symmetry_check_rejects_asymmetry():
    assert checks.check_symmetric(0.5, 0.5, "s") == []
    assert checks.check_symmetric(0.5, 0.5 * (1 + 1e-6), "s")


def test_sinkhorn_check():
    a, b = _pair(10, 10)
    cost = ground_cost.pairwise_cost_matrix(a, b, ground_cost.GroundCostWeights(*THIRDS))
    res = ptodist.solve_sinkhorn(cost, ptodist.Marginal.uniform(10), ptodist.Marginal.uniform(10), epsilon=0.05)
    C = checks.cost_matrix(a.task, checks.arrays(a), checks.arrays(b), THIRDS)
    exact = checks.ot_lp(C)
    assert checks.check_sinkhorn(res, C, exact, "s") == []
    assert checks.check_sinkhorn(res, C, res.cost * (1 + 1e-6), "s")        # cost below the optimum
    skewed = res.plan.matrix.copy()
    skewed[0] *= 1.001
    plan = ptodist.TransportPlan(skewed, res.plan.row_marginal, res.plan.col_marginal, validate=False)
    bad = dataclasses.replace(res, plan=plan, cost=float((skewed * C).sum()))
    assert checks.check_sinkhorn(bad, C, exact, "s")                       # marginals missed


def test_inventory_reference_oracle_matches_a_dense_grid():
    task = tasks.inventory_task()
    ip, demands = task.params["inventory_params"], task.params["demand_values"]
    probs = np.random.default_rng(3).dirichlet(np.ones(5) * 0.5, size=40)
    z = checks.inventory_decisions(ip, demands, probs)[:, 0]
    grid = np.linspace(0.0, 30.0, 30001)
    costs = checks.stock_cost(ip, demands, probs, grid)
    best = costs.min(axis=1)
    mine = np.array([checks.stock_cost(ip, demands, p[None, :], [v])[0, 0] for p, v in zip(probs, z)])
    assert np.all(mine <= best + 1e-9)
    assert np.allclose(z, grid[costs.argmin(axis=1)], atol=2e-3)


def test_regret_reference_matches_definition_and_transfer_check():
    d = datagen.gen_topk(0.65, n_resources=10, n_instances=15, seed=4)
    X, Y, _ = checks.arrays(d)
    theta = np.array([0.7, -0.2])
    ours = checks.mean_regret(d.task, theta, X, Y)
    theirs = transfer.mean_regret(d.task, transfer.PredictiveModel("linear", theta), d)
    assert checks.regret_close(ours, theirs)
    r_zero = checks.zero_model_regret(d.task, X, Y)
    r_st, r_tt = 2.0, 1.5
    good = (r_tt - r_st) / r_tt
    assert checks.check_transfer_row(good, r_st, r_tt, r_zero=10.0, label="t") == []
    assert checks.check_transfer_row(good * (1 + 1e-6), r_st, r_tt, 10.0, "t")
    assert checks.check_transfer_row(good, r_st, r_tt, r_zero=1.0, label="t")    # worse than zero model
    assert checks.check_transfer_row(good, -r_st, r_tt, 10.0, "t")
    assert r_zero > 0


def test_r2_check_rejects_rows_swapped():
    sources = [datagen.gen_topk(g, n_resources=8, n_instances=10, seed=20 + i) for i, g in enumerate((0.0, 0.6, 1.2))]
    target = datagen.gen_topk(0.65, n_resources=8, n_instances=10, seed=30)
    rows, records = transfer.weight_sweep(sources[0].task, sources, target, grid_resolution=2, budget=60)
    transfers = [r.transferability for r in records]
    tgt = checks.arrays(target)
    comps = [checks.cost_components(target.task, checks.arrays(s), tgt) for s in sources]

    def errors(r2s):
        errs = []
        for (w, _), r2 in zip(rows, r2s):
            dists = [checks.ot_assignment(w.alpha_x * F + w.alpha_y * L + w.alpha_w * W) for F, L, W in comps]
            errs += checks.check_r2(r2, dists, transfers, "r2")
        return errs

    r2s = [r2 for _, r2 in rows]
    assert errors(r2s) == []
    i, j = next((i, j) for i in range(len(r2s)) for j in range(i) if abs(r2s[i] - r2s[j]) > 1e-6)
    r2s[i], r2s[j] = r2s[j], r2s[i]
    assert errors(r2s)


@pytest.mark.parametrize("family", ["topk", "inventory"])
def test_bound_check_rejects_holds_that_disagrees_with_terms(family):
    task = tasks.topk_task(5, 1) if family == "topk" else tasks.inventory_task()
    dim = 2 if family == "topk" else 10
    if family == "topk":
        src = datagen.gen_topk(0.1, n_resources=5, n_instances=8, seed=1)
        tgt = datagen.gen_topk(1.1, n_resources=5, n_instances=10, seed=2)
    else:
        src, tgt = _pair(8, 10, "inventory")
    rng = np.random.default_rng(5)
    f, f_tilde = (transfer.PredictiveModel("linear", rng.normal(size=dim)) for _ in range(2))
    lam, k1, k2 = 2.0, 30.0, 30.0
    rep = transfer.evaluate_bound(task, f, f_tilde, src, tgt, lam, k1, k2)
    (Xs, Ys, _), (Xt, Yt, _) = checks.arrays(src), checks.arrays(tgt)
    alpha_w = 1.0 / (lam * k1 + k2 + 1.0)
    lifted_t = (Xt, Yt, checks.oracle_decisions(task, checks.predictions(task, f.theta, Xt)))
    lifted_s = (Xs, Ys, checks.oracle_decisions(task, Ys))
    C = checks.cost_matrix(task, lifted_t, lifted_s, (lam * k1 * alpha_w, k2 * alpha_w, alpha_w))
    d_ot = checks.ot_other_method(C)
    args = (lam, k1, k2, checks.mean_regret(task, f.theta, Xt, Yt), checks.mean_regret(task, f_tilde.theta, Xs, Ys),
            checks.mean_regret(task, f_tilde.theta, Xt, Yt), d_ot, checks.ptodist_tolerance(C, d_ot), "b")
    assert checks.check_bound(rep, *args) == []
    assert checks.check_bound(dataclasses.replace(rep, holds=not rep.holds), *args)
    assert checks.check_bound(dataclasses.replace(rep, lhs=rep.lhs * (1 + 1e-6) + 1e-6), *args)
    assert checks.check_bound(dataclasses.replace(rep, alpha_w=rep.alpha_w * (1 + 1e-6)), *args)
    assert checks.check_bound(dataclasses.replace(rep, scaled_ot_term=rep.scaled_ot_term * 1.001), *args)
    assert checks.check_bound(dataclasses.replace(rep, phi=1.5), *args)


def test_tracer_counts_spans_and_restores_functions():
    original = ground_cost.decision_aware_distance
    tracer = tracing.Tracer(ptodist)
    tracer.install()
    try:
        a, b = _pair(6, 8)
        ptodist.decision_aware_distance(a, b, ground_cost.GroundCostWeights(*THIRDS))
        ground_cost.decision_aware_distance(a, a, ground_cost.GroundCostWeights(*THIRDS))
    finally:
        tracer.uninstall()
    assert ground_cost.decision_aware_distance is original
    assert ptodist.decision_aware_distance is original
    assert tracer.calls("ground_cost.decision_aware_distance") == 2
    assert tracer.calls("ground_cost.component_matrices") == 2
    assert tracer.calls("ot_core.lp") == 1 and tracer.calls("ot_core.assignment") == 1
    assert tracer.calls("tasks.objective") == 6 * 8 + 8 + 6 * 6 + 6
    for calls, total, self_s in tracer.stats.values():
        assert 0 <= self_s <= total + 1e-12
    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, start, end, parent in tracer.spans:
        assert start <= end
        if parent:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "distance", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["distance", "training", "bound"])
def test_short_run_completes(workload):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"], proc.stderr[-2000:]
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # only the Sinkhorn operations on the fixed grid and inventory inputs fail
    expected_failed = 2 * result["attempted"] // 26 if workload == "distance" else 0
    assert result["failed"] == expected_failed
