"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from _reference import solve_inventory_qp_kkt
import ptodist
from ptodist.datagen import (
    gen_grid,
    gen_inventory,
    gen_topk,
    read_dataset,
    write_dataset,
)
from ptodist.ground_cost import (
    GroundCostWeights,
    _components,
    _weighted,
    component_matrices,
    decision_aware_distance,
)
from ptodist.ot_core import CostMatrix, Marginal, solve_exact, solve_sinkhorn
from ptodist.tasks import (
    InventoryParams,
    fstock,
    inventory_task,
    objective_rows,
    oracle_batch,
    shortest_path_task,
    topk_task,
)
from ptodist.transfer import (
    PredictiveModel,
    default_lipschitz_constants,
    evaluate_bound,
    feature_label_pooled_distances,
    mean_regret,
    train_regret_min,
    weight_sweep,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exact_ot_vs_permutation_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        C = rng.uniform(0.0, 5.0, (n, n))
        a = Marginal.uniform(n)
        _, value = solve_exact(CostMatrix(C), a, a)
        brute = min(
            sum(C[i, p] for i, p in enumerate(perm)) / n
            for perm in itertools.permutations(range(n))
        )
        worst = max(worst, abs(value - brute))
    elapsed = time.time() - t0
    report(1, "exact OT equals permutation enumeration", worst < 1e-9 and elapsed < 10.0,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_sinkhorn_accuracy():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(50):
        X = rng.normal(size=(20, 6))
        Y = rng.normal(size=(20, 6))
        C = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
        C = (C - C.min()) / (C.max() - C.min())  # normalized to [0, 1]
        cm = CostMatrix(C)
        a = Marginal.uniform(20)
        res = solve_sinkhorn(cm, a, a, epsilon=0.005, max_iter=20000, tol=1e-5)
        _, exact = solve_exact(cm, a, a)
        worst_rel = max(worst_rel, abs(res.cost - exact) / exact)
    elapsed = time.time() - t0
    report(2, "Sinkhorn within 1% of exact at epsilon 0.005",
           worst_rel < 0.01 and elapsed < 30.0,
           f"worst rel {worst_rel:.4f}, {elapsed:.1f}s")


def _triplet_pools(family, rng):
    """(task, sample factory) for one task family. A sample is a (features,
    labels, decision) triple; given labels, it draws only the rest."""
    if family == "topk":
        task = topk_task(6, 2)

        def labels():
            return rng.normal(0.0, 4.0, 6)

        def features():
            return np.sort(rng.uniform(-1.0, 1.0, 6))

    elif family == "shortest_path":
        task = shortest_path_task(3)

        def labels():
            return rng.uniform(0.8, 9.2, 9)

        def features():
            return rng.uniform(0.0, 1.0, 9)

    else:
        task = inventory_task()

        def labels():
            return rng.dirichlet(np.ones(5))

        def features():
            return rng.normal(0.0, 1.0, 2)

    decisions = oracle_batch(task, np.array([labels() for _ in range(100)]))

    def sample(y=None):
        y = labels() if y is None else y
        x = features()
        return x, y, decisions[int(rng.integers(100))]

    return task, sample


def _paired_costs(task, w, A, B, block=25):
    """The symmetrized ground cost between row i of A and row i of B, for each
    i: the diagonals of the cost matrices between blocks of rows. A block
    computes block**2 entries for block diagonal ones; 25 rows took a third
    of the time of 100."""
    return np.concatenate([
        np.diag(_weighted(w, *_components(task, *(v[lo:lo + block] for v in (*A, *B)), "symmetrized")))
        for lo in range(0, len(A[0]), block)
    ])


def test_criterion_3_metric_axioms_symmetrized():
    rng = np.random.default_rng(3)
    w = GroundCostWeights(0.25, 0.35, 0.4)  # all strictly positive
    violations = 0
    for family in ("topk", "shortest_path", "inventory"):
        task, sample = _triplet_pools(family, rng)
        # 10000 rounds, drawn in order: a free pair, then a label vector and
        # a triplet sharing it
        rounds = []
        for _ in range(10000):
            s1, s2 = sample(), sample()
            y = sample()[1]
            rounds.append((s1, s2, sample(y), sample(y), sample(y)))
        s1, s2, t1, t2, t3 = ([np.array(v) for v in zip(*column)] for column in zip(*rounds))
        # non-negativity / symmetry / identity on a free pair
        c12, c21 = _paired_costs(task, w, s1, s2), _paired_costs(task, w, s2, s1)
        violations += np.count_nonzero((c12 < -1e-9) | (np.abs(c12 - c21) > 1e-9))
        violations += np.count_nonzero(_paired_costs(task, w, s1, s1) > 1e-9)
        # triangle inequality with a shared label vector
        d13, d12, d23 = (_paired_costs(task, w, a, b) for a, b in ((t1, t3), (t1, t2), (t2, t3)))
        violations += np.count_nonzero(d13 > d12 + d23 + 1e-9)
        # fixed-label l_g triangle inequality independently
        g1, g2, g3 = (objective_rows(task, t[2], t1[1]) for t in (t1, t2, t3))
        violations += np.count_nonzero(np.abs(g1 - g3) > np.abs(g1 - g2) + np.abs(g2 - g3) + 1e-9)
    report(3, "metric axioms (symmetrized mode), 10000 triplets per family",
           violations == 0, f"{violations} violations")


def _brute_force_path_cost(task, y):
    p = task.params["p"]
    cost = y.reshape(p, p)
    moves = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    best = [np.inf]

    def dfs(i, j, acc, seen):
        if acc >= best[0]:
            return
        if (i, j) == (p - 1, p - 1):
            best[0] = acc
            return
        for di, dj in moves:
            ni, nj = i + di, j + dj
            if 0 <= ni < p and 0 <= nj < p and (ni, nj) not in seen:
                seen.add((ni, nj))
                dfs(ni, nj, acc + cost[ni, nj], seen)
                seen.remove((ni, nj))

    dfs(0, 0, cost[0, 0], {(0, 0)})
    return best[0]


def test_criterion_4_oracle_optimality():
    rng = np.random.default_rng(4)
    ok = True
    detail = []

    # top-K exhaustive, N <= 8, K <= 3
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 3) + 1))
        t = topk_task(n, k)
        y = rng.normal(0.0, 5.0, n)
        best = max(
            sum(y[i] for i in idx) for idx in itertools.combinations(range(n), k)
        )
        ok &= abs(objective_rows(t, oracle_batch(t, y[None])[0], y) - best) < 1e-9
    detail.append("topk")

    # shortest-path exhaustive, p <= 4, 100 random fields
    for _ in range(100):
        p = int(rng.integers(2, 5))
        t = shortest_path_task(p)
        y = rng.uniform(0.8, 9.2, p * p)
        ok &= abs(-objective_rows(t, oracle_batch(t, y[None])[0], y) - _brute_force_path_cost(t, y)) < 1e-9
    detail.append("shortest_path")

    # inventory vs 1e-4 grid search, 50 instances
    t = inventory_task()
    demands = np.asarray(t.params["demand_values"])
    zs = np.arange(0.0, demands.max() + 1.0, 1e-4)
    params = t.params["inventory_params"]
    under = np.maximum(demands[None, :] - zs[:, None], 0.0)
    over = np.maximum(zs[:, None] - demands[None, :], 0.0)
    table = (
        params.c0 * zs[:, None]
        + 0.5 * params.q0 * zs[:, None] ** 2
        + params.cb * under + 0.5 * params.qb * under**2
        + params.ch * over + 0.5 * params.qh * over**2
    )
    for _ in range(50):
        probs = rng.dirichlet(np.ones(5))
        z = oracle_batch(t, probs[None])[0]
        grid_best = (table @ probs).min()
        ok &= -objective_rows(t, z, probs) <= grid_best + 1e-3
    detail.append("inventory-grid")

    # 1-D reduction vs the full joint QP, KKT-certified, 20 instances
    worst_qp = worst_kkt = 0.0
    for _ in range(20):
        probs = rng.dirichlet(np.ones(5))
        z_reduced = oracle_batch(t, probs[None])[0, 0]
        z_qp, kkt = solve_inventory_qp_kkt(params, demands, probs)
        worst_qp = max(worst_qp, abs(z_reduced - z_qp))
        worst_kkt = max(worst_kkt, kkt)
    ok &= worst_kkt < 1e-5 and worst_qp < 1e-5
    detail.append(f"qp gap {worst_qp:.1e}, kkt {worst_kkt:.1e}")

    report(4, "oracle optimality (all tasks)", ok, ", ".join(detail))


def test_criterion_5_motivating_example():
    t0 = time.time()
    task = topk_task(25, 1)
    d_a = gen_topk(0.0, n_instances=50, seed=16)
    d_b = gen_topk(1.2, n_instances=50, seed=17)
    d_c = gen_topk(0.65, n_instances=50, seed=18)
    theta_a = train_regret_min(task, d_a, budget=5000, seed=0)
    theta_b = train_regret_min(task, d_b, budget=5000, seed=0)
    regret_a = mean_regret(task, theta_a, d_c)
    regret_b = mean_regret(task, theta_b, d_c)

    fl_ac, fl_bc = feature_label_pooled_distances([d_a, d_b], d_c)
    fl_rel = abs(fl_ac - fl_bc) / max(fl_ac, fl_bc)

    w = GroundCostWeights(0.5, 0.0, 0.5)  # alpha_w >= 0.5, as-written mode
    d_ac = decision_aware_distance(d_a, d_c, w)
    d_bc = decision_aware_distance(d_b, d_c, w)

    elapsed = time.time() - t0
    ok = (
        regret_a < 0.5
        and 2.0 <= regret_b <= 6.0
        and fl_rel < 0.05
        and d_ac < 0.8 * d_bc
        and elapsed < 300.0
    )
    report(5, "motivating example (regrets, distances)", ok,
           f"rA={regret_a:.3f} rB={regret_b:.3f} fl_rel={fl_rel:.4f} "
           f"ratio={d_ac / d_bc:.3f} {elapsed:.0f}s")


def test_criterion_6_weight_sweep_gap():
    t0 = time.time()
    task = topk_task(25, 1)
    gammas = np.linspace(0.0, 1.3, 8)
    sources = [gen_topk(float(g), n_instances=50, seed=100 + i)
               for i, g in enumerate(gammas)]
    target = gen_topk(0.65, n_instances=50, seed=18)
    rows, _ = weight_sweep(task, sources, target, grid_resolution=10,
                           budget=5000, seed=0)
    best_with = max(r2 for w, r2 in rows if w.alpha_w > 0)
    best_without = max(r2 for w, r2 in rows if w.alpha_w == 0)
    elapsed = time.time() - t0
    gap = best_with - best_without
    report(6, "weight sweep: decision component lifts R-squared",
           gap >= 0.1 and elapsed < 900.0,
           f"best with {best_with:.3f}, without {best_without:.3f}, {elapsed:.0f}s")


def test_criterion_7_label_decision_correlation_contrast():
    inv_a = gen_inventory(mean_shift_seed=0, theta_seed=0, n_instances=50)
    inv_b = gen_inventory(mean_shift_seed=1, theta_seed=0, n_instances=50)
    _, L, W = component_matrices(inv_a, inv_b, "as-written")
    corr_inv = float(np.corrcoef(L.ravel(), W.ravel())[0, 1])

    g_a = gen_grid(class_cost_seed=0, map_seed=0, n_instances=50)
    g_b = gen_grid(class_cost_seed=1, map_seed=0, n_instances=50)
    _, L, W = component_matrices(g_a, g_b, "as-written")
    corr_grid = float(np.corrcoef(L.ravel(), W.ravel())[0, 1])

    report(7, "label-decision correlation contrast",
           corr_inv >= 0.8 and corr_grid <= 0.6,
           f"inventory {corr_inv:.3f}, grid {corr_grid:.3f}")


def test_criterion_8_empirical_bound_suite():
    t0 = time.time()
    task = topk_task(5, 1)
    k1, k2 = default_lipschitz_constants(task, 5, seed=0)
    rng = np.random.default_rng(77)
    holds = 0
    for _ in range(100):
        src = gen_topk(float(rng.uniform(0.0, 1.3)), n_resources=5, n_instances=20,
                       seed=int(rng.integers(1_000_000)))
        tgt = gen_topk(float(rng.uniform(0.0, 1.3)), n_resources=5, n_instances=20,
                       seed=int(rng.integers(1_000_000)))
        f = PredictiveModel("linear", rng.normal(0.0, 1.0, 2))
        f_tilde = PredictiveModel("linear", rng.normal(0.0, 1.0, 2))
        lam = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        holds += evaluate_bound(task, f, f_tilde, src, tgt, lam, k1, k2).holds
    elapsed = time.time() - t0
    report(8, "empirical adaptation bound holds",
           holds == 100 and elapsed < 300.0, f"{holds}/100, {elapsed:.0f}s")


def _run_cli(args, cwd):
    """Run `python -m ptodist.cli` in `cwd`; return (exit code, stderr).

    The child imports the same `ptodist` as this process: the package's
    parent directory goes first on an absolute `PYTHONPATH`, since a relative
    entry (e.g. `PYTHONPATH=src`) would resolve against `cwd` instead.
    """
    env = os.environ.copy()
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(ptodist.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ptodist.cli"] + args,
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stderr


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=3\nbudget=200\nresolution=2\ninstances=8\n")

    def run(index):
        # one run's commands, in order, in its own directory; the runs are
        # independent, so they go on three threads at once
        d = tmp_path / f"run{index}"
        d.mkdir()

        def cli(args, rc=0):
            code, stderr = _run_cli(args, d)
            tail = "\n".join(stderr.splitlines()[-10:])
            assert code == rc, f"ptodist {' '.join(args)}: exit {code}\n{tail}"

        cli(["gen", "--family", "topk", "--gamma", "0.0", "--instances", "8",
             "--seed", "1", "--out", "a.plds"])
        cli(["gen", "--family", "topk", "--gamma", "1.2", "--instances", "8",
             "--seed", "2", "--out", "b.plds"])
        cli(["gen", "--family", "topk", "--gamma", "0.65", "--instances", "8",
             "--seed", "3", "--out", "c.plds"])
        cli(["gen", "--family", "grid", "--p", "5", "--instances", "4",
             "--cost-seed", "1", "--map-seed", "2", "--out", "g.plds"])
        cli(["gen", "--family", "inventory", "--instances", "5",
             "--mean-seed", "1", "--theta-seed", "2", "--out", "i.plds"])
        cli(["dist", "a.plds", "c.plds", "--breakdown", "breakdown.csv"])
        cli(["transfer", "--source", "a.plds", "--source", "b.plds",
             "--target", "c.plds", "--budget", "200", "--out", "transfer.csv"])
        cli(["gen", "--family", "topk", "--gamma", "0.4", "--instances", "8",
             "--seed", "4", "--out", "d.plds"])
        cli(["sweep", "--source", "a.plds", "--source", "b.plds", "--source",
             "d.plds", "--target", "c.plds", "--resolution", "2",
             "--budget", "200", "--out", "sweep.csv"])
        cli(["bound", "--source", "a.plds", "--target", "c.plds",
             "--budget", "200", "--out", "bound.csv"])
        cli(["repro", "--config", str(cfg), "--out-dir", "repro_out"])

        h = hashlib.sha256()
        for f in sorted(d.rglob("*")):
            if f.is_file():
                h.update(f.relative_to(d).as_posix().encode())
                h.update(f.read_bytes())
        return h.hexdigest()

    with ThreadPoolExecutor(3) as pool:
        digests = list(pool.map(run, range(3)))
    report(9, "CLI determinism across 3 runs", len(set(digests)) == 1,
           digests[0][:12])


def test_criterion_10_round_trip_io(tmp_path):
    rng = np.random.default_rng(10)
    ok = True
    for i in range(50):
        family = i % 3
        if family == 0:
            ds = gen_topk(float(rng.uniform(0.0, 1.3)), n_resources=8,
                          n_instances=5, seed=int(rng.integers(1_000_000)))
        elif family == 1:
            ds = gen_grid(class_cost_seed=int(rng.integers(1_000_000)),
                          map_seed=int(rng.integers(1_000_000)), p=5, n_instances=4)
        else:
            ds = gen_inventory(mean_shift_seed=int(rng.integers(1_000_000)),
                               theta_seed=int(rng.integers(1_000_000)),
                               n_instances=4, seed=int(rng.integers(1_000_000)))
        path = tmp_path / f"ds{i}.plds"
        write_dataset(ds, path)
        back = read_dataset(path)
        ok &= back.task == ds.task and back.provenance == ds.provenance
        for sa, sb in zip(ds.samples, back.samples):
            ok &= (np.array_equal(sa.x, sb.x) and np.array_equal(sa.y, sb.y)
                   and np.array_equal(sa.z, sb.z))
        path2 = tmp_path / f"ds{i}_again.plds"
        write_dataset(back, path2)
        ok &= path.read_bytes() == path2.read_bytes()
    report(10, "bit-exact round-trip I/O, 50 datasets", ok)
