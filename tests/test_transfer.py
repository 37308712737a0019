"""Tests for training, transferability, weight sweeps, and the bound check."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from _reference import pooled_cost_broadcast, pooled_distance_broadcast, random_coupling
from ptodist import datagen, transfer
from ptodist.datagen import PtODataset, gen_grid, gen_inventory, gen_topk, score_probs
from ptodist.ground_cost import GroundCostWeights, decision_aware_distance, pairwise_cost_matrix
from ptodist.ot_core import Marginal, solve_exact
from ptodist.tasks import objective_rows, oracle_batch, topk_task
from ptodist.transfer import (
    BoundReport,
    PredictiveModel,
    evaluate_bound,
    feature_label_pooled_distances,
    mean_regret,
    model_dim,
    predict_rows,
    rsquared,
    simplex_grid,
    train_regret_min,
    transfer_records,
    weight_sweep,
)


def linear_topk_dataset(slope, intercept, n_resources=6, n_instances=10, seed=0):
    """Labels are an exact linear function of features: a realizable case."""
    task = topk_task(n_resources, 1)
    rng = np.random.default_rng(seed)
    X = np.stack([np.sort(rng.uniform(-1.0, 1.0, n_resources)) for _ in range(n_instances)])
    Y = slope * X + intercept
    Z = oracle_batch(task, Y)
    return task, PtODataset(task=task, X=X, Y=Y, Z=Z, provenance={"generator": "linear"})


def test_model_validation():
    with pytest.raises(ValueError):
        PredictiveModel("quadratic", np.zeros(2))
    with pytest.raises(ValueError):
        PredictiveModel("linear", np.array([np.nan, 0.0]))


def test_mean_regret_perfect_model_is_zero():
    task, ds = linear_topk_dataset(2.0, 1.0)
    model = PredictiveModel("linear", np.array([2.0, 1.0]))
    assert mean_regret(task, model, ds) == 0.0


def per_sample_mean_regret(task, theta, dataset):
    """Mean regret one sample at a time, predictions written out per instance."""
    total = 0.0
    for s in dataset.samples:
        if task.kind == "inventory":
            mat = theta.reshape(len(task.params["demand_values"]), s.x.size + 1)
            y_hat = score_probs(mat[:, :-1] @ s.x + mat[:, -1])
        else:
            y_hat = theta[0] * s.x + theta[1]
            if task.kind == "shortest_path":
                y_hat = np.maximum(y_hat, 0.0)  # grid cell costs are clipped at 0
        # the quality under s.y of the oracle's decision for s.y, then for y_hat
        best, chosen = (float(objective_rows(task, oracle_batch(task, v[None])[0], s.y)) for v in (s.y, y_hat))
        total += abs(best - chosen)
    return total / len(dataset.samples)


def test_mean_regret_matches_per_sample_reference():
    rng = np.random.default_rng(9)
    topk = gen_topk(0.65, n_instances=50, seed=8)  # big enough that summation order shows
    inv = gen_inventory(1, 2, n_features=2, n_instances=25, seed=3)
    grid = gen_grid(1, 2, p=6, n_instances=10)
    # the same features and labels under K=3
    k3 = PtODataset(topk_task(25, 3), topk.X, topk.Y, oracle_batch(topk_task(25, 3), topk.Y), topk.provenance)
    for _ in range(5):
        theta = rng.normal(0.0, 2.0, 2)
        got = mean_regret(topk.task, PredictiveModel("linear", theta), topk)
        assert got == per_sample_mean_regret(topk.task, theta, topk)  # K=1: bit for bit
        got = mean_regret(k3.task, PredictiveModel("linear", theta), k3)
        ref = per_sample_mean_regret(k3.task, theta, k3)
        assert abs(got - ref) <= 1e-12 * abs(ref)
        # a dataset is scored under its own task only
        with pytest.raises(ValueError, match="'topk' task param 'k' differs: 3 vs 1"):
            mean_regret(k3.task, PredictiveModel("linear", theta), topk)
        theta = rng.normal(0.0, 1.0, 15)
        got = mean_regret(inv.task, PredictiveModel("linear", theta), inv)
        ref = per_sample_mean_regret(inv.task, theta, inv)
        assert abs(got - ref) <= 1e-12 * abs(ref)
        # predictions below zero are clipped, not an error
        theta = rng.normal(0.0, 2.0, 2)
        got = mean_regret(grid.task, PredictiveModel("linear", theta), grid)
        assert got == per_sample_mean_regret(grid.task, theta, grid)


def test_train_budget_validation_and_budget_one():
    task, ds = linear_topk_dataset(2.0, 1.0)
    with pytest.raises(ValueError):
        train_regret_min(task, ds, budget=0)
    model = train_regret_min(task, ds, budget=1)
    assert np.array_equal(model.theta, np.zeros(2))  # initial point untouched


def test_train_realizable_case_reaches_zero_regret():
    task, ds = linear_topk_dataset(3.0, -0.5, n_instances=15, seed=2)
    model = train_regret_min(task, ds, budget=500, seed=0)
    assert mean_regret(task, model, ds) < 1e-6


def test_train_competitive_with_random_search():
    task = topk_task(25, 1)
    ds = gen_topk(0.65, n_instances=20, seed=5)
    trained = train_regret_min(task, ds, budget=2000, seed=0)
    trained_regret = mean_regret(task, trained, ds)
    rng = np.random.default_rng(123)
    best_random = min(
        mean_regret(task, PredictiveModel("linear", rng.normal(0.0, 2.0, 2)), ds)
        for _ in range(3000)
    )
    assert trained_regret <= 1.1 * best_random + 1e-9


def test_transferability_self_is_zero():
    task = topk_task(25, 1)
    ds = gen_topk(0.65, n_instances=15, seed=3)
    (rec,) = transfer_records(task, [ds], ds, budget=800, seed=0)
    # identical training runs on source and target give identical regrets
    assert rec.transferability is not None
    assert abs(rec.transferability) <= 0.05


def test_transferability_sign_convention():
    task = topk_task(25, 1)
    target = gen_topk(0.65, n_instances=20, seed=11)
    near = gen_topk(0.6, n_instances=20, seed=12)
    far = gen_topk(1.3, n_instances=20, seed=13)
    rec_near, rec_far = transfer_records(task, [near, far], target, budget=1500, seed=0)
    assert rec_near.transferability > rec_far.transferability
    assert rec_far.transferability < 0.0  # transfers worse than target-trained


def test_rsquared_examples():
    assert abs(rsquared([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)]) - 1.0) < 1e-12
    assert rsquared([(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)]) == 0.0
    assert abs(rsquared([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)]) - 0.75) < 1e-12
    with pytest.raises(ValueError):
        rsquared([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])  # degenerate x
    with pytest.raises(ValueError):
        rsquared([(0.0, 0.0), (1.0, 1.0)])  # too few points


def test_rsquared_affine_invariance_in_x():
    rng = np.random.default_rng(15)
    pts = rng.normal(0.0, 1.0, (10, 2))
    base = rsquared(pts)
    scaled = rsquared(np.column_stack([3.0 * pts[:, 0] - 7.0, pts[:, 1]]))
    assert abs(base - scaled) < 1e-9


def test_simplex_grid_counts():
    assert len(simplex_grid(2)) == 6
    assert len(simplex_grid(10)) == 66
    for w in simplex_grid(4):
        assert abs(w.alpha_x + w.alpha_y + w.alpha_w - 1.0) < 1e-12
    with pytest.raises(ValueError):
        simplex_grid(0)


def test_weight_sweep_corners_match_single_component_distances():
    task = topk_task(10, 1)
    sources = [gen_topk(g, n_resources=10, n_instances=8, seed=20 + i)
               for i, g in enumerate((0.0, 0.5, 1.0))]
    target = gen_topk(0.65, n_resources=10, n_instances=8, seed=30)
    rows, records = weight_sweep(task, sources, target, grid_resolution=2, budget=300, seed=0)
    assert len(rows) == 6
    assert len(records) == 3
    # recompute the R^2 at the feature-only corner independently
    transfers = [r.transferability for r in records]
    w_x = GroundCostWeights(1.0, 0.0, 0.0)
    dists = [decision_aware_distance(s, target, w_x) for s in sources]
    corner_r2 = dict((tuple((w.alpha_x, w.alpha_y, w.alpha_w)), r2) for w, r2 in rows)[(1.0, 0.0, 0.0)]
    assert abs(corner_r2 - rsquared(list(zip(dists, transfers)))) < 1e-9


def test_weight_sweep_trains_target_once(monkeypatch):
    task = topk_task(10, 1)
    sources = [gen_topk(g, n_resources=10, n_instances=8, seed=40 + i)
               for i, g in enumerate((0.0, 0.5, 1.0, 1.3))]
    target = gen_topk(0.65, n_resources=10, n_instances=8, seed=50)
    trained = []
    train = transfer.train_regret_min

    def counting_train(task, dataset, **kwargs):
        trained.append(dataset)
        return train(task, dataset, **kwargs)

    monkeypatch.setattr(transfer, "train_regret_min", counting_train)
    _, records = weight_sweep(task, sources, target, grid_resolution=2, budget=200, seed=1)
    assert len(trained) == len(sources) + 1
    assert sum(d is target for d in trained) == 1
    monkeypatch.undo()
    for source, rec in zip(sources, records):
        assert [rec] == transfer_records(task, [source], target, budget=200, seed=1)


def test_weight_sweep_needs_three_sources():
    task = topk_task(5, 1)
    ds = gen_topk(0.0, n_resources=5, n_instances=5, seed=1)
    with pytest.raises(ValueError):
        weight_sweep(task, [ds], ds, grid_resolution=2)


def test_weight_sweep_rejects_a_bad_grid_before_training(monkeypatch):
    task = topk_task(5, 1)
    ds = gen_topk(0.0, n_resources=5, n_instances=5, seed=1)
    trained = []
    monkeypatch.setattr(transfer, "train_regret_min", lambda *args, **kwargs: trained.append(args))
    with pytest.raises(ValueError, match="grid resolution must be >= 1"):
        weight_sweep(task, [ds, ds, ds], ds, grid_resolution=0)
    assert trained == []


def test_transfer_layer_rejects_a_task_the_data_is_not_of():
    k1, k3 = gen_topk(0.0, n_instances=5, seed=1), gen_topk(0.0, n_instances=5, k=3, seed=1)
    with pytest.raises(ValueError, match="'k' differs: 1 vs 3"):
        transfer_records(k1.task, [k1, k3], k1, budget=10)
    with pytest.raises(ValueError, match="'k' differs: 3 vs 1"):
        train_regret_min(k3.task, k1, budget=10)
    m = PredictiveModel("linear", np.zeros(2))
    with pytest.raises(ValueError, match="'k' differs: 3 vs 1"):
        evaluate_bound(k3.task, m, m, k1, k1, lam=1.0, k1=1.0, k2=1.0)
    with pytest.raises(ValueError, match="label width 7 is not the task's 5"):
        transfer.default_lipschitz_constants(topk_task(5, 1), 7)


def test_feature_label_pooled_distance_basics():
    a = gen_topk(0.0, n_resources=5, n_instances=4, seed=1)
    b = gen_topk(1.0, n_resources=5, n_instances=4, seed=2)
    d_aa, d_ba = feature_label_pooled_distances([a, b], a)
    assert d_aa < 1e-12
    (d,) = feature_label_pooled_distances([a], b)
    assert d > 0.0
    assert abs(d - d_ba) < 1e-9
    assert feature_label_pooled_distances([], a) == []


def test_feature_label_pooled_distance_matches_broadcast_reference():
    families = [
        ([gen_topk(g, n_instances=12, seed=s) for g, s in ((0.0, 1), (1.2, 3), (0.3, 4))],
         gen_topk(0.65, n_instances=12, seed=2)),
        ([gen_grid(c, 5, p=5, n_instances=10) for c in (3, 6, 7)], gen_grid(4, 5, p=5, n_instances=10)),
    ]
    for sources, target in families:
        for batch in (1, 2, 3):
            got = feature_label_pooled_distances(sources[:batch], target)
            assert got == [pooled_distance_broadcast(s, target, 0.5, 0.5) for s in sources[:batch]]
    # the cost alone, also at repro's default size: two 50 x 25 top-K datasets
    families.append(([gen_topk(0.0, n_instances=50, seed=8)], gen_topk(0.65, n_instances=50, seed=10)))
    for sources, target in families:
        for s in sources:
            got = transfer._pooled_cost(s.X.ravel(), s.Y.ravel(), target.X.ravel(), target.Y.ravel())
            assert np.array_equal(got, pooled_cost_broadcast(s, target, 0.5, 0.5))


def test_feature_label_pooled_distances_need_equal_pooled_sizes(monkeypatch):
    # another pooled size is rejected before any cost is built or thread started
    target = gen_topk(0.65, n_resources=5, n_instances=6, seed=2)
    sources = [gen_topk(0.0, n_resources=5, n_instances=6, seed=1),
               gen_topk(1.2, n_resources=5, n_instances=4, seed=3)]

    def no_cost(*args):
        raise AssertionError("a pooled cost was built")

    monkeypatch.setattr(transfer, "_pooled_cost", no_cost)
    threads = threading.active_count()
    with pytest.raises(ValueError) as info:
        feature_label_pooled_distances(sources, target)
    assert str(info.value) == ("pooled feature-label distance needs equal pooled sizes, "
                               "got a source of 20 against a target of 30")
    assert threading.active_count() == threads


def test_feature_label_pooled_distance_peak_memory():
    # each cost becomes its plan: one n x n array per source, and no label
    # temporary beside it
    a = gen_topk(0.0, n_instances=32, seed=1)
    b = gen_topk(0.65, n_instances=32, seed=2)
    c = gen_topk(1.2, n_instances=32, seed=3)
    n = a.X.size
    feature_label_pooled_distances([a], a)  # imports scipy
    for sources, bound in (([b], 1.25), ([b, c], 2.25)):
        tracemalloc.start()
        try:
            feature_label_pooled_distances(sources, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * n * n * a.X.itemsize, len(sources)


def estimate_phi(task, f, plan, dataset_a, dataset_b, lam):
    """The bound's phi: the mass fraction of coupled pairs whose predictions
    under ``f`` differ by more than lambda times their feature distance."""
    I, J = np.nonzero(plan.matrix > 0)
    pred_a, pred_b = (predict_rows(task, f.theta, d.X) for d in (dataset_a, dataset_b))
    gaps = np.linalg.norm(pred_a[I] - pred_b[J], axis=1)
    dx = np.linalg.norm(dataset_a.X[I] - dataset_b.X[J], axis=1)
    violating = plan.matrix[I, J][gaps > lam * dx + 1e-12].sum()
    return float(min(max(violating / plan.matrix.sum(), 0.0), 1.0))


def test_estimate_phi_properties():
    task = topk_task(5, 1)
    a = gen_topk(0.0, n_resources=5, n_instances=6, seed=4)
    b = gen_topk(1.0, n_resources=5, n_instances=6, seed=5)
    rng = np.random.default_rng(0)
    plan = random_coupling(Marginal.uniform(6), Marginal.uniform(6), rng)
    f = PredictiveModel("linear", np.array([2.0, 0.5]))
    phis = [estimate_phi(task, f, plan, a, b, lam) for lam in (0.25, 0.5, 1.0, 2.0, 1e6)]
    assert all(0.0 <= p <= 1.0 for p in phis)
    assert all(phis[i] >= phis[i + 1] - 1e-12 for i in range(len(phis) - 1))
    assert phis[-1] == 0.0  # huge lambda
    const = PredictiveModel("linear", np.array([0.0, 3.0]))
    assert estimate_phi(task, const, plan, a, b, 0.1) == 0.0


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
def test_estimate_phi_rejects_a_lambda_that_is_not_positive_and_finite(lam):
    # a bad lambda anywhere in a bound's lambda grid is rejected before any work
    task = topk_task(5, 1)
    a = gen_topk(0.0, n_resources=5, n_instances=4, seed=4)
    f = PredictiveModel("linear", np.array([2.0, 0.5]))
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        transfer._bound_reports(task, f, f, a, a, [1.0, lam, 2.0], 1.0, 1.0)


def reference_bound(task, f, f_tilde, source, target, lam, k1, k2):
    """The bound report from datasets that carry the decisions the bound compares:
    the target's from the model's predictions, the source's from its labels."""
    lifted_t = PtODataset(task, target.X, target.Y, oracle_batch(task, predict_rows(task, f.theta, target.X)),
                          provenance={"lifted": "model-induced decisions"})
    lifted_s = PtODataset(task, source.X, source.Y, oracle_batch(task, source.Y),
                          provenance={"lifted": "oracle decisions"})
    alpha_w = 1.0 / (lam * k1 + k2 + 1.0)
    cost = pairwise_cost_matrix(lifted_t, lifted_s, GroundCostWeights(lam * k1 * alpha_w, k2 * alpha_w, alpha_w))
    plan, d_ot = solve_exact(cost, Marginal.uniform(len(lifted_t)), Marginal.uniform(len(lifted_s)))
    I, J = np.nonzero(plan.matrix > 0)
    gaps = predict_rows(task, f_tilde.theta, lifted_t.X)[I] - predict_rows(task, f_tilde.theta, lifted_s.X)[J]
    big_l = float(np.linalg.norm(gaps, axis=1).max())
    phi = estimate_phi(task, f_tilde, plan, lifted_t, lifted_s, lam)
    return BoundReport(
        lhs=mean_regret(task, f, target),
        joint_regret_source=mean_regret(task, f_tilde, source),
        joint_regret_target=mean_regret(task, f_tilde, target),
        lipschitz_term=k1 * big_l * phi,
        scaled_ot_term=d_ot / alpha_w,
        k1=k1, k2=k2, lam=lam, alpha_w=alpha_w, phi=phi, envelope=big_l,
    )


BOUND_PAIRS = {
    "topk": lambda: (gen_topk(0.1, n_resources=5, n_instances=8, seed=1),
                     gen_topk(1.1, n_resources=5, n_instances=8, seed=2)),
    # unequal sizes: the OT problem goes to the LP, not the assignment
    "inventory": lambda: (gen_inventory(1, 2, n_features=2, n_instances=10, seed=3),
                          gen_inventory(4, 2, n_features=2, n_instances=12, seed=5)),
    "grid": lambda: (gen_grid(1, 2, p=4, n_instances=6), gen_grid(3, 2, p=4, n_instances=6)),
}


@pytest.mark.parametrize("family", sorted(BOUND_PAIRS))
def test_evaluate_bound_matches_lifted_dataset_reference(family):
    source, target = BOUND_PAIRS[family]()
    task = source.task
    rng = np.random.default_rng(8)
    dim = model_dim(task, source.X.shape[1])
    # phi is 0 or 1 at the first three; at lambda 0.05 it is 2/3 on grid
    for lam, k1, k2 in ((0.5, 3.0, 3.0), (2.0, 30.0, 30.0), (4.0, 1.0, 7.0), (0.05, 3.0, 3.0)):
        f, f_tilde = (PredictiveModel("linear", rng.normal(0.0, 1.0, dim)) for _ in range(2))
        rep = evaluate_bound(task, f, f_tilde, source, target, lam, k1, k2)
        ref = reference_bound(task, f, f_tilde, source, target, lam, k1, k2)
        for field in dataclasses.fields(BoundReport):
            assert getattr(rep, field.name) == getattr(ref, field.name), field.name
        assert (rep.rhs, rep.holds) == (ref.rhs, ref.holds)


def test_evaluate_bound_rejects_mixed_task_families():
    source = gen_topk(0.5, n_resources=5, n_instances=6, seed=1)
    target = gen_inventory(1, 2, n_instances=6, seed=2)
    m = PredictiveModel("linear", np.zeros(2))
    with pytest.raises(ValueError, match="task kinds differ: 'topk' vs 'inventory'"):
        evaluate_bound(source.task, m, m, source, target, lam=1.0, k1=1.0, k2=1.0)


def test_evaluate_bound_builds_no_dataset(monkeypatch):
    source, target = BOUND_PAIRS["topk"]()
    task = source.task
    f = PredictiveModel("linear", np.array([-1.0, 0.5]))
    calls = {"feasible_rows": 0, "PtODataset": 0}
    feasible, post_init = datagen.feasible_rows, PtODataset.__post_init__

    def counting_feasible(*args):
        calls["feasible_rows"] += 1
        return feasible(*args)

    def counting_post_init(self):
        calls["PtODataset"] += 1
        post_init(self)

    monkeypatch.setattr(datagen, "feasible_rows", counting_feasible)
    monkeypatch.setattr(PtODataset, "__post_init__", counting_post_init)
    evaluate_bound(task, f, f, source, target, 1.0, 2.0, 2.0)
    assert calls == {"feasible_rows": 0, "PtODataset": 0}
    # the counters see a dataset being built: one feasibility check for all its rows
    PtODataset(task, target.X, target.Y, target.Z, provenance={"copy": "target"})
    assert calls == {"feasible_rows": 1, "PtODataset": 1}


@pytest.mark.parametrize("family", sorted(BOUND_PAIRS))
def test_bound_reports_over_a_lambda_grid_share_the_lambda_free_work(family, monkeypatch):
    source, target = BOUND_PAIRS[family]()
    task = source.task
    rng = np.random.default_rng(9)
    f, f_tilde = (PredictiveModel("linear", rng.normal(0.0, 1.0, model_dim(task, source.X.shape[1])))
                  for _ in range(2))
    lams = [0.05, 0.5, 1.0, 4.0]
    single = [evaluate_bound(task, f, f_tilde, source, target, lam, 3.0, 2.0) for lam in lams]
    calls = []
    oracle = transfer.oracle_batch

    def counting_oracle(*args):
        calls.append(len(args[1]))
        return oracle(*args)

    monkeypatch.setattr(transfer, "oracle_batch", counting_oracle)
    assert transfer._bound_reports(task, f, f_tilde, source, target, lams, 3.0, 2.0) == single
    grid_calls = list(calls)
    calls.clear()
    evaluate_bound(task, f, f_tilde, source, target, lams[0], 3.0, 2.0)
    # one oracle call decides f's target rows and f_tilde's target and source rows;
    # the source's own decisions come from the dataset: the same call for 4 lambdas as for 1
    assert grid_calls == calls == [2 * len(target) + len(source)]


@pytest.mark.parametrize("family", sorted(BOUND_PAIRS))
def test_bound_regrets_are_mean_regrets_bit_for_bit(family):
    source, target = BOUND_PAIRS[family]()
    task = source.task
    rng = np.random.default_rng(10)
    for _ in range(3):
        f, f_tilde = (PredictiveModel("linear", rng.normal(0.0, 1.0, model_dim(task, source.X.shape[1])))
                      for _ in range(2))
        for rep in transfer._bound_reports(task, f, f_tilde, source, target, [0.5, 2.0], 3.0, 2.0):
            assert rep.lhs == mean_regret(task, f, target)
            assert rep.joint_regret_source == mean_regret(task, f_tilde, source)
            assert rep.joint_regret_target == mean_regret(task, f_tilde, target)


def test_evaluate_bound_perfect_model_self_pair():
    task, ds = linear_topk_dataset(2.0, 0.0, n_instances=8, seed=7)
    perfect = PredictiveModel("linear", np.array([2.0, 0.0]))
    rep = evaluate_bound(task, perfect, perfect, ds, ds, lam=1.0, k1=1.0, k2=1.0)
    assert rep.lhs == 0.0
    assert rep.holds
    assert abs(rep.alpha_w * (1.0 * rep.k1 + rep.k2 + 1.0) - 1.0) < 1e-12


def test_evaluate_bound_parameter_validation():
    task, ds = linear_topk_dataset(1.0, 0.0)
    m = PredictiveModel("linear", np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        evaluate_bound(task, m, m, ds, ds, lam=0.0, k1=1.0, k2=1.0)
    with pytest.raises(ValueError):
        evaluate_bound(task, m, m, ds, ds, lam=1.0, k1=0.0, k2=1.0)


@pytest.mark.parametrize("name", ["lam", "k1", "k2"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
def test_evaluate_bound_rejects_nonfinite_parameters(name, value):
    task, ds = linear_topk_dataset(1.0, 0.0)
    m = PredictiveModel("linear", np.array([1.0, 0.0]))
    params = {"lam": 1.0, "k1": 1.0, "k2": 1.0, name: value}
    shown = "lambda" if name == "lam" else name
    with pytest.raises(ValueError, match=f"{shown} must be positive and finite"):
        evaluate_bound(task, m, m, ds, ds, **params)


def test_evaluate_bound_randomized_small_instances():
    from ptodist.transfer import default_lipschitz_constants

    task = topk_task(5, 1)
    k1, k2 = default_lipschitz_constants(task, 5, seed=0)
    rng = np.random.default_rng(50)
    for trial in range(10):
        src = gen_topk(float(rng.uniform(0.0, 1.3)), n_resources=5, n_instances=10,
                       seed=int(rng.integers(1_000_000)))
        tgt = gen_topk(float(rng.uniform(0.0, 1.3)), n_resources=5, n_instances=10,
                       seed=int(rng.integers(1_000_000)))
        f = PredictiveModel("linear", rng.normal(0.0, 1.0, 2))
        f_tilde = PredictiveModel("linear", rng.normal(0.0, 1.0, 2))
        lam = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        rep = evaluate_bound(task, f, f_tilde, src, tgt, lam, k1, k2)
        assert rep.holds, f"bound violated on trial {trial}: lhs={rep.lhs} rhs={rep.rhs}"
