"""Tests for the decision-aware ground cost and dataset distance."""

import itertools

import numpy as np
import pytest

from _reference import component_matrices_by_row
from ptodist.datagen import PtODataset, gen_grid, gen_inventory, gen_topk
from ptodist.ground_cost import (
    GroundCostWeights,
    Sample,
    component_matrices,
    decision_aware_distance,
    decision_quality_disparity,
    pairwise_cost_matrix,
    pto_ground_cost,
)
from ptodist.tasks import (
    InfeasibleDecisionError,
    decision_regret,
    oracle,
    topk_task,
)


def random_topk_sample(rng, task):
    n = task.params["n_resources"]
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    y = rng.normal(0.0, 3.0, n)
    return Sample(x=x, y=y, z=oracle(task, y))


def topk_dataset(rng, task, size):
    samples = [random_topk_sample(rng, task) for _ in range(size)]
    X, Y, Z = (np.stack([getattr(s, f) for s in samples]) for f in "xyz")
    return PtODataset(task=task, X=X, Y=Y, Z=Z, provenance={"generator": "test"})


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(x=np.array([]), y=np.array([1.0]), z=np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(x=np.array([[1.0]]), y=np.array([1.0]), z=np.array([1.0]))


def test_weights_validation():
    with pytest.raises(ValueError):
        GroundCostWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        GroundCostWeights(-0.2, 0.6, 0.6)
    w = GroundCostWeights(0.2, 0.3, 0.5)
    assert w.alpha_w == 0.5


def test_disparity_examples():
    t = topk_task(3, 1)
    y = np.array([3.0, 1.0, 2.0])
    z0 = np.array([1.0, 0.0, 0.0])
    z1 = np.array([0.0, 1.0, 0.0])
    assert decision_quality_disparity(t, z0, z0, y, y) == 0.0
    assert decision_quality_disparity(t, z0, z1, y, y) == 2.0


def test_disparity_recovers_regret():
    # l_g(w*(y_hat), w*(y); y, y) is exactly the decision regret
    rng = np.random.default_rng(6)
    t = topk_task(5, 2)
    for _ in range(50):
        y = rng.normal(0.0, 4.0, 5)
        y_hat = rng.normal(0.0, 4.0, 5)
        lg = decision_quality_disparity(t, oracle(t, y_hat), oracle(t, y), y, y)
        assert abs(lg - decision_regret(t, y_hat, y)) < 1e-12


def test_disparity_names_infeasible_argument():
    t = topk_task(3, 1)
    y = np.ones(3)
    good = np.array([1.0, 0.0, 0.0])
    bad = np.array([1.0, 1.0, 0.0])
    with pytest.raises(InfeasibleDecisionError, match="first"):
        decision_quality_disparity(t, bad, good, y, y)
    with pytest.raises(InfeasibleDecisionError, match="second"):
        decision_quality_disparity(t, good, bad, y, y)


def test_ground_cost_examples():
    t = topk_task(1, 1)
    s = Sample(x=np.array([0.0]), y=np.array([1.0]), z=np.array([1.0]))
    sp = Sample(x=np.array([3.0]), y=np.array([2.0]), z=np.array([1.0]))
    cb = pto_ground_cost(s, sp, GroundCostWeights(1.0, 0.0, 0.0), t)
    assert cb.total == 3.0

    cb = pto_ground_cost(s, s, GroundCostWeights(0.3, 0.3, 0.4), t)
    assert cb.total == 0.0

    t3 = topk_task(3, 1)
    y = np.array([3.0, 1.0, 2.0])
    s = Sample(x=np.zeros(3), y=y, z=np.array([1.0, 0.0, 0.0]))
    sp = Sample(x=np.zeros(3), y=y, z=np.array([0.0, 1.0, 0.0]))
    for mode in ("as-written", "symmetrized"):
        cb = pto_ground_cost(s, sp, GroundCostWeights(0.0, 0.0, 1.0), t3, mode=mode)
        assert cb.total == 2.0


def test_ground_cost_breakdown_linearity():
    rng = np.random.default_rng(14)
    t = topk_task(4, 1)
    s = random_topk_sample(rng, t)
    sp = random_topk_sample(rng, t)
    for _ in range(20):
        w = GroundCostWeights(*rng.dirichlet(np.ones(3)))
        cb = pto_ground_cost(s, sp, w, t)
        expect = w.alpha_x * cb.feature_term + w.alpha_y * cb.label_term + w.alpha_w * cb.decision_term
        assert abs(cb.total - expect) < 1e-12


def test_ground_cost_dimension_mismatch():
    t = topk_task(2, 1)
    s = Sample(x=np.zeros(2), y=np.zeros(2), z=np.array([1.0, 0.0]))
    sp = Sample(x=np.zeros(3), y=np.zeros(2), z=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="dimensions differ"):
        pto_ground_cost(s, sp, GroundCostWeights(1.0, 0.0, 0.0), t)
    with pytest.raises(ValueError, match="mode"):
        pto_ground_cost(s, s, GroundCostWeights(1.0, 0.0, 0.0), t, mode="other")


def test_symmetrized_mode_pointwise_symmetry():
    rng = np.random.default_rng(25)
    t = topk_task(4, 2)
    for _ in range(50):
        s, sp = random_topk_sample(rng, t), random_topk_sample(rng, t)
        w = GroundCostWeights(*rng.dirichlet(np.ones(3)))
        ab = pto_ground_cost(s, sp, w, t, mode="symmetrized").total
        ba = pto_ground_cost(sp, s, w, t, mode="symmetrized").total
        assert abs(ab - ba) < 1e-12


def test_fixed_label_lg_triangle_inequality():
    rng = np.random.default_rng(27)
    t = topk_task(5, 2)
    for _ in range(200):
        y = rng.normal(0.0, 5.0, 5)
        z1, z2, z3 = (oracle(t, rng.normal(0.0, 5.0, 5)) for _ in range(3))
        d13 = decision_quality_disparity(t, z1, z3, y, y)
        d12 = decision_quality_disparity(t, z1, z2, y, y)
        d23 = decision_quality_disparity(t, z2, z3, y, y)
        assert d13 <= d12 + d23 + 1e-9


def test_symmetrized_triangle_inequality_fixed_labels():
    # with a shared label vector the decision term is a fixed-label l_g, which
    # inherits the triangle inequality from | . | on objective values
    rng = np.random.default_rng(29)
    t = topk_task(4, 1)
    w = GroundCostWeights(0.3, 0.3, 0.4)
    for _ in range(300):
        y = rng.normal(0.0, 3.0, 4)
        trip = []
        for _ in range(3):
            x = np.sort(rng.uniform(-1.0, 1.0, 4))
            z = oracle(t, rng.normal(0.0, 3.0, 4))
            trip.append(Sample(x=x, y=y, z=z))
        s1, s2, s3 = trip
        d13 = pto_ground_cost(s1, s3, w, t, mode="symmetrized").total
        d12 = pto_ground_cost(s1, s2, w, t, mode="symmetrized").total
        d23 = pto_ground_cost(s2, s3, w, t, mode="symmetrized").total
        assert d13 <= d12 + d23 + 1e-9


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(33)
    t = topk_task(4, 1)
    w = GroundCostWeights(0.2, 0.3, 0.5)  # all components strictly positive
    for _ in range(50):
        s = random_topk_sample(rng, t)
        assert pto_ground_cost(s, s, w, t, mode="symmetrized").total == 0.0
        sp = random_topk_sample(rng, t)
        if not (np.array_equal(s.x, sp.x) and np.array_equal(s.y, sp.y)):
            assert pto_ground_cost(s, sp, w, t, mode="symmetrized").total > 0.0


def test_pairwise_matrix_matches_entrywise_recompute():
    rng = np.random.default_rng(35)
    t = topk_task(4, 1)
    d_a = topk_dataset(rng, t, 3)
    d_b = topk_dataset(rng, t, 4)
    w = GroundCostWeights(0.25, 0.25, 0.5)
    pairs = [
        (d_a, d_b),
        (gen_grid(1, 2, p=4, n_instances=3, length_weight=0.5),
         gen_grid(3, 2, p=4, n_instances=4, length_weight=0.5)),
        (gen_inventory(1, 2, n_instances=3, seed=1), gen_inventory(2, 2, n_instances=4, seed=2)),
    ]
    for d_a, d_b in pairs:
        for mode in ("as-written", "symmetrized"):
            M = pairwise_cost_matrix(d_a, d_b, w, mode=mode).entries
            for i, sa in enumerate(d_a.samples):
                for j, sb in enumerate(d_b.samples):
                    assert abs(M[i, j] - pto_ground_cost(sa, sb, w, d_a.task, mode=mode).total) < 1e-12


def test_component_matrices_equal_row_by_row_reference():
    pairs = [
        (gen_topk(0.0, n_instances=7, seed=1), gen_topk(1.0, n_instances=9, seed=2)),
        (gen_grid(1, 2, p=5, n_instances=6), gen_grid(3, 2, p=5, n_instances=4)),
        (gen_inventory(1, 2, n_features=3, n_instances=8, seed=1),
         gen_inventory(2, 2, n_features=3, n_instances=5, seed=2)),
    ]
    for d_a, d_b in pairs:
        for mode in ("as-written", "symmetrized"):
            expected = component_matrices_by_row(d_a.task, d_a.X, d_a.Y, d_a.Z, d_b.X, d_b.Y, d_b.Z, mode)
            for got, want in zip(component_matrices(d_a, d_b, mode), expected):
                assert np.array_equal(got, want)


def test_pairwise_matrix_diagonal_zero_for_identical_datasets():
    rng = np.random.default_rng(37)
    t = topk_task(3, 1)
    d = topk_dataset(rng, t, 2)
    M = pairwise_cost_matrix(d, d, GroundCostWeights(0.4, 0.3, 0.3)).entries
    assert np.allclose(np.diag(M), 0.0)


def test_component_matrices_combine_linearly():
    rng = np.random.default_rng(39)
    t = topk_task(4, 2)
    d_a = topk_dataset(rng, t, 3)
    d_b = topk_dataset(rng, t, 3)
    F, L, W = component_matrices(d_a, d_b)
    w = GroundCostWeights(0.1, 0.6, 0.3)
    M = pairwise_cost_matrix(d_a, d_b, w).entries
    assert np.allclose(M, 0.1 * F + 0.6 * L + 0.3 * W, atol=1e-12)


def test_distance_self_and_singleton():
    rng = np.random.default_rng(41)
    t = topk_task(3, 1)
    d = topk_dataset(rng, t, 4)
    w = GroundCostWeights(0.3, 0.3, 0.4)
    assert decision_aware_distance(d, d, w, mode="symmetrized") < 1e-12

    s1 = topk_dataset(rng, t, 1)
    s2 = topk_dataset(rng, t, 1)
    direct = pto_ground_cost(s1.samples[0], s2.samples[0], w, t).total
    assert abs(decision_aware_distance(s1, s2, w) - direct) < 1e-12


def test_distance_matches_permutation_brute_force():
    rng = np.random.default_rng(43)
    t = topk_task(3, 1)
    d_a = topk_dataset(rng, t, 4)
    d_b = topk_dataset(rng, t, 4)
    w = GroundCostWeights(0.3, 0.3, 0.4)
    M = pairwise_cost_matrix(d_a, d_b, w).entries
    best = min(
        sum(M[i, p] for i, p in enumerate(perm)) / 4
        for perm in itertools.permutations(range(4))
    )
    assert abs(decision_aware_distance(d_a, d_b, w) - best) < 1e-9


def test_distance_symmetry_in_symmetrized_mode():
    rng = np.random.default_rng(45)
    t = topk_task(3, 1)
    d_a = topk_dataset(rng, t, 4)
    d_b = topk_dataset(rng, t, 4)
    w = GroundCostWeights(0.3, 0.3, 0.4)
    ab = decision_aware_distance(d_a, d_b, w, mode="symmetrized")
    ba = decision_aware_distance(d_b, d_a, w, mode="symmetrized")
    assert abs(ab - ba) < 1e-9


def test_distance_nonnegative_and_solver_agreement():
    d_a = gen_topk(0.0, n_resources=5, n_instances=6, seed=1)
    d_b = gen_topk(1.0, n_resources=5, n_instances=6, seed=2)
    w = GroundCostWeights(0.5, 0.25, 0.25)
    exact = decision_aware_distance(d_a, d_b, w)
    sink = decision_aware_distance(d_a, d_b, w, solver="sinkhorn", epsilon=0.01)
    assert exact >= 0.0
    assert sink >= exact - 1e-9
    with pytest.raises(ValueError, match="solver"):
        decision_aware_distance(d_a, d_b, w, solver="other")


def test_distance_rejects_task_mismatch():
    rng = np.random.default_rng(47)
    d_a = topk_dataset(rng, topk_task(3, 1), 2)
    d_b = topk_dataset(rng, topk_task(3, 2), 2)
    with pytest.raises(ValueError, match="task"):
        pairwise_cost_matrix(d_a, d_b, GroundCostWeights(1.0, 0.0, 0.0))
