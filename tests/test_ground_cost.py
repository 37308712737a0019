"""Tests for the decision-aware ground cost and dataset distance."""

import itertools
import tracemalloc

import numpy as np
import pytest

from _reference import component_matrices_by_row
from ptodist import ground_cost
from ptodist.datagen import PtODataset, gen_grid, gen_inventory, gen_topk
from ptodist.ground_cost import (
    GroundCostWeights,
    _components,
    component_matrices,
    decision_aware_distance,
    pairwise_cost_matrix,
    transport,
)
from ptodist.ot_core import CostMatrix, Marginal, SinkhornConvergenceError, solve_exact, solve_sinkhorn
from ptodist.tasks import objective_rows, oracle_batch, topk_task


def one_row(task, x, y, z):
    """A dataset of one sample."""
    return PtODataset(task=task, X=[x], Y=[y], Z=[z], provenance={"generator": "test"})


def random_topk_rows(rng, task, size):
    n = task.params["n_resources"]
    X = np.stack([np.sort(rng.uniform(-1.0, 1.0, n)) for _ in range(size)])
    Y = rng.normal(0.0, 3.0, (size, n))
    return X, Y, oracle_batch(task, Y)


def random_topk_sample(rng, task):
    return one_row(task, *(v[0] for v in random_topk_rows(rng, task, 1)))


def topk_dataset(rng, task, size):
    return PtODataset(task, *random_topk_rows(rng, task, size), provenance={"generator": "test"})


def pair_cost(d, d_prime, w, mode="as-written"):
    """The ground cost between two one-sample datasets: their 1 x 1 cost matrix."""
    return float(pairwise_cost_matrix(d, d_prime, w, mode).entries[0, 0])


def test_weights_validation():
    with pytest.raises(ValueError):
        GroundCostWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        GroundCostWeights(-0.2, 0.6, 0.6)
    w = GroundCostWeights(0.2, 0.3, 0.5)
    assert w.alpha_w == 0.5


@pytest.mark.parametrize("weights, named", [
    ((float("nan"), 0.5, 0.5), "alpha_x=nan"),
    ((0.5, float("inf"), 0.5), "alpha_y=inf"),
    ((0.5, 0.5, float("-inf")), "alpha_w=-inf"),
])
def test_nonfinite_weights_are_rejected(weights, named):
    with pytest.raises(ValueError) as info:
        GroundCostWeights(*weights)
    assert str(info.value) == f"ground-cost weights must be nonnegative and finite, got {named}"


def test_disparity_examples():
    t = topk_task(3, 1)
    Y = np.array([[3.0, 1.0, 2.0]] * 2)
    Z = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = np.zeros((2, 3))
    _, _, W = _components(t, X, Y, Z, X, Y, Z, "as-written")
    assert W.tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_disparity_recovers_regret():
    # under shared labels y, the decision term between w*(y_hat) and w*(y) is
    # exactly the decision regret
    rng = np.random.default_rng(6)
    t = topk_task(5, 2)
    Y = rng.normal(0.0, 4.0, (50, 5))
    Y_hat = rng.normal(0.0, 4.0, (50, 5))
    Z, Z_hat = oracle_batch(t, Y), oracle_batch(t, Y_hat)
    X = np.zeros((50, 5))
    _, _, W = _components(t, X, Y, Z_hat, X, Y, Z, "as-written")
    regret = np.abs(objective_rows(t, Z, Y) - objective_rows(t, Z_hat, Y))
    assert np.abs(np.diag(W) - regret).max() < 1e-12


def test_ground_cost_examples():
    t = topk_task(1, 1)
    s = one_row(t, [0.0], [1.0], [1.0])
    sp = one_row(t, [3.0], [2.0], [1.0])
    assert pair_cost(s, sp, GroundCostWeights(1.0, 0.0, 0.0)) == 3.0
    assert pair_cost(s, s, GroundCostWeights(0.3, 0.3, 0.4)) == 0.0

    t3 = topk_task(3, 1)
    y = [3.0, 1.0, 2.0]
    s = one_row(t3, np.zeros(3), y, [1.0, 0.0, 0.0])
    sp = one_row(t3, np.zeros(3), y, [0.0, 1.0, 0.0])
    for mode in ("as-written", "symmetrized"):
        assert pair_cost(s, sp, GroundCostWeights(0.0, 0.0, 1.0), mode=mode) == 2.0


def test_ground_cost_breakdown_linearity():
    rng = np.random.default_rng(14)
    t = topk_task(4, 1)
    s = random_topk_sample(rng, t)
    sp = random_topk_sample(rng, t)
    F, L, W = (float(c[0, 0]) for c in component_matrices(s, sp))
    for _ in range(20):
        w = GroundCostWeights(*rng.dirichlet(np.ones(3)))
        expect = w.alpha_x * F + w.alpha_y * L + w.alpha_w * W
        assert abs(pair_cost(s, sp, w) - expect) < 1e-12


def test_ground_cost_dimension_mismatch():
    t = topk_task(2, 1)
    s = one_row(t, np.zeros(2), np.zeros(2), [1.0, 0.0])
    for width in (1, 3):  # one feature would broadcast against two
        sp = one_row(t, np.zeros(width), np.zeros(2), [1.0, 0.0])
        with pytest.raises(ValueError, match="dimensions differ"):
            pair_cost(s, sp, GroundCostWeights(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="dimensions differ"):
            pair_cost(sp, s, GroundCostWeights(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="mode"):
        pair_cost(s, s, GroundCostWeights(1.0, 0.0, 0.0), mode="other")


def test_symmetrized_mode_pointwise_symmetry():
    rng = np.random.default_rng(25)
    t = topk_task(4, 2)
    for _ in range(50):
        s, sp = random_topk_sample(rng, t), random_topk_sample(rng, t)
        w = GroundCostWeights(*rng.dirichlet(np.ones(3)))
        ab = pair_cost(s, sp, w, mode="symmetrized")
        ba = pair_cost(sp, s, w, mode="symmetrized")
        assert abs(ab - ba) < 1e-12


def test_fixed_label_lg_triangle_inequality():
    rng = np.random.default_rng(27)
    t = topk_task(5, 2)
    for _ in range(200):
        Y = np.tile(rng.normal(0.0, 5.0, 5), (3, 1))
        Z = oracle_batch(t, rng.normal(0.0, 5.0, (3, 5)))
        _, _, W = _components(t, np.zeros((3, 1)), Y, Z, np.zeros((3, 1)), Y, Z, "as-written")
        assert W[0, 2] <= W[0, 1] + W[1, 2] + 1e-9


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
            z = oracle_batch(t, rng.normal(0.0, 3.0, (1, 4)))[0]
            trip.append(one_row(t, x, y, z))
        s1, s2, s3 = trip
        d13 = pair_cost(s1, s3, w, mode="symmetrized")
        d12 = pair_cost(s1, s2, w, mode="symmetrized")
        d23 = pair_cost(s2, s3, w, mode="symmetrized")
        assert d13 <= d12 + d23 + 1e-9


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(33)
    t = topk_task(4, 1)
    w = GroundCostWeights(0.2, 0.3, 0.5)  # all components strictly positive
    for _ in range(50):
        s = random_topk_sample(rng, t)
        assert pair_cost(s, s, w, mode="symmetrized") == 0.0
        sp = random_topk_sample(rng, t)
        if not (np.array_equal(s.X, sp.X) and np.array_equal(s.Y, sp.Y)):
            assert pair_cost(s, sp, w, mode="symmetrized") > 0.0


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
                    one_a, one_b = one_row(d_a.task, sa.x, sa.y, sa.z), one_row(d_b.task, sb.x, sb.y, sb.z)
                    assert abs(M[i, j] - pair_cost(one_a, one_b, w, mode=mode)) < 1e-12


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


@pytest.mark.parametrize("n, m, d, block", [
    (1, 1, 1, 2**20),
    (50, 40, 25, 3 * 40 * 25),  # 3 rows a block: the last block of A holds 2
    (7, 30, 5, 100),  # one row of A is 150 differences, more than a block
    (300, 333, 144, 2**20),  # the module's block: 21 rows of A
])
def test_pairwise_norms_equal_the_broadcast_formula(monkeypatch, n, m, d, block):
    monkeypatch.setattr(ground_cost, "_NORM_BLOCK", block)
    rng = np.random.default_rng(n + m + d)
    A, B = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    want = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    assert ground_cost._pairwise_norms(A, B).tobytes() == want.tobytes()


def test_component_matrices_memory_stays_within_blocks():
    # under tracemalloc, two 400-row top-K datasets peak at 19 MB with F and L
    # made a block of rows at a time, and at 68 MB with each in one broadcast
    d_a, d_b = gen_topk(0.3, n_instances=400, seed=1), gen_topk(0.9, n_instances=400, seed=2)
    tracemalloc.start()
    try:
        component_matrices(d_a, d_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


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
    direct = pair_cost(s1, s2, w)
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
    sink = transport(pairwise_cost_matrix(d_a, d_b, w), "sinkhorn", 0.01)[1]
    assert exact >= 0.0
    assert sink >= exact - 1e-9

    with pytest.raises(ValueError) as info:
        transport(pairwise_cost_matrix(d_a, d_b, w), "other")
    assert str(info.value) == "solver must be 'exact' or 'sinkhorn', got 'other'"


@pytest.mark.parametrize("shape", [(6, 6), (6, 4)])
def test_transport_solves_between_uniform_marginals(shape):
    cost = CostMatrix(np.random.default_rng(29).uniform(0.0, 1.0, shape))
    a, b = Marginal.uniform(shape[0]), Marginal.uniform(shape[1])
    plan, value = transport(cost)
    ref_plan, ref_value = solve_exact(cost, a, b)
    assert np.array_equal(plan.matrix, ref_plan.matrix) and value == ref_value
    plan, value = transport(cost, "sinkhorn", epsilon=0.05)
    ref = solve_sinkhorn(cost, a, b, epsilon=0.05)
    assert ref.converged
    assert np.array_equal(plan.matrix, ref.plan.matrix) and value == ref.cost


def test_transport_rejects_an_unconverged_sinkhorn_and_another_solver():
    # 5 x 7 at epsilon 1e-4 is still 1.4e-2 off its marginals after the default 10 000 iterations
    cost = CostMatrix(np.random.default_rng(2).uniform(0.0, 1.0, (5, 7)))
    with pytest.raises(SinkhornConvergenceError) as info:
        transport(cost, "sinkhorn", epsilon=1e-4)
    assert str(info.value).startswith("Sinkhorn at epsilon 0.0001 did not converge: marginal violation ")
    assert str(info.value).endswith(" after 10000 iterations")
    with pytest.raises(ValueError) as info:
        transport(cost, "other")
    assert str(info.value) == "solver must be 'exact' or 'sinkhorn', got 'other'"


def test_distance_rejects_task_mismatch():
    rng = np.random.default_rng(47)
    d_a = topk_dataset(rng, topk_task(3, 1), 2)
    d_b = topk_dataset(rng, topk_task(3, 2), 2)
    with pytest.raises(ValueError, match="'topk' task param 'k' differs: 1 vs 2"):
        pairwise_cost_matrix(d_a, d_b, GroundCostWeights(1.0, 0.0, 0.0))
    # every distance and sweep builds its costs here
    a = gen_grid(1, 2, p=4, n_instances=3)
    b = gen_grid(1, 2, p=4, n_instances=3, length_weight=5.0)
    with pytest.raises(ValueError, match="'shortest_path' task param 'length_weight' differs: 0.0 vs 5.0"):
        component_matrices(a, b)
    with pytest.raises(ValueError, match="task kinds differ: 'shortest_path' vs 'inventory'"):
        component_matrices(a, gen_inventory(1, 2, n_instances=3), "symmetrized")
