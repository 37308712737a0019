"""Tests for task objectives, oracles, regret and feasibility, against brute-force oracles."""

import heapq
import itertools
import tracemalloc

import numpy as np
import pytest

from _reference import (
    accumulated_stock_cost,
    inventory_oracle_rebuilt,
    lipschitz_ratios_by_trial,
    mask_is_connected_from_source,
    solve_inventory_qp_kkt,
    topk_oracle_put_along_axis,
)
from ptodist import tasks
from ptodist.datagen import gen_topk, read_dataset, write_dataset
from ptodist.tasks import (
    InventoryParams,
    NegativeCostError,
    TaskDefinition,
    empirical_lipschitz,
    feasible_rows,
    fstock,
    inventory_task,
    objective_rows,
    oracle_batch,
    shortest_path_task,
    topk_task,
)


def oracle_row(task, y):
    """The oracle's decision for one label vector: ``oracle_batch`` on a one-row stack."""
    return oracle_batch(task, np.reshape(y, (1, -1)))[0]


def objective_row(task, z, y):
    """g(z; y) for one decision and one label vector: ``objective_rows`` on one-row stacks."""
    return float(objective_rows(task, np.reshape(z, (1, -1)), np.reshape(y, (1, -1)))[0])


def regret_row(task, y_hat, y):
    """|g(w*(y); y) - g(w*(y_hat); y)|: zero when the decision for y_hat is optimal under y."""
    return abs(objective_row(task, oracle_row(task, y), y) - objective_row(task, oracle_row(task, y_hat), y))


def feasible(task, z):
    """Whether one decision vector is feasible: ``feasible_rows`` on a one-row stack."""
    return bool(feasible_rows(task, np.reshape(z, (1, -1)))[0])


def brute_force_topk(task, y):
    """Best objective over all K-subsets by enumeration."""
    n, k = task.params["n_resources"], task.params["k"]
    best = -np.inf
    for idx in itertools.combinations(range(n), k):
        z = np.zeros(n)
        z[list(idx)] = 1.0
        best = max(best, float(z @ y))
    return best


def grid_steps(task):
    """The moves of the task's neighbourhood, written out here."""
    steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    return steps if task.params.get("neighborhood", 8) == 8 else [s for s in steps if 0 in s]


def brute_force_path_cost(task, y):
    """Cheapest corner-to-corner simple path by exhaustive search with pruning."""
    p = task.params["p"]
    lw = task.params.get("length_weight", 0.0)
    cost = y.reshape(p, p) + lw
    moves = grid_steps(task)
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


def grid_search_inventory(task, probs, resolution=1e-4):
    params = task.params["inventory_params"]
    demands = np.asarray(task.params["demand_values"])
    zs = np.arange(0.0, demands.max() + 1.0 + resolution, resolution)
    under = np.maximum(demands[None, :] - zs[:, None], 0.0)
    over = np.maximum(zs[:, None] - demands[None, :], 0.0)
    vals = (
        params.c0 * zs[:, None]
        + 0.5 * params.q0 * zs[:, None] ** 2
        + params.cb * under
        + 0.5 * params.qb * under**2
        + params.ch * over
        + 0.5 * params.qh * over**2
    ) @ probs
    return zs[int(np.argmin(vals))], vals.min()


def test_task_definition_validation():
    with pytest.raises(ValueError):
        topk_task(3, 4)  # K > N
    with pytest.raises(ValueError):
        shortest_path_task(1)
    with pytest.raises(ValueError):
        inventory_task(demand_values=(3.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        TaskDefinition("auction", {})
    # a kind that is not a string, or params that are not a dict, is a ValueError, not a TypeError
    with pytest.raises(ValueError, match=r"^unknown task kind \['topk'\]$"):
        TaskDefinition(["topk"], {})
    with pytest.raises(ValueError, match="^task params must be an object$"):
        TaskDefinition("topk", 5)
    # one missing param per family, named as a dataset file's header names it
    for kind, params, missing in (("topk", {"k": 1}, "n_resources"),
                                  ("shortest_path", {"neighborhood": 4}, "p"),
                                  ("inventory", {"demand_values": (1.0, 2.0)}, "inventory_params")):
        with pytest.raises(ValueError, match=f"^task params missing '{missing}'$"):
            TaskDefinition(kind, params)
    with pytest.raises(ValueError, match="^unknown task param 'neighbourhood'$"):
        shortest_path_task(3, neighbourhood=4)


def test_task_params_take_the_family_order_and_defaults():
    task = TaskDefinition("shortest_path", {"length_weight": 0.5, "p": 3})
    assert list(task.params.items()) == [("p", 3), ("neighborhood", 8), ("count_start", True),
                                         ("length_weight", 0.5)]
    assert task == shortest_path_task(3, length_weight=0.5)
    # a list of numbers is held as a tuple: the same numbers in a list or a tuple make one task
    listed = TaskDefinition("inventory", {"demand_values": [5.0, 10.0], "inventory_params": InventoryParams()})
    assert listed.params["demand_values"] == (5.0, 10.0) and listed == inventory_task((5.0, 10.0))
    # an object of numbers is held as InventoryParams: the same numbers in either make one task
    read = TaskDefinition("inventory", {"demand_values": [5.0, 10.0], "inventory_params": {"c0": 1.0}})
    assert read.params["inventory_params"] == InventoryParams(c0=1.0)
    assert read == inventory_task((5.0, 10.0), InventoryParams(c0=1.0))
    with pytest.raises(ValueError, match="^unknown inventory param 'c9'$"):
        TaskDefinition("inventory", {"demand_values": [5.0, 10.0], "inventory_params": {"c0": 1.0, "c9": 2.0}})


def test_integer_params_may_be_numpy_integers(tmp_path):
    task = topk_task(np.int64(5), np.uint8(1))
    assert task == topk_task(5, 1) and type(task.params["n_resources"]) is int
    assert shortest_path_task(np.int64(4)) == shortest_path_task(4)
    # the header of a dataset built from them is JSON
    ds = gen_topk(0.5, n_resources=np.int64(5), n_instances=3)
    write_dataset(ds, tmp_path / "a.plds")
    assert read_dataset(tmp_path / "a.plds").task == topk_task(5, 1)
    with pytest.raises(ValueError, match="^task param 'k' must be an integer, got np.True_$"):
        topk_task(5, np.True_)


def test_inventory_params_validation():
    with pytest.raises(ValueError):
        InventoryParams(c0=-1.0)
    with pytest.raises(ValueError):
        InventoryParams(q0=0.0, qb=0.0, qh=1.0)  # no unique minimizer guarantee
    # a bool is not a number, and an int beyond the float range would overflow the oracle
    for value in (True, 10**400):
        with pytest.raises(ValueError, match="^inventory cost coefficients must be nonnegative and finite, got c0="):
            InventoryParams(c0=value)


@pytest.mark.parametrize("build, message", [
    (lambda: InventoryParams(c0=float("nan")),
     "inventory cost coefficients must be nonnegative and finite, got c0=nan"),
    (lambda: InventoryParams(qh=float("inf")),
     "inventory cost coefficients must be nonnegative and finite, got qh=inf"),
    (lambda: shortest_path_task(3, length_weight=float("inf")),
     "task param 'length_weight' must be finite, got inf"),
    (lambda: shortest_path_task(3, length_weight=float("nan")),
     "task param 'length_weight' must be finite, got nan"),
    (lambda: inventory_task(demand_values=(1.0, float("inf"))),
     "task param 'demand_values' must be finite, got (1.0, inf)"),
    (lambda: inventory_task(demand_values=(float("nan"), 1.0)),
     "task param 'demand_values' must be finite, got (nan, 1.0)"),
])
def test_nonfinite_task_values_are_rejected_at_construction(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: topk_task(5.5, 1), "task param 'n_resources' must be an integer, got 5.5"),
    (lambda: topk_task(5, True), "task param 'k' must be an integer, got True"),
    (lambda: shortest_path_task(3, count_start=1), "task param 'count_start' must be a boolean, got 1"),
    (lambda: shortest_path_task(3, neighborhood=8.0), "task param 'neighborhood' must be an integer, got 8.0"),
    (lambda: shortest_path_task(3, length_weight="1"), "task param 'length_weight' must be a number, got '1'"),
    (lambda: shortest_path_task(3, length_weight=False), "task param 'length_weight' must be a number, got False"),
    # it is added to every cell cost, which must not be negative
    (lambda: shortest_path_task(3, length_weight=-2.0), "task param 'length_weight' must be nonnegative, got -2.0"),
    (lambda: TaskDefinition("inventory", {"demand_values": (1.0, "2"), "inventory_params": InventoryParams()}),
     "task param 'demand_values' must be a list of numbers, got (1.0, '2')"),
    (lambda: TaskDefinition("inventory", {"demand_values": (1.0, 2.0), "inventory_params": {"c0": "1"}}),
     "task param 'inventory_params' must be an object of numbers, got {'c0': '1'}"),
])
def test_task_param_types_are_checked_at_construction(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_fstock_examples():
    p = InventoryParams()
    for z in (0.5, 1.0, 3.0):
        # at z = d the deviation terms vanish, leaving 30z + 5z^2
        assert abs(fstock(p, z, z) - (30.0 * z + 5.0 * z * z)) < 1e-12
    assert abs(fstock(p, 2.0, 0.0) - 24.0) < 1e-12  # only backorder terms active
    zero = InventoryParams(c0=0, q0=1e-12, cb=0, qb=0, ch=0, qh=0)
    assert fstock(zero, 2.0, 1.0) < 1e-11


def test_objective_examples():
    t = topk_task(3, 1)
    z = np.array([0.0, 0.0, 1.0])
    assert objective_row(t, z, np.array([3.0, 1.0, 2.0])) == 2.0

    sp = shortest_path_task(2)
    z = np.array([1.0, 1.0, 0.0, 1.0])  # cells (0,0), (0,1), (1,1)
    assert objective_row(sp, z, np.ones(4)) == -3.0

    # point-mass demand met exactly: only the order-cost terms remain
    inv = inventory_task(demand_values=(1.0, 2.0), inventory_params=InventoryParams(
        c0=1.0, q0=0.0, cb=0.0, qb=1.0, ch=0.0, qh=1.0))
    val = objective_row(inv, np.array([2.0]), np.array([0.0, 1.0]))
    assert abs(val - (-2.0)) < 1e-12


def test_topk_oracle_examples():
    t = topk_task(3, 1)
    assert np.array_equal(oracle_row(t, np.array([3.0, 1.0, 2.0])), [1, 0, 0])
    # ties break to the lowest index
    assert np.array_equal(oracle_row(t, np.array([2.0, 2.0, 1.0])), [1, 0, 0])


def test_topk_oracle_exhaustive():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 3) + 1))
        t = topk_task(n, k)
        y = rng.normal(0.0, 5.0, n)
        assert abs(objective_row(t, oracle_row(t, y), y) - brute_force_topk(t, y)) < 1e-9


def test_shortest_path_oracle_avoids_expensive_center():
    t = shortest_path_task(3)
    y = np.ones(9)
    y[4] = 100.0
    z = oracle_row(t, y)
    assert z[4] == 0.0
    assert abs(-objective_row(t, z, y) - brute_force_path_cost(t, y)) < 1e-9


def test_shortest_path_oracle_exhaustive():
    rng = np.random.default_rng(8)
    for _ in range(15):
        p = int(rng.integers(2, 5))
        t = shortest_path_task(p)
        y = rng.uniform(0.8, 9.2, p * p)
        z = oracle_row(t, y)
        assert feasible(t, z)
        assert abs(-objective_row(t, z, y) - brute_force_path_cost(t, y)) < 1e-9


def test_shortest_path_four_neighborhood_and_length_weight():
    rng = np.random.default_rng(12)
    for _ in range(5):
        t = shortest_path_task(3, neighborhood=4, length_weight=2.0)
        y = rng.uniform(0.5, 5.0, 9)
        z = oracle_row(t, y)
        assert feasible(t, z)
        assert abs(-objective_row(t, z, y) - brute_force_path_cost(t, y)) < 1e-9


def test_inventory_oracle_matches_grid_search():
    t = inventory_task(demand_values=(1.0, 3.0))
    z = oracle_row(t, np.array([0.5, 0.5]))
    z_grid, _ = grid_search_inventory(t, np.array([0.5, 0.5]))
    assert abs(z[0] - z_grid) < 1e-3

    rng = np.random.default_rng(19)
    for _ in range(15):
        probs = rng.dirichlet(np.ones(5))
        t = inventory_task()
        z = oracle_row(t, probs)
        _, best_val = grid_search_inventory(t, probs)
        got = -objective_row(t, z, probs)
        assert got <= best_val + 1e-3


def test_inventory_oracle_matches_full_qp():
    rng = np.random.default_rng(23)
    t = inventory_task()
    params = t.params["inventory_params"]
    demands = t.params["demand_values"]
    for _ in range(5):
        probs = rng.dirichlet(np.ones(5))
        z_reduced = oracle_row(t, probs)[0]
        z_qp, kkt = solve_inventory_qp_kkt(params, demands, probs)
        assert kkt < 1e-5
        assert abs(z_reduced - z_qp) < 1e-5


def test_decision_quality_and_regret_examples():
    t = topk_task(3, 1)
    y_hat = np.array([0.0, 5.0, 0.0])
    y = np.array([3.0, 1.0, 2.0])
    assert objective_row(t, oracle_row(t, y_hat), y) == 1.0
    assert regret_row(t, y_hat, y) == 2.0
    assert regret_row(t, y, y) == 0.0
    # any prediction inducing the optimal decision has zero regret
    assert regret_row(t, np.array([9.0, 0.0, 0.0]), y) == 0.0


def test_regret_nonnegative_and_zero_at_truth():
    rng = np.random.default_rng(31)
    inv = inventory_task()
    sp = shortest_path_task(3)
    for _ in range(30):
        y = rng.normal(0.0, 3.0, 5)
        y_hat = rng.normal(0.0, 3.0, 5)
        t = topk_task(5, 2)
        assert regret_row(t, y_hat, y) >= 0.0
        assert regret_row(t, y, y) == 0.0
        probs = rng.dirichlet(np.ones(5))
        assert regret_row(inv, rng.dirichlet(np.ones(5)), probs) >= 0.0
        assert regret_row(inv, probs, probs) == 0.0
        costs = rng.uniform(0.8, 9.2, 9)
        assert regret_row(sp, rng.uniform(0.8, 9.2, 9), costs) >= 0.0


def test_validate_decision_cases():
    t = topk_task(3, 1)
    assert feasible(t, np.array([0.0, 1.0, 0.0]))
    assert not feasible(t, np.array([1.0, 1.0, 0.0]))
    assert not feasible(t, np.array([0.0, 0.5, 0.5]))

    sp = shortest_path_task(2)
    assert feasible(sp, np.array([1.0, 1.0, 0.0, 1.0]))
    # diagonal corner hop is a path under the 8-neighborhood but not the 4
    assert feasible(sp, np.array([1.0, 0.0, 0.0, 1.0]))
    sp4 = shortest_path_task(2, neighborhood=4)
    assert not feasible(sp4, np.array([1.0, 0.0, 0.0, 1.0]))
    assert not feasible(sp, np.array([0.0, 1.0, 1.0, 1.0]))  # source missing

    inv = inventory_task()
    assert feasible(inv, np.array([2.5]))
    assert not feasible(inv, np.array([-0.1]))
    assert not feasible(inv, np.array([1.0, 2.0]))


def test_feasible_rows_agrees_with_depth_first_search():
    rng = np.random.default_rng(67)
    for p in range(2, 7):
        for neighborhood in (4, 8):
            task = shortest_path_task(p, neighborhood=neighborhood)
            Z = (rng.random((600, p * p)) < rng.uniform(0.3, 0.95, (600, 1))).astype(float)
            Z[:450, [0, -1]] = 1.0  # most rows with both corners set
            # the predicate the per-row check applied: both corners set, then the search
            expected = [bool(z[0] == z[-1] == 1.0) and mask_is_connected_from_source(z.reshape(p, p), neighborhood)
                        for z in Z]
            got = feasible_rows(task, Z)
            assert got.tolist() == expected, (p, neighborhood)
            assert 0 < got.sum() < len(Z), (p, neighborhood)


def test_feasible_rows_hand_cases():
    sp = shortest_path_task(4)
    path = np.eye(4).ravel()
    blob = path.copy()
    blob[[1, 4, 5]] = 1.0  # a 2 x 2 block at the source: connected, not a path
    island = path.copy()
    island[3] = 1.0  # a set cell no set neighbour reaches
    no_source, no_sink, halves, nan = path.copy(), path.copy(), path.copy(), path.copy()
    no_source[0] = 0.0
    no_sink[-1] = 0.0
    halves[[5, 10]] = 0.5
    nan[5] = np.nan
    assert feasible_rows(sp, np.stack([path, blob, island, no_source, no_sink, halves, nan])).tolist() == [
        True, True, False, False, False, False, False]
    assert not feasible_rows(sp, np.ones((1, 9))).any()  # the width of a 3 x 3 grid
    topk = topk_task(3, 2)
    assert feasible_rows(topk, [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, np.nan, 0.0], [2.0, 0.0, 0.0]]).tolist() == [
        True, False, False, False]
    assert not feasible_rows(topk, np.ones((2, 2))).any()
    inv = inventory_task()
    assert feasible_rows(inv, [[0.0], [3.5], [-1e-9], [np.nan]]).tolist() == [True, True, False, False]
    assert not feasible_rows(inv, np.ones((2, 2))).any()


def test_empirical_lipschitz_probe_is_finite_positive():
    t = topk_task(5, 1)
    k = empirical_lipschitz(t, trials=2000, seed=0)
    assert 0.0 < k < np.inf
    # deterministic given the seed
    assert k == empirical_lipschitz(t, trials=2000, seed=0)
    # grid labels are drawn nonnegative, where shortest paths are defined
    assert 0.0 < empirical_lipschitz(shortest_path_task(3), trials=200, seed=0) < np.inf


def quality_ratio(task, y, y_star, z, z_star):
    """|q(y,y*) - q(z,z*)| / (|y-z| + |y*-z*|), the ratio the Lipschitz probe maximizes."""
    q = objective_rows(task, oracle_batch(task, np.stack([y, z])), np.stack([y_star, z_star]))
    return abs(q[0] - q[1]) / (np.linalg.norm(y - z) + np.linalg.norm(y_star - z_star))


def topk_swap_pair(delta):
    # two near-tied utilities in swapped order: the decision jumps between them
    y = np.array([1.0, 1.0 - delta, 0.0, 0.0, 0.0])
    y_star = np.array([10.0, -10.0, 0.0, 0.0, 0.0])
    return y, y_star, y[[1, 0, 2, 3, 4]], y_star


def grid_tie_pair(delta):
    # 2 x 2 grid, 4-neighbour: the paths through cells 1 and 2 are delta apart
    y = np.array([1.0, 1.0, 1.0 + delta, 1.0])
    y_star = np.array([0.0, 10.0, 0.0, 0.0])
    return y, y_star, y[[0, 2, 1, 3]], y_star


@pytest.mark.parametrize("task, pair, delta_last, ratio_last", [
    (topk_task(5, 1), topk_swap_pair, 1e-6, 20.0 / np.sqrt(2.0) * 1e6),
    (shortest_path_task(2, neighborhood=4), grid_tie_pair, 1e-5, 10.0 / np.sqrt(2.0) * 1e5),
], ids=["topk", "grid"])
def test_decision_quality_has_no_lipschitz_constant_where_the_decision_jumps(task, pair, delta_last, ratio_last):
    # the ratio grows like 1/delta: no finite constant bounds it
    deltas = delta_last * 10.0 ** np.arange(3, -1, -1)
    ratios = [quality_ratio(task, *pair(d)) for d in deltas]
    for coarse, fine in zip(ratios, ratios[1:]):
        assert fine / coarse == pytest.approx(10.0, rel=1e-6)
    assert ratios[-1] == pytest.approx(ratio_last, rel=1e-6)


@pytest.mark.parametrize("task, label_dim", [
    (topk_task(5, 2), 5),
    (inventory_task(), 5),
    (shortest_path_task(3), 9),
    (shortest_path_task(4, neighborhood=4, count_start=False, length_weight=1.5), 16),
], ids=["topk", "inventory", "grid", "grid4"])
def test_empirical_lipschitz_matches_one_trial_loop(task, label_dim):
    # trial counts on both sides of the first block edge; a run of n trials is
    # the first n trials of a longer one. The probe reads the width from the task.
    reference = lipschitz_ratios_by_trial(task, label_dim, 10.0, 2345, 5)
    block = tasks._LIPSCHITZ_BLOCK // label_dim
    for trials in (1, block - 1, block, block + 1, 2345):
        ratios = np.concatenate(list(tasks._lipschitz_ratios(task, trials, 5)))
        assert np.array_equal(ratios, reference[:trials]), trials
        assert empirical_lipschitz(task, trials=trials, seed=5) == reference[:trials].max()
    assert empirical_lipschitz(task, trials=0) == 0.0


def test_empirical_lipschitz_memory_stays_flat():
    # the probe's peak is one block's oracle temporaries, whatever the label
    # width. Under tracemalloc the inventory probe peaks at 1.5 MB at 409 trials
    # a call (1.0 MB at 100, 30 MB with all 20 000 in one call); the 12 x 12
    # grid peaks at 0.83 MB at 14 trials a call and at 5.9 MB at 100.
    for task, trials in ((inventory_task(), 20_000), (shortest_path_task(12), 200)):
        tracemalloc.start()
        try:
            empirical_lipschitz(task, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, task.kind


def batch_cases():
    """(task, stacked labels) per family, with tied labels in each."""
    rng = np.random.default_rng(41)
    topk_y = rng.integers(0, 3, size=(40, 6)).astype(float)  # many ties
    grid_y = rng.choice([1.0, 2.0, 5.0], size=(12, 16))
    grid_y[:3] = 1.0  # uniform fields: every monotone path ties
    inv_y = rng.dirichlet(np.ones(5), size=30)
    inv_y[:3] = 0.2  # uniform demand
    inv_y[3] = [0.5, 0.0, 0.0, 0.0, 0.5]
    return [
        (topk_task(6, 1), topk_y),
        (topk_task(6, 3), topk_y),
        (shortest_path_task(4), grid_y),
        (shortest_path_task(4, neighborhood=4, length_weight=0.5), grid_y),
        (inventory_task(), inv_y),
    ]


def test_oracle_batch_equals_row_by_row_oracle():
    for task, Y in batch_cases():
        Z = oracle_batch(task, Y)
        rows = np.stack([oracle_row(task, y) for y in Y])
        assert np.array_equal(Z, rows), task.kind
        # each row depends on its own labels only
        assert np.array_equal(oracle_batch(task, Y[::-1]), rows[::-1]), task.kind


def test_objective_rows_equals_checked_objective():
    rng = np.random.default_rng(43)
    for task, Y in batch_cases():
        Z = oracle_batch(task, Y[rng.permutation(len(Y))])  # decisions paired with other labels
        assert feasible_rows(task, Z).all(), task.kind
        got = objective_rows(task, Z, Y)
        assert np.array_equal(got, [objective_row(task, z, y) for z, y in zip(Z, Y)]), task.kind
        # the same arithmetic as a per-sample loop, so values do not drift
        assert np.array_equal(got, [per_sample_objective(task, z, y) for z, y in zip(Z, Y)]), task.kind


def per_sample_objective(task, z, y):
    if task.kind == "topk":
        return z @ y
    if task.kind == "shortest_path":
        return -(z @ y) - task.params.get("length_weight", 0.0) * z.sum()
    total = 0.0
    for p, d in zip(y, task.params["demand_values"]):
        total += p * fstock(task.params["inventory_params"], d, z[0])
    return -total


def inventory_kernel_tasks():
    """Inventory tasks of 2, 3 and 5 demands; the last as ``read_dataset`` builds
    it from a file of integer numbers."""
    return [
        inventory_task(),
        inventory_task(inventory_params=InventoryParams(q0=0.0, qb=1.5, qh=4.0)),
        inventory_task((3.0, 8.0)),
        inventory_task((2.0, 5.0, 11.0), InventoryParams(c0=3.0, q0=0.5, cb=40.0, qb=0.1, ch=1.0, qh=0.2)),
        TaskDefinition("inventory", {
            "demand_values": (5, 10, 15, 20, 25),
            "inventory_params": InventoryParams(c0=30, q0=0, cb=10, qb=2, ch=30, qh=25),
        }),
    ]


def inventory_label_batch(rng, n, k):
    """n demand distributions over k demands: Dirichlet rows, some with
    zero-probability demands, some point masses and some uniform."""
    P = rng.dirichlet(np.full(k, rng.choice([0.1, 1.0, 10.0])), size=n)
    kind = rng.integers(0, 4, size=n)
    holes = (kind == 1)[:, None] & (rng.random((n, k)) < 0.5)
    holes[np.arange(n), rng.integers(0, k, size=n)] = False  # keep one demand
    P[holes] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    P[kind == 2] = np.eye(k)[rng.integers(0, k, size=(kind == 2).sum())]
    P[kind == 3] = 1.0 / k
    return P


def test_inventory_kernels_match_rebuilt_reference_bit_for_bit():
    rng = np.random.default_rng(14)
    for task in inventory_kernel_tasks():
        k = len(task.params["demand_values"])
        for n in (1, 2, 400, *rng.integers(1, 401, size=12)):
            P = inventory_label_batch(rng, int(n), k)
            Z = oracle_batch(task, P)
            assert Z.tobytes() == inventory_oracle_rebuilt(task, P).tobytes(), (task.params, n)
            Y = inventory_label_batch(rng, int(n), k)
            got = objective_rows(task, Z, Y)
            assert got.tobytes() == (-accumulated_stock_cost(task, Y, Z)).tobytes()
            # every decision under every label row, as the ground cost broadcasts them
            got = objective_rows(task, Z[:, None, :], Y[None, :5, :])
            assert got.tobytes() == (-accumulated_stock_cost(task, Y[None, :5, :], Z[:, None, :])).tobytes()


def test_topk_oracle_matches_put_along_axis_reference():
    rng = np.random.default_rng(15)
    Y = rng.integers(0, 3, size=(300, 6)).astype(float)  # many ties
    for k in (1, 3):
        task = topk_task(6, k)
        assert oracle_batch(task, Y).tobytes() == topk_oracle_put_along_axis(task, Y).tobytes()


def test_inventory_tables_are_read_only():
    task = inventory_task()
    tables = tasks._inventory_tables(task.params["inventory_params"], task.params["demand_values"])
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1.0


def test_topk_oracle_batch_keeps_lowest_index_ties():
    Z = oracle_batch(topk_task(4, 2), np.array([[1.0, 3.0, 3.0, 3.0], [2.0, 2.0, 2.0, 2.0]]))
    assert np.array_equal(Z, [[0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])


def test_shortest_path_oracle_rejects_negative_costs():
    with pytest.raises(NegativeCostError, match=r"cell cost -1\.0 .*row 0, cell 0"):
        oracle_row(shortest_path_task(3), -np.ones(9))
    y = np.ones(9)
    y[5] = -4.0
    with pytest.raises(NegativeCostError, match=r"-4\.0 .*cell 5"):
        oracle_row(shortest_path_task(3), y)
    # zero costs are allowed
    assert feasible(shortest_path_task(3), oracle_row(shortest_path_task(3), np.zeros(9)))


# --- the shortest-path tie rule ----------------------------------------------

def tie_rule_path(task, y):
    """The path the tie rule picks, by enumerating every simple path.

    Smallest (cost, cells, cell indices from sink to source) wins.
    """
    p = task.params["p"]
    cost = y.reshape(p, p) + task.params.get("length_weight", 0.0)
    steps = grid_steps(task)
    best = [None]

    def dfs(path, acc):
        if best[0] is not None and (acc, len(path)) > best[0][:2]:
            return
        i, j = path[-1]
        if (i, j) == (p - 1, p - 1):
            key = (acc, len(path), tuple(a * p + b for a, b in reversed(path)))
            best[0] = key if best[0] is None else min(best[0], key)
            return
        for di, dj in steps:
            nxt = (i + di, j + dj)
            if 0 <= nxt[0] < p and 0 <= nxt[1] < p and nxt not in path:
                dfs(path + [nxt], acc + cost[nxt])

    dfs([(0, 0)], cost[0, 0] if task.params.get("count_start", True) else 0.0)
    z = np.zeros(p * p)
    z[list(best[0][2])] = 1.0
    return z


def fewest_cells_of_cheapest_paths(task, y):
    """(cost, cells) of the cheapest path with the fewest cells: Dijkstra on that pair."""
    p = task.params["p"]
    cost = y.reshape(p, p) + task.params.get("length_weight", 0.0)
    steps = grid_steps(task)
    done = set()
    heap = [(cost[0, 0] if task.params.get("count_start", True) else 0.0, 1, (0, 0))]
    while heap:
        key = heapq.heappop(heap)
        if key[2] == (p - 1, p - 1):
            return key[:2]
        if key[2] in done:
            continue
        done.add(key[2])
        for di, dj in steps:
            i, j = key[2][0] + di, key[2][1] + dj
            if 0 <= i < p and 0 <= j < p and (i, j) not in done:
                heapq.heappush(heap, (key[0] + cost[i, j], key[1] + 1, (i, j)))


def sp_variants(p):
    return [shortest_path_task(p, neighborhood=nb, count_start=cs) for nb in (4, 8) for cs in (True, False)]


def test_shortest_path_oracle_follows_tie_rule():
    # integer fields: path costs are exact, and ties are everywhere
    rng = np.random.default_rng(53)
    for p in (2, 3, 4):
        Y = rng.choice([0.0, 1.0, 2.0], size=(60, p * p), p=[0.4, 0.3, 0.3])
        for task in sp_variants(p):
            Z = oracle_batch(task, Y)
            for y, z in zip(Y, Z):
                assert np.array_equal(z, tie_rule_path(task, y)), (task.params, y)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_shortest_path_oracle_ignores_move_order(monkeypatch, order):
    rng = np.random.default_rng(59)
    Y = np.concatenate([rng.choice([0.0, 1.0, 2.0], size=(40, 36)), rng.uniform(0.0, 9.0, (10, 36))])
    expected = [oracle_batch(task, Y) for task in sp_variants(6)]
    moves = tasks._neighbor_moves

    def permuted(neighborhood):
        m = list(moves(neighborhood))
        return m[::-1] if order == "reversed" else [m[i] for i in rng.permutation(len(m))]

    monkeypatch.setattr(tasks, "_neighbor_moves", permuted)
    for task, Z in zip(sp_variants(6), expected):
        assert np.array_equal(oracle_batch(task, Y), Z)


def test_shortest_path_oracle_on_zero_cost_plateaus():
    rng = np.random.default_rng(61)
    for p in (2, 5, 12):
        for task in sp_variants(p):
            z = oracle_row(task, np.zeros(p * p))
            assert feasible(task, z)
            assert z.sum() == (p if task.params["neighborhood"] == 8 else 2 * p - 1)
            if task.params["neighborhood"] == 8:
                assert np.array_equal(z.reshape(p, p), np.eye(p))  # the diagonal
            Y = rng.choice([0.0, 1.0], size=(10, p * p), p=[0.7, 0.3])
            for y, z in zip(Y, oracle_batch(task, Y)):
                assert feasible(task, z)
                start = 0.0 if task.params["count_start"] else y[0]
                assert (-objective_row(task, z, y) - start, z.sum()) == fewest_cells_of_cheapest_paths(task, y)
