"""Tests for exact and entropic optimal transport solvers."""

import functools
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ptodist
from ptodist import ot_core
from _reference import (
    assignment_zeros_like,
    checked_sinkhorn,
    linprog_plan,
    log_domain_sinkhorn,
    random_coupling,
    replicated_assignment_value,
)
from ptodist.datagen import gen_grid, gen_inventory, gen_topk
from ptodist.ground_cost import GroundCostWeights, pairwise_cost_matrix
from ptodist.ot_core import (
    CostMatrix,
    DimensionMismatchError,
    Marginal,
    TransportPlan,
    _round_to_polytope,
    solve_exact,
    solve_sinkhorn,
    transport_cost,
)


def brute_force_uniform(C):
    """Minimum mean matched cost over all permutation couplings."""
    n = C.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(C[i, p] for i, p in enumerate(perm)) / n)
    return best


def test_cost_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        CostMatrix(np.array([1.0, 2.0]))  # not 2-d
    with pytest.raises(ValueError):
        CostMatrix(np.array([[1.0, -0.5]]))
    # a non-finite entry is reported as such, also beside a negative one
    for bad in (np.nan, np.inf, -np.inf):
        for entries in ([[0.0, bad], [1.0, 2.0]], [[-1.0, 1.0], [bad, 2.0]]):
            with pytest.raises(ValueError, match="finite"):
                CostMatrix(np.array(entries))
    assert CostMatrix(np.array([[-0.0, 1.0]])).entries[0, 0] == 0.0


def test_marginal_validation():
    # only the uniform marginal is one: a vector of 1/n on n >= 1 points
    rule = re.escape("marginal weights must be 1/n on each of n >= 1 points")
    for weights in ([0.75, 0.25], [np.nan, 0.5, 0.5], [], np.full((2, 2), 0.25)):
        with pytest.raises(ValueError, match=rule):
            Marginal(np.array(weights))
    m = Marginal.uniform(4)
    assert len(m) == 4
    assert np.allclose(m.weights, 0.25)


def test_uniform_marginal_is_kept_per_size_and_read_only():
    m = Marginal.uniform(5)
    assert Marginal.uniform(5) is m and Marginal.uniform(6) is not m
    assert not m.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m.weights[0] = 1.0
    assert m.weights.tobytes() == np.full(5, 1.0 / 5).tobytes()


def test_plan_marginal_validation():
    a = Marginal.uniform(2)
    with pytest.raises(ValueError):
        TransportPlan(np.array([[0.5, 0.5], [0.0, 0.0]]), a, a)
    with pytest.raises(DimensionMismatchError):
        TransportPlan(np.eye(3) / 3, a, a)


def test_identity_cost_gives_zero():
    # identical 3-point datasets: zero diagonal, positive off-diagonal
    C = CostMatrix(np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, 0.0]]))
    a = Marginal.uniform(3)
    _, value = solve_exact(C, a, a)
    assert abs(value) < 1e-12


def test_two_by_two_diagonal_plan():
    C = CostMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]))
    a = Marginal.uniform(2)
    plan, value = solve_exact(C, a, a)
    assert abs(value - 1.0) < 1e-12
    assert np.allclose(plan.matrix, np.eye(2) / 2)


def test_one_by_one_problem():
    C = CostMatrix(np.array([[3.5]]))
    m = Marginal.uniform(1)
    plan, value = solve_exact(C, m, m)
    assert value == 3.5
    assert plan.matrix[0, 0] == 1.0


def test_exact_matches_permutation_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = rng.integers(2, 7)
        C = rng.uniform(0.0, 5.0, (n, n))
        a = Marginal.uniform(n)
        _, value = solve_exact(CostMatrix(C), a, a)
        assert abs(value - brute_force_uniform(C)) < 1e-9


def test_exact_beats_random_couplings():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = rng.integers(2, 6, size=2)
        C = CostMatrix(rng.uniform(0.0, 2.0, (n, m)))
        a, b = Marginal.uniform(n), Marginal.uniform(m)
        _, value = solve_exact(C, a, b)
        for _ in range(100):
            plan = random_coupling(a, b, rng)
            assert value <= transport_cost(plan, C) + 1e-9


def test_exact_lp_matches_replicated_assignment_on_inventory_pairs():
    # unequal sizes take the LP path; inventory costs are where loose solver
    # tolerances showed, up to 1e-7 relative above the optimum
    rng = np.random.default_rng(29)
    for n, m in [(30, 36)] * 10 + [(50, 60)] * 10:
        theta_seed = int(rng.integers(1 << 31))
        a, b = (gen_inventory(int(rng.integers(1 << 31)), theta_seed, n_instances=size,
                              seed=int(rng.integers(1 << 31))) for size in (n, m))
        wx, wy, _ = rng.dirichlet(np.ones(3))
        cost = pairwise_cost_matrix(a, b, GroundCostWeights(wx, wy, 1.0 - wx - wy))
        _, value = solve_exact(cost, Marginal.uniform(n), Marginal.uniform(m))
        ref = replicated_assignment_value(cost.entries)
        assert abs(value - ref) <= 1e-9 * ref


@pytest.mark.parametrize("family", ["topk", "grid"])
def test_exact_lp_matches_replicated_assignment_on_unequal_pairs(family):
    rng = np.random.default_rng(41)
    for n, m in [(20, 24)] * 3 + [(30, 36)] * 3:
        if family == "topk":
            a, b = (gen_topk(float(rng.uniform(0.0, 1.3)), n_instances=size,
                             seed=int(rng.integers(1 << 31))) for size in (n, m))
        else:
            map_seed = int(rng.integers(1 << 31))
            a, b = (gen_grid(int(rng.integers(1 << 31)), map_seed, p=6, n_instances=size)
                    for size in (n, m))
        wx, wy, _ = rng.dirichlet(np.ones(3))
        cost = pairwise_cost_matrix(a, b, GroundCostWeights(wx, wy, 1.0 - wx - wy))
        _, value = solve_exact(cost, Marginal.uniform(n), Marginal.uniform(m))
        ref = replicated_assignment_value(cost.entries)
        assert abs(value - ref) <= 1e-9 * ref


def test_exact_assignment_allocates_only_its_plan():
    n = 1000
    C = CostMatrix(np.random.default_rng(43).uniform(0.0, 1.0, (n, n)))
    a = Marginal.uniform(n)
    solve_exact(CostMatrix(np.ones((2, 2))), Marginal.uniform(2), Marginal.uniform(2))  # imports scipy
    tracemalloc.start()
    try:
        plan, value = solve_exact(C, a, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * C.entries.itemsize
    assert value == transport_cost(plan, C)


@pytest.mark.parametrize("order", ["C", "F"])
def test_exact_assignment_matches_zeros_like_reference(order):
    # the plan is written into a copy of the cost in its memory layout: the
    # plan, its layout and the value's bits are those of a zeros_like plan
    rng = np.random.default_rng(45)
    for n in (5, 20, 50, 300):
        C = np.asarray(rng.uniform(0.0, 1.0, (n, n)), order=order)
        plan, value = solve_exact(CostMatrix(C), Marginal.uniform(n), Marginal.uniform(n))
        ref_plan, ref_value = assignment_zeros_like(C)
        assert value == ref_value
        assert np.array_equal(plan.matrix, ref_plan)
        assert plan.matrix.strides == ref_plan.strides


def test_exact_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, m = rng.integers(2, 7, size=2)
        C = rng.uniform(0.0, 3.0, (n, m))
        a, b = Marginal.uniform(n), Marginal.uniform(m)
        _, fwd = solve_exact(CostMatrix(C), a, b)
        _, bwd = solve_exact(CostMatrix(C.T), b, a)
        assert abs(fwd - bwd) < 1e-9


def test_exact_dimension_and_feasibility_errors():
    C = CostMatrix(np.ones((2, 3)))
    for a, b in [(3, 3), (2, 2), (3, 2)]:
        with pytest.raises(DimensionMismatchError):
            solve_exact(C, Marginal.uniform(a), Marginal.uniform(b))
    # uniform marginals always have equal mass: one a hair off uniform, whose
    # sum differs from its partner's, is refused before any solve
    with pytest.raises(ValueError, match="1/n on each"):
        Marginal(np.array([0.5, 0.5 + 5e-10]))


def test_sinkhorn_parameter_validation():
    C = CostMatrix(np.ones((2, 2)))
    a = Marginal.uniform(2)
    with pytest.raises(ValueError):
        solve_sinkhorn(C, a, a, epsilon=0.0)
    with pytest.raises(ValueError):
        solve_sinkhorn(C, a, a, epsilon=0.1, max_iter=0)
    with pytest.raises(ValueError):
        solve_sinkhorn(C, a, a, epsilon=0.1, tol=0.0)
    # NaN and inf are rejected before any iteration runs
    for bad in (np.nan, np.inf):
        with pytest.raises(TypeError):
            solve_sinkhorn(C, a, a, epsilon=0.1, max_iter=bad)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            solve_sinkhorn(C, a, a, epsilon=bad)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_sinkhorn(C, a, a, epsilon=0.1, tol=bad)


def test_sinkhorn_self_distance_near_zero():
    # identical 3-point datasets at epsilon = 0.01
    C = CostMatrix(np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, 0.0]]))
    a = Marginal.uniform(3)
    res = solve_sinkhorn(C, a, a, epsilon=0.01)
    assert res.cost <= 0.05 * C.entries.max()


def test_sinkhorn_epsilon_sweep_decreases_toward_exact():
    C = CostMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]))
    a = Marginal.uniform(2)
    costs = [solve_sinkhorn(C, a, a, epsilon=e, max_iter=50000).cost for e in (0.5, 0.1, 0.01)]
    assert costs[0] >= costs[1] >= costs[2]
    assert abs(costs[2] - 1.0) < 0.01


def test_sinkhorn_never_beats_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = rng.integers(2, 8)
        C = CostMatrix(rng.uniform(0.0, 1.0, (n, n)))
        a = Marginal.uniform(n)
        _, exact = solve_exact(C, a, a)
        res = solve_sinkhorn(C, a, a, epsilon=0.05)
        assert res.cost >= exact - 1e-9


def test_sinkhorn_within_one_percent_at_small_epsilon():
    # normalized distance-structured cost matrices, as the acceptance suite uses
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = rng.normal(size=(20, 6))
        Y = rng.normal(size=(20, 6))
        C = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
        C = (C - C.min()) / (C.max() - C.min())
        cm = CostMatrix(C)
        a = Marginal.uniform(20)
        res = solve_sinkhorn(cm, a, a, epsilon=0.005, max_iter=20000, tol=1e-5)
        _, exact = solve_exact(cm, a, a)
        assert abs(res.cost - exact) / exact < 0.01


def test_sinkhorn_plan_marginals_exact_after_rounding():
    rng = np.random.default_rng(9)
    C = CostMatrix(rng.uniform(0.0, 1.0, (6, 4)))
    a, b = Marginal.uniform(6), Marginal.uniform(4)
    res = solve_sinkhorn(C, a, b, epsilon=0.05)
    assert np.abs(res.plan.matrix.sum(axis=1) - a.weights).max() < 1e-12
    assert np.abs(res.plan.matrix.sum(axis=0) - b.weights).max() < 1e-12


def test_sinkhorn_nonconvergence_flagged():
    rng = np.random.default_rng(13)
    C = CostMatrix(rng.uniform(0.0, 1.0, (10, 10)))
    a = Marginal.uniform(10)
    res = solve_sinkhorn(C, a, a, epsilon=0.001, max_iter=5, tol=1e-12)
    assert not res.converged
    assert res.marginal_violation > 1e-12
    assert res.iterations == 5


def test_sinkhorn_log_domain_handles_tiny_epsilon():
    # kernel exp(-C/eps) underflows to zero at this scale without the log path
    C = CostMatrix(np.array([[800.0, 1600.0], [2400.0, 800.0]]))
    a = Marginal.uniform(2)
    res = solve_sinkhorn(C, a, a, epsilon=1.0, max_iter=5000)
    assert np.all(np.isfinite(res.plan.matrix))
    assert abs(res.cost - 800.0) < 1.0


def test_sinkhorn_matches_log_domain_reference():
    # the stabilized kernel runs the same iteration as plain log-domain
    # Sinkhorn, whether its scalings stay in range or get absorbed
    rng = np.random.default_rng(31)
    for scale, epsilon in [(1.0, 0.5), (1.0, 0.05), (10.0, 0.01), (500.0, 0.3), (45.0, 0.002)]:
        for _ in range(3):
            n, m = rng.integers(2, 25, size=2)
            C = rng.uniform(0.0, scale, (n, m))
            a, b = Marginal.uniform(n), Marginal.uniform(m)
            res = solve_sinkhorn(CostMatrix(C), a, b, epsilon=epsilon, max_iter=2000)
            P, iterations = log_domain_sinkhorn(C, a.weights, b.weights, epsilon, 2000, 1e-9)
            assert res.iterations == iterations
            assert np.abs(res.plan.matrix - _round_to_polytope(P, a.weights, b.weights)).max() < 1e-12


def _assert_sinkhorn_matches_checked_reference(monkeypatch, cost, a, b, absorbed=None, **kw):
    """solve_sinkhorn equals, bit for bit, itself with its kernel replaced by the
    reference that checks the scaling bounds after every half step."""
    res = solve_sinkhorn(cost, a, b, **kw)
    with monkeypatch.context() as patch:
        patch.setattr(ot_core, "_sinkhorn", functools.partial(checked_sinkhorn, absorbed=absorbed))
        ref = solve_sinkhorn(cost, a, b, **kw)
    assert res.plan.matrix.tobytes() == ref.plan.matrix.tobytes()
    assert res.marginal_violation == ref.marginal_violation
    assert res.iterations == ref.iterations
    assert res.cost == ref.cost and res.converged == ref.converged


def _absorption_kind(iteration, side):
    if side == "u" and iteration % ot_core.CHECK_EVERY == 1:
        return "u at a block's first half step"
    if side == "v" and iteration % ot_core.CHECK_EVERY == 0:
        return "v at a block's last half step"
    return f"{side} inside a block"


def test_sinkhorn_matches_checked_reference_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(53)
    kinds = set()
    for case in range(60):
        if case < 40:  # any size and epsilon, at the max_iter edges
            n, m = rng.integers(2, 61, size=2)
            epsilon = float(10 ** rng.uniform(-4, 0))
            max_iter = int(rng.choice([1, 7, 13, 10_000]))
        else:  # small problems at small epsilon absorb often
            n, m = rng.integers(2, 9, size=2)
            epsilon = float(10 ** rng.uniform(-4, -2))
            max_iter = 300
        C = rng.uniform(0.0, float(10 ** rng.uniform(-1, 2)), (n, m))
        absorbed = []
        _assert_sinkhorn_matches_checked_reference(
            monkeypatch, CostMatrix(C), Marginal.uniform(n), Marginal.uniform(m), absorbed,
            epsilon=epsilon, max_iter=max_iter)
        kinds |= {_absorption_kind(*x) for x in absorbed[1:]}
    # absorptions after the first, at every place a block can resume from
    assert kinds == {"u at a block's first half step", "u inside a block",
                     "v inside a block", "v at a block's last half step"}


def test_sinkhorn_matches_checked_reference_on_bench_pairs(monkeypatch):
    # the fixed pairs of the benchmark's distance workload, at the dist defaults:
    # top-K converges after 5 960 iterations, grid and inventory stop at 10 000
    pairs = [(gen_topk(0.3, seed=1), gen_topk(0.9, seed=2)),
             (gen_grid(1, 5, n_instances=20), gen_grid(2, 5, n_instances=20)),
             (gen_inventory(1, 3, seed=1), gen_inventory(2, 3, seed=2))]
    for x, y in pairs:
        cost = pairwise_cost_matrix(x, y, GroundCostWeights(1 / 3, 1 / 3, 1 / 3))
        _assert_sinkhorn_matches_checked_reference(
            monkeypatch, cost, Marginal.uniform(len(x)), Marginal.uniform(len(y)), epsilon=0.01)


def test_exact_lp_plan_matches_linprog_bit_for_bit():
    # the LP shapes of the benchmark's distance and bound workloads
    rng = np.random.default_rng(59)
    theta_seed, map_seed = (int(s) for s in rng.integers(1 << 31, size=2))
    pairs = [
        (gen_topk(0.2, n_instances=60, seed=1), gen_topk(1.1, n_instances=50, seed=2)),
        (gen_grid(3, map_seed, n_instances=24), gen_grid(4, map_seed, n_instances=20)),
        (gen_inventory(1, theta_seed, n_instances=36, seed=3),
         gen_inventory(2, theta_seed, n_instances=30, seed=4)),
        (gen_inventory(5, theta_seed, n_instances=60, seed=6),
         gen_inventory(6, theta_seed, n_instances=50, seed=7)),
        (gen_topk(0.3, n_instances=200, seed=8), gen_topk(0.9, n_instances=240, seed=9)),
    ]
    problems = []
    for x, y in pairs:
        cost = pairwise_cost_matrix(x, y, GroundCostWeights(*rng.dirichlet(np.ones(3))))
        problems.append((cost, Marginal.uniform(len(x)), Marginal.uniform(len(y))))
    # edge shapes on random costs: one row, one column (no column-sum rows)
    # and small unequal sizes
    edge = np.random.default_rng(61)
    for n, m in [(1, 5), (5, 1), (7, 3), (3, 2)]:
        problems.append((CostMatrix(edge.uniform(0.0, 1.0, (n, m))), Marginal.uniform(n), Marginal.uniform(m)))
    for cost, a, b in problems:
        plan, _ = solve_exact(cost, a, b)
        assert plan.matrix.tobytes() == linprog_plan(cost.entries, a.weights, b.weights).tobytes()


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is imported when an exact solve first needs it
    env = os.environ.copy()
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(ptodist.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    code = "import sys, ptodist; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("shape, imports", [
    ((3, 4), ["scipy.optimize", "scipy.optimize._highspy"]),  # the LP
    ((3, 3), ["scipy.optimize"]),  # the assignment needs no HiGHS
], ids=["lp", "assignment"])
def test_first_exact_solve_imports_the_scipy_optimize_package_first(shape, imports):
    # a thread importing scipy.optimize's HiGHS submodule before the package
    # holds the submodule's import lock while it runs the package's __init__,
    # which another thread importing linear_sum_assignment at once may be
    # running and which needs that submodule: the two threads deadlock
    code = f"""if True:
        import builtins, json
        import numpy as np
        from ptodist.ot_core import CostMatrix, Marginal, solve_exact
        imports = []
        real_import = builtins.__import__
        def spy(name, globals=None, *args):
            if name.startswith("scipy") and (globals or {{}}).get("__name__", "").startswith("ptodist"):
                imports.append(name)
            return real_import(name, globals, *args)
        builtins.__import__ = spy
        n, m = {shape}
        solve_exact(CostMatrix(np.ones((n, m))), Marginal.uniform(n), Marginal.uniform(m))
        print(json.dumps(imports))
    """
    env = os.environ.copy()
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(ptodist.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == imports


def test_random_coupling_has_valid_marginals():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, m = rng.integers(2, 7, size=2)
        a, b = Marginal.uniform(n), Marginal.uniform(m)
        plan = random_coupling(a, b, rng)
        assert np.abs(plan.matrix.sum(axis=1) - a.weights).max() < 1e-6
        assert np.abs(plan.matrix.sum(axis=0) - b.weights).max() < 1e-6
