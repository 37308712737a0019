"""Decision-aware point-wise ground cost and the resulting dataset distance.

The cost between two feature-label-decision samples is a convex combination
of a feature term, a label term, and a decision-quality disparity term. Two
modes control which labels the decision term is evaluated under:

* ``as-written`` -- both decisions are scored under the second sample's
  labels. Used for experiment reproduction.
* ``symmetrized`` -- average of scoring under each sample's labels. Swapping
  the samples leaves the cost unchanged, so the metric axioms hold; used for
  metric-property checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ot_core import CostMatrix, Marginal, SinkhornConvergenceError, solve_exact, solve_sinkhorn
from .tasks import TaskDefinition, InfeasibleDecisionError, objective_rows, validate_decision

MODES = ("as-written", "symmetrized")


@dataclass(frozen=True, eq=False)
class Sample:
    """One predict-then-optimize instance: features x, labels y, decision z."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 1 or v.size < 1:
                raise ValueError(f"sample field {name!r} must be a nonempty vector")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class GroundCostWeights:
    alpha_x: float
    alpha_y: float
    alpha_w: float

    def __post_init__(self):
        if self.alpha_x < 0 or self.alpha_y < 0 or self.alpha_w < 0:
            raise ValueError("ground-cost weights must be nonnegative")
        total = self.alpha_x + self.alpha_y + self.alpha_w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ground-cost weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class CostBreakdown:
    feature_term: float
    label_term: float
    decision_term: float
    total: float


def _check_feasible(task: TaskDefinition, z, z_prime) -> None:
    if not validate_decision(task, z):
        raise InfeasibleDecisionError("first decision argument is infeasible")
    if not validate_decision(task, z_prime):
        raise InfeasibleDecisionError("second decision argument is infeasible")


def decision_quality_disparity(task: TaskDefinition, z, z_prime, y, y_prime) -> float:
    """|g(z; y) - g(z'; y')| for two decisions under (possibly different) labels."""
    _check_feasible(task, z, z_prime)
    g = objective_rows(task, np.ravel(z), np.ravel(y))
    g_prime = objective_rows(task, np.ravel(z_prime), np.ravel(y_prime))
    return float(abs(g - g_prime))


def _components(task, XA, YA, ZA, XB, YB, ZB, mode):
    # F, L and W between every row of A and every row of B. Decisions are not
    # checked here: callers pass checked ones.
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    F = np.linalg.norm(XA[:, None, :] - XB[None, :, :], axis=2)
    L = np.linalg.norm(YA[:, None, :] - YB[None, :, :], axis=2)
    # W from the objective values g(z_i; y_j) of all decision/label pairings
    W = np.abs(objective_rows(task, ZA[:, None, :], YB[None, :, :]) - objective_rows(task, ZB, YB))
    if mode == "symmetrized":
        g_ba = objective_rows(task, ZB[None, :, :], YA[:, None, :])
        W = 0.5 * (np.abs(objective_rows(task, ZA, YA)[:, None] - g_ba) + W)
    return F, L, W


def _weighted(w: GroundCostWeights, F, L, W):
    return w.alpha_x * F + w.alpha_y * L + w.alpha_w * W


def pto_ground_cost(
    s: Sample,
    s_prime: Sample,
    w: GroundCostWeights,
    task: TaskDefinition,
    mode: str = "as-written",
) -> CostBreakdown:
    """The ground cost between two samples: one entry of :func:`component_matrices`."""
    if s.x.shape != s_prime.x.shape or s.y.shape != s_prime.y.shape or s.z.shape != s_prime.z.shape:
        raise ValueError(
            f"sample dimensions differ: x {s.x.shape} vs {s_prime.x.shape}, "
            f"y {s.y.shape} vs {s_prime.y.shape}, z {s.z.shape} vs {s_prime.z.shape}"
        )
    _check_feasible(task, s.z, s_prime.z)
    rows = (v[None, :] for v in (s.x, s.y, s.z, s_prime.x, s_prime.y, s_prime.z))
    F, L, W = (float(c[0, 0]) for c in _components(task, *rows, mode))
    return CostBreakdown(F, L, W, _weighted(w, F, L, W))


def component_matrices(dataset, dataset_prime, mode: str = "as-written"):
    """Feature, label, and decision cost matrices between two datasets.

    Useful when sweeping weights: the total cost matrix for any weights is
    the matching linear combination of these three.
    """
    return _components(dataset.task, dataset.X, dataset.Y, dataset.Z,
                       dataset_prime.X, dataset_prime.Y, dataset_prime.Z, mode)


def pairwise_cost_matrix(
    dataset,
    dataset_prime,
    w: GroundCostWeights,
    mode: str = "as-written",
) -> CostMatrix:
    """Matrix of total ground costs between all sample pairs of two datasets."""
    if dataset.task != dataset_prime.task:
        raise ValueError(
            f"datasets are from different task families: "
            f"{dataset.task.kind!r} vs {dataset_prime.task.kind!r}"
        )
    return CostMatrix(_weighted(w, *component_matrices(dataset, dataset_prime, mode)))


def decision_aware_distance(
    dataset,
    dataset_prime,
    w: GroundCostWeights,
    solver: str = "exact",
    epsilon: float = 0.01,
    mode: str = "as-written",
) -> float:
    """Optimal-transport dataset distance under the decision-aware ground cost.

    Raises ``SinkhornConvergenceError`` (an ``ArithmeticError``) when the
    Sinkhorn solver stops unconverged.
    """
    cost = pairwise_cost_matrix(dataset, dataset_prime, w, mode)
    a = Marginal.uniform(len(dataset))
    b = Marginal.uniform(len(dataset_prime))
    if solver == "exact":
        _, value = solve_exact(cost, a, b)
        return value
    if solver == "sinkhorn":
        res = solve_sinkhorn(cost, a, b, epsilon=epsilon)
        if not res.converged:
            raise SinkhornConvergenceError(
                f"Sinkhorn at epsilon {epsilon!r} did not converge: marginal violation "
                f"{res.marginal_violation:.3e} after {res.iterations} iterations"
            )
        return res.cost
    raise ValueError(f"solver must be 'exact' or 'sinkhorn', got {solver!r}")
