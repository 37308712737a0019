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
from .tasks import TaskDefinition, InfeasibleDecisionError, objective, objective_rows, validate_decision

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


def decision_quality_disparity(task: TaskDefinition, z, z_prime, y, y_prime) -> float:
    """|g(z; y) - g(z'; y')| for two decisions under (possibly different) labels."""
    if not validate_decision(task, z):
        raise InfeasibleDecisionError("first decision argument is infeasible")
    if not validate_decision(task, z_prime):
        raise InfeasibleDecisionError("second decision argument is infeasible")
    return abs(objective(task, z, y) - objective(task, z_prime, y_prime))


def pto_ground_cost(
    s: Sample,
    s_prime: Sample,
    w: GroundCostWeights,
    task: TaskDefinition,
    mode: str = "as-written",
) -> CostBreakdown:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if s.x.shape != s_prime.x.shape or s.y.shape != s_prime.y.shape or s.z.shape != s_prime.z.shape:
        raise ValueError(
            f"sample dimensions differ: x {s.x.shape} vs {s_prime.x.shape}, "
            f"y {s.y.shape} vs {s_prime.y.shape}, z {s.z.shape} vs {s_prime.z.shape}"
        )
    feature_term = float(np.linalg.norm(s.x - s_prime.x))
    label_term = float(np.linalg.norm(s.y - s_prime.y))
    if mode == "as-written":
        decision_term = decision_quality_disparity(task, s.z, s_prime.z, s_prime.y, s_prime.y)
    else:
        decision_term = 0.5 * (
            decision_quality_disparity(task, s.z, s_prime.z, s.y, s.y)
            + decision_quality_disparity(task, s.z, s_prime.z, s_prime.y, s_prime.y)
        )
    total = w.alpha_x * feature_term + w.alpha_y * label_term + w.alpha_w * decision_term
    return CostBreakdown(feature_term, label_term, decision_term, total)


def component_matrices(dataset, dataset_prime, mode: str = "as-written"):
    """Feature, label, and decision cost matrices between two datasets.

    Useful when sweeping weights: the total cost matrix for any weights is
    the matching linear combination of these three.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    task = dataset.task
    A, B = dataset.samples, dataset_prime.samples
    n, m = len(A), len(B)
    F = np.zeros((n, m))
    L = np.zeros((n, m))
    W = np.zeros((n, m))
    XA = np.array([a.x for a in A])
    XB = np.array([b.x for b in B])
    YA = np.array([a.y for a in A])
    YB = np.array([b.y for b in B])
    ZA = np.array([a.z for a in A])
    ZB = np.array([b.z for b in B])
    # objective values g(z_i; y_j) for all decision/label pairings; a dataset's
    # decisions were checked feasible when it was built
    gAB = objective_rows(task, ZA[:, None, :], YB[None, :, :])
    gBB = objective_rows(task, ZB, YB)
    if mode == "symmetrized":
        gAA = objective_rows(task, ZA, YA)
        gBA = objective_rows(task, ZB[:, None, :], YA[None, :, :])
    for i in range(n):
        F[i] = np.linalg.norm(XA[i][None, :] - XB, axis=1)
        L[i] = np.linalg.norm(YA[i][None, :] - YB, axis=1)
        as_written = np.abs(gAB[i] - gBB)
        if mode == "as-written":
            W[i] = as_written
        else:
            W[i] = 0.5 * (np.abs(gAA[i] - gBA[:, i]) + as_written)
    return F, L, W


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
    F, L, W = component_matrices(dataset, dataset_prime, mode)
    return CostMatrix(w.alpha_x * F + w.alpha_y * L + w.alpha_w * W)


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
    a = Marginal.uniform(len(dataset.samples))
    b = Marginal.uniform(len(dataset_prime.samples))
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
