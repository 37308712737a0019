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

import math
from dataclasses import dataclass

import numpy as np

from .ot_core import CostMatrix, Marginal, SinkhornConvergenceError, solve_exact, solve_sinkhorn
from .tasks import objective_rows, shared_task

MODES = ("as-written", "symmetrized")
_NORM_BLOCK = 2**20  # float64 differences per block of _pairwise_norms: 8 MB


@dataclass(frozen=True)
class GroundCostWeights:
    alpha_x: float
    alpha_y: float
    alpha_w: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:
                raise ValueError(f"ground-cost weights must be nonnegative and finite, got {name}={value!r}")
        total = self.alpha_x + self.alpha_y + self.alpha_w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ground-cost weights must sum to 1, got {total!r}")


def _pairwise_norms(A, B):
    """``|a_i - b_j|`` for every row of ``A`` and every row of ``B``, each the norm
    of its own difference row, a block of about ``_NORM_BLOCK`` differences at a time."""
    step = max(1, _NORM_BLOCK // B.size)
    return np.concatenate([np.linalg.norm(A[i:i + step, None, :] - B[None, :, :], axis=2)
                           for i in range(0, len(A), step)])


def _components(task, XA, YA, ZA, XB, YB, ZB, mode):
    # F, L and W between every row of A and every row of B. Decisions are not
    # checked here: callers pass checked ones.
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if XA.shape[1] != XB.shape[1]:  # a width of 1 would broadcast against any other
        raise ValueError(f"sample dimensions differ: {XA.shape[1]} vs {XB.shape[1]} features")
    F, L = _pairwise_norms(XA, XB), _pairwise_norms(YA, YB)
    # W from the objective values g(z_i; y_j) of all decision/label pairings
    W = np.abs(objective_rows(task, ZA[:, None, :], YB[None, :, :]) - objective_rows(task, ZB, YB))
    if mode == "symmetrized":
        g_ba = objective_rows(task, ZB[None, :, :], YA[:, None, :])
        W = 0.5 * (np.abs(objective_rows(task, ZA, YA)[:, None] - g_ba) + W)
    return F, L, W


def _weighted(w: GroundCostWeights, F, L, W):
    return w.alpha_x * F + w.alpha_y * L + w.alpha_w * W


def component_matrices(dataset, dataset_prime, mode: str = "as-written"):
    """Feature, label, and decision cost matrices between two datasets.

    Useful when sweeping weights: the total cost matrix for any weights is
    the matching linear combination of these three. The datasets must share
    their task (:func:`~ptodist.tasks.shared_task`).
    """
    return _components(shared_task(dataset.task, dataset_prime.task), dataset.X, dataset.Y, dataset.Z,
                       dataset_prime.X, dataset_prime.Y, dataset_prime.Z, mode)


def pairwise_cost_matrix(
    dataset,
    dataset_prime,
    w: GroundCostWeights,
    mode: str = "as-written",
) -> CostMatrix:
    """Matrix of total ground costs between all sample pairs of two datasets."""
    return CostMatrix(_weighted(w, *component_matrices(dataset, dataset_prime, mode)))


def decision_aware_distance(
    dataset,
    dataset_prime,
    w: GroundCostWeights,
    mode: str = "as-written",
) -> float:
    """Optimal-transport dataset distance under the decision-aware ground
    cost: the exact value of :func:`transport` on :func:`pairwise_cost_matrix`."""
    return transport(pairwise_cost_matrix(dataset, dataset_prime, w, mode))[1]


def transport(cost: CostMatrix, solver: str = "exact", epsilon: float = 0.01):
    """``(plan, value)`` of OT under ``cost`` between uniform marginals, by
    ``solve_exact`` or ``solve_sinkhorn`` at ``epsilon``; an unconverged Sinkhorn
    run raises ``SinkhornConvergenceError`` (an ``ArithmeticError``)."""
    a, b = map(Marginal.uniform, cost.entries.shape)
    if solver == "exact":
        return solve_exact(cost, a, b)
    if solver != "sinkhorn":
        raise ValueError(f"solver must be 'exact' or 'sinkhorn', got {solver!r}")
    res = solve_sinkhorn(cost, a, b, epsilon=epsilon)
    if not res.converged:
        raise SinkhornConvergenceError(
            f"Sinkhorn at epsilon {epsilon!r} did not converge: marginal violation "
            f"{res.marginal_violation:.3e} after {res.iterations} iterations"
        )
    return res.plan, res.cost
