"""Discrete optimal transport over precomputed cost matrices.

Exact solutions via assignment (uniform equal-size marginals) or a sparse
linear program; entropic approximations via Sinkhorn scaling on a kernel
stabilized by absorbed log-domain potentials.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MARGINAL_SUM_TOL = 1e-9
PLAN_MARGINAL_TOL = 1e-6
# Sinkhorn scalings beyond [1/SCALING_BOUND, SCALING_BOUND] are absorbed into
# the log-domain potentials
SCALING_BOUND = 1e30
# Sinkhorn checks its marginal violation every CHECK_EVERY iterations
CHECK_EVERY = 10
# HiGHS settings of the exact LP. At HiGHS's default 1e-7 feasibility
# tolerances the value can sit ~1e-7 relative above the optimum. Presolve is
# off: a transportation LP gives it little to remove (rows and columns of zero
# weight), and it costs time and memory on every solve
_HIGHS_OPTIONS = {
    "presolve": "off",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "output_flag": False,
    "log_to_console": False,
}


class DimensionMismatchError(ValueError):
    """Shapes of a plan/cost/marginal combination do not agree."""


class InfeasibleMarginalsError(ValueError):
    """Marginals do not form valid coupled distributions."""


class SinkhornConvergenceError(ArithmeticError):
    """Sinkhorn scaling stopped before its marginal violation fell below tol."""


class LinearProgramError(ArithmeticError):
    """HiGHS stopped the exact OT linear program without an optimal solution."""


@dataclass(frozen=True)
class CostMatrix:
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError(f"cost matrix must be 2-d and nonempty, got shape {entries.shape}")
        # min and max propagate NaN: the checks make no array beside the cost
        lo, hi = entries.min(), entries.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("cost matrix entries must be finite")
        if lo < 0:
            raise ValueError("cost matrix entries must be nonnegative")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class Marginal:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError(f"marginal must be a nonempty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("marginal weights must be finite")
        if np.any(w < 0):
            raise ValueError("marginal weights must be nonnegative")
        if abs(w.sum() - 1.0) > MARGINAL_SUM_TOL:
            raise ValueError(f"marginal weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    @lru_cache(maxsize=32)
    def uniform(cls, n: int) -> "Marginal":
        """The uniform marginal on n points, checked once per size and kept (read-only)."""
        w = np.full(n, 1.0 / n)
        w.flags.writeable = False
        return cls(w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class TransportPlan:
    matrix: np.ndarray
    row_marginal: Marginal
    col_marginal: Marginal
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.row_marginal), len(self.col_marginal)):
            raise DimensionMismatchError(
                f"plan shape {m.shape} does not match marginals "
                f"({len(self.row_marginal)}, {len(self.col_marginal)})"
            )
        if self.validate:
            if np.any(m < -PLAN_MARGINAL_TOL):
                raise ValueError("transport plan entries must be nonnegative")
            row_err = np.abs(m.sum(axis=1) - self.row_marginal.weights).max()
            col_err = np.abs(m.sum(axis=0) - self.col_marginal.weights).max()
            if row_err > PLAN_MARGINAL_TOL or col_err > PLAN_MARGINAL_TOL:
                raise ValueError(
                    f"plan marginals violated: row err {row_err:.3e}, col err {col_err:.3e}"
                )


@dataclass(frozen=True)
class SinkhornResult:
    plan: TransportPlan
    cost: float
    converged: bool
    marginal_violation: float
    iterations: int


def transport_cost(plan: TransportPlan, cost: CostMatrix) -> float:
    """Expected ground cost <plan, cost> of a coupling."""
    if plan.matrix.shape != cost.entries.shape:
        raise DimensionMismatchError(
            f"plan shape {plan.matrix.shape} vs cost shape {cost.entries.shape}"
        )
    return float(np.sum(plan.matrix * cost.entries))


def _check_problem(cost: CostMatrix, a: Marginal, b: Marginal) -> None:
    if (len(a), len(b)) != cost.entries.shape:
        raise DimensionMismatchError(
            f"cost shape {cost.entries.shape} vs marginals ({len(a)}, {len(b)})"
        )
    if abs(a.weights.sum() - b.weights.sum()) > MARGINAL_SUM_TOL:
        raise InfeasibleMarginalsError(
            f"marginal sums differ: {a.weights.sum()!r} vs {b.weights.sum()!r}"
        )


def solve_exact(cost: CostMatrix, a: Marginal, b: Marginal) -> tuple[TransportPlan, float]:
    """Exact OT plan and cost, minimizing <plan, cost> over the coupling polytope."""
    _check_problem(cost, a, b)
    C = cost.entries
    n, m = C.shape
    # an absolute test: a relative one would send marginals up to its rtol
    # off uniform to the assignment, whose plan then misses them
    uniform = (
        n == m
        and np.abs(a.weights - 1.0 / n).max() <= 1e-12
        and np.abs(b.weights - 1.0 / n).max() <= 1e-12
    )
    if uniform:
        # uniform equal-size OT reduces to an assignment problem. The copy
        # keeps the cost's memory layout, which the value's summation follows
        P = C.copy(order="K")
        value = _assign(P)
        return TransportPlan(P, a, b), value

    # imported here: scipy.optimize takes most of ``import ptodist``'s time.
    # The package first: importing the submodule first holds its import lock
    # while the package's __init__ runs, and another thread running that
    # __init__ (for linear_sum_assignment) needs the submodule: a deadlock
    import scipy.optimize  # noqa: F401
    from scipy.optimize._highspy import _core

    # general marginals: linear program on the row-major flattened coupling,
    # one equation per row sum and per column sum but the last (redundant),
    # passed row-wise: row i holds columns i*m .. i*m + m - 1, row n + k the
    # columns k + i*m. HiGHS stores it column-wise, each column's rows in order
    index = np.concatenate([np.arange(n * m), (np.arange(m - 1)[:, None] + m * np.arange(n)).ravel()],
                           dtype=np.int32)
    start = np.concatenate([m * np.arange(n), n * m + n * np.arange(m)], dtype=np.int32)
    b_eq = np.concatenate([a.weights, b.weights[:-1]])
    highs = _core._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(key, value)
    # the array form of passModel reads the arrays' buffers, where setting
    # HighsLp's fields converts them element by element. Integrality 0 is
    # continuous
    highs.passModel(n * m, n + m - 1, index.size, int(_core.MatrixFormat.kRowwise),
                    int(_core.ObjSense.kMinimize), 0.0, C.ravel(), np.zeros(n * m),
                    np.full(n * m, np.inf), b_eq, b_eq, start, index,
                    np.ones(index.size), np.zeros(n * m, dtype=np.int32))
    highs.run()
    status = highs.getModelStatus()
    if status != _core.HighsModelStatus.kOptimal:
        raise LinearProgramError(f"exact OT linear program failed: {highs.modelStatusToString(status)}")
    P = np.array(highs.getSolution().col_value).reshape(n, m)
    P = np.maximum(P, 0.0)
    plan = TransportPlan(P, a, b)
    return plan, transport_cost(plan, cost)


def _assign(P: np.ndarray) -> float:
    """Uniform OT on the square cost ``P`` as an assignment; overwrites ``P``
    with the plan and returns its value.

    The plan's assigned entries first hold their share of the cost and the
    rest +0.0, so the value is the sum ``transport_cost`` takes, without an
    n x n array beside ``P``. ``linear_sum_assignment`` releases the GIL, so
    calls on different arrays can run on threads.
    """
    from scipy.optimize import linear_sum_assignment

    n = P.shape[0]
    rows, cols = linear_sum_assignment(P)
    shares = (1.0 / n) * P[rows, cols]
    P.fill(0.0)
    P[rows, cols] = shares
    value = float(np.sum(P))
    P[rows, cols] = 1.0 / n
    return value


def solve_sinkhorn(
    cost: CostMatrix,
    a: Marginal,
    b: Marginal,
    epsilon: float,
    max_iter: int = 10_000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Entropically regularized OT via alternating scaling.

    The scaling runs on a kernel stabilized by absorbed log-domain
    potentials, so any epsilon works without underflow. Rows and columns of
    zero weight carry no mass and are left out of the iteration. The returned
    plan is rounded onto the coupling polytope so its marginals hold
    exactly; ``marginal_violation`` reports the scaling loop's residual
    before rounding. The reported cost is <plan, cost> without the entropy
    term.
    """
    # NaN fails both comparisons
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    # a float max_iter (inf or NaN too) raises TypeError, as a count should
    if operator.index(max_iter) < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _check_problem(cost, a, b)

    C = cost.entries
    rows, cols = a.weights > 0, b.weights > 0
    plan_matrix = np.zeros_like(C)
    plan_matrix[np.ix_(rows, cols)], violation, iters = _sinkhorn(
        C[np.ix_(rows, cols)], a.weights[rows], b.weights[cols], epsilon, max_iter, tol
    )

    converged = violation < tol
    plan_matrix = _round_to_polytope(plan_matrix, a.weights, b.weights)
    plan = TransportPlan(plan_matrix, a, b)
    return SinkhornResult(
        plan=plan,
        cost=transport_cost(plan, cost),
        converged=converged,
        marginal_violation=float(violation),
        iterations=iters,
    )


def _log_scaling(C, log_w, h, epsilon):
    """Potential that gives the rows of exp((f + h - C)/eps) the sums exp(log_w)."""
    T = (h[None, :] - C) / epsilon
    mx = T.max(axis=1)
    return epsilon * (log_w - mx - np.log(np.exp(T - mx[:, None]).sum(axis=1)))


def _sinkhorn(C, a, b, epsilon, max_iter, tol):
    """Sinkhorn scaling u = a / (K v), v = b / (K^T u) on the stabilized kernel
    K = exp((f + g - C)/eps), for strictly positive a and b (Schmitzer 2019).

    The plan is u K v throughout. A scaling that leaves
    [1/SCALING_BOUND, SCALING_BOUND], or is not finite because K v or K^T u
    underflowed, is recomputed in the log domain from the other side's
    potential; the scalings are then absorbed into f and g and K is rebuilt.
    The first half step always runs in the log domain.

    The scaling runs in blocks that end where the violation is checked,
    every CHECK_EVERY iterations and at max_iter. A block first runs into
    the buffers U and V with the bounds unchecked, then checks them once, on
    all of its scalings. A block that left them, and the first block, which
    has no K yet, run again from their start with the bounds checked after
    every half step, so the iterates are always those of that checked loop.
    """
    n, m = C.shape
    log_a, log_b = np.log(a), np.log(b)
    f, g, K = np.zeros(n), np.zeros(m), None
    u, v = np.ones(n), np.ones(m)
    U, V = np.empty((CHECK_EVERY, n)), np.empty((CHECK_EVERY, m))
    done = 0   # iterations before the block
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            end = min(CHECK_EVERY, max_iter - done)   # iterations in the block
            if K is not None:
                for r in range(end):
                    np.divide(a, K @ (V[r - 1] if r else v), out=U[r])
                    np.divide(b, K.T @ U[r], out=V[r])
            if K is not None and _in_bounds(U[:end]) and _in_bounds(V[:end]):
                # copies: the next block overwrites U and V, and may run again from u and v
                u, v = U[end - 1].copy(), V[end - 1].copy()
            else:
                for _ in range(end):
                    if K is not None:
                        u = a / (K @ v)
                    if K is None or not _in_bounds(u):
                        g += epsilon * np.log(v)
                        f = _log_scaling(C, log_a, g, epsilon)
                        K = np.exp((f[:, None] + g[None, :] - C) / epsilon)
                        u = np.ones(n)
                    v = b / (K.T @ u)
                    if not _in_bounds(v):
                        f += epsilon * np.log(u)
                        g = _log_scaling(C.T, log_b, f, epsilon)
                        K = np.exp((f[:, None] + g[None, :] - C) / epsilon)
                        u, v = np.ones(n), np.ones(m)
            done += end
            violation = np.abs(u * (K @ v) - a).max()
            if violation < tol or done == max_iter:
                break
    P = u[:, None] * K * v[None, :]
    violation = max(np.abs(P.sum(axis=1) - a).max(), np.abs(P.sum(axis=0) - b).max())
    return P, violation, done


def _in_bounds(x):
    """Whether every scaling in ``x`` lies in [1/SCALING_BOUND, SCALING_BOUND];
    min and max propagate NaN, which is out of bounds."""
    return 1.0 / SCALING_BOUND <= x.min() and x.max() <= SCALING_BOUND


def _round_to_polytope(P, a, b):
    """Rescale rows/columns toward the marginals and absorb the residual mass."""
    P = P * np.minimum(1.0, a / np.maximum(P.sum(axis=1), 1e-300))[:, None]
    P = P * np.minimum(1.0, b / np.maximum(P.sum(axis=0), 1e-300))[None, :]
    res_a = a - P.sum(axis=1)
    res_b = b - P.sum(axis=0)
    total = res_a.sum()
    if total > 1e-18:
        P = P + np.outer(res_a, res_b) / total
    return P
