"""Downstream optimization problems: objectives, oracles, and feasibility.

Three task families are supported:

* ``topk`` -- pick the K highest-utility resources; decisions are binary
  selection masks.
* ``shortest_path`` -- cheapest connected path between opposite corners of a
  p x p cost grid; decisions are binary cell masks.
* ``inventory`` -- scalar order quantity minimizing expected stocking cost
  under a discrete demand distribution; decisions are length-1 vectors.

All objectives are maximized, so the shortest-path objective is the negated
path cost.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np


class NegativeCostError(ArithmeticError):
    """A shortest-path cell cost is negative, so shortest paths are undefined."""


def _is_real(v) -> bool:
    """An int or a float; a bool is not one."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """An int or a float within the float range; NaN, an infinity and a bool are not one."""
    return _is_real(v) and abs(v) <= sys.float_info.max


@dataclass(frozen=True)
class InventoryParams:
    """Stocking cost coefficients: linear/quadratic order, backorder, holding."""

    c0: float = 30.0
    q0: float = 10.0
    cb: float = 10.0
    qb: float = 2.0
    ch: float = 30.0
    qh: float = 25.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (is_finite_number(value) and value >= 0):
                raise ValueError(f"inventory cost coefficients must be nonnegative and finite, got {name}={value!r}")
        if not (self.q0 > 0 or (self.qb > 0 and self.qh > 0)):
            raise ValueError("need q0 > 0 or both qb, qh > 0 for a unique minimizer")


class Family(NamedTuple):
    """What a task family is, as data."""

    params: dict    # the JSON type of each param, in header order
    defaults: dict  # the value of each param a header or a caller may leave out
    labels: str     # the label domain: "real", "nonnegative" or "simplex"


FAMILIES = {
    "topk": Family({"n_resources": "an integer", "k": "an integer"}, {}, "real"),
    # cell costs: the 8-neighbour grid has cycles, so a negative cost leaves shortest paths undefined
    "shortest_path": Family({"p": "an integer", "neighborhood": "an integer", "count_start": "a boolean",
                             "length_weight": "a number"},
                            {"neighborhood": 8, "count_start": True, "length_weight": 0.0}, "nonnegative"),
    "inventory": Family({"demand_values": "a list of numbers", "inventory_params": "an object of numbers"}, {},
                        "simplex"),
}


# The check of each param type of FAMILIES on the value a task holds
_PARAM_TYPES = {
    "an integer": lambda v: isinstance(v, Integral) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
    "a number": _is_real,
    "a list of numbers": lambda v: isinstance(v, (list, tuple)) and all(map(_is_real, v)),
    "an object of numbers": lambda v: isinstance(v, InventoryParams) or (
        isinstance(v, dict) and all(map(_is_real, v.values()))),
}


@dataclass(frozen=True)
class TaskDefinition:
    """A task of one of the :data:`FAMILIES`, its params in the family's order with the defaults filled in.
    ``label_dim`` is the width of its label rows, ``label_domain`` where their values lie."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FAMILIES:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValueError("task params must be an object")
        family = FAMILIES[self.kind]
        for key in self.params:
            if key not in family.params:
                raise ValueError(f"unknown task param {key!r}")
        given = {**family.defaults, **self.params}
        for key in family.params:
            if key not in given:
                raise ValueError(f"task params missing {key!r}")
        object.__setattr__(self, "params", {key: given[key] for key in family.params})
        for key, kind in family.params.items():
            value = self.params[key]
            if not _PARAM_TYPES[kind](value):
                raise ValueError(f"task param {key!r} must be {kind}, got {value!r}")
            numbers = ([value] if kind == "a number" else value if kind == "a list of numbers"
                       else value.values() if isinstance(value, dict) else [])
            if not all(map(is_finite_number, numbers)):
                raise ValueError(f"task param {key!r} must be finite, got {value!r}")
            # a list and a tuple of the same numbers are one task, as are an object and
            # InventoryParams, and a numpy integer and an int
            if kind == "an integer":
                self.params[key] = int(value)
            elif kind == "a list of numbers":
                self.params[key] = tuple(value)
            elif isinstance(value, dict):
                known = {f.name for f in fields(InventoryParams)}
                unknown = [name for name in value if name not in known]
                if unknown:
                    raise ValueError(f"unknown inventory param {unknown[0]!r}")
                self.params[key] = InventoryParams(**value)
        if self.kind == "topk":
            k = self.params["k"]
            n = self.params["n_resources"]
            if not (1 <= k <= n):
                raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
            label_dim = n  # a utility per resource
        elif self.kind == "shortest_path":
            p = self.params["p"]
            if p < 2:
                raise ValueError(f"grid side must be >= 2, got {p}")
            if self.params["neighborhood"] not in (4, 8):
                raise ValueError("neighborhood must be 4 or 8")
            length_weight = self.params["length_weight"]
            if length_weight < 0:  # it is added to every cell cost, which must not be negative
                raise ValueError(f"task param 'length_weight' must be nonnegative, got {length_weight!r}")
            label_dim = p * p  # a cost per cell
        else:
            demands = np.asarray(self.params["demand_values"], dtype=float)
            if demands.size < 2 or np.any(np.diff(demands) <= 0):
                raise ValueError("demand values must be strictly increasing, length >= 2")
            label_dim = demands.size  # a probability per demand value
        # attributes, not fields: a task's equality and its header are its kind and params
        object.__setattr__(self, "label_dim", label_dim)
        object.__setattr__(self, "label_domain", family.labels)


def shared_task(task: TaskDefinition, *others: TaskDefinition) -> TaskDefinition:
    """``task``, when each of ``others`` equals it: the one place two tasks are compared.
    Otherwise a ``ValueError`` names the differing kind, or the first differing param
    in the family's order with both values."""
    for other in others:
        if other == task:
            continue
        if other.kind != task.kind:
            raise ValueError(f"task kinds differ: {task.kind!r} vs {other.kind!r}")
        key = next(key for key in task.params if task.params[key] != other.params[key])
        raise ValueError(f"{task.kind!r} task param {key!r} differs: "
                         f"{task.params[key]!r} vs {other.params[key]!r}")
    return task


def topk_task(n_resources: int, k: int) -> TaskDefinition:
    return TaskDefinition("topk", {"n_resources": n_resources, "k": k})


def shortest_path_task(p: int, **options) -> TaskDefinition:
    """The task on a p x p grid; ``options`` are its other params, defaulting as in ``FAMILIES``."""
    return TaskDefinition("shortest_path", {"p": p, **options})


def inventory_task(
    demand_values=(5.0, 10.0, 15.0, 20.0, 25.0),
    inventory_params: InventoryParams | None = None,
) -> TaskDefinition:
    return TaskDefinition(
        "inventory",
        {
            "demand_values": tuple(float(d) for d in demand_values),
            "inventory_params": inventory_params or InventoryParams(),
        },
    )


def fstock(params: InventoryParams, d, z):
    """Stocking cost for order quantity z under realized demand d (numbers or arrays, broadcast together)."""
    under = np.maximum(d - z, 0.0)
    over = np.maximum(z - d, 0.0)
    return (
        params.c0 * z
        + 0.5 * params.q0 * z * z
        + params.cb * under
        + 0.5 * params.qb * under * under
        + params.ch * over
        + 0.5 * params.qh * over * over
    )


def _expected_stock_cost(task: TaskDefinition, probs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Expected stocking cost under the demand probabilities on the last axis of
    # probs, for order quantities z that carry a trailing axis of length 1.
    # Summed over the demands left to right, as np.add.accumulate and a Python
    # sum would.
    demands = np.asarray(task.params["demand_values"], dtype=float)
    costs = fstock(task.params["inventory_params"], demands, z)
    total = probs[..., 0] * costs[..., 0]
    for j in range(1, demands.size):
        total = total + probs[..., j] * costs[..., j]
    return total


def feasible_rows(task: TaskDefinition, Z) -> np.ndarray:
    """Whether each row of stacked decisions Z is feasible for the task.

    Top-K: ``n_resources`` entries, each 0 or 1, summing to K. Inventory: one
    entry, at least 0. Shortest path: p*p cells, each 0 or 1, with the source
    and the sink set and every set cell reachable from the source through set
    cells. A row of another width, or holding NaN, is infeasible.
    """
    Z = np.asarray(Z, dtype=float)
    if task.kind == "inventory":
        return Z[:, 0] >= 0 if Z.shape[1] == 1 else np.zeros(len(Z), dtype=bool)
    if Z.shape[1] != task.label_dim:  # a top-K or grid decision has one entry per label
        return np.zeros(len(Z), dtype=bool)
    ok = ((Z == 0.0) | (Z == 1.0)).all(axis=1)
    if task.kind == "topk":
        return ok & (Z.sum(axis=1) == task.params["k"])
    # flood fill from the source on every mask at once, through padded shifted views
    p = task.params["p"]
    mask = Z.reshape(-1, p, p) == 1.0
    moves = _neighbor_moves(task.params["neighborhood"])
    padded = np.zeros((len(Z), p + 2, p + 2), dtype=bool)  # a border no move leaves through
    reached = padded[:, 1:-1, 1:-1]
    reached[:, 0, 0] = mask[:, 0, 0]
    while True:
        near = np.logical_or.reduce([padded[:, 1 + di : p + 1 + di, 1 + dj : p + 1 + dj] for di, dj in moves])
        grown = near & mask & ~reached
        if not grown.any():
            break
        reached |= grown
    return ok & mask[:, 0, 0] & mask[:, -1, -1] & (reached == mask).all(axis=(1, 2))


def _neighbor_moves(neighborhood: int):
    if neighborhood == 4:
        return ((-1, 0), (1, 0), (0, -1), (0, 1))
    return ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def objective_rows(task: TaskDefinition, Z, Y) -> np.ndarray:
    """g(z_i; y_i) for each row of stacked decisions Z and labels Y.

    Each row is one vector along the last axis; a single pair of vectors
    gives a scalar. Rows are not checked for feasibility: datasets check
    theirs once, with :func:`feasible_rows`, and the oracle's are feasible.
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    # np.vecdot takes one BLAS dot per row: the arithmetic of ``z @ y``
    if task.kind == "topk":
        return np.vecdot(Z, Y)
    if task.kind == "shortest_path":
        return -np.vecdot(Z, Y) - task.params["length_weight"] * Z.sum(axis=-1)
    return -_expected_stock_cost(task, Y, Z)


def oracle_batch(task: TaskDefinition, Y) -> np.ndarray:
    """Optimal decisions argmax_z g(z; y_i), one row per row of labels Y.

    Deterministic, and each row depends only on its own labels. Top-K ties
    break to the lowest index; among inventory candidates of equal cost the
    first (knots, then segment stationary points) wins. The shortest path is
    the one of minimum cost; then of the fewest cells; then, walking back
    from the sink, of the lowest-index predecessor at each cell. Equivalently,
    among the cheapest paths with the fewest cells, the one whose cell indices
    read from sink to source are lexicographically smallest. A path with more
    cells counts as cheaper only by more than 1e-12 relative.
    """
    Y = np.asarray(Y, dtype=float)
    if task.kind == "topk":
        order = np.argsort(-Y, axis=1, kind="stable")
        Z = np.zeros(Y.shape)
        Z[np.arange(len(Y))[:, None], order[:, : task.params["k"]]] = 1.0
        return Z
    if task.kind == "shortest_path":
        return _shortest_path_oracle_batch(task, Y)
    return _inventory_oracle_batch(task, Y)


def _shortest_path_oracle_batch(task: TaskDefinition, Y: np.ndarray) -> np.ndarray:
    # Synchronous Bellman-Ford on every row at once: sweep k gives each cell
    # its cheapest walk of at most k moves, so a cell's distance last falls at
    # the fewest moves of its cheapest paths. Its predecessor, from that
    # sweep, is the first minimum over moves sorted by index offset.
    p = task.params["p"]
    costs = Y.reshape(-1, p, p) + task.params["length_weight"]
    if costs.size and costs.min() < 0:
        # adjacent negative cells form negative cycles: relaxation would never stop
        row, i, j = np.unravel_index(np.argmin(costs), costs.shape)
        raise NegativeCostError(
            f"shortest-path cell cost {float(costs[row, i, j])!r} (label + length_weight) "
            f"at row {row}, cell {i * p + j} is negative; cell costs must be nonnegative"
        )
    n = len(costs)
    moves = sorted(_neighbor_moves(task.params["neighborhood"]), key=lambda m: m[0] * p + m[1])
    offsets = np.array([di * p + dj for di, dj in moves])
    padded = np.full((n, p + 2, p + 2), np.inf)  # an infinite border: no move leaves the grid
    dist = padded[:, 1:-1, 1:-1]
    dist[:, 0, 0] = costs[:, 0, 0] if task.params["count_start"] else 0.0
    pred = np.zeros((n, p, p), dtype=np.intp)  # the source keeps 0, itself
    cells = np.arange(p * p).reshape(p, p)
    while True:
        near = np.stack([padded[:, 1 + di : p + 1 + di, 1 + dj : p + 1 + dj] for di, dj in moves], axis=1)
        new = near.min(axis=1) + costs
        falls = new < dist * (1.0 - 1e-12)
        if not falls.any():
            break
        dist[falls] = new[falls]
        pred[falls] = (cells + offsets[near.argmin(axis=1)])[falls]
    pred = pred.reshape(n, p * p)
    Z = np.zeros((n, p * p))
    rows = np.arange(n)
    cur = np.full(n, p * p - 1)
    Z[rows, cur] = 1.0
    while cur.any():
        cur = pred[rows, cur]
        Z[rows, cur] = 1.0
    return Z


class _InventoryTables(NamedTuple):
    """Per-task constants of the inventory oracle, as read-only arrays. Knot s
    starts segment s, so both take the same index."""

    knots: np.ndarray       # candidate order quantities: 0, then the demands, clipped at 0
    lo: np.ndarray          # segment bounds: segment s is [lo[s], hi[s]]
    hi: np.ndarray
    per_demand: np.ndarray  # (demand, 3, segment): what demand j adds, times p_j, to
                            # A and B of H(z) = A z^2 + B z + const on segment s,
                            # and to the expected cost of knot s (fstock there)


@lru_cache(maxsize=32)
def _inventory_tables(params: InventoryParams, demand_values: tuple) -> _InventoryTables:
    demands = np.asarray(demand_values, dtype=float)
    knots = np.concatenate([[0.0], demands])
    lo = knots
    hi = np.append(knots[1:], knots[-1] + 1.0)  # the last segment lies beyond the largest demand
    mid = 0.5 * (lo + hi)
    under = demands[:, None] > mid[None, :]  # (demand, segment): backorder side
    over = demands[:, None] < mid[None, :]
    coef_a = np.where(under, 0.5 * params.qb, 0.0) + np.where(over, 0.5 * params.qh, 0.0)
    coef_b = (np.where(under, -(params.cb + params.qb * demands[:, None]), 0.0)
              + np.where(over, params.ch - params.qh * demands[:, None], 0.0))
    clipped = np.maximum(knots, 0.0)
    knot_costs = fstock(params, demands[:, None], clipped[None, :])
    tables = _InventoryTables(clipped, lo, hi, np.stack([coef_a, coef_b, knot_costs], axis=1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _inventory_oracle_batch(task: TaskDefinition, P: np.ndarray) -> np.ndarray:
    # for fixed z the auxiliary QP variables collapse to hinge values, leaving a
    # convex piecewise-quadratic in scalar z; minimize piece by piece, every row at once
    params: InventoryParams = task.params["inventory_params"]
    knots, lo, hi, per_demand = _inventory_tables(params, tuple(task.params["demand_values"]))
    # one pass over the demands, left to right, sums A, B and the knots' costs;
    # A and B start from the order terms (base + p_0 * coef, as addition commutes)
    S = P[:, 0, None, None] * per_demand[0]
    S[:, :2] += np.array([[0.5 * params.q0], [params.c0]])
    for j in range(1, P.shape[1]):
        S = S + P[:, j, None, None] * per_demand[j]
    A, B = S[:, 0], S[:, 1]
    z_star = np.divide(-B, 2 * A, out=np.zeros(A.shape), where=A > 0)
    inside = (A > 0) & (lo <= z_star) & (z_star <= hi)
    # candidates: the knots, then the segments' stationary points; a stationary
    # point outside its segment keeps the cost +inf
    n, m = A.shape
    candidates = np.empty((n, 2 * m))
    candidates[:, :m] = knots
    np.maximum(z_star, 0.0, out=candidates[:, m:])
    vals = np.full((n, 2 * m), np.inf)
    vals[:, :m] = S[:, 2]
    rows = np.nonzero(inside)[0]
    vals[:, m:][inside] = _expected_stock_cost(task, P[rows], candidates[:, m:][inside][:, None])
    best = np.argmin(vals, axis=1)  # the first minimum
    return candidates[np.arange(n), best][:, None]


LIPSCHITZ_SCALE = 10.0


def empirical_lipschitz(task: TaskDefinition, *, trials: int = 20_000, seed: int = 0) -> float:
    """Largest observed ratio |q(y,y*) - q(z,z*)| / (|y-z| + |y*-z*|).

    A measurement of the decision-quality Lipschitz constants over randomized
    bounded-norm label pairs, not a proof. Labels of the task's width are drawn
    in [-LIPSCHITZ_SCALE, LIPSCHITZ_SCALE], in [0, LIPSCHITZ_SCALE] for
    nonnegative labels, and normalized for simplex labels. Trials run in blocks
    of about ``_LIPSCHITZ_BLOCK`` label values, one oracle call each, and give
    the value of a loop over one trial at a time, bit for bit.
    """
    best = 0.0
    for ratios in _lipschitz_ratios(task, trials, seed):
        best = max(best, ratios.max())
    return best


# Label values per oracle call of the probe, so a block's temporaries stay
# bounded whatever the label width: inventory and top-K(5) take 409 trials a
# call (818 rows; the inventory oracle's largest temporary, its (rows, 3, 6)
# sums, is 118 KB), a 12 x 12 grid takes 14.
_LIPSCHITZ_BLOCK = 2048


def _lipschitz_ratios(task: TaskDefinition, trials: int, seed: int):
    """The probe's ratios in trial order, one array per block of trials; 0 where
    both label gaps vanish. Each trial is the same arithmetic as a one-trial loop."""
    rng = np.random.default_rng(seed)
    low = 0.0 if task.label_domain == "nonnegative" else -LIPSCHITZ_SCALE
    block = max(1, _LIPSCHITZ_BLOCK // task.label_dim)
    for start in range(0, trials, block):
        n = min(block, trials - start)
        draws = rng.uniform(low, LIPSCHITZ_SCALE, size=(n, 4, task.label_dim))  # the stream of n (4, label_dim) draws
        if task.label_domain == "simplex":
            draws = np.abs(draws)
            draws /= draws.sum(axis=-1, keepdims=True)
        y, y_star, z, z_star = draws.transpose(1, 0, 2)
        # [y; z] decided in one oracle call and scored under [y*; z*]
        q = objective_rows(task, oracle_batch(task, np.concatenate([y, z])), np.concatenate([y_star, z_star]))
        num = np.abs(q[:n] - q[n:])
        # np.linalg.norm of a vector is sqrt of its BLAS dot with itself, as vecdot's rows are
        dy, dy_star = y - z, y_star - z_star
        den = np.sqrt(np.vecdot(dy, dy)) + np.sqrt(np.vecdot(dy_star, dy_star))
        yield np.divide(num, den, out=np.zeros(n), where=den > 1e-12)

