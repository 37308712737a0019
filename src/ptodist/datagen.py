"""Synthetic dataset generation under three distribution-shift families,
plus line-delimited dataset file I/O.

Every generator is deterministic given its seeds and stamps provenance
(generator name, shift parameters, seeds) on the dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .ground_cost import Sample
from .tasks import (
    REQUIRED_PARAMS,
    InventoryParams,
    TaskDefinition,
    inventory_task,
    objective_rows,
    oracle,
    oracle_batch,
    shortest_path_task,
    topk_task,
    validate_decision,
)

DEFAULT_DEMAND_VALUES = (5.0, 10.0, 15.0, 20.0, 25.0)


class DatasetFormatError(ValueError):
    """A dataset file does not match the documented record format."""


@dataclass(frozen=True, eq=False)
class PtODataset:
    """Samples of one task, with their features and labels also stacked as
    arrays ``X`` (n, dx) and ``Y`` (n, dy)."""

    task: TaskDefinition
    samples: tuple
    provenance: dict
    X: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("dataset must contain at least one sample")
        if not self.provenance:
            raise ValueError("dataset provenance must be nonempty")
        object.__setattr__(self, "samples", tuple(self.samples))
        ref = self.samples[0]
        for i, s in enumerate(self.samples):
            if s.x.shape != ref.x.shape or s.y.shape != ref.y.shape or s.z.shape != ref.z.shape:
                raise ValueError(f"sample {i} is dimensionally inhomogeneous")
            if not validate_decision(self.task, s.z):
                raise ValueError(f"sample {i} carries an infeasible decision")
        object.__setattr__(self, "X", np.stack([s.x for s in self.samples]))
        object.__setattr__(self, "Y", np.stack([s.y for s in self.samples]))
        object.__setattr__(self, "_optimal_quality", None)

    def __len__(self) -> int:
        return len(self.samples)

    def optimal_quality(self, task: TaskDefinition) -> np.ndarray:
        """g(w*(y_i); y_i) for each sample under ``task`` (read-only).

        Computed on first use and kept; computed again only for another task.
        """
        cached = self._optimal_quality
        if cached is None or cached[0] != task:
            q = objective_rows(task, oracle_batch(task, self.Y), self.Y)
            q.flags.writeable = False
            cached = (task, q)
            object.__setattr__(self, "_optimal_quality", cached)
        return cached[1]


def gen_topk(
    gamma: float,
    n_resources: int = 25,
    n_instances: int = 50,
    k: int = 1,
    seed: int = 0,
) -> PtODataset:
    """Top-K datasets with cubic labeling 10(x^3 - gamma*x) on Unif[-1, 1] features.

    Resources within an instance are sorted by ascending feature value, so the
    objective is a plain dot product of the selection mask with the utilities.
    """
    if not (1 <= k <= n_resources):
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n_resources}")
    task = topk_task(n_resources, k)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_instances):
        x = np.sort(rng.uniform(-1.0, 1.0, n_resources))
        y = 10.0 * (x**3 - gamma * x)
        samples.append(Sample(x=x, y=y, z=oracle(task, y)))
    provenance = {"generator": "topk", "gamma": gamma, "seed": seed}
    return PtODataset(task=task, samples=tuple(samples), provenance=provenance)


def _value_noise_field(rng: np.random.Generator, p: int) -> np.ndarray:
    # multi-scale bilinear value noise: spatially coherent terrain-like regions
    f = np.zeros((p, p))
    for scale in (2, 4, 8):
        g = rng.normal(size=(scale + 1, scale + 1))
        xs = np.linspace(0.0, scale, p)
        xi = np.minimum(np.floor(xs).astype(int), scale - 1)
        t = xs - xi
        a = g[np.ix_(xi, xi)]
        b = g[np.ix_(xi, xi + 1)]
        c = g[np.ix_(xi + 1, xi)]
        d = g[np.ix_(xi + 1, xi + 1)]
        f += (
            a * (1 - t)[None, :] * (1 - t)[:, None]
            + b * t[None, :] * (1 - t)[:, None]
            + c * (1 - t)[None, :] * t[:, None]
            + d * t[None, :] * t[:, None]
        ) / scale
    return f


def _class_map(rng: np.random.Generator, p: int, n_classes: int) -> np.ndarray:
    field_vals = _value_noise_field(rng, p)
    if n_classes == 1:
        return np.zeros((p, p), dtype=int)
    cuts = np.quantile(field_vals, np.linspace(0.0, 1.0, n_classes + 1)[1:-1])
    return np.digitize(field_vals, cuts)


def gen_grid(
    class_cost_seed: int,
    map_seed: int,
    p: int = 12,
    n_classes: int = 5,
    n_instances: int = 50,
    cost_range: tuple[float, float] = (0.8, 9.2),
    neighborhood: int = 8,
    length_weight: float = 0.0,
) -> PtODataset:
    """Grid shortest-path datasets with per-class cell costs.

    Features are the (scaled) class map; labels are per-cell costs from a
    class-cost table drawn once per distribution. Two datasets sharing
    ``map_seed`` but differing in ``class_cost_seed`` realize a pure target
    shift: identical features, shifted labels.
    """
    if p < 2:
        raise ValueError(f"grid side must be >= 2, got {p}")
    if n_classes < 1:
        raise ValueError("need at least one cell class")
    task = shortest_path_task(p, neighborhood=neighborhood, length_weight=length_weight)
    cost_rng = np.random.default_rng(class_cost_seed)
    class_costs = cost_rng.uniform(cost_range[0], cost_range[1], n_classes)
    map_rng = np.random.default_rng(map_seed)
    denom = max(n_classes - 1, 1)
    samples = []
    for _ in range(n_instances):
        cm = _class_map(map_rng, p, n_classes)
        x = (cm / denom).ravel()
        y = class_costs[cm].ravel()
        samples.append(Sample(x=x, y=y, z=oracle(task, y)))
    provenance = {
        "generator": "grid",
        "class_cost_seed": class_cost_seed,
        "map_seed": map_seed,
        "cost_range": list(cost_range),
    }
    return PtODataset(task=task, samples=tuple(samples), provenance=provenance)


def score_probs(scores: np.ndarray) -> np.ndarray:
    """Normalize exp(scores) into probability vectors along the last axis (max-shifted for stability)."""
    scores = np.asarray(scores, dtype=float)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gen_inventory(
    mean_shift_seed: int,
    theta_seed: int,
    n_features: int = 1,
    n_instances: int = 50,
    demand_values=DEFAULT_DEMAND_VALUES,
    inventory_params: InventoryParams | None = None,
    seed: int = 0,
) -> PtODataset:
    """Inventory datasets with demand probabilities proportional to exp((theta^T x)^2).

    The feature mean is drawn from Unif[-0.5, 0.5] (``mean_shift_seed``); the
    score matrix from standard Gaussians (``theta_seed``). Sharing
    ``theta_seed`` while varying ``mean_shift_seed`` shifts the feature
    distribution under a fixed labeling mechanism.
    """
    demand_values = tuple(float(d) for d in demand_values)
    k = len(demand_values)
    task = inventory_task(demand_values, inventory_params)
    mu = np.random.default_rng(mean_shift_seed).uniform(-0.5, 0.5, n_features)
    theta = np.random.default_rng(theta_seed).normal(size=(n_features, k))
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_instances):
        x = rng.normal(mu, 1.0)
        probs = score_probs((theta.T @ x) ** 2)
        samples.append(Sample(x=x, y=probs, z=oracle(task, probs)))
    provenance = {
        "generator": "inventory",
        "mean_shift_seed": mean_shift_seed,
        "theta_seed": theta_seed,
        "seed": seed,
    }
    return PtODataset(task=task, samples=tuple(samples), provenance=provenance)


def _task_to_json(task: TaskDefinition) -> dict:
    params = dict(task.params)
    if task.kind == "inventory":
        ip: InventoryParams = params.pop("inventory_params")
        params["inventory_params"] = {
            "c0": ip.c0, "q0": ip.q0, "cb": ip.cb, "qb": ip.qb, "ch": ip.ch, "qh": ip.qh,
        }
        params["demand_values"] = list(params["demand_values"])
    return {"kind": task.kind, "params": params}


def _task_from_json(obj: dict, path) -> TaskDefinition:
    for key in ("kind", "params"):
        if key not in obj:
            raise DatasetFormatError(f"{path}: line 1: task missing field {key!r}")
    params = dict(obj["params"])
    for key in REQUIRED_PARAMS.get(obj["kind"], ()):
        if key not in params:
            raise DatasetFormatError(f"{path}: line 1: task params missing {key!r}")
    if obj["kind"] == "inventory":
        known = {f.name for f in fields(InventoryParams)}
        for key in params["inventory_params"]:
            if key not in known:
                raise DatasetFormatError(f"{path}: line 1: unknown inventory param {key!r}")
        params["inventory_params"] = InventoryParams(**params["inventory_params"])
        params["demand_values"] = tuple(params["demand_values"])
    return TaskDefinition(obj["kind"], params)


def write_dataset(dataset: PtODataset, path) -> None:
    """Write a dataset as line-delimited JSON: one header record, one record per sample."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"task": _task_to_json(dataset.task), "provenance": dataset.provenance}
        fh.write(json.dumps(header) + "\n")
        for s in dataset.samples:
            rec = {"x": s.x.tolist(), "y": s.y.tolist(), "z": s.z.tolist()}
            fh.write(json.dumps(rec) + "\n")


def read_dataset(path) -> PtODataset:
    """Read a dataset file written by :func:`write_dataset`; bit-exact round trip."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, expected a header record on line 1")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: line 1: invalid JSON header: {exc}") from exc
    for key in ("task", "provenance"):
        if key not in header:
            raise DatasetFormatError(f"{path}: line 1: header missing field {key!r}")
    task = _task_from_json(header["task"], path)
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        for key in ("x", "y", "z"):
            if key not in rec:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: sample record missing field {key!r}"
                )
        samples.append(Sample(x=np.array(rec["x"]), y=np.array(rec["y"]), z=np.array(rec["z"])))
    if not samples:
        raise DatasetFormatError(f"{path}: dataset must contain at least one sample")
    return PtODataset(task=task, samples=tuple(samples), provenance=header["provenance"])
