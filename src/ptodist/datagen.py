"""Synthetic dataset generation under three distribution-shift families,
plus line-delimited dataset file I/O.

Every generator is deterministic given its seeds and stamps provenance
(generator name, shift parameters, seeds) on the dataset.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .tasks import (
    TaskDefinition,
    feasible_rows,
    inventory_task,
    objective_rows,
    oracle_batch,
    shortest_path_task,
    topk_task,
)

class DatasetFormatError(ValueError):
    """A dataset file does not match the documented record format."""


class _SampleError(ValueError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"sample {row} {reason}")
        self.row, self.reason = row, reason


@dataclass(frozen=True, eq=False)
class Sample:
    """One predict-then-optimize instance: features x, labels y, decision z,
    as views of a :class:`PtODataset`'s checked rows; not checked again here."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass(frozen=True, eq=False)
class PtODataset:
    """Instances of one task, one row each: features ``X`` (n, dx), labels
    ``Y`` (n, dy) and decisions ``Z`` (n, dz), read-only.

    The arrays are copied and checked once, here: finite values, labels of the
    task's width (probability vectors for simplex labels), feasible decisions.
    """

    task: TaskDefinition
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    provenance: dict

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("dataset provenance must be nonempty")
        X, Y, Z = arrays = [np.array(v, dtype=float) for v in (self.X, self.Y, self.Z)]
        if not all(v.ndim == 2 and v.shape[1] > 0 and len(v) == len(X) for v in arrays):
            raise ValueError(f"X, Y and Z must be (samples, values) arrays of equal length, got "
                             f"shapes {X.shape}, {Y.shape}, {Z.shape}")
        if len(X) == 0:
            raise ValueError("dataset must contain at least one sample")
        size = self.task.label_dim
        checks = [(~np.isfinite(np.hstack(arrays)).all(axis=1), "has a non-finite value"),
                  (~feasible_rows(self.task, Z), "carries an infeasible decision"),
                  ([Y.shape[1] != size] * len(Y), f"has {Y.shape[1]} labels, the task takes {size}")]
        if self.task.label_domain == "simplex":
            checks.append(((Y < 0).any(axis=1) | (np.abs(Y.sum(axis=1) - 1.0) > 1e-9),
                           "labels are not a probability vector"))
        for bad, reason in checks:
            if np.any(bad):
                raise _SampleError(int(np.argmax(bad)), reason)
        for name, v in zip("XYZ", arrays):
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_optimum", None)

    def __len__(self) -> int:
        return len(self.X)

    @property
    def samples(self) -> tuple:
        """The rows as :class:`Sample` views."""
        return tuple(Sample(x=x, y=y, z=z) for x, y, z in zip(self.X, self.Y, self.Z))

    def optimal_decisions(self) -> np.ndarray:
        """The oracle decision w*(y_i) for each sample's labels (read-only),
        computed on first use and kept with :meth:`optimal_quality`."""
        return self._optimal()[0]

    def optimal_quality(self) -> np.ndarray:
        """g(w*(y_i); y_i) for each sample under the dataset's task (read-only),
        computed on first use and kept with :meth:`optimal_decisions`."""
        return self._optimal()[1]

    def _optimal(self):
        if self._optimum is None:
            Z = oracle_batch(self.task, self.Y)
            q = objective_rows(self.task, Z, self.Y)
            Z.flags.writeable = q.flags.writeable = False
            object.__setattr__(self, "_optimum", (Z, q))
        return self._optimum


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
    task = topk_task(n_resources, k)
    X = np.sort(np.random.default_rng(seed).uniform(-1.0, 1.0, (n_instances, n_resources)), axis=1)
    Y = 10.0 * (X**3 - gamma * X)
    provenance = {"generator": "topk", "gamma": gamma, "seed": seed}
    return PtODataset(task, X, Y, oracle_batch(task, Y), provenance)


def _class_maps(rng: np.random.Generator, p: int, n_classes: int, n: int) -> np.ndarray:
    """``n`` class maps (n, p, p), each its own multi-scale bilinear value noise
    (spatially coherent terrain-like regions) cut into ``n_classes`` classes at
    its own quantiles; one draw, the stream of ``n`` maps drawn one at a time."""
    f = np.zeros((n, p, p))
    for scale, g in zip((2, 4, 8), np.split(rng.normal(size=(n, 9 + 25 + 81)), [9, 9 + 25], axis=1)):
        g = g.reshape(n, scale + 1, scale + 1)
        xs = np.linspace(0.0, scale, p)
        xi = np.minimum(np.floor(xs).astype(int), scale - 1)
        t = xs - xi
        r, c = xi[:, None], xi[None, :]
        f += (
            g[:, r, c] * (1 - t)[None, :] * (1 - t)[:, None]
            + g[:, r, c + 1] * t[None, :] * (1 - t)[:, None]
            + g[:, r + 1, c] * (1 - t)[None, :] * t[:, None]
            + g[:, r + 1, c + 1] * t[None, :] * t[:, None]
        ) / scale
    cuts = np.quantile(f.reshape(n, p * p), np.linspace(0.0, 1.0, n_classes + 1)[1:-1], axis=1)
    # a value's class is the number of its map's cuts at or below it, as np.digitize counts
    return (cuts[:, :, None, None] <= f).sum(axis=0)


GRID_COST_RANGE = (0.8, 9.2)  # the interval the grid's class costs are drawn from


def gen_grid(
    class_cost_seed: int,
    map_seed: int,
    p: int = 12,
    n_classes: int = 5,
    n_instances: int = 50,
    **options,
) -> PtODataset:
    """Grid shortest-path datasets with per-class cell costs.

    Features are the (scaled) class map; labels are per-cell costs from a
    class-cost table drawn once per distribution. Two datasets sharing
    ``map_seed`` but differing in ``class_cost_seed`` realize a pure target
    shift: identical features, shifted labels. ``options`` go to :func:`shortest_path_task`.
    """
    task = shortest_path_task(p, **options)
    if n_classes < 1:
        raise ValueError("need at least one cell class")
    class_costs = np.random.default_rng(class_cost_seed).uniform(*GRID_COST_RANGE, n_classes)
    maps = _class_maps(np.random.default_rng(map_seed), p, n_classes, n_instances)
    X = (maps / max(n_classes - 1, 1)).reshape(n_instances, p * p)
    Y = class_costs[maps].reshape(n_instances, p * p)
    provenance = {
        "generator": "grid",
        "class_cost_seed": class_cost_seed,
        "map_seed": map_seed,
        "cost_range": list(GRID_COST_RANGE),
    }
    return PtODataset(task, X, Y, oracle_batch(task, Y), provenance)


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
    seed: int = 0,
    **options,
) -> PtODataset:
    """Inventory datasets with demand probabilities proportional to exp((theta^T x)^2).

    The feature mean is drawn from Unif[-0.5, 0.5] (``mean_shift_seed``); the
    score matrix from standard Gaussians (``theta_seed``). Sharing
    ``theta_seed`` while varying ``mean_shift_seed`` shifts the feature
    distribution under a fixed labeling mechanism. ``options`` go to :func:`inventory_task`.
    """
    task = inventory_task(**options)
    mu = np.random.default_rng(mean_shift_seed).uniform(-0.5, 0.5, n_features)
    theta = np.random.default_rng(theta_seed).normal(size=(n_features, task.label_dim))
    X = np.random.default_rng(seed).normal(mu, 1.0, (n_instances, n_features))
    # theta^T x one instance at a time, as a matrix-vector product: a single
    # X @ theta would sum the features in another order
    Y = score_probs((theta.T @ X[:, :, None])[..., 0] ** 2)
    provenance = {
        "generator": "inventory",
        "mean_shift_seed": mean_shift_seed,
        "theta_seed": theta_seed,
        "seed": seed,
    }
    return PtODataset(task, X, Y, oracle_batch(task, Y), provenance)


def _line_error(path, lineno: int, message) -> DatasetFormatError:
    return DatasetFormatError(f"{path}: line {lineno}: {message}")


def _task_from_json(obj, path) -> TaskDefinition:
    if not isinstance(obj, dict):
        raise _line_error(path, 1, "header field 'task' must be an object")
    for key in ("kind", "params"):
        if key not in obj:
            raise _line_error(path, 1, f"task missing field {key!r}")
    try:  # the task checks its kind and params, names a missing one and fills in the defaults
        return TaskDefinition(obj["kind"], obj["params"])
    except ValueError as exc:
        raise _line_error(path, 1, exc) from exc


def write_dataset(dataset: PtODataset, path) -> None:
    """Write a dataset as line-delimited JSON: one header record, one record per sample."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"task": asdict(dataset.task), "provenance": dataset.provenance}
        fh.write(json.dumps(header) + "\n")
        for x, y, z in zip(dataset.X.tolist(), dataset.Y.tolist(), dataset.Z.tolist()):
            fh.write(json.dumps({"x": x, "y": y, "z": z}) + "\n")


def read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; one that is not UTF-8 raises :class:`DatasetFormatError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None


def read_dataset(path) -> PtODataset:
    """Read a dataset file written by :func:`write_dataset`; bit-exact round trip.

    A malformed or invalid file raises :class:`DatasetFormatError` naming the line,
    and one that is not UTF-8 text raises it naming the file.
    """
    lines = read_text_lines(path)
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, expected a header record on line 1")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise _line_error(path, 1, f"invalid JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise _line_error(path, 1, "header must be a JSON object")
    for key in ("task", "provenance"):
        if key not in header:
            raise _line_error(path, 1, f"header missing field {key!r}")
    if not isinstance(header["provenance"], dict) or not header["provenance"]:
        raise _line_error(path, 1, "header field 'provenance' must be a nonempty object")
    task = _task_from_json(header["task"], path)
    records, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:  # every number as a float, so one type test per field; finiteness is the dataset's check
            rec = json.loads(line, parse_int=float)
        except json.JSONDecodeError as exc:
            raise _line_error(path, lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise _line_error(path, lineno, "sample record must be a JSON object")
        for key in ("x", "y", "z"):
            if key not in rec:
                raise _line_error(path, lineno, f"sample record missing field {key!r}")
            if not (isinstance(rec[key], list) and set(map(type, rec[key])) == {float}):
                raise _line_error(path, lineno, f"field {key!r} must be a nonempty list of numbers")
            if records and len(rec[key]) != len(records[0][key]):
                raise _line_error(path, lineno, f"field {key!r} has {len(rec[key])} values, "
                                                f"line {linenos[0]} has {len(records[0][key])}")
        records.append(rec)
        linenos.append(lineno)
    if not records:
        raise DatasetFormatError(f"{path}: dataset must contain at least one sample")
    X, Y, Z = (np.array([rec[key] for rec in records], dtype=float) for key in "xyz")
    try:
        return PtODataset(task, X, Y, Z, header["provenance"])
    except _SampleError as exc:
        raise _line_error(path, linenos[exc.row], f"sample {exc.reason}") from exc
