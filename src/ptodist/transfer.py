"""Regret-minimizing training, transferability, weight sweeps, and the
empirical adaptation-bound check.

Training is derivative-free: coordinate pattern search with random restarts
directly on mean empirical decision regret. At desk scale with linear models
this reliably reaches the regret levels the experiments need.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datagen import PtODataset, score_probs
from .ground_cost import (CostMatrix, GroundCostWeights, _components, _pairwise_norms, _weighted, component_matrices,
                          transport)
from .ot_core import _assign
from .tasks import TaskDefinition, empirical_lipschitz, objective_rows, oracle_batch, shared_task


@dataclass(frozen=True)
class PredictiveModel:
    kind: str
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if self.kind != "linear":
            raise ValueError(f"unsupported model kind {self.kind!r}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("model weights must be finite")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class TransferRecord:
    transferability: float | None
    regret_source_on_target: float
    regret_target_on_target: float


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    joint_regret_source: float
    joint_regret_target: float
    lipschitz_term: float
    scaled_ot_term: float
    k1: float
    k2: float
    lam: float
    alpha_w: float
    phi: float
    envelope: float

    @property
    def rhs(self) -> float:
        return (
            self.joint_regret_source
            + self.joint_regret_target
            + self.lipschitz_term
            + self.scaled_ot_term
        )

    @property
    def holds(self) -> bool:
        return bool(self.lhs <= self.rhs + 1e-9)


def model_dim(task: TaskDefinition, feature_dim: int) -> int:
    if task.label_domain != "simplex":
        return 2  # shared per-element (weight, bias)
    return task.label_dim * (feature_dim + 1)  # softmax of one affine score per label


def predict_rows(task: TaskDefinition, theta, X) -> np.ndarray:
    """Predicted label vectors of the linear model with weights ``theta``, one
    row per row of stacked features X. A stack of m weight vectors, shape
    (m, dim), gives an (m, rows, label) array, one block per model."""
    if task.label_domain == "simplex":
        mat = theta.reshape(theta.shape[:-1] + (task.label_dim, -1))
        scores = X @ mat[..., :-1].mT
        scores += mat[..., None, :, -1]
        return score_probs(scores)
    w = theta[..., None, None, :]  # each model's (weight, bias) against every (row, label)
    y_hat = w[..., 0] * X
    y_hat += w[..., 1]
    return np.maximum(y_hat, 0.0) if task.label_domain == "nonnegative" else y_hat


def mean_regret(task: TaskDefinition, model: PredictiveModel, dataset: PtODataset) -> float:
    """Mean decision regret |g(w*(y); y) - g(w*(f(x)); y)| of a model's predictions over a dataset."""
    return float(mean_regrets(task, model.theta, dataset))


def mean_regrets(task: TaskDefinition, thetas, dataset: PtODataset):
    """:func:`mean_regret` of each weight vector in the stack ``thetas``, shape
    (m, dim), bit for bit; one vector, shape (dim,), gives one value. ``task``
    must be the dataset's."""
    shared_task(task, dataset.task)
    y_hat = predict_rows(task, thetas, dataset.X)
    # one oracle call on every model's rows, then one block per model
    Z = oracle_batch(task, y_hat.reshape(-1, y_hat.shape[-1])).reshape(y_hat.shape[:-1] + (-1,))
    return _regret_means(task, Z, dataset)


def _regret_means(task, Z, dataset):
    """Mean regret over the dataset's rows of the decisions Z, one per row, or
    of each block of a stack of them."""
    regrets = np.abs(dataset.optimal_quality() - objective_rows(task, Z, dataset.Y))
    # summed one after another in sample order, so that the pattern search,
    # which compares these means, sees the same values as a running total
    return np.add.accumulate(regrets.T)[-1] / regrets.shape[-1]


def train_regret_min(
    task: TaskDefinition,
    dataset: PtODataset,
    budget: int = 5000,
    restarts: int = 5,
    seed: int = 0,
) -> PredictiveModel:
    """Fit a linear model by coordinate pattern search on empirical regret.

    The restarts run in lockstep, one :func:`mean_regrets` call scoring each
    live restart's next candidate; rows are independent, so the model and the
    evaluation count are those of running one restart at a time.
    """
    if budget < 1:
        raise ValueError("training budget must be at least 1 evaluation")
    rng = np.random.default_rng(seed)
    dim = model_dim(task, dataset.X.shape[1])
    per_restart = max(budget // max(restarts, 1), 1)
    # a budget of one evaluation per restart is spent on the first start point
    runs = range(restarts if per_restart > 1 else min(restarts, 1))
    starts = [np.zeros(dim) if r == 0 else rng.normal(0.0, 1.0, dim) for r in runs]

    def search(theta):
        # one restart: yields each candidate, is sent its mean regret
        cur = yield theta
        evals = 1
        step = 1.0
        while evals < per_restart and step > 1e-8:
            improved = False
            for i in range(dim):
                for delta in (step, -step):
                    if evals >= per_restart:
                        break
                    cand = theta.copy()
                    cand[i] += delta
                    val = yield cand
                    evals += 1
                    if val < cur - 1e-15:
                        theta, cur = cand, val
                        improved = True
                        break
            if not improved:
                step *= 0.5
        return theta, cur

    searches = [search(theta) for theta in starts]
    pending = {s: next(s) for s in searches}  # each live search's next candidate
    results = {}
    while pending:
        vals = mean_regrets(task, np.array(list(pending.values())), dataset).tolist()
        for s, val in zip(list(pending), vals):
            try:
                pending[s] = s.send(val)
            except StopIteration as done:
                del pending[s]
                results[s] = done.value
    best_theta, _ = min(map(results.get, searches), key=lambda found: found[1], default=(None, None))
    return PredictiveModel("linear", best_theta)


def transfer_records(
    task: TaskDefinition,
    sources,
    target: PtODataset,
    budget: int = 5000,
    seed: int = 0,
) -> list[TransferRecord]:
    """Regret transferability of each source onto one target: the relative
    regret improvement (r_tt - r_st) / r_tt on the target of the model trained
    on the source, against the model trained on the target.

    The target model is trained once and shared by every record. When its
    regret r_tt is numerically zero the ratio is undefined; the record then
    carries ``transferability=None`` and the absolute source regret stands in
    for qualitative comparison. Every dataset must be of ``task``.
    """
    shared_task(task, target.task, *(s.task for s in sources))
    r_tt = mean_regret(task, train_regret_min(task, target, budget=budget, seed=seed), target)
    records = []
    for source in sources:
        r_st = mean_regret(task, train_regret_min(task, source, budget=budget, seed=seed), target)
        records.append(TransferRecord(
            transferability=(r_tt - r_st) / r_tt if r_tt >= 1e-9 else None,
            regret_source_on_target=r_st,
            regret_target_on_target=r_tt,
        ))
    return records


def _degenerate(x) -> bool:
    """Whether values have (numerically) zero variance, leaving no line to fit."""
    return bool(np.var(x) < 1e-18)


def rsquared(points) -> float:
    """R-squared of an ordinary least-squares line through (x, y) points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise ValueError("need at least 3 (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    if _degenerate(x):
        raise ValueError("distance values are degenerate (zero variance)")
    if _degenerate(y):
        return 0.0
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(1.0 - (resid @ resid) / np.sum((y - y.mean()) ** 2))


def simplex_grid(resolution: int):
    """Barycentric grid on the 2-simplex: (r+1)(r+2)/2 weight triples."""
    if resolution < 1:
        raise ValueError("grid resolution must be >= 1")
    out = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            k = resolution - i - j
            out.append(GroundCostWeights(i / resolution, j / resolution, k / resolution))
    return out


def weight_sweep(
    task: TaskDefinition,
    sources,
    target: PtODataset,
    grid_resolution: int = 10,
    mode: str = "as-written",
    budget: int = 5000,
    seed: int = 0,
):
    """R-squared of transferability against distance for each simplex weight triple.

    Returns ``(rows, records)``: one ``(weights, r2)`` row per triple, and the
    transfer records of the sources. ``r2`` is None at a triple where every
    source is at the same distance from the target, such as the feature
    corner for sources that share the target's features.
    """
    if len(sources) < 3:
        raise ValueError("need at least 3 source datasets")
    triples = simplex_grid(grid_resolution)
    records = transfer_records(task, sources, target, budget=budget, seed=seed)
    transfers = [r.transferability for r in records]
    if any(t is None for t in transfers):
        raise ValueError("transferability undefined for a source (zero target regret)")
    components = [component_matrices(s, target, mode) for s in sources]
    rows = []
    for w in triples:
        dists = [transport(CostMatrix(_weighted(w, *terms)))[1] for terms in components]
        rows.append((w, None if _degenerate(dists) else rsquared(list(zip(dists, transfers)))))
    return rows, records


# The weight of the feature term and of the label term of the pooled cost
_POOLED_WEIGHT = 0.5


def feature_label_pooled_distances(sources: list[PtODataset], target: PtODataset) -> list[float]:
    """Traditional feature-label OT distance from each source to the target,
    over pooled per-resource pairs, with the feature and label terms weighted
    equally.

    Each instance is unrolled into its individual (feature, label) coordinate
    pairs, matching the classical supervised-learning view of a dataset. Only
    defined for tasks whose features and labels are aligned element-wise, and
    for sources of the target's pooled size: each distance is a uniform
    assignment.

    Every cost is built on the calling thread, not one per solving thread:
    built on two threads, the costs landed in per-thread malloc arenas and
    raised peak memory by up to 13 MB. Each is then solved on its own thread in
    the array that held it. ``repro`` calls this on a worker thread beside the
    rest of its pipeline (+1.4 MB of peak memory).
    """
    size = target.X.size
    for d in (target, *sources):
        if d.X.size != d.Y.size:
            raise ValueError("pooled feature-label distance needs element-aligned x and y")
        if d.X.size != size:
            raise ValueError(f"pooled feature-label distance needs equal pooled sizes, "
                             f"got a source of {d.X.size} against a target of {size}")
    xb, yb = target.X.ravel(), target.Y.ravel()
    costs = [_pooled_cost(s.X.ravel(), s.Y.ravel(), xb, yb) for s in sources]
    if not costs:
        return []
    with ThreadPoolExecutor(len(costs)) as pool:
        return list(pool.map(_assign, costs))


def _pooled_cost(xa, ya, xb, yb):
    """w |xa_i - xb_j| + w |ya_i - yb_j| at w = ``_POOLED_WEIGHT``, built in the
    one array it returns, a row of the label term at a time. w is a power of
    two, so w (|dx| + |dy|) is w |dx| + w |dy| bit for bit."""
    C = np.subtract.outer(xa, xb)
    np.abs(C, out=C)
    for row, y in zip(C, ya):
        row += np.abs(y - yb)
    C *= _POOLED_WEIGHT
    return C


LIPSCHITZ_SAFETY = 1.5


def default_lipschitz_constants(task: TaskDefinition, label_dim: int, seed: int = 0) -> tuple[float, float]:
    """k1 = k2 = LIPSCHITZ_SAFETY times the largest ratio of :func:`~ptodist.tasks.empirical_lipschitz`.
    ``label_dim`` must be the task's."""
    if label_dim != task.label_dim:
        raise ValueError(f"label width {label_dim!r} is not the task's {task.label_dim}")
    k = empirical_lipschitz(task, seed=seed) * LIPSCHITZ_SAFETY
    return k, k


def evaluate_bound(
    task: TaskDefinition,
    f: PredictiveModel,
    f_tilde: PredictiveModel,
    source: PtODataset,
    target: PtODataset,
    lam: float,
    k1: float,
    k2: float,
) -> BoundReport:
    """Check the adaptation bound on one source/target pair.

    Target rows take the decisions induced by the model's predictions, source
    rows the oracle decisions for their labels; the OT problem uses the weight
    normalization alpha_W = 1 / (lambda*k1 + k2 + 1). The envelope L is the
    largest prediction gap of ``f_tilde`` over coupled pairs, and phi the
    mass fraction of coupled pairs whose gap exceeds lambda times their
    feature distance. ``lam``, ``k1`` and ``k2`` must be positive and finite.
    """
    (report,) = _bound_reports(task, f, f_tilde, source, target, [lam], k1, k2)
    return report


def _bound_reports(task, f, f_tilde, source, target, lams, k1, k2) -> list[BoundReport]:
    """:func:`evaluate_bound` at each lambda of ``lams``. The predictions, the
    decisions, the component matrices, the prediction gaps and the three
    regrets do not depend on lambda and are computed once: one oracle call
    decides the predictions of ``f`` on the target and of ``f_tilde`` on both
    datasets (rows are independent), and the source keeps its own oracle
    decisions. Per lambda, the coupled pairs' masses, gaps and feature
    distances are slices of the plan, G and F."""
    for name, value in [*(("lambda", lam) for lam in lams), ("k1", k1), ("k2", k2)]:
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    shared_task(task, source.task, target.task)
    y_t, pred_t, pred_s = (predict_rows(task, m.theta, d.X) for m, d in ((f, target), (f_tilde, target),
                                                                        (f_tilde, source)))
    Z = oracle_batch(task, np.concatenate([y_t, pred_t, pred_s]))
    n = len(target)
    z_t, z_tilde_t, z_tilde_s = Z[:n], Z[n:2 * n], Z[2 * n:]
    # rows: target (predicted decisions); cols: source (oracle decisions).
    # As-written mode scores both decisions under the source labels.
    F, L, W = _components(task, target.X, target.Y, z_t, source.X, source.Y, source.optimal_decisions(),
                          "as-written")
    G = _pairwise_norms(pred_t, pred_s)  # f_tilde's prediction gaps
    regrets = {"lhs": float(_regret_means(task, z_t, target)),
               "joint_regret_source": float(_regret_means(task, z_tilde_s, source)),
               "joint_regret_target": float(_regret_means(task, z_tilde_t, target))}
    reports = []
    for lam in lams:
        alpha_w = 1.0 / (lam * k1 + k2 + 1.0)
        weights = GroundCostWeights(lam * k1 * alpha_w, k2 * alpha_w, alpha_w)
        plan, d_ot = transport(CostMatrix(_weighted(weights, F, L, W)))
        coupled = plan.matrix > 0
        mass, gaps = plan.matrix[coupled], G[coupled]
        big_l = float(gaps.max())
        # the mass fraction of coupled pairs violating gap <= lambda * |x_i - x'_j|
        phi = float(min(max(mass[gaps > lam * F[coupled] + 1e-12].sum() / plan.matrix.sum(), 0.0), 1.0))
        reports.append(BoundReport(
            **regrets,
            lipschitz_term=k1 * big_l * phi,
            scaled_ot_term=d_ot / alpha_w,
            k1=k1,
            k2=k2,
            lam=lam,
            alpha_w=alpha_w,
            phi=phi,
            envelope=big_l,
        ))
    return reports
