"""Reference computations that the tests check ``ptodist`` against."""

from math import lcm

import numpy as np
from scipy.optimize import linear_sum_assignment

from ptodist.datagen import score_probs
from ptodist.ot_core import Marginal, TransportPlan
from ptodist.tasks import InventoryParams, objective_rows


def random_coupling(a: Marginal, b: Marginal, rng: np.random.Generator) -> TransportPlan:
    """Random valid coupling via iterative proportional fitting of a positive matrix."""
    n, m = len(a), len(b)
    P = rng.uniform(0.1, 1.0, size=(n, m))
    for _ in range(500):
        P *= (a.weights / P.sum(axis=1))[:, None]
        P *= (b.weights / P.sum(axis=0))[None, :]
        if np.abs(P.sum(axis=1) - a.weights).max() < 1e-12:
            break
    return TransportPlan(P, a, b)


def replicated_assignment_value(C: np.ndarray) -> float:
    """Exact OT value between uniform marginals of any sizes n and m.

    Each row is repeated lcm(n, m)/n times and each column lcm(n, m)/m times.
    Uniform OT on that square matrix has the same value as the n x m problem,
    and an assignment solves it exactly.
    """
    n, m = C.shape
    size = lcm(n, m)
    square = np.repeat(np.repeat(C, size // n, axis=0), size // m, axis=1)
    rows, cols = linear_sum_assignment(square)
    return float(square[rows, cols].sum() / size)


def component_matrices_by_row(task, XA, YA, ZA, XB, YB, ZB, mode):
    """Feature, label and decision cost matrices built one row of A at a time."""
    n, m = len(XA), len(XB)
    F, L, W = np.zeros((n, m)), np.zeros((n, m)), np.zeros((n, m))
    gAB = objective_rows(task, ZA[:, None, :], YB[None, :, :])
    gBB = objective_rows(task, ZB, YB)
    gAA = objective_rows(task, ZA, YA)
    gBA = objective_rows(task, ZB[:, None, :], YA[None, :, :])
    for i in range(n):
        F[i] = np.linalg.norm(XA[i][None, :] - XB, axis=1)
        L[i] = np.linalg.norm(YA[i][None, :] - YB, axis=1)
        as_written = np.abs(gAB[i] - gBB)
        W[i] = as_written if mode == "as-written" else 0.5 * (np.abs(gAA[i] - gBA[:, i]) + as_written)
    return F, L, W


def generated_rows(family, n_instances, **kw):
    """(X, Y) of ``gen_topk`` or ``gen_inventory``, drawn one instance at a time."""
    rows = []
    if family == "topk":
        rng = np.random.default_rng(kw["seed"])
        for _ in range(n_instances):
            x = np.sort(rng.uniform(-1.0, 1.0, kw["n_resources"]))
            rows.append((x, 10.0 * (x**3 - kw["gamma"] * x)))
    else:
        mu = np.random.default_rng(kw["mean_shift_seed"]).uniform(-0.5, 0.5, kw["n_features"])
        theta = np.random.default_rng(kw["theta_seed"]).normal(size=(kw["n_features"], 5))
        rng = np.random.default_rng(kw["seed"])
        for _ in range(n_instances):
            x = rng.normal(mu, 1.0)
            rows.append((x, score_probs((theta.T @ x) ** 2)))
    return [np.stack(v) for v in zip(*rows)]


def log_domain_sinkhorn(C, a, b, epsilon, max_iter, tol):
    """Sinkhorn iterations on the potentials alone, with log-sum-exp half steps.

    Returns the unrounded plan and the iteration count; the marginal
    violation is checked every 10 iterations, as in ``ptodist``.
    """
    M = -C / epsilon
    log_a, log_b = np.log(a), np.log(b)
    f, g = np.zeros_like(a), np.zeros_like(b)
    it = 0
    for it in range(1, max_iter + 1):
        T = M + g[None, :]
        mx = T.max(axis=1)
        f = log_a - (mx + np.log(np.exp(T - mx[:, None]).sum(axis=1)))
        T = M + f[:, None]
        mx = T.max(axis=0)
        g = log_b - (mx + np.log(np.exp(T - mx[None, :]).sum(axis=0)))
        if it % 10 == 0 or it == max_iter:
            P = np.exp(M + f[:, None] + g[None, :])
            if np.abs(P.sum(axis=1) - a).max() < tol:
                break
    return np.exp(M + f[:, None] + g[None, :]), it


def solve_inventory_qp_projected_gradient(
    params: InventoryParams,
    demands,
    probs,
    steps: int = 200_000,
    lr: float = 1e-4,
) -> float:
    """Test-only cross-check: solve the full joint QP over (z, z_b, z_h).

    Projected gradient descent on the quadratic objective with hinge
    constraints z_b >= d - z, z_h >= z - d, all variables nonnegative.
    """
    demands = np.asarray(demands, dtype=float)
    probs = np.asarray(probs, dtype=float)
    k = demands.size
    z = float(np.mean(demands))
    zb = np.maximum(demands - z, 0.0)
    zh = np.maximum(z - demands, 0.0)

    def project(z, zb, zh):
        # cyclic projection onto the coupled half-spaces; the pairwise
        # projections are what transmit the hinge forces onto z
        for _ in range(50):
            moved = False
            for i in range(k):
                gap = (demands[i] - z) - zb[i]
                if gap > 1e-12:
                    z += gap / 2
                    zb[i] += gap / 2
                    moved = True
                gap = (z - demands[i]) - zh[i]
                if gap > 1e-12:
                    z -= gap / 2
                    zh[i] += gap / 2
                    moved = True
            z = max(z, 0.0)
            zb = np.maximum(zb, 0.0)
            zh = np.maximum(zh, 0.0)
            if not moved:
                break
        return z, zb, zh

    for _ in range(steps):
        gz = params.c0 + params.q0 * z
        gzb = probs * (params.cb + params.qb * zb)
        gzh = probs * (params.ch + params.qh * zh)
        z -= lr * gz
        zb -= lr * gzb
        zh -= lr * gzh
        z, zb, zh = project(z, zb, zh)
    return z
