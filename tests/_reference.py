"""Reference computations that the tests check ``ptodist`` against."""

from math import lcm

import numpy as np
from scipy.optimize import linear_sum_assignment

from ptodist.ot_core import Marginal, TransportPlan


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
