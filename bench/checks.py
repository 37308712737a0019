"""Reference computations and correctness checks for the benchmark.

Everything here is computed apart from ``ptodist``: ground costs are rebuilt
from the task formulas with numpy, optimal transport is solved by a different
method than the one ``ptodist`` uses on the same shape, and regrets come from
an independent oracle for each task family. Each ``check_*`` function returns
a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

REL_TOL = 1e-9  # a value off by 1e-6 relative must fail
ABS_TOL = 1e-12
# ptodist solves unequal-size OT with scipy's HiGHS LP at its default
# tolerances (1e-7, in cost units); its value may sit that far above the optimum
LP_TOL = 1e-7


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


# --- task formulas -----------------------------------------------------------


def arrays(dataset):
    """(X, Y, Z) stacked sample arrays of a dataset."""
    s = dataset.samples
    return (np.array([v.x for v in s]), np.array([v.y for v in s]), np.array([v.z for v in s]))


def stock_cost(params, demands, probs, z):
    """Expected stocking cost E_d[f(d, z)] for each probability row and order quantity.

    ``probs`` is (n, k) and ``z`` is (m,); the result is (n, m).
    """
    d = np.asarray(demands, dtype=float)[:, None]
    z = np.asarray(z, dtype=float)[None, :]
    under = np.maximum(d - z, 0.0)
    over = np.maximum(z - d, 0.0)
    f = (params.c0 * z + 0.5 * params.q0 * z * z + params.cb * under
         + 0.5 * params.qb * under * under + params.ch * over + 0.5 * params.qh * over * over)
    return np.asarray(probs, dtype=float) @ f


def objective_matrix(task, Z, Y):
    """g(z_i; y_j) for every decision row of Z and label row of Y."""
    if task.kind == "topk":
        return Z @ Y.T
    if task.kind == "shortest_path":
        lw = task.params.get("length_weight", 0.0)
        return -(Z @ Y.T) - lw * Z.sum(axis=1)[:, None]
    ip = task.params["inventory_params"]
    return -stock_cost(ip, task.params["demand_values"], Y, Z[:, 0]).T


def cost_components(task, A, B, mode="as-written"):
    """Feature, label and decision cost matrices between two (X, Y, Z) triples."""
    XA, YA, ZA = A
    XB, YB, ZB = B
    F = np.sqrt(((XA[:, None, :] - XB[None, :, :]) ** 2).sum(axis=2))
    L = np.sqrt(((YA[:, None, :] - YB[None, :, :]) ** 2).sum(axis=2))
    g_ab = objective_matrix(task, ZA, YB)                   # g(zA_i; yB_j)
    g_bb = np.diag(objective_matrix(task, ZB, YB))          # g(zB_j; yB_j)
    W = np.abs(g_ab - g_bb[None, :])
    if mode == "symmetrized":
        g_aa = np.diag(objective_matrix(task, ZA, YA))      # g(zA_i; yA_i)
        g_ba = objective_matrix(task, ZB, YA).T             # g(zB_j; yA_i)
        W = 0.5 * (np.abs(g_aa[:, None] - g_ba) + W)
    return F, L, W


def cost_matrix(task, A, B, weights, mode="as-written"):
    F, L, W = cost_components(task, A, B, mode)
    ax, ay, aw = weights
    return ax * F + ay * L + aw * W


# --- optimal transport -------------------------------------------------------


def ot_assignment(C):
    """Exact uniform OT as an assignment on the problem replicated to lcm(n, m) points."""
    n, m = C.shape
    size = n * m // math.gcd(n, m)
    R = np.repeat(np.repeat(C, size // n, axis=0), size // m, axis=1)
    rows, cols = linear_sum_assignment(R)
    return float(R[rows, cols].sum() / size)


def ot_lp(C):
    """Exact uniform OT as the coupling linear program with sparse constraints."""
    n, m = C.shape
    idx = np.arange(n * m)
    rows = np.concatenate([idx // m, n + idx % m])
    A_eq = coo_matrix((np.ones(2 * n * m), (rows, np.concatenate([idx, idx]))), shape=(n + m, n * m))
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(C.ravel(), A_eq=A_eq.tocsr(), b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"reference coupling LP failed: {res.message}")
    return float(np.maximum(res.x, 0.0) @ C.ravel())


def ot_other_method(C):
    """Exact uniform OT by the method ``ptodist`` does not use on this shape:
    the coupling LP for square problems (``ptodist`` uses an assignment), the
    replicated assignment otherwise (``ptodist`` uses a dense LP)."""
    return ot_lp(C) if C.shape[0] == C.shape[1] else ot_assignment(C)


def ptodist_tolerance(C, value):
    """How far ptodist's exact OT value may sit from the optimum on cost C."""
    tol = max(ABS_TOL, REL_TOL * abs(value))
    return tol if C.shape[0] == C.shape[1] else max(tol, LP_TOL * float(C.max()))


def distance(task, A, B, weights, mode="as-written"):
    """Reference OT distance and the tolerance ptodist's value must meet."""
    C = cost_matrix(task, A, B, weights, mode)
    value = ot_other_method(C)
    return value, ptodist_tolerance(C, value)


# --- oracles and regret ------------------------------------------------------


def topk_decisions(Y, k):
    """Top-k masks per row; ties go to the lowest index."""
    order = np.argsort(-Y, axis=1, kind="stable")[:, :k]
    Z = np.zeros_like(Y)
    np.put_along_axis(Z, order, 1.0, axis=1)
    return Z


def inventory_decisions(params, demands, probs):
    """Minimizer of the convex piecewise-quadratic expected stocking cost, per row.

    Walks the knots 0 < d_1 < ... < d_k until the right derivative turns
    nonnegative, then solves the linear first-order condition on the segment
    before it (or stops at the kink).
    """
    d = np.asarray(demands, dtype=float)
    knots = np.concatenate([[0.0], d])
    out = []
    for p in np.asarray(probs, dtype=float):

        def right_slope(t):
            over = d <= t
            return (params.c0 + params.q0 * t
                    + p[over] @ (params.ch + params.qh * (t - d[over]))
                    - p[~over] @ (params.cb + params.qb * (d[~over] - t)))

        def curvature(lo, hi):
            mid = 0.5 * (lo + hi)
            return params.q0 + params.qb * p[d > mid].sum() + params.qh * p[d < mid].sum()

        z = None
        for j, t in enumerate(knots):
            if right_slope(t) >= 0.0:
                if j == 0:
                    z = 0.0
                else:
                    lo = knots[j - 1]
                    s0, c = right_slope(lo), curvature(lo, t)
                    z = t if s0 + c * (t - lo) <= 0.0 else lo - s0 / c
                break
        if z is None:
            lo = knots[-1]
            z = lo - right_slope(lo) / curvature(lo, lo + 1.0)
        out.append(z)
    return np.array(out)[:, None]


def oracle_decisions(task, Y):
    if task.kind == "topk":
        return topk_decisions(Y, task.params["k"])
    if task.kind == "inventory":
        return inventory_decisions(task.params["inventory_params"], task.params["demand_values"], Y)
    raise ValueError(f"no reference oracle for task kind {task.kind!r}")


def predictions(task, theta, X):
    """Labels predicted by a linear model, as ``ptodist.transfer.predict`` defines them."""
    theta = np.asarray(theta, dtype=float)
    if task.kind in ("topk", "shortest_path"):
        return theta[0] * X + theta[1]
    k = len(task.params["demand_values"])
    mat = theta.reshape(k, X.shape[1] + 1)
    scores = X @ mat[:, :-1].T + mat[:, -1]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def mean_regret(task, theta, X, Y):
    """Mean |g(z*(y); y) - g(z*(y_hat); y)| of a linear model over (X, Y)."""
    best = np.diag(objective_matrix(task, oracle_decisions(task, Y), Y))
    got = np.diag(objective_matrix(task, oracle_decisions(task, predictions(task, theta, X)), Y))
    return float(np.mean(np.abs(best - got)))


def zero_model_regret(task, X, Y):
    dim = 2 if task.kind == "topk" else len(task.params["demand_values"]) * (X.shape[1] + 1)
    return mean_regret(task, np.zeros(dim), X, Y)


def regret_close(a: float, b: float) -> bool:
    return close(a, b, rel=1e-9, abs_tol=1e-9)


# --- checks ------------------------------------------------------------------


def check_distance(value, ref, tol, label):
    if not (math.isfinite(value) and abs(value - ref) <= tol):
        return [f"{label}: distance {value!r} != reference {ref!r} (tolerance {tol:.1e})"]
    return []


def check_symmetric(d_ab, d_ba, label):
    if not close(d_ab, d_ba):
        return [f"{label}: symmetrized distance not symmetric: {d_ab!r} vs {d_ba!r}"]
    return []


def check_sinkhorn(result, C_ref, exact_ref, label):
    """Plan meets its uniform marginals, cost is <plan, C> and no lower than the exact optimum."""
    errs = []
    P = np.asarray(result.plan.matrix)
    n, m = C_ref.shape
    row = np.abs(P.sum(axis=1) - 1.0 / n).max()
    col = np.abs(P.sum(axis=0) - 1.0 / m).max()
    if P.shape != (n, m) or row > 1e-9 or col > 1e-9 or P.min() < -1e-12:
        errs.append(f"{label}: Sinkhorn plan misses its marginals (row {row:.2e}, col {col:.2e})")
    if not close(result.cost, float((P * C_ref).sum())):
        errs.append(f"{label}: Sinkhorn cost {result.cost!r} is not <plan, C>")
    if result.cost < exact_ref - max(ABS_TOL, REL_TOL * abs(exact_ref)):
        errs.append(f"{label}: Sinkhorn cost {result.cost!r} below the exact optimum {exact_ref!r}")
    return errs


def check_transfer_row(transferability, r_st, r_tt, r_zero, label):
    """Regrets are >= 0, the target-trained one is no worse than the all-zero
    model's, and transferability is (r_tt - r_st) / r_tt."""
    errs = []
    if not (r_st >= 0.0 and r_tt >= 0.0):
        errs.append(f"{label}: negative regret ({r_st!r}, {r_tt!r})")
    if r_tt > r_zero + 1e-9:
        errs.append(f"{label}: trained regret {r_tt!r} exceeds the all-zero model's {r_zero!r}")
    if r_tt < 1e-9:
        if transferability is not None:
            errs.append(f"{label}: transferability defined although target regret is 0")
    elif transferability is None or not close(transferability, (r_tt - r_st) / r_tt, rel=1e-12):
        errs.append(f"{label}: transferability {transferability!r} != (r_tt - r_st) / r_tt")
    return errs


def squared_correlation(xs, ys) -> float:
    return float(np.corrcoef(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))[0, 1] ** 2)


def check_r2(r2, dists, transfers, label):
    ref = squared_correlation(dists, transfers)
    if not (-1e-12 <= r2 <= 1.0 + 1e-12) or not close(r2, ref, rel=1e-8, abs_tol=1e-10):
        return [f"{label}: R^2 {r2!r} != squared correlation {ref!r}"]
    return []


def check_bound(rep, lam, k1, k2, lhs_ref, err_s_ref, err_t_ref, d_ot_ref, d_ot_tol, label):
    """Terms of one bound report against their definitions and computations made apart."""
    errs = []
    alpha_w = 1.0 / (lam * k1 + k2 + 1.0)
    terms = rep.joint_regret_source + rep.joint_regret_target + rep.lipschitz_term + rep.scaled_ot_term
    if (rep.lam, rep.k1, rep.k2) != (lam, k1, k2):
        errs.append(f"{label}: report carries lambda/k1/k2 {rep.lam, rep.k1, rep.k2}")
    if not close(rep.alpha_w, alpha_w, rel=1e-12):
        errs.append(f"{label}: alpha_W {rep.alpha_w!r} != 1/(lambda k1 + k2 + 1) = {alpha_w!r}")
    if not close(rep.rhs, terms, rel=1e-12):
        errs.append(f"{label}: rhs {rep.rhs!r} is not the sum of its terms {terms!r}")
    if not 0.0 <= rep.phi <= 1.0:
        errs.append(f"{label}: phi {rep.phi!r} outside [0, 1]")
    if rep.envelope < 0 or not close(rep.lipschitz_term, k1 * rep.envelope * rep.phi, rel=1e-12):
        errs.append(f"{label}: Lipschitz term {rep.lipschitz_term!r} != k1 * L * phi")
    if rep.holds != (rep.lhs <= terms + 1e-9):
        errs.append(f"{label}: holds={rep.holds} disagrees with lhs {rep.lhs!r} <= rhs {terms!r}")
    if not rep.holds:
        errs.append(f"{label}: bound violated: lhs {rep.lhs!r} > rhs {terms!r}")
    for name, got, ref in (("lhs", rep.lhs, lhs_ref),
                           ("source joint regret", rep.joint_regret_source, err_s_ref),
                           ("target joint regret", rep.joint_regret_target, err_t_ref)):
        if not regret_close(got, ref):
            errs.append(f"{label}: {name} {got!r} != reference {ref!r}")
    errs += check_distance(rep.scaled_ot_term * alpha_w, d_ot_ref, d_ot_tol, f"{label}: OT term")
    return errs
