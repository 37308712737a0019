"""Reference computations that the tests check ``ptodist`` against."""

from math import lcm

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog, minimize, nnls

from ptodist.datagen import score_probs
from ptodist.ot_core import SCALING_BOUND, Marginal, TransportPlan, _log_scaling
from ptodist.tasks import InventoryParams, fstock, objective_rows, oracle_batch
from ptodist.transfer import PredictiveModel, mean_regret, model_dim


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


def assignment_zeros_like(C: np.ndarray) -> tuple[np.ndarray, float]:
    """Uniform assignment plan of a square cost in a fresh ``zeros_like`` array,
    and its value: the assigned entries first hold their share of the cost,
    the sum is taken, then they are set to 1/n."""
    n = C.shape[0]
    rows, cols = linear_sum_assignment(C)
    P = np.zeros_like(C)
    P[rows, cols] = (1.0 / n) * C[rows, cols]
    value = float(np.sum(P))
    P[rows, cols] = 1.0 / n
    return P, value


def pooled_cost_broadcast(dataset, dataset_prime, alpha_x, alpha_y) -> np.ndarray:
    """Pooled feature-label cost as one broadcast expression."""
    xa, ya, xb, yb = (d.ravel() for d in (dataset.X, dataset.Y, dataset_prime.X, dataset_prime.Y))
    return alpha_x * np.abs(xa[:, None] - xb[None, :]) + alpha_y * np.abs(ya[:, None] - yb[None, :])


def pooled_distance_broadcast(dataset, dataset_prime, alpha_x, alpha_y) -> float:
    """Pooled feature-label OT value between datasets of equal pooled size.

    The cost is one broadcast expression and the value is <P, C> of the
    assignment plan, both formed as full n x n arrays.
    """
    C = pooled_cost_broadcast(dataset, dataset_prime, alpha_x, alpha_y)
    rows, cols = linear_sum_assignment(C)
    P = np.zeros_like(C)
    P[rows, cols] = 1.0 / C.shape[0]
    return float(np.sum(P * C))


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
    """(X, Y) of ``gen_topk``, ``gen_grid`` or ``gen_inventory``, drawn one instance at a time."""
    rows = []
    if family == "topk":
        rng = np.random.default_rng(kw["seed"])
        for _ in range(n_instances):
            x = np.sort(rng.uniform(-1.0, 1.0, kw["n_resources"]))
            rows.append((x, 10.0 * (x**3 - kw["gamma"] * x)))
    elif family == "grid":
        n_classes = kw["n_classes"]
        class_costs = np.random.default_rng(kw["class_cost_seed"]).uniform(0.8, 9.2, n_classes)
        rng = np.random.default_rng(kw["map_seed"])
        for _ in range(n_instances):
            m = _class_map(rng, kw["p"], n_classes)
            rows.append(((m / max(n_classes - 1, 1)).ravel(), class_costs[m].ravel()))
    else:
        mu = np.random.default_rng(kw["mean_shift_seed"]).uniform(-0.5, 0.5, kw["n_features"])
        theta = np.random.default_rng(kw["theta_seed"]).normal(size=(kw["n_features"], 5))
        rng = np.random.default_rng(kw["seed"])
        for _ in range(n_instances):
            x = rng.normal(mu, 1.0)
            rows.append((x, score_probs((theta.T @ x) ** 2)))
    return [np.stack(v) for v in zip(*rows)]


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


def class_maps_one_at_a_time(rng, p, n_classes, n):
    """``n`` grid class maps (n, p, p), drawn and cut one map at a time."""
    return np.array([_class_map(rng, p, n_classes) for _ in range(n)], dtype=int).reshape(n, p, p)


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


def checked_sinkhorn(C, a, b, epsilon, max_iter, tol, absorbed=None):
    """``ptodist``'s stabilized Sinkhorn kernel with the scaling bounds checked
    after every half step, as one loop over the iterations.

    Returns the unrounded plan, its marginal violation and the iteration
    count. If ``absorbed`` is a list, each absorption appends its iteration
    and side ("u" or "v") to it.
    """
    log_a, log_b = np.log(a), np.log(b)
    f, g = np.zeros_like(a), np.zeros_like(b)
    u, v = np.ones_like(a), np.ones_like(b)
    K = None
    lo, hi = 1.0 / SCALING_BOUND, SCALING_BOUND
    it = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if K is not None:
                u = a / (K @ v)
            if K is None or not (lo <= u.min() and u.max() <= hi):
                g += epsilon * np.log(v)
                f = _log_scaling(C, log_a, g, epsilon)
                K = np.exp((f[:, None] + g[None, :] - C) / epsilon)
                u, v = np.ones_like(a), np.ones_like(b)
                if absorbed is not None:
                    absorbed.append((it, "u"))
            v = b / (K.T @ u)
            if not (lo <= v.min() and v.max() <= hi):
                f += epsilon * np.log(u)
                g = _log_scaling(C.T, log_b, f, epsilon)
                K = np.exp((f[:, None] + g[None, :] - C) / epsilon)
                u, v = np.ones_like(a), np.ones_like(b)
                if absorbed is not None:
                    absorbed.append((it, "v"))
            if it % 10 == 0 or it == max_iter:
                violation = np.abs(u * (K @ v) - a).max()
                if violation < tol:
                    break
    P = u[:, None] * K * v[None, :]
    violation = max(np.abs(P.sum(axis=1) - a).max(), np.abs(P.sum(axis=0) - b).max())
    return P, violation, it


def linprog_plan(C, a, b):
    """Exact OT plan of ``ptodist``'s transportation LP, built as a
    ``scipy.sparse`` matrix from COO indices and solved by
    ``scipy.optimize.linprog`` with the same HiGHS settings."""
    n, m = C.shape
    flat = np.arange(n * m)
    col = flat % m
    kept = col < m - 1
    A_eq = sparse.csc_array(
        (np.ones(n * m + kept.sum()), (np.concatenate([flat // m, n + col[kept]]),
                                       np.concatenate([flat, flat[kept]]))),
        shape=(n + m - 1, n * m),
    )
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10, "presolve": False})
    assert res.success, res.message
    return np.maximum(res.x.reshape(n, m), 0.0)


def mask_is_connected_from_source(mask: np.ndarray, neighborhood: int) -> bool:
    """Whether every set cell of a p x p 0/1 mask is reachable from the source
    (0, 0) through set cells, with the sink among them: a depth-first search."""
    p = mask.shape[0]
    moves = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
             if (di, dj) != (0, 0) and (neighborhood == 8 or 0 in (di, dj))]
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        for di, dj in moves:
            ni, nj = i + di, j + dj
            if 0 <= ni < p and 0 <= nj < p and mask[ni, nj] == 1.0 and (ni, nj) not in seen:
                seen.add((ni, nj))
                stack.append((ni, nj))
    return len(seen) == int(mask.sum()) and (p - 1, p - 1) in seen


def lipschitz_ratios_by_trial(task, label_dim, scale, trials, seed):
    """The ratios of ``empirical_lipschitz``'s probe, one trial and two one-row oracle calls at a time."""
    rng = np.random.default_rng(seed)
    low = 0.0 if task.kind == "shortest_path" else -scale
    ratios = np.zeros(trials)
    for t in range(trials):
        y, y_star, z, z_star = rng.uniform(low, scale, size=(4, label_dim))
        if task.kind == "inventory":
            y, y_star, z, z_star = (np.abs(v) / np.abs(v).sum() for v in (y, y_star, z, z_star))
        num = abs(objective_rows(task, oracle_batch(task, y[None])[0], y_star)
                  - objective_rows(task, oracle_batch(task, z[None])[0], z_star))
        den = np.linalg.norm(y - z) + np.linalg.norm(y_star - z_star)
        if den > 1e-12:
            ratios[t] = num / den
    return ratios


def solve_inventory_qp_kkt(params: InventoryParams, demands, probs) -> tuple[float, float]:
    """Test-only cross-check: solve the full joint QP over v = (z, z_b, z_h).

    Minimizes c0 z + q0 z^2/2 + sum_j p_j (cb z_b,j + qb z_b,j^2/2 + ch z_h,j + qh z_h,j^2/2)
    subject to z_b >= d - z, z_h >= z - d and v >= 0, with SLSQP and without the
    oracle's reduction to scalar z. SLSQP's status is not trusted; the point is
    certified by the KKT conditions instead. Returns z and the largest of the
    primal infeasibility, the stationarity residual and the complementary
    slackness, for multipliers >= 0 fitted by NNLS to both conditions at once.
    """
    d = np.asarray(demands, dtype=float)
    p = np.asarray(probs, dtype=float)
    k = d.size
    one, eye, zero = np.ones((k, 1)), np.eye(k), np.zeros((k, k))
    # the constraints G v >= h: the two hinges, then v >= 0
    G = np.vstack([np.hstack([one, eye, zero]), np.hstack([-one, zero, eye]), np.eye(2 * k + 1)])
    h = np.concatenate([d, -d, np.zeros(2 * k + 1)])
    lin = np.concatenate([[params.c0], p * params.cb, p * params.ch])
    quad = np.concatenate([[params.q0], p * params.qb, p * params.qh])

    def grad(v):
        return lin + quad * v

    z0 = float(d.mean())
    v0 = np.concatenate([[z0], np.maximum(d - z0, 0.0), np.maximum(z0 - d, 0.0)])
    # SLSQP's ftol is absolute and the objective is in the hundreds: scaled by 1/100
    res = minimize(lambda v: (lin @ v + 0.5 * quad @ (v * v)) / 100.0, v0,
                   jac=lambda v: grad(v) / 100.0, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda v: G @ v - h, "jac": lambda v: G}],
                   options={"ftol": 1e-14, "maxiter": 500})
    v = res.x
    slack = G @ v - h
    g = grad(v)
    # stationarity G^T mu = grad f and complementarity mu * slack = 0, mu >= 0
    mu, _ = nnls(np.vstack([G.T, np.diag(slack)]), np.concatenate([g, np.zeros(h.size)]))
    kkt = max(-slack.min(), np.abs(G.T @ mu - g).max(), np.abs(mu * slack).max())
    return float(v[0]), float(kkt)


def accumulated_stock_cost(task, probs, z):
    """Expected stocking cost of ``ptodist``'s inventory objective, as one
    broadcast array of terms summed by ``np.add.accumulate``."""
    demands = np.asarray(task.params["demand_values"], dtype=float)
    terms = probs * fstock(task.params["inventory_params"], demands, z)
    return np.add.accumulate(terms, axis=-1)[..., -1]


def inventory_oracle_rebuilt(task, P):
    """``ptodist``'s inventory oracle with its per-task constants rebuilt on
    every call and every candidate, inside its segment or not, costed under
    every demand."""
    params = task.params["inventory_params"]
    demands = np.asarray(task.params["demand_values"], dtype=float)
    knots = np.concatenate([[0.0], demands])
    lo = knots
    hi = np.append(knots[1:], knots[-1] + 1.0)
    mid = 0.5 * (lo + hi)
    under = demands[:, None] > mid[None, :]
    over = demands[:, None] < mid[None, :]
    coef_a = np.where(under, 0.5 * params.qb, 0.0) + np.where(over, 0.5 * params.qh, 0.0)
    coef_b = (np.where(under, -(params.cb + params.qb * demands[:, None]), 0.0)
              + np.where(over, params.ch - params.qh * demands[:, None], 0.0))
    A = 0.5 * params.q0
    B = params.c0
    for j in range(demands.size):
        A = A + P[:, j : j + 1] * coef_a[j]
        B = B + P[:, j : j + 1] * coef_b[j]
    z_star = np.divide(-B, 2 * A, out=np.zeros(A.shape), where=A > 0)
    inside = (A > 0) & (lo <= z_star) & (z_star <= hi)
    candidates = np.maximum(np.concatenate([np.broadcast_to(knots, A.shape), z_star], axis=1), 0.0)
    vals = accumulated_stock_cost(task, P[:, None, :], candidates[:, :, None])
    vals[:, knots.size :][~inside] = np.inf
    best = np.argmin(vals, axis=1)
    return candidates[np.arange(P.shape[0]), best][:, None]


def topk_oracle_put_along_axis(task, Y):
    """``ptodist``'s top-K oracle with the ones set by ``np.put_along_axis``."""
    order = np.argsort(-Y, axis=1, kind="stable")
    Z = np.zeros(Y.shape)
    np.put_along_axis(Z, order[:, : task.params["k"]], 1.0, axis=1)
    return Z


def train_regret_min_sequential(task, dataset, budget=5000, restarts=5, seed=0):
    """``transfer.train_regret_min`` with its restarts run one after another,
    each candidate scored by its own ``mean_regret`` call; returns the model
    and the number of evaluations made."""
    if budget < 1:
        raise ValueError("training budget must be at least 1 evaluation")
    rng = np.random.default_rng(seed)
    dim = model_dim(task, dataset.X.shape[1])
    n_evals = 0

    def loss(theta):
        nonlocal n_evals
        n_evals += 1
        return mean_regret(task, PredictiveModel("linear", theta), dataset)

    best_theta = None
    best_loss = np.inf
    per_restart = max(budget // max(restarts, 1), 1)
    for r in range(restarts):
        theta = np.zeros(dim) if r == 0 else rng.normal(0.0, 1.0, dim)
        evals = 1
        cur = loss(theta)
        step = 1.0
        while evals < per_restart and step > 1e-8:
            improved = False
            for i in range(dim):
                for delta in (step, -step):
                    if evals >= per_restart:
                        break
                    cand = theta.copy()
                    cand[i] += delta
                    val = loss(cand)
                    evals += 1
                    if val < cur - 1e-15:
                        theta, cur = cand, val
                        improved = True
                        break
            if not improved:
                step *= 0.5
        if cur < best_loss:
            best_theta, best_loss = theta, cur
        if r == 0 and per_restart <= 1:
            break  # budget exhausted on the initial evaluation
    return PredictiveModel("linear", best_theta), n_evals
