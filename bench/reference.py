"""Independent optimum of the long-only maximum-Sharpe problem.

When some mean return is positive, maximizing p.w / sqrt(w.Q.w) over the
probability simplex is the convex QP

    min y.Q.y   s.t.  p.y = 1,  y >= 0,        w = y / sum(y)

(Cornuejols & Tutuncu, *Optimization Methods in Finance*). scipy's SLSQP
solves the QP and identifies the support; the support is then solved exactly
with a few primal-dual active-set corrections, because SLSQP alone stalls
near a 1e-5 KKT residual at N=400 after ~13 s. Nothing here imports fracopt.

A reference is accepted only when its relative gradient-mapping (KKT)
residual is at most ``KKT_TOL`` and its duality-gap certificate bounds the
Sharpe error by ``ACC_TOL``; otherwise ``ReferenceFault`` is raised and the
benchmark aborts.
"""

import numpy as np

EPS_HAT = 1e-4  # fracopt's default Gram regularizer
KKT_TOL = 1e-10
ACC_TOL = 1e-12
_SLSQP_ITERS = (50, 1000)
_ACTIVE_SET_ITERS = 50


class ReferenceFault(RuntimeError):
    """The reference optimum failed its own verification."""


def sharpe_data(values, eps_hat=EPS_HAT):
    """Mean vector p and regularized Gram matrix Q of a T x N returns block."""
    values = np.asarray(values, dtype=float)
    t, n = values.shape
    p = values.mean(axis=0)
    q = (values - p) / np.sqrt(t - 1.0)
    return p, q.T @ q + eps_hat * np.eye(n)


def sharpe_value(p, q_mat, w):
    return float(p @ w) / float(np.sqrt(w @ q_mat @ w))


def project_simplex(x):
    """Euclidean projection onto {u >= 0, sum(u) = 1} by sorting."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    j = np.flatnonzero(u - (css - 1.0) / np.arange(1, x.size + 1) > 0)[-1]
    return np.maximum(x - (css[j] - 1.0) / (j + 1), 0.0)


def kkt_residual(p, q_mat, w):
    """||w - P(w - grad c(w))|| / |S(w)| for c = -S, the unit-step gradient mapping."""
    g = float(np.sqrt(w @ q_mat @ w))
    s = float(p @ w) / g
    grad = -(p - s * (q_mat @ w) / g) / g
    return float(np.linalg.norm(w - project_simplex(w - grad))) / abs(s)


def certified_accuracy(p, q_mat, w):
    """Upper bound on S*/S(w) - 1 from a Lagrange dual point of the QP."""
    y = w / float(p @ w)
    primal = float(y @ q_mat @ y)
    nu = 2.0 * primal
    v = nu * p + np.maximum(2.0 * (q_mat @ y) - nu * p, 0.0)
    dual = nu - 0.25 * float(v @ np.linalg.solve(q_mat, v))
    if not dual > 0.0:
        return np.inf
    return max(float(np.sqrt(primal / dual)) - 1.0, 0.0)


def _slsqp(p, q_mat, maxiter):
    from scipy.optimize import minimize

    y0 = np.maximum(p, 0.0)
    y0 /= float(p @ y0)
    res = minimize(
        lambda y: y @ q_mat @ y,
        y0,
        jac=lambda y: 2.0 * (q_mat @ y),
        method="SLSQP",
        bounds=[(0.0, None)] * p.size,
        constraints=[{"type": "eq", "fun": lambda y: p @ y - 1.0, "jac": lambda y: p}],
        options={"ftol": 1e-16, "maxiter": maxiter},
    )
    return res.x


def _active_set(p, q_mat, y):
    """Exact QP solution on the support of y, corrected until KKT signs hold."""
    free = y > 1e-10 * float(np.max(y))
    for _ in range(_ACTIVE_SET_ITERS):
        idx = np.flatnonzero(free)
        if idx.size == 0:
            return None
        z = np.linalg.solve(q_mat[np.ix_(idx, idx)], p[idx])
        pz = float(p[idx] @ z)
        if not pz > 0.0:
            return None
        y = np.zeros_like(p)
        y[idx] = z / pz
        multipliers = 2.0 * (q_mat @ y) - (2.0 / pz) * p
        nxt = np.where(free, y > 0.0, multipliers < 0.0)
        if np.array_equal(nxt, free):
            return y
        free = nxt
    return None


def verify(p, q_mat, w):
    """(kkt, accuracy) of a candidate optimum; raises ReferenceFault above the bars."""
    kkt = kkt_residual(p, q_mat, w)
    acc = certified_accuracy(p, q_mat, w)
    if not (kkt <= KKT_TOL and acc <= ACC_TOL):
        raise ReferenceFault(
            f"reference failed verification: KKT residual {kkt:.2e} (bar {KKT_TOL:.0e}), "
            f"certified accuracy {acc:.2e} (bar {ACC_TOL:.0e}), N={p.size}"
        )
    return kkt, acc


def max_sharpe(p, q_mat):
    """Verified maximum-Sharpe weights and value, or None when no mean is positive."""
    if not float(np.max(p)) > 0.0:
        return None
    for maxiter in _SLSQP_ITERS:
        y = _active_set(p, q_mat, _slsqp(p, q_mat, maxiter))
        if y is None:
            continue
        w = y / float(y.sum())
        try:
            kkt, acc = verify(p, q_mat, w)
        except ReferenceFault:
            if maxiter == _SLSQP_ITERS[-1]:
                raise
            continue
        return w, sharpe_value(p, q_mat, w), kkt, acc
    raise ReferenceFault(f"no verified reference from SLSQP at N={p.size}")
