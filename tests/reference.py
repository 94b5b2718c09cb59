"""Reference code the tests check the package against; the package itself
never calls it. Tests import it as they import conftest.

- solve_lasso: a generic dense lasso on the package's solver core.
- ista_oracle: an independent proximal-gradient lasso that shares no code
  with the package.
- core_from_design, scan_pair_rows: a solver core built from an n-row
  design, with its pair columns found by scanning XᵀX and A rather than
  read off the layout.
- z_tilde, y_tilde: the stacked augmented design and response that the
  package states only in Gram form.
- lambda_max, grid, u_back_transform: quantities the package reads off
  elsewhere or does not need.
- grad, kkt_floor: the gradient and its rounding floor as two separate
  expressions on a solver core, which _Core.certificate states together.
- pava, balanced_nominal_fit: the exact difference-penalized fit of one
  balanced nominal factor, by isotonic regression of its sorted level means.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from catfuse import coding
from catfuse.coding import AugmentedProblem
from catfuse.errors import NotConverged
from catfuse.solver import PathResult, _Core, _solve_core

_ISTA_MAX_ITER = 2_000_000


def scan_pair_rows(XtX: np.ndarray, A: np.ndarray) -> np.ndarray:
    """pair_row[c] = ρ for a column with no data and one nonzero in A, at
    row ρ, when it is the only such column of ρ (a non-tree pair column);
    -1 elsewhere."""
    q, r = XtX.shape[0], A.shape[0]
    lone = np.flatnonzero(~np.any(XtX != 0.0, axis=0)
                          & (np.count_nonzero(A, axis=0) == 1))
    rows, at = np.nonzero(A[:, lone])
    alone = np.bincount(rows, minlength=r)[rows] == 1
    pair_row = np.full(q, -1)
    pair_row[lone[at[alone]]] = rows[alone]
    return pair_row


def core_from_design(X: np.ndarray, A: np.ndarray, y: np.ndarray) -> _Core:
    """The core of ||y − Xθ||² + γ||Aθ||², its pair rows by scan_pair_rows
    (all -1 when A has no rows)."""
    absX = np.abs(X)
    XtX = X.T @ X
    return _Core.from_gram(XtX, X.T @ y, absX.T @ absX, absX.T @ np.abs(y), A,
                           scan_pair_rows(XtX, A))


def solve_lasso(
    design: np.ndarray,
    response: np.ndarray,
    lam: float,
    warm_start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimize (y − Xθ)'(y − Xθ) + λΣ|θ_j| for a generic dense design.

    Note the objective carries no 1/2 or 1/n factor, so the all-zero
    threshold is λ_max = 2·max_j |X_j'y|. A non-finite entry of the design,
    the response or the warm start raises ValueError naming it.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    for what, a in (("design", X), ("response", y)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{what} holds non-finite values")
    core = core_from_design(X, np.zeros((0, X.shape[1])), y)
    theta, _, _ = _solve_core(core, float(lam), warm_start)
    return theta


def ista_oracle(design: np.ndarray, response: np.ndarray, lam: float) -> np.ndarray:
    """Independent proximal-gradient reference solver.

    Monotone ISTA with backtracking on the step size; stops when the
    objective decrease falls below 1e−14 (at most _ISTA_MAX_ITER
    iterations). λ = +inf gives zeros; a NaN or negative λ raises
    ValueError. Deliberately shares no code with solve_lasso.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    lam = float(lam)
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got {lam!r}")
    n, p = X.shape
    theta = np.zeros(p)
    if lam == math.inf:         # the objective at θ = 0 would read inf·0
        return theta
    XtX = X.T @ X
    Xty = X.T @ y

    def f_smooth(t):
        r = y - X @ t
        return float(r @ r)

    def objective(t):
        return f_smooth(t) + lam * float(np.abs(t).sum())

    L = 2.0 * float(np.max(np.einsum("ij,ij->j", X, X))) if p else 1.0
    L = max(L, 1e-12)
    obj = objective(theta)
    for _ in range(_ISTA_MAX_ITER):
        g = 2.0 * (XtX @ theta - Xty)
        f0 = f_smooth(theta)
        while True:
            step = theta - g / L
            cand = np.sign(step) * np.maximum(np.abs(step) - lam / L, 0.0)
            diff = cand - theta
            quad = f0 + float(g @ diff) + 0.5 * L * float(diff @ diff)
            if f_smooth(cand) <= quad + 1e-12 * abs(quad):
                break
            L *= 2.0
        theta = cand
        new_obj = objective(theta)
        if obj - new_obj < 1e-14:
            return theta
        obj = new_obj
    raise NotConverged(f"ISTA oracle did not stabilize within {_ISTA_MAX_ITER} iterations")


def z_tilde(problem: AugmentedProblem) -> np.ndarray:
    """The stacked design Z̃ = [Z_data; √γ·A_scaled]."""
    return np.vstack([problem.Z_data, coding.DEFAULT_SQRT_GAMMA * problem.A_scaled])


def y_tilde(problem: AugmentedProblem) -> np.ndarray:
    """The stacked response ỹ = [y − ȳ; 0]."""
    return np.concatenate([problem.y_centered, np.zeros(problem.r)])


def lambda_max(problem: AugmentedProblem) -> float:
    """Smallest λ with all-zero solution: 2·max_j |Z̃_j·ỹ|, read off the
    problem's Xᵀy (the restriction rows contribute nothing because ỹ is
    zero there)."""
    return 2.0 * float(np.max(np.abs(problem.Xty), initial=0.0))


def grid(pr: PathResult) -> Tuple[Tuple[float, float], ...]:
    """The path's (λ, s_ratio) pairs."""
    return tuple((sol.lam, sol.s_ratio) for sol in pr.solutions)


def u_back_transform(delta: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis: β_i = Σ_{s<=i} δ_s."""
    return np.cumsum(np.asarray(delta, dtype=float), axis=-1)


def grad(core: _Core, theta: np.ndarray) -> np.ndarray:
    """The gradient of ||y − Xθ||² + γ||Aθ||² on the core's (scaled) response."""
    return (2.0 * (core.XtX @ theta - core.Xty)
            + (2.0 * core.gamma) * (core.A.T @ (core.A @ theta)))


def kkt_floor(core: _Core, theta: np.ndarray) -> np.ndarray:
    """The rounding-error bound 8ε|B|ᵀ(|B||θ| + |ỹ|) of grad on the stacked
    B = [X; √γA], ỹ = [y; 0], multiplied out."""
    t = np.abs(theta)
    return 8.0 * np.finfo(float).eps * (core._absXtX @ t + core._absXty
                                        + core.gamma * (core._absA.T @ (core._absA @ t)))


def pava(values: np.ndarray) -> np.ndarray:
    """Equal-weight isotonic regression: the nondecreasing vector nearest
    `values` in least squares, by pooling adjacent violators. Pooled entries
    are exactly equal, and neighbouring pools strictly increase."""
    pools = []                  # [mean, size] of each pool, left to right
    for v in np.asarray(values, dtype=float):
        pools.append([v, 1])
        while len(pools) > 1 and pools[-2][0] >= pools[-1][0]:
            (m2, c2), (m1, c1) = pools.pop(), pools.pop()
            pools.append([(m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2])
    return np.concatenate([np.full(c, m) for m, c in pools])


def balanced_nominal_fit(means: np.ndarray, count: int, w: float, lam: float) -> np.ndarray:
    """The exact level values μ minimizing
    Σ_l count·(m_l − μ_l)² + λw Σ_{i<j} |μ_i − μ_j| for one nominal factor
    whose K levels each have `count` rows, with level means m (the least
    squares part up to a constant, μ_l = α + β_l).

    The optimum keeps the order of m, so with m sorted ascending the
    penalty is linear, λw Σ_r (2r − K − 1)·μ_(r), and μ_(·) is the isotonic
    fit of m_(r) − λw(2r − K − 1)/(2·count). Unequal counts break this
    closed form.
    """
    m = np.asarray(means, dtype=float)
    K = m.size
    order = np.argsort(m, kind="stable")
    r = np.arange(1, K + 1)
    mu = np.empty(K)
    mu[order] = pava(m[order] - lam * w * (2 * r - K - 1) / (2.0 * count))
    return mu
