"""Penalized solvers and regularization paths.

The augmented problem minimizes ||y − Xθ||² + γ||Aθ||² + λΣ|θ_j|, a plain
L1 problem on the stacked (ỹ, Z̃). The solver works in Gram form (XᵀX, Xᵀy,
A, γ) and never builds that (n + r) × q stack. At γ = 1e10 the quadratic is
extremely stiff along restriction directions, where coordinate-wise methods
move O(λ/γ) per step. Solutions are therefore found by an active-set method
(the homotopy/active-set lasso of Osborne, Presnell & Turlach 2000) whose
inner step solves the saddle-point system

    [ 2·Xₛ'Xₛ   Aₛ' ] [θₛ]   [ 2Xₛ'y − λσ ]
    [   Aₛ   −I/(2γ)] [ v ] = [     0      ]

(v = 2γAθₛ), which stays well conditioned for any γ, with Lawson–Hanson
style sign handling. Every accepted solution is certified by the KKT
conditions; NotConverged is raised otherwise, never swallowed.

Each problem is solved on the response y·c, where c is the power of two
nearest 1/max_j|X̃_jᵀy|, so λ_max lies in [√2, 2√2] in solver units and
the absolute KKT_TOL acts relative to λ_max. Multiplying by a power of two
is exact: the fit of 2ᵏ·y is bit for bit 2ᵏ times the fit of y. λ, warm
starts and θ are mapped across c in _solve_core, so every result and every
message is in the data's units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .coding import AugmentedProblem, ThetaLayout, induced_theta, u_back_transform
from .errors import LayoutMismatch, NotConverged, RankDeficient

KKT_TOL = 1e-6
PRECISION_SLACK = 1e-12
DEFAULT_GRID_SIZE = 100
GRID_RATIO = 1e-4   # smallest positive grid λ relative to λ_max

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# problem core: data block + restriction block, shared precomputations
# ---------------------------------------------------------------------------

class _Core:
    """||y − Xθ||² + γ||Aθ||² as XᵀX, Xᵀy, |X|ᵀ|X|, |X|ᵀ|y|, A and γ: no array
    here has n rows, so no solver step after construction costs O(n).

    Xᵀy and |X|ᵀ|y| hold the response multiplied by y_scale, the power of two
    nearest 1/max_j|X_jᵀy|; _solve_core maps λ and θ across it.
    """

    def __init__(self, XtX, Xty, absXtX, absXty, A: np.ndarray, gamma: float, y_scale: float):
        self.XtX, self.Xty, self._absXtX, self._absXty = XtX, Xty, absXtX, absXty
        self.A, self._absA, self.gamma = A, np.abs(A), float(gamma)
        self.q, self.r = XtX.shape[0], A.shape[0]
        self.y_scale = y_scale

    @classmethod
    def from_design(cls, X: np.ndarray, A: np.ndarray, y: np.ndarray, gamma: float) -> "_Core":
        absX = np.abs(X)
        Xty = X.T @ y
        # frexp splits off the exponent exactly, so scaling y by 2ᵏ shifts
        # y_scale by 2⁻ᵏ and leaves the scaled Xᵀy bit for bit unchanged
        m, e = math.frexp(float(np.max(np.abs(Xty), initial=0.0)))   # m in [½, 1)
        y_scale = math.ldexp(1.0, 1 - e if m < math.sqrt(0.5) else -e)
        return cls(X.T @ X, Xty * y_scale, absX.T @ absX, (absX.T @ np.abs(y)) * y_scale,
                   A, gamma, y_scale)

    def unrestricted(self) -> "_Core":
        """The γ = 0 core on the same data Gram."""
        return _Core(self.XtX, self.Xty, self._absXtX, self._absXty,
                     np.zeros((0, self.q)), 0.0, self.y_scale)

    @property
    def lambda_max(self) -> float:
        return _lambda_max(self.Xty) / self.y_scale

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return (2.0 * (self.XtX @ theta - self.Xty)
                + (2.0 * self.gamma) * (self.A.T @ (self.A @ theta)))

    def kkt_floor(self, theta: np.ndarray) -> np.ndarray:
        # Rounding-error bound for the gradient evaluation, 8ε|B|ᵀ(|B||θ| + |ỹ|)
        # on the stacked B = [X; √γA], ỹ = [y; 0], multiplied out. At γ ~ 1e10
        # the float64 quantization of θ alone moves augmented-column gradients
        # by ~γ·ulp, far beyond the generic tolerance.
        t = np.abs(theta)
        return 8.0 * _EPS * (self._absXtX @ t + self._absXty
                             + self.gamma * (self._absA.T @ (self._absA @ t)))

    # -- subspace solve ----------------------------------------------------

    def subspace_solve(self, S: np.ndarray, rhs_head: np.ndarray) -> np.ndarray:
        """Solve the fixed-sign stationarity system on columns S.

        rhs_head = 2Xₛ'y − λσ. Uses one iterative-refinement step; raises
        RankDeficient when the system is singular.
        """
        m = len(S)
        As = self.A[:, S]
        As = As[np.any(As != 0.0, axis=1)]
        ra = As.shape[0]
        M = np.empty((m + ra, m + ra))
        M[:m, :m] = 2.0 * self.XtX[np.ix_(S, S)]
        M[:m, m:] = As.T
        M[m:, :m] = As
        M[m:, m:] = -np.eye(ra) / (2.0 * self.gamma)
        rhs = np.concatenate([rhs_head, np.zeros(ra)])
        try:
            sol = np.linalg.solve(M, rhs)
            sol += np.linalg.solve(M, rhs - M @ sol)
            rel_res = np.linalg.norm(rhs - M @ sol) / max(np.linalg.norm(rhs), 1.0)
            if not np.isfinite(rel_res) or rel_res > 1e-6:
                raise np.linalg.LinAlgError("large residual")
        except np.linalg.LinAlgError:
            if self.r:
                raise RankDeficient("augmented subspace system is singular")
            sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
        if not np.all(np.isfinite(sol)):
            raise RankDeficient("subspace solve produced non-finite values")
        return sol[:m]


# ---------------------------------------------------------------------------
# active-set driver
# ---------------------------------------------------------------------------

_ADD_PER_ROUND = 10
_MAX_ROUNDS = 200
_MAX_INNER = 500


def _active_set_pass(core: _Core, theta: np.ndarray, lam: float) -> int:
    """Add KKT violators and re-solve subspace problems until none remain.

    Mutates theta in place; returns the number of subspace solves. Each
    accepted step decreases the objective (exact subspace minimizer, or a
    line-searched prefix of the move before the first sign crossing).
    """
    q = core.q
    sigma = np.sign(theta)
    n_solves = 0
    for _ in range(_MAX_ROUNDS):
        g = core.grad(theta)
        active = theta != 0.0
        viol = np.abs(g) - lam
        viol[active] = -np.inf
        # only violations beyond a fraction of the final tolerance matter
        tol_add = 0.25 * (KKT_TOL + core.kkt_floor(theta))
        candidates = np.flatnonzero(viol > tol_add)
        if candidates.size:
            order = candidates[np.argsort(viol[candidates])[::-1]][:_ADD_PER_ROUND]
            for j in order:
                active[j] = True
                sigma[j] = -np.sign(g[j])
        elif n_solves or not np.any(active):
            return n_solves     # no violators (a nonzero warm start is re-solved once)
        for _inner in range(_MAX_INNER):
            S = np.flatnonzero(active)
            rhs_head = 2.0 * core.Xty[S] - lam * sigma[S]
            cand_S = core.subspace_solve(S, rhs_head)
            n_solves += 1
            if lam == 0.0:
                theta[:] = 0.0
                theta[S] = cand_S
                break
            flips = cand_S * sigma[S] < 0.0
            if not np.any(flips):
                theta[:] = 0.0
                theta[S] = cand_S
                break
            # walk toward the candidate, stop at the first zero crossing
            d = np.zeros(q)
            d[S] = cand_S - theta[S]
            cross = np.full(q, np.inf)
            for j in S:
                if theta[j] != 0.0 and np.sign(theta[j]) != np.sign(theta[j] + d[j]) and d[j] != 0.0:
                    cross[j] = -theta[j] / d[j]
                elif theta[j] == 0.0 and sigma[j] * d[j] < 0.0:
                    cross[j] = 0.0
            # finite: a flipped θ_j ≠ 0 has sign σ_j, so its move crosses 0
            tmin = min(max(float(np.min(cross)), 0.0), 1.0)
            theta += tmin * d
            dropped = cross <= tmin + 1e-15
            theta[dropped] = 0.0
            active[dropped] = False
            if not np.any(active):
                break
        else:
            raise NotConverged("active-set inner loop exceeded iteration cap")
    raise NotConverged("active-set driver exceeded round cap")


def _kkt_ok(core: _Core, theta: np.ndarray, lam: float) -> bool:
    g = core.grad(theta)
    tol = KKT_TOL + core.kkt_floor(theta)
    active = theta != 0.0
    ok_active = np.all(np.abs(g[active] + lam * np.sign(theta[active])) <= tol[active])
    ok_inactive = np.all(np.abs(g[~active]) <= lam + tol[~active])
    return bool(ok_active and ok_inactive)


def _solve_core(
    core: _Core,
    lam: float,
    warm_start: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """The minimizer at λ and the number of subspace solves it took.

    λ, the warm start and the result are in the data's units; the active-set
    pass and the KKT certificate run on the response scaled by core.y_scale.
    A pass whose result fails the certificate is retried from that result.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    theta = np.zeros(core.q) if warm_start is None else np.array(warm_start, dtype=float)
    if theta.shape != (core.q,):
        raise LayoutMismatch(f"warm start has shape {theta.shape}, expected ({core.q},)")
    theta *= core.y_scale
    lam_scaled = lam * core.y_scale
    solves = 0
    for _ in range(8):
        solves += _active_set_pass(core, theta, lam_scaled)
        if _kkt_ok(core, theta, lam_scaled):
            return theta / core.y_scale, solves
    raise NotConverged(f"KKT conditions not met at lambda = {lam:g}")


# ---------------------------------------------------------------------------
# public generic interface
# ---------------------------------------------------------------------------

def solve_lasso(
    design: np.ndarray,
    response: np.ndarray,
    lam: float,
    warm_start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimize (y − Xθ)'(y − Xθ) + λΣ|θ_j| for a generic dense design.

    Note the objective carries no 1/2 or 1/n factor, so the all-zero
    threshold is λ_max = 2·max_j |X_j'y|.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    core = _Core.from_design(X, np.zeros((0, X.shape[1])), y, 0.0)
    theta, _ = _solve_core(core, float(lam), warm_start)
    return theta


def ista_oracle(
    design: np.ndarray,
    response: np.ndarray,
    lam: float,
    max_iter: int = 2_000_000,
) -> np.ndarray:
    """Independent proximal-gradient reference solver (verification only).

    Monotone ISTA with backtracking on the step size; stops when the
    objective decrease falls below 1e−14. Deliberately shares no code with
    solve_lasso.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    n, p = X.shape
    XtX = X.T @ X
    Xty = X.T @ y
    theta = np.zeros(p)

    def f_smooth(t):
        r = y - X @ t
        return float(r @ r)

    def objective(t):
        return f_smooth(t) + lam * float(np.abs(t).sum())

    L = 2.0 * float(np.max(np.einsum("ij,ij->j", X, X))) if p else 1.0
    L = max(L, 1e-12)
    obj = objective(theta)
    for _ in range(max_iter):
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
    raise NotConverged(f"ISTA oracle did not stabilize within {max_iter} iterations")


# ---------------------------------------------------------------------------
# paths on the augmented problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionReport:
    """Restriction violation Δ = (Aθ̂)'(Aθ̂) and its theoretical bound."""

    delta: float
    bound: float

    @property
    def satisfied(self) -> bool:
        return self.delta <= self.bound + PRECISION_SLACK


@dataclass(frozen=True)
class PathSolution:
    lam: float
    s_ratio: float
    theta_scaled: np.ndarray          # solver coordinates θ̃ = Wθ
    theta: np.ndarray                 # original θ coordinates
    beta: Dict[str, np.ndarray]       # per factor, full per-level vector
    precision: PrecisionReport
    solves: int
    sweeps: int                       # always 0: perfbench/spans.py still sums it


@dataclass(frozen=True)
class PathResult:
    grid: Tuple[Tuple[float, float], ...]     # (lambda, s_ratio) pairs
    solutions: Tuple[PathSolution, ...]
    lambda_max: float
    ols_beta: Dict[str, np.ndarray]

    def solution_at(self, s_ratio: float) -> PathSolution:
        """Grid point with nearest s_ratio; ties take the sparser point."""
        ratios = np.array([s for _, s in self.grid])
        return self.solutions[int(np.argmin(np.abs(ratios - s_ratio)))]


def _lambda_max(Xty: np.ndarray) -> float:
    # grad at θ = 0 reads these same Xᵀy entries, so at λ_max no entry
    # violates the KKT conditions: the path's top is exactly all-zero
    return 2.0 * float(np.max(np.abs(Xty), initial=0.0))


def lambda_max(problem: AugmentedProblem) -> float:
    """Smallest λ with all-zero solution: 2·max_j |Z̃_j·ỹ| (the restriction
    rows contribute nothing because ỹ is zero there)."""
    return _lambda_max(problem.Z_data.T @ problem.y_centered)


def back_transform(
    theta_scaled: np.ndarray,
    layout: ThetaLayout,
    weights,
) -> Dict[str, np.ndarray]:
    """Per-factor per-level coefficients from solver coordinates.

    Undoes the 1/w column rescaling, then reads nominal levels from the
    θ_{i0} entries and accumulates ordinal differences.
    """
    theta_scaled = np.asarray(theta_scaled, dtype=float)
    w = np.asarray(getattr(weights, "values", weights), dtype=float)
    if theta_scaled.shape != (layout.q,) or w.shape != (layout.q,):
        raise LayoutMismatch(
            f"theta has shape {theta_scaled.shape}, weights {w.shape}, "
            f"layout expects ({layout.q},)"
        )
    theta = theta_scaled / w
    out: Dict[str, np.ndarray] = {}
    for b in layout.blocks:
        full = np.zeros(b.k + 1)
        if b.kind == "nominal":
            full[1:] = theta[b.offset:b.offset + b.k]
        else:
            full[1:] = u_back_transform(theta[b.slice])
        out[b.name] = full
    return out


def _solve_grid_point(core: _Core, lam: float, warm_start: np.ndarray, index: int, which: str):
    # a failure keeps its class and names the grid point, λ and the solve
    try:
        return _solve_core(core, lam, warm_start=warm_start)
    except (NotConverged, RankDeficient) as exc:
        raise type(exc)(
            f"{exc} (grid point {index}, lambda = {float(lam)!r}, {which} solve)"
        ) from exc


def _grid_lambdas(lam_max: float, grid_size: int) -> np.ndarray:
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    expo = np.linspace(0.0, 1.0, grid_size - 1)
    lams = lam_max * GRID_RATIO ** expo
    return np.concatenate([lams, [0.0]])


def path(problem: AugmentedProblem, grid_size: int = DEFAULT_GRID_SIZE) -> PathResult:
    """Solve along a λ grid from λ_max down to 0 with warm starts.

    s_ratio is the weighted penalty functional Σw|θ̂ differences| divided by
    its value at the unpenalized fit. A PrecisionReport accompanies every
    point; its bound uses the γ = 0 solution at the same λ.
    """
    w = problem.weight_values
    layout = problem.layout
    y = problem.y_centered

    # The λ = 0 point is the least-squares fit of the data columns (θ_i0 and
    # δ), solved in unit weights: it does not depend on the weights, and
    # capped adaptive weights would wreck the conditioning of a weighted
    # fit. The nominal pair columns carry no data; they follow from
    # θ_ij = β_i − β_j, which makes Aθ = 0. A column with neither data nor a
    # restriction is unidentified and stays 0.
    data_cols = np.array([b.offset + i for b in layout.blocks for i in range(b.k)], dtype=int)
    X_ls = problem.Z_data[:, data_cols] * w[data_cols]
    used = np.any(X_ls != 0.0, axis=0) | np.any(problem.A_raw[:, data_cols] != 0.0, axis=0)
    coef, _, rank, _ = np.linalg.lstsq(X_ls[:, used], y, rcond=None)
    if rank < coef.size:
        raise RankDeficient(
            f"unpenalized fit is rank deficient (rank {rank} < {coef.size})")
    theta_ls = np.zeros(problem.q)
    theta_ls[data_cols[used]] = coef
    theta_ls = induced_theta(layout, back_transform(theta_ls, layout, np.ones(problem.q)))
    theta_ls_scaled = theta_ls * w
    ols_l1 = float(np.abs(theta_ls_scaled).sum())
    ols_beta = back_transform(theta_ls_scaled, layout, w)

    core = _Core.from_design(problem.Z_data, problem.A_scaled, y, problem.gamma)
    plain_core = core.unrestricted()

    lam_max = core.lambda_max
    lams = _grid_lambdas(lam_max, grid_size)

    solutions: List[PathSolution] = []
    grid: List[Tuple[float, float]] = []
    theta = np.zeros(problem.q)
    theta_plain = np.zeros(problem.q)
    for i, lam in enumerate(lams):
        if lam == 0.0:
            theta = theta_ls_scaled.copy()
            solves = 1
            bound = 0.0
        else:
            theta, solves = _solve_grid_point(core, lam, theta, i, "augmented")
            theta_plain, _ = _solve_grid_point(plain_core, lam, theta_plain, i, "gamma = 0 bound")
            bound = lam * (ols_l1 - float(np.abs(theta_plain).sum())) / problem.gamma
        theta_orig = theta / w
        a_viol = problem.A_raw @ theta_orig
        delta = float(a_viol @ a_viol)
        s_ratio = float(np.abs(theta).sum() / ols_l1) if ols_l1 > 0 else 0.0
        solutions.append(
            PathSolution(
                lam=float(lam),
                s_ratio=s_ratio,
                theta_scaled=theta.copy(),
                theta=theta_orig,
                beta=back_transform(theta, layout, w),
                precision=PrecisionReport(delta=delta, bound=bound),
                solves=solves,
                sweeps=0,
            )
        )
        grid.append((float(lam), s_ratio))
    return PathResult(
        grid=tuple(grid),
        solutions=tuple(solutions),
        lambda_max=lam_max,
        ols_beta=ols_beta,
    )
