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
style sign handling. A nominal pair column θ_ij (j ≥ 1) carries no data and
sits in one restriction row ρ, so when it is active its stationarity row
fixes v_ρ in closed form and row ρ gives θ_ij from the data columns. The
solve therefore runs only on the active data columns (θ_i0 and ordinal δ)
and the restriction rows whose pair column is inactive; the elimination is
exact, with no approximation in γ.

γ is finite, so a fit violates the restrictions by Δ = ‖Aθ̂‖². The λ = 0
fit θ_LS has Aθ_LS = 0 and the least RSS, so comparing the objective at θ̂
and at θ_LS gives γΔ ≤ λ(‖θ̃_LS‖₁ − ‖θ̃‖₁) at each point, with no second solve.

One loop drives a solve, and its one exit test is the KKT certificate: each
round evaluates the gradient and its rounding floor once, then adds
violators, returns a certified θ or re-solves the active set. A solve that
cannot be certified raises NotConverged, never swallowed.

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
from .datamodel import NO_FACTORS
from .errors import LayoutMismatch, NotConverged, RankDeficient
from .structure import solve_normal_equations

KKT_TOL = 1e-6
PRECISION_SLACK = 1e-12
DEFAULT_GRID_SIZE = 100
GRID_RATIO = 1e-4   # smallest positive grid λ relative to λ_max

_EPS = np.finfo(float).eps
_ISTA_MAX_ITER = 2_000_000


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
        # pair_row[c] = ρ for a column with no data and one nonzero in A, at
        # row ρ, when it is the only such column of ρ (the nominal θ_ij,
        # j ≥ 1); -1 elsewhere. subspace_solve eliminates these columns.
        lone = np.flatnonzero(~np.any(XtX != 0.0, axis=0)
                              & (np.count_nonzero(A, axis=0) == 1))
        rows, at = np.nonzero(A[:, lone])
        alone = np.bincount(rows, minlength=self.r)[rows] == 1
        self.pair_row = np.full(self.q, -1)
        self.pair_row[lone[at[alone]]] = rows[alone]

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

        rhs_head = 2Xₛ'y − λσ. An active pair column c (pair_row[c] = ρ) has
        no data, so its stationarity row A[ρ, c]·v_ρ = rhs_c gives v_ρ in
        closed form. The solve then runs on the other active columns D and
        the restriction rows K that touch D and map no active pair column:

            [ 2·X_D'X_D   A_KD' ] [θ_D]   [ rhs_D − A_ED'·v_E ]
            [   A_KD    −I/(2γ) ] [v_K] = [         0         ]

        and row ρ gives θ_c = (v_ρ/(2γ) − A[ρ, D]·θ_D) / A[ρ, c]. The pivots
        A[ρ, c] are nonzero, so this system is singular exactly when the full
        one on S is. Uses one iterative-refinement step; raises RankDeficient
        when the system is singular.
        """
        rho = self.pair_row[S]
        elim = rho >= 0
        keep = ~elim
        D, E = S[keep], rho[elim]
        pivot = self.A[E, S[elim]]
        v_E = rhs_head[elim] / pivot
        A_D = self.A[:, D]
        A_ED = A_D[E]
        touched = A_D.any(axis=1)
        touched[E] = False
        A_KD = A_D[touched]
        m, ra = D.size, A_KD.shape[0]
        M = np.empty((m + ra, m + ra))
        M[:m, :m] = 2.0 * self.XtX[D][:, D]
        M[:m, m:] = A_KD.T
        M[m:, :m] = A_KD
        M[m:, m:] = -np.eye(ra) / (2.0 * self.gamma)
        rhs = np.concatenate([rhs_head[keep] - A_ED.T @ v_E, np.zeros(ra)])
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
        out = np.empty(S.size)
        out[keep] = sol[:m]
        out[elim] = (v_E / (2.0 * self.gamma) - A_ED @ sol[:m]) / pivot
        if not np.all(np.isfinite(out)):
            raise RankDeficient("subspace solve produced non-finite values")
        return out


# ---------------------------------------------------------------------------
# active-set driver
# ---------------------------------------------------------------------------

_ADD_PER_ROUND = 10
_MAX_ROUNDS = 200
_MAX_INNER = 500


def _solve_core(
    core: _Core,
    lam: float,
    warm_start: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """The minimizer at λ and the number of subspace solves it took.

    λ, the warm start and the result are in the data's units; the rounds run
    on the response scaled by core.y_scale. Each round evaluates the gradient
    g and its rounding floor once, sets tol = KKT_TOL + floor, and reads the
    KKT certificate off them:

    - inactive columns with |g_j| over λ by more than ¼·tol are violators; up
      to _ADD_PER_ROUND of the worst join the active set with σ_j = −sign g_j;
    - with no violator, θ is returned once every active column is stationary,
      |g_j + λ·sign θ_j| ≤ tol_j;
    - otherwise the active set is re-solved.

    A re-solve solves the subspace system on the active set S and walks
    toward its solution, stopping at the first sign crossing and dropping the
    columns that reach 0, until a solution keeps every sign σ (at λ = 0 any
    solution is accepted). Each step decreases the objective.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    theta = np.zeros(core.q) if warm_start is None else np.array(warm_start, dtype=float)
    if theta.shape != (core.q,):
        raise LayoutMismatch(f"warm start has shape {theta.shape}, expected ({core.q},)")
    theta *= core.y_scale
    lam_s = lam * core.y_scale
    sigma = np.sign(theta)
    solves = 0
    for _ in range(_MAX_ROUNDS):
        g = core.grad(theta)
        tol = KKT_TOL + core.kkt_floor(theta)
        active = theta != 0.0
        viol = np.where(active, -np.inf, np.abs(g) - lam_s)
        add = np.flatnonzero(viol > 0.25 * tol)
        if add.size:
            add = add[np.argsort(viol[add])[::-1]][:_ADD_PER_ROUND]
            active[add] = True
            sigma[add] = -np.sign(g[add])
        elif np.all(np.abs(g[active] + lam_s * np.sign(theta[active])) <= tol[active]):
            return theta / core.y_scale, solves
        for _inner in range(_MAX_INNER):
            S = np.flatnonzero(active)
            cand = core.subspace_solve(S, 2.0 * core.Xty[S] - lam_s * sigma[S])
            solves += 1
            if lam_s == 0.0 or not np.any(cand * sigma[S] < 0.0):
                theta[:] = 0.0
                theta[S] = cand
                break
            # walk toward the candidate, stop at the first zero crossing: a
            # θ_j ≠ 0 that would change sign, or a new θ_j = 0 moving against
            # σ_j (finite: a flipped θ_j ≠ 0 has sign σ_j, so it crosses 0)
            d = np.zeros(core.q)
            d[S] = cand - theta[S]
            t, dS = theta[S], d[S]
            cross = np.full(S.size, np.inf)
            hit = (t != 0.0) & (np.sign(t) != np.sign(t + dS)) & (dS != 0.0)
            cross[hit] = -t[hit] / dS[hit]
            cross[(t == 0.0) & (sigma[S] * dS < 0.0)] = 0.0
            tmin = min(max(float(np.min(cross)), 0.0), 1.0)
            theta += tmin * d
            dropped = S[cross <= tmin + 1e-15]
            theta[dropped] = 0.0
            active[dropped] = False
            if not np.any(active):
                break
        else:
            raise NotConverged("active-set inner loop exceeded iteration cap")
    raise NotConverged("active-set driver exceeded round cap")


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


def ista_oracle(design: np.ndarray, response: np.ndarray, lam: float) -> np.ndarray:
    """Independent proximal-gradient reference solver (verification only).

    Monotone ISTA with backtracking on the step size; stops when the
    objective decrease falls below 1e−14 (at most _ISTA_MAX_ITER
    iterations). Deliberately shares no code with solve_lasso.
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


# ---------------------------------------------------------------------------
# paths on the augmented problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionReport:
    """Restriction violation Δ = (Aθ̂)'(Aθ̂) and its bound λ(‖θ̃_LS‖₁ − ‖θ̃‖₁)/γ."""

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
    """The points of a path, from λ_max down to λ = 0; the rest is read off
    them, so a copy with other points (dataclasses.replace) stays whole."""

    solutions: Tuple[PathSolution, ...]

    @property
    def grid(self) -> Tuple[Tuple[float, float], ...]:      # (λ, s_ratio) pairs
        return tuple((sol.lam, sol.s_ratio) for sol in self.solutions)

    @property
    def lambda_max(self) -> float:
        return self.solutions[0].lam

    def nearest(self, s_values) -> np.ndarray:
        """Index of the point whose s_ratio is nearest each of s_values (the
        path's one nearest-point rule); ties take the first point, the
        sparser, larger-λ one."""
        ratios = np.array([sol.s_ratio for sol in self.solutions])
        return np.argmin(np.abs(ratios - np.asarray(s_values, dtype=float)[..., None]), axis=-1)

    def solution_at(self, s_ratio: float) -> PathSolution:
        """The point nearest s_ratio: nearest's one-value case."""
        return self.solutions[int(self.nearest(s_ratio))]


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


def _solve_grid_point(core: _Core, lam: float, warm_start: np.ndarray, index: int):
    # a failure keeps its class and names the grid point and λ
    try:
        return _solve_core(core, lam, warm_start=warm_start)
    except (NotConverged, RankDeficient) as exc:
        raise type(exc)(
            f"{exc} (grid point {index}, lambda = {float(lam)!r}, augmented solve)"
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
    point; its bound λ(‖θ̃_LS‖₁ − ‖θ̃‖₁)/γ is read off that point's fit and
    the λ = 0 fit θ̃_LS (module docstring), so each λ > 0 takes one solve.
    θ̃_LS solves the normal equations of the data columns, read off the
    core's Gram matrix, under the rank rule of every unpenalized fit
    (structure.solve_normal_equations). A schema without factors raises
    ValueError.
    """
    w = problem.weight_values
    layout = problem.layout
    if not layout.q:
        raise ValueError(NO_FACTORS)
    core = _Core.from_design(problem.Z_data, problem.A_scaled, problem.y_centered, problem.gamma)

    # The λ = 0 point is the least-squares fit of the data columns (θ_i0 and
    # δ), solved in unit weights: it does not depend on the weights, and
    # capped adaptive weights would wreck the conditioning of a weighted
    # fit. Its normal equations are read off the core's data block. The
    # nominal pair columns carry no data; they follow from
    # θ_ij = β_i − β_j, which makes Aθ = 0. A column with neither data nor a
    # restriction is unidentified and stays 0.
    data_cols = np.array([b.offset + i for b in layout.blocks for i in range(b.k)], dtype=int)
    w_d = w[data_cols]
    G = core.XtX[np.ix_(data_cols, data_cols)] * np.outer(w_d, w_d)
    has_data = np.diagonal(G) > 0.0
    used = has_data | np.any(problem.A_raw[:, data_cols] != 0.0, axis=0)
    try:
        coef = solve_normal_equations(G[np.ix_(used, used)],
                                      (core.Xty[data_cols] * w_d / core.y_scale)[used],
                                      "unpenalized fit")
    except RankDeficient as exc:
        # a nominal level no row uses keeps its restriction rows but has an
        # all-zero data column: name each such level by its schema index
        levels = [(b.name, i) for b in layout.blocks for i in range(1, b.k + 1)]
        named = "".join(f"; factor {levels[c][0]!r} level index {levels[c][1]} has no rows"
                        for c in np.flatnonzero(used & ~has_data))
        raise RankDeficient(f"{exc}{named}") from None
    theta_ls = np.zeros(problem.q)
    theta_ls[data_cols[used]] = coef
    theta_ls = induced_theta(layout, back_transform(theta_ls, layout, np.ones(problem.q)))
    theta_ls_scaled = theta_ls * w
    ols_l1 = float(np.abs(theta_ls_scaled).sum())

    lams = _grid_lambdas(core.lambda_max, grid_size)

    solutions: List[PathSolution] = []
    theta = np.zeros(problem.q)
    for i, lam in enumerate(lams):
        if lam == 0.0:
            theta = theta_ls_scaled.copy()
            solves = 1
        else:
            theta, solves = _solve_grid_point(core, lam, theta, i)
        l1 = float(np.abs(theta).sum())
        bound = float(lam) * (ols_l1 - l1) / problem.gamma
        theta_orig = theta / w
        a_viol = problem.A_raw @ theta_orig
        delta = float(a_viol @ a_viol)
        s_ratio = l1 / ols_l1 if ols_l1 > 0 else 0.0
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
    return PathResult(tuple(solutions))
