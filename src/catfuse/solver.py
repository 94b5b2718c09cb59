"""The augmented lasso of the difference penalty and its regularization path.

The augmented problem minimizes ||y − Xθ||² + γ||Aθ||² + λΣ|θ_j|, a plain
L1 problem on the stacked (ỹ, Z̃). The solver works in Gram form (XᵀX, Xᵀy,
A, γ), read off the problem (coding.build_augmented), and never builds that
(n + r) × q stack or any n-row array. At γ = 1e10 the quadratic is
extremely stiff along restriction directions, where coordinate-wise methods
move O(λ/γ) per step. Solutions are therefore found by an active-set method
(the homotopy/active-set lasso of Osborne, Presnell & Turlach 2000) whose
inner step solves the saddle-point system

    [ 2·Xₛ'Xₛ   Aₛ' ] [θₛ]   [ 2Xₛ'y − λσ ]
    [   Aₛ   −I/(2γ)] [ v ] = [     0      ]

(v = 2γAθₛ), which stays well conditioned for any γ, with Lawson–Hanson
style sign handling. A non-tree pair column θ_ij carries no data and sits
in one restriction row ρ (ThetaLayout.pair_row), so when it is active its
stationarity row fixes v_ρ in closed form and row ρ gives θ_ij from the
data columns. The solve therefore runs only on the active data columns
(each factor's tree edges) and the restriction rows whose pair column is
inactive; the elimination is exact, with no approximation in γ.

γ is finite, so a fit violates the restrictions by Δ = ‖Aθ̂‖². The λ = 0
fit θ_LS has Aθ_LS = 0 and the least RSS, so comparing the objective at θ̂
and at θ_LS gives γΔ ≤ λ(‖θ̃_LS‖₁ − ‖θ̃‖₁) at each point, with no second solve.

One loop drives a solve, and its one exit test is the lasso KKT certificate:
each round reads the gradient and its rounding floor off _Core.certificate
once, then adds violators, returns a certified θ or re-solves the active
set. A solve that cannot be certified raises NotConverged, never swallowed.
θₛ is affine in λ while the active set and its signs are fixed, so one
factorisation of a system (S, σ_S) gives θ_S(λ₀) and dθ_S/dλ together. Each
grid point starts from the previous point's system stepped to its λ (the
predicted step) and then certifies; the first certificate round after it
admits any column whose violation exceeds its rounding floor, since the step
is the exact continuation of the previous point between knots. Every other
step factorises, a recurring system too, so a solve depends only on its λ,
warm start and handed system, never on what ran on the core before.

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
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import coding
from .coding import AugmentedProblem, ThetaLayout, induced_theta
from .datamodel import NO_FACTORS
from .errors import LayoutMismatch, NotConverged, RankDeficient
from .weights import ols_coefficients

KKT_TOL = 1e-6
PRECISION_SLACK = 1e-12
DEFAULT_GRID_SIZE = 100
GRID_RATIO = 1e-4   # smallest positive grid λ relative to λ_max

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# problem core: data block + restriction block, shared precomputations
# ---------------------------------------------------------------------------

class _Core:
    """||y − Xθ||² + γ||Aθ||² as XᵀX, Xᵀy, |X|ᵀ|X|, |X|ᵀ|y| and A: no array
    here has n rows, so no solver step after construction costs O(n). γ is
    the method's constant (`gamma`).

    Xᵀy and |X|ᵀ|y| hold the response multiplied by y_scale, the power of two
    nearest 1/max_j|X_jᵀy|; _solve_core maps λ and θ across it.
    """

    def __init__(self, XtX, Xty, absXtX, absXty, A: np.ndarray, pair_row: np.ndarray,
                 y_scale: float):
        self.XtX, self.Xty, self._absXtX, self._absXty = XtX, Xty, absXtX, absXty
        self.A, self._absA = A, np.abs(A)
        self.q, self.r = XtX.shape[0], A.shape[0]
        # pair_row[c] = ρ for a non-tree pair column c, whose one entry in A
        # is at row ρ (ThetaLayout.pair_row); -1 elsewhere. subspace_solve
        # eliminates these columns.
        self.pair_row = pair_row
        self.y_scale = y_scale
        # λ_max in solver units is max|g(0)|: at λ_max no column violates the
        # KKT conditions, so the path's top is exactly all-zero
        g0, _ = self.certificate(np.zeros(self.q))
        self.lam_max_s = float(np.max(np.abs(g0), initial=0.0))

    @classmethod
    def from_gram(cls, XtX, Xty, absXtX, absXty, A: np.ndarray, pair_row: np.ndarray) -> "_Core":
        """The core of XᵀX, Xᵀy, |X|ᵀ|X| and |X|ᵀ|y| of the unscaled y, with
        A's pair columns at pair_row."""
        # frexp splits off the exponent exactly, so scaling y by 2ᵏ shifts
        # y_scale by 2⁻ᵏ and leaves the scaled Xᵀy bit for bit unchanged
        m, e = math.frexp(float(np.max(np.abs(Xty), initial=0.0)))   # m in [½, 1)
        y_scale = math.ldexp(1.0, 1 - e if m < math.sqrt(0.5) else -e)
        return cls(XtX, Xty * y_scale, absXtX, absXty * y_scale, A, pair_row, y_scale)

    @property
    def gamma(self) -> float:
        return coding.DEFAULT_SQRT_GAMMA ** 2

    @property
    def lambda_max(self) -> float:
        return self.lam_max_s / self.y_scale

    def certificate(self, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The gradient g at θ and its rounding floor 8ε|B|ᵀ(|B||θ| + |ỹ|) on
        the stacked B = [X; √γA], ỹ = [y; 0], multiplied out. At γ ~ 1e10 the
        float64 quantization of θ alone moves augmented-column gradients by
        ~γ·ulp, far beyond the generic tolerance."""
        g = (2.0 * (self.XtX @ theta - self.Xty)
             + (2.0 * self.gamma) * (self.A.T @ (self.A @ theta)))
        t = np.abs(theta)
        floor = 8.0 * _EPS * (self._absXtX @ t + self._absXty
                              + self.gamma * (self._absA.T @ (self._absA @ t)))
        return g, floor

    # -- subspace solve ----------------------------------------------------

    def subspace_solve(self, S: np.ndarray, rhs_head: np.ndarray) -> np.ndarray:
        """Solve the fixed-sign stationarity system on columns S.

        rhs_head = 2Xₛ'y − λσ, or an (|S| × k) stack of right-hand sides
        solved on one assembly of the system, each column refined and
        checked as a 1-D one is. An active pair column c (pair_row[c] = ρ) has
        no data, so its stationarity row A[ρ, c]·v_ρ = rhs_c gives v_ρ in
        closed form. The solve then runs on the other active columns D and
        the restriction rows K that touch D and map no active pair column
        (with no active pair column E is empty and the head is rhs_D itself):

            [ 2·X_D'X_D   A_KD' ] [θ_D]   [ rhs_D − A_ED'·v_E ]
            [   A_KD    −I/(2γ) ] [v_K] = [         0         ]

        and row ρ gives θ_c = (v_ρ/(2γ) − A[ρ, D]·θ_D) / A[ρ, c]. The pivots
        A[ρ, c] are nonzero, so this system is singular exactly when the full
        one on S is. Uses one iterative-refinement step. One failure rule
        holds for every S and every core, with or without restriction rows:
        a singular solve, a relative residual above 1e-6 or a non-finite
        result raises RankDeficient("augmented subspace system is singular").
        """
        rho = self.pair_row[S]
        elim = rho >= 0
        keep = ~elim
        D, E = S[keep], rho[elim]
        pivot = self.A[E, S[elim]]
        v_E = (rhs_head[elim].T / pivot).T           # .T divides each row of a stack
        A_D = self.A[:, D]
        A_ED = A_D[E]
        touched = A_D.any(axis=1)
        touched[E] = False
        A_KD = A_D[touched]
        m, ra = D.size, A_KD.shape[0]
        M = np.empty((m + ra, m + ra))
        M[:m, :m] = 2.0 * self.XtX.take(D, axis=0).take(D, axis=1)
        M[:m, m:] = A_KD.T
        M[m:, :m] = A_KD
        M[m:, m:] = -np.eye(ra) / (2.0 * self.gamma)
        rhs = np.zeros((m + ra,) + rhs_head.shape[1:])
        rhs[:m] = rhs_head[keep] - A_ED.T @ v_E
        try:
            sol = np.linalg.solve(M, rhs)
            sol += np.linalg.solve(M, rhs - M @ sol)
            res = rhs - M @ sol
            # each column's 2-norm, summed as np.linalg.norm(·, axis=0) sums it
            rel_res = (np.sqrt((res * res).sum(axis=0))
                       / np.maximum(np.sqrt((rhs * rhs).sum(axis=0)), 1.0))
            out = np.empty(rhs_head.shape)
            out[keep] = sol[:m]
            out[elim] = ((v_E / (2.0 * self.gamma) - A_ED @ sol[:m]).T / pivot).T
            if not ((rel_res <= 1e-6).all() and np.isfinite(out).all()):   # NaN fails too
                raise np.linalg.LinAlgError("large residual or non-finite result")
        except np.linalg.LinAlgError:
            raise RankDeficient("augmented subspace system is singular")
        return out

    def solve_at(self, S: np.ndarray, sigma_S: np.ndarray, lam: float) -> "_System":
        """Factorise the system of (S, σ_S) at λ (solver units): one solve of
        [2Xₛ'y − λσ_S, −σ_S] gives θ_S(λ) and dθ_S/dλ."""
        theta0, slope = self.subspace_solve(
            S, np.column_stack([2.0 * self.Xty[S] - lam * sigma_S, -sigma_S])).T.copy()
        return _System(S, sigma_S, lam, theta0, slope)


class _System(NamedTuple):
    """One factorised active set: θ_S(λ) = θ₀ + (λ − λ₀)·dθ_S/dλ while S
    keeps the signs σ_S (solver units)."""

    S: np.ndarray
    sigma_S: np.ndarray
    lam0: float
    theta0: np.ndarray
    slope: np.ndarray

    def at(self, lam: float) -> np.ndarray:
        # θ₀ itself at λ₀: θ₀ + 0·slope would turn −0.0 into +0.0
        return self.theta0 if lam == self.lam0 else self.theta0 + (lam - self.lam0) * self.slope


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
    system: Optional[_System] = None,
) -> Tuple[np.ndarray, int, Optional[_System]]:
    """The minimizer at λ, the number of active-set steps it took (each the
    solution of one subspace system, factorised or stepped) and the system
    it solves, handed in or factorised last (None if no such system is known).

    λ, the warm start and the result are in the data's units; the rounds run
    on the response scaled by core.y_scale, as does the system. At λ ≥ λ_max,
    where θ = 0 is the solution, the warm start is dropped.

    Predicted step. When `system` is the warm start's own (its S and σ_S are
    the warm start's nonzeros and signs) and stepping it to λ changes θ_S,
    the solve first re-solves that active set from the step (a certified θ
    at its own λ, or a zero slope, is left as it is and goes straight to the
    certificate). Then come the certificate rounds. Each reads the gradient g
    and its rounding floor off core.certificate once, then sets
    tol = KKT_TOL + floor and z = |g + λ·sign θ| (|g_j| on an inactive
    column) and reads both KKT tests off z:

    - inactive columns with z_j over λ by more than ¼·tol are violators; up
      to _ADD_PER_ROUND of the worst join the active set with σ_j = −sign g_j.
      In the first round after a predicted step the bar is the floor itself:
      the predicted θ continues the previous system exactly, so a violation
      above rounding is a column that crossed λ inside the step;
    - with no violator, θ is returned once every active column is stationary,
      z_j ≤ tol_j;
    - otherwise the active set is re-solved.

    A re-solve factorises the subspace system on the active set S and walks
    toward its solution, stopping at the first sign crossing and dropping the
    columns that reach 0, until a solution keeps every sign σ (at λ = 0 any
    solution is accepted). Each step decreases the objective. So a stepped θ
    that leaves no violator yet fails the certificate is solved afresh at λ.
    """
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got {lam!r}")
    theta = np.zeros(core.q) if warm_start is None else np.array(warm_start, dtype=float)
    if theta.shape != (core.q,):
        raise LayoutMismatch(f"warm start has shape {theta.shape}, expected ({core.q},)")
    if not np.isfinite(theta).all():
        raise ValueError("warm start holds non-finite values")
    theta *= core.y_scale
    lam_s = lam * core.y_scale
    if lam_s >= core.lam_max_s:
        theta[:] = 0.0
    sigma = np.sign(theta)
    active = theta != 0.0
    S = active.nonzero()[0]
    solves = 0
    # only the warm start's own system is stepped (bytes: 20× cheaper than array_equal)
    if system is not None and (system.S.tobytes(), system.sigma_S.tobytes()) != (
            S.tobytes(), sigma[S].tobytes()):
        system = None
    # the predicted step: compared with θ_S itself, so a warm start already
    # stepped to this λ (or on a zero slope) goes straight to the certificate
    predicted = False
    if system is not None:
        stepped = system.at(lam_s)
        predicted = bool((stepped != theta[S]).any())
    if predicted:
        solves, system = _resolve(core, theta, active, sigma, lam_s, system, stepped)
    for _ in range(_MAX_ROUNDS):
        g, floor = core.certificate(theta)
        tol = KKT_TOL + floor
        active = theta != 0.0
        # copysign, not λ·sign θ: at λ = ∞ an inactive column would read ∞·0
        z = np.abs(g + np.where(active, np.copysign(lam_s, theta), 0.0))
        viol = np.where(active, -np.inf, z - lam_s)
        add = (viol > (floor if predicted else 0.25 * tol)).nonzero()[0]
        predicted = False
        if add.size:
            add = add[np.argsort(viol[add])[::-1]][:_ADD_PER_ROUND]
            active[add] = True
            sigma[add] = -np.sign(g[add])
        elif (z[active] <= tol[active]).all():
            return theta / core.y_scale, solves, system
        steps, system = _resolve(core, theta, active, sigma, lam_s)
        solves += steps
    raise NotConverged("active-set driver exceeded round cap")


def _resolve(core: _Core, theta: np.ndarray, active: np.ndarray, sigma: np.ndarray,
             lam_s: float, system: Optional[_System] = None,
             cand: Optional[np.ndarray] = None) -> Tuple[int, Optional[_System]]:
    """Re-solve the active set in place (_solve_core): the number of steps
    taken and the system θ now solves (None once every column dropped). The
    first step reads a handed-in `system` and its θ_S at λ, `cand`; every
    other step factorises."""
    for steps in range(1, _MAX_INNER + 1):
        S = active.nonzero()[0]
        if system is None:
            system = core.solve_at(S, sigma[S], lam_s)
            cand = system.theta0                     # system.at(λ₀)
        if lam_s == 0.0 or not (cand * sigma[S] < 0.0).any():
            theta[:] = 0.0
            theta[S] = cand
            return steps, system
        system = None
        # walk toward the candidate, stop at the first zero crossing: a
        # θ_j ≠ 0 that would change sign, or a new θ_j = 0 moving against
        # σ_j (finite: a flipped θ_j ≠ 0 has sign σ_j, so it crosses 0)
        t = theta[S]
        dS = cand - t
        d = np.zeros(core.q)
        d[S] = dS
        cross = np.full(S.size, np.inf)
        hit = (t != 0.0) & (np.sign(t) != np.sign(t + dS)) & (dS != 0.0)
        cross[hit] = -t[hit] / dS[hit]
        cross[(t == 0.0) & (sigma[S] * dS < 0.0)] = 0.0
        tmin = min(max(float(cross.min()), 0.0), 1.0)
        theta += tmin * d
        dropped = S[cross <= tmin + 1e-15]
        theta[dropped] = 0.0
        active[dropped] = False
        if not active.any():
            return steps, None
    raise NotConverged("active-set inner loop exceeded iteration cap")


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
    solves: int                       # active-set steps, factorised or the predicted one
    sweeps: int                       # always 0: perfbench/spans.py still sums it


@dataclass(frozen=True)
class PathResult:
    """The points of a path, from λ_max down to λ = 0; the rest is read off
    them, so a copy with other points (dataclasses.replace) stays whole."""

    solutions: Tuple[PathSolution, ...]

    @property
    def lambda_max(self) -> float:
        return self.solutions[0].lam

    def nearest(self, s_values) -> np.ndarray:
        """Index of the point whose s_ratio is nearest each of s_values (the
        path's one nearest-point rule); ties take the first point, the
        sparser, larger-λ one. A NaN s raises ValueError."""
        s_values = np.asarray(s_values, dtype=float)
        if np.isnan(s_values).any():
            raise ValueError(f"s_ratio must be a number, got {s_values.tolist()!r}")
        ratios = np.array([sol.s_ratio for sol in self.solutions])
        return np.argmin(np.abs(ratios - s_values[..., None]), axis=-1)

    def solution_at(self, s_ratio: float) -> PathSolution:
        """The point nearest s_ratio: nearest's one-value case."""
        return self.solutions[int(self.nearest(s_ratio))]


def back_transform(
    theta_scaled: np.ndarray,
    layout: ThetaLayout,
    w: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Per-factor per-level coefficients from solver coordinates.

    Undoes the 1/w column rescaling by the weight vector w, then walks each
    block's tree edges (i, parent(i)) in level order: β_i = θ_tree(i) +
    β_parent(i), added only where parent(i) ≠ 0, so a star copies its tree
    columns (±0.0 too) and a chain sums in np.cumsum's order. A (G × q)
    stack of θ̃ gives a (G × (k + 1)) stack per factor, each row as its own
    θ̃ would.
    """
    theta_scaled = np.asarray(theta_scaled, dtype=float)
    w = np.asarray(w, dtype=float)
    if theta_scaled.shape[-1:] != (layout.q,) or w.shape != (layout.q,):
        raise LayoutMismatch(
            f"theta has shape {theta_scaled.shape}, weights {w.shape}, "
            f"layout expects ({layout.q},)"
        )
    theta = theta_scaled / w
    out: Dict[str, np.ndarray] = {}
    for b in layout.blocks:
        full = np.zeros(theta.shape[:-1] + (b.k + 1,))
        full[..., 1:] = theta[..., b.offset:b.offset + b.k]
        for i, parent in b.pairs[:b.k]:
            if parent:
                full[..., i] += full[..., parent]
        out[b.name] = full
    return out


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
    θ_LS is the θ induced by weights.ols_coefficients(problem.dataset),
    whose rank deficiency raises OlsUnavailable, a RankDeficient. A schema
    without factors raises ValueError.
    """
    w = problem.weight_values
    layout = problem.layout
    if not layout.q:
        raise ValueError(NO_FACTORS)
    core = _Core.from_gram(problem.XtX, problem.Xty, problem.absXtX, problem.absXty,
                           problem.A_scaled, layout.pair_row)
    # the least-squares fit does not depend on the weights, and Aθ_LS = 0
    theta_ls_scaled = induced_theta(layout, ols_coefficients(problem.dataset)) * w
    ols_l1 = float(np.abs(theta_ls_scaled).sum())

    lams = _grid_lambdas(core.lambda_max, grid_size)
    # θ̃ at every grid point, one row each; the outputs are read off the stack
    stack = np.empty((lams.size, problem.q))
    solves = np.ones(lams.size, dtype=int)      # λ = 0: ols_coefficients
    # each point hands its system to the next, which starts from its step
    theta, system = np.zeros(problem.q), None
    for i, lam in enumerate(lams[:-1]):
        try:
            theta, solves[i], system = _solve_core(core, lam, theta, system)
        except (NotConverged, RankDeficient) as exc:
            # a failure keeps its class and names the grid point and λ
            raise type(exc)(f"{exc} (grid point {i}, lambda = {float(lam)!r}, "
                            "augmented solve)") from exc
        stack[i] = theta
    stack[-1] = theta_ls_scaled

    l1 = np.abs(stack).sum(axis=1)
    bounds = lams * (ols_l1 - l1) / core.gamma
    thetas = stack / w
    a_viol = thetas @ problem.A_raw.T
    deltas = np.einsum("ij,ij->i", a_viol, a_viol)
    s_ratios = l1 / ols_l1 if ols_l1 > 0 else np.zeros(lams.size)
    betas = back_transform(stack, layout, w)
    return PathResult(tuple(
        PathSolution(
            lam=lam,
            s_ratio=s_ratio,
            theta_scaled=stack[i],
            theta=thetas[i],
            beta={name: B[i] for name, B in betas.items()},
            precision=PrecisionReport(delta=delta, bound=bound),
            solves=n,
            sweeps=0,
        )
        for i, (lam, s_ratio, delta, bound, n) in enumerate(zip(
            lams.tolist(), s_ratios.tolist(), deltas.tolist(), bounds.tolist(), solves.tolist()))
    ))
