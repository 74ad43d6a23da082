"""Self-contained optimization kernel: dense two-phase simplex linear
programming, and Newton steps on the maximal support (the cells some
feasible joint assignment makes positive, where the entropy optimum has
product form: Csiszar 1975, Ann. Probab. 3:146) to maximize the entropy
or a quadratic surrogate of a joint assignment.

Problem sizes are tiny (at most a few hundred joint-assignment cells), so a
dense tableau with Bland's anti-cycling rule is used throughout; clarity
over speed.  Cell ordering is deterministic, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

_PIVOT_TOL = 1e-10
_RED_COST_TOL = 1e-9
_REFRESH_EVERY = 128
_ZERO_TOL = 1e-14
_MAX_BACKTRACKS = 40


class OptimError(RuntimeError):
    """Internal solver failure (should not happen on well-posed inputs)."""


@dataclass(frozen=True)
class SolverConfig:
    """``max_iterations`` caps the phase-I vertex plus the Newton steps;
    ``improvement_tol`` is the objective loss a step may show from
    rounding alone; ``ln_floor`` stands in for 0 in the logarithm of the
    entropy's derivatives at empty cells."""

    max_iterations: int = 10_000
    improvement_tol: float = 1e-12
    certificate_tol: float = 1e-7
    feasibility_tol: float = 1e-9
    ln_floor: float = 1e-12

    def __post_init__(self) -> None:
        for name in (
            "max_iterations",
            "improvement_tol",
            "certificate_tol",
            "feasibility_tol",
            "ln_floor",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective @ x subject to eq_matrix @ x = eq_rhs, x >= 0,
    with ``fixed_zero`` variables pinned to 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    fixed_zero: np.ndarray | None = None

    def __post_init__(self) -> None:
        m, n = np.shape(self.eq_matrix)
        if np.shape(self.objective) != (n,) or np.shape(self.eq_rhs) != (m,):
            raise ValueError("inconsistent linear program dimensions")
        if not np.all(np.isfinite(self.eq_rhs)):
            raise ValueError("right-hand side must be finite")
        if self.fixed_zero is not None and np.shape(self.fixed_zero) != (n,):
            raise ValueError("fixed_zero mask has wrong length")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None
    phase1_residual: float = 0.0


class _Simplex:
    """Dense tableau simplex over ``A x = b, x >= 0`` with Bland's rule.

    Phase I runs at construction; afterwards ``optimize`` can be called
    repeatedly with different objectives, continuing from the current basis
    (the feasible region never changes).
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.array(A, dtype=float)
        b = np.array(b, dtype=float)
        flip = b < 0
        A[flip] *= -1.0
        b[flip] *= -1.0
        m, n = A.shape
        self.n = n
        self.A_full = np.hstack([A, np.eye(m)])
        self.b0 = b.copy()
        self.T = self.A_full.copy()
        self.rhs = b.copy()
        self.basis = list(range(n, n + m))
        self._pivots = 0

        phase1_obj = np.concatenate([np.zeros(n), -np.ones(m)])
        status = self._bland_loop(phase1_obj, enter_limit=n)
        if status == "unbounded":  # impossible in phase I
            raise OptimError("phase I reported unbounded")
        self.phase1_residual = float(
            sum(self.rhs[i] for i, j in enumerate(self.basis) if j >= n)
        )
        self._prune_artificials()

    # -- tableau mechanics -------------------------------------------------

    def _pivot(self, row: int, col: int) -> None:
        T, rhs = self.T, self.rhs
        piv = T[row, col]
        T[row] /= piv
        rhs[row] /= piv
        for i in range(len(rhs)):
            if i != row and T[i, col] != 0.0:
                factor = T[i, col]
                T[i] -= factor * T[row]
                rhs[i] -= factor * rhs[row]
        np.clip(rhs, 0.0, None, out=rhs)
        self.basis[row] = col
        self._pivots += 1
        if self._pivots % _REFRESH_EVERY == 0:
            self._refresh()

    def _refresh(self) -> None:
        # Recompute the tableau from the original data to shed drift.
        B = self.A_full[:, self.basis]
        try:
            sol = np.linalg.solve(B, np.column_stack([self.A_full, self.b0]))
        except np.linalg.LinAlgError:
            return
        self.T = np.ascontiguousarray(sol[:, :-1])
        self.rhs = np.maximum(sol[:, -1], 0.0)

    def _bland_loop(self, c: np.ndarray, enter_limit: int) -> str:
        while True:
            c_basis = c[self.basis]
            reduced = c[:enter_limit] - c_basis @ self.T[:, :enter_limit]
            enter = -1
            for j in range(enter_limit):
                if reduced[j] > _RED_COST_TOL and j not in self.basis:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            col = self.T[:, enter]
            best_row = -1
            best_ratio = np.inf
            for i in range(len(self.rhs)):
                if col[i] > _PIVOT_TOL:
                    ratio = self.rhs[i] / col[i]
                    if ratio < best_ratio - 1e-12 or (
                        abs(ratio - best_ratio) <= 1e-12
                        and best_row >= 0
                        and self.basis[i] < self.basis[best_row]
                    ):
                        best_ratio = ratio
                        best_row = i
            if best_row < 0:
                return "unbounded"
            self._pivot(best_row, enter)

    def _prune_artificials(self) -> None:
        # Pivot basic artificials at value 0 out, keeping the point of an
        # infeasible phase I; drop redundant rows.
        drop = []
        for i in range(len(self.basis)):
            if self.basis[i] < self.n or self.rhs[i] > _PIVOT_TOL:
                continue
            col = -1
            for j in range(self.n):
                if j not in self.basis and abs(self.T[i, j]) > _PIVOT_TOL:
                    col = j
                    break
            if col >= 0:
                self._pivot(i, col)
            else:
                drop.append(i)
        if drop:
            keep = [i for i in range(len(self.basis)) if i not in drop]
            self.T = self.T[keep]
            self.rhs = self.rhs[keep]
            self.basis = [self.basis[i] for i in keep]
            self.A_full = self.A_full[keep]
            self.b0 = self.b0[keep]

    # -- public ------------------------------------------------------------

    def solution(self) -> np.ndarray:
        x = np.zeros(self.n)
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = self.rhs[i]
        return x

    def optimize(self, c: np.ndarray) -> tuple[str, np.ndarray]:
        """Maximize ``c @ x`` from the current basis; returns (status, x)."""
        c_ext = np.concatenate([c, np.zeros(self.A_full.shape[1] - self.n)])
        status = self._bland_loop(c_ext, enter_limit=self.n)
        return status, self.solution()

    def duals(self, c: np.ndarray) -> np.ndarray:
        """Dual prices of the equality rows for the current optimal basis."""
        c_ext = np.concatenate([c, np.zeros(self.A_full.shape[1] - self.n)])
        B = self.A_full[:, self.basis]
        return np.linalg.solve(B.T, c_ext[self.basis])


def lp_solve(lp: LinearProgram, feasibility_tol: float = 1e-9) -> LpResult:
    """Two-phase dense simplex with Bland's anti-cycling rule."""
    A = np.asarray(lp.eq_matrix, dtype=float)
    c = np.asarray(lp.objective, dtype=float)
    b = np.asarray(lp.eq_rhs, dtype=float)
    n = A.shape[1]
    if lp.fixed_zero is not None:
        active = ~np.asarray(lp.fixed_zero, dtype=bool)
    else:
        active = np.ones(n, dtype=bool)
    simplex = _Simplex(A[:, active], b)
    if simplex.phase1_residual > feasibility_tol:
        return LpResult("infeasible", None, None, simplex.phase1_residual)
    status, x_active = simplex.optimize(c[active])
    if status == "unbounded":
        return LpResult("unbounded", None, None, simplex.phase1_residual)
    x = np.zeros(n)
    x[active] = x_active
    return LpResult("optimal", x, float(c @ x), simplex.phase1_residual)


# -- transportation-style problems over joint-assignment cells ---------------


def _cell_matrix(
    cells: Sequence[tuple[int, ...]], marginals: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Equality system forcing each axis-sum of the cell vector to match
    the corresponding marginal."""
    sizes = [len(m) for m in marginals]
    offsets = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    rows = int(sum(sizes))
    A = np.zeros((rows, len(cells)))
    for col, cell in enumerate(cells):
        for axis, k in enumerate(cell):
            A[offsets[axis] + k, col] = 1.0
    b = np.concatenate([np.asarray(m, dtype=float) for m in marginals])
    return A, b


@dataclass(frozen=True)
class PgResult:
    """Outcome of a maximization; ``f`` is the phase-I point when
    infeasible (see ``feasible_point``).  ``iterations`` is 1 for the
    phase-I vertex plus the number of Newton steps taken.
    ``objective_history`` holds the objective at the start of the Newton
    phase (the phase-I vertex when that certifies at once) and after
    every step; it never decreases."""

    feasible: bool
    f: np.ndarray
    objective: float
    iterations: int
    certificate: float
    certified: bool
    max_marginal_residual: float
    phase1_residual: float
    objective_history: tuple[float, ...] = ()


def _entropy(f: np.ndarray) -> float:
    # 0 * ln 0 := 0 throughout.
    positive = f > 0.0
    return float(-(f[positive] * np.log(f[positive])).sum())


def _entropy_gradient(f: np.ndarray, ln_floor: float) -> np.ndarray:
    # Exact on positive cells, however small: a floor there would misplace
    # optima below it.  Empty cells take ln_floor in place of 0.
    return -(1.0 + np.log(np.where(f > 0.0, f, ln_floor)))


def _newton_step(
    f: np.ndarray,
    support: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    grad: np.ndarray,
    hess_diag: np.ndarray,
    damping: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Newton step for the local quadratic model on ``support`` subject to
    ``A f = b``: with ``D = -1 / hess_diag`` it is ``D (grad - A^T y)``,
    where ``(A D A^T) y = A D grad - (b - A f)``.  For the entropy ``D``
    is ``f``, so the system stays well scaled however small the cells.
    The step is cut to at most ``damping`` times the distance to the
    boundary; returns it with the mask of the cells it empties."""
    idx = np.flatnonzero(support)
    if idx.size == 0:
        return None
    A_s = A[:, idx]
    scale = -1.0 / hess_diag[idx]
    residual = b - A_s @ f[idx]
    try:
        y = np.linalg.lstsq(
            (A_s * scale) @ A_s.T,
            A_s @ (scale * grad[idx]) - residual,
            rcond=None,
        )[0]
    except np.linalg.LinAlgError:
        return None
    delta_s = scale * (grad[idx] - A_s.T @ y)
    if not np.all(np.isfinite(delta_s)):
        return None
    ratios = np.full(delta_s.shape, np.inf)
    shrink = delta_s < 0.0
    ratios[shrink] = f[idx][shrink] / -delta_s[shrink]
    gamma = min(1.0, damping * float(ratios.min()))
    if gamma <= 0.0:
        return None
    delta = np.zeros_like(f)
    delta[idx] = gamma * delta_s
    blocked = np.zeros(f.shape, dtype=bool)
    blocked[idx] = ratios <= gamma * (1.0 + 1e-12)
    return delta, blocked


def _phase_one(
    cells: Sequence[tuple[int, ...]],
    marginals: Sequence[np.ndarray],
    forbidden: Iterable[tuple[int, ...]],
) -> tuple[float, np.ndarray | None, np.ndarray | None, _Simplex | None]:
    """The phase-I residual, the equality system of the allowed cells and
    its simplex after phase I (no system when every cell is forbidden)."""
    forbidden = set(forbidden)
    allowed = [cell for cell in cells if cell not in forbidden]
    if not allowed:
        residual = float(sum(np.abs(np.asarray(m)).sum() for m in marginals))
        return residual, None, None, None
    A, b = _cell_matrix(allowed, marginals)
    simplex = _Simplex(A, b)
    return simplex.phase1_residual, A, b, simplex


def _maximal_support_point(
    simplex: _Simplex, vertices: list[np.ndarray]
) -> np.ndarray:
    """A feasible point that is positive exactly on the maximal support.

    Each cell that none of ``vertices`` covers is maximized over the
    polytope (warm-started from the previous basis); the cell belongs to
    the maximal support iff that maximum is positive, and the vertex then
    joins the set.  The average of the set is positive on every cell some
    feasible point makes positive, and zero elsewhere."""
    # Round-off in the tableau leaves entries of order 1e-17 on cells
    # that are zero at the vertex; they must not enter the support.
    vertices = [np.where(v > _ZERO_TOL, v, 0.0) for v in vertices]
    covered = np.zeros(simplex.n, dtype=bool)
    for vertex in vertices:
        covered |= vertex > 0.0
    for j in range(simplex.n):
        if covered[j]:
            continue
        objective = np.zeros(simplex.n)
        objective[j] = 1.0
        _, vertex = simplex.optimize(objective)
        vertex = np.where(vertex > _ZERO_TOL, vertex, 0.0)
        if vertex[j] > 0.0:
            vertices.append(vertex)
            covered |= vertex > 0.0
    return np.mean(vertices, axis=0)


def _maximize(
    cells: Sequence[tuple[int, ...]],
    marginals: Sequence[np.ndarray],
    forbidden: Iterable[tuple[int, ...]],
    config: SolverConfig,
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    hess_fn: Callable[[np.ndarray], np.ndarray],
    interior: bool,
) -> PgResult:
    """Maximize a separable concave objective over the transportation
    polytope of the allowed cells: phase I, the certificate at the phase-I
    vertex, then Newton steps on the maximal support, each certified.

    ``interior``: the optimum is positive on the whole maximal support
    (the entropy), so steps stop short of the boundary.  Otherwise a step
    stops on it and drops the cells it empties, and a face optimum that
    does not certify is left by a line step toward the certificate
    vertex."""
    phase1, A, b, simplex = _phase_one(cells, marginals, forbidden)
    if phase1 > config.feasibility_tol:
        return PgResult(
            feasible=False,
            f=np.zeros(0) if simplex is None else simplex.solution(),
            objective=float("nan"),
            iterations=0,
            certificate=float("inf"),
            certified=False,
            max_marginal_residual=float("inf"),
            phase1_residual=phase1,
        )
    if simplex is None:
        return PgResult(
            feasible=True,
            f=np.zeros(0),
            objective=0.0,
            iterations=0,
            certificate=0.0,
            certified=True,
            max_marginal_residual=phase1,
            phase1_residual=phase1,
        )

    def certify(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, bool]:
        # The best vertex for the linear model at f bounds the gap to the
        # optimum from above (concavity).
        grad = grad_fn(f)
        status, vertex = simplex.optimize(grad)
        if status == "unbounded":
            raise OptimError("direction program unbounded; solver bug")
        certificate = float(grad @ (vertex - f))
        return grad, vertex, certificate, certificate <= config.certificate_tol

    f = simplex.solution()
    iterations = 1
    grad, vertex, certificate, certified = certify(f)
    if not certified and config.max_iterations > 1:
        f = _maximal_support_point(simplex, [f, vertex])
        grad, vertex, certificate, certified = certify(f)
    value = value_fn(f)
    history = [value]
    damping = 0.95 if interior else 1.0
    # Newton converges quadratically on the entropy, so one step past the
    # certificate tolerance leaves the masses exact to rounding.
    polish = interior and not certified
    while (polish or not certified) and iterations < config.max_iterations:
        polish = polish and not certified
        iterations += 1
        step = _newton_step(f, f > 0.0, A, b, grad, hess_fn(f), damping)
        if step is None:
            break
        delta, blocked = step
        # Backtrack so that the objective never decreases.  Near the
        # optimum the gain of a step is below the resolution of the summed
        # objective, so a loss within improvement_tol counts as rounding
        # and the recorded objective keeps its best value.
        for _ in range(_MAX_BACKTRACKS):
            candidate = np.maximum(f + delta, 0.0)
            candidate[blocked] = 0.0
            candidate_value = value_fn(candidate)
            if candidate_value >= value - config.improvement_tol:
                break
            delta *= 0.5
            blocked[:] = False
        else:
            break
        f, value = candidate, max(value, candidate_value)
        history.append(value)
        grad, vertex, certificate, certified = certify(f)
        if not (certified or interior or blocked.any()):
            # The face optimum is not the optimum: step toward the
            # certificate vertex, as far as the objective's quadratic
            # model rises along the segment (exact for the surrogate).
            direction = vertex - f
            curvature = float(direction @ (hess_fn(f) * direction))
            f = f + min(1.0, certificate / -curvature) * direction
            value = max(value, value_fn(f))
            history.append(value)
            grad, vertex, certificate, certified = certify(f)

    residual = float(np.abs(A @ f - b).max())
    return PgResult(
        feasible=True,
        f=f,
        objective=value,
        iterations=iterations,
        certificate=certificate,
        certified=certified,
        max_marginal_residual=residual,
        phase1_residual=phase1,
        objective_history=tuple(history),
    )


def feasible_point(
    cells: Sequence[tuple[int, ...]],
    marginals: Sequence[np.ndarray],
    forbidden: Iterable[tuple[int, ...]] = (),
    feasibility_tol: float = 1e-9,
) -> tuple[bool, float, np.ndarray]:
    """Phase-I check: does a nonnegative cell vector meeting all marginals
    exist, with forbidden cells zeroed?  Returns (feasible, residual,
    point).  On an infeasible verdict the point is the phase-I optimum:
    for two unit marginals a maximum flow over the allowed cells, of
    total ``1 - residual / 2``."""
    residual, _, _, simplex = _phase_one(cells, marginals, forbidden)
    point = np.zeros(0) if simplex is None else simplex.solution()
    return residual <= feasibility_tol, residual, point


def maxent_projected_gradient(
    cells: Sequence[tuple[int, ...]],
    marginals: Sequence[np.ndarray],
    forbidden: Iterable[tuple[int, ...]] = (),
    config: SolverConfig | None = None,
) -> PgResult:
    """Maximize the entropy of a joint assignment under marginal equality
    constraints.  Phase I decides feasibility; unless the certificate
    holds at the phase-I vertex, damped Newton steps on the maximal
    support, backtracked so that the entropy never decreases, run until
    the certificate falls below ``certificate_tol``."""
    config = config or SolverConfig()
    return _maximize(
        cells,
        marginals,
        forbidden,
        config,
        value_fn=_entropy,
        grad_fn=lambda f: _entropy_gradient(f, config.ln_floor),
        hess_fn=lambda f: -1.0 / np.where(f > 0.0, f, config.ln_floor),
        interior=True,
    )


def quadratic_projected_gradient(
    cells: Sequence[tuple[int, ...]],
    marginals: Sequence[np.ndarray],
    forbidden: Iterable[tuple[int, ...]] = (),
    config: SolverConfig | None = None,
) -> PgResult:
    """Same driver with the quadratic surrogate objective ``-sum f**2``,
    whose optimum may leave cells of the maximal support empty."""
    config = config or SolverConfig()
    return _maximize(
        cells,
        marginals,
        forbidden,
        config,
        value_fn=lambda f: float(-(f * f).sum()),
        grad_fn=lambda f: -2.0 * f,
        hess_fn=lambda f: np.full_like(f, -2.0),
        interior=False,
    )
