"""The entropy-maximizing fusion rule (EMR): binary and N-ary fusion by
constrained entropy maximization, the quadratic approximation, feasibility
analysis, and two independent oracles (a closed form for the Zadeh family
and iterative proportional fitting)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .algebra import (
    MixedAlgebraError,
    PreBooleanAlgebra,
    Proposition,
    powerset_algebra,
)
from .belief import Bba, validate
from .optim import (
    PgResult,
    SolverConfig,
    feasible_point,
    joint_entropy,
    maxent_projected_gradient,
    quadratic_projected_gradient,
)

DEFAULT_CELL_CAP = 10**7
_ROUNDING = 1e-12


class EmrError(ValueError):
    """Invalid EMR invocation."""


class CellCapError(EmrError):
    """The N-ary joint assignment would exceed the configured cell cap."""


@dataclass(frozen=True)
class Diagnostics:
    entropy: float
    iterations: int
    max_marginal_residual: float
    optimality_certificate: float
    certified: bool = True


@dataclass(frozen=True)
class Rejection:
    """Infeasibility evidence: the phase-I residual and, when two sources
    were fused, a pairwise-disjoint family whose best-supported beliefs
    sum to at least ``1 + phase1_residual / 2`` up to rounding, so that
    ``enhancement_bound_check`` rejects it (None for N >= 3 sources)."""

    phase1_residual: float
    violated_family: tuple[Proposition, ...] | None
    message: str


@dataclass(frozen=True)
class FusionOutcome:
    bba: Bba | None
    rejection: Rejection | None
    diagnostics: Diagnostics | None

    @property
    def accepted(self) -> bool:
        return self.bba is not None


@dataclass(frozen=True)
class JointAssignment:
    """A nonnegative function on tuples of focal propositions whose axis
    sums reproduce the source masses."""

    sources: tuple[tuple[Proposition, ...], ...]
    cells: Mapping[tuple[Proposition, ...], float]
    forbidden: frozenset[tuple[Proposition, ...]]


@dataclass(frozen=True)
class IpfReport:
    joint: JointAssignment | None
    converged: bool
    sweeps: int
    residual: float
    entropy: float


def _joint_problem(bbas: Sequence[Bba], cell_cap: int = DEFAULT_CELL_CAP):
    if len(bbas) < 2:
        raise EmrError("at least two bbas are required")
    algebra = bbas[0].algebra
    for b in bbas:
        if b.algebra is not algebra:
            raise MixedAlgebraError("bbas are defined over different algebras")
        report = validate(b)
        if not report.ok:
            raise EmrError("invalid bba: " + "; ".join(report.errors))
        if not b.coherent:
            raise EmrError(
                "EMR requires coherent bbas; use the tbm rule for "
                "assignments with mass on bot"
            )
    focal_lists = [b.focals for b in bbas]
    cell_count = math.prod(len(fl) for fl in focal_lists)
    if cell_count > cell_cap:
        raise CellCapError(
            f"joint assignment needs {cell_count} cells, above the cap "
            f"{cell_cap}"
        )
    marginals = [
        np.array([b.mass(p) for p in focals])
        for b, focals in zip(bbas, focal_lists)
    ]
    allowed: dict[tuple[int, ...], int] = {}
    for cell in itertools.product(*[range(len(fl)) for fl in focal_lists]):
        bits = algebra.surviving
        for axis, k in enumerate(cell):
            bits &= focal_lists[axis][k].bits
        if bits != 0:
            allowed[cell] = bits
    return algebra, focal_lists, marginals, allowed


def _rejection(
    algebra: PreBooleanAlgebra,
    focal_lists: Sequence[Sequence[Proposition]],
    marginals: Sequence[np.ndarray],
    allowed: Collection[tuple[int, int]],
    residual: float,
    point: np.ndarray,
) -> Rejection:
    """For two sources the phase-I point is a maximum flow over the
    allowed cells.  By Gale's supply-demand theorem (Pacific J. Math. 7,
    1957), the source-1 focals X reached from the under-supplied ones
    (forward along allowed cells, back along cells carrying flow) meet
    no source-2 focal in the set Y outside their neighbours N(X), and
    m1(X) + m2(Y) = 1 + residual / 2.  The joins of the groups of
    overlapping members of X and Y are pairwise disjoint by
    distributivity, and their beliefs sum at least as much."""
    message = "no joint assignment satisfies the marginal constraints"
    if len(focal_lists) != 2:
        return Rejection(residual, None, message)
    first, second = focal_lists
    # Shortfalls and flows below this count as rounding.  Together they
    # hold less than half of source 1's shortfall, residual / 2, so the
    # family's beliefs sum above 1 however small the residual.
    noise = min(_ROUNDING, residual / (4 * (len(first) + len(allowed))))
    shipped = np.bincount([i for i, _ in allowed], point, len(first))
    x = {i for i, short in enumerate(marginals[0] - shipped) if short > noise}
    while True:
        nx = {j for i, j in allowed if i in x}
        grown = x | {
            i for (i, j), value in zip(allowed, point)
            if j in nx and value > noise
        }
        if grown == x:
            break
        x = grown
    groups: list[int] = []
    for prop in [first[i] for i in x] + [
        q for j, q in enumerate(second) if j not in nx
    ]:
        bits = prop.bits
        for overlapping in [g for g in groups if g & bits]:
            groups.remove(overlapping)
            bits |= overlapping
        groups.append(bits)
    family = tuple(sorted(
        (Proposition(algebra, bits) for bits in groups),
        key=algebra.index.__getitem__,
    ))
    labels = ", ".join(algebra.label(p) for p in family)
    message += f"; the disjoint family {{{labels}}} has combined belief above 1"
    return Rejection(residual, family, message)


def _fuse(
    bbas: Sequence[Bba],
    solve: Callable[..., PgResult],
    config: SolverConfig | None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> FusionOutcome:
    """Solve the joint problem of ``bbas``; reject, or fuse the meets.
    The diagnostics report the entropy of the joint assignment whatever
    objective ``solve`` maximized."""
    algebra, focal_lists, marginals, allowed = _joint_problem(bbas, cell_cap)
    result = solve(list(allowed), marginals, config=config)
    if not result.feasible:
        rejection = _rejection(
            algebra, focal_lists, marginals, allowed,
            result.phase1_residual, result.f,
        )
        return FusionOutcome(bba=None, rejection=rejection, diagnostics=None)
    masses: dict[Proposition, float] = {}
    for bits, value in zip(allowed.values(), result.f):
        if value != 0.0:
            prop = Proposition(algebra, bits)
            masses[prop] = masses.get(prop, 0.0) + float(value)
    diagnostics = Diagnostics(
        entropy=joint_entropy(result.f),
        iterations=result.iterations,
        max_marginal_residual=result.max_marginal_residual,
        optimality_certificate=result.certificate,
        certified=result.certified,
    )
    fused = Bba(algebra, masses, coherent=True)
    return FusionOutcome(bba=fused, rejection=None, diagnostics=diagnostics)


def emr_fuse_n(
    bbas: Sequence[Bba],
    config: SolverConfig | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> FusionOutcome:
    """Simultaneous fusion of N coherent bbas: maximize the entropy of the
    joint assignment subject to all N marginals, with cells whose meet is
    bot pinned to zero; the fused mass of phi sums the optimum over tuples
    whose meet is phi."""
    return _fuse(bbas, maxent_projected_gradient, config, cell_cap)


def emr_fuse(
    bba1: Bba, bba2: Bba, config: SolverConfig | None = None
) -> FusionOutcome:
    """Binary entropy-maximizing fusion; rejects when the marginal system
    with forbidden (conflicting) cells has no nonnegative solution."""
    return emr_fuse_n([bba1, bba2], config=config)


def emr_fuse_approx(
    bbas: Sequence[Bba], config: SolverConfig | None = None
) -> FusionOutcome:
    """Simultaneous fusion of N coherent bbas over the same joint problem
    as ``emr_fuse_n``, maximizing the quadratic surrogate ``-sum f**2``
    instead of the entropy."""
    return _fuse(bbas, quadratic_projected_gradient, config)


def emr_check(bbas: Sequence[Bba]) -> tuple[float, Rejection | None]:
    """Phase-I feasibility of the fusion without the optimum: the
    residual (0 when feasible) and the rejection that ``emr_fuse_n``
    would return, or None when the sources are compatible."""
    algebra, focal_lists, marginals, allowed = _joint_problem(bbas)
    ok, residual, point = feasible_point(list(allowed), marginals)
    if ok:
        return residual, None
    return residual, _rejection(
        algebra, focal_lists, marginals, allowed, residual, point
    )


def emr_feasible(bbas: Sequence[Bba]) -> tuple[bool, float]:
    """Phase-I feasibility of the fusion; returns the verdict and the
    residual (0 when feasible).  ``emr_check`` adds the witness."""
    residual, rejection = emr_check(bbas)
    return rejection is None, residual


# -- closed-form oracle for the generalized Zadeh family ---------------------


def zadeh_family_bbas(
    alpha1: float,
    gamma1: float,
    beta2: float,
    gamma2: float,
    algebra: PreBooleanAlgebra | None = None,
) -> tuple[Bba, Bba, PreBooleanAlgebra]:
    """Two sources over the three-outcome frame: source 1 splits its mass
    over a, c and top; source 2 over b, c and top."""
    for name, value in (
        ("alpha1", alpha1), ("gamma1", gamma1),
        ("beta2", beta2), ("gamma2", gamma2),
    ):
        if not 0.0 <= value <= 1.0:
            raise EmrError(f"{name} must lie in [0, 1]")
    if alpha1 + gamma1 > 1.0 or beta2 + gamma2 > 1.0:
        raise EmrError("each source's named masses must sum to at most 1")
    algebra = algebra or powerset_algebra("a", "b", "c")
    m1 = {"a": alpha1, "c": gamma1, "top": 1.0 - alpha1 - gamma1}
    m2 = {"b": beta2, "c": gamma2, "top": 1.0 - beta2 - gamma2}
    bba1 = Bba.from_masses(algebra, {k: v for k, v in m1.items() if v > 0.0})
    bba2 = Bba.from_masses(algebra, {k: v for k, v in m2.items() if v > 0.0})
    return bba1, bba2, algebra


def zadeh_family_oracle(
    alpha1: float,
    gamma1: float,
    beta2: float,
    gamma2: float,
    algebra: PreBooleanAlgebra | None = None,
) -> FusionOutcome:
    """Closed-form EMR fusion for the Zadeh family.

    After support reduction the joint assignment has a single free
    parameter theta = f(c, c) constrained to
    ``max(0, alpha1 + beta2 + gamma1 + gamma2 - 1) <= theta <=
    min(gamma1, gamma2)``; the entropy is maximized at
    ``theta = gamma1 * gamma2 / (1 - alpha1 - beta2)`` (0 when
    ``alpha1 + beta2 = 1``).
    """
    bba1, bba2, algebra = zadeh_family_bbas(
        alpha1, gamma1, beta2, gamma2, algebra
    )
    lo = max(0.0, alpha1 + beta2 + gamma1 + gamma2 - 1.0)
    hi = min(gamma1, gamma2)
    if lo > hi + 1e-15:
        return FusionOutcome(
            bba=None,
            rejection=Rejection(
                phase1_residual=lo - hi,
                violated_family=None,
                message="theta interval is empty: the sources are "
                "irreconcilably conflicting",
            ),
            diagnostics=None,
        )
    if alpha1 + beta2 < 1.0:
        theta = gamma1 * gamma2 / (1.0 - alpha1 - beta2)
    else:
        theta = 0.0
    theta = min(max(theta, lo), hi)

    f_values = [
        alpha1,                                       # (a, top)
        beta2,                                        # (top, b)
        theta,                                        # (c, c)
        gamma1 - theta,                               # (c, top)
        gamma2 - theta,                               # (top, c)
        1.0 - alpha1 - beta2 - gamma1 - gamma2 + theta,  # (top, top)
    ]
    entropy = -sum(v * math.log(v) for v in f_values if v > 0.0)
    raw = {
        "a": alpha1,
        "b": beta2,
        "c": gamma1 + gamma2 - theta,
        "top": f_values[5],
    }
    masses = {
        algebra.parse(k): v for k, v in raw.items() if v > 0.0
    }
    fused = Bba(algebra, masses, coherent=True)
    diagnostics = Diagnostics(
        entropy=entropy,
        iterations=0,
        max_marginal_residual=0.0,
        optimality_certificate=0.0,
    )
    return FusionOutcome(bba=fused, rejection=None, diagnostics=diagnostics)


# -- iterative proportional fitting oracle -----------------------------------


def ipf_oracle(
    bbas: Sequence[Bba],
    tol: float = 1e-10,
    max_sweeps: int = 10**5,
) -> IpfReport:
    """Independent verification oracle: iterative proportional fitting on
    the allowed cells, initialized uniform, cyclically rescaling each axis
    to its marginal.  Converges to the entropy-maximizing joint assignment
    whenever one with full support on the (support-reduced) allowed cells
    exists; otherwise reports non-convergence."""
    _, focal_lists, marginals, meets = _joint_problem(bbas)

    shape = tuple(len(fl) for fl in focal_lists)
    allowed = np.zeros(shape, dtype=bool)
    for cell in meets:
        allowed[cell] = True
    # Support reduction: zero marginals force their whole slice to zero.
    for axis, marginal in enumerate(marginals):
        for k in range(shape[axis]):
            if marginal[k] == 0.0:
                index = [slice(None)] * len(shape)
                index[axis] = k
                allowed[tuple(index)] = False

    f = np.where(allowed, 1.0 / max(allowed.sum(), 1), 0.0)
    axes = list(range(len(shape)))
    residual = float("inf")
    converged = False
    sweeps = 0
    stuck = False
    for sweeps in range(1, max_sweeps + 1):
        for axis in axes:
            other = tuple(a for a in axes if a != axis)
            sums = f.sum(axis=other)
            ratio = np.ones(shape[axis])
            for k in range(shape[axis]):
                if sums[k] > 0.0:
                    ratio[k] = marginals[axis][k] / sums[k]
                elif marginals[axis][k] > tol:
                    stuck = True
            index = [np.newaxis] * len(shape)
            index[axis] = slice(None)
            f = f * ratio[tuple(index)]
        if stuck:
            break
        residual = max(
            float(np.abs(f.sum(axis=tuple(a for a in axes if a != axis))
                         - marginals[axis]).max())
            for axis in axes
        )
        if residual < tol:
            converged = True
            break

    entropy = float(-(f[f > 0.0] * np.log(f[f > 0.0])).sum())
    joint = None
    if converged:
        cell_map = {
            tuple(focal_lists[axis][k] for axis, k in enumerate(idx)):
                float(f[idx])
            for idx in np.ndindex(*shape)
            if allowed[idx]
        }
        joint = JointAssignment(
            sources=tuple(tuple(fl) for fl in focal_lists),
            cells=cell_map,
            forbidden=frozenset(
                tuple(focal_lists[axis][k] for axis, k in enumerate(cell))
                for cell in np.ndindex(*shape)
                if cell not in meets
            ),
        )
    return IpfReport(
        joint=joint,
        converged=converged,
        sweeps=sweeps,
        residual=residual,
        entropy=entropy,
    )
