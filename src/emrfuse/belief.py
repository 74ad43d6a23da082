"""Basic belief assignments, belief functions and validity diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .algebra import (
    MixedAlgebraError,
    PreBooleanAlgebra,
    Proposition,
    is_sub,
    meet,
)

MASS_TOL = 1e-9
ENHANCEMENT_TOL = 1e-12


class BbaError(ValueError):
    """Invalid basic belief assignment or use."""


@dataclass(frozen=True)
class Bba:
    """A mass function over lattice propositions.

    ``coherent`` means the DSmT/DST convention ``m(bot) = 0``; TBM-like
    assignments set it to False and may carry mass on bot.  Masses are
    stored sparsely: absent propositions have mass 0.
    """

    algebra: PreBooleanAlgebra
    masses: Mapping[Proposition, float]
    coherent: bool = True

    @classmethod
    def from_masses(
        cls,
        algebra: PreBooleanAlgebra,
        masses: Mapping,
        coherent: bool = True,
        renormalize: bool = False,
    ) -> "Bba":
        """Build and validate a Bba; keys may be expression strings or
        Propositions.  Renormalization is never silent: pass
        ``renormalize=True`` explicitly to rescale a mis-normalized input."""
        parsed: dict[Proposition, float] = {}
        for key, value in masses.items():
            prop = algebra.parse(key) if isinstance(key, str) else key
            parsed[prop] = parsed.get(prop, 0.0) + float(value)
        if renormalize:
            total = sum(parsed.values())
            if total <= 0:
                raise BbaError("cannot renormalize: total mass is not positive")
            parsed = {p: v / total for p, v in parsed.items()}
        bba = cls(algebra, parsed, coherent)
        report = validate(bba)
        if not report.ok:
            raise BbaError("; ".join(report.errors))
        return bba

    def mass(self, prop: Proposition) -> float:
        return self.masses.get(prop, 0.0)

    @property
    def focals(self) -> tuple[Proposition, ...]:
        """Focal propositions with nonzero mass, in lattice order."""
        return tuple(sorted(
            (p for p, v in self.masses.items() if v != 0.0),
            key=lambda p: self.algebra.index.get(p, len(self.algebra.lattice)),
        ))


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(bba: Bba, tol: float = MASS_TOL) -> ValidationReport:
    """Report normalization error, negative masses, bot-mass violation
    (coherent mode) and unknown propositions.  Pure report, never raises."""
    errors = []
    warnings = []
    total = 0.0
    for prop, value in bba.masses.items():
        if prop.algebra is not bba.algebra or prop not in bba.algebra.index:
            errors.append(f"focal proposition {prop!r} is not a lattice member")
            continue
        if value < 0:
            errors.append(
                f"negative mass {value!r} on {bba.algebra.label(prop)!r}"
            )
        total += value
    if abs(total - 1.0) > tol:
        errors.append(f"masses sum to {total!r}, not 1")
    if bba.coherent and bba.mass(bba.algebra.bot) != 0.0:
        errors.append("coherent bba carries mass on bot")
    if not errors:
        atoms_join = bba.algebra.atoms_join
        if not atoms_join.is_top and belief(bba, atoms_join) < 1.0 - tol:
            warnings.append(
                "belief of the disjunction of all atoms is below 1; "
                "add the constraint making it top if that is intended"
            )
    return ValidationReport(tuple(errors), tuple(warnings))


def _require_member(bba: Bba, prop: Proposition) -> None:
    if prop.algebra is not bba.algebra:
        raise MixedAlgebraError("proposition belongs to a different algebra")
    if prop not in bba.algebra.index:
        raise BbaError(f"proposition {prop!r} is not a lattice member")


def belief(bba: Bba, prop: Proposition) -> float:
    """Cumulative mass of all sub-propositions of ``prop`` (bot included)."""
    _require_member(bba, prop)
    return sum(v for p, v in bba.masses.items() if is_sub(p, prop))


def smets_belief(bba: Bba, prop: Proposition) -> float:
    """Belief excluding the bot mass (the TBM truncated belief)."""
    _require_member(bba, prop)
    return sum(
        v for p, v in bba.masses.items() if not p.is_bot and is_sub(p, prop)
    )


def total_ignorance(algebra: PreBooleanAlgebra) -> Bba:
    """The neutral bba: all mass on top."""
    return Bba(algebra, {algebra.top: 1.0}, coherent=True)


def enhancement_bound_check(
    bba1: Bba,
    bba2: Bba,
    family: list[Proposition] | tuple[Proposition, ...],
) -> bool:
    """For a pairwise-disjoint family, check the necessary condition
    ``sum_i max(Bel1, Bel2) <= 1`` for a conflict-free fusion to exist.

    Returns False when the bound is violated, which proves the fusion of
    ``bba1`` and ``bba2`` cannot exist.
    """
    family = list(family)
    for i, phi in enumerate(family):
        for psi in family[i + 1:]:
            if not meet(phi, psi).is_bot:
                raise BbaError("family is not pairwise disjoint")
    total = sum(
        max(belief(bba1, phi), belief(bba2, phi)) for phi in family
    )
    return total <= 1.0 + ENHANCEMENT_TOL

