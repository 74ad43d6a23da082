"""Constrained pre-Boolean algebras (hyperpower sets) over small atom sets.

A proposition is represented as a bitset of the *surviving* minterms of the
ambient Boolean algebra over the atoms.  Meet and join are then plain
bitwise and/or, so commutativity, associativity, distributivity, idempotence
and absorption hold bit-exactly.  A constraint ``lhs = rhs`` is applied by
deleting every minterm on which the two sides disagree, and the lattice is
the closure of the atoms (plus ``bot`` and ``top``) under meet and join.

No negation operator is exposed: constraint and source expressions are built
from atoms, ``bot``, ``top``, ``&`` and ``|`` only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Sequence

MAX_ATOMS = 12
MAX_LATTICE = 100_000
KEYWORDS = frozenset({"bot", "top"})

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class AlgebraError(ValueError):
    """Invalid algebra construction or use."""


class ParseError(AlgebraError):
    """Expression syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedAlgebraError(AlgebraError):
    """Operands belong to different algebras."""


class LatticeExplosionError(AlgebraError):
    """Closure exceeded the element guard; use fewer atoms or more constraints."""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "&|()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _ATOM_RE.match(text, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over ``expr := term ('|' term)* ; term := factor
    ('&' factor)* ; factor := atom | 'bot' | 'top' | '(' expr ')'``,
    evaluating directly to a minterm bitmask."""

    def __init__(self, text: str, atom_masks: dict[str, int], top_mask: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.atom_masks = atom_masks
        self.top_mask = top_mask

    def parse(self) -> int:
        value = self._expr()
        kind, _, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("unexpected trailing input", at)
        return value

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _expr(self) -> int:
        value = self._term()
        while self._peek()[0] == "|":
            self.pos += 1
            value |= self._term()
        return value

    def _term(self) -> int:
        value = self._factor()
        while self._peek()[0] == "&":
            self.pos += 1
            value &= self._factor()
        return value

    def _factor(self) -> int:
        kind, text, at = self._peek()
        if kind == "name":
            self.pos += 1
            if text == "bot":
                return 0
            if text == "top":
                return self.top_mask
            try:
                return self.atom_masks[text]
            except KeyError:
                raise AlgebraError(
                    f"unknown atom {text!r} (at position {at})"
                ) from None
        if kind == "(":
            self.pos += 1
            value = self._expr()
            kind, _, at = self._peek()
            if kind != ")":
                raise ParseError("expected ')'", at)
            self.pos += 1
            return value
        raise ParseError("expected atom, 'bot', 'top' or '('", at)


@dataclass(frozen=True, eq=False)
class Proposition:
    """An element of a constrained pre-Boolean algebra, as a minterm bitset."""

    algebra: "PreBooleanAlgebra"
    bits: int

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Proposition)
            and self.algebra is other.algebra
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.bits))

    def __and__(self, other: "Proposition") -> "Proposition":
        return meet(self, other)

    def __or__(self, other: "Proposition") -> "Proposition":
        return join(self, other)

    def __repr__(self) -> str:
        return f"<{self.algebra.label(self)}>"

    @property
    def is_bot(self) -> bool:
        return self.bits == 0

    @property
    def is_top(self) -> bool:
        return self.bits == self.algebra.surviving


def _split_constraint(constraint) -> tuple[str, str]:
    if isinstance(constraint, str):
        if constraint.count("=") != 1:
            raise AlgebraError(
                f"constraint must contain exactly one '=': {constraint!r}"
            )
        lhs, rhs = constraint.split("=")
        return lhs.strip(), rhs.strip()
    lhs, rhs = constraint
    return str(lhs), str(rhs)


class PreBooleanAlgebra:
    """Atoms, surviving minterms after constraint propagation, and the
    meet/join closure lattice.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, atoms: Sequence[str], constraints: Iterable = ()):
        atoms = tuple(atoms)
        if not atoms:
            raise AlgebraError("at least one atom is required")
        if len(atoms) > MAX_ATOMS:
            raise AlgebraError(f"at most {MAX_ATOMS} atoms are supported")
        if len(set(atoms)) != len(atoms):
            raise AlgebraError("atom names must be unique")
        for name in atoms:
            if not _ATOM_RE.fullmatch(name) or name in KEYWORDS:
                raise AlgebraError(f"invalid atom name {name!r}")
        self.atoms = atoms

        n = len(atoms)
        self.n_minterms = 1 << n
        full = (1 << self.n_minterms) - 1

        # Minterm id bit k set <=> atom k true in that minterm.
        ambient = {}
        for k in range(n):
            mask = 0
            for m in range(self.n_minterms):
                if m >> k & 1:
                    mask |= 1 << m
            ambient[atoms[k]] = mask

        surviving = full
        normalized = []
        for constraint in constraints:
            lhs, rhs = _split_constraint(constraint)
            lmask = _Parser(lhs, ambient, full).parse()
            rmask = _Parser(rhs, ambient, full).parse()
            surviving &= full & ~(lmask ^ rmask)
            normalized.append((lhs, rhs))
        self.constraints = tuple(normalized)
        self.surviving = surviving

        self.warnings = tuple(
            f"constraints force atom '{name}' to bot"
            for name in atoms
            if ambient[name] & surviving == 0
        )

        self._atom_bits = {name: ambient[name] & surviving for name in atoms}
        # cone(T) = surviving minterms where every atom of T holds, for
        # each nonempty atom subset T as a bitmask over the atoms.
        self._cones = {}
        for mask in range(1, 1 << n):
            low = mask & -mask
            self._cones[mask] = self._cones.get(mask ^ low, surviving) & (
                ambient[atoms[low.bit_length() - 1]]
            )
        self._lattice_bits = self._close()
        self.lattice = tuple(Proposition(self, b) for b in self._lattice_bits)
        self.index = {p: i for i, p in enumerate(self.lattice)}
        self.bot = Proposition(self, 0)
        self.top = Proposition(self, surviving)
        # The disjunction of all atoms, which ``validate`` checks for
        # full belief on every bba.
        self.atoms_join = Proposition(
            self, reduce(or_, self._atom_bits.values())
        )
        self._labels: dict[int, str] = {}

    def _close(self) -> tuple[int, ...]:
        # The lattice is distributive, so every member is a join of cones
        # (meets of atoms), and the join-closure of bot, top and the cones
        # is closed under meet as well.
        bits = {0, self.surviving}
        for cone in self._cones.values():
            if cone in bits:
                continue
            bits |= {b | cone for b in bits}
            if len(bits) > MAX_LATTICE:
                raise LatticeExplosionError(
                    f"lattice closure exceeded {MAX_LATTICE} "
                    "elements; reduce atoms or add constraints"
                )
        return tuple(sorted(bits, key=lambda b: (b.bit_count(), b)))

    def __len__(self) -> int:
        return len(self.lattice)

    def __contains__(self, prop: Proposition) -> bool:
        return prop in self.index

    def atom(self, name: str) -> Proposition:
        try:
            return Proposition(self, self._atom_bits[name])
        except KeyError:
            raise AlgebraError(f"unknown atom {name!r}") from None

    def parse(self, text: str) -> Proposition:
        mask = _Parser(text, self._atom_bits, self.surviving).parse()
        return Proposition(self, mask & self.surviving)

    @cached_property
    def is_insulated(self) -> bool:
        """True when no meet of two non-bot lattice members is bot.  The
        lattice is closed under meet, so that holds exactly when the meet
        of all non-bot members is not bot."""
        nonbot = [b for b in self._lattice_bits if b]
        return not nonbot or reduce(and_, nonbot) != 0

    def label(self, prop: Proposition) -> str:
        if prop.algebra is not self:
            raise MixedAlgebraError("proposition belongs to a different algebra")
        cached = self._labels.get(prop.bits)
        if cached is None:
            cached = self._compute_label(prop.bits)
            self._labels[prop.bits] = cached
        return cached

    def _compute_label(self, bits: int) -> str:
        if bits == 0:
            return "bot"
        if bits == self.surviving:
            return "top"
        cones = self._cones
        terms = [t for t, cone in cones.items() if cone and cone & bits == cone]
        minimal = [
            t for t in terms
            if not any(u != t and u & t == u for u in terms)
        ]
        union = 0
        for t in minimal:
            union |= cones[t]
        if union != bits:
            # Not expressible without negation; fall back to minterm names.
            names = [f"m{i}" for i in range(self.n_minterms) if bits >> i & 1]
            return "|".join(names)
        parts = sorted(
            "&".join(sorted(
                self.atoms[k] for k in range(len(self.atoms)) if t >> k & 1
            ))
            for t in minimal
        )
        if len(parts) > 1:
            parts = [f"({p})" if "&" in p else p for p in parts]
        return "|".join(parts)


def build_algebra(atoms: Sequence[str], constraints: Iterable = ()) -> PreBooleanAlgebra:
    """Build the pre-Boolean algebra over ``atoms`` constrained by equations."""
    return PreBooleanAlgebra(atoms, constraints)


def powerset_algebra(*atoms: str) -> PreBooleanAlgebra:
    """The Boolean algebra of subsets of ``atoms``, expressed as a
    constrained pre-Boolean algebra (pairwise-disjoint atoms covering top)."""
    constraints = [
        f"{a}&{b} = bot"
        for i, a in enumerate(atoms)
        for b in atoms[i + 1:]
    ]
    constraints.append("|".join(atoms) + " = top")
    return PreBooleanAlgebra(atoms, constraints)


def parse_expression(text: str, algebra: PreBooleanAlgebra) -> Proposition:
    return algebra.parse(text)


def canonical_label(prop: Proposition) -> str:
    return prop.algebra.label(prop)


def _check_same(phi: Proposition, psi: Proposition) -> None:
    if phi.algebra is not psi.algebra:
        raise MixedAlgebraError("propositions belong to different algebras")


def meet(phi: Proposition, psi: Proposition) -> Proposition:
    _check_same(phi, psi)
    return Proposition(phi.algebra, phi.bits & psi.bits)


def join(phi: Proposition, psi: Proposition) -> Proposition:
    _check_same(phi, psi)
    return Proposition(phi.algebra, phi.bits | psi.bits)


def is_sub(phi: Proposition, psi: Proposition) -> bool:
    """phi subset-of psi, i.e. meet(phi, psi) == phi."""
    _check_same(phi, psi)
    return phi.bits & psi.bits == phi.bits
