"""Correctness oracles that share no code with the package under test.

Propositions are handled here as plain minterm bitsets, computed by a
small evaluator of their own, so that a defect in the package's parser,
closure or rules cannot hide itself.  Every oracle runs outside the
timed region.
"""

from __future__ import annotations

import itertools
import math
import re

# The package rejects a fusion when its phase-I residual exceeds this.
FEASIBILITY_TOL = 1e-9
CERTIFICATE_TOL = 1e-7
MARGINAL_TOL = 1e-8
IPF_ENTROPY_TOL = 1e-6
ZADEH_TOL = 1e-5
CONVOLUTION_TOL = 1e-12
# `compare` prints masses with six decimals.
TABLE_TOL = 5e-7 + CONVOLUTION_TOL

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[&|()])")


def ambient_masks(atoms):
    """Minterm bitsets of each atom before constraints: minterm m has
    atom k true when bit k of m is set."""
    n_minterms = 1 << len(atoms)
    return {
        name: sum(1 << m for m in range(n_minterms) if m >> k & 1)
        for k, name in enumerate(atoms)
    }


def evaluate(text, masks, top):
    """Bitset of an expression over atoms, ``bot``, ``top``, ``&`` and
    ``|``; ``masks`` maps atom names to bitsets."""
    names = {**masks, "top": top, "bot": 0}
    pos, tokens = 0, []
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"bad expression {text!r}")
        token = match.group(1)
        if token not in "&|()" and token not in names:
            raise ValueError(f"unknown name {token!r} in {text!r}")
        tokens.append(token)
        pos = match.end()
    # Every token is now a known name or one of & | ( ), and Python's
    # precedence of & over | matches the expression grammar.
    return eval(" ".join(tokens), {"__builtins__": {}}, names)


class ModelSpec:
    """Atoms, surviving minterms and source masses of one model file."""

    def __init__(self, raw):
        self.atoms = list(raw["atoms"])
        ambient = ambient_masks(self.atoms)
        full = (1 << (1 << len(self.atoms))) - 1
        surviving = full
        for constraint in raw.get("constraints") or []:
            lhs, rhs = constraint.split("=")
            diff = evaluate(lhs, ambient, full) ^ evaluate(rhs, ambient, full)
            surviving &= full & ~diff
        self.surviving = surviving
        self.masks = {a: m & surviving for a, m in ambient.items()}
        self.sources = {}
        for entry in raw.get("sources") or []:
            focals = {}
            for expr, mass in entry["masses"].items():
                bits = self.bits(str(expr))
                focals[bits] = focals.get(bits, 0.0) + float(mass)
            self.sources[str(entry["name"])] = focals

    def bits(self, text):
        return evaluate(text, self.masks, self.surviving)

    def cones(self):
        """Meets of every non-empty atom subset."""
        cones = []
        for r in range(1, len(self.atoms) + 1):
            for subset in itertools.combinations(self.atoms, r):
                cone = self.surviving
                for name in subset:
                    cone &= self.masks[name]
                cones.append(cone)
        return cones

    def lattice(self):
        """The lattice is distributive, so it is bot, top and the
        join-closure of the atom-subset meets."""
        elements = {0}
        for cone in set(self.cones()):
            elements |= {e | cone for e in elements}
        elements.add(self.surviving)
        return elements

    def insulated(self):
        """No two non-bot members meet in bot; every member below top is
        a join of cones, so it suffices to test pairs of cones."""
        cones = [c for c in set(self.cones()) if c]
        return all(x & y for x in cones for y in cones)


def gale_hall_deficit(focals1, focals2):
    """Largest shortfall ``m1(X) - m2(N(X))`` over sets X of source-1
    focals, N(X) being the source-2 focals that meet some member of X
    outside bot.  By Gale's supply-demand theorem the two-source joint
    problem is feasible exactly when this is 0.  Sets are bitmasks over
    focal indices, each built from the one without its lowest member."""
    xs = list(focals1.items())
    ys = list(focals2.items())
    neighbours = [
        sum(1 << j for j, (y, _) in enumerate(ys) if x & y) for x, _ in xs
    ]
    demand = [0.0] * (1 << len(ys))
    for mask in range(1, 1 << len(ys)):
        low = mask & -mask
        demand[mask] = demand[mask ^ low] + ys[low.bit_length() - 1][1]
    supply = [0.0] * (1 << len(xs))
    reach = [0] * (1 << len(xs))
    worst = 0.0
    for mask in range(1, 1 << len(xs)):
        low = mask & -mask
        k = low.bit_length() - 1
        supply[mask] = supply[mask ^ low] + xs[k][1]
        reach[mask] = reach[mask ^ low] | neighbours[k]
        worst = max(worst, supply[mask] - demand[reach[mask]])
    return worst


def feasible(focals1, focals2):
    """Verdict the package must give.  Phase I counts the shortfall once
    on each side, so its residual is twice the deficit."""
    return 2.0 * gale_hall_deficit(focals1, focals2) <= FEASIBILITY_TOL


def family_violates(focals1, focals2, family):
    """Independent enhancement-bound test over bitsets: True when the
    family is pairwise disjoint and its best-supported beliefs sum above
    1, which proves the fusion impossible."""
    family = list(family)
    if any(x & y for x, y in itertools.combinations(family, 2)):
        return False

    def bel(focals, phi):
        return math.fsum(m for x, m in focals.items() if x & phi == x)

    total = math.fsum(
        max(bel(focals1, phi), bel(focals2, phi)) for phi in family
    )
    return total > 1.0 + 1e-12


def convolve(sources, normalize):
    """Direct product convolution over bitsets under meet; Dempster's
    rule when ``normalize``, the unnormalized conjunctive rule otherwise."""
    result = {}
    for combo in itertools.product(*(s.items() for s in sources)):
        bits = -1
        mass = 1.0
        for x, m in combo:
            bits &= x
            mass *= m
        result[bits] = result.get(bits, 0.0) + mass
    if normalize:
        conflict = result.pop(0, 0.0)
        result = {b: m / (1.0 - conflict) for b, m in result.items()}
    return {b: m for b, m in result.items() if m != 0.0}


def masses_agree(got, expected, tol):
    keys = set(got) | set(expected)
    return all(abs(got.get(k, 0.0) - expected.get(k, 0.0)) <= tol for k in keys)


def emr_problems(outcome, ipf_entropy=None):
    """Checks on an accepted EMR outcome; returns the list of failures.
    ``ipf_entropy`` is the IPF optimum when IPF converged."""
    problems = []
    d = outcome.diagnostics
    if not d.certified or d.optimality_certificate > CERTIFICATE_TOL:
        problems.append(f"uncertified (certificate {d.optimality_certificate})")
    if not d.max_marginal_residual <= MARGINAL_TOL:
        problems.append(f"marginal residual {d.max_marginal_residual}")
    masses = outcome.bba.masses
    if any(p.bits == 0 and v != 0.0 for p, v in masses.items()):
        problems.append("mass on bot")
    if any(v < 0.0 for v in masses.values()):
        problems.append("negative mass")
    if abs(math.fsum(masses.values()) - 1.0) > MARGINAL_TOL:
        problems.append("masses do not sum to 1")
    if ipf_entropy is not None and abs(ipf_entropy - d.entropy) > IPF_ENTROPY_TOL:
        problems.append(f"entropy {d.entropy} vs IPF {ipf_entropy}")
    return problems
