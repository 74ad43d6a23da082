"""Seeded workload generators.

Each workload is a stream of operations made only from its seed.  An
operation holds the arguments of one call into the package's public
entry points (``call``, the timed part) and an independent check of the
result (``check``, never timed).  Mixtures are drawn in a fixed rotation
of strata rather than by coin flips, so that runs with different seeds
share the same mix of kinds and sizes; the seed draws the instances.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import zlib

import numpy as np
import yaml

import emrfuse
import emrfuse.cli

import oracles

# Every run makes at least this many ops, so that ten lie beyond p90.
MIN_OPS = 100
# An n-ary fusion takes 0.1 to 9 s today, so 100 of them do not fit in a
# run; a run makes at least one rotation of its grids and algebras.
NARY_MIN_OPS = 12
SHIPPED_MODELS = "models"


def min_ops(workload):
    return NARY_MIN_OPS if workload == "nary" else MIN_OPS


class Op:
    """One timed call, the check of its result, and a plain description
    of its inputs.  A run may stop only after an op that ends a round; an
    op outside the window is timed but does not use up ``--seconds``."""

    def __init__(self, call, check, inputs, ends_round=True, in_window=True):
        self.call = call
        self.check = check
        self.inputs = inputs
        self.ends_round = ends_round
        self.in_window = in_window


def rng_for(workload, seed):
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _focals(bba):
    return {p.bits: m for p, m in bba.masses.items() if m != 0.0}


def _emr_check(bbas, outcome, expect_accepted, zadeh=None):
    """Problems with an EMR outcome: verdict, witness, certificate,
    residual, bot mass, IPF entropy and, for Zadeh draws, the closed
    form."""
    if outcome.accepted != expect_accepted:
        return [f"verdict accepted={outcome.accepted}, oracle {expect_accepted}"]
    if not outcome.accepted:
        family = outcome.rejection.violated_family
        if family is not None and emrfuse.enhancement_bound_check(
            bbas[0], bbas[1], family
        ):
            return ["reported family does not violate the enhancement bound"]
        return []
    ipf = emrfuse.ipf_oracle(bbas)
    problems = oracles.emr_problems(
        outcome, ipf.entropy if ipf.converged else None
    )
    if zadeh is not None:
        closed = emrfuse.zadeh_family_oracle(*zadeh, algebra=bbas[0].algebra)
        if not oracles.masses_agree(
            _focals(outcome.bba), _focals(closed.bba), oracles.ZADEH_TOL
        ):
            problems.append("masses differ from the Zadeh closed form")
    return problems


def _random_bba(rng, algebra, size):
    pool = [p for p in algebra.lattice if not p.is_bot]
    picks = rng.choice(len(pool), size=size, replace=False)
    weights = rng.dirichlet(np.ones(size))
    return emrfuse.Bba(
        algebra, {pool[i]: float(w) for i, w in zip(picks, weights)}
    )


def _pair_op(b1, b2, zadeh=None):
    expect = oracles.feasible(_focals(b1), _focals(b2))
    return Op(
        lambda: emrfuse.emr_fuse(b1, b2),
        lambda out: _emr_check([b1, b2], out, expect, zadeh),
        [_focals(b1), _focals(b2), zadeh],
    )


def _wants_feasible(count, rate):
    """Whether the ``count``-th draw of a stratum should be feasible, so
    that a share ``rate`` of every stratum is, with no binomial noise."""
    return int((count + 1) * rate) > int(count * rate)


def _draw_until(draw, accept, attempts=200):
    """Redraw until ``accept`` holds (the last draw if none is within
    ``attempts``)."""
    for _ in range(attempts):
        drawn = draw()
        if accept(drawn):
            break
    return drawn


# Feasible shares of the unconditioned generators, measured on about 2,300
# draws; the three-atom overlap algebra is insulated and never rejects.
FEASIBLE_SHARE = {"binary": 0.5, "powerset": 0.5, "zadeh": 1 / 6}


def pairs(rng, workdir):
    """Binary ``emr_fuse``, in alternating argument order so that every
    call is an independent draw (the two orders of one pair take about
    the same time, which would halve the samples).  Three pairs in four
    come from the acceptance suite's criterion-5 generator (1 to 5
    random focals over the binary, powerset and overlap algebras on three
    atoms), one in four is a Zadeh-family draw.  Chosen because these are
    thousands of tiny solves with a heavy pathological tail and about a
    third rejected: the solver loop and per-call overhead dominate, the
    lattice does no work.  Slow cases are never skipped; focal counts
    rotate and each stratum keeps its natural feasible share exactly."""
    algebras = {
        "binary": emrfuse.build_algebra(["a", "na"], ["a&na = bot", "a|na = top"]),
        "powerset": emrfuse.powerset_algebra("a", "b", "c"),
        "overlap": emrfuse.build_algebra(["a", "b", "c"], ["a&b = a&c"]),
    }
    sizes = {
        name: list(itertools.product(range(1, min(5, len(a) - 1) + 1), repeat=2))
        for name, a in algebras.items()
    }
    powerset = algebras["powerset"]
    drawn = dict.fromkeys(FEASIBLE_SHARE, 0) | {"overlap": 0}

    def zadeh():
        a1 = rng.uniform(0.0, 1.0)
        g1 = rng.uniform(0.0, 1.0 - a1)
        b2 = rng.uniform(0.0, 1.0)
        g2 = rng.uniform(0.0, 1.0 - b2)
        params = (a1, g1, b2, g2)
        x, y, _ = emrfuse.zadeh_family_bbas(*params, algebra=powerset)
        return x, y, params

    for i in itertools.count():
        name = "zadeh" if i % 4 == 3 else list(algebras)[i % 4]
        count = drawn[name]
        drawn[name] += 1
        if name == "zadeh":
            draw = zadeh
        else:
            algebra = algebras[name]
            n1, n2 = sizes[name][count % len(sizes[name])]
            def draw(algebra=algebra, n1=n1, n2=n2):
                return (_random_bba(rng, algebra, n1),
                        _random_bba(rng, algebra, n2), None)
        if name in FEASIBLE_SHARE:
            want = _wants_feasible(count, FEASIBLE_SHARE[name])
            x, y, params = _draw_until(draw, lambda d: oracles.feasible(
                _focals(d[0]), _focals(d[1])) == want)
        else:
            x, y, params = draw()
        yield _pair_op(x, y, params) if count % 2 else _pair_op(y, x, params)


def nary(rng, workdir):
    """``emr_fuse_n`` on 3x3, 3x4, 4x3 and 3x5 focal grids (sources x
    focals, 27 to 125 cells) over powerset-5, free-4 and a constrained
    4-atom algebra.  Chosen because cell enumeration, the dense
    constraint matrix and the tableau grow with the cell count, and no
    rejection witness is searched for.  Masses are the axis sums of a
    hidden random joint assignment on allowed cells that always includes
    the all-top cell, so every source has mass on top and every fusion
    is feasible; a rejection is a failure."""
    algebras = [
        emrfuse.powerset_algebra("a", "b", "c", "d", "e"),
        emrfuse.build_algebra(["a", "b", "c", "d"]),
        emrfuse.build_algebra(["a", "b", "c", "d"], ["a&b = a&c", "c&d = bot"]),
    ]
    grids = [(3, 3), (3, 4), (4, 3), (3, 5)]
    for i in itertools.count():
        n, k = grids[i % len(grids)]
        algebra = algebras[(i // len(grids)) % len(algebras)]
        yield _nary_op(rng, algebra, n, k)


def _nary_op(rng, algebra, n, k):
    pool = [p for p in algebra.lattice if not p.is_bot and not p.is_top]
    focals = []
    for _ in range(n):
        picks = rng.choice(len(pool), size=k - 1, replace=False)
        focals.append([pool[j] for j in picks] + [algebra.top])
    top_cell = (k - 1,) * n
    joint = {}
    for cell in itertools.product(range(k), repeat=n):
        bits = algebra.surviving
        for axis, j in enumerate(cell):
            bits &= focals[axis][j].bits
        if bits and (cell == top_cell or rng.random() < 0.5):
            joint[cell] = rng.exponential()
    # Every focal needs mass: pair an uncovered one with top elsewhere.
    for axis in range(n):
        for j in range(k):
            if not any(cell[axis] == j for cell in joint):
                cell = top_cell[:axis] + (j,) + top_cell[axis + 1:]
                joint[cell] = rng.exponential()
    total = math.fsum(joint.values())
    bbas = []
    for axis in range(n):
        masses = [0.0] * k
        for cell, w in joint.items():
            masses[cell[axis]] += w / total
        bbas.append(emrfuse.Bba(algebra, dict(zip(focals[axis], masses))))
    return Op(
        lambda: emrfuse.emr_fuse_n(bbas),
        lambda out: _emr_check(bbas, out, True),
        [_focals(b) for b in bbas],
    )


# -- model files for the command-line workloads ------------------------------


def _focal_pool(spec):
    """Members strictly between bot and top that are joins of one to
    three meets of one or two atoms, as {bitset: expression}."""
    terms = []
    for r in (1, 2):
        for atoms in itertools.combinations(spec.atoms, r):
            meet = spec.surviving
            for atom in atoms:
                meet &= spec.masks[atom]
            terms.append(("&".join(atoms), meet))
    pool = {}
    for r in (1, 2, 3):
        for combo in itertools.combinations(terms, r):
            bits = 0
            for _, meet in combo:
                bits |= meet
            if bits and bits != spec.surviving and bits not in pool:
                pool[bits] = "|".join(expr for expr, _ in combo)
    return pool


def _random_source(rng, pool, n_focals, with_top):
    """Masses on ``n_focals`` distinct pool members (fewer if the pool is
    smaller), plus top if asked; as {expression: mass}."""
    exprs = list(pool.values())
    picks = rng.choice(len(exprs), size=min(n_focals, len(exprs)), replace=False)
    chosen = [exprs[i] for i in picks] + (["top"] if with_top else [])
    weights = rng.dirichlet(np.ones(len(chosen)))
    return {e: float(w) for e, w in zip(chosen, weights)}


def _model(atoms, constraints, sources):
    return {
        "atoms": list(atoms),
        "constraints": list(constraints),
        "sources": [
            {"name": name, "masses": masses} for name, masses in sources.items()
        ],
    }


def _write(workdir, name, raw):
    """Write a model file; JSON is a YAML flow document, and ``repr``
    floats read back exactly."""
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        json.dump(raw, handle, indent=1)
    return path


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = emrfuse.cli.main(argv)
        return code, out.getvalue()

    return call


def _check_verdict(spec, names, code, text):
    """Problems with the output of ``check``: Gale/Hall verdict and every
    printed witness family."""
    f1, f2 = (spec.sources[n] for n in names)
    expect = oracles.feasible(f1, f2)
    problems = []
    if (code == 0) != expect or f"feasible: {str(expect).lower()}" not in text:
        problems.append(f"verdict exit {code}, oracle feasible={expect}")
    for line in text.splitlines():
        if line.startswith("violated_family: ["):
            family = [spec.bits(t) for t in line[len("violated_family: ["):-1].split(", ")]
            if not oracles.family_violates(f1, f2, family):
                problems.append(f"bogus witness {line}")
    return problems


POWERSET4 = ["a&b = bot", "a&c = bot", "a&d = bot", "b&c = bot", "b&d = bot",
             "c&d = bot", "a|b|c|d = top"]
# Powerset-4 with a and b allowed to overlap.  The three-atom overlap
# algebra is insulated, so it never rejects; this one does.
OVERLAP4 = POWERSET4[1:]


def check(rng, workdir):
    """``emrfuse check`` in process, one generated model per op: two
    sources with 2 to 8 focals over powerset-4 or overlap-4, alternately
    drawn feasible and infeasible.  Chosen because it is the verdict-only
    path: phase I plus the exponential witness search, which runs even on
    feasible sources.  The optimizer does linear programs only here."""
    atoms = ["a", "b", "c", "d"]
    algebras = [POWERSET4, OVERLAP4]
    pools = [_focal_pool(oracles.ModelSpec({"atoms": atoms, "constraints": c}))
             for c in algebras]
    bits_of = [{e: b for b, e in pool.items()} for pool in pools]
    sizes = list(itertools.product(range(2, 9), repeat=2))
    for i in itertools.count():
        k = i % 2
        want = (i // 2) % 2 == 0
        n1, n2 = sizes[i % len(sizes)]
        pool, bits = pools[k], bits_of[k]
        sources = _draw_until(
            lambda: {"s1": _random_source(rng, pool, n1, False),
                     "s2": _random_source(rng, pool, n2, False)},
            lambda s: oracles.feasible(*(
                {bits[e]: m for e, m in masses.items()} for masses in s.values()
            )) == want,
        )
        raw = _model(atoms, algebras[k], sources)
        path = _write(workdir, f"check-{i}.yaml", raw)
        model = oracles.ModelSpec(raw)
        yield Op(
            _cli_call(["check", path, "--sources", "s1,s2"]),
            lambda out, model=model: _check_verdict(model, ["s1", "s2"], *out),
            ["check", raw],
        )


# Random constraint shapes over three distinct atoms x, y, z.
CONSTRAINT_SHAPES = ["{x}&{y} = bot", "{x}&{y} = {x}&{z}", "{x} = {x}&{y}",
                     "{x}|{y} = top"]
MODEL_COMMANDS = ["algebra", "fuse", "compare", "check"]
# One round of the models workload: every command on two shipped models
# and on one generated 4-atom model per constraint count; then one 5-atom
# model each with three, two and one constraints, whose closures take up
# to 0.1, 0.3 and 1.5 s, the command and the single constraint's shape
# cycling by round.  Rounds are short, so a run makes many of them.
MODEL_KINDS = [(3, None), (3, None), (4, 0), (4, 1), (4, 2), (4, 3)]


def _generated_model(rng, n_atoms, n_constraints, shape=None):
    """Random constraints (of the given shape index, if any) and three
    sources, each with mass on top."""
    atoms = ["a", "b", "c", "d", "e"][:n_atoms]
    constraints = []
    for _ in range(n_constraints):
        x, y, z = rng.choice(atoms, size=3, replace=False)
        k = int(rng.integers(len(CONSTRAINT_SHAPES))) if shape is None else shape
        constraints.append(CONSTRAINT_SHAPES[k].format(x=x, y=y, z=z))
    pool = _focal_pool(oracles.ModelSpec({"atoms": atoms, "constraints": constraints}))
    sources = {
        f"s{j}": _random_source(rng, pool, int(rng.integers(1, 4)), True)
        for j in (1, 2, 3)
    }
    return _model(atoms, constraints, sources)


def models(rng, workdir):
    """In-process ``emrfuse`` commands: ``algebra --check-insulation``,
    ``fuse --rule dempster`` over all sources, ``compare --rules
    conjunctive,dempster,emr`` and ``check``, over the shipped models and
    generated 4-atom (0 to 3 constraints) and 5-atom (1 to 3) models,
    plus one free 5-atom model before every run's window.  Every
    generated file serves one op, so no op reuses another's algebra.
    Chosen because lattice closure, labels and YAML loading dominate,
    and it is the only workload that runs the classical rules.  Closure
    cost spans three decades, so ops come in rounds of fixed strata and
    a run ends on a round's end."""
    shipped = sorted(
        os.path.join(SHIPPED_MODELS, n) for n in os.listdir(SHIPPED_MODELS)
        if n.endswith(".yaml")
    )
    # The free five-atom closure takes seconds; every run has exactly one,
    # before the timed window.
    free5 = _generated_model(rng, 5, 0)
    yield _model_op(_write(workdir, "model-free5.yaml", free5), free5, "fuse",
                    False, in_window=False)
    i = 0
    shipped_used = 0
    for r in itertools.count():
        for command in MODEL_COMMANDS:
            for n_atoms, n_constraints in MODEL_KINDS:
                if n_constraints is None:
                    path = shipped[shipped_used % len(shipped)]
                    shipped_used += 1
                    with open(path) as handle:
                        yield _model_op(path, yaml.safe_load(handle), command, False)
                    continue
                raw = _generated_model(rng, n_atoms, n_constraints)
                yield _model_op(_write(workdir, f"model-{i}.yaml", raw), raw,
                                command, False)
                i += 1
        k = r % len(MODEL_COMMANDS)
        for n_constraints in (3, 2, 1):
            raw = _generated_model(rng, 5, n_constraints,
                                   shape=k if n_constraints == 1 else None)
            yield _model_op(_write(workdir, f"model-{i}.yaml", raw), raw,
                            MODEL_COMMANDS[k], n_constraints == 1)
            i += 1


def _model_op(path, raw, command, ends_round, in_window=True):
    spec = oracles.ModelSpec(raw)
    names = list(spec.sources)
    if command == "algebra":
        argv = ["algebra", path, "--check-insulation"]
        check = lambda out: _check_algebra(spec, *out)
    elif command == "fuse":
        argv = ["fuse", path, "--rule", "dempster", "--sources", ",".join(names)]
        check = lambda out: _check_fuse(spec, names, *out)
    elif command == "compare":
        argv = ["compare", path, "--rules", "conjunctive,dempster,emr",
                "--sources", ",".join(names[:2])]
        check = lambda out: _check_compare(spec, names[:2], *out)
    else:
        argv = ["check", path, "--sources", ",".join(names[:2])]
        check = lambda out: _check_verdict(spec, names[:2], *out)
    return Op(_cli_call(argv), check, [command, raw], ends_round, in_window)


def _check_algebra(spec, code, text):
    lines = text.splitlines()
    lattice = spec.lattice()
    problems = []
    if code != 0 or lines[0] != f"{len(lattice)} elements":
        return [f"lattice size line {lines[0]!r}, oracle {len(lattice)}"]
    labels = lines[1:-1]
    if {spec.bits(label) for label in labels} != lattice or len(labels) != len(lattice):
        problems.append("labels do not name the lattice")
    if lines[-1] != f"insulation: {str(spec.insulated()).lower()}":
        problems.append(f"{lines[-1]!r}, oracle {spec.insulated()}")
    return problems


def _check_fuse(spec, names, code, text):
    got = {}
    key = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith('key: "'):
            key = int(line[6:-1], 16)
        elif line.startswith("mass: ") and key is not None:
            got[key] = float(line[6:])
    expected = oracles.convolve([spec.sources[n] for n in names], normalize=True)
    if code != 0 or not oracles.masses_agree(got, expected, oracles.CONVOLUTION_TOL):
        return ["dempster masses differ from the direct convolution"]
    return []


def _check_compare(spec, names, code, text):
    rows = text.splitlines()[1:]
    columns = {"conjunctive": {}, "dempster": {}, "emr": {}}
    emr_rejected = False
    for row in rows:
        label, *cells = row.split()
        bits = spec.bits(label)
        for rule, cell in zip(columns, cells):
            if cell == "REJECTED":
                emr_rejected = True
            else:
                columns[rule][bits] = float(cell)
    sources = [spec.sources[n] for n in names]
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    for rule, normalize in (("conjunctive", False), ("dempster", True)):
        expected = oracles.convolve(sources, normalize)
        if not oracles.masses_agree(columns[rule], expected, oracles.TABLE_TOL):
            problems.append(f"{rule} column differs from the direct convolution")
    if emr_rejected == oracles.feasible(*sources):
        problems.append(f"emr verdict rejected={emr_rejected}")
    if not emr_rejected:
        emr = columns["emr"]
        if emr.get(0, 0.0) != 0.0 or abs(math.fsum(emr.values()) - 1.0) > 1e-5:
            problems.append("emr column is not a coherent bba")
    return problems


WORKLOADS = {"pairs": pairs, "nary": nary, "check": check, "models": models}
