"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import itertools
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import emrfuse  # noqa: E402
from emrfuse import Bba, Diagnostics, FusionOutcome, Rejection  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def first_ops(name, seed, n, workdir):
    stream = workloads.WORKLOADS[name](workloads.rng_for(name, seed), str(workdir))
    return list(itertools.islice(stream, n))


def run_op(op):
    result = op.call()
    return result, op.check(result)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    n = 4 if name == "nary" else 30
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
    one = [op.inputs for op in first_ops(name, 7, n, tmp_path / "one")]
    two = [op.inputs for op in first_ops(name, 7, n, tmp_path / "two")]
    other = [op.inputs for op in first_ops(name, 8, n, tmp_path / "one")]
    assert one == two
    assert one != other


@pytest.mark.parametrize("name, count", [
    ("pairs", 24), ("nary", 2), ("check", 8), ("models", 8),
])
def test_smoke_run_has_no_failures(name, count, tmp_path):
    stream = workloads.WORKLOADS[name](workloads.rng_for(name, 3), str(tmp_path))
    if name == "models":
        next(stream)  # the free 5-atom model alone takes seconds
    done = run.run_ops(stream, 0.0, 0, count=count)
    assert len(done) == count
    assert run.failures(done) == []


def accepted_pair(tmp_path, zadeh):
    for op in first_ops("pairs", 5, 200, tmp_path):
        if zadeh and op.inputs[2] is None:
            continue
        result, problems = run_op(op)
        if result.accepted and not problems:
            return op, result
    raise AssertionError("no accepted pair")


def with_masses(outcome, masses):
    return FusionOutcome(Bba(outcome.bba.algebra, masses), None, outcome.diagnostics)


def test_pair_oracle_flags_perturbed_mass(tmp_path):
    op, outcome = accepted_pair(tmp_path, zadeh=False)
    masses = dict(outcome.bba.masses)
    prop = next(iter(masses))
    masses[prop] += 1e-3
    assert op.check(with_masses(outcome, masses))


def test_zadeh_oracle_flags_shifted_mass(tmp_path):
    op, outcome = accepted_pair(tmp_path, zadeh=True)
    masses = dict(outcome.bba.masses)
    first, second = list(masses)[:2]
    masses[first] += 1e-4
    masses[second] -= 1e-4
    assert op.check(with_masses(outcome, masses))


def test_pair_oracle_flags_uncertified_result(tmp_path):
    op, outcome = accepted_pair(tmp_path, zadeh=False)
    d = outcome.diagnostics
    bad = Diagnostics(d.entropy, d.iterations, d.max_marginal_residual, 1e-3,
                      certified=False)
    assert op.check(FusionOutcome(outcome.bba, None, bad))


def test_pair_oracle_flags_flipped_verdict_and_bogus_witness(tmp_path):
    op, outcome = accepted_pair(tmp_path, zadeh=False)
    rejected = FusionOutcome(None, Rejection(1.0, None, "flipped"), None)
    assert op.check(rejected)
    for op in first_ops("pairs", 5, 200, tmp_path):
        result, problems = run_op(op)
        if not result.accepted and result.rejection.violated_family:
            break
    assert not problems
    top = result.rejection.violated_family[0].algebra.top
    bogus = FusionOutcome(None, Rejection(1.0, (top,), "bogus"), None)
    assert op.check(bogus)


def test_check_oracle_flags_flipped_verdict_and_bogus_witness(tmp_path):
    ops = first_ops("check", 2, 4, tmp_path)
    for op in ops:
        (code, text), problems = run_op(op)
        assert not problems
        flipped = text.replace("feasible: true", "feasible: TRUE").replace(
            "feasible: false", "feasible: true").replace("TRUE", "false")
        assert op.check((2 - code, flipped))
        if code == 0:
            assert op.check((code, text + "violated_family: [a, b]\n"))


def cli_outputs(tmp_path, command, n=1):
    found = []
    for op in first_ops("models", 4, 60, tmp_path):
        if op.inputs[0] == command:
            found.append((op, *run_op(op)))
            if len(found) == n:
                return found
    raise AssertionError(f"no {command} op")


def test_algebra_oracle_flags_wrong_lattice_size(tmp_path):
    op, (code, text), problems = cli_outputs(tmp_path, "algebra")[0]
    assert not problems
    size = int(text.split()[0])
    assert op.check((code, text.replace(f"{size} elements", f"{size + 1} elements", 1)))


def test_convolution_oracle_flags_perturbed_mass(tmp_path):
    op, (code, text), problems = cli_outputs(tmp_path, "fuse")[0]
    assert not problems
    line = next(line for line in text.splitlines() if "mass: " in line)
    prefix, value = line.split("mass: ")
    wrong = f"{prefix}mass: {float(value) + 1e-9!r}"
    assert op.check((code, text.replace(line, wrong)))


def test_compare_oracle_flags_perturbed_column(tmp_path):
    op, (code, text), problems = cli_outputs(tmp_path, "compare")[0]
    assert not problems
    row = text.splitlines()[1]
    cell = row.split()[1]
    wrong = f"{float(cell) + 1e-3:.6f}"
    assert op.check((code, text.replace(row, row.replace(cell, wrong, 1))))


def test_gale_hall_matches_phase_one():
    algebra = emrfuse.powerset_algebra("a", "b", "c")
    a, b, top = algebra.parse("a"), algebra.parse("b"), algebra.top
    clash = [Bba(algebra, {a: 0.6, top: 0.4}), Bba(algebra, {b: 0.6, top: 0.4})]
    fits = [Bba(algebra, {a: 0.4, top: 0.6}), Bba(algebra, {b: 0.6, top: 0.4})]
    for bbas, expect in ((clash, False), (fits, True)):
        focals = [{p.bits: m for p, m in x.masses.items()} for x in bbas]
        assert oracles.feasible(*focals) is expect
        assert emrfuse.emr_feasible(bbas)[0] is expect


def test_family_oracle_matches_enhancement_bound_check():
    algebra = emrfuse.powerset_algebra("a", "b", "c")
    a, b, top = algebra.parse("a"), algebra.parse("b"), algebra.top
    b1, b2 = Bba(algebra, {a: 0.6, top: 0.4}), Bba(algebra, {b: 0.6, top: 0.4})
    focals = [{p.bits: m for p, m in x.masses.items()} for x in (b1, b2)]
    for family in ((a, b), (a,), (a, algebra.parse("c"))):
        bits = [p.bits for p in family]
        assert oracles.family_violates(*focals, bits) == (
            not emrfuse.enhancement_bound_check(b1, b2, family))


def test_lattice_oracle_matches_known_sizes():
    for atoms, constraints, size in (
        (["a", "b", "c"], [], 20),
        (["a", "b", "c"], ["a&b = bot", "a&c = bot", "b&c = bot", "a|b|c = top"], 8),
        (["a", "b", "c"], ["a&b = a&c"], 12),
    ):
        spec = oracles.ModelSpec({"atoms": atoms, "constraints": constraints})
        assert len(spec.lattice()) == size


def test_tracer_records_spans_and_restores(tmp_path, monkeypatch):
    original = emrfuse.emr.maxent_projected_gradient
    missing = (emrfuse.emr, "no_such_callable", "optim.solve")
    monkeypatch.setattr(tracer, "BOUNDARIES", tracer.BOUNDARIES + [missing])
    spans = tracer.Tracer()
    spans.install()
    try:
        stream = workloads.pairs(workloads.rng_for("pairs", 1), str(tmp_path))
        done = run.run_ops(stream, 0.0, 0, spans, count=12)
    finally:
        spans.restore()
    assert emrfuse.emr.maxent_projected_gradient is original
    assert run.failures(done) == []
    assert {"algebra.closure", "emr.fuse", "belief.validate", "optim.solve"} <= {
        s[0] for s in spans.spans}
    assert min(spans.self_times()) > -1e-9
    metrics = tracer.layer_metrics(spans)
    assert metrics["emr.cells_sum"][0] > 0
    assert metrics["optim.solve_calls"][0] > 0
    assert spans.absent == ["emrfuse.emr.no_such_callable"]
    assert metrics["trace.absent_spans"][0] == 1
