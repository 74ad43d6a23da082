"""Per-layer tracing from outside the package.

The tracer rebinds the names that one layer looks up to call another
(``emrfuse.emr.maxent_projected_gradient``, ``emrfuse.cli.load_model``,
...) to wrappers that record a span: name, start, end, parent span and
op id.  Spans stay in memory and are written out when the run ends.  A
callable that a later version no longer has is reported as absent, and
its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import time

import emrfuse
import emrfuse.algebra
import emrfuse.cli
import emrfuse.emr
import emrfuse.rules

# (object whose attribute is rebound, attribute, span name)
BOUNDARIES = [
    # benchmark -> package entry points
    (emrfuse, "build_algebra", "algebra.closure"),
    (emrfuse, "powerset_algebra", "algebra.closure"),
    (emrfuse, "emr_fuse", "emr.fuse"),
    (emrfuse, "emr_fuse_n", "emr.fuse"),
    (emrfuse.cli, "main", "cli.main"),
    # cli -> algebra, rules, emr, belief
    (emrfuse.cli, "load_model", "cli.load"),
    (emrfuse.cli, "PreBooleanAlgebra", "algebra.closure"),
    (emrfuse.algebra.PreBooleanAlgebra, "label", "algebra.label"),
    (emrfuse.cli, "dempster_fuse", "rules.fuse"),
    (emrfuse.cli, "tbm_fuse", "rules.fuse"),
    (emrfuse.cli, "free_dsmt_fuse", "rules.fuse"),
    (emrfuse.cli, "emr_feasible", "emr.feasible"),
    (emrfuse.cli, "emr_fuse_n", "emr.fuse"),
    (emrfuse.cli, "find_enhancement_violation", "belief.witness"),
    # emr and rules -> belief and optim
    (emrfuse.emr, "validate", "belief.validate"),
    (emrfuse.rules, "validate", "belief.validate"),
    (emrfuse.emr, "find_enhancement_violation", "belief.witness"),
    (emrfuse.emr, "feasible_point", "optim.phase1"),
    (emrfuse.emr, "maxent_projected_gradient", "optim.solve"),
]


def _bits(bbas):
    return [[p.bits for p in b.focals] for b in bbas]


# What the metrics need from the arguments and result of some spans; kept
# small so that the traced pass does not grow the heap.
SUMMARY = {
    "algebra.closure": lambda args, result: len(result),
    "belief.witness": lambda args, result: result is not None,
    "optim.solve": lambda args, result: getattr(result, "iterations", 0),
    "emr.fuse": lambda args, result: (
        _bits(args[0] if isinstance(args[0], (list, tuple)) else args[:2]),
        result.accepted,
        result.accepted and result.diagnostics.certified,
    ),
    "emr.feasible": lambda args, result: (_bits(args[0]), None, None),
}


class Tracer:
    """Spans are recorded while ``op`` is set: an op id, or "setup"."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.kept = []  # (name, summary of arguments and result)
        self.absent = []
        self.op = "setup"
        self._stack = []
        self._patches = []

    def install(self):
        self.absent = []
        for owner, attr, name in BOUNDARIES:
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original, name):
        spans, stack, kept = self.spans, self._stack, self.kept
        summary = SUMMARY.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.op is None:  # an oracle at work
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if summary is not None:
                kept.append((name, summary(args, result)))
            return result

        return wrapper

    def self_times(self):
        """Each span's duration minus the durations of its direct
        children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"absent": self.absent, "spans": self.spans}, handle)


def _cells(lists):
    """Joint cells and forbidden (bot-meet) cells, from focal bits."""
    meets = [-1]
    for focals in lists:
        meets = [m & f for m in meets for f in focals]
    return len(meets), sum(1 for m in meets if m == 0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer totals over every span recorded, set-up included."""
    total = {}
    calls = {}
    own = {}
    for (name, start, end, _, _), self_s in zip(tracer.spans, tracer.self_times()):
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s

    elements = 0
    witness_found = 0
    iterations = []
    certified = 0
    solved = 0
    accepted = 0
    cells = 0
    forbidden = 0
    for name, summary in tracer.kept:
        if name == "algebra.closure":
            elements += summary
        elif name == "belief.witness":
            witness_found += summary
        elif name == "optim.solve":
            iterations.append(summary)
        else:
            bits, was_accepted, was_certified = summary
            n, f = _cells(bits)
            cells += n
            forbidden += f
            if name == "emr.fuse":
                solved += 1
                accepted += was_accepted
                certified += bool(was_certified)

    return {
        "algebra.closure_s": (total.get("algebra.closure", 0.0), "s"),
        "algebra.closure_calls": (calls.get("algebra.closure", 0), "count"),
        "algebra.elements_sum": (elements, "count"),
        "algebra.label_s": (total.get("algebra.label", 0.0), "s"),
        "cli.load_s": (own.get("cli.load", 0.0), "s"),
        "cli.self_s": (own.get("cli.main", 0.0), "s"),
        "rules.fuse_s": (total.get("rules.fuse", 0.0), "s"),
        "rules.calls": (calls.get("rules.fuse", 0), "count"),
        "belief.validate_s": (total.get("belief.validate", 0.0), "s"),
        "belief.validate_calls": (calls.get("belief.validate", 0), "count"),
        "belief.witness_s": (total.get("belief.witness", 0.0), "s"),
        "belief.witness_calls": (calls.get("belief.witness", 0), "count"),
        "belief.witness_useful_ratio": (
            _ratio(witness_found, calls.get("belief.witness", 0)), "ratio"),
        "optim.phase1_s": (total.get("optim.phase1", 0.0), "s"),
        "optim.phase1_calls": (calls.get("optim.phase1", 0), "count"),
        "optim.solve_s": (total.get("optim.solve", 0.0), "s"),
        "optim.solve_calls": (calls.get("optim.solve", 0), "count"),
        "optim.iterations_sum": (sum(iterations), "count"),
        "optim.iterations_max": (max(iterations, default=0), "count"),
        "optim.certified_ratio": (_ratio(certified, accepted), "ratio"),
        "emr.self_s": (own.get("emr.fuse", 0.0) + own.get("emr.feasible", 0.0), "s"),
        "emr.cells_sum": (cells, "count"),
        "emr.forbidden_sum": (forbidden, "count"),
        "emr.accepted_ratio": (_ratio(accepted, solved), "ratio"),
        "trace.absent_spans": (len(tracer.absent), "count"),
    }
