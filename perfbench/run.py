"""Seeded benchmark for emrfuse.

Run from the repository root:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run; the last line of standard output
is one JSON object.  Every workload runs in fresh processes of its own:
set-up is measured in several of them, the workload in one more, on one
thread, as a closed loop with one caller.  Results and run metadata are
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("perfbench", "out")
SETUP_RUNS = 5
# The traced run reports totals, not percentiles, so it needs fewer ops.
TRACE_MIN_OPS = 10
DEADLINE_S = 170
FAILURES_SHOWN = 5
# Host-speed probe: a fixed pure-Python loop, timed between ops outside
# the timed region, every PROBE_EVERY_S of op time.  On the 2-vCPU
# machine this benchmark was built on, the host's speed drifted by a
# quarter between runs minutes apart, moving every op alike.  The gated
# timings are therefore scaled to the host speed at which the probe
# takes PROBE_REFERENCE_S on average (its mean there); raw figures are
# kept in the result file.  The host switches between a fast and a slow
# state, so the mean of the probes tracks the ops' speed and the median
# does not.
PROBE_EVERY_S = 0.25
PROBE_LOOP = 20_000
PROBE_REFERENCE_S = 0.0018
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pairs", "nary", "check", "models"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--role", choices=["setup", "measure", "trace"],
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- worker: one fresh process ------------------------------------------------


def probe():
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def run_ops(ops, seconds, min_ops, tracer=None, count=None, keep=None,
            probes=None):
    """Closed loop over the iterable ``ops`` until ``seconds`` of op time,
    at least ``min_ops`` ops and the end of a round, or exactly ``count``
    ops.  Ops made lazily by a generator are made outside the timed
    region.  Each result is checked by its oracle right after its call,
    outside the timed region, and then dropped; ops are kept only in
    ``keep``, if given.  The live heap, and with it the garbage
    collector's work, thus stays the same through the run.  Returns
    (seconds, failure or None) per op."""
    done = []
    spent = 0.0
    for op in ops:
        if keep is not None:
            keep.append(op)
        i = len(done)
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            try:
                problems = op.check(result)
            except Exception as exc:  # an output the oracle cannot read
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        spent += elapsed if op.in_window else 0.0
        done.append((elapsed, f"op {i}: " + "; ".join(problems) if problems else None))
        if probes is not None and spent >= len(probes) * PROBE_EVERY_S:
            probes.append(probe())
        if count is not None:
            if len(done) == count:
                break
        elif op.ends_round and spent >= seconds and len(done) >= min_ops:
            break
    return done


def failures(done):
    return [message for _, message in done if message]


def worker(args):
    start = time.perf_counter()
    import emrfuse  # noqa: F401  (import time is part of set-up)
    import emrfuse.cli  # noqa: F401
    import workloads

    tracer = None
    if args.role == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        stream = workloads.WORKLOADS[args.workload](
            workloads.rng_for(args.workload, args.seed), workdir
        )
        min_ops = workloads.min_ops(args.workload)
        ops = itertools.chain(list(itertools.islice(stream, min_ops)), stream)
        setup_s = time.perf_counter() - start
        if args.role == "setup":
            return {"setup_s": setup_s}
        if args.role == "measure":
            probes = []
            done = run_ops(ops, args.seconds, min_ops, probes=probes)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return {
                "setup_s": setup_s,
                "probes": probes,
                "latencies": [elapsed for elapsed, _ in done],
                "failures": failures(done),
                "peak_rss_mb": rss / 1024.0,
            }
        # Traced run: the same ops untraced, traced, then untraced again,
        # so that warm-up and drift cancel out of the overhead.
        tracer.restore()
        kept = []
        before = run_ops(ops, args.seconds / 3, TRACE_MIN_OPS, keep=kept)
        tracer.install()
        traced = run_ops(kept, 0.0, 0, tracer, count=len(kept))
        tracer.restore()
        after = run_ops(kept, 0.0, 0, count=len(kept))
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        metrics = tracing.layer_metrics(tracer)
        plain_s = sum(t for t, _ in before + after) / 2
        traced_s = sum(t for t, _ in traced)
        metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
        metrics["trace.ops"] = (len(traced), "count")
        return {
            "attempted": 3 * len(traced),
            "failures": failures(before + traced + after),
            "absent": tracer.absent,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- orchestrator ---------------------------------------------------------------


def spawn(args, role, deadline):
    env = dict(os.environ, **ONE_THREAD, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = [sys.executable, os.path.abspath(__file__), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def end_to_end(result, setups):
    latencies = result["latencies"]
    attempted = len(latencies)
    passed = attempted - len(result["failures"])
    geomean = math.exp(math.fsum(math.log(t) for t in latencies) / attempted)
    host = statistics.fmean(result["probes"]) / PROBE_REFERENCE_S
    raw_ops_per_s = passed / attempted / geomean
    raw_p50_ms = 1e3 * quantile(latencies, 50)
    return {
        "ops_per_s": (raw_ops_per_s * host, "1/s"),
        "op_p50_ms": (raw_p50_ms / host, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }, {
        "op_p90_ms": 1e3 * quantile(latencies, 90) / host,
        "host_slowdown": host,
        "raw_ops_per_s": raw_ops_per_s,
        "raw_op_p50_ms": raw_p50_ms,
        "raw_op_p90_ms": 1e3 * quantile(latencies, 90),
        "raw_wall_ops_per_s": passed / math.fsum(latencies),
        "timed_s": math.fsum(latencies),
        "setup_runs_s": [s["setup_s"] for s in setups],
        "probes_s": result["probes"],
        "latencies_ms": [round(1e3 * t, 4) for t in latencies],
    }


def metadata():
    import numpy

    lines = 0
    for root, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as handle:
                    lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def orchestrate(args):
    if not os.path.isfile(os.path.join("src", "emrfuse", "__init__.py")):
        print("error: src/emrfuse not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            result = spawn(args, "trace", deadline)
            metrics, info = result["metrics"], {"absent": result["absent"]}
            attempted = result["attempted"]
        else:
            setups = [spawn(args, "setup", deadline)
                      for _ in range(SETUP_RUNS - 1)]
            result = spawn(args, "measure", deadline)
            setups.append(result)
            metrics, info = end_to_end(result, setups)
            attempted = len(result["latencies"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = result["failures"]
    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metadata": metadata(), "info": info,
              "failures": failures, **report}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops "
          f"attempted, {len(failures)} failed")
    for message in failures[:FAILURES_SHOWN]:
        print(f"  failed {message}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    if "op_p90_ms" in info:
        print(f"op_p90_ms {info['op_p90_ms']:.6g} ms (not gated)")
    print(f"metadata {json.dumps(record['metadata'])}")
    print(json.dumps(report))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.role:
        print(json.dumps(worker(args)))
        return 0
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
