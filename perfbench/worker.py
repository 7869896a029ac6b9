"""One benchmark process: set up a workload, run its closed loop, check
every output, and print one JSON line for the launcher (``run.py``).

Started by the launcher with thread-pinning and ``PYTHONPATH=src`` already
set; ``--t0`` is the launcher's monotonic clock just before it started this
process, so set-up time counts interpreter start and ``import riskdesk``.

The machine's speed drifts by up to about 1.7x over seconds to minutes.
Timings are therefore reported at a reference speed: a fixed reference
kernel runs before every job, outside its timing, and each job's latency
is divided by the slowdown of that kernel around it. The raw timings are
reported beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from spans import Tracer, UNITS, layer_metrics
from workloads import WORKLOADS, Inputs

REFERENCE_S = 2.0e-3   # duration of reference_kernel() at the reference speed
SLOWDOWN_WINDOW = 15   # jobs whose reference timings set one job's slowdown
SETUP_PROBES = 15      # reference timings taken right after set-up


def reference_kernel():
    """Fixed mix of interpreter, dict and small-array work; returns its
    duration in s, which tracks the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for k in range(20000):
        total += k * k
    table = {k: k for k in range(3000)}
    a = np.arange(4000.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    del total, table, a
    return time.perf_counter() - start


def slowdowns(reference):
    """Per job: median reference duration over the jobs around it, as a
    multiple of REFERENCE_S."""
    ref = np.asarray(reference)
    half = SLOWDOWN_WINDOW // 2
    return np.array([np.median(ref[max(0, i - half):i + half + 1])
                     for i in range(ref.size)]) / REFERENCE_S


def run_phase(workload, tracers, seconds):
    """Issue jobs 0, 1, 2, ... one after another until ``seconds`` have
    passed, each job once through every tracer in turn (in alternating
    order, so neither always runs second).

    Returns per tracer the per-job latencies in s, the reference-kernel
    durations taken just before each job, and the outputs or exceptions.
    """
    latencies = [[] for _ in tracers]
    reference = [[] for _ in tracers]
    outputs = [[] for _ in tracers]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        order = range(len(tracers)) if i % 2 == 0 else reversed(range(len(tracers)))
        for k in order:
            tr = tracers[k]
            reference[k].append(reference_kernel())
            t = time.perf_counter()
            with tr.job(i):
                try:
                    out = workload.job(tr, i)
                except Exception as exc:  # a failed job counts in failed, not a crash
                    out = exc
            latencies[k].append(time.perf_counter() - t)
            outputs[k].append(out)
        i += 1
    return latencies, reference, outputs


def check_all(workload, outputs):
    """Untimed output checks of (job id, output) pairs; returns (failures
    as (position in ``outputs``, message), check seconds)."""
    failures = []
    start = time.perf_counter()
    for k, (i, out) in enumerate(outputs):
        if isinstance(out, Exception):
            tb = "".join(traceback.format_exception(out)).strip()
            failures.append((k, f"job {i} raised: {tb}"))
            continue
        try:
            failures += [(k, f"job {i}: {msg}") for msg in workload.check(i, out)]
        except Exception as exc:  # a check that raises fails its job
            failures.append((k, f"job {i}: check raised {exc!r}"))
    return failures, time.perf_counter() - start


def latency_metrics(latencies_s):
    """Throughput and latency percentiles of jobs run one after another."""
    lat_ms = 1e3 * np.asarray(latencies_s)
    return {
        "jobs_per_s": {"value": 1e3 * lat_ms.size / lat_ms.sum(), "unit": "jobs/s"},
        "job_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
        "job_p90_ms": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    inputs = Inputs(args.seed)
    workload = WORKLOADS[args.workload](inputs)
    tr = Tracer(bool(args.trace))
    workload.setup(tr)
    setup_s = time.monotonic() - args.t0
    setup_slowdown = float(np.median([reference_kernel() for _ in range(SETUP_PROBES)])
                           / REFERENCE_S)
    setup = {"setup_s": setup_s, "setup_slowdown": setup_slowdown}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # a traced run times every job untraced and traced, back to back, so
    # the difference between the two is the cost of tracing
    tracers = [Tracer(False), tr] if args.trace else [tr]
    try:
        latencies, reference, outputs = run_phase(workload, tracers, args.seconds)
        failures, check_s = check_all(
            workload, [(i, out) for outs in outputs for i, out in enumerate(outs)])
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()

    attempted = sum(len(outs) for outs in outputs)
    failed_jobs = len({k for k, _ in failures})
    lat = np.asarray(latencies[0])
    slow = slowdowns(reference[0])
    if args.trace:
        values = layer_metrics(tr.spans, len(latencies[1]))
        values["oracles.check_s"] = check_s / attempted
        values["trace.overhead_frac"] = 1.0 - sum(latencies[0]) / sum(latencies[1])
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(values.items())}
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent", "job",
                                      "work"], "spans": tr.spans}, fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s / setup_slowdown, "unit": "s"},
            **latency_metrics(lat / slow),
            "ok_frac": {"value": (attempted - failed_jobs) / attempted, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB"},
        }
    for _, msg in failures[:5]:
        print(msg, file=sys.stderr)
    print(json.dumps({
        "attempted": attempted, "failed": failed_jobs, "metrics": metrics,
        "raw": {**{k: v["value"] for k, v in latency_metrics(lat).items()}, **setup},
        "slowdown": {"median": float(np.median(slow)), "min": float(slow.min()),
                     "max": float(slow.max())},
        "jobs_timed": lat.size,
        "p90_tail_samples": int(np.sum(lat > np.percentile(lat, 90))),
        "check_s": check_s, "input_digest": inputs.digest(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "failures": [msg for _, msg in failures[:20]],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
