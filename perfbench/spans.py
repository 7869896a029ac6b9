"""Spans around the benchmark's calls into riskdesk modules, and the
per-layer metrics derived from them.

A span records one call the benchmark makes into a module: its name
(``<layer>.<operation>``), start and end on the monotonic clock, the span
that enclosed it, the job it belongs to ("setup" before the first job) and
the work it did, counted by the benchmark from input shapes or returned
values. Every job has a root span named ``job``; module calls are its
children. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

SETUP = "setup"

# metric -> span names whose self time it reports
TIME_METRICS = {
    "lattice.build_s": ("lattice.build",),
    "measures.measure_build_s": ("measures.measure_build",),
    "measures.cond_exp_s": ("measures.cond_exp",),
    "measures.capacity_s": ("measures.capacity",),
    "risk.min_penalty_s": ("risk.min_penalty",),
    "risk.rm_evaluate_s": ("risk.rm_evaluate",),
    "dynamics.structure_build_s": ("dynamics.structure_build",),
    "dynamics.rho_s": ("dynamics.rho",),
    "dynamics.supermartingale_s": ("dynamics.supermartingale",),
    "dynamics.expand_dual_s": ("dynamics.expand_dual",),
    "dynamics.cocycle_s": ("dynamics.cocycle",),
    "stability.hull_s": ("stability.hull",),
    "stability.robust_eval_s": ("stability.robust_eval",),
    "gexp.price_s": ("gexp.price",),
    "gexp.field_s": ("gexp.field",),
    "gexp.cond_s": ("gexp.cond",),
    "skorokhod.dhat_s": ("skorokhod.dhat",),
    "skorokhod.dm_s": ("skorokhod.dm",),
    "skorokhod.j1_s": ("skorokhod.j1",),
    "cli.run_s": ("cli.run",),
}

# metric -> (span names, work key) whose counted work it reports
COUNT_METRICS = {
    "lattice.nodes_built": (("lattice.build",), "nodes"),
    "measures.kernels_built": (("measures.measure_build",), "kernels"),
    "measures.cond_exp_nodes": (("measures.cond_exp",), "nodes"),
    "risk.lp_solved": (("risk.min_penalty",), "lps"),
    "risk.lp_infinite": (("risk.min_penalty",), "lp_inf"),
    "dynamics.rho_nodes": (("dynamics.rho",), "nodes"),
    "dynamics.components_expanded": (("dynamics.expand_dual",), "components"),
    "stability.robust_nodes": (("stability.robust_eval",), "nodes"),
    "gexp.cells": (("gexp.price", "gexp.field"), "cells"),
    "gexp.cond_cells": (("gexp.cond",), "cells"),
    "skorokhod.jump_pairs": (("skorokhod.dhat", "skorokhod.dm", "skorokhod.j1"),
                             "pairs"),
    "cli.bytes_written": (("cli.run",), "bytes"),
}

# metric -> (count metric, time metrics whose sum is the base)
RATE_METRICS = {
    "measures.cond_exp_nodes_per_s": ("measures.cond_exp_nodes",
                                      ("measures.cond_exp_s",)),
    "dynamics.rho_nodes_per_s": ("dynamics.rho_nodes", ("dynamics.rho_s",)),
    "gexp.cells_per_s": ("gexp.cells", ("gexp.price_s", "gexp.field_s")),
}

UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "measures.cond_exp_nodes_per_s": "nodes/s",
    "dynamics.rho_nodes_per_s": "nodes/s",
    "gexp.cells_per_s": "cells/s",
    "cli.bytes_written": "B",
    "gexp.bytes_computed": "B",
    "risk.ms_per_lp": "ms",
    "oracles.check_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [id, name, start, end, parent, job, work]
        self._stack = []
        self._job = SETUP

    def __call__(self, name, fn, *args, work=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name, work)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def note(self, **work):
        """Add work counted from a returned value to the span just closed."""
        if self.enabled:
            last = self.spans[-1][6]
            for key, value in work.items():
                last[key] = last.get(key, 0) + value

    @contextmanager
    def job(self, job_id):
        """Root span of one job; module calls inside it are its children."""
        if not self.enabled:
            yield
            return
        self._job = job_id
        span = self._open("job", None)
        try:
            yield
        finally:
            self._close(span)
            self._job = SETUP

    def _open(self, name, work):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self._job,
                dict(work) if work else {}]
        self.spans.append(span)
        self._stack.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()


def self_times(spans):
    """Per span id: duration minus the time covered by its child spans."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans, n_jobs: int):
    """Per-layer metrics from a traced run.

    A time or count metric is what the layer costs in set-up plus its mean
    per job over ``n_jobs`` traced jobs; a layer the workload never calls
    reads 0. Rates divide summed work by summed self time.
    """
    own = self_times(spans)
    setup_t, job_t, setup_w, job_w = {}, {}, {}, {}
    for s in spans:
        in_setup = s[5] == SETUP
        times = setup_t if in_setup else job_t
        times[s[1]] = times.get(s[1], 0.0) + own[s[0]]
        counts = setup_w if in_setup else job_w
        for key, value in s[6].items():
            counts[(s[1], key)] = counts.get((s[1], key), 0) + value

    def per_run(setup, jobs, key):
        return setup.get(key, 0) + jobs.get(key, 0) / max(n_jobs, 1)

    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(per_run(setup_t, job_t, n) for n in names)
    for metric, (names, key) in COUNT_METRICS.items():
        out[metric] = sum(per_run(setup_w, job_w, (n, key)) for n in names)
    for metric, (count, bases) in RATE_METRICS.items():
        base = sum(out[b] for b in bases)
        out[metric] = out[count] / base if base > 0 else 0.0
    lps = out["risk.lp_solved"]
    out["risk.ms_per_lp"] = 1e3 * out["risk.min_penalty_s"] / lps if lps else 0.0
    out["gexp.bytes_computed"] = 8.0 * (out["gexp.cells"] + out["gexp.cond_cells"])
    return out
