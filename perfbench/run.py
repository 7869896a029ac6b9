"""riskdesk benchmark: one seeded workload, end-to-end or traced.

Run from the root of a riskdesk checkout:

    python3 perfbench/run.py --workload tree-deep --seed 1 --seconds 20 --trace 0

The launcher imports nothing from riskdesk itself. It pins BLAS/OpenMP
threads to 1, runs the workload in a fresh process (``worker.py``) against
``./src``, and prints every metric by name and unit; its last line is one
JSON object {correct, attempted, failed, metrics}. With ``--trace 0`` the
metrics are the end-to-end ones, timed at a reference machine speed (see
``worker.py``), with set-up measured in several fresh processes and
reported as their median; with ``--trace 1`` they are the per-layer ones
from a traced run. Provenance and per-run details go to
``.perfbench_out/``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("tree-deep", "penalty-lp", "band-grid", "path-metric")
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_PROBES = 4     # extra set-up-only processes; setup_s is the median of 5
DEADLINE_S = 170     # the whole run, probes and checks included
OUT_DIR = Path(".perfbench_out")
HERE = Path(__file__).resolve().parent


def _cpu_info():
    info = {"model": platform.processor() or None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def _git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(package: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _worker(args, env, deadline, extra=()):
    """Run one worker process; returns its final JSON line as a dict."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the worker")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=remaining)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="riskdesk benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    package = root / "src" / "riskdesk"
    if not (package / "__init__.py").is_file():
        print(f"error: no riskdesk sources under {package}; run from the root "
              "of a riskdesk checkout", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = start + DEADLINE_S

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _worker(args, env, deadline, ["--setup-only"])
                setup_samples.append(probe["setup_s"] / probe["setup_slowdown"])
        extra = ["--spans-out", str(OUT_DIR / f"{stem}-spans.json")] if args.trace else []
        result = _worker(args, env, deadline, extra)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    correct = result["failed"] == 0
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics, "setup_samples_s": setup_samples,
        "jobs_timed": result["jobs_timed"],
        "p90_tail_samples": result["p90_tail_samples"],
        "check_s": result["check_s"], "failures": result["failures"],
        "raw": result["raw"], "slowdown": result["slowdown"],
        "provenance": {
            "python": platform.python_version(), "numpy": result["numpy"],
            "scipy": result["scipy"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_info(),
            "thread_env": PINNED_THREADS, "git_commit": _git_commit(root),
            "source_digest": _source_digest(package),
            "input_digest": result["input_digest"],
        },
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {result['jobs_timed']} timed jobs, "
          f"{result['p90_tail_samples']} beyond p90, inputs {result['input_digest'][:16]}, "
          f"machine slowdown {result['slowdown']['median']:.3f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
