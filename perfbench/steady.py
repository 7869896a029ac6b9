"""Steadiness mode: run one workload N times, one seed each, and report
each end-to-end metric's median and quartiles against its bound.

    python3 perfbench/steady.py --workload tree-deep --runs 10 --first-seed 1

Run from the root of a riskdesk checkout. Bounds and the run length come
from BENCHMARK.json. A metric is steady when its spread, the distance
between the first and third quartile as a share of the median, is below a
third of its bound. With ``--against`` a summary written by an earlier call
is compared median for median, each metric against its bound. Summaries
are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")


def _summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat one workload over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", default=None,
                        help="summary JSON of an earlier call to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in specs}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        for name in specs:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={values[n][-1]:.4g}" for n in specs),
              flush=True)

    summary = {name: _summarise(v) for name, v in values.items()}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    steady = True
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':14s} {'unit':7s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name, s in summary.items():
        bound = specs[name]["bound"]
        verdict = "steady" if s["spread"] < bound / 3 else (
            "within bound" if s["spread"] <= bound else "TOO WIDE")
        if name == "setup_s":
            verdict = "(spread not bounded)"
        elif s["spread"] >= bound / 3:
            steady = False
        if earlier:
            old = earlier["metrics"][name]["median"]
            worse = (old - s["median"]) / old if specs[name]["better"] == "higher" \
                else (s["median"] - old) / old
            verdict += f"; {worse:+.1%} vs earlier" + (" REGRESSED" if worse > bound else "")
        print(f"{name:14s} {specs[name]['unit']:7s} {s['median']:11.5g} {s['q1']:11.5g} "
              f"{s['q3']:11.5g} {s['spread']:7.3f} {bound:6.2f}  {verdict}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"steady-{args.workload}-seeds{args.first_seed}-{args.runs}.json"
    path.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                "metrics": summary}, indent=2) + "\n")
    print(f"summary written to {path}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
