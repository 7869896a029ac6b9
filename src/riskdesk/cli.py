"""Config-driven command-line runner.

Reads a JSON experiment config, runs one task (eval, penalty, consistency,
stability, gexp, skorokhod, acceptance-suite) and writes machine-readable
artifacts into the output directory:

    report.json    deterministic given (config, seed): task, input digest,
                   seed, results, max_violations, tolerances
    run_meta.json  wall-clock runtime and artifact list (non-deterministic,
                   kept out of the main report so reports stay byte-identical)
    *.csv          node tables (node_id, time, value) or surfaces (t, x, value)

Exit codes: 0 success, 1 config/schema error (a grid that violates the
stability bound included), 2 numeric guard (infeasible LP where feasibility
was required), 3 check failure above tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .acceptance import run_all
from .dynamics import DynamicRM, OneStepStructure, dual_form_violation, onestep_from_json
from .fixtures import fix_a_lattice, iid_binary_measure, random_rv
from .gexp import GridSpec, VolatilityBand, _evolve, bid_ask
from .lattice import RandomVariable, ScenarioLattice, lattice_from_json
from .measures import measure_from_json
from .risk import DualRep, dualrep_from_json, minimal_penalty, rm_evaluate
from .skorokhod import StepPath, dhat_distance, path_from_json
from .stability import all_stopping_times, enumerate_selections, is_stable, \
    rectangular_hull

TASKS = ("eval", "penalty", "consistency", "stability", "gexp", "skorokhod",
         "acceptance-suite")

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CHECK = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


class NumericGuard(RuntimeError):
    pass


def _load_config(path: str) -> Dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")


def validate_config(config: Dict) -> List[str]:
    """Schema and cross-field diagnostics; empty list means runnable."""
    diags = []
    task = config.get("task")
    if task not in TASKS:
        diags.append(f"task must be one of {TASKS}, got {task!r}")
        return diags
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        diags.append(f"seed must be a non-negative integer, got {seed!r}")
    for key in ("lattice", "dualrep", "structure", "query"):
        spec = config.get(key)
        if isinstance(spec, dict) and "file" in spec \
                and not Path(spec["file"]).exists():
            diags.append(f"{key}: file {spec['file']!r} does not exist")
    if isinstance(config.get("measures"), list):
        for entry in config["measures"]:
            if isinstance(entry, dict) and "file" in entry \
                    and not Path(entry["file"]).exists():
                diags.append(f"measures: file {entry['file']!r} does not exist")
    if "p" in config and not (isinstance(config["p"], (int, float)) and config["p"] >= 1):
        diags.append(f"p must be a number >= 1, got {config['p']!r}")
    for cap_key in ("cap", "n_positions"):
        if cap_key in config and (not isinstance(config[cap_key], int)
                                  or config[cap_key] <= 0):
            diags.append(f"{cap_key} must be a positive integer")
    if task == "gexp":
        if config.get("method", "lattice") not in ("lattice", "pde"):
            diags.append(f"gexp: method must be 'lattice' or 'pde', "
                         f"got {config['method']!r}")
        grid = config.get("grid")
        band = config.get("band")
        if not isinstance(grid, dict):
            diags.append("gexp: a grid object {dt, h, radius, horizon} is required")
        if not isinstance(band, dict):
            diags.append("gexp: a band object {sigma_low, sigma_high} is required")
        if isinstance(grid, dict) and isinstance(band, dict):
            try:
                g = GridSpec(float(grid["dt"]), float(grid["h"]),
                             int(grid["radius"]), float(grid["horizon"]))
                b = VolatilityBand(band["sigma_low"], band["sigma_high"])
                g.check_cfl(b)
            except (KeyError, ValueError) as exc:
                diags.append(f"gexp grid/band: {exc}")
    if task == "skorokhod" and not isinstance(config.get("paths"), list):
        diags.append("skorokhod: a list of two path objects is required")
    return diags


def _load_lattice(config: Dict) -> ScenarioLattice:
    spec = config.get("lattice", "fix-a")
    if spec == "fix-a":
        return fix_a_lattice()
    if isinstance(spec, dict) and "file" in spec:
        return lattice_from_json(Path(spec["file"]).read_text())
    raise ConfigError(f"lattice must be 'fix-a' or {{'file': path}}, got {spec!r}")


def _load_dualrep(config: Dict, lat: ScenarioLattice) -> DualRep:
    spec = config.get("dualrep", "fix-a-coherent")
    if spec == "fix-a-coherent":
        q1 = iid_binary_measure(lat, 0.5)
        q2 = iid_binary_measure(lat, 0.6)
        zeros = RandomVariable(lat, 0, np.zeros(1))
        return DualRep(0, lat.terminal, ((q1, zeros), (q2, zeros)))
    if isinstance(spec, dict) and "file" in spec:
        return dualrep_from_json(Path(spec["file"]).read_text(), lat)
    raise ConfigError("dualrep must be 'fix-a-coherent' or {'file': path}")


def _fix_a_menu_structure(lat: ScenarioLattice) -> OneStepStructure:
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    levels = tuple(
        tuple(menu for _ in range(lat.n_nodes(k)))
        for k in range(lat.n_times - 1)
    )
    return OneStepStructure(lat, levels)


def _node_table(X: RandomVariable) -> List[Tuple]:
    lat = X.lattice
    return [(i, lat.times[X.t], float(v)) for i, v in enumerate(X.values)]


def _task_eval(config, rng):
    lat = _load_lattice(config)
    rep = _load_dualrep(config, lat)
    pos = config.get("position")
    if pos is None:
        raise ConfigError("eval: a position {values: [...]} is required")
    X = RandomVariable(lat, rep.t, np.asarray(pos["values"], dtype=float))
    rho = rm_evaluate(rep, X)
    results = {"rho": [float(v) for v in rho.values], "s": rep.s, "t": rep.t}
    tables = {"eval.csv": [("node_id", "time", "value")] + _node_table(rho)}
    return results, {}, tables, EXIT_OK


def _task_penalty(config, rng):
    lat = _load_lattice(config)
    rep = _load_dualrep(config, lat)
    spec = config.get("query")
    if isinstance(spec, dict) and "iid_up" in spec:
        Q = iid_binary_measure(lat, float(spec["iid_up"]))
    elif isinstance(spec, dict) and "file" in spec:
        Q = measure_from_json(Path(spec["file"]).read_text(), lat)
    else:
        raise ConfigError("penalty: query must be {'iid_up': u} or {'file': path}")
    alpha = minimal_penalty(rep, Q)
    infeasible = bool(np.any(np.isinf(alpha.values)))
    if config.get("require_feasible", False) and infeasible:
        raise NumericGuard("penalty: the query is not representable at some node: "
                           "no mixture of the components reaches it")
    results = {
        "penalty": ["inf" if np.isinf(v) else float(v) for v in alpha.values],
        "infeasible_nodes": int(np.sum(np.isinf(alpha.values))),
    }
    tables = {"penalty.csv": [("node_id", "time", "value")] + _node_table(alpha)}
    return results, {}, tables, EXIT_OK


def _task_consistency(config, rng):
    lat = _load_lattice(config)
    spec = config.get("structure", "fix-a-menu")
    if spec == "fix-a-menu":
        structure = _fix_a_menu_structure(lat)
    elif isinstance(spec, dict) and "file" in spec:
        structure = onestep_from_json(Path(spec["file"]).read_text(), lat)
    else:
        raise ConfigError("structure must be 'fix-a-menu' or {'file': path}")
    dyn = DynamicRM(lat, structure)
    tol = float(config.get("tolerance", 1e-9))
    n = int(config.get("n_positions", 100))
    Xs = [random_rv(lat, int(rng.integers(1, lat.terminal + 1)), rng) for _ in range(n)]
    try:
        worst, (i, r, node) = dual_form_violation(dyn, Xs)
    except ValueError as exc:  # an expansion beyond expand_dual's cap
        raise ConfigError(f"consistency: {exc}")
    results = {"max_violation": worst, "witness_node": [r, node],
               "witness_X": [float(v) for v in Xs[i].values], "tolerance": tol}
    code = EXIT_OK if worst <= tol else EXIT_CHECK
    return results, {"dual_form": worst}, {}, code


def _task_stability(config, rng):
    lat = _load_lattice(config)
    spec = config.get("measures", "fix-a")
    if spec == "fix-a":
        members = [iid_binary_measure(lat, 0.5), iid_binary_measure(lat, 0.6)]
    elif isinstance(spec, list):
        members = [measure_from_json(Path(e["file"]).read_text(), lat) for e in spec]
    else:
        raise ConfigError("measures must be 'fix-a' or a list of {'file': path}")
    if config.get("use_hull", False):
        members = enumerate_selections(rectangular_hull(members),
                                       cap=int(config.get("cap", 4096)))
    stable, witness = is_stable(members, all_stopping_times(lat))
    results = {"stable": bool(stable), "members": len(members)}
    code = EXIT_OK if stable else EXIT_CHECK
    return results, {}, {}, code


def _refined_ask(payoff, band: VolatilityBand, grid: GridSpec) -> float:
    """The ask on the grid (h/2, dt/4) of the same extent and CFL ratio,
    evolved without recording a surface."""
    fine = GridSpec(grid.dt / 4, grid.h / 2, 2 * grid.radius, grid.horizon)
    if band.sigma_high.size > 1:  # a per-step band holds for 4 fine steps
        band = VolatilityBand(np.repeat(band.sigma_low, 4), np.repeat(band.sigma_high, 4))
    v = _evolve(np.asarray(payoff(fine.x), dtype=float), band, fine, fine.n_steps, 0)
    return float(v[fine.radius])


def _task_gexp(config, rng):
    band = VolatilityBand(config["band"]["sigma_low"], config["band"]["sigma_high"])
    g = config["grid"]
    grid = GridSpec(float(g["dt"]), float(g["h"]), int(g["radius"]),
                    float(g["horizon"]))
    kind = config.get("payoff", {}).get("kind", "square")
    if kind == "square":
        payoff = lambda x: np.asarray(x) ** 2
    elif kind == "call":
        payoff = lambda x: np.maximum(np.asarray(x), 0.0)
    elif kind == "abs":
        payoff = lambda x: np.abs(np.asarray(x))
    else:
        raise ConfigError(f"gexp: unknown payoff kind {kind!r}")
    method = config.get("method", "lattice")
    bid, ask, _, ask_surface = bid_ask(payoff, band, grid, method=method)
    results = {
        "bid": bid, "ask": ask, "value": ask, "method": method,
        "grid": {"dt": grid.dt, "h": grid.h, "radius": grid.radius,
                 "horizon": grid.horizon},
        "error_estimate": abs(ask - _refined_ask(payoff, band, grid)),
    }
    rows = [("t", "x", "value")]
    for k in range(ask_surface.shape[0]):
        for j, xv in enumerate(grid.x):
            rows.append((k * grid.dt, float(xv), float(ask_surface[k, j])))
    return results, {}, {"surface.csv": rows}, EXIT_OK


def _load_path(entry) -> StepPath:
    if isinstance(entry, dict) and "file" in entry:
        return path_from_json(Path(entry["file"]).read_text())
    return path_from_json(json.dumps(entry))


def _task_skorokhod(config, rng):
    paths = config.get("paths")
    if not isinstance(paths, list) or len(paths) != 2:
        raise ConfigError("skorokhod: exactly two paths are required")
    x, y = (_load_path(e) for e in paths)
    t = float(config.get("t", x.horizon or 1.0))
    M = int(config.get("M", 20))
    value, tail = dhat_distance(x, y, t, M=M)
    results = {"dhat": value, "tail_bound": tail, "t": t, "M": M}
    return results, {}, {}, EXIT_OK


def _task_acceptance(config, rng, seed):
    reports = run_all(seed)
    for rep in reports:
        status = "PASS" if rep["passed"] else "FAIL"
        print(f"{status} {rep['name']}: max_violation={rep['max_violation']:.3g} "
              f"tolerance={rep['tolerance']:.3g}")
    results = {"criteria": [
        {k: v for k, v in rep.items() if k != "runtime_seconds"} for rep in reports
    ]}
    violations = {rep["name"]: rep["max_violation"] for rep in reports}
    code = EXIT_OK if all(rep["passed"] for rep in reports) else EXIT_CHECK
    return results, violations, {}, code


def run_experiment(config: Dict, out_dir: str,
                   seed_override: Optional[int] = None) -> int:
    """Run one task and write report.json / run_meta.json / CSV tables."""
    diags = validate_config(config)
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG
    seed = int(seed_override if seed_override is not None
               else config.get("seed", 0))
    rng = np.random.default_rng(seed)
    task = config["task"]
    start = time.perf_counter()
    try:
        if task == "acceptance-suite":
            results, violations, tables, code = _task_acceptance(config, rng, seed)
        else:
            handler = {
                "eval": _task_eval, "penalty": _task_penalty,
                "consistency": _task_consistency, "stability": _task_stability,
                "gexp": _task_gexp, "skorokhod": _task_skorokhod,
            }[task]
            results, violations, tables, code = handler(config, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericGuard as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    report = {
        "task": task,
        "inputs_digest": digest,
        "seed": seed,
        "results": results,
        "max_violations": violations,
    }
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    for name, rows in tables.items():
        with open(out / name, "w") as fh:
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
    meta = {"runtime_seconds": time.perf_counter() - start,
            "artifacts": ["report.json"] + sorted(tables)}
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskdesk",
        description="Run a configured risk-engine experiment and write reports.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--validate-only", action="store_true",
                        help="check the config and exit without running")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.validate_only:
        diags = validate_config(config)
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_OK if not diags else EXIT_CONFIG
    return run_experiment(config, args.out, seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
