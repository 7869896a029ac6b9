"""Config-driven command-line runner.

Reads a JSON experiment config, runs one task (eval, penalty, consistency,
stability, gexp, skorokhod, acceptance-suite) and writes machine-readable
artifacts into the output directory:

    report.json    deterministic given (config, seed): task, input digest,
                   seed, results, max_violations, tolerances
    run_meta.json  wall-clock runtime and artifact list (non-deterministic,
                   kept out of the main report so reports stay byte-identical)
    *.csv          node tables (node_id, time, value) or surfaces (t, x, value),
                   each streamed to its file in text chunks

Each task handler parses and checks everything its task reads, then hands
back a ``run()`` that computes.  ``--validate-only`` runs that same parsing
and stops, so it exits 1 exactly when a run would stop on a config error
before computing.

Exit codes: 0 success, 1 config/schema error (a grid that violates the
stability bound included, and any input a constructor rejects), 2 numeric
guard (infeasible LP where feasibility was required), 3 check failure above
tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from .acceptance import run_all
from .dynamics import (_EXPANSION_CAP, OneStepStructure, _selection_sizes,
                       dual_form_violation, onestep_from_json)
from .fixtures import fix_a_lattice, iid_binary_measure, random_rv
from .gexp import GridSpec, VolatilityBand, _evolve, _on_grid, bid_ask
from .lattice import RandomVariable, ScenarioLattice, lattice_from_json
from .measures import measure_from_json
from .risk import DualRep, dualrep_from_json, minimal_penalty, rm_evaluate
from .skorokhod import StepPath, _prepared, dhat_distance, path_from_json
from .stability import enumerate_selections, is_stable, rectangular_hull

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


def _node_table(X: RandomVariable) -> Iterator[str]:
    """CSV text of a node table: one line per node of X's date."""
    t = X.lattice.times[X.t]
    yield "node_id,time,value\n"
    yield "".join(f"{i},{t},{v}\n" for i, v in enumerate(X.values.tolist()))


def _surface_table(surface: np.ndarray, grid: GridSpec) -> Iterator[str]:
    """CSV text of a surface, one chunk per time row.  The x column is
    formatted once; each row joins its t into a %-template and fills in the
    values with ``%r``, the ``str`` of a float."""
    yield "t,x,value\n"
    cells = [f",{x},%r\n" for x in grid.x.tolist()]
    for k, row in enumerate(surface):
        t = str(k * grid.dt)
        yield (t + t.join(cells)) % tuple(row.tolist())


def _integer(value, name: str, least: int) -> int:
    """value itself when it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """value as a float when it is a finite JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:  # False for NaN
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _reals(value, name: str) -> List[float]:
    """value as a list of floats when it is a list of finite JSON numbers
    (not bools)."""
    if isinstance(value, list):
        try:
            return [_real(v, name) for v in value]
        except ConfigError:
            pass
    raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")


def _flag(config: Dict, name: str) -> bool:
    """config[name] when it is a JSON boolean; false when absent."""
    value = config.get(name, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _task_eval(config, seed):
    lat = _load_lattice(config)
    rep = _load_dualrep(config, lat)
    pos = config.get("position")
    if pos is None:
        raise ConfigError("eval: a position {values: [...]} is required")
    X = RandomVariable(lat, rep.t, np.array(_reals(pos["values"], "position.values")))

    def run():
        rho = rm_evaluate(rep, X)
        results = {"rho": [float(v) for v in rho.values], "s": rep.s, "t": rep.t}
        return results, {}, {"eval.csv": _node_table(rho)}, EXIT_OK
    return run


def _task_penalty(config, seed):
    lat = _load_lattice(config)
    rep = _load_dualrep(config, lat)
    spec = config.get("query")
    if isinstance(spec, dict) and "iid_up" in spec:
        Q = iid_binary_measure(lat, _real(spec["iid_up"], "iid_up"))
    elif isinstance(spec, dict) and "file" in spec:
        Q = measure_from_json(Path(spec["file"]).read_text(), lat)
    else:
        raise ConfigError("penalty: query must be {'iid_up': u} or {'file': path}")
    require_feasible = _flag(config, "require_feasible")

    def run():
        alpha = minimal_penalty(rep, Q)
        infeasible = bool(np.any(np.isinf(alpha.values)))
        if require_feasible and infeasible:
            raise NumericGuard("penalty: the query is not representable at some node: "
                               "no mixture of the components reaches it")
        results = {
            "penalty": ["inf" if np.isinf(v) else float(v) for v in alpha.values],
            "infeasible_nodes": int(np.sum(np.isinf(alpha.values))),
        }
        return results, {}, {"penalty.csv": _node_table(alpha)}, EXIT_OK
    return run


def _task_consistency(config, seed):
    lat = _load_lattice(config)
    spec = config.get("structure", "fix-a-menu")
    if spec == "fix-a-menu":
        structure = _fix_a_menu_structure(lat)
    elif isinstance(spec, dict) and "file" in spec:
        structure = onestep_from_json(Path(spec["file"]).read_text(), lat)
    else:
        raise ConfigError("structure must be 'fix-a-menu' or {'file': path}")
    tol = _real(config.get("tolerance", 1e-9), "tolerance")
    if tol < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tol!r}")
    n = _integer(config.get("n_positions", 100), "n_positions", 1)
    rng = np.random.default_rng(seed)
    Xs = [random_rv(lat, int(rng.integers(1, lat.terminal + 1)), rng) for _ in range(n)]
    # the largest expansion the check makes, from 0 to the latest position date
    _selection_sizes(structure, 0, max(X.t for X in Xs), _EXPANSION_CAP)

    def run():
        worst, (i, r, node) = dual_form_violation(structure, Xs)
        results = {"max_violation": worst, "witness_node": [r, node],
                   "witness_X": [float(v) for v in Xs[i].values], "tolerance": tol}
        code = EXIT_OK if worst <= tol else EXIT_CHECK
        return results, {"dual_form": worst}, {}, code
    return run


def _task_stability(config, seed):
    lat = _load_lattice(config)
    spec = config.get("measures", "fix-a")
    if spec == "fix-a":
        members = [iid_binary_measure(lat, 0.5), iid_binary_measure(lat, 0.6)]
    elif isinstance(spec, list):
        members = [measure_from_json(Path(e["file"]).read_text(), lat) for e in spec]
    else:
        raise ConfigError("measures must be 'fix-a' or a list of {'file': path}")
    if _flag(config, "use_hull"):
        members = enumerate_selections(rectangular_hull(members),
                                       cap=_integer(config.get("cap", _EXPANSION_CAP), "cap", 1))

    def run():
        stable, witness = is_stable(members)
        results = {"stable": bool(stable), "members": len(members)}
        return results, {}, {}, EXIT_OK if stable else EXIT_CHECK
    return run


def _error_terms(payoff, band: VolatilityBand, grid: GridSpec, ask: float) -> dict:
    """How far the ask moves on two other grids, each evolved without
    recording a surface: "refinement" on (h/2, dt/4) over the same extent
    and CFL ratio, and "extent" on the same dt and h with the radius
    doubled.  Refinement at the same extent cannot see the error of the
    zero-curvature boundary; doubling the extent moves the boundary away."""
    fine = GridSpec(grid.dt / 4, grid.h / 2, 2 * grid.radius, grid.horizon)
    wide = GridSpec(grid.dt, grid.h, 2 * grid.radius, grid.horizon)
    fine_band = band
    if band.sigma_high.size > 1:  # a per-step band holds for 4 fine steps
        fine_band = VolatilityBand(np.repeat(band.sigma_low, 4), np.repeat(band.sigma_high, 4))
    terms = {}
    for name, g, b in (("refinement", fine, fine_band), ("extent", wide, band)):
        v = _evolve(_on_grid(payoff(g.x), g.x.shape), b, g, g.n_steps, 0)
        terms[name] = abs(ask - float(v[g.radius]))
    return terms


_PAYOFFS = {"square": lambda x: np.asarray(x) ** 2,
            "call": lambda x: np.maximum(np.asarray(x), 0.0),
            "abs": lambda x: np.abs(np.asarray(x))}


def _task_gexp(config, seed):
    spec = config["band"]  # each volatility is a number or a per-step list
    band = VolatilityBand(*((_reals if isinstance(spec[n], list) else _real)(spec[n], n)
                            for n in ("sigma_low", "sigma_high")))
    g = config["grid"]
    grid = GridSpec(_real(g["dt"], "dt"), _real(g["h"], "h"), _integer(g["radius"], "radius", 1),
                    _real(g["horizon"], "horizon"))
    grid.check_cfl(band)
    payoff = config.get("payoff", {})
    if not isinstance(payoff, dict):
        raise ConfigError(f"gexp: payoff must be an object {{'kind': ...}}, got {payoff!r}")
    kind = payoff.get("kind", "square")
    if kind not in _PAYOFFS:
        raise ConfigError(f"gexp: unknown payoff kind {kind!r}")
    payoff = _PAYOFFS[kind]

    def run():
        bid, ask, _, ask_surface = bid_ask(payoff, band, grid)
        results = {
            "bid": bid, "ask": ask, "value": ask,
            "grid": {"dt": grid.dt, "h": grid.h, "radius": grid.radius,
                     "horizon": grid.horizon},
        }
        terms = results["error_terms"] = _error_terms(payoff, band, grid, ask)
        results["error_estimate"] = terms["refinement"] + terms["extent"]
        return results, {}, {"surface.csv": _surface_table(ask_surface, grid)}, EXIT_OK
    return run


def _load_path(entry) -> StepPath:
    if isinstance(entry, dict) and "file" in entry:
        return path_from_json(Path(entry["file"]).read_text())
    return path_from_json(json.dumps(entry))


def _task_skorokhod(config, seed):
    paths = config.get("paths")
    if not isinstance(paths, list) or len(paths) != 2:
        raise ConfigError("skorokhod: exactly two paths are required")
    x, y = (_load_path(e) for e in paths)
    t = _real(config.get("t", x.horizon or 1.0), "t")
    if x.horizon != t or y.horizon != t:
        raise ConfigError(f"skorokhod: both paths must live on [0, t) with t={t}, "
                          f"got horizons {x.horizon} and {y.horizon}")
    M = _integer(config.get("M", 20), "M", 1)
    _prepared(x, y)  # raises on dimensions that do not broadcast

    def run():
        value, tail = dhat_distance(x, y, t, M=M)
        return {"dhat": value, "tail_bound": tail, "t": t, "M": M}, {}, {}, EXIT_OK
    return run


def _task_acceptance(config, seed):
    def run():
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
    return run


TASKS = {"eval": _task_eval, "penalty": _task_penalty,
         "consistency": _task_consistency, "stability": _task_stability,
         "gexp": _task_gexp, "skorokhod": _task_skorokhod,
         "acceptance-suite": _task_acceptance}


def _prepare(config: Dict, seed_override: Optional[int] = None):
    """(task, seed, run) for a config: everything the task reads is parsed
    and checked here, and any rejected input is raised as a ConfigError."""
    if not isinstance(config, dict):
        raise ConfigError("a config must be a JSON object")
    task = config.get("task")
    if not isinstance(task, str) or task not in TASKS:
        raise ConfigError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    seed = _integer(config.get("seed", 0) if seed_override is None else seed_override,
                    "seed", 0)
    try:
        return task, seed, TASKS[task](config, seed)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{task}: missing key {exc}") from exc
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{task}: {exc}") from exc


def run_experiment(config: Dict, out_dir: str,
                   seed_override: Optional[int] = None) -> int:
    """Run one task and write report.json / run_meta.json / CSV tables."""
    start = time.perf_counter()
    try:
        task, seed, run = _prepare(config, seed_override)
        results, violations, tables, code = run()
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
    for name, chunks in tables.items():
        with open(out / name, "w") as fh:
            fh.writelines(chunks)
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
                        help="parse and check the config as a run would, then exit")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.validate_only:
            _prepare(config, args.seed)
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run_experiment(config, args.out, seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
