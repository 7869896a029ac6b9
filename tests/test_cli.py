import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from riskdesk import cli
from riskdesk.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    _fix_a_menu_structure,
    _node_table,
    _surface_table,
    main,
)
from riskdesk.dynamics import OneStepStructure, dual_form_violation, onestep_to_json
from riskdesk.fixtures import fix_a_lattice, iid_binary_measure, random_rv
from riskdesk.lattice import RandomVariable, lattice_to_json, uniform_tree
from riskdesk.gexp import GridSpec, VolatilityBand, robust_lattice_price
from riskdesk.measures import measure_to_json
from riskdesk.oracles import call_upper_value
from riskdesk.skorokhod import path_from_json, path_to_json


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc, extra=()):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    return main(["--config", cfg, "--out", str(out), *extra]), out


def read_report(out):
    return json.loads((out / "report.json").read_text())


def test_validate_only_good_config(tmp_path, capsys):
    doc = {"task": "eval", "position": {"values": [2.0, 0.0, 0.0, -2.0]}}
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--validate-only"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_validate_only_reports_diagnostics(tmp_path, capsys):
    doc = {"task": "everything", "seed": -3}
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--validate-only"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "task must be one of" in err


def test_invalid_json_names_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"task": "eval",\n  "seed": }')
    assert main(["--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "broken.json:2:" in err and "invalid JSON" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_validate_config_flags_missing_files(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    cfg = write_config(tmp_path, {"task": "penalty", "dualrep": {"file": missing}})
    assert main(["--config", cfg, "--validate-only"]) == EXIT_CONFIG
    assert missing in capsys.readouterr().err


def write_wide_structure(path):
    """A fix-a menu with 17 choices at each of the 3 inner nodes: 17**3 = 4913
    selections from 0 to 2, past expand_dual's cap of 4096."""
    lat = fix_a_lattice()
    menu = tuple((np.array([p, 1.0 - p]), 0.0) for p in np.linspace(0.1, 0.9, 17))
    path.write_text(onestep_to_json(OneStepStructure(lat, ((menu,), (menu, menu)))))


# paths relative to the working directory, which the test sets to tmp_path
WIDE_STRUCTURE = "wide-structure.json"
# a fix-a query measure with a kernel at node (1, 2), past the end of time 1
BAD_QUERY = "bad-query.json"
BAD_QUERY_TEXT = json.dumps({"kernels": [{"node": node, "weights": [1, 1]}
                                         for node in ([0, 0], [1, 0], [1, 1], [1, 2])]})

GEXP = {"task": "gexp", "band": {"sigma_low": 0.1, "sigma_high": 0.2},
        "grid": {"dt": 0.005, "h": 0.05, "radius": 40, "horizon": 1.0}}
SKOROKHOD_PATH = {"domain": {"kind": "half_open", "t": 1.0},
                  "jumps": [{"time": 0.3, "value": [1.0]}]}


def bad_real_config(name, value):
    """A config whose real-valued field ``name`` is ``value``."""
    if name == "tolerance":
        return {"task": "consistency", "n_positions": 5, name: value}
    if name == "iid_up":
        return {"task": "penalty", "query": {name: value}}
    if name == "t":
        return {"task": "skorokhod", "paths": [SKOROKHOD_PATH] * 2, name: value}
    if name == "position.values":
        return {"task": "eval", "position": {"values": value}}
    # a grid on which dt = 1.0 and sigma = 1.0 meet the stability bound
    grid = {"dt": 0.25, "h": 1.0, "radius": 4, "horizon": 1.0}
    if name in ("sigma_low", "sigma_high"):
        return {**GEXP, "grid": grid, "band": {**GEXP["band"], name: value}}
    return {**GEXP, "grid": {**grid, name: value}}


# each must exit 1: bools, strings, NaN, infinities and a negative tolerance
BAD_REALS = [(name, value) for name, values in (
    ("tolerance", (True, float("nan"), -1, "1e-9", float("inf"))),
    ("dt", (True,)), ("h", (float("nan"), float("inf"))), ("horizon", (True,)),
    ("t", (True, float("nan"))), ("iid_up", (True, float("nan"), "0.6")),
    ("sigma_high", (True, [0.2, True])), ("sigma_low", ("0.1",)),
    ("position.values", ([True, False, "2", 0], 1.0)),
) for value in values]
BAD_REAL_IDS = [f"{name}-{value!r}" for name, value in BAD_REALS]


@pytest.mark.parametrize("doc, extra", [
    ({**GEXP, "payoff": {"kind": "put"}}, ()),
    ({"task": "eval"}, ()),
    ({"task": "eval", "position": {"values": [1.0, 2.0, 3.0]}}, ()),
    ({"task": "eval", "lattice": "fix-b", "position": {"values": [0.0] * 4}}, ()),
    ({"task": "penalty"}, ()),
    ({"task": "skorokhod", "paths": [SKOROKHOD_PATH] * 3}, ()),
    ({"task": "consistency", "structure": "fix-b-menu"}, ()),
    ({"task": "stability", "measures": "fix-b"}, ()),
    ({**GEXP, "grid": {**GEXP["grid"], "radius": 40.9}}, ()),
    ({**GEXP, "grid": {**GEXP["grid"], "radius": True}}, ()),
    ({"task": "skorokhod", "M": 2.7, "paths": [SKOROKHOD_PATH] * 2}, ()),
    ({"task": "consistency", "seed": True}, ()),
    ({"task": "consistency"}, ("--seed", "-5")),
    ({**GEXP, "payoff": "call"}, ()),
    ({"task": "penalty", "query": {"iid_up": 0.9}, "require_feasible": "no"}, ()),
    ({"task": "stability", "use_hull": 1}, ()),
    ({"task": "consistency", "structure": {"file": WIDE_STRUCTURE}}, ()),
    ({"task": "skorokhod", "t": 2.0, "paths": [SKOROKHOD_PATH] * 2}, ()),
    ({"task": "skorokhod", "t": -1.0,
      "paths": [{"domain": {"kind": "half_open", "t": -1.0}, "jumps": []}] * 2}, ()),
    ({"task": "skorokhod", "paths": [
        {"domain": {"kind": "half_open", "t": 1.0}, "jumps": [{"time": 0.3, "value": [1.0] * d}]}
        for d in (2, 3)]}, ()),
    ({"task": "penalty", "query": {"file": BAD_QUERY}}, ()),
    *((bad_real_config(name, value), ()) for name, value in BAD_REALS),
], ids=["payoff-kind", "no-position", "short-position", "fix-b", "no-query",
        "three-paths", "structure-spec", "measures-spec", "radius", "radius-true", "M",
        "seed-true", "seed-override", "payoff-string", "require-feasible-string",
        "use-hull-int", "expansion-cap", "t-off-horizon", "negative-horizon", "path-dimensions",
        "query-node-past-the-end", *BAD_REAL_IDS])
def test_validate_only_agrees_with_a_run(tmp_path, monkeypatch, capsys, doc, extra):
    monkeypatch.chdir(tmp_path)
    write_wide_structure(tmp_path / WIDE_STRUCTURE)
    (tmp_path / BAD_QUERY).write_text(BAD_QUERY_TEXT)
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--validate-only", *extra]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    code, out = run(tmp_path, doc, extra)
    assert code == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("name, value", BAD_REALS, ids=BAD_REAL_IDS)
def test_bad_real_fields_are_named(tmp_path, capsys, name, value):
    cfg = write_config(tmp_path, bad_real_config(name, value))
    assert main(["--config", cfg, "--validate-only"]) == EXIT_CONFIG
    assert f"{name} must be" in capsys.readouterr().err


def test_eval_task(tmp_path):
    doc = {"task": "eval", "seed": 1,
           "position": {"values": [2.0, 0.0, 0.0, -2.0]}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    report = read_report(out)
    assert report["results"]["rho"] == [0.0]
    lines = (out / "eval.csv").read_text().strip().splitlines()
    assert lines[0] == "node_id,time,value"
    assert len(lines) == 2


def test_penalty_task_infeasible(tmp_path):
    doc = {"task": "penalty", "query": {"iid_up": 0.9}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    assert read_report(out)["results"]["penalty"] == ["inf"]
    doc["require_feasible"] = True
    code, _ = run(tmp_path, doc)
    assert code == EXIT_NUMERIC


def test_penalty_task_member(tmp_path):
    doc = {"task": "penalty", "query": {"iid_up": 0.6}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    report = read_report(out)
    assert report["results"]["penalty"] == [0.0]
    assert report["results"]["infeasible_nodes"] == 0


def test_consistency_task(tmp_path):
    doc = {"task": "consistency", "seed": 5, "n_positions": 20}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    results = read_report(out)["results"]
    assert set(results) >= {"max_violation", "witness_node", "witness_X",
                            "tolerance"}
    assert results["max_violation"] <= results["tolerance"]
    assert results["witness_node"] is not None and results["witness_X"] is not None


def test_consistency_witness_is_the_dual_form_witness(tmp_path):
    doc = {"task": "consistency", "seed": 11, "n_positions": 30}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    report = read_report(out)
    results = report["results"]
    lat = fix_a_lattice()
    rng = np.random.default_rng(11)
    Xs = [random_rv(lat, int(rng.integers(1, lat.terminal + 1)), rng) for _ in range(30)]
    worst, (i, r, node) = dual_form_violation(_fix_a_menu_structure(lat), Xs)
    assert results["max_violation"] == worst == report["max_violations"]["dual_form"]
    assert results["witness_node"] == [r, node]
    assert results["witness_X"] == Xs[i].values.tolist()


def test_consistency_rejects_a_structure_beyond_the_expansion_cap(tmp_path, capsys):
    structure = tmp_path / "structure.json"
    write_wide_structure(structure)
    doc = {"task": "consistency", "structure": {"file": str(structure)}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert "consistency: selection count 4913 exceeds cap 4096" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def file_inputs(tmp_path):
    """(file spec, built-in or inline spec) config pairs: a lattice file, a
    penalty query file, a stability measures list and a skorokhod path file."""
    lat = fix_a_lattice()

    def spec(name, text):
        (tmp_path / name).write_text(text)
        return {"file": str(tmp_path / name)}

    fair, biased = (spec(f"q{u}.json", measure_to_json(iid_binary_measure(lat, u)))
                    for u in (0.5, 0.6))
    path = spec("path.json", path_to_json(path_from_json(json.dumps(SKOROKHOD_PATH))))
    other = {"domain": {"kind": "half_open", "t": 1.0},
             "jumps": [{"time": 0.4, "value": [1.0]}]}
    eval_doc = {"task": "eval", "position": {"values": [2.0, -1.0, 0.5, -2.0]}}
    return {
        "lattice": ({**eval_doc, "lattice": spec("lattice.json", lattice_to_json(lat))},
                    eval_doc),
        # a member of fix-a-coherent, priced at 0; a law off their mixtures is +inf
        "query": ({"task": "penalty", "query": biased},
                  {"task": "penalty", "query": {"iid_up": 0.6}}),
        "measures": ({"task": "stability", "measures": [fair, biased], "use_hull": True},
                     {"task": "stability", "measures": "fix-a", "use_hull": True}),
        "path": ({"task": "skorokhod", "paths": [path, other]},
                 {"task": "skorokhod", "paths": [SKOROKHOD_PATH, other]}),
    }


@pytest.mark.parametrize("name", ["lattice", "query", "measures", "path"])
def test_file_inputs_match_their_built_in_specs(tmp_path, name):
    from_file, built_in = file_inputs(tmp_path)[name]
    code_file, out_file = run(tmp_path, from_file)
    (out_file / "report.json").rename(tmp_path / "from-file.json")
    code, out = run(tmp_path, built_in)
    assert code_file == code
    assert json.loads((tmp_path / "from-file.json").read_text())["results"] == \
        read_report(out)["results"]


def test_stability_task_and_hull_repair(tmp_path):
    code, out = run(tmp_path, {"task": "stability"})
    assert code == EXIT_CHECK
    assert read_report(out)["results"]["stable"] is False
    code, out = run(tmp_path, {"task": "stability", "use_hull": True})
    assert code == EXIT_OK
    report = read_report(out)
    assert report["results"]["stable"] is True
    assert report["results"]["members"] == 8


def test_stability_task_on_a_five_period_lattice(tmp_path):
    # more than 10,000 stopping times: the check pastes at one node at a time
    lattice = tmp_path / "lattice.json"
    lattice.write_text(lattice_to_json(uniform_tree(range(6), [1.0, -1.0])))
    code, out = run(tmp_path, {"task": "stability", "measures": "fix-a",
                               "lattice": {"file": str(lattice)}})
    assert code == EXIT_CHECK
    assert read_report(out)["results"] == {"members": 2, "stable": False}


def test_gexp_task(tmp_path):
    doc = {"task": "gexp",
           "band": {"sigma_low": 0.1, "sigma_high": 0.2},
           "grid": {"dt": 0.005, "h": 0.05, "radius": 40, "horizon": 1.0},
           "payoff": {"kind": "square"}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    results = read_report(out)["results"]
    assert results["ask"] == pytest.approx(0.04, abs=2e-3)
    assert results["bid"] == pytest.approx(0.01, abs=1e-3)
    assert results["error_estimate"] <= 1e-3
    header = (out / "surface.csv").read_text().splitlines()[0]
    assert header == "t,x,value"


def test_gexp_task_runs_a_config_that_names_a_method_unchanged(tmp_path):
    # "lattice" and "pde" named the same evolution; a config may still carry
    # the key, and the report no longer echoes it
    doc = {"task": "gexp",
           "band": {"sigma_low": 0.1, "sigma_high": 0.2},
           "grid": {"dt": 0.005, "h": 0.05, "radius": 40, "horizon": 1.0},
           "payoff": {"kind": "call"}}
    reports = []
    for extra in ({}, {"method": "lattice"}, {"method": "pde"}):
        code, out = run(tmp_path, {**doc, **extra})
        assert code == EXIT_OK
        reports.append(read_report(out)["results"])
    assert reports[0] == reports[1] == reports[2] and "method" not in reports[0]


@pytest.mark.parametrize("grid", [
    {"dt": 0.005, "h": 0.05, "radius": 40, "horizon": 1.0},
    {"dt": 1e-3, "h": 0.01, "radius": 100, "horizon": 1.0},
])
def test_gexp_error_estimate_tracks_the_closed_form_error(tmp_path, grid):
    doc = {"task": "gexp", "band": {"sigma_low": 0.1, "sigma_high": 0.2},
           "grid": grid, "payoff": {"kind": "call"}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    results = read_report(out)["results"]
    error = abs(results["ask"] - call_upper_value(0.2, 1.0))
    assert 0.5 * error <= results["error_estimate"] <= error
    # refined to h/2 and dt/4 over the same extent
    fine = GridSpec(grid["dt"] / 4, grid["h"] / 2, 2 * grid["radius"], 1.0)
    refined, _ = robust_lattice_price(lambda x: np.maximum(x, 0.0),
                                      VolatilityBand(0.1, 0.2), fine)
    assert results["error_estimate"] == abs(results["ask"] - refined)


def test_gexp_error_estimate_refines_a_per_step_band(tmp_path):
    grid = {"dt": 0.005, "h": 0.05, "radius": 40, "horizon": 1.0}
    estimates = []
    for band in ({"sigma_low": 0.1, "sigma_high": 0.2},
                 {"sigma_low": [0.1] * 200, "sigma_high": [0.2] * 200}):
        code, out = run(tmp_path, {"task": "gexp", "band": band, "grid": grid,
                                   "payoff": {"kind": "call"}})
        assert code == EXIT_OK
        estimates.append(read_report(out)["results"]["error_estimate"])
    assert estimates[0] == estimates[1] > 0.0


@pytest.mark.parametrize("doc, message", [
    ([{"task": "eval"}], "a config must be a JSON object"),
    ({"task": "gexp", "grid": {"dt": 0.005, "h": 0.05, "radius": 40, "horizon": 1.0}},
     "gexp: missing key 'band'"),
    ({"task": "eval", "dualrep": "bogus", "position": {"values": [0.0] * 4}},
     "dualrep must be 'fix-a-coherent' or {'file': path}"),
], ids=["not-an-object", "missing-key", "unknown-dualrep"])
def test_malformed_configs_are_rejected(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--validate-only"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_gexp_cfl_guard(tmp_path, capsys):
    doc = {"task": "gexp",
           "band": {"sigma_low": 0.1, "sigma_high": 0.2},
           "grid": {"dt": 0.01, "h": 0.01, "radius": 40, "horizon": 1.0}}
    cfg = write_config(tmp_path, doc)
    # validation already rejects the unstable grid with the bound in the message
    assert main(["--config", cfg, "--validate-only"]) == EXIT_CONFIG
    assert "stability bound" in capsys.readouterr().err


def test_gexp_unstable_grid_full_run_exits_1_without_a_report(tmp_path, capsys):
    doc = {"task": "gexp",
           "band": {"sigma_low": 0.1, "sigma_high": 0.2},
           "grid": {"dt": 0.01, "h": 0.01, "radius": 40, "horizon": 1.0}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert "stability bound" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("grid, band, message", [
    ({"dt": 0.3, "h": 1.0, "radius": 4, "horizon": 1.0},
     {"sigma_low": 0.1, "sigma_high": 0.2}, "not a multiple of dt"),
    ({"dt": 0.25, "h": 1.0, "radius": 4, "horizon": 1.0},
     {"sigma_low": [0.1] * 3, "sigma_high": [0.2] * 3}, "per-step band"),
])
def test_gexp_rejects_off_grid_inputs(tmp_path, capsys, grid, band, message):
    code, out = run(tmp_path, {"task": "gexp", "grid": grid, "band": band})
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_skorokhod_task(tmp_path):
    doc = {"task": "skorokhod", "t": 1.0, "M": 12,
           "paths": [
               {"domain": {"kind": "half_open", "t": 1.0},
                "jumps": [{"time": 0.3, "value": [1.0]}]},
               {"domain": {"kind": "half_open", "t": 1.0},
                "jumps": [{"time": 0.3, "value": [1.0]}]},
           ]}
    code, out = run(tmp_path, doc)
    assert code == EXIT_OK
    results = read_report(out)["results"]
    assert results["dhat"] == 0.0
    assert results["tail_bound"] == 2.0 ** -12


def test_acceptance_suite_task_reports_each_criterion(tmp_path, monkeypatch, capsys):
    def reports(seed):
        return [{"name": "holds", "passed": True, "max_violation": 0.0, "tolerance": 1e-9,
                 "details": {}, "runtime_seconds": 0.5},
                {"name": "breaks", "passed": False, "max_violation": float("inf"),
                 "tolerance": 1.0, "details": {"flag": False}, "runtime_seconds": 0.25}]

    monkeypatch.setattr(cli, "run_all", reports)
    code, out = run(tmp_path, {"task": "acceptance-suite"})
    assert code == EXIT_CHECK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS", "FAIL"]
    assert lines[1] == "FAIL breaks: max_violation=inf tolerance=1"
    report = read_report(out)
    assert report["max_violations"] == {"holds": 0.0, "breaks": float("inf")}
    assert [c["name"] for c in report["results"]["criteria"]] == ["holds", "breaks"]
    assert "runtime_seconds" not in (out / "report.json").read_text()


def test_reports_are_byte_identical(tmp_path):
    doc = {"task": "consistency", "seed": 9, "n_positions": 10}
    code1, out1 = run(tmp_path, doc)
    cfg = write_config(tmp_path, doc, name="again.json")
    out2 = tmp_path / "out2"
    code2 = main(["--config", cfg, "--out", str(out2)])
    assert code1 == code2 == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    meta = json.loads((out1 / "run_meta.json").read_text())
    assert "runtime_seconds" in meta and "report.json" in meta["artifacts"]


def test_seed_override_changes_digest_inputs_not(tmp_path):
    doc = {"task": "consistency", "seed": 9, "n_positions": 10}
    code, out = run(tmp_path, doc, extra=("--seed", "123"))
    assert code == EXIT_OK
    report = read_report(out)
    assert report["seed"] == 123


CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


@pytest.mark.parametrize("config, table, digest", [
    ("gexp.json", "surface.csv",
     "9da869fe2534801921a2ffb7c0f8b7156d2bedac12378481412849d2d4f87edf"),
    ("eval.json", "eval.csv",
     "e48b325df741253e578143c1ae15a1b1e20cea65999b3ce74147d8f4e851f280"),
    ("penalty.json", "penalty.csv",
     "1774c5a76d8b13799ba0c0763ab730a92ddb6db59cc72ebd04ede04a3d47390d"),
])
def test_demo_config_tables_are_golden(tmp_path, config, table, digest):
    # digests of the tables written cell by cell, before tables were streamed
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / config), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256((out / table).read_bytes()).hexdigest() == digest


def cell_by_cell(rows):
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def test_streamed_tables_match_the_cell_by_cell_text():
    lat = fix_a_lattice()
    X = RandomVariable(lat, 2, [np.inf, 0.1, -0.0, 1e-20], allow_infinite=True)
    expected = cell_by_cell([("node_id", "time", "value")]
                            + [(i, 2.0, float(v)) for i, v in enumerate(X.values)])
    assert "".join(_node_table(X)) == expected
    assert "0,2.0,inf\n" in expected

    grid = GridSpec(0.25, 0.1, 3, 1.0)
    surface = np.random.default_rng(4).normal(size=(5, 7)) ** 9
    surface[1, 2], surface[3, 0] = -0.0, np.inf
    expected = cell_by_cell([("t", "x", "value")] + [
        (k * grid.dt, float(x), float(surface[k, j]))
        for k in range(5) for j, x in enumerate(grid.x)])
    assert "".join(_surface_table(surface, grid)) == expected
