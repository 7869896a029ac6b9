import json

import numpy as np
import pytest

from riskdesk.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    _fix_a_menu_structure,
    main,
    validate_config,
)
from riskdesk.dynamics import DynamicRM, OneStepStructure, dual_form_violation, onestep_to_json
from riskdesk.fixtures import fix_a_lattice, random_rv
from riskdesk.gexp import GridSpec, VolatilityBand, robust_lattice_price
from riskdesk.oracles import call_upper_value


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


def test_validate_config_flags_missing_files(tmp_path):
    diags = validate_config({"task": "penalty",
                             "dualrep": {"file": str(tmp_path / "missing.json")}})
    assert any("does not exist" in d for d in diags)


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
    worst, (i, r, node) = dual_form_violation(DynamicRM(lat, _fix_a_menu_structure(lat)), Xs)
    assert results["max_violation"] == worst == report["max_violations"]["dual_form"]
    assert results["witness_node"] == [r, node]
    assert results["witness_X"] == Xs[i].values.tolist()


def test_consistency_rejects_a_structure_beyond_the_expansion_cap(tmp_path, capsys):
    # 17 choices at each of the 3 inner nodes: 17**3 = 4913 selections from 0 to 2
    lat = fix_a_lattice()
    menu = tuple((np.array([p, 1.0 - p]), 0.0) for p in np.linspace(0.1, 0.9, 17))
    structure = tmp_path / "structure.json"
    structure.write_text(onestep_to_json(OneStepStructure(lat, ((menu,), (menu, menu)))))
    doc = {"task": "consistency", "structure": {"file": str(structure)}}
    code, out = run(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert "selection count 4913 exceeds cap 4096" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_stability_task_and_hull_repair(tmp_path):
    code, out = run(tmp_path, {"task": "stability"})
    assert code == EXIT_CHECK
    assert read_report(out)["results"]["stable"] is False
    code, out = run(tmp_path, {"task": "stability", "use_hull": True})
    assert code == EXIT_OK
    report = read_report(out)
    assert report["results"]["stable"] is True
    assert report["results"]["members"] == 8


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


def test_gexp_validation_rejects_an_unknown_method(tmp_path, capsys):
    doc = {"task": "gexp", "method": "fd",
           "band": {"sigma_low": 0.1, "sigma_high": 0.2},
           "grid": {"dt": 0.005, "h": 0.05, "radius": 40, "horizon": 1.0}}
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--validate-only"]) == EXIT_CONFIG
    assert "method must be 'lattice' or 'pde', got 'fd'" in capsys.readouterr().err


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
