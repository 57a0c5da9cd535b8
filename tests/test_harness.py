"""Scenario parsing, command reports, output formats, CLI exit codes."""

import csv
import json

import pytest

from bundlehodge.cli import main as cli_main
from bundlehodge.errors import ConfigError
from bundlehodge.harness import (
    Scenario,
    cmd_lie_check,
    cmd_pages,
    cmd_report,
    cmd_verify_cs1,
    load_scenario,
    packaged_scenario_path,
)


def load_fixture(name):
    return load_scenario(packaged_scenario_path(name))


def test_all_packaged_scenarios_parse():
    for name in (
        "t2_u1_c1zero",
        "t2_u1_c1nonzero",
        "t4_su2_cs3",
        "t4_su2_flat",
        "t3_su2_pages",
    ):
        scenario = load_fixture(name)
        assert scenario.name == name
        assert all(b >= 0 for b in scenario.bands)
        assert all(0 < d <= 1 for d in scenario.delta_grid)


def test_scenario_rejects_bad_dim():
    with pytest.raises(ConfigError):
        Scenario({"name": "x", "geometry": {"dim": 7}, "algebra": {"name": "u1"}, "connection": {"components": []}})


def test_scenario_rejects_bad_delta():
    cfg = {
        "name": "x",
        "geometry": {"dim": 2},
        "algebra": {"name": "u1"},
        "connection": {"components": []},
        "delta_grid": ["2.0"],
    }
    with pytest.raises(ConfigError):
        Scenario(cfg)


def test_scenario_rejects_negative_tolerance():
    cfg = {
        "name": "x",
        "geometry": {"dim": 2},
        "algebra": {"name": "u1"},
        "connection": {"components": []},
        "tolerances": {"tau_rank": "-1"},
    }
    with pytest.raises(ConfigError):
        Scenario(cfg)


def test_scenario_rejects_unknown_algebra():
    cfg = {
        "name": "x",
        "geometry": {"dim": 2},
        "algebra": {"name": "e8"},
        "connection": {"components": []},
    }
    with pytest.raises(ConfigError):
        Scenario(cfg)


def test_scenario_number_parsing_rejects_garbage():
    cfg = {
        "name": "x",
        "geometry": {"dim": 2},
        "algebra": {"name": "u1", "scale": "one"},
        "connection": {"components": []},
    }
    with pytest.raises(ConfigError):
        Scenario(cfg)


def test_custom_algebra_from_structure_constants():
    cfg = {
        "name": "x",
        "geometry": {"dim": 2},
        "algebra": {
            "dim": 3,
            "structure_constants": [
                [0, 1, 2, "1"], [1, 0, 2, "-1"],
                [1, 2, 0, "1"], [2, 1, 0, "-1"],
                [2, 0, 1, "1"], [0, 2, 1, "-1"],
            ],
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
        "connection": {"components": []},
    }
    scenario = Scenario(cfg)
    assert scenario.algebra.dim == 3
    assert scenario.algebra.is_semisimple()


def test_cmd_lie_check_writes_report(tmp_path):
    scenario = load_fixture("t2_u1_c1zero")
    report = cmd_lie_check(scenario, out_dir=str(tmp_path), quiet=True)
    assert report["passed"]
    path = tmp_path / "t2_u1_c1zero_lie_check.json"
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["checks"]["su3"]["betti_match"]


def test_cmd_verify_cs1_csv_columns(tmp_path):
    scenario = load_fixture("t2_u1_c1zero")
    report = cmd_verify_cs1(scenario, out_dir=str(tmp_path), quiet=True)
    assert report["passed"]
    with open(tmp_path / "t2_u1_c1zero_cs1_residuals.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta", "d_residual", "dstar_residual"]
    assert len(rows) == 1 + len(scenario.delta_grid)
    for row in rows[1:]:
        assert float(row[1]) <= 1e-10
        assert float(row[2]) <= 1e-10


def test_cmd_verify_cs1_excluded_branch(tmp_path):
    scenario = load_fixture("t2_u1_c1nonzero")
    report = cmd_verify_cs1(scenario, out_dir=str(tmp_path), quiet=True)
    assert report["branch"] == "class_nonzero"
    assert report["passed"]  # the excluded branch is not a failure


def test_cmd_pages_dims_payload(tmp_path):
    scenario = load_fixture("t2_u1_c1nonzero")
    report = cmd_pages(scenario, out_dir=str(tmp_path), quiet=True)
    assert report["einf_total"] == 2
    assert report["einf_dims"].get("0,1", 0) == 0
    assert report["einf_dims"]["1,0"] == 2
    assert report["consistency_pass"]


def test_command_outputs_deterministic(tmp_path):
    scenario = load_fixture("t2_u1_c1zero")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cmd_verify_cs1(scenario, out_dir=str(out_a), quiet=True)
    cmd_verify_cs1(scenario, out_dir=str(out_b), quiet=True)
    text_a = (out_a / "t2_u1_c1zero_verify_cs1.json").read_text()
    text_b = (out_b / "t2_u1_c1zero_verify_cs1.json").read_text()
    assert text_a == text_b


def test_cmd_report_matrix(tmp_path):
    scenario = load_fixture("t2_u1_c1zero")
    cmd_verify_cs1(scenario, out_dir=str(tmp_path), quiet=True)
    cmd_lie_check(scenario, out_dir=str(tmp_path), quiet=True)
    summary = cmd_report(str(tmp_path), quiet=True)
    assert summary["passed"]
    assert "AC1" in summary["criteria"]
    assert "AC3" in summary["criteria"]
    assert (tmp_path / "summary.json").exists()


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path / "out")
    assert cli_main(["verify-cs1", "--scenario", "t2_u1_c1zero", "--out", out, "--quiet"]) == 0
    # missing scenario
    assert cli_main(["verify-cs1", "--scenario", "no_such_scenario", "--out", out, "--quiet"]) == 2
    # malformed scenario file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["verify-cs1", "--scenario", str(bad), "--out", out, "--quiet"]) == 2
    # structurally invalid scenario
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"name": "x", "geometry": {"dim": 9}, "algebra": {"name": "u1"}, "connection": {"components": []}}))
    assert cli_main(["verify-cs1", "--scenario", str(bad2), "--out", out, "--quiet"]) == 2
    # report over the produced directory
    assert cli_main(["report", out, "--quiet"]) == 0


def test_cli_verify_cs3_nonsemisimple_is_config_error(tmp_path):
    assert (
        cli_main(
            ["verify-cs3", "--scenario", "t2_u1_c1zero", "--out", str(tmp_path), "--quiet"]
        )
        == 2
    )


def test_cli_spectrum_one_point_grid_is_config_error(tmp_path):
    # t3_su2_pages declares delta_grid ["0.5"]: no decay slope can be fitted
    assert (
        cli_main(["spectrum", "--scenario", "t3_su2_pages", "--out", str(tmp_path), "--quiet"])
        == 2
    )
