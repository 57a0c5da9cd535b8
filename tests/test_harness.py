"""Scenario parsing, command reports, output formats, CLI exit codes."""

import copy
import csv
import json

import pytest
from hypothesis import given, settings, strategies as st

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
    # negative degree and band overrides
    for flag in ("--degree", "--band"):
        argv = ["pages", "--scenario", "t2_u1_c1nonzero", flag, "-1", "--out", out, "--quiet"]
        assert cli_main(argv) == 2
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


def test_cli_verify_cs3_flat_connection_is_config_error(tmp_path):
    # a flat connection's degree-3 form has no (2,1) part to check
    assert (
        cli_main(["verify-cs3", "--scenario", "t4_su2_flat", "--out", str(tmp_path), "--quiet"])
        == 2
    )


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("connection", None, "nan"),
        ("tolerances", "tau_formal", "nan"),
        ("tolerances", "tau_formal", "inf"),
        ("polynomial", "normalization", "nan"),
        ("polynomial", "normalization", 10**400),
    ],
    ids=["amplitude-nan", "tau_formal-nan", "tau_formal-inf", "normalization-nan", "huge-int"],
)
def test_cli_non_finite_number_is_config_error(tmp_path, section, field, value):
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        cfg = json.load(fh)
    if section == "connection":
        for entry in cfg["connection"]["components"][0][1]["entries"]:
            entry[3] = value
    else:
        cfg[section][field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert cli_main(["verify-cs1", "--scenario", str(path), "--out", out, "--quiet"]) == 2


def _su2_constants(index):
    """su(2) structure constants, the index 2 of [e_0, e_1] written as ``index``."""
    return [
        [0, 1, index, "1"], [1, 0, index, "-1"],
        [1, 2, 0, "1"], [2, 1, 0, "-1"],
        [2, 0, 1, "1"], [0, 2, 1, "-1"],
    ]


@pytest.mark.parametrize(
    "patch",
    [
        {"degree": "one"},
        {"degree": 1.7},
        {"degree": -1},
        {"k_max": "six"},
        {"k_max": 0},
        {"seed": "x"},
        {"band": "wide"},
        {"band": None},
        {"band": -1},
        {"galerkin_bands": ["a", 1]},
        {"geometry": {"dim": "two"}},
        {"algebra": {"name": "u1", "rank": "one"}},
        {"algebra": {"dim": 3, "structure_constants": _su2_constants(5)}},
        {"algebra": {"dim": 3, "structure_constants": _su2_constants(-1)}},
        {"delta_grid": None},
        {"tolerances": []},
        {"polynomial": []},
        {"geometry": {"dim": 2, "metric": [["1", "0"], ["0"]]}},
        {"geometry": [2]},
        {"algebra": "u1"},
        {"connection": []},
        {"connection": {"components": [[0]]}},
        {"connection": {"components": [["zero", {"degree": 1, "entries": []}]]}},
        {"output_dir": 5},
    ],
    ids=[
        "degree-word", "degree-fraction", "degree-negative", "k_max-word", "k_max-zero",
        "seed-word", "band-word", "band-null", "band-negative", "galerkin_bands-word",
        "dim-word", "rank-word", "structure-index-too-large", "structure-index-negative",
        "delta_grid-null", "tolerances-list", "polynomial-list", "metric-ragged",
        "geometry-list", "algebra-string", "connection-list", "component-short",
        "component-index-word", "output_dir-number",
    ],
)
def test_cli_malformed_field_is_config_error(tmp_path, patch):
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        cfg = json.load(fh)
    cfg.update(patch)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    # lie-check runs on any algebra, so only the parsing can fail
    assert cli_main(["lie-check", "--scenario", str(path), "--out", out, "--quiet"]) == 2


# what a mutated scenario node may become: wrong types, wrong shapes and
# near-valid sections, so that replacements reach every parser
_REPLACEMENTS = [
    None, True, 0, 1, -1, 5, 0.5, "0", "1", "-1", "nan", "inf", "x", "", "u1", "su2",
    [], [0], [None], ["1", "0"], [[1, 0], [0]], [[1, 0], [0, 1]], [[0]],
    [0, {"degree": 1, "entries": []}], [[[1, 0], [0], "0", "1"]], [[[9, 9], [5], "x", "0"]],
    {}, {"dim": 2}, {"degree": 1}, {"degree": 2, "entries": [[[0, 0], [0, 1], "1", "0"]]},
    {"name": "u1", "rank": "2"}, {"components": [[0]]}, {"entries": [[0]]},
    {"dim": 3, "structure_constants": [[0, 1, 2, "1"]]},
]


def _choose(draw, options):
    """One of ``options``, picked by boolean draws only: hypothesis mixes
    constants read from the loaded source files into integer, float and
    string draws (and caches them under .hypothesis/), never into booleans,
    so the examples depend on nothing but the seed and no file is written."""
    index = 0
    for _ in range((len(options) - 1).bit_length()):
        index = 2 * index + draw(st.booleans())
    return options[index % len(options)]


@st.composite
def _mutated_scenario(draw):
    """t2_u1_c1zero with one to four nodes replaced or deleted."""
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        config = json.load(fh)
    for _ in range(_choose(draw, [1, 2, 3, 4])):
        parent, key, node = None, None, config
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = _choose(draw, sorted(node) if isinstance(node, dict) else range(len(node)))
            parent, node = node, node[key]
        if parent is None:
            continue
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(_choose(draw, _REPLACEMENTS))
    return config


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_mutated_scenario())
def test_mutated_scenario_builds_or_is_config_error(config):
    try:
        Scenario(config)
    except ConfigError:
        pass
