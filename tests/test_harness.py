"""Scenario parsing, command reports, output formats, CLI exit codes."""

import copy
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlehodge import bigraded, harness
from bundlehodge.adiabatic_ss import PageRecursion, residual_orders
from bundlehodge.base_forms import coexact_primitive
from bundlehodge.bigraded import BigradedForm, DeltaPolynomial, apply_dstar_component, from_fourier
from bundlehodge.chern_weil import beta_correction, cs3, cw4
from bundlehodge.cli import main as cli_main
from bundlehodge.errors import ConfigError
from bundlehodge.harness import (
    Scenario,
    cmd_lie_check,
    cmd_pages,
    cmd_report,
    cmd_spectrum,
    cmd_verify_cs1,
    cmd_verify_cs3,
    load_scenario,
    packaged_scenario_path,
)
from bundlehodge.lie_algebra import LieAlgebraData


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


def _scaled_su3_scenario(tmp_path):
    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        config = json.load(fh)
    config["algebra"] = {"name": "su3", "scale": "0.2"}
    path = tmp_path / "su3_scaled.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lie_check_adjointness_gate_is_relative(tmp_path, seed):
    # the su(3) pairing at scale 0.2 reaches |lhs| ~ 1e5, where rounding
    # alone puts |lhs - rhs| near 1e-10: an absolute gate failed seeds 0 and 3
    path = _scaled_su3_scenario(tmp_path)
    argv = ["lie-check", "--scenario", path, "--seed", str(seed), "--out", str(tmp_path), "--quiet"]
    assert cli_main(argv) == 0
    data = json.loads((tmp_path / "t4_su2_cs3_lie_check.json").read_text())
    for check in data["checks"].values():
        assert check["adjointness_relative"] <= 1e-12


def test_lie_check_detects_perturbed_adjoint(tmp_path, monkeypatch):
    original = LieAlgebraData.dstar_matrix
    monkeypatch.setattr(LieAlgebraData, "dstar_matrix", lambda alg, j: (1.0 + 1e-9) * original(alg, j))
    path = _scaled_su3_scenario(tmp_path)
    assert cli_main(["lie-check", "--scenario", path, "--out", str(tmp_path), "--quiet"]) == 1
    check = json.loads((tmp_path / "t4_su2_cs3_lie_check.json").read_text())["checks"]["su2+u1"]
    # su(2) + u(1) is not semisimple, so no Green-operator check runs on it
    # and the adjointness gate alone must fail it
    assert check["green_right_inverse"] == 0.0
    assert check["adjointness_relative"] > 1e-12
    assert not check["passed"]


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


def test_cmd_pages_reports_every_residual_order_of_the_lifts(tmp_path):
    # the stabilized lifts of t2_u1_c1zero in degree 1 are closed and coclosed
    # exactly, so every order reads zero; an empty list would mean no lifts
    scenario = load_fixture("t2_u1_c1zero")
    report = cmd_pages(scenario, degree=1, out_dir=str(tmp_path), quiet=True)
    assert report["limit_count"] == 3
    orders = report["lift_residual_orders"]
    # orders 0 .. deg(lift) + 2, the top order of d_delta and d*_delta
    assert [m for m, _ in orders] == list(range(len(orders)))
    assert len(orders) >= 3
    assert all(val <= 1e-12 for _, val in orders)


def _pages_then_spectrum(scenario_for, out):
    """cmd_pages p=0..3, then cmd_spectrum, each on scenario_for()."""
    for degree in range(4):
        cmd_pages(scenario_for(), degree=degree, out_dir=str(out), quiet=True)
    cmd_spectrum(scenario_for(), out_dir=str(out), quiet=True)


def test_page_recursion_runs_once_per_scenario(tmp_path, monkeypatch):
    """One recursion per scenario, run for each degree a report asks for; its
    stop page is searched for once."""
    runs, searches = [], []
    run, goes_on = PageRecursion.run, PageRecursion._goes_on
    monkeypatch.setattr(PageRecursion, "run", lambda self, p: runs.append((self, p)) or run(self, p))
    monkeypatch.setattr(PageRecursion, "_goes_on", lambda self, K, p: searches.append(K) or goes_on(self, K, p))
    scenario = load_fixture("t2_u1_c1zero")
    _pages_then_spectrum(lambda: scenario, tmp_path / "shared")
    assert [p for _, p in runs] == [0, 1, 2, 3, scenario.degree]
    assert len({id(rec) for rec, _ in runs}) == 1
    assert searches == [2]
    recursions = [runs[0][0]]
    scenario.bands = (1, 1)
    cmd_pages(scenario, degree=1, out_dir=str(tmp_path / "narrow"), quiet=True)
    recursions.append(runs[-1][0])
    assert [rec.bands for rec in recursions] == [(2, 2), (1, 1)]
    # one recursion is kept, under every value it reads
    scenario.k_max = 5
    scenario.tolerances.rank = 1e-9
    assert scenario.page_recursion(1) is runs[-1][0] not in recursions
    assert (runs[-1][0].k_max, runs[-1][0].tol.rank) == (5, 1e-9)
    recursions.append(runs[-1][0])
    scenario.bands = (2, 2)
    assert scenario.page_recursion(1) is scenario.page_recursion(2) is runs[-1][0] not in recursions
    assert len({id(rec) for rec, _ in runs}) == 4


def test_shared_recursion_writes_the_files_of_fresh_scenarios(tmp_path):
    _pages_then_spectrum(lambda: load_fixture("t2_u1_c1zero"), tmp_path / "fresh")
    scenario = load_fixture("t2_u1_c1zero")
    _pages_then_spectrum(lambda: scenario, tmp_path / "shared")
    # a second report of one degree: no caller modified the shared hand-out
    cmd_pages(scenario, degree=1, out_dir=str(tmp_path / "again"), quiet=True)
    fresh = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert fresh == sorted(p.name for p in (tmp_path / "shared").iterdir())
    assert len(fresh) == 6
    for name in fresh:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    name = "t2_u1_c1zero_pages_p1.json"
    assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


@pytest.mark.parametrize(
    "name, boxes",
    [
        ("t4_su2_cs3", {"band": [1, 1, 1, 0], "galerkin_bands": [1, 1, 1, 0]}),
        ("t3_su2_pages", {"band": [1, 1, 0], "galerkin_bands": [6, 1, 0]}),
    ],
)
def test_pages_reports_do_not_depend_on_the_order_of_the_degrees(tmp_path, name, boxes):
    """pages in every degree, ascending and then descending on one scenario each,
    and on a fresh scenario per degree: the same bytes in every report,
    diagnostics included, though each shared recursion computed different
    pages before each report (t4_su2_cs3 stops at its collapse bound, 5;
    t3_su2_pages at page 3, below its bound)."""
    with open(packaged_scenario_path(name)) as fh:
        config = dict(json.load(fh), **boxes)
    ascending, descending = Scenario(config), Scenario(config)
    degrees = range(ascending.geometry.n + ascending.algebra.dim + 1)
    for p in degrees:
        cmd_pages(ascending, degree=p, out_dir=str(tmp_path / "ascending"), quiet=True)
        cmd_pages(Scenario(config), degree=p, out_dir=str(tmp_path / "fresh"), quiet=True)
    for p in reversed(degrees):
        cmd_pages(descending, degree=p, out_dir=str(tmp_path / "descending"), quiet=True)
    files = sorted(path.name for path in (tmp_path / "fresh").iterdir())
    assert len(files) == len(degrees)
    for order in ("ascending", "descending"):
        assert sorted(path.name for path in (tmp_path / order).iterdir()) == files
        for file in files:
            assert (tmp_path / order / file).read_bytes() == (tmp_path / "fresh" / file).read_bytes()


@pytest.mark.parametrize("declared, expected", [(None, [1, 1]), ([2, 2], [2, 2])])
def test_cli_band_sets_an_undeclared_galerkin_box(tmp_path, declared, expected):
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        cfg = json.load(fh)
    cfg.pop("galerkin_bands")
    if declared is not None:
        cfg["galerkin_bands"] = declared
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["pages", "--scenario", str(path), "--band", "1", "--degree", "1"]
    assert cli_main(argv + ["--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "t2_u1_c1zero_pages_p1.json").read_text())
    assert report["bands"] == [1, 1]
    assert report["galerkin_bands"] == expected


def test_cmd_spectrum_reports_minimum_and_floor(tmp_path):
    scenario = load_fixture("t2_u1_c1zero")
    cmd_spectrum(scenario, out_dir=str(tmp_path), quiet=True)
    data = json.loads((tmp_path / "t2_u1_c1zero_spectrum_p1.json").read_text())
    with open(tmp_path / "t2_u1_c1zero_spectrum_p1.csv") as fh:
        first = {float(r[0]): float(r[2]) for r in list(csv.reader(fh))[1:] if r[1] == "0"}
    assert len(data["min_eigenvalues"]) == len(data["eigen_floor"]) == len(data["deltas"])
    for delta, low, floor, top in zip(
        data["deltas"], data["min_eigenvalues"], data["eigen_floor"], data["spectral_norms"]
    ):
        assert low <= first[delta]
        assert floor == pytest.approx(1e-12 * top, rel=1e-15)


# numpy scalars, a signed zero, the smallest subnormal and a large float, each
# column of one kind; then mixed columns, with names csv.writer quotes
CSV_NUMBER_ROWS = [
    [np.float64(0.1), 7, np.float64(-0.0)],
    [-0.0, 8, 5e-324],
    [np.float64(5e-324), 9, 1e300],
]
CSV_MIXED_ROWS = [
    [np.int64(-3), np.float64(1e300), True],
    ["a,b", 'say "x"', "line\r\nbreak"],
]


def _csv_writer_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize(
    "command, table",
    [(cmd_spectrum, "t2_u1_c1zero_spectrum_p1.csv"), (cmd_verify_cs1, "t2_u1_c1zero_cs1_residuals.csv")],
)
def test_write_csv_equals_csv_writer(tmp_path, monkeypatch, command, table):
    """A command's table, and the same table with edge rows appended, are the bytes
    csv.writer writes from its header and rows."""
    tables = []
    write_csv = harness.write_csv

    def recording(path, header, rows):
        tables.append((header, rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(harness, "write_csv", recording)
    command(load_fixture("t2_u1_c1zero"), out_dir=str(tmp_path), quiet=True)
    ((header, rows),) = tables
    assert (tmp_path / table).read_bytes() == _csv_writer_bytes(header, rows)
    for n, extra in enumerate((CSV_NUMBER_ROWS, CSV_NUMBER_ROWS + CSV_MIXED_ROWS)):
        edge = list(rows) + extra
        write_csv(str(tmp_path / f"edge{n}.csv"), header, edge)
        assert (tmp_path / f"edge{n}.csv").read_bytes() == _csv_writer_bytes(header, edge)


def test_write_csv_rejects_a_row_of_another_width(tmp_path):
    with pytest.raises(ValueError):
        harness.write_csv(str(tmp_path / "ragged.csv"), ["a", "b"], [[1.0, 2.0], [3.0]])


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


def test_cli_exit_codes(tmp_path, capsys):
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
    # a polynomial kind that names no constructor
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        cfg = json.load(fh)
    cfg["polynomial"]["kind"] = "custom_linear"
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli_main(["verify-cs1", "--scenario", str(bad3), "--out", out, "--quiet"]) == 2
    assert "unknown polynomial kind 'custom_linear'" in capsys.readouterr().err
    # negative degree and band overrides
    for flag in ("--degree", "--band"):
        argv = ["pages", "--scenario", "t2_u1_c1nonzero", flag, "-1", "--out", out, "--quiet"]
        assert cli_main(argv) == 2
    # report over the produced directory
    assert cli_main(["report", out, "--quiet"]) == 0


def _misspelled_tolerance(cfg):
    cfg["tolerances"]["tau_formall"] = cfg["tolerances"].pop("tau_formal")


def _misspelled_metric(cfg):
    cfg["geometry"]["metrc"] = [["1.0", "0.0"], ["0.0", "2.0"]]


@pytest.mark.parametrize(
    "change, key",
    [
        (lambda cfg: cfg.update(tau_formal="1e-30"), "'tau_formal'"),
        (_misspelled_tolerance, "'tau_formall'"),
        (_misspelled_metric, "'metrc'"),
    ],
    ids=["top-level", "tolerances", "geometry"],
)
def test_cli_unknown_scenario_key_is_config_error(tmp_path, capsys, change, key):
    """A key the scenario format does not define would leave a default in force
    (the default tolerance, the identity metric); it is a configuration error."""
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        cfg = json.load(fh)
    change(cfg)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main(["verify-cs1", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "unknown key in" in err and key in err
    assert not out.exists()


def test_cli_verify_cs3_nonsemisimple_is_config_error(tmp_path):
    assert (
        cli_main(
            ["verify-cs3", "--scenario", "t2_u1_c1zero", "--out", str(tmp_path), "--quiet"]
        )
        == 2
    )


def test_cli_verify_cs3_witness_gate_scales_with_the_connection(tmp_path):
    """Scaled by 1e-4, the t4_su2_cs3 connection gives a witness |psi| near 3e-5:
    below a fixed 1e-4, but far above the tolerance its corrected series meets."""
    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        cfg = json.load(fh)
    for _, form in cfg["connection"]["components"]:
        form["entries"] = [
            [k, index, repr(float(re) * 1e-4), repr(float(im) * 1e-4)]
            for k, index, re, im in form["entries"]
        ]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["verify-cs3", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "t4_su2_cs3_verify_cs3.json").read_text())
    assert report["harmonic_through_order_3"] and report["recover_omega3_ok"]
    witness = report["covariant_coderivative_norm"]
    assert 1e-5 < witness < 1e-4
    assert report["necessity_witness"]
    assert report["necessity_witness_margin"] == witness / report["tolerance"] > 1.0


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


def _polynomial_copy(tmp_path, name, **fields):
    """A copy of a packaged scenario with its polynomial section updated."""
    with open(packaged_scenario_path(name)) as fh:
        cfg = json.load(fh)
    cfg.setdefault("polynomial", {}).update(fields)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("command, name", [("verify-cs1", "t2_u1_c1zero"), ("verify-cs3", "t4_su2_cs3")])
@pytest.mark.parametrize("zero", ["0", "-0.0"])
def test_cli_zero_normalization_is_config_error(tmp_path, capsys, command, name, zero):
    """A zero polynomial makes every secondary form zero: verify-cs1 used to pass
    with no residual order to check, and verify-cs3 to blame the curvature."""
    path = _polynomial_copy(tmp_path, name, normalization=zero)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main([command, "--scenario", path, "--out", str(out), "--quiet"]) == 2
    assert "normalization must be nonzero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lie-check", "pages"])
def test_cli_unknown_polynomial_kind_is_config_error(tmp_path, capsys, command):
    """The polynomial is built when the scenario loads, so an unknown kind fails
    lie-check and pages too, which never read it."""
    path = _polynomial_copy(tmp_path, "t2_u1_c1zero", kind="foo")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main([command, "--scenario", path, "--out", str(out), "--quiet"]) == 2
    assert "unknown polynomial kind 'foo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lie-check", "pages", "spectrum", "verify-cs1", "verify-cs3"])
def test_cli_polynomial_unfit_for_the_algebra_is_config_error(tmp_path, capsys, command):
    """first_chern on su(2) is a functional that is not Ad-invariant.  The kind is
    known, but the polynomial is built when the scenario loads, so every command
    exits 2 on it, not only verify-cs1 and verify-cs3, which read it."""
    path = _polynomial_copy(tmp_path, "t4_su2_cs3", kind="first_chern")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main([command, "--scenario", path, "--out", str(out), "--quiet"]) == 2
    assert "functional is not Ad-invariant" in capsys.readouterr().err
    assert not out.exists()


def test_absent_polynomial_kind_keeps_its_default():
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        cfg = json.load(fh)
    del cfg["polynomial"]["kind"]
    assert Scenario(cfg).polynomial.kind == "linear"  # first_chern on u(1)
    cfg["algebra"] = {"name": "su2"}
    assert Scenario(cfg).polynomial.kind == "bilinear"  # second_chern on su(2)


@pytest.mark.parametrize(
    "command, scenario, degree",
    [
        # the top total degree is n + dim: 2 + 1 on t2_u1_c1zero, 4 + 3 on t4_su2_cs3
        ("pages", "t2_u1_c1zero", "4"),
        ("spectrum", "t2_u1_c1zero", "4"),
        ("pages", "t4_su2_cs3", "99"),
    ],
)
def test_cli_degree_above_the_top_is_config_error(tmp_path, command, scenario, degree):
    out = tmp_path / "out"
    argv = [command, "--scenario", scenario, "--degree", degree, "--out", str(out), "--quiet"]
    assert cli_main(argv) == 2
    assert not out.exists()


def _fixture_copy(tmp_path, name, **fields):
    """A copy of a packaged scenario with some fields replaced."""
    with open(packaged_scenario_path(name)) as fh:
        config = json.load(fh)
    config.update(fields)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "name, k_max, degree",
    [
        # d_0 vanishes on an abelian fiber, so page 0 equals page 1: equal
        # dims without a step taken prove nothing
        ("t2_u1_c1zero", 1, 1),
        # the default run needs k_stop 5 to rule out later differentials
        ("t4_su2_flat", 3, 3),
        ("t4_su2_flat", 4, 3),
    ],
)
def test_cli_pages_stopped_by_k_max_is_solver_failure(tmp_path, name, k_max, degree):
    path = _fixture_copy(tmp_path, name, k_max=k_max)
    out = tmp_path / "out"
    argv = ["pages", "--scenario", path, "--degree", str(degree), "--out", str(out), "--quiet"]
    assert cli_main(argv) == 3
    assert not out.exists()


def test_cli_spectrum_stopped_by_k_max_is_solver_failure(tmp_path):
    # page dims [75, 75] at k_max 1 prove nothing; the default run's stable
    # page has dimension 3
    path = _fixture_copy(tmp_path, "t2_u1_c1zero", k_max=1)
    out = tmp_path / "out"
    assert cli_main(["spectrum", "--scenario", path, "--out", str(out), "--quiet"]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "name, error, hit",
    [
        # the stacked block SVDs of the correction systems; the fiber algebra's
        # own SVDs are two-dimensional
        ("svd", np.linalg.LinAlgError, lambda a: np.ndim(a) == 3),
        ("svd", MemoryError, lambda a: np.ndim(a) == 3),
        # the complex page Laplacians, then the real Gram matrix of the limit
        ("eigh", np.linalg.LinAlgError, np.iscomplexobj),
        ("eigh", np.linalg.LinAlgError, np.isrealobj),
    ],
    ids=["block-svd", "block-svd-memory", "page-laplacian", "limit-gram"],
)
def test_cli_pages_dense_solver_failure_is_exit_3(tmp_path, monkeypatch, name, error, hit):
    original = getattr(np.linalg, name)

    def failing(a, *args, **kwargs):
        if hit(a):
            raise error(f"{name} did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)
    out = tmp_path / "out"
    argv = ["pages", "--scenario", "t2_u1_c1zero", "--degree", "1", "--out", str(out), "--quiet"]
    assert cli_main(argv) == 3
    assert not out.exists()


def test_cli_pages_applies_the_declared_formal_tolerance(tmp_path):
    # the degree-3 limit forms of t3_su2_pages have formal residuals near
    # 1e-16, above a declared tau_formal of 1e-30
    path = _fixture_copy(tmp_path, "t3_su2_pages", tolerances={"tau_formal": "1e-30"})
    out = tmp_path / "out"
    argv = ["pages", "--scenario", path, "--degree", "3", "--out", str(out), "--quiet"]
    assert cli_main(argv) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["pages", "spectrum"])
def test_cli_scenario_degree_above_the_top_is_config_error(tmp_path, command):
    with open(packaged_scenario_path("t2_u1_c1zero")) as fh:
        config = json.load(fh)
    config["degree"] = 4
    path = tmp_path / "high.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, scenario, applications",
    # verify-cs1: d_delta and d*_delta of the two-term series, 6 each;
    # verify-cs3: the coderivative and the contraction of alpha^{2,1}, and the
    # other 22 terms of the residual orders of the four-term series, which
    # read those two as their order-3 d* and order-4 d terms
    [("verify-cs1", "t2_u1_c1zero", 12), ("verify-cs3", "t4_su2_cs3", 24)],
)
def test_verify_reports_apply_each_operator_image_once(
    tmp_path, monkeypatch, command, scenario, applications
):
    calls = []
    apply = bigraded._apply_component

    def counted(*args, **kwargs):
        calls.append(args[2])
        return apply(*args, **kwargs)

    monkeypatch.setattr(bigraded, "_apply_component", counted)
    assert cli_main([command, "--scenario", scenario, "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == applications


def test_verify_cs3_residual_orders_are_those_of_its_series(tmp_path):
    """verify-cs3 takes psi and d_2 alpha^{2,1} as terms of the residual orders;
    the orders equal, to the bit, those of d_delta and d*_delta applied afresh to
    the corrected series alpha^{0,3} + delta^2 alpha^{2,1} - delta^3 (h + beta)."""
    scenario = load_fixture("t4_su2_cs3")
    report = cmd_verify_cs3(scenario, out_dir=str(tmp_path), quiet=True)
    conn, geo, alg = scenario.connection, scenario.geometry, scenario.algebra
    pair = scenario.polynomial
    alpha = cs3(pair, conn)
    a03, a21 = (BigradedForm(geo, alg, {slot: alpha.components[slot]}) for slot in ((0, 3), (2, 1)))
    correction = from_fourier(coexact_primitive(cw4(pair, conn)), alg) + beta_correction(
        conn, apply_dstar_component(a21, conn, 1)
    )
    series = DeltaPolynomial([a03, BigradedForm.zero(geo, alg), a21, -correction])
    d_orders, s_orders = residual_orders(series, conn)
    assert report["passed"]
    assert report["orders_d"] == d_orders
    assert report["orders_dstar"] == s_orders


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


def _with_key(section, key, value):
    def change(cfg):
        cfg[section][key] = value

    return change


@pytest.mark.parametrize(
    "scenario, command, change, key",
    [
        ("t2_u1_c1zero", "verify-cs1", _with_key("algebra", "dim", 1), "'dim'"),
        (
            "t2_u1_c1zero",
            "verify-cs1",
            _with_key("algebra", "structure_constants", [[0, 0, 0, "1.0"]]),
            "'structure_constants'",
        ),
        ("t2_u1_c1zero", "verify-cs1", _with_key("algebra", "metric", [["4.0"]]), "'metric'"),
        ("t4_su2_cs3", "lie-check", _with_key("algebra", "rank", 2), "'rank'"),
        (
            "t2_u1_c1zero",
            "lie-check",
            lambda cfg: cfg.update(algebra={"dim": 1, "scale": "2.0"}),
            "'scale'",
        ),
        ("t2_u1_c1nonzero", "verify-cs1", _with_key("connection", "components", []), "'components'"),
    ],
    ids=["dim-named", "structure-constants-named", "metric-named", "rank-su2", "scale-custom", "components-flux"],
)
def test_cli_known_key_the_constructor_does_not_read_is_config_error(
    tmp_path, capsys, scenario, command, change, key
):
    """A key of the format that the chosen constructor does not read (a named
    algebra has its own metric and structure constants, only u1 has a rank, a
    custom algebra has no scale, abelian_flux replaces components) would be
    dropped; it is a configuration error."""
    with open(packaged_scenario_path(scenario)) as fh:
        cfg = json.load(fh)
    change(cfg)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "does not read" in err and key in err
    assert not out.exists()


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
        {"name": "../escaped"},
        {"name": "a/b"},
        {"name": ""},
        {"name": 3},
    ],
    ids=[
        "degree-word", "degree-fraction", "degree-negative", "k_max-word", "k_max-zero",
        "seed-word", "band-word", "band-null", "band-negative", "galerkin_bands-word",
        "dim-word", "rank-word", "structure-index-too-large", "structure-index-negative",
        "delta_grid-null", "tolerances-list", "polynomial-list", "metric-ragged",
        "geometry-list", "algebra-string", "connection-list", "component-short",
        "component-index-word", "output_dir-number", "name-parent-dir", "name-separator",
        "name-empty", "name-number",
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
    # nothing is written beside the output directory
    assert {p.name for p in tmp_path.iterdir()} <= {"scenario.json", "out"}


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
