"""Tests of the benchmark itself: inputs, tracing and gates."""

import inspect
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bundlehodge  # noqa: E402
import bundlehodge.cli  # noqa: E402
from bundlehodge.harness import Scenario  # noqa: E402

import run  # noqa: E402
from generator import N_AXES, connection_config, scenario_text  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import cli_operation, pages_gate  # noqa: E402


def test_generator_is_deterministic_real_and_zero_based():
    text = scenario_text(connection_config(7, 1, 5))
    assert text == scenario_text(connection_config(7, 1, 5))
    assert text != scenario_text(connection_config(8, 1, 5))
    assert text != scenario_text(connection_config(7, 0, 5))
    config = json.loads(text)
    for _, form in config["connection"]["components"]:
        entries = form["entries"]
        assert len(entries) == 2 * 5
        for key, (axis,), re, im in entries:
            assert 0 <= axis < N_AXES
            assert all(abs(k) <= 1 for k in key)
            mirror = [[-k for k in key], [axis], re, f"{-float(im):.4f}"]
            assert mirror in entries
    Scenario(config)  # the program's own reality check accepts it


def _bindings():
    """Every object bound in the package's namespaces, dicts and classes."""
    out = {("numpy.linalg", "eigvalsh"): np.linalg.eigvalsh}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "bundlehodge" or name.startswith("bundlehodge.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if type(value) is dict and not attr.startswith("__"):
                for key, item in value.items():
                    out[(name, attr, key)] = item
            if inspect.isclass(value) and value.__module__ == name:
                for member, item in vars(value).items():
                    out[(name, attr, "class", member)] = item
    return out


def test_install_and_remove_restore_identical_objects():
    from bundlehodge import adiabatic_ss, cli, harness

    before = _bindings()
    tracer = Tracer()
    tracer.install(bundlehodge)
    try:
        assert harness.harmonic_limit is adiabatic_ss.harmonic_limit
        assert harness.harmonic_limit is not before[("bundlehodge.harness", "harmonic_limit")]
        assert cli._SCENARIO_COMMANDS["pages"] is harness.cmd_pages
        assert cli.cmd_pages is harness.cmd_pages
        assert adiabatic_ss.PageRecursion.run.__wrapped__ is before[
            ("bundlehodge.adiabatic_ss", "PageRecursion", "class", "run")
        ]
        assert np.linalg.eigvalsh is not before[("numpy.linalg", "eigvalsh")]
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_times_nonnegative_and_within_wall(tmp_path):
    tracer = Tracer()
    tracer.install(bundlehodge)
    try:
        start = time.perf_counter()
        for argv in (
            ["verify-cs3", "--scenario", "t4_su2_cs3"],
            ["pages", "--scenario", "t2_u1_c1nonzero"],
        ):
            assert bundlehodge.cli.main(argv + ["--out", str(tmp_path), "--quiet"]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.remove()
    selfs = self_times(tracer.spans)
    assert selfs and min(selfs) >= -1e-9
    assert sum(selfs) <= wall + 1e-6
    metrics, computed = layer_metrics(tracer.spans, wall)
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0
    assert metrics["adiabatic_ss.recursion_runs"] == 1
    assert metrics["adiabatic_ss.recover_op_calls"] > 0
    assert metrics["bigraded.op_calls"] > 0
    assert computed["galerkin_dims"] == [metrics["bigraded.galerkin_columns"]]


class _OneShot:
    def __init__(self, ops):
        self.ops = ops

    def operations(self):
        return self.ops


def test_gate_marks_wrong_pinned_integer_as_failed(tmp_path):
    out = str(tmp_path)
    report = "t2_u1_c1nonzero_pages_p1.json"
    wrong = cli_operation(
        bundlehodge.cli, out, 0, "pages", "t2_u1_c1nonzero", report, pages_gate(expected_total=3)
    )
    right = cli_operation(
        bundlehodge.cli, out, 0, "pages", "t2_u1_c1nonzero", report, pages_gate(expected_total=2)
    )
    tally = run.Tally()
    run.run_pass(_OneShot([wrong, right]), tally, run.SpeedProbe())
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures[0]["failures"] == ["einf_total 2 != 3"]
