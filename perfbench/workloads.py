"""The benchmark's workloads: their inputs, operations and correctness gates.

Every workload is one closed loop with one caller: an operation starts when
the previous one has returned.  Operations call the program's public entry
points, ``bundlehodge.cli.main(argv)`` or ``harness.cmd_pages``, and each
one is checked by a gate pinned from the acceptance suite.

The page and spectrum workloads run the packaged fixtures in smaller
frequency boxes than the acceptance suite does (AC6 takes about 230 s and
3.4 GB, AC7 about 75 s on two cores), so that one pass fits a benchmark run
several times over.  The pinned outcomes are the same in these boxes: the
flat Kunneth counts, the page/zero-count agreement, and the spectrum's
decay groups.
"""

import json
import os

from generator import connection_config, scenario_text

KUNNETH_T4_SU2 = (1, 4, 6, 5)  # E_infinity totals of T^4 x SU(2), degrees 0..3
NONZERO_PAGES_TOTAL = 2  # t2_u1_c1nonzero, AC4
RECOVER_TOL = 1e-8

PAGES_BOXES = {
    "t4_su2_flat": {"band": [1, 1, 0, 0], "galerkin_bands": [1, 1, 0, 0]},
    "t3_su2_pages": {"band": [1, 1, 0], "galerkin_bands": [6, 1, 0]},
}
SPECTRUM_FIXTURE = "t4_su2_cs3"
SPECTRUM_BOX = {"band": [1, 1, 1, 0]}
GENERATED_CONNECTIONS = 2
GENERATED_MODES = 5

# float accuracy fields recorded from the outputs, by where they sit
ACCURACY_TOP = ("max_order_residual", "bianchi_residual", "recover_omega3_rel_error")
ACCURACY_DIAGNOSTICS = ("dsq_residual", "adjoint_consistency", "projection_cut")


class Operation:
    """One call into the program plus the gate that checks its output."""

    def __init__(self, name, call, gate, cli=True):
        self.name = name
        self.call = call  # () -> (exit code, report dict or None)
        self.gate = gate  # (exit code, report) -> list of failure strings
        self.cli = cli


def accuracy_fields(report):
    out = {}
    for key in ACCURACY_TOP:
        if isinstance(report.get(key), float):
            out[key] = report[key]
    diagnostics = report.get("diagnostics") or {}
    for key in ACCURACY_DIAGNOSTICS:
        if key in diagnostics:
            out[key] = float(diagnostics[key])
    return out


# -- gates ------------------------------------------------------------------------


def _require(failures, ok, message):
    if not ok:
        failures.append(message)


def pages_gate(expected_total=None, empty_slot=None):
    """cmd_pages report: stabilized, consistent with the Galerkin zero count,
    and, when pinned, the E_infinity total and an empty slot."""

    def gate(code, report):
        failures = []
        _require(failures, code == 0, f"exit code {code}")
        if report is None:
            return failures + ["no report"]
        _require(failures, report.get("stabilized") is True, "pages did not stabilize")
        _require(failures, report.get("consistency_pass") is True, "consistency_pass is false")
        total = report.get("einf_total")
        _require(
            failures,
            total == report.get("galerkin_zero_count"),
            f"einf_total {total} != galerkin_zero_count {report.get('galerkin_zero_count')}",
        )
        if expected_total is not None:
            _require(failures, total == expected_total, f"einf_total {total} != {expected_total}")
        if empty_slot is not None:
            dims = report.get("einf_dims", {})
            _require(failures, dims.get(empty_slot, 0) == 0, f"slot {empty_slot} is not empty")
        return failures

    return gate


def spectrum_gate(code, report):
    failures = []
    _require(failures, code == 0, f"exit code {code}")
    if report is None:
        return failures + ["no report"]
    for row in report.get("comparison", []):
        _require(
            failures,
            row["count"] == row["expected"],
            f"group {row['group']}: count {row['count']} != expected {row['expected']}",
        )
    _require(failures, bool(report.get("comparison")), "no comparison rows")
    _require(failures, report.get("slopes_within_tolerance") is True, "slopes out of tolerance")
    return failures


def branch_gate(branch, max_order_residual=None):
    def gate(code, report):
        failures = []
        _require(failures, code == 0, f"exit code {code}")
        if report is None:
            return failures + ["no report"]
        _require(failures, report.get("branch") == branch, f"branch {report.get('branch')} != {branch}")
        if max_order_residual is not None:
            residual = report.get("max_order_residual")
            _require(
                failures,
                residual is not None and residual <= max_order_residual,
                f"max_order_residual {residual}",
            )
        return failures

    return gate


def cs3_gate(code, report):
    failures = branch_gate("class_zero")(code, report)
    if report is not None:
        err = report.get("recover_omega3_rel_error")
        _require(failures, err is not None and err <= RECOVER_TOL, f"recover_omega3_rel_error {err}")
        _require(failures, report.get("passed") is True, "report not passed")
    return failures


def passed_gate(code, report):
    failures = []
    _require(failures, code == 0, f"exit code {code}")
    _require(failures, report is not None and report.get("passed") is True, "report not passed")
    return failures


# -- operations -------------------------------------------------------------------


def _read_report(path):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def cli_operation(cli, out_dir, seed, command, scenario, report_name, gate):
    """``bundlehodge <command> --scenario <scenario>``; the gate reads its JSON report."""
    report_path = os.path.join(out_dir, report_name)

    def call():
        if os.path.exists(report_path):
            os.unlink(report_path)
        code = cli.main(
            [command, "--scenario", scenario, "--out", out_dir, "--quiet", "--seed", str(seed)]
        )
        return code, _read_report(report_path)

    return Operation(f"{command} {os.path.basename(scenario)}", call, gate)


def pages_operation(harness, scenarios, path, degree, out_dir, gate):
    """``harness.cmd_pages`` on the workload's one Scenario object for ``path``."""

    def call():
        if path not in scenarios:
            scenarios[path] = harness.load_scenario(path)
        report = harness.cmd_pages(scenarios[path], degree=degree, out_dir=out_dir, quiet=True)
        return (0 if report["passed"] else 1), report

    return Operation(f"pages {os.path.basename(path)} p={degree}", call, gate, cli=False)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _boxed_fixture(harness, name, box, work):
    """The packaged fixture ``name`` with its frequency boxes replaced by ``box``."""
    with open(harness.packaged_scenario_path(name)) as fh:
        config = json.load(fh)
    config.update(box)
    return _write(os.path.join(work, f"{name}.json"), json.dumps(config, indent=1) + "\n")


# -- workloads --------------------------------------------------------------------


class Workload:
    """Inputs written once per run; ``operations()`` gives one fresh pass."""

    name = None

    def __init__(self, bundlehodge, work, seed):
        self.bh = bundlehodge
        self.seed = seed
        self.work = work
        self.out_dir = os.path.join(work, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.scenario_paths = self.write_inputs()

    def write_inputs(self):
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError


class PagesSession(Workload):
    """cmd_pages p=0..3 on the flat and the curved page fixture, one Scenario
    object each, as AC6 runs them: Galerkin assembly, page recursion (rerun
    for every degree) and dense eigensolves."""

    name = "pages-session"

    def write_inputs(self):
        return [
            _boxed_fixture(self.bh.harness, name, box, self.work)
            for name, box in PAGES_BOXES.items()
        ]

    def operations(self):
        flat, curved = self.scenario_paths
        scenarios = {}
        ops = []
        for degree in range(4):
            gate = pages_gate(expected_total=KUNNETH_T4_SU2[degree])
            ops.append(pages_operation(self.bh.harness, scenarios, flat, degree, self.out_dir, gate))
        for degree in range(4):
            ops.append(pages_operation(self.bh.harness, scenarios, curved, degree, self.out_dir, pages_gate()))
        return ops


class SpectrumCold(Workload):
    """``bundlehodge spectrum`` on a freshly loaded scenario, nothing shared:
    one Galerkin assembly feeds four dense eigensolves."""

    name = "spectrum-cold"

    def write_inputs(self):
        return [_boxed_fixture(self.bh.harness, SPECTRUM_FIXTURE, SPECTRUM_BOX, self.work)]

    def operations(self):
        (path,) = self.scenario_paths
        return [
            cli_operation(
                self.bh.cli, self.out_dir, self.seed, "spectrum", path,
                f"{SPECTRUM_FIXTURE}_spectrum_p3.json", spectrum_gate,
            )
        ]


class VerifyDense(Workload):
    """The cheap CLI checks, then verify-cs3 on seeded many-mode su(2)
    connections: form-level operators and base-form solves, with no Galerkin
    assembly, eigensolve or page recursion beyond one tiny t2 fixture."""

    name = "verify-dense"

    FIXTURE_RUNS = (
        ("lie-check", "t4_su2_cs3", "t4_su2_cs3_lie_check.json", passed_gate),
        ("verify-cs1", "t2_u1_c1zero", "t2_u1_c1zero_verify_cs1.json", branch_gate("class_zero", 1e-10)),
        ("verify-cs1", "t2_u1_c1nonzero", "t2_u1_c1nonzero_verify_cs1.json", branch_gate("class_nonzero")),
        ("verify-cs3", "t4_su2_cs3", "t4_su2_cs3_verify_cs3.json", cs3_gate),
        (
            "pages", "t2_u1_c1nonzero", "t2_u1_c1nonzero_pages_p1.json",
            pages_gate(expected_total=NONZERO_PAGES_TOTAL, empty_slot="0,1"),
        ),
    )

    def write_inputs(self):
        self.generated = []
        paths = [self.bh.harness.packaged_scenario_path(name) for _, name, _, _ in self.FIXTURE_RUNS]
        for index in range(GENERATED_CONNECTIONS):
            config = connection_config(self.seed, index, GENERATED_MODES)
            path = _write(os.path.join(self.work, f"{config['name']}.json"), scenario_text(config))
            self.generated.append((path, config["name"]))
            paths.append(path)
        return sorted(set(paths))

    def operations(self):
        ops = [
            cli_operation(self.bh.cli, self.out_dir, self.seed, command, name, report, gate)
            for command, name, report, gate in self.FIXTURE_RUNS
        ]
        for path, name in self.generated:
            ops.append(
                cli_operation(
                    self.bh.cli, self.out_dir, self.seed, "verify-cs3", path,
                    f"{name}_verify_cs3.json", cs3_gate,
                )
            )
        return ops


WORKLOADS = {cls.name: cls for cls in (PagesSession, SpectrumCold, VerifyDense)}
