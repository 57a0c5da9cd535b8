"""bundlehodge benchmark: three verification workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pages-session --seed 1 --seconds 35 --trace 0

The program is imported from ``./src``.  Inputs are written under
``perfbench/work/`` and removed at exit; a full record of each run (the
environment, every pass, accuracy fields, computed work counts) goes to
``perfbench/results/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A pass is one run over the workload's operations, closed loop, one caller.
Passes repeat until the next one would overrun ``--seconds``.

With ``--trace 0`` the metrics are end to end, measured untraced:

- ``setup_s``: median over fresh processes that import bundlehodge and load
  every scenario the workload uses;
- ``wall_s``: median time of one pass;
- ``peak_rss_mb``: peak resident memory of this process.

Both times are given at the reference speed of ``SpeedProbe``; the raw
seconds are in the results file.  A failed operation is one whose exit code,
exception or pinned output misses its gate; ``failed / attempted`` is the
failure ratio, printed as ``fail_ratio``.

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are per layer (see ``spans.py``), with the tracing overhead (traced minus
untraced pass time) and the share of pass time no span covers.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, accuracy_fields  # noqa: E402

SETUP_REPEATS = 7
EXIT_CODES = (0, 1, 2, 3)

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bundlehodge
from bundlehodge.harness import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root):
    """Import bundlehodge from the checkout's own sources, or return None."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bundlehodge", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import bundlehodge
    import bundlehodge.cli  # noqa: F401  (binds bundlehodge.cli and bundlehodge.harness)

    if not os.path.abspath(bundlehodge.__file__).startswith(src + os.sep):
        return None
    return bundlehodge


# -- environment ------------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through its own API."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.realpath(root)))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=20, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def environment(root, seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


# -- measurement ------------------------------------------------------------------


class SpeedProbe:
    """Machine speed, sampled while the work runs.

    The speed of a shared host drifts: a fixed piece of interpreter work
    took from 0.10 to 0.20 s within one minute on a 2-vCPU virtual machine, and
    whole runs made minutes apart differed by 40%.  While a probe is
    active, an interval timer interrupts the work every ``INTERVAL_S`` to
    time one fixed unit of pure interpreter work; ``spent`` is the time
    those units took, which the caller leaves out of its own timings.
    Seconds multiplied by ``REFERENCE_UNIT_S`` over the median unit time of
    the same stretch are seconds at the reference speed; times scaled this
    way are steady across runs, and a change to the program does not move
    the probe.
    """

    INTERVAL_S = 0.2
    UNIT_ITERATIONS = 20000
    REFERENCE_UNIT_S = 0.01

    def __init__(self):
        self.unit_s = []
        self.spent = 0.0

    def _unit(self):
        table = {}
        for i in range(self.UNIT_ITERATIONS):
            key = (i % 7, i % 5)
            table[key] = table.get(key, 0) + i * i

    def sample(self, *_):
        start = time.perf_counter()
        self._unit()
        self.unit_s.append(time.perf_counter() - start)
        self.spent += self.unit_s[-1]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Reference seconds per second over every unit so far; the median
        ignores the short stalls that single units hit."""
        return self.REFERENCE_UNIT_S / statistics.median(self.unit_s)


def measure_setup(root, paths, probe):
    """Raw seconds, per fresh process, to import bundlehodge and load every scenario."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, os.path.join(root, "src"), *paths],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
        probe.sample()
    return times


class Tally:
    """Operation outcomes over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.accuracy = {}

    def record(self, name, failures, report):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.append({"operation": name, "failures": failures})
        if report:
            for key, value in accuracy_fields(report).items():
                self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)


def run_pass(workload, tally, probe, tracer=None):
    """One pass over the workload's operations.

    Returns the raw seconds spent in operations and the CPU seconds of the
    pass, both without the probe's units; the raw seconds at the reference
    speed when the probe sampled this pass; and the exit codes of the CLI
    operations.
    """
    raw = 0.0
    first_unit = len(probe.unit_s)
    cpu0 = time.process_time() - probe.spent
    codes = dict.fromkeys(EXIT_CODES, 0)
    for index, op in enumerate(workload.operations()):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        probed = probe.spent
        try:
            code, report = op.call()
        except Exception:
            code, report = None, None
            failures = ["exception: " + traceback.format_exc(limit=3)]
        else:
            failures = None
        elapsed = time.perf_counter() - start - (probe.spent - probed)
        raw += elapsed
        if failures is None:
            failures = op.gate(code, report)
            if op.cli:
                codes[code] = codes.get(code, 0) + 1
        tally.record(op.name, failures, report)
    cpu = time.process_time() - probe.spent - cpu0
    probe.sample()
    unit_s = statistics.median(probe.unit_s[first_unit:])
    return {
        "raw_s": raw,
        "cpu_s": cpu,
        "scaled_s": raw * probe.REFERENCE_UNIT_S / unit_s,
        "codes": codes,
    }


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def untraced(workload, seconds, tally, probe):
    passes = []
    begin = time.perf_counter()
    while True:
        with probe:
            passes.append(run_pass(workload, tally, probe))
        if time.perf_counter() - begin + _median(passes, "raw_s") > seconds:
            return passes


def traced(bundlehodge, workload, seconds, tally, probe):
    """Alternate untraced and traced passes; per-layer medians over the traced ones."""
    plain, timed, per_layer, computed = [], [], [], None
    begin = time.perf_counter()
    while True:
        with probe:
            plain.append(run_pass(workload, tally, probe))
        tracer = Tracer()
        tracer.install(bundlehodge)
        try:
            timed.append(run_pass(workload, tally, probe, tracer))
        finally:
            tracer.remove()
        metrics, computed = layer_metrics(tracer.spans, timed[-1]["raw_s"])
        metrics.update({f"cli.exit_{code}": count for code, count in timed[-1]["codes"].items()})
        metrics["trace.spans"] = len(tracer.spans)
        per_layer.append(metrics)
        typical = _median(plain, "raw_s") + _median(timed, "raw_s")
        if time.perf_counter() - begin + typical > seconds:
            break
    merged = {key: statistics.median(m[key] for m in per_layer) for key in per_layer[0]}
    merged["trace.overhead_s"] = (_median(timed, "raw_s") - _median(plain, "raw_s")) * probe.scale()
    return merged, plain, timed, computed


def unit(name):
    """Unit of a metric, from the suffix of its name."""
    for suffix, label in (("_s", "s"), ("_mb", "MB"), ("_share", "ratio"), ("_ratio", "ratio"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return label
    return "count"


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    bundlehodge = import_program(root)
    if bundlehodge is None:
        print("no bundlehodge sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    probe = SpeedProbe()
    try:
        workload = WORKLOADS[args.workload](bundlehodge, work, args.seed)
        record["setup_raw_s"] = measure_setup(root, workload.scenario_paths, probe)
        record["environment"] = environment(root, args.seed)
        if args.trace:
            metrics, plain, timed, computed = traced(bundlehodge, workload, args.seconds, tally, probe)
            record.update({"untraced_passes": plain, "traced_passes": timed, "computed": computed})
        else:
            passes = untraced(workload, args.seconds, tally, probe)
            metrics = {
                "setup_s": statistics.median(record["setup_raw_s"]) * probe.scale(),
                "wall_s": _median(passes, "scaled_s"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            record["passes"] = passes
        record["speed_scale"] = probe.scale()
        record["probe_units"] = len(probe.unit_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fail_ratio = tally.failed / tally.attempted
    record.update(
        {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "fail_ratio": fail_ratio,
            "failures": tally.failures,
            "accuracy": tally.accuracy,
            "metrics": metrics,
        }
    )
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if not args.trace:
        print(
            f"context: {len(passes)} passes, raw pass {_median(passes, 'raw_s'):.3f} s, "
            f"cpu per pass {_median(passes, 'cpu_s'):.3f} s, blas threads {env['blas_threads']}"
        )
    print(f"accuracy: {json.dumps(tally.accuracy, sort_keys=True)}")
    print(f"fail_ratio: {fail_ratio} ({tally.failed}/{tally.attempted})")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure['operation']}: {failure['failures']}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
