"""Which scipy modules the bundlehodge commands load, checked in one fresh process.

Run as ``python tests/import_footprint.py`` with bundlehodge importable, from an
install or with ``PYTHONPATH=src``; the reports go to a temporary directory.

Importing the CLI, loading every packaged scenario, ``lie-check``,
``verify-cs1``, ``report`` and a configuration error (exit 2) must leave
``scipy.sparse`` unloaded.  ``pages``, ``spectrum`` and ``verify-cs3`` then
load ``scipy.sparse`` for the sparse matrices they build, and neither
``scipy.sparse.csgraph`` nor ``scipy.linalg``.  Prints every breach and exits
1 if there is one, 0 otherwise.
"""

import sys
import tempfile

SCENARIOS = ("t2_u1_c1zero", "t2_u1_c1nonzero", "t3_su2_pages", "t4_su2_cs3", "t4_su2_flat")

# (command line without --out, expected exit code)
WITHOUT_SPARSE = (
    (["lie-check", "--scenario", "t4_su2_cs3"], 0),
    (["verify-cs1", "--scenario", "t2_u1_c1zero"], 0),
    # a flat connection has no (2,1) part to check: a configuration error
    (["verify-cs3", "--scenario", "t4_su2_flat"], 2),
)
WITH_SPARSE = (
    (["pages", "--scenario", "t2_u1_c1nonzero"], 0),
    (["spectrum", "--scenario", "t2_u1_c1zero"], 0),
    (["verify-cs3", "--scenario", "t4_su2_cs3"], 0),
)
NEVER = ("scipy.sparse.csgraph", "scipy.linalg")


def breaches(out):
    """Every way the commands, run with their reports in ``out``, break the
    footprint of the module docstring."""
    from bundlehodge.cli import main
    from bundlehodge.harness import load_scenario, packaged_scenario_path

    found = []

    def run(argv, want):
        code = main(argv + ["--out", out, "--quiet"])
        if code != want:
            found.append(f"{' '.join(argv)} exited {code}, not {want}")

    for name in SCENARIOS:
        load_scenario(packaged_scenario_path(name))
    for argv, want in WITHOUT_SPARSE:
        run(argv, want)
    run(["report", out], 0)
    if "scipy.sparse" in sys.modules:
        found.append("scipy.sparse loaded before any command built a sparse matrix")
    for argv, want in WITH_SPARSE:
        run(argv, want)
    if "scipy.sparse" not in sys.modules:
        found.append("pages, spectrum and verify-cs3 built no sparse matrix")
    found += [f"{name} loaded" for name in NEVER if name in sys.modules]
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        found = breaches(out)
    for line in found:
        print(line)
    sys.exit(1 if found else 0)
