"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np

from bundlehodge.base_forms import (
    hodge_decompose,
    norm as bnorm,
    random_form,
)
from bundlehodge.bigraded import (
    Connection,
    apply_d_component,
    apply_dstar_component,
    random_bigraded,
    sq_norms_batch,
)
from bundlehodge.chern_weil import cw4, make_polynomial
from bundlehodge.harness import (
    cmd_pages,
    cmd_spectrum,
    cmd_verify_cs1,
    cmd_verify_cs3,
    load_scenario,
    packaged_scenario_path,
)
from bundlehodge.lie_algebra import (
    LieCochain,
    ce_adjoint,
    green_inverse,
    harmonic_subspace,
    make_su2,
    make_su3,
)


def record(name, passed, detail=""):
    print(f"{name}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"{name} failed: {detail}"


def fixture(name):
    return load_scenario(packaged_scenario_path(name))


def test_ac1_lie_algebra_suite():
    start = time.time()
    su2 = make_su2()
    su3 = make_su3()
    dims2 = [harmonic_subspace(su2, j).shape[1] for j in range(4)]
    dims3 = [harmonic_subspace(su3, j).shape[1] for j in range(9)]
    ok = dims2 == [1, 0, 0, 1] and dims3 == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    invariance = 0.0
    for alg in (su2, su3):
        for j in range(alg.dim + 1):
            basis = harmonic_subspace(alg, j)
            if basis.shape[1] == 0:
                continue
            for x in range(alg.dim):
                acted = alg.coadjoint_matrix(x, j) @ basis
                if acted.size:
                    invariance = max(invariance, float(np.max(np.abs(acted))))
    green = 0.0
    for alg in (su2, su3):
        for a in range(alg.dim):
            psi = np.zeros(alg.dim)
            psi[a] = 1.0
            beta = green_inverse(alg, LieCochain(1, psi))
            green = max(
                green,
                float(np.max(np.abs(ce_adjoint(alg, 2) @ beta.coefficients - psi))),
            )
    elapsed = time.time() - start
    ok = ok and invariance <= 1e-10 and green <= 1e-10 and elapsed < 1.0
    record(
        "AC1 fiber-complex suite",
        ok,
        f"(dims {dims2} / {dims3}, invariance {invariance:.1e}, green {green:.1e}, {elapsed:.2f}s)",
    )


def test_ac2_bigraded_exactness_suite():
    start = time.time()
    scenario = fixture("t4_su2_cs3")
    conn = scenario.connection
    geo, alg = scenario.geometry, scenario.algebra
    rng = np.random.default_rng(0)
    batch = random_bigraded(geo, alg, 3, (2, 2, 2, 2), rng, batch=100)
    scales = np.sqrt(sq_norms_batch(batch))

    def D(f, a):
        return apply_d_component(f, conn, a)

    def S(f, a):
        return apply_dstar_component(f, conn, a)

    worst = 0.0
    for op in (D, S):
        ups = [op(batch, a) for a in range(3)]
        residuals = [
            op(ups[0], 0),
            op(ups[0], 1) + op(ups[1], 0),
            op(ups[1], 1) + op(ups[0], 2) + op(ups[2], 0),
            op(ups[1], 2) + op(ups[2], 1),
            op(ups[2], 2),
        ]
        for res in residuals:
            sq = sq_norms_batch(res)
            if sq is None:
                continue
            worst = max(worst, float(np.max(np.sqrt(sq) / scales)))
    elapsed = time.time() - start
    ok = worst <= 1e-11 and elapsed < 60.0
    record(
        "AC2 bigraded exactness suite",
        ok,
        f"(worst relative residual {worst:.2e} over 100 forms, {elapsed:.1f}s)",
    )


def test_ac3_degree_one_harmonicity(tmp_path):
    scenario = fixture("t2_u1_c1zero")
    report = cmd_verify_cs1(scenario, out_dir=str(tmp_path), quiet=True)
    ok = report["branch"] == "class_zero"
    ok = ok and report["max_order_residual"] <= 1e-10
    ok = ok and all(rd <= 1e-10 and rs <= 1e-10 for _, rd, rs in report["per_delta"])
    ok = ok and sorted(d for d, _, _ in report["per_delta"]) == sorted(
        [1.0, 0.5, 0.1, 0.01]
    )
    record(
        "AC3 degree-1 harmonicity at every delta",
        ok and report["passed"],
        f"(max order residual {report['max_order_residual']:.2e})",
    )


def test_ac4_nonzero_class_branch(tmp_path):
    scenario = fixture("t2_u1_c1nonzero")
    cs1_report = cmd_verify_cs1(scenario, out_dir=str(tmp_path), quiet=True)
    pages_report = cmd_pages(scenario, out_dir=str(tmp_path), quiet=True)
    ok = cs1_report["branch"] == "class_nonzero"
    ok = ok and pages_report["einf_total"] == 2
    ok = ok and pages_report["einf_dims"].get("0,1", 0) == 0
    record(
        "AC4 nonzero-class branch and transgression",
        ok,
        f"(limit dims {pages_report['einf_dims']})",
    )


def test_ac5_degree_three_harmonicity(tmp_path):
    start = time.time()
    scenario = fixture("t4_su2_cs3")
    report = cmd_verify_cs3(scenario, out_dir=str(tmp_path), quiet=True)
    ok = report["branch"] == "class_zero"
    ok = ok and report["cw4_harmonic_part"] <= 1e-10
    low = [v for m, v in report["orders_d"] + report["orders_dstar"] if m <= 3]
    ok = ok and max(low, default=0.0) <= report["tolerance"]
    ok = ok and report["order3_dstar_without_correction"] > 1e-4
    witness_gap = abs(
        report["order3_dstar_without_correction"]
        - report["covariant_coderivative_norm"]
    )
    ok = ok and witness_gap <= 1e-10 * max(report["covariant_coderivative_norm"], 1.0)
    ok = ok and report["recover_omega3_rel_error"] <= 1e-8
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    record(
        "AC5 degree-3 harmonicity with correction",
        ok and report["passed"],
        f"(witness {report['order3_dstar_without_correction']:.3e}, "
        f"recover {report['recover_omega3_rel_error']:.1e}, {elapsed:.1f}s)",
    )


def test_ac6_page_limit_consistency(tmp_path):
    start = time.time()
    all_ok = True
    details = []
    flat = fixture("t4_su2_flat")
    for p in range(4):
        report = cmd_pages(flat, degree=p, out_dir=str(tmp_path), quiet=True)
        kunneth = sum(
            math.comb(4, i) * {0: 1, 3: 1}.get(p - i, 0) for i in range(5)
        )
        ok = (
            report["stabilized"]
            and report["k_stop"] <= 6
            and report["einf_total"] == kunneth
            and report["consistency_pass"]
        )
        all_ok = all_ok and ok
        details.append(f"flat p{p}:{report['einf_total']}")
    curved = fixture("t3_su2_pages")
    for p in range(4):
        report = cmd_pages(curved, degree=p, out_dir=str(tmp_path), quiet=True)
        ok = (
            report["stabilized"]
            and report["k_stop"] <= 6
            and report["consistency_pass"]
            and report["einf_total"] == report["galerkin_zero_count"]
        )
        all_ok = all_ok and ok
        details.append(f"curved p{p}:{report['einf_total']}={report['galerkin_zero_count']}")
    elapsed = time.time() - start
    all_ok = all_ok and elapsed < 300.0
    record("AC6 page/limit consistency", all_ok, f"({', '.join(details)}, {elapsed:.0f}s)")


def test_ac7_eigenvalue_decay(tmp_path):
    start = time.time()
    scenario = fixture("t4_su2_cs3")
    report = cmd_spectrum(scenario, out_dir=str(tmp_path), quiet=True)
    ok = report["slopes_within_tolerance"]
    for row in report["comparison"]:
        ok = ok and row["count"] == row["expected"]
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    record(
        "AC7 eigenvalue decay grouping",
        ok and report["passed"],
        f"(groups {report['group_counts']}, {elapsed:.0f}s)",
    )


def test_ac8_characteristic_class_invariance():
    scenario = fixture("t4_su2_cs3")
    geo = scenario.geometry
    alg = scenario.algebra
    pair = make_polynomial(alg, "second_chern")
    forms = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        conn = Connection(
            alg, [random_form(geo, 1, (1, 1, 1, 1), rng, 0.5) for _ in range(3)]
        )
        forms.append(cw4(pair, conn))
    diff = forms[0] - forms[1]
    _, _, harm = hodge_decompose(diff)
    ok = bnorm(harm) <= 1e-10
    record(
        "AC8 characteristic class independence",
        ok,
        f"(harmonic part {bnorm(harm):.2e})",
    )
