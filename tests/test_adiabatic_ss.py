"""Page recursion, formal residuals, harmonic limits, and eigenvalue decay."""

import itertools
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from bundlehodge import adiabatic_ss
from bundlehodge.adiabatic_ss import (
    PageRecursion,
    Tolerances,
    _box_rows,
    _boxes,
    _coefficient,
    _layout,
    _solve_columns,
    harmonic_limit,
    near_zero_count,
    recover_omega3,
    residual_orders,
    spectrum_sweep,
    verify_formal_harmonic,
)
from bundlehodge.base_forms import (
    FourierForm,
    TorusGeometry,
    coexact_primitive,
    norm as bnorm,
)
from bundlehodge.bigraded import (
    BigradedForm,
    Connection,
    DeltaPolynomial,
    TruncationLayout,
    bigraded_inner_product,
    bigraded_norm,
    d_delta,
    from_fourier,
    poly_norm,
)
from bundlehodge.chern_weil import (
    abelian_scenario,
    cs1,
    cs3,
    cw2,
    cw4,
    make_polynomial,
)
from bundlehodge.errors import ConfigError, NotExact, SolverFailure
from bundlehodge.harness import (
    Scenario,
    bigraded_to_dict,
    cmd_spectrum,
    load_scenario,
    packaged_scenario_path,
)
from bundlehodge.lie_algebra import make_su2, make_u1
from bundlehodge.multiindex import num_indices

from bigraded_reference import (
    ReferencePages,
    reference_block_solve,
    reference_correction_system,
    reference_d,
    reference_dstar,
    reference_harmonic_limit,
    reference_leading,
    reference_second_page,
    reference_spectrum_branches,
)
from form_builders import constant_form, cos_wave, sin_wave

FIXTURES = ["t2_u1_c1zero", "t2_u1_c1nonzero", "t3_su2_pages", "t4_su2_flat", "t4_su2_cs3"]


def su2_t4_connection():
    geo = TorusGeometry(4)
    alg = make_su2(0.2)
    return Connection(
        alg,
        [
            sin_wave(geo, 1, (1, 0, 0, 0), (1,), 0.8),
            constant_form(geo, 1, (2,), 0.9),
            constant_form(geo, 1, (3,), 1.1),
        ],
    )


def su2_t3_connection():
    geo = TorusGeometry(3)
    alg = make_su2()
    return Connection(
        alg,
        [
            sin_wave(geo, 1, (1, 0, 0), (1,), 0.6),
            constant_form(geo, 1, (2,), 0.7),
            FourierForm.zero(geo, 1),
        ],
    )


def flat_t4_connection():
    geo = TorusGeometry(4)
    alg = make_su2()
    return Connection(alg, [FourierForm.zero(geo, 1) for _ in range(3)])


def abelian_t2(mean):
    geo = TorusGeometry(2)
    alg = make_u1(1)
    flux = cos_wave(geo, 2, (1, 0), (0, 1), 0.4)
    if mean:
        flux = flux + constant_form(geo, 2, (0, 1), 1.0)
    conn, _ = abelian_scenario(flux, geo, alg)
    return conn


def su3_scenario(**fields):
    """t4_su2_cs3 with an su(3) fiber at the same scale, and any other fields
    replaced."""
    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        config = json.load(fh)
    return Scenario(dict(config, algebra={"name": "su3", "scale": "0.2"}, **fields))


def curved_axis0_scenario(band):
    """t4_su2_cs3 at page box ``band`` with a band-1 mode 0.8 sin(x_0) dx^2 added to
    its second fiber component: the curvature holds A^0 ^ A^1, with sin^2(x_0) at band
    2 along axis 0, so leading coefficients reach frequency 2 there, outside the page
    box of band 1."""
    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        config = json.load(fh)
    a0, a1, a2 = config["connection"]["components"]
    mode = [[[1, 0, 0, 0], [2], "0", "-0.4"], [[-1, 0, 0, 0], [2], "0", "0.4"]]
    a1 = [1, {"degree": 1, "band": 1, "entries": a1[1]["entries"] + mode}]
    return Scenario(dict(config, connection={"components": [a0, a1, a2]}, band=band))


def kunneth_dim(n, p):
    return sum(math.comb(n, i) * {0: 1, 3: 1}.get(p - i, 0) for i in range(n + 1))


# -- residual orders ------------------------------------------------------------


def test_residuals_flat_pullback_all_zero():
    conn = flat_t4_connection()
    base = constant_form(conn.geometry, 2, (0, 1), 1.0)
    poly = DeltaPolynomial([from_fourier(base, conn.alg)])
    d_list, s_list = residual_orders(poly, conn)
    assert all(v == 0.0 for _, v in d_list + s_list)


def test_residuals_curved_pullback_order_two():
    conn = su2_t4_connection()
    base = constant_form(conn.geometry, 2, (0, 1), 1.0)
    poly = DeltaPolynomial([from_fourier(base, conn.alg)])
    d_list, s_list = residual_orders(poly, conn)
    assert all(v <= 1e-13 for _, v in d_list)
    by_order = dict(s_list)
    assert by_order.get(0, 0.0) <= 1e-13
    assert by_order.get(1, 0.0) <= 1e-13
    assert by_order.get(2, 0.0) > 1e-3


def test_residuals_cs1_series_identically_zero():
    conn = abelian_t2(mean=False)
    phi = make_polynomial(conn.alg, "first_chern")
    h = coexact_primitive(cw2(phi, conn))
    series = DeltaPolynomial(
        [cs1(phi, conn), (-1.0) * from_fourier(h, conn.alg)]
    )
    d_list, s_list = residual_orders(series, conn)
    assert all(v <= 1e-14 for _, v in d_list + s_list)
    report = verify_formal_harmonic(series, conn, order=12)
    assert report["passed"]


def test_verify_formal_harmonic_detects_failure():
    conn = su2_t4_connection()
    pair = make_polynomial(conn.alg, "second_chern")
    alpha = cs3(pair, conn)
    # the bare secondary form alone is not formally harmonic past order 1
    report = verify_formal_harmonic(DeltaPolynomial([alpha]), conn, order=4)
    assert not report["passed"]


def test_declared_formal_tolerance_is_applied():
    conn = su2_t4_connection()
    pair = make_polynomial(conn.alg, "second_chern")
    poly = DeltaPolynomial([cs3(pair, conn)])
    loose = Tolerances(formal=1e6)
    report = verify_formal_harmonic(poly, conn, order=4, tolerances=loose)
    assert report["passed"]
    assert report["tolerance"] == 1e6 * (1.0 + poly_norm(poly))


# -- page dimensions -------------------------------------------------------------


def test_pages_abelian_flux_with_mean():
    conn = abelian_t2(mean=True)
    rec = PageRecursion(conn, (2, 2)).run(1)
    assert sum(rec.dims_for_degree(0, 1).values()) == 75
    dims2 = rec.dims_for_degree(2, 1)
    assert dims2 == {(1, 0): 2, (0, 1): 1}
    dims3 = rec.dims_for_degree(3, 1)
    assert dims3 == {(1, 0): 2}
    assert rec.stabilized
    assert rec.k_stop == 3
    assert [slot for slot, _, _ in rec.entries(rec.k_stop, 1)] == [(1, 0), (1, 0)]


def test_pages_abelian_flux_exact():
    conn = abelian_t2(mean=False)
    rec = PageRecursion(conn, (2, 2)).run(1)
    assert sum(rec.dims_for_degree(rec.k_stop, 1).values()) == 3


def test_pages_flat_kunneth_all_degrees():
    conn = flat_t4_connection()
    rec = PageRecursion(conn, (1, 1, 1, 1)).run(0)
    for p in range(8):
        total = sum(rec.dims_for_degree(rec.k_stop, p).values())
        box = (2 * 1 + 1) ** 4
        expected = sum(
            math.comb(4, i) * {0: 1, 3: 1}.get(p - i, 0) for i in range(5)
        )
        assert total == expected
        # from the second page on, every page already has the limit dims
        for K in range(2, rec.k_stop + 1):
            assert sum(rec.dims_for_degree(K, p).values()) == expected


def test_pages_monotone_dimensions():
    for conn, bands in (
        (su2_t3_connection(), (1, 1, 1)),
        (abelian_t2(mean=True), (2, 2)),
    ):
        rec = PageRecursion(conn, bands).run(1)
        for p in range(conn.geometry.n + conn.alg.dim + 1):
            for K in range(1, rec.k_stop + 1):
                prev = rec.dims_for_degree(K - 1, p)
                for slot, r in rec.dims_for_degree(K, p).items():
                    assert r <= prev.get(slot, 0)


def test_pages_diagnostics_small():
    rec = PageRecursion(su2_t3_connection(), (1, 1, 1))
    for p in range(7):
        diagnostics = rec.run(p).diagnostics(p)
        assert diagnostics["offslot_residual"] <= 1e-9
        assert diagnostics["dsq_residual"] <= 1e-9
        assert diagnostics["adjoint_consistency"] <= 1e-9


def test_pages_t4_curved_collapse():
    rec = PageRecursion(su2_t4_connection(), (1, 1, 1, 1)).run(3)
    assert rec.dims_for_degree(1, 3) == {(0, 3): 81, (3, 0): 324}
    for K in range(2, rec.k_stop + 1):
        assert rec.dims_for_degree(K, 3) == {(0, 3): 1, (3, 0): 4}
    assert rec.stabilized


@pytest.mark.parametrize("name", FIXTURES + ["su3"])
def test_second_page_closed_form_matches_a_dense_first_page_step(name):
    """The closed-form page 2 (constant base forms times H(g), at frequency
    zero) has the dims and spans of the page computed by one generic step from
    a dense page 1 over the whole page box.  The sines of the principal angles
    are the singular values of (I - Q Q^H) P (Bjorck and Golub, Math. Comp. 27,
    1973), which do not floor at sqrt(eps) as sqrt(1 - cos^2) does."""
    if name == "su3":
        conn, bands = su3_scenario().connection, (1, 0, 0, 0)
    else:
        scenario = load_scenario(packaged_scenario_path(name))
        conn, bands = scenario.connection, scenario.bands
    rec = PageRecursion(conn, bands, k_max=2)
    want = reference_second_page(conn, bands)
    degrees = range(conn.geometry.n + conn.alg.dim + 1)
    got = {slot: r for p in degrees for slot, r in rec.dims_for_degree(2, p).items()}
    assert got == {slot: b.shape[1] for slot, (_, b) in want.items() if b.shape[1]}
    zero = (0,) * conn.geometry.n
    for slot, (coords, q) in want.items():
        if not q.shape[1]:
            continue
        p = np.zeros_like(q)
        p[_box_rows(coords, slot, zero)] = rec.page(2, sum(slot))[slot]
        assert np.max(np.abs(p.conj().T @ p - np.eye(p.shape[1]))) <= 1e-14
        sines = np.linalg.svd(p - q @ (q.conj().T @ p), compute_uv=False)
        assert sines.max() <= 1e-12


def test_su3_lifts_are_solved_on_the_zero_box():
    """Page bases live at frequency zero, so every correction system of an su(3)
    recursion is posed there: its unknowns and equations are the layouts of the
    boxes t c, t >= 1; page 2 in degree 3 is Kunneth, 4 + 1."""
    conn = su3_scenario().connection
    rec = PageRecursion(conn, (1, 1, 1, 1), k_max=3).run(3)
    posed = [key[1:] for key in conn._cache if key[0] == "corrections"]
    assert posed
    for degree, order in posed:
        mat, _ = conn._cache[("corrections", degree, order)]
        boxes = _boxes(conn, order)[1:]
        height = sum(_layout(conn, p, box).dim for box in boxes for p in (degree + 1, degree - 1))
        assert mat.shape == (height, sum(_layout(conn, degree, box).dim for box in boxes))
    assert rec.dims_for_degree(2, 3) == {(0, 3): 1, (3, 0): 4}
    assert not rec.stabilized


def recording_solves(calls):
    """Patch _solve_columns to append (degree, lead, order, lift terms) of every
    call to ``calls``."""
    solve = adiabatic_ss._solve_columns

    def recording(conn, degree, lead, order, tolerances):
        ws = solve(conn, degree, lead, order, tolerances)
        calls.append((degree, lead, order, ws))
        return ws

    return mock.patch.object(adiabatic_ss, "_solve_columns", recording)


def lifted_degrees(calls):
    """{page K: sorted degrees of its lifts} of the recorded _solve_columns calls,
    the lifts of page K being the corrections of order K - 1."""
    pages = {}
    for degree, _, order, _ in calls:
        pages.setdefault(order + 1, set()).add(degree)
    return {K: sorted(degrees) for K, degrees in sorted(pages.items())}


def test_final_page_lifts_are_solved_only_in_the_degree_read():
    """The pages of degree 1 on t4_su2_flat lift page K in the degrees of its
    cone, and in those the stop rule reads besides: the witness that pages 3 and
    4 go on is the pair (0,3), (4,0) in degrees 3 and 4, which page 3 reaches
    through the page-2 lifts of degrees up to 5.  The stable page is lifted in
    degree 1 only, by harmonic_limit, and the stop page is k_stop 5 of the
    global rule (a rule per degree would stop at 3)."""
    conn = load_scenario(packaged_scenario_path("t4_su2_flat")).connection
    calls = []
    with recording_solves(calls):
        rec = PageRecursion(conn, (1, 1, 0, 0)).run(1)
        assert lifted_degrees(calls) == {2: [0, 1, 2, 3, 4, 5], 3: [0, 1, 2, 3, 4], 4: [0, 1]}
        ran = len(calls)
        harmonic_limit(rec, 1)
    assert rec.k_stop == 5 and rec.stabilized
    assert lifted_degrees(calls[ran:]) == {5: [1]}
    assert [key for key in rec.lifts if key[0] == 5] == [(5, 1)]


def test_flat_lifts_pose_no_correction_system():
    """On the flat t4_su2_flat every page basis is fiber-harmonic at frequency
    zero, so the coupling terms annihilate it: every right-hand side is exactly
    zero, no correction system is posed, and every lift term is exact zeros.
    The leading coefficients skip those terms and are computed into the zero
    box, so no component matrix has the page box as its source or target.  In
    degree 3 the stop rule's witnesses lie in the cone, so the lifts are those
    of the cone exactly: page K in degrees 3 - (5 - K) .. 3 + 4 - K, and the
    stable page in degree 3."""
    conn = load_scenario(packaged_scenario_path("t4_su2_flat")).connection
    bands = (1, 1, 0, 0)
    calls = []
    with recording_solves(calls):
        rec = PageRecursion(conn, bands).run(3)
        harmonic_limit(rec, 3)
    assert rec.k_stop == 5
    assert lifted_degrees(calls) == {2: [0, 1, 2, 3, 4, 5], 3: [1, 2, 3, 4], 4: [2, 3], 5: [3]}
    assert not [key for key in conn._cache if key[0] == "corrections"]
    for lifts in rec.lifts.values():
        for w in lifts.values():
            assert all(not term.any() for term in w[1:])
    components = [key for key in conn._cache if key[0] == "component"]
    assert components
    assert not [key for key in components if bands in (key[2][1], key[3][1])]


def test_spectrum_lifts_only_the_cone_of_its_degree(tmp_path):
    """spectrum on t4_su2_cs3 at band (1,1,1,0) in degree 3 reads pages 0 .. 5 of
    degree 3 and lifts page 2 in degrees 0..5, page 3 in 1..4 and page 4 in 2..3,
    the cone of page 5 in degree 3; it lifts no stable page."""
    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        config = json.load(fh)
    scenario = Scenario(dict(config, band=[1, 1, 1, 0]))
    calls = []
    with recording_solves(calls):
        report = cmd_spectrum(scenario, degree=3, out_dir=str(tmp_path), quiet=True)
    assert report["passed"] and len(report["page_dims"]) == 6
    assert lifted_degrees(calls) == {2: [0, 1, 2, 3, 4, 5], 3: [1, 2, 3, 4], 4: [2, 3]}


def test_stop_below_the_collapse_bound_reads_every_degree():
    """t3_su2_pages stops at page 3, below its collapse bound 4: no degree of page
    3 holds a witness that the pages go on, so the stop rule computed page 3 in
    every degree, degree 0 asked first."""
    scenario = load_scenario(packaged_scenario_path("t3_su2_pages"))
    rec = scenario.page_recursion(0)
    assert (rec.k_stop, rec.collapse_bound, rec.stabilized) == (3, 4, True)
    assert [p for p in range(8) if (3, p) in rec.bases] == list(range(7))


@pytest.mark.parametrize("name", FIXTURES + ["su3"])
def test_lazy_pages_equal_an_eager_run(name):
    """A fresh recursion per degree, run for that degree, against one eager run
    that steps every degree (ReferencePages): the same k_stop and stabilization,
    the same dims on every page, and the page bases, E_inf, limit forms and the
    residual orders of the stable lifts equal to the bit; the lifts counted in
    the diagnostics are those of the degree's cone.  Every degree of the
    five fixtures; degrees 0..4 of the su(3) copy of t4_su2_cs3, whose page box
    does not change its pages from 2 on."""
    if name == "su3":
        scenario = su3_scenario(band=[1, 0, 0, 0])
        degrees = range(5)
    else:
        scenario = load_scenario(packaged_scenario_path(name))
        degrees = range(scenario.geometry.n + scenario.algebra.dim + 1)
    conn, args = scenario.connection, (scenario.bands, scenario.k_max, scenario.tolerances)
    eager = ReferencePages(conn, *args)
    assert eager.stabilized
    for p in degrees:
        rec = PageRecursion(conn, *args).run(p)
        assert (rec.k_stop, rec.stabilized) == (eager.k_stop, eager.stabilized)
        for K in range(rec.k_stop + 1):
            assert rec.dims_for_degree(K, p) == eager.dims_for_degree(K, p)
        for K in range(2, rec.k_stop + 1):
            want = [(slot, basis) for slot, basis in eager.bases[K].items() if sum(slot) == p]
            assert [slot for slot, _ in want] == list(rec.page(K, p))
            assert all(np.array_equal(rec.page(K, p)[slot], basis) for slot, basis in want)
        limits = [bigraded_to_dict(form) for form in harmonic_limit(rec, p)]
        assert limits == [bigraded_to_dict(form) for form in harmonic_limit(eager, p)]
        assert len(limits) == sum(rec.dims_for_degree(rec.k_stop, p).values())
        orders = [residual_orders(lift, conn) for _, _, lift in rec.entries(rec.k_stop, p)]
        assert orders == [residual_orders(lift, conn) for _, _, lift in eager.entries(eager.k_stop, p)]
        # the lifts of the cone: page K in degrees p - (k_stop - K) .. p + k_stop - K - 1,
        # and the stable page in degree p
        k = rec.k_stop
        cone = [(K, q) for K in range(2, k) for q in range(p - k + K, p + k - K)] + [(k, p)]
        solved = sum(sum(eager.dims_for_degree(K, q).values()) for K, q in cone)
        assert rec.diagnostics(p)["corrections_solved"] == solved


def test_pages_do_not_depend_on_the_page_box():
    """Every page from 2 on lies at frequency zero, so the page box sets only the
    counts of pages 0 and 1.  On a connection whose curvature has band 2 along axis
    0, the bases at page box band 1 and band 2 are equal to the bit, and E_inf in
    degrees 1..3 is 4, 6, 5 = limit_count = galerkin_zero_count at both."""
    recursions = []
    for band in (1, 2):
        scenario = curved_axis0_scenario(band)
        conn = scenario.connection
        assert conn.coupling_bands() == (2, 0, 0, 0)
        rec = PageRecursion(conn, scenario.bands, scenario.k_max, scenario.tolerances).run(1)
        assert rec.stabilized
        for p, total in zip((1, 2, 3), (4, 6, 5)):
            assert sum(rec.dims_for_degree(rec.k_stop, p).values()) == total
            assert len(harmonic_limit(rec, p)) == total
            count, _ = near_zero_count(conn, p, 0.5, scenario.galerkin_bands, scenario.tolerances.spectral)
            assert count == total
        recursions.append(rec)
    narrow, wide = recursions
    assert narrow.dims_for_degree(0, 1) != wide.dims_for_degree(0, 1)
    assert narrow.k_stop == wide.k_stop
    for K in range(2, narrow.k_stop + 1):
        for p in range(8):
            assert narrow.page(K, p).keys() == wide.page(K, p).keys()
            for slot, basis in narrow.page(K, p).items():
                assert np.array_equal(basis, wide.page(K, p)[slot])


@pytest.mark.parametrize("name", FIXTURES)
def test_projected_page_matrices_match_the_wide_box_leading_coefficients(name):
    """Every projection of a zero-box leading coefficient onto a page slot, target
    or not, equals bit for bit the projection of the coefficient over
    max(K c, page box)."""
    scenario = load_scenario(packaged_scenario_path(name))
    rec = PageRecursion(scenario.connection, scenario.bands, scenario.k_max, scenario.tolerances)
    rec.run(scenario.degree)
    checked = 0
    degrees = range(scenario.geometry.n + scenario.algebra.dim + 1)
    for K, p, up in itertools.product(range(2, rec.k_stop), degrees, (True, False)):
        adjoints = {slot: basis.conj().T for slot, basis in rec.page(K, p + (1 if up else -1)).items()}
        for w in rec._lifts(K, p).values() if adjoints else ():
            layout, coeff = _coefficient(rec.conn, K, p, w, up, rec.zero)
            wide, wide_coeff = reference_leading(rec, K, p, w, up)
            for target, adjoint in adjoints.items():
                want = adjoint @ wide_coeff[_box_rows(wide, target, rec.zero)]
                assert np.array_equal(rec._project(layout, coeff, target, adjoints)[0], want)
                checked += 1
    assert checked


def test_zero_rhs_lifts_equal_the_posed_solve():
    """On the curved t4_su2_cs3 some lifts have an exactly-zero right-hand side and
    some do not.  Each lift equals the solve of its whole system on every block
    (np.array_equal), with the right-hand side read from the whole matrix on w_0,
    whose rows past equation 2 give -0; the nonzero ones, and only they, are
    posed, each on the right-hand side from the leading coefficients of w_0,
    bit for bit that of the matrix on w_0, its -0 rows included."""
    conn = load_scenario(packaged_scenario_path("t4_su2_cs3")).connection
    calls, solved = [], []
    solve = adiabatic_ss._block_lstsq

    def recording(mat, blocks, rhs, *args):
        solved.append(rhs)
        return solve(mat, blocks, rhs, *args)

    with recording_solves(calls), mock.patch.object(adiabatic_ss, "_block_lstsq", recording):
        rec = PageRecursion(conn, (1, 1, 1, 0)).run(3)
        for p in range(8):
            rec._lifts(rec.k_stop, p)
    posed = {key for key in conn._cache if key[0] == "corrections"}
    zero, nonzero = [], []
    negative_zero = np.full(1, complex(-0.0, -0.0)).view(np.uint64)
    solved = iter(solved)
    for degree, lead, order, ws in calls:
        unknowns, mat, lead_mat = reference_correction_system(conn, degree, order)
        rhs = -(lead_mat @ lead)
        (nonzero if rhs.any() else zero).append(("corrections", degree, order))
        boxes = _boxes(conn, min(order, 2))[1:]
        head = sum(_layout(conn, p, box).dim for box in boxes for p in (degree + 1, degree - 1))
        assert np.all(rhs[head:].view(np.uint64) == negative_zero[0])
        if rhs.any():
            assert next(solved).tobytes() == rhs.tobytes()
        x = reference_block_solve(mat, rhs)
        want = np.split(x, np.cumsum([layout.dim for layout in unknowns[1:]])[:-1])
        assert len(ws) == len(want) == order
        assert all(np.array_equal(w, v) for w, v in zip(ws, want))
    assert zero and nonzero and any(order > 2 for _, _, order in nonzero)
    assert next(solved, None) is None
    assert posed == set(nonzero)


def test_stable_entries_orthonormal_with_valid_lifts():
    conn = su2_t3_connection()
    rec = PageRecursion(conn, (1, 1, 1)).run(3)
    K = rec.k_stop
    entries = rec.entries(K, 3)
    assert len(entries) == 2
    for _, v, lift in entries:
        assert abs(bigraded_inner_product(v, v).real - 1.0) <= 1e-10
        first = lift.coefficient(0)
        assert bigraded_norm(first - v) <= 1e-12
        d_list, s_list = residual_orders(lift, conn)
        for m, val in d_list + s_list:
            if m < K:
                assert val <= 1e-9


def test_pages_match_galerkin_zero_count():
    # independent oracle: dense kernel count of the compressed operator
    conn = su2_t3_connection()
    rec = PageRecursion(conn, (1, 1, 1)).run(0)
    for p in range(4):
        total = sum(rec.dims_for_degree(rec.k_stop, p).values())
        count, _ = near_zero_count(conn, p, 0.5, (10, 1, 1), 1e-8)
        assert count == total


def test_near_zero_count_sparse_branch():
    # box (20, 1, 1) in degree 3 has dimension 7380, too large to hold densely
    # in comfort; the block split computes its whole spectrum exactly
    conn = su2_t3_connection()
    count, top = near_zero_count(conn, 3, 0.5, (20, 1, 1), 1e-8)
    assert count == 2
    assert top > 0.0


# -- harmonic limits --------------------------------------------------------------


def test_harmonic_limit_base_classes_map_to_themselves():
    conn = su2_t3_connection()
    rec = PageRecursion(conn, (1, 1, 1)).run(1)
    limits = harmonic_limit(rec, 1)
    assert len(limits) == 3
    for form in limits:
        assert form.slots() == [(1, 0)]


def test_harmonic_limit_flat_kunneth_products():
    conn = flat_t4_connection()
    rec = PageRecursion(conn, (1, 1, 1, 1)).run(3)
    limits = harmonic_limit(rec, 3)
    assert len(limits) == 5
    for form in limits:
        for slot, table in form.components.items():
            assert slot in ((3, 0), (0, 3))
            assert set(table) == {(0, 0, 0, 0)}


def test_harmonic_limit_contains_cs3_representative():
    conn = su2_t4_connection()
    rec = PageRecursion(conn, (1, 1, 1, 1)).run(3)
    limits = harmonic_limit(rec, 3)
    assert len(limits) == 5
    pair = make_polynomial(conn.alg, "second_chern")
    alpha = cs3(pair, conn)
    h = coexact_primitive(cw4(pair, conn))
    target = alpha + (-1.0) * from_fourier(h, conn.alg)
    gram = np.array([[bigraded_inner_product(x, y) for y in limits] for x in limits])
    rhs = np.array([bigraded_inner_product(x, target) for x in limits])
    coeffs = np.linalg.solve(gram, rhs)
    recon = BigradedForm.zero(conn.geometry, conn.alg)
    for c, form in zip(coeffs, limits):
        recon = recon + c * form
    assert bigraded_norm(recon - target) <= 1e-10 * bigraded_norm(target)


def test_harmonic_limit_outputs_are_real():
    conn = abelian_t2(mean=False)
    limits = harmonic_limit(PageRecursion(conn, (2, 2)).run(1), 1)
    for form in limits:
        for slot, table in form.components.items():
            for key, val in table.items():
                mirror = table.get(tuple(-k for k in key))
                assert mirror is not None
                assert np.max(np.abs(np.conj(mirror) - val)) <= 1e-12


@pytest.mark.parametrize("name", FIXTURES)
def test_harmonic_limit_spans_match_form_level_realify(name):
    """The limit gathered and realified in coordinates spans the same space
    as the form-level regrading and realification of the handed-out lifts,
    in every degree, with real orthonormal forms."""
    scenario = load_scenario(packaged_scenario_path(name))
    rec = scenario.page_recursion(0)
    for p in range(scenario.geometry.n + scenario.algebra.dim + 1):
        got = harmonic_limit(rec, p)
        want = reference_harmonic_limit(rec, p)
        assert len(got) == len(want) == sum(rec.dims_for_degree(rec.k_stop, p).values())
        gram = np.array([[bigraded_inner_product(x, y) for y in got] for x in got])
        assert np.max(np.abs(gram - np.eye(len(got))), initial=0.0) <= 1e-14
        for form in got:
            rest = form
            for ref in want:
                rest = rest - bigraded_inner_product(ref, form) * ref
            assert bigraded_norm(rest) <= 1e-12
            for table in form.components.values():
                for key, val in table.items():
                    assert np.array_equal(table[tuple(-k for k in key)], np.conj(val))


# -- corrections: canonical lifts and uniqueness ------------------------------------


def solve_corrections(conn, v, order, tolerances=None):
    """Corrections w_1..w_order with residual orders 1..order all zero.

    ``v`` has one total degree and lies at frequency zero, as every page basis
    does.  The unknown at order t is confined to the box t c of the coupling
    band c of the connection, which contains the minimal-norm solution.  The
    route of the page recursion's lifts, for one form.

    Raises SolverFailure when the least-squares system cannot be
    driven to zero (the vector is not actually on the page).
    """
    tolerances = tolerances or Tolerances()
    if order <= 0:
        return []
    geo, alg = v.geometry, v.alg
    degrees = {i + j for i, j in v.slots()}
    if len(degrees) > 1:
        raise ConfigError("corrections are solved one total degree at a time")
    if not degrees:
        return [BigradedForm.zero(geo, alg) for _ in range(order)]
    degree = degrees.pop()
    lead, cut = _layout(conn, degree, (0,) * geo.n).vector_from_form(v)
    if cut:
        raise ConfigError("corrections are solved for vectors at frequency zero only")
    ws = _solve_columns(conn, degree, lead[:, None], order, tolerances)
    return [
        _layout(conn, degree, box).form_from_vector(w[:, 0])
        for box, w in zip(_boxes(conn, order)[1:], ws)
    ]



def dense_canonical(conn, v, order, constraints):
    """Independent dense least-squares route to the minimal-norm corrections,
    kept orthogonal to each form of ``constraints``."""
    geo, alg = v.geometry, v.alg
    degree = sum(v.slots()[0])
    coupling = conn.coupling_bands()
    reach = [0] * geo.n
    for table in v.components.values():
        for key in table:
            for a, k in enumerate(key):
                reach[a] = max(reach[a], abs(k))

    def layout(p, t):
        bands = tuple(reach[a] + t * coupling[a] for a in range(geo.n))
        return TruncationLayout.of_degree(geo, alg, p, bands)

    unknown = [layout(degree, t) for t in range(1, order + 1)]
    eq_spaces = [
        (layout(degree + 1, t + 1), layout(degree - 1, t + 1)) for t in range(1, order + 1)
    ]

    sizes = [lay.dim for lay in unknown]
    total = sum(sizes)

    def forward(ws):
        rows = []
        for t in range(1, order + 1):
            eq_d = reference_d(ws[t - 1], conn, 0)
            eq_s = reference_dstar(ws[t - 1], conn, 0)
            if t - 2 >= 0 and t - 2 < order:
                eq_d = eq_d + reference_d(ws[t - 2], conn, 1)
                eq_s = eq_s + reference_dstar(ws[t - 2], conn, 1)
            if t - 3 >= 0:
                eq_d = eq_d + reference_d(ws[t - 3], conn, 2)
                eq_s = eq_s + reference_dstar(ws[t - 3], conn, 2)
            rows.append(eq_spaces[t - 1][0].vector_from_form(eq_d)[0])
            rows.append(eq_spaces[t - 1][1].vector_from_form(eq_s)[0])
        cons_rows = []
        for cons in constraints:
            for t in range(order):
                cons_rows.append(bigraded_inner_product(cons, ws[t]))
        return np.concatenate(rows + [np.array(cons_rows, dtype=complex)])

    cols = []
    for t in range(order):
        for idx in range(sizes[t]):
            unit = np.zeros(sizes[t], dtype=complex)
            unit[idx] = 1.0
            ws = [
                unknown[s].form_from_vector(unit) if s == t else BigradedForm.zero(geo, alg)
                for s in range(order)
            ]
            cols.append(forward(ws))
    mat = np.stack(cols, axis=1)
    rhs_rows = []
    for t in range(1, order + 1):
        eq_d = BigradedForm.zero(geo, alg)
        eq_s = BigradedForm.zero(geo, alg)
        if t == 1:
            eq_d = (-1.0) * reference_d(v, conn, 1)
            eq_s = (-1.0) * reference_dstar(v, conn, 1)
        if t == 2:
            eq_d = (-1.0) * reference_d(v, conn, 2)
            eq_s = (-1.0) * reference_dstar(v, conn, 2)
        rhs_rows.append(eq_spaces[t - 1][0].vector_from_form(eq_d)[0])
        rhs_rows.append(eq_spaces[t - 1][1].vector_from_form(eq_s)[0])
    rhs_rows.append(np.zeros(len(constraints) * order, dtype=complex))
    rhs = np.concatenate(rhs_rows)
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    out = []
    off = 0
    for t in range(order):
        out.append(unknown[t].form_from_vector(sol[off : off + sizes[t]]))
        off += sizes[t]
    return out


def test_lift_uniqueness_two_routes():
    """Two independently computed minimal-norm lifts agree termwise."""
    conn = abelian_t2(mean=False)
    rec = PageRecursion(conn, (1, 1)).run(1)
    entries = rec.entries(rec.k_stop, 1)
    slot0, v, _ = [e for e in entries if e[0] == (0, 1)][0]
    order = 2
    route_a = solve_corrections(conn, v, order)
    route_b = dense_canonical(conn, v, order, [])
    for wa, wb in zip(route_a, route_b):
        scale = 1.0 + bigraded_norm(wa)
        assert bigraded_norm(wa - wb) <= 1e-8 * scale


def test_lift_uniqueness_curved_t3():
    conn = su2_t3_connection()
    rec = PageRecursion(conn, (1, 1, 1)).run(3)
    entries = rec.entries(rec.k_stop, 3)
    slot0, v, _ = [e for e in entries if e[0] == (0, 3)][0]
    # order 3 puts the curvature contraction d_2 on the unknown w_1
    for order in (2, 3):
        route_a = solve_corrections(conn, v, order)
        route_b = dense_canonical(conn, v, order, [])
        assert len(route_a) == order
        for wa, wb in zip(route_a, route_b):
            scale = 1.0 + bigraded_norm(wa)
            assert bigraded_norm(wa - wb) <= 1e-8 * scale
    assert bigraded_norm(route_a[2]) > 0.1


@pytest.mark.parametrize(
    "make_conn, bands",
    [
        (su2_t3_connection, (1, 1, 1)),
        (lambda: abelian_t2(mean=True), (2, 2)),
        (su2_t4_connection, (1, 1, 0, 0)),
    ],
    ids=["su2-t3", "u1-t2-mean", "su2-t4-flat-axes"],
)
def test_recursion_lifts_match_solve_corrections(make_conn, bands):
    """Every lift term the recursion hands out is the minimal-norm
    correction that solve_corrections finds for its leading vector.

    The recursion solves every lift at frequency zero, where page bases live,
    whatever the page box, on axes the connection couples or not (the t4 case
    with box (1, 1, 0, 0)).
    """
    conn = make_conn()
    rec = PageRecursion(conn, bands).run(0)
    checked = 0
    for K in range(2, rec.k_stop + 1):
        for p in range(conn.geometry.n + conn.alg.dim + 1):
            for _, v, lift in rec.entries(K, p):
                ws = solve_corrections(conn, v, K - 1)
                assert len(lift) <= K
                for t, w in enumerate(ws, start=1):
                    term = lift.coefficient(t)
                    gap = bigraded_norm(w if term is None else term - w)
                    assert gap <= 1e-10 * (1.0 + bigraded_norm(w))
                    checked += 1
    assert checked > 0


def test_corrections_reproduce_primitive():
    """The first correction of the fiber class is minus the base primitive.

    For an abelian fiber the leading operator vanishes, so w_1 is pinned by
    the order-2 equation: the horizontal derivative of w_1 must cancel the
    curvature contraction of the class.  The minimal-norm solution is the
    coexact primitive with a minus sign.
    """
    conn = abelian_t2(mean=False)
    phi = make_polynomial(conn.alg, "first_chern")
    v = cs1(phi, conn)
    ws = solve_corrections(conn, v, 2)
    h = coexact_primitive(cw2(phi, conn))
    target = (-1.0) * from_fourier(h, conn.alg)
    assert bigraded_norm(ws[0] - target) <= 1e-10 * (1.0 + bigraded_norm(target))
    # the order-2 correction appears in no equation, so minimal norm zeroes it
    assert bigraded_norm(ws[1]) <= 1e-10


def test_solver_failure_for_non_page_vector():
    """A vector outside the second page admits no order-1 correction.

    A random fiber 1-form at frequency zero is not fiber-harmonic (su(2) has no
    harmonic 1-forms), so it is not on page 2, and the leading operator cannot
    cancel its order-1 coupling terms."""
    conn = su2_t3_connection()
    rng = np.random.default_rng(0)
    v = BigradedForm(conn.geometry, conn.alg, {(0, 1): {(0, 0, 0): rng.standard_normal((1, 3))}})
    with pytest.raises(SolverFailure) as err:
        solve_corrections(conn, v, 1, Tolerances())
    assert err.value.order == 1
    assert err.value.residual > 1.0


# -- spectra -----------------------------------------------------------------------


def test_spectrum_sweep_abelian_groups():
    conn = abelian_t2(mean=True)
    report = spectrum_sweep(conn, 1, [0.4, 0.2, 0.1, 0.05], (2, 2))
    counts = report.group_counts()
    rec = PageRecursion(conn, (2, 2)).run(1)
    dims = [
        sum(rec.dims_for_degree(K, 1).values()) for K in range(rec.k_stop + 1)
    ]
    # all eigenvalues decay at least like delta^2 for an abelian fiber
    assert counts.get(2, 0) == dims[1] - dims[2]
    assert counts.get(4, 0) == dims[2] - dims[3]
    assert counts.get("inf", 0) == dims[3]
    for branch in report.branches:
        if branch["near_zero"] and not branch["is_floor"]:
            assert branch["within_tolerance"]


def _boxed_scenario(name, **fields):
    with open(packaged_scenario_path(name)) as fh:
        config = json.load(fh)
    return Scenario(dict(config, **fields))


def _slope_bits(branches):
    return [None if b["slope"] is None else np.float64(b["slope"]).tobytes() for b in branches]


@pytest.mark.parametrize(
    "name, fields",
    [("t4_su2_cs3", {"band": [1, 1, 1, 0]}), ("t2_u1_c1zero", {}), ("t2_u1_c1nonzero", {})],
)
def test_spectrum_sweep_one_fit_equals_a_fit_per_branch(name, fields):
    """The slopes of the one two-dimensional polyfit equal those of one polyfit per
    near-zero branch bit for bit, and so do every branch field and the group counts."""
    scenario = _boxed_scenario(name, **fields)
    with mock.patch.object(np, "polyfit", wraps=np.polyfit) as polyfit:
        report = spectrum_sweep(
            scenario.connection, scenario.degree, scenario.delta_grid, scenario.bands, scenario.tolerances
        )
    want = reference_spectrum_branches(report)
    fitted = [b for b in want if b["slope"] is not None]
    assert fitted and polyfit.call_count == 1
    assert polyfit.call_args.args[1].shape == (len(report.deltas), len(fitted))
    assert report.branches == want
    assert _slope_bits(report.branches) == _slope_bits(want)
    assert report.group_counts() == Counter(b["group"] for b in want)


@pytest.mark.parametrize(
    "spectrum, groups",
    [
        # one floor branch, two far above the near-zero cut: nothing to fit
        (lambda delta: np.array([0.0, 1.0, 2.0 + delta]), {"inf": 1, None: 2}),
        # every branch at the floor: a zero spectrum
        (lambda delta: np.zeros(3), {"inf": 3}),
    ],
)
def test_spectrum_sweep_without_a_fitted_branch_calls_no_polyfit(spectrum, groups):
    conn = abelian_t2(mean=True)
    with mock.patch.object(adiabatic_ss, "_galerkin_spectrum", lambda c, p, delta, b: spectrum(delta)):
        with mock.patch.object(np, "polyfit", side_effect=AssertionError("no branch to fit")):
            report = spectrum_sweep(conn, 1, [0.4, 0.2, 0.1], (1, 1))
    assert report.branches == reference_spectrum_branches(report)
    assert report.group_counts() == groups


def test_spectrum_rejects_bad_deltas():
    conn = abelian_t2(mean=True)
    from bundlehodge.errors import ConfigError

    with pytest.raises(ConfigError):
        spectrum_sweep(conn, 1, [0.5, 2.0], (2, 2))


@pytest.mark.parametrize("deltas", [[0.5], [0.5, 0.5]])
def test_spectrum_rejects_grid_without_two_distinct_deltas(deltas):
    # a decay slope fitted through one point is meaningless
    conn = abelian_t2(mean=True)
    from bundlehodge.errors import ConfigError

    with pytest.raises(ConfigError):
        spectrum_sweep(conn, 1, deltas, (2, 2))


# -- order-4 recovery ----------------------------------------------------------------


def test_recover_omega3_matches_primitive():
    conn = su2_t4_connection()
    pair = make_polynomial(conn.alg, "second_chern")
    alpha = cs3(pair, conn)
    geo, alg = conn.geometry, conn.alg
    zero = BigradedForm.zero(geo, alg)
    a03 = BigradedForm(geo, alg, {(0, 3): alpha.components[(0, 3)]})
    a21 = BigradedForm(geo, alg, {(2, 1): alpha.components[(2, 1)]})
    lift = DeltaPolynomial([a03, zero.copy(), a21])
    x = recover_omega3(conn, d_delta(lift, conn).coefficient(4))
    h = coexact_primitive(cw4(pair, conn))
    assert bnorm(x - (-1.0) * h) <= 1e-8 * max(bnorm(h), 1e-300)


def test_recover_omega3_not_exact_branch():
    geo = TorusGeometry(4)
    alg = make_u1(1)
    flux = constant_form(geo, 2, (0, 1), 1.0) + constant_form(geo, 2, (2, 3), 1.0)
    conn, _ = abelian_scenario(flux, geo, alg)
    # a (2,1) coefficient pairing the flux into the fiber generator
    from bundlehodge.multiindex import index_position

    pos = index_position(4, 2)
    arr = np.zeros((num_indices(4, 2), 1), dtype=complex)
    arr[pos[(0, 1)], 0] = 1.0
    arr[pos[(2, 3)], 0] = 1.0
    b21 = BigradedForm(geo, alg, {(2, 1): {(0, 0, 0, 0): arr}})
    zero = BigradedForm.zero(geo, alg)
    lift = DeltaPolynomial([zero.copy(), zero.copy(), b21])
    with pytest.raises(NotExact):
        recover_omega3(conn, d_delta(lift, conn).coefficient(4))


def test_harmonic_limit_requires_stabilization():
    conn = abelian_t2(mean=True)
    with pytest.raises(SolverFailure):
        harmonic_limit(PageRecursion(conn, (2, 2), k_max=2).run(1), 1)
