"""Page recursion, formal residuals, harmonic limits, and eigenvalue decay."""

import json
import math
from unittest import mock

import numpy as np
import pytest

from bundlehodge import adiabatic_ss
from bundlehodge.adiabatic_ss import (
    PageRecursion,
    Tolerances,
    _box_rows,
    _boxes,
    _correction_lead,
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
    constant_form,
    cos_wave,
    norm as bnorm,
    sin_wave,
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
    primitive_h,
)
from bundlehodge.errors import ConfigError, NotExact, SolverFailure
from bundlehodge.harness import Scenario, load_scenario, packaged_scenario_path
from bundlehodge.lie_algebra import make_su2, make_u1
from bundlehodge.multiindex import num_indices

from bigraded_reference import (
    reference_block_solve,
    reference_correction_system,
    reference_d,
    reference_dstar,
    reference_harmonic_limit,
    reference_leading,
    reference_second_page,
)

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


def su3_scenario():
    """t4_su2_cs3 with an su(3) fiber at the same scale."""
    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        config = json.load(fh)
    return Scenario(dict(config, algebra={"name": "su3", "scale": "0.2"}))


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
    h = primitive_h(cw2(phi, conn))
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
    rec = PageRecursion(conn, (2, 2)).run()
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
    rec = PageRecursion(conn, (2, 2)).run()
    assert sum(rec.dims_for_degree(rec.k_stop, 1).values()) == 3


def test_pages_flat_kunneth_all_degrees():
    conn = flat_t4_connection()
    rec = PageRecursion(conn, (1, 1, 1, 1)).run()
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
        rec = PageRecursion(conn, bands).run()
        for K in range(1, len(rec.dims_history)):
            prev = rec.dims_history[K - 1]
            for slot, r in rec.dims_history[K].items():
                assert r <= prev.get(slot, 0)


def test_pages_diagnostics_small():
    rec = PageRecursion(su2_t3_connection(), (1, 1, 1)).run()
    assert rec.diagnostics["offslot_residual"] <= 1e-9
    assert rec.diagnostics["dsq_residual"] <= 1e-9
    assert rec.diagnostics["adjoint_consistency"] <= 1e-9


def test_pages_t4_curved_collapse():
    rec = PageRecursion(su2_t4_connection(), (1, 1, 1, 1)).run()
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
    rec = PageRecursion(conn, bands, k_max=2).run()
    want = reference_second_page(conn, bands)
    assert rec.dims_history[2] == {slot: b.shape[1] for slot, (_, b) in want.items() if b.shape[1]}
    zero = (0,) * conn.geometry.n
    for slot, (coords, q) in want.items():
        if not q.shape[1]:
            continue
        p = np.zeros_like(q)
        p[_box_rows(coords, slot, zero)] = rec.bases[2][slot]
        assert np.max(np.abs(p.conj().T @ p - np.eye(p.shape[1]))) <= 1e-14
        sines = np.linalg.svd(p - q @ (q.conj().T @ p), compute_uv=False)
        assert sines.max() <= 1e-12


def test_su3_lifts_are_solved_on_the_zero_box():
    """Page bases live at frequency zero, so every correction system of an su(3)
    recursion is posed on the zero box; page 2 in degree 3 is Kunneth, 4 + 1."""
    conn = su3_scenario().connection
    rec = PageRecursion(conn, (1, 1, 1, 1), k_max=3).run()
    reaches = {key[2] for key in conn._cache if key[0] == "corrections"}
    assert reaches == {(0, 0, 0, 0)}
    assert rec.dims_for_degree(2, 3) == {(0, 3): 1, (3, 0): 4}
    assert not rec.stabilized


def recording_solves(calls):
    """Patch _solve_columns to append (degree, reach, lead, order, lift terms) of
    every call to ``calls``."""
    solve = adiabatic_ss._solve_columns

    def recording(conn, degree, reach, lead, order, tolerances):
        ws = solve(conn, degree, reach, lead, order, tolerances)
        calls.append((degree, reach, lead, order, ws))
        return ws

    return mock.patch.object(adiabatic_ss, "_solve_columns", recording)


def test_final_page_lifts_are_solved_only_in_the_degree_read():
    """The run lifts its pages 2 .. k_stop - 1 in every degree; the stable page is
    lifted one degree at a time, so harmonic_limit in degree 1 solves the
    corrections of order k_stop - 1 in degree 1 only."""
    conn = load_scenario(packaged_scenario_path("t4_su2_flat")).connection
    calls = []
    with recording_solves(calls):
        rec = PageRecursion(conn, (1, 1, 0, 0)).run()
        assert {degree for degree, *_ in calls} == set(range(8))
        ran = len(calls)
        harmonic_limit(rec, 1)
    final = [(degree, order) for degree, _, _, order, _ in calls if order == rec.k_stop - 1]
    assert final == [(1, rec.k_stop - 1)]
    assert [(degree, order) for degree, _, _, order, _ in calls[ran:]] == final
    assert {sum(slot) for slot in rec.lifts[rec.k_stop]} == {1}


def test_flat_lifts_pose_no_correction_system():
    """On the flat t4_su2_flat every page basis is fiber-harmonic at frequency
    zero, so the coupling terms annihilate it: every right-hand side is exactly
    zero, no correction system is posed, and every lift term is exact zeros.
    The leading coefficients skip those terms and are computed into the zero
    box, so no component matrix has the page box as its source or target."""
    conn = load_scenario(packaged_scenario_path("t4_su2_flat")).connection
    bands = (1, 1, 0, 0)
    calls = []
    with recording_solves(calls):
        rec = PageRecursion(conn, bands).run()
        for degree in range(8):
            harmonic_limit(rec, degree)
    assert rec.k_stop > 3
    assert {degree for degree, *_ in calls} == set(range(8))
    assert not [key for key in conn._cache if key[0] == "corrections"]
    for lifts in rec.lifts.values():
        for w in lifts.values():
            assert all(not term.any() for term in w[1:])
    components = [key for key in conn._cache if key[0] == "component"]
    assert components
    assert not [key for key in components if bands in (key[2][1], key[3][1])]


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
        rec = PageRecursion(conn, scenario.bands, scenario.k_max, scenario.tolerances).run()
        assert rec.stabilized
        for p, total in zip((1, 2, 3), (4, 6, 5)):
            assert sum(rec.dims_for_degree(rec.k_stop, p).values()) == total
            assert len(harmonic_limit(rec, p)) == total
            count, _ = near_zero_count(conn, p, 0.5, scenario.galerkin_bands, scenario.tolerances.spectral)
            assert count == total
        recursions.append(rec)
    narrow, wide = recursions
    assert narrow.dims_history[0] != wide.dims_history[0]
    assert narrow.k_stop == wide.k_stop
    for K in range(2, narrow.k_stop + 1):
        assert narrow.bases[K].keys() == wide.bases[K].keys()
        for slot, basis in narrow.bases[K].items():
            assert np.array_equal(basis, wide.bases[K][slot])


@pytest.mark.parametrize("name", FIXTURES)
def test_projected_page_matrices_match_the_wide_box_leading_coefficients(name):
    """Every projection of a zero-box leading coefficient onto a page slot, target
    or not, equals bit for bit the projection of the coefficient over
    max(K c, page box)."""
    scenario = load_scenario(packaged_scenario_path(name))
    rec = PageRecursion(scenario.connection, scenario.bands, scenario.k_max, scenario.tolerances).run()
    checked = 0
    for K in range(2, rec.k_stop):
        adjoints = {slot: basis.conj().T for slot, basis in rec.bases[K].items()}
        degrees = {sum(slot) for slot in adjoints}
        for slot, w in rec.lifts[K].items():
            for up in (True, False):
                if sum(slot) + (1 if up else -1) not in degrees:
                    continue
                layout, coeff = rec._leading(K, sum(slot), w, up)
                wide, wide_coeff = reference_leading(rec, K, sum(slot), w, up)
                for target, adjoint in adjoints.items():
                    if target in layout.offsets:
                        want = adjoint @ wide_coeff[_box_rows(wide, target, rec.zero)]
                        assert np.array_equal(rec._project(layout, coeff, target, adjoints), want)
                        checked += 1
    assert checked


def test_zero_rhs_lifts_equal_the_posed_solve():
    """On the curved t4_su2_cs3 some lifts have an exactly-zero right-hand side and
    some do not.  Each lift equals the solve of its whole system on every block
    (np.array_equal), with the right-hand side read from the whole matrix on w_0,
    whose rows past equation 2 give -0; the nonzero ones, and only they, are
    posed."""
    conn = load_scenario(packaged_scenario_path("t4_su2_cs3")).connection
    calls = []
    with recording_solves(calls):
        rec = PageRecursion(conn, (1, 1, 1, 0)).run()
        rec._lifts(rec.k_stop)
    posed = {key for key in conn._cache if key[0] == "corrections"}
    zero, nonzero = [], []
    negative_zero = np.full(1, complex(-0.0, -0.0)).view(np.uint64)
    for degree, reach, lead, order, ws in calls:
        unknowns, mat, lead_mat = reference_correction_system(conn, degree, reach, order)
        rhs = -(lead_mat @ lead)
        (nonzero if rhs.any() else zero).append(("corrections", degree, reach, order))
        _, kept = _correction_lead(conn, degree, reach, order)
        assert rhs[: kept.shape[0]].tobytes() == (-(kept @ lead)).tobytes()
        assert np.all(rhs[kept.shape[0]:].view(np.uint64) == negative_zero[0])
        x = reference_block_solve(mat, rhs)
        want = np.split(x, np.cumsum([layout.dim for layout in unknowns[1:]])[:-1])
        assert len(ws) == len(want) == order
        assert all(np.array_equal(w, v) for w, v in zip(ws, want))
    assert zero and nonzero
    assert posed == set(nonzero)


def test_stable_entries_orthonormal_with_valid_lifts():
    conn = su2_t3_connection()
    rec = PageRecursion(conn, (1, 1, 1)).run()
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
    rec = PageRecursion(conn, (1, 1, 1)).run()
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
    rec = PageRecursion(conn, (1, 1, 1)).run()
    limits = harmonic_limit(rec, 1)
    assert len(limits) == 3
    for form in limits:
        assert form.slots() == [(1, 0)]


def test_harmonic_limit_flat_kunneth_products():
    conn = flat_t4_connection()
    rec = PageRecursion(conn, (1, 1, 1, 1)).run()
    limits = harmonic_limit(rec, 3)
    assert len(limits) == 5
    for form in limits:
        for slot, table in form.components.items():
            assert slot in ((3, 0), (0, 3))
            assert set(table) == {(0, 0, 0, 0)}


def test_harmonic_limit_contains_cs3_representative():
    conn = su2_t4_connection()
    rec = PageRecursion(conn, (1, 1, 1, 1)).run()
    limits = harmonic_limit(rec, 3)
    assert len(limits) == 5
    pair = make_polynomial(conn.alg, "second_chern")
    alpha = cs3(pair, conn)
    h = primitive_h(cw4(pair, conn))
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
    limits = harmonic_limit(PageRecursion(conn, (2, 2)).run(), 1)
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
    rec = scenario.page_recursion()
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


def _reach(keys, n):
    """Per-axis reach max |k_a| of an (nk, n) array of frequency keys."""
    keys = np.reshape(keys, (-1, n))
    return tuple(int(r) for r in np.max(np.abs(keys), axis=0, initial=0))


def solve_corrections(conn, v, order, tolerances=None):
    """Corrections w_1..w_order with residual orders 1..order all zero.

    ``v`` has one total degree.  The unknown at order t is confined to the
    frequency box of v widened by t times the coupling band of the
    connection, which contains the minimal-norm solution.  The route of the
    page recursion's lifts, for one form.

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
    reach = _reach(np.concatenate([t.key_array for t in v.components.values()]), geo.n)
    lead = _layout(conn, degree, reach).vector_from_form(v)[0][:, None]
    ws = _solve_columns(conn, degree, reach, lead, order, tolerances)
    return [
        _layout(conn, degree, box).form_from_vector(w[:, 0])
        for box, w in zip(_boxes(conn, reach, order)[1:], ws)
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
    rec = PageRecursion(conn, (1, 1)).run()
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
    rec = PageRecursion(conn, (1, 1, 1)).run()
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

    The recursion solves every lift on the zero box, where page bases live,
    and widens its leading coefficients to the page box on axes the
    connection does not couple (the t4 case with box (1, 1, 0, 0)).
    """
    conn = make_conn()
    rec = PageRecursion(conn, bands).run()
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
    h = primitive_h(cw2(phi, conn))
    target = (-1.0) * from_fourier(h, conn.alg)
    assert bigraded_norm(ws[0] - target) <= 1e-10 * (1.0 + bigraded_norm(target))
    # the order-2 correction appears in no equation, so minimal norm zeroes it
    assert bigraded_norm(ws[1]) <= 1e-10


def test_solver_failure_for_non_page_vector():
    """A vector outside the second page admits no order-1 correction."""
    conn = abelian_t2(mean=True)
    geo, alg = conn.geometry, conn.alg
    # a non-harmonic base function times the fiber generator: D1-residual
    # cannot be cancelled because the leading operator vanishes identically
    one = np.array([[1.0]], dtype=complex)
    v = BigradedForm(geo, alg, {(0, 1): {(1, 0): one, (-1, 0): one}})
    with pytest.raises(SolverFailure):
        solve_corrections(conn, v, 1, Tolerances())


# -- spectra -----------------------------------------------------------------------


def test_spectrum_sweep_abelian_groups():
    conn = abelian_t2(mean=True)
    report = spectrum_sweep(conn, 1, [0.4, 0.2, 0.1, 0.05], (2, 2))
    counts = report.group_counts()
    rec = PageRecursion(conn, (2, 2)).run()
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
    h = primitive_h(cw4(pair, conn))
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
        harmonic_limit(PageRecursion(conn, (2, 2), k_max=2).run(), 1)
