"""Page recursion, formal residuals, harmonic limits, and eigenvalue decay."""

import math

import numpy as np
import pytest

from bundlehodge.adiabatic_ss import (
    Tolerances,
    harmonic_limit,
    near_zero_count,
    recover_omega3,
    residual_orders,
    run_page_recursion,
    solve_corrections,
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
from bundlehodge.errors import NotExact, SolverFailure
from bundlehodge.lie_algebra import make_su2, make_u1
from bundlehodge.multiindex import num_indices

from bigraded_reference import reference_d, reference_dstar


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
    rec = run_page_recursion(conn, (2, 2))
    dims2 = rec.dims_for_degree(2, 1)
    assert dims2 == {(1, 0): 2, (0, 1): 1}
    dims3 = rec.dims_for_degree(3, 1)
    assert dims3 == {(1, 0): 2}
    assert rec.stabilized
    assert rec.k_stop == 3


def test_pages_abelian_flux_exact():
    conn = abelian_t2(mean=False)
    rec = run_page_recursion(conn, (2, 2))
    assert sum(rec.dims_for_degree(rec.k_stop, 1).values()) == 3


def test_pages_flat_kunneth_all_degrees():
    conn = flat_t4_connection()
    rec = run_page_recursion(conn, (1, 1, 1, 1))
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
        rec = run_page_recursion(conn, bands)
        for K in range(1, len(rec.dims_history)):
            prev = rec.dims_history[K - 1]
            for slot, r in rec.dims_history[K].items():
                assert r <= prev.get(slot, 0)


def test_pages_diagnostics_small():
    rec = run_page_recursion(su2_t3_connection(), (1, 1, 1))
    assert rec.diagnostics["offslot_residual"] <= 1e-9
    assert rec.diagnostics["dsq_residual"] <= 1e-9
    assert rec.diagnostics["adjoint_consistency"] <= 1e-9


def test_pages_t4_curved_collapse():
    rec = run_page_recursion(su2_t4_connection(), (1, 1, 1, 1))
    assert rec.dims_for_degree(1, 3) == {(0, 3): 81, (3, 0): 324}
    for K in range(2, rec.k_stop + 1):
        assert rec.dims_for_degree(K, 3) == {(0, 3): 1, (3, 0): 4}
    assert rec.stabilized


def test_page_basis_entries_orthonormal_with_valid_lifts():
    conn = su2_t3_connection()
    rec = run_page_recursion(conn, (1, 1, 1))
    K = rec.k_stop
    page = rec.page_basis(3, K)
    assert page.total_dim == 2
    for v, lift in page.entries:
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
    rec = run_page_recursion(conn, (1, 1, 1))
    for p in range(4):
        total = sum(rec.dims_for_degree(rec.k_stop, p).values())
        count, _ = near_zero_count(conn, p, 0.5, (10, 1, 1), 1e-8)
        assert count == total


def test_near_zero_count_sparse_branch():
    # box (20, 1, 1) in degree 3 has dimension 7380 > 6000: shift-invert eigsh
    conn = su2_t3_connection()
    count, top = near_zero_count(conn, 3, 0.5, (20, 1, 1), 1e-8)
    assert count == 2
    assert top > 0.0


# -- harmonic limits --------------------------------------------------------------


def test_harmonic_limit_base_classes_map_to_themselves():
    conn = su2_t3_connection()
    rec = run_page_recursion(conn, (1, 1, 1))
    limits = harmonic_limit(conn, 1, recursion=rec)
    assert len(limits) == 3
    for form in limits:
        assert form.slots() == [(1, 0)]


def test_harmonic_limit_flat_kunneth_products():
    conn = flat_t4_connection()
    rec = run_page_recursion(conn, (1, 1, 1, 1))
    limits = harmonic_limit(conn, 3, recursion=rec)
    assert len(limits) == 5
    for form in limits:
        for slot, table in form.components.items():
            assert slot in ((3, 0), (0, 3))
            assert set(table) == {(0, 0, 0, 0)}


def test_harmonic_limit_contains_cs3_representative():
    conn = su2_t4_connection()
    rec = run_page_recursion(conn, (1, 1, 1, 1))
    limits = harmonic_limit(conn, 3, recursion=rec)
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
    limits = harmonic_limit(conn, 1, bands=(2, 2))
    for form in limits:
        for slot, table in form.components.items():
            for key, val in table.items():
                mirror = table.get(tuple(-k for k in key))
                assert mirror is not None
                assert np.max(np.abs(np.conj(mirror) - val)) <= 1e-12


# -- corrections: canonical lifts and uniqueness ------------------------------------


def dense_canonical(conn, v, order, constraints):
    """Independent dense least-squares route to the constrained corrections."""
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
    """Two independently computed constrained lifts agree termwise."""
    conn = abelian_t2(mean=False)
    rec = run_page_recursion(conn, (1, 1))
    entries = rec.infinity_entries(1)
    constraints = [v for _, v, _ in entries]
    slot0, v, _ = [e for e in entries if e[0] == (0, 1)][0]
    order = 2
    route_a = solve_corrections(conn, v, order, constraints=constraints)
    route_b = dense_canonical(conn, v, order, constraints)
    for wa, wb in zip(route_a, route_b):
        scale = 1.0 + bigraded_norm(wa)
        assert bigraded_norm(wa - wb) <= 1e-8 * scale


def test_lift_uniqueness_curved_t3():
    conn = su2_t3_connection()
    rec = run_page_recursion(conn, (1, 1, 1))
    entries = rec.infinity_entries(3)
    constraints = [v for _, v, _ in entries]
    slot0, v, _ = [e for e in entries if e[0] == (0, 3)][0]
    # order 3 puts the curvature contraction d_2 on the unknown w_1
    for order in (2, 3):
        route_a = solve_corrections(conn, v, order, constraints=constraints)
        route_b = dense_canonical(conn, v, order, constraints)
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

    The recursion solves per slot on the box of the basis' frequency
    support and widens its leading coefficients to the page box on axes the
    connection does not couple (the t4 case with box (1, 1, 0, 0)).
    """
    conn = make_conn()
    rec = run_page_recursion(conn, bands)
    checked = 0
    for K in range(2, rec.k_stop + 1):
        for p in range(conn.geometry.n + conn.alg.dim + 1):
            for v, lift in rec.page_basis(p, K).entries:
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
    v = BigradedForm(geo, alg)
    v.set_value((0, 1), (1, 0), np.array([[1.0]], dtype=complex))
    v.set_value((0, 1), (-1, 0), np.array([[1.0]], dtype=complex))
    with pytest.raises(SolverFailure):
        solve_corrections(conn, v, 1, Tolerances(max_iterations=400))


# -- spectra -----------------------------------------------------------------------


def test_spectrum_sweep_abelian_groups():
    conn = abelian_t2(mean=True)
    report = spectrum_sweep(conn, 1, [0.4, 0.2, 0.1, 0.05], (2, 2))
    counts = report.group_counts()
    rec = run_page_recursion(conn, (2, 2))
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
    x = recover_omega3(conn, lift)
    h = primitive_h(cw4(pair, conn))
    assert bnorm(x - (-1.0) * h) <= 1e-8 * max(bnorm(h), 1e-300)


def test_recover_omega3_not_exact_branch():
    geo = TorusGeometry(4)
    alg = make_u1(1)
    flux = constant_form(geo, 2, (0, 1), 1.0) + constant_form(geo, 2, (2, 3), 1.0)
    conn, _ = abelian_scenario(flux, geo, alg)
    # a (2,1) coefficient pairing the flux into the fiber generator
    b21 = BigradedForm(geo, alg)
    from bundlehodge.multiindex import index_position

    pos = index_position(4, 2)
    arr = np.zeros((num_indices(4, 2), 1), dtype=complex)
    arr[pos[(0, 1)], 0] = 1.0
    arr[pos[(2, 3)], 0] = 1.0
    b21.set_value((2, 1), (0, 0, 0, 0), arr)
    zero = BigradedForm.zero(geo, alg)
    lift = DeltaPolynomial([zero.copy(), zero.copy(), b21])
    with pytest.raises(NotExact):
        recover_omega3(conn, lift)


def test_harmonic_limit_requires_stabilization():
    conn = abelian_t2(mean=True)
    with pytest.raises(SolverFailure):
        harmonic_limit(conn, 1, bands=(2, 2), k_max=2)


def test_compute_pages_public_surface():
    from bundlehodge.adiabatic_ss import compute_pages

    conn = abelian_t2(mean=True)
    pages = compute_pages(conn, 1, k_max=6, bands=(2, 2))
    assert [p.page for p in pages] == list(range(len(pages)))
    assert all(p.degree == 1 for p in pages)
    assert pages[0].total_dim == 75
    assert pages[-1].dims == {(1, 0): 2}
    assert len(pages[-1].entries) == 2
    # monotone total dimensions
    totals = [p.total_dim for p in pages]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
