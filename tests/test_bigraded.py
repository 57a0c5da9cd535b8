"""Bigraded complex: anticommutation identities, adjointness, rescaling."""

import numpy as np
import pytest

from bundlehodge.base_forms import (
    FourierForm,
    TorusGeometry,
    constant_form,
    cos_wave,
    monomial,
    random_form,
    sin_wave,
)
from bundlehodge.bigraded import (
    BigradedForm,
    Connection,
    DeltaPolynomial,
    TruncationLayout,
    apply_d_component,
    apply_dstar_component,
    bigraded_inner_product,
    bigraded_norm,
    covariant_d,
    covariant_dstar,
    curvature_contraction,
    curvature_contraction_star,
    d_component_matrix,
    d_delta,
    dstar_delta,
    from_fourier,
    galerkin_operator,
    galerkin_polynomial,
    laplacian_delta,
    random_bigraded,
    rho_scale,
    sq_norms_batch,
    vertical_d,
    vertical_dstar,
)
from bundlehodge.errors import ConfigError
from bundlehodge.lie_algebra import LieAlgebraData, harmonic_subspace, make_su2, make_u1


def su2_connection(geo, amplitudes=(0.8, 0.9, 1.1)):
    a, b, c = amplitudes
    return Connection(
        make_su2(0.2),
        [
            sin_wave(geo, 1, (1, 0, 0, 0), (1,), a),
            constant_form(geo, 1, (2,), b),
            constant_form(geo, 1, (3,), c),
        ],
    )


@pytest.fixture(scope="module")
def setup():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    return geo, conn.alg, conn


def identity_residuals(form, conn):
    F = conn.curvature_forms()

    def D0(f):
        return vertical_d(f)

    def D1(f):
        return covariant_d(f, conn)

    def D2(f):
        return curvature_contraction(f, F)

    return [
        D0(D0(form)),
        D0(D1(form)) + D1(D0(form)),
        D1(D1(form)) + D0(D2(form)) + D2(D0(form)),
        D1(D2(form)) + D2(D1(form)),
        D2(D2(form)),
    ]


def adjoint_identity_residuals(form, conn):
    F = conn.curvature_forms()

    def S0(f):
        return vertical_dstar(f)

    def S1(f):
        return covariant_dstar(f, conn)

    def S2(f):
        return curvature_contraction_star(f, F)

    return [
        S0(S0(form)),
        S0(S1(form)) + S1(S0(form)),
        S1(S1(form)) + S0(S2(form)) + S2(S0(form)),
        S1(S2(form)) + S2(S1(form)),
        S2(S2(form)),
    ]


def test_five_anticommutation_identities(setup):
    geo, alg, conn = setup
    rng = np.random.default_rng(0)
    for p in (2, 3, 4):
        form = random_bigraded(geo, alg, p, (1, 1, 1, 1), rng)
        scale = bigraded_norm(form)
        for res in identity_residuals(form, conn):
            assert bigraded_norm(res) <= 1e-11 * scale


def test_five_adjoint_identities(setup):
    geo, alg, conn = setup
    rng = np.random.default_rng(1)
    for p in (2, 3, 4):
        form = random_bigraded(geo, alg, p, (1, 1, 1, 1), rng)
        scale = bigraded_norm(form)
        for res in adjoint_identity_residuals(form, conn):
            assert bigraded_norm(res) <= 1e-11 * scale


def test_adjointness_of_all_three_pairs(setup):
    geo, alg, conn = setup
    F = conn.curvature_forms()
    rng = np.random.default_rng(2)
    pairs = [
        (vertical_d, vertical_dstar, 1),
        (lambda f: covariant_d(f, conn), lambda f: covariant_dstar(f, conn), 1),
        (
            lambda f: curvature_contraction(f, F),
            lambda f: curvature_contraction_star(f, F),
            1,
        ),
    ]
    for p in (2, 3):
        w = random_bigraded(geo, alg, p, (1, 1, 1, 1), rng)
        u = random_bigraded(geo, alg, p + 1, (2, 1, 1, 1), rng)
        for op, opstar, _ in pairs:
            lhs = bigraded_inner_product(op(w), u)
            rhs = bigraded_inner_product(w, opstar(u))
            scale = bigraded_norm(w) * bigraded_norm(u)
            assert abs(lhs - rhs) <= 1e-11 * scale


def test_signature_of_operators(setup):
    geo, alg, conn = setup
    rng = np.random.default_rng(3)
    form = random_bigraded(geo, alg, 3, (1, 1, 1, 1), rng)
    F = conn.curvature_forms()
    checks = [
        (vertical_d(form), (0, 1)),
        (vertical_dstar(form), (0, -1)),
        (covariant_d(form, conn), (1, 0)),
        (covariant_dstar(form, conn), (-1, 0)),
        (curvature_contraction(form, F), (2, -1)),
        (curvature_contraction_star(form, F), (-2, 1)),
    ]
    source = set(form.slots())
    for image, (di, dj) in checks:
        for slot in image.slots():
            assert (slot[0] - di, slot[1] - dj) in source


def test_vertical_squares_to_zero_alone(setup):
    geo, alg, conn = setup
    rng = np.random.default_rng(4)
    form = random_bigraded(geo, alg, 2, (1, 1, 1, 1), rng)
    assert bigraded_norm(vertical_d(vertical_d(form))) <= 1e-13 * bigraded_norm(form)


def test_covariant_leibniz_against_scalar_wedge(setup):
    """d_nabla(f w) = d_M f ^ w + f d_nabla w for a scalar function f."""
    geo, alg, conn = setup
    rng = np.random.default_rng(5)
    # scalar function as a (0,0) bigraded form times a fiber-valued section
    f = random_form(geo, 0, (1, 0, 0, 0), rng)
    w = random_bigraded(geo, alg, 1, (1, 1, 1, 1), rng)
    # multiply w by f: convolve every slot value
    fw = BigradedForm(geo, alg)
    for slot, table in w.components.items():
        for key, val in table.items():
            for fk, _, fv in f.entries():
                fw.set_value(slot, tuple(k + q for k, q in zip(key, fk)), fv * val)
    lhs = covariant_d(fw, conn)
    rhs = covariant_d(w, conn)
    rhs_scaled = BigradedForm(geo, alg)
    for slot, table in rhs.components.items():
        for key, val in table.items():
            for fk, _, fv in f.entries():
                rhs_scaled.set_value(slot, tuple(k + q for k, q in zip(key, fk)), fv * val)
    # assemble df ^ w directly from the derivative entries
    from bundlehodge.base_forms import d as base_d
    from bundlehodge.multiindex import wedge_axis_matrix

    dfw = BigradedForm(geo, alg)
    for (i, j), table in w.components.items():
        for key, val in table.items():
            for fk, idx, fv in base_d(f).entries():
                mat = wedge_axis_matrix(geo.n, i, idx[0])
                dfw.set_value(
                    (i + 1, j),
                    tuple(k + q for k, q in zip(key, fk)),
                    fv * np.einsum("ab,bf->af", mat, val),
                )
    total = rhs_scaled + dfw
    assert bigraded_norm(lhs - total) <= 1e-12 * max(bigraded_norm(lhs), 1.0)


def test_d_delta_on_invariant_section():
    """A constant Ad-invariant (0,j) form has only the delta^2 contraction term."""
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    alg = conn.alg
    # su(2) degree-3 harmonic (volume) as a constant section
    vol = harmonic_subspace(alg, 3)[:, 0]
    phi = BigradedForm(geo, alg)
    phi.set_value((0, 3), (0, 0, 0, 0), vol.reshape(1, -1).astype(complex))
    out = d_delta(DeltaPolynomial([phi]), conn)
    assert bigraded_norm(out.coefficient(0)) <= 1e-13
    assert bigraded_norm(out.coefficient(1)) <= 1e-13
    assert bigraded_norm(out.coefficient(2)) > 0


def test_d_delta_on_pullback_harmonic_base_form():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    base = constant_form(geo, 2, (0, 1), 1.0)
    lifted = from_fourier(base, conn.alg)
    out = d_delta(DeltaPolynomial([lifted]), conn)
    for coeff in out.coefficients:
        assert bigraded_norm(coeff) <= 1e-13
    # the adjoint side picks up the order-2 contraction obstruction
    out_star = dstar_delta(DeltaPolynomial([lifted]), conn)
    assert bigraded_norm(out_star.coefficient(0)) <= 1e-13
    assert bigraded_norm(out_star.coefficient(1)) <= 1e-13
    assert bigraded_norm(out_star.coefficient(2)) > 1e-3


def test_d_delta_zero_input():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    zero = BigradedForm.zero(geo, conn.alg)
    assert len(d_delta(DeltaPolynomial([zero]), conn)) == 0


def test_rho_conjugation_consistency():
    """d_delta at numeric delta equals rho_delta d rho_delta^{-1}."""
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    rng = np.random.default_rng(6)
    form = random_bigraded(geo, conn.alg, 3, (1, 1, 1, 1), rng)
    F = conn.curvature_forms()
    total_d = (
        vertical_d(form) + covariant_d(form, conn) + curvature_contraction(form, F)
    )
    for delta in (1.0, 0.5, 0.1):
        via_poly = d_delta(DeltaPolynomial([form]), conn).evaluate(delta)
        via_rho = rho_scale(
            vertical_d(rho_scale(form, delta, inverse=True))
            + covariant_d(rho_scale(form, delta, inverse=True), conn)
            + curvature_contraction(rho_scale(form, delta, inverse=True), F),
            delta,
        )
        assert bigraded_norm(via_poly - via_rho) <= 1e-12 * bigraded_norm(total_d)


def test_laplacian_delta_symmetry_nonnegativity():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    rng = np.random.default_rng(7)
    w = random_bigraded(geo, conn.alg, 3, (1, 1, 1, 1), rng)
    lap = laplacian_delta(DeltaPolynomial([w]), conn)
    # <w, L w> at numeric delta equals |d_delta w|^2 + |d*_delta w|^2 >= 0
    for delta in (1.0, 0.3):
        val = bigraded_inner_product(w, lap.evaluate(delta)).real
        dsq = bigraded_norm(d_delta(DeltaPolynomial([w]), conn).evaluate(delta)) ** 2
        ssq = bigraded_norm(dstar_delta(DeltaPolynomial([w]), conn).evaluate(delta)) ** 2
        assert abs(val - dsq - ssq) <= 1e-10 * max(val, 1.0)


def test_galerkin_symmetric_psd():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    mat = galerkin_operator(conn, 1, 0.5, (1, 1, 1, 1)).toarray()
    scale = np.linalg.norm(mat, 2)
    assert np.linalg.norm(mat - mat.conj().T, 2) <= 1e-11 * scale
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    assert evals.min() >= -1e-10 * scale


def _fixture_connection(name):
    from bundlehodge.harness import load_scenario, packaged_scenario_path

    return load_scenario(packaged_scenario_path(name)).connection


def _skewed_abelian_connection():
    # non-diagonal base and fiber metrics, so every Cholesky factor is a
    # full triangle and a transposed factor would show
    geo = TorusGeometry(3, metric=[[1.0, 0.3, 0.1], [0.3, 1.2, 0.2], [0.1, 0.2, 0.9]])
    alg = LieAlgebraData(2, np.zeros((2, 2, 2)), [[1.0, 0.4], [0.4, 1.5]])
    return Connection(
        alg,
        [
            sin_wave(geo, 1, (1, 0, 0), (1,), 0.5) + constant_form(geo, 1, (2,), 0.2),
            cos_wave(geo, 1, (0, 1, 0), (2,), 0.3),
        ],
    )


def _many_mode_su2_connection(modes=6, seed=12):
    # seeded real su(2) connection on T^4, scale 0.2: each component has
    # `modes` band-1 Fourier modes (frequency pair +-k, axis, amplitude), so
    # many (k, q) pairs of an operator land on one output frequency, which
    # no fixture connection does; the frequencies lie in the x1-x2 plane to
    # keep the coupling band, and with it the Galerkin side, small
    geo = TorusGeometry(4)
    bands = (1, 1, 0, 0)
    rng = np.random.default_rng(seed)
    half = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0)]
    choices = [(k, axis) for k in half for axis in range(4)]
    forms = []
    for _ in range(3):
        total = FourierForm.zero(geo, 1, bands)
        for pick in rng.choice(len(choices), size=modes, replace=False):
            k, axis = choices[pick]
            amp = complex(*rng.uniform(-0.5, 0.5, size=2))
            minus = tuple(-x for x in k)
            total = total + monomial(geo, 1, k, (axis,), amp, bands)
            total = total + monomial(geo, 1, minus, (axis,), amp.conjugate(), bands)
        forms.append(total)
    return Connection(make_su2(0.2), forms)


def assert_no_zero_blocks(form):
    for table in form.components.values():
        assert table
        for val in table.values():
            assert np.any(val)


# su(2) over T^3; scale-0.2 su(2) over T^4, whose Gram matrices are not the
# identity; abelian with a curvature override; abelian on skewed metrics;
# many-mode su(2) over T^4, where shifted blocks collide
GALERKIN_ORACLE_CASES = [
    pytest.param(lambda: _fixture_connection("t3_su2_pages"), (2, 1, 1), id="t3_su2_pages"),
    pytest.param(lambda: _fixture_connection("t4_su2_cs3"), (1, 1, 0, 0), id="t4_su2_cs3"),
    pytest.param(lambda: _fixture_connection("t2_u1_c1nonzero"), (2, 2), id="t2_u1_c1nonzero"),
    pytest.param(_skewed_abelian_connection, (1, 1, 1), id="skewed_u1x2"),
    pytest.param(_many_mode_su2_connection, (1, 1, 0, 0), id="many_mode_su2"),
]


@pytest.mark.parametrize("make_conn, box", GALERKIN_ORACLE_CASES)
def test_galerkin_matrices_match_form_level_operators(make_conn, box):
    """Matrix layer against the form-level operators on random real forms."""
    conn = make_conn()
    geo, alg = conn.geometry, conn.alg
    wide = tuple(b + c for b, c in zip(box, conn.coupling_bands()))
    rng = np.random.default_rng(11)
    for p in range(geo.n + alg.dim + 1):
        layout, mats = galerkin_polynomial(conn, p, box)
        w = random_bigraded(geo, alg, p, box, rng)
        vec, cut = layout.vector_from_form(w)
        assert cut == 0.0
        lap = laplacian_delta(DeltaPolynomial([w]), conn)
        refs = []
        for r in range(5):
            coeff = lap.coefficient(r)
            refs.append(
                np.zeros(layout.dim) if coeff is None else layout.vector_from_form(coeff)[0]
            )
        scale = max(max(np.linalg.norm(ref) for ref in refs), 1e-300)
        for r in range(5):
            assert np.linalg.norm(mats[r] @ vec - refs[r]) <= 1e-12 * scale
        up = TruncationLayout.of_degree(geo, alg, p + 1, wide)
        down = TruncationLayout.of_degree(geo, alg, p - 1, wide)
        for a in range(3):
            d_w = apply_d_component(w, conn, a)
            dstar_w = apply_dstar_component(w, conn, a)
            assert_no_zero_blocks(d_w)
            assert_no_zero_blocks(dstar_w)
            s_ref, s_cut = up.vector_from_form(d_w)
            t_ref, t_cut = down.vector_from_form(dstar_w)
            s_got = d_component_matrix(conn, a, layout, up) @ vec
            t_got = d_component_matrix(conn, a, down, layout).conj().T @ vec
            size = 1.0 + np.linalg.norm(vec)
            # d_a and d*_a of an in-box form stay inside box + coupling
            assert s_cut <= 1e-13 * size and t_cut <= 1e-13 * size
            assert np.linalg.norm(s_got - s_ref) <= 1e-12 * max(np.linalg.norm(s_ref), 1.0)
            assert np.linalg.norm(t_got - t_ref) <= 1e-12 * max(np.linalg.norm(t_ref), 1.0)


def test_galerkin_band_too_small():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    conn = Connection(alg, [sin_wave(geo, 1, (2, 2), (1,), 1.0)])
    with pytest.raises(ConfigError):
        galerkin_operator(conn, 1, 0.5, (0, 0))


def test_batched_operators_match_unbatched():
    # the many-mode connection runs the batched path through colliding shifts
    for conn in (su2_connection(TorusGeometry(4)), _many_mode_su2_connection()):
        geo = conn.geometry
        rng = np.random.default_rng(8)
        batch = random_bigraded(geo, conn.alg, 3, (1, 1, 1, 1), rng, batch=3)
        # slice out sample 1 as an unbatched form
        single = BigradedForm(geo, conn.alg)
        for slot, table in batch.components.items():
            for key, val in table.items():
                single.set_value(slot, key, val[:, :, 1])
        F = conn.curvature_forms()
        for op in (
            vertical_d,
            vertical_dstar,
            lambda f: covariant_d(f, conn),
            lambda f: covariant_dstar(f, conn),
            lambda f: curvature_contraction(f, F),
            lambda f: curvature_contraction_star(f, F),
        ):
            out_b = op(batch)
            out_s = op(single)
            assert_no_zero_blocks(out_b)
            assert_no_zero_blocks(out_s)
            sliced = BigradedForm(geo, conn.alg)
            for slot, table in out_b.components.items():
                for key, val in table.items():
                    sliced.set_value(slot, key, val[:, :, 1])
            assert bigraded_norm(sliced - out_s) <= 1e-13 * max(bigraded_norm(out_s), 1.0)
        norms = sq_norms_batch(batch)
        assert norms.shape == (3,)
        assert abs(norms[1] - bigraded_norm(single) ** 2) <= 1e-10 * norms[1]


def test_nan_block_is_kept_not_read_as_zero():
    # a NaN residual must show as a NaN norm, never as an exact zero
    geo = TorusGeometry(4)
    alg = make_su2()
    form = BigradedForm(geo, alg)
    val = np.zeros((1, 3), dtype=complex)
    val[0, 0] = np.nan
    form.set_value((0, 1), (1, 0, 0, 0), val)
    image = vertical_d(form)
    assert image.slots() == [(0, 2)]
    assert np.isnan(bigraded_norm(image))
    assert np.isnan(bigraded_norm(image.copy().prune(tol=1.0)))
    assert np.isnan(bigraded_norm(form.copy().prune()))


def test_inner_product_mismatch_raises():
    geo = TorusGeometry(4)
    geo2 = TorusGeometry(3)
    alg = make_su2()
    with pytest.raises(ConfigError):
        bigraded_inner_product(BigradedForm.zero(geo, alg), BigradedForm.zero(geo2, alg))


def test_bigraded_serialization_roundtrip():
    from bundlehodge.bigraded import bigraded_from_dict, bigraded_to_dict

    geo = TorusGeometry(3)
    conn = Connection(
        make_su2(),
        [
            sin_wave(geo, 1, (1, 0, 0), (1,), 0.5),
            constant_form(geo, 1, (2,), 0.3),
            FourierForm.zero(geo, 1),
        ],
    )
    rng = np.random.default_rng(21)
    form = random_bigraded(geo, conn.alg, 2, (1, 1, 1), rng)
    data = bigraded_to_dict(form)
    back = bigraded_from_dict(geo, conn.alg, data)
    assert bigraded_norm(back - form) <= 1e-13 * bigraded_norm(form)
