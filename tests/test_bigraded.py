"""Bigraded complex: anticommutation identities, adjointness, rescaling."""

import itertools

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
)
from bundlehodge.errors import ConfigError
from bundlehodge.lie_algebra import LieAlgebraData, harmonic_subspace, make_su2, make_u1

from bigraded_reference import reference_d, reference_dstar


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
    def D(f, a):
        return apply_d_component(f, conn, a)

    return [
        D(D(form, 0), 0),
        D(D(form, 1), 0) + D(D(form, 0), 1),
        D(D(form, 1), 1) + D(D(form, 2), 0) + D(D(form, 0), 2),
        D(D(form, 2), 1) + D(D(form, 1), 2),
        D(D(form, 2), 2),
    ]


def adjoint_identity_residuals(form, conn):
    def S(f, a):
        return apply_dstar_component(f, conn, a)

    return [
        S(S(form, 0), 0),
        S(S(form, 1), 0) + S(S(form, 0), 1),
        S(S(form, 1), 1) + S(S(form, 2), 0) + S(S(form, 0), 2),
        S(S(form, 2), 1) + S(S(form, 1), 2),
        S(S(form, 2), 2),
    ]


def _identity_connections(setup):
    # the fixture su(2) has Gram matrices that are multiples of the identity;
    # the two skewed connections have Gram matrices that commute with none
    # of the base and fiber factors, so a derived adjoint with its Gram
    # factors misplaced shows there
    return [setup[2], _skewed_abelian_connection(), _skewed_su2_connection()]


def test_five_anticommutation_identities(setup):
    rng = np.random.default_rng(0)
    for conn in _identity_connections(setup):
        geo, alg = conn.geometry, conn.alg
        for p in (2, 3, 4):
            form = random_bigraded(geo, alg, p, (1,) * geo.n, rng)
            scale = bigraded_norm(form)
            for res in identity_residuals(form, conn):
                assert bigraded_norm(res) <= 1e-11 * scale


def test_five_adjoint_identities(setup):
    rng = np.random.default_rng(1)
    for conn in _identity_connections(setup):
        geo, alg = conn.geometry, conn.alg
        for p in (2, 3, 4):
            form = random_bigraded(geo, alg, p, (1,) * geo.n, rng)
            scale = bigraded_norm(form)
            for res in adjoint_identity_residuals(form, conn):
                assert bigraded_norm(res) <= 1e-11 * scale


def test_adjointness_of_all_three_pairs(setup):
    rng = np.random.default_rng(2)
    for conn in _identity_connections(setup):
        geo, alg = conn.geometry, conn.alg
        for p in (2, 3):
            w = random_bigraded(geo, alg, p, (1,) * geo.n, rng)
            u = random_bigraded(geo, alg, p + 1, (2,) + (1,) * (geo.n - 1), rng)
            for a in range(3):
                lhs = bigraded_inner_product(apply_d_component(w, conn, a), u)
                rhs = bigraded_inner_product(w, apply_dstar_component(u, conn, a))
                scale = bigraded_norm(w) * bigraded_norm(u)
                assert abs(lhs - rhs) <= 1e-11 * scale


def test_signature_of_operators(setup):
    geo, alg, conn = setup
    rng = np.random.default_rng(3)
    form = random_bigraded(geo, alg, 3, (1, 1, 1, 1), rng)
    checks = []
    for a, step in enumerate([(0, 1), (1, 0), (2, -1)]):
        checks.append((apply_d_component(form, conn, a), step))
        checks.append((apply_dstar_component(form, conn, a), (-step[0], -step[1])))
    source = set(form.slots())
    for image, (di, dj) in checks:
        for slot in image.slots():
            assert (slot[0] - di, slot[1] - dj) in source


def test_vertical_squares_to_zero_alone(setup):
    geo, alg, conn = setup
    rng = np.random.default_rng(4)
    form = random_bigraded(geo, alg, 2, (1, 1, 1, 1), rng)
    twice = apply_d_component(apply_d_component(form, conn, 0), conn, 0)
    assert bigraded_norm(twice) <= 1e-13 * bigraded_norm(form)


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
    lhs = apply_d_component(fw, conn, 1)
    rhs = apply_d_component(w, conn, 1)
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

    def total_d(f):
        return (
            apply_d_component(f, conn, 0)
            + apply_d_component(f, conn, 1)
            + apply_d_component(f, conn, 2)
        )

    for delta in (1.0, 0.5, 0.1):
        via_poly = d_delta(DeltaPolynomial([form]), conn).evaluate(delta)
        via_rho = rho_scale(total_d(rho_scale(form, delta, inverse=True)), delta)
        assert bigraded_norm(via_poly - via_rho) <= 1e-12 * bigraded_norm(total_d(form))


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


def _skewed_su2_connection():
    # su(2) in the non-orthonormal basis f_a = sum_b P_ab e_b, so its
    # invariant metric P (0.5 I) P^T is not diagonal, over a torus with a
    # non-diagonal metric; the connection has constant and oscillating modes
    geo = TorusGeometry(3, metric=[[1.0, 0.3, 0.1], [0.3, 1.2, 0.2], [0.1, 0.2, 0.9]])
    su2 = make_su2(0.5)
    p = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.4], [0.0, 0.1, 1.0]])
    c = np.einsum("ai,bj,ijm,mk->abk", p, p, su2.c, np.linalg.inv(p))
    alg = LieAlgebraData(3, c, p @ su2.metric @ p.T)
    return Connection(
        alg,
        [
            sin_wave(geo, 1, (1, 0, 0), (1,), 0.5) + constant_form(geo, 1, (2,), 0.2),
            cos_wave(geo, 1, (0, 1, 0), (2,), 0.3),
            constant_form(geo, 1, (0,), 0.4) + sin_wave(geo, 1, (0, 1, 1), (0,), 0.2),
        ],
    )


def _many_mode_su2_connection(modes=5, seed=12):
    # seeded real su(2) connection on T^4, scale 0.2: each component has
    # `modes` band-1 Fourier modes (frequency pair +-k, axis, amplitude), so
    # many (k, q) pairs of an operator land on one output frequency, which
    # no fixture connection does; the frequencies range over all four axes,
    # as in the benchmark's generated connections
    geo = TorusGeometry(4)
    bands = (1, 1, 1, 1)
    rng = np.random.default_rng(seed)
    half = [k for k in itertools.product((-1, 0, 1), repeat=4) if k > (0, 0, 0, 0)]
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
# identity; abelian with a curvature override; abelian and su(2) on skewed
# metrics; many-mode su(2) over T^4, where shifted blocks collide
GALERKIN_ORACLE_CASES = [
    pytest.param(lambda: _fixture_connection("t3_su2_pages"), (2, 1, 1), id="t3_su2_pages"),
    pytest.param(lambda: _fixture_connection("t4_su2_cs3"), (1, 1, 0, 0), id="t4_su2_cs3"),
    pytest.param(lambda: _fixture_connection("t2_u1_c1nonzero"), (2, 2), id="t2_u1_c1nonzero"),
    pytest.param(_skewed_abelian_connection, (1, 1, 1), id="skewed_u1x2"),
    pytest.param(_skewed_su2_connection, (1, 1, 1), id="skewed_su2"),
    pytest.param(_many_mode_su2_connection, (1, 1, 0, 0), id="many_mode_su2"),
]


@pytest.mark.parametrize("make_conn, box", GALERKIN_ORACLE_CASES)
def test_galerkin_matrices_match_form_level_operators(make_conn, box):
    """Matrix layer on random real forms: M_r against laplacian_delta, each
    d_a and d*_a against the per-key reference."""
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
            s_ref, s_cut = up.vector_from_form(reference_d(w, conn, a))
            t_ref, t_cut = down.vector_from_form(reference_dstar(w, conn, a))
            s_got = d_component_matrix(conn, a, layout, up) @ vec
            t_got = d_component_matrix(conn, a, down, layout).conj().T @ vec
            size = 1.0 + np.linalg.norm(vec)
            # d_a and d*_a of an in-box form stay inside box + coupling
            assert s_cut <= 1e-13 * size and t_cut <= 1e-13 * size
            assert np.linalg.norm(s_got - s_ref) <= 1e-12 * max(np.linalg.norm(s_ref), 1.0)
            assert np.linalg.norm(t_got - t_ref) <= 1e-12 * max(np.linalg.norm(t_ref), 1.0)


@pytest.mark.parametrize("make_conn, box", GALERKIN_ORACLE_CASES)
def test_reference_operators_match_production(make_conn, box):
    """The per-key reference pins apply_d_component / apply_dstar_component,
    every component on every degree."""
    conn = make_conn()
    geo, alg = conn.geometry, conn.alg
    rng = np.random.default_rng(12)
    for p in range(geo.n + alg.dim + 1):
        w = random_bigraded(geo, alg, p, box, rng)
        for a in range(3):
            for op, ref in ((apply_d_component, reference_d), (apply_dstar_component, reference_dstar)):
                got = op(w, conn, a)
                want = ref(w, conn, a)
                assert_no_zero_blocks(got)
                assert got.slots() == want.slots()
                scale = bigraded_norm(want) + bigraded_norm(w)
                assert bigraded_norm(got - want) <= 1e-13 * scale


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
        for op, a in itertools.product((apply_d_component, apply_dstar_component), range(3)):
            out_b = op(batch, conn, a)
            out_s = op(single, conn, a)
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
    conn = Connection(alg, [FourierForm.zero(geo, 1) for _ in range(3)])
    form = BigradedForm(geo, alg)
    val = np.zeros((1, 3), dtype=complex)
    val[0, 0] = np.nan
    form.set_value((0, 1), (1, 0, 0, 0), val)
    image = apply_d_component(form, conn, 0)
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
