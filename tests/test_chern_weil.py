"""Curvature, characteristic forms and secondary forms."""

import numpy as np
import pytest

from bundlehodge.base_forms import (
    FourierForm,
    TorusGeometry,
    coexact_primitive,
    d as base_d,
    hodge_decompose,
    norm as bnorm,
)
from bundlehodge.bigraded import (
    BigradedForm,
    Connection,
    DeltaPolynomial,
    apply_d_component,
    apply_dstar_component,
    bigraded_norm,
    d_delta,
    from_fourier,
)
from bundlehodge.chern_weil import (
    InvariantPolynomial,
    abelian_scenario,
    beta_correction,
    bianchi_residual,
    cs1,
    cs3,
    cw2,
    cw4,
    make_polynomial,
)
from bundlehodge.errors import ConfigError, DegreeError, NotExact, NotSemisimple
from bundlehodge.lie_algebra import make_su2, make_u1

from form_builders import constant_form, cos_wave, random_form, sin_wave


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


def random_su2_connection(geo, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    alg = make_su2(0.2)
    return Connection(
        alg, [random_form(geo, 1, (1, 1, 1, 1), rng, scale) for _ in range(3)]
    )


# -- curvature ----------------------------------------------------------------


def test_curvature_of_flat_connection():
    geo = TorusGeometry(4)
    alg = make_su2()
    conn = Connection(alg, [FourierForm.zero(geo, 1) for _ in range(3)])
    assert all(bnorm(f) == 0.0 for f in conn.curvature_forms())


def test_curvature_abelian_is_da():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    a = sin_wave(geo, 1, (1, 0), (1,), 2.0)
    conn = Connection(alg, [a])
    f = conn.curvature_forms()[0]
    assert bnorm(f - base_d(a)) <= 1e-14 * bnorm(f)


def test_curvature_single_generator_pinned():
    geo = TorusGeometry(4)
    alg = make_su2()
    a = sin_wave(geo, 1, (1, 0, 0, 0), (1,), 1.0)
    conn = Connection(alg, [FourierForm.zero(geo, 1), a, FourierForm.zero(geo, 1)])
    f = conn.curvature_forms()
    expected = cos_wave(geo, 2, (1, 0, 0, 0), (0, 1), 1.0)
    assert bnorm(f[1] - expected) <= 1e-13 * bnorm(expected)
    assert bnorm(f[0]) == 0.0 and bnorm(f[2]) == 0.0
    assert bianchi_residual(conn) <= 1e-11


def test_bianchi_random_connections():
    geo = TorusGeometry(4)
    for seed in range(3):
        conn = random_su2_connection(geo, seed)
        assert bianchi_residual(conn) <= 1e-11


# -- characteristic forms -------------------------------------------------------


def test_cw2_closed():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    conn = Connection(alg, [sin_wave(geo, 1, (1, 0), (1,), 1.0)])
    phi = make_polynomial(alg, "first_chern")
    form = cw2(phi, conn)
    assert bnorm(base_d(form)) <= 1e-12 * max(bnorm(form), 1e-300)


def test_cw2_wrong_kind_rejected():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    conn = Connection(alg, [sin_wave(geo, 1, (1, 0), (1,), 1.0)])
    pair = make_polynomial(alg, "custom_bilinear")
    with pytest.raises(ConfigError):
        cw2(pair, conn)


def test_cw4_closed_and_dimension_guard():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    pair = make_polynomial(conn.alg, "second_chern")
    form = cw4(pair, conn)
    assert bnorm(base_d(form)) <= 1e-11 * max(bnorm(form), 1e-300)
    geo3 = TorusGeometry(3)
    conn3 = Connection(
        conn.alg,
        [
            sin_wave(geo3, 1, (1, 0, 0), (1,), 1.0),
            constant_form(geo3, 1, (2,), 1.0),
            FourierForm.zero(geo3, 1),
        ],
    )
    with pytest.raises(DegreeError):
        cw4(pair, conn3)


def test_cw4_class_independent_of_connection():
    geo = TorusGeometry(4)
    pair = make_polynomial(make_su2(0.2), "second_chern")
    forms = []
    for seed in (0, 1):
        conn = random_su2_connection(geo, seed)
        forms.append(cw4(pair, conn))
    diff = forms[0] - forms[1]
    _, _, harm = hodge_decompose(diff)
    assert bnorm(harm) <= 1e-10 * max(bnorm(forms[0]), 1.0)


# -- degree-1 secondary form ----------------------------------------------------


def test_cs1_component_and_coclosedness():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    conn = Connection(alg, [sin_wave(geo, 1, (1, 0), (1,), 1.0)])
    phi = make_polynomial(alg, "first_chern")
    form = cs1(phi, conn)
    assert form.slots() == [(0, 1)]
    val = form.components[(0, 1)][(0, 0)]
    np.testing.assert_allclose(val, phi.vector.reshape(1, -1), atol=1e-15)
    assert bigraded_norm(apply_dstar_component(form, conn, 0)) == 0.0


def test_cs1_only_curvature_term_survives():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    conn = Connection(alg, [sin_wave(geo, 1, (1, 0), (1,), 1.0)])
    phi = make_polynomial(alg, "first_chern")
    out = d_delta(DeltaPolynomial([cs1(phi, conn)]), conn)
    assert bigraded_norm(out.coefficient(0)) <= 1e-14
    assert bigraded_norm(out.coefficient(1)) <= 1e-14
    expected = from_fourier(cw2(phi, conn), alg)
    assert bigraded_norm(out.coefficient(2) - expected) <= 1e-12 * bigraded_norm(expected)


def test_cs1_rejects_semisimple_functional():
    with pytest.raises(ConfigError):
        InvariantPolynomial(make_su2(), "linear", vector=[1.0, 0.0, 0.0])


# -- degree-3 secondary form ----------------------------------------------------


def test_cs3_exactly_two_components():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    pair = make_polynomial(conn.alg, "second_chern")
    form = cs3(pair, conn)
    assert form.slots() == [(0, 3), (2, 1)]


def test_cs3_total_derivative_is_cw4():
    geo = TorusGeometry(4)
    for conn in (su2_connection(geo), random_su2_connection(geo, 5)):
        pair = make_polynomial(conn.alg, "second_chern")
        alpha = cs3(pair, conn)
        target = from_fourier(cw4(pair, conn), conn.alg)
        total = (
            apply_d_component(alpha, conn, 0)
            + apply_d_component(alpha, conn, 1)
            + apply_d_component(alpha, conn, 2)
        )
        scale = max(bigraded_norm(target), bigraded_norm(alpha))
        diff = total - target
        assert bigraded_norm(diff) <= 1e-10 * scale
        # every slot other than (4,0) must vanish on its own
        for slot in total.slots():
            if slot == (4, 0):
                continue
            part = BigradedForm(geo, conn.alg, {slot: total.components[slot]})
            assert bigraded_norm(part) <= 1e-10 * scale


def test_cs3_fiber_part_harmonic():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    pair = make_polynomial(conn.alg, "second_chern")
    alpha = cs3(pair, conn)
    val = alpha.components[(0, 3)][(0, 0, 0, 0)][0, :].real
    basis = conn.alg.harmonic_basis(3)
    proj = basis @ (basis.T @ conn.alg.gram(3) @ val)
    np.testing.assert_allclose(proj, val, atol=1e-12)


# -- primitive and correction ----------------------------------------------------


def test_primitive_h_posts():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    pair = make_polynomial(conn.alg, "second_chern")
    w4 = cw4(pair, conn)
    h = coexact_primitive(w4)
    from bundlehodge.base_forms import codifferential

    assert bnorm(base_d(h) - w4) <= 1e-10 * bnorm(w4)
    assert bnorm(codifferential(h)) <= 1e-10 * bnorm(w4)


def test_primitive_h_nonexact_branch():
    geo = TorusGeometry(2)
    flux = constant_form(geo, 2, (0, 1), 1.0)
    with pytest.raises(NotExact):
        coexact_primitive(flux)


def coderivative_21(pair, conn):
    """psi = d*_1 alpha^{2,1}, the covariant coderivative of the (2,1) part of cs3."""
    alpha = cs3(pair, conn)
    alpha21 = BigradedForm(conn.geometry, conn.alg, {(2, 1): alpha.components.get((2, 1), {})})
    return apply_dstar_component(alpha21, conn, 1)


def test_beta_correction_posts():
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    pair = make_polynomial(conn.alg, "second_chern")
    target = coderivative_21(pair, conn)
    beta = beta_correction(conn, target)
    assert beta.slots() == [(1, 2)]
    scale = max(bigraded_norm(target), 1e-300)
    assert bigraded_norm(apply_dstar_component(beta, conn, 0) - target) <= 1e-10 * scale
    assert bigraded_norm(apply_d_component(beta, conn, 0)) <= 1e-10 * scale


def test_beta_correction_flat_is_zero():
    geo = TorusGeometry(4)
    alg = make_su2()
    conn = Connection(alg, [FourierForm.zero(geo, 1) for _ in range(3)])
    pair = make_polynomial(alg, "second_chern")
    assert beta_correction(conn, coderivative_21(pair, conn)).is_zero()


def test_beta_correction_rejects_abelian():
    geo = TorusGeometry(4)
    alg = make_u1(1)
    conn = Connection(alg, [sin_wave(geo, 1, (1, 0, 0, 0), (1,), 1.0)])
    pair = make_polynomial(alg, "custom_bilinear")
    with pytest.raises(NotSemisimple):
        beta_correction(conn, coderivative_21(pair, conn))


# -- abelian flux scenarios -------------------------------------------------------


def test_abelian_scenario_accepts_closed_flux():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    flux = constant_form(geo, 2, (0, 1), 1.0) + cos_wave(geo, 2, (1, 0), (0, 1), 0.3)
    conn, f_forms = abelian_scenario(flux, geo, alg)
    assert bnorm(f_forms[0] - flux) <= 1e-14
    # the bigraded operators accept it: the contraction couples through F
    phi = make_polynomial(alg, "first_chern")
    out = d_delta(DeltaPolynomial([cs1(phi, conn)]), conn)
    assert bigraded_norm(out.coefficient(2)) > 0


def test_abelian_scenario_rejects_nonclosed():
    geo = TorusGeometry(3)
    alg = make_u1(1)
    bad = sin_wave(geo, 2, (0, 0, 1), (0, 1), 1.0)  # d of this is nonzero
    with pytest.raises(ConfigError):
        abelian_scenario(bad, geo, alg)


def test_abelian_scenario_rejects_nonabelian_algebra():
    geo = TorusGeometry(2)
    with pytest.raises(ConfigError):
        abelian_scenario(constant_form(geo, 2, (0, 1), 1.0), geo, make_su2())
