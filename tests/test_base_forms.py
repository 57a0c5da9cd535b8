"""Flat-torus form calculus: pinned values and exactness identities."""

import numpy as np
import pytest

from bundlehodge.base_forms import (
    FourierForm,
    TorusGeometry,
    codifferential,
    coexact_primitive,
    d,
    form_from_dict,
    hodge_decompose,
    hodge_star,
    inner_product,
    norm,
    wedge,
)
from bundlehodge.errors import ConfigError, DegreeError, DegreeOverflow, NotExact
from bundlehodge.multiindex import index_position, merge_sign, multi_indices

from form_builders import constant_form, cos_wave, monomial, random_form, sin_wave


def rel_err(x, scale):
    return x / max(scale, 1e-300)


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def geometries():
    rng = np.random.default_rng(7)
    out = []
    for n in (2, 3, 4):
        out.append(TorusGeometry(n))
        out.append(TorusGeometry(n, metric=random_spd(n, rng)))
    return out


# -- exterior derivative -----------------------------------------------------


def test_d_of_constant_is_zero():
    geo = TorusGeometry(2)
    f = constant_form(geo, 0, (), 3.0)
    assert norm(d(f)) == 0.0


def test_d_sin_is_cos_dx():
    geo = TorusGeometry(2)
    f = sin_wave(geo, 0, (1, 0), ())
    expected = cos_wave(geo, 1, (1, 0), (0,))
    assert norm(d(f) - expected) <= 1e-13 * norm(expected)


def test_d_squared_zero_randomized():
    for geo in geometries():
        rng = np.random.default_rng(11)
        for degree in range(geo.n):
            form = random_form(geo, degree, (3,) * geo.n if geo.n < 4 else (3,) * 4, rng)
            dd = d(d(form))
            assert rel_err(norm(dd), norm(form)) <= 1e-13


def test_d_top_degree_is_empty():
    geo = TorusGeometry(3)
    form = random_form(geo, 3, (1, 1, 1), np.random.default_rng(0))
    assert d(form).coeffs.shape[-1] == 0


# -- wedge --------------------------------------------------------------------


def test_wedge_antisymmetry_of_lines():
    geo = TorusGeometry(3)
    dx1 = constant_form(geo, 1, (0,), 1.0)
    dx2 = constant_form(geo, 1, (1,), 1.0)
    assert norm(wedge(dx1, dx2) + wedge(dx2, dx1)) == 0.0


def test_wedge_with_unit_function():
    geo = TorusGeometry(4)
    one = constant_form(geo, 0, (), 1.0)
    form = random_form(geo, 2, (2, 2, 2, 2), np.random.default_rng(1))
    assert norm(wedge(one, form) - form) <= 1e-14 * norm(form)
    assert norm(wedge(form, one) - form) <= 1e-14 * norm(form)


def test_wedge_graded_commutativity():
    geo = TorusGeometry(4)
    rng = np.random.default_rng(2)
    for da, db in ((1, 1), (1, 2), (2, 2), (1, 3)):
        a = random_form(geo, da, (1, 1, 1, 1), rng)
        b = random_form(geo, db, (1, 1, 1, 1), rng)
        lhs = wedge(a, b)
        rhs = (-1.0) ** (da * db) * wedge(b, a)
        assert rel_err(norm(lhs - rhs), norm(lhs)) <= 1e-13


def _merge_sign_wedge(a, b):
    """The wedge product with one merge_sign call per (entry, multi-index),
    in the loop order of base_forms.wedge, which runs over the entries of
    the factor with fewer nonzero coefficients."""
    if np.count_nonzero(b.coeffs) < np.count_nonzero(a.coeffs):
        return _merge_sign_wedge(b, a) * (-1.0) ** (a.degree * b.degree)
    geo = a.geometry
    out = FourierForm.zero(geo, a.degree + b.degree, tuple(x + y for x, y in zip(a.bands, b.bands)))
    pos_out = index_position(geo.n, a.degree + b.degree)
    for k, idx_a, value in a.entries():
        block = tuple(slice(ka + ba, ka + ba + 2 * bb + 1) for ka, ba, bb in zip(k, a.bands, b.bands))
        for col_b, idx_b in enumerate(multi_indices(geo.n, b.degree)):
            sgn, merged = merge_sign(idx_a, idx_b)
            if sgn:
                out.coeffs[block + (pos_out[merged],)] += sgn * value * b.coeffs[..., col_b]
    return out


def test_wedge_matches_merge_sign_loop_bit_for_bit():
    # the cached sign table keeps the loop order, so the sums are the same
    for geo in geometries():
        rng = np.random.default_rng(9)
        for da in range(geo.n + 1):
            for db in range(geo.n + 1 - da):
                a = random_form(geo, da, (1,) * geo.n, rng)
                b = random_form(geo, db, (2,) + (1,) * (geo.n - 1), rng)
                got = wedge(a, b)
                assert got.bands == tuple(x + y for x, y in zip(a.bands, b.bands))
                assert got.coeffs.tobytes() == _merge_sign_wedge(a, b).coeffs.tobytes()


def test_leibniz_identity():
    for geo in geometries():
        rng = np.random.default_rng(3)
        degrees = [(da, db) for da in range(2) for db in range(1, 3) if da + db < geo.n]
        for da, db in degrees:
            a = random_form(geo, da, (2,) * geo.n, rng)
            b = random_form(geo, db, (2,) * geo.n, rng)
            lhs = d(wedge(a, b))
            rhs = wedge(d(a), b) + (-1.0) ** da * wedge(a, d(b))
            assert rel_err(norm(lhs - rhs), norm(lhs) + norm(a) * norm(b)) <= 1e-12


def test_wedge_degree_overflow():
    geo = TorusGeometry(2)
    a = random_form(geo, 1, (1, 1), np.random.default_rng(0))
    b = random_form(geo, 2, (1, 1), np.random.default_rng(1))
    with pytest.raises(DegreeOverflow):
        wedge(a, b)


def test_wedge_exact_band_growth():
    geo = TorusGeometry(2)
    a = sin_wave(geo, 0, (2, 0), ())
    b = sin_wave(geo, 0, (2, 0), ())
    prod = wedge(a, b)
    # sin^2 = (1 - cos(2 * 2 x))/2: frequencies 0 and +-4
    assert prod.bands == (4, 0)
    expected = constant_form(geo, 0, (), 0.5) - cos_wave(geo, 0, (4, 0), (), 0.5)
    assert norm(prod - expected) <= 1e-14


# -- Hodge star and codifferential -------------------------------------------


def test_star_star_sign():
    for geo in geometries():
        rng = np.random.default_rng(5)
        for degree in range(geo.n + 1):
            form = random_form(geo, degree, (1,) * geo.n, rng)
            twice = hodge_star(hodge_star(form))
            sign = (-1.0) ** (degree * (geo.n - degree))
            assert rel_err(norm(twice - sign * form), norm(form)) <= 1e-12


def test_star_of_unit_is_volume():
    geo = TorusGeometry(3, metric=np.diag([1.0, 4.0, 9.0]))
    one = constant_form(geo, 0, (), 1.0)
    star = hodge_star(one)
    expected = constant_form(geo, 3, (0, 1, 2), geo.sqrt_det)
    assert norm(star - expected) <= 1e-13 * norm(expected)


def test_codifferential_adjointness():
    for geo in geometries():
        rng = np.random.default_rng(6)
        for degree in range(geo.n):
            a = random_form(geo, degree, (2,) * geo.n, rng)
            b = random_form(geo, degree + 1, (2,) * geo.n, rng)
            lhs = inner_product(d(a), b)
            rhs = inner_product(a, codifferential(b))
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + norm(a) * norm(b))


def test_codifferential_degree_zero_rejected():
    geo = TorusGeometry(2)
    with pytest.raises(DegreeError):
        codifferential(constant_form(geo, 0, (), 1.0))


# -- inner product ------------------------------------------------------------


def test_inner_product_positive_definite():
    for geo in geometries():
        rng = np.random.default_rng(8)
        form = random_form(geo, 1, (1,) * geo.n, rng)
        assert inner_product(form, form) > 0


def test_inner_product_normalization():
    geo = TorusGeometry(2)
    one = constant_form(geo, 0, (), 1.0)
    assert abs(inner_product(one, one) - (2 * np.pi) ** 2) <= 1e-12


def test_inner_product_degree_mismatch():
    geo = TorusGeometry(2)
    with pytest.raises(DegreeError):
        inner_product(constant_form(geo, 0, (), 1.0), constant_form(geo, 1, (0,), 1.0))


# -- Hodge decomposition -------------------------------------------------------


def test_decompose_constant_one_form():
    geo = TorusGeometry(2)
    form = constant_form(geo, 1, (0,), 2.0)
    exact, coexact, harmonic = hodge_decompose(form)
    assert norm(exact) == 0.0
    assert norm(coexact) == 0.0
    assert norm(harmonic - form) <= 1e-14


def test_decompose_exact_form():
    geo = TorusGeometry(3)
    f = random_form(geo, 0, (2, 2, 2), np.random.default_rng(9))
    form = d(f)
    exact, coexact, harmonic = hodge_decompose(form)
    assert rel_err(norm(exact - form), norm(form)) <= 1e-12
    assert rel_err(norm(coexact), norm(form)) <= 1e-12
    assert rel_err(norm(harmonic), norm(form)) <= 1e-12


def test_decompose_reassembly_and_orthogonality():
    for geo in geometries():
        rng = np.random.default_rng(10)
        degree = 2 if geo.n >= 2 else 1
        bands = (2,) * geo.n
        form = random_form(geo, degree, bands, rng)
        exact, coexact, harmonic = hodge_decompose(form)
        total = exact + coexact + harmonic
        assert rel_err(norm(total - form), norm(form)) <= 1e-11
        n2 = norm(form) ** 2
        assert abs(inner_product(exact, coexact)) <= 1e-11 * n2
        assert abs(inner_product(exact, harmonic)) <= 1e-11 * n2
        assert abs(inner_product(coexact, harmonic)) <= 1e-11 * n2


def test_decompose_idempotent():
    geo = TorusGeometry(4)
    form = random_form(geo, 2, (2, 2, 2, 2), np.random.default_rng(12))
    exact, coexact, harmonic = hodge_decompose(form)
    for part, slot in ((exact, 0), (coexact, 1), (harmonic, 2)):
        again = hodge_decompose(part)
        for s in range(3):
            target = part if s == slot else FourierForm.zero(geo, 2, part.bands)
            assert rel_err(norm(again[s] - target), norm(form)) <= 1e-11


def test_harmonic_slice_dimension():
    # the k = 0 slice of degree i has dimension binomial(n, i) by construction
    geo = TorusGeometry(3)
    from bundlehodge.multiindex import num_indices

    for i in range(4):
        assert num_indices(3, i) == [1, 3, 3, 1][i]


# -- coexact primitive ---------------------------------------------------------


def test_coexact_primitive_zero():
    geo = TorusGeometry(2)
    h = coexact_primitive(FourierForm.zero(geo, 2, (1, 1)))
    assert norm(h) == 0.0


def test_coexact_primitive_posts():
    geo = TorusGeometry(2)
    seed = sin_wave(geo, 1, (1, 0), (1,))
    omega = d(seed)
    h = coexact_primitive(omega)
    assert rel_err(norm(d(h) - omega), norm(omega)) <= 1e-10
    assert rel_err(norm(codifferential(h)), norm(omega)) <= 1e-10
    _, _, harm = hodge_decompose(h)
    assert rel_err(norm(harm), norm(h)) <= 1e-10


def test_coexact_primitive_random_inputs():
    for geo in geometries():
        if geo.n < 3:
            continue
        rng = np.random.default_rng(13)
        omega = d(random_form(geo, 2, (2,) * geo.n, rng))
        h = coexact_primitive(omega)
        assert rel_err(norm(d(h) - omega), norm(omega)) <= 1e-10
        assert rel_err(norm(codifferential(h)), norm(omega)) <= 1e-10


def test_coexact_primitive_rejects_harmonic():
    geo = TorusGeometry(2)
    volume = constant_form(geo, 2, (0, 1), 1.0)
    with pytest.raises(NotExact) as err:
        coexact_primitive(volume)
    assert err.value.harmonic_norm > 0


# -- serialization and utilities ----------------------------------------------


def test_serialization_reads_a_handwritten_payload():
    """The scenario reader puts each entry [k, multi-index, re, im] at its
    frequency and lexicographic index position, adds repeated entries, takes
    the widest frequency per axis as the bands, and rejects an entry beyond
    the declared band."""
    geo = TorusGeometry(3)
    entries = [
        [[1, -2, 0], [0, 2], 0.5, 0.25],
        [[-1, 2, 0], [0, 2], 0.5, -0.25],
        [[0, 0, 0], [1, 2], 1.5, 0.0],
        [[0, 0, 0], [1, 2], 0.5, 0.0],
    ]
    form = form_from_dict(geo, {"degree": 2, "band": 2, "entries": entries})
    assert (form.degree, form.bands, form.coeffs.shape) == (2, (1, 2, 0), (3, 5, 1, 3))
    # degree-2 indices on three axes: (0, 1), (0, 2), (1, 2)
    expected = np.zeros((3, 5, 1, 3), dtype=complex)
    expected[2, 0, 0, 1] = 0.5 + 0.25j
    expected[0, 4, 0, 1] = 0.5 - 0.25j
    expected[1, 2, 0, 2] = 2.0
    assert np.array_equal(form.coeffs, expected)
    with pytest.raises(ConfigError, match="declared band"):
        form_from_dict(geo, {"degree": 2, "band": 1, "entries": entries})


def test_serialization_rejects_nonreal():
    geo = TorusGeometry(2)
    data = {"degree": 0, "band": 1, "entries": [[[1, 0], [], 1.0, 0.0]]}
    with pytest.raises(ConfigError):
        form_from_dict(geo, data)


def test_nan_coefficient_is_an_entry_not_a_zero():
    geo = TorusGeometry(2)
    entries = monomial(geo, 1, (1, 0), (0,), np.nan).entries()
    assert len(entries) == 1
    key, index, value = entries[0]
    assert (key, index) == ((1, 0), (0,))
    assert np.isnan(value)


def test_trim_and_pad():
    geo = TorusGeometry(2)
    form = sin_wave(geo, 1, (1, 0), (0,)).pad_to((4, 4))
    trimmed = form.trim()
    assert trimmed.bands == (1, 0)
    assert norm(trimmed - form) == 0.0


def test_reality_preserved_by_operators():
    geo = TorusGeometry(3, metric=random_spd(3, np.random.default_rng(15)))
    form = random_form(geo, 1, (2, 2, 2), np.random.default_rng(16))
    assert form.is_real()
    assert d(form).is_real()
    assert hodge_star(form).is_real()
    assert codifferential(form).is_real()
