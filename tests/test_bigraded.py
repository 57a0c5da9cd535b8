"""Bigraded complex: anticommutation identities, adjointness, rescaling."""

import itertools
import json

import numpy as np
import pytest
import scipy.sparse

from bundlehodge.base_forms import (
    FourierForm,
    TorusGeometry,
)
from bundlehodge.bigraded import (
    _BIDEGREES,
    BigradedForm,
    Connection,
    DeltaPolynomial,
    FrequencyTable,
    TruncationLayout,
    _accumulate,
    _apply_rows,
    _factor,
    _row_plan,
    _slot_terms,
    apply_d_component,
    apply_dstar_component,
    bigraded_inner_product,
    bigraded_norm,
    bigraded_to_dict,
    csr_entries,
    csr_from_entries,
    d_component_matrix,
    d_delta,
    dstar_delta,
    from_fourier,
)
from bundlehodge.adiabatic_ss import (
    _blocks,
    _galerkin_spectrum,
    galerkin_polynomial,
    near_zero_count,
)
from bundlehodge.errors import ConfigError
from bundlehodge.lie_algebra import LieAlgebraData, make_su2, make_u1
from bundlehodge.multiindex import num_indices

from bigraded_reference import (
    assert_galerkin_pairs_match_the_product_oracle,
    csr_bytes,
    form_of,
    laplacian_delta,
    random_bigraded,
    reference_accumulate,
    reference_apply_factor,
    reference_blocks,
    reference_component_matrix,
    reference_conjugate_form,
    reference_d,
    reference_dstar,
    reference_galerkin_pairs,
    reference_galerkin_polynomial,
    reference_galerkin_spectrum,
    reference_kept_block_spectrum,
    rho_scale,
    sq_norms_batch,
)
from form_builders import constant_form, cos_wave, monomial, random_form, sin_wave


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
    def times_f(form):
        return form_of(
            geo,
            alg,
            [
                (slot, tuple(k + q for k, q in zip(key, fk)), fv * val)
                for slot, table in form.components.items()
                for key, val in table.items()
                for fk, _, fv in f.entries()
            ],
        )

    lhs = apply_d_component(times_f(w), conn, 1)
    rhs_scaled = times_f(apply_d_component(w, conn, 1))
    # assemble df ^ w directly from the derivative entries
    from bundlehodge.base_forms import d as base_d
    from bundlehodge.multiindex import wedge_axis_matrix

    dfw = form_of(
        geo,
        alg,
        [
            ((i + 1, j), tuple(k + q for k, q in zip(key, fk)), fv * (wedge_axis_matrix(geo.n, i, idx[0]) @ val))
            for (i, j), table in w.components.items()
            for key, val in table.items()
            for fk, idx, fv in base_d(f).entries()
        ],
    )
    total = rhs_scaled + dfw
    assert bigraded_norm(lhs - total) <= 1e-12 * max(bigraded_norm(lhs), 1.0)


def test_d_delta_on_invariant_section():
    """A constant Ad-invariant (0,j) form has only the delta^2 contraction term."""
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    alg = conn.alg
    # su(2) degree-3 harmonic (volume) as a constant section
    vol = alg.harmonic_basis(3)[:, 0]
    phi = BigradedForm(geo, alg, {(0, 3): {(0, 0, 0, 0): vol.reshape(1, -1).astype(complex)}})
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
    # the reference polynomial sum_r delta^r M_r is Hermitian positive
    # semidefinite, and equals A(delta)^H A(delta)
    geo = TorusGeometry(4)
    conn = su2_connection(geo)
    _, m_r = reference_galerkin_polynomial(conn, 1, (1, 1, 1, 1))
    ref = sum(0.5**r * m for r, m in enumerate(m_r)).toarray()
    _, mats = galerkin_polynomial(conn, 1, (1, 1, 1, 1))
    a = sum(0.5**s * m for s, m in enumerate(mats)).toarray()
    scale = np.linalg.norm(ref, 2)
    assert np.linalg.norm(ref - ref.conj().T, 2) <= 1e-11 * scale
    assert np.linalg.norm(a.conj().T @ a - ref, 2) <= 1e-12 * scale
    evals = np.linalg.eigvalsh(0.5 * (ref + ref.conj().T))
    assert evals.min() >= -1e-10 * scale


def _fixture_connection(name):
    from bundlehodge.harness import load_scenario, packaged_scenario_path

    return load_scenario(packaged_scenario_path(name)).connection


def _su3_connection():
    # the su(3) copy of t4_su2_cs3 at the same scale: rows of its coadjoint,
    # iota and fiber d matrices hold several nonzeros
    from bundlehodge.harness import Scenario, packaged_scenario_path

    with open(packaged_scenario_path("t4_su2_cs3")) as fh:
        config = json.load(fh)
    return Scenario(dict(config, algebra={"name": "su3", "scale": "0.2"})).connection


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
# identity, and its su(3) copy, whose factors have rows of several nonzeros;
# abelian with a curvature override; abelian and su(2) on skewed metrics;
# many-mode su(2) over T^4, where shifted blocks collide
GALERKIN_ORACLE_CASES = [
    pytest.param(lambda: _fixture_connection("t3_su2_pages"), (2, 1, 1), id="t3_su2_pages"),
    pytest.param(lambda: _fixture_connection("t4_su2_cs3"), (1, 1, 0, 0), id="t4_su2_cs3"),
    pytest.param(_su3_connection, (1, 0, 0, 0), id="t4_su3_cs3"),
    pytest.param(lambda: _fixture_connection("t2_u1_c1nonzero"), (2, 2), id="t2_u1_c1nonzero"),
    pytest.param(_skewed_abelian_connection, (1, 1, 1), id="skewed_u1x2"),
    pytest.param(_skewed_su2_connection, (1, 1, 1), id="skewed_su2"),
    pytest.param(_many_mode_su2_connection, (1, 1, 0, 0), id="many_mode_su2"),
]


@pytest.mark.parametrize("make_conn, box", GALERKIN_ORACLE_CASES)
def test_galerkin_matrices_match_form_level_operators(make_conn, box):
    """Matrix layer on random real forms: the coefficients sum_{a+b=r}
    A_a^H A_b of A(delta)^H A(delta) against laplacian_delta and against the
    reference M_r, each d_a and d*_a against the per-key reference."""
    conn = make_conn()
    geo, alg = conn.geometry, conn.alg
    wide = tuple(b + c for b, c in zip(box, conn.coupling_bands()))
    rng = np.random.default_rng(11)
    for p in range(geo.n + alg.dim + 1):
        layout, mats = galerkin_polynomial(conn, p, box)
        _, m_r = reference_galerkin_polynomial(conn, p, box)
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
            pairs = [(a, r - a) for a in range(max(r - 2, 0), min(r, 2) + 1)]
            got = sum(mats[a].conj().T @ (mats[b] @ vec) for a, b in pairs)
            assert np.linalg.norm(got - refs[r]) <= 1e-12 * scale
            assert np.linalg.norm(got - m_r[r] @ vec) <= 1e-12 * scale
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


# every packaged fixture, the su(3) copy of t4_su2_cs3, and the skewed
# abelian and su(2) connections, whose Cholesky factors are full triangles;
# each with whether its Laplacian commutes with the mirror to the bit
MIRROR_CASES = [
    pytest.param(lambda: _fixture_connection("t2_u1_c1zero"), (2, 2), True, id="t2_u1_c1zero"),
    pytest.param(lambda: _fixture_connection("t2_u1_c1nonzero"), (2, 2), True, id="t2_u1_c1nonzero"),
    pytest.param(lambda: _fixture_connection("t3_su2_pages"), (2, 1, 1), True, id="t3_su2_pages"),
    pytest.param(lambda: _fixture_connection("t4_su2_flat"), (1, 1, 0, 0), True, id="t4_su2_flat"),
    pytest.param(lambda: _fixture_connection("t4_su2_cs3"), (1, 1, 0, 0), True, id="t4_su2_cs3"),
    pytest.param(_su3_connection, (1, 0, 0, 0), True, id="t4_su3_cs3"),
    pytest.param(_skewed_abelian_connection, (1, 1, 1), True, id="skewed_u1x2"),
    pytest.param(_skewed_su2_connection, (1, 1, 1), False, id="skewed_su2"),
]


def _block_sets(rows, cols):
    return [(frozenset(r.tolist()), frozenset(c.tolist())) for r, c in zip(rows, cols)]


@pytest.mark.parametrize("make_conn, box, exact", MIRROR_CASES)
def test_galerkin_laplacian_commutes_with_the_reality_involution(make_conn, box, exact):
    """L[mirror][:, mirror] == conj(L), L = A(delta)^H A(delta): exactly, but on
    skewed_su2, whose d_1 and d_2 sum several terms into one matrix entry, and
    in another order at the mirrored entry, only to rounding."""
    conn = make_conn()
    for p in range(conn.geometry.n + conn.alg.dim + 1):
        mirror = TruncationLayout.of_degree(conn.geometry, conn.alg, p, box).mirror()
        stacked = sum(0.5**a * m for a, m in enumerate(galerkin_polynomial(conn, p, box)[1]))
        lap = (stacked.conj().T @ stacked).toarray()
        defect = np.max(np.abs(lap[mirror][:, mirror] - lap.conj()), initial=0.0)
        if exact:
            assert defect == 0.0
        else:
            assert defect <= 2 * np.finfo(float).eps * np.max(np.abs(lap), initial=0.0)


@pytest.mark.parametrize("make_conn, box, _", MIRROR_CASES)
def test_galerkin_spectrum_pairs_mirror_blocks(make_conn, box, _):
    """Every block of the pattern is kept, or copied from the one kept block of its
    shape that is its mirror partner; a self-mirror block is kept; the paired
    spectrum and its counts match the every-block oracle, and the pairs those of
    the sparse product pattern."""
    conn = make_conn()
    for p in range(conn.geometry.n + conn.alg.dim + 1):
        mirror = TruncationLayout.of_degree(conn.geometry, conn.alg, p, box).mirror()
        for delta in (0.5, 0.125):
            got = _galerkin_spectrum(conn, p, delta, box)
            want = reference_galerkin_spectrum(conn, p, delta, box)
            top = float(np.max(np.abs(want), initial=0.0))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * top
            for threshold in (1e-12, 1e-10):
                cut = threshold * max(top, 1e-300)
                assert np.sum(got <= cut) == np.sum(want <= cut)
            count, _ = near_zero_count(conn, p, delta, box, 1e-8)
            assert count == int(np.sum(want <= 1e-8 * max(top, 1e-300)))
        assert_galerkin_pairs_match_the_product_oracle(conn, p, box)
        pattern = sum(abs(m) for m in galerkin_polynomial(conn, p, box)[1])
        blocks = _blocks(pattern.T @ pattern + scipy.sparse.identity(pattern.shape[1]))
        _, columns, kept_blocks, copied = conn._cache[("galerkin", p, box)]
        assert len(kept_blocks) == len(copied) == len(blocks)
        for (rows, cols), (kept_rows, kept_cols), copies in zip(blocks, kept_blocks, copied):
            # the cached kept blocks are numbered within the kept columns
            every, kept = _block_sets(rows, cols), _block_sets(columns[kept_rows], columns[kept_cols])
            assert set(kept) <= set(every) and len(set(kept)) == len(kept)
            assert copies.shape == (len(every),)
            at = {block: n for n, block in enumerate(every)}
            for n, (block_rows, block_cols) in enumerate(every):
                partner = at[(frozenset(mirror[list(block_rows)].tolist()), frozenset(mirror[list(block_cols)].tolist()))]
                source = kept[copies[n]]
                if partner == n:
                    assert source == every[n]
                else:
                    assert (every[n] in kept) != (every[partner] in kept)
                    assert source in (every[n], every[partner])
                    assert copies[partner] == copies[n]


@pytest.mark.parametrize(
    "name, box",
    [("t4_su2_cs3", (1, 1, 1, 0)), ("t3_su2_pages", (10, 1, 1)), ("t4_su2_flat", (1, 1, 1, 1))],
)
def test_kept_column_laplacian_equals_the_whole_laplacian_gather(name, box):
    """The Laplacian formed over the kept blocks' columns gives, in degree 3, the
    eigenvalues of the same blocks gathered from the whole Laplacian, bit for bit,
    and the same near-zero counts; the cached matrices hold those columns alone."""
    conn = _fixture_connection(name)
    for delta in (0.5, 0.125):
        got = _galerkin_spectrum(conn, 3, delta, box)
        want = reference_kept_block_spectrum(conn, 3, delta, box)
        assert got.tobytes() == want.tobytes()
        top = float(np.max(np.abs(want), initial=0.0))
        for threshold in (1e-12, 1e-8):
            count, norm = near_zero_count(conn, 3, delta, box, threshold)
            assert (count, norm) == (int(np.sum(want <= threshold * max(top, 1e-300))), top)
    mats, columns, kept, _ = conn._cache[("galerkin", 3, box)]
    whole = galerkin_polynomial(conn, 3, box)[1]
    assert np.all(np.diff(columns) > 0) and columns.size < whole[0].shape[1]
    assert sorted(np.concatenate([cols.ravel() for _, cols in kept]).tolist()) == list(range(columns.size))
    for m, w in zip(mats, whole):
        assert csr_bytes(m) == csr_bytes(w[:, columns])


def test_galerkin_spectrum_pairs_a_pattern_that_is_not_mirror_closed():
    """A mode of 1e-14 or 1e-13 at k with none at -k passes the scenario's reality
    check, and leaves the pattern |A|^T |A| + I without the mirror image of some
    blocks; joined with its mirror image, the pattern pairs them, the spectrum
    matches the every-block oracle, and the kept blocks and copies equal those
    of the sparse product pattern, whose mirror image joins blocks that the
    pattern alone leaves apart."""
    from bundlehodge.harness import Scenario, packaged_scenario_path

    cases = [
        ("t3_su2_pages", 1, [[0, 1, 0], [1], "1e-14", "0"], (1, 1, 1)),
        ("t4_su2_cs3", 0, [[0, 0, 1, 0], [1], "1e-13", "0"], (0, 0, 1, 0)),
    ]
    for name, component, mode, box in cases:
        with open(packaged_scenario_path(name)) as fh:
            config = json.load(fh)
        form = config["connection"]["components"][component][1]
        form.update(band=1, entries=form["entries"] + [mode])
        conn = Scenario(config).connection
        joined = 0
        for p in range(conn.geometry.n + conn.alg.dim + 1):
            got = _galerkin_spectrum(conn, p, 0.5, box)
            want = reference_galerkin_spectrum(conn, p, 0.5, box)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)
            assert_galerkin_pairs_match_the_product_oracle(conn, p, box)
            pattern = sum(abs(m) for m in galerkin_polynomial(conn, p, box)[1])
            alone = reference_blocks(pattern.T @ pattern + scipy.sparse.identity(pattern.shape[1]))
            _, copies = reference_galerkin_pairs(conn, p, box)
            joined += sum(len(c) for c in copies) < sum(len(r) for r, _ in alone)
        assert joined > 0


# every packaged fixture; skewed metrics, whose Cholesky factors are full
# triangles; the many-mode su(2) connection, whose modes run along every axis
COMPONENT_MATRIX_CASES = [
    pytest.param(lambda name=name: _fixture_connection(name), id=name)
    for name in ("t2_u1_c1zero", "t2_u1_c1nonzero", "t3_su2_pages", "t4_su2_flat", "t4_su2_cs3")
] + [
    pytest.param(_skewed_abelian_connection, id="skewed_u1x2"),
    pytest.param(_skewed_su2_connection, id="skewed_su2"),
    pytest.param(_many_mode_su2_connection, id="many_mode_su2"),
]


@pytest.mark.parametrize("make_conn", COMPONENT_MATRIX_CASES)
def test_component_matrices_match_term_by_term_assembly(make_conn):
    """The component matrices, read from term tables cached across calls,
    against the per-term assembly that rebuilds every block, bit for bit,
    for every component and degree: into the box widened by the coupling
    band, which holds every image, and into the source box and a narrower
    one, which cut it.  Also from the one-slot layouts of the page
    recursion's slot coordinates, into a layout of the whole target degree
    and into one that lacks the target slot; on the one-slot layouts of the
    order-4 recovery, (2,0) -> (3,0) and (3,0) -> (4,0); and once more on
    every layout pair after all term tables are cached."""
    conn = make_conn()
    geo, alg = conn.geometry, conn.alg
    n = geo.n
    src_box = (2,) + (1,) * (n - 1)
    wide = tuple(b + c for b, c in zip(src_box, conn.coupling_bands()))
    pairs = []
    for p in range(n + alg.dim + 1):
        src = TruncationLayout.of_degree(geo, alg, p, src_box)
        for which, (di, dj) in enumerate(_BIDEGREES):
            for dst_box in (wide, src_box, (1,) + (0,) * (n - 1)):
                pairs.append((which, src, TruncationLayout.of_degree(geo, alg, p + di + dj, dst_box)))
            whole = TruncationLayout.of_degree(geo, alg, p + di + dj, wide)
            for i, j in src.slots:
                lacking = [slot for slot in whole.slots if slot != (i + di, j + dj)]
                for dst_slots in (whole.slots, lacking):
                    pairs.append(
                        (
                            which,
                            TruncationLayout(geo, alg, [(i, j)], src_box),
                            TruncationLayout(geo, alg, dst_slots, wide),
                        )
                    )
    for i in (2, 3):
        pairs.append(
            (
                1,
                TruncationLayout(geo, alg, [(i, 0)], src_box),
                TruncationLayout(geo, alg, [(i + 1, 0)], src_box),
            )
        )
    for which, src, dst in pairs:
        want = csr_bytes(reference_component_matrix(conn, which, src, dst))
        assert csr_bytes(d_component_matrix(conn, which, src, dst)) == want
    # every term table is cached now: a second build adds nothing to the cache
    cached = len(conn._cache)
    for which, src, dst in pairs:
        want = csr_bytes(reference_component_matrix(conn, which, src, dst))
        assert csr_bytes(d_component_matrix(conn, which, src, dst)) == want
    assert len(conn._cache) == cached


def _reached_factors(conn):
    """(space, key, axis) of every base (axis 1) and fiber (axis 2) factor
    that a component d^(which) or its adjoint applies on some slot, the
    identities left out."""
    geo, alg = conn.geometry, conn.alg
    keys = np.zeros((1, geo.n))
    found = {}
    for which, (di, dj) in enumerate(_BIDEGREES):
        for i, j in itertools.product(range(geo.n + 1), range(alg.dim + 1)):
            if not num_indices(geo.n, i + di) or not num_indices(alg.dim, j + dj):
                continue
            for adjoint in (False, True):
                multipliers, groups = _slot_terms(conn, which, (i, j), keys, adjoint)
                for base, fiber in [(base, fiber) for _, _, base, fiber in multipliers] + list(groups):
                    found[(1, base)] = geo
                    found[(2, fiber)] = alg
    return [(space, key, axis) for (axis, key), space in found.items() if key[0] != "eye"]


# every packaged fixture; the su(3) copy of t4_su2_cs3 and the skewed
# metrics, whose factors have rows of several nonzeros (the skewed adjoints
# through their dense Gram matrices)
FACTOR_CASES = [
    pytest.param(lambda name=name: _fixture_connection(name), False, id=name)
    for name in ("t2_u1_c1zero", "t2_u1_c1nonzero", "t3_su2_pages", "t4_su2_flat", "t4_su2_cs3")
] + [
    pytest.param(_su3_connection, True, id="t4_su3_cs3"),
    pytest.param(_skewed_abelian_connection, True, id="skewed_u1x2"),
    pytest.param(_skewed_su2_connection, True, id="skewed_su2"),
]


@pytest.mark.parametrize("make_conn, several", FACTOR_CASES)
def test_factor_rows_match_the_dense_product(make_conn, several):
    """Every factor the operators reach, applied through its row plan, on
    plain and batched stacks, against the dense einsum: bit for bit where
    each row of the factor holds at most one nonzero, else within
    1e-14 (|M| |x|) entry by entry.  A NaN in any column of a line along
    the factor's axis leaves a non-finite entry in the image line."""
    conn = make_conn()
    rng = np.random.default_rng(19)
    depths = []
    for space, key, axis in _reached_factors(conn):
        mat = _factor(space, key)
        plan = _row_plan(space, key)
        depth = int(np.count_nonzero(mat, axis=1).max(initial=0))
        depths.append(depth)
        for batch in ((), (3,)):
            shape = [4, 2, 3] + list(batch)
            shape[axis] = mat.shape[1]
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = _apply_rows(plan, x, axis, True)
            want = reference_apply_factor(mat, x, axis)
            assert got.shape == want.shape
            if depth <= 1:
                assert np.array_equal(got, want)
            else:
                bound = 1e-14 * reference_apply_factor(np.abs(mat), np.abs(x), axis)
                assert np.all(np.abs(got - want) <= bound)
            # no finiteness promise: the same image for a finite stack
            assert np.array_equal(_apply_rows(plan, x, axis, False), got)
            for col in range(mat.shape[1]):
                spot = [1] * x.ndim
                spot[axis] = col
                poisoned = x.copy()
                poisoned[tuple(spot)] = np.nan
                line = list(spot)
                line[axis] = slice(None)
                image = _apply_rows(plan, poisoned, axis, False)
                assert not np.isfinite(image[tuple(line)]).all()
    assert (max(depths) > 1) == several


def test_csr_from_entries_matches_the_coo_constructor_bit_for_bit():
    """csr_from_entries has the arrays of csr_matrix((vals, (rows, cols)), shape),
    duplicates included: scipy sorts a row of more than 16 entries unstably, so
    the sums must come from scipy's own sum_duplicates on the same row order."""
    rng = np.random.default_rng(17)
    empty = np.zeros(0, dtype=np.int64)
    cases = [
        (empty, empty, np.zeros(0, dtype=complex), (3, 4)),
        (empty, empty, np.zeros(0), (0, 4)),
        (np.array([4, 0, 4, 0]), np.array([2, 1, 2, 1]), np.array([1.0, 1e-17, -1.0, 1.0]), (6, 3)),
    ]
    for m, n, nnz in ((1, 3, 40), (3, 5, 120), (4, 40, 300)):
        # values over many magnitudes, so that the summation order shows
        vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-16, 1, nnz)
        vals = vals + 1j * rng.standard_normal(nnz)
        cases.append((rng.integers(0, m, nnz), rng.integers(0, n, nnz), vals, (m, n)))
        assert np.max(np.bincount(cases[-1][0])) > 16
    for rows, cols, vals, shape in cases:
        assert rows.dtype == np.int64
        mat = csr_from_entries(rows, cols, vals, shape)
        assert csr_bytes(mat) == csr_bytes(scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape))
        assert mat.indices.dtype == mat.indptr.dtype == np.int32
        # the stored entries, read back row-major, rebuild the same matrix
        e_rows, e_cols, e_vals = csr_entries(mat)
        assert e_rows.dtype == mat.indices.dtype
        assert np.all(np.diff(e_rows) >= 0)
        dense = np.zeros(shape, dtype=mat.dtype)
        dense[e_rows, e_cols] = e_vals
        assert np.array_equal(dense, mat.toarray())
        assert csr_bytes(csr_from_entries(e_rows, e_cols, e_vals, shape)) == csr_bytes(mat)


def test_galerkin_band_too_small():
    geo = TorusGeometry(2)
    alg = make_u1(1)
    conn = Connection(alg, [sin_wave(geo, 1, (2, 2), (1,), 1.0)])
    with pytest.raises(ConfigError, match="frequency box too small"):
        galerkin_polynomial(conn, 1, (0, 0))


@pytest.mark.parametrize("make_conn", [_skewed_abelian_connection, _skewed_su2_connection])
def test_mirror_is_the_reality_involution_in_coordinates(make_conn):
    """mirror() is an involutive row permutation, and conj(x[mirror]) are the
    coordinates of the conjugate form (conjugate values at -k), on skewed
    metrics whose Cholesky factors are full triangles."""
    conn = make_conn()
    geo, alg = conn.geometry, conn.alg
    rng = np.random.default_rng(13)
    for p in range(geo.n + alg.dim + 1):
        layout = TruncationLayout.of_degree(geo, alg, p, (2,) + (1,) * (geo.n - 1))
        mirror = layout.mirror()
        assert np.array_equal(np.sort(mirror), np.arange(layout.dim))
        assert np.array_equal(mirror[mirror], np.arange(layout.dim))
        x = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
        bar, cut = layout.vector_from_form(reference_conjugate_form(layout.form_from_vector(x)))
        assert cut == 0.0
        assert np.linalg.norm(bar - np.conj(x[mirror])) <= 1e-13 * np.linalg.norm(x)


def test_batched_operators_match_unbatched():
    # the many-mode connection runs the batched path through colliding shifts
    for conn in (su2_connection(TorusGeometry(4)), _many_mode_su2_connection()):
        geo = conn.geometry
        rng = np.random.default_rng(8)
        batch = random_bigraded(geo, conn.alg, 3, (1, 1, 1, 1), rng, batch=3)
        # slice out sample 1 as an unbatched form
        single = BigradedForm(
            geo, conn.alg, {slot: {key: val[:, :, 1] for key, val in table.items()} for slot, table in batch.components.items()}
        )
        for op, a in itertools.product((apply_d_component, apply_dstar_component), range(3)):
            out_b = op(batch, conn, a)
            out_s = op(single, conn, a)
            assert_no_zero_blocks(out_b)
            assert_no_zero_blocks(out_s)
            sliced = BigradedForm(
                geo, conn.alg, {slot: {key: val[:, :, 1] for key, val in table.items()} for slot, table in out_b.components.items()}
            )
            assert bigraded_norm(sliced - out_s) <= 1e-13 * max(bigraded_norm(out_s), 1.0)
        norms = sq_norms_batch(batch)
        assert norms.shape == (3,)
        assert abs(norms[1] - bigraded_norm(single) ** 2) <= 1e-10 * norms[1]


def test_nan_block_is_kept_not_read_as_zero():
    # a NaN residual must show as a NaN norm, never as an exact zero
    geo = TorusGeometry(4)
    alg = make_su2()
    conn = Connection(alg, [FourierForm.zero(geo, 1) for _ in range(3)])
    val = np.zeros((1, 3), dtype=complex)
    val[0, 0] = np.nan
    form = BigradedForm(geo, alg, {(0, 1): {(1, 0, 0, 0): val}})
    image = apply_d_component(form, conn, 0)
    assert image.slots() == [(0, 2)]
    assert np.isnan(bigraded_norm(image))
    assert np.isnan(bigraded_norm(image.copy().prune(tol=1.0)))
    assert np.isnan(bigraded_norm(form.copy().prune()))


def test_nan_in_a_column_the_factor_zeroes_is_kept():
    # d^(1,0) at k = (0, 1, 0, 0) applies e^1 ^ only, which zeroes the dx^1
    # part of a 1-form: a NaN there must still give a NaN image norm (the
    # rows e^1 ^ leaves empty read dx^0, which is zero here)
    geo = TorusGeometry(4)
    alg = make_su2()
    conn = Connection(alg, [FourierForm.zero(geo, 1) for _ in range(3)])
    val = np.zeros((4, 3), dtype=complex)
    val[1, 0] = np.nan
    form = BigradedForm(geo, alg, {(1, 1): {(0, 1, 0, 0): val}})
    image = apply_d_component(form, conn, 1)
    assert image.slots() == [(2, 1)]
    assert np.isnan(bigraded_norm(image))
    assert np.isnan(bigraded_norm(image.copy().prune(tol=1.0)))


# keys, whether an unshifted term is given, and per coupling group its shifts
_ACCUMULATE_CASES = {
    # the zero shift lands on the source rows, on top of the unshifted term
    "zero-shift-on-unshifted": dict(
        keys=[(0, 0), (1, 0), (0, 1)], unshifted=True, shifts=[[(0, 0)], [(0, 0), (1, 0)]],
    ),
    # images hit source keys and one another, across shifts and groups
    "colliding-images": dict(
        keys=[(0, 0), (1, 0), (2, 0), (1, 1)], unshifted=True,
        shifts=[[(1, 0), (-1, 0)], [(2, 0), (0, 1), (1, 0)]],
    ),
    "no-unshifted-term": dict(
        keys=[(0, 0), (1, 0), (2, 0)], unshifted=False,
        shifts=[[(1, 0), (-1, 0)], [(0, 0), (2, 0)]],
    ),
    "negative-keys": dict(
        keys=[(-3, -1, 0), (-1, -2, 4), (0, 0, -5), (-2, 0, -4)], unshifted=True,
        shifts=[[(-2, 1, 0), (1, 1, 1)], [(-1, -1, -1), (2, 0, 1)]],
    ),
    "batched": dict(
        keys=[(0, 1), (1, 0), (-1, -1)], unshifted=True,
        shifts=[[(1, 1), (0, 0)], [(-1, 0)]], batch=(2,),
    ),
    "nan-row": dict(
        keys=[(0, 0), (1, 0)], unshifted=False, shifts=[[(1, 0)], [(-1, 0)]], nan_rows=[0],
    ),
    "zero-row": dict(
        keys=[(0, 0), (5, 5)], unshifted=False, shifts=[[(1, 0)]], zero_rows=[1],
    ),
}


@pytest.mark.parametrize("case", sorted(_ACCUMULATE_CASES))
def test_accumulate_matches_per_key_reference(case):
    spec = _ACCUMULATE_CASES[case]
    rng = np.random.default_rng(7)
    keys = spec["keys"]
    shape = (len(keys), 2, 3) + spec.get("batch", ())

    def draw():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    stacked = draw()
    stacked[spec.get("nan_rows", []), 0, 0] = np.nan
    stacked[spec.get("zero_rows", [])] = 0
    unshifted = draw() if spec["unshifted"] else None
    factors = [rng.standard_normal((2, 2)) for _ in spec["shifts"]]
    groups = {
        ("group", g): [(q, complex(*rng.standard_normal(2))) for q in qs]
        for g, qs in enumerate(spec["shifts"])
    }

    def move(_, g):
        return np.einsum("ab,kb...->ka...", factors[g], stacked)

    got = _accumulate(keys, unshifted, groups, move)
    want = reference_accumulate(keys, unshifted, groups, move)
    assert list(got) == list(want)
    for key, val in want.items():
        assert np.array_equal(got[key], val, equal_nan=True)
    if "nan_rows" in spec:
        assert np.isnan(got[(1, 0)]).any()
    if "zero_rows" in spec:
        assert list(got) == [(1, 0)]


def test_self_inner_product_matches_two_stacks_bit_for_bit():
    # inner(form, form) stacks each slot once; a copy takes the two-stack path
    for conn in (su2_connection(TorusGeometry(4)), _skewed_su2_connection()):
        rng = np.random.default_rng(4)
        for p in range(conn.geometry.n + conn.alg.dim + 1):
            form = random_bigraded(conn.geometry, conn.alg, p, (1,) * conn.geometry.n, rng)
            same = bigraded_inner_product(form, form)
            assert same == bigraded_inner_product(form, form.copy())
            assert bigraded_norm(form) == float(np.sqrt(max(same.real, 0.0)))


def test_inner_product_mismatch_raises():
    geo = TorusGeometry(4)
    geo2 = TorusGeometry(3)
    alg = make_su2()
    with pytest.raises(ConfigError):
        bigraded_inner_product(BigradedForm.zero(geo, alg), BigradedForm.zero(geo2, alg))


def test_bigraded_to_dict_lists_each_nonzero_value():
    """The writer of ``limit_forms``: per slot in slot order, one entry
    [key, base index, fiber index, re, im] per nonzero value, keys in sorted
    order whatever the row order, exact zeros skipped; a batched form is a
    ConfigError."""
    geo = TorusGeometry(3)
    alg = make_su2()
    keys = np.array([[1, 0, 0], [-1, 0, 0], [0, 0, 0]], dtype=np.int64)
    stack = np.zeros((3, 3, 3), dtype=complex)
    stack[0, 2, 1] = 0.5 - 0.25j
    stack[1, 0, 0] = -1.5
    stack[1, 2, 1] = 0.5 + 0.25j
    lone = np.zeros((1, 1, 1), dtype=complex)
    lone[0, 0, 0] = 2.0
    form = BigradedForm(
        geo,
        alg,
        {(1, 1): FrequencyTable(keys, stack), (0, 3): FrequencyTable(keys[2:], lone)},
    )
    assert bigraded_to_dict(form) == {
        "components": [
            {"i": 0, "j": 3, "entries": [[[0, 0, 0], 0, 0, 2.0, 0.0]]},
            {
                "i": 1,
                "j": 1,
                "entries": [
                    [[-1, 0, 0], 0, 0, -1.5, 0.0],
                    [[-1, 0, 0], 2, 1, 0.5, 0.25],
                    [[1, 0, 0], 2, 1, 0.5, -0.25],
                ],
            },
        ]
    }
    batched = BigradedForm(geo, alg, {(0, 3): FrequencyTable(keys[2:], lone[..., None])})
    with pytest.raises(ConfigError, match="batched"):
        bigraded_to_dict(batched)
