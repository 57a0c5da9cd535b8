"""Exterior-algebra differential on the fiber: pinned values and invariants."""

import itertools

import numpy as np
import pytest

from bundlehodge.errors import ConfigError, DegreeError
from bundlehodge.lie_algebra import (
    LieAlgebraData,
    cs3_fiber_term,
    direct_sum,
    make_su2,
    make_su3,
    make_u1,
)
from bundlehodge.multiindex import multi_indices, num_indices


def gram_inner(alg, j, u, v):
    return float(u @ alg.gram(j) @ v)


def bracket(alg, x, y):
    """[x, y] from the structure constants: sum_ij x_i y_j c[i][j]."""
    return np.einsum("i,j,ijk->k", x, y, alg.c)


def all_algebras():
    return [
        make_su2(),
        make_su2(0.2),
        make_su3(),
        make_u1(3),
        direct_sum(make_su2(), make_u1(1)),
    ]


# -- constructors -----------------------------------------------------------


def test_su2_structure_constants():
    alg = make_su2()
    assert alg.c[0, 1, 2] == 1.0
    assert alg.c[1, 2, 0] == 1.0
    assert alg.c[2, 0, 1] == 1.0
    assert alg.c[1, 0, 2] == -1.0
    # everything else zero
    nonzero = {(i, j, k) for i in range(3) for j in range(3) for k in range(3) if alg.c[i, j, k] != 0}
    assert nonzero == {(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)}


def test_su2_jacobi_residual_zero():
    alg = make_su2()
    res = np.einsum("ijm,mkl->ijkl", alg.c, alg.c)
    res = res + np.einsum("jkm,mil->ijkl", alg.c, alg.c)
    res = res + np.einsum("kim,mjl->ijkl", alg.c, alg.c)
    assert np.max(np.abs(res)) == 0.0


def test_u1_all_structure_constants_zero():
    assert np.all(make_u1(1).c == 0.0)


def test_invalid_algebra_rejected():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = 1.0  # breaks antisymmetry
    with pytest.raises(ConfigError):
        from bundlehodge.lie_algebra import LieAlgebraData

        LieAlgebraData(2, c, np.eye(2))


# -- differential and adjoint ----------------------------------------------


def rotated(alg, seed=0):
    """The same algebra in an orthonormally rotated basis, so that no
    structure constant is zero."""
    rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((alg.dim, alg.dim)))
    c = np.einsum("pi,qj,pqr,rk->ijk", rot, rot, alg.c, rot)
    return LieAlgebraData(alg.dim, c, rot.T @ alg.metric @ rot)


def oracle_algebras():
    """(algebra, highest degree) pairs the brute-force oracles check; su(3)
    stops at degree 2 to keep the determinant evaluations cheap."""
    return [
        (make_su2(), 3),
        (make_su2(0.2), 3),
        (make_u1(3), 3),
        (direct_sum(make_su2(), make_u1(1)), 4),
        (rotated(make_su2()), 3),
        (make_su3(), 2),
        (rotated(make_su3()), 2),
    ]


def evaluate(n, j, coeffs, vecs):
    """A j-cochain on a tuple of algebra elements (as vectors): the sum of its
    coefficients times the determinants of the vectors' idx-components."""
    total = 0.0
    for pos, idx in enumerate(multi_indices(n, j)):
        if coeffs[pos] == 0.0:
            continue
        mat = np.array([[v[a] for a in idx] for v in vecs])
        total += coeffs[pos] * np.linalg.det(mat) if j else coeffs[pos]
    return total


def brute_force_d(alg, j, coeffs):
    """Independent evaluation of the differential straight from its defining
    alternating-sum formula, with no shared code path."""
    n = alg.dim
    basis = np.eye(n)
    dst = multi_indices(n, j + 1)
    out = np.zeros(len(dst))
    for row, K in enumerate(dst):
        val = 0.0
        for s in range(len(K)):
            for t in range(s + 1, len(K)):
                rest = [basis[K[u]] for u in range(len(K)) if u not in (s, t)]
                joined = bracket(alg, basis[K[s]], basis[K[t]])
                val += (-1) ** (s + t) * evaluate(n, j, coeffs, [joined] + rest)
        out[row] = val
    return out


def brute_force_coadjoint(alg, a, j, coeffs):
    """(ad*_a psi)(x_1..x_j) = -sum_l psi(x_1, ..., [e_a, x_l], ..., x_j) on
    basis vectors."""
    n = alg.dim
    basis = np.eye(n)
    out = np.zeros(num_indices(n, j))
    for row, K in enumerate(multi_indices(n, j)):
        vecs = [basis[k] for k in K]
        for l in range(j):
            moved = vecs[:l] + [bracket(alg, basis[a], vecs[l])] + vecs[l + 1 :]
            out[row] -= evaluate(n, j, coeffs, moved)
    return out


def brute_force_iota(alg, a, j, coeffs):
    """(iota_a psi)(x_1..x_(j-1)) = psi(e_a, x_1, ..., x_(j-1)) on basis vectors."""
    n = alg.dim
    basis = np.eye(n)
    return np.array(
        [evaluate(n, j, coeffs, [basis[a]] + [basis[k] for k in K]) for K in multi_indices(n, j - 1)]
    )


def test_su2_d_on_dual_generator():
    alg = make_su2()
    d1 = alg.d_matrix(1)
    e1 = np.array([1.0, 0.0, 0.0])
    # basis of Lambda^2 is e^12, e^13, e^23; expect -e^2^e^3
    np.testing.assert_allclose(d1 @ e1, [0.0, 0.0, -1.0], atol=1e-14)


@pytest.mark.parametrize("j", range(5))
def test_d_matches_brute_force(j):
    rng = np.random.default_rng(0)
    for alg, top in oracle_algebras():
        if j > top:
            continue
        coeffs = rng.standard_normal(num_indices(alg.dim, j))
        expected = brute_force_d(alg, j, coeffs)
        np.testing.assert_allclose(alg.d_matrix(j) @ coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("j", range(5))
def test_coadjoint_matches_brute_force(j):
    rng = np.random.default_rng(1)
    for alg, top in oracle_algebras():
        if j > top:
            continue
        coeffs = rng.standard_normal(num_indices(alg.dim, j))
        for a in range(alg.dim):
            expected = brute_force_coadjoint(alg, a, j, coeffs)
            np.testing.assert_allclose(alg.coadjoint_matrix(a, j) @ coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("j", range(1, 5))
def test_iota_matches_brute_force(j):
    rng = np.random.default_rng(2)
    for alg, top in oracle_algebras():
        if j > top:
            continue
        coeffs = rng.standard_normal(num_indices(alg.dim, j))
        for a in range(alg.dim):
            expected = brute_force_iota(alg, a, j, coeffs)
            np.testing.assert_allclose(alg.iota_matrix(a, j) @ coeffs, expected, atol=1e-12)


def test_degree_zero_map_is_zero():
    for alg in all_algebras():
        assert np.all(alg.d_matrix(0) == 0.0)


def test_abelian_differential_vanishes():
    alg = make_u1(3)
    for j in range(alg.dim + 1):
        assert np.all(alg.d_matrix(j) == 0.0)


def test_d_squared_zero_all_degrees():
    for alg in all_algebras():
        for j in range(alg.dim - 1):
            comp = alg.d_matrix(j + 1) @ alg.d_matrix(j)
            assert np.max(np.abs(comp)) <= 1e-13 if comp.size else True


def test_adjoint_defining_property():
    for alg in (make_su2(), make_su3(), make_su2(0.5)):
        for j in range(alg.dim):
            d = alg.d_matrix(j)
            dstar = alg.dstar_matrix(j + 1)
            na, nb = num_indices(alg.dim, j), num_indices(alg.dim, j + 1)
            rng = np.random.default_rng(j)
            for _ in range(3):
                a = rng.standard_normal(na)
                b = rng.standard_normal(nb)
                lhs = gram_inner(alg, j + 1, d @ a, b)
                rhs = gram_inner(alg, j, a, dstar @ b)
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_su2_adjoint_on_degree_one_is_zero():
    np.testing.assert_allclose(make_su2().dstar_matrix(1), 0.0, atol=1e-14)


def test_abelian_adjoint_zero():
    alg = make_u1(2)
    for j in range(1, 3):
        assert np.all(alg.dstar_matrix(j) == 0.0)


# -- harmonic subspaces ------------------------------------------------------


def test_su2_harmonic_dimensions():
    alg = make_su2()
    dims = [alg.harmonic_basis(j).shape[1] for j in range(4)]
    assert dims == [1, 0, 0, 1]


def test_su3_harmonic_dimensions():
    alg = make_su3()
    dims = [alg.harmonic_basis(j).shape[1] for j in range(9)]
    assert dims == [1, 0, 0, 1, 0, 1, 0, 0, 1]


def test_su2_top_harmonic_is_volume():
    alg = make_su2()
    basis = alg.harmonic_basis(3)
    assert basis.shape == (1, 1)
    assert abs(basis[0, 0]) > 0


def test_u1_degree_one_harmonic():
    assert make_u1(1).harmonic_basis(1).shape[1] == 1


def test_harmonic_dims_match_rank_nullity_oracle():
    for alg in all_algebras():
        for j in range(alg.dim + 1):
            assert alg.harmonic_basis(j).shape[1] == alg.betti(j)


def test_harmonic_orthonormal_and_killed_by_both():
    for alg in all_algebras():
        for j in range(alg.dim + 1):
            basis = alg.harmonic_basis(j)
            if basis.shape[1] == 0:
                continue
            gram = basis.T @ alg.gram(j) @ basis
            np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-10)
            assert np.max(np.abs(alg.d_matrix(j) @ basis), initial=0.0) <= 1e-10
            assert np.max(np.abs(alg.dstar_matrix(j) @ basis), initial=0.0) <= 1e-10


def test_harmonic_equals_coadjoint_invariant_subspace():
    for alg in all_algebras():
        for j in range(alg.dim + 1):
            basis = alg.harmonic_basis(j)
            for a in range(alg.dim):
                acted = alg.coadjoint_matrix(a, j) @ basis
                if acted.size:
                    assert np.max(np.abs(acted)) <= 1e-10
            # dimension equals nullity of the stacked coadjoint operators
            stacked = np.vstack([alg.coadjoint_matrix(a, j) for a in range(alg.dim)])
            if stacked.size:
                s = np.linalg.svd(stacked, compute_uv=False)
                tol = 1e-10 * (s[0] if s.size and s[0] > 0 else 1.0)
                nullity = stacked.shape[1] - int(np.sum(s > tol))
                assert basis.shape[1] == nullity


# -- Green matrix ------------------------------------------------------------


def test_green_inverse_su2():
    alg = make_su2()
    psi = np.array([1.0, 0.0, 0.0])
    beta = alg.green_matrix() @ psi
    assert beta.shape == (num_indices(3, 2),)
    residual = alg.dstar_matrix(2) @ beta - psi
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(psi)
    assert np.max(np.abs(alg.d_matrix(2) @ beta)) <= 1e-10


def test_green_inverse_is_right_inverse_on_basis():
    for alg in (make_su2(), make_su3(), make_su2(2.0)):
        np.testing.assert_allclose(alg.dstar_matrix(2) @ alg.green_matrix(), np.eye(alg.dim), atol=1e-10)


def test_green_inverse_zero_input():
    beta = make_su2().green_matrix() @ np.zeros(3)
    assert np.all(beta == 0.0)


def test_green_inverse_rejects_abelian():
    # H^1 of u(1) is nonzero, so d*_2 d_1 is singular and there is no Green
    # matrix; its callers check is_semisimple first
    alg = make_u1(1)
    assert not alg.is_semisimple()
    with pytest.raises(np.linalg.LinAlgError):
        alg.green_matrix()


def test_green_inverse_lands_in_exact_subspace():
    alg = make_su3()
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(8)
    beta = alg.green_matrix() @ psi
    # beta must be in the image of the degree-1 differential
    d1 = alg.d_matrix(1)
    x, *_ = np.linalg.lstsq(d1, beta, rcond=None)
    assert np.linalg.norm(d1 @ x - beta) <= 1e-10


# -- fiber Chern-Simons term -------------------------------------------------


def test_cs3_fiber_term_su2_pinned():
    for lam in (1.0, 0.2, 3.0):
        alg = make_su2(lam)
        tau = cs3_fiber_term(alg)
        np.testing.assert_allclose(tau, [-lam], atol=1e-13)


def test_cs3_fiber_term_matches_permutation_oracle():
    alg = make_su3()
    tau = cs3_fiber_term(alg)
    idxs = multi_indices(8, 3)
    basis = np.eye(8)
    for pos, (i, j, k) in enumerate(idxs):
        total = 0.0
        for perm in itertools.permutations(range(3)):
            sgn = np.linalg.det(np.eye(3)[list(perm)])
            x, y, z = [(i, j, k)[p] for p in perm]
            total += sgn * basis[x] @ alg.metric @ bracket(alg, basis[y], basis[z])
        assert abs(tau[pos] - (-total / 6.0)) <= 1e-12


def test_cs3_fiber_term_abelian_zero():
    assert np.all(cs3_fiber_term(make_u1(2)) == 0.0)


def test_cs3_fiber_term_closed_and_coclosed():
    for alg in (make_su2(), make_su3()):
        tau = cs3_fiber_term(alg)
        assert np.max(np.abs(alg.d_matrix(3) @ tau), initial=0.0) <= 1e-12
        assert np.max(np.abs(alg.dstar_matrix(3) @ tau)) <= 1e-12
        # lies in the harmonic subspace: projection recovers it
        basis = alg.harmonic_basis(3)
        proj = basis @ (basis.T @ alg.gram(3) @ tau)
        np.testing.assert_allclose(proj, tau, atol=1e-12)


def test_degree_out_of_range():
    with pytest.raises(DegreeError):
        make_su2().d_matrix(4)
    with pytest.raises(DegreeError):
        make_su2().d_matrix(-1)
