"""Finite-dimensional cochain complex of a compact Lie algebra.

Holds the structure constants, an Ad-invariant metric, the graded
differential and its metric adjoint, harmonic subspaces, and the Green
matrix used to build the degree-(1,2) correction term.

Conventions: bases of Lambda^j g* are indexed by strictly increasing
tuples (lex order, see multiindex).  The differential acts on a j-cochain
psi by

    (d psi)(X_0, ..., X_j) = sum_{s<t} (-1)^(s+t) psi([X_s, X_t], ..., ^X_s, ..., ^X_t, ...)

so for su(2) with [e1,e2]=e3 cyclic, d e^1 = -e^2^e^3.

The matrices are derived from W_a = e^a ^ (.) (multiindex.wedge_axis_matrix):
iota_a = W_a^T, ad*_a = -sum_(m,b) c[a,m,b] W_m iota_b and d = (1/2) sum_a W_a ad*_a;
d* is the Gram adjoint of d (multiindex.gram_adjoint).
"""

import itertools

import numpy as np

from .errors import ConfigError, DegreeError
from .multiindex import gram_adjoint, gram_matrix, multi_indices, num_indices, wedge_axis_matrix

_ATOL_STRUCTURE = 1e-12
RANK_RTOL = 1e-10


class LieAlgebraData:
    """Structure constants c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k,
    plus an Ad-invariant inner product on the algebra."""

    def __init__(self, dim, structure_constants, metric):
        self.dim = int(dim)
        self.c = np.asarray(structure_constants, dtype=float)
        self.metric = np.asarray(metric, dtype=float)
        self._cache = {}
        self._validate()

    def _validate(self):
        if self.dim <= 0:
            raise ConfigError("algebra dimension must be positive")
        if self.c.shape != (self.dim,) * 3:
            raise ConfigError("structure constants must be a dim^3 array")
        if self.metric.shape != (self.dim, self.dim):
            raise ConfigError("metric must be a dim x dim matrix")
        anti = self.c + np.swapaxes(self.c, 0, 1)
        if np.max(np.abs(anti)) > _ATOL_STRUCTURE:
            raise ConfigError("structure constants are not antisymmetric")
        jac = (
            np.einsum("ijm,mkl->ijkl", self.c, self.c)
            + np.einsum("jkm,mil->ijkl", self.c, self.c)
            + np.einsum("kim,mjl->ijkl", self.c, self.c)
        )
        if np.max(np.abs(jac)) > _ATOL_STRUCTURE:
            raise ConfigError("structure constants violate the Jacobi identity")
        if np.max(np.abs(self.metric - self.metric.T)) > _ATOL_STRUCTURE:
            raise ConfigError("metric is not symmetric")
        if np.min(np.linalg.eigvalsh(self.metric)) <= 0:
            raise ConfigError("metric is not positive definite")
        # <[x,a],b> + <a,[x,b]> = 0 on all basis triples
        ad_inv = np.einsum("xam,mb->xab", self.c, self.metric) + np.einsum(
            "xbm,am->xab", self.c, self.metric
        )
        if np.max(np.abs(ad_inv)) > _ATOL_STRUCTURE:
            raise ConfigError("metric is not Ad-invariant")

    # -- cached linear algebra on the exterior algebra ---------------------

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def gram(self, j):
        """Inner product matrix on Lambda^j g* (Gram determinant extension)."""
        return self._cached(("gram", j), lambda: gram_matrix(np.linalg.inv(self.metric), j))

    def chol(self, j):
        """Lower Cholesky factor of gram(j)."""
        return self._cached(("chol", j), lambda: np.linalg.cholesky(self.gram(j)))

    def d_matrix(self, j):
        return self._cached(("d", j), lambda: _ce_differential_matrix(self, j))

    def dstar_matrix(self, j):
        """Adjoint of d_matrix(j-1) with respect to the graded inner products."""

        def build():
            if j <= 0 or j > self.dim:
                return np.zeros((num_indices(self.dim, j - 1), num_indices(self.dim, j)))
            return gram_adjoint(self.d_matrix(j - 1), self.gram(j - 1), self.gram(j))

        return self._cached(("dstar", j), build)

    def coadjoint_matrix(self, a, j):
        """Action of e_a on Lambda^j g* by (ad*_a psi)(x_1..x_j) =
        -sum_l psi(x_1, ..., [e_a, x_l], ..., x_j)."""
        return self._cached(("coad", a, j), lambda: _coadjoint_matrix(self, a, j))

    def iota_matrix(self, a, j):
        """Interior product with e_a: Lambda^j -> Lambda^(j-1), W_a^T."""
        return self._cached(("iota", a, j), lambda: wedge_axis_matrix(self.dim, j - 1, a).T.copy())

    def green_matrix(self):
        """d_1 (d*_2 d_1)^-1 on degree-1 coefficient vectors: psi to the exact beta
        with d* beta = psi.  Needs H^1 of the algebra to vanish."""
        return self._cached(
            ("green",),
            lambda: self.d_matrix(1) @ np.linalg.inv(self.dstar_matrix(2) @ self.d_matrix(1)),
        )

    def harmonic_basis(self, j):
        """Orthonormal basis (columns) of the harmonic subspace of Lambda^j g*.

        Harmonic means annihilated by both the differential and its adjoint;
        for an Ad-invariant metric this is exactly the subspace killed by every
        coadjoint operator.
        """
        return self._cached(("harm", j), lambda: _harmonic_basis(self, j))

    def betti(self, j):
        """Cohomology dimension by rank-nullity on the differential matrices."""
        return self._cached(("betti", j), lambda: _betti_number(self, j))

    def is_semisimple(self):
        return self.harmonic_basis(1).shape[1] == 0


# -- constructors ----------------------------------------------------------


def make_su2(scale=1.0):
    """su(2) with [e1,e2]=e3 cyclic and metric scale * identity."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieAlgebraData(3, c, scale * np.eye(3))


_SU3_F = (
    (0, 1, 2, 1.0),
    (0, 3, 6, 0.5),
    (0, 4, 5, -0.5),
    (1, 3, 5, 0.5),
    (1, 4, 6, 0.5),
    (2, 3, 4, 0.5),
    (2, 5, 6, -0.5),
    (3, 4, 7, np.sqrt(3.0) / 2.0),
    (5, 6, 7, np.sqrt(3.0) / 2.0),
)


def make_su3(scale=1.0):
    """su(3) in the standard totally antisymmetric basis, metric scale * I."""
    c = np.zeros((8, 8, 8))
    for i, j, k, val in _SU3_F:
        for (a, b, d), sgn in zip(
            itertools.permutations((i, j, k)),
            (1, -1, -1, 1, 1, -1),
        ):
            c[a, b, d] = sgn * val
    return LieAlgebraData(8, c, scale * np.eye(8))


def make_u1(k=1, scale=1.0):
    """Abelian algebra u(1)^k."""
    return LieAlgebraData(k, np.zeros((k, k, k)), scale * np.eye(k))


def direct_sum(a, b):
    dim = a.dim + b.dim
    c = np.zeros((dim,) * 3)
    c[: a.dim, : a.dim, : a.dim] = a.c
    c[a.dim :, a.dim :, a.dim :] = b.c
    metric = np.zeros((dim, dim))
    metric[: a.dim, : a.dim] = a.metric
    metric[a.dim :, a.dim :] = b.metric
    return LieAlgebraData(dim, c, metric)


# -- operations ------------------------------------------------------------


def _ce_differential_matrix(alg, j):
    """d = (1/2) sum_a W_a ad*_a on Lambda^j."""
    n = alg.dim
    if j < 0 or j > n:
        raise DegreeError(f"degree {j} out of range for dim-{n} algebra")
    mat = np.zeros((num_indices(n, j + 1), num_indices(n, j)))
    for a in range(n):
        mat += wedge_axis_matrix(n, j, a) @ alg.coadjoint_matrix(a, j)
    return 0.5 * mat


def _coadjoint_matrix(alg, a, j):
    """ad*_a = -sum_(m,b) c[a,m,b] W_m iota_b on Lambda^j."""
    n = alg.dim
    mat = np.zeros((num_indices(n, j), num_indices(n, j)))
    for m, b in zip(*np.nonzero(alg.c[a])):
        mat -= alg.c[a, m, b] * (wedge_axis_matrix(n, j - 1, m) @ alg.iota_matrix(b, j))
    return mat


def _harmonic_basis(alg, j):
    n = alg.dim
    size = num_indices(n, j)
    if size == 0:
        return np.zeros((0, 0))
    lo = alg.chol(j)
    blocks = []
    d_up = alg.d_matrix(j)
    if d_up.shape[0]:
        # L_(j+1)^T D L_j^(-T): the operator in Gram-orthonormal coordinates
        blocks.append(alg.chol(j + 1).T @ np.linalg.solve(lo, d_up.T).T)
    d_down = alg.dstar_matrix(j)
    if d_down.shape[0]:
        blocks.append(alg.chol(j - 1).T @ np.linalg.solve(lo, d_down.T).T)
    if not blocks:
        # both neighbours trivial: everything is harmonic
        kernel = np.eye(size)
    else:
        stacked = np.vstack(blocks)
        u, s, vt = np.linalg.svd(stacked, full_matrices=True)
        tol = RANK_RTOL * (s[0] if s.size else 1.0)
        rank = int(np.sum(s > tol))
        kernel = vt[rank:].T
    # back to coefficient coordinates; columns stay orthonormal in the Gram
    # inner product because kernel columns are orthonormal in hat coordinates
    return np.linalg.solve(lo.T, kernel)


def _betti_number(alg, j):
    d_j = alg.d_matrix(j)
    d_prev = alg.d_matrix(j - 1) if j >= 1 else np.zeros((num_indices(alg.dim, j), 0))

    def rank(mat):
        if mat.size == 0:
            return 0
        s = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0

    return num_indices(alg.dim, j) - rank(d_j) - rank(d_prev)


def cs3_fiber_term(alg, pairing=None):
    """Coefficients of the degree-3 cochain
    (x,y,z) -> -(1/6) sum_sigma sign(sigma) <x,[y,z]>_sigma.

    ``pairing`` defaults to the algebra metric; any Ad-invariant symmetric
    bilinear form may be supplied.  The result is closed and coclosed.
    """
    pair = alg.metric if pairing is None else np.asarray(pairing, dtype=float)
    idxs = multi_indices(alg.dim, 3)
    coeffs = np.zeros(len(idxs))
    for pos, (i, j, k) in enumerate(idxs):
        total = 0.0
        for (x, y, z), sgn in zip(
            itertools.permutations((i, j, k)),
            (1, -1, -1, 1, 1, -1),
        ):
            bracket = alg.c[y, z]  # components of [e_y, e_z]
            total += sgn * float(pair[x] @ bracket)
        coeffs[pos] = -total / 6.0
    return coeffs
