"""Curvature, characteristic forms, and the secondary forms they bound.

The degree-1 secondary form of an invariant functional phi is the constant
(0,1)-component phi itself; the degree-3 secondary form of an invariant
pairing has exactly the components (2,1) (curvature paired into the fiber)
and (0,3) (the cubic fiber term).  Its total differential reproduces the
degree-4 characteristic form in the (4,0) slot, which pins the remaining
sign conventions.
"""

import numpy as np

from .base_forms import (
    FourierForm,
    coexact_primitive,
    d as base_d,
    norm as base_norm,
    wedge as base_wedge,
)
from .bigraded import (
    BigradedForm,
    Connection,
    apply_dstar_component,
)
from .errors import ConfigError, DegreeError, NotSemisimple
from .lie_algebra import cs3_fiber_term
from .multiindex import num_indices

_AD_INVARIANCE_TOL = 1e-12


class InvariantPolynomial:
    """Ad-invariant functional (degree-1) or symmetric pairing (bilinear)."""

    def __init__(self, alg, kind, vector=None, matrix=None, normalization=1.0):
        self.alg = alg
        self.kind = kind
        self.normalization = float(normalization)
        if kind == "linear":
            if vector is None:
                raise ConfigError("linear polynomial needs a vector")
            self.vector = self.normalization * np.asarray(vector, dtype=float)
            residual = np.einsum("xyk,k->xy", alg.c, self.vector)
            if np.max(np.abs(residual), initial=0.0) > _AD_INVARIANCE_TOL * max(
                1.0, np.max(np.abs(self.vector))
            ):
                raise ConfigError(
                    "functional is not Ad-invariant (nonzero on brackets)"
                )
            self.matrix = None
        elif kind == "bilinear":
            mat = alg.metric if matrix is None else np.asarray(matrix, dtype=float)
            self.matrix = self.normalization * mat
            if np.max(np.abs(self.matrix - self.matrix.T)) > _AD_INVARIANCE_TOL:
                raise ConfigError("pairing must be symmetric")
            residual = np.einsum("xam,mb->xab", alg.c, self.matrix) + np.einsum(
                "xbm,am->xab", alg.c, self.matrix
            )
            if np.max(np.abs(residual), initial=0.0) > _AD_INVARIANCE_TOL * max(
                1.0, np.max(np.abs(self.matrix))
            ):
                raise ConfigError("pairing is not Ad-invariant")
            self.vector = None
        else:
            raise ConfigError(f"unknown polynomial kind {kind!r}")


def make_polynomial(alg, kind, normalization=1.0, vector=None, matrix=None):
    """Named constructors used by scenario configs.

    first_chern: (1/2 pi) x the sum of dual generators (abelian only).
    second_chern: (1/8 pi^2) x (1/2) x identity pairing, the trace-pairing
    normalization in a basis where the pairing is a multiple of identity.
    custom_linear / custom_bilinear: explicit data, scaled.
    """
    if kind == "first_chern":
        vec = np.ones(alg.dim) / (2.0 * np.pi)
        return InvariantPolynomial(alg, "linear", vector=vec, normalization=normalization)
    if kind == "second_chern":
        mat = 0.5 * np.eye(alg.dim) / (8.0 * np.pi**2)
        return InvariantPolynomial(alg, "bilinear", matrix=mat, normalization=normalization)
    if kind == "custom_linear":
        return InvariantPolynomial(alg, "linear", vector=vector, normalization=normalization)
    if kind == "custom_bilinear":
        return InvariantPolynomial(alg, "bilinear", matrix=matrix, normalization=normalization)
    raise ConfigError(f"unknown polynomial kind {kind!r}")


# -- curvature and characteristic forms ---------------------------------------


def curvature(conn):
    """F = dA + (1/2)[A ^ A] per algebra basis index (or the supplied
    override for abelian flux scenarios)."""
    return conn.curvature_forms()


def bianchi_residual(conn):
    """Norm of dF + [A ^ F], relative to the curvature norm."""
    f_forms = conn.curvature_forms()
    scale = np.sqrt(sum(base_norm(f) ** 2 for f in f_forms))
    residual = 0.0
    c = conn.alg.c
    for k in range(conn.alg.dim):
        term = base_d(f_forms[k])
        for a in range(conn.alg.dim):
            for b in range(conn.alg.dim):
                if c[a, b, k] != 0.0:
                    term = term + c[a, b, k] * base_wedge(conn.a_forms[a], f_forms[b])
        residual += base_norm(term) ** 2
    return float(np.sqrt(residual)) / max(scale, 1e-300)


def cw2(phi, f_forms):
    """Degree-2 characteristic form phi(F)."""
    if isinstance(f_forms, Connection):
        f_forms = f_forms.curvature_forms()
    if phi.kind != "linear":
        raise ConfigError("cw2 needs a degree-1 invariant functional")
    total = FourierForm.zero(f_forms[0].geometry, 2)
    for a, f in enumerate(f_forms):
        if phi.vector[a] != 0.0:
            total = total + phi.vector[a] * f
    return total.trim()


def cw4(pair, f_forms):
    """Degree-4 characteristic form <F ^ F>."""
    if isinstance(f_forms, Connection):
        f_forms = f_forms.curvature_forms()
    if pair.kind != "bilinear":
        raise ConfigError("cw4 needs an invariant bilinear pairing")
    geo = f_forms[0].geometry
    if geo.n < 4:
        raise DegreeError("degree-4 characteristic form needs base dimension >= 4")
    total = FourierForm.zero(geo, 4)
    dim = len(f_forms)
    for a in range(dim):
        for b in range(dim):
            if pair.matrix[a, b] != 0.0:
                total = total + pair.matrix[a, b] * base_wedge(f_forms[a], f_forms[b])
    return total.trim()


# -- secondary forms ------------------------------------------------------------


def cs1(phi, conn):
    """Degree-1 secondary form: the constant (0,1)-component phi."""
    if phi.kind != "linear":
        raise ConfigError("cs1 needs a degree-1 invariant functional")
    out = BigradedForm(conn.geometry, conn.alg)
    value = np.asarray(phi.vector, dtype=complex).reshape(1, -1)
    out.set_value((0, 1), (0,) * conn.geometry.n, value)
    return out


def cs3(pair, conn):
    """Degree-3 secondary form: (2,1) curvature pairing plus (0,3) cubic term."""
    if pair.kind != "bilinear":
        raise ConfigError("cs3 needs an invariant bilinear pairing")
    alg = conn.alg
    geo = conn.geometry
    out = BigradedForm(geo, alg)
    f_forms = conn.curvature_forms()
    nb = num_indices(geo.n, 2)
    # (2,1): the g*-valued 2-form pairing the curvature into the fiber
    table = {}
    for a, f in enumerate(f_forms):
        for key, idx, val in f.entries():
            from .multiindex import index_position

            pos = index_position(geo.n, 2)[idx]
            arr = table.setdefault(key, np.zeros((nb, alg.dim), dtype=complex))
            arr[pos, :] += val * pair.matrix[a, :]
    for key, arr in table.items():
        out.set_value((2, 1), key, arr)
    # (0,3): the constant cubic fiber term
    tau = cs3_fiber_term(alg, pair.matrix)
    if np.any(tau.coefficients):
        out.set_value(
            (0, 3),
            (0,) * geo.n,
            np.asarray(tau.coefficients, dtype=complex).reshape(1, -1),
        )
    return out.prune()


def primitive_h(cw_form):
    """Coexact primitive of a characteristic form; raises NotExact when the
    class is nonzero (the excluded branch of the harmonicity statements)."""
    return coexact_primitive(cw_form)


def beta_correction(conn, pair):
    """The (1,2) correction: the unique fiber-exact beta with
    d*_0 beta = d*_1 alpha^{2,1} and d_0 beta = 0 (apply_dstar_component and
    apply_d_component)."""
    alg = conn.alg
    if not alg.is_semisimple():
        raise NotSemisimple("correction term needs a semisimple fiber algebra")
    alpha = cs3(pair, conn)
    alpha21 = BigradedForm(
        conn.geometry, alg, {(2, 1): alpha.components.get((2, 1), {})}
    )
    psi = apply_dstar_component(alpha21, conn, 1)
    table = psi.components.get((1, 1), {})
    out = BigradedForm(conn.geometry, alg)
    if not table:
        return out
    # Green matrix: solves dstar beta = psi on each coefficient vector
    lap1 = alg.dstar_matrix(2) @ alg.d_matrix(1)
    green = alg.d_matrix(1) @ np.linalg.inv(lap1)
    for key, val in table.items():
        out.set_value((1, 2), key, val @ green.T)
    return out.prune()


def abelian_scenario(f_form, geometry, alg):
    """Connection-like object for an abelian bundle given directly by its
    curvature 2-form (possibly with nonzero harmonic part)."""
    if np.max(np.abs(alg.c), initial=0.0) != 0.0:
        raise ConfigError("direct curvature input is only valid for abelian algebras")
    if isinstance(f_form, FourierForm):
        f_list = [f_form] + [
            FourierForm.zero(geometry, 2) for _ in range(alg.dim - 1)
        ]
    else:
        f_list = list(f_form)
    closed_residual = np.sqrt(sum(base_norm(base_d(f)) ** 2 for f in f_list))
    scale = np.sqrt(sum(base_norm(f) ** 2 for f in f_list))
    if closed_residual > 1e-12 * max(scale, 1e-300):
        raise ConfigError("supplied curvature is not closed")
    zero_a = [FourierForm.zero(geometry, 1) for _ in range(alg.dim)]
    conn = Connection(alg, zero_a, curvature_override=f_list)
    return conn, f_list
