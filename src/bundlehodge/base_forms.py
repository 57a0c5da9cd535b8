"""Exact calculus of band-limited differential forms on flat tori.

A form of degree i on T^n = R^n / 2*pi*Z^n is stored as a complex array of
Fourier coefficients c[k, I] over per-axis frequency bands and sorted
multi-indices I, representing sum c_{k,I} e^{i k.x} dx^I.  The metric is a
constant SPD matrix, so d, wedge, the Hodge star, the codifferential and
the Hodge decomposition are all exact per frequency; products grow the
band instead of truncating.
"""

import numpy as np

from .errors import ConfigError, DegreeError, DegreeOverflow, NotExact
from .multiindex import (
    complement,
    gram_matrix,
    index_position,
    merge_sign,
    multi_indices,
    num_indices,
    wedge_axis_matrix,
    wedge_table,
)


class TorusGeometry:
    """Flat torus R^n / 2*pi*Z^n with a constant metric, oriented by dx^0 ^ ... ^ dx^(n-1)."""

    def __init__(self, n, metric=None):
        self.n = int(n)
        if not 1 <= self.n:
            raise ConfigError("torus dimension must be positive")
        self.metric = np.eye(self.n) if metric is None else np.asarray(metric, dtype=float)
        if self.metric.shape != (self.n, self.n):
            raise ConfigError("metric must be n x n")
        if np.max(np.abs(self.metric - self.metric.T)) > 1e-12:
            raise ConfigError("metric is not symmetric")
        if np.min(np.linalg.eigvalsh(self.metric)) <= 0:
            raise ConfigError("metric is not positive definite")
        self.metric_inv = np.linalg.inv(self.metric)
        self.sqrt_det = float(np.sqrt(np.linalg.det(self.metric)))
        self.volume = (2.0 * np.pi) ** self.n * self.sqrt_det
        self._cache = {}

    def __eq__(self, other):
        return (
            isinstance(other, TorusGeometry)
            and self.n == other.n
            and np.array_equal(self.metric, other.metric)
        )

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def gram(self, i):
        """Inner products of the dx^I basis of Lambda^i."""
        return self._cached(("gram", i), lambda: gram_matrix(self.metric_inv, i))

    def chol(self, i):
        return self._cached(("chol", i), lambda: np.linalg.cholesky(self.gram(i)))

    def star_matrix(self, i):
        """Constant matrix of the Hodge star on degree-i coefficient vectors."""

        def build():
            idx_in = multi_indices(self.n, i)
            pos_out = index_position(self.n, self.n - i)
            gram = self.gram(i)
            mat = np.zeros((num_indices(self.n, self.n - i), len(idx_in)))
            for col in range(len(idx_in)):
                for row_l, L in enumerate(idx_in):
                    comp = complement(L, self.n)
                    sgn, _ = merge_sign(L, comp)
                    mat[pos_out[comp], col] += self.sqrt_det * gram[row_l, col] * sgn
            return mat

        return self._cached(("star", i), build)

    def freq_square(self, bands):
        """|k|_g^2 = k . g^{-1} . k on the frequency grid of the given bands."""
        axes = [np.arange(-b, b + 1) for b in bands]
        grids = np.meshgrid(*axes, indexing="ij")
        out = np.zeros(tuple(2 * b + 1 for b in bands))
        for a in range(self.n):
            for b in range(self.n):
                out = out + self.metric_inv[a, b] * grids[a] * grids[b]
        return out

    def freq_grid(self, bands, axis):
        """k_axis broadcast over the frequency grid of the given bands."""
        shape = [1] * self.n
        shape[axis] = 2 * bands[axis] + 1
        return np.arange(-bands[axis], bands[axis] + 1).reshape(shape)


class FourierForm:
    """Band-limited degree-i form with complex Fourier coefficients.

    coeffs has shape (2*B_1+1, ..., 2*B_n+1, num_indices(n, i)); the entry
    at frequency position p is for k = p - B (per axis).
    """

    def __init__(self, geometry, degree, bands, coeffs):
        self.geometry = geometry
        self.degree = int(degree)
        self.bands = tuple(int(b) for b in bands)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        expected = tuple(2 * b + 1 for b in self.bands) + (
            num_indices(geometry.n, self.degree),
        )
        if len(self.bands) != geometry.n or self.coeffs.shape != expected:
            raise ConfigError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )

    @classmethod
    def zero(cls, geometry, degree, bands=None):
        bands = (0,) * geometry.n if bands is None else tuple(bands)
        shape = tuple(2 * b + 1 for b in bands) + (num_indices(geometry.n, degree),)
        return cls(geometry, degree, bands, np.zeros(shape, dtype=complex))

    def copy(self):
        return FourierForm(self.geometry, self.degree, self.bands, self.coeffs.copy())

    def pad_to(self, bands):
        bands = tuple(bands)
        if bands == self.bands:
            return self
        if any(b < o for b, o in zip(bands, self.bands)):
            raise ConfigError("cannot pad to smaller bands")
        pad = [(b - o, b - o) for b, o in zip(bands, self.bands)] + [(0, 0)]
        return FourierForm(self.geometry, self.degree, bands, np.pad(self.coeffs, pad))

    def trim(self):
        """Shrink bands to the smallest box containing the support."""
        if self.coeffs.size == 0 or not np.any(self.coeffs):
            return FourierForm.zero(self.geometry, self.degree)
        mask = np.any(self.coeffs != 0, axis=-1)
        new_bands = []
        slices = []
        for axis, b in enumerate(self.bands):
            other = tuple(a for a in range(self.geometry.n) if a != axis)
            line = np.any(mask, axis=other) if other else mask
            hits = np.nonzero(line)[0]
            reach = max(abs(int(hits[0]) - b), abs(int(hits[-1]) - b))
            new_bands.append(reach)
            slices.append(slice(b - reach, b + reach + 1))
        return FourierForm(
            self.geometry,
            self.degree,
            tuple(new_bands),
            self.coeffs[tuple(slices) + (slice(None),)].copy(),
        )

    def _binary_bands(self, other):
        return tuple(max(a, b) for a, b in zip(self.bands, other.bands))

    def __add__(self, other):
        self._check_compatible(other)
        bands = self._binary_bands(other)
        return FourierForm(
            self.geometry,
            self.degree,
            bands,
            self.pad_to(bands).coeffs + other.pad_to(bands).coeffs,
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return FourierForm(self.geometry, self.degree, self.bands, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def _check_compatible(self, other, same_degree=True):
        if self.geometry != other.geometry:
            raise ConfigError("forms live on different tori")
        if same_degree and self.degree != other.degree:
            raise DegreeError("degree mismatch")

    def is_real(self):
        """c_{-k} = conj(c_k) within 1e-12 relative to the largest coefficient (or 1)."""
        flipped = np.conj(self.coeffs[(slice(None, None, -1),) * self.geometry.n])
        scale = np.max(np.abs(self.coeffs)) if self.coeffs.size else 0.0
        return bool(np.max(np.abs(self.coeffs - flipped), initial=0.0) <= 1e-12 * max(scale, 1.0))

    def entries(self):
        """Nonzero coefficients as (k_tuple, multi_index, value); a NaN
        coefficient is kept, not read as zero."""
        idxs = multi_indices(self.geometry.n, self.degree)
        out = []
        for pos in np.argwhere(self.coeffs != 0):
            k = tuple(int(p - b) for p, b in zip(pos[:-1], self.bands))
            out.append((k, idxs[pos[-1]], self.coeffs[tuple(pos)]))
        return out


# -- differential operators --------------------------------------------------


def d(form):
    """Exterior derivative, the sum over axes a of (i k_a) dx^a ^ (.); exact on
    trigonometric polynomials."""
    geo = form.geometry
    out = FourierForm.zero(geo, form.degree + 1, form.bands)
    if form.degree >= geo.n:
        return out
    for axis in range(geo.n):
        k = geo.freq_grid(form.bands, axis)[..., None]
        out.coeffs += (1j * k * form.coeffs) @ wedge_axis_matrix(geo.n, form.degree, axis).T
    return out


def wedge(a, b):
    """Exact product; frequencies add, bands grow, nothing is truncated."""
    a._check_compatible(b, same_degree=False)
    geo = a.geometry
    degree = a.degree + b.degree
    if degree > geo.n:
        raise DegreeOverflow(f"wedge degree {degree} exceeds manifold dimension {geo.n}")
    if np.count_nonzero(b.coeffs) < np.count_nonzero(a.coeffs):
        return wedge(b, a) * (-1.0) ** (a.degree * b.degree)
    bands = tuple(ba + bb for ba, bb in zip(a.bands, b.bands))
    out = FourierForm.zero(geo, degree, bands)
    products = wedge_table(geo.n, a.degree, b.degree)
    window = tuple(2 * bb + 1 for bb in b.bands)
    for k, idx_a, value in a.entries():
        offsets = tuple(ka + ba for ka, ba in zip(k, a.bands))
        block = tuple(slice(o, o + w) for o, w in zip(offsets, window))
        for col_b, sgn, pos in products[idx_a]:
            out.coeffs[block + (pos,)] += sgn * value * b.coeffs[..., col_b]
    return out


def hodge_star(form):
    geo = form.geometry
    mat = geo.star_matrix(form.degree)
    coeffs = np.einsum("oc,...c->...o", mat, form.coeffs)
    return FourierForm(geo, geo.n - form.degree, form.bands, coeffs)


def codifferential(form):
    """Metric adjoint of d, via (-1)^(n(k+1)+1) * d * on degree k."""
    if form.degree < 1:
        raise DegreeError("codifferential needs degree >= 1")
    n = form.geometry.n
    sign = (-1.0) ** (n * (form.degree + 1) + 1)
    return sign * hodge_star(d(hodge_star(form)))


def inner_product(a, b):
    """L^2 pairing; the (2 pi)^n volume and sqrt(det g) factors included."""
    a._check_compatible(b)
    val = _inner_complex(a, b)
    return float(val.real)


def _inner_complex(a, b):
    bands = a._binary_bands(b)
    ca = a.pad_to(bands).coeffs
    cb = b.pad_to(bands).coeffs
    gram = a.geometry.gram(a.degree)
    weighted = np.einsum("cd,...d->...c", gram, cb)
    return a.geometry.volume * complex(np.sum(np.conj(ca) * weighted))


def norm(form):
    return float(np.sqrt(max(inner_product(form, form), 0.0)))


def _green(form):
    """Invert the Hodge Laplacian on the nonzero frequencies."""
    lam = form.geometry.freq_square(form.bands)
    center = tuple(b for b in form.bands)
    safe = lam.copy()
    safe[center] = 1.0
    coeffs = form.coeffs / safe[..., None]
    coeffs[center] = 0.0
    return FourierForm(form.geometry, form.degree, form.bands, coeffs)


def hodge_decompose(form):
    """Split into (exact, coexact, harmonic); harmonic is the k=0 slice."""
    green = _green(form)
    if form.degree >= 1:
        exact = d(codifferential(green))
    else:
        exact = FourierForm.zero(form.geometry, form.degree, form.bands)
    if form.degree < form.geometry.n:
        coexact = codifferential(d(green))
    else:
        coexact = FourierForm.zero(form.geometry, form.degree, form.bands)
    harmonic = FourierForm.zero(form.geometry, form.degree, form.bands)
    center = tuple(b for b in form.bands)
    harmonic.coeffs[center] = form.coeffs[center]
    return exact, coexact, harmonic


def coexact_primitive(form):
    """The unique h with d h = form, d* h = 0 and no harmonic part.

    Requires the input to be exact; raises NotExact with the offending
    component norms otherwise.
    """
    if form.degree < 1:
        raise DegreeError("a nonzero 0-form is never exact")
    _, coexact, harmonic = hodge_decompose(form)
    scale = norm(form)
    bad_co = norm(coexact)
    bad_h = norm(harmonic)
    if bad_co > 1e-10 * max(scale, 1e-300) or bad_h > 1e-10 * max(scale, 1e-300):
        raise NotExact(
            f"form is not exact: |coexact| = {bad_co:.3e}, |harmonic| = {bad_h:.3e}",
            coexact_norm=bad_co,
            harmonic_norm=bad_h,
        )
    return codifferential(_green(form))


# -- serialization -----------------------------------------------------------


def form_from_dict(geometry, data):
    """A real form from its JSON payload; ConfigError when c_{-k} != conj(c_k)."""
    degree = int(data["degree"])
    entries = data.get("entries", [])
    bands = [0] * geometry.n
    for k, _, _, _ in entries:
        if len(k) != geometry.n:
            raise ConfigError("frequency vector has wrong length")
        for a, ka in enumerate(k):
            bands[a] = max(bands[a], abs(int(ka)))
    declared = int(data.get("band", max(bands, default=0)))
    if max(bands, default=0) > declared:
        raise ConfigError("entry frequency exceeds the declared band")
    form = FourierForm.zero(geometry, degree, bands)
    pos = index_position(geometry.n, degree)
    for k, idx, re, im in entries:
        idx = tuple(int(x) for x in idx)
        if len(idx) != degree or idx not in pos:
            raise ConfigError(f"bad multi-index {idx} for degree {degree}")
        loc = tuple(int(ka) + b for ka, b in zip(k, form.bands)) + (pos[idx],)
        form.coeffs[loc] += complex(float(re), float(im))
    if not form.is_real():
        raise ConfigError("coefficients violate the reality constraint c_{-k} = conj(c_k)")
    return form
