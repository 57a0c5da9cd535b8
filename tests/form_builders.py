"""Band-limited test forms on flat tori: single modes, real waves, random forms."""

import numpy as np

from bundlehodge.base_forms import FourierForm
from bundlehodge.multiindex import index_position, num_indices


def monomial(geometry, degree, k, index, value, bands=None):
    """Form value * e^{i k.x} dx^index (complex; combine for real forms)."""
    if bands is None:
        bands = tuple(abs(int(ka)) for ka in k)
    form = FourierForm.zero(geometry, degree, bands)
    pos = index_position(geometry.n, degree)[tuple(index)]
    loc = tuple(int(ka) + b for ka, b in zip(k, form.bands)) + (pos,)
    form.coeffs[loc] = value
    return form


def cos_wave(geometry, degree, k, index, amplitude=1.0):
    """amplitude * cos(k.x) dx^index as a real form."""
    return monomial(geometry, degree, k, index, amplitude / 2.0) + monomial(
        geometry, degree, tuple(-ka for ka in k), index, amplitude / 2.0
    )


def sin_wave(geometry, degree, k, index, amplitude=1.0):
    """amplitude * sin(k.x) dx^index as a real form."""
    return monomial(geometry, degree, k, index, amplitude / 2.0j) + monomial(
        geometry, degree, tuple(-ka for ka in k), index, -amplitude / 2.0j
    )


def constant_form(geometry, degree, index, value):
    return monomial(geometry, degree, (0,) * geometry.n, index, value)


def random_form(geometry, degree, bands, rng, scale=1.0):
    """Real band-limited form with independent normal coefficients."""
    shape = tuple(2 * b + 1 for b in bands) + (num_indices(geometry.n, degree),)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flipped = np.conj(raw[(slice(None, None, -1),) * geometry.n])
    return FourierForm(geometry, degree, bands, scale * 0.5 * (raw + flipped))
