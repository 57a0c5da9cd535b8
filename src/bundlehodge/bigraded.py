"""Invariant bigraded complex on a trivialized principal bundle over a torus.

An invariant form is a sum of (i, j)-components: degree-i base forms valued
in Lambda^j g*.  Components are stored sparsely per frequency, as
dict[(i, j)] -> dict[k_tuple] -> array of shape (nb, nf) (optionally with a
trailing batch axis), where nb / nf count base / fiber multi-indices.

The exterior derivative splits into a vertical piece, a covariant
horizontal piece and a curvature contraction, with bidegrees (0,1), (1,0)
and (2,-1).  Sign conventions (pinned by the requirement that the total
differential squares to zero and that the degree-1 and degree-3 secondary
forms differentiate onto their characteristic forms):

    vertical        (i,j) -> (i,j+1):   -(-1)^i d_g
    horizontal      (i,j) -> (i+1,j):   d_M + sum_a A^a ^ ad*_a
    contraction     (i,j) -> (i+2,j-1): +(-1)^i sum_a F^a ^ iota_a

where (ad*_a psi)(x_1..x_j) = -sum_l psi(x_1, ..., [e_a, x_l], ..., x_j).
The vertical sign is opposite to the bare fiber differential because the
complex is written in the frame of right-invariant vertical covectors.

Each component is one list of terms (shift q, coefficient, base matrix B,
fiber matrix F): the value at frequency k contributes coefficient x
B val F^T at k + q.  The fiber differential and the base derivative i k_l
act at k itself (Fourier multipliers); the connection and curvature terms
multiply by one mode and shift by its frequency.  The form-level operators
and the sparse component matrices read the same list.  The codifferential
is derived from it, not written out: each term becomes (-q, conjugate
coefficient, B*, F*) with B* = G_in^-1 B^H G_out the adjoint for the Gram
inner products (the same for F), so adjointness for the product inner
product (base Gram x fiber Gram x volume) holds by construction.

The form-level operators accumulate per destination slot: each output
frequency is one row of one array, numbered in first-seen order (the source
keys, then the image of each shift q as q first appears).  The multiplier
terms land first, then per q the sum of coefficient x moved block over the
(B, F) groups, in group order, with one vectorized add.  Rows that are
exactly zero are dropped; rows holding a NaN or an infinity are kept.

Rescaling by delta^i per base degree turns the total differential into the
polynomial family d_delta = d^(0,1) + delta d^(1,0) + delta^2 d^(2,-1);
DeltaPolynomial holds form-valued polynomials in delta, and all polynomial
operations here are exact (bands grow, nothing is truncated).

Truncated forms have one coordinate map, TruncationLayout: orthonormal
coordinates over a list of slots and a per-axis frequency box.  Its cut
norm counts only the mass of the layout's own slots outside the box.  The
compressed (Galerkin) Laplacian is assembled from sparse matrices of the
three components in these coordinates, each a sum of (frequency diagonal
or shift) x (base matrix) x (fiber matrix) blocks; there the codifferential
of a component is the conjugate transpose of its matrix.
"""

import itertools
from operator import add

import numpy as np
import scipy.sparse

from .base_forms import FourierForm, d as base_d, wedge as base_wedge
from .errors import ConfigError, DegreeError
from .multiindex import (
    num_indices,
    wedge_axis_matrix,
    wedge_pair_matrix,
)

# -- small dense helpers ------------------------------------------------------


def _stack_table(table):
    keys = list(table.keys())
    return keys, np.stack([table[k] for k in keys])


def _apply_fiber_stacked(mat, stacked):
    if stacked.ndim == 3:
        return np.einsum("gf,kbf->kbg", mat, stacked)
    return np.einsum("gf,kbft->kbgt", mat, stacked)


def _apply_base_stacked(mat, stacked):
    if stacked.ndim == 3:
        return np.einsum("ab,kbf->kaf", mat, stacked)
    return np.einsum("ab,kbft->kaft", mat, stacked)


def _acc(table, key, arr):
    cur = table.get(key)
    table[key] = arr if cur is None else cur + arr


# -- data types ----------------------------------------------------------------


class BigradedForm:
    """Sparse-by-frequency element of the bigraded complex."""

    def __init__(self, geometry, alg, components=None):
        self.geometry = geometry
        self.alg = alg
        self.components = components if components is not None else {}

    @classmethod
    def zero(cls, geometry, alg):
        return cls(geometry, alg)

    def copy(self):
        comps = {
            slot: {k: v.copy() for k, v in table.items()}
            for slot, table in self.components.items()
        }
        return BigradedForm(self.geometry, self.alg, comps)

    def slots(self):
        return sorted(self.components.keys())

    def is_zero(self):
        return all(
            not np.any(v) for table in self.components.values() for v in table.values()
        )

    def set_value(self, slot, key, value):
        i, j = slot
        value = np.asarray(value, dtype=complex)
        nb = num_indices(self.geometry.n, i)
        nf = num_indices(self.alg.dim, j)
        if value.shape[:2] != (nb, nf):
            raise ConfigError(f"value for slot {slot} must start with shape ({nb}, {nf})")
        _acc(self.components.setdefault(slot, {}), tuple(int(x) for x in key), value)

    def value(self, slot, key):
        return self.components.get(slot, {}).get(tuple(key))

    def prune(self, tol=0.0):
        """Drop the blocks whose every entry is at most tol in modulus; a
        block holding a NaN is kept."""
        comps = {}
        for slot, table in self.components.items():
            kept = {k: v for k, v in table.items() if not np.all(np.abs(v) <= tol)}
            if kept:
                comps[slot] = kept
        self.components = comps
        return self

    def __add__(self, other):
        self._check(other)
        out = self.copy()
        for slot, table in other.components.items():
            dest = out.components.setdefault(slot, {})
            for key, val in table.items():
                _acc(dest, key, val)
        return out

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        out = BigradedForm(self.geometry, self.alg)
        for slot, table in self.components.items():
            out.components[slot] = {k: scalar * v for k, v in table.items()}
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def _check(self, other):
        if self.geometry != other.geometry or self.alg is not other.alg:
            raise ConfigError("bigraded forms live on different bundles")


def from_fourier(form, alg, fiber_degree=0, fiber_coeffs=None):
    """Lift a base FourierForm into the bigraded complex.

    With the default fiber degree 0 this is the pullback of a base form;
    otherwise ``fiber_coeffs`` gives the constant Lambda^j value.
    """
    if fiber_coeffs is None:
        if fiber_degree != 0:
            raise ConfigError("fiber coefficients required for positive fiber degree")
        fiber_coeffs = np.ones(1)
    fiber_coeffs = np.asarray(fiber_coeffs, dtype=complex)
    out = BigradedForm(form.geometry, alg)
    slot = (form.degree, fiber_degree)
    from .multiindex import index_position

    pos = index_position(form.geometry.n, form.degree)
    for key, idx, val in form.entries():
        nb = num_indices(form.geometry.n, form.degree)
        arr = np.zeros((nb, fiber_coeffs.size), dtype=complex)
        arr[pos[idx], :] = val * fiber_coeffs
        out.set_value(slot, key, arr)
    return out


def to_fourier(form, i, fiber_slot=0, fiber_index=0):
    """Extract the (i, j)-component along one fiber multi-index as a base form."""
    geo = form.geometry
    table = form.components.get((i, fiber_slot), {})
    reach = [0] * geo.n
    for key in table:
        for a, k in enumerate(key):
            reach[a] = max(reach[a], abs(k))
    out = FourierForm.zero(geo, i, tuple(reach))
    for key, val in table.items():
        if val.ndim != 2:
            raise ConfigError("cannot extract a batched form")
        loc = tuple(k + b for k, b in zip(key, out.bands))
        out.coeffs[loc] += val[:, fiber_index]
    return out


class Connection:
    """Lie-algebra-valued 1-form on the base, plus an optional direct
    curvature override used for abelian bundles with nonzero flux."""

    def __init__(self, alg, a_forms, curvature_override=None):
        self.alg = alg
        a_forms = list(a_forms)
        if len(a_forms) != alg.dim:
            raise ConfigError("need one 1-form per algebra basis element")
        geo = a_forms[0].geometry
        for f in a_forms:
            if f.geometry != geo:
                raise ConfigError("connection components on different tori")
            if f.degree != 1:
                raise DegreeError("connection components must be 1-forms")
        bands = tuple(
            max(f.bands[a] for f in a_forms) for a in range(geo.n)
        )
        self.geometry = geo
        self.a_forms = [f.pad_to(bands) for f in a_forms]
        self.bands = bands
        if curvature_override is not None:
            curvature_override = list(curvature_override)
            for f in curvature_override:
                if f.geometry != geo or f.degree != 2:
                    raise ConfigError("curvature override must be 2-forms on the base")
        self.curvature_override = curvature_override
        self._cache = {}

    def curvature_forms(self):
        """F = dA + (1/2)[A ^ A], one 2-form per algebra index."""
        if "curv" not in self._cache:
            if self.curvature_override is not None:
                self._cache["curv"] = self.curvature_override
            else:
                forms = [base_d(f) for f in self.a_forms]
                c = self.alg.c
                for a in range(self.alg.dim):
                    for b in range(self.alg.dim):
                        for k in range(self.alg.dim):
                            if c[a, b, k] != 0.0:
                                forms[k] = forms[k] + 0.5 * c[a, b, k] * base_wedge(
                                    self.a_forms[a], self.a_forms[b]
                                )
                self._cache["curv"] = [f.trim() for f in forms]
        return self._cache["curv"]

    def a_entries(self):
        if "a_entries" not in self._cache:
            entries = []
            for c, f in enumerate(self.a_forms):
                for key, idx, val in f.entries():
                    entries.append((key, idx[0], c, val))
            self._cache["a_entries"] = entries
        return self._cache["a_entries"]

    def f_entries(self):
        if "f_entries" not in self._cache:
            entries = []
            for c, f in enumerate(self.curvature_forms()):
                for key, idx, val in f.entries():
                    entries.append((key, idx, c, val))
            self._cache["f_entries"] = entries
        return self._cache["f_entries"]

    def coupling_bands(self):
        """Widest per-axis frequency shift any operator application makes."""
        reach = [0] * self.geometry.n
        for key, _, _, _ in self.a_entries() + self.f_entries():
            for a, k in enumerate(key):
                reach[a] = max(reach[a], abs(k))
        return tuple(reach)


class DeltaPolynomial:
    """Polynomial in the adiabatic parameter with bigraded coefficients."""

    def __init__(self, coefficients):
        self.coefficients = list(coefficients)
        self._trim()

    def _trim(self):
        while self.coefficients and self.coefficients[-1].is_zero():
            self.coefficients.pop()

    def __len__(self):
        return len(self.coefficients)

    def coefficient(self, m):
        if 0 <= m < len(self.coefficients):
            return self.coefficients[m]
        return None

    def __add__(self, other):
        n = max(len(self.coefficients), len(other.coefficients))
        out = []
        for m in range(n):
            a = self.coefficient(m)
            b = other.coefficient(m)
            if a is None:
                out.append(b.copy())
            elif b is None:
                out.append(a.copy())
            else:
                out.append(a + b)
        return DeltaPolynomial(out)

    def __mul__(self, scalar):
        return DeltaPolynomial([scalar * c for c in self.coefficients])

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1.0) * other

    def evaluate(self, delta):
        if not self.coefficients:
            raise ConfigError("cannot evaluate an identically zero polynomial shape")
        total = BigradedForm.zero(
            self.coefficients[0].geometry, self.coefficients[0].alg
        )
        for m, coeff in enumerate(self.coefficients):
            total = total + (delta**m) * coeff
        return total


# -- inner products -------------------------------------------------------------


def bigraded_inner_product(a, b):
    """Hermitian product: volume-weighted sum of Gram pairings per slot."""
    a._check(b)
    geo = a.geometry
    alg = a.alg
    total = 0.0 + 0.0j
    for slot in sorted(set(a.components) & set(b.components)):
        i, j = slot
        ta = a.components[slot]
        tb = b.components[slot]
        keys = sorted(set(ta) & set(tb))
        if not keys:
            continue
        u = np.stack([ta[key] for key in keys])
        v = np.stack([tb[key] for key in keys])
        if u.ndim != 3 or v.ndim != 3:
            raise ConfigError("inner product needs unbatched forms")
        # one sum per key, added in sorted key order
        for part in np.sum(np.conj(u) * (geo.gram(i) @ v @ alg.gram(j)), axis=(1, 2)).tolist():
            total += part
    return geo.volume * total


def bigraded_norm(form):
    val = bigraded_inner_product(form, form).real
    return float(np.sqrt(max(val, 0.0)))


def sq_norms_batch(form):
    """Per-batch-slice squared norms of a batched bigraded form."""
    geo = form.geometry
    alg = form.alg
    total = None
    for slot, table in form.components.items():
        i, j = slot
        gb = geo.gram(i)
        gf = alg.gram(j)
        for val in table.values():
            contrib = np.einsum("bft,bc,fg,cgt->t", np.conj(val), gb, gf, val).real
            total = contrib if total is None else total + contrib
    return geo.volume * total if total is not None else None


def poly_norm(poly):
    return float(np.sqrt(sum(bigraded_norm(c) ** 2 for c in poly.coefficients)))


# -- the three differentials and their adjoints ---------------------------------


def _vert_sign(i):
    # vertical operators carry -(-1)^i in the right-invariant frame
    return -1.0 if i % 2 == 0 else 1.0


def _plus_sign(i):
    # the contraction carries +(-1)^i
    return 1.0 if i % 2 == 0 else -1.0


# bidegree of each component d^(which)
_BIDEGREES = ((0, 1), (1, 0), (2, -1))


def _component_terms(conn, which, i, j, keys):
    """Terms (shift q, coefficient, base key, fiber key) of the component
    d^(which) on the (i, j)-slot: the value at key k contributes
    coefficient * B val F^T at k + q, with B = _factor(geometry, base key)
    and F = _factor(algebra, fiber key).

    The Fourier multipliers come first, with q None: they act at k itself.
    They are the fiber differential (coefficient 1) and the base derivative
    i k_l (coefficient per row of ``keys``).  The coupling terms follow:
    each multiplies by one mode of the connection or the curvature and
    shifts by its frequency.
    """
    return _multiplier_terms(conn.geometry.n, which, i, j, keys) + _coupling_terms(
        conn, which, i, j
    )


def _multiplier_terms(n, which, i, j, keys):
    if which == 0:
        return [(None, 1.0, ("eye", i, i, None), ("d", j, j + 1, _vert_sign(i)))]
    if which == 1:
        eye = ("eye", j, j, None)
        return [(None, 1j * keys[:, l], ("axis", i, i + 1, l), eye) for l in range(n)]
    return []


def _coupling_terms(conn, which, i, j):
    if which == 1:
        return [
            (q, v, ("axis", i, i + 1, l), ("coad", j, j, c)) for q, l, c, v in conn.a_entries()
        ]
    if which == 2:
        return [
            (q, _plus_sign(i) * v, ("pair", i, i + 2, axes), ("iota", j, j - 1, c))
            for q, axes, c, v in conn.f_entries()
        ]
    return []


def _adjoint_term(term):
    """The codifferential term of a component term: shift -q, conjugate
    coefficient, adjoint factors."""
    q, coeff, base, fiber = term
    if q is not None:
        q = tuple(-x for x in q)
    return q, np.conj(coeff), _adjoint_key(base), _adjoint_key(fiber)


def _adjoint_key(key):
    # the identity is its own adjoint
    return key if key[0] == "eye" else ("adjoint",) + key


def _factor(space, key):
    """Base (TorusGeometry) or fiber (LieAlgebraData) matrix of a term,
    cached on the space under its key (kind, degree in, degree out,
    parameter).  ("adjoint",) + key is G_in^-1 M^H G_out, the adjoint of M
    for the Gram inner products of its source and target degrees."""

    def build():
        if key[0] == "adjoint":
            _, _, deg_in, deg_out, _ = key
            mat = _factor(space, key[1:])
            return np.linalg.solve(space.gram(deg_in), mat.conj().T @ space.gram(deg_out))
        kind, deg, _, param = key
        if kind == "eye":
            return np.eye(len(space.gram(deg)))
        if kind == "axis":
            return wedge_axis_matrix(space.n, deg, param)
        if kind == "pair":
            return wedge_pair_matrix(space.n, deg, param)
        if kind == "d":
            return param * space.d_matrix(deg)
        if kind == "coad":
            return space.coadjoint_matrix(param, deg)
        return space.iota_matrix(param, deg)

    return space._cached(("bigraded",) + key, build)


def _slot_terms(conn, which, slot, keys, adjoint):
    """The multiplier terms and the coupling groups {(base, fiber): [(q,
    coefficient)]} of d^(which) on ``slot``; with ``adjoint``, of the
    derived codifferential terms, which map back onto ``slot``.  The groups
    are cached on the connection."""
    multipliers = _multiplier_terms(conn.geometry.n, which, *slot, keys)
    cache_key = ("groups", which, slot, adjoint)
    if cache_key not in conn._cache:
        groups = {}
        for term in _coupling_terms(conn, which, *slot):
            q, coeff, base, fiber = _adjoint_term(term) if adjoint else term
            groups.setdefault((base, fiber), []).append((q, coeff))
        conn._cache[cache_key] = groups
    if adjoint:
        multipliers = [_adjoint_term(term) for term in multipliers]
    return multipliers, conn._cache[cache_key]


def _move(geo, alg, base, fiber, stacked):
    """B val F^T on every stacked value; identity factors are skipped."""
    if fiber[0] != "eye":
        stacked = _apply_fiber_stacked(_factor(alg, fiber), stacked)
    if base[0] != "eye":
        stacked = _apply_base_stacked(_factor(geo, base), stacked)
    return stacked


def _apply_component(form, conn, which, adjoint):
    """d^(which) or its adjoint on a form, one destination slot at a time."""
    if which not in (0, 1, 2):
        raise ConfigError("component index must be 0, 1 or 2")
    geo, alg = form.geometry, form.alg
    di, dj = _BIDEGREES[which]
    if adjoint:
        di, dj = -di, -dj
    out = BigradedForm(geo, alg)
    for (i, j), table in form.components.items():
        target = (i + di, j + dj)
        if not table or not num_indices(geo.n, target[0]) or not num_indices(alg.dim, target[1]):
            continue
        keys, stacked = _stack_table(table)
        # only the base derivative reads the keys
        fkeys = np.array(keys, dtype=float) if which == 1 else None
        multipliers, groups = _slot_terms(conn, which, target if adjoint else (i, j), fkeys, adjoint)
        unshifted = None
        for _, coeff, base, fiber in multipliers:
            if not np.any(coeff):
                continue
            term = _move(geo, alg, base, fiber, stacked)
            if np.ndim(coeff):  # per key; the fiber differential's scalar 1 is not applied
                term = coeff.reshape((-1,) + (1,) * (stacked.ndim - 1)) * term
            unshifted = term if unshifted is None else unshifted + term

        def move(base, fiber):
            return _move(geo, alg, base, fiber, stacked)

        _put(out, target, _accumulate(keys, unshifted, groups, move))
    return out


def apply_d_component(form, conn, which):
    """Single bidegree component d^(which) of the differential: which = 0
    (vertical), 1 (covariant horizontal) or 2 (curvature contraction)."""
    return _apply_component(form, conn, which, adjoint=False)


def apply_dstar_component(form, conn, which):
    """Adjoint of apply_d_component, from the same terms."""
    return _apply_component(form, conn, which, adjoint=True)


def _accumulate(keys, unshifted, groups, move):
    """Frequency table of one destination slot.

    ``unshifted`` (or None) lands on the source ``keys``; for each group of
    ``groups``, ``move(*group)`` is the moved stack, and each (q, v) of the
    group adds v * moved at key + q.  Every destination frequency gets one
    output row, numbered in first-seen order (the source keys, then each
    shift q as it first appears), and each row sums its contributions in
    that same order: the unshifted term, then per q the group sum
    sum_g v_gq moved_g.  The rows of one q are distinct, so each q lands
    with one vectorized add.  Rows that are exactly zero are dropped; rows
    holding a NaN are kept.
    """
    moved, shifts = [], {}
    for group, qvs in groups.items():
        for q, v in qvs:
            shifts.setdefault(q, []).append((len(moved), v))
        moved.append(move(*group))
    if not shifts:
        if unshifted is None:
            return {}
        return _nonzero_rows(keys, unshifted)
    nk = len(keys)
    row_of = {} if unshifted is None else dict(zip(keys, range(nk)))
    places = []
    for q in shifts:
        start = len(row_of)
        rows = [row_of.setdefault(tuple(map(add, key, q)), len(row_of)) for key in keys]
        # rows new to this q are numbered start, start + 1, ... in key order
        places.append(slice(start, start + nk) if len(row_of) - start == nk else np.array(rows))
    parts = moved[:1] if unshifted is None else [moved[0], unshifted]
    # -0.0 is the exact additive identity (x + -0.0 == x, signed zeros
    # included), so a row's first contribution lands unchanged
    shape = (len(row_of),) + moved[0].shape[1:]
    out = np.full(shape, complex(-0.0, -0.0), dtype=np.result_type(complex, *parts))
    if unshifted is not None:
        out[:nk] = unshifted
    for terms, place in zip(shifts.values(), places):
        g, v = terms[0]
        acc = v * moved[g]
        for g, v in terms[1:]:
            acc += v * moved[g]
        if isinstance(place, slice):
            out[place] = acc
        else:
            out[place] += acc
        del acc
    return _nonzero_rows(list(row_of), out)


def _nonzero_rows(keys, stacked):
    """{key: row} for the rows of ``stacked`` that are not exactly zero."""
    keep = stacked.reshape(len(keys), -1).any(axis=1)
    if keep.all():
        return dict(zip(keys, stacked))
    return {key: row for key, row, hit in zip(keys, stacked, keep.tolist()) if hit}


def _put(out, slot, table):
    if table:
        out.components[slot] = table


# -- rescaled polynomial family --------------------------------------------------


def rho_scale(form, delta, inverse=False):
    """Grading isometry: multiply the (i, j)-component by delta^(+-i)."""
    out = BigradedForm(form.geometry, form.alg)
    for (i, j), table in form.components.items():
        factor = float(delta) ** (-i if inverse else i)
        out.components[(i, j)] = {k: factor * v for k, v in table.items()}
    return out


def _delta_series(poly, conn, apply):
    # coefficient m collects component a applied to coefficient m - a
    out = []
    for m in range(len(poly.coefficients) + 2):
        terms = [
            apply(poly.coefficient(m - a), conn, a)
            for a in range(3)
            if poly.coefficient(m - a) is not None
        ]
        if terms:
            total = terms[0]
            for t in terms[1:]:
                total = total + t
            out.append(total)
        elif poly.coefficients:
            out.append(
                BigradedForm.zero(poly.coefficients[0].geometry, poly.coefficients[0].alg)
            )
    return DeltaPolynomial(out)


def d_delta(poly, conn):
    """Exact polynomial action of d^(0,1) + delta d^(1,0) + delta^2 d^(2,-1)."""
    return _delta_series(poly, conn, apply_d_component)


def dstar_delta(poly, conn):
    """Exact polynomial action of the adjoint, d*_delta."""
    return _delta_series(poly, conn, apply_dstar_component)


def laplacian_delta(poly, conn):
    """d_delta d*_delta + d*_delta d_delta, exactly as polynomials."""
    return d_delta(dstar_delta(poly, conn), conn) + dstar_delta(d_delta(poly, conn), conn)


# -- random forms -----------------------------------------------------------------


def random_bigraded(geometry, alg, total_degree, bands, rng, batch=None):
    """Real random form spread over every slot with i + j = total_degree."""
    out = BigradedForm(geometry, alg)
    keys = list(itertools.product(*[range(-b, b + 1) for b in bands]))
    for i in range(min(geometry.n, total_degree) + 1):
        j = total_degree - i
        if j < 0 or j > alg.dim:
            continue
        nb = num_indices(geometry.n, i)
        nf = num_indices(alg.dim, j)
        if nb == 0 or nf == 0:
            continue
        shape = (nb, nf) if batch is None else (nb, nf, batch)
        table = {}
        for key in keys:
            table[key] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # reality: value at -k is the conjugate of the value at k
        sym = {}
        for key in keys:
            mirror = tuple(-k for k in key)
            sym[key] = 0.5 * (table[key] + np.conj(table[mirror]))
        out.components[(i, j)] = sym
    return out


# -- truncated coordinates and the Galerkin compression ----------------------------


class TruncationLayout:
    """Flat orthonormal coordinates on band-limited forms over a list of slots.

    The (i, j)-value at frequency k is stored as sqrt(vol) Lb^T val Lf, with
    Lb, Lf the Cholesky factors of the base and fiber Gram matrices, so the
    Euclidean product of coordinate vectors is the bigraded inner product.
    Coordinates run by slot, then frequency key (lexicographic over the
    per-axis box), then base index, then fiber index.
    """

    def __init__(self, geometry, alg, slots, bands):
        self.geometry = geometry
        self.alg = alg
        self.bands = tuple(int(b) for b in bands)
        self.keys = list(itertools.product(*[range(-b, b + 1) for b in self.bands]))
        self.key_pos = {k: pos for pos, k in enumerate(self.keys)}
        self.slots = []
        offset = 0
        self.offsets = {}
        self.shapes = {}
        self.factors = {}  # slot -> (Lb, Lf, Lb^-T, Lf^-1)
        for i, j in slots:
            nb = num_indices(geometry.n, i)
            nf = num_indices(alg.dim, j)
            if nb == 0 or nf == 0:
                continue
            lb = geometry.chol(i)
            lf = alg.chol(j)
            self.slots.append((i, j))
            self.offsets[(i, j)] = offset
            self.shapes[(i, j)] = (nb, nf)
            self.factors[(i, j)] = (lb, lf, np.linalg.inv(lb).T, np.linalg.inv(lf))
            offset += len(self.keys) * nb * nf
        self.dim = offset
        self._sqrt_vol = np.sqrt(geometry.volume)

    @classmethod
    def of_degree(cls, geometry, alg, total_degree, bands):
        """Every slot with i + j = total_degree."""
        slots = [(i, total_degree - i) for i in range(total_degree + 1)]
        return cls(geometry, alg, slots, bands)

    def vector_from_form(self, form):
        """Orthonormal coordinates of the in-box part; returns (vector, cut norm).

        The cut norm is the norm of the layout's own slots outside the
        frequency box, reported so truncation is never silent; other slots
        are ignored.
        """
        vec = np.zeros(self.dim, dtype=complex)
        cut_sq = 0.0
        for slot in self.slots:
            lb, lf, _, _ = self.factors[slot]
            nb, nf = self.shapes[slot]
            base = self.offsets[slot]
            gb = self.geometry.gram(slot[0])
            gf = self.alg.gram(slot[1])
            for key, val in form.components.get(slot, {}).items():
                pos = self.key_pos.get(key)
                if pos is not None:
                    hat = self._sqrt_vol * (lb.T @ val @ lf)
                    start = base + pos * nb * nf
                    vec[start : start + nb * nf] = hat.reshape(-1)
                else:
                    cut_sq += self.geometry.volume * float(
                        np.sum(np.conj(val) * (gb @ val @ gf)).real
                    )
        return vec, float(np.sqrt(max(cut_sq, 0.0)))

    def form_from_vector(self, vec):
        out = BigradedForm(self.geometry, self.alg)
        for slot in self.slots:
            nb, nf = self.shapes[slot]
            _, _, lb_invT, lf_inv = self.factors[slot]
            base = self.offsets[slot]
            table = {}
            for pos, key in enumerate(self.keys):
                start = base + pos * nb * nf
                hat = vec[start : start + nb * nf].reshape(nb, nf)
                if np.any(hat):
                    table[key] = (lb_invT @ hat @ lf_inv) / self._sqrt_vol
            if table:
                out.components[slot] = table
        return out


def d_component_matrix(conn, which, src, dst):
    """Sparse matrix of the component d^(which) from layout src to layout dst.

    Output outside dst (its slots and its box) is dropped, which is the
    orthogonal projection.  Each term is (frequency diagonal or shift) x
    (base matrix B) x (fiber matrix F), with B and F conjugated into
    orthonormal coordinates as L_out^T B L_in^-T; the codifferential
    component from dst to src is the conjugate transpose.
    """
    if which not in (0, 1, 2):
        raise ConfigError("component index must be 0, 1 or 2")
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    keys = np.array(src.keys, dtype=int)
    float_keys = keys.astype(float)
    dst_bands = np.array(dst.bands)
    dst_dims = tuple(2 * b + 1 for b in dst.bands)
    for i, j in src.slots:
        target = (i + _BIDEGREES[which][0], j + _BIDEGREES[which][1])
        if target not in dst.offsets:
            continue
        lb_out, lf_out, _, _ = dst.factors[target]
        _, _, lb_invT, lf_inv = src.factors[(i, j)]
        blocks = {}  # nonzeros of the conjugated local block, per (B, F) pair
        for q, coeff, base, fiber in _component_terms(conn, which, i, j, float_keys):
            pair = (base, fiber)
            if pair not in blocks:
                b_mat, f_mat = _factor(conn.geometry, base), _factor(conn.alg, fiber)
                local = np.kron(lb_out.T @ b_mat @ lb_invT, lf_out.T @ f_mat @ lf_inv.T)
                l_row, l_col = np.nonzero(local)
                blocks[pair] = (local.shape, l_row, l_col, local[l_row, l_col])
            (n_row, n_col), l_row, l_col, l_val = blocks[pair]
            if not l_val.size:
                continue
            # entries run by source key, then row-major over the local block
            shifted = keys if q is None else keys + np.array(q, dtype=int)
            coeffs = np.broadcast_to(np.asarray(coeff, dtype=complex), len(keys))
            hit = np.nonzero(np.all(np.abs(shifted) <= dst_bands, axis=1) & (coeffs != 0.0))[0]
            moved = np.ravel_multi_index(tuple((shifted[hit] + dst_bands).T), dst_dims)
            rows.append((moved[:, None] * n_row + l_row).ravel() + dst.offsets[target])
            cols.append((hit[:, None] * n_col + l_col).ravel() + src.offsets[(i, j)])
            vals.append((coeffs[hit][:, None] * l_val).ravel())
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dst.dim, src.dim),
    )


def galerkin_polynomial(conn, total_degree, bands):
    """Sparse coefficient matrices M_r with compressed L_delta = sum_r delta^r M_r.

    With c the coupling band, S_a maps the box X in degree p to X + c in
    degree p + 1 and T_a maps X + c in degree p - 1 to X; then
    M_r = sum_{a+b=r} T_a T_b^H + S_b^H S_a.  This is exact: neither d_a nor
    d*_b moves an in-box vector out of X + c.
    """
    bands = tuple(bands)
    entries = conn.a_entries() + conn.f_entries()
    if entries:
        survives = any(
            all(abs(q[a]) <= 2 * bands[a] for a in range(conn.geometry.n))
            for q, _, _, _ in entries
        )
        if not survives:
            raise ConfigError(
                "frequency box too small: every coupling of the connection "
                "would be projected away"
            )
    geo, alg = conn.geometry, conn.alg
    wide = tuple(b + c for b, c in zip(bands, conn.coupling_bands()))
    layout = TruncationLayout.of_degree(geo, alg, total_degree, bands)
    up = TruncationLayout.of_degree(geo, alg, total_degree + 1, wide)
    down = TruncationLayout.of_degree(geo, alg, total_degree - 1, wide)
    s = [d_component_matrix(conn, a, layout, up) for a in range(3)]
    t = [d_component_matrix(conn, a, down, layout) for a in range(3)]
    mats = []
    for r in range(5):
        total = scipy.sparse.csr_matrix((layout.dim, layout.dim), dtype=complex)
        for a in range(max(r - 2, 0), min(r, 2) + 1):
            b = r - a
            total = total + t[a] @ t[b].conj().T + s[b].conj().T @ s[a]
        mats.append(total)
    return layout, mats


def galerkin_operator(conn, total_degree, delta, bands):
    """Sparse Hermitian matrix of the compressed rescaled Laplacian at numeric delta."""
    cache_key = ("galerkin", total_degree, tuple(bands))
    if cache_key not in conn._cache:
        conn._cache[cache_key] = galerkin_polynomial(conn, total_degree, bands)
    _, mats = conn._cache[cache_key]
    total = mats[0] * (float(delta) ** 0)
    for r in range(1, 5):
        total = total + (float(delta) ** r) * mats[r]
    return total


# -- serialization ---------------------------------------------------------------


def bigraded_to_dict(form):
    """JSON payload: the (i, j) component map with per-entry fiber indices."""
    comps = []
    for slot in form.slots():
        entries = []
        for key, val in sorted(form.components[slot].items()):
            if val.ndim != 2:
                raise ConfigError("cannot serialize a batched form")
            for b in range(val.shape[0]):
                for f in range(val.shape[1]):
                    z = val[b, f]
                    if z != 0.0:
                        entries.append([list(key), b, f, float(z.real), float(z.imag)])
        comps.append({"i": slot[0], "j": slot[1], "entries": entries})
    return {"components": comps}


def bigraded_from_dict(geometry, alg, data):
    out = BigradedForm(geometry, alg)
    for comp in data.get("components", []):
        slot = (int(comp["i"]), int(comp["j"]))
        nb = num_indices(geometry.n, slot[0])
        nf = num_indices(alg.dim, slot[1])
        staged = {}
        for key, b, f, re, im in comp.get("entries", []):
            key = tuple(int(x) for x in key)
            if len(key) != geometry.n:
                raise ConfigError("frequency vector has wrong length")
            if not (0 <= int(b) < nb and 0 <= int(f) < nf):
                raise ConfigError(f"index out of range for slot {slot}")
            arr = staged.setdefault(key, np.zeros((nb, nf), dtype=complex))
            arr[int(b), int(f)] += complex(float(re), float(im))
        for key, arr in staged.items():
            out.set_value(slot, key, arr)
    return out
