"""Invariant bigraded complex on a trivialized principal bundle over a torus.

An invariant form is a sum of (i, j)-components: degree-i base forms valued
in Lambda^j g*.  Each component is stored sparsely per frequency as one
FrequencyTable: an int64 key array of shape (nk, n) and one value stack of
shape (nk, nb, nf) (optionally with a trailing batch axis), where nb / nf
count base / fiber multi-indices; row r of the stack is the value at key
row r.  Rows keep the order in which their keys first appeared.  Every
form-level operation (sums, scalar multiples, pruning, the operators, the
inner product and the layout maps) works on whole stacks; two tables are
matched by raveling their keys into integer codes over a common bounding
box.  A table is also a read-only mapping from key tuples to rows, iterated
in row order.

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

The form-level operators read the source stack of a slot as it is and
accumulate per destination slot: each output frequency is one row of one
array, numbered in first-seen order (the source keys, then the image of
each shift q as q first appears).  Frequencies are numbered by a raveled
code over the bounding box of the destination keys, so each shift is one
integer offset on the source codes, and a lookup table over the box gives
every code its row.  Each distinct fiber factor of a slot is applied to the
stack once and shared by the base factors that follow it.  A factor is
applied through its nonzero rows, cached once per factor: per layer (the
first nonzero of every row, then the second, ...) one gather along the base
or fiber axis times the layer's values.  The multiplier
terms land first, then per q the sum of coefficient x moved block over the
(B, F) groups, in group order, with one vectorized add.  Rows that are
exactly zero are dropped; rows holding a NaN or an infinity are kept.

Rescaling by delta^i per base degree turns the total differential into the
polynomial family d_delta = d^(0,1) + delta d^(1,0) + delta^2 d^(2,-1);
DeltaPolynomial holds form-valued polynomials in delta, and all polynomial
operations here are exact (bands grow, nothing is truncated).

Truncated forms have one coordinate map, TruncationLayout: orthonormal
coordinates over a list of slots and a per-axis frequency box.  Its cut
norm counts only the mass of the layout's own slots outside the box, and
its ``mirror`` rows carry the reality involution.  d_component_matrix gives
each of the three components as a sparse matrix in these coordinates, a sum
of (frequency diagonal or shift) x (base matrix) x (fiber matrix) blocks,
built in one vectorized pass over the component's term table, which is
cached on the connection, and stored by one CSR build from its entries
(csr_from_entries); there the codifferential of a component is the
conjugate transpose of its matrix.  The page recursion and the compressed (Galerkin) Laplacian of
``adiabatic_ss`` are built from these matrices.
"""

from collections.abc import Mapping

import numpy as np
import scipy.sparse

from .base_forms import FourierForm, d as base_d, wedge as base_wedge
from .errors import ConfigError, DegreeError
from .multiindex import gram_adjoint, num_indices, wedge_axis_matrix, wedge_pair_matrix

# -- frequency tables ----------------------------------------------------------


class FrequencyTable(Mapping):
    """The values of one slot: ``key_array``, the (nk, n) int64 frequency keys,
    and ``stack``, the (nk, nb, nf[, batch]) values, row r at key row r.

    Read as a mapping, the keys are tuples in row order and each value is a
    row of the stack.  A table is never modified in place: every operation
    builds a new one and may share the arrays of an operand it leaves
    unchanged.
    """

    __slots__ = ("key_array", "stack", "_rows")

    def __init__(self, key_array, stack):
        self.key_array = key_array
        self.stack = stack
        self._rows = None

    @classmethod
    def of_entries(cls, keys, index, values, shape):
        """The table that adds, in entry order, each row of ``values`` at its
        key (a row of ``keys``) and at its position in the value block (one
        array per leading axis in ``index``); zeros elsewhere.  Keys get
        their rows in the order they first appear."""
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))
        stack = np.zeros((len(first),) + tuple(shape), dtype=complex)
        np.add.at(stack, (rank[inverse.ravel()],) + tuple(index), values)
        return cls(keys[np.sort(first)], stack)

    def __len__(self):
        return len(self.key_array)

    def __iter__(self):
        return map(tuple, self.key_array.tolist())

    def __getitem__(self, key):
        if self._rows is None:
            self._rows = {k: row for row, k in enumerate(self)}
        return self.stack[self._rows[tuple(key)]]


def _as_table(values, geometry, alg, slot):
    """The table of one slot from a FrequencyTable (kept as it is) or from
    any mapping {key tuple: value}, read in its iteration order."""
    if isinstance(values, FrequencyTable):
        return values
    n = geometry.n
    shape = (num_indices(n, slot[0]), num_indices(alg.dim, slot[1]))
    keys = list(values)
    try:
        key_array = np.array(keys, dtype=np.int64).reshape(len(keys), n)
    except ValueError:
        raise ConfigError(f"frequency keys of slot {slot} must have length {n}") from None
    if not keys:
        return FrequencyTable(key_array, np.zeros((0,) + shape, dtype=complex))
    stack = np.stack([np.asarray(values[key], dtype=complex) for key in keys])
    if stack.shape[1:3] != shape:
        raise ConfigError(f"values for slot {slot} must start with shape {shape}")
    return FrequencyTable(key_array, stack)


def _box_strides(lo, hi):
    """Row-major strides over the box lo..hi, so that code order is
    lexicographic key order."""
    dims = hi - lo + 1
    return dims, np.cumprod(np.append(1, dims[:0:-1]))[::-1]


def _codes(*tables):
    """Raveled integer codes of the keys of nonempty tables over their
    common bounding box."""
    lo = np.min([t.key_array.min(axis=0) for t in tables], axis=0)
    hi = np.max([t.key_array.max(axis=0) for t in tables], axis=0)
    _, strides = _box_strides(lo, hi)
    return [(t.key_array - lo) @ strides for t in tables]


def _table_sum(a, b):
    """a + b: the rows of a, with b's value added where the keys match, then
    b's other keys in b's order."""
    if not len(b):
        return a
    if not len(a):
        return b
    ca, cb = _codes(a, b)
    order = np.argsort(ca)
    row = order[np.minimum(np.searchsorted(ca, cb, sorter=order), len(ca) - 1)]
    hit = ca[row] == cb
    if hit.all():
        keys, stack = a.key_array, a.stack.copy()
    else:
        new = ~hit
        keys = np.concatenate([a.key_array, b.key_array[new]])
        stack = np.concatenate([a.stack, b.stack[new]])
    stack[row[hit]] += b.stack[hit]
    return FrequencyTable(keys, stack)


def _nonzero_rows(key_array, stack):
    """The table of the rows of ``stack`` that are not exactly zero; a row
    holding a NaN is kept."""
    keep = stack.reshape(len(key_array), -1).any(axis=1)
    if keep.all():
        return FrequencyTable(key_array, stack)
    return FrequencyTable(key_array[keep], stack[keep])


def _apply_rows(plan, stacked, axis, finite):
    """M applied along ``axis`` of a stack (1 for the base index, 2 for the
    fiber index) from the row plan of M (_row_plan): per layer one gather
    along the axis times the layer's values, the layers added in order.

    The gathers skip the columns that M zeroes.  Unless ``finite`` vouches
    that the operator's source stack holds no NaN or infinity, a
    non-finite entry in such a column sets its whole line along the axis
    to NaN, as 0 * NaN does in the dense product, so a non-finite input
    never yields a finite image."""
    cols, vals, dropped = plan
    shape = [1] * stacked.ndim
    shape[axis] = -1
    out = None
    for col, val in zip(cols, vals):
        term = np.take(stacked, col, axis=axis)
        term *= val.reshape(shape)
        if out is None:
            out = term
        else:
            out += term
    if out is None:
        size = list(stacked.shape)
        size[axis] = cols.shape[1]
        out = np.zeros(size, dtype=np.result_type(complex, stacked))
    if len(dropped) and not finite:
        lost = ~np.isfinite(np.take(stacked, dropped, axis=axis)).all(axis=axis, keepdims=True)
        if lost.any():
            out = np.where(lost, complex(np.nan, np.nan), out)
    return out


# -- data types ----------------------------------------------------------------


class BigradedForm:
    """Sparse-by-frequency element of the bigraded complex: one
    FrequencyTable per (i, j)-slot.  ``components`` may map slots to tables
    or to any mappings {key tuple: value}, which become tables here."""

    def __init__(self, geometry, alg, components=None):
        self.geometry = geometry
        self.alg = alg
        self.components = {
            slot: _as_table(values, geometry, alg, slot)
            for slot, values in (components or {}).items()
        }

    @classmethod
    def zero(cls, geometry, alg):
        return cls(geometry, alg)

    def _with(self, components):
        return BigradedForm(self.geometry, self.alg, components)

    def copy(self):
        return self._with(
            {
                slot: FrequencyTable(t.key_array, t.stack.copy())
                for slot, t in self.components.items()
            }
        )

    def slots(self):
        return sorted(self.components.keys())

    def is_zero(self):
        return not any(np.any(t.stack) for t in self.components.values())

    def prune(self, tol=0.0):
        """Drop the rows whose every entry is at most tol in modulus, and the
        slots left empty; a row holding a NaN is kept."""
        comps = {}
        for slot, t in self.components.items():
            if not len(t):
                continue
            keep = ~np.all(np.abs(t.stack).reshape(len(t), -1) <= tol, axis=1)
            if keep.all():
                comps[slot] = t
            elif keep.any():
                comps[slot] = FrequencyTable(t.key_array[keep], t.stack[keep])
        self.components = comps
        return self

    def __add__(self, other):
        self._check(other)
        comps = dict(self.components)
        for slot, t in other.components.items():
            comps[slot] = _table_sum(comps[slot], t) if slot in comps else t
        return self._with(comps)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return self._with(
            {
                slot: FrequencyTable(t.key_array, scalar * t.stack)
                for slot, t in self.components.items()
            }
        )

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def _check(self, other):
        if self.geometry != other.geometry or self.alg is not other.alg:
            raise ConfigError("bigraded forms live on different bundles")


def from_fourier(form, alg):
    """Pull a base FourierForm back into the bigraded complex: its (i, 0)-component."""
    nonzero = form.coeffs != 0
    held = nonzero.any(axis=-1)
    keys = np.argwhere(held) - np.array(form.bands, dtype=np.int64)
    values = np.where(nonzero[held], form.coeffs[held], 0)[:, :, None]
    return BigradedForm(form.geometry, alg, {(form.degree, 0): FrequencyTable(keys, values)})


def to_fourier(form, i):
    """The (i, 0)-component of a form as a base form."""
    geo = form.geometry
    table = form.components.get((i, 0))
    if table is None or not len(table):
        return FourierForm.zero(geo, i)
    if table.stack.ndim != 3:
        raise ConfigError("cannot extract a batched form")
    reach = np.max(np.abs(table.key_array), axis=0)
    out = FourierForm.zero(geo, i, tuple(int(r) for r in reach))
    out.coeffs[tuple((table.key_array + reach).T)] += table.stack[:, :, 0]
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
        """F = dA + (1/2)[A ^ A], one 2-form per algebra index (the supplied
        override for abelian flux scenarios)."""
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
        if "coupling" not in self._cache:
            reach = [0] * self.geometry.n
            for key, _, _, _ in self.a_entries() + self.f_entries():
                for a, k in enumerate(key):
                    reach[a] = max(reach[a], abs(k))
            self._cache["coupling"] = tuple(reach)
        return self._cache["coupling"]


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
        if not len(ta) or not len(tb):
            continue
        # the common keys in lexicographic order, which is code order
        if b is a:
            u = v = ta.stack[np.argsort(_codes(ta)[0])]
        else:
            _, rows_a, rows_b = np.intersect1d(*_codes(ta, tb), assume_unique=True, return_indices=True)
            if not len(rows_a):
                continue
            u, v = ta.stack[rows_a], tb.stack[rows_b]
        if u.ndim != 3 or v.ndim != 3:
            raise ConfigError("inner product needs unbatched forms")
        base_diag, fiber_diag = _gram_diagonal(geo, i), _gram_diagonal(alg, j)
        if base_diag is None or fiber_diag is None:
            paired = geo.gram(i) @ v @ alg.gram(j)
        else:
            # G_i v G_j for diagonal Grams, with the products of the matmuls
            paired = v * base_diag[:, None]
            paired *= fiber_diag
        # one sum per key, added in sorted key order
        for part in np.sum(np.conj(u) * paired, axis=(1, 2)).tolist():
            total += part
    return geo.volume * total


def _gram_diagonal(space, deg):
    """The diagonal of the degree-deg Gram matrix of a torus or an algebra
    when the matrix is diagonal, else None; cached on the space."""

    def build():
        gram = space.gram(deg)
        diag = np.diagonal(gram).copy()
        return diag if np.array_equal(gram, np.diag(diag)) else None

    return space._cached(("bigraded", "gram_diagonal", deg), build)


def bigraded_norm(form):
    val = bigraded_inner_product(form, form).real
    return float(np.sqrt(max(val, 0.0)))


def coefficient_norms(poly):
    """(m, norm) for every polynomial coefficient m, exact zeros included."""
    return [(m, bigraded_norm(c)) for m, c in enumerate(poly.coefficients)]


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


def _multipliers(n, which, i, j):
    """The Fourier multipliers of the component d^(which) on the (i, j)-slot,
    as (axis, base key, fiber key): the value at key k contributes
    coefficient * B val F^T at k itself, with B = _factor(geometry, base key)
    and F = _factor(algebra, fiber key).  They are the fiber differential
    (axis None, coefficient 1) and the base derivative i k_l (axis l).
    _coupling_terms gives the other terms of the component."""
    if which == 0:
        return [(None, ("eye", i, i, None), ("d", j, j + 1, _vert_sign(i)))]
    if which == 1:
        eye = ("eye", j, j, None)
        return [(l, ("axis", i, i + 1, l), eye) for l in range(n)]
    return []


def _multiplier_terms(n, which, i, j, keys):
    """The multipliers as terms (None, coefficient, base key, fiber key), the
    coefficient of i k_l one per row of the float array ``keys``."""
    return [
        (None, 1.0 if axis is None else 1j * keys[:, axis], base, fiber)
        for axis, base, fiber in _multipliers(n, which, i, j)
    ]


def _coupling_terms(conn, which, i, j):
    """Terms (shift q, coefficient, base key, fiber key) of the component
    d^(which) on the (i, j)-slot that multiply by one mode of the connection
    or the curvature: the value at key k contributes coefficient * B val F^T
    at k + q, q the frequency of the mode."""
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
            return gram_adjoint(mat, space.gram(deg_in), space.gram(deg_out))
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


def _row_plan(space, key):
    """The nonzero rows of _factor(space, key), cached beside it, for
    _apply_rows: ``cols`` and ``vals``, of shape (layers, rows), hold in
    layer t the column and value of each row's t-th nonzero, columns
    ascending (column 0 and value 0 past a row's last nonzero); ``dropped``
    lists the columns that hold no nonzero."""

    def build():
        mat = _factor(space, key)
        rows, cols = np.nonzero(mat)
        counts = np.bincount(rows, minlength=len(mat))
        layer = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        plan_cols = np.zeros((counts.max(initial=0), len(mat)), dtype=np.intp)
        plan_vals = np.zeros(plan_cols.shape, dtype=mat.dtype)
        plan_cols[layer, rows] = cols
        plan_vals[layer, rows] = mat[rows, cols]
        return plan_cols, plan_vals, np.flatnonzero(~mat.any(axis=0))

    return space._cached(("bigraded", "rows") + key, build)


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


def _apply_component(form, conn, which, adjoint):
    """d^(which) or its adjoint on a form, one destination slot at a time."""
    if which not in (0, 1, 2):
        raise ConfigError("component index must be 0, 1 or 2")
    geo, alg = form.geometry, form.alg
    di, dj = _BIDEGREES[which]
    if adjoint:
        di, dj = -di, -dj
    comps = {}
    for (i, j), table in form.components.items():
        target = (i + di, j + dj)
        if not len(table) or not num_indices(geo.n, target[0]) or not num_indices(alg.dim, target[1]):
            continue
        stacked = np.ascontiguousarray(table.stack)
        # only the base derivative reads the keys
        fkeys = table.key_array.astype(float) if which == 1 else None
        multipliers, groups = _slot_terms(conn, which, target if adjoint else (i, j), fkeys, adjoint)
        finite = bool(np.isfinite(stacked).all())
        fibered = {}

        def move(base, fiber):
            """B val F^T on every stacked value, each distinct fiber factor
            applied once; identity factors are skipped."""
            if fiber not in fibered:
                fibered[fiber] = (
                    stacked if fiber[0] == "eye" else _apply_rows(_row_plan(alg, fiber), stacked, 2, finite)
                )
            moved = fibered[fiber]
            return moved if base[0] == "eye" else _apply_rows(_row_plan(geo, base), moved, 1, finite)

        unshifted = None
        for _, coeff, base, fiber in multipliers:
            if not np.any(coeff):
                continue
            term = move(base, fiber)
            if np.ndim(coeff):  # per key; the fiber differential's scalar 1 is not applied
                term = coeff.reshape((-1,) + (1,) * (stacked.ndim - 1)) * term
            unshifted = term if unshifted is None else unshifted + term
        image = _accumulate(table.key_array, unshifted, groups, move)
        if len(image):
            comps[target] = image
    return BigradedForm(geo, alg, comps)


def apply_d_component(form, conn, which):
    """Single bidegree component d^(which) of the differential: which = 0
    (vertical), 1 (covariant horizontal) or 2 (curvature contraction)."""
    return _apply_component(form, conn, which, adjoint=False)


def apply_dstar_component(form, conn, which):
    """Adjoint of apply_d_component, from the same terms."""
    return _apply_component(form, conn, which, adjoint=True)


def _accumulate(keys, unshifted, groups, move):
    """FrequencyTable of one destination slot.

    ``keys`` are the source keys, an (nk, n) array or a list of tuples.
    ``unshifted`` (or None) lands on them; for each group of
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
    nk = len(keys)
    karr = np.asarray(keys, dtype=np.int64)
    if not shifts:
        if unshifted is None:
            return FrequencyTable(karr[:0], np.zeros(0, dtype=complex))
        return _nonzero_rows(karr, unshifted)
    qarr = np.array(list(shifts), dtype=np.int64)
    # keys as raveled codes over the bounding box of every destination key,
    # so a shift is one integer offset; row_at maps a code to its row
    q_lo, q_hi = qarr.min(axis=0), qarr.max(axis=0)
    if unshifted is not None:
        q_lo, q_hi = np.minimum(q_lo, 0), np.maximum(q_hi, 0)
    lo = karr.min(axis=0) + q_lo
    dims, strides = _box_strides(lo, karr.max(axis=0) + q_hi)
    kcode = (karr - lo) @ strides
    row_at = np.full(int(np.prod(dims)), -1, dtype=np.int64)
    codes, count = [], 0
    if unshifted is not None:
        row_at[kcode] = np.arange(nk)
        codes, count = [kcode], nk
    places = []
    for qcode in (qarr @ strides).tolist():
        dest = kcode + qcode
        rows = row_at[dest]
        new = rows < 0
        fresh = int(np.count_nonzero(new))
        if fresh:
            rows[new] = np.arange(count, count + fresh)
            row_at[dest[new]] = rows[new]
            codes.append(dest[new])
        # a slice only when every row is new: a zero shift's rows 0..nk-1
        # are consecutive too, but hold the unshifted term
        places.append(slice(count, count + nk) if fresh == nk else rows)
        count += fresh
    parts = moved[:1] if unshifted is None else [moved[0], unshifted]
    # -0.0 is the exact additive identity (x + -0.0 == x, signed zeros
    # included), so a row's first contribution lands unchanged
    shape = (count,) + moved[0].shape[1:]
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
    out_keys = np.stack(np.unravel_index(np.concatenate(codes), dims), axis=1) + lo
    return _nonzero_rows(out_keys, out)


# -- rescaled polynomial family --------------------------------------------------


def delta_series(poly, conn, apply):
    """The polynomial whose coefficient m sums apply(coefficient m - a, conn, a), a = 0, 1, 2."""
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
    return delta_series(poly, conn, apply_d_component)


def dstar_delta(poly, conn):
    """Exact polynomial action of the adjoint, d*_delta."""
    return delta_series(poly, conn, apply_dstar_component)


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
        self._dims = tuple(2 * b + 1 for b in self.bands)
        self.key_array = np.moveaxis(np.indices(self._dims), 0, -1).reshape(-1, geometry.n) - self.bands
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
            self.factors[(i, j)] = (lb, lf, _inv_chol(geometry, i).T, _inv_chol(alg, j))
            offset += len(self.key_array) * nb * nf
        self.dim = offset
        self._sqrt_vol = np.sqrt(geometry.volume)

    @classmethod
    def of_degree(cls, geometry, alg, total_degree, bands):
        """Every slot with i + j = total_degree."""
        slots = [(i, total_degree - i) for i in range(total_degree + 1)]
        return cls(geometry, alg, slots, bands)

    def mirror(self):
        """Row permutation sending frequency k to -k within each slot.  The
        Cholesky factors are real, so the coordinates of the conjugate form
        (conjugate values at -k) are conj(x[mirror()]); a box lists its keys in
        lexicographic order, so -k runs in the reverse order.  For a real
        connection every operator matrix M between two layouts then satisfies
        M[mirror_out][:, mirror_in] == conj(M), up to the order in which
        duplicate entries are summed: ``harmonic_limit`` splits real from
        imaginary parts with it, and the Galerkin spectrum eigensolves one
        block of each mirror pair."""
        rows = np.arange(self.dim)
        for slot in self.slots:
            block = self._slot_rows(rows, slot)
            block[:] = block[::-1].copy()
        return rows

    def vector_from_form(self, form):
        """Orthonormal coordinates of the in-box part; returns (vector, cut norm).

        The cut norm is the norm of the layout's own slots outside the
        frequency box, reported so truncation is never silent; other slots
        are ignored.
        """
        vec = np.zeros(self.dim, dtype=complex)
        cut_sq = 0.0
        bands = np.array(self.bands)
        for slot in self.slots:
            table = form.components.get(slot)
            if table is None or not len(table):
                continue
            lb, lf, _, _ = self.factors[slot]
            inside = np.all(np.abs(table.key_array) <= bands, axis=1)
            pos = np.ravel_multi_index(tuple((table.key_array[inside] + bands).T), self._dims)
            hat = self._sqrt_vol * (lb.T @ table.stack[inside] @ lf)
            rows = self._slot_rows(vec, slot)
            rows[pos] = hat.reshape(len(pos), rows.shape[1])
            if not inside.all():
                val = table.stack[~inside]
                gram = self.geometry.gram(slot[0]) @ val @ self.alg.gram(slot[1])
                # one norm per key, added in key order
                parts = self.geometry.volume * np.sum(np.conj(val) * gram, axis=(1, 2)).real
                for part in parts.tolist():
                    cut_sq += part
        return vec, float(np.sqrt(max(cut_sq, 0.0)))

    def form_from_vector(self, vec):
        comps = {}
        for slot in self.slots:
            nb, nf = self.shapes[slot]
            _, _, lb_invT, lf_inv = self.factors[slot]
            hats = self._slot_rows(vec, slot)
            held = hats.any(axis=1)
            if held.any():
                stack = (lb_invT @ hats[held].reshape(-1, nb, nf) @ lf_inv) / self._sqrt_vol
                comps[slot] = FrequencyTable(self.key_array[held], stack)
        return BigradedForm(self.geometry, self.alg, comps)

    def _slot_rows(self, vec, slot):
        """The coordinates of one slot as a (keys, nb * nf) view of vec."""
        nb, nf = self.shapes[slot]
        start = self.offsets[slot]
        return vec[start : start + len(self.key_array) * nb * nf].reshape(len(self.key_array), nb * nf)


def csr_from_entries(rows, cols, vals, shape):
    """The CSR matrix of the entries (rows[e], cols[e], vals[e]), duplicates
    summed: the same arrays, bit for bit, as csr_matrix((vals, (rows, cols)),
    shape), without the COO object.  Entries are grouped by row in input
    order, as scipy's coo_tocsr groups them, and scipy's own sum_duplicates
    sorts each row and adds its duplicates."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    mat = scipy.sparse.csr_matrix((vals[order], cols[order], indptr), shape=shape)
    mat.sum_duplicates()
    return mat


def csr_entries(mat):
    """(rows, columns, values) of the stored entries of a CSR matrix, in
    storage order, with the index dtype of the matrix."""
    counts = np.diff(mat.indptr)
    return np.repeat(np.arange(mat.shape[0], dtype=mat.indices.dtype), counts), mat.indices, mat.data


def _inv_chol(space, deg):
    """Inverse of the Cholesky factor of the degree-deg Gram matrix, cached on the
    torus or the algebra."""
    return space._cached(("bigraded", "inv_chol", deg), lambda: np.linalg.inv(space.chol(deg)))


def _local_block(conn, slot, target, base, fiber):
    """Nonzeros (shape, rows, columns, values), row-major, of the conjugated local
    block kron(L_out^T B L_in^-T, L_out^T F L_in^-T) of one (B, F) pair from
    ``slot`` to ``target``, cached on the connection."""
    key = ("local", slot, target, base, fiber)
    if key not in conn._cache:
        geo, alg = conn.geometry, conn.alg
        local = np.kron(
            geo.chol(target[0]).T @ _factor(geo, base) @ _inv_chol(geo, slot[0]).T,
            alg.chol(target[1]).T @ _factor(alg, fiber) @ _inv_chol(alg, slot[1]).T,
        )
        l_row, l_col = np.nonzero(local)
        conn._cache[key] = (local.shape, l_row, l_col, local[l_row, l_col])
    return conn._cache[key]


def _term_table(conn, which, slots):
    """Every term of d^(which) on the source ``slots`` as flat arrays, cached on
    the connection: per source slot its target; per term its source slot, the
    row of its shift among the distinct shifts ``qs`` (the multipliers shift by
    zero), its scalar coefficient or multiplier axis (-1 for a scalar), the
    shape of its local block and the span of its entries; per entry the row,
    column and value of the conjugated local block (from _local_block).  Terms
    run by slot, then multipliers before coupling terms.  Terms whose local
    block is zero are left out, such as ad* on fiber degree 0; a slot whose
    target holds no indices has none."""
    key = ("terms", which, slots)
    if key not in conn._cache:
        geo, alg = conn.geometry, conn.alg
        di, dj = _BIDEGREES[which]
        zero = (0,) * geo.n
        targets, terms, blocks, shifts = [], [], [], {}
        for s, (i, j) in enumerate(slots):
            target = (i + di, j + dj)
            targets.append(target)
            if not num_indices(geo.n, target[0]) or not num_indices(alg.dim, target[1]):
                continue
            multipliers = [
                (zero, 1.0, -1 if axis is None else axis, base, fiber)
                for axis, base, fiber in _multipliers(geo.n, which, i, j)
            ]
            coupled = [(q, v, -1, base, fiber) for q, v, base, fiber in _coupling_terms(conn, which, i, j)]
            for q, coeff, axis, base, fiber in multipliers + coupled:
                shape, l_row, l_col, l_val = _local_block(conn, (i, j), target, base, fiber)
                if len(l_val):
                    terms.append((s, shifts.setdefault(q, len(shifts)), coeff, axis) + shape + (len(l_val),))
                    blocks.append((l_row, l_col, l_val))

        def column(k, dtype):
            return np.array([term[k] for term in terms], dtype=dtype)

        def entries(k, dtype):
            return np.concatenate([np.zeros(0, dtype)] + [block[k] for block in blocks])

        count = column(6, np.int64)
        conn._cache[key] = (
            targets,
            column(0, np.int64),
            np.array(list(shifts), dtype=np.int64).reshape(-1, geo.n),
            column(1, np.int64),
            column(2, complex),
            column(3, np.int64),
            column(4, np.int64),
            column(5, np.int64),
            np.cumsum(count) - count,
            count,
            entries(0, np.int64),
            entries(1, np.int64),
            entries(2, float),
        )
    return conn._cache[key]


def d_component_matrix(conn, which, src, dst):
    """Sparse matrix of the component d^(which) from layout src to layout dst.

    Output outside dst (its slots and its box) is dropped, which is the
    orthogonal projection.  Each term is (frequency diagonal or shift) x
    (base matrix B) x (fiber matrix F), with B and F conjugated into
    orthonormal coordinates as L_out^T B L_in^-T; the codifferential
    component from dst to src is the conjugate transpose.

    One vectorized pass over the term table of src's slots: every (term,
    source key) whose image lies in dst and whose coefficient is nonzero is a
    hit, and each hit lands the entries of its term's local block.  Entries
    run by term, then source key, then row-major over the local block.
    """
    if which not in (0, 1, 2):
        raise ConfigError("component index must be 0, 1 or 2")
    targets, slot, qs, q_of, coeff, axis, n_row, n_col, start, count, l_row, l_col, l_val = _term_table(
        conn, which, tuple(src.slots)
    )
    keys = src.key_array
    bands = np.array(dst.bands)
    dst_off = np.array([dst.offsets.get(t, -1) for t in targets], dtype=np.int64)
    src_off = np.array([src.offsets[s] for s in src.slots], dtype=np.int64)
    # per distinct shift and source key: inside dst's box, and the box position
    moved = keys + qs[:, None, :]
    pos = (moved + bands) @ _box_strides(-bands, bands)[1]
    term, src_key = ((dst_off[slot] >= 0)[:, None] & (np.abs(moved) <= bands).all(axis=2)[q_of]).nonzero()
    coeffs = np.where(axis[term] < 0, coeff[term], 1j * keys[src_key, axis[term]].astype(float))
    hit = coeffs != 0.0
    term, src_key, coeffs = term[hit], src_key[hit], coeffs[hit]
    # each hit lands every entry of its term's local block
    reps = count[term]
    entry = np.arange(reps.sum()) + (start[term] - reps.cumsum() + reps).repeat(reps)
    rows = (pos[q_of[term], src_key] * n_row[term] + dst_off[slot[term]]).repeat(reps) + l_row[entry]
    cols = (src_key * n_col[term] + src_off[slot[term]]).repeat(reps) + l_col[entry]
    return csr_from_entries(rows, cols, coeffs.repeat(reps) * l_val[entry], (dst.dim, src.dim))


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

