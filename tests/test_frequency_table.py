"""Stacked frequency tables against per-key dict references, bit for bit.

Each example draws two forms over a few slots of su(2) on a skewed 2-torus
(the inner product also on a 2-torus with a diagonal metric).
Their key sets are disjoint, overlapping, equal or empty; values may be
batched, and rows may hold a NaN or be exactly zero.  Every table operation
must give the very bytes of the per-key reference in ``bigraded_reference``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from bundlehodge.base_forms import TorusGeometry
from bundlehodge.bigraded import BigradedForm, TruncationLayout, bigraded_inner_product
from bundlehodge.lie_algebra import make_su2
from bundlehodge.multiindex import num_indices

from bigraded_reference import (
    reference_form_from_vector,
    reference_inner_product,
    reference_is_zero,
    reference_prune,
    reference_scale,
    reference_sum,
    reference_vector_from_form,
    tables_of,
)

GEO = TorusGeometry(2, metric=[[1.0, 0.3], [0.3, 2.0]])
DIAGONAL_GEO = TorusGeometry(2, metric=[[1.3, 0.0], [0.0, 0.7]])
ALG = make_su2(0.7)
SLOTS = [(0, 1), (1, 1), (2, 0), (1, 2)]
BOX = [(k0, k1) for k0 in range(-2, 3) for k1 in range(-2, 3)]
# the layout box holds the keys with |k| <= 1, and two of the four slots
LAYOUT = TruncationLayout(GEO, ALG, [(1, 1), (2, 0)], (1, 1))
SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _bits(draw, count):
    """An integer of ``count`` boolean draws: hypothesis mixes constants read
    from the loaded source files into integer draws, never into booleans."""
    value = 0
    for _ in range(count):
        value = 2 * value + draw(st.booleans())
    return value


def _values(rng, nk, shape, special):
    values = rng.standard_normal((nk,) + shape) + 1j * rng.standard_normal((nk,) + shape)
    if special and nk:
        values[rng.integers(nk)] = 0.0  # an exactly zero row
        values[rng.integers(nk), 0, 0] = np.nan
        values[rng.integers(nk)] *= 1e-3  # a row under a prune tolerance
    return values


def _tables(rng, keysets, batch, special):
    """{slot: {key: value}} over the slots a mask picks, keys in drawn order."""
    out = {}
    for slot, keys in zip(SLOTS, keysets):
        if keys is None:
            continue
        shape = (num_indices(GEO.n, slot[0]), num_indices(ALG.dim, slot[1])) + batch
        out[slot] = dict(zip(keys, _values(rng, len(keys), shape, special)))
    return out


@st.composite
def _form_pair(draw, batched=True):
    """Two per-key tables {slot: {key: value}} and whether they hold NaNs."""
    rng = np.random.default_rng(_bits(draw, 16))
    batch = (2,) if batched and draw(st.booleans()) else ()
    special = draw(st.booleans())
    keysets_a, keysets_b = [], []
    for _ in SLOTS:
        order = [BOX[i] for i in rng.permutation(len(BOX))]
        keys_a = order[: rng.integers(0, 8)]
        mode = _bits(draw, 2)
        if mode == 0:  # disjoint
            keys_b = order[8 : 8 + rng.integers(0, 8)]
        elif mode == 1:  # overlapping, in another order
            keys_b = keys_a[::-2] + order[8 : 8 + rng.integers(0, 4)]
        elif mode == 2:  # the same keys
            keys_b = list(keys_a)
        else:  # empty
            keys_b = []
        keysets_a.append(keys_a if draw(st.booleans()) else None)
        keysets_b.append(keys_b if draw(st.booleans()) else None)
    return _tables(rng, keysets_a, batch, special), _tables(rng, keysets_b, batch, special)


def _form(tables):
    return BigradedForm(GEO, ALG, tables)


def _same(got, want):
    """Equal slots, keys in the same order, and values with the same bytes."""
    assert list(got) == list(want)
    for slot in want:
        assert list(got[slot]) == list(want[slot])
        for key, val in want[slot].items():
            assert got[slot][key].shape == val.shape
            assert got[slot][key].tobytes() == val.tobytes()


def _same_scalar(got, want):
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


@SETTINGS
@given(_form_pair())
def test_table_views_iterate_in_row_order(pair):
    for tables in pair:
        form = _form(tables)
        _same(tables_of(form), tables)
        for table in form.components.values():
            assert list(table) == [tuple(k) for k in table.key_array.tolist()]
            for row, key in enumerate(table):
                assert table[key].tobytes() == table.stack[row].tobytes()


@SETTINGS
@given(_form_pair())
def test_sum_and_scalar_multiple_match_per_key_reference(pair):
    a, b = pair
    _same(tables_of(_form(a) + _form(b)), reference_sum(a, b))
    _same(tables_of(_form(b) + _form(a)), reference_sum(b, a))
    _same(tables_of(_form(a) - _form(b)), reference_sum(a, reference_scale(b, -1.0)))
    _same(tables_of((0.5 - 2j) * _form(a)), reference_scale(a, 0.5 - 2j))


@SETTINGS
@given(_form_pair())
def test_prune_and_zero_test_match_per_key_reference(pair):
    for tables in pair:
        for tol in (0.0, 1e-2):
            _same(tables_of(_form(tables).prune(tol)), reference_prune(tables, tol))
        assert _form(tables).is_zero() == reference_is_zero(tables)
        zeros = reference_scale(tables, 0.0)
        assert _form(zeros).is_zero() == reference_is_zero(zeros)


def _check_inner_product(geo, pair):
    a, b = pair

    def form(tables):
        return BigradedForm(geo, ALG, tables)

    for left, right in ((a, b), (b, a), (a, a)):
        want = reference_inner_product(geo, ALG, left, right)
        _same_scalar(bigraded_inner_product(form(left), form(right)), want)
    same = form(a)
    _same_scalar(bigraded_inner_product(same, same), reference_inner_product(geo, ALG, a, a))


@SETTINGS
@given(_form_pair(batched=False))
def test_inner_product_matches_per_key_reference(pair):
    # the skewed torus has dense Gram matrices: the per-key G_i v G_j path
    _check_inner_product(GEO, pair)


@SETTINGS
@given(_form_pair(batched=False))
def test_inner_product_matches_per_key_reference_on_diagonal_grams(pair):
    # every Gram matrix here is diagonal and not the identity: the
    # elementwise path must give the bytes of the matrix products
    _check_inner_product(DIAGONAL_GEO, pair)


@SETTINGS
@given(_form_pair(batched=False))
def test_layout_maps_match_per_key_reference(pair):
    a, b = pair
    for tables in (a, b):
        vec, cut = LAYOUT.vector_from_form(_form(tables))
        want_vec, want_cut = reference_vector_from_form(LAYOUT, tables)
        assert vec.tobytes() == want_vec.tobytes()
        _same_scalar(cut, want_cut)
        # a strided column, as the page recursion hands out
        columns = np.stack([vec, np.roll(vec, 3)], axis=1)
        _same(tables_of(LAYOUT.form_from_vector(columns[:, 0])), reference_form_from_vector(LAYOUT, vec))
