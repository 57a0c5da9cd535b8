"""Sorted multi-index bookkeeping for exterior algebra bases.

Bases of Lambda^k are indexed by strictly increasing tuples of axis
indices, ordered lexicographically (the order itertools.combinations
produces).  All sign conventions in the package refer to this ordering.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np


@lru_cache(maxsize=None)
def multi_indices(n, k):
    """All strictly increasing k-tuples drawn from range(n), lex order."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def index_position(n, k):
    """Map from multi-index tuple to its position in multi_indices(n, k)."""
    return {idx: pos for pos, idx in enumerate(multi_indices(n, k))}


def num_indices(n, k):
    if k < 0 or k > n:
        return 0
    return len(multi_indices(n, k))


def merge_sign(left, right):
    """Sign of sorting the concatenation of two increasing tuples.

    Returns (sign, merged_tuple), or (0, None) when the tuples share an
    element (the wedge vanishes).
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of `left`
            if (len(left) - i) % 2 == 1:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


@lru_cache(maxsize=None)
def wedge_table(n, deg_a, deg_b):
    """The nonvanishing products e^I ^ e^J over range(n): per multi-index I
    of degree deg_a, one (position of J, sign, position of the merged index
    in degree deg_a + deg_b) for each J of degree deg_b with e^I ^ e^J != 0,
    in the order of J."""
    pos_out = index_position(n, deg_a + deg_b)
    table = {}
    for idx_a in multi_indices(n, deg_a):
        row = []
        for col_b, idx_b in enumerate(multi_indices(n, deg_b)):
            sign, merged = merge_sign(idx_a, idx_b)
            if sign:
                row.append((col_b, sign, pos_out[merged]))
        table[idx_a] = tuple(row)
    return table


def complement(idx, n):
    return tuple(a for a in range(n) if a not in idx)


@lru_cache(maxsize=None)
def wedge_axis_matrix(n, k, axis):
    """Matrix of e^axis ^ (.) : Lambda^k -> Lambda^(k+1) over range(n); the fiber
    d, ad* and iota and the base d are built from it."""
    src = multi_indices(n, k)
    dst_pos = index_position(n, k + 1)
    mat = np.zeros((num_indices(n, k + 1), num_indices(n, k)))
    for col, idx in enumerate(src):
        sign, merged = merge_sign((axis,), idx)
        if sign != 0:
            mat[dst_pos[merged], col] = sign
    return mat


@lru_cache(maxsize=None)
def wedge_pair_matrix(n, k, axes):
    """Matrix of (e^a ^ e^b) ^ (.) : Lambda^k -> Lambda^(k+2), axes=(a, b)."""
    src = multi_indices(n, k)
    dst_pos = index_position(n, k + 2)
    mat = np.zeros((num_indices(n, k + 2), num_indices(n, k)))
    for col, idx in enumerate(src):
        sign, merged = merge_sign(axes, idx)
        if sign != 0:
            mat[dst_pos[merged], col] = sign
    return mat


def gram_matrix(metric_on_lines, k):
    """Gram determinant extension of a metric on 1-forms to Lambda^k.

    ``metric_on_lines`` is the matrix of inner products of the basis
    covectors e^a; the Lambda^k inner product of e^I and e^J is
    det(metric_on_lines[I, J]).
    """
    idxs = multi_indices(metric_on_lines.shape[0], k)
    if not k or not idxs:
        return np.ones((len(idxs), len(idxs)))
    # every minor metric_on_lines[I, J] at once: shape (m, m, k, k)
    idx = np.array(idxs)
    return np.linalg.det(metric_on_lines[idx[:, None, :, None], idx[None, :, None, :]])


def gram_adjoint(mat, gram_in, gram_out):
    """G_in^-1 M^H G_out, the adjoint of M for the Gram products of its source and target."""
    return np.linalg.solve(gram_in, mat.conj().T @ gram_out)
