"""Plain per-key reference of the three bigraded components and their adjoints.

An independent oracle for the production operators: it is written from the
sign conventions of the ``bundlehodge.bigraded`` module docstring, one
frequency key and one connection or curvature mode at a time, and shares no
code with the production term list:

    vertical     (i,j) -> (i,j+1):   -(-1)^i d_g
    horizontal   (i,j) -> (i+1,j):   d_M + sum_a A^a ^ ad*_a
    contraction  (i,j) -> (i+2,j-1): +(-1)^i sum_a F^a ^ iota_a

The adjoints are taken piece by piece for the product inner product (base
Gram x fiber Gram x volume): a piece that sends the value at k to
c M val at k + q has the adjoint that sends the value at k to
conj(c) M* val at k - q, where M* = G_src^-1 M^T G_dst is the adjoint of the
real matrix M : Lambda^src -> Lambda^dst.
"""

import numpy as np

from bundlehodge.bigraded import BigradedForm
from bundlehodge.multiindex import num_indices, wedge_axis_matrix, wedge_pair_matrix


def _base(mat, vals):
    # vals: (keys, nb, nf, ...) -> (keys, mb, nf, ...)
    return np.moveaxis(np.tensordot(mat, vals, axes=(1, 1)), 0, 1)


def _fiber(mat, vals):
    # vals: (keys, nb, nf, ...) -> (keys, nb, mf, ...)
    return np.moveaxis(np.tensordot(mat, vals, axes=(1, 2)), 0, 2)


def _adjoint(gram, mat, src, dst):
    return np.linalg.inv(gram(src)) @ mat.T @ gram(dst)


def _modes(forms):
    return [(a, key, idx, val) for a, f in enumerate(forms) for key, idx, val in f.entries()]


def _fits(geo, alg, slot):
    return num_indices(geo.n, slot[0]) > 0 and num_indices(alg.dim, slot[1]) > 0


def _add(out, slot, keys, vals, coeffs, q):
    """Add coeffs[k] * vals[k] at key k + q, one key at a time."""
    table = out.components.setdefault(slot, {})
    for key, val, coeff in zip(keys, vals, coeffs):
        dest = tuple(k + s for k, s in zip(key, q))
        table[dest] = table[dest] + coeff * val if dest in table else coeff * val


def _apply(form, conn, which, adjoint):
    geo, alg = form.geometry, form.alg
    n = geo.n
    zero = (0,) * n
    connection = _modes(conn.a_forms)
    curvature = _modes(conn.curvature_forms())
    out = BigradedForm(geo, alg)
    for (i, j), table in form.components.items():
        if not table:
            continue
        keys = list(table)
        vals = np.stack([table[key] for key in keys])
        if which == 0:
            # -(-1)^i d_g, or its adjoint
            dst = (i, j - 1) if adjoint else (i, j + 1)
            if _fits(geo, alg, dst):
                mat = alg.d_matrix(j - 1 if adjoint else j)
                if adjoint:
                    mat = _adjoint(alg.gram, mat, j - 1, j)
                _add(out, dst, keys, -((-1) ** i) * _fiber(mat, vals), [1.0] * len(keys), zero)
        elif which == 1:
            # d_M + sum_a A^a ^ ad*_a, or its adjoint
            dst = (i - 1, j) if adjoint else (i + 1, j)
            if not _fits(geo, alg, dst):
                continue
            i_src = dst[0] if adjoint else i
            for l in range(n):
                wedge = wedge_axis_matrix(n, i_src, l)
                if adjoint:
                    wedge = _adjoint(geo.gram, wedge, i_src, i_src + 1)
                factor = -1j if adjoint else 1j
                _add(out, dst, keys, _base(wedge, vals), [factor * key[l] for key in keys], zero)
            for a, q, (l,), v in connection:
                wedge = wedge_axis_matrix(n, i_src, l)
                coad = alg.coadjoint_matrix(a, j)
                if adjoint:
                    wedge = _adjoint(geo.gram, wedge, i_src, i_src + 1)
                    coad = _adjoint(alg.gram, coad, j, j)
                    q, v = tuple(-x for x in q), np.conj(v)
                _add(out, dst, keys, _base(wedge, _fiber(coad, vals)), [v] * len(keys), q)
        else:
            # +(-1)^i sum_a F^a ^ iota_a, or its adjoint
            dst = (i - 2, j + 1) if adjoint else (i + 2, j - 1)
            if not _fits(geo, alg, dst):
                continue
            i_src, j_src = (dst if adjoint else (i, j))
            for a, q, axes, v in curvature:
                wedge = wedge_pair_matrix(n, i_src, axes)
                iota = alg.iota_matrix(a, j_src)
                if adjoint:
                    wedge = _adjoint(geo.gram, wedge, i_src, i_src + 2)
                    iota = _adjoint(alg.gram, iota, j_src, j_src - 1)
                    q, v = tuple(-x for x in q), np.conj(v)
                coeff = (-1) ** i_src * v
                _add(out, dst, keys, _base(wedge, _fiber(iota, vals)), [coeff] * len(keys), q)
    return out.prune()


def reference_d(form, conn, which):
    """d^(which) of a form: which = 0 (vertical), 1 (horizontal), 2 (contraction)."""
    return _apply(form, conn, which, adjoint=False)


def reference_dstar(form, conn, which):
    """The adjoint of reference_d(., conn, which), piece by piece."""
    return _apply(form, conn, which, adjoint=True)

