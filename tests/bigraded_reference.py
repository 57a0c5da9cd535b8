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

``form_of`` builds a form from (slot, key, value) triples through per-key
dicts, the plain reading of a form that the production frequency tables
replace; the reference operators below build their images the same way.

The ``reference_*`` table operations (sum, scalar multiple, prune, zero
test, inner product and the two ``TruncationLayout`` maps) act on plain
tables {slot: {key: value}} one key at a time, with the summation order the
stacked operations keep; ``tables_of`` reads a form into that shape.

``reference_accumulate`` is a per-key dict reading of the contract of the
production frequency accumulator ``bigraded._accumulate``.

``reference_component_matrix`` is the term-by-term assembly of
``bigraded.d_component_matrix``: it reads the production term list, but
rebuilds the conjugated local block of every term, so the assembly from
cached blocks must reproduce its CSR arrays bit for bit.

``reference_correction_system`` stacks the order-K correction system of
``adiabatic_ss._correction_system`` with its w_0 columns from scratch with
``scipy.sparse.bmat`` and splits off the w_0 columns by slicing; the
production system lists the entries of its blocks and makes one CSR matrix
of the w_1 .. w_K columns instead, and ``adiabatic_ss._solve_columns`` reads
the right-hand side as leading coefficients of w_0 alone.

``reference_blocks`` splits a sparse pattern with scipy's
``connected_components`` on its bipartite row/column graph;
``adiabatic_ss._blocks`` labels that graph with a numpy union-find
(``_components``) instead.

``reference_block_pinv`` decomposes every block of a sparse system and
forms all its pseudoinverses, and ``reference_block_solve`` applies them to
every row of the right-hand side; ``adiabatic_ss._block_lstsq`` decomposes
only the blocks the right-hand side touches instead.

``reference_galerkin_polynomial`` forms the compressed Laplacian as the
polynomial sum_r delta^r M_r, each M_r a sum of Gram products of component
matrices; ``adiabatic_ss.galerkin_polynomial`` stacks the same components
into A(delta) with L_delta = A(delta)^H A(delta) instead.

``reference_galerkin_spectrum`` eigensolves every block of the pattern
|A|^T |A| + I at one delta; ``adiabatic_ss._galerkin_spectrum`` solves one
block of each mirror pair and copies its eigenvalues to the partner instead.

``reference_galerkin_pairs`` pairs the blocks of the pattern |A|^T |A| + I
joined with its mirror image (``reference_galerkin_pattern``), both formed as
sparse products;
``adiabatic_ss._galerkin_spectrum`` labels the row/column graph of the A_a
joined with its mirror partition instead, with no product.

``reference_kept_block_spectrum`` gathers the kept blocks of one delta's
spectrum from the whole Laplacian A(delta)^H A(delta); the production
``adiabatic_ss._galerkin_spectrum`` forms it over the kept blocks' columns only.

``reference_spectrum_branches`` classifies the branches of a spectrum sweep
one at a time and fits each near-zero branch off the floor with its own
``np.polyfit``; ``adiabatic_ss.spectrum_sweep`` classifies them in boolean
arrays and fits them all in one two-dimensional ``np.polyfit`` instead.

``reference_leading`` forms an order-K leading coefficient of the page
recursion over max(K c, page box), which holds it whole and contains the page
box; ``adiabatic_ss._coefficient`` computes only its rows at frequency zero, the
rows a projection onto a page reads, onto the zero box instead.

``reference_second_page`` computes page 2 from a dense page 1 over every key
of the page box, by one generic step of projected leading coefficients and
page-Laplacian kernels; ``PageRecursion`` seeds page 2 in closed form instead.

``ReferencePages`` runs the page recursion eagerly, every step over every
degree and the stop rule over whole pages; ``PageRecursion`` computes one (page, degree) at a time and reads a further
degree for its stop rule only while no witness that the pages go on has
turned up instead.

``reference_harmonic_limit`` reads the stabilized page as forms from
``PageRecursion.entries``, regrades each lift with form arithmetic and splits
the results against the reality involution form by form; the production
``adiabatic_ss.harmonic_limit`` does all of this in coordinates.

``reference_apply_factor`` is the dense product of a base or fiber factor
with a value stack, the einsum the production operators used before they
applied each factor through its nonzero rows (``bigraded._apply_rows``).

``random_bigraded``, ``rho_scale`` and ``sq_norms_batch`` are test inputs
and checks with no production caller: random real forms, the grading
isometry and batched norms.  ``laplacian_delta`` is the polynomial
Laplacian built from the production ``d_delta`` and ``dstar_delta``.
"""

import itertools

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from bundlehodge.adiabatic_ss import (
    Tolerances,
    _blocks,
    _box_rows,
    _boxes,
    _coefficient,
    _component,
    _galerkin_spectrum,
    _gather,
    _layout,
    _mirror_pairs,
    _solve_columns,
    galerkin_polynomial,
)
from bundlehodge.bigraded import (
    _BIDEGREES,
    BigradedForm,
    DeltaPolynomial,
    FrequencyTable,
    TruncationLayout,
    _coupling_terms,
    _factor,
    _multiplier_terms,
    bigraded_inner_product,
    d_delta,
    dstar_delta,
)
from bundlehodge.multiindex import num_indices, wedge_axis_matrix, wedge_pair_matrix


def _base(mat, vals):
    # vals: (keys, nb, nf, ...) -> (keys, mb, nf, ...)
    return np.moveaxis(np.tensordot(mat, vals, axes=(1, 1)), 0, 1)


def _fiber(mat, vals):
    # vals: (keys, nb, nf, ...) -> (keys, nb, mf, ...)
    return np.moveaxis(np.tensordot(mat, vals, axes=(1, 2)), 0, 2)


def reference_apply_factor(mat, stacked, axis):
    """M applied along ``axis`` of a plain or batched value stack (1 for the
    base index, 2 for the fiber index), as one dense einsum."""
    batched = stacked.ndim == 4
    if axis == 1:
        return np.einsum("ab,kbft->kaft" if batched else "ab,kbf->kaf", mat, stacked)
    return np.einsum("gf,kbft->kbgt" if batched else "gf,kbf->kbg", mat, stacked)


def _adjoint(gram, mat, src, dst):
    return np.linalg.inv(gram(src)) @ mat.T @ gram(dst)


def _modes(forms):
    return [(a, key, idx, val) for a, f in enumerate(forms) for key, idx, val in f.entries()]


def _fits(geo, alg, slot):
    return num_indices(geo.n, slot[0]) > 0 and num_indices(alg.dim, slot[1]) > 0


def form_of(geometry, alg, entries):
    """The form holding value at (slot, key) for each (slot, key, value) of
    ``entries``; values at a repeated (slot, key) are summed in order."""
    tables = {}
    for slot, key, value in entries:
        _put(tables.setdefault(slot, {}), tuple(int(k) for k in key), np.asarray(value, dtype=complex))
    return BigradedForm(geometry, alg, tables)


def _put(table, key, val):
    table[key] = table[key] + val if key in table else val


def _add(out, slot, keys, vals, coeffs, q):
    """Add coeffs[k] * vals[k] at key k + q, one key at a time."""
    table = out.setdefault(slot, {})
    for key, val, coeff in zip(keys, vals, coeffs):
        _put(table, tuple(k + s for k, s in zip(key, q)), coeff * val)


def _apply(form, conn, which, adjoint):
    geo, alg = form.geometry, form.alg
    n = geo.n
    zero = (0,) * n
    connection = _modes(conn.a_forms)
    curvature = _modes(conn.curvature_forms())
    out = {}  # slot -> {key: value}
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
    return BigradedForm(geo, alg, out).prune()


def reference_d(form, conn, which):
    """d^(which) of a form: which = 0 (vertical), 1 (horizontal), 2 (contraction)."""
    return _apply(form, conn, which, adjoint=False)


def reference_dstar(form, conn, which):
    """The adjoint of reference_d(., conn, which), piece by piece."""
    return _apply(form, conn, which, adjoint=True)


def tables_of(form):
    """{slot: {key: value}} of a form, in slot and row order."""
    return {slot: dict(table.items()) for slot, table in form.components.items()}


def reference_sum(a, b):
    """a + b: a's slots and keys first, values at a common key summed."""
    out = {slot: dict(table) for slot, table in a.items()}
    for slot, table in b.items():
        dest = out.setdefault(slot, {})
        for key, val in table.items():
            _put(dest, key, val)
    return out


def reference_scale(a, scalar):
    return {slot: {key: scalar * val for key, val in table.items()} for slot, table in a.items()}


def reference_prune(a, tol=0.0):
    """Drop the values whose entries are all at most tol in modulus (a NaN is
    kept), then the slots left empty."""
    out = {}
    for slot, table in a.items():
        kept = {key: val for key, val in table.items() if not np.all(np.abs(val) <= tol)}
        if kept:
            out[slot] = kept
    return out


def reference_is_zero(a):
    return all(not np.any(val) for table in a.values() for val in table.values())


def reference_inner_product(geometry, alg, a, b):
    """Volume x the sum over common slots and keys, both in sorted order, of
    the Gram pairing of one key's values."""
    total = 0.0 + 0.0j
    for i, j in sorted(set(a) & set(b)):
        for key in sorted(set(a[(i, j)]) & set(b[(i, j)])):
            u, v = a[(i, j)][key], b[(i, j)][key]
            total += np.sum(np.conj(u) * (geometry.gram(i) @ v @ alg.gram(j)))
    return geometry.volume * total


def reference_vector_from_form(layout, a):
    """Orthonormal coordinates of the in-box values and the norm of the
    layout's slots outside the box, one key at a time in row order."""
    vec = np.zeros(layout.dim, dtype=complex)
    cut_sq = 0.0
    geo, alg = layout.geometry, layout.alg
    key_pos = {key: pos for pos, key in enumerate(map(tuple, layout.key_array.tolist()))}
    for slot in layout.slots:
        lb, lf, _, _ = layout.factors[slot]
        nb, nf = layout.shapes[slot]
        for key, val in a.get(slot, {}).items():
            if key in key_pos:
                start = layout.offsets[slot] + key_pos[key] * nb * nf
                vec[start : start + nb * nf] = (np.sqrt(geo.volume) * (lb.T @ val @ lf)).reshape(-1)
            else:
                gram = geo.gram(slot[0]) @ val @ alg.gram(slot[1])
                cut_sq += geo.volume * float(np.sum(np.conj(val) * gram).real)
    return vec, float(np.sqrt(max(cut_sq, 0.0)))


def reference_form_from_vector(layout, vec):
    """Tables of the nonzero coordinate blocks, keys in box order."""
    out = {}
    for slot in layout.slots:
        nb, nf = layout.shapes[slot]
        _, _, lb_invT, lf_inv = layout.factors[slot]
        table = {}
        for pos, key in enumerate(map(tuple, layout.key_array.tolist())):
            start = layout.offsets[slot] + pos * nb * nf
            hat = vec[start : start + nb * nf].reshape(nb, nf)
            if np.any(hat):
                table[key] = (lb_invT @ hat @ lf_inv) / np.sqrt(layout.geometry.volume)
        if table:
            out[slot] = table
    return out


def reference_accumulate(keys, unshifted, groups, move):
    """Destination table of ``bigraded._accumulate``, one key at a time.

    Keys appear in first-seen order: the source keys when ``unshifted`` is
    given, then for each shift q, in the order the shifts first appear over
    the groups, the images key + q in key order.  A row is the unshifted
    value, then per q the group sum sum_g v_gq moved_g taken in group order.
    Rows that are exactly zero are dropped; a row holding a NaN is kept.
    """
    moved = {group: move(*group) for group in groups}
    shifts = {}
    for group, qvs in groups.items():
        for q, v in qvs:
            shifts.setdefault(q, []).append((group, v))
    table = {}
    if unshifted is not None:
        table.update(zip(keys, unshifted))
    for q, terms in shifts.items():
        for row, key in enumerate(keys):
            total = None
            for group, v in terms:
                part = v * moved[group][row]
                total = part if total is None else total + part
            dest = tuple(k + s for k, s in zip(key, q))
            table[dest] = table[dest] + total if dest in table else total
    return {key: val for key, val in table.items() if np.any(val)}


def reference_component_matrix(conn, which, src, dst):
    """CSR matrix of d^(which) from layout src to layout dst, one term at a time.

    Entries run by slot, then term, then source key, then row-major over
    the local block kron(L_out^T B L_in^-T, L_out^T F L_in^-T); output
    outside dst is dropped and terms with a zero local block are skipped.
    """
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    keys = src.key_array.astype(int)
    float_keys = keys.astype(float)
    dst_bands = np.array(dst.bands)
    dst_dims = tuple(2 * b + 1 for b in dst.bands)
    for i, j in src.slots:
        target = (i + _BIDEGREES[which][0], j + _BIDEGREES[which][1])
        if target not in dst.offsets:
            continue
        lb_out, lf_out, _, _ = dst.factors[target]
        _, _, lb_invT, lf_inv = src.factors[(i, j)]
        terms = _multiplier_terms(conn.geometry.n, which, i, j, float_keys)
        for q, coeff, base, fiber in terms + _coupling_terms(conn, which, i, j):
            b_mat, f_mat = _factor(conn.geometry, base), _factor(conn.alg, fiber)
            local = np.kron(lb_out.T @ b_mat @ lb_invT, lf_out.T @ f_mat @ lf_inv.T)
            n_row, n_col = local.shape
            l_row, l_col = np.nonzero(local)
            l_val = local[l_row, l_col]
            if not l_val.size:
                continue
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


def csr_bytes(mat):
    """Shape, and dtype and bytes of the data, indices and indptr of a CSR
    matrix: equal exactly when two matrices are bitwise the same."""
    return mat.shape, [(arr.dtype, arr.tobytes()) for arr in (mat.data, mat.indices, mat.indptr)]


def reference_blocks(pattern):
    """The blocks of a sparse pattern as ``adiabatic_ss._blocks`` returns them, from
    scipy's weak connected components of the graph joining row r to column c
    when the pattern holds (r, c)."""
    m, n = pattern.shape
    pattern = pattern.tocsr()
    indptr = np.concatenate([pattern.indptr, np.full(n, pattern.nnz, dtype=pattern.indptr.dtype)])
    graph = scipy.sparse.csr_matrix((np.ones(pattern.nnz), m + pattern.indices, indptr), (m + n,) * 2)
    count, labels = connected_components(graph, connection="weak")
    sizes = np.stack([np.bincount(part, minlength=count) for part in (labels[:m], labels[m:])], 1)
    shapes, group, counts = np.unique(sizes, axis=0, return_inverse=True, return_counts=True)
    # nodes by shape group, then component, then index; rows before columns
    order = np.lexsort((labels, group[labels]))
    bounds = np.cumsum(counts[:, None] * shapes, axis=0)[:-1]
    rows = np.split(order[order < m], bounds[:, 0])
    cols = np.split(order[order >= m] - m, bounds[:, 1])
    groups = zip(shapes, counts, rows, cols)
    return [(r.reshape(k, nr), c.reshape(k, nc)) for (nr, nc), k, r, c in groups]


def reference_block_pinv(mat):
    """(rows, cols, stacked pseudoinverses) per block shape of ``mat``, from the SVD
    of every block, with the singular-value cut of lstsq(rcond=None) on the whole
    matrix: max(mat.shape) x eps x its largest one."""
    blocks = _blocks(mat)
    svds = [
        (r, c, np.linalg.svd(stack, full_matrices=False))
        for (r, c), stack in zip(blocks, _gather(mat, blocks))
    ]
    top = max((np.max(s, initial=0.0) for _, _, (_, s, _) in svds), default=0.0)
    cut = max(mat.shape) * np.finfo(float).eps * top
    pinvs = []
    for r, c, (u, s, vh) in svds:
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
        pinvs.append((r, c, (vh.conj().swapaxes(1, 2) * inv[:, None, :]) @ u.conj().swapaxes(1, 2)))
    return pinvs


def reference_block_solve(mat, rhs):
    """The minimal-norm least-squares solutions of mat x = rhs, every block's
    pseudoinverse from reference_block_pinv applied to its rows of ``rhs``."""
    x = np.zeros((mat.shape[1], rhs.shape[1]), dtype=complex)
    for rows, cols, pinv in reference_block_pinv(mat):
        x[cols] = pinv @ rhs[rows]
    return x


def assert_block_lstsq_matches_reference(mat, rhs, x):
    """``x`` equals reference_block_solve bit for bit on every block that holds a
    row where ``rhs`` is nonzero (or NaN), and is exact +0 on every other block,
    where the reference holds zeros of either sign."""
    ref = reference_block_solve(mat, rhs)
    touched = np.zeros(mat.shape[1], dtype=bool)
    for rows, cols in _blocks(mat):
        touched[cols[np.any(rhs[rows] != 0, axis=(1, 2))]] = True
    assert x.shape == ref.shape and x.dtype == ref.dtype
    assert x[touched].tobytes() == ref[touched].tobytes()
    assert not x[~touched].view(np.uint64).any()
    assert not ref[~touched].any()


def reference_correction_system(conn, degree, order):
    """(layouts of w_0 .. w_order, matrix on w_1 .. w_order, matrix on w_0) of the
    order-``order`` correction system of degree-p vectors at frequency zero.

    One ``bmat`` over the block grid: block row t = 1 .. order is the d rows
    into degree p + 1, then the d* rows into degree p - 1, both over the box
    t c, with block (t, s) = d_(t-s) or d*_(t-s) for s = max(t - 2, 0) .. t,
    read from the connection's cached component matrices; the two matrices are
    column slices of the whole.  Only equations 1 and 2 have a w_0 block, so the
    rows of later equations are empty in the matrix on w_0.
    """
    boxes = _boxes(conn, order)
    rows = []
    for t in range(1, order + 1):
        up, down = (degree + 1, boxes[t]), (degree - 1, boxes[t])
        row_d, row_s = [None] * (order + 1), [None] * (order + 1)
        for s in range(max(t - 2, 0), t + 1):
            row_d[s] = _component(conn, t - s, (degree, boxes[s]), up)
            row_s[s] = _component(conn, t - s, down, (degree, boxes[s])).conj().T
        rows += [row_d, row_s]
    full = scipy.sparse.bmat(rows, format="csr")
    unknowns = [_layout(conn, degree, box) for box in boxes]
    n0 = unknowns[0].dim
    return unknowns, full[:, n0:], full[:, :n0]


def reference_galerkin_polynomial(conn, total_degree, bands):
    """(layout of the box X, [M_0 .. M_4]) with the compressed Laplacian
    L_delta = sum_r delta^r M_r.  With c the coupling band, S_a maps X in degree
    p to X + c in degree p + 1 and T_a maps X + c in degree p - 1 to X; then
    M_r = sum_{a+b=r} T_a T_b^H + S_b^H S_a."""
    geo, alg = conn.geometry, conn.alg
    wide = tuple(b + c for b, c in zip(bands, conn.coupling_bands()))
    layout = TruncationLayout.of_degree(geo, alg, total_degree, bands)
    up = TruncationLayout.of_degree(geo, alg, total_degree + 1, wide)
    down = TruncationLayout.of_degree(geo, alg, total_degree - 1, wide)
    s = [reference_component_matrix(conn, a, layout, up) for a in range(3)]
    t = [reference_component_matrix(conn, a, down, layout) for a in range(3)]
    mats = []
    for r in range(5):
        total = scipy.sparse.csr_matrix((layout.dim, layout.dim), dtype=complex)
        for a in range(max(r - 2, 0), min(r, 2) + 1):
            b = r - a
            total = total + t[a] @ t[b].conj().T + s[b].conj().T @ s[a]
        mats.append(total)
    return layout, mats


def reference_galerkin_spectrum(conn, total_degree, delta, bands):
    """Ascending eigenvalues of A(delta)^H A(delta) from a stacked eigvalsh of every
    block of the pattern |A|^T |A| + I, |A| = sum_a |A_a|."""
    mats = galerkin_polynomial(conn, total_degree, bands)[1]
    stacked = sum(float(delta) ** a * m for a, m in enumerate(mats))
    pattern = sum(abs(m) for m in mats)
    blocks = _blocks(pattern.T @ pattern + scipy.sparse.identity(pattern.shape[1]))
    lap = stacked.conj().T @ stacked
    evals = [np.linalg.eigvalsh(stack).ravel() for stack in _gather(lap, blocks)]
    return np.sort(np.concatenate([np.zeros(0)] + evals))


def reference_galerkin_pattern(conn, total_degree, bands):
    """(G + swap G swap + I, mirror) for the Galerkin matrices of one degree, with
    G = |A|^T |A|, |A| = sum_a |A_a|, mirror that of the degree layout and swap
    its permutation matrix, so that swap G swap is G[mirror][:, mirror]."""
    layout, mats = galerkin_polynomial(conn, total_degree, bands)
    pattern = sum(abs(m) for m in mats)
    n = pattern.shape[1]
    mirror = layout.mirror()
    swap = scipy.sparse.csr_matrix((np.ones(n), mirror, np.arange(n + 1)), shape=(n, n))
    pattern = pattern.T @ pattern
    return pattern + swap @ pattern @ swap + scipy.sparse.identity(n), mirror


def reference_galerkin_pairs(conn, total_degree, bands):
    """(kept, copies) of ``adiabatic_ss._mirror_pairs`` for the Galerkin blocks of one
    degree, numbered over every column: the blocks of reference_galerkin_pattern."""
    pattern, mirror = reference_galerkin_pattern(conn, total_degree, bands)
    return _mirror_pairs(reference_blocks(pattern), mirror)


def assert_galerkin_pairs_match_the_product_oracle(conn, p, box):
    """The kept blocks and copies cached by _galerkin_spectrum (called first),
    numbered back into every column, equal those of the blocks of the sparse
    product pattern joined with its mirror image."""
    _, columns, kept, copies = conn._cache[("galerkin", p, box)]
    want_kept, want_copies = reference_galerkin_pairs(conn, p, box)
    assert len(kept) == len(want_kept) == len(copies) == len(want_copies)
    for (rows, cols), (want_rows, want_cols) in zip(kept, want_kept):
        assert np.array_equal(columns[rows], want_rows) and np.array_equal(columns[cols], want_cols)
    for got, want in zip(copies, want_copies):
        assert np.array_equal(got, want)


def reference_kept_block_spectrum(conn, total_degree, delta, bands):
    """Ascending eigenvalues of A(delta)^H A(delta) at one delta from the whole
    Laplacian of the uncut Galerkin matrices: the kept blocks and copies cached by
    ``_galerkin_spectrum`` (called first), numbered back into every column."""
    _galerkin_spectrum(conn, total_degree, delta, bands)
    _, columns, kept, copies = conn._cache[("galerkin", total_degree, tuple(bands))]
    mats = galerkin_polynomial(conn, total_degree, bands)[1]
    stacked = sum(float(delta) ** a * m for a, m in enumerate(mats))
    lap = stacked.conj().T @ stacked
    whole = [(columns[rows], columns[cols]) for rows, cols in kept]
    evals = [np.linalg.eigvalsh(stack)[copy].ravel() for stack, copy in zip(_gather(lap, whole), copies)]
    return np.sort(np.concatenate([np.zeros(0)] + evals))


def reference_spectrum_branches(report, tolerances=None):
    """The branches of a ``SpectrumReport``, one at a time from its clamped
    eigenvalues, floors and spectral norms: group "inf" at the floor for every
    delta, else a slope of its own ``np.polyfit`` of log eigenvalue against log
    delta when near zero at the smallest delta, grouped at the nearest even
    integer."""
    tolerances = tolerances or Tolerances()
    eigen, floors = report.eigenvalues, np.asarray(report.eigen_floors)
    logs = np.log(np.asarray(report.deltas))
    cut = tolerances.near_zero_cut * max(report.spectral_norms[-1], 1e-300)
    branches = []
    for b in range(eigen.shape[1]):
        values = eigen[:, b]
        is_floor = bool(np.all(values <= floors))
        near_zero = bool(values[0] <= cut)
        slope = group = within = None
        if is_floor:
            group = "inf"
        elif near_zero:
            slope = float(np.polyfit(logs, np.log(np.maximum(values, 1e-300)), 1)[0])
            group = int(2 * max(round(slope / 2.0), 0))
            within = bool(abs(slope - group) <= tolerances.slope_window)
        branches.append(
            {
                "index": b,
                "near_zero": near_zero or is_floor,
                "is_floor": is_floor,
                "slope": slope,
                "group": group,
                "within_tolerance": within,
            }
        )
    return branches


def reference_leading(recursion, K, degree, w, up):
    """Order-K coefficient of d_delta (``up``) or d*_delta on the lifts w = [W_0 ..
    W_(K-1)] of degree-p columns of a PageRecursion, sum over s = max(K - 2, 0) ..
    K - 1 of d_(K-s) W_s: (degree p +- 1 layout over max(K c, page box), its
    coordinates)."""
    conn = recursion.conn
    boxes = _boxes(conn, K)
    outer = (degree + 1 if up else degree - 1, tuple(map(max, boxes[K], recursion.bands)))
    layout = _layout(conn, *outer)
    total = np.zeros((layout.dim, w[0].shape[1]), dtype=complex)
    for s in range(max(K - 2, 0), K):
        if not w[s].any():
            continue
        inner = (degree, boxes[s])
        if up:
            total += _component(conn, K - s, inner, outer) @ w[s]
        else:
            total += (_component(conn, K - s, outer, inner).T @ w[s].conj()).conj()
    return layout, total


def reference_second_page(conn, bands):
    """Page 2 from a dense page 1 over the box ``bands``: per slot (single-slot
    layout over the box, page-2 basis in its coordinates).

    Page 1 of slot (i, j) is kron(I, L_j^T H_j) over every key and base index of
    the box, H_j the harmonic fiber j-forms.  The generic step then maps every
    basis column by d_1 into degree p + 1 over the box widened by the coupling
    band, projects it onto the page-1 basis of slot (i + 1, j), and keeps per slot
    the kernel of the page Laplacian M_out^H M_out + M_in M_in^H, cut at the rank
    tolerance relative to its largest eigenvalue."""
    geo, alg = conn.geometry, conn.alg
    bands = tuple(bands)
    wide = _boxes(conn, 1, bands)[1]
    page = {}
    for i in range(geo.n + 1):
        for j in range(alg.dim + 1):
            coords = TruncationLayout(geo, alg, [(i, j)], bands)
            harm = alg.harmonic_basis(j) if coords.slots else np.zeros((0, 0))
            if harm.shape[1]:
                hat = alg.chol(j).T @ harm
                keys_and_base = len(coords.key_array) * num_indices(geo.n, i)
                page[(i, j)] = (coords, np.kron(np.eye(keys_and_base), hat).astype(complex))
    mats = {}
    for (i, j), (_, basis) in page.items():
        if (i + 1, j) not in page:
            continue
        src, dst = _layout(conn, i + j, bands), _layout(conn, i + j + 1, wide)
        lead = np.zeros((src.dim, basis.shape[1]), dtype=complex)
        lead[_box_rows(src, (i, j), bands)] = basis
        coeff = _component(conn, 1, (i + j, bands), (i + j + 1, wide)) @ lead
        target = page[(i + 1, j)][1]
        mats[(i, j)] = target.conj().T @ coeff[_box_rows(dst, (i + 1, j), bands)]
    scale = 1.0 + sum(abs(v) for *_, v in conn.a_entries() + conn.f_entries())
    floor = 1e-18 * max(scale**4, 1.0)
    second = {}
    for (i, j), (coords, basis) in page.items():
        lap = np.zeros((basis.shape[1],) * 2, dtype=complex)
        if (i, j) in mats:
            lap += mats[(i, j)].conj().T @ mats[(i, j)]
        if (i - 1, j) in mats:
            lap += mats[(i - 1, j)] @ mats[(i - 1, j)].conj().T
        evals, evecs = np.linalg.eigh(0.5 * (lap + lap.conj().T))
        if evals[-1] <= floor:
            second[(i, j)] = (coords, basis)
        else:
            second[(i, j)] = (coords, basis @ evecs[:, evals <= Tolerances().rank * evals[-1]])
    return second


def reference_conjugate_form(form):
    """The reality involution: conjugate coefficients and flip frequencies."""
    return form_of(
        form.geometry,
        form.alg,
        [(slot, tuple(-k for k in key), np.conj(val)) for slot, table in form.components.items() for key, val in table.items()],
    )


def reference_realify(forms, tolerances):
    """Real span of a conjugation-stable family of complex forms: each form is
    split against the reality involution, and the candidates are
    orthonormalized in the bigraded inner product."""
    if not forms:
        return []
    candidates = []
    for form in forms:
        bar = reference_conjugate_form(form)
        candidates.append((0.5 * (form + bar)).prune())
        candidates.append(((-0.5j) * (form - bar)).prune())
    gram = np.array(
        [[bigraded_inner_product(a, b).real for b in candidates] for a in candidates]
    )
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    keep = evals > tolerances.spectral * max(float(evals[-1]), 1e-300)
    assert int(np.sum(keep)) == len(forms)
    out = []
    for s in np.nonzero(keep)[0]:
        combo = BigradedForm.zero(forms[0].geometry, forms[0].alg)
        for a, c in enumerate(evecs[:, s]):
            if c != 0.0:
                combo = combo + (c / np.sqrt(evals[s])) * candidates[a]
        out.append(combo.prune())
    return out


def reference_harmonic_limit(recursion, total_degree):
    """Real orthonormal forms spanning the anti-diagonal constant terms of the
    stabilized lifts: the lift of a leading (i0, j0)-vector contributes the
    (l + i0, p - l - i0)-slot of its order-l coefficient, for every l."""
    limits = []
    for (i0, _), _, lift in recursion.entries(recursion.k_stop, total_degree):
        total = BigradedForm.zero(recursion.geometry, recursion.alg)
        for l in range(total_degree - i0 + 1):
            coeff = lift.coefficient(l)
            slot = (l + i0, total_degree - l - i0)
            if coeff is not None and slot in coeff.components:
                total = total + BigradedForm(
                    recursion.geometry, recursion.alg, {slot: coeff.components[slot]}
                )
        limits.append(total.prune())
    return reference_realify(limits, recursion.tol)


class ReferencePages:
    """The page recursion run eagerly: every step lifts and projects every slot of
    every degree, and the stop rule reads whole pages.  ``PageRecursion`` computes
    one (page, degree) at a time, and its stop rule reads a further degree only
    while no witness that the pages go on has turned up, instead.

    It hands out what ``harmonic_limit`` and the reports read of a recursion
    (``conn``, ``tol``, ``bands``, ``stable_page``, ``_lifts``, ``entries``), and
    keeps every page in ``bases[K][slot]`` and the dims of every page in
    ``dims_history``.  Each step reads the same production pieces in the same
    order as the lazy recursion (``_solve_columns``, ``_coefficient``, the
    projections and the page-Laplacian kernel), so its pages are equal to the
    bit."""

    def __init__(self, conn, bands, k_max=6, tolerances=None):
        self.conn, self.geometry, self.alg = conn, conn.geometry, conn.alg
        self.bands, self.k_max = tuple(bands), int(k_max)
        self.tol = tolerances or Tolerances()
        self.zero = (0,) * self.geometry.n
        n, m = self.geometry.n, self.alg.dim
        self.slots = [(i, j) for i in range(n + 1) for j in range(m + 1)]
        self.bases, self.lifts = {}, {}
        keys = int(np.prod([2 * b + 1 for b in self.bands]))
        self.dims_history = [
            {
                (i, j): r
                for i, j in self.slots
                if (r := keys * num_indices(n, i) * fiber(j))
            }
            for fiber in (lambda j: num_indices(m, j), lambda j: self.alg.harmonic_basis(j).shape[1])
        ]
        scale = 1.0 + sum(abs(v) for *_, v in conn.a_entries() + conn.f_entries())
        self.floor = 1e-18 * max(scale**4, 1.0)
        bound = min(n, m + 1) + 1
        K, self.stabilized = 1, False
        while K < min(self.k_max, bound):
            self.bases[K + 1] = self._second_page() if K == 1 else self._step(K)
            K += 1
            dims = {slot: basis.shape[1] for slot, basis in self.bases[K].items()}
            self.dims_history.append(dims)
            later = any(
                (i + k, j - k + 1) in dims for k in range(K, bound) for i, j in dims
            )
            if K >= bound or (dims == self.dims_history[K - 1] and not later):
                self.stabilized = True
                break
        self.k_stop = K

    def _second_page(self):
        bases = {}
        for i, j in self.slots:
            harm = self.alg.harmonic_basis(j)
            if harm.shape[1]:
                hat = self.alg.chol(j).T @ harm
                bases[(i, j)] = np.kron(np.eye(num_indices(self.geometry.n, i)), hat).astype(complex)
        return bases

    def _lifts(self, K, degree):
        lifts = self.lifts.setdefault(K, {})
        for slot, basis in self.bases[K].items():
            if sum(slot) == degree and slot not in lifts:
                layout = _layout(self.conn, degree, self.zero)
                lead = np.zeros((layout.dim, basis.shape[1]), dtype=complex)
                lead[_box_rows(layout, slot, self.zero)] = basis
                lifts[slot] = [lead] + _solve_columns(self.conn, degree, lead, K - 1, self.tol)
        return {slot: w for slot, w in lifts.items() if sum(slot) == degree}

    def _step(self, K):
        bases = self.bases[K]
        adjoints = {slot: basis.conj().T for slot, basis in bases.items()}
        mats = {}
        for (i, j) in bases:
            lifts = self._lifts(K, i + j)[(i, j)]
            target = (i + K, j - K + 1)
            layout, coeff = _coefficient(self.conn, K, i + j, lifts, True, self.zero)
            if target in adjoints and target in layout.offsets:
                start = layout.offsets[target]
                mats[(i, j)] = adjoints[target] @ coeff[start : start + adjoints[target].shape[1]]
        new = {}
        for (i, j), basis in bases.items():
            lap = np.zeros((basis.shape[1],) * 2, dtype=complex)
            if (i, j) in mats:
                lap += mats[(i, j)].conj().T @ mats[(i, j)]
            if (i - K, j + K - 1) in mats:
                lap += mats[(i - K, j + K - 1)] @ mats[(i - K, j + K - 1)].conj().T
            evals, evecs = np.linalg.eigh(0.5 * (lap + lap.conj().T))
            if evals[-1] <= self.floor:
                kernel = np.eye(basis.shape[1], dtype=complex)
            else:
                kernel = evecs[:, evals <= self.tol.rank * evals[-1]]
            if kernel.shape[1]:
                new[(i, j)] = basis @ kernel
        return new

    def stable_page(self):
        assert self.stabilized
        return self.k_stop

    def dims_for_degree(self, K, degree):
        return {slot: r for slot, r in self.dims_history[K].items() if sum(slot) == degree}

    def entries(self, K, degree):
        layouts = [_layout(self.conn, degree, box) for box in _boxes(self.conn, K - 1)]
        out = []
        for slot, w in self._lifts(K, degree).items():
            for col in range(w[0].shape[1]):
                terms = [layout.form_from_vector(x[:, col]) for layout, x in zip(layouts, w)]
                out.append((slot, terms[0], DeltaPolynomial(terms)))
        return out


# -- test inputs ------------------------------------------------------------------


def random_bigraded(geometry, alg, total_degree, bands, rng, batch=None):
    """Real random form spread over every slot with i + j = total_degree."""
    keys = np.array(list(itertools.product(*[range(-b, b + 1) for b in bands])), dtype=np.int64)
    comps = {}
    for i in range(min(geometry.n, total_degree) + 1):
        j = total_degree - i
        if j < 0 or j > alg.dim:
            continue
        nb = num_indices(geometry.n, i)
        nf = num_indices(alg.dim, j)
        if nb == 0 or nf == 0:
            continue
        shape = (nb, nf) if batch is None else (nb, nf, batch)
        # per key a real draw, then an imaginary one
        draws = rng.standard_normal((len(keys), 2) + shape)
        table = draws[:, 0] + 1j * draws[:, 1]
        # reality: value at -k is the conjugate of the value at k; the box
        # lists its keys in lexicographic order, so -k runs in reverse
        comps[(i, j)] = FrequencyTable(keys, 0.5 * (table + np.conj(table[::-1])))
    return BigradedForm(geometry, alg, comps)


def rho_scale(form, delta, inverse=False):
    """Grading isometry: multiply the (i, j)-component by delta^(+-i)."""
    return form._with(
        {
            (i, j): FrequencyTable(t.key_array, float(delta) ** (-i if inverse else i) * t.stack)
            for (i, j), t in form.components.items()
        }
    )


def sq_norms_batch(form):
    """Per-batch-slice squared norms of a batched bigraded form."""
    geo = form.geometry
    alg = form.alg
    total = None
    for (i, j), table in form.components.items():
        if not len(table):
            continue
        moved = np.einsum("bc,kcgt,fg->kbft", geo.gram(i), table.stack, alg.gram(j))
        contrib = np.einsum("kbft,kbft->t", np.conj(table.stack), moved).real
        total = contrib if total is None else total + contrib
    return geo.volume * total if total is not None else None


def laplacian_delta(poly, conn):
    """d_delta d*_delta + d*_delta d_delta, exactly as polynomials."""
    return d_delta(dstar_delta(poly, conn), conn) + dstar_delta(d_delta(poly, conn), conn)
