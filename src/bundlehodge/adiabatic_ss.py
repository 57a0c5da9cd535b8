"""Pages of the adiabatic spectral sequence and the harmonic limit.

The page E_K^{i,j} collects band-limited forms admitting polynomial lifts
omega + delta omega_1 + ... whose rescaled differential and codifferential
both vanish through order delta^(K-1).  Each next page is the kernel of a
Hodge-style Laplacian built from the projected leading coefficients; lifts
are the minimal-norm (canonical) least-squares solutions of the sparse
correction systems, each order's built in one pass from the cached component
matrices, and the order-4 recovery of the base primitive solves d_M and its
adjoint over the (3,0) slot the same way.  Each sparse system, and the
compressed Laplacian, splits exactly into the connected components of its
pattern, solved densely, one stacked call per shape; a block above a fixed
number of entries is rejected, since a connection that couples several axes
joins the whole box into one block.  A least-squares system is decomposed
only on the blocks its right-hand side touches, with the singular-value cut
of the whole matrix.  The blocks of the compressed Laplacian pair up under
the reality involution x -> conj(x[mirror]), and one block of each pair is
eigensolved.

The recursion computes one (page, degree) at a time, on first use: page K + 1
in degree p reads page K in degrees p - 1 .. p + 1 only, so a report of one
degree computes the cone of pages it rests on, and the stop rule, which is
global, reads a further degree only while it has found no witness that the
pages go on.  Pages 1 and 2 are closed form, and every page basis from page 2
on lies at frequency zero, so each correction system is posed there only, its
unknowns over the boxes t c of the coupling band c.  Its right-hand side is
minus the leading coefficients of the page vector alone, read by the same
product as the page projections (``_coefficient``); a lift whose right-hand
side is exactly zero is zero, and no system is posed for it.  The recursion
works on coordinate matrices, and its component matrices are cached on the
connection, where the Galerkin Laplacian reads them too.  ``harmonic_limit``
gathers and realifies the stabilized page in coordinates; forms are built for
its formal check and its output, and when ``PageRecursion.entries`` hands a
page out.

Only the leading coefficients are truncated, to the zero box a page holds;
every operator application on lifts is exact, with corrections confined to
frequency boxes that provably contain the minimal-norm solution (the
coupling of the connection widens reachable frequencies by at most its own
band per order), and each equation posed over a box that holds it whole.
"""

import numpy as np

from .bigraded import (
    BigradedForm,
    DeltaPolynomial,
    TruncationLayout,
    coefficient_norms,
    csr_entries,
    csr_from_entries,
    d_component_matrix,
    d_delta,
    dstar_delta,
    to_fourier,
)
from .errors import ConfigError, NotExact, SolverFailure
from .multiindex import num_indices


class Tolerances:
    """Numerical thresholds used across the page computation.

    The residual bound of the exact block solves, the near-zero cut of a
    spectrum and the decay slope window are fixed; the others can be declared.
    """

    solver = 1e-12
    near_zero_cut = 0.02
    slope_window = 0.3

    def __init__(self, formal=1e-10, rank=1e-10, spectral=1e-8):
        self.formal = float(formal)
        self.rank = float(rank)
        self.spectral = float(spectral)


# -- residual orders and formal verification -----------------------------------


def residual_orders(poly, conn):
    """Norms of every polynomial coefficient of d_delta and d*_delta."""
    return coefficient_norms(d_delta(poly, conn)), coefficient_norms(dstar_delta(poly, conn))


def verify_formal_harmonic(poly, conn, order, tolerances=None):
    """Check that both residuals vanish at every order below ``order``, up
    to tolerances.formal relative to the size of the polynomial."""
    from .bigraded import poly_norm

    tolerances = tolerances or Tolerances()
    d_list, s_list = residual_orders(poly, conn)
    tol = tolerances.formal * (1.0 + poly_norm(poly))
    report = {
        "order": order,
        "tolerance": tol,
        "orders_d": d_list,
        "orders_dstar": s_list,
        "passed": True,
        "failures": [],
    }
    for m, val in d_list + s_list:
        if m < order and val > tol:
            report["passed"] = False
            report["failures"].append((m, val))
    return report


# -- correction systems on the sparse matrix layer -----------------------------

# entries of the largest dense block solved (512 MiB complex, a square block of
# dimension 5792); a connection coupling several axes joins the whole box into one
_MAX_BLOCK_ENTRIES = 2**25


def _components(size, u, v):
    """Connected components of the graph on nodes 0 .. size - 1 with the undirected
    edges (u[e], v[e]): per node the number of its component, the components
    numbered by their smallest node, as scipy's weak connected_components numbers
    them.  Each round hooks every root under the smallest of the smaller roots its
    edges join it to, and follows the parents until every node points at its root;
    an edge whose two ends share a root is dropped, and the rounds end when none is
    left.  A parent is never above its node, so each root is the smallest node of
    its tree."""
    parent = np.arange(size)
    while u.size:
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    return np.cumsum(parent == np.arange(size))[parent] - 1


def _blocks(pattern):
    """Blocks of a sparse pattern, the connected components of its graph joining row r
    to column c when it holds (r, c): index arrays (count, nr) and (count, nc) per
    block shape (nr, nc).  A zero row is a (1, 0) block, a zero column a (0, 1) block.
    ConfigError when a block holds more than _MAX_BLOCK_ENTRIES entries."""
    m, n = pattern.shape
    row, col, _ = csr_entries(pattern.tocsr())
    labels = _components(m + n, row, m + col)
    return _split(labels[:m], labels[m:])


def _split(row_labels, col_labels):
    """The blocks of _blocks from the component of every row and every column, the
    components numbered 0 .. count - 1: grouped by block shape, each group's blocks
    in the order of their numbers, each block's indices ascending."""
    m, n = row_labels.size, col_labels.size
    count = 1 + max(np.max(row_labels, initial=-1), np.max(col_labels, initial=-1))
    # each component's shape (nr, nc) as the one integer nr (n + 1) + nc, which
    # sorts as the pair does; np.unique over rows of pairs is several times slower
    nrows, ncols = (np.bincount(part, minlength=count) for part in (row_labels, col_labels))
    codes, group, counts = np.unique(nrows * (n + 1) + ncols, return_inverse=True, return_counts=True)
    shapes = np.stack(np.divmod(codes, n + 1), 1)
    entries = shapes[:, 0] * shapes[:, 1]
    if np.any(entries > _MAX_BLOCK_ENTRIES):
        nr, nc = shapes[np.argmax(entries)]
        raise ConfigError(
            f"a {m} x {n} sparse system couples {nr} rows and {nc} columns into one block, "
            f"above the dense limit of 2**25 entries; choose a smaller frequency box"
        )
    # indices by shape group, then component, then index
    bounds = np.cumsum(counts[:, None] * shapes, axis=0)[:-1]
    rows = np.split(np.lexsort((row_labels, group[row_labels])), bounds[:, 0])
    cols = np.split(np.lexsort((col_labels, group[col_labels])), bounds[:, 1])
    groups = zip(shapes, counts, rows, cols)
    return [(r.reshape(k, nr), c.reshape(k, nc)) for (nr, nc), k, r, c in groups]


def _gather(mat, blocks):
    """The dense blocks of every shape group of ``blocks`` (from _blocks, or a subset of
    its blocks per group), stacked per group, from one pass over the nonzeros of ``mat``
    in those blocks' rows: a generator of one (count, nr, nc) stack per group, each entry
    summed in the row-major order of the stored entries."""
    m, n = mat.shape
    row, col, val = csr_entries(mat.tocsr())
    # per row: its group (len(blocks) outside them) and its row-major offset in the
    # group's stack; per column: its offset within a block row
    group, row_at, col_at = np.full(m, len(blocks)), np.zeros(m, dtype=int), np.zeros(n, dtype=int)
    for g, (rows, cols) in enumerate(blocks):
        group[rows.ravel()] = g
        row_at[rows.ravel()] = np.arange(rows.size) * cols.shape[1]
        col_at[cols] = np.arange(cols.shape[1])
    at = group[row]
    kept = np.flatnonzero(at < len(blocks))
    order = kept[np.argsort(at[kept], kind="stable")]
    place = (row_at[row] + col_at[col])[order]
    bounds = np.searchsorted(at[order], np.arange(len(blocks) + 1))
    data = val[order]
    for (rows, cols), lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
        stack = np.zeros(rows.size * cols.shape[1], dtype=mat.dtype)
        np.add.at(stack, place[lo:hi], data[lo:hi])
        yield stack.reshape(rows.shape + cols.shape[1:])


def _svds(mat, blocks):
    """(rows, cols, (u, s, vh)) of the stacked thin SVDs of ``blocks`` of ``mat``."""
    try:
        return [
            (r, c, np.linalg.svd(stack, full_matrices=False))
            for (r, c), stack in zip(blocks, _gather(mat, blocks))
        ]
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"block SVD of a {mat.shape[0]} x {mat.shape[1]} system failed: {err}")


def _block_lstsq(mat, blocks, rhs, tolerances, what, order):
    """Minimal-norm least-squares solutions of mat x = rhs, ``blocks`` the split of
    ``mat`` from _blocks.  Only the blocks holding a row where ``rhs`` is nonzero (a NaN
    counts as nonzero) are decomposed and solved; x is exact zeros on every other block.

    Each solved block is applied through its pseudoinverse with the singular-value cut
    of lstsq(rcond=None) on the whole matrix: max(mat.shape) x eps x the largest
    singular value of any block.  That top lies between the largest singular value of
    the solved blocks and the largest Frobenius norm of the others; only when a solved
    singular value falls between the cuts of the two is every block decomposed for the
    exact top.  SolverFailure when a residual |rhs - mat x| is not at most
    tolerances.solver * (1 + |rhs|), a NaN residual included.
    """
    # per row the number of its block, counted across the shape groups
    starts = np.cumsum([0] + [len(rows) for rows, _ in blocks])
    label = np.zeros(mat.shape[0], dtype=int)
    for (rows, _), start in zip(blocks, starts):
        label[rows] = start + np.arange(len(rows))[:, None]
    hit = np.zeros(starts[-1], dtype=bool)
    hit[label[np.any(rhs != 0, axis=1)]] = True
    touched = [(r[h], c[h]) for (r, c), h in zip(blocks, np.split(hit, starts[1:-1])) if h.any()]
    svds = _svds(mat, touched)
    scale = max(mat.shape) * np.finfo(float).eps
    low = max((np.max(s, initial=0.0) for _, _, (_, s, _) in svds), default=0.0)
    # block Frobenius norms from the absolute entries, duplicates summed: a bound on
    # each block's largest singular value, widened past the rounding of both
    absolute = abs(mat.tocsr())
    absolute.sum_duplicates()
    row, _, val = csr_entries(absolute)
    norms = np.sqrt(np.bincount(label[row], weights=val**2, minlength=hit.size))
    high = max(low, float(np.max(norms[~hit], initial=0.0)) * (1 + 1e-10))
    cut = scale * low
    if any(np.any((s > cut) & (s <= scale * high)) for _, _, (_, s, _) in svds):
        top = max((np.max(s, initial=0.0) for _, _, (_, s, _) in _svds(mat, blocks)), default=0.0)
        cut = scale * top
    x = np.zeros((mat.shape[1], rhs.shape[1]), dtype=complex)
    for rows, cols, (u, s, vh) in svds:
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
        x[cols] = ((vh.conj().swapaxes(1, 2) * inv[:, None, :]) @ u.conj().swapaxes(1, 2)) @ rhs[rows]
    tol_abs = tolerances.solver * (1.0 + np.linalg.norm(rhs, axis=0))
    res = np.linalg.norm(rhs - mat @ x, axis=0)
    for r in res[~(res <= tol_abs)][:1]:
        raise SolverFailure(f"{what} stalled at residual {r:.3e}", order=order, residual=float(r))
    return x


def _layout(conn, degree, box):
    """TruncationLayout of one total degree over one box, cached on the connection."""
    key = ("layout", degree, box)
    if key not in conn._cache:
        conn._cache[key] = TruncationLayout.of_degree(conn.geometry, conn.alg, degree, box)
    return conn._cache[key]


def _component(conn, which, src, dst):
    """d_component_matrix between two (degree, box) layouts, cached on the connection."""
    key = ("component", which, src, dst)
    if key not in conn._cache:
        conn._cache[key] = d_component_matrix(
            conn, which, _layout(conn, *src), _layout(conn, *dst)
        )
    return conn._cache[key]


def _transposed(conn, which, src, dst):
    """The transpose of the _component matrix, a CSC view of its arrays, cached on
    the connection: scipy builds a new object on each transpose, which costs as
    much as the small product it serves."""
    key = ("transposed", which, src, dst)
    if key not in conn._cache:
        conn._cache[key] = _component(conn, which, src, dst).T
    return conn._cache[key]


def _boxes(conn, order, reach=None):
    """The boxes reach + s c, s = 0 .. order, c the coupling band; reach is the
    zero box unless given."""
    reach = reach or (0,) * conn.geometry.n
    return [tuple(r + s * c for r, c in zip(reach, conn.coupling_bands())) for s in range(order + 1)]


def _box_rows(layout, slot, box):
    """Rows of one slot of a layout with frequency inside a box.

    A box lists its keys in lexicographic order, so the inside rows of a
    wider layout run in the order of the box's own coordinates.
    """
    nb, nf = layout.shapes[slot]
    inside = np.all(np.abs(layout.key_array) <= np.array(box), axis=1)
    rows = layout.offsets[slot] + np.arange(inside.size * nb * nf).reshape(inside.size, -1)
    return rows[inside].ravel()


def _adjoint_entries(mat):
    """(rows, columns, values) of the conjugate transpose of a CSR matrix, in the
    storage order of ``mat``."""
    row, col, val = csr_entries(mat)
    return col, row, np.conj(val)


def _csr(blocks, shape):
    """One CSR matrix from disjoint blocks of (rows, columns, values)."""
    return csr_from_entries(*(np.concatenate(part) for part in zip(*blocks)), shape)


def _coefficient(conn, K, degree, w, up, box):
    """Order-K coefficient of d_delta (``up``) or d*_delta on the lift terms
    w = [W_0, W_1, ...] of degree-p columns, W_s over the degree layout of the
    box s c: sum over s = max(K - 2, 0) .. K - 1 of d_(K-s) W_s, the terms past
    w absent.  Returns the degree p +- 1 layout of ``box`` and the coefficient's
    coordinates there; each row of a component matrix is the same whatever
    other rows its target holds, so a box that does not hold the coefficient
    whole gives its rows inside the box exactly.  An exactly-zero W_s adds
    nothing, and its component matrix is not built."""
    coupling = conn.coupling_bands()
    outer = (degree + 1 if up else degree - 1, box)
    layout = _layout(conn, *outer)
    total = np.zeros((layout.dim, w[0].shape[1]), dtype=complex)
    for s in range(max(K - 2, 0), min(K, len(w))):
        if not w[s].any():
            continue
        inner = (degree, tuple(s * c for c in coupling))
        if up:
            total += _component(conn, K - s, inner, outer) @ w[s]
        else:
            # conj(C^T conj(W)), not C^H W: C.conj() would copy C on every call
            total += (_transposed(conn, K - s, outer, inner) @ w[s].conj()).conj()
    return layout, total


def _correction_system(conn, degree, order):
    """Correction operator of the order-``order`` lifts of degree-p vectors at
    frequency zero, cached on the connection.

    The unknown w_s (s = 1 .. order; w_0 is the vector itself) lives in the box
    s c, c the coupling band; equation t = 1 .. order asks that sum_a d_a
    w_(t-a) and sum_a d*_a w_(t-a) vanish, in the degree p + 1 and p - 1 layouts
    over the box t c, which hold them whole.  Block (t, s) is d_(t-s), or
    d*_(t-s) as the conjugate transpose of the matrix from degree p - 1; the
    terms in w_0 form the right-hand side (_solve_columns).  Returns (matrix on
    w_1 .. w_order, its blocks from _blocks), the matrix one CSR build from the
    cached component matrices.
    """
    key = ("corrections", degree, order)
    if key not in conn._cache:
        boxes = _boxes(conn, order)
        # column offset of each w_s, s >= 1
        starts = np.cumsum([0] + [_layout(conn, degree, box).dim for box in boxes[1:]]).tolist()
        height, blocks = 0, []
        for t in range(1, order + 1):
            for other in (degree + 1, degree - 1):
                for s in range(max(t - 2, 1), t + 1):
                    unknown, equation = (degree, boxes[s]), (other, boxes[t])
                    if other > degree:
                        row, col, val = csr_entries(_component(conn, t - s, unknown, equation))
                    else:
                        row, col, val = _adjoint_entries(_component(conn, t - s, equation, unknown))
                    blocks.append((row + height, col + starts[s - 1], val))
                height += _layout(conn, other, boxes[t]).dim
        mat = _csr(blocks, (height, starts[-1]))
        conn._cache[key] = (mat, _blocks(mat))
    return conn._cache[key]


def _solve_columns(conn, degree, lead, order, tolerances):
    """Minimal-norm corrections of the columns of ``lead``, coordinates of
    degree-p vectors over the layout of the zero box.

    Equation t of the right-hand side is minus the order-t coefficient of
    d_delta, then of d*_delta, on [lead] alone over the box t c: zero past t = 2.
    When it is exactly zero, as it is for page bases whose coupling terms all
    vanish, the minimal-norm corrections are zero, returned without posing the
    system; otherwise all columns are solved at once on the correction system,
    on the blocks the right-hand side touches.
    Returns [W_1 .. W_order], W_t the corrections over the box t c with one
    column per column of ``lead``.  Raises SolverFailure when a column's system
    cannot be driven to zero (it is not on the page).
    """
    boxes = _boxes(conn, order)
    dims = [_layout(conn, degree, box).dim for box in boxes[1:]]
    equations = [(t, up) for t in range(1, order + 1) for up in (True, False)]
    rhs = -np.concatenate([_coefficient(conn, t, degree, [lead], up, boxes[t])[1] for t, up in equations])
    if not rhs.any():
        return [np.zeros((dim, lead.shape[1]), dtype=complex) for dim in dims]
    mat, blocks = _correction_system(conn, degree, order)
    x = _block_lstsq(mat, blocks, rhs, tolerances, f"correction system through order {order}", order)
    return np.split(x, np.cumsum(dims)[:-1])


# -- the page recursion ------------------------------------------------------------


class PageRecursion:
    """Pages of the adiabatic spectral sequence, computed per (page, degree) on
    first use.

    The first two pages are closed form.  The leading operator is
    frequency-local and acts only on the fiber index, so page 1 is (box) x
    (base indices) x (fiber harmonic subspace) on every slot.  On fiber-harmonic
    forms every ad*_a vanishes, so the page-1 differential is d_M x 1, and page 2
    is (constant base forms) x H(g), the Kunneth page (Chevalley-Eilenberg;
    Mazzeo-Melrose).  Pages 0 and 1 are kept as counts; the page box sets them
    and nothing else in the recursion.  Later pages use projected leading
    coefficients of exactly-computed lifts.

    Page K + 1 in degree p reads page K in degrees p - 1, p and p + 1, and the
    lifts of page K in degrees p - 1 and p (the differentials d_K into and out of
    p); so ``page`` computes one (K, degree) at a time and memoizes it, with its
    lifts and projections.  Page k_stop in degree p rests on the cone of page K
    in the degrees within k_stop - K of p, and a recursion shared by several
    reports computes each page of it once.

    Everything runs on coordinate matrices with one column per basis vector.
    Page 2 lies at frequency zero, and each later basis is an earlier one times
    a kernel, so a page slot's basis is stored as the rows of its slot in the
    degree layout of the zero box.  The lift terms of a page slot are one matrix
    per order, solved on the cached correction systems, which are posed at
    frequency zero only.  A lift whose right-hand side is exactly zero (every
    order-1 lift, and every lift on a flat connection) is exact zeros, and no
    system is posed for it.  The leading coefficients (``_coefficient``) are
    products with the cached component matrices into the zero box, the only
    frequency a page holds, so projecting onto a page slot reads its whole block
    there; an exactly-zero lift term is skipped.  Forms are built only when
    ``entries`` hands a page's basis and lifts out.

    ``run(degree)`` settles, once per recursion, the page the sequence stops at,
    k_stop <= k_max, and computes the pages of ``degree`` up to it.  The stop rule
    is global: stabilization is proven at page K >= 2 when the dimensions equal
    those of page K - 1 in every degree and no later differential can join two
    nonzero slots, or when K reaches min(n, dim g + 1) + 1, past which no
    differential acts.  A run that reaches k_max first is not ``stabilized``.
    The degrees of page K are searched outward from the requested one for a
    witness that the pages go on, and computed only until one turns up; a page
    that stops the recursion is read in every degree.
    """

    def __init__(self, conn, bands, k_max=6, tolerances=None):
        self.conn = conn
        self.geometry = conn.geometry
        self.alg = conn.alg
        self.bands = tuple(bands)
        self.zero = (0,) * self.geometry.n
        self.k_max = int(k_max)
        self.tol = tolerances or Tolerances()
        n, m = self.geometry.n, self.alg.dim
        self.slots = [
            (i, j)
            for i in range(n + 1)
            for j in range(m + 1)
            if num_indices(n, i) and num_indices(m, j)
        ]
        # no differential acts past page min(n, m + 1): it would need K base
        # steps and K - 1 fiber steps at once
        self.collapse_bound = min(n, m + 1) + 1
        # a page Laplacian whose largest eigenvalue is at most this is zero
        scale = 1.0
        for _, _, _, v in conn.a_entries() + conn.f_entries():
            scale += abs(v)
        self._floor = 1e-18 * max(scale**4, 1.0)
        # per (K, degree), K >= 2, filled on first use: bases -> {slot: complex
        # matrix (nb * nf, r) on the slot's rows of the zero-box layout}; lifts ->
        # {slot: [W_0 .. W_(K-1)]}, W_t over the degree layout of the box t c;
        # _checks -> the diagnostics of the step from page K to K + 1
        self.bases = {}
        self.lifts = {}
        self._checks = {}
        # (K, degree, up) -> (projected leading coefficients, off-slot residual)
        self._maps = {}
        self.k_stop = None
        self.stabilized = False

    # ---- pages 0 to 2 ----------------------------------------------------

    def _counts(self, degree, fiber_dim):
        """Per slot of one degree, box keys x base indices x fiber_dim(j), where
        nonzero."""
        keys = int(np.prod([2 * b + 1 for b in self.bands]))
        n = self.geometry.n
        slots = [(i, j) for i, j in self.slots if i + j == degree]
        dims = {(i, j): keys * num_indices(n, i) * fiber_dim(j) for i, j in slots}
        return {slot: r for slot, r in dims.items() if r}

    def _seed_second_page(self, degree):
        """Page 2 per slot (i, j) of one degree: kron(I_nb, L_j^T H_j) at frequency
        zero, with H_j the harmonic fiber j-forms, orthonormal in the fiber Gram
        matrix."""
        bases = {}
        for i, j in self.slots:
            harm = self.alg.harmonic_basis(j)
            if i + j == degree and harm.shape[1]:
                hat = self.alg.chol(j).T @ harm  # orthonormal columns
                nb = num_indices(self.geometry.n, i)
                bases[(i, j)] = np.kron(np.eye(nb), hat).astype(complex)
        return bases

    # ---- pages, lifts and leading coefficients -------------------------------

    def page(self, K, degree):
        """Page K >= 2 in one total degree, {slot: basis} over its nonzero slots,
        computed on first use."""
        key = (K, degree)
        if key not in self.bases:
            if not 0 <= degree <= self.geometry.n + self.alg.dim:
                self.bases[key] = {}
            elif K == 2:
                self.bases[key] = self._seed_second_page(degree)
            else:
                self.bases[key] = self._step(K - 1, degree)
        return self.bases[key]

    def _lifts(self, K, degree):
        """Per slot of page K >= 2 in one total degree, [W_0 .. W_(K-1)]: the basis
        columns over the zero-box degree layout, then their minimal-norm lift
        terms, solved on first use."""
        key = (K, degree)
        if key not in self.lifts:
            lifts = {}
            for slot, basis in self.page(K, degree).items():
                layout = _layout(self.conn, degree, self.zero)
                lead = np.zeros((layout.dim, basis.shape[1]), dtype=complex)
                lead[_box_rows(layout, slot, self.zero)] = basis
                lifts[slot] = [lead] + _solve_columns(self.conn, degree, lead, K - 1, self.tol)
            self.lifts[key] = lifts
        return self.lifts[key]

    def _project(self, layout, coeff, target, adjoints):
        """Project the columns of a leading coefficient, coordinates over the
        zero-box layout ``layout``, onto the target page slot: (the projection,
        or None when the target has no page; the largest projection onto
        another page slot relative to the column norms, which the page theory
        says must vanish).  ``adjoints`` maps each page slot to the conjugate
        transpose of its basis, one column per row of the slot's block."""
        scale = 1.0 + np.linalg.norm(coeff, axis=0)
        out, off = None, 0.0
        for slot, adjoint in adjoints.items():
            if slot not in layout.offsets:
                continue
            start = layout.offsets[slot]
            proj = adjoint @ coeff[start : start + adjoint.shape[1]]
            if slot == target:
                out = proj
            else:
                off = max(off, float(np.max(np.linalg.norm(proj, axis=0) / scale)))
        return out, off

    def _map(self, K, degree, up):
        """The page-K differential d_K out of one degree (``up``), or its
        codifferential: the order-K leading coefficients of d_delta or d*_delta on
        the page-K lifts of the degree, projected onto page K in degree p +- 1.
        Returns ({source slot: projection onto its target slot}, the largest
        off-slot residual), memoized; the lifts are solved even when page K in
        degree p +- 1 is empty, and then nothing is projected."""
        key = (K, degree, up)
        if key not in self._maps:
            target_page = self.page(K, degree + 1 if up else degree - 1)
            adjoints = {slot: basis.conj().T for slot, basis in target_page.items()}
            lifts = self._lifts(K, degree)
            mats, off = {}, 0.0
            for (i, j), w in lifts.items() if adjoints else ():
                target = (i + K, j - K + 1) if up else (i - K, j + K - 1)
                layout, coeff = _coefficient(self.conn, K, degree, w, up, self.zero)
                proj, residual = self._project(layout, coeff, target, adjoints)
                off = max(off, residual)
                if proj is not None:
                    mats[(i, j)] = proj
            self._maps[key] = (mats, off)
        return self._maps[key]

    # ---- generic step ----------------------------------------------------

    def _step(self, K, degree):
        """Page K + 1 in one degree from page K >= 2: per slot, the kernel of the
        page-K Laplacian d_K^H d_K + d_K d_K^H.  Records the step's diagnostics,
        each read from the projections the step itself uses."""
        out_of, off_out = self._map(K, degree, True)
        into, off_in = self._map(K, degree - 1, True)
        down, off_down = self._map(K, degree, False)
        new_bases = {}
        consistency = 0.0
        for slot, basis in self.page(K, degree).items():
            r = basis.shape[1]
            i, j = slot
            s_in = (i - K, j + K - 1)
            lap = np.zeros((r, r), dtype=complex)
            m_out = out_of.get(slot)
            if m_out is not None:
                lap += m_out.conj().T @ m_out
            m_in = into.get(s_in)
            if m_in is not None:
                lap += m_in @ m_in.conj().T
            # adjoint-consistency: the projected codifferential matrix must be
            # the conjugate transpose of the projected differential matrix
            m_s = down.get(slot)
            if m_s is not None and m_in is not None:
                consistency = max(
                    consistency,
                    float(np.max(np.abs(m_s - m_in.conj().T), initial=0.0)),
                )
            lap = 0.5 * (lap + lap.conj().T)
            try:
                evals, evecs = np.linalg.eigh(lap)
            except np.linalg.LinAlgError as err:
                raise SolverFailure(
                    f"page {K} Laplacian of slot {slot} failed to diagonalize: {err}", order=K
                )
            lam_max = float(evals[-1]) if evals.size else 0.0
            if lam_max <= self._floor:
                kernel = np.eye(r, dtype=complex)
            else:
                keep = evals <= self.tol.rank * lam_max
                kernel = evecs[:, keep]
            if kernel.shape[1]:
                new_bases[slot] = basis @ kernel
        # the (pi_K d_K)^2 residual across the two hops p - 1 -> p -> p + 1
        dsq = 0.0
        for (i, j), m_first in into.items():
            m_second = out_of.get((i + K, j - K + 1))
            if m_second is not None:
                prod = m_second @ m_first
                if prod.size:
                    scale = 1.0 + float(np.linalg.norm(m_second) * np.linalg.norm(m_first))
                    dsq = max(dsq, float(np.linalg.norm(prod)) / scale)
        self._checks[(K, degree)] = {
            "offslot_residual": max(off_out, off_in, off_down),
            "adjoint_consistency": consistency,
            "dsq_residual": dsq,
        }
        return new_bases

    # ---- the stop rule ------------------------------------------------------

    def _goes_on(self, K, degree):
        """Whether page K >= 2 holds a witness that the pages go on: a slot whose
        dimension differs from page K - 1, or two nonzero slots in adjacent
        degrees that a differential K' = K .. collapse_bound - 1 joins.  The
        degrees are read outward from ``degree``, each only while no witness
        has turned up."""
        top = self.geometry.n + self.alg.dim
        seen = {}
        for q in sorted(range(top + 1), key=lambda q: (abs(q - degree), -q)):
            seen[q] = self.dims_for_degree(K, q)
            if seen[q] != self.dims_for_degree(K - 1, q):
                return True
            for low in (q - 1, q):
                if low in seen and low + 1 in seen and self._joined(seen[low], seen[low + 1], K):
                    return True
        return False

    def _joined(self, low, high, K):
        """Whether a differential K' >= K joins a nonzero slot of ``low`` to one of
        ``high``, the dims of two adjacent degrees."""
        return any((i + k, j - k + 1) in high for i, j in low for k in range(K, self.collapse_bound))

    # ---- driver -----------------------------------------------------------

    def run(self, degree):
        """Settle k_stop and ``stabilized`` on the first call, searching for stop
        witnesses outward from ``degree``, and compute the pages of ``degree`` up
        to k_stop; returns self."""
        if self.k_stop is None:
            K = 1
            while K < min(self.k_max, self.collapse_bound):
                K += 1
                if K >= self.collapse_bound or not self._goes_on(K, degree):
                    self.stabilized = True
                    break
            self.k_stop = K
        if self.k_stop >= 2:
            self.page(self.k_stop, degree)
        return self

    # ---- extraction ---------------------------------------------------------

    def stable_page(self):
        """The page the run stopped at, once stabilization is proven; raises
        SolverFailure when k_max stopped the run first."""
        if not self.stabilized:
            raise SolverFailure(
                f"pages did not stabilize within K_max = {self.k_max}", order=self.k_stop
            )
        return self.k_stop

    def dims_for_degree(self, K, degree):
        """{slot: dimension} of page K in one degree, over its nonzero slots."""
        if K >= 2:
            return {slot: basis.shape[1] for slot, basis in self.page(K, degree).items()}
        if K == 1:
            return self._counts(degree, lambda j: self.alg.harmonic_basis(j).shape[1])
        return self._counts(degree, lambda j: num_indices(self.alg.dim, j))

    def diagnostics(self, degree):
        """The checks of the pages one degree rests on, whatever else the
        recursion computed.  Its static cone holds page K in the degrees within
        k_stop - K of p; offslot_residual, adjoint_consistency and dsq_residual
        are the largest over the steps to the cone's pages K + 1, K = 2 ..
        k_stop - 1, each read from that step's own projections.
        corrections_solved counts the basis columns those steps lift, page K in
        degrees p - (k_stop - K) .. p + k_stop - K - 1, and the stable page's
        columns of degree p, which harmonic_limit lifts.  Needs k_stop settled
        (``run``)."""
        out = dict.fromkeys(("offslot_residual", "adjoint_consistency", "dsq_residual"), 0.0)
        solved = sum(self.dims_for_degree(self.k_stop, degree).values())
        for K in range(2, self.k_stop):
            reach = self.k_stop - K
            for q in range(degree - reach + 1, degree + reach):
                self.page(K + 1, q)  # its step records the checks, if q is a degree
                for name, value in self._checks.get((K, q), {}).items():
                    out[name] = max(out[name], value)
            lifted = range(degree - reach, degree + reach)
            solved += sum(sum(self.dims_for_degree(K, q).values()) for q in lifted)
        out["corrections_solved"] = solved
        return out

    def entries(self, K, degree):
        """(slot, vector, lift) for every basis column of one degree at page
        K >= 2, lifts through order K - 1, built as forms on each call."""
        layouts = [_layout(self.conn, degree, box) for box in _boxes(self.conn, K - 1)]
        out = []
        for slot, w in self._lifts(K, degree).items():
            for col in range(w[0].shape[1]):
                terms = [layout.form_from_vector(x[:, col]) for layout, x in zip(layouts, w)]
                out.append((slot, terms[0], DeltaPolynomial(terms)))
        return out


# -- harmonic limit ------------------------------------------------------------


def harmonic_limit(recursion, total_degree):
    """Real forms spanning the limit of harmonic spaces in one degree, from a
    PageRecursion whose stop page is settled (``run``), on its connection and
    with its tolerances.

    Each stabilized-page lift omega + delta omega_1 + ... of a leading
    (i0, j0)-vector contributes its anti-diagonal constant term: the sum over
    l of the (i0 + l, j0 - l)-slot of the order-l term.  These are gathered as
    coordinates over one degree layout whose box holds every lift term, and
    split there against the reality involution x -> conj(x[mirror]): the real
    and imaginary parts of every column are orthonormalized in the real Gram
    matrix, and the real dimension must equal the complex one.
    """
    conn, tolerances = recursion.conn, recursion.tol
    K = recursion.stable_page()
    page = list(recursion._lifts(K, total_degree).items())
    if not page:
        return []
    layout = _layout(conn, total_degree, _boxes(conn, K - 1, recursion.bands)[-1])
    limits = np.zeros((layout.dim, sum(w[0].shape[1] for _, w in page)), dtype=complex)
    start = 0
    for (i0, j0), w in page:
        cols = slice(start, start + w[0].shape[1])
        start = cols.stop
        for l, (box, term) in enumerate(zip(_boxes(conn, K - 1), w)):
            slot, src = (i0 + l, j0 - l), _layout(conn, total_degree, box)
            if slot in src.offsets:
                limits[_box_rows(layout, slot, box), cols] = term[_box_rows(src, slot, box)]
    bar = limits[layout.mirror()].conj()
    # per column its real part, then its imaginary part
    cands = np.stack([0.5 * (limits + bar), -0.5j * (limits - bar)], axis=2)
    cands = cands.reshape(layout.dim, -1)
    try:
        evals, evecs = np.linalg.eigh((cands.conj().T @ cands).real)
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"Gram matrix of the real limit span failed to diagonalize: {err}")
    keep = evals > tolerances.spectral * max(float(evals[-1]), 1e-300)
    rank = int(np.sum(keep))
    if rank != limits.shape[1]:
        raise SolverFailure(f"real span has dimension {rank}, expected {limits.shape[1]}")
    reals = cands @ (evecs[:, keep] / np.sqrt(evals[keep]))
    forms = [layout.form_from_vector(col) for col in reals.T]
    # each limit, regraded back into a polynomial, is formally harmonic
    # through order p
    for form in forms:
        coeffs = [BigradedForm(conn.geometry, conn.alg) for _ in range(total_degree + 1)]
        for (i, j), table in form.components.items():
            coeffs[i].components[(i, j)] = table
        report = verify_formal_harmonic(DeltaPolynomial(coeffs), conn, total_degree, tolerances)
        if not report["passed"]:
            raise SolverFailure(
                "harmonic limit candidate fails the formal residual check",
                residual=max(v for _, v in report["failures"]),
            )
    return forms


# -- eigenvalue sweeps ------------------------------------------------------------


class SpectrumReport:
    def __init__(
        self, deltas, eigenvalues, spectral_norms, branches, close_gap_flags, minima, floors
    ):
        self.deltas = deltas
        self.eigenvalues = eigenvalues  # shape (len(deltas), dim), ascending, clamped at 0
        self.min_eigenvalues = minima  # per delta, before the clamp
        self.eigen_floors = floors  # per delta, the bound of group "inf"
        self.spectral_norms = spectral_norms
        self.branches = branches
        self.close_gap_flags = close_gap_flags

    def group_counts(self):
        counts = {}
        for branch in self.branches:
            counts[branch["group"]] = counts.get(branch["group"], 0) + 1
        return counts


def galerkin_polynomial(conn, total_degree, bands):
    """The compressed rescaled Laplacian of one degree over the box X of ``bands``:
    (layout of X, [A_0, A_1, A_2]) with L_delta = A(delta)^H A(delta), where
    A(delta) = sum_a delta^a A_a.

    A_a stacks T_a^H over S_a, where S_a is d_a from X in degree p to X + c in
    degree p + 1 and T_a is d_a from X + c in degree p - 1 to X, c the coupling
    band; so A(delta)^H A(delta) = T(delta) T(delta)^H + S(delta)^H S(delta).  Both
    are the cached component matrices the page recursion reads.  This is exact:
    neither d_a nor d*_a moves an in-box vector out of X + c.
    """
    bands = tuple(bands)
    entries = conn.a_entries() + conn.f_entries()
    if entries and not any(
        all(abs(q[a]) <= 2 * bands[a] for a in range(conn.geometry.n)) for q, _, _, _ in entries
    ):
        raise ConfigError(
            "frequency box too small: every coupling of the connection would be projected away"
        )
    box, wide = _boxes(conn, 1, bands)
    here, up, down = (total_degree, box), (total_degree + 1, wide), (total_degree - 1, wide)
    layout = _layout(conn, *here)
    height = _layout(conn, *down).dim
    mats = []
    for a in range(3):
        s_rows, s_cols, s_vals = csr_entries(_component(conn, a, here, up))
        blocks = [_adjoint_entries(_component(conn, a, down, here)), (s_rows + height, s_cols, s_vals)]
        mats.append(_csr(blocks, (height + _layout(conn, *up).dim, layout.dim)))
    return layout, mats


def _mirror_pairs(blocks, mirror):
    """The blocks of a Hermitian matrix L to eigensolve, and the source of each
    block's spectrum, when L[mirror][:, mirror] == conj(L) and ``blocks`` (from
    _blocks, rows equal to columns) is closed under ``mirror``: the mirror sends
    each block to a partner of its shape holding mirror[c] for each of its columns
    c, with the same spectrum.  Returns (kept, copies), one entry per shape group:
    kept holds the first block of each pair and every self-mirror block, and
    block i of the group has the spectrum of its kept block copies[i]."""
    kept, copies = [], []
    for rows, cols in blocks:
        count = len(cols)
        at = np.zeros(mirror.size, dtype=int)
        at[cols] = np.arange(count)[:, None]
        first = np.minimum(np.arange(count), at[mirror[cols[:, 0]]])
        keep = first == np.arange(count)
        kept.append((rows[keep], cols[keep]))
        copies.append(np.cumsum(keep)[first] - 1)
    return kept, copies


def _galerkin_spectrum(conn, total_degree, delta, bands):
    """Ascending eigenvalues of the compressed Laplacian L = A(delta)^H A(delta) at
    one delta, one eigensolve per mirror pair of blocks.

    The connection and every Cholesky factor are real, so L[mirror][:, mirror]
    == conj(L) for the mirror of the degree layout (TruncationLayout.mirror), and
    the mirror sends each block of L to a partner with the same spectrum.  The
    blocks are the components of the graph joining two columns when a row of some
    A_a holds both, or holds both their mirrors: the blocks of the pattern
    |A|^T |A| + I, |A| = sum_a |A_a|, joined with its mirror image.  The image
    adds nothing for an exactly real connection, but the reality check of a
    scenario passes a mode of up to 1e-12 relative at k with none at -k.  A
    stacked eigvalsh per block shape solves one block of each pair and every
    self-mirror block, and each kept block's eigenvalues are copied to its
    partner before the sort.  The Galerkin matrices are assembled
    once per degree and box and cached on the connection with their pairing,
    restricted to the columns of the kept blocks (``columns``, ascending) and the
    kept blocks renumbered into them: column j of A(delta) enters L only in the
    block of j, so each delta forms L over those columns alone, and every entry
    is the same sum, in the same order, as in the whole L."""
    key = ("galerkin", total_degree, tuple(bands))
    if key not in conn._cache:
        layout, mats = galerkin_polynomial(conn, total_degree, bands)
        height, n = mats[0].shape
        mirror = layout.mirror()
        row, col, val = (np.concatenate(part) for part in zip(*map(csr_entries, mats)))
        # an entry that sums to exactly zero joins nothing, as in |A|^T |A|
        held = val != 0
        row, col = row[held], col[held]
        # columns first, so the components are numbered by their smallest column;
        # row r joins the columns it holds, and its copy height + r their mirrors
        labels = _components(
            n + 2 * height,
            np.concatenate([col, mirror[col]]),
            np.concatenate([n + row, n + height + row]),
        )[:n]
        kept, copies = _mirror_pairs(_split(labels, labels), mirror)
        columns = np.sort(np.concatenate([np.zeros(0, dtype=int)] + [c.ravel() for _, c in kept]))
        at = np.zeros(n, dtype=int)
        at[columns] = np.arange(columns.size)
        kept = [(at[rows], at[cols]) for rows, cols in kept]
        conn._cache[key] = ([m[:, columns] for m in mats], columns, kept, copies)
    mats, _, kept, copies = conn._cache[key]
    x = float(delta)
    stacked = mats[0] + x * mats[1] + x**2 * mats[2]
    lap = stacked.conj().T @ stacked
    try:
        evals = [
            np.linalg.eigvalsh(stack)[copy].ravel() for stack, copy in zip(_gather(lap, kept), copies)
        ]
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"eigensolver failed at delta = {delta}: {err}")
    return np.sort(np.concatenate([np.zeros(0)] + evals))


def spectrum_sweep(conn, total_degree, deltas, bands, tolerances=None):
    """Eigenvalues of the compressed Laplacian per delta, with decay fits.

    Branches are matched across delta in sorted order; near-zero branches
    get a log-log slope, grouped at the nearest even integer.  Branches at
    the numerical floor for every delta are reported as group "inf".
    """
    tolerances = tolerances or Tolerances()
    deltas = sorted(float(x) for x in deltas)
    if any(not 0 < x <= 1 for x in deltas):
        raise ConfigError("sweep values must lie in (0, 1]")
    if len(set(deltas)) < 2:
        raise ConfigError("decay slopes need at least two distinct sweep values")
    raw = np.stack([_galerkin_spectrum(conn, total_degree, delta, bands) for delta in deltas])
    norms = np.max(np.abs(raw), axis=1, initial=0.0)
    eigen = np.maximum(raw, 0.0)  # clamped for the fits; the report keeps the minima
    # flag deltas where consecutive branch gaps are too small for sorted
    # matching to be trustworthy
    close = np.any(np.diff(eigen, axis=1) < 1e-3 * np.maximum(norms, 1e-300)[:, None], axis=1)
    floors = 1e-12 * np.maximum(norms, 1e-300)
    is_floor = np.all(eigen <= floors[:, None], axis=0)
    # tested at the smallest delta (deltas ascend); the cut is anchored at the
    # largest so it stays meaningful when the whole spectrum decays (abelian fibers)
    near_zero = eigen[0] <= tolerances.near_zero_cut * max(norms[-1], 1e-300)
    # one least-squares fit of every near-zero branch off the floor
    fitted = np.flatnonzero(near_zero & ~is_floor)
    slopes = {}
    if fitted.size:
        logs = np.log(np.asarray(deltas))
        fit = np.polyfit(logs, np.log(np.maximum(eigen[:, fitted], 1e-300)), 1)[0]
        slopes = dict(zip(fitted.tolist(), fit.tolist()))
    branches = []
    for b, (floor, near) in enumerate(zip(is_floor.tolist(), near_zero.tolist())):
        slope, group, within = slopes.get(b), None, None
        if floor:
            group = "inf"
        elif slope is not None:
            group = int(2 * max(round(slope / 2.0), 0))
            within = abs(slope - group) <= tolerances.slope_window
        branches.append(
            {
                "index": b,
                "near_zero": near or floor,
                "is_floor": floor,
                "slope": slope,
                "group": group,
                "within_tolerance": within,
            }
        )
    minima = [float(row[0]) if row.size else 0.0 for row in raw]
    return SpectrumReport(
        deltas, eigen, norms.tolist(), branches, close.tolist(), minima, floors.tolist()
    )


def near_zero_count(conn, total_degree, delta, bands, threshold_rel):
    """Number of eigenvalues below threshold_rel x spectral norm at one delta,
    and the spectral norm, from the whole spectrum of _galerkin_spectrum: one
    eigensolve per mirror pair of blocks, the partner's eigenvalues copied."""
    evals = _galerkin_spectrum(conn, total_degree, delta, bands)
    top = float(np.max(np.abs(evals))) if evals.size else 0.0
    return int(np.sum(evals <= threshold_rel * max(top, 1e-300))), top


# -- recovering the base primitive from the order-4 constraint ---------------------


def recover_omega3(conn, residual, tolerances=None):
    """Solve the order-4 cancellation for the (3,0) term of the degree-3 lift.

    ``residual`` is the (4,0) residual at order four of the lift without
    that term: the curvature contraction d_2 alpha^{2,1} of the (2,1) part
    of cs3 (``apply_d_component(alpha21, conn, 2)``).  The constraint is
    d_M x = -residual, with x coclosed and orthogonal to the harmonic
    3-forms; the minimal-norm solution of the stacked sparse system,
    independently of the closed-form primitive construction.
    """
    from .base_forms import hodge_decompose, norm as base_norm

    tolerances = tolerances or Tolerances()
    geo, alg = conn.geometry, conn.alg
    if geo.n < 4:
        raise ConfigError("the degree-3 recovery needs a 4-dimensional base")
    if residual is None or residual.is_zero():
        raise ConfigError("lift has no order-4 residual to cancel")
    rhs_form = to_fourier(residual, 4)
    _, _, harm = hodge_decompose(rhs_form)
    scale = base_norm(rhs_form)
    if base_norm(harm) > tolerances.formal * max(scale, 1e-300):
        raise NotExact(
            "order-4 constraint has a harmonic component; the degree-4 class is nonzero",
            harmonic_norm=base_norm(harm),
        )
    # on pulled-back base forms the covariant derivative is d_M (ad* vanishes on
    # Lambda^0), and the harmonic part is the zero-frequency block, the box's centre row
    layouts = {
        i: TruncationLayout(geo, alg, [(i, 0)], rhs_form.bands) for i in (2, 3, 4)
    }
    s_rows, s_cols, s_vals = _adjoint_entries(d_component_matrix(conn, 1, layouts[2], layouts[3]))
    nb = num_indices(geo.n, 3)
    zero_freq = len(layouts[3].key_array) // 2 * nb + np.arange(nb)
    height = layouts[4].dim + layouts[2].dim
    blocks = [
        csr_entries(d_component_matrix(conn, 1, layouts[3], layouts[4])),
        (s_rows + layouts[4].dim, s_cols, s_vals),
        (height + np.arange(nb), zero_freq, np.ones(nb, dtype=complex)),
    ]
    mat = _csr(blocks, (height + nb, layouts[3].dim))
    rhs = np.concatenate(
        [-layouts[4].vector_from_form(residual)[0], np.zeros(layouts[2].dim + nb, dtype=complex)]
    )
    x = _block_lstsq(mat, _blocks(mat), rhs[:, None], tolerances, "order-4 recovery", 4)
    return to_fourier(layouts[3].form_from_vector(x[:, 0]), 3).trim()
