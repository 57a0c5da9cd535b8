"""Pages of the adiabatic spectral sequence and the harmonic limit.

The page E_K^{i,j} collects band-limited forms admitting polynomial lifts
omega + delta omega_1 + ... whose rescaled differential and codifferential
both vanish through order delta^(K-1).  Each next page is the kernel of a
Hodge-style Laplacian built from the projected leading coefficients; lifts
are the minimal-norm (canonical) least-squares solutions of the sparse
correction systems, each order's grown from the previous order's rows by
its two new block rows, and the order-4 recovery of the base primitive
solves d_M and its adjoint over the (3,0) slot the same way.  Each sparse
system, and the compressed Laplacian, splits exactly into the connected
components of its pattern, solved densely, one stacked call per shape; a
block above a fixed number of entries is rejected, since a connection that
couples several axes joins the whole box into one block.  A least-squares
system is decomposed only on the blocks its right-hand side touches, with
the singular-value cut of the whole matrix.  The blocks of the compressed
Laplacian pair up under the reality involution x -> conj(x[mirror]), and one
block of each pair is eigensolved.

One run of the recursion serves every degree and page.  Pages 1 and 2 are
closed form, and every page basis from page 2 on lies at frequency zero, so
each lift is solved over the boxes t c of the coupling band c; a lift whose
right-hand side is exactly zero is zero, and no system is posed for it.  The
recursion works on coordinate matrices, and its component matrices are cached
on the connection, where the Galerkin Laplacian reads them too.
``harmonic_limit`` gathers and realifies the stabilized page in coordinates;
forms are built for its formal check and its output, and when
``PageRecursion.entries`` hands a page out.

Only the final projections onto the band box are truncated; every operator
application on lifts is exact, with corrections confined to frequency
boxes that provably contain the minimal-norm solution (the coupling of the
connection widens reachable frequencies by at most its own band per order),
and each equation posed over a box that holds it whole.
"""

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

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
from .lie_algebra import harmonic_subspace
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


def _blocks(pattern):
    """Blocks of a sparse pattern, the connected components of its graph joining row r
    to column c when it holds (r, c): index arrays (count, nr) and (count, nc) per
    block shape (nr, nc).  A zero row is a (1, 0) block, a zero column a (0, 1) block.
    ConfigError when a block holds more than _MAX_BLOCK_ENTRIES entries."""
    m, n = pattern.shape
    pattern = pattern.tocsr()
    indptr = np.concatenate([pattern.indptr, np.full(n, pattern.nnz, dtype=pattern.indptr.dtype)])
    graph = scipy.sparse.csr_matrix((np.ones(pattern.nnz), m + pattern.indices, indptr), (m + n,) * 2)
    count, labels = connected_components(graph, connection="weak")
    sizes = np.stack([np.bincount(part, minlength=count) for part in (labels[:m], labels[m:])], 1)
    shapes, group, counts = np.unique(sizes, axis=0, return_inverse=True, return_counts=True)
    entries = shapes[:, 0] * shapes[:, 1]
    if np.any(entries > _MAX_BLOCK_ENTRIES):
        nr, nc = shapes[np.argmax(entries)]
        raise ConfigError(
            f"a {m} x {n} sparse system couples {nr} rows and {nc} columns into one block, "
            f"above the dense limit of 2**25 entries; choose a smaller frequency box"
        )
    # nodes by shape group, then component, then index; rows before columns
    order = np.lexsort((labels, group[labels]))
    bounds = np.cumsum(counts[:, None] * shapes, axis=0)[:-1]
    rows = np.split(order[order < m], bounds[:, 0])
    cols = np.split(order[order >= m] - m, bounds[:, 1])
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


def _boxes(conn, reach, order):
    """The boxes reach + s c, s = 0 .. order, c the coupling band."""
    coupling = conn.coupling_bands()
    return [tuple(r + s * c for r, c in zip(reach, coupling)) for s in range(order + 1)]


def _box_rows(layout, slot, box):
    """Rows of one slot of a layout with frequency inside a box.

    A box lists its keys in lexicographic order, so the inside rows of a
    wider layout run in the order of the box's own coordinates.
    """
    nb, nf = layout.shapes[slot]
    inside = np.all(np.abs(layout.key_array) <= np.array(box), axis=1)
    rows = layout.offsets[slot] + np.arange(inside.size * nb * nf).reshape(inside.size, -1)
    return rows[inside].ravel()


def _correction_rows(conn, degree, reach, order, lead):
    """Nonzeros of the order-``order`` correction system (see _correction_system)
    in its w_0 column (``lead``) or its w_1 .. w_order columns, cached on the
    connection: (row count, blocks), each block the (rows, columns, values) of
    its entries placed in its matrix.

    Block (t, s) does not depend on the order and row t has no block in a
    column s > t, so the order-K rows are the order-(K - 1) rows and the two
    block rows of equation t = K: d_(K-s) from w_s into degree p + 1, then
    d*_(K-s) into degree p - 1, over the box reach + K c.  Only equations
    t = 1, 2 have a w_0 block.
    """
    key = ("correction rows", degree, reach, order, lead)
    if key not in conn._cache:
        height, blocks = (0, []) if order == 1 else _correction_rows(conn, degree, reach, order - 1, lead)
        blocks = list(blocks)
        boxes = _boxes(conn, reach, order)
        # column offset of each w_s, s >= 1, in the matrix on w_1 .. w_order
        starts = np.cumsum([0] + [_layout(conn, degree, box).dim for box in boxes[1:]]).tolist()
        t = order
        columns = range(max(t - 2, 0), 1) if lead else range(max(t - 2, 1), t + 1)
        for other in (degree + 1, degree - 1):
            for s in columns:
                unknown, equation = (degree, boxes[s]), (other, boxes[t])
                if other > degree:
                    row, col, val = csr_entries(_component(conn, t - s, unknown, equation))
                else:
                    row, col, val = _adjoint_entries(_component(conn, t - s, equation, unknown))
                blocks.append((row + height, col + (starts[s - 1] if s else 0), val))
            height += _layout(conn, other, boxes[t]).dim
        conn._cache[key] = (height, blocks)
    return conn._cache[key]


def _adjoint_entries(mat):
    """(rows, columns, values) of the conjugate transpose of a CSR matrix, in the
    storage order of ``mat``."""
    row, col, val = csr_entries(mat)
    return col, row, np.conj(val)


def _csr(blocks, shape):
    """One CSR matrix from disjoint blocks of (rows, columns, values)."""
    return csr_from_entries(*(np.concatenate(part) for part in zip(*blocks)), shape)


def _correction_lead(conn, degree, reach, order):
    """The layouts of w_0 .. w_order of the order-``order`` correction system (see
    _correction_system), and its matrix on w_0 down to equation min(order, 2), cached
    on the connection.  Only equations t = 1, 2 have a w_0 block, so the rows of
    later equations are empty, and every order from 2 on shares the order-2 matrix;
    only the blocks (t, 0) are built, so the right-hand side of a lift can be read
    without the rest of its system."""
    key = ("correction lead", degree, reach, order)
    if key not in conn._cache:
        unknowns = [_layout(conn, degree, box) for box in _boxes(conn, reach, order)]
        if order > 2:
            lead_mat = _correction_lead(conn, degree, reach, 2)[1]
        else:
            height, lead = _correction_rows(conn, degree, reach, order, lead=True)
            lead_mat = _csr(lead, (height, unknowns[0].dim))
        conn._cache[key] = (unknowns, lead_mat)
    return conn._cache[key]


def _correction_system(conn, degree, reach, order):
    """Correction operator for lifts of degree-p vectors supported in the box
    ``reach``, cached on the connection.

    The unknown w_s (s = 0 .. order, w_0 the vector itself) lives in the
    box reach + s c, c the coupling band; equation t = 1 .. order asks that
    sum_a d_a w_(t-a) and sum_a d*_a w_(t-a) vanish, in the degree p + 1 and
    p - 1 layouts over the box reach + t c, which hold them whole.  Block
    (t, s) is d_(t-s), or d*_(t-s) as the conjugate transpose of the matrix
    from degree p - 1.  Returns (matrix on w_1 .. w_order, its blocks from
    _blocks), the matrix one CSR build from _correction_rows; the matrix on
    w_0 is that of _correction_lead.
    """
    key = ("corrections", degree, reach, order)
    if key not in conn._cache:
        width = sum(_layout(conn, degree, box).dim for box in _boxes(conn, reach, order)[1:])
        height, rest = _correction_rows(conn, degree, reach, order, lead=False)
        mat = _csr(rest, (height, width))
        conn._cache[key] = (mat, _blocks(mat))
    return conn._cache[key]


def _solve_columns(conn, degree, reach, lead, order, tolerances):
    """Minimal-norm corrections of the columns of ``lead``, coordinates of
    degree-p vectors over the layout of the box ``reach``.

    The right-hand side is -(matrix on w_0) @ lead.  When it is exactly zero,
    as it is for page bases whose coupling terms all vanish, the minimal-norm
    corrections are zero, returned without posing the system; otherwise all
    columns are solved at once on the correction system, on the blocks the
    right-hand side touches.
    Returns [W_1 .. W_order], W_t the corrections over the box reach + t c
    with one column per column of ``lead``.  Raises SolverFailure when a
    column's system cannot be driven to zero (it is not on the page).
    """
    unknowns, lead_mat = _correction_lead(conn, degree, reach, order)
    dims = [layout.dim for layout in unknowns[1:]]
    rhs = -(lead_mat @ lead)
    if not rhs.any():
        return [np.zeros((dim, lead.shape[1]), dtype=complex) for dim in dims]
    mat, blocks = _correction_system(conn, degree, reach, order)
    # equations past 2 have no w_0 block: their rows of -(matrix on w_0) @ lead are -0
    pad = np.full((mat.shape[0] - rhs.shape[0], rhs.shape[1]), complex(-0.0, -0.0))
    rhs = np.concatenate([rhs, pad])
    x = _block_lstsq(mat, blocks, rhs, tolerances, f"correction system through order {order}", order)
    return np.split(x, np.cumsum(dims)[:-1])


# -- the page recursion ------------------------------------------------------------


class PageRecursion:
    """Simultaneous page computation in every total degree.

    The first two pages are closed form.  The leading operator is
    frequency-local and acts only on the fiber index, so page 1 is (box) x
    (base indices) x (fiber harmonic subspace) on every slot.  On fiber-harmonic
    forms every ad*_a vanishes, so the page-1 differential is d_M x 1, and page 2
    is (constant base forms) x H(g), the Kunneth page (Chevalley-Eilenberg;
    Mazzeo-Melrose).  Pages 0 and 1 are kept as counts; the page box sets them
    and nothing else in the recursion.  Later pages use projected leading
    coefficients of exactly-computed lifts.

    Everything runs on coordinate matrices with one column per basis
    vector.  Page 2 lies at frequency zero, and each later basis is an earlier
    one times a kernel, so a page slot's basis is stored as the rows of its
    slot in the degree layout of the zero box.  The lift terms of a page slot
    are one matrix per order, solved on the cached correction systems of the
    zero box.  A lift whose right-hand side is exactly zero (every order-1 lift,
    and every lift on a flat connection) is exact zeros, and no system is posed
    for it.  The leading coefficients are products with the cached component
    matrices into the zero box, the only frequency a page holds, so projecting
    onto a page slot reads its whole block there; an exactly-zero lift term is
    skipped.  Forms are built only when ``entries`` hands a page's basis and
    lifts out.

    ``run`` computes pages up to ``k_max`` at most.  It stops when
    stabilization is proven: the dimensions repeat from page 2 on and no
    later differential can join two nonzero slots, or the page reaches
    min(n, dim g + 1) + 1, past which no differential acts.  A run that
    reaches k_max first is not ``stabilized``.
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
        # bases[K][slot] -> complex matrix (nb * nf, r) on the slot's rows of the
        # zero-box layout; lifts[K][slot] -> [W_0 .. W_(K-1)], W_t over the
        # degree layout of the box t c, filled per slot on first use
        self.bases = {}
        self.lifts = {}
        self._handout = {}  # (K, degree) -> entries
        self.dims_history = []
        # corrections_solved: basis columns lifted by run(), pages 2 .. k_stop - 1
        # in every degree; the final page is lifted per degree, on demand
        self.diagnostics = {
            "offslot_residual": 0.0,
            "adjoint_consistency": 0.0,
            "dsq_residual": 0.0,
            "corrections_solved": 0,
        }
        self.k_stop = None
        self.stabilized = False

    # ---- pages 0 to 2 ----------------------------------------------------

    def _counts(self, fiber_dim):
        """Per slot, box keys x base indices x fiber_dim(j), where nonzero."""
        keys = int(np.prod([2 * b + 1 for b in self.bands]))
        n = self.geometry.n
        dims = {(i, j): keys * num_indices(n, i) * fiber_dim(j) for i, j in self.slots}
        return {slot: r for slot, r in dims.items() if r}

    def _seed_second_page(self):
        """Page 2 per slot (i, j): kron(I_nb, L_j^T H_j) at frequency zero, with H_j
        the harmonic fiber j-forms, orthonormal in the fiber Gram matrix."""
        bases = {}
        for i, j in self.slots:
            harm = harmonic_subspace(self.alg, j)
            if harm.shape[1]:
                hat = self.alg.chol(j).T @ harm  # orthonormal columns
                nb = num_indices(self.geometry.n, i)
                bases[(i, j)] = np.kron(np.eye(nb), hat).astype(complex)
        self.bases[2] = bases

    # ---- lifts and leading coefficients -----------------------------------

    def _lifts(self, K, degree=None):
        """Per slot of page K >= 2, of one total degree or of all, [W_0 ..
        W_(K-1)]: the basis columns over the zero-box degree layout, then their
        minimal-norm lift terms, solved on first use."""
        lifts = self.lifts.setdefault(K, {})
        wanted = [slot for slot in self.bases[K] if degree is None or sum(slot) == degree]
        for slot in wanted:
            if slot not in lifts:
                basis = self.bases[K][slot]
                layout = _layout(self.conn, sum(slot), self.zero)
                lead = np.zeros((layout.dim, basis.shape[1]), dtype=complex)
                lead[_box_rows(layout, slot, self.zero)] = basis
                ws = _solve_columns(self.conn, sum(slot), self.zero, lead, K - 1, self.tol)
                lifts[slot] = [lead] + ws
        return {slot: lifts[slot] for slot in wanted}

    def _leading(self, K, degree, w, up):
        """Order-K coefficient of d_delta (``up``) or d*_delta on the lifts
        w = [W_0 .. W_(K-1)] of degree-p columns: sum over s = max(K - 2, 0) ..
        K - 1 of d_(K-s) W_s.  Returns the degree p +- 1 layout of the zero box
        and the coordinates of the coefficient's frequency-zero part, all that a
        projection onto a page reads: each row of a component matrix is the same
        whatever other rows its target holds, so the rest is not computed.  An
        exactly-zero W_s adds nothing, and its component matrix is not built."""
        boxes = _boxes(self.conn, self.zero, K)
        outer = (degree + 1 if up else degree - 1, self.zero)
        layout = _layout(self.conn, *outer)
        total = np.zeros((layout.dim, w[0].shape[1]), dtype=complex)
        for s in range(max(K - 2, 0), K):
            if not w[s].any():
                continue
            inner = (degree, boxes[s])
            if up:
                total += _component(self.conn, K - s, inner, outer) @ w[s]
            else:
                total += (_component(self.conn, K - s, outer, inner).T @ w[s].conj()).conj()
        return layout, total

    def _project(self, layout, coeff, target, adjoints):
        """Project the columns of a leading coefficient, coordinates over the
        zero-box layout ``layout``, onto the target page slot, or return None
        when it has no page.  ``adjoints`` maps each page slot to the conjugate
        transpose of its basis, one column per row of the slot's block.  Also
        accumulates the largest projection onto another page slot relative to
        the column norms, which the page theory says must vanish."""
        scale = 1.0 + np.linalg.norm(coeff, axis=0)
        out = None
        for slot, adjoint in adjoints.items():
            if slot not in layout.offsets:
                continue
            start = layout.offsets[slot]
            proj = adjoint @ coeff[start : start + adjoint.shape[1]]
            if slot == target:
                out = proj
            else:
                off = float(np.max(np.linalg.norm(proj, axis=0) / scale))
                self.diagnostics["offslot_residual"] = max(self.diagnostics["offslot_residual"], off)
        return out

    # ---- generic step ----------------------------------------------------

    def _step(self, K):
        """Compute page K+1 from page K >= 2."""
        bases = self.bases[K]
        lifts = self._lifts(K)
        self.diagnostics["corrections_solved"] += sum(basis.shape[1] for basis in bases.values())
        adjoints = {slot: basis.conj().T for slot, basis in bases.items()}
        degrees = {i + j for i, j in bases}
        mat_d, mat_s = {}, {}
        for slot in bases:
            i, j = slot
            for up, mats, target in (
                (True, mat_d, (i + K, j - K + 1)),
                (False, mat_s, (i - K, j + K - 1)),
            ):
                if i + j + (1 if up else -1) not in degrees:
                    continue
                proj = self._project(*self._leading(K, i + j, lifts[slot], up), target, adjoints)
                if proj is not None:
                    mats[slot] = proj
        # assemble the page Laplacian per slot and cut its kernel
        new_bases = {}
        consistency = self.diagnostics["adjoint_consistency"]
        floor = 1e-18 * max(self._op_scale() ** 4, 1.0)
        for slot, basis in bases.items():
            r = basis.shape[1]
            i, j = slot
            s_in = (i - K, j + K - 1)
            lap = np.zeros((r, r), dtype=complex)
            m_out = mat_d.get(slot)
            if m_out is not None:
                lap += m_out.conj().T @ m_out
            m_in = mat_d.get(s_in)
            if m_in is not None:
                lap += m_in @ m_in.conj().T
            # adjoint-consistency: the projected codifferential matrix must be
            # the conjugate transpose of the projected differential matrix
            m_s = mat_s.get(slot)
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
            if lam_max <= floor:
                kernel = np.eye(r, dtype=complex)
            else:
                keep = evals <= self.tol.rank * lam_max
                kernel = evecs[:, keep]
            if kernel.shape[1]:
                new_bases[slot] = basis @ kernel
        self.diagnostics["adjoint_consistency"] = consistency
        # record the (pi_K d_K)^2 residual across two hops
        dsq = self.diagnostics["dsq_residual"]
        for slot, m_first in mat_d.items():
            i, j = slot
            m_second = mat_d.get((i + K, j - K + 1))
            if m_second is not None:
                prod = m_second @ m_first
                if prod.size:
                    scale = 1.0 + float(np.linalg.norm(m_second) * np.linalg.norm(m_first))
                    dsq = max(dsq, float(np.linalg.norm(prod)) / scale)
        self.diagnostics["dsq_residual"] = dsq
        self.bases[K + 1] = new_bases

    def _op_scale(self):
        total = 1.0
        for _, _, _, v in self.conn.a_entries() + self.conn.f_entries():
            total += abs(v)
        return total

    # ---- driver -----------------------------------------------------------

    def _possible_later_differential(self, dims, K_from):
        n, m = self.geometry.n, self.alg.dim
        for K in range(K_from, min(n, m + 1) + 1):
            for i, j in dims:
                if dims.get((i + K, j - K + 1), 0) > 0:
                    return True
        return False

    def run(self):
        m = self.alg.dim
        self.dims_history = [
            self._counts(lambda j: num_indices(m, j)),
            self._counts(lambda j: harmonic_subspace(self.alg, j).shape[1]),
        ]
        # no differential can act beyond page min(n, m + 1): it would need
        # K base steps and K - 1 fiber steps at once
        collapse_bound = min(self.geometry.n, m + 1) + 1
        k_iter = min(self.k_max, collapse_bound)
        K = 1
        proven = False
        while K < k_iter:
            if K == 1:
                self._seed_second_page()
            else:
                self._step(K)
            K += 1
            dims = {slot: basis.shape[1] for slot, basis in self.bases[K].items()}
            self.dims_history.append(dims)
            if K >= collapse_bound:
                proven = True
                break
            if dims == self.dims_history[K - 1]:
                if not self._possible_later_differential(dims, K):
                    proven = True
                    break
        self.k_stop = K
        self.stabilized = proven
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
        return {slot: r for slot, r in self.dims_history[K].items() if sum(slot) == degree}

    def entries(self, K, degree):
        """(slot, vector, lift) for every basis column of one degree at page
        K >= 2, lifts through order K - 1.  The forms are built once per page
        and degree and shared by every caller, which must not modify them."""
        key = (K, degree)
        if key not in self._handout:
            boxes = _boxes(self.conn, self.zero, K - 1)
            layouts = [_layout(self.conn, degree, box) for box in boxes]
            out = []
            for slot, w in self._lifts(K, degree).items():
                for col in range(w[0].shape[1]):
                    terms = [layout.form_from_vector(x[:, col]) for layout, x in zip(layouts, w)]
                    out.append((slot, terms[0], DeltaPolynomial(terms)))
            self._handout[key] = out
        return self._handout[key]


# -- harmonic limit ------------------------------------------------------------


def harmonic_limit(recursion, total_degree):
    """Real forms spanning the limit of harmonic spaces in one degree, from a
    run PageRecursion, on its connection and with its tolerances.

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
    layout = _layout(conn, total_degree, _boxes(conn, recursion.bands, K - 1)[-1])
    limits = np.zeros((layout.dim, sum(w[0].shape[1] for _, w in page)), dtype=complex)
    start = 0
    for (i0, j0), w in page:
        cols = slice(start, start + w[0].shape[1])
        start = cols.stop
        for l, (box, term) in enumerate(zip(_boxes(conn, recursion.zero, K - 1), w)):
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
    box, wide = _boxes(conn, bands, 1)
    here, up, down = (total_degree, box), (total_degree + 1, wide), (total_degree - 1, wide)
    layout = _layout(conn, *here)
    height = _layout(conn, *down).dim
    mats = []
    for a in range(3):
        s_rows, s_cols, s_vals = csr_entries(_component(conn, a, here, up))
        blocks = [_adjoint_entries(_component(conn, a, down, here)), (s_rows + height, s_cols, s_vals)]
        mats.append(_csr(blocks, (height + _layout(conn, *up).dim, layout.dim)))
    return layout, mats


def galerkin_coefficients(conn, total_degree, bands):
    """The matrices A_a of galerkin_polynomial, cached on the connection."""
    key = ("galerkin", total_degree, tuple(bands))
    if key not in conn._cache:
        conn._cache[key] = galerkin_polynomial(conn, total_degree, bands)[1]
    return conn._cache[key]


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
    blocks are those of the pattern |A|^T |A| + I, |A| = sum_a |A_a|, joined with
    its mirror image: the image adds nothing for an exactly real connection, but
    the reality check of a scenario passes a mode of up to 1e-12 relative at k
    with none at -k.  A stacked eigvalsh per block shape solves one block of each
    pair and every self-mirror block, and each kept block's eigenvalues are
    copied to its partner before the sort.  The pairing is cached beside the
    Galerkin matrices."""
    mats = galerkin_coefficients(conn, total_degree, bands)
    stacked = sum(float(delta) ** a * m for a, m in enumerate(mats))
    key = ("galerkin_blocks", total_degree, tuple(bands))
    if key not in conn._cache:
        pattern = sum(abs(m) for m in mats)
        n = pattern.shape[1]
        mirror = _layout(conn, total_degree, tuple(bands)).mirror()
        # the mirror is an involution, so with its permutation matrix swap,
        # swap @ G @ swap is G[mirror][:, mirror]; a product needs no sparse
        # kernel beyond those G does, where fancy indexing raised the peak RSS
        swap = scipy.sparse.csr_matrix((np.ones(n), mirror, np.arange(n + 1)), shape=(n, n))
        pattern = pattern.T @ pattern
        pattern = pattern + swap @ pattern @ swap + scipy.sparse.identity(n)
        conn._cache[key] = _mirror_pairs(_blocks(pattern), mirror)
    kept, copies = conn._cache[key]
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
    norms = [float(np.max(np.abs(row), initial=0.0)) for row in raw]
    eigen = np.maximum(raw, 0.0)  # clamped for the fits; the report keeps the minima
    dim = eigen.shape[1]
    # flag deltas where consecutive branch gaps are too small for sorted
    # matching to be trustworthy
    close = []
    for row, top in zip(eigen, norms):
        gaps = np.diff(row)
        close.append(bool(np.any(gaps < 1e-3 * max(top, 1e-300))))
    floors = 1e-12 * np.maximum(norms, 1e-300)
    d_min_idx = 0  # deltas sorted ascending: smallest first
    # the near-zero cut is anchored at the largest delta so it stays
    # meaningful when the whole spectrum decays (abelian fibers)
    reference_norm = max(norms[-1], 1e-300)
    branches = []
    logs = np.log(np.asarray(deltas))
    for b in range(dim):
        values = eigen[:, b]
        is_floor = bool(np.all(values <= floors))
        near_zero = values[d_min_idx] <= tolerances.near_zero_cut * reference_norm
        slope = None
        group = None
        within = None
        if is_floor:
            group = "inf"
        elif near_zero:
            safe = np.maximum(values, 1e-300)
            slope_fit = np.polyfit(logs, np.log(safe), 1)[0]
            slope = float(slope_fit)
            group = int(2 * max(round(slope / 2.0), 0))
            within = bool(abs(slope - group) <= tolerances.slope_window)
        branches.append(
            {
                "index": b,
                "near_zero": bool(near_zero or is_floor),
                "is_floor": is_floor,
                "slope": slope,
                "group": group,
                "within_tolerance": within,
            }
        )
    minima = [float(row[0]) if row.size else 0.0 for row in raw]
    return SpectrumReport(deltas, eigen, norms, branches, close, minima, floors.tolist())


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
