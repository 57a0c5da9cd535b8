"""Pages of the adiabatic spectral sequence and the harmonic limit.

The page E_K^{i,j} collects band-limited forms admitting polynomial lifts
omega + delta omega_1 + ... whose rescaled differential and codifferential
both vanish through order delta^(K-1).  Each next page is the kernel of a
Hodge-style Laplacian built from the projected leading coefficients; lifts
are extended by solving the correction systems by least squares: LSMR,
started from zero, on the stacked sparse component matrices of the
bigraded layer, which converges to the minimal-norm solution, the canonical
representative.  The order-4 recovery of the base primitive is solved the
same way, on the matrices of d_M and its adjoint over the (3,0) slot.

The recursion itself runs on coordinate matrices, with lifts over the box
of each slot basis' frequency support; forms are built only for output.

Only the final projections onto the band box are truncated; every operator
application on lifts is exact, with corrections confined to frequency
boxes that provably contain the minimal-norm solution (the coupling of the
connection widens reachable frequencies by at most its own band per order),
and each equation posed over a box that holds it whole.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .bigraded import (
    BigradedForm,
    DeltaPolynomial,
    TruncationLayout,
    bigraded_inner_product,
    bigraded_norm,
    d_component_matrix,
    d_delta,
    dstar_delta,
    galerkin_operator,
    to_fourier,
)
from .errors import ConfigError, NotExact, SolverFailure
from .lie_algebra import harmonic_subspace
from .multiindex import num_indices


class Tolerances:
    """Numerical thresholds used across the page computation.

    The solver residual, the near-zero cut of a spectrum and the window
    around an even decay slope are fixed; the others can be declared.
    """

    solver = 1e-12
    near_zero_cut = 0.02
    slope_window = 0.3

    def __init__(self, formal=1e-10, rank=1e-10, spectral=1e-8, max_iterations=6000):
        self.formal = float(formal)
        self.rank = float(rank)
        self.spectral = float(spectral)
        self.max_iterations = int(max_iterations)


# -- residual orders and formal verification -----------------------------------


def residual_orders(poly, conn):
    """Norms of every polynomial coefficient of d_delta and d*_delta."""
    d_out = d_delta(poly, conn)
    s_out = dstar_delta(poly, conn)
    d_list = [(m, bigraded_norm(c)) for m, c in enumerate(d_out.coefficients)]
    s_list = [(m, bigraded_norm(c)) for m, c in enumerate(s_out.coefficients)]
    return d_list, s_list


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


def _lsmr(mat, rhs, tolerances):
    """Minimal-norm least-squares solution of mat x = rhs by LSMR from zero.

    Started from zero, every iterate stays in the range of the adjoint, so
    the limit is the minimal-norm solution.  Returns (x, residual, converged),
    the residual recomputed as |rhs - mat x|, and converged meaning it is at
    most tolerances.solver * (1 + |rhs|).
    """
    b_norm = float(np.linalg.norm(rhs))
    tol_abs = tolerances.solver * (1.0 + b_norm)
    if b_norm <= tol_abs:
        return np.zeros(mat.shape[1], dtype=complex), b_norm, True
    # atol = 0 and conlim = 0 leave the residual test (or machine precision,
    # or max_iterations) as the only stop
    x = scipy.sparse.linalg.lsmr(
        mat, rhs, atol=0.0, btol=tol_abs / b_norm, conlim=0.0,
        maxiter=tolerances.max_iterations,
    )[0]
    res = float(np.linalg.norm(rhs - mat @ x))
    return x, res, res <= tol_abs


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


def _reach(keys, n):
    """Per-axis reach max |k_a| of a collection of frequency keys."""
    keys = np.array(list(keys), dtype=int).reshape(-1, n)
    return tuple(int(r) for r in np.max(np.abs(keys), axis=0, initial=0))


def _split_rows(layout, slot, box):
    """Rows of one slot of a layout with frequency inside / outside a box.

    A box lists its keys in lexicographic order, so the inside rows of a
    wider layout run in the order of the box's own coordinates.
    """
    nb, nf = layout.shapes[slot]
    inside = np.all(np.abs(np.array(layout.keys)) <= np.array(box), axis=1)
    rows = layout.offsets[slot] + np.arange(inside.size * nb * nf).reshape(inside.size, -1)
    return rows[inside].ravel(), rows[~inside].ravel()


def _correction_system(conn, degree, reach, order):
    """Stacked correction operator for lifts of degree-p vectors supported in
    the box ``reach``, cached on the connection.

    The unknown w_s (s = 0 .. order, w_0 the vector itself) lives in the
    box reach + s c, c the coupling band; equation t = 1 .. order asks that
    sum_a d_a w_(t-a) and sum_a d*_a w_(t-a) vanish, in the degree p + 1 and
    p - 1 layouts over the box reach + t c, which hold them whole.  Block
    (t, s) is d_(t-s), or d*_(t-s) as the conjugate transpose of the matrix
    from degree p - 1.  Returns (layouts of w_0 .. w_order, matrix on
    w_1 .. w_order, matrix on w_0).
    """
    key = ("corrections", degree, reach, order)
    if key not in conn._cache:
        boxes = _boxes(conn, reach, order)
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
        conn._cache[key] = (unknowns, full[:, n0:], full[:, :n0])
    return conn._cache[key]


def _solve_columns(conn, degree, reach, lead, order, tolerances, constraints=None):
    """Minimal-norm corrections of the columns of ``lead``, coordinates of
    degree-p vectors over the layout of the box ``reach``.

    One LSMR per column on the stacked correction system; each constraint
    form adds the rows <constraint, w_t>, one per order.  Returns
    [W_1 .. W_order], W_t the corrections over the box reach + t c with one
    column per column of ``lead``.  Raises SolverFailure when a column's
    system cannot be driven to zero (it is not on the page).
    """
    unknowns, mat, lead_mat = _correction_system(conn, degree, reach, order)
    rhs = -(lead_mat @ lead)
    if constraints:
        # rows <cons, w_t>, one per constraint and order
        cons_rows = [
            scipy.sparse.block_diag(
                [layout.vector_from_form(cons)[0].conj()[None] for layout in unknowns[1:]]
            )
            for cons in constraints
        ]
        mat = scipy.sparse.vstack([mat] + cons_rows, format="csr")
        rhs = np.vstack([rhs, np.zeros((len(constraints) * order, rhs.shape[1]), dtype=complex)])
    x = np.empty((mat.shape[1], rhs.shape[1]), dtype=complex)
    for col, b in enumerate(np.ascontiguousarray(rhs.T)):
        x[:, col], res, converged = _lsmr(mat, b, tolerances)
        if not converged:
            raise SolverFailure(
                f"correction system through order {order} stalled at residual {res:.3e}",
                order=order,
                residual=res,
            )
    return np.split(x, np.cumsum([layout.dim for layout in unknowns[1:]])[:-1])


def solve_corrections(conn, v, order, tolerances=None, constraints=None):
    """Corrections w_1..w_order with residual orders 1..order all zero.

    ``v`` has one total degree.  The unknown at order t is confined to the
    frequency box of v widened by t times the coupling band of the
    connection, which contains the minimal-norm solution.  ``constraints``
    is an optional list of bigraded forms each correction must stay
    orthogonal to.

    Raises SolverFailure when the stacked least-squares system cannot be
    driven to zero (the vector is not actually on the page).
    """
    tolerances = tolerances or Tolerances()
    if order <= 0:
        return []
    geo, alg = v.geometry, v.alg
    degrees = {i + j for i, j in v.slots()}
    if len(degrees) > 1:
        raise ConfigError("corrections are solved one total degree at a time")
    if not degrees:
        return [BigradedForm.zero(geo, alg) for _ in range(order)]
    degree = degrees.pop()
    reach = _reach((key for table in v.components.values() for key in table), geo.n)
    lead = _layout(conn, degree, reach).vector_from_form(v)[0][:, None]
    ws = _solve_columns(conn, degree, reach, lead, order, tolerances, constraints)
    return [
        _layout(conn, degree, box).form_from_vector(w[:, 0])
        for box, w in zip(_boxes(conn, reach, order)[1:], ws)
    ]


# -- the page recursion ------------------------------------------------------------


class PageBasis:
    """Orthonormal basis of one page in one total degree, with lifts."""

    def __init__(self, degree, page, entries, dims, diagnostics=None):
        self.degree = degree
        self.page = page
        self.entries = entries
        self.dims = dims
        self.diagnostics = diagnostics or {}

    @property
    def total_dim(self):
        return sum(self.dims.values())


class PageRecursion:
    """Simultaneous page computation in every total degree.

    The first page is closed-form: the leading operator is frequency-local
    and acts only on the fiber index, so its kernel is (box) x (base
    indices) x (fiber harmonic subspace) on every slot.  Later pages use
    projected leading coefficients of exactly-computed lifts.

    Everything runs on coordinate matrices with one column per basis
    vector.  The lift terms of a page slot are one matrix per order, solved
    on the cached correction systems over the box of the slot basis'
    frequency support; the leading coefficients are products with the
    cached component matrices over a box that holds them whole and contains
    the page box, so projecting onto the page is a row selection.  Forms
    are built only when page_basis or infinity_entries hand lifts out.
    """

    def __init__(self, conn, bands, k_max=6, tolerances=None):
        self.conn = conn
        self.geometry = conn.geometry
        self.alg = conn.alg
        self.bands = tuple(bands)
        self.k_max = int(k_max)
        self.tol = tolerances or Tolerances()
        n, m = self.geometry.n, self.alg.dim
        self.slots = [
            (i, j)
            for i in range(n + 1)
            for j in range(m + 1)
            if num_indices(n, i) and num_indices(m, j)
        ]
        self.coords = {
            slot: TruncationLayout(self.geometry, self.alg, [slot], self.bands)
            for slot in self.slots
        }
        # bases[K][slot] -> complex matrix (slot_dim, r); lifts[K][slot] ->
        # (support box, [W_1 .. W_(K-1)]), filled on first use
        self.bases = {}
        self.lifts = {}
        self._handout = {}  # (K, degree) -> infinity_entries
        self.dims_history = []
        self.diagnostics = {
            "projection_cut": 0.0,
            "offslot_residual": 0.0,
            "adjoint_consistency": 0.0,
            "dsq_residual": 0.0,
            "corrections_solved": 0,
        }
        self.k_stop = None
        self.stabilized = False

    # ---- dimensions ------------------------------------------------------

    def full_dims(self):
        return {slot: self.coords[slot].dim for slot in self.slots}

    def dims_at(self, K):
        if K == 0:
            return self.full_dims()
        return {slot: mat.shape[1] for slot, mat in self.bases[K].items()}

    # ---- page 1 ----------------------------------------------------------

    def _seed_first_page(self):
        bases = {}
        for slot in self.slots:
            i, j = slot
            coords = self.coords[slot]
            harm = harmonic_subspace(self.alg, j)
            if harm.shape[1] == 0:
                continue
            hat = self.alg.chol(j).T @ harm  # orthonormal columns
            nb, _ = coords.shapes[slot]
            bases[slot] = np.kron(np.eye(len(coords.keys) * nb), hat).astype(complex)
        self.bases[1] = bases

    # ---- lifts and leading coefficients -----------------------------------

    def _embed(self, slot, basis, box):
        """Basis columns as coordinates over the degree layout of a box that
        holds their support."""
        layout = _layout(self.conn, sum(slot), box)
        inside, _ = _split_rows(self.coords[slot], slot, box)
        out = np.zeros((layout.dim, basis.shape[1]), dtype=complex)
        start = layout.offsets[slot]
        out[start : start + inside.size] = basis[inside]
        return out

    def _lifts(self, K):
        """Per slot of page K, (support box, [W_1 .. W_(K-1)]): the
        minimal-norm lift terms of every basis column, solved on first use."""
        if K not in self.lifts:
            lifts = {}
            for slot, basis in self.bases[K].items():
                coords = self.coords[slot]
                support = np.any(basis.reshape(len(coords.keys), -1) != 0, axis=1)
                box = _reach(np.array(coords.keys)[support], self.geometry.n)
                ws = []
                if K >= 2:
                    lead = self._embed(slot, basis, box)
                    ws = _solve_columns(self.conn, sum(slot), box, lead, K - 1, self.tol)
                    self.diagnostics["corrections_solved"] += basis.shape[1]
                lifts[slot] = (box, ws)
            self.lifts[K] = lifts
        return self.lifts[K]

    def _leading(self, K, degree, box, w, up):
        """Order-K coefficient of d_delta (``up``) or d*_delta on the lifts
        w = [W_0 .. W_(K-1)] of degree-p columns supported in ``box``:
        sum over s = max(K - 2, 0) .. K - 1 of d_(K-s) W_s.  Returns the
        degree p +- 1 layout over max(box + K c, page box), which holds the
        coefficient whole and contains the page box, and its coordinates."""
        boxes = _boxes(self.conn, box, K)
        outer = (degree + 1 if up else degree - 1, tuple(map(max, boxes[K], self.bands)))
        total = 0
        for s in range(max(K - 2, 0), K):
            inner = (degree, boxes[s])
            if up:
                total = total + _component(self.conn, K - s, inner, outer) @ w[s]
            else:
                total = total + _component(self.conn, K - s, outer, inner).conj().T @ w[s]
        return _layout(self.conn, *outer), total

    def _project(self, layout, coeff, target, adjoints):
        """Project the columns of a leading coefficient onto the target page
        slot, or return None when it has no page.  ``adjoints`` maps each page
        slot to the conjugate transpose of its basis.  Also accumulates the
        off-slot and out-of-box (cut) masses, which the page theory says must
        vanish, relative to the column norms."""
        scale = 1.0 + np.linalg.norm(coeff, axis=0)
        out = None
        for slot, adjoint in adjoints.items():
            if slot not in layout.offsets:
                continue
            inside, outside = _split_rows(layout, slot, self.bands)
            cut = np.linalg.norm(coeff[outside], axis=0) / scale
            self.diagnostics["projection_cut"] = max(
                self.diagnostics["projection_cut"], float(np.max(cut))
            )
            proj = adjoint @ coeff[inside]
            if slot == target:
                out = proj
            else:
                off = np.linalg.norm(proj, axis=0) / scale
                self.diagnostics["offslot_residual"] = max(
                    self.diagnostics["offslot_residual"], float(np.max(off))
                )
        return out

    # ---- generic step ----------------------------------------------------

    def _step(self, K):
        """Compute page K+1 from page K."""
        bases = self.bases[K]
        lifts = self._lifts(K)
        adjoints = {slot: basis.conj().T for slot, basis in bases.items()}
        degrees = {i + j for i, j in bases}
        mat_d, mat_s = {}, {}
        for slot, basis in bases.items():
            i, j = slot
            box, ws = lifts[slot]
            w = [self._embed(slot, basis, box)] + ws
            for up, mats, target in (
                (True, mat_d, (i + K, j - K + 1)),
                (False, mat_s, (i - K, j + K - 1)),
            ):
                if i + j + (1 if up else -1) not in degrees:
                    continue
                proj = self._project(*self._leading(K, i + j, box, w, up), target, adjoints)
                if proj is not None:
                    mats[slot] = proj
        # assemble the page Laplacian per slot and cut its kernel
        new_bases = {}
        consistency = self.diagnostics["adjoint_consistency"]
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
            evals, evecs = np.linalg.eigh(lap)
            lam_max = float(evals[-1]) if evals.size else 0.0
            floor = 1e-18 * max(self._op_scale() ** 4, 1.0)
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
        self._seed_first_page()
        self.dims_history = [self.full_dims(), self.dims_at(1)]
        # no differential can act beyond page min(n, m + 1): it would need
        # K base steps and K - 1 fiber steps at once
        collapse_bound = min(self.geometry.n, self.alg.dim + 1) + 1
        k_iter = min(self.k_max, collapse_bound)
        K = 1
        proven = K >= collapse_bound
        while K < k_iter:
            self._step(K)
            K += 1
            dims = self.dims_at(K)
            self.dims_history.append(dims)
            if K >= collapse_bound:
                proven = True
                break
            if dims == self.dims_history[K - 1] and K >= 2:
                if not self._possible_later_differential(dims, K):
                    proven = True
                    break
        self.k_stop = K
        self.stabilized = proven or self.dims_history[-1] == self.dims_history[-2]
        return self

    # ---- extraction ---------------------------------------------------------

    def dims_for_degree(self, K, degree):
        dims = self.dims_at(K)
        return {slot: r for slot, r in dims.items() if slot[0] + slot[1] == degree}

    def _entries(self, K, degree):
        """(slot, vector, lift) for every basis column of one degree at page K."""
        lifts = self._lifts(K)
        out = []
        for slot, basis in self.bases[K].items():
            if sum(slot) != degree:
                continue
            box, ws = lifts[slot]
            layouts = [_layout(self.conn, degree, b) for b in _boxes(self.conn, box, len(ws))[1:]]
            for col in range(basis.shape[1]):
                v = self.coords[slot].form_from_vector(basis[:, col])
                terms = [layout.form_from_vector(w[:, col]) for layout, w in zip(layouts, ws)]
                out.append((slot, v, DeltaPolynomial([v] + terms)))
        return out

    def page_basis(self, degree, K):
        """Materialize a PageBasis for one degree at one page."""
        dims = self.dims_for_degree(K, degree)
        entries = []
        if K == 0:
            for slot in self.slots:
                if slot[0] + slot[1] != degree:
                    continue
                coords = self.coords[slot]
                for idx in range(coords.dim):
                    unit = np.zeros(coords.dim, dtype=complex)
                    unit[idx] = 1.0
                    v = coords.form_from_vector(unit)
                    entries.append((v, DeltaPolynomial([v])))
        else:
            entries = [(v, lift) for _, v, lift in self._entries(K, degree)]
        return PageBasis(degree, K, entries, dims, dict(self.diagnostics))

    def infinity_entries(self, degree):
        """Basis and lifts of the stabilized page in one degree, with lifts
        extended through order k_stop - 1.  The forms are built once per
        degree and shared by every caller, which must not modify them."""
        key = (self.k_stop, degree)
        if key not in self._handout:
            self._handout[key] = self._entries(self.k_stop, degree)
        return self._handout[key]


def compute_pages(conn, total_degree, k_max=6, bands=None, tolerances=None):
    """Pages K = 0 .. stabilization for one total degree.

    Every page is computed for all degrees simultaneously (the Laplacian of
    a page couples neighbouring degrees); the returned list covers the
    requested degree only.
    """
    bands = bands if bands is not None else (1,) * conn.geometry.n
    rec = PageRecursion(conn, bands, k_max=k_max, tolerances=tolerances).run()
    return [rec.page_basis(total_degree, K) for K in range(rec.k_stop + 1)]


def run_page_recursion(conn, bands, k_max=6, tolerances=None):
    return PageRecursion(conn, bands, k_max=k_max, tolerances=tolerances).run()


# -- harmonic limit ------------------------------------------------------------


def harmonic_limit(conn, total_degree, bands=None, k_max=6, tolerances=None, recursion=None):
    """Real forms spanning the limit of harmonic spaces in one degree.

    Each stabilized-page lift omega + delta omega_1 + ... contributes its
    anti-diagonal constant term: the sum over i of the (i, p-i)-slot of the
    order-i coefficient.
    """
    tolerances = tolerances or Tolerances()
    if recursion is None:
        bands = bands if bands is not None else (1,) * conn.geometry.n
        recursion = run_page_recursion(conn, bands, k_max=k_max, tolerances=tolerances)
    if not recursion.stabilized:
        raise SolverFailure(
            f"pages did not stabilize within K_max = {recursion.k_max}",
            order=recursion.k_stop,
        )
    entries = recursion.infinity_entries(total_degree)
    limits = []
    for slot0, _, lift in entries:
        # the lift of a leading (i0, j0)-vector must be raised by delta^i0
        # before regrading, so order l contributes at slot (l + i0, p - l - i0)
        i0 = slot0[0]
        total = BigradedForm.zero(conn.geometry, conn.alg)
        for l in range(total_degree - i0 + 1):
            coeff = lift.coefficient(l)
            if coeff is None:
                continue
            slot = (l + i0, total_degree - l - i0)
            if slot in coeff.components:
                part = BigradedForm(
                    conn.geometry, conn.alg, {slot: coeff.components[slot]}
                )
                total = total + part
        limits.append(total.prune())
    reals = _realify(limits, conn, tolerances)
    # each limit, regraded back into a polynomial, is formally harmonic
    # through order p
    for form in reals:
        poly_coeffs = []
        for i in range(total_degree + 1):
            slot = (i, total_degree - i)
            table = form.components.get(slot)
            coeff = BigradedForm(conn.geometry, conn.alg)
            if table:
                coeff.components[slot] = {k: v.copy() for k, v in table.items()}
            poly_coeffs.append(coeff)
        report = verify_formal_harmonic(
            DeltaPolynomial(poly_coeffs), conn, total_degree, tolerances
        )
        if not report["passed"]:
            raise SolverFailure(
                "harmonic limit candidate fails the formal residual check",
                residual=max(v for _, v in report["failures"]),
            )
    return reals


def _conjugate_form(form):
    """The reality involution: conjugate coefficients and flip frequencies."""
    out = BigradedForm(form.geometry, form.alg)
    for slot, table in form.components.items():
        for key, val in table.items():
            out.set_value(slot, tuple(-k for k in key), np.conj(val))
    return out


def _realify(forms, conn, tolerances):
    """Real span of a conjugation-stable family of complex forms.

    Splits each form against the reality involution (not entrywise real
    and imaginary parts), then orthonormalizes the candidates in the
    bigraded inner product; the real dimension must equal the complex one.
    """
    if not forms:
        return []
    candidates = []
    for form in forms:
        bar = _conjugate_form(form)
        candidates.append((0.5 * (form + bar)).prune())
        candidates.append(((-0.5j) * (form - bar)).prune())
    gram = np.array(
        [
            [bigraded_inner_product(a, b).real for b in candidates]
            for a in candidates
        ]
    )
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    top = float(evals[-1]) if evals.size else 0.0
    keep = evals > tolerances.spectral * max(top, 1e-300)
    rank = int(np.sum(keep))
    if rank != len(forms):
        raise SolverFailure(f"real span has dimension {rank}, expected {len(forms)}")
    out = []
    for s in np.nonzero(keep)[0]:
        combo = BigradedForm.zero(conn.geometry, conn.alg)
        for a, c in enumerate(evecs[:, s]):
            if c != 0.0:
                combo = combo + (c / np.sqrt(evals[s])) * candidates[a]
        out.append(combo.prune())
    return out


# -- eigenvalue sweeps ------------------------------------------------------------


class SpectrumReport:
    def __init__(self, deltas, eigenvalues, spectral_norms, branches, close_gap_flags):
        self.deltas = deltas
        self.eigenvalues = eigenvalues  # shape (len(deltas), dim), ascending
        self.spectral_norms = spectral_norms
        self.branches = branches
        self.close_gap_flags = close_gap_flags

    def group_counts(self):
        counts = {}
        for branch in self.branches:
            counts[branch["group"]] = counts.get(branch["group"], 0) + 1
        return counts


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
    rows = []
    norms = []
    for delta in deltas:
        mat = galerkin_operator(conn, total_degree, delta, bands)
        herm = 0.5 * (mat + mat.conj().T)
        try:
            evals = np.linalg.eigvalsh(herm.toarray())
        except np.linalg.LinAlgError as err:
            raise SolverFailure(f"eigensolver failed at delta = {delta}: {err}")
        rows.append(np.maximum(evals, 0.0))
        norms.append(float(np.max(np.abs(evals))) if evals.size else 0.0)
    eigen = np.stack(rows)
    dim = eigen.shape[1]
    # flag deltas where consecutive branch gaps are too small for sorted
    # matching to be trustworthy
    close = []
    for row, top in zip(eigen, norms):
        gaps = np.diff(row)
        close.append(bool(np.any(gaps < 1e-3 * max(top, 1e-300))))
    floor_tol = 1e-12
    d_min_idx = 0  # deltas sorted ascending: smallest first
    # the near-zero cut is anchored at the largest delta so it stays
    # meaningful when the whole spectrum decays (abelian fibers)
    reference_norm = max(norms[-1], 1e-300)
    branches = []
    logs = np.log(np.asarray(deltas))
    for b in range(dim):
        values = eigen[:, b]
        is_floor = bool(np.all(values <= floor_tol * np.maximum(norms, 1e-300)))
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
                "values": values,
                "near_zero": bool(near_zero or is_floor),
                "is_floor": is_floor,
                "slope": slope,
                "group": group,
                "within_tolerance": within,
            }
        )
    return SpectrumReport(deltas, eigen, norms, branches, close)


def near_zero_count(conn, total_degree, delta, bands, threshold_rel):
    """Number of eigenvalues below threshold_rel x spectral norm at one delta.

    Up to dimension 6000 the dense spectrum is computed; above it, where a
    dense matrix no longer fits comfortably in memory, shift-invert Lanczos
    finds the eigenvalues nearest zero, doubling their number until the
    count falls below it.
    """
    mat = galerkin_operator(conn, total_degree, delta, bands)
    herm = 0.5 * (mat + mat.conj().T)
    dim = herm.shape[0]
    if dim <= 6000:
        evals = np.linalg.eigvalsh(herm.toarray())
        top = float(np.max(np.abs(evals))) if evals.size else 0.0
        return int(np.sum(evals <= threshold_rel * max(top, 1e-300))), top
    herm = herm.tocsc()
    top = float(
        scipy.sparse.linalg.eigsh(herm, k=1, which="LA", return_eigenvectors=False)[0]
    )
    k = min(24, dim - 2)
    while True:
        try:
            vals = scipy.sparse.linalg.eigsh(
                herm,
                k=k,
                sigma=-1e-3 * max(top, 1.0),
                which="LM",
                return_eigenvectors=False,
            )
        except Exception as err:
            raise SolverFailure(f"sparse eigensolver failed: {err}")
        count = int(np.sum(vals <= threshold_rel * top))
        if count < k or k >= dim - 2:
            return count, top
        k = min(2 * k, dim - 2)


# -- recovering the base primitive from the order-4 constraint ---------------------


def recover_omega3(conn, cs3_poly, tolerances=None):
    """Solve the order-4 cancellation for the (3,0) term of the degree-3 lift.

    The constraint is d_M x = -(degree-4 characteristic form), with x
    coclosed and orthogonal to the harmonic 3-forms; solved by LSMR on the
    stacked sparse system, independently of the closed-form primitive
    construction.
    """
    from .base_forms import hodge_decompose, norm as base_norm

    tolerances = tolerances or Tolerances()
    geo, alg = conn.geometry, conn.alg
    if geo.n < 4:
        raise ConfigError("the degree-3 recovery needs a 4-dimensional base")
    residual = d_delta(cs3_poly, conn).coefficient(4)
    if residual is None:
        raise ConfigError("lift has no order-4 residual to cancel")
    rhs_form = to_fourier(residual, 4)
    _, _, harm = hodge_decompose(rhs_form)
    scale = base_norm(rhs_form)
    if base_norm(harm) > tolerances.formal * max(scale, 1e-300):
        raise NotExact(
            "order-4 constraint has a harmonic component; the degree-4 class is nonzero",
            harmonic_norm=base_norm(harm),
        )
    # on pulled-back base forms the covariant derivative is d_M (ad* vanishes
    # on Lambda^0), and the harmonic part is the zero-frequency block
    layouts = {
        i: TruncationLayout(geo, alg, [(i, 0)], rhs_form.bands) for i in (2, 3, 4)
    }
    d_mat = d_component_matrix(conn, 1, layouts[3], layouts[4])
    dstar_mat = d_component_matrix(conn, 1, layouts[2], layouts[3]).conj().T
    nb = num_indices(geo.n, 3)
    zero_freq = layouts[3].key_pos[(0,) * geo.n] * nb + np.arange(nb)
    harmonic_mat = scipy.sparse.csr_matrix(
        (np.ones(nb), (np.arange(nb), zero_freq)), shape=(nb, layouts[3].dim)
    )
    mat = scipy.sparse.vstack([d_mat, dstar_mat, harmonic_mat], format="csr")
    rhs = np.concatenate(
        [-layouts[4].vector_from_form(residual)[0], np.zeros(layouts[2].dim + nb, dtype=complex)]
    )
    x, res, converged = _lsmr(mat, rhs, tolerances)
    if not converged:
        raise SolverFailure(
            f"order-4 recovery stalled at residual {res:.3e}", order=4, residual=res
        )
    return to_fourier(layouts[3].form_from_vector(x), 3).trim()
