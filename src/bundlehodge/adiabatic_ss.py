"""Pages of the adiabatic spectral sequence and the harmonic limit.

The page E_K^{i,j} collects band-limited forms admitting polynomial lifts
omega + delta omega_1 + ... whose rescaled differential and codifferential
both vanish through order delta^(K-1).  Each next page is the kernel of a
Hodge-style Laplacian built from the projected leading coefficients; lifts
are extended by solving the correction systems by least squares (conjugate
gradient on the normal equations, which converges to the minimal-norm
solution, the canonical representative).

Only the final projections onto the band box are truncated; every operator
application on lifts is exact, with corrections confined to frequency
boxes that provably contain the minimal-norm solution (the coupling of the
connection widens reachable frequencies by at most its own band per order).
"""

import numpy as np
import scipy.sparse.linalg

from .base_forms import FourierForm
from .bigraded import (
    BigradedForm,
    DeltaPolynomial,
    TruncationLayout,
    apply_d_component,
    apply_dstar_component,
    bigraded_inner_product,
    bigraded_norm,
    covariant_d,
    covariant_dstar,
    curvature_contraction,
    curvature_contraction_star,
    d_delta,
    dstar_delta,
    galerkin_operator,
    to_fourier,
)
from .errors import ConfigError, NotExact, SolverFailure
from .lie_algebra import harmonic_subspace
from .multiindex import num_indices


class Tolerances:
    """Numerical thresholds used across the page computation."""

    def __init__(
        self,
        formal=1e-10,
        rank=1e-10,
        spectral=1e-8,
        solver=1e-12,
        near_zero_cut=0.02,
        slope_window=0.3,
        max_iterations=6000,
    ):
        self.formal = float(formal)
        self.rank = float(rank)
        self.spectral = float(spectral)
        self.solver = float(solver)
        self.near_zero_cut = float(near_zero_cut)
        self.slope_window = float(slope_window)
        self.max_iterations = int(max_iterations)


# -- residual orders and formal verification -----------------------------------


def residual_orders(poly, conn):
    """Norms of every polynomial coefficient of d_delta and d*_delta."""
    d_out = d_delta(poly, conn)
    s_out = dstar_delta(poly, conn)
    d_list = [(m, bigraded_norm(c)) for m, c in enumerate(d_out.coefficients)]
    s_list = [(m, bigraded_norm(c)) for m, c in enumerate(s_out.coefficients)]
    return d_list, s_list


def verify_formal_harmonic(poly, conn, order):
    """Check that both residuals vanish at every order below ``order``."""
    from .bigraded import poly_norm

    d_list, s_list = residual_orders(poly, conn)
    tol = 1e-10 * (1.0 + poly_norm(poly))
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


# -- generic conjugate-gradient least squares -----------------------------------


def _cgls(apply_a, apply_at, b, dot_dom, comb_dom, dot_ran, comb_ran, zero_dom, tol_abs, maxiter):
    """Minimal-norm least squares via CG on the normal equations.

    Domain and range may be different structured vector spaces, each with
    its own inner product and axpy.  Starting from zero keeps every iterate
    in the range of the adjoint, so the limit is the minimal-norm solution
    in the domain inner product.  Returns (x, residual_norm, converged).
    """
    x = zero_dom()
    r = b
    s = apply_at(r)
    p = s
    gamma = dot_dom(s, s).real
    b_norm = np.sqrt(max(dot_ran(b, b).real, 0.0))
    if b_norm <= tol_abs:
        return x, b_norm, True
    for _ in range(maxiter):
        r_norm = np.sqrt(max(dot_ran(r, r).real, 0.0))
        if r_norm <= tol_abs:
            return x, r_norm, True
        if gamma <= (1e-16 * b_norm) ** 2:
            return x, r_norm, False
        q = apply_a(p)
        qq = dot_ran(q, q).real
        if qq <= 0.0:
            return x, r_norm, False
        alpha = gamma / qq
        x = comb_dom(x, alpha, p)
        r = comb_ran(r, -alpha, q)
        s = apply_at(r)
        gamma_new = dot_dom(s, s).real
        p = comb_dom(s, gamma_new / gamma, p)
        gamma = gamma_new
    r_norm = np.sqrt(max(dot_ran(r, r).real, 0.0))
    return x, r_norm, r_norm <= tol_abs


def _truncate_box(form, bands):
    """Drop frequencies outside the per-axis box; in-place-free."""
    out = BigradedForm(form.geometry, form.alg)
    for slot, table in form.components.items():
        kept = {
            key: val
            for key, val in table.items()
            if all(abs(k) <= b for k, b in zip(key, bands))
        }
        if kept:
            out.components[slot] = kept
    return out


class _StackSpace:
    """List-of-bigraded-forms vector space for the correction systems."""

    def __init__(self, geometry, alg, length):
        self.geometry = geometry
        self.alg = alg
        self.length = length

    def zero(self):
        return [BigradedForm.zero(self.geometry, self.alg) for _ in range(self.length)]

    @staticmethod
    def dot(xs, ys):
        return sum(bigraded_inner_product(x, y) for x, y in zip(xs, ys))

    @staticmethod
    def combine(xs, alpha, ys):
        return [x + alpha * y for x, y in zip(xs, ys)]


def solve_corrections(conn, v, order, tolerances=None, constraints=None):
    """Corrections w_1..w_order with residual orders 1..order all zero.

    The unknown at order t is confined to the frequency box of v widened by
    t times the coupling band of the connection, which contains the
    minimal-norm solution.  ``constraints`` is an optional list of
    bigraded forms each correction must stay orthogonal to.

    Raises SolverFailure when the stacked least-squares system cannot be
    driven to zero (the vector is not actually on the page).
    """
    tolerances = tolerances or Tolerances()
    if order <= 0:
        return []
    geo, alg = v.geometry, v.alg
    coupling = conn.coupling_bands()
    base_reach = [0] * geo.n
    for table in v.components.values():
        for key in table:
            for a, k in enumerate(key):
                base_reach[a] = max(base_reach[a], abs(k))
    boxes = [
        tuple(base_reach[a] + (t + 1) * coupling[a] for a in range(geo.n))
        for t in range(order)
    ]
    space = _StackSpace(geo, alg, order)
    n_cons = len(constraints) if constraints else 0

    def forward(ws):
        eqs_d, eqs_s = [], []
        for t in range(1, order + 1):
            terms_d, terms_s = [], []
            for a in range(3):
                idx = t - a - 1
                if 0 <= idx < order:
                    terms_d.append(apply_d_component(ws[idx], conn, a))
                    terms_s.append(apply_dstar_component(ws[idx], conn, a))
            eq_d = terms_d[0]
            for term in terms_d[1:]:
                eq_d = eq_d + term
            eq_s = terms_s[0]
            for term in terms_s[1:]:
                eq_s = eq_s + term
            eqs_d.append(eq_d)
            eqs_s.append(eq_s)
        scalars = np.zeros(n_cons * order, dtype=complex)
        if constraints:
            for s, cons in enumerate(constraints):
                for t in range(order):
                    scalars[s * order + t] = bigraded_inner_product(cons, ws[t])
        return (eqs_d, eqs_s, scalars)

    def adjoint(system):
        eqs_d, eqs_s, scalars = system
        out = []
        for t in range(order):
            acc = BigradedForm.zero(geo, alg)
            for a in range(3):
                idx = t + a  # equation order t + a + 1 has index t + a
                if idx < order:
                    acc = acc + apply_dstar_component(eqs_d[idx], conn, a)
                    acc = acc + apply_d_component(eqs_s[idx], conn, a)
            if constraints:
                for s, cons in enumerate(constraints):
                    z = scalars[s * order + t]
                    if z != 0.0:
                        acc = acc + z * cons
            out.append(_truncate_box(acc, boxes[t]))
        return out

    def sys_dot(x, y):
        total = _StackSpace.dot(x[0], y[0]) + _StackSpace.dot(x[1], y[1])
        total += complex(np.vdot(x[2], y[2]))
        return total

    def sys_combine(x, alpha, y):
        return (
            _StackSpace.combine(x[0], alpha, y[0]),
            _StackSpace.combine(x[1], alpha, y[1]),
            x[2] + alpha * y[2],
        )

    rhs_d = [BigradedForm.zero(geo, alg) for _ in range(order)]
    rhs_s = [BigradedForm.zero(geo, alg) for _ in range(order)]
    rhs_d[0] = -1.0 * covariant_d(v, conn)
    rhs_s[0] = -1.0 * covariant_dstar(v, conn)
    if order >= 2:
        rhs_d[1] = -1.0 * curvature_contraction(v, conn)
        rhs_s[1] = -1.0 * curvature_contraction_star(v, conn)
    rhs = (rhs_d, rhs_s, np.zeros(n_cons * order, dtype=complex))
    scale = 1.0 + np.sqrt(max(sys_dot(rhs, rhs).real, 0.0))
    ws, res, converged = _cgls(
        forward,
        adjoint,
        rhs,
        dot_dom=_StackSpace.dot,
        comb_dom=_StackSpace.combine,
        dot_ran=sys_dot,
        comb_ran=sys_combine,
        zero_dom=space.zero,
        tol_abs=tolerances.solver * scale,
        maxiter=tolerances.max_iterations,
    )
    if not converged:
        raise SolverFailure(
            f"correction system through order {order} stalled at residual {res:.3e}",
            order=order,
            residual=res,
        )
    return [w.prune() for w in ws]


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
        # bases[K][slot] -> complex matrix (slot_dim, r); lifts[K][slot][col]
        self.bases = {}
        self.lifts = {}
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
        return {
            slot: self.coords[slot].dim
            for slot in self.slots
            if self.coords[slot].dim
        }

    def dims_at(self, K):
        if K == 0:
            return self.full_dims()
        return {
            slot: mat.shape[1]
            for slot, mat in self.bases[K].items()
            if mat.shape[1]
        }

    # ---- page 1 ----------------------------------------------------------

    def _seed_first_page(self):
        bases = {}
        lifts = {}
        for slot in self.slots:
            i, j = slot
            coords = self.coords[slot]
            harm = harmonic_subspace(self.alg, j)
            if harm.shape[1] == 0 or coords.dim == 0:
                continue
            hat = self.alg.chol(j).T @ harm  # orthonormal columns
            nb, _ = coords.shapes[slot]
            basis = np.kron(np.eye(len(coords.keys) * nb), hat).astype(complex)
            bases[slot] = basis
            lifts[slot] = [[] for _ in range(basis.shape[1])]
        self.bases[1] = bases
        self.lifts[1] = lifts

    # ---- generic step ----------------------------------------------------

    def _column_form(self, K, slot, col):
        return self.coords[slot].form_from_vector(self.bases[K][slot][:, col])

    def _column_lift(self, K, slot, col):
        v = self._column_form(K, slot, col)
        return DeltaPolynomial([v] + list(self.lifts[K][slot][col]))

    def _ensure_lifts(self, K):
        """Fresh canonical corrections through order K-1 for every column."""
        if K < 2:
            return
        for slot, basis in self.bases[K].items():
            for col in range(basis.shape[1]):
                if len(self.lifts[K][slot][col]) >= K - 1:
                    continue
                v = self._column_form(K, slot, col)
                ws = solve_corrections(self.conn, v, K - 1, self.tol)
                self.lifts[K][slot][col] = ws
                self.diagnostics["corrections_solved"] += 1

    def _step(self, K):
        """Compute page K+1 from page K."""
        self._ensure_lifts(K)
        bases = self.bases[K]
        adjoints = {slot: basis.conj().T for slot, basis in bases.items() if basis.shape[1]}
        mat_d = {}
        mat_s = {}
        for slot, basis in bases.items():
            r = basis.shape[1]
            if r == 0:
                continue
            i, j = slot
            t_d = (i + K, j - K + 1)
            t_s = (i - K, j + K - 1)
            rho_cols = []
            sig_cols = []
            for col in range(r):
                lift = self._column_lift(K, slot, col)
                rho = d_delta(lift, self.conn).coefficient(K)
                sig = dstar_delta(lift, self.conn).coefficient(K)
                rho_cols.append(rho)
                sig_cols.append(sig)
            mat_d[slot] = self._project_columns(rho_cols, t_d, adjoints)
            mat_s[slot] = self._project_columns(sig_cols, t_s, adjoints)
        # assemble the page Laplacian per slot and cut its kernel
        new_bases = {}
        new_lifts = {}
        consistency = self.diagnostics["adjoint_consistency"]
        for slot, basis in bases.items():
            r = basis.shape[1]
            if r == 0:
                continue
            i, j = slot
            s_in = (i - K, j + K - 1)
            t_d = (i + K, j - K + 1)
            lap = np.zeros((r, r), dtype=complex)
            m_out = mat_d.get(slot)
            if m_out is not None:
                lap += m_out.conj().T @ m_out
            m_in = mat_d.get(s_in)
            if m_in is not None and s_in in bases:
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
                cols = []
                for cnew in range(kernel.shape[1]):
                    combo = []
                    max_terms = max(
                        (len(self.lifts[K][slot][c]) for c in range(r)), default=0
                    )
                    for t in range(max_terms):
                        acc = BigradedForm.zero(self.geometry, self.alg)
                        for c in range(r):
                            terms = self.lifts[K][slot][c]
                            if t < len(terms) and kernel[c, cnew] != 0.0:
                                acc = acc + kernel[c, cnew] * terms[t]
                        combo.append(acc.prune())
                    cols.append(combo)
                new_lifts[slot] = cols
        self.diagnostics["adjoint_consistency"] = consistency
        # record the (pi_K d_K)^2 residual across two hops
        dsq = self.diagnostics["dsq_residual"]
        for slot in mat_d:
            i, j = slot
            mid = (i + K, j - K + 1)
            if mid in mat_d and mat_d[slot] is not None and mat_d[mid] is not None:
                prod = mat_d[mid] @ mat_d[slot]
                if prod.size:
                    scale = 1.0 + float(
                        np.linalg.norm(mat_d[mid]) * np.linalg.norm(mat_d[slot])
                    )
                    dsq = max(dsq, float(np.linalg.norm(prod)) / scale)
        self.diagnostics["dsq_residual"] = dsq
        self.bases[K + 1] = new_bases
        self.lifts[K + 1] = new_lifts

    def _project_columns(self, forms, target_slot, adjoints):
        """Project leading coefficients onto the target page slot.

        ``adjoints`` maps each nonempty page slot to the conjugate transpose
        of its basis.  Returns the matrix, or None when the target slot has
        no page; also accumulates the off-slot and out-of-box masses, which
        the page theory says must vanish.
        """
        cols = []
        for form in forms:
            if form is None:
                form = BigradedForm.zero(self.geometry, self.alg)
            scale = 1.0 + bigraded_norm(form)
            for slot, adjoint in adjoints.items():
                vec, cut = self.coords[slot].vector_from_form(form)
                self.diagnostics["projection_cut"] = max(
                    self.diagnostics["projection_cut"], cut / scale
                )
                proj = adjoint @ vec
                if slot == target_slot:
                    cols.append(proj)
                else:
                    off = float(np.linalg.norm(proj)) / scale
                    self.diagnostics["offslot_residual"] = max(
                        self.diagnostics["offslot_residual"], off
                    )
        if target_slot not in adjoints or not cols:
            return None
        return np.stack(cols, axis=1)

    def _op_scale(self):
        total = 1.0
        for _, _, _, v in self.conn.a_entries() + self.conn.f_entries():
            total += abs(v)
        return total

    # ---- driver -----------------------------------------------------------

    def _possible_later_differential(self, dims, K_from):
        n, m = self.geometry.n, self.alg.dim
        for K in range(K_from, min(n, m + 1) + 1):
            for (i, j), r in dims.items():
                if r == 0:
                    continue
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

    def page_basis(self, degree, K):
        """Materialize a PageBasis for one degree at one page."""
        if K >= 2:
            self._ensure_lifts(K)
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
            for slot, basis in self.bases.get(K, {}).items():
                if slot[0] + slot[1] != degree:
                    continue
                for col in range(basis.shape[1]):
                    v = self._column_form(K, slot, col)
                    entries.append((v, self._column_lift(K, slot, col)))
        return PageBasis(degree, K, entries, dims, dict(self.diagnostics))

    def infinity_entries(self, degree):
        """Basis and lifts of the stabilized page in one degree, with lifts
        extended through order k_stop - 1."""
        K = self.k_stop
        self._ensure_lifts(K)
        out = []
        for slot, basis in self.bases.get(K, {}).items():
            if slot[0] + slot[1] != degree:
                continue
            for col in range(basis.shape[1]):
                out.append((slot, self._column_form(K, slot, col), self._column_lift(K, slot, col)))
        return out


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
        report = verify_formal_harmonic(DeltaPolynomial(poly_coeffs), conn, total_degree)
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
    coclosed and orthogonal to the harmonic 3-forms; solved by least
    squares on the stacked system, independently of the closed-form
    primitive construction.
    """
    from .base_forms import (
        codifferential as base_codif,
        d as base_d,
        hodge_decompose,
        _inner_complex,
        norm as base_norm,
    )

    tolerances = tolerances or Tolerances()
    geo = conn.geometry
    if geo.n < 4:
        raise ConfigError("the degree-3 recovery needs a 4-dimensional base")
    residual = d_delta(cs3_poly, conn).coefficient(4)
    if residual is None:
        raise ConfigError("lift has no order-4 residual to cancel")
    rhs_form = to_fourier(residual, 4)
    _, _, harm = hodge_decompose(rhs_form)
    scale = base_norm(rhs_form)
    if base_norm(harm) > 1e-10 * max(scale, 1e-300):
        raise NotExact(
            "order-4 constraint has a harmonic component; the degree-4 class is nonzero",
            harmonic_norm=base_norm(harm),
        )

    bands = rhs_form.bands

    def harmonic_part(x):
        _, _, h = hodge_decompose(x)
        return h

    def forward(x):
        return (base_d(x), base_codif(x), harmonic_part(x))

    def adjoint(y):
        d_part, co_part, h_part = y
        return (
            base_codif(d_part) + base_d(co_part) + harmonic_part(h_part)
        )

    def dot(x, y):
        if isinstance(x, tuple):
            return sum(_inner_complex(a, b) for a, b in zip(x, y))
        return _inner_complex(x, y)

    def combine(x, alpha, y):
        if isinstance(x, tuple):
            return tuple(a + alpha * b for a, b in zip(x, y))
        return x + alpha * y

    zero3 = FourierForm.zero(geo, 3, bands)
    rhs = (-1.0 * rhs_form, FourierForm.zero(geo, 2, bands), FourierForm.zero(geo, 3, bands))
    x, res, converged = _cgls(
        forward,
        adjoint,
        rhs,
        dot_dom=dot,
        comb_dom=combine,
        dot_ran=dot,
        comb_ran=combine,
        zero_dom=lambda: zero3,
        tol_abs=tolerances.solver * (1.0 + scale),
        maxiter=tolerances.max_iterations,
    )
    if not converged:
        raise SolverFailure(
            f"order-4 recovery stalled at residual {res:.3e}", order=4, residual=res
        )
    return x.trim()
