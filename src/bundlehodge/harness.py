"""Scenario configuration, experiment orchestration and report emission.

A scenario file is declarative JSON; every number is written as a decimal
string so the file pins exact values.  Each command consumes a scenario,
runs one verification pipeline, writes its outputs atomically and returns
a report dictionary with a ``passed`` flag.
"""

import json
import os
import tempfile

import numpy as np

from .adiabatic_ss import (
    PageRecursion,
    Tolerances,
    harmonic_limit,
    near_zero_count,
    recover_omega3,
    residual_orders,
    spectrum_sweep,
)
from .base_forms import (
    TorusGeometry,
    FourierForm,
    coexact_primitive,
    form_from_dict,
    hodge_decompose,
    norm as base_norm,
)
from .bigraded import (
    BigradedForm,
    Connection,
    DeltaPolynomial,
    apply_d_component,
    apply_dstar_component,
    bigraded_norm,
    bigraded_to_dict,
    coefficient_norms,
    d_delta,
    delta_series,
    dstar_delta,
    from_fourier,
    poly_norm,
)
from .chern_weil import (
    abelian_scenario,
    beta_correction,
    bianchi_residual,
    cs1,
    cs3,
    cw2,
    cw4,
    make_polynomial,
)
from .errors import ConfigError, NotExact
from .lie_algebra import (
    LieAlgebraData,
    direct_sum,
    make_su2,
    make_su3,
    make_u1,
)
from .multiindex import num_indices

ACCEPTANCE_MAP = {
    ("any", "lie-check"): "AC1",
    ("t2_u1_c1zero", "verify-cs1"): "AC3",
    ("t2_u1_c1nonzero", "verify-cs1"): "AC4",
    ("t2_u1_c1nonzero", "pages"): "AC4",
    ("t4_su2_cs3", "verify-cs3"): "AC5",
    ("t4_su2_flat", "pages"): "AC6",
    ("t3_su2_pages", "pages"): "AC6",
    ("t4_su2_cs3", "spectrum"): "AC7",
}


# the keys of every object of the scenario format: the file itself, its object
# sections, and a Fourier form
SCENARIO_KEYS = {
    "scenario": (
        "name", "geometry", "algebra", "connection", "polynomial", "delta_grid", "band",
        "galerkin_bands", "degree", "k_max", "tolerances", "output_dir", "seed",
    ),
    "geometry": ("dim", "metric"),
    "algebra": ("name", "scale", "rank", "dim", "structure_constants", "metric"),
    "connection": ("components", "abelian_flux"),
    "polynomial": ("kind", "normalization"),
    "tolerances": ("tau_formal", "tau_rank", "tau_spec"),
    "form": ("degree", "band", "entries"),
}

# the algebra keys each constructor reads, by name (None: explicit structure constants)
ALGEBRA_READS = {
    "su2": ("name", "scale"),
    "su3": ("name", "scale"),
    "u1": ("name", "scale", "rank"),
    None: ("name", "dim", "structure_constants", "metric"),
}


def _number(value, what="value"):
    """Scenario numbers are finite decimal strings; accept plain ints for counts."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ConfigError(f"{what} has unsupported type {type(value).__name__}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{what} is not a decimal number: {value!r}")
    if not np.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _integer(value, what="value", minimum=None):
    """Scenario counts and indices: integers, plain or as decimal strings."""
    if isinstance(value, int) and not isinstance(value, bool):
        number = value
    else:
        number = _number(value, what)
        if not number.is_integer():
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        number = int(number)
    if minimum is not None and number < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {value!r}")
    return number


def _integers(value, what):
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of integers")
    return [_integer(x, what) for x in value]


def _file_name(value):
    """The scenario name, which prefixes every report file in the output
    directory: one non-empty path component, not ``.`` or ``..``."""
    if (
        not isinstance(value, str)
        or value in ("", ".", "..")
        or any(sep and sep in value for sep in ("/", os.sep, os.altsep, "\0"))
    ):
        raise ConfigError(f"scenario name must be a plain file name, got {value!r}")
    return value


def _known_keys(section, keys, what):
    """ConfigError when an object of the scenario holds a key outside ``keys``:
    a misspelled field would otherwise leave its default in force."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key in {what}: {', '.join(map(repr, unknown))}")


def _section(config, key, kind, default):
    """An optional scenario field that must have one JSON type; an object
    section may hold only its own keys."""
    value = config.get(key, default)
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be a JSON {'object' if kind is dict else 'list'}")
    if kind is dict:
        _known_keys(value, SCENARIO_KEYS[key], key)
    return value


def _rows(value, what, width=None):
    """A JSON list of lists, each with ``width`` entries when one is given."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and (width is None or len(row) == width) for row in value
    ):
        shape = "lists" if width is None else f"{width}-entry lists"
        raise ConfigError(f"{what} must be a list of {shape}")
    return value


def _matrix(rows, what="matrix"):
    rows = _rows(rows, what)
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"{what} rows must have equal lengths")
    return np.array([[_number(x, what) for x in row] for row in rows], dtype=float)


def _form_data(data, what, degree):
    """A base form of the given degree: an object with an optional band and
    entries [frequency, multi-index, re, im] of integers and finite numbers."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    _known_keys(data, SCENARIO_KEYS["form"], what)
    if _integer(data.get("degree"), f"{what} degree") != degree:
        raise ConfigError(f"{what} must be a {degree}-form")
    entries = []
    for key, idx, re, im in _rows(_section(data, "entries", list, []), f"{what} entries", 4):
        entries.append(
            [
                _integers(key, f"{what} frequency"),
                _integers(idx, f"{what} multi-index"),
                _number(re, f"{what} amplitude"),
                _number(im, f"{what} amplitude"),
            ]
        )
    clean = {"degree": degree, "entries": entries}
    if "band" in data:
        clean["band"] = _integer(data["band"], f"{what} band", minimum=0)
    return clean


class Scenario:
    """Parsed scenario: geometry, algebra, connection, polynomial, grids."""

    def __init__(self, config):
        if not isinstance(config, dict):
            raise ConfigError("scenario file must contain a JSON object")
        _known_keys(config, SCENARIO_KEYS["scenario"], "the scenario")
        for key in ("name", "geometry", "algebra", "connection"):
            if key not in config:
                raise ConfigError(f"scenario is missing the {key!r} section")
        self.name = _file_name(config["name"])
        geo_cfg = _section(config, "geometry", dict, None)
        alg_cfg = _section(config, "algebra", dict, None)
        conn_cfg = _section(config, "connection", dict, None)
        n = _integer(geo_cfg.get("dim", 0), "geometry dim")
        if not 2 <= n <= 4:
            raise ConfigError("geometry dim must be 2, 3 or 4")
        metric = (
            _matrix(geo_cfg["metric"], "geometry metric")
            if "metric" in geo_cfg
            else np.eye(n)
        )
        self.geometry = TorusGeometry(n, metric=metric)
        self.algebra = self._build_algebra(alg_cfg)
        self.connection = self._build_connection(conn_cfg)
        poly_cfg = _section(config, "polynomial", dict, {})
        normalization = _number(poly_cfg.get("normalization", "1.0"), "normalization")
        if normalization == 0.0:
            # a zero polynomial makes every secondary form zero: nothing left to check
            raise ConfigError("polynomial normalization must be nonzero")
        kind = poly_cfg.get("kind")
        if kind is None:
            kind = "second_chern" if self.algebra.is_semisimple() else "first_chern"
        # built here, so that a kind unknown or unfit for the algebra fails every command
        self.polynomial = make_polynomial(self.algebra, kind, normalization=normalization)
        self.delta_grid = [
            _number(x, "delta value") for x in _section(config, "delta_grid", list, [])
        ]
        if any(not 0 < x <= 1 for x in self.delta_grid):
            raise ConfigError("delta values must lie in (0, 1]")
        self.bands = self._bands(config.get("band", 1), "band")
        self._galerkin_bands = (
            self._bands(config["galerkin_bands"], "galerkin_bands")
            if "galerkin_bands" in config
            else None
        )
        self.degree = _integer(config.get("degree", 1), "degree", minimum=0)
        self.k_max = _integer(config.get("k_max", 6), "k_max", minimum=1)
        tol_cfg = _section(config, "tolerances", dict, {})
        self.tolerances = Tolerances(
            formal=_number(tol_cfg.get("tau_formal", "1e-10"), "tau_formal"),
            rank=_number(tol_cfg.get("tau_rank", "1e-10"), "tau_rank"),
            spectral=_number(tol_cfg.get("tau_spec", "1e-8"), "tau_spec"),
        )
        for label, val in (
            ("tau_formal", self.tolerances.formal),
            ("tau_rank", self.tolerances.rank),
            ("tau_spec", self.tolerances.spectral),
        ):
            if val <= 0:
                raise ConfigError(f"{label} must be positive")
        self.output_dir = config.get("output_dir", "out")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        self.seed = _integer(config.get("seed", 0), "seed")
        self._recursion = None  # (key, PageRecursion) of the last page_recursion()

    @property
    def galerkin_bands(self):
        """The declared Galerkin box; when none is declared, the band in force."""
        return self.bands if self._galerkin_bands is None else self._galerkin_bands

    def page_recursion(self, degree):
        """The page recursion of the connection at the scenario's bands, k_max
        and tolerances, kept until one of them changes, run for ``degree``:
        its stop page settled and its pages of that degree computed."""
        bands, tol = tuple(self.bands), self.tolerances
        key = (self.connection, bands, self.k_max, tol.formal, tol.rank, tol.spectral)
        if self._recursion is None or self._recursion[0] != key:
            self._recursion = (key, PageRecursion(self.connection, bands, self.k_max, tol))
        return self._recursion[1].run(degree)

    def _bands(self, raw, what):
        n = self.geometry.n
        if not isinstance(raw, (list, tuple)):
            return (_integer(raw, what, minimum=0),) * n
        bands = tuple(_integer(x, what, minimum=0) for x in raw)
        if len(bands) != n:
            raise ConfigError("per-axis band list has wrong length")
        return bands

    def _build_algebra(self, cfg):
        name = cfg.get("name")
        if not (name is None or isinstance(name, str)) or name not in ALGEBRA_READS:
            raise ConfigError(f"unknown algebra constructor {name!r}")
        unread = sorted(set(cfg) - set(ALGEBRA_READS[name]))
        if unread:
            what = f"the {name} algebra" if name else "a custom algebra"
            raise ConfigError(f"{what} does not read {', '.join(map(repr, unread))}")
        scale = _number(cfg.get("scale", "1.0"), "algebra scale")
        if name == "su2":
            return make_su2(scale)
        if name == "su3":
            return make_su3(scale)
        if name == "u1":
            return make_u1(_integer(cfg.get("rank", 1), "algebra rank", minimum=1), scale)
        dim = _integer(cfg.get("dim", 0), "algebra dim", minimum=1)
        c = np.zeros((dim, dim, dim))
        constants = _section(cfg, "structure_constants", list, [])
        for i, j, k, val in _rows(constants, "structure constants", 4):
            index = tuple(_integer(x, "structure constant index", minimum=0) for x in (i, j, k))
            if max(index) >= dim:
                raise ConfigError(f"structure constant index {index} out of range for dim {dim}")
            c[index] = _number(val, "structure constant")
        metric = _matrix(cfg["metric"], "algebra metric") if "metric" in cfg else np.eye(dim)
        return LieAlgebraData(dim, c, metric)

    def _build_connection(self, cfg):
        if "abelian_flux" in cfg:
            if "components" in cfg:
                raise ConfigError("a connection given by abelian_flux does not read 'components'")
            flux = form_from_dict(self.geometry, _form_data(cfg["abelian_flux"], "abelian_flux", 2))
            conn, _ = abelian_scenario(flux, self.geometry, self.algebra)
            return conn
        components = [FourierForm.zero(self.geometry, 1) for _ in range(self.algebra.dim)]
        entries = _rows(_section(cfg, "components", list, []), "connection components", 2)
        for index, data in entries:
            index = _integer(index, "connection component index")
            if not 0 <= index < self.algebra.dim:
                raise ConfigError(f"connection component index {index} out of range")
            form = form_from_dict(self.geometry, _form_data(data, "connection component", 1))
            components[index] = components[index] + form
        return Connection(self.algebra, components)


def load_scenario(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read scenario file: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"scenario file is not valid JSON: {err}")
    return Scenario(config)


def packaged_scenario_path(name):
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "scenarios", f"{name}.json")


# -- atomic output -----------------------------------------------------------


def _atomic_write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, payload):
    _atomic_write(
        path, json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    )


def _csv_field(value):
    """One field as csv.writer writes it: a float (numpy's float64 is one) by the
    float repr, anything else by str, quoted when it holds a comma, a quote or a
    line break."""
    if isinstance(value, float):
        return float.__repr__(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(values):
    """The fields of one column; a column of floats, or of plain ints, in one pass
    with no Python call per field."""
    kinds = set(map(type, values))
    if all(issubclass(kind, float) for kind in kinds):
        return map(float.__repr__, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    return map(_csv_field, values)


def write_csv(path, header, rows):
    """A header and rows of numbers and names as csv.writer's default dialect
    writes them, byte for byte: fields joined by commas, every line, the last
    included, ended by \\r\\n.  Every row holds one field per header name."""
    if set(map(len, rows)) - {len(header)}:
        raise ValueError(f"a table row does not hold {len(header)} fields")
    lines = [",".join(map(_csv_field, header))]
    lines += map(",".join, zip(*map(_csv_column, zip(*rows))))
    _atomic_write(path, "\r\n".join(lines + [""]))


def _slot_key(slot):
    return f"{slot[0]},{slot[1]}"


def _emit(scenario, command, suffix, fields, out_dir, quiet, note="", table=None):
    """Write a scenario command's report and print its verdict line.

    The report is the header (scenario, command, seed) and ``fields``; it
    goes to {name}_{suffix}.json in ``out_dir`` or the scenario's output
    directory, after ``table``, a (suffix, header, rows) triple, goes to
    {name}_{suffix}.csv there.  ``note`` follows the scenario name on the
    verdict line.  Returns the report.
    """
    report = {"scenario": scenario.name, "command": command, "seed": scenario.seed, **fields}
    out_dir = out_dir or scenario.output_dir
    if table is not None:
        csv_suffix, header, rows = table
        write_csv(os.path.join(out_dir, f"{scenario.name}_{csv_suffix}.csv"), header, rows)
    write_json(os.path.join(out_dir, f"{scenario.name}_{suffix}.json"), report)
    if not quiet:
        if report.get("branch") == "class_nonzero":
            verdict = "class nonzero (excluded branch)"
        else:
            verdict = "PASS" if report["passed"] else "FAIL"
        print(f"{command} {scenario.name}{note}: {verdict}")
    return report


def _excluded(fields, err):
    """The excluded branch of a harmonicity statement: the characteristic
    class is nonzero, so the statement does not apply (and does not fail)."""
    fields["branch"] = "class_nonzero"
    fields["excluded"] = {"coexact_norm": err.coexact_norm, "harmonic_norm": err.harmonic_norm}
    return fields


def _degree(scenario, degree):
    """The total form degree of ``pages`` and ``spectrum``: ``degree`` when
    given, else the scenario's; a ConfigError outside 0 .. n + dim."""
    degree = scenario.degree if degree is None else _integer(degree, "degree", minimum=0)
    top = scenario.geometry.n + scenario.algebra.dim
    if degree > top:
        raise ConfigError(f"degree must lie in 0..{top} (base plus fiber dimension), got {degree}")
    return degree


# -- commands ----------------------------------------------------------------


def cmd_lie_check(scenario, out_dir=None, quiet=False):
    """Fiber-complex invariants on the scenario algebra and the stock ones."""
    algebras = {
        "scenario": scenario.algebra,
        "su2": make_su2(),
        "su3": make_su3(),
        "u1x3": make_u1(3),
        "su2+u1": direct_sum(make_su2(), make_u1(1)),
    }
    checks = {}
    passed = True
    for label, alg in algebras.items():
        d_sq = 0.0
        adjointness = adjointness_rel = 0.0
        invariance = 0.0
        betti_ok = True
        rng = np.random.default_rng(scenario.seed)
        for j in range(alg.dim):
            comp = alg.d_matrix(j + 1) @ alg.d_matrix(j)
            if comp.size:
                d_sq = max(d_sq, float(np.max(np.abs(comp))))
            a = rng.standard_normal(num_indices(alg.dim, j))
            b = rng.standard_normal(num_indices(alg.dim, j + 1))
            da, dsb = alg.d_matrix(j) @ a, alg.dstar_matrix(j + 1) @ b
            g_in, g_out = alg.gram(j), alg.gram(j + 1)
            lhs, rhs = da @ g_out @ b, a @ g_in @ dsb
            # rounding scales with the Cauchy-Schwarz bounds of the pairings, not their values
            bounds = [(da @ g_out @ da) * (b @ g_out @ b), (a @ g_in @ a) * (dsb @ g_in @ dsb)]
            adjointness = max(adjointness, abs(lhs - rhs))
            adjointness_rel = max(adjointness_rel, abs(lhs - rhs) / max(1.0, *np.sqrt(bounds)))
        for j in range(alg.dim + 1):
            basis = alg.harmonic_basis(j)
            if basis.shape[1] != alg.betti(j):
                betti_ok = False
            if basis.shape[1] == 0:
                continue
            for x in range(alg.dim):
                acted = alg.coadjoint_matrix(x, j) @ basis
                if acted.size:
                    invariance = max(invariance, float(np.max(np.abs(acted))))
        green_res = 0.0
        if alg.is_semisimple():
            for a in range(alg.dim):
                psi = np.zeros(alg.dim)
                psi[a] = 1.0
                beta = alg.green_matrix()[:, a]
                green_res = max(green_res, float(np.max(np.abs(alg.dstar_matrix(2) @ beta - psi))))
        ok = (
            d_sq <= 1e-13
            and adjointness_rel <= 1e-12
            and invariance <= 1e-10
            and betti_ok
            and green_res <= 1e-10
        )
        passed = passed and ok
        checks[label] = {
            "d_squared": d_sq,
            "adjointness": adjointness,
            "adjointness_relative": adjointness_rel,
            "harmonic_invariance": invariance,
            "betti_match": betti_ok,
            "green_right_inverse": green_res,
            "passed": ok,
        }
    fields = {"checks": checks, "passed": passed}
    return _emit(scenario, "lie-check", "lie_check", fields, out_dir, quiet)


def cmd_verify_cs1(scenario, out_dir=None, quiet=False):
    """Degree-1 harmonicity: the secondary form minus the primitive is
    harmonic at every value of the adiabatic parameter."""
    conn = scenario.connection
    phi = scenario.polynomial
    alpha = cs1(phi, conn)
    w2 = cw2(phi, conn)
    fields = {"branch": "class_zero", "passed": True}
    try:
        h = coexact_primitive(w2)
    except NotExact as err:
        return _emit(scenario, "verify-cs1", "verify_cs1", _excluded(fields, err), out_dir, quiet)
    series = DeltaPolynomial([alpha, (-1.0) * from_fourier(h, scenario.algebra)])
    d_poly, s_poly = d_delta(series, conn), dstar_delta(series, conn)
    d_orders, s_orders = coefficient_norms(d_poly), coefficient_norms(s_poly)
    tol = scenario.tolerances.formal
    max_order = max([v for _, v in d_orders + s_orders], default=0.0)
    rows = []
    per_delta_ok = True
    for delta in scenario.delta_grid:
        rd = bigraded_norm(d_poly.evaluate(delta)) if len(d_poly) else 0.0
        rs = bigraded_norm(s_poly.evaluate(delta)) if len(s_poly) else 0.0
        rows.append([delta, rd, rs])
        per_delta_ok = per_delta_ok and rd <= tol and rs <= tol
    fields.update(
        {
            "orders_d": d_orders,
            "orders_dstar": s_orders,
            "max_order_residual": max_order,
            "per_delta": rows,
            "tolerance": tol,
            "passed": max_order <= tol and per_delta_ok,
        }
    )
    table = ("cs1_residuals", ["delta", "d_residual", "dstar_residual"], rows)
    return _emit(scenario, "verify-cs1", "verify_cs1", fields, out_dir, quiet, table=table)


def cmd_verify_cs3(scenario, out_dir=None, quiet=False):
    """Degree-3 harmonicity through order three, the necessity of the (1,2)
    correction, and the independent recovery of the base primitive."""
    conn = scenario.connection
    if not scenario.algebra.is_semisimple():
        raise ConfigError("the degree-3 check needs a semisimple algebra")
    if scenario.geometry.n != 4:
        raise ConfigError("the degree-3 check needs a 4-torus base")
    pair = scenario.polynomial
    alpha = cs3(pair, conn)
    if (2, 1) not in alpha.components:
        raise ConfigError(
            "the connection has zero curvature: its degree-3 form has no (2,1) part to check"
        )
    w4 = cw4(pair, conn)
    fields = {
        "branch": "class_zero",
        "bianchi_residual": bianchi_residual(conn),
        "cw4_harmonic_part": base_norm(hodge_decompose(w4)[2]),
        "passed": True,
    }
    try:
        h = coexact_primitive(w4)
    except NotExact as err:
        return _emit(scenario, "verify-cs3", "verify_cs3", _excluded(fields, err), out_dir, quiet)
    geo, alg = scenario.geometry, scenario.algebra
    a03 = BigradedForm(geo, alg, {(0, 3): alpha.components[(0, 3)]})
    a21 = BigradedForm(geo, alg, {(2, 1): alpha.components[(2, 1)]})
    # the two images of the (2,1) part every check reads, the residual orders of the
    # series too: the covariant coderivative psi, which beta inverts, and the curvature
    # contraction, the order-4 residual the base primitive cancels
    psi = apply_dstar_component(a21, conn, 1)
    residual4 = apply_d_component(a21, conn, 2)
    h_lift = from_fourier(h, alg)
    series = DeltaPolynomial([a03, BigradedForm.zero(geo, alg), a21, -h_lift - beta_correction(conn, psi)])
    scale = poly_norm(series)
    tol = scenario.tolerances.formal * max(scale, 1.0)

    def reusing(apply, which, image):
        return lambda form, conn, a: image if form is a21 and a == which else apply(form, conn, a)

    d_orders = coefficient_norms(delta_series(series, conn, reusing(apply_d_component, 2, residual4)))
    s_orders = coefficient_norms(delta_series(series, conn, reusing(apply_dstar_component, 1, psi)))
    low_d = [v for m, v in d_orders if m <= 3]
    low_s = [v for m, v in s_orders if m <= 3]
    harmonic_ok = max(low_d + low_s, default=0.0) <= tol
    # necessity witness: without the correction, the order-3 coresidual
    # d*_0(-h) + d*_1 alpha^{2,1} is exactly psi, since d*_0 kills base forms;
    # the correction is needed when psi fails the tolerance the corrected
    # series meets through order 3
    witness = bigraded_norm(psi)
    necessity_ok = witness > tol
    recovered = recover_omega3(conn, residual4, scenario.tolerances)
    rec_err = base_norm(recovered - (-1.0) * h) / max(base_norm(h), 1e-300)
    recover_ok = rec_err <= 1e-8
    fields.update(
        {
            "orders_d": d_orders,
            "orders_dstar": s_orders,
            "series_norm": scale,
            "tolerance": tol,
            "harmonic_through_order_3": harmonic_ok,
            "order3_dstar_without_correction": witness,
            "covariant_coderivative_norm": witness,
            "necessity_witness": necessity_ok,
            "necessity_witness_margin": witness / tol,
            "recover_omega3_rel_error": rec_err,
            "recover_omega3_ok": recover_ok,
            "passed": harmonic_ok and necessity_ok and recover_ok,
        }
    )
    return _emit(scenario, "verify-cs3", "verify_cs3", fields, out_dir, quiet)


def _pages_payload(recursion, degree):
    payload = {}
    for K in range(recursion.k_stop + 1):
        dims = recursion.dims_for_degree(K, degree)
        payload[str(K)] = {
            _slot_key(slot): dims.get(slot, 0)
            for slot in recursion.slots
            if slot[0] + slot[1] == degree
        }
    return payload


def cmd_pages(scenario, degree=None, out_dir=None, quiet=False):
    """Page dimensions, harmonic limits, and the zero-count consistency."""
    degree = _degree(scenario, degree)
    conn = scenario.connection
    recursion = scenario.page_recursion(degree)
    limits = harmonic_limit(recursion, degree)
    einf = recursion.dims_for_degree(recursion.k_stop, degree)
    fields = {
        "degree": degree,
        "bands": list(scenario.bands),
        "stabilized": recursion.stabilized,
        "k_stop": recursion.k_stop,
        "dims_per_page": _pages_payload(recursion, degree),
        "einf_dims": {_slot_key(s): r for s, r in einf.items()},
        "einf_total": sum(einf.values()),
        # over the pages this degree rests on: the recursion is shared, and the
        # report must not depend on which degrees it computed before
        "diagnostics": recursion.diagnostics(degree),
        "limit_count": len(limits),
        "limit_forms": [bigraded_to_dict(f) for f in limits],
    }
    # residual norms per polynomial order for the stabilized lifts
    residual_profile = {}
    for _, _, lift in recursion.entries(recursion.k_stop, degree):
        d_list, s_list = residual_orders(lift, conn)
        # every order of d_delta and d*_delta on the lift, exact zeros included
        for m in range(len(lift) + 2):
            residual_profile.setdefault(m, 0.0)
        for m, val in d_list:
            residual_profile[m] = max(residual_profile.get(m, 0.0), val)
        for m, val in s_list:
            residual_profile[m] = max(residual_profile.get(m, 0.0), val)
    fields["lift_residual_orders"] = [
        [m, residual_profile[m]] for m in sorted(residual_profile)
    ]
    count, top = near_zero_count(
        conn, degree, 0.5, scenario.galerkin_bands, scenario.tolerances.spectral
    )
    fields["galerkin_zero_count"] = count
    fields["galerkin_spectral_norm"] = top
    fields["galerkin_bands"] = list(scenario.galerkin_bands)
    fields["consistency_pass"] = count == fields["einf_total"]
    passed = recursion.stabilized and len(limits) == fields["einf_total"]
    passed = passed and fields["consistency_pass"]
    fields["passed"] = passed
    note = f" p={degree}, total {fields['einf_total']}"
    return _emit(scenario, "pages", f"pages_p{degree}", fields, out_dir, quiet, note)


def cmd_spectrum(scenario, degree=None, out_dir=None, quiet=False):
    """Eigenvalue sweep, decay exponents, and comparison with page counts."""
    degree = _degree(scenario, degree)
    conn = scenario.connection
    if not scenario.delta_grid:
        raise ConfigError("spectrum command needs a delta grid")
    # the decay groups are compared with a page only where it is proven stable
    recursion = scenario.page_recursion(degree)
    k_stop = recursion.stable_page()
    sweep = spectrum_sweep(
        conn, degree, scenario.delta_grid, scenario.bands, scenario.tolerances
    )
    page_dims = [sum(recursion.dims_for_degree(K, degree).values()) for K in range(k_stop + 1)]
    # stabilization page: first K whose dims agree with the final page
    k_stab = k_stop
    while k_stab > 1 and page_dims[k_stab - 1] == page_dims[k_stop]:
        k_stab -= 1
    counts = sweep.group_counts()
    slope_ok = all(
        b["within_tolerance"] is not False for b in sweep.branches if b["near_zero"]
    )
    comparison = []
    comp_ok = True
    for K in range(1, k_stab):
        expected = page_dims[K] - page_dims[K + 1]
        got = counts.get(2 * K, 0)
        comparison.append({"group": 2 * K, "count": got, "expected": expected})
        comp_ok = comp_ok and got == expected
    deep = sum(
        v
        for k, v in counts.items()
        if k == "inf" or (isinstance(k, int) and k >= 2 * k_stab)
    )
    comparison.append(
        {"group": f">={2 * k_stab} (attributed to the stable page)", "count": deep,
         "expected": page_dims[k_stab]}
    )
    comp_ok = comp_ok and deep == page_dims[k_stab]
    rows = [
        (delta, b, value)
        for delta, values in zip(sweep.deltas, sweep.eigenvalues.tolist())
        for b, value in enumerate(values)
    ]
    fields = {
        "degree": degree,
        "bands": list(scenario.bands),
        "deltas": sweep.deltas,
        "spectral_norms": sweep.spectral_norms,
        "close_gap_flags": sweep.close_gap_flags,
        "min_eigenvalues": sweep.min_eigenvalues,
        "eigen_floor": sweep.eigen_floors,
        "near_zero_branches": [b for b in sweep.branches if b["near_zero"]],
        "group_counts": {str(k): v for k, v in counts.items()},
        "page_dims": page_dims,
        "stabilization_page": k_stab,
        "comparison": comparison,
        "slopes_within_tolerance": slope_ok,
        "passed": slope_ok and comp_ok,
    }
    suffix = f"spectrum_p{degree}"
    table = (suffix, ["delta", "eigenvalue_index", "eigenvalue"], rows)
    note = f" p={degree}, groups {fields['group_counts']}"
    return _emit(scenario, "spectrum", suffix, fields, out_dir, quiet, note, table)


def cmd_report(directory, out_dir=None, quiet=False):
    """Aggregate run reports into a pass/fail matrix keyed by criterion."""
    found = []
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".json") or fname == "summary.json":
            continue
        try:
            with open(os.path.join(directory, fname)) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(data, dict) and "command" in data and "passed" in data:
            found.append(data)
    matrix = {}
    for run in found:
        key = (run.get("scenario"), run["command"])
        criterion = ACCEPTANCE_MAP.get(key) or ACCEPTANCE_MAP.get(("any", run["command"]))
        label = criterion or f"{run.get('scenario')}:{run['command']}"
        entry = matrix.setdefault(label, {"runs": [], "passed": True})
        entry["runs"].append(
            {
                "scenario": run.get("scenario"),
                "command": run["command"],
                "passed": run["passed"],
                "branch": run.get("branch"),
            }
        )
        entry["passed"] = entry["passed"] and run["passed"]
    summary = {
        "command": "report",
        "directory": os.path.abspath(directory),
        "criteria": matrix,
        "passed": all(v["passed"] for v in matrix.values()) if matrix else False,
        "run_count": len(found),
    }
    out_dir = out_dir or directory
    write_json(os.path.join(out_dir, "summary.json"), summary)
    if not quiet:
        for label in sorted(matrix):
            state = "PASS" if matrix[label]["passed"] else "FAIL"
            print(f"{label}: {state} ({len(matrix[label]['runs'])} run(s))")
        print(f"overall: {'PASS' if summary['passed'] else 'FAIL'}")
    return summary
