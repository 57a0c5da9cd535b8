"""Span tracing of the bundlehodge layers, installed from outside the package.

``Tracer.install`` wraps every public function and every public method of
the layer modules.  A module that bound a function with ``from .x import f``
holds its own reference, so each wrapper is written into every namespace of
the package that holds the original (module attributes and module-level
dict values such as the CLI's command table).  Methods are patched on their
classes.  ``numpy.linalg.eigvalsh`` is wrapped as well, to time the dense
eigensolves.  ``Tracer.remove`` puts back the original objects.

Each span records its operation id, its parent span, start and end; spans
are kept in memory and aggregated into per-layer figures afterwards.
"""

import functools
import hashlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("lie_algebra", "base_forms", "bigraded", "chern_weil", "adiabatic_ss", "harness", "cli")

# the form-level components of the bigraded differential and codifferential
COMPONENT_OPS = frozenset(
    {
        "vertical_d",
        "vertical_dstar",
        "covariant_d",
        "covariant_dstar",
        "curvature_contraction",
        "curvature_contraction_star",
    }
)
BIGRADED_OPS = COMPONENT_OPS | {"d_delta", "dstar_delta"}
LAYOUT_METHODS = frozenset({"TruncationLayout.vector_from_form", "TruncationLayout.form_from_vector"})
SLOT_METHODS = frozenset({"SlotCoords.vector", "SlotCoords.form"})
RECOVER_OPS = frozenset({"d", "codifferential", "hodge_decompose"})
EIGEN_CALLERS = frozenset({"spectrum_sweep", "near_zero_count"})
WRITERS = frozenset({"write_json", "write_csv"})
MARKED = (
    ("solve_corrections", "recover_omega3", "harmonic_limit")
    + tuple(sorted(EIGEN_CALLERS | LAYOUT_METHODS | SLOT_METHODS))
)

PER_LAYER_KEYS = (
    "lie_algebra.busy_s", "lie_algebra.calls",
    "base_forms.busy_s", "base_forms.calls",
    "chern_weil.busy_s", "chern_weil.calls",
    "bigraded.op_self_s", "bigraded.op_calls", "bigraded.op_keys",
    "bigraded.galerkin_assembly_s", "bigraded.galerkin_assemblies",
    "bigraded.galerkin_requests", "bigraded.galerkin_columns",
    "bigraded.layout_s", "bigraded.galerkin_matrix_mb",
    "adiabatic_ss.recursion_runs", "adiabatic_ss.recursion_distinct",
    "adiabatic_ss.recursion_useful_ratio",
    "adiabatic_ss.recursion_s", "adiabatic_ss.recursion_self_s",
    "adiabatic_ss.slot_coords_s",
    "adiabatic_ss.correction_solves", "adiabatic_ss.correction_s",
    "adiabatic_ss.correction_op_calls",
    "adiabatic_ss.recover_s", "adiabatic_ss.recover_op_calls",
    "adiabatic_ss.eigensolve_s", "adiabatic_ss.eigensolves",
    "adiabatic_ss.eigen_max_dim", "adiabatic_ss.eigen_n3",
    "adiabatic_ss.limit_s",
    "harness.load_s", "harness.write_s", "harness.bytes_written",
)

# span record fields
LAYER, NAME, PARENT, OP, START, END, INFO = range(7)


def _connection_fingerprint(recursion):
    conn = recursion.conn
    h = hashlib.sha1()
    for entry in conn.a_entries() + conn.f_entries():
        h.update(repr(entry).encode())
    h.update(repr((recursion.bands, recursion.k_max)).encode())
    return h.hexdigest()


def _info(qualname, args, result):
    """Work counts computed from the arguments and result of one call."""
    if qualname in COMPONENT_OPS:
        return sum(len(table) for table in args[0].components.values())
    if qualname == "galerkin_polynomial":
        return result[0].dim
    if qualname == "eigvalsh":
        return int(np.shape(args[0])[-1])
    if qualname == "PageRecursion.run":
        return _connection_fingerprint(args[0])
    if qualname in WRITERS:
        return os.path.getsize(args[0])
    return None


class Tracer:
    """Spans of one traced pass; ``install`` and ``remove`` bracket it."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []  # (setter target, key, original) in install order

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [layer, qualname, stack[-1] if stack else -1, tracer.op, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[INFO] = _info(qualname, args, result)
                return result
            finally:
                stack.pop()
                rec[END] = clock()

        return functools.update_wrapper(traced, fn)

    def _set(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    @staticmethod
    def layer_targets(package):
        """(layer, qualname, owner, attribute, function) for every public callable."""
        out = []
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    out.append((layer, name, module, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in sorted(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(member):
                            continue
                        out.append((layer, f"{obj.__name__}.{attr}", obj, attr, member))
        return out

    def install(self, package):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        wrappers = {}
        for layer, qualname, owner, attr, fn in self.layer_targets(package):
            wrapper = self._wrap(layer, qualname, fn)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = wrapper
        for module in namespaces:
            for name, value in sorted(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, name, wrappers[id(value)])
                elif type(value) is dict and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set(value, key, wrappers[id(item)])
        self._set(np.linalg, "eigvalsh", self._wrap("linalg", "eigvalsh", np.linalg.eigvalsh))

    def remove(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []


# -- aggregation ------------------------------------------------------------------


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def _ancestor_masks(spans):
    """For each span, a bit mask of the layers and marked names above it."""
    bits = {}
    for i, key in enumerate(LAYERS + ("linalg",) + MARKED):
        bits[key] = 1 << i
    masks = []
    for rec in spans:
        parent = rec[PARENT]
        if parent < 0:
            masks.append(0)
        else:
            above = spans[parent]
            masks.append(masks[parent] | bits[above[LAYER]] | bits.get(above[NAME], 0))
    return masks, bits


def layer_metrics(spans, wall_s):
    """Per-layer figures of one traced pass, and the computed work counts."""
    selfs = self_times(spans)
    masks, bits = _ancestor_masks(spans)
    eigen_bits = bits["spectrum_sweep"] | bits["near_zero_count"]
    layout_bits = sum(bits[name] for name in LAYOUT_METHODS)
    slot_bits = sum(bits[name] for name in SLOT_METHODS)
    m = dict.fromkeys(PER_LAYER_KEYS, 0)
    fingerprints = set()
    # work counts computed from argument and result shapes; op_keys becomes
    # a histogram {frequency keys fed in: calls}
    computed = {"galerkin_dims": [], "galerkin_matrix_bytes": [], "eigen_dims": [], "eigen_n3": [], "op_keys": []}
    for rec, own, above in zip(spans, selfs, masks):
        layer, name, info = rec[LAYER], rec[NAME], rec[INFO]
        duration = rec[END] - rec[START]
        if layer in ("lie_algebra", "base_forms", "chern_weil"):
            m[f"{layer}.calls"] += 1
            if not above & bits[layer]:
                m[f"{layer}.busy_s"] += duration
            if name in RECOVER_OPS and layer == "base_forms" and above & bits["recover_omega3"]:
                m["adiabatic_ss.recover_op_calls"] += 1
        elif name in BIGRADED_OPS:
            m["bigraded.op_self_s"] += own
            m["bigraded.op_calls"] += 1
            if name in COMPONENT_OPS:
                m["bigraded.op_keys"] += info
                computed["op_keys"].append(info)
                if above & bits["solve_corrections"]:
                    m["adiabatic_ss.correction_op_calls"] += 1
        elif name == "galerkin_polynomial":
            m["bigraded.galerkin_assembly_s"] += duration
            m["bigraded.galerkin_assemblies"] += 1
            m["bigraded.galerkin_columns"] += info
            m["bigraded.galerkin_matrix_mb"] += 5 * info * info * 16 / 1e6
            computed["galerkin_dims"].append(info)
            computed["galerkin_matrix_bytes"].append(5 * info * info * 16)
        elif name == "galerkin_operator":
            m["bigraded.galerkin_requests"] += 1
        elif name in LAYOUT_METHODS and not above & layout_bits:
            m["bigraded.layout_s"] += duration
        elif name == "PageRecursion.run":
            m["adiabatic_ss.recursion_runs"] += 1
            m["adiabatic_ss.recursion_s"] += duration
            m["adiabatic_ss.recursion_self_s"] += own
            fingerprints.add(info)
        elif name in SLOT_METHODS and not above & slot_bits:
            m["adiabatic_ss.slot_coords_s"] += duration
        elif name == "solve_corrections":
            m["adiabatic_ss.correction_solves"] += 1
            m["adiabatic_ss.correction_s"] += duration
        elif name == "recover_omega3":
            m["adiabatic_ss.recover_s"] += duration
        elif name == "eigvalsh" and above & eigen_bits:
            m["adiabatic_ss.eigensolve_s"] += duration
            m["adiabatic_ss.eigensolves"] += 1
            m["adiabatic_ss.eigen_n3"] += info**3
            m["adiabatic_ss.eigen_max_dim"] = max(m["adiabatic_ss.eigen_max_dim"], info)
            computed["eigen_dims"].append(info)
            computed["eigen_n3"].append(info**3)
        elif name == "harmonic_limit":
            m["adiabatic_ss.limit_s"] += duration
        elif name == "load_scenario":
            m["harness.load_s"] += duration
        elif name in WRITERS:
            m["harness.write_s"] += duration
            m["harness.bytes_written"] += info
    m["adiabatic_ss.recursion_distinct"] = len(fingerprints)
    runs = m["adiabatic_ss.recursion_runs"]
    m["adiabatic_ss.recursion_useful_ratio"] = len(fingerprints) / runs if runs else 0.0
    covered = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0)
    m["trace.unattributed_share"] = max(wall_s - covered, 0.0) / wall_s
    keys = {}
    for count in computed["op_keys"]:
        keys[count] = keys.get(count, 0) + 1
    computed["op_keys"] = {str(count): keys[count] for count in sorted(keys)}
    return m, computed
