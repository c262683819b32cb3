"""Span tracer for the lambdacone benchmark, installed from outside the package.

The tracer wraps the entry points of each lambdacone module (the layers) and
records one span per call: name, start, end, parent span and op id.  Spans
are kept in compact arrays and written out once, when the pass ends.  A
function is wrapped at every binding of its name: in the defining module and
in each module (the package ``__init__`` included) that imported it.  A
method is wrapped as a class attribute, together with its aliases such as
``__radd__ = __add__``.

Targets that a later version of the package no longer has are skipped, so the
benchmark keeps running across refactors; their metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

LAYERS = ("rings", "linalg", "cone", "pseudo", "vla", "ope1d", "algfiles", "cli")

# Operator methods are reported under a plain name: rings.Poly.add, not __add__.
_DUNDER_NAMES = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "__pow__": "pow",
    "__eq__": "eq",
}

# Layer entry points: "function" or "Class.method", per module.  Cheap helpers
# that only their own layer calls (mono_mul, Window.contains, h_dim, ...) are
# left out: a span costs about a microsecond, and their time belongs to the
# enclosing span of the same layer anyway.
TARGETS = {
    "rings": (
        "Poly.__add__", "Poly.__sub__", "Poly.__rsub__", "Poly.__neg__",
        "Poly.__mul__", "Poly.__pow__", "Poly.__eq__", "Poly.subst", "Poly.diff",
        "Poly.laplacian", "Poly.coefficients_in", "Poly.reinterpret",
        "Poly.dense_exps", "Poly.sorted_terms", "VarSpace.var", "VarSpace.const",
        "VarSpace.monomial", "VarSpace.from_exps", "VarSpace.monomials_of_degree",
    ),
    "linalg": ("rref", "kernel_basis", "solve", "invert"),
    "cone": (
        "harmonic_basis", "basis_poly_in", "gauss_decompose", "cone_from_poly",
        "cone_mul", "singular_part", "residue", "wick_extract", "iota_pole",
        "iota_kernel", "iota_expand", "iota_antisym", "_harmonic_raw",
        "_gauss_solver", "_decompose_raw", "_times_mono", "_times_harm",
        "_diff_parts",
        "ConeSeries.__add__", "ConeSeries.__sub__", "ConeSeries.scale",
        "ConeSeries.map_coeffs", "ConeSeries.mul_x2", "ConeSeries.mul_poly",
        "ConeSeries.diff", "ConeSeries.singular_part", "ConeSeries.parity_flip",
        "ConeSeries.restrict",
        "BiConeSeries.__add__", "BiConeSeries.__sub__", "BiConeSeries.scale",
        "BiConeSeries.map_coeffs", "BiConeSeries.mul_x2", "BiConeSeries.mul_poly",
        "BiConeSeries.mul_series", "BiConeSeries.singular_joint",
        "BiConeSeries.restrict",
    ),
    "pseudo": (
        "build_cur", "build_wd", "build_hd", "current_extend", "bracket_extend",
        "skew_check", "jacobi_check", "lie_skew_report", "lie_jacobi_report",
        "sd_divergence", "sd_basis", "sd_closure_check",
        "ModuleElement.__add__", "ModuleElement.__sub__", "ModuleElement.__neg__",
        "ModuleElement.scale", "ModuleElement.mul_T",
        "LambdaPoly.__add__", "LambdaPoly.__sub__", "LambdaPoly.__neg__",
        "LambdaPoly.scale", "LambdaPoly.subst", "LambdaPoly.lambda_terms",
        "BracketTable.__eq__",
    ),
    "vla": (
        "extend_action", "apply_exp_zT", "d1_bridge", "skew_check_vla",
        "jacobi_check_vla", "borcherds_check", "_lhs_pair_term", "_borcherds_lhs",
        "_borcherds_rhs", "_shifted_harmonic", "_identity_failures",
        "TriConeSeries.accumulate", "TriConeSeries.mul_poly",
        "TriConeSeries.substitute_u_for_w", "VLAStructure.max_pole",
    ),
    "ope1d": (
        "jth_from_lambda", "lambda_from_jth", "commutator_from_lambda",
        "delta_mul_pow", "locality_check", "delta_pair",
    ),
    "algfiles": (
        "serialize_table", "serialize_lie", "serialize_vla",
        "serialize_harmonic_basis", "serialize_iota", "parse_algebra_text",
        "parse_algebra", "load_algebra", "emit_harmonic_basis", "emit_iota",
    ),
    "cli": ("main", "run_checks", "make_builtin"),
}

# Span names whose string results are counted into algfiles.bytes_out.
BYTES_OUT = (
    "algfiles.serialize_table", "algfiles.serialize_lie", "algfiles.serialize_vla",
    "algfiles.serialize_harmonic_basis", "algfiles.serialize_iota",
)


# Per-layer metrics read from one span name: (span, whether .calls is reported).
SPAN_METRICS = (
    ("rings.Poly.mul", True), ("rings.Poly.add", True), ("rings.Poly.subst", True),
    ("linalg.rref", True), ("linalg.invert", True),
    ("cone.gauss_decompose", True), ("cone.iota_kernel", True),
    ("cone.BiConeSeries.mul_series", True), ("cone.ConeSeries.diff", True),
    ("pseudo.sd_divergence", True), ("pseudo.bracket_extend", True),
    ("pseudo.jacobi_check", False), ("pseudo.skew_check", False),
    ("pseudo.ModuleElement.scale", True), ("pseudo.ModuleElement.add", True),
    ("vla.extend_action", True), ("vla.apply_exp_zT", True),
    ("vla.jacobi_check_vla", False), ("vla.borcherds_check", False),
    ("cli.main", True),
)
# Layers whose self time is also reported as a share of the traced wall time.
SHARE_LAYERS = ("rings", "linalg", "cone", "pseudo", "vla")

# Counters that are not span sums: (name, unit, better).
_COUNTERS = (
    ("rings.Poly.new.calls", "count", "lower"),
    ("linalg.rref.max_cols", "count", "lower"),
    ("algfiles.bytes_out", "bytes", "lower"),
    ("cone.cache.hits", "count", "higher"),
    ("cone.cache.misses", "count", "lower"),
    ("cone.cache.hit_ratio", "frac", "higher"),
    ("cone.cache.entries", "count", "lower"),
    ("cone.truncation_errors", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def per_layer_catalogue() -> list:
    """Every per-layer metric of a traced run, as (name, unit, better)."""
    out = []
    for span, with_calls in SPAN_METRICS:
        if with_calls:
            out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    for layer in SHARE_LAYERS:
        out.append((f"{layer}.self_share", "frac", "lower"))
    out.extend(_COUNTERS)
    return out


def span_name(layer: str, target: str) -> str:
    parts = target.split(".")
    parts[-1] = _DUNDER_NAMES.get(parts[-1], parts[-1])
    return ".".join([layer, *parts])


def package_modules() -> list:
    """The imported lambdacone package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lambdacone" or name.startswith("lambdacone."))]


def caches() -> dict:
    """Every lru_cache kernel of the cone and vla modules, by qualified name."""
    out = {}
    for layer in ("cone", "vla"):
        module = sys.modules.get(f"lambdacone.{layer}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                out[f"{layer}.{attr}"] = value
    return out


def cache_totals(kernels: dict) -> dict:
    hits = misses = entries = 0
    for fn in kernels.values():
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return {"hits": hits, "misses": misses, "entries": entries}


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.poly_new = 0
        self.truncation_errors = 0
        self.rref_max_cols = 0
        self.bytes_out = 0
        self._stack: list = []
        self._restore: list = []  # (owner, attr, original), in install order

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for layer, targets in TARGETS.items():
            module = sys.modules.get(f"lambdacone.{layer}")
            if module is None:
                continue
            for target in targets:
                if "." in target:
                    cls_name, attr = target.split(".")
                    self._wrap_method(getattr(module, cls_name, None), attr,
                                      span_name(layer, target))
                elif target in vars(module):
                    self._wrap_function(modules, vars(module)[target],
                                        span_name(layer, target))
        rings = sys.modules.get("lambdacone.rings")
        if rings is not None and "__init__" in vars(rings.Poly):
            self._patch(rings.Poly, "__init__", self._counting_init(vars(rings.Poly)["__init__"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, modules, original, name) -> None:
        wrapper = self._wrapper(original, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrap_method(self, cls, attr, name) -> None:
        if cls is None or not callable(vars(cls).get(attr)):
            return
        original = vars(cls)[attr]
        wrapper = self._wrapper(original, name)
        for alias, value in list(vars(cls).items()):
            if value is original:
                self._patch(cls, alias, wrapper)

    # -- recording -------------------------------------------------------

    def _wrapper(self, fn, name):
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end = self.start, self.end
        clock = self.clock
        counts_bytes = name in BYTES_OUT
        is_rref = name == "linalg.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(index)
            if is_rref and args and args[0]:
                self.rref_max_cols = max(self.rref_max_cols, len(args[0][0]))
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[index] = clock()
                stack.pop()
                self._note_error(exc)
                raise
            end[index] = clock()
            stack.pop()
            if counts_bytes and isinstance(result, str):
                self.bytes_out += len(result.encode("utf-8"))
            return result

        return wrapper

    def _counting_init(self, init):
        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            self.poly_new += 1
            return init(*args, **kwargs)

        return counting_init

    def _note_error(self, exc) -> None:
        """Count each TruncationError once, at the innermost span it leaves."""
        errors = sys.modules.get("lambdacone.errors")
        if errors is not None and isinstance(exc, errors.TruncationError):
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                self.truncation_errors += 1

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self time (span time minus child spans)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_id = self.name_id
        for i in range(n):
            k = name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {name: {"calls": calls[k], "self_s": self_s[k]}
                for k, name in enumerate(self.names)}

    def write(self, stem) -> None:
        """Write the spans as ``stem.json`` (layout, names) and ``stem.bin``."""
        fields = (("name_id", self.name_id), ("parent", self.parent), ("op", self.op),
                  ("start", self.start), ("end", self.end))
        header = {
            "spans": len(self.start),
            "names": self.names,
            "fields": [[label, arr.typecode, arr.itemsize] for label, arr in fields],
            "byteorder": sys.byteorder,
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(f"{stem}.bin", "wb") as handle:
            for _, arr in fields:
                arr.tofile(handle)


def read_spans(stem) -> list:
    """Read spans written by :meth:`Tracer.write` as (name, start, end, parent, op)."""
    with open(f"{stem}.json", encoding="utf-8") as handle:
        header = json.load(handle)
    n = header["spans"]
    columns = {}
    with open(f"{stem}.bin", "rb") as handle:
        for label, typecode, _ in header["fields"]:
            arr = array(typecode)
            arr.fromfile(handle, n)
            columns[label] = arr
    names = header["names"]
    return [(names[columns["name_id"][i]], columns["start"][i], columns["end"][i],
             columns["parent"][i], columns["op"][i]) for i in range(n)]


def layer_metrics(tracer: Tracer, records: list, kernels: dict, wall: float) -> dict:
    """The per-layer metrics of one traced pass (all but trace.overhead_frac).

    ``records`` are the op records with their cache_info() deltas.
    """
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0}
    out = {}
    for span, with_calls in SPAN_METRICS:
        entry = summary.get(span, empty)
        if with_calls:
            out[f"{span}.calls"] = entry["calls"]
        out[f"{span}.self_s"] = entry["self_s"]
    for layer in LAYERS:
        spans = [v for k, v in summary.items() if k.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(v["calls"] for v in spans)
        out[f"{layer}.self_s"] = sum(v["self_s"] for v in spans)
    for layer in SHARE_LAYERS:
        out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / wall
    hits = sum(r["cache_hits"] for r in records)
    misses = sum(r["cache_misses"] for r in records)
    out.update({
        "rings.Poly.new.calls": tracer.poly_new,
        "linalg.rref.max_cols": tracer.rref_max_cols,
        "algfiles.bytes_out": tracer.bytes_out,
        "cone.cache.hits": hits,
        "cone.cache.misses": misses,
        "cone.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cone.cache.entries": cache_totals(kernels)["entries"],
        "cone.truncation_errors": tracer.truncation_errors,
    })
    return out
