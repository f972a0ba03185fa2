"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions named in ``TARGETS``: methods
are patched on their class, and module-level functions are rebound in every
``moment_angle.*`` namespace that imported them (the package uses
``from .x import f``).  Each wrapped call records a span (name, start, end,
parent span, op id) in memory; self time is a span's duration minus the time
its child spans cover.  Hot leaves such as ``SimplicialComplex.is_face_mask``
are deliberately not wrapped.

A target that a refactor moved or deleted is reported as missing with a
one-line warning; its metrics are left out instead of crashing the run.
"""

import importlib
import io
import sys
import time
from collections import defaultdict


def _rank_cells(args, kwargs, result):
    matrix = args[0]
    return {"cells": matrix.nrows * matrix.ncols}


_rank_cells.fields = ("cells",)


def _solve_cells(args, kwargs, result):
    matrix = args[0]
    return {"cells": matrix.nrows * matrix.ncols, "inconsistent": int(result is None)}


_solve_cells.fields = ("cells", "inconsistent")


def _nnz(args, kwargs, result):
    return {"nnz": len(result.entries)}


_nnz.fields = ("nnz",)


def _nonempty(args, kwargs, result):
    return {"nonempty": int(len(result.representative.class_coordinates) > 0)}


_nonempty.fields = ("nonempty",)


def _output_bytes(args, kwargs, result):
    # The benchmark runs every CLI request with stdout redirected to a fresh StringIO.
    return {"output_bytes": sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else 0}


_output_bytes.fields = ("output_bytes",)


# (layer metric prefix, module, attribute path, extra counters from (args, kwargs, result));
# each extra names the counters it adds in its ``fields`` attribute.
TARGETS = (
    ("complexes.induced", "moment_angle.complexes", "SimplicialComplex.induced", None),
    ("complexes.faces", "moment_angle.complexes", "SimplicialComplex.faces", None),
    ("complexes.dim", "moment_angle.complexes", "SimplicialComplex.dim", None),
    ("complexes.component_count", "moment_angle.complexes", "SimplicialComplex.component_count", None),
    ("rational_linalg.coboundary_matrix", "moment_angle.rational_linalg", "coboundary_matrix", _nnz),
    ("rational_linalg.rank", "moment_angle.rational_linalg", "SparseMatrix.rank", _rank_cells),
    ("rational_linalg.solve_linear", "moment_angle.rational_linalg", "solve_linear", _solve_cells),
    ("rational_linalg.nullspace_basis", "moment_angle.rational_linalg", "nullspace_basis", None),
    ("rational_linalg.reduced_cohomology_ranks", "moment_angle.rational_linalg", "reduced_cohomology_ranks", None),
    ("rational_linalg.reduced_cohomology_rank", "moment_angle.rational_linalg", "reduced_cohomology_rank", None),
    ("hochster.bigraded_betti_table", "moment_angle.hochster", "bigraded_betti_table", None),
    ("real_cochains.real_cohomology_ranks", "moment_angle.real_cochains", "real_cohomology_ranks", None),
    ("real_cochains.differential", "moment_angle.real_cochains", "RealCochain.differential", None),
    ("koszul.component_build", "moment_angle.koszul", "ComponentBasis.__init__", None),
    ("koszul.matrix_from_below", "moment_angle.koszul", "ComponentBasis.matrix_from_below", None),
    ("koszul.cohomology_basis", "moment_angle.koszul", "ComponentBasis.cohomology_basis", None),
    ("koszul.cohomology_dimension", "moment_angle.koszul", "ComponentBasis.cohomology_dimension", None),
    ("koszul.class_vector", "moment_angle.koszul", "ComponentBasis.class_vector", None),
    ("koszul.cochain_mul", "moment_angle.koszul", "KoszulCochain.__mul__", None),
    ("koszul.differential", "moment_angle.koszul", "KoszulCochain.differential", None),
    ("massey.search_triple_products", "moment_angle.massey", "search_triple_products", None),
    ("massey.masseyinput_init", "moment_angle.massey", "MasseyInput.__init__", None),
    ("massey.canonical_class", "moment_angle.massey", "canonical_class", None),
    ("massey.triple_value_set", "moment_angle.massey", "triple_value_set", _nonempty),
    ("massey.build_defining_system", "moment_angle.massey", "build_defining_system", None),
    ("massey.massey_value", "moment_angle.massey", "massey_value", None),
    ("massey.strict_conditions_check", "moment_angle.massey", "strict_conditions_check", None),
    ("massey.verify_family_massey", "moment_angle.massey", "verify_family_massey", None),
    ("graphs.associahedron_nerve", "moment_angle.graphs", "associahedron_nerve", None),
    ("graphs.formality_classify", "moment_angle.graphs", "formality_classify", None),
    ("multiwedge.j_construction", "moment_angle.multiwedge", "j_construction", None),
    ("cli.main", "moment_angle.cli", "main", _output_bytes),
)

# Memo caches read through ``cache_info()`` (layer metric prefix, module, attribute).
CACHES = (
    ("koszul.component_cache", "moment_angle.koszul", "_component_cached"),
    ("massey.window_rank_cache", "moment_angle.massey", "_window_rank"),
)


def warn(message):
    print(f"perfbench: warning: {message}", file=sys.stderr)


def package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "moment_angle" or name.startswith("moment_angle."))]


def reset_caches():
    """Empty every memo cache in the package, so each pass starts as a fresh process would."""
    for mod in package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _resolve(module_name, path):
    """(owner, attribute name, current value) for ``Class.attr`` or ``function``."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    value = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, value


class Tracer:
    """Span recorder for one process; ``install`` and ``uninstall`` toggle the wrappers."""

    def __init__(self):
        self.spans = []  # spans since the last ``reset_stats``
        self.op = None
        self.per_op = {}  # op label -> flat metrics of that op alone
        self.missing = []
        self._stack = []  # [span index, time covered by children]
        self._patches = []  # (owner, attribute, original value)
        self._mark = {}
        self.stats = None
        self.reset_stats()

    def reset_stats(self):
        """Start a new traced pass: zero every counter and drop the previous pass's spans."""
        self.spans.clear()
        self.stats = defaultdict(lambda: defaultdict(float))
        for name, _, _, extra in TARGETS:
            if name not in self.missing:
                layer = self.stats[name]
                layer["calls"] = 0
                layer["self_s"] = 0.0
                for field in getattr(extra, "fields", ()):
                    layer[field] = 0

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, self.op)
                layer = self.stats[name]
                layer["calls"] += 1
                layer["self_s"] += duration - frame[1]
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    layer[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = package_modules()
        for name, module_name, path, extra in TARGETS:
            try:
                owner, attr, value = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                if name not in self.missing:
                    self.missing.append(name)
                    warn(f"{name}: {module_name}.{path} not found; its metrics are missing")
                continue
            if isinstance(owner, type):
                if isinstance(value, property):
                    wrapped = property(self._wrap(name, value.fget, extra), value.fset, value.fdel)
                else:
                    wrapped = self._wrap(name, value, extra)
                self._patches.append((owner, attr, value))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, value, extra)
            for mod in modules:
                for key, bound in list(vars(mod).items()):
                    if bound is value:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def begin_op(self, label):
        self.op = label
        self._mark = {name: dict(fields) for name, fields in self.stats.items()}

    def end_op(self):
        """Record the counters of the op since ``begin_op``, for the layers it used."""
        delta = {}
        for name, fields in self.stats.items():
            before = self._mark.get(name, {})
            if fields["calls"] != before.get("calls", 0):
                delta[name] = {f: v - before.get(f, 0) for f, v in fields.items()}
        self.per_op[self.op] = self._flatten(delta)
        self.op = None

    def _flatten(self, stats, scale=1.0):
        out = {}
        for name, fields in stats.items():
            if name in self.missing:
                continue
            for field, value in fields.items():
                if field == "nonempty":
                    calls = fields["calls"]
                    out[f"{name}.nonempty_ratio"] = value / calls if calls else 0.0
                elif field == "self_s":
                    out[f"{name}.self_s"] = value * scale
                else:
                    out[f"{name}.{field}"] = value
        return out

    def layer_metrics(self, scale):
        """Flat ``layer.function.field`` metrics of the pass since the last ``reset_stats``;
        self times are multiplied by ``scale``, the pass's normalized over raw time."""
        out = self._flatten(self.stats, scale)
        out.update(self._cache_stats())
        return out

    def _cache_stats(self):
        """Hit/miss/size counters of the package's memo caches; missing caches are skipped."""
        out = {}
        for prefix, module_name, attr in CACHES:
            try:
                info = getattr(importlib.import_module(module_name), attr).cache_info()
            except (ImportError, AttributeError):
                if prefix not in self.missing:
                    self.missing.append(prefix)
                    warn(f"{prefix}: {module_name}.{attr} has no cache_info(); its metrics are missing")
                continue
            lookups = info.hits + info.misses
            out[f"{prefix}.hits"] = info.hits
            out[f"{prefix}.misses"] = info.misses
            out[f"{prefix}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            out[f"{prefix}.size_end"] = info.currsize
        return out
