"""Span tracing of the zerodiag layers, installed from outside the package.

`install()` wraps the public functions and methods listed in TRACED and
COUNTED and rebinds every name under which a zerodiag module refers to
them (a module's own definition, `from .exactnum import poly_gcd` in
`curve`, the re-exports in the package `__init__`, a class attribute and
its aliases such as `__rmul__ = __mul__`).  Nothing in `src/` changes.

A span is (name, start, end, parent, op, value): the parent is the
innermost span open when the call began, op is the benchmark operation
the call belongs to, and value is a small integer read off the result
where a metric needs one (the degree of a gcd, the number of triples a
search found).  Spans are kept in flat arrays while the run lasts and
written to a file once it ends; every per-layer metric is derived from
them afterwards.

Functions in COUNTED are called millions of times from a tight loop, so
they are counted per enclosing span instead of getting a span each.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = ("exactnum", "surface", "curve", "mwlat", "conics", "nscat",
           "lattice", "cli")


def _degree(poly):
    return poly.degree


def _param_degree(par):
    return par.degree()


# (span name, module, attribute path, value read off the result)
TRACED = (
    ("exactnum.poly_gcd", "exactnum", "poly_gcd", _degree),
    ("exactnum.RationalFunction.init", "exactnum", "RationalFunction.__init__", None),
    ("exactnum.Polynomial.mul", "exactnum", "Polynomial.__mul__", None),
    ("exactnum.rational_roots", "exactnum", "rational_roots", None),
    ("exactnum.poly_sqrt", "exactnum", "poly_sqrt", None),
    ("curve.WeierstrassModel.contains", "curve", "WeierstrassModel.contains", None),
    ("curve.CurvePoint.add", "curve", "CurvePoint.__add__", None),
    ("curve.point_to_param", "curve", "point_to_param", _param_degree),
    ("curve.param_to_point", "curve", "param_to_point", None),
    ("curve.tate_classify", "curve", "tate_classify", None),
    ("mwlat.height_pairing", "mwlat", "height_pairing", None),
    ("mwlat.section_component", "mwlat", "section_component", None),
    ("mwlat.saturation_certificate", "mwlat", "saturation_certificate", None),
    ("mwlat.torsion_certificate", "mwlat", "torsion_certificate", None),
    ("conics.rref", "conics", "rref", None),
    ("conics.Conic.init", "conics", "Conic.__init__", None),
    ("conics.conic_intersection", "conics", "conic_intersection", None),
    ("nscat.catalogue_441", "nscat", "catalogue_441", None),
    ("nscat.enumerate_classes", "nscat", "enumerate_classes", None),
    ("nscat.fiber_class_certificate", "nscat", "fiber_class_certificate", None),
    ("nscat.decomposition_certificate", "nscat", "decomposition_certificate", None),
    ("nscat.strict_transform_conics", "nscat", "strict_transform_conics", None),
    ("lattice.signature", "lattice", "signature", None),
    ("lattice.short_vectors", "lattice", "short_vectors", None),
    ("lattice.det", "lattice", "det", None),
    ("lattice.mat_inverse", "lattice", "mat_inverse", None),
    ("lattice.smith_normal_form", "lattice", "smith_normal_form", None),
    ("surface.search", "surface", "search", len),
    ("surface.trivial_locus", "surface", "trivial_locus", None),
    ("surface.Parametrization.verify", "surface", "Parametrization.verify", None),
    ("cli.main", "cli", "main", None),
)

COUNTED = (
    ("surface.integral_eigenvalues", "surface", "integral_eigenvalues"),
)

# (metric, unit, better); the last dotted part says how it is derived.
LAYER_METRICS = (
    ("exactnum.poly_gcd.calls", "count", "lower"),
    ("exactnum.poly_gcd.self_s", "s", "lower"),
    ("exactnum.poly_gcd.nontrivial_ratio", "ratio", "higher"),
    ("exactnum.RationalFunction.init.calls", "count", "lower"),
    ("exactnum.RationalFunction.init.self_s", "s", "lower"),
    ("exactnum.Polynomial.mul.calls", "count", "lower"),
    ("exactnum.Polynomial.mul.self_s", "s", "lower"),
    ("exactnum.rational_roots.self_s", "s", "lower"),
    ("exactnum.poly_sqrt.self_s", "s", "lower"),
    ("curve.WeierstrassModel.contains.calls", "count", "lower"),
    ("curve.WeierstrassModel.contains.self_s", "s", "lower"),
    ("curve.CurvePoint.add.calls", "count", "lower"),
    ("curve.CurvePoint.add.self_s", "s", "lower"),
    ("curve.point_to_param.self_s", "s", "lower"),
    ("curve.point_to_param.max_degree", "degree", "lower"),
    ("curve.param_to_point.self_s", "s", "lower"),
    ("curve.tate_classify.self_s", "s", "lower"),
    ("mwlat.height_pairing.calls", "count", "lower"),
    ("mwlat.height_pairing.self_s", "s", "lower"),
    ("mwlat.section_component.calls", "count", "lower"),
    ("mwlat.section_component.self_s", "s", "lower"),
    ("mwlat.saturation_certificate.self_s", "s", "lower"),
    ("mwlat.torsion_certificate.self_s", "s", "lower"),
    ("conics.rref.calls", "count", "lower"),
    ("conics.rref.self_s", "s", "lower"),
    ("conics.Conic.init.calls", "count", "lower"),
    ("conics.Conic.init.self_s", "s", "lower"),
    ("conics.conic_intersection.calls", "count", "lower"),
    ("conics.conic_intersection.self_s", "s", "lower"),
    ("nscat.catalogue_441.self_s", "s", "lower"),
    ("nscat.enumerate_classes.self_s", "s", "lower"),
    ("nscat.fiber_class_certificate.self_s", "s", "lower"),
    ("nscat.decomposition_certificate.self_s", "s", "lower"),
    ("nscat.strict_transform_conics.self_s", "s", "lower"),
    ("lattice.signature.calls", "count", "lower"),
    ("lattice.signature.self_s", "s", "lower"),
    ("lattice.short_vectors.calls", "count", "lower"),
    ("lattice.short_vectors.self_s", "s", "lower"),
    ("lattice.det.self_s", "s", "lower"),
    ("lattice.mat_inverse.self_s", "s", "lower"),
    ("lattice.smith_normal_form.self_s", "s", "lower"),
    ("surface.search.self_s", "s", "lower"),
    ("surface.search.hit_ratio", "ratio", "higher"),
    ("surface.integral_eigenvalues.calls", "count", "lower"),
    ("surface.trivial_locus.self_s", "s", "lower"),
    ("surface.Parametrization.verify.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    """Span store plus the switch that turns recording on and off."""

    def __init__(self):
        self.names = [t[0] for t in TRACED]
        self.name_of = array("H")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack = []
        self.counted = {}  # (counted name, innermost span name or "") -> calls
        self.enabled = False
        self.op = 0

    def span_wrapper(self, name_id, fn, value_of):
        clock = time.perf_counter
        stack = self.stack
        name_of, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, value = self.start, self.end, self.value

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            value.append(-1)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if value_of is not None:
                value[i] = value_of(result)
            return result

        return traced

    def count_wrapper(self, name, fn):
        counted, stack, names, name_of = (self.counted, self.stack,
                                          self.names, self.name_of)

        def counting(*args, **kwargs):
            if self.enabled:
                key = (name, names[name_of[stack[-1]]] if stack else "")
                counted[key] = counted.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def write(self, path):
        """Header line of JSON, then each span field as a raw array."""
        fields = (("name", self.name_of), ("parent", self.parent),
                  ("op", self.op_of), ("start", self.start),
                  ("end", self.end), ("value", self.value))
        header = {
            "count": len(self.start),
            "names": self.names,
            "fields": [[f, a.typecode, a.itemsize] for f, a in fields],
            "counted": [[k[0], k[1], v] for k, v in sorted(self.counted.items())],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, arr in fields:
                arr.tofile(f)

    def layer_metrics(self):
        """Every LAYER_METRICS entry except trace.overhead_ratio."""
        n = len(self.start)
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        nonzero = [0] * k
        total = [0] * k
        peak = [0] * k
        child = [0.0] * n
        name_of, parent, start, end, value = (self.name_of, self.parent,
                                              self.start, self.end, self.value)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for i in range(n):
            j = name_of[i]
            calls[j] += 1
            self_s[j] += end[i] - start[i] - child[i]
            v = value[i]
            if v > 0:
                nonzero[j] += 1
                total[j] += v
                peak[j] = max(peak[j], v)
        index = {name: j for j, name in enumerate(self.names)}
        counted = {}
        for (name, _), c in self.counted.items():
            counted[name] = counted.get(name, 0) + c
        out = {}
        for metric, _, _ in LAYER_METRICS:
            prefix, kind = metric.rsplit(".", 1)
            if prefix == "trace":
                continue
            if prefix not in index:
                out[metric] = counted.get(prefix, 0)
                continue
            j = index[prefix]
            if kind == "calls":
                out[metric] = calls[j]
            elif kind == "self_s":
                out[metric] = self_s[j]
            elif kind == "nontrivial_ratio":
                out[metric] = nonzero[j] / calls[j] if calls[j] else 0.0
            elif kind == "max_degree":
                out[metric] = peak[j]
            elif kind == "hit_ratio":
                tried = self.counted.get(("surface.integral_eigenvalues", prefix), 0)
                out[metric] = total[j] / tried if tried else 0.0
            else:
                raise KeyError(metric)
        out["trace.spans"] = n
        return out


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install() -> Tracer:
    """Import every zerodiag module, wrap the targets, rebind all names.

    The tracer starts disabled; set `enabled` around the timed calls.
    """
    modules = [importlib.import_module("zerodiag." + m) for m in MODULES]
    modules.append(importlib.import_module("zerodiag"))
    tracer = Tracer()
    wrappers = {}
    for name_id, (name, module, path, value_of) in enumerate(TRACED):
        owner, attr = _resolve(importlib.import_module("zerodiag." + module), path)
        fn = owner.__dict__[attr]
        wrappers[id(fn)] = (fn, tracer.span_wrapper(name_id, fn, value_of), owner)
    for name, module, path in COUNTED:
        owner, attr = _resolve(importlib.import_module("zerodiag." + module), path)
        fn = owner.__dict__[attr]
        wrappers[id(fn)] = (fn, tracer.count_wrapper(name, fn), owner)
    for fn, wrapper, owner in wrappers.values():
        if isinstance(owner, type):
            # a method and every alias of it in its class, e.g. __rmul__
            for attr, val in list(vars(owner).items()):
                if val is fn:
                    setattr(owner, attr, wrapper)
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    return tracer
