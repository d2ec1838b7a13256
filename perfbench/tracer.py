"""Span tracing of shefferpoly's public entry points, from outside the package.

``Tracer.install()`` wraps the layer boundaries listed in ``LAYERS`` (and
every ``LinOp.apply``) in the running interpreter; ``uninstall()`` puts the
originals back.  No file of the package changes.

Each wrapped call records a span: name, start, end and parent span.  All
spans of one child run share the tracer's run id.  Spans are kept in
memory, in flat integer arrays, and written out by ``write()`` when the run
ends.  Self time (a span's time minus the time its child spans cover),
outermost inclusive time, call counts and leaf counts are accumulated as
spans close.  A ``generating_series`` or ``resolved`` span with no child
span is a cache hit; one with children is a miss.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from shefferpoly import cli, families, mixed, multipoly, operators, oracle, pairs, series, suites

MultiPoly = multipoly.MultiPoly
Series = series.Series

# (span name, owner, attribute names); methods are patched on their class,
# functions wherever a shefferpoly module or the suite table refers to them
LAYERS = [
    ("multipoly.mul", MultiPoly, ("__mul__", "__rmul__")),
    ("multipoly.add", MultiPoly, ("__add__", "__radd__")),
    ("multipoly.substitute", MultiPoly, ("substitute",)),
    ("series.compose", Series, ("compose",)),
    ("series.compositional_inverse", Series, ("compositional_inverse",)),
    ("series.reciprocal", Series, ("reciprocal",)),
    ("series.exp", Series, ("exp",)),
    ("series.pow_fraction", Series, ("pow_fraction",)),
    ("operators.commutator_check", operators, ("commutator_check",)),
    ("operators.exp_operator", operators, ("exp_operator",)),
    ("operators.substitute_operators", operators, ("substitute_operators",)),
    ("pairs.resolved", pairs.ShefferPair, ("resolved",)),
    ("families.c0_compose", families, ("c0_compose",)),
    ("families.sheffer_series", families, ("sheffer_series",)),
    ("mixed.generating_series", mixed.MixedFamily, ("generating_series",)),
    ("mixed.verify_monomiality", mixed.MixedFamily, ("verify_monomiality",)),
    ("mixed.reduce", mixed.MixedFamily, ("reduce",)),
    ("mixed.integral_rep_check", mixed.MixedFamily, ("integral_rep_check",)),
    ("mixed.operational_rep_check", mixed.MixedFamily, ("operational_rep_check",)),
    ("oracle.cross_validate", oracle, ("cross_validate",)),
    ("cli.main", cli, ("main",)),
] + [(f"suites.{name}", suites, (fn.__name__,)) for name, fn in sorted(suites.SUITES.items())]

# Series.__mul__ is split by coefficient type into these two names
SERIES_MUL_POLY = "series.mul_poly"
SERIES_MUL_SCALAR = "series.mul_scalar"


def _linop_classes() -> list[type]:
    found, todo = [], [operators.LinOp]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in found if "apply" in vars(c)]


def _has_poly_coeff(s) -> bool:
    return isinstance(s, Series) and any(type(c) is MultiPoly for c in s.coeffs)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: list[list[int]] = []  # [span index, child ns, child count]
        self.calls: list[int] = []
        self.leaves: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self._active: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.leaves, self.self_ns, self.incl_ns, self._active):
                col.append(0)
        return nid

    def _wrap(self, fn, pick_id):
        """Wrap fn so each call records a span; pick_id(args) names it."""
        clock = time.perf_counter_ns
        stack = self._stack
        name_col, start_col, end_col = self.span_name, self.span_start, self.span_end
        parent_col = self.span_parent
        calls, leaves, self_ns, incl_ns, active = (
            self.calls, self.leaves, self.self_ns, self.incl_ns, self._active)

        def traced(*args, **kwargs):
            nid = pick_id(args)
            idx = len(name_col)
            frame = [idx, 0, 0]
            name_col.append(nid)
            parent_col.append(stack[-1][0] if stack else -1)
            start_col.append(0)
            end_col.append(0)
            stack.append(frame)
            active[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                if not frame[2]:
                    leaves[nid] += 1
                active[nid] -= 1
                if not active[nid]:
                    incl_ns[nid] += dur
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, owner, attrs in LAYERS:
            nid = self._id(name)
            for attr in attrs:
                orig = vars(owner)[attr]
                wrapped = self._wrap(orig, lambda args, nid=nid: nid)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapped)
                    continue
                # module function: rebind every reference the package holds
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "shefferpoly":
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                self._patch(mod, key, wrapped)
                for key, val in list(suites.SUITES.items()):
                    if val is orig:
                        self._restore.append((suites.SUITES, key, val))
                        suites.SUITES[key] = wrapped
        poly_id, scalar_id = self._id(SERIES_MUL_POLY), self._id(SERIES_MUL_SCALAR)

        def series_mul_id(args):
            a, b = args[0], args[1]
            poly = isinstance(b, MultiPoly) or _has_poly_coeff(a) or _has_poly_coeff(b)
            return poly_id if poly else scalar_id

        mul = self._wrap(vars(Series)["__mul__"], series_mul_id)
        for attr in ("__mul__", "__rmul__"):
            self._patch(Series, attr, mul)
        for cls in _linop_classes():
            name = "operators.opseries_apply" if cls is operators.OpSeries else "operators.apply"
            nid = self._id(name)
            self._patch(cls, "apply", self._wrap(vars(cls)["apply"], lambda args, nid=nid: nid))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def _get(self, column: list[int], name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else column[nid]

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, seconds as floats and counts as ints."""

        def calls(name):
            return self._get(self.calls, name)

        def self_s(name):
            return self._get(self.self_ns, name) / 1e9

        def incl_s(name):
            return self._get(self.incl_ns, name) / 1e9

        def hit_ratio(name):
            n = calls(name)
            return self._get(self.leaves, name) / n if n else 0.0

        m = {
            "multipoly.mul.calls": calls("multipoly.mul"),
            "multipoly.mul.self_s": self_s("multipoly.mul"),
            "multipoly.add.calls": calls("multipoly.add"),
            "multipoly.add.self_s": self_s("multipoly.add"),
            "multipoly.substitute.self_s": self_s("multipoly.substitute"),
        }
        for name in ("mul_poly", "compose", "mul_scalar", "compositional_inverse"):
            m[f"series.{name}.calls"] = calls(f"series.{name}")
            m[f"series.{name}.self_s"] = self_s(f"series.{name}")
        for name in ("reciprocal", "exp", "pow_fraction"):
            m[f"series.{name}.self_s"] = self_s(f"series.{name}")
        m["operators.apply.calls"] = calls("operators.apply") + calls("operators.opseries_apply")
        m["operators.opseries_apply.calls"] = calls("operators.opseries_apply")
        m["operators.opseries_apply.self_s"] = self_s("operators.opseries_apply")
        for name in ("commutator_check", "exp_operator", "substitute_operators"):
            m[f"operators.{name}.s"] = incl_s(f"operators.{name}")
        m["pairs.resolved.calls"] = calls("pairs.resolved")
        m["pairs.resolved.hit_ratio"] = hit_ratio("pairs.resolved")
        m["pairs.resolved.s"] = incl_s("pairs.resolved")
        m["families.c0_compose.calls"] = calls("families.c0_compose")
        m["families.c0_compose.s"] = incl_s("families.c0_compose")
        m["families.sheffer_series.s"] = incl_s("families.sheffer_series")
        m["mixed.generating_series.calls"] = calls("mixed.generating_series")
        m["mixed.generating_series.hit_ratio"] = hit_ratio("mixed.generating_series")
        for name in ("generating_series", "verify_monomiality", "reduce",
                     "integral_rep_check", "operational_rep_check"):
            m[f"mixed.{name}.s"] = incl_s(f"mixed.{name}")
        for name in sorted(suites.SUITES):
            m[f"suites.{name}.s"] = incl_s(f"suites.{name}")
        m["oracle.cross_validate.s"] = incl_s("oracle.cross_validate")
        m["cli.main.self_s"] = self_s("cli.main")
        return m

    def write(self, path) -> None:
        """Write the spans: one JSON header line, then the name, start, end
        and parent columns as native-endian int32, int64, int64, int32."""
        header = {"run_id": self.run_id, "names": self.names, "spans": len(self.span_name),
                  "columns": ["name:i4", "start_ns:i8", "end_ns:i8", "parent:i4"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.span_name, self.span_start, self.span_end, self.span_parent):
                col.tofile(fh)
