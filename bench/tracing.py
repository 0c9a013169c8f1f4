"""Layer tracing from outside the program.

The tracer wraps public functions and methods of each rotalg module (plus
the two module-level primitives idealfn._closure_fixpoint and
finitegroup._rref, which their callers look up at call time).  Coarse
calls become spans (name, start, end, parent span, operation id, self
time); hot leaves (angle decisions, circle-set operations, coefficient
arithmetic) are only aggregated per operation.  A frame's self time is its
duration minus the time of the traced calls made inside it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("angle", "circleset", "exactnum", "idealfn", "sandbox",
           "finitegroup", "suites", "cli")

DECISIONS = ("angle.compare_linear", "angle.floor_linear")


def _hook_refine(t, frame, parent, args, kwargs, result):
    if parent is not None and parent[0] in DECISIONS:
        parent[2] = True


def _hook_decision(t, frame, parent, args, kwargs, result):
    if frame[2]:
        t.extra["angle.decision_miss"] += 1


def _hook_set_op(t, frame, parent, args, kwargs, result):
    a, b = args[0], args[1]
    t.extra["circleset.components_in"] += len(a.points) + len(a.arcs) + len(b.points) + len(b.arcs)
    t.extra["circleset.binary_ops"] += 1
    if a.arcs or b.arcs:
        t.extra["circleset.arc_ops"] += 1
    if frame[0] == "circleset.intersect" and parent is not None \
            and parent[0] == "idealfn.closure_fixpoint":
        t.extra["idealfn.closure_intersections"] += 1
        if result != a:
            t.extra["idealfn.closure_cuts"] += 1


def _hook_fixpoint(t, frame, parent, args, kwargs, result):
    t.extra["idealfn.closure_rounds"] += result[1]


def _hook_join_many(t, frame, parent, args, kwargs, result):
    if parent is not None and parent[0] == "idealfn.join_value":
        t.extra["idealfn.join_extensions"] += 1


def _hook_norm(t, frame, parent, args, kwargs, result):
    """Bucket by input property: one live layer, else the box size N."""
    a = args[0]
    radius = args[1] if len(args) > 1 else kwargs.get("radius", 32)
    N = (2 * radius + 1) ** 2
    layers = [n for n in a.terms if abs(n) <= 2 * radius]
    if len(layers) <= 1:
        bucket = "sandbox.norm_single_layer"
    else:
        bucket = "sandbox.norm_small" if N <= 1200 else "sandbox.norm_large"
        t.extra["sandbox.norm_dim_max"] = max(t.extra["sandbox.norm_dim_max"], N)
        if N <= 1200:
            t.extra["sandbox.norm_small.gram_bytes_computed"] += N * N * 16
    t.extra[bucket + ".calls"] += 1
    t.extra[bucket + ".self_s"] += frame[4]


def _hook_rref(t, frame, parent, args, kwargs, result):
    t.extra["finitegroup.rref.rows_in"] += len(args[0])


# (module, attribute path, traced name, span?, hook)
TARGETS = [
    ("angle", "Angle.compare_linear", "angle.compare_linear", False, _hook_decision),
    ("angle", "Angle.floor_linear", "angle.floor_linear", False, _hook_decision),
    ("angle", "Angle.refine", "angle.refine", False, _hook_refine),
    ("angle", "Angle.match_phase", "angle.match_phase", False, None),
    ("angle", "Angle.best_denominators", "angle.best_denominators", False, None),
    ("angle", "Angle.float_value", "angle.float_value", False, None),
    ("circleset", "ClosedCircleSet.union", "circleset.union", False, _hook_set_op),
    ("circleset", "ClosedCircleSet.intersect", "circleset.intersect", False, _hook_set_op),
    ("circleset", "ClosedCircleSet.contains_set", "circleset.contains_set", False, _hook_set_op),
    ("circleset", "ClosedCircleSet.contains_point", "circleset.contains_point", False, None),
    ("circleset", "ClosedCircleSet.rotate", "circleset.rotate", False, None),
    ("circleset", "ClosedCircleSet.from_components", "circleset.from_components", False, None),
    ("circleset", "covering_index", "circleset.covering_index", False, None),
    ("circleset", "set_from_json", "circleset.set_from_json", False, None),
    ("circleset", "set_to_json", "circleset.set_to_json", False, None),
    ("circleset", "render_svg", "circleset.render_svg", False, None),
    ("exactnum", "PhasePoly.__mul__", "exactnum.phasepoly_mul", False, None),
    ("exactnum", "PhasePoly.__add__", "exactnum.phasepoly_add", False, None),
    ("exactnum", "PhasePoly.shift", "exactnum.phasepoly_shift", False, None),
    ("exactnum", "PhasePoly.conj", "exactnum.phasepoly_conj", False, None),
    ("exactnum", "PhasePoly.scale", "exactnum.phasepoly_scale", False, None),
    ("idealfn", "_closure_fixpoint", "idealfn.closure_fixpoint", True, _hook_fixpoint),
    ("idealfn", "join_many", "idealfn.join_many", True, _hook_join_many),
    ("idealfn", "closed_join", "idealfn.closed_join", True, None),
    ("idealfn", "check_closed", "idealfn.check_closed", True, None),
    ("idealfn", "canonical_decomposition", "idealfn.canonical_decomposition", True, None),
    ("idealfn", "classify_algebra", "idealfn.classify_algebra", True, None),
    ("idealfn", "simplicity_report", "idealfn.simplicity_report", True, None),
    ("idealfn", "function_from_json", "idealfn.function_from_json", True, None),
    ("idealfn", "support", "idealfn.support", False, None),
    ("idealfn", "q_intersection", "idealfn.q_intersection", False, None),
    ("idealfn", "values_equal", "idealfn.values_equal", False, None),
    ("idealfn", "meet", "idealfn.meet", False, None),
    ("idealfn", "BasicFunction.value", "idealfn.basic_value", False, None),
    ("idealfn", "JoinFunction.value", "idealfn.join_value", False, None),
    ("idealfn", "PointwiseFunction.value", "idealfn.pointwise_value", False, None),
    ("idealfn", "WindowFunction.value", "idealfn.window_value", False, None),
    ("sandbox", "truncated_norm", "sandbox.truncated_norm", True, _hook_norm),
    ("sandbox", "multiply", "sandbox.multiply", False, None),
    ("sandbox", "adjoint", "sandbox.adjoint", False, None),
    ("sandbox", "build_averaging", "sandbox.build_averaging", True, None),
    ("sandbox", "apply_averaging", "sandbox.apply_averaging", False, None),
    ("sandbox", "center_check", "sandbox.center_check", True, None),
    ("sandbox", "element_from_json", "sandbox.element_from_json", False, None),
    ("sandbox", "CrossedElement.__add__", "sandbox.element_add", False, None),
    ("finitegroup", "_rref", "finitegroup.rref", False, _hook_rref),
    ("finitegroup", "_in_span", "finitegroup.in_span", False, None),
    ("finitegroup", "elem_mul", "finitegroup.elem_mul", False, None),
    ("finitegroup", "elem_adj", "finitegroup.elem_adj", False, None),
    ("finitegroup", "augmentation_ideal", "finitegroup.augmentation_ideal", True, None),
    ("finitegroup", "build_BI", "finitegroup.build_BI", True, None),
    ("finitegroup", "check_no_intermediate_M2", "finitegroup.check_no_intermediate_M2", True, None),
    ("finitegroup", "check_not_from_subgroup", "finitegroup.check_not_from_subgroup", True, None),
    ("finitegroup", "extend_ideal", "finitegroup.extend_ideal", True, None),
    ("suites", "suite_ring_laws", "suites.suite_ring_laws", True, None),
    ("suites", "suite_averaging", "suites.suite_averaging", True, None),
    ("suites", "suite_center", "suites.suite_center", True, None),
    ("suites", "suite_finite_group", "suites.suite_finite_group", True, None),
    ("suites", "random_exact_element", "suites.random_exact_element", False, None),
    ("suites", "random_float_element", "suites.random_float_element", False, None),
    ("cli", "main", "cli.main", True, None),
    ("cli", "build_parser", "cli.parser", False, None),
    ("cli", "_load_json", "cli.load", True, None),
    ("cli", "_load_function", "cli.load", True, None),
    ("cli", "_emit", "cli.emit", True, None),
]


class Tracer:
    """Spans and per-operation aggregates, kept in memory until write()."""

    def __init__(self):
        # frame: [name, child seconds, refine flag, span id, self seconds]
        self.stack: list[list] = []
        self.spans: list = []
        self.per_op: dict[int, dict[str, list]] = {}
        self.extra: defaultdict = defaultdict(float)
        self.op = None
        self._cur: dict[str, list] = {}
        self._undo: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"rotalg.{m}") for m in MODULES}
        everywhere = [importlib.import_module("rotalg")] + list(mods.values())
        for mod, path, name, span, hook in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mods[mod], owner_name)
                raw = inspect.getattr_static(owner, attr)
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, name, span, hook)
                setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod)
                        else wrapped)
                self._undo.append((owner, attr, raw))
            else:
                fn = getattr(mods[mod], attr)
                wrapped = self._wrap(fn, name, span, hook)
                # rebind every module-level reference, so callers that
                # imported the name directly go through the wrapper too
                for m in everywhere:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, span, hook):
        stack, t = self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = None
            if span:
                sid = len(t.spans)
                t.spans.append(None)
            frame = [name, 0.0, False, sid if span else (parent[3] if parent else None), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                frame[4] = (t1 - t0) - frame[1]
                if parent is not None:
                    parent[1] += t1 - t0
                st = t._cur.get(name)
                if st is None:
                    st = t._cur[name] = [0, 0.0]
                st[0] += 1
                st[1] += frame[4]
                if span:
                    t.spans[sid] = [sid, name, t0, t1, parent[3] if parent else None,
                                    t.op, frame[4]]
            if hook is not None:
                hook(t, frame, parent, args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op_id: int, verb: str) -> None:
        self.op = op_id
        self._cur = self.per_op.setdefault(op_id, {})
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append([f"op.{verb}", 0.0, False, sid, 0.0, perf_counter()])

    def end_op(self) -> None:
        frame = self.stack.pop()
        t1 = perf_counter()
        self.spans[frame[3]] = [frame[3], frame[0], frame[5], t1, None, self.op,
                                (t1 - frame[5]) - frame[1]]

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for stats in self.per_op.values():
            for name, (calls, self_s) in stats.items():
                acc = out.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"span_fields": ["id", "name", "start", "end", "parent", "op", "self_s"],
                       "spans": self.spans,
                       "per_op": {str(k): v for k, v in self.per_op.items()},
                       "counters": dict(self.extra)}, fh)


def layer_metrics(t: Tracer, report_bytes: int, overhead_ratio: float) -> dict:
    """The per-layer metrics, each as (value, unit)."""
    tot = t.totals()
    x = t.extra

    def calls(name):
        return tot.get(name, [0, 0.0])[0]

    def self_s(name):
        return tot.get(name, [0, 0.0])[1]

    def layer(prefix):
        return sum(v[1] for k, v in tot.items() if k.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    decisions = calls("angle.compare_linear") + calls("angle.floor_linear")
    m = {
        "angle.compare_linear.calls": (calls("angle.compare_linear"), "count"),
        "angle.floor_linear.calls": (calls("angle.floor_linear"), "count"),
        "angle.refine.calls": (calls("angle.refine"), "count"),
        "angle.decision_miss_ratio": (ratio(x["angle.decision_miss"], decisions), "ratio"),
        "angle.self_s": (layer("angle"), "s"),
        "angle.match_phase.calls": (calls("angle.match_phase"), "count"),
        "angle.match_phase.self_s": (self_s("angle.match_phase"), "s"),
        "circleset.intersect.calls": (calls("circleset.intersect"), "count"),
        "circleset.components_in": (x["circleset.components_in"], "count"),
        "circleset.arc_op_ratio": (ratio(x["circleset.arc_ops"], x["circleset.binary_ops"]),
                                   "ratio"),
        "circleset.self_s": (layer("circleset"), "s"),
        "circleset.union.calls": (calls("circleset.union"), "count"),
        "circleset.contains_set.calls": (calls("circleset.contains_set"), "count"),
        "circleset.rotate.calls": (calls("circleset.rotate"), "count"),
        "circleset.covering_index.calls": (calls("circleset.covering_index"), "count"),
        "idealfn.closure_fixpoint.self_s": (self_s("idealfn.closure_fixpoint"), "s"),
        "idealfn.closure_rounds": (x["idealfn.closure_rounds"], "count"),
        "idealfn.closure_cut_ratio": (ratio(x["idealfn.closure_cuts"],
                                            x["idealfn.closure_intersections"]), "ratio"),
        "idealfn.join_many.calls": (calls("idealfn.join_many"), "count"),
        "idealfn.join_many.self_s": (self_s("idealfn.join_many"), "s"),
        "idealfn.join_extensions": (x["idealfn.join_extensions"], "count"),
        "idealfn.canonical_decomposition.self_s": (
            self_s("idealfn.canonical_decomposition"), "s"),
        "idealfn.basic_value.self_s": (self_s("idealfn.basic_value"), "s"),
        "idealfn.check_closed.calls": (calls("idealfn.check_closed"), "count"),
        "idealfn.check_closed.self_s": (self_s("idealfn.check_closed"), "s"),
        "idealfn.self_s": (layer("idealfn"), "s"),
        "sandbox.truncated_norm.calls": (calls("sandbox.truncated_norm"), "count"),
        "sandbox.norm_single_layer.calls": (x["sandbox.norm_single_layer.calls"], "count"),
        "sandbox.norm_single_layer.self_s": (x["sandbox.norm_single_layer.self_s"], "s"),
        "sandbox.norm_small.calls": (x["sandbox.norm_small.calls"], "count"),
        "sandbox.norm_small.self_s": (x["sandbox.norm_small.self_s"], "s"),
        "sandbox.norm_large.calls": (x["sandbox.norm_large.calls"], "count"),
        "sandbox.norm_large.self_s": (x["sandbox.norm_large.self_s"], "s"),
        "sandbox.norm_dim_max": (x["sandbox.norm_dim_max"], "dim"),
        "sandbox.norm_small.gram_bytes_computed": (
            x["sandbox.norm_small.gram_bytes_computed"], "B"),
        "sandbox.self_s": (layer("sandbox"), "s"),
        "sandbox.multiply.calls": (calls("sandbox.multiply"), "count"),
        "sandbox.multiply.self_s": (self_s("sandbox.multiply"), "s"),
        "exactnum.phasepoly_mul.calls": (calls("exactnum.phasepoly_mul"), "count"),
        "exactnum.phasepoly_add.calls": (calls("exactnum.phasepoly_add"), "count"),
        "exactnum.self_s": (layer("exactnum"), "s"),
        "finitegroup.rref.calls": (calls("finitegroup.rref"), "count"),
        "finitegroup.rref.rows_in": (x["finitegroup.rref.rows_in"], "count"),
        "finitegroup.rref.self_s": (self_s("finitegroup.rref"), "s"),
        "finitegroup.in_span.calls": (calls("finitegroup.in_span"), "count"),
        "finitegroup.elem_mul.calls": (calls("finitegroup.elem_mul"), "count"),
        "finitegroup.self_s": (layer("finitegroup"), "s"),
        "suites.self_s": (layer("suites"), "s"),
        "cli.load.self_s": (self_s("cli.load"), "s"),
        "cli.emit.self_s": (self_s("cli.emit"), "s"),
        "cli.report_bytes": (report_bytes, "B"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
