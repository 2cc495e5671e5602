"""Spans around the public functions of tritangle, installed from outside.

The benchmark's traced run wraps every public function of the layers
below, in every namespace that bound it, and the validating constructor
of ``DensityMatrix``.  Each call records a span: name, start, end, parent
span and operation id.  Spans stay in memory until the run ends.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "tritangle"
LAYERS = ("cli", "qcore", "entanglement", "convexroof", "teleport", "noisychan")
# Constructors whose __post_init__ is the validation step.
VALIDATING_CLASSES = {"qcore": ("DensityMatrix",)}
# Measures that hand minimize_roof a vectorised kernel as function attributes.
ROOF_MEASURES = ("three_tangle_pure", "concurrence_pure2")
ROOF_KERNEL = "entanglement.roof_kernel"

# Span names reported as <name>.calls and <name>.self_s.
CALLS_AND_SELF = (
    "qcore.load_state_file",
    "qcore.DensityMatrix",
    "qcore.partial_trace",
    "qcore.kron",
    "qcore.hermitian_eigensystem",
    "qcore.density_report",
    "teleport.avg_fidelity",
    "teleport.teleport_output",
    ROOF_KERNEL,
    "entanglement.three_tangle_pure",
    "entanglement.concurrence_wootters",
    "entanglement.channel_mixture_state",
    "convexroof.minimize_roof",
    "noisychan.channel_report",
    "noisychan.epsilon_x_w",
)
SELF_ONLY = ("cli.main", "teleport.critical_values")


class Tracer:
    def __init__(self):
        self.op = -1
        self._ids: dict[str, int] = {}
        self._name: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._parent: list[int] = []
        self._op: list[int] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.kernel_rows = 0
        self.roof_results: list[tuple[int, int, bool]] = []  # (op, restarts, converged)
        self.wrapped: set[str] = set()

    # -- recording ---------------------------------------------------------

    def span(self, fn, name: str, after=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        names, starts, ends, parents, ops, stack = (
            self._name, self._start, self._end, self._parent, self._op, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self.wrapped.add(name)
        return traced

    def _count_rows(self, args, result) -> None:
        self.kernel_rows += int(np.shape(args[0])[0])

    def _roof_result(self, args, result) -> None:
        self.roof_results.append(
            (self.op, int(getattr(result, "restarts_used", 0)), bool(getattr(result, "converged", False))))

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every layer; return the names of hooks that were not found."""
        missing = []
        replace = {}
        for short in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                after = self._roof_result if f"{short}.{attr}" == "convexroof.minimize_roof" else None
                replace[fn] = self.span(fn, f"{short}.{attr}", after)
            for cls_name in VALIDATING_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None or "__post_init__" not in cls.__dict__:
                    missing.append(f"{short}.{cls_name}")
                    continue
                self._set(cls, "__post_init__", self.span(cls.__post_init__, f"{short}.{cls_name}"))
        # functools.wraps copied the kernel attributes onto each measure's
        # wrapper; point them at traced kernels so minimize_roof still takes
        # its fast path and the kernel gets its own span.
        ent = importlib.import_module(f"{PACKAGE}.entanglement")
        found_kernel = False
        for measure in ROOF_MEASURES:
            orig = getattr(ent, measure, None)
            kernel = getattr(orig, "roof_contrib", None)
            if orig in replace and kernel is not None:
                replace[orig].roof_contrib = self.span(kernel, ROOF_KERNEL, self._count_rows)
                found_kernel = True
        if not found_kernel:
            missing.append(ROOF_KERNEL)
        # cli and others import names directly, so patch every namespace.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    self._set(mod, attr, replace[value])
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(sorted(self._ids, key=self._ids.get)),
            "name": np.asarray(self._name, dtype=np.int32),
            "start_ns": np.asarray(self._start, dtype=np.int64),
            "end_ns": np.asarray(self._end, dtype=np.int64),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "op": np.asarray(self._op, dtype=np.int64),
        }

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and inclusive seconds."""
        a = self.arrays()
        n = len(a["names"])
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=n) / 1e9
        incl_s = np.bincount(a["name"], weights=dur, minlength=n) / 1e9
        return {
            str(name): {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(a["names"])
        }

    def layer_metrics(self, op_groups: dict[str, set[int]]) -> dict[str, float]:
        """Per-layer metrics; names whose hook was not installed are absent.

        ``op_groups`` names sets of operation ids; the roof search reports
        its time per restart for each set as well as overall.
        """
        t = self.totals()
        zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
        out = {}
        for name in CALLS_AND_SELF:
            if name in self.wrapped:
                out[f"{name}.calls"] = t.get(name, zero)["calls"]
                out[f"{name}.self_s"] = t.get(name, zero)["self_s"]
        for name in SELF_ONLY:
            if name in self.wrapped:
                out[f"{name}.self_s"] = t.get(name, zero)["self_s"]
        if ROOF_KERNEL in self.wrapped:
            out[f"{ROOF_KERNEL}.rows"] = self.kernel_rows
        if "convexroof.minimize_roof" in self.wrapped:
            roof = t.get("convexroof.minimize_roof", zero)
            restarts = sum(r for _, r, _ in self.roof_results)
            out["convexroof.restarts"] = restarts
            out["convexroof.s_per_restart"] = roof["incl_s"] / restarts if restarts else 0.0
            if ROOF_KERNEL in self.wrapped:
                out["convexroof.kernel_rows_per_restart"] = self.kernel_rows / restarts if restarts else 0.0
            out["convexroof.converged_ratio"] = (
                sum(c for _, _, c in self.roof_results) / len(self.roof_results) if self.roof_results else 0.0)
            a = self.arrays()
            is_roof = a["name"] == self._ids["convexroof.minimize_roof"]
            dur = (a["end_ns"] - a["start_ns"])[is_roof] / 1e9
            span_ops = a["op"][is_roof]
            for group, ids in op_groups.items():
                sel = np.isin(span_ops, list(ids))
                n = sum(r for op, r, _ in self.roof_results if op in ids)
                out[f"convexroof.s_per_restart.{group}"] = float(dur[sel].sum()) / n if n else 0.0
        return out
