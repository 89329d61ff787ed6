"""Span tracer that wraps mecp's public functions from outside the package.

Each target is a module attribute (or a class attribute reached through one)
that the calling code looks up at call time, so replacing it with a timing
wrapper sees every call without touching ``src/``. Spans carry a name, start,
end, parent and op id; they stay in memory until the run writes them out.

A target that cannot be resolved stops the tracer with its name: a function
that moved or was renamed must not silently zero a layer metric.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
from collections import Counter, defaultdict
from operator import attrgetter

import numpy as np

# (owner, attribute, span name). The owner is the module (or module.Class)
# whose attribute the caller looks up; the span name's prefix is the layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("mecp.cli", "main", "cli.main"),
    ("mecp.cli", "match_delta", "evaluation.match_delta"),
    ("mecp.evaluation", "run_trials", "evaluation.run_trials"),
    ("mecp.evaluation", "run_trial", "evaluation.run_trial"),
    ("mecp.evaluation", "evaluate_mapping", "evaluation.evaluate_mapping"),
    ("mecp.evaluation", "generate_hierarchical", "data.generate_hierarchical"),
    ("mecp.evaluation", "split_environments", "data.split_environments"),
    ("mecp.evaluation", "holdout_labels", "data.holdout_labels"),
    ("mecp.algorithms", "split_environments", "data.split_environments"),
    ("mecp.algorithms", "holdout_labels", "data.holdout_labels"),
    ("mecp.evaluation", "fit_jackknife_minmax", "algorithms.fit"),
    ("mecp.evaluation", "fit_split_conformal", "algorithms.fit"),
    ("mecp.evaluation", "fit_hier_jackknife_plus", "algorithms.fit"),
    ("mecp.evaluation", "fit_hcp", "algorithms.fit"),
    ("mecp.evaluation", "fit_jackknife_plus_quantile", "algorithms.fit"),
    ("mecp.evaluation", "fit_resized_calibration", "algorithms.fit"),
    ("mecp.evaluation", "resize_for", "algorithms.fit"),
    ("mecp.algorithms.JackknifeMinmax", "predict_sets", "algorithms.predict_sets"),
    ("mecp.algorithms.SplitConformal", "predict_sets", "algorithms.predict_sets"),
    ("mecp.algorithms.HierJackknifePlus", "predict_sets", "algorithms.predict_sets"),
    ("mecp.algorithms.Hcp", "predict_sets", "algorithms.predict_sets"),
    ("mecp.algorithms.ResizedSplitConformal", "predict_sets", "algorithms.predict_sets"),
    ("mecp.algorithms.JackknifePlusQuantile", "predict_sets", "algorithms.predict_sets"),
    ("mecp.evaluation.WeightedSplitMapping", "predict_sets", "algorithms.predict_sets"),
    ("mecp.algorithms", "fit_ridge", "predictors.fit_ridge"),
    ("mecp.algorithms", "quant_plus", "quantiles.quant_plus"),
    ("mecp.algorithms", "quant_minus", "quantiles.quant_minus"),
    ("mecp.algorithms", "mixture_quantile_rows", "quantiles.mixture_quantile_rows"),
    ("mecp.algorithms", "left_quantile", "quantiles.left_quantile"),
    ("mecp.algorithms", "thresholds", "nested_sets.thresholds"),
    ("mecp.weighted", "thresholds", "nested_sets.thresholds"),
    ("mecp.algorithms", "sets_at", "nested_sets.sets_at"),
    ("mecp.evaluation", "sets_at", "nested_sets.sets_at"),
    ("mecp.evaluation", "env_score", "weighted.env_score"),
    ("mecp.evaluation", "weighted_threshold", "weighted.threshold"),
    ("mecp.evaluation", "randomized_threshold", "weighted.threshold"),
    ("mecp.weighted", "dual_eta", "weighted.dual_eta"),
)

LAYERS = (
    "data",
    "quantiles",
    "nested_sets",
    "predictors",
    "algorithms",
    "weighted",
    "evaluation",
    "cli",
)

# Work the tracer itself does inside an op (counting sets) is recorded under
# this layer so that it is subtracted from its parent's self time.
OVERHEAD_LAYER = "trace"


class UnresolvedTargetError(RuntimeError):
    """One or more wrap targets no longer exist where the tracer looks."""


def _resolve_owner(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name)
        return owner
    raise ModuleNotFoundError(path)


def resolve_targets(targets=TARGETS) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, current callable, span name) for every target.

    Raises :class:`UnresolvedTargetError` naming every target that is
    missing or not callable.
    """
    resolved, missing = [], []
    for owner_path, attr, span_name in targets:
        try:
            owner = _resolve_owner(owner_path)
            fn = getattr(owner, attr)
        except (ModuleNotFoundError, AttributeError):
            missing.append(f"{owner_path}.{attr}")
            continue
        if not callable(fn):
            missing.append(f"{owner_path}.{attr}")
            continue
        resolved.append((owner, attr, fn, span_name))
    if missing:
        raise UnresolvedTargetError(
            "cannot resolve tracer targets: " + ", ".join(missing)
        )
    return resolved


def _set_counts(sets) -> tuple[int, int, int]:
    """(sets, whole-line-or-infinite sets, empty sets) in a predict_sets result."""
    from mecp.nested_sets import Interval, IntervalUnion, LabelSet

    n = len(sets)
    if n and Counter(map(type, sets))[Interval] == n:
        lo = np.fromiter(map(attrgetter("lo"), sets), float, n)
        hi = np.fromiter(map(attrgetter("hi"), sets), float, n)
        return n, int(np.count_nonzero(np.isinf(lo) | np.isinf(hi))), 0
    infinite = empty = 0
    for s in sets:
        if isinstance(s, Interval):
            infinite += math.isinf(s.lo) or math.isinf(s.hi)
        elif isinstance(s, IntervalUnion):
            empty += not s.parts
            infinite += any(math.isinf(p.lo) or math.isinf(p.hi) for p in s.parts)
        elif isinstance(s, LabelSet):
            empty += not s.labels
    return n, infinite, empty


def _attrs(span_name: str, args, kwargs, result) -> dict | None:
    """Counts recorded at a span's boundary, read from arguments or output."""
    if span_name == "predictors.fit_ridge":
        return {"rows": len(args[0])}
    if span_name == "quantiles.mixture_quantile_rows":
        rows = np.shape(args[0])
        return {"atoms": int(rows[0]) * int(rows[1])}
    if span_name == "quantiles.left_quantile":
        return {"atoms": int(np.size(args[0].locations))}
    if span_name == "data.generate_hierarchical":
        return {"rows": sum(env.n for env in result.environments)}
    if span_name == "weighted.threshold":
        return {"inf": int(math.isinf(result))}
    if span_name == "evaluation.run_trials":
        workers = args[1] if len(args) > 1 else kwargs.get("workers", 1)
        return {"workers": int(workers)}
    return None


class Tracer:
    """Records spans around every target while installed.

    Construction resolves every target and raises
    :class:`UnresolvedTargetError` if any is missing.
    """

    def __init__(self, targets=TARGETS):
        self._resolved = resolve_targets(targets)
        self._installed = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._op = None
        self._op_stack: list[int] = []
        # [id, name, start, end, parent, op, attrs]
        self.spans: list[list] = []
        self._wrappers = [self._wrap(fn, span_name) for _o, _a, fn, span_name in self._resolved]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        # a pool thread's first span hangs under the op thread's open span
        return self._op_stack[-1] if self._op_stack else None

    def _wrap(self, fn, span_name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = tracer._new_id()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = _attrs(span_name, args, kwargs, result)
            if span_name == "algorithms.predict_sets":
                n, infinite, empty = _set_counts(result)
                attrs = {"sets": n, "infinite": infinite, "empty": empty}
                tracer.spans.append([tracer._new_id(), f"{OVERHEAD_LAYER}.count_sets",
                                     end, time.perf_counter(), parent, tracer._op, None])
            # list.append is atomic under the GIL, so pool threads can share it
            tracer.spans.append([sid, span_name, start, end, parent, tracer._op, attrs])
            return result

        return traced

    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for (owner, attr, _fn, _name), wrapper in zip(self._resolved, self._wrappers):
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, fn, _name in reversed(self._resolved):
            setattr(owner, attr, fn)
        self._installed = False

    def run_op(self, op_id: int, fn):
        """Run one op under a root span named ``op``; returns fn()'s result."""
        stack = self._stack()
        self._op = op_id
        sid = self._new_id()
        stack.append(sid)
        self._op_stack = stack
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([sid, "op", start, end, None, op_id, None])
            self._op = None

    def write(self, path, header: dict) -> None:
        """Write the header line and one JSON line per span."""
        keys = ("id", "name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children can overlap each other (pool threads), so the covered part is
    the length of the union of the children's intervals clipped to the span.
    """
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op, _a in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _op, _a in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_self_ms(spans) -> dict[str, float]:
    """Total self time in ms per layer (span-name prefix), ``op`` included."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    for span in spans:
        totals[span[1].split(".")[0]] += selfs[span[0]] * 1e3
    return dict(totals)


def worker_utilization(spans) -> float:
    """Sum of pooled ``run_trial`` spans over workers x ``run_trials`` wall (0 if no pool)."""
    pool_spans = [s for s in spans if s[1] == "evaluation.run_trials" and s[6]["workers"] > 1]
    pool_ids = {s[0] for s in pool_spans}
    busy = sum(s[3] - s[2] for s in spans if s[1] == "evaluation.run_trial" and s[4] in pool_ids)
    capacity = sum((s[3] - s[2]) * s[6]["workers"] for s in pool_spans)
    return busy / capacity if capacity else 0.0


def layer_metrics(spans, trials: int, report_bytes: float, utilization: float,
                  inflation: float) -> dict[str, float]:
    """Per-layer metrics, per trial unless the name says otherwise.

    ``utilization`` and ``inflation`` come from a separate pooled pass.
    """
    selfs = self_times(spans)
    calls = Counter()
    self_ms = defaultdict(float)
    attr = defaultdict(float)
    for sid, name, _s, _e, _p, _op, attrs in spans:
        calls[name] += 1
        self_ms[name] += selfs[sid] * 1e3
        for key, value in (attrs or {}).items():
            attr[f"{name}:{key}"] += value

    def per_trial(value: float) -> float:
        return value / trials

    thresholds_run = calls["weighted.threshold"]
    return {
        "predictors.fit_ridge_calls": per_trial(calls["predictors.fit_ridge"]),
        "predictors.fit_ridge_rows": per_trial(attr["predictors.fit_ridge:rows"]),
        "predictors.fit_ridge_ms": per_trial(self_ms["predictors.fit_ridge"]),
        "quantiles.quant_calls": per_trial(
            calls["quantiles.quant_plus"] + calls["quantiles.quant_minus"]
        ),
        "quantiles.quant_ms": per_trial(
            self_ms["quantiles.quant_plus"] + self_ms["quantiles.quant_minus"]
        ),
        "quantiles.mixture_atoms": per_trial(
            attr["quantiles.mixture_quantile_rows:atoms"]
            + attr["quantiles.left_quantile:atoms"]
        ),
        "quantiles.mixture_ms": per_trial(
            self_ms["quantiles.mixture_quantile_rows"] + self_ms["quantiles.left_quantile"]
        ),
        "nested_sets.thresholds_calls": per_trial(calls["nested_sets.thresholds"]),
        "nested_sets.thresholds_ms": per_trial(self_ms["nested_sets.thresholds"]),
        "nested_sets.sets_at_ms": per_trial(self_ms["nested_sets.sets_at"]),
        "nested_sets.sets_built": per_trial(attr["algorithms.predict_sets:sets"]),
        "nested_sets.infinite_sets": per_trial(attr["algorithms.predict_sets:infinite"]),
        "nested_sets.empty_sets": per_trial(attr["algorithms.predict_sets:empty"]),
        "algorithms.fit_ms": per_trial(self_ms["algorithms.fit"]),
        "algorithms.predict_sets_ms": per_trial(self_ms["algorithms.predict_sets"]),
        "weighted.threshold_ms": per_trial(self_ms["weighted.threshold"]),
        "weighted.dual_solves": (
            calls["weighted.dual_eta"] / thresholds_run if thresholds_run else 0.0
        ),
        "weighted.dual_ms": per_trial(self_ms["weighted.dual_eta"]),
        "weighted.inf_thresholds": per_trial(attr["weighted.threshold:inf"]),
        "evaluation.score_ms": per_trial(self_ms["evaluation.evaluate_mapping"]),
        "evaluation.trial_self_ms": per_trial(self_ms["evaluation.run_trial"]),
        "evaluation.worker_utilization": utilization,
        "evaluation.trial_inflation": inflation,
        "data.generate_ms": per_trial(self_ms["data.generate_hierarchical"]),
        "data.rows": per_trial(attr["data.generate_hierarchical:rows"]),
        "cli.self_ms": per_trial(self_ms["cli.main"]),
        "cli.report_bytes": report_bytes,
    }


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name == "cli.report_bytes":
        return "bytes"
    if name in ("evaluation.worker_utilization", "evaluation.trial_inflation",
                "trace.overhead_frac"):
        return "ratio"
    return "count"


METRIC_NAMES = (
    *layer_metrics([], 1, 0.0, 0.0, 0.0),
    "trace.overhead_frac",
)
UNITS = {name: _unit(name) for name in METRIC_NAMES}


def mean_trial_ms(spans) -> float:
    """Mean wall ms of the ``run_trial`` spans (0 when there are none)."""
    durations = [s[3] - s[2] for s in spans if s[1] == "evaluation.run_trial"]
    return 1e3 * sum(durations) / len(durations) if durations else 0.0
