"""Spans around the radiobarrier layer calls that the CLI makes.

The program itself records nothing yet, so the benchmark times each layer
from outside: `instrument` replaces the layer functions in every loaded
``radiobarrier`` module namespace (and the two ``AppConfig`` builders) with
wrappers that record one span per call, and puts the originals back on exit.
Counts are taken from each call's arguments and result after its span has
closed, so counting costs no span time.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; `run` tags every span opened until it changes."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = "setup"
        self._open: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, parent, self.run, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def as_records(self) -> List[dict]:
        return [asdict(sp) for sp in self.spans]


# ---------------------------------------------------------------------------
# Counts taken at each layer boundary


def _size(path) -> Dict[str, float]:
    return {"bytes": os.path.getsize(path)}


def _trace_shape(event):
    """(frames, links) of one event's RSSI trace, for either event layout."""
    rssi = getattr(event, "rssi", None)  # one (frames x links) array per event
    if rssi is not None:
        return rssi.shape
    return len(event.frames), len(event.frames[0].values)


def _dataset_counts(dataset) -> Dict[str, float]:
    shapes = [_trace_shape(ev) for ev in dataset.events]
    return {
        "events": len(shapes),
        "frames": sum(f for f, _ in shapes),
        "link_samples": sum(f * l for f, l in shapes),
    }


def _detect_counts(args, result) -> Dict[str, float]:
    summary = result[1]
    counts = _dataset_counts(args[0])
    counts.update(
        segments=summary.segments_total,
        spurious_segments=summary.spurious_segments,
        events_detected=summary.events_detected,
    )
    return counts


# (module, function, span name, counts from (args, result))
LAYER_CALLS = (
    ("radiobarrier.config", "resolve_config", "config.resolve_config", None),
    ("radiobarrier.simulator", "generate_dataset", "simulator.generate_dataset",
     lambda a, r: _dataset_counts(r)),
    ("radiobarrier.simulator", "save_dataset", "simulator.save_dataset", lambda a, r: _size(a[1])),
    ("radiobarrier.simulator", "load_dataset", "simulator.load_dataset", lambda a, r: _size(a[0])),
    ("radiobarrier.pipeline", "detect_dataset", "pipeline.detect_dataset", _detect_counts),
    ("radiobarrier.pipeline", "save_segments", "pipeline.save_segments", lambda a, r: _size(a[1])),
    ("radiobarrier.pipeline", "load_segments", "pipeline.load_segments", lambda a, r: _size(a[0])),
    ("radiobarrier.pipeline", "featurize_records", "pipeline.featurize_records",
     lambda a, r: {"events": len(r)}),
    ("radiobarrier.pipeline", "save_features_csv", "pipeline.save_features_csv",
     lambda a, r: _size(a[1])),
    ("radiobarrier.pipeline", "load_features_csv", "pipeline.load_features_csv",
     lambda a, r: _size(a[0])),
    ("radiobarrier.pipeline", "feature_matrix", "pipeline.feature_matrix", None),
)

MODEL_KINDS = {"KnnClassifier": "knn", "SvmClassifier": "svm", "LengthThresholdClassifier": "length"}


def _traced(tracer: Tracer, name: str, fn: Callable, count) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if count is not None:
            sp.counts.update(count(args, result))
        return result

    return wrapper


def _traced_model(tracer: Tracer, model, kind: str, fitted: list) -> None:
    """Give the model's fit and predict their own spans; `fitted` collects
    the models whose fit returned."""
    fit, predict = model.fit, model.predict

    def traced_fit(X, y):
        with tracer.span(f"learn.{kind}.fit"):
            result = fit(X, y)
        fitted.append((kind, model))
        return result

    def traced_predict(X):
        with tracer.span(f"learn.{kind}.predict"):
            return predict(X)

    model.fit, model.predict = traced_fit, traced_predict


def _traced_cross_validate(tracer: Tracer, fn: Callable) -> Callable:
    """Records one span per CV run and keeps every model its factory made.

    SVM sweeps and the KKT residual come from the public ``n_iter`` and
    ``max_kkt_residual`` attributes of the models whose fit returned; a fit
    that raised counts in ``svm_failed``.
    """

    @functools.wraps(fn)
    def cross_validate(X, y, event_ids, factory, *args, **kwargs):
        made, fitted = [], []

        def keeping_factory():
            model = factory()
            kind = MODEL_KINDS.get(type(model).__name__, type(model).__name__.lower())
            made.append((kind, model))
            _traced_model(tracer, model, kind, fitted)
            return model

        try:
            with tracer.span("learn.cross_validate") as sp:
                return fn(X, y, event_ids, keeping_factory, *args, **kwargs)
        finally:
            for kind, _ in made:
                sp.counts[f"{kind}_fits"] = sp.counts.get(f"{kind}_fits", 0) + 1
            svms = [m for kind, m in made if kind == "svm"]
            if svms:
                done = [m for kind, m in fitted if kind == "svm"]
                sp.counts.update(
                    svm_failed=len(svms) - len(done),
                    svm_sweeps=sum(int(m.n_iter) for m in done),
                    svm_max_kkt_residual=max((float(m.max_kkt_residual) for m in done), default=0.0),
                )

    return cross_validate


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the program's layer calls through span-recording wrappers."""
    from radiobarrier.config import AppConfig

    replaced = []

    def replace_everywhere(fn, wrapper):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "radiobarrier" or name.startswith("radiobarrier."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    replaced.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    for module_name, attr, span_name, count in LAYER_CALLS:
        fn = getattr(importlib.import_module(module_name), attr)
        replace_everywhere(fn, _traced(tracer, span_name, fn, count))
    cv = importlib.import_module("radiobarrier.learn").cross_validate
    replace_everywhere(cv, _traced_cross_validate(tracer, cv))
    for attr in ("build_layout", "build_patterns"):
        method = vars(AppConfig)[attr]
        replaced.append((AppConfig, attr, method))
        setattr(AppConfig, attr, _traced(tracer, f"config.{attr}", method, None))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Deriving per-layer figures from spans


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for child in sorted(children.get(sp.id, []), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


def _per_run(spans: List[Span], value: Callable[[Span], float], keep: Callable[[Span], bool]):
    totals: Dict[str, float] = {}
    for sp in spans:
        if keep(sp):
            totals[sp.run] = totals.get(sp.run, 0.0) + value(sp)
    return totals


def _median_of_ratio(num: Dict[str, float], den: Dict[str, float], scale: float) -> float:
    ratios = [scale * num[run] / den[run] for run in num if den.get(run)]
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer figures: each is the median over runs (set-up, passes) of
    that run's total, so a pass that calls a layer several times counts once.
    A layer the workload never calls reads 0."""
    by_id = {sp.id: sp for sp in spans}
    own = self_times(spans)

    def total(name, value=lambda sp: sp.duration, keep=lambda sp: True):
        return _per_run(spans, value, lambda sp: sp.name == name and keep(sp))

    def med(totals):
        return statistics.median(totals.values()) if totals else 0.0

    def count(name, key, keep=lambda sp: True):
        return total(name, lambda sp: sp.counts.get(key, 0), keep)

    m: Dict[str, float] = {}
    config_time: Dict[str, float] = {}
    for sp in spans:
        parent = by_id.get(sp.parent)
        if sp.name.startswith("config.") and parent is not None and parent.name.startswith("cli."):
            config_time[sp.parent] = config_time.get(sp.parent, 0.0) + sp.duration
    m["config.build_s"] = statistics.median(config_time.values()) if config_time else 0.0

    gen = total("simulator.generate_dataset")
    samples = count("simulator.generate_dataset", "link_samples")
    m["simulator.generate_s"] = med(gen)
    m["simulator.link_samples"] = med(samples)
    m["simulator.us_per_link_sample"] = _median_of_ratio(gen, samples, 1e6)

    save = total("simulator.save_dataset")
    save_mb = count("simulator.save_dataset", "bytes")
    m["simulator.save_s"] = med(save)
    m["simulator.dataset_mb"] = med(save_mb) / 1e6
    m["simulator.save_s_per_mb"] = _median_of_ratio(save, save_mb, 1e6)
    load = total("simulator.load_dataset")
    m["simulator.load_s"] = med(load)
    m["simulator.load_s_per_mb"] = _median_of_ratio(load, count("simulator.load_dataset", "bytes"), 1e6)

    det = total("pipeline.detect_dataset")
    frames = count("pipeline.detect_dataset", "frames")
    m["pipeline.detect_s"] = med(det)
    m["pipeline.frames"] = med(frames)
    m["pipeline.us_per_frame"] = _median_of_ratio(det, frames, 1e6)
    for key in ("segments", "spurious_segments", "events_detected"):
        m[f"pipeline.{key}"] = med(count("pipeline.detect_dataset", key))
    m["pipeline.save_segments_s"] = med(total("pipeline.save_segments"))
    m["pipeline.load_segments_s"] = med(total("pipeline.load_segments"))
    m["pipeline.segments_mb"] = med(count("pipeline.save_segments", "bytes")) / 1e6
    feat = total("pipeline.featurize_records")
    m["pipeline.featurize_s"] = med(feat)
    m["pipeline.ms_per_event"] = _median_of_ratio(
        feat, count("pipeline.featurize_records", "events"), 1e3)
    m["pipeline.save_features_s"] = med(total("pipeline.save_features_csv"))
    m["pipeline.load_features_s"] = med(total("pipeline.load_features_csv"))

    cv = "learn.cross_validate"
    is_knn = lambda sp: sp.counts.get("knn_fits", 0) > 0  # noqa: E731
    is_svm = lambda sp: sp.counts.get("svm_fits", 0) > 0  # noqa: E731
    m["learn.cv_s"] = med(total(cv))
    knn_cv = total(cv, keep=is_knn)
    m["learn.knn_cv_s"] = med(knn_cv)
    m["learn.knn_ms_per_fold"] = _median_of_ratio(knn_cv, count(cv, "knn_fits", is_knn), 1e3)
    svm_cv = total(cv, keep=is_svm)
    svm_fits = count(cv, "svm_fits", is_svm)
    m["learn.svm_cv_s"] = med(svm_cv)
    m["learn.svm_ms_per_fit"] = _median_of_ratio(svm_cv, svm_fits, 1e3)
    m["learn.svm_fits"] = med(svm_fits)
    m["learn.svm_fits_failed"] = med(count(cv, "svm_failed", is_svm))
    m["learn.svm_sweeps"] = med(count(cv, "svm_sweeps", is_svm))
    residuals = [sp.counts["svm_max_kkt_residual"] for sp in spans
                 if sp.name == cv and "svm_max_kkt_residual" in sp.counts]
    m["learn.svm_max_kkt_residual"] = max(residuals, default=0.0)

    for command in ("generate", "detect", "features", "crossval"):
        m[f"cli.{command}.self_s"] = med(
            _per_run(spans, lambda sp: own[sp.id], lambda sp: sp.name == f"cli.{command}"))
    return m
