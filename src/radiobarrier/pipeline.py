"""From raw RSSI streams to detected passages, estimates and feature vectors.

Detection is threshold-with-hysteresis against a rolling per-link baseline:
a segment opens when any link falls drop_threshold below its baseline and
closes once every link has recovered to within release_threshold.  Baselines
are medians over the last `window` vehicle-free ("quiet") frames and freeze
while a segment is open, so the trough itself never contaminates them.

The quiet frames are the stream minus each [onset, close) span, so detection
takes one Python step per segment: it reads look-ahead blocks behind the last
`window` quiet frames, doubling from a few windows and restarting after every
segment, and takes medians only where some link is at or below the block's
per-link max minus drop_threshold.  That screen is exact: no window's median
exceeds the block max, and rounding x - drop_threshold is monotonic in x.
The release is the first later frame with every link back within
release_threshold; the next quiet window is the one before the onset plus
the closing frame.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, EstimationError, InputDataError
from .geometry import LABELS, SensorLayout, VehicleSpec
from .propagation import AntennaPattern, ChannelConfig
from .simulator import (Dataset, SimulationConfig, finite_array, generate_dataset,
                        read_records, write_records)


@dataclass(frozen=True)
class DetectionConfig:
    drop_threshold: float = 6.0  # dB below baseline that opens a segment
    release_threshold: float = 3.0  # dB; all links must recover to close
    min_duration: float = 0.05  # s, shorter segments are discarded
    baseline_window: float = 0.5  # s of quiet samples behind the median

    def __post_init__(self) -> None:
        if not 0 < self.release_threshold < self.drop_threshold:
            raise ConfigurationError("need 0 < release_threshold < drop_threshold")
        if self.min_duration < 0 or self.baseline_window <= 0:
            raise ConfigurationError("durations must be positive")


@dataclass(frozen=True)
class LinkWindow:
    link_id: int
    onset_t: float
    release_t: float


@dataclass(frozen=True, eq=False)
class EventSegment:
    """Frames start .. start + len(rssi) - 1 of one event's trace.

    `rssi` is a read-only float64 (frames x links) array, links in layout
    order: a view into the event's trace when detected.  Frame i of the
    event was sampled at t = i * dt.
    """

    start: int
    dt: float
    baselines: Tuple[float, ...]  # per link, layout order, frozen at onset
    rssi: np.ndarray
    windows: Tuple[LinkWindow, ...]  # only links that crossed the drop threshold

    def __post_init__(self) -> None:
        rssi = np.asarray(self.rssi, dtype=np.float64).view()
        rssi.flags.writeable = False
        object.__setattr__(self, "rssi", rssi)

    @property
    def t_start(self) -> float:
        return self.start * self.dt

    @property
    def t_end(self) -> float:
        return (self.start + len(self.rssi) - 1) * self.dt

    def window_for(self, link_id: int) -> Optional[LinkWindow]:
        for w in self.windows:
            if w.link_id == link_id:
                return w
        return None


def detect_events(
    rssi: np.ndarray,
    dt: float,
    layout: SensorLayout,
    cfg: DetectionConfig = DetectionConfig(),
) -> List[EventSegment]:
    """Segment a uniform (frames x links) stream sampled every dt s into vehicle passages."""
    rssi = np.asarray(rssi, dtype=float)
    n_links = len(layout.links)
    if rssi.ndim != 2 or rssi.shape[1] != n_links:
        raise ConfigurationError(
            f"stream of shape {rssi.shape} does not have one column per layout link ({n_links})"
        )
    if not np.isfinite(rssi).all():
        frame, j = np.argwhere(~np.isfinite(rssi))[0]
        raise InputDataError(f"stream frame {frame}, link {layout.links[j].id} is not finite")
    if not dt > 0 or not math.isfinite(cfg.baseline_window / dt):
        raise InputDataError(f"stream dt {dt} s is not a usable positive sampling step")
    if cfg.min_duration < dt:
        raise ConfigurationError(
            f"min_duration {cfg.min_duration} s is below the stream dt {dt} s"
        )
    window = max(2, int(round(cfg.baseline_window / dt)))
    if len(rssi) < window:
        raise InputDataError(
            f"stream of {len(rssi)} samples is shorter than the "
            f"{window}-sample baseline window"
        )

    segments: List[EventSegment] = []
    quiet, cursor = rssi[:window], window  # the last `window` quiet frames before the cursor
    while (found := _find_onset(rssi, cursor, quiet, cfg.drop_threshold)) is not None:
        onset, baselines, behind = found
        # the release: the first later frame with every link back within release_threshold
        floor = baselines - cfg.release_threshold
        close = next((lo + int(np.argmax(up))
                      for lo, hi in _blocks(onset + 1, len(rssi), 4 * window)
                      if (up := (rssi[lo:hi] >= floor).all(axis=1)).any()), None)
        seg = _build_segment(rssi, onset, len(rssi) - 1 if close is None else close, dt,
                             tuple(baselines.tolist()), layout, cfg)
        if seg.t_end - seg.t_start >= cfg.min_duration:
            segments.append(seg)
        if close is None:
            break
        # [onset, close) never enters the quiet buffer; the closing frame does
        quiet, cursor = np.concatenate([behind[1:], rssi[close:close + 1]]), close + 1
    return segments


def _blocks(start: int, stop: int, size: int):
    """[lo, hi) spans covering start..stop, the first `size` long, each twice the last."""
    while start < stop:
        yield start, min(start + size, stop)
        start, size = start + size, 2 * size


def _find_onset(rssi, start, quiet, drop):
    """First frame from `start` on with a link `drop` below the median of the
    len(quiet) quiet frames before it, `quiet` being those before `start`.
    Returns (onset, baselines, the frames behind the baselines), or None."""
    window = len(quiet)
    for lo, hi in _blocks(start, len(rssi), 4 * window):
        stream = np.concatenate([quiet, rssi[lo:hi]])
        behind = sliding_window_view(stream[:-1], window, axis=0)  # k: frames before lo + k
        values = stream[window:]
        # exact screen: no window's median exceeds the block's max
        candidates = np.flatnonzero((values <= stream.max(axis=0) - drop).any(axis=1))
        for c_lo, c_hi in _blocks(0, len(candidates), 4):
            ks = candidates[c_lo:c_hi]
            medians = np.median(behind[ks], axis=-1)
            hits = np.flatnonzero((values[ks] <= medians - drop).any(axis=1))
            if hits.size:
                k = int(ks[hits[0]])
                return lo + k, medians[hits[0]], stream[k:k + window]
        quiet = stream[-window:]
    return None


def _build_segment(rssi, start, end, dt, baselines, layout, cfg) -> EventSegment:
    frames = rssi[start:end + 1]
    levels = np.array(baselines)
    dropped = frames <= levels - cfg.drop_threshold
    held = frames <= levels - cfg.release_threshold  # true wherever dropped is
    windows = []
    for j, link in enumerate(layout.links):
        onsets = np.flatnonzero(dropped[:, j])
        if onsets.size:
            last = int(np.flatnonzero(held[:, j])[-1])
            windows.append(LinkWindow(link.id, (start + int(onsets[0])) * dt,
                                      (start + last) * dt + dt))
    return EventSegment(start=start, dt=dt, baselines=baselines, rssi=frames,
                        windows=tuple(windows))


def estimate_speed(segment: EventSegment, layout: SensorLayout) -> float:
    """Speed from onset-time differences between direct links.

    Averages delta_x / delta_onset over all pairs of direct links with
    distinct along-road positions; releases are ignored because they carry
    the vehicle length.
    """
    direct = []
    for link in layout.direct_links:
        w = segment.window_for(link.id)
        if w is not None:
            direct.append((link.endpoints[0][0], w.onset_t))
    if len({x for x, _ in direct}) < 2:
        raise EstimationError("need onsets on at least two direct links at distinct positions")
    speeds = []
    for (xa, ta), (xb, tb) in combinations(direct, 2):
        if tb == ta:
            continue
        speeds.append(abs((xb - xa) / (tb - ta)))
    if not speeds:
        raise EstimationError("all direct-link onsets coincide; speed is unresolvable")
    return sum(speeds) / len(speeds)


def estimate_length(segment: EventSegment, speed: float, layout: SensorLayout) -> float:
    """Vehicle length from occlusion durations on direct links.

    Direct links cross the road at a single along-road position, so their
    occlusion window needs no body-width correction.
    """
    if speed <= 0:
        raise EstimationError("speed must be positive")
    durations = []
    for link in layout.direct_links:
        w = segment.window_for(link.id)
        if w is not None:
            durations.append(w.release_t - w.onset_t)
    if not durations:
        raise EstimationError("no direct-link occlusion window available")
    return speed * sum(durations) / len(durations)


def drop_magnitude(trace: Sequence[float], baseline: float) -> float:
    """Depth of the deepest dip below baseline, in dB, clamped at 0."""
    if len(trace) == 0:
        raise InputDataError("empty trace slice")
    return max(0.0, baseline - float(np.min(trace)))


def event_drop_magnitude(segment: EventSegment, layout: SensorLayout,
                         links_used: str = "direct") -> float:
    """Per-event drop: largest per-link drop over the cross-street links."""
    indices = _link_indices(layout, links_used)
    return max(drop_magnitude(segment.rssi[:, j], segment.baselines[j]) for j in indices)


def _link_indices(layout: SensorLayout, links_used: str) -> List[int]:
    if links_used == "all":
        return list(range(len(layout.links)))
    if links_used == "direct":
        return [j for j, l in enumerate(layout.links) if l.kind == "direct"]
    raise ConfigurationError(f"unknown link selection {links_used!r}")


@dataclass(frozen=True)
class FeatureConfig:
    resample_points: int = 32
    links_used: str = "all"  # 'all' | 'direct'
    include_length: bool = True
    include_rssi: bool = True

    def __post_init__(self) -> None:
        if self.resample_points < 2:
            raise ConfigurationError("resample_points must be at least 2")
        if not (self.include_length or self.include_rssi):
            raise ConfigurationError("at least one feature family must be enabled")


@dataclass(frozen=True)
class FeatureVector:
    event_id: int
    type_name: str
    label: str
    est_speed: float
    est_length: float
    drop_magnitude: float
    rssi_profile: Tuple[float, ...]


def feature_dimension(cfg: FeatureConfig, layout: SensorLayout) -> int:
    """Classifier input width implied by a feature configuration."""
    dim = 0
    if cfg.include_rssi:
        dim += cfg.resample_points * len(_link_indices(layout, cfg.links_used))
    if cfg.include_length:
        dim += 1
    return dim


def extract_features(
    segment: EventSegment,
    speed: float,
    length: float,
    cfg: FeatureConfig,
    layout: SensorLayout,
    *,
    event_id: int = 0,
    type_name: str = "",
    label: str = "",
) -> FeatureVector:
    """Resample per-link drop profiles onto a fixed grid and attach scalars.

    Each link's baseline-relative drop series is linearly interpolated onto
    resample_points equally spaced instants of [t_start, t_end] and the links
    are concatenated in id order, so the dimensionality depends only on the
    configuration, never on the segment duration.
    """
    if segment.t_end <= segment.t_start:
        raise InputDataError("degenerate zero-duration segment")
    profile: List[float] = []
    if cfg.include_rssi:
        grid = np.linspace(segment.t_start, segment.t_end, cfg.resample_points)
        times = (segment.start + np.arange(len(segment.rssi), dtype=np.float64)) * segment.dt
        for j in _link_indices(layout, cfg.links_used):
            drops = np.maximum(0.0, segment.baselines[j] - segment.rssi[:, j])
            profile.extend(float(x) for x in np.interp(grid, times, drops))
    return FeatureVector(
        event_id=event_id,
        type_name=type_name,
        label=label,
        est_speed=speed,
        est_length=length,
        drop_magnitude=event_drop_magnitude(segment, layout),
        rssi_profile=tuple(profile),
    )


@dataclass(frozen=True)
class DetectionSummary:
    events_total: int = 0
    events_detected: int = 0
    segments_total: int = 0
    spurious_segments: int = 0

    @property
    def detection_rate(self) -> float:
        return self.events_detected / self.events_total if self.events_total else 0.0


def featurize_dataset(
    dataset: Dataset,
    layout: SensorLayout,
    det_cfg: DetectionConfig = DetectionConfig(),
    feat_cfg: FeatureConfig = FeatureConfig(),
) -> Tuple[List[FeatureVector], DetectionSummary]:
    records, summary = detect_dataset(dataset, layout, det_cfg)
    return featurize_records(records, layout, feat_cfg), summary


# ---------------------------------------------------------------------------
# Segment serialization: one header line, then one detected segment per line.

SEGMENTS_FORMAT = "radiobarrier-segments"
SEGMENTS_VERSION = 2
# Keys of a segment line besides its "values" matrix, with their types.
_SEGMENT_FIELDS = {"event_id": int, "type_name": str, "label": str, "n_segments": int,
                   "start_index": int, "dt": float, "baselines": list, "windows": dict}


@dataclass(frozen=True)
class SegmentRecord:
    """One detected passage with the event metadata needed downstream."""

    event_id: int
    type_name: str
    label: str
    segment: EventSegment
    n_segments: int  # segments detected in the event's stream


def detect_dataset(
    dataset: Dataset,
    layout: SensorLayout,
    det_cfg: DetectionConfig = DetectionConfig(),
) -> Tuple[List[SegmentRecord], DetectionSummary]:
    """Run detection over every event of a dataset recorded with this layout's links."""
    _layout_link_ids("dataset", dataset.metadata["link_ids"], layout)
    records: List[SegmentRecord] = []
    detected = 0
    segs = 0
    spurious = 0
    for event in dataset.events:
        segments = detect_events(event.rssi, event.dt, layout, det_cfg)
        segs += len(segments)
        if len(segments) > 1:
            spurious += len(segments) - 1
        if segments:
            detected += 1
            segment = max(segments, key=lambda s: s.t_end - s.t_start)
            records.append(
                SegmentRecord(event.event_id, event.type_name, event.label, segment, len(segments))
            )
    summary = DetectionSummary(
        events_total=len(dataset.events),
        events_detected=detected,
        segments_total=segs,
        spurious_segments=spurious,
    )
    return records, summary


def _layout_link_ids(source: str, link_ids, layout: SensorLayout) -> List[int]:
    expected = [link.id for link in layout.links]
    if link_ids != expected:
        raise ConfigurationError(f"{source} was recorded on links {link_ids}, "
                                 f"the configured layout has links {expected}")
    return expected


def save_segments(records: Sequence[SegmentRecord], path, layout: SensorLayout) -> None:
    header = {"format": SEGMENTS_FORMAT, "version": SEGMENTS_VERSION,
              "link_ids": [link.id for link in layout.links], "event_count": len(records)}
    write_records(path, header, (
        ({
            "event_id": rec.event_id,
            "type_name": rec.type_name,
            "label": rec.label,
            "n_segments": rec.n_segments,
            "start_index": rec.segment.start,
            "dt": rec.segment.dt,
            "baselines": list(rec.segment.baselines),
            "windows": {str(w.link_id): [w.onset_t, w.release_t] for w in rec.segment.windows},
        }, rec.segment.rssi)
        for rec in records
    ))


def load_segments(path, layout: SensorLayout) -> List[SegmentRecord]:
    """Read a segments file detected on this layout's links."""
    header, lines = read_records(path, SEGMENTS_FORMAT, SEGMENTS_VERSION, _SEGMENT_FIELDS)
    link_ids = _layout_link_ids(f"segments file {path}", header["link_ids"], layout)
    records = []
    for where, raw, values in lines:
        unknown = sorted(set(raw["windows"]) - set(map(str, link_ids)))
        if unknown:
            raise InputDataError(f"{where}: windows name links {unknown} outside {link_ids}")
        windows = tuple(
            LinkWindow(link_id, *finite_array(where, f"window {link_id}",
                                              raw["windows"][str(link_id)], (2,)).tolist())
            for link_id in link_ids if str(link_id) in raw["windows"]
        )
        baselines = finite_array(where, "baselines", raw["baselines"], (len(link_ids),))
        segment = EventSegment(start=raw["start_index"], dt=raw["dt"],
                               baselines=tuple(baselines.tolist()), rssi=values, windows=windows)
        records.append(SegmentRecord(raw["event_id"], raw["type_name"], raw["label"], segment,
                                     raw["n_segments"]))
    return records


def featurize_records(
    records: Sequence[SegmentRecord],
    layout: SensorLayout,
    feat_cfg: FeatureConfig = FeatureConfig(),
) -> List[FeatureVector]:
    vectors = []
    for rec in records:
        speed = estimate_speed(rec.segment, layout)
        length = estimate_length(rec.segment, speed, layout)
        vectors.append(
            extract_features(
                rec.segment, speed, length, feat_cfg, layout,
                event_id=rec.event_id, type_name=rec.type_name, label=rec.label,
            )
        )
    return vectors


# ---------------------------------------------------------------------------
# Feature table I/O: comma-separated text with one row per event.

def save_features_csv(vectors: Sequence[FeatureVector], path) -> None:
    path = Path(path)
    dim = len(vectors[0].rssi_profile) if vectors else 0
    header = ["event_id", "type_name", "label", "est_speed", "est_length", "drop_magnitude"]
    header += [f"f_{i}" for i in range(dim)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for fv in vectors:
            row = [
                fv.event_id,
                fv.type_name,
                fv.label,
                format(fv.est_speed, ".17g"),
                format(fv.est_length, ".17g"),
                format(fv.drop_magnitude, ".17g"),
            ]
            row += [format(x, ".17g") for x in fv.rssi_profile]
            writer.writerow(row)


def load_features_csv(path) -> List[FeatureVector]:
    """Read a non-empty feature table, rejecting any row that does not fit its header."""
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputDataError(f"cannot read feature table {path}: {exc}") from exc
    header = rows[0] if rows else []
    expected = ["event_id", "type_name", "label", "est_speed", "est_length", "drop_magnitude"]
    if header[: len(expected)] != expected:
        raise InputDataError(f"{path} is not a feature table")
    vectors = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        where = f"{path}:{lineno}"
        if len(row) != len(header):
            raise InputDataError(f"{where}: {len(row)} cells under a {len(header)}-column header")
        try:
            event_id = int(row[0])
            numbers = [float(x) for x in row[3:]]
        except ValueError as exc:
            raise InputDataError(f"{where}: {exc}") from None
        if not all(math.isfinite(x) for x in numbers):
            raise InputDataError(f"{where}: a feature is not finite")
        speed, length, drop, *profile = numbers
        vectors.append(FeatureVector(event_id, row[1], row[2], speed, length, drop, tuple(profile)))
    if not vectors:
        raise InputDataError(f"feature table {path} has no rows")
    return vectors


def feature_matrix(vectors: Sequence[FeatureVector], feature_set: str) -> np.ndarray:
    """Assemble the classifier input for one of the three feature sets."""
    if feature_set == "length":
        return np.array([[fv.est_length] for fv in vectors])
    if feature_set == "rssi":
        return np.array([fv.rssi_profile for fv in vectors])
    if feature_set == "both":
        return np.array([list(fv.rssi_profile) + [fv.est_length] for fv in vectors])
    raise ConfigurationError(f"unknown feature set {feature_set!r}")


# ---------------------------------------------------------------------------
# Ground-reflection study: per-class drop statistics with reflection on/off.

@dataclass(frozen=True)
class ClassDropStats:
    label: str
    count: int
    mean: float
    std: float
    min: float
    max: float


@dataclass(frozen=True)
class StudyResult:
    stats: Dict[str, Dict[str, ClassDropStats]]  # variant -> label -> stats
    gaps: Dict[str, float]  # variant -> mean(passenger_car) - mean(truck)
    drops: Dict[str, List[Tuple[int, str, float]]]  # variant -> (event, label, drop)


def dataset_drop_stats(
    dataset: Dataset,
    layout: SensorLayout,
    det_cfg: DetectionConfig = DetectionConfig(),
    links_used: str = "direct",
) -> Tuple[Dict[str, ClassDropStats], List[Tuple[int, str, float]]]:
    """Per-class drop magnitude statistics over the selected links."""
    records, _ = detect_dataset(dataset, layout, det_cfg)
    drops = [(r.event_id, r.label, event_drop_magnitude(r.segment, layout, links_used))
             for r in records]
    present = {label for _, label, _ in drops}
    if not all(label in present for label in LABELS):
        raise InputDataError("drop study needs events of both labels")
    stats = {}
    for label in LABELS:
        values = [d for _, lab, d in drops if lab == label]
        stats[label] = ClassDropStats(
            label=label,
            count=len(values),
            mean=float(np.mean(values)),
            std=float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
            min=float(np.min(values)),
            max=float(np.max(values)),
        )
    return stats, drops


def reflection_study(
    layout: SensorLayout,
    channel: ChannelConfig,
    patterns: Mapping[int, AntennaPattern],
    catalog: Mapping[str, VehicleSpec],
    mix: Mapping[str, int],
    sim: SimulationConfig,
    seed: int,
    det_cfg: DetectionConfig = DetectionConfig(),
    links_used: str = "direct",
) -> StudyResult:
    """Compare per-class drop magnitudes with the ground bounce on and off.

    Both variants are generated from the same seed so they differ only in
    the reflected ray.
    """
    stats: Dict[str, Dict[str, ClassDropStats]] = {}
    gaps: Dict[str, float] = {}
    drops: Dict[str, List[Tuple[int, str, float]]] = {}
    for variant, enabled in (("on", True), ("off", False)):
        chan = replace(channel, ground_reflection_enabled=enabled)
        dataset = generate_dataset(layout, chan, patterns, catalog, mix, sim, seed=seed)
        variant_stats, variant_drops = dataset_drop_stats(dataset, layout, det_cfg, links_used)
        stats[variant] = variant_stats
        drops[variant] = variant_drops
        gaps[variant] = variant_stats["passenger_car"].mean - variant_stats["truck"].mean
    return StudyResult(stats=stats, gaps=gaps, drops=drops)
