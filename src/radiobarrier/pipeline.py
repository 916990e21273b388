"""From raw RSSI streams to detected passages, estimates and a feature table.

Detection is threshold-with-hysteresis against a rolling per-link baseline:
a segment opens when any link falls drop_threshold below its baseline and
closes once every link has recovered to within release_threshold.  Baselines
are medians over the last `window` vehicle-free ("quiet") frames and freeze
while a segment is open, so the trough itself never contaminates them.

The quiet frames are the stream minus each [onset, close) span.  Detection
works on many streams in rounds, and `detect_events` is its one-stream case.
A round reads a look-ahead block of each open stream behind its last
`window` quiet frames: a few windows long, doubling while no onset turns up
and restarting after every segment; it takes as many streams as fit in
DETECT_BATCH_FRAMES frames.  Medians are taken only where some link is at or
below drop_threshold under the lesser max of the first and of the last
h = window // 2 + 1 frames of the frame's own window.  That screen is exact:
a median is at most the h-th smallest value ((a + b) / 2 <= b in floats when
a <= b), so at most any max of h values, and rounding x - drop_threshold is
monotonic in x.  One median call covers the next 1, 2, 4, ... candidates of
every stream until each has its onset.  The releases of the new segments, the
first later frames with every link back within release_threshold, are found
together in blocks that double the same way; the next quiet window is the one
before the onset plus the closing frame.

Features are made for many segments at once too, in batches of up to
FEATURE_BATCH_FRAMES frames.  Sums add left to right, the grid is
np.linspace's and the drop profile is blended as np.interp blends it, so a
row is the same floats whichever batch its segment falls in.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, EstimationError, InputDataError
from .geometry import LABELS, TYPE_LABELS, SensorLayout, VehicleSpec
from .propagation import AntennaPattern, ChannelConfig
from .simulator import (Dataset, SimulationConfig, decode_base64, encode_base64,
                        generate_dataset, read_events, read_records, write_records)

# Stream frames read in one round of detection: a few dozen events' medians per call
DETECT_BATCH_FRAMES = 8192
# Segment frames featurized in one batch: a few dozen passages per array operation
FEATURE_BATCH_FRAMES = 8192
# Most points of one link's drop profile.  A feature row on the default 9 links then holds
# at most 9,003 floats, 72 KB; the 300 seed-42 passages featurize in a 43 MB peak (2.4 MB
# at the default 32 points).
MAX_RESAMPLE_POINTS = 1000


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


@dataclass(frozen=True, eq=False)
class EventSegment:
    """Frames start .. start + len(rssi) - 1 of one event's trace.

    `rssi` is a read-only float64 (frames x links) array, links in layout
    order: a view into the event's trace when detected.  Frame i of the
    event was sampled at t = i * dt.  `windows` is a read-only float64
    (links x 2) array of each link's onset and release time, in layout
    order; NaN for a link that never crossed the drop threshold.
    """

    start: int
    dt: float
    baselines: Tuple[float, ...]  # per link, layout order, frozen at onset
    rssi: np.ndarray
    windows: np.ndarray

    def __post_init__(self) -> None:
        for name in ("rssi", "windows"):
            array = np.asarray(getattr(self, name), dtype=np.float64).view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def t_start(self) -> float:
        return self.start * self.dt

    @property
    def t_end(self) -> float:
        return (self.start + len(self.rssi) - 1) * self.dt


def detect_events(
    rssi: np.ndarray,
    dt: float,
    layout: SensorLayout,
    cfg: DetectionConfig = DetectionConfig(),
) -> List[EventSegment]:
    """Segment a uniform (frames x links) stream sampled every dt s into vehicle passages."""
    rssi, window = _checked_stream(rssi, dt, layout, cfg)
    return _detect_streams([rssi], dt, window, cfg)[0]


def _checked_stream(rssi, dt, layout, cfg) -> Tuple[np.ndarray, int]:
    """The stream as a float array and its baseline window in frames, if it can be detected."""
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
    return rssi, window


def _detect_streams(streams, dt, window, cfg) -> List[List[EventSegment]]:
    """The segments of each checked stream, all sampled every dt s, with this baseline window."""
    segments: List[List[EventSegment]] = [[] for _ in streams]
    # open streams: (index, cursor, look-ahead, the `window` quiet frames before the cursor)
    queue = [(s, window, 4 * window, rssi[:window]) for s, rssi in enumerate(streams)
             if len(rssi) > window]
    while queue:
        # a round: the next onset in the look-ahead of the first streams that fit in a batch
        fit = np.cumsum([window + size for _, _, size, _ in queue]) <= DETECT_BATCH_FRAMES
        state, queue = queue[:max(1, fit.sum())], queue[max(1, fit.sum()):]
        blocks = [streams[s][cursor:cursor + size] for s, cursor, size, _ in state]
        lens = np.array([len(block) for block in blocks])
        starts = np.cumsum(lens + window) - lens - window  # of each stream's quiet + block
        buf = np.concatenate([x for (*_, quiet), block in zip(state, blocks)
                              for x in (quiet, block)])
        # frame window + j of buf is tested against the median of buf[j:j + window]
        values, behind = buf[window:], sliding_window_view(buf[:-1], window, axis=0)
        half = _rolling_max(buf[:-1], h := window // 2 + 1)  # half[j]: max of buf[j:j + h]
        screen = values <= np.minimum(half[:len(values)], half[window - h:]) - cfg.drop_threshold
        cand = np.flatnonzero(screen.any(axis=1))
        owner = np.searchsorted(starts, cand, side="right") - 1
        cand = cand[cand < starts[owner] + lens[owner]]  # not the next stream's quiet frames
        lo, hi = np.searchsorted(cand, starts), np.searchsorted(cand, starts + lens)
        onset, baselines = np.full(len(state), -1), np.empty((len(state), buf.shape[1]))
        chunk = 1  # candidates per stream in one median call: 1, 2, 4, ... until each hits
        while (searching := np.flatnonzero((onset < 0) & (lo < hi))).size:
            take = np.minimum(hi[searching] - lo[searching], chunk)
            ends = np.cumsum(take)
            ks = cand[np.arange(ends[-1]) + np.repeat(lo[searching] - ends + take, take)]
            medians = _median(behind[ks])
            first = _first_true((values[ks] <= medians - cfg.drop_threshold).any(axis=1), take)
            hit = first < take
            at = (ends - take + first)[hit]
            onset[searching[hit]], baselines[searching[hit]] = ks[at], medians[at]
            lo[searching] += take
            chunk *= 2
        opened = []  # (index, onset frame, the quiet frames behind its baselines)
        for i, (s, cursor, size, _) in enumerate(state):
            if onset[i] >= 0:  # one at the last frame opens a segment shorter than min_duration
                if (f := cursor + int(onset[i] - starts[i])) + 1 < len(streams[s]):
                    opened.append((s, f, buf[onset[i]:onset[i] + window], baselines[i]))
            elif cursor + size < len(streams[s]):  # read on, behind the block's last frames
                end = starts[i] + size
                queue.append((s, cursor + size, 2 * size, buf[end:end + window].copy()))
        if not opened:
            continue
        baselines = np.array([base for *_, base in opened])
        closes = _first_up(streams, [(s, f + 1) for s, f, *_ in opened],
                           baselines - cfg.release_threshold, 4 * window)
        for (s, _, quiet, _), close, seg in zip(opened, closes, _build_segments(
                streams, dt, opened, closes, baselines, cfg)):
            if seg.t_end - seg.t_start >= cfg.min_duration:
                segments[s].append(seg)
            if close is not None and close + 1 < len(streams[s]):
                # [onset, close) never enters the quiet buffer; the closing frame does
                queue.append((s, close + 1, 4 * window,
                              np.concatenate([quiet[1:], streams[s][close:close + 1]])))
    return segments


def _median(windows: np.ndarray) -> np.ndarray:
    """np.median over the last axis, bit for bit: np.mean of the middle one or two values."""
    n = windows.shape[-1]
    part = np.partition(windows, (n // 2 - 1, n // 2), axis=-1)[..., (n - 1) // 2:n // 2 + 1]
    return part.sum(axis=-1) / (2 - n % 2)


def _rolling_max(x, w):
    """max(x[i:i + w]) per column for every i, from the maxima over spans of 1, 2, 4, ... frames."""
    m, span = x, 1
    while 2 * span <= w:
        m, span = np.maximum(m[:-span], m[span:]), 2 * span
    return np.maximum(m[:len(x) - w + 1], m[w - span:])


def _first_true(mask, lens):
    """Per consecutive piece of `mask` with these non-zero lengths, the index in the piece of
    its first true row (per column of a 2-D mask), or at least its length if there is none."""
    offsets = np.cumsum(lens) - lens
    at = np.arange(len(mask)).reshape((-1,) + (1,) * (mask.ndim - 1))
    return (np.minimum.reduceat(np.where(mask, at, len(mask)), offsets, axis=0).T - offsets).T


def _first_up(streams, froms, floors, size) -> List[Optional[int]]:
    """Per (stream, frame) of `froms`, the first frame from there on with every link at or
    above its row of `floors`, or None; read `size` frames on, then twice as many, ..."""
    blocks = [streams[s][lo:lo + size] for s, lo in froms]
    lens = np.array([len(block) for block in blocks])
    up = (np.concatenate(blocks) >= np.repeat(floors, lens, axis=0)).all(axis=1)
    found = [lo + k if k < n else None
             for (_, lo), n, k in zip(froms, lens.tolist(), _first_true(up, lens).tolist())]
    later = [i for i, (s, lo) in enumerate(froms)
             if found[i] is None and lo + size < len(streams[s])]
    if later:
        ahead = [(s, lo + size) for s, lo in (froms[i] for i in later)]
        for i, k in zip(later, _first_up(streams, ahead, floors[later], 2 * size)):
            found[i] = k
    return found


def _build_segments(streams, dt, opened, closes, baselines, cfg) -> List[EventSegment]:
    """The segment of each (stream, onset) of `opened`, up to its close or its stream's end."""
    spans = [(s, start, len(streams[s]) - 1 if close is None else close)
             for (s, start, *_), close in zip(opened, closes)]
    lens = np.array([end - start + 1 for _, start, end in spans])
    frames = np.concatenate([streams[s][start:end + 1] for s, start, end in spans])
    levels = np.repeat(baselines, lens, axis=0)
    held = frames <= levels - cfg.release_threshold  # true wherever dropped is
    # per link: the first dropped frame and the last held one, NaN where none dropped
    first = _first_true(frames <= levels - cfg.drop_threshold, lens)
    last = lens[:, None] - 1 - _first_true(held[::-1], lens[::-1])[::-1]
    starts = np.array([start for _, start, _ in spans])[:, None]
    onset, release = (starts + first) * dt, (starts + last) * dt + dt
    windows = np.where((first < lens[:, None])[..., None], np.stack([onset, release], -1), np.nan)
    return [EventSegment(start=start, dt=dt, baselines=tuple(base),
                         rssi=streams[s][start:end + 1], windows=win)
            for (s, start, end), base, win in zip(spans, baselines.tolist(), windows)]


def _estimates(windows, layout):
    """Per (links x 2) window array of a stack: its speed, the mean |dx / d onset| over pairs
    of crossed direct links with distinct onsets; its length, that speed times their mean
    onset-to-release span (a direct link crosses the road at one x); and the checks of both in
    the order they run.  Terms add left to right."""
    direct = _link_indices(layout, "direct")
    x = [layout.links[j].endpoints[0][0] for j in direct]
    onset, span = windows[:, direct, 0], windows[:, direct, 1] - windows[:, direct, 0]
    crossed, n = ~np.isnan(onset), len(windows)
    total, count, apart = np.zeros(n), np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    for a, b in combinations(range(len(direct)), 2):
        both = crossed[:, a] & crossed[:, b]
        apart |= both & (x[a] != x[b])  # two crossed links at distinct positions
        moved = both & (onset[:, b] != onset[:, a])
        gap = np.where(moved, onset[:, b] - onset[:, a], 1.0)
        total += np.where(moved, np.abs((x[b] - x[a]) / gap), 0.0)
        count += moved
    speeds = total / np.maximum(count, 1)
    durations = np.zeros(n)
    for column in np.where(crossed, span, 0.0).T:
        durations += column
    return speeds, speeds * durations / np.maximum(crossed.sum(axis=1), 1), [
        (~apart, EstimationError("need onsets on at least two direct links at distinct positions")),
        (count == 0, EstimationError("all direct-link onsets coincide; speed is unresolvable")),
        (speeds <= 0, EstimationError("speed must be positive")),
        (~crossed.any(axis=1), EstimationError("no direct-link occlusion window available"))]


def _first_failure(masks) -> Optional[Tuple[int, int]]:
    """(record, check) of the first check that the first record failing one fails, or None;
    `masks` hold one boolean per record for each check, in the order the checks run."""
    failed = np.flatnonzero(np.array(masks, dtype=bool).T)  # record by record, check by check
    return divmod(int(failed[0]), len(masks)) if failed.size else None


def _deepest(dips):
    """The largest of `dips` along the last axis, clamped at 0."""
    deepest = dips.max(axis=-1)
    return np.where(deepest > 0.0, deepest, 0.0)


def _link_indices(layout: SensorLayout, links_used: str) -> List[int]:
    """The indices of the links a validated `links_used`, 'all' or 'direct', selects."""
    return [j for j, l in enumerate(layout.links) if links_used == "all" or l.kind == "direct"]


@dataclass(frozen=True)
class FeatureConfig:
    resample_points: int = 32
    links_used: str = "all"  # 'all' | 'direct'
    include_rssi: bool = True  # the drop profile columns f_0, f_1, ...

    def __post_init__(self) -> None:
        if not 2 <= self.resample_points <= MAX_RESAMPLE_POINTS:
            raise ConfigurationError(f"resample_points = {self.resample_points} is not from 2 "
                                     f"to {MAX_RESAMPLE_POINTS}")
        if self.links_used not in ("all", "direct"):
            raise ConfigurationError(f"unknown link selection {self.links_used!r}")


# The columns of every feature table ahead of its drop profile f_0, f_1, ...
SCALAR_COLUMNS = ("est_speed", "est_length", "drop_magnitude")


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Per detected passage, its event's id and type name, a known vehicle type, and a row of
    `values`, a read-only float64 (events x columns) array whose columns are
    `columns`: SCALAR_COLUMNS, then the drop profile f_0 .. f_{D-1}.  `source`
    names the table in messages."""

    event_ids: Tuple[int, ...]
    type_names: Tuple[str, ...]
    values: np.ndarray
    source: str = "feature table"

    def __post_init__(self) -> None:
        if unknown := set(self.type_names) - TYPE_LABELS.keys():
            raise ValueError(f"unknown vehicle types {sorted(unknown)}")
        values = np.asarray(self.values, dtype=np.float64).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.event_ids)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(TYPE_LABELS[name] for name in self.type_names)

    @property
    def columns(self) -> Tuple[str, ...]:
        profile = self.values.shape[1] - len(SCALAR_COLUMNS)
        return SCALAR_COLUMNS + tuple(f"f_{i}" for i in range(profile))


def _feature_rows(segments, speeds, lengths, cfg, layout) -> np.ndarray:
    """The feature-table rows of segments that span some time, over all their frames at once.
    Each instant of a segment's np.linspace grid takes the drops of the frame at or before it,
    blended as np.interp blends them: slope * (t - t_j) + drop_j, except at a frame or the end.
    """
    links = _link_indices(layout, cfg.links_used) if cfg.include_rssi else []
    n = np.array([len(s.rssi) for s in segments])[:, None]
    start = np.array([s.start for s in segments])[:, None]
    dt = np.array([s.dt for s in segments])[:, None]
    at = np.cumsum(n)[:, None] - n  # each segment's first row in `frames`
    frames = np.concatenate([s.rssi for s in segments])
    baselines = np.array([s.baselines for s in segments])
    t_start, t_end = start * dt, (start + n - 1) * dt
    step = (t_end - t_start) / (cfg.resample_points - 1)
    grid = np.arange(cfg.resample_points) * step + t_start
    grid[:, -1] = t_end[:, 0]
    j = np.clip((grid / dt).astype(int) - start, 0, n - 1)  # at most a frame off
    j -= (start + j) * dt > grid  # now the last frame at or before each instant
    j += (j < n - 1) & ((start + j + 1) * dt <= grid)
    t_j = (start + j) * dt
    drops = np.maximum(0.0, np.repeat(baselines[:, links], n[:, 0], axis=0) - frames[:, links])
    here, after = drops[at + j], drops[at + np.minimum(j + 1, n - 1)]
    slope = (after - here) / ((start + j + 1) * dt - t_j)[..., None]
    profile = np.where(((j == n - 1) | (t_j == grid))[..., None], here,
                       slope * (grid - t_j)[..., None] + here)
    dips = baselines - np.minimum.reduceat(frames, at[:, 0], axis=0)
    scalars = np.stack([speeds, lengths, _deepest(dips[:, _link_indices(layout, "direct")])], 1)
    return np.hstack([scalars, profile.transpose(0, 2, 1).reshape(len(segments), -1)])


@dataclass(frozen=True)
class DetectionSummary:
    events_total: int = 0
    events_detected: int = 0
    segments_total: int = 0
    spurious_segments: int = 0

    @property
    def detection_rate(self) -> float:
        return self.events_detected / self.events_total if self.events_total else 0.0


# ---------------------------------------------------------------------------
# Segment serialization: a header naming the dataset the segments were
# detected from, then one line per segment locating it in its event's trace.
# Its baselines and windows are each one string, the standard base64 of the
# float64 array in little-endian byte order.

SEGMENTS_FORMAT = "radiobarrier-segments"
SEGMENTS_VERSION = 4
# Keys of a segment line with their types
_SEGMENT_FIELDS = {"event_id": int, "start_index": int, "frames": int,
                   "baselines": str, "windows": str}
_FLOAT64 = np.dtype("<f8")


@dataclass(frozen=True)
class SegmentRecord:
    """One detected passage with the event metadata needed downstream."""

    event_id: int
    type_name: str  # a known vehicle type
    segment: EventSegment

    def __post_init__(self) -> None:
        if self.type_name not in TYPE_LABELS:
            raise ValueError(f"unknown vehicle type {self.type_name!r}")

    @property
    def label(self) -> str:
        return TYPE_LABELS[self.type_name]


def detect_dataset(
    dataset: Dataset,
    layout: SensorLayout,
    det_cfg: DetectionConfig = DetectionConfig(),
    fingerprint: Optional[str] = None,
) -> Tuple[List[SegmentRecord], DetectionSummary]:
    """Run detection over every event of a dataset recorded with this layout's links and, if a
    config `fingerprint` is given, generated under it; the events, all sampled every
    `metadata["dt"]` s, are detected together."""
    _layout_link_ids("dataset", dataset.metadata, layout, fingerprint)
    dt, events, streams, window = dataset.metadata["dt"], dataset.events, [], None
    for event in events:
        with _for_event(event.event_id):
            rssi, window = _checked_stream(event.rssi, dt, layout, det_cfg)
        streams.append(rssi)
    found = _detect_streams(streams, dt, window, det_cfg)  # no window read without a stream
    records = [SegmentRecord(event.event_id, event.type_name,
                             max(segments, key=lambda s: s.t_end - s.t_start))
               for event, segments in zip(events, found) if segments]
    segs = sum(map(len, found))
    # every segment but the longest of its event is spurious
    return records, DetectionSummary(len(events), len(records), segs, segs - len(records))


@contextmanager
def _for_event(event_id: int):
    """Prefix an error in one event's data with the event's id."""
    try:
        yield
    except (InputDataError, EstimationError) as exc:
        raise type(exc)(f"event {event_id}: {exc}") from exc


def _layout_link_ids(source: str, header, layout: SensorLayout, fingerprint=None) -> List[int]:
    """The layout's link ids, if `header` lists them and names `fingerprint` (unless None)."""
    expected = [link.id for link in layout.links]
    if header["link_ids"] != expected:
        raise ConfigurationError(f"{source} was recorded on links {header['link_ids']}, "
                                 f"the configured layout has links {expected}")
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise ConfigurationError(f"{source} was generated under config fingerprint "
                                 f"{header.get('fingerprint')}, this config's is {fingerprint}; "
                                 f"pass the --config that generated it")
    return expected


def save_segments(records: Sequence[SegmentRecord], path, layout: SensorLayout, dataset,
                  dataset_sha256: str) -> None:
    """Write segments detected on `layout` from the file `dataset`, which the header names by
    the SHA-256 of the bytes read from it and by its path relative to `path`'s directory (a
    run directory can move)."""
    header = {"format": SEGMENTS_FORMAT, "version": SEGMENTS_VERSION,
              "link_ids": [link.id for link in layout.links], "event_count": len(records),
              "dataset": os.path.relpath(dataset, Path(path).parent),
              "dataset_sha256": dataset_sha256}
    write_records(path, header, ({
        "event_id": rec.event_id,
        "start_index": rec.segment.start,
        "frames": len(rec.segment.rssi),
        "baselines": encode_base64(np.asarray(rec.segment.baselines, _FLOAT64)),
        "windows": encode_base64(np.asarray(rec.segment.windows, _FLOAT64)),
    } for rec in records))


def _decode_floats(lines, key: str, shape: Tuple[int, ...]) -> np.ndarray:
    """The float64 arrays of this `shape` that `key` holds on the lines, one per line."""
    raw = b"".join([decode_base64(where, key, rec[key], shape, _FLOAT64) for where, rec in lines])
    return np.frombuffer(raw, _FLOAT64).reshape(len(lines), *shape)


def load_segments(path, layout: SensorLayout,
                  fingerprint: Optional[str] = None) -> List[SegmentRecord]:
    """Read a segments file detected on this layout's links; each segment is a read-only view
    of its event's trace in the dataset the header names, whose SHA-256 must still match and,
    if a config `fingerprint` is given, which was generated under it.  The dataset is read
    once: the bytes that are hashed are the bytes that are parsed."""
    header, lines, _ = read_records(path, SEGMENTS_FORMAT, SEGMENTS_VERSION, _SEGMENT_FIELDS,
                                   "rerun `detect` on its dataset")
    link_ids = _layout_link_ids(f"segments file {path}", header, layout)
    baselines = _decode_floats(lines, "baselines", (len(link_ids),))
    windows = _decode_floats(lines, "windows", (len(link_ids), 2))  # onset and release times
    if not isinstance(header.get("dataset"), str):
        raise InputDataError(f"{path}: header does not name the dataset")
    dataset = Path(path).parent / header["dataset"]
    dataset_header, events, sha256 = read_events(dataset)
    if sha256 != header.get("dataset_sha256"):
        raise InputDataError(f"{dataset} is not the dataset {path} was detected from: "
                             f"its SHA-256 differs")
    _layout_link_ids(f"dataset {dataset}", dataset_header, layout, fingerprint)
    by_id, dt = {event.event_id: event for event in events}, dataset_header["dt"]
    found = [by_id.get(raw["event_id"]) for _, raw in lines]
    sizes = [0 if event is None else len(event.rssi) for event in found]
    bounds = [(raw["start_index"], raw["start_index"] + raw["frames"]) for _, raw in lines]
    bad_windows = ~(np.isfinite(windows).all(axis=2) | np.isnan(windows).all(axis=2))
    first = _first_failure([  # one mask over the lines per check, in the order of the messages
        [event is None for event in found],
        [not 0 <= start < stop <= size for (start, stop), size in zip(bounds, sizes)],
        bad_windows.any(axis=1),
        ~np.isfinite(baselines).all(axis=1)])
    if first is not None:
        i, check = first
        (where, raw), (start, stop) = lines[i], bounds[i]
        raise InputDataError(f"{where}: " + (
            f"event {raw['event_id']} is not in {dataset}",
            f"frames [{start}, {stop}) do not fit the {sizes[i]} frames of event {raw['event_id']}",
            f"window {link_ids[bad_windows[i].argmax()]} is neither two finite times nor two NaNs",
            f"baselines are not {len(link_ids)} finite numbers, one per link")[check])
    return [SegmentRecord(event.event_id, event.type_name,
                          EventSegment(start=start, dt=dt, baselines=tuple(base),
                                       rssi=event.rssi[start:stop], windows=win))
            for event, (start, stop), base, win in zip(found, bounds, baselines.tolist(), windows)]


def featurize_records(
    records: Sequence[SegmentRecord],
    layout: SensorLayout,
    feat_cfg: FeatureConfig = FeatureConfig(),
) -> FeatureTable:
    """The feature table of `records`, one row per record in their order; the rows are made in
    batches of as many records as fit in FEATURE_BATCH_FRAMES frames (at least one)."""
    segments = [rec.segment for rec in records]
    windows = np.array([s.windows for s in segments]).reshape(len(segments), len(layout.links), 2)
    speeds, lengths, checks = _estimates(windows, layout)
    too_short = np.array([s.t_end <= s.t_start for s in segments], dtype=bool)
    checks.append((too_short, InputDataError("degenerate zero-duration segment")))
    if (failed := _first_failure([mask for mask, _ in checks])) is not None:
        with _for_event(records[failed[0]].event_id):
            raise checks[failed[1]][1]
    lens, rows, first = np.array([len(s.rssi) for s in segments]), [], 0
    while first < len(segments):
        last = first + max(1, int((np.cumsum(lens[first:]) <= FEATURE_BATCH_FRAMES).sum()))
        rows.append(_feature_rows(segments[first:last], speeds[first:last], lengths[first:last],
                                  feat_cfg, layout))
        first = last
    values = np.concatenate(rows) if rows else np.empty((0, len(SCALAR_COLUMNS)))
    return FeatureTable(tuple(rec.event_id for rec in records),
                        tuple(rec.type_name for rec in records), values)


# ---------------------------------------------------------------------------
# Feature table I/O: comma-separated text with one row per event, CRLF line ends,
# no quotes (no type name needs one), floats spelled as format(x, ".17g").

_TEXT_COLUMNS = ("event_id", "type_name", "label")


def save_features_csv(table: FeatureTable, path) -> None:
    """Write `table` with one row per event, as load_features_csv reads it.  Each distinct
    value is formatted once, found by its bits: -0.0 is spelled "-0", 0.0 "0"."""
    bits = np.ascontiguousarray(table.values).view(np.int64)
    distinct, at = np.unique(bits, return_inverse=True)
    text = np.array(["%.17g" % x for x in distinct.view(np.float64).tolist()], dtype=object)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(_TEXT_COLUMNS + table.columns) + "\r\n")
        fh.writelines(f"{event_id},{name},{TYPE_LABELS[name]},{','.join(cells)}\r\n"
                      for event_id, name, cells in zip(table.event_ids, table.type_names,
                                                       text[at.reshape(bits.shape)].tolist()))


def load_features_csv(path) -> FeatureTable:
    """Read a non-empty feature table, rejecting any row that does not fit its header or whose
    label is not the one its type_name, a known vehicle type, fixes.

    Lines end at CRLF, LF or CR.  The text cells of every row are checked first; then the
    numbers of all rows are parsed in one np.loadtxt call, which reads no quotes and no
    comments.  Only if that call fails are they parsed row by row, to name the line at fault.
    """
    path = Path(path)
    try:
        lines = path.read_text().split("\n")  # read with universal newlines
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read feature table {path}: {exc}") from exc
    header, leading = lines[0].split(","), _TEXT_COLUMNS + SCALAR_COLUMNS
    if header != [*leading, *(f"f_{i}" for i in range(len(header) - len(leading)))]:
        raise InputDataError(f"{path} is not a feature table: its header is not "
                             f"{','.join(leading)} and then f_0, f_1, ... in order")
    first_line, rows = {}, []  # event id -> its line; (line, type name, numbers) per row
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if (n := line.count(",") + 1) != len(header):
            raise InputDataError(f"{path}:{lineno}: {n} cells under a {len(header)}-column header")
        event_id, type_name, label, numbers = line.split(",", len(_TEXT_COLUMNS))
        try:
            event_id = int(event_id)
        except ValueError as exc:
            raise InputDataError(f"{path}:{lineno}: {exc}") from None
        if TYPE_LABELS.get(type_name) != label:
            raise InputDataError(f"{path}:{lineno}: " + (
                f"label {label!r} is not {TYPE_LABELS[type_name]!r}, the label of {type_name!r}"
                if type_name in TYPE_LABELS else
                f"unknown vehicle type {type_name!r}; known types: {sorted(TYPE_LABELS)}"))
        if first_line.setdefault(event_id, lineno) != lineno:
            raise InputDataError(
                f"{path}:{lineno}: event_id {event_id} repeats line {first_line[event_id]}")
        rows.append((lineno, type_name, numbers))
    if not rows:
        raise InputDataError(f"feature table {path} has no rows")
    linenos, type_names, numbers = zip(*rows)
    if (values := _numbers(numbers)) is None:  # the first row it refuses, then its first cell
        lineno, row = next((n, row) for n, row in zip(linenos, numbers) if _numbers([row]) is None)
        cell = next(cell for cell in row.split(",") if _numbers([cell + ",0"]) is None)
        raise InputDataError(f"{path}:{lineno}: could not convert string to float: {cell!r}")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise InputDataError(f"{path}:{linenos[np.argmin(finite)]}: a feature is not finite")
    return FeatureTable(tuple(first_line), type_names, values, source=str(path))


def _numbers(lines) -> Optional[np.ndarray]:
    """The rows of numbers np.loadtxt reads from `lines` of comma-separated cells, or None if
    it refuses one; a line of one blank cell it reads as no line."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def feature_matrix(table: FeatureTable, feature_set: str) -> np.ndarray:
    """The classifier input for one of the three feature sets, a selection of the
    table's columns: est_length, the drop profile, or the profile then est_length."""
    length = [SCALAR_COLUMNS.index("est_length")]
    profile = list(range(len(SCALAR_COLUMNS), len(table.columns)))
    columns = {"length": length, "rssi": profile, "both": profile + length}.get(feature_set)
    if columns is None:
        raise ConfigurationError(f"unknown feature set {feature_set!r}")
    if feature_set != "length" and not profile:
        raise InputDataError(f"{table.source} has no drop profile columns f_0, f_1, ..., "
                             f"as a table written with include_rssi = false; feature set "
                             f"{feature_set!r} needs them")
    return table.values[:, columns]


# ---------------------------------------------------------------------------
# Ground-reflection study: per-class drop statistics with reflection on/off.

def dataset_drop_stats(
    dataset: Dataset,
    layout: SensorLayout,
    det_cfg: DetectionConfig = DetectionConfig(),
) -> Tuple[Dict[str, Dict[str, float]], List[Tuple[int, str, float]]]:
    """Per label, the count, mean, std, min and max of the detected events' drop
    magnitudes, as the feature table's drop_magnitude column holds them; and per event,
    (event id, label, drop)."""
    records, _ = detect_dataset(dataset, layout, det_cfg)
    direct = _link_indices(layout, "direct")
    drops = [(r.event_id, r.label,
              float(_deepest((np.array(r.segment.baselines) - r.segment.rssi.min(axis=0))[direct])))
             for r in records]
    present = {label for _, label, _ in drops}
    for label in LABELS:
        if label not in present:
            raise InputDataError(f"no {label} passage was detected, and a drop study needs "
                                 f"events of both labels")
    stats = {}
    for label in LABELS:
        values = [d for _, lab, d in drops if lab == label]
        stats[label] = {
            "count": len(values),
            "mean": float(np.mean(values)),
            "std": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
            "min": float(np.min(values)),
            "max": float(np.max(values)),
        }
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
) -> dict:
    """Compare per-class drop magnitudes with the ground bounce on and off.

    Both variants are generated from the same seed so they differ only in
    the reflected ray.  Returns the record ``study.json`` holds, keyed by
    variant "on" and "off": ``variants``, the `dataset_drop_stats` of each
    label, and ``gaps``, the mean passenger_car drop minus the mean truck
    drop; plus ``drops``, each variant's per-event drops.  A `mix` without a vehicle type of
    each label, or a variant that detects no passage of one, raises ConfigurationError: the
    study reads no data, so the config is at fault.
    """
    held = {catalog[t].label for t, count in mix.items() if t in catalog and count > 0}
    for label in LABELS:
        if label not in held and set(mix) <= set(catalog):  # generate_dataset names the rest
            raise ConfigurationError(f"--mix holds no {label} vehicle type, and a study "
                                     f"compares both labels")
    study = {"variants": {}, "gaps": {}, "drops": {}}
    for variant, enabled in (("on", True), ("off", False)):
        chan = replace(channel, ground_reflection_enabled=enabled)
        dataset = generate_dataset(layout, chan, patterns, catalog, mix, sim, seed=seed)
        try:
            stats, study["drops"][variant] = dataset_drop_stats(dataset, layout, det_cfg)
        except InputDataError as exc:  # in a dataset this config generated
            raise ConfigurationError(f"study variant {variant!r} (ground reflection "
                                     f"{variant}): {exc}") from exc
        study["variants"][variant] = stats
        study["gaps"][variant] = stats["passenger_car"]["mean"] - stats["truck"]["mean"]
    return study
