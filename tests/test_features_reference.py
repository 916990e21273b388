"""The batched featurizer against the per-record loop it replaced.

`reference_speed`, `reference_length` and `reference_features` are that loop,
kept as the oracle: one segment at a time, a Python sum over the direct links
that crossed, Python's max(0.0, ...) for the drop magnitude and one
`np.interp` call per profiled link.  Windows are read
from the (links x 2) array, NaN for a link that never crossed.  The batched
`featurize_records` must give the same floats, bit for bit, and the same
first error, with its type, message and event.
"""
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier import pipeline
from radiobarrier.config import default_config
from radiobarrier.errors import EstimationError, InputDataError
from radiobarrier.pipeline import (SCALAR_COLUMNS, EventSegment, FeatureConfig, SegmentRecord,
                                   dataset_drop_stats, detect_dataset, featurize_records)

from test_detect_reference import benchmark_dataset


def crossed_direct(segment, layout):
    """(link, onset_t, release_t) of each direct link that crossed, in layout order."""
    return [(link, *segment.windows[j]) for j, link in enumerate(layout.links)
            if link.kind == "direct" and not np.isnan(segment.windows[j, 0])]


def reference_speed(segment, layout):
    direct = [(link.endpoints[0][0], onset) for link, onset, _ in crossed_direct(segment, layout)]
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


def reference_length(segment, speed, layout):
    if speed <= 0:
        raise EstimationError("speed must be positive")
    durations = [release - onset for _, onset, release in crossed_direct(segment, layout)]
    if not durations:
        raise EstimationError("no direct-link occlusion window available")
    return speed * sum(durations) / len(durations)


def reference_drop_magnitude(segment, layout):
    direct = [j for j, link in enumerate(layout.links) if link.kind == "direct"]
    trace, baseline = segment.rssi[:, direct], np.array(segment.baselines)[direct]
    return max(0.0, float(np.max(np.asarray(baseline) - trace.min(axis=0))))


def reference_features(segment, speed, length, cfg, layout):
    if segment.t_end <= segment.t_start:
        raise InputDataError("degenerate zero-duration segment")
    links = pipeline._link_indices(layout, cfg.links_used) if cfg.include_rssi else []
    row = np.empty(len(SCALAR_COLUMNS) + cfg.resample_points * len(links))
    row[:len(SCALAR_COLUMNS)] = speed, length, reference_drop_magnitude(segment, layout)
    drops = np.maximum(0.0, np.array(segment.baselines) - segment.rssi)
    grid = np.linspace(segment.t_start, segment.t_end, cfg.resample_points)
    times = (segment.start + np.arange(len(segment.rssi), dtype=np.float64)) * segment.dt
    profile = row[len(SCALAR_COLUMNS):].reshape(len(links), cfg.resample_points)
    for out, j in zip(profile, links):
        out[:] = np.interp(grid, times, drops[:, j])
    return row


def reference_table(records, layout, cfg):
    rows = []
    for rec in records:
        try:
            speed = reference_speed(rec.segment, layout)
            length = reference_length(rec.segment, speed, layout)
            rows.append(reference_features(rec.segment, speed, length, cfg, layout))
        except (InputDataError, EstimationError) as exc:
            raise type(exc)(f"event {rec.event_id}: {exc}") from exc
    return np.array(rows) if rows else np.empty((0, len(SCALAR_COLUMNS)))


def outcome(fn, *args):
    """What `fn` returns, as bytes for arrays and floats, or its error's type and message."""
    try:
        value = fn(*args)
    except (InputDataError, EstimationError) as exc:
        return type(exc), str(exc)
    return np.asarray(value, dtype=np.float64).tobytes(), np.shape(value)


LAYOUT = default_config().build_layout()
DIRECT = [j for j, link in enumerate(LAYOUT.links) if link.kind == "direct"]


@pytest.fixture(scope="module")
def layout():
    return LAYOUT


@st.composite
def segment_batches(draw):
    """Segments of random whole-dB or fine traces, with long-ago starts and lengths whose grid
    instants land on frames.  In half the batches some segments have direct links missing,
    all onsets equal or one frame, which the featurizer refuses."""
    n_links, clean = len(LAYOUT.links), draw(st.booleans())
    dt = draw(st.sampled_from([0.01, 0.004]))
    cfg = FeatureConfig(resample_points=draw(st.sampled_from([2, 3, 32])),
                        links_used=draw(st.sampled_from(["all", "direct"])),
                        include_rssi=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for event_id in range(1, draw(st.integers(0, 8)) + 1):
        points = cfg.resample_points - 1
        frames = draw(st.integers(1 + clean, 90) | st.integers(1, 4).map(lambda k: k * points + 1))
        if not (clean or draw(st.integers(0, 5))):
            frames = 1
        start = draw(st.one_of(st.integers(0, 400), st.integers(0, 200_000)))
        baselines = rng.uniform(-80.0, -40.0, n_links)
        rssi = baselines - rng.uniform(-3.0, 30.0, (frames, n_links))
        if draw(st.booleans()):  # whole dB: drops repeat and reach exactly 0
            baselines, rssi = np.round(baselines), np.round(rssi)
        if not draw(st.integers(0, 9)):  # -0.0 - 0.0: drops and dips of -0.0 on most links
            baselines, rssi = np.full(n_links, -0.0), np.where(rng.random(n_links) < 0.7, 0.0, rssi)
        windows = np.full((n_links, 2), np.nan)
        onsets = [draw(st.integers(0, 3)) for _ in range(n_links)]  # few values: equal onsets
        if clean:  # every direct link crossed, not all at once
            for j, onset in zip(DIRECT, draw(st.lists(st.integers(0, 3), min_size=len(DIRECT),
                                                      max_size=len(DIRECT))
                                            .filter(lambda v: len(set(v)) > 1))):
                onsets[j] = onset
        for j in range(n_links):
            if (clean and j in DIRECT) or draw(st.integers(0, 4)):  # others may never cross
                onset = (start + onsets[j]) * dt
                windows[j] = onset, onset + draw(st.integers(0, 40)) * dt
        records.append(SegmentRecord(event_id, "van", "passenger_car", EventSegment(
            start=start, dt=dt, baselines=tuple(baselines.tolist()), rssi=rssi, windows=windows)))
    return records, cfg, draw(st.sampled_from([1, 37, 150, pipeline.FEATURE_BATCH_FRAMES]))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=segment_batches())
def test_batched_features_match_reference(layout, case):
    records, cfg, cap = case
    with mock.patch.object(pipeline, "FEATURE_BATCH_FRAMES", cap):  # small: uneven batches
        got = outcome(lambda: featurize_records(records, layout, cfg).values)
    assert got == outcome(reference_table, records, layout, cfg)


@pytest.mark.parametrize("seed", [42, 7])
def test_benchmark_features_match_reference(seed):
    dataset, layout, det = benchmark_dataset(seed)
    records, _ = detect_dataset(dataset, layout, det)
    cfg = default_config().features
    table = featurize_records(records, layout, cfg)
    assert len(table) == 300
    assert table.values.tobytes() == reference_table(records, layout, cfg).tobytes()


def test_study_drops_are_the_feature_tables():
    # dataset_drop_stats and the drop_magnitude column: one expression, the same bits
    dataset, layout, det = benchmark_dataset(42)
    _, drops = dataset_drop_stats(dataset, layout, det)
    table = featurize_records(detect_dataset(dataset, layout, det)[0], layout, FeatureConfig())
    assert [(event_id, label) for event_id, label, _ in drops] == \
        list(zip(table.event_ids, table.labels))
    column = table.values[:, SCALAR_COLUMNS.index("drop_magnitude")]
    assert np.array([drop for *_, drop in drops]).tobytes() == column.tobytes()
