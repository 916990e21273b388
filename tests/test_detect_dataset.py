"""Whole-dataset detection against one stream at a time.

`detect_dataset` detects the events of a dataset together, in rounds that each
read one look-ahead block of as many streams as fit in DETECT_BATCH_FRAMES
frames.  It must find what `detect_events` finds on each event alone, and
every segment must equal the per-frame oracle's, whatever the batch cap.
"""
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier import pipeline
from radiobarrier.errors import InputDataError
from radiobarrier.pipeline import DetectionConfig, DetectionSummary, detect_dataset
from radiobarrier.simulator import Dataset, PassageEvent

from test_detect_reference import DT, TIGHT, assert_same_segments, dipped_stream, \
    reference_detect_events


def dataset_of(layout, streams, dt=DT, ids=None):
    """A dataset of `streams` sampled every dt s, as events with these ids, or 1, 2, ..."""
    events = tuple(PassageEvent(event_id=i, type_name="truck", true_speed=10.0, true_length=10.0,
                                lane_y=2.0, rssi=rssi)
                   for i, rssi in zip(ids or range(1, len(streams) + 1), streams))
    return Dataset(events=events,
                   metadata={"link_ids": [link.id for link in layout.links], "dt": dt})


# Under TIGHT, 20-frame baseline windows at DT and 10-frame ones at 2 * DT, in mixed order;
# a dataset has one dt, so the events of each dt make one dataset.
HAND_BUILT = [
    (DT, dipped_stream(150, [], seed=1)),
    (2 * DT, dipped_stream(90, [(30, 12, 10.0, [0, 4])], seed=2)),
    (DT, dipped_stream(400, [(50, 20, 10.0, [1]), (150, 30, 12.0, [0, 2, 4]),
                             (300, 15, 9.0, [5])], seed=3)),
    (DT, dipped_stream(120, [(90, 30, 10.0, [2, 6])], seed=4)),  # open at the end
    (2 * DT, dipped_stream(10, [], seed=5)),  # exactly one window long
    (2 * DT, dipped_stream(200, [(20, 10, 10.0, [3]), (70, 20, 8.0, [7, 8]),
                                 (150, 50, 10.0, [1])], seed=6)),  # the third open at the end
    (DT, dipped_stream(260, [(40, 15, 10.0, [0, 4]), (56, 15, 10.0, [2])], seed=7)),
    # released on the last frame of the first look-ahead block, 4 windows after the onset
    (DT, dipped_stream(300, [(100, 80, 10.0, [4])], seed=10)),
]


@pytest.mark.parametrize("cap", [pipeline.DETECT_BATCH_FRAMES, 300, 1])
def test_dataset_detection_is_per_event_detection(layout, monkeypatch, cap):
    monkeypatch.setattr(pipeline, "DETECT_BATCH_FRAMES", cap)  # 300: rounds split unevenly
    datasets = [dataset_of(layout, [rssi for dt, rssi in HAND_BUILT if dt == step], step,
                           [i for i, (dt, _) in enumerate(HAND_BUILT, start=1) if dt == step])
                for step in (DT, 2 * DT)]
    events = sorted((ev for dataset in datasets for ev in dataset.events),
                    key=lambda ev: ev.event_id)
    per_event = [assert_same_segments(ev.rssi, dt, layout, TIGHT)
                 for ev, (dt, _) in zip(events, HAND_BUILT)]
    assert [len(segments) for segments in per_event] == [0, 1, 3, 1, 0, 3, 2, 1]
    assert [any(s.start + len(s.rssi) == len(ev.rssi) for s in segments)
            for ev, segments in zip(events, per_event)] == \
        [False, False, False, True, False, True, False, False]

    found = [detect_dataset(dataset, layout, TIGHT) for dataset in datasets]
    records = sorted((r for dataset_records, _ in found for r in dataset_records),
                     key=lambda r: r.event_id)
    summary = DetectionSummary(*np.sum([astuple(s) for _, s in found], axis=0).tolist())
    longest = [(ev, max(segments, key=lambda s: s.t_end - s.t_start))
               for ev, segments in zip(events, per_event) if segments]
    assert [r.event_id for r in records] == [ev.event_id for ev, _ in longest]
    for rec, (ev, want) in zip(records, longest):
        got = rec.segment
        assert (got.start, got.dt, got.baselines, got.windows.tobytes()) == \
            (want.start, want.dt, want.baselines, want.windows.tobytes())
        assert np.array_equal(got.rssi, want.rssi)
        assert np.shares_memory(got.rssi, ev.rssi)  # a view of the event's trace
    assert summary == DetectionSummary(8, 6, 11, 5)


def test_dataset_detection_names_the_first_bad_event(layout):
    bad = dipped_stream(150, [], seed=8)
    bad[40, 2] = np.nan
    dataset = dataset_of(layout, [dipped_stream(150, [], seed=9), dipped_stream(15, []), bad])
    with pytest.raises(InputDataError, match="^event 2: stream of 15 samples is shorter"):
        detect_dataset(dataset, layout, TIGHT)


@st.composite
def stream_batches(draw):
    """A detection config, 1 to 6 random streams for it and a batch cap: noisy links with
    sine-shaped dips, some rounded to whole dB so that medians tie."""
    window = draw(st.integers(2, 25))
    drop = draw(st.floats(1.0, 12.0))
    cfg = DetectionConfig(drop_threshold=drop,
                          release_threshold=drop * draw(st.floats(0.05, 0.95)),
                          min_duration=DT * draw(st.integers(1, 12)),
                          baseline_window=DT * window)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    streams = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(window, 240))
        noise = draw(st.sampled_from([0.0, 0.5, 2.0]))
        rssi = rng.uniform(-80.0, -40.0, 9) + noise * rng.standard_normal((n, 9))
        for _ in range(draw(st.integers(0, 5))):
            start, length = draw(st.integers(0, n - 1)), draw(st.integers(1, 60))
            links = draw(st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True))
            depth = draw(st.floats(0.0, 25.0)) * np.sin(np.linspace(0.0, np.pi, length + 2)[1:-1])
            rssi[start:start + length, links] -= depth[:n - start, None]
        streams.append(np.round(rssi) if draw(st.booleans()) else rssi)
    return cfg, streams, draw(st.sampled_from([1, 80, 400, pipeline.DETECT_BATCH_FRAMES]))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=stream_batches())
def test_batched_streams_match_reference(layout, case):
    cfg, streams, cap = case
    window = pipeline._checked_stream(streams[0], DT, layout, cfg)[1]
    with mock.patch.object(pipeline, "DETECT_BATCH_FRAMES", cap):
        found = pipeline._detect_streams(streams, DT, window, cfg)
    for rssi, got in zip(streams, found):
        want = reference_detect_events(rssi, DT, layout, cfg)
        assert [(s.start, s.baselines, s.windows.tobytes()) for s in got] == \
            [(s.start, s.baselines, s.windows.tobytes()) for s in want]
        assert all(np.array_equal(a.rssi, b.rssi) for a, b in zip(got, want))
