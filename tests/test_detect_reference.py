"""The segment-at-a-time detector against the per-frame loop it replaced.

`reference_detect_events` is that loop, kept verbatim as the oracle: it takes
a `statistics.median` over one deque per link on every frame.  The detector
must give equal segments (start, bit-identical baselines, samples, windows).
`reference_build_segment` is the per-link loop that found each segment's
windows before they were found for all links at once.
"""
import math
import statistics
from collections import deque
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier.config import default_config
from radiobarrier.errors import ConfigurationError, InputDataError
from radiobarrier.geometry import SensorLayout
from radiobarrier.pipeline import DetectionConfig, EventSegment, detect_events
from radiobarrier.simulator import generate_dataset


def reference_build_segment(rssi, start, end, dt, baselines, layout, cfg) -> EventSegment:
    frames = rssi[start:end + 1]
    levels = np.array(baselines)
    dropped = frames <= levels - cfg.drop_threshold
    held = frames <= levels - cfg.release_threshold  # true wherever dropped is
    windows = np.full((len(layout.links), 2), np.nan)  # NaN for a link that never dropped
    for j, link in enumerate(layout.links):
        onsets = np.flatnonzero(dropped[:, j])
        if onsets.size:
            last = int(np.flatnonzero(held[:, j])[-1])
            windows[j] = (start + int(onsets[0])) * dt, (start + last) * dt + dt
    return EventSegment(start=start, dt=dt, baselines=baselines, rssi=frames, windows=windows)


def reference_detect_events(
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

    rows = rssi.tolist()
    quiet: List[deque] = [deque(maxlen=window) for _ in range(n_links)]
    segments: List[EventSegment] = []
    open_start: Optional[int] = None
    open_baselines: Optional[Tuple[float, ...]] = None

    def close(end_index: int) -> None:
        nonlocal open_start, open_baselines
        seg = reference_build_segment(rssi, open_start, end_index, dt, open_baselines, layout,
                                      cfg)
        if seg.t_end - seg.t_start >= cfg.min_duration:
            segments.append(seg)
        open_start = None
        open_baselines = None

    for i, values in enumerate(rows):
        if open_start is None:
            seeded = all(len(q) == window for q in quiet)
            if seeded:
                baselines = tuple(statistics.median(q) for q in quiet)
                if any(
                    values[j] <= baselines[j] - cfg.drop_threshold
                    for j in range(n_links)
                ):
                    open_start = i
                    open_baselines = baselines
                    continue
            for j in range(n_links):
                quiet[j].append(values[j])
        else:
            recovered = all(
                values[j] >= open_baselines[j] - cfg.release_threshold
                for j in range(n_links)
            )
            if recovered:
                close(i)
                for j in range(n_links):
                    quiet[j].append(values[j])
    if open_start is not None:
        close(len(rows) - 1)
    return segments


def assert_same_segments(rssi, dt, layout, cfg=DetectionConfig()):
    """Run both detectors and require equal segments; returns the oracle's."""
    got = detect_events(rssi, dt, layout, cfg)
    want = reference_detect_events(rssi, dt, layout, cfg)
    assert [s.start for s in got] == [s.start for s in want]
    assert [s.baselines for s in got] == [s.baselines for s in want]  # exact float equality
    assert all(np.array_equal(a.rssi, b.rssi) for a, b in zip(got, want))
    assert [s.windows.tobytes() for s in got] == [s.windows.tobytes() for s in want]
    # segments files serialise these with json: plain Python numbers only
    assert all(type(s.start) is int and all(type(b) is float for b in s.baselines)
               for s in got)
    return want


def benchmark_dataset(seed):
    """The fixed benchmark: default config, 50 events per type, 300 events."""
    cfg = default_config()
    layout = cfg.build_layout()
    mix = {t: 50 for t in cfg.catalog}
    dataset = generate_dataset(layout, cfg.channel, cfg.build_patterns(layout), cfg.catalog,
                               mix, cfg.sim, seed=seed)
    return dataset, layout, cfg.detection


@pytest.fixture(scope="module")
def seed42():
    return benchmark_dataset(42)


@pytest.mark.parametrize("seed", [42, 7])
def test_matches_reference_on_every_benchmark_event(seed, seed42):
    dataset, layout, det = seed42 if seed == 42 else benchmark_dataset(seed)
    assert len(dataset.events) == 300
    dt = dataset.metadata["dt"]
    counts = [len(assert_same_segments(ev.rssi, dt, layout, det)) for ev in dataset.events]
    assert sum(counts) >= 300


def test_matches_reference_on_concatenated_benchmark_stream(seed42):
    dataset, layout, det = seed42
    stream = np.vstack([ev.rssi for ev in dataset.events])
    assert len(stream) == 112_400
    segments = assert_same_segments(stream, dataset.metadata["dt"], layout, det)
    assert len(segments) >= 300


def dipped_stream(n, dips, seed=0, noise=0.3, n_links=9):
    """Noisy flat links at -60 dB with (start, length, depth, links) rectangular dips."""
    rng = np.random.default_rng(seed)
    rssi = -60.0 + noise * rng.standard_normal((n, n_links))
    for start, length, depth, links in dips:
        rssi[start:start + length, links] -= depth
    return rssi


DT = 0.01
TIGHT = DetectionConfig(drop_threshold=6.0, release_threshold=3.0, min_duration=0.05,
                        baseline_window=0.2)  # 20-frame window


@pytest.mark.parametrize("rssi, starts, open_at_end", [
    # exactly one window long: nothing is ever tested
    (dipped_stream(20, [(5, 10, 20.0, [0])]), [], False),
    # two passages one recovered frame apart: an onset right after a close
    (dipped_stream(120, [(40, 15, 10.0, [0, 4]), (56, 15, 10.0, [2])]), [40, 56], False),
    # a 3-frame dip is shorter than min_duration, the 20-frame one is kept
    (dipped_stream(200, [(40, 3, 10.0, [1]), (100, 20, 10.0, [1])]), [100], False),
    # a passage still open when the stream ends
    (dipped_stream(100, [(70, 30, 10.0, [3, 5])]), [70], True),
    # a dip on link 8 only, then a shallow one that never crosses drop_threshold
    (dipped_stream(150, [(30, 12, 8.0, [8]), (80, 12, 4.0, [2])]), [30], False),
])
def test_matches_reference_on_hand_built_streams(layout, rssi, starts, open_at_end):
    segments = assert_same_segments(rssi, DT, layout, TIGHT)
    assert [s.start for s in segments] == starts
    assert any(s.start + len(s.rssi) == len(rssi) for s in segments) == open_at_end


@st.composite
def detection_cases(draw):
    window = draw(st.integers(2, 25))
    drop = draw(st.floats(1.0, 12.0))
    cfg = DetectionConfig(drop_threshold=drop,
                          release_threshold=drop * draw(st.floats(0.05, 0.95)),
                          min_duration=DT * draw(st.integers(1, 12)),
                          baseline_window=DT * window)
    n = draw(st.integers(window, 320))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.uniform(-80.0, -40.0, 9)
    drift = rng.uniform(-4.0, 4.0, 9) * np.linspace(0.0, 1.0, n)[:, None]
    noise = draw(st.sampled_from([0.0, 0.3, 1.0, 3.0]))
    rssi = levels + drift + noise * rng.standard_normal((n, 9))
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, n - 1))
        length = draw(st.integers(1, 80))
        links = draw(st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True))
        depth = draw(st.floats(0.0, 25.0)) * np.sin(np.linspace(0.0, np.pi, length + 2)[1:-1])
        rssi[start:start + length, links] -= depth[:n - start, None]
    step = draw(st.sampled_from([None, 0.5, 1.0]))  # coarse steps tie medians
    if step is not None:
        rssi = np.round(rssi / step) * step
    return rssi, cfg


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=detection_cases())
def test_matches_reference_on_random_streams(layout, case):
    rssi, cfg = case
    assert_same_segments(rssi, DT, layout, cfg)
