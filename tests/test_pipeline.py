import json
import math
from dataclasses import replace

import numpy as np
import pytest

from radiobarrier import pipeline
from radiobarrier.errors import ConfigurationError, EstimationError, InputDataError
from radiobarrier.pipeline import (
    DetectionConfig,
    EventSegment,
    FeatureConfig,
    LinkWindow,
    dataset_drop_stats,
    detect_dataset,
    detect_events,
    drop_magnitude,
    estimate_length,
    estimate_speed,
    event_drop_magnitude,
    extract_features,
    feature_dimension,
    feature_matrix,
    featurize_dataset,
    featurize_records,
    load_features_csv,
    load_segments,
    reflection_study,
    save_features_csv,
    save_segments,
)
from radiobarrier.simulator import (
    SimulationConfig,
    baseline_rssi,
    generate_dataset,
    read_events,
    save_dataset,
    simulate_passage,
)

DET = DetectionConfig()


def centered_lane(layout, vehicle):
    return (layout.road_width - vehicle.width) / 2.0


def passage(layout, patterns, channel, vehicle, speed=10.0, seed=0, sim=None):
    return simulate_passage(layout, channel, patterns, vehicle, speed,
                            centered_lane(layout, vehicle), seed=seed,
                            sim=sim or SimulationConfig())


# -- detection ------------------------------------------------------------------

def test_pure_baseline_has_no_segments(layout, patterns, quiet_channel):
    base = baseline_rssi(layout, quiet_channel, patterns)
    assert detect_events(np.tile(base, (400, 1)), 0.01, layout, DET) == []


def test_single_car_yields_one_segment(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    ev = passage(layout, patterns, quiet_channel, car)
    segments = detect_events(ev.rssi, ev.dt, layout, DET)
    assert len(segments) == 1
    seg = segments[0]
    base = baseline_rssi(layout, quiet_channel, patterns)
    trough = seg.rssi.min()
    assert trough < min(base) - 10.0
    # every link window sits inside the overall segment
    for w in seg.windows:
        assert seg.t_start <= w.onset_t < w.release_t <= seg.t_end + seg.dt


def test_detected_segment_is_a_read_only_slice_of_the_event(layout, patterns, quiet_channel,
                                                            app_config):
    ev = passage(layout, patterns, quiet_channel, app_config.catalog["passenger car"])
    seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
    n = len(seg.rssi)
    assert seg.rssi.shape == (n, len(layout.links))
    assert not seg.rssi.flags.writeable
    with pytest.raises(ValueError):
        seg.rssi[0, 0] = 0.0
    assert np.array_equal(seg.rssi, ev.rssi[seg.start:seg.start + n])
    assert seg.t_start == seg.start * ev.dt
    assert seg.t_end == (seg.start + n - 1) * ev.dt


def test_truck_bridged_into_single_segment(signature_layout, signature_patterns,
                                           quiet_channel, app_config):
    truck = app_config.catalog["truck"]
    ev = passage(signature_layout, signature_patterns, quiet_channel, truck)
    segments = detect_events(ev.rssi, ev.dt, signature_layout, DET)
    assert len(segments) == 1


def test_concatenated_passages_yield_k_segments(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    base = baseline_rssi(layout, quiet_channel, patterns)
    ev = passage(layout, patterns, quiet_channel, car)
    k = 3
    quiet = np.tile(base, (150, 1))  # > 2 baseline windows of quiet
    stream = np.vstack([ev.rssi, quiet] * k)
    segments = detect_events(stream, 0.01, layout, DET)
    assert len(segments) == k


def test_stream_shorter_than_baseline_window(layout):
    with pytest.raises(InputDataError):
        detect_events(np.tile([0.0] * 9, (10, 1)), 0.01, layout, DET)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_samples_rejected(layout, patterns, quiet_channel, app_config, bad):
    # a NaN never compares >= the release floor: it held a passage open to the end
    ev = passage(layout, patterns, quiet_channel, app_config.catalog["passenger car"])
    for frames, first in ((slice(None), 0), (slice(7, 8), 7)):
        stream = ev.rssi.copy()
        stream[frames, 3] = bad
        where = f"frame {first}, link {layout.links[3].id} is not finite"
        with pytest.raises(InputDataError, match=where):
            detect_events(stream, ev.dt, layout, DET)


def test_detection_config_validation():
    with pytest.raises(ConfigurationError):
        DetectionConfig(drop_threshold=3.0, release_threshold=3.0)
    with pytest.raises(ConfigurationError):
        DetectionConfig(baseline_window=0.0)


def test_min_duration_below_dt_rejected(layout, patterns, quiet_channel):
    base = baseline_rssi(layout, quiet_channel, patterns)
    cfg = DetectionConfig(min_duration=0.001)
    with pytest.raises(ConfigurationError):
        detect_events(np.tile(base, (200, 1)), 0.01, layout, cfg)


def test_restricted_topology_pipeline(app_config, quiet_channel):
    # the 2-links-per-receiver field topology still supports the estimators
    from radiobarrier.config import build_patterns
    from radiobarrier.geometry import LayoutConfig, build_layout

    lay = build_layout(LayoutConfig(links_per_receiver=2))
    pat = build_patterns(lay, app_config.antenna)
    car = app_config.catalog["passenger car"]
    ev = simulate_passage(lay, quiet_channel, pat, car, 10.0,
                          centered_lane(lay, car), seed=0, sim=SimulationConfig())
    seg = detect_events(ev.rssi, ev.dt, lay, DET)[0]
    v = estimate_speed(seg, lay)
    L = estimate_length(seg, v, lay)
    assert v == pytest.approx(10.0, rel=0.02)
    assert L == pytest.approx(4.5, rel=0.05)


# -- estimators -------------------------------------------------------------------

def synthetic_segment(windows, dt=0.01, n_links=9):
    return EventSegment(
        start=0, dt=dt,
        baselines=tuple([-40.0] * n_links),
        rssi=np.full((100, n_links), -40.0),
        windows=tuple(windows),
    )


def test_speed_from_two_onsets(layout):
    seg = synthetic_segment([LinkWindow(1, 0.0, 0.5), LinkWindow(5, 0.5, 1.0)])
    # link 1 sits at x=0, link 5 at x=5: 5 m in 0.5 s
    assert estimate_speed(seg, layout) == pytest.approx(10.0)


def test_speed_estimate_accuracy(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    ev = passage(layout, patterns, quiet_channel, car, speed=12.0)
    seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
    assert estimate_speed(seg, layout) == pytest.approx(12.0, rel=0.02)


def test_equal_onsets_rejected(layout):
    seg = synthetic_segment([LinkWindow(1, 0.2, 0.5), LinkWindow(5, 0.2, 1.0)])
    with pytest.raises(EstimationError):
        estimate_speed(seg, layout)


def test_one_direct_link_is_not_enough(layout):
    seg = synthetic_segment([LinkWindow(1, 0.2, 0.5), LinkWindow(2, 0.3, 0.6)])
    with pytest.raises(EstimationError):
        estimate_speed(seg, layout)


def test_length_simple_arithmetic(layout):
    seg = synthetic_segment([LinkWindow(1, 0.10, 0.55)])
    assert estimate_length(seg, 10.0, layout) == pytest.approx(4.5)


def test_length_estimate_accuracy(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    ev = passage(layout, patterns, quiet_channel, car, speed=10.0)
    seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
    speed = estimate_speed(seg, layout)
    assert estimate_length(seg, speed, layout) == pytest.approx(4.5, rel=0.05)


def test_truck_length_includes_gap(signature_layout, signature_patterns, app_config,
                                   quiet_channel):
    # with the trailer visible, release comes only after the trailer tail
    chan = replace(quiet_channel, ground_reflection_enabled=False)
    truck = app_config.catalog["truck"]
    ev = passage(signature_layout, signature_patterns, chan, truck, speed=10.0)
    seg = detect_events(ev.rssi, ev.dt, signature_layout, DET)[0]
    speed = estimate_speed(seg, signature_layout)
    assert estimate_length(seg, speed, signature_layout) == pytest.approx(15.8, rel=0.05)


def test_length_scale_consistency(layout, patterns, quiet_channel, app_config):
    van = app_config.catalog["van"]
    lengths = []
    for speed in (7.0, 14.0):
        ev = passage(layout, patterns, quiet_channel, van, speed=speed)
        seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
        v = estimate_speed(seg, layout)
        lengths.append(estimate_length(seg, v, layout))
    assert lengths[0] == pytest.approx(lengths[1], rel=0.05)


# -- drop magnitude -----------------------------------------------------------------

def test_drop_magnitude_flat_trace():
    assert drop_magnitude([-54.5, -54.5, -54.5], -54.5) == 0.0


def test_drop_magnitude_subtraction():
    assert drop_magnitude([-60.0, -80.0, -70.0], -54.5) == pytest.approx(25.5)


def test_drop_magnitude_clamped_at_zero():
    assert drop_magnitude([-50.0], -54.5) == 0.0


def test_drop_magnitude_empty_rejected():
    with pytest.raises(InputDataError):
        drop_magnitude([], -54.5)


# -- features ---------------------------------------------------------------------

def test_resample_constant_drop(layout):
    n = 50
    seg = EventSegment(
        start=0, dt=0.01,
        baselines=tuple([-40.0] * 9),
        rssi=np.full((n, 9), -50.0),
        windows=(LinkWindow(1, 0.0, (n - 1) * 0.01),),
    )
    assert seg.t_start == 0.0 and seg.t_end == (n - 1) * 0.01
    fv = extract_features(seg, 10.0, 4.5, FeatureConfig(), layout)
    assert len(fv.rssi_profile) == 9 * 32
    assert all(x == pytest.approx(10.0) for x in fv.rssi_profile)
    assert fv.drop_magnitude == pytest.approx(10.0)


def test_resample_two_points_are_endpoints(layout):
    drops = np.array([1.0, 5.0, 7.0, 2.0])
    seg = EventSegment(
        start=0, dt=0.01,
        baselines=tuple([-40.0] * 9),
        rssi=np.tile(-40.0 - drops[:, None], (1, 9)),
        windows=(LinkWindow(1, 0.0, 0.03),),
    )
    assert seg.t_start == 0.0 and seg.t_end == 0.03
    cfg = FeatureConfig(resample_points=2)
    fv = extract_features(seg, 10.0, 4.5, cfg, layout)
    per_link = fv.rssi_profile[:2]
    assert per_link == (pytest.approx(1.0), pytest.approx(2.0))


def test_feature_dimensionality(layout, patterns, quiet_channel, app_config):
    assert feature_dimension(FeatureConfig(), layout) == 9 * 32 + 1
    car = app_config.catalog["passenger car"]
    rows = []
    for speed in (6.0, 18.0):  # very different durations
        ev = passage(layout, patterns, quiet_channel, car, speed=speed)
        seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
        v = estimate_speed(seg, layout)
        L = estimate_length(seg, v, layout)
        rows.append(extract_features(seg, v, L, FeatureConfig(), layout))
    assert len(rows[0].rssi_profile) == len(rows[1].rssi_profile) == 288
    X = feature_matrix(rows, "both")
    assert X.shape == (2, 289)
    assert feature_matrix(rows, "length").shape == (2, 1)


def test_feature_config_validation():
    with pytest.raises(ConfigurationError):
        FeatureConfig(resample_points=1)
    with pytest.raises(ConfigurationError):
        FeatureConfig(include_length=False, include_rssi=False)


def test_degenerate_segment_rejected(layout):
    seg = EventSegment(
        start=100, dt=0.01,
        baselines=tuple([-40.0] * 9),
        rssi=np.full((1, 9), -50.0),
        windows=(),
    )
    assert seg.t_start == seg.t_end == 1.0
    with pytest.raises(InputDataError):
        extract_features(seg, 10.0, 4.5, FeatureConfig(), layout)


# -- serialization round trips ------------------------------------------------------

def small_dataset(layout, patterns, app_config, mix=None, seed=5):
    return generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                            mix or {"passenger car": 2, "truck": 2},
                            app_config.sim, seed=seed)


def test_segments_round_trip(tmp_path, monkeypatch, layout, patterns, app_config):
    ds = small_dataset(layout, patterns, app_config)
    records, summary = detect_dataset(ds, layout, DET)
    assert summary.events_detected == 4
    (tmp_path / "run").mkdir()
    save_dataset(ds, tmp_path / "dataset.jsonl")
    p = tmp_path / "run" / "segments.jsonl"
    save_segments(records, p, layout, tmp_path / "dataset.jsonl")
    header = json.loads(p.read_text().splitlines()[0])
    assert header["dataset"] == "../dataset.jsonl"
    assert "values" not in p.read_text()
    read = []  # the dataset load_segments slices the segments from

    def spy(path):
        read.append(read_events(path))
        return read[-1]

    monkeypatch.setattr(pipeline, "read_events", spy)
    loaded = load_segments(p, layout)
    events = {ev.event_id: ev for ev in read[0][1]}
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
        assert a.event_id == b.event_id
        assert (a.type_name, a.label) == (b.type_name, b.label)
        assert a.segment.start == b.segment.start
        assert a.segment.t_start == b.segment.t_start
        assert a.segment.t_end == b.segment.t_end
        assert a.segment.baselines == b.segment.baselines
        assert np.array_equal(a.segment.rssi, b.segment.rssi)
        assert not b.segment.rssi.flags.writeable
        assert np.shares_memory(b.segment.rssi, events[b.event_id].rssi)
        assert a.segment.windows == b.segment.windows
    # features computed from loaded segments match the direct path
    direct = featurize_records(records, layout)
    via_file = featurize_records(loaded, layout)
    for x, y in zip(direct, via_file):
        assert x == y


def test_features_csv_round_trip(tmp_path, layout, patterns, app_config):
    ds = small_dataset(layout, patterns, app_config)
    vectors, _ = featurize_dataset(ds, layout, DET, FeatureConfig())
    p = tmp_path / "features.csv"
    save_features_csv(vectors, p)
    loaded = load_features_csv(p)
    assert loaded == vectors


# -- reflection study -----------------------------------------------------------------

def test_reflection_study_gap(layout, patterns, app_config):
    mix = {t: 4 for t in app_config.catalog}
    study = reflection_study(layout, app_config.channel, patterns, app_config.catalog,
                             mix, app_config.sim, seed=42, det_cfg=DET)
    assert study.gaps["on"] >= 4.0
    assert study.gaps["off"] < study.gaps["on"]
    expected_counts = {"passenger_car": 16, "truck": 8}
    for variant in ("on", "off"):
        for label in ("passenger_car", "truck"):
            s = study.stats[variant][label]
            assert s.count == expected_counts[label]
            assert s.min <= s.mean <= s.max


def test_single_class_study_rejected(layout, patterns, app_config):
    ds = small_dataset(layout, patterns, app_config, mix={"truck": 3}, seed=2)
    with pytest.raises(InputDataError):
        dataset_drop_stats(ds, layout, DET)
