import csv
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from radiobarrier import pipeline
from radiobarrier.config import load_config
from radiobarrier.errors import ConfigurationError, EstimationError, InputDataError
from radiobarrier.pipeline import (
    DetectionConfig,
    EventSegment,
    FeatureConfig,
    SCALAR_COLUMNS,
    FeatureTable,
    SegmentRecord,
    dataset_drop_stats,
    detect_dataset,
    detect_events,
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


def table_fields(table):
    """What a feature table holds besides its source, each float as its bytes."""
    return table.event_ids, table.type_names, table.labels, table.columns, table.values.tobytes()


def centered_lane(layout, vehicle):
    return (layout.road_width - vehicle.width) / 2.0


def passage(layout, patterns, channel, vehicle, speed=10.0, seed=0, sim=None):
    return simulate_passage(layout, channel, patterns, vehicle, speed,
                            centered_lane(layout, vehicle), seed=seed,
                            sim=sim or SimulationConfig())


def feature_row(seg, layout, cfg=FeatureConfig()):
    """The feature-table row featurize_records makes of one segment."""
    return featurize_records([SegmentRecord(1, "van", "passenger_car", seg)], layout, cfg).values[0]


def estimates(seg, layout):
    """(est_speed, est_length) of one segment."""
    return tuple(feature_row(seg, layout)[:2])


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
    for onset_t, release_t in seg.windows[~np.isnan(seg.windows[:, 0])]:
        assert seg.t_start <= onset_t < release_t <= seg.t_end + seg.dt


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 12), st.booleans(), st.data())
def test_lean_median_is_np_median_bit_for_bit(rows, links, window, whole_db, data):
    # odd and even windows, random floats and whole-dB values with many ties
    values = data.draw(arrays(np.float64, (rows, links, window),
                              elements=st.floats(-120.0, 20.0) if not whole_db
                              else st.integers(-100, -20).map(float)))
    assert pipeline._median(values).tobytes() == np.median(values, axis=-1).tobytes()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 60), st.integers(0, 20), st.integers(1, 3),
       st.sampled_from(["floats", "whole_db", "constant"]), st.data())
def test_two_half_screen_bounds_every_window_median(window, extra, links, kind, data):
    # detection's screen: the lesser max of the first and of the last h frames of each
    # window is at least the window's median and at most its max
    elements = {"floats": st.floats(-120.0, 20.0), "whole_db": st.integers(-80, -77).map(float),
                "constant": st.just(data.draw(st.floats(-120.0, 20.0)))}[kind]
    x = data.draw(arrays(np.float64, (window + extra, links), elements=elements))
    h = window // 2 + 1
    half = pipeline._rolling_max(x, h)
    bound = np.minimum(half[:extra + 1], half[window - h:])
    behind = sliding_window_view(x, window, axis=0)
    assert (pipeline._median(behind) <= bound).all()
    assert (bound <= pipeline._rolling_max(x, window)).all()
    assert (pipeline._rolling_max(x, window) == behind.max(axis=-1)).all()


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
    v, L = estimates(detect_events(ev.rssi, ev.dt, lay, DET)[0], lay)
    assert v == pytest.approx(10.0, rel=0.02)
    assert L == pytest.approx(4.5, rel=0.05)


# -- estimators -------------------------------------------------------------------

def windows_of(layout, spans):
    """The (links x 2) window array of {link id: (onset_t, release_t)}, NaN for other links."""
    windows = np.full((len(layout.links), 2), np.nan)
    for j, link in enumerate(layout.links):
        windows[j] = spans.get(link.id, windows[j])
    return windows


def synthetic_segment(layout, spans, dt=0.01, n_links=9):
    return EventSegment(
        start=0, dt=dt,
        baselines=tuple([-40.0] * n_links),
        rssi=np.full((100, n_links), -40.0),
        windows=windows_of(layout, spans),
    )


def test_speed_from_two_onsets(layout):
    seg = synthetic_segment(layout, {1: (0.0, 0.5), 5: (0.5, 1.0)})
    # link 1 sits at x=0, link 5 at x=5: 5 m in 0.5 s
    assert estimates(seg, layout)[0] == pytest.approx(10.0)


def test_speed_estimate_accuracy(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    ev = passage(layout, patterns, quiet_channel, car, speed=12.0)
    seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
    assert estimates(seg, layout)[0] == pytest.approx(12.0, rel=0.02)


def test_equal_onsets_rejected(layout):
    seg = synthetic_segment(layout, {1: (0.2, 0.5), 5: (0.2, 1.0)})
    with pytest.raises(EstimationError):
        estimates(seg, layout)


def test_one_direct_link_is_not_enough(layout):
    seg = synthetic_segment(layout, {1: (0.2, 0.5), 2: (0.3, 0.6)})
    with pytest.raises(EstimationError):
        estimates(seg, layout)


def test_length_simple_arithmetic(layout):
    # 0.45 s of occlusion on both links; the length is linear in the speed, so at 10 m/s
    # it is est_length * 10 / est_speed
    seg = synthetic_segment(layout, {1: (0.10, 0.55), 5: (0.30, 0.75)})
    speed, length = estimates(seg, layout)
    assert length * 10.0 / speed == pytest.approx(4.5)


def test_length_estimate_accuracy(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    ev = passage(layout, patterns, quiet_channel, car, speed=10.0)
    seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
    assert estimates(seg, layout)[1] == pytest.approx(4.5, rel=0.05)


def test_truck_length_includes_gap(signature_layout, signature_patterns, app_config,
                                   quiet_channel):
    # with the trailer visible, release comes only after the trailer tail
    chan = replace(quiet_channel, ground_reflection_enabled=False)
    truck = app_config.catalog["truck"]
    ev = passage(signature_layout, signature_patterns, chan, truck, speed=10.0)
    seg = detect_events(ev.rssi, ev.dt, signature_layout, DET)[0]
    assert estimates(seg, signature_layout)[1] == pytest.approx(15.8, rel=0.05)


def test_length_scale_consistency(layout, patterns, quiet_channel, app_config):
    van = app_config.catalog["van"]
    lengths = []
    for speed in (7.0, 14.0):
        ev = passage(layout, patterns, quiet_channel, van, speed=speed)
        seg = detect_events(ev.rssi, ev.dt, layout, DET)[0]
        lengths.append(estimates(seg, layout)[1])
    assert lengths[0] == pytest.approx(lengths[1], rel=0.05)


# -- drop magnitude -----------------------------------------------------------------

def drop_of(layout, trace, baselines):
    """The drop_magnitude in the feature row of a segment of the (frames x links) `trace`."""
    seg = EventSegment(start=0, dt=0.01, baselines=tuple(baselines), rssi=trace,
                       windows=windows_of(layout, {1: (0.0, 0.5), 5: (0.5, 1.0)}))
    return feature_row(seg, layout)[SCALAR_COLUMNS.index("drop_magnitude")]


def on_every_link(series):
    return np.tile(np.array(series)[:, None], (1, 9))


def test_drop_magnitude_flat_trace(layout):
    assert drop_of(layout, on_every_link([-54.5, -54.5, -54.5]), [-54.5] * 9) == 0.0


def test_drop_magnitude_subtraction(layout):
    assert drop_of(layout, on_every_link([-60.0, -80.0, -70.0]), [-54.5] * 9) == \
        pytest.approx(25.5)


def test_drop_magnitude_clamped_at_zero(layout):
    # two frames: a featurized segment spans some time
    assert drop_of(layout, on_every_link([-50.0, -50.0]), [-54.5] * 9) == 0.0


def test_drop_magnitude_of_many_links_is_the_deepest_link_drop(layout):
    direct = [j for j, link in enumerate(layout.links) if link.kind == "direct"]
    rng = np.random.default_rng(0)
    for _ in range(50):
        trace = rng.normal(-60.0, 6.0, size=(30, 9)).round(1)
        baselines = rng.normal(-60.0, 3.0, size=9).round(1)
        # the per-link loop the array form replaced, over the direct links
        deepest = max(max(0.0, baselines[j] - float(np.min(trace[:, j]))) for j in direct)
        assert drop_of(layout, trace, baselines.tolist()) == deepest


# -- features ---------------------------------------------------------------------

def test_resample_constant_drop(layout):
    n = 50
    seg = EventSegment(
        start=0, dt=0.01,
        baselines=tuple([-40.0] * 9),
        rssi=np.full((n, 9), -50.0),
        windows=windows_of(layout, {1: (0.0, (n - 1) * 0.01), 5: (0.1, (n - 1) * 0.01)}),
    )
    assert seg.t_start == 0.0 and seg.t_end == (n - 1) * 0.01
    row = feature_row(seg, layout)
    profile = row[len(SCALAR_COLUMNS):]
    assert len(profile) == 9 * 32
    assert all(x == pytest.approx(10.0) for x in profile)
    assert row[SCALAR_COLUMNS.index("drop_magnitude")] == pytest.approx(10.0)


def test_resample_two_points_are_endpoints(layout):
    drops = np.array([1.0, 5.0, 7.0, 2.0])
    seg = EventSegment(
        start=0, dt=0.01,
        baselines=tuple([-40.0] * 9),
        rssi=np.tile(-40.0 - drops[:, None], (1, 9)),
        windows=windows_of(layout, {1: (0.0, 0.03), 5: (0.01, 0.03)}),
    )
    assert seg.t_start == 0.0 and seg.t_end == 0.03
    row = feature_row(seg, layout, FeatureConfig(resample_points=2))
    per_link = tuple(row[len(SCALAR_COLUMNS):][:2])
    assert per_link == (pytest.approx(1.0), pytest.approx(2.0))


def test_feature_dimensionality(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    records = []
    for event_id, speed in ((1, 6.0), (2, 18.0)):  # very different durations
        ev = passage(layout, patterns, quiet_channel, car, speed=speed)
        records.append(SegmentRecord(event_id, "passenger car", "passenger_car",
                                     detect_events(ev.rssi, ev.dt, layout, DET)[0]))
    table = featurize_records(records, layout)
    assert feature_matrix(table, "both").shape[1] == 9 * 32 + 1
    assert table.columns[len(SCALAR_COLUMNS):] == tuple(f"f_{i}" for i in range(288))
    X = feature_matrix(table, "both")
    assert X.shape == (2, 289)
    assert feature_matrix(table, "length").shape == (2, 1)


def test_feature_config_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        FeatureConfig(resample_points=1)
    with pytest.raises(ConfigurationError, match="unknown link selection 'diagonal'"):
        FeatureConfig(links_used="diagonal")
    # est_length is in every table: there is no key that turns it off
    p = tmp_path / "no_features.ini"
    p.write_text("[features]\ninclude_length = false\ninclude_rssi = false\n")
    with pytest.raises(ConfigurationError):
        load_config(p)


def test_feature_matrix_selects_columns():
    values = np.arange(12.0).reshape(2, 6)  # three scalars, then f_0 .. f_2
    table = FeatureTable((4, 3), ("bus", "van"), ("truck", "passenger_car"), values)
    assert table.columns == SCALAR_COLUMNS + ("f_0", "f_1", "f_2")
    assert len(table) == 2 and not table.values.flags.writeable
    assert feature_matrix(table, "length").tolist() == [[1.0], [7.0]]
    assert feature_matrix(table, "rssi").tolist() == [[3.0, 4.0, 5.0], [9.0, 10.0, 11.0]]
    assert feature_matrix(table, "both").tolist() == [[3.0, 4.0, 5.0, 1.0],
                                                      [9.0, 10.0, 11.0, 7.0]]
    with pytest.raises(ConfigurationError):
        feature_matrix(table, "speed")


def test_feature_matrix_without_profile_columns_names_the_table():
    table = FeatureTable((1,), ("bus",), ("truck",), [[10.0, 12.0, 8.0]], source="t.csv")
    assert feature_matrix(table, "length").tolist() == [[12.0]]
    for feature_set in ("rssi", "both"):
        with pytest.raises(InputDataError, match="t.csv"):
            feature_matrix(table, feature_set)


def test_degenerate_segment_rejected(layout):
    seg = EventSegment(
        start=100, dt=0.01,
        baselines=tuple([-40.0] * 9),
        rssi=np.full((1, 9), -50.0),
        windows=windows_of(layout, {1: (1.0, 1.01), 5: (1.5, 1.51)}),
    )
    assert seg.t_start == seg.t_end == 1.0
    with pytest.raises(InputDataError, match="degenerate zero-duration segment"):
        feature_row(seg, layout)


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
    save_segments(records, p, layout, tmp_path / "dataset.jsonl",
                  hashlib.sha256((tmp_path / "dataset.jsonl").read_bytes()).hexdigest())
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
        assert a.segment.windows.tobytes() == b.segment.windows.tobytes()  # NaN rows too
    # features computed from loaded segments match the direct path
    direct = featurize_records(records, layout)
    via_file = featurize_records(loaded, layout)
    assert table_fields(direct) == table_fields(via_file)


def test_features_csv_round_trip(tmp_path, layout, patterns, app_config):
    ds = small_dataset(layout, patterns, app_config)
    table, _ = featurize_dataset(ds, layout, DET, FeatureConfig())
    p = tmp_path / "features.csv"
    save_features_csv(table, p)
    loaded = load_features_csv(p)
    assert table_fields(loaded) == table_fields(table)
    assert loaded.source == str(p)


def test_features_csv_is_what_csv_writer_makes(tmp_path):
    names = ("plain", 'say "hi", twice', "two\nlines")
    values = [[0.1, -0.0, 0.0, 5e-324], [1e300, 0.1, -1.5, 0.0], [2.0 / 3.0, 0.0, -0.0, 7.0]]
    table = FeatureTable((7, 8, 9), names, names, values)
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    save_features_csv(table, ours)
    with theirs.open("w", newline="") as fh:  # csv.writer with every float as '.17g'
        writer = csv.writer(fh)
        writer.writerow(("event_id", "type_name", "label") + table.columns)
        writer.writerows((i, n, n, *(format(x, ".17g") for x in row))
                         for i, n, row in zip(table.event_ids, names, table.values))
    assert ours.read_bytes() == theirs.read_bytes()
    assert table_fields(load_features_csv(ours)) == table_fields(table)



def small_table(values, names=("van",)):
    values = np.array(values, dtype=float)
    names = (names * len(values))[:len(values)]
    return FeatureTable(tuple(range(1, len(values) + 1)), names, ("passenger_car",) * len(values),
                        values)


@pytest.mark.parametrize("name", ['car, "big"\nvan', 'the "big" van'])
def test_a_quoted_type_name_round_trips_row_by_row(tmp_path, name):
    table = small_table([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]], names=(name,))
    p = tmp_path / "features.csv"
    save_features_csv(table, p)
    assert pipeline._split_at_once(p.read_bytes().decode()) == (None, None)  # csv.reader reads it
    assert table_fields(load_features_csv(p)) == table_fields(table)


def test_minus_zero_is_written_as_minus_0_and_read_back_signed(tmp_path):
    table = small_table([[-0.0, 0.0, -0.0, 1.5]])
    p = tmp_path / "features.csv"
    save_features_csv(table, p)
    assert p.read_bytes().endswith(b"\r\n1,van,passenger_car,-0,0,-0,1.5\r\n")
    assert pipeline._split_at_once(p.read_bytes().decode())[1] is not None  # read in one call
    assert np.signbit(load_features_csv(p).values).tolist() == [[True, False, True, False]]


@pytest.mark.parametrize("ends", [b"\n", b"\r"])
def test_a_table_with_other_line_ends_reads_as_csv_reader_reads_it(tmp_path, ends):
    table = small_table([[1.0, 2.5, -0.0, 4.0], [5.0, 1e-300, 7.0, 8.0], [9.0, 1.0, 2.0, 3.0]])
    crlf, other, mixed = tmp_path / "crlf.csv", tmp_path / "other.csv", tmp_path / "mixed.csv"
    save_features_csv(table, crlf)
    other.write_bytes(crlf.read_bytes().replace(b"\r\n", ends))
    mixed.write_bytes(crlf.read_bytes().replace(b"\r\n", ends, 2))  # header and first row
    for p in (other, mixed):
        assert table_fields(load_features_csv(p)) == table_fields(table)
    # inside a CRLF line, a lone line end still ends the row, as csv.reader reads it
    crlf.write_bytes(crlf.read_bytes().replace(b",passenger", b"," + ends + b"passenger", 1))
    with pytest.raises(InputDataError, match=":2: 3 cells under a 7-column header"):
        load_features_csv(crlf)


# Cell texts float() reads, or refuses, in more ways than loadtxt: underscores, non-ASCII
# digits and spaces, ASCII separators it does not strip, comment marks
ODD = "_ \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u0661#x\0"
CELL = (st.text("0123456789.eE+-infatyINFATY" + ODD, max_size=9)
        | st.tuples(st.text(ODD, max_size=2), st.floats().map(repr) | st.integers().map(str),
                    st.text(ODD, max_size=2)).map("".join))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cell=CELL, row=st.integers(0, 1), column=st.integers(3, 6))
def test_a_numeric_cell_reads_as_float_reads_it(tmp_path_factory, cell, row, column):
    p = tmp_path_factory.mktemp("cell") / "features.csv"
    save_features_csv(small_table([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]), p)
    lines = p.read_bytes().decode().split("\r\n")
    cells = lines[row + 1].split(",")
    cells[column] = cell
    lines[row + 1] = ",".join(cells)
    p.write_bytes("\r\n".join(lines).encode())
    try:
        want = float(cell)
    except ValueError:
        want = None
    if want is None or not math.isfinite(want):
        with pytest.raises(InputDataError, match=f":{row + 2}: "):
            load_features_csv(p)
    else:
        got = load_features_csv(p).values[row, column - 3]
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# -- reflection study -----------------------------------------------------------------

def test_reflection_study_gap(layout, patterns, app_config):
    mix = {t: 4 for t in app_config.catalog}
    study = reflection_study(layout, app_config.channel, patterns, app_config.catalog,
                             mix, app_config.sim, seed=42, det_cfg=DET)
    assert study["gaps"]["on"] >= 4.0
    assert study["gaps"]["off"] < study["gaps"]["on"]
    expected_counts = {"passenger_car": 16, "truck": 8}
    for variant in ("on", "off"):
        for label in ("passenger_car", "truck"):
            s = study["variants"][variant][label]
            assert s["count"] == expected_counts[label]
            assert s["min"] <= s["mean"] <= s["max"]
            assert sum(lab == label for _, lab, _ in study["drops"][variant]) == s["count"]


def test_single_class_study_rejected(layout, patterns, app_config):
    ds = small_dataset(layout, patterns, app_config, mix={"truck": 3}, seed=2)
    with pytest.raises(InputDataError):
        dataset_drop_stats(ds, layout, DET)
