import base64
import json
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radiobarrier import simulator
from radiobarrier.errors import ConfigurationError, InputDataError
from radiobarrier.geometry import LayoutConfig, build_layout
from radiobarrier.propagation import AntennaPattern, ChannelConfig, fspl
from radiobarrier.simulator import (
    RSSI_STEP_DB,
    PassageEvent,
    SimulationConfig,
    _draw_event,
    _event_rng,
    baseline_rssi,
    config_fingerprint,
    dumps_compact,
    generate_dataset,
    load_dataset,
    read_events,
    save_dataset,
)

from conftest import simulate_passage

OMNI = {i: AntennaPattern(kind="omni") for i in range(1, 7)}


def centered_lane(layout, vehicle):
    return (layout.road_width - vehicle.width) / 2.0


# -- baseline -----------------------------------------------------------------

def test_direct_baselines_equal(layout, patterns, quiet_channel):
    base = baseline_rssi(layout, quiet_channel, patterns)
    direct = [base[j] for j, l in enumerate(layout.links) if l.kind == "direct"]
    assert max(direct) - min(direct) < 1e-12


def test_diagonals_weaker_than_direct(layout, patterns, quiet_channel):
    base = baseline_rssi(layout, quiet_channel, patterns)
    direct = [base[j] for j, l in enumerate(layout.links) if l.kind == "direct"]
    diagonal = [base[j] for j, l in enumerate(layout.links) if l.kind == "diagonal"]
    assert max(diagonal) < min(direct)


def test_baseline_matches_fspl_arithmetic(layout):
    chan = ChannelConfig(reflection_magnitude=0.0, noise_sigma=0.0)
    base = baseline_rssi(layout, chan, OMNI)
    for j, link in enumerate(layout.links):
        assert base[j] == pytest.approx(chan.tx_power - fspl(link.length, chan.frequency),
                                        abs=1e-12)


# -- simulate_passage ------------------------------------------------------------

def test_car_min_depth_exceeds_10db(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    base = baseline_rssi(layout, quiet_channel, patterns)
    ev = simulate_passage(layout, quiet_channel, patterns, car, 10.0,
                          centered_lane(layout, car), seed=0)
    for j in range(len(layout.links)):
        depth = base[j] - ev.rssi[:, j].min()
        assert depth > 10.0


def test_truck_gap_peak_between_troughs(signature_layout, signature_patterns,
                                        quiet_channel, app_config):
    # tractor + trailer produce two troughs with a local maximum between them
    truck = app_config.catalog["truck"]
    base = baseline_rssi(signature_layout, quiet_channel, signature_patterns)
    ev = simulate_passage(signature_layout, quiet_channel, signature_patterns, truck,
                          10.0, centered_lane(signature_layout, truck), seed=0)
    j = 4  # middle direct link
    drops = base[j] - ev.rssi[:, j]
    blocked = np.flatnonzero(drops > 1.0)
    window = drops[blocked[0]:blocked[-1] + 1]
    third = len(window) // 3
    tractor_shoulder = window[:third].max()
    gap_peak_drop = window[third:2 * third].min()
    trailer_shoulder = window[2 * third:].max()
    deeper = max(tractor_shoulder, trailer_shoulder)
    assert deeper - gap_peak_drop >= 3.0


def test_doubling_speed_halves_occlusion(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    base = baseline_rssi(layout, quiet_channel, patterns)

    def occlusion_frames(speed):
        ev = simulate_passage(layout, quiet_channel, patterns, car, speed,
                              centered_lane(layout, car), seed=0)
        j = 4
        return int((ev.rssi[:, j] < base[j] - 6.0).sum())

    slow = occlusion_frames(8.0)
    fast = occlusion_frames(16.0)
    assert abs(fast - slow / 2.0) <= 1.0


def test_preroll_equals_baseline_at_zero_noise(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    base = baseline_rssi(layout, quiet_channel, patterns)
    sim = SimulationConfig(pre_roll=0.5)
    ev = simulate_passage(layout, quiet_channel, patterns, car, 10.0,
                          centered_lane(layout, car), seed=0, sim=sim)
    n_roll = int(0.5 / sim.dt)
    for row in ev.rssi[:n_roll]:
        assert tuple(row) == tuple(base)


def test_occlusion_duration_matches_geometry(layout, patterns, quiet_channel, app_config):
    # duration ~ (length + width * |dx_path| / road_width) / speed, +- 2 frames
    car = app_config.catalog["passenger car"]
    base = baseline_rssi(layout, quiet_channel, patterns)
    speed = 10.0
    ev = simulate_passage(layout, quiet_channel, patterns, car, speed,
                          centered_lane(layout, car), seed=0)
    for j, link in enumerate(layout.links):
        blocked = np.flatnonzero(ev.rssi[:, j] < base[j] - 1e-6)
        measured = (len(blocked)) * 0.01
        delta_x = link.endpoints[1][0] - link.endpoints[0][0]
        expected = (car.total_length + car.width * abs(delta_x) / layout.road_width) / speed
        assert measured == pytest.approx(expected, abs=0.02)


def test_vehicle_must_fit_lane(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    with pytest.raises(ConfigurationError):
        simulate_passage(layout, quiet_channel, patterns, car, 10.0, 6.5, seed=0)
    with pytest.raises(ConfigurationError):
        simulate_passage(layout, quiet_channel, patterns, car, 0.0,
                         centered_lane(layout, car), seed=0)


def test_true_metadata_recorded(layout, patterns, quiet_channel, app_config):
    truck = app_config.catalog["truck"]
    ev = simulate_passage(layout, quiet_channel, patterns, truck, 12.5,
                          centered_lane(layout, truck), seed=0, event_id=17)
    assert ev.true_speed == 12.5
    assert ev.true_length == pytest.approx(15.8)
    assert ev.event_id == 17
    assert ev.label == "truck"


def test_trace_is_read_only_frames_by_links(layout, patterns, quiet_channel, app_config):
    car = app_config.catalog["passenger car"]
    ev = simulate_passage(layout, quiet_channel, patterns, car, 10.0,
                          centered_lane(layout, car), seed=0)
    assert ev.rssi.dtype == np.float64
    assert ev.rssi.shape[1] == len(layout.links)
    with pytest.raises(ValueError):
        ev.rssi[0, 0] = 0.0


# -- generate_dataset ---------------------------------------------------------

def test_small_mix_counts_and_labels(layout, patterns, app_config):
    ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                          {"passenger car": 2}, app_config.sim, seed=1)
    assert len(ds.events) == 2
    assert all(ev.label == "passenger_car" for ev in ds.events)
    assert [ev.event_id for ev in ds.events] == [1, 2]


def test_empty_mix_rejected(layout, patterns, app_config):
    with pytest.raises(ConfigurationError):
        generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                         {}, app_config.sim, seed=1)
    with pytest.raises(ConfigurationError):
        generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                         {"hovercraft": 3}, app_config.sim, seed=1)


def test_dataset_rssi_is_whole_steps_of_the_exact_trace(layout, patterns, app_config):
    car = app_config.catalog["passenger car"]
    ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                          {"passenger car": 1, "truck": 1}, app_config.sim, seed=5)
    for ev in ds.events:
        assert (np.mod(ev.rssi, RSSI_STEP_DB) == 0).all()
    # the same event from simulate_passage, after the event's speed and lane draws
    rng = _event_rng(5, 1)
    rng.uniform(size=2)
    first = ds.events[0]
    exact = simulate_passage(layout, app_config.channel, patterns, car, first.true_speed,
                             first.lane_y, rng, app_config.sim, event_id=1)
    assert not (np.mod(exact.rssi, RSSI_STEP_DB) == 0).any()
    assert np.abs(first.rssi - exact.rssi).max() <= RSSI_STEP_DB / 2


def test_same_seed_reproduces_bytes(tmp_path, layout, patterns, app_config):
    mix = {"passenger car": 2, "truck": 1}
    paths = []
    for run in range(2):
        ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                              mix, app_config.sim, seed=99)
        p = tmp_path / f"run{run}.jsonl"
        save_dataset(ds, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_event_traces_independent_of_mix(layout, patterns, app_config):
    # event 1 must be identical whether or not later events exist
    big = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                           {"passenger car": 1, "truck": 2}, app_config.sim, seed=4)
    small = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                             {"passenger car": 1}, app_config.sim, seed=4)
    assert np.array_equal(big.events[0].rssi, small.events[0].rssi)
    assert big.events[0].true_speed == small.events[0].true_speed


def test_batches_that_do_not_divide_the_mix(layout, patterns, app_config, monkeypatch):
    # 7 passages of 273 to 716 frames per type fill batches of 1,000 frames unevenly;
    # each event equals its one-passage simulation
    monkeypatch.setattr(simulator, "BATCH_FRAMES", 1000)
    mix = {t: 7 for t in app_config.catalog}
    dataset = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                               mix, app_config.sim, seed=13)
    assert [ev.event_id for ev in dataset.events] == list(range(1, 7 * len(mix) + 1))
    for ev in dataset.events:
        vehicle = app_config.catalog[ev.type_name]
        _, speed, lane_y, rng = _draw_event(layout, vehicle, app_config.sim, 13, ev.event_id)
        alone = simulate_passage(layout, app_config.channel, patterns, vehicle, speed, lane_y,
                                 rng, app_config.sim, event_id=ev.event_id)
        assert np.array_equal(ev.rssi, np.round(alone.rssi / RSSI_STEP_DB) * RSSI_STEP_DB)


def test_dataset_round_trip(tmp_path, layout, patterns, app_config):
    ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                          {"van": 1, "bus": 1}, app_config.sim, seed=3)
    p = tmp_path / "ds.jsonl"
    save_dataset(ds, p)
    loaded = load_dataset(p)
    assert loaded.metadata["seed"] == 3
    assert len(loaded.events) == 2
    for a, b in zip(ds.events, loaded.events):
        assert a.event_id == b.event_id
        assert a.type_name == b.type_name
        assert a.true_speed == b.true_speed
        assert np.array_equal(a.rssi, b.rssi)
    p2 = tmp_path / "ds2.jsonl"
    save_dataset(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def _event(rssi):
    return PassageEvent(1, "van", 10.0, 5.0, 2.5, rssi)


def test_an_event_copies_an_array_someone_can_still_write():
    owned, raw = np.zeros((4, 3)), bytearray(96)
    view = owned[1:].view()
    view.flags.writeable = False  # read-only, but `owned` still writes its memory
    over_bytes = np.frombuffer(raw, np.float64).reshape(4, 3)
    over_bytes.flags.writeable = False  # read-only, but `raw` still writes its memory
    frozen = np.zeros((4, 3))
    frozen.flags.writeable = False
    events = [_event(given) for given in
              (owned, view, over_bytes, frozen.astype(np.float32), [[0.0] * 3])]
    owned[:], raw[:8] = 5.0, b"\xff" * 8
    for ev in events:
        assert ev.rssi.dtype == np.float64 and not ev.rssi.flags.writeable
        assert not ev.rssi.any()
    assert _event(frozen[1:]).rssi.base is frozen  # nobody can write its memory: kept


def test_the_events_of_one_read_share_one_read_only_array(tmp_path, layout, patterns,
                                                          app_config):
    ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                          {"van": 2, "bus": 2}, app_config.sim, seed=3)
    p = tmp_path / "ds.jsonl"
    save_dataset(ds, p)
    _, events, _ = read_events(p)
    for got in (ds.events, events):
        assert all(not ev.rssi.flags.writeable and not ev.rssi.base.flags.writeable
                   for ev in got)
    assert all(ev.rssi.base is events[0].rssi.base for ev in events)
    assert len(events[0].rssi.base) == sum(len(ev.rssi) for ev in events)
    for a, b in zip(ds.events, events):
        assert np.array_equal(a.rssi, b.rssi) and not np.shares_memory(a.rssi, b.rssi)
    with pytest.raises(ValueError):
        events[0].rssi.base[0, 0] = 0.0


def _encode(counts):
    """Standard base64 of int8 RSSI step counts, as a dataset line stores them."""
    return base64.b64encode(np.asarray(counts).astype("i1").tobytes()).decode("ascii")


def _counts(record):
    """The RSSI step counts of a dataset line, as a writable flat int8 array."""
    return np.frombuffer(base64.b64decode(record["values"]), "i1").copy()


def test_event_line_equals_dumps_compact(tmp_path, layout, patterns, app_config):
    ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                          {"van": 1, "truck": 1}, app_config.sim, seed=6)
    p = tmp_path / "ds.jsonl"
    save_dataset(ds, p)
    lines = p.read_text().splitlines()
    assert lines[0] == dumps_compact(ds.metadata)
    assert json.loads(lines[0])["version"] == 4
    for ev, line in zip(ds.events, lines[1:]):
        record = {
            "event_id": ev.event_id, "type_name": ev.type_name,
            "true_speed": ev.true_speed, "true_length": ev.true_length,
            "lane_y": ev.lane_y, "frames": len(ev.rssi),
            "values": _encode(ev.rssi / RSSI_STEP_DB),
        }
        assert line == dumps_compact(record)


def test_save_refuses_samples_that_are_not_whole_steps(tmp_path, layout, patterns, app_config):
    car = app_config.catalog["passenger car"]
    exact = simulate_passage(layout, app_config.channel, patterns, car, 10.0,
                             centered_lane(layout, car), 1, app_config.sim, event_id=1)
    p = tmp_path / "ds.jsonl"
    with pytest.raises(ConfigurationError, match="int8 count"):
        save_dataset(simulator.Dataset(events=(exact,), metadata={}), p)
    assert not p.exists()


@pytest.mark.parametrize("seed", [42, 7])
def test_exact_samples_keep_clear_of_the_rounding_boundaries(monkeypatch, layout, patterns,
                                                             app_config, seed):
    # generate rounds each exact sample to RSSI_STEP_DB once.  The exact values differ by
    # about an ulp (7e-15 dB near -60 dB) between numpy's SIMD code paths, so only a sample
    # that close to a half-step boundary could round apart.  On the default mix the closest
    # lies 1.4e-7 dB (seed 42) and 2.7e-7 dB (seed 7) from one.
    monkeypatch.setattr(simulator, "RSSI_STEP_DB", None)
    exact = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                             {t: 50 for t in app_config.catalog}, app_config.sim, seed=seed)
    counts = np.concatenate([ev.rssi for ev in exact.events]) / RSSI_STEP_DB
    assert (counts % 1.0 != 0.0).any()  # unrounded
    assert np.abs(counts % 1.0 - 0.5).min() * RSSI_STEP_DB >= 1e-9


@pytest.mark.parametrize("count", [0.5, -2.5, 127.5, 128.0, -129.0, 1e300,
                                   np.nan, np.inf, -np.inf])
def test_encode_refuses_each_count_int8_cannot_hold(count):
    rssi = np.array([[-60.0, -61.0], [count * RSSI_STEP_DB, -62.0]])
    with pytest.raises(ConfigurationError, match=re.escape(f"which {count * RSSI_STEP_DB!r} dB is not")):
        simulator._encode_samples(rssi)


def test_encode_keeps_the_int8_edges():
    rssi = np.array([[-128.0, 127.0, -0.0, 0.0, -1.0]]) * RSSI_STEP_DB
    assert base64.b64decode(simulator._encode_samples(rssi)) == \
        np.array([-128, 127, 0, 0, -1], dtype="i1").tobytes()


# the int8 step counts of one to three events on one to nine links
COUNT_MATRICES = st.integers(1, 9).flatmap(lambda links: st.lists(
    arrays(np.int8, st.tuples(st.integers(1, 50), st.just(links))), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(matrices=COUNT_MATRICES)
def test_every_int8_count_matrix_reads_back_bit_identical(matrices):
    links = matrices[0].shape[1]
    events = tuple(PassageEvent(event_id, "van", 10.0, 5.0, 2.5, counts * RSSI_STEP_DB)
                   for event_id, counts in enumerate(matrices, start=1))
    metadata = {"format": simulator.FORMAT_NAME, "version": simulator.FORMAT_VERSION, "dt": 0.01,
                "link_ids": list(range(1, links + 1)), "event_count": len(events)}
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "ds.jsonl"
        save_dataset(simulator.Dataset(events=events, metadata=metadata), p)
        _, loaded, _ = read_events(p)
    assert [ev.rssi.tobytes() for ev in loaded] == [ev.rssi.tobytes() for ev in events]
    assert all(ev.rssi.dtype == np.float64 and ev.rssi.shape == (len(counts), links)
               for ev, counts in zip(loaded, matrices))


def test_lines_of_an_earlier_writer_with_extra_keys_load(tmp_path, layout, patterns,
                                                           app_config):
    # datasets written before the per-line fingerprint was dropped still load
    ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                          {"van": 1, "truck": 1}, app_config.sim, seed=6)
    p = tmp_path / "ds.jsonl"
    save_dataset(ds, p)
    lines = p.read_text().splitlines()
    for i in range(1, len(lines)):
        lines[i] = lines[i].replace('{"event_id"',
                                    '{"fingerprint":"cdba1a75e9fe6a66","event_id"', 1)
    p.write_text("\n".join(lines) + "\n")
    loaded = load_dataset(p)
    assert [ev.event_id for ev in loaded.events] == [1, 2]
    for a, b in zip(ds.events, loaded.events):
        assert np.array_equal(a.rssi, b.rssi)


def _drop_dt(lines):
    # the header's dt is the dataset's only one
    header = json.loads(lines[0])
    del header["dt"]
    lines[0] = json.dumps(header)


def _ragged(lines):
    # one sample short: a byte count that does not fit frames x links
    record = json.loads(lines[1])
    record["values"] = _encode(_counts(record)[:-1])
    lines[1] = json.dumps(record)


def _narrow(lines):
    # one link short on every frame: only `frames` tells it from fewer frames of 9 links
    record = json.loads(lines[2])
    record["values"] = _encode(_counts(record).reshape(record["frames"], -1)[:, :-1])
    lines[2] = json.dumps(record)


def _not_finite(lines):
    # only a version-1 list of numbers can hold a NaN sample, and a list is refused
    record = json.loads(lines[1])
    values = (_counts(record).reshape(record["frames"], -1) * RSSI_STEP_DB).tolist()
    values[5][2] = float("nan")
    record["values"] = values
    lines[1] = json.dumps(record)


def _outside_alphabet(lines):
    # a lenient decoder would skip the "*" and load the samples
    record = json.loads(lines[1])
    record["values"] = record["values"][:40] + "*" + record["values"][40:]
    lines[1] = json.dumps(record)


def _frames_disagree(lines):
    record = json.loads(lines[2])
    record["frames"] += 1
    lines[2] = json.dumps(record)


def _no_frames(lines):
    record = json.loads(lines[1])
    record["frames"], record["values"] = 0, ""
    lines[1] = json.dumps(record)


def _version_1_header(lines):
    header = json.loads(lines[0])
    header["version"] = 1
    lines[0] = json.dumps(header)


def _infinite_speed(lines):
    record = json.loads(lines[1])
    record["true_speed"] = float("inf")
    lines[1] = json.dumps(record)


def _short_by_one(lines):
    del lines[2]


def _string_dt(lines):
    header = json.loads(lines[0])
    header["dt"] = "0.01"
    lines[0] = json.dumps(header)


def _unknown_type(lines):
    # a type name fixes the label, so one outside the grouping has none
    record = json.loads(lines[1])
    record["type_name"] = "bicycle"
    lines[1] = json.dumps(record)


@pytest.mark.parametrize("mutate", [_drop_dt, _ragged, _narrow, _not_finite, _infinite_speed,
                                    _short_by_one, _string_dt, _outside_alphabet,
                                    _frames_disagree, _no_frames, _version_1_header,
                                    _unknown_type])
def test_load_rejects_malformed_lines(tmp_path, layout, patterns, app_config, mutate):
    ds = generate_dataset(layout, app_config.channel, patterns, app_config.catalog,
                          {"passenger car": 2}, app_config.sim, seed=2)
    p = tmp_path / "ds.jsonl"
    save_dataset(ds, p)
    lines = p.read_text().splitlines()
    mutate(lines)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputDataError):
        load_dataset(p)


# -- config fingerprint ---------------------------------------------------------

def _changed(value):
    """A valid value different from `value`, for each kind of config field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 1.5 + 0.25
    if isinstance(value, str):
        return "omni" if value == "directional" else "directional"
    if isinstance(value, tuple):
        return tuple(_changed(v) for v in value)
    if isinstance(value, dict):
        return {**value, "truck": (5.0, 10.0)}
    raise TypeError(f"no changed value for {value!r}")


@pytest.mark.parametrize("part, name", [
    (cls.__name__, f.name)
    for cls in (ChannelConfig, SimulationConfig, AntennaPattern) for f in fields(cls)
] + [("SensorLayout", "spacing")])
def test_fingerprint_changes_with_every_field(layout, patterns, app_config, part, name):
    parts = {"layout": layout, "channel": app_config.channel, "patterns": patterns,
             "sim": app_config.sim}
    before = config_fingerprint(**parts)
    if part == "SensorLayout":
        parts["layout"] = build_layout(LayoutConfig(spacing=4.0))
    elif part == "AntennaPattern":
        node_id, pattern = next(iter(patterns.items()))
        parts["patterns"] = {**patterns, node_id: replace(
            pattern, **{name: _changed(getattr(pattern, name))})}
    else:
        key = "channel" if part == "ChannelConfig" else "sim"
        parts[key] = replace(parts[key], **{name: _changed(getattr(parts[key], name))})
    assert config_fingerprint(**parts) != before


def test_fingerprint_changes_with_the_rssi_step(layout, patterns, app_config, monkeypatch):
    parts = (layout, app_config.channel, patterns, app_config.sim)
    before = config_fingerprint(*parts)
    monkeypatch.setattr(simulator, "RSSI_STEP_DB", 0.5)
    assert config_fingerprint(*parts) != before
