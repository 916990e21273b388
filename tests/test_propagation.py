import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier.geometry import BodySegment, Pose, RadioLink, VehicleSpec
from radiobarrier import propagation
from radiobarrier.propagation import (
    SPEED_OF_LIGHT,
    AntennaPattern,
    ChannelConfig,
    antenna_gain,
    build_link_context,
    fresnel_v,
    fspl,
    gain_toward,
    knife_edge_loss,
    noiseless_rssi,
    obstruction_loss,
    passage_loss,
    path_rssi,
    received_rssi,
    wavelength,
)

OMNI = AntennaPattern(kind="omni", peak_gain=0.0)


def simple_link(d=7.0, z=0.6, link_id=1):
    return RadioLink(link_id, 1, 2, "direct", ((0.0, 0.0, z), (0.0, d, z)))


# -- wavelength ---------------------------------------------------------------

def test_wavelength_2g4():
    assert wavelength(2.4e9) == pytest.approx(0.12491, abs=1e-5)


def test_wavelength_definition():
    assert wavelength(SPEED_OF_LIGHT) == pytest.approx(1.0)


def test_wavelength_inverse_proportional():
    assert wavelength(1.2e9) == pytest.approx(2.0 * wavelength(2.4e9))


def test_wavelength_rejects_nonpositive():
    with pytest.raises(ValueError):
        wavelength(0.0)


# -- fspl ----------------------------------------------------------------------

def test_fspl_reference_value():
    assert fspl(7.0, 2.4e9) == pytest.approx(56.96, abs=0.01)


def test_fspl_zero_point():
    d = SPEED_OF_LIGHT / (4.0 * math.pi * 2.4e9)
    assert fspl(d, 2.4e9) == pytest.approx(0.0, abs=1e-12)


def test_fspl_doubling_distance():
    assert fspl(14.0, 2.4e9) - fspl(7.0, 2.4e9) == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_fspl_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        fspl(0.0, 2.4e9)
    with pytest.raises(ValueError):
        fspl(-3.0, 2.4e9)


# -- antenna gain ----------------------------------------------------------------

DIRECTIONAL = AntennaPattern(
    kind="directional", peak_gain=7.1, azimuth_beamwidth=60.0,
    elevation_beamwidth=30.0, downtilt=5.0,
)


def test_gain_on_boresight():
    assert antenna_gain(DIRECTIONAL, 0.0, 0.0) == pytest.approx(7.1)


def test_gain_half_power_at_half_beamwidth():
    assert antenna_gain(DIRECTIONAL, 30.0, 0.0) == pytest.approx(7.1 - 3.0)


def test_gain_clamped_20db_below_peak():
    # -12 * (90/60)^2 = -27 dB would exceed the clamp
    assert antenna_gain(DIRECTIONAL, 90.0, 0.0) == pytest.approx(-12.9)


def test_omni_gain_is_constant():
    pat = AntennaPattern(kind="omni", peak_gain=2.0)
    assert antenna_gain(pat, 123.0, -45.0) == 2.0
    assert gain_toward(pat, (0, 0, 1), (9, 9, 9)) == 2.0


def test_gain_toward_includes_downtilt():
    pat = AntennaPattern(kind="directional", peak_gain=7.1, boresight_azimuth=90.0,
                         downtilt=5.0, azimuth_beamwidth=60.0, elevation_beamwidth=30.0)
    # level target straight across: az offset 0, but elevation offset = downtilt
    g = gain_toward(pat, (0.0, 0.0, 0.6), (0.0, 7.0, 0.6))
    assert g == pytest.approx(7.1 - 12.0 * (5.0 / 30.0) ** 2)


# -- fresnel parameter ------------------------------------------------------------

def test_fresnel_v_zero_at_grazing():
    assert fresnel_v(0.0, 3.5, 3.5, 0.125) == 0.0


def test_fresnel_v_reference_value():
    # independent evaluation: h * sqrt(2) * sqrt((d1+d2)/(lam*d1*d2))
    expected = 1.0 * math.sqrt(2.0) * math.sqrt(7.0 / (0.125 * 3.5 * 3.5))
    assert expected == pytest.approx(3.0237157840, abs=1e-9)
    assert fresnel_v(1.0, 3.5, 3.5, 0.125) == pytest.approx(expected, rel=1e-12)


def test_fresnel_v_sign_linearity():
    v = fresnel_v(0.7, 2.0, 5.0, 0.125)
    assert fresnel_v(-0.7, 2.0, 5.0, 0.125) == pytest.approx(-v)


def test_fresnel_v_rejects_bad_distances():
    with pytest.raises(ValueError):
        fresnel_v(1.0, 0.0, 3.5, 0.125)
    with pytest.raises(ValueError):
        fresnel_v(1.0, 3.5, -1.0, 0.125)


def test_fresnel_v_scalar_and_array_inputs():
    assert isinstance(fresnel_v(0.7, 2.0, 5.0, 0.125), float)
    h = np.array([[-0.7, 0.0], [0.3, 1.2]])
    d1 = np.array([2.0, 3.5])
    got = fresnel_v(h, d1, 7.0 - d1, 0.125)
    assert got.shape == (2, 2)
    for (r, c), value in np.ndenumerate(h):
        assert got[r, c] == fresnel_v(float(value), float(d1[c]), float(7.0 - d1[c]), 0.125)
    assert fresnel_v(np.array([]), np.array([]), np.array([]), 0.125).shape == (0,)
    with pytest.raises(ValueError):
        fresnel_v(h, np.array([2.0, 0.0]), 3.0, 0.125)


# -- knife edge loss ----------------------------------------------------------------

def test_knife_edge_grazing_loss():
    assert knife_edge_loss(0.0) == pytest.approx(6.03, abs=0.02)


def test_knife_edge_below_cutoff_is_zero():
    assert knife_edge_loss(-2.0) == 0.0
    assert knife_edge_loss(-0.78) == 0.0


def test_knife_edge_loss_scalar_and_array_inputs():
    assert isinstance(knife_edge_loss(0.4), float)
    assert isinstance(knife_edge_loss(-2.0), float)
    vs = np.array([[-5.0, -0.78, -0.5], [0.0, 1.3, 12.0]])
    got = knife_edge_loss(vs)
    assert got.shape == (2, 3)
    for idx, v in np.ndenumerate(vs):
        assert got[idx] == knife_edge_loss(float(v))
    assert got[0, 0] == got[0, 1] == 0.0


def test_knife_edge_monotone_over_transition():
    vs = np.arange(-0.78, 10.0, 1e-3)
    losses = np.array([knife_edge_loss(float(v)) for v in vs])
    assert np.all(np.diff(losses) >= 0.0)
    assert losses[0] == pytest.approx(0.0, abs=0.01)


# -- the RSSI of single links --------------------------------------------------------

def test_one_link_friis_case():
    # no vehicle, reflection off, omni 0 dBi, sigma 0, d = 7 m
    chan = ChannelConfig(tx_power=2.5, ground_reflection_enabled=False, noise_sigma=0.0)
    ctx = build_link_context((simple_link(),), chan, {1: OMNI, 2: OMNI})
    assert received_rssi(ctx, noiseless_rssi(ctx))[0] == pytest.approx(2.5 - 56.96, abs=0.01)


def test_one_link_zero_reflection_matches_disabled():
    patterns = {1: OMNI, 2: OMNI}
    for z, d in [(0.4, 6.0), (1.2, 9.0), (0.8, 7.0)]:
        off, zero = (received_rssi(ctx, noiseless_rssi(ctx)) for ctx in (
            build_link_context((simple_link(d=d, z=z),), chan, patterns)
            for chan in (ChannelConfig(ground_reflection_enabled=False, noise_sigma=0.0),
                         ChannelConfig(reflection_magnitude=0.0, noise_sigma=0.0))))
        assert zero[0] == off[0]


def test_friis_equivalence_random_geometries():
    # |gamma| = 0 and sigma = 0 reduce the model to the pure Friis expression
    rng = np.random.default_rng(123)
    patterns = {1: OMNI, 2: OMNI}
    for _ in range(200):
        d = float(rng.uniform(2.0, 30.0))
        z1 = float(rng.uniform(0.2, 2.0))
        z2 = float(rng.uniform(0.2, 2.0))
        f = float(rng.uniform(0.4e9, 6.0e9))
        p = float(rng.uniform(-10.0, 20.0))
        link = RadioLink(1, 1, 2, "direct", ((0.0, 0.0, z1), (0.0, d, z2)))
        chan = ChannelConfig(frequency=f, tx_power=p, reflection_magnitude=0.0, noise_sigma=0.0)
        ctx = build_link_context((link,), chan, patterns)
        got = float(received_rssi(ctx, noiseless_rssi(ctx))[0])
        want = p - fspl(math.dist(*link.endpoints), f)
        assert abs(got - want) <= 1e-9


def test_car_blocks_harder_than_trailer_deck():
    # same low link: a car body vs an elevated trailer deck overhead
    ctx = build_link_context((simple_link(z=0.6),), ChannelConfig(noise_sigma=0.0),
                             {1: OMNI, 2: OMNI})
    car = VehicleSpec("passenger car", "passenger_car", (BodySegment(4.5, 1.5, 0.12),), 1.8)
    trailer = VehicleSpec("truck", "truck", (BodySegment(9.0, 4.0, 1.2),), 2.5)
    rssi_car = received_rssi(ctx, noiseless_rssi(ctx, car, Pose(2.0, 2.6)))
    rssi_trailer = received_rssi(ctx, noiseless_rssi(ctx, trailer, Pose(4.0, 2.25)))
    assert rssi_car[0] < rssi_trailer[0]


def test_vehicle_capped_by_constructive_bound():
    # with a vehicle the coherent sum cannot exceed the direct-only value by
    # more than 20*log10(2); with |gamma| <= 1/3 the vehicle-absent value is
    # within that bound too
    rng = np.random.default_rng(7)
    car = VehicleSpec("passenger car", "passenger_car", (BodySegment(4.5, 1.5, 0.12),), 1.8)
    bound = 20.0 * math.log10(2.0) + 1e-9
    for _ in range(200):
        d = float(rng.uniform(4.0, 12.0))
        z = float(rng.uniform(0.3, 1.2))
        g = float(rng.uniform(0.0, 1.0 / 3.0))
        f = float(rng.uniform(1.0e9, 6.0e9))
        link = RadioLink(1, 1, 2, "direct", ((0.0, 0.0, z), (0.0, d, z)))
        chan = ChannelConfig(frequency=f, reflection_magnitude=g, noise_sigma=0.0)
        lane = float(rng.uniform(0.5, d - 1.8 - 0.5))
        front = float(rng.uniform(-1.0, 5.0))
        ctx = build_link_context((link,), chan, {1: OMNI, 2: OMNI})
        with_vehicle = received_rssi(ctx, noiseless_rssi(ctx, car, Pose(front, lane)))[0]
        without = received_rssi(ctx, noiseless_rssi(ctx))[0]
        friis = chan.tx_power - fspl(d, f)
        assert with_vehicle <= friis + bound
        assert with_vehicle <= without + bound


def test_reciprocity(layout, patterns, quiet_channel):
    swapped = [RadioLink(link.id, link.rx_id, link.tx_id, link.kind,
                         (link.endpoints[1], link.endpoints[0])) for link in layout.links]
    fwd, back = (received_rssi(ctx, noiseless_rssi(ctx)) for ctx in
                 (build_link_context(links, quiet_channel, patterns)
                  for links in (layout.links, swapped)))
    assert back == pytest.approx(fwd, abs=1e-12)


def test_noise_requires_generator():
    ctx = build_link_context((simple_link(),), ChannelConfig(noise_sigma=1.0), {1: OMNI, 2: OMNI})
    with pytest.raises(ValueError):
        received_rssi(ctx, noiseless_rssi(ctx))


def test_noise_is_seed_deterministic():
    ctx = build_link_context((simple_link(),), ChannelConfig(noise_sigma=1.0), {1: OMNI, 2: OMNI})
    a, b = (received_rssi(ctx, noiseless_rssi(ctx), np.random.default_rng(5)) for _ in range(2))
    assert a[0] == b[0]


def test_coincident_endpoints_rejected():
    link = RadioLink(1, 1, 2, "direct", ((0.0, 0.0, 0.6), (0.0, 0.0, 0.6)))
    with pytest.raises(ValueError):
        build_link_context((link,), ChannelConfig(noise_sigma=0.0), {1: OMNI, 2: OMNI})


def test_rssi_floor_clamps():
    chan = ChannelConfig(tx_power=-80.0, ground_reflection_enabled=False,
                         noise_sigma=0.0, rssi_floor=-100.0)
    ctx = build_link_context((simple_link(d=20.0),), chan, {1: OMNI, 2: OMNI})
    assert received_rssi(ctx, noiseless_rssi(ctx))[0] == -100.0


def test_trace_smooth_inside_trough():
    # the obstruction model steps at body entry/exit but is smooth elsewhere:
    # over a 30 m/s sweep only the blocked-state transitions may jump
    chan = ChannelConfig(noise_sigma=0.0)
    patterns = {1: OMNI, 2: OMNI}
    link = simple_link(z=0.6)
    ctx = build_link_context((link,), chan, patterns)
    car = VehicleSpec("passenger car", "passenger_car", (BodySegment(4.5, 1.5, 0.12),), 1.8)
    dt, speed = 0.01, 30.0
    values = []
    for i in range(120):
        pose = Pose(front_x=-3.0 + speed * i * dt, lane_y=2.6)
        values.append(noiseless_rssi(ctx, car, pose)[0])
    deltas = np.abs(np.diff(values))
    jumps = int((deltas >= 3.0).sum())
    assert jumps <= 2  # one entry, one exit
    interior = np.sort(deltas)[:-jumps] if jumps else deltas
    assert np.all(interior < 3.0)


@pytest.mark.parametrize("reflection", [True, False])
@pytest.mark.parametrize("heading", [1, -1])
@pytest.mark.parametrize("layout_name", ["layout", "signature_layout"])
def test_whole_trace_matches_frame_by_frame(request, app_config, quiet_channel,
                                            layout_name, heading, reflection):
    # one call over every nose position and link equals one call per position
    # on a one-link context per link, for every catalog vehicle and both
    # driving directions
    layout = request.getfixturevalue(layout_name)
    patterns = app_config.build_patterns(layout)
    chan = replace(quiet_channel, ground_reflection_enabled=reflection)
    ctx = build_link_context(layout.links, chan, patterns)
    singles = [build_link_context((link,), chan, patterns) for link in layout.links]
    for vehicle in app_config.catalog.values():
        lane = (layout.road_width - vehicle.width) / 2.0
        span = layout.array_length + vehicle.total_length + 2.0
        lo = -2.0 if heading == 1 else -vehicle.total_length - 2.0
        xs = np.arange(lo, lo + span + 2.0, 0.23)
        trace = noiseless_rssi(ctx, vehicle, Pose(xs, lane, heading))
        assert trace.shape == (len(xs), len(layout.links))
        frame_by_frame = np.array([
            [noiseless_rssi(single, vehicle, Pose(float(x), lane, heading))[0]
             for single in singles]
            for x in xs
        ])
        assert np.abs(trace - frame_by_frame).max() <= 1e-9
        assert (trace < frame_by_frame.max(axis=0) - 1.0).any()  # the vehicle was seen


def _coherent_sum(ctx, loss):
    """The coherent sum of every sample written out, as a check on path_rssi."""
    n = len(ctx.base_db)
    m = (loss.shape[-1] - n) // 2
    loss_refl = np.zeros(loss.shape[:-1] + (n,))
    loss_refl[..., ctx.bounces] = loss[..., n:n + m] + loss[..., n + m:]
    a_d = 10.0 ** (-loss[..., :n] / 20.0)
    a_r = ctx.a_r0 * 10.0 ** (-loss_refl / 20.0)
    amp = np.hypot(a_d + a_r * np.cos(ctx.phase), a_r * np.sin(ctx.phase))
    return ctx.base_db + 20.0 * np.log10(amp)


def _passages(layout, vehicle, heading, dt=0.01):
    """Three passages driving nose first across the whole array: lanes at the near
    and the far road edge and in the centre, at three speeds."""
    lanes = [1e-3, (layout.road_width - vehicle.width) / 2.0,
             layout.road_width - vehicle.width - 1e-3]
    speeds = [heading * v for v in (5.0, 11.3, 19.7)]
    start = -2.0 if heading == 1 else layout.array_length + 2.0
    span = layout.array_length + vehicle.total_length + 4.0
    frames = [int(span / abs(v) / dt) + 1 for v in speeds]
    return [start] * 3, speeds, frames, lanes, dt


@pytest.mark.parametrize("reflection", [True, False])
@pytest.mark.parametrize("heading", [1, -1])
@pytest.mark.parametrize("layout_name", ["layout", "signature_layout"])
def test_ranged_batch_matches_the_full_grid(request, app_config, quiet_channel,
                                            layout_name, heading, reflection):
    # a few passages in one call, evaluated only where a body can reach a path, give
    # the losses of obstruction_loss over every (frame, path) of each passage
    layout = request.getfixturevalue(layout_name)
    chan = replace(quiet_channel, ground_reflection_enabled=reflection)
    ctx = build_link_context(layout.links, chan, app_config.build_patterns(layout))
    for vehicle in app_config.catalog.values():
        starts, speeds, frames, lanes, dt = _passages(layout, vehicle, heading)
        loss = passage_loss(ctx, vehicle, starts, speeds, frames, lanes, dt, heading)
        rssi = path_rssi(ctx, loss)
        rows = np.cumsum([0] + frames)
        for b, (x0, v, lane) in enumerate(zip(starts, speeds, lanes)):
            nose = x0 + v * (np.arange(frames[b]) * dt)
            grid = obstruction_loss(vehicle, Pose(nose[:, None], lane, heading), ctx.ends,
                                    ctx.lam)
            assert (grid > 0).any()  # the vehicle was seen
            assert loss[rows[b]:rows[b + 1]].tobytes() == grid.tobytes()
            assert np.abs(rssi[rows[b]:rows[b + 1]] - _coherent_sum(ctx, grid)).max() <= 1e-9


def test_pair_chunks_do_not_change_the_loss(app_config, layout, quiet_channel, monkeypatch):
    ctx = build_link_context(layout.links, quiet_channel, app_config.build_patterns(layout))
    truck = app_config.catalog["truck"]
    args = (ctx, truck, *_passages(layout, truck, 1))
    whole = passage_loss(*args)
    assert np.count_nonzero(whole) > 10 * 97  # many chunks of 97 pairs
    monkeypatch.setattr(propagation, "PAIR_CHUNK", 97)
    assert passage_loss(*args).tobytes() == whole.tobytes()


@st.composite
def passage_batches(draw):
    """A body of 1 to 3 segments, some with gaps, some shorter than a path's crossing of
    the lane band, with and without ground clearance, and a few passages of it: both
    headings, speeds of either sign, lanes on, beside and off the road.  One case in
    five is a batch of one-frame passages as noiseless_rssi makes them."""
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.floats(0.3, 4.5))
        segments.append(BodySegment(
            length=draw(st.sampled_from([0.05, 0.4, 1.3, 3.0, 9.0])) * draw(st.floats(0.8, 1.2)),
            top_height=top,
            ground_clearance=draw(st.sampled_from([0.0, 0.0, 0.1, 0.6])) * top,
            gap_after=draw(st.sampled_from([0.0, 0.0, 0.3, 2.0]))))
    vehicle = VehicleSpec("truck", "truck", tuple(segments), draw(st.floats(0.3, 3.0)))
    heading = draw(st.sampled_from([1, -1]))
    passages = draw(st.integers(1, 4))
    lanes = [draw(st.floats(-1.0, 8.0)) for _ in range(passages)]
    if draw(st.integers(0, 4)) == 0:
        starts = [draw(st.floats(-30.0, 40.0)) for _ in range(passages)]
        return vehicle, heading, starts, [1.0] * passages, [1] * passages, lanes, 1.0
    dt = draw(st.sampled_from([0.002, 0.01, 0.05]))
    speeds = [draw(st.sampled_from([1, -1])) * draw(st.floats(0.5, 40.0))
              for _ in range(passages)]
    starts = [draw(st.floats(-30.0, 40.0)) for _ in range(passages)]
    frames = [draw(st.integers(1, 300)) for _ in range(passages)]
    return vehicle, heading, starts, speeds, frames, lanes, dt


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(batch=passage_batches(), reflection=st.booleans())
def test_passage_loss_matches_the_full_grid_on_random_bodies(app_config, layout, quiet_channel,
                                                             batch, reflection):
    vehicle, heading, starts, speeds, frames, lanes, dt = batch
    chan = replace(quiet_channel, ground_reflection_enabled=reflection)
    ctx = build_link_context(layout.links, chan, app_config.build_patterns(layout))
    with mock.patch.object(propagation, "PAIR_CHUNK", 97):
        loss = passage_loss(ctx, vehicle, starts, speeds, frames, lanes, dt, heading)
    rows = np.cumsum([0] + frames)
    for b, (x0, v, lane) in enumerate(zip(starts, speeds, lanes)):
        nose = x0 + v * (np.arange(frames[b]) * dt)
        grid = obstruction_loss(vehicle, Pose(nose[:, None], lane, heading), ctx.ends, ctx.lam)
        assert loss[rows[b]:rows[b + 1]].tobytes() == grid.tobytes()


@pytest.mark.parametrize("heading", [1, -1])
def test_full_cover_bounds_on_a_frame(quiet_channel, heading):
    # a 4 m body drives across a path at x = 0, one metre a frame, so the nose positions
    # at which it starts and stops covering the path (0 and 4, or -4 and 0) are frames
    # 7 and 11 exactly.  The loss there equals the full grid's; frames 6, 7, 11 and 12
    # are evaluated one by one, 8 to 10 by one evaluation
    chan = replace(quiet_channel, ground_reflection_enabled=False)
    ctx = build_link_context((simple_link(),), chan, {1: OMNI, 2: OMNI})
    van = VehicleSpec("van", "passenger_car", (BodySegment(4.0, 2.0, 0.3),), 2.0)
    start, speed, frames = -7.0 * heading, 4.0 * heading, 20
    with mock.patch.object(propagation, "segment_loss",
                           wraps=propagation.segment_loss) as evaluate:
        loss = passage_loss(ctx, van, start, speed, frames, 2.5, 0.25, heading)
    # the (frame, path) pairs the kernel evaluated: one column of terms each
    assert sum(call.args[2].shape[-1] for call in evaluate.call_args_list) == 5
    nose = start + speed * (np.arange(frames) * 0.25)
    grid = obstruction_loss(van, Pose(nose[:, None], 2.5, heading), ctx.ends, ctx.lam)
    assert loss.tobytes() == grid.tobytes()
    assert np.flatnonzero(grid[:, 0]).tolist() == list(range(7, 12))


@pytest.mark.parametrize("heading", [1, -1])
@pytest.mark.parametrize("nose", [0.0, 2.0, 5.0])
def test_stationary_passage_matches_the_full_grid(app_config, layout, quiet_channel, nose,
                                                  heading):
    # a van standing still, its nose on a post (0.0 and 5.0 are range bounds) or between
    # two, holds the same loss in every frame; no frame range divides by its zero speed
    ctx = build_link_context(layout.links, quiet_channel, app_config.build_patterns(layout))
    van = app_config.catalog["van"]
    lane = (layout.road_width - van.width) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = passage_loss(ctx, van, [nose, nose], [0.0, 0.0], [7, 3], lane, 0.01, heading)
    grid = obstruction_loss(van, Pose(np.full((10, 1), nose), lane, heading), ctx.ends,
                            ctx.lam)
    assert (grid > 0).any()
    assert loss.tobytes() == grid.tobytes()


def test_a_standing_van_evaluates_each_path_once(app_config, layout, quiet_channel):
    # the van reaches paths it does not cover; every frame holds the same nose position,
    # so one evaluation per path serves all 1,000 frames
    ctx = build_link_context(layout.links, quiet_channel, app_config.build_patterns(layout))
    van = app_config.catalog["van"]
    with mock.patch.object(propagation, "segment_loss",
                           wraps=propagation.segment_loss) as evaluate:
        loss = passage_loss(ctx, van, 2.0, 0.0, 1000, 2.5, 0.01)
    pairs = sum(call.args[2].shape[-1] for call in evaluate.call_args_list)
    assert 0 < pairs <= len(van.segments) * ctx.ends.shape[-1]
    grid = obstruction_loss(van, Pose(np.full((1000, 1), 2.0), 2.5, 1), ctx.ends, ctx.lam)
    assert (grid > 0).any()
    assert loss.tobytes() == grid.tobytes()
