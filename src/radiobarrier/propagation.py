"""Analytic RF channel model for the roadside link array.

The received power on a link is composed from free-space loss, antenna
gains, knife-edge obstruction losses for every body segment a vehicle
puts into a path, and (optionally) a single specular ground reflection
added coherently to the direct ray:

    rssi = P_tx + G_tx + G_rx - FSPL(d_dir) + 20*log10(|a_d + a_r*e^{i phi}|)

with a_d = 10^(-L_dir/20) and a_r = |gamma| * (d_dir/d_refl) * 10^(-L_refl/20),
phi = arg(gamma) - 2*pi*(d_refl - d_dir)/lambda.  Obstruction losses add in
dB over intersected body segments; for a segment with ground clearance the
cheaper of the over-the-top and under-the-body detours wins.  One kernel,
segment_loss, evaluates a segment on arrays of paths: obstruction_loss sums it
over a body, and passage_loss runs it only on the frames where a segment can
reach a path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import BodySegment, Point, Pose, RadioLink, VehicleSpec, segment_x_intervals

SPEED_OF_LIGHT = 299_792_458.0
PAIR_CHUNK = 8192  # (frame, path) pairs per segment_loss call: bounds its temporaries


def wavelength(frequency: float) -> float:
    """Free-space wavelength in metres for a frequency in Hz."""
    if frequency <= 0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    return SPEED_OF_LIGHT / frequency


def fspl(distance: float, frequency: float) -> float:
    """Free-space path loss in dB: 20*log10(4*pi*d*f/c)."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if frequency <= 0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    return 20.0 * math.log10(4.0 * math.pi * distance * frequency / SPEED_OF_LIGHT)


def fresnel_v(h, d1, d2, lam):
    """Fresnel diffraction parameter for a knife edge.

    h is the signed clearance of the edge over the path (positive when the
    edge cuts into the path), d1 and d2 the sub-path lengths either side of
    the edge.  The sign of h is preserved.  Arguments broadcast like a
    ufunc's; scalars in give a float out.
    """
    if np.any(d1 <= 0) or np.any(d2 <= 0):
        raise ValueError("sub-path lengths must be positive")
    if np.any(lam <= 0):
        raise ValueError("wavelength must be positive")
    return h * np.sqrt(2.0 * (d1 + d2) / (lam * d1 * d2))


def knife_edge_loss(v):
    """Single knife-edge obstruction loss in dB (>= 0).

    Uses the standard approximation 6.9 + 20*log10(sqrt((v-0.1)^2+1)+v-0.1)
    for v > -0.78 and zero below; the result is clamped at 0 dB.  Works
    elementwise on arrays; a scalar in gives a float out.
    """
    v = np.asarray(v, dtype=float)
    loss = np.zeros(v.shape)
    above = v > -0.78
    u = v[above] - 0.1
    loss[above] = np.maximum(0.0, 6.9 + 20.0 * np.log10(np.sqrt(u * u + 1.0) + u))
    return loss[()]


@dataclass(frozen=True)
class AntennaPattern:
    """Parabolic-lobe antenna model, omni or directional."""

    kind: str = "omni"  # 'omni' | 'directional'
    peak_gain: float = 0.0  # dBi
    boresight_azimuth: float = 0.0  # deg, 0 = +x axis, counter-clockwise
    downtilt: float = 0.0  # deg below horizontal
    azimuth_beamwidth: float = 60.0  # deg, half-power
    elevation_beamwidth: float = 30.0  # deg, half-power

    def __post_init__(self) -> None:
        if self.kind not in ("omni", "directional"):
            raise ValueError(f"antenna kind must be omni or directional, not {self.kind!r}")
        if not (0 < self.azimuth_beamwidth < math.inf and 0 < self.elevation_beamwidth < math.inf):
            raise ValueError("antenna beamwidths must be finite and positive")
        # antenna_gain's roll-off at the largest offsets: 180 deg in azimuth, 90 deg plus the tilt
        d_az = 180.0 / self.azimuth_beamwidth
        d_el = (90.0 + abs(self.downtilt)) / self.elevation_beamwidth
        if not math.isfinite(12.0 * (d_az * d_az + d_el * d_el)):
            fields = "azimuth_beamwidth" if d_az >= d_el else "elevation_beamwidth and downtilt"
            raise ValueError(f"antenna roll-off overflows a float: {fields} out of range")


@dataclass(frozen=True)
class ChannelConfig:
    frequency: float = 2.4e9  # Hz
    tx_power: float = 2.5  # dBm
    ground_reflection_enabled: bool = True
    reflection_magnitude: float = 0.35
    reflection_phase: float = math.pi  # rad
    noise_sigma: float = 1.0  # dB
    rssi_floor: float = -100.0  # dBm

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if not 0.0 <= self.reflection_magnitude <= 1.0:
            raise ValueError("|reflection coefficient| must be in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")


def antenna_gain(pattern: AntennaPattern, delta_azimuth: float, delta_elevation: float) -> float:
    """Gain in dBi for a direction given as offsets from boresight in degrees.

    Directional patterns roll off as 12*((daz/bw_az)^2 + (del/bw_el)^2) dB
    and are clamped 20 dB below the peak.
    """
    if pattern.kind == "omni":
        return pattern.peak_gain
    d_az = delta_azimuth / pattern.azimuth_beamwidth
    d_el = delta_elevation / pattern.elevation_beamwidth
    rolloff = 12.0 * (d_az * d_az + d_el * d_el)  # x * x saturates to inf where x ** 2 raises
    return pattern.peak_gain - min(rolloff, 20.0)


def _wrap_deg(angle: float) -> float:
    """Wrap an angle in degrees to (-180, 180]."""
    a = math.fmod(angle, 360.0)
    if a > 180.0:
        a -= 360.0
    elif a <= -180.0:
        a += 360.0
    return a


def gain_toward(pattern: AntennaPattern, origin: Point, target: Point) -> float:
    """Gain of a node's antenna toward a target point, downtilt included."""
    if pattern.kind == "omni":
        return pattern.peak_gain
    dx = target[0] - origin[0]
    dy = target[1] - origin[1]
    dz = target[2] - origin[2]
    horizontal = math.hypot(dx, dy)
    azimuth = math.degrees(math.atan2(dy, dx))
    elevation = math.degrees(math.atan2(dz, horizontal)) if horizontal > 0 else math.copysign(90.0, dz)
    d_az = _wrap_deg(azimuth - pattern.boresight_azimuth)
    d_el = elevation + pattern.downtilt  # boresight is tilted down
    return antenna_gain(pattern, d_az, d_el)


def _solve(lo, hi, rate):
    """The range (t_lo, t_hi) of t for which t * rate lies in [lo, hi].  Where the rate
    is 0 that is every t or none: (-inf, inf) or an empty range."""
    still = np.equal(rate, 0.0)
    a, b = lo / np.where(still, 1.0, rate), hi / np.where(still, 1.0, rate)
    return (np.where(still, np.where(lo <= 0.0, -np.inf, np.inf), np.minimum(a, b)),
            np.where(still, np.where(hi >= 0.0, np.inf, -np.inf), np.maximum(a, b)))


def path_terms(path, lane_y, width: float) -> np.ndarray:
    """What the crossing test needs of each path, stacked on a leading axis of 7:
    x1, z1, dx, dz and the length of the path, then the lane band [lane_y,
    lane_y + width] as fractions of the path, low end first.  The path coordinates
    and lane_y may be arrays; the rest of the shape is their broadcast shape."""
    (x1, y1, z1), (x2, y2, z2) = path
    if np.any(np.equal(y1, y2)):
        raise ValueError("path endpoints must lie on opposite road sides")
    dx, dy, dz = x2 - x1, y2 - y1, z2 - z1
    sy_a, sy_b = (lane_y - y1) * (1.0 / dy), (lane_y + width - y1) * (1.0 / dy)
    return np.stack(np.broadcast_arrays(x1, z1, dx, dz, np.sqrt(dx ** 2 + dy ** 2 + dz ** 2),
                                        np.minimum(sy_a, sy_b), np.maximum(sy_a, sy_b)))


def segment_loss(seg: BodySegment, interval, terms: np.ndarray, lam: float) -> np.ndarray:
    """Knife-edge loss in dB of one body segment spanning `interval` (lo, hi) along the
    road on each path of `terms` (see path_terms), 0 where the path does not cross the
    segment's x-y rectangle.  The interval ends may be arrays that broadcast with the
    terms.  Each edge is evaluated at its most obstructing point of the crossing, the
    sub-paths split at the crossing's midpoint: the top edge where the path runs lowest
    and, with ground clearance, the bottom edge where it runs highest (v < 0 where the
    path slips underneath).  The cheaper of the two detours wins."""
    if lam <= 0:
        raise ValueError("wavelength must be positive")
    x1, z1, dx, dz, length, sy_lo, sy_hi = terms
    sx_lo, sx_hi = _solve(interval[0] - x1, interval[1] - x1, dx)
    s_lo = np.maximum(np.maximum(sy_lo, sx_lo), 0.0)
    s_hi = np.minimum(np.minimum(sy_hi, sx_hi), 1.0)
    crossing = s_hi > s_lo
    s_lo, s_hi, length, z_start, rise = (
        np.broadcast_to(a, crossing.shape)[crossing] for a in (s_lo, s_hi, length, z1, dz))
    d1 = 0.5 * (s_lo + s_hi) * length
    d2 = length - d1
    z_a = z_start + s_lo * rise
    z_b = z_start + s_hi * rise
    edge = knife_edge_loss(fresnel_v(seg.top_height - np.minimum(z_a, z_b), d1, d2, lam))
    if seg.ground_clearance > 0:
        bottom = fresnel_v(np.maximum(z_a, z_b) - seg.ground_clearance, d1, d2, lam)
        edge = np.minimum(edge, knife_edge_loss(bottom))
    loss = np.zeros(crossing.shape)
    loss[crossing] = edge
    return loss


def obstruction_loss(vehicle: VehicleSpec, pose: Pose, path, lam: float):
    """Total knife-edge loss in dB a vehicle inflicts on a path: the segment_loss of each
    body segment, added in segment order.  The nose position, the lane and the path
    coordinates may be arrays; the result has their broadcast shape (a float when all
    are scalars)."""
    terms = path_terms(path, pose.lane_y, vehicle.width)
    return sum(segment_loss(seg, interval, terms, lam)
               for seg, interval in zip(vehicle.segments, segment_x_intervals(vehicle, pose)))[()]


@dataclass(frozen=True, eq=False)
class LinkContext:
    """Constants of a sequence of links under one channel, one entry per link.

    `ends` holds the end points of every path the model traces as a
    (2 ends, 3 coords, paths) array: the direct path of each link, then the
    first and then the second leg of each ground bounce, in link order.
    """

    lam: float
    ends: np.ndarray
    bounces: np.ndarray  # bool per link: its ray also reflects off the ground
    base_db: np.ndarray  # tx power + gains - fspl(d_dir)
    a_r0: np.ndarray  # |gamma| * d_dir / d_refl, before obstruction; 0 without a bounce
    phase: np.ndarray  # rad
    noise_sigma: float
    rssi_floor: float


def build_link_context(
    links: Sequence[RadioLink],
    channel: ChannelConfig,
    patterns: Mapping[int, AntennaPattern],
) -> LinkContext:
    """The context of `links`, in their order, under `channel` and the nodes' `patterns`."""
    lam = wavelength(channel.frequency)
    reflecting = channel.ground_reflection_enabled and channel.reflection_magnitude > 0.0
    direct, legs, rows = [], [], []
    for link in links:
        p_tx, p_rx = link.endpoints
        if p_tx == p_rx:
            raise ValueError("link endpoints coincide")
        d_dir = math.dist(p_tx, p_rx)
        if not 4.0 * math.pi * d_dir * channel.frequency / SPEED_OF_LIGHT >= 1.0:
            raise ConfigurationError(f"link {link.id} of {d_dir:.3g} m is in the near field of "
                                     f"frequency_hz = {channel.frequency:.3g}, where free-space "
                                     f"loss would be below 0 dB")
        gains = gain_toward(patterns[link.tx_id], p_tx, p_rx) + gain_toward(
            patterns[link.rx_id], p_rx, p_tx
        )
        base_db = channel.tx_power + gains - fspl(d_dir, channel.frequency)
        bounces = reflecting and p_tx[2] > 0.0 and p_rx[2] > 0.0
        a_r0 = phase = 0.0
        if bounces:
            image = (p_rx[0], p_rx[1], -p_rx[2])
            d_refl = math.dist(p_tx, image)
            s = p_tx[2] / (p_tx[2] + p_rx[2])  # fraction of tx->image where z = 0
            bounce = (
                p_tx[0] + s * (image[0] - p_tx[0]),
                p_tx[1] + s * (image[1] - p_tx[1]),
                0.0,
            )
            a_r0 = channel.reflection_magnitude * d_dir / d_refl
            phase = channel.reflection_phase - 2.0 * math.pi * (d_refl - d_dir) / lam
            legs.append(((p_tx, bounce), (bounce, p_rx)))
        direct.append((p_tx, p_rx))
        rows.append((bounces, base_db, a_r0, phase))
    paths = direct + [leg[0] for leg in legs] + [leg[1] for leg in legs]
    bounces, base_db, a_r0, phase = (np.array(column) for column in zip(*rows))
    return LinkContext(
        lam=lam,
        ends=np.moveaxis(np.array(paths, dtype=float), 0, -1),
        bounces=bounces,
        base_db=base_db,
        a_r0=a_r0,
        phase=phase,
        noise_sigma=channel.noise_sigma,
        rssi_floor=channel.rssi_floor,
    )


def passage_loss(ctx: LinkContext, vehicle: VehicleSpec, start_x, speed, frames, lane_y,
                 dt: float, heading: int = 1) -> np.ndarray:
    """Knife-edge loss on each path of `ctx` (columns) in every frame of a few passages
    of `vehicle` (rows, stacked in order).  In frame i of passage b the nose is at
    start_x[b] + speed[b] * (i * dt) and the near side at lane_y[b].  Per body segment,
    passage and path, two frame ranges are found in closed form: where the segment can
    reach the path's stretch of the lane, a frame wider at each end, and where it covers
    the whole stretch, a frame narrower (at speed 0, the first range).  The loss is the
    same in every frame of the second, so segment_loss runs on one and on the first outside it.
    """
    start_x, speed, lane_y = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float))
                                                   for a in (start_x, speed, lane_y)))
    frames = np.broadcast_to(np.asarray(frames, dtype=np.intp), start_x.shape)
    terms = path_terms(ctx.ends, lane_y[:, None], vehicle.width)  # (7, passages, paths)
    band = np.clip(terms[5:], 0.0, 1.0)
    x_lo, x_hi = np.sort(terms[0] + terms[2] * band, axis=0)
    end = np.where(band[1] > band[0], frames[:, None], 0)  # no frame where the band misses
    loss = np.zeros((int(frames.sum()), ctx.ends.shape[-1]))
    flat = loss.reshape(-1)
    row = np.cumsum(frames) - frames  # each passage's first row
    x0, step = start_x[:, None], (speed * dt)[:, None]  # frame i: the nose at about x0 + i * step
    still = speed[:, None] == 0.0  # the nose at exactly x0 in every frame

    def pairs(lo, hi):  # (passage, path, frame, cell of loss) of each frame in every [lo, hi)
        count = (hi - lo).astype(np.intp).ravel()
        passage, path = (np.repeat(index.ravel(), count) for index in np.indices(lo.shape)[-2:])
        frame = (np.repeat(lo.ravel().astype(np.intp) - np.cumsum(count) + count, count)
                 + np.arange(count.sum()))
        return passage, path, frame, (row[passage] + frame) * loss.shape[1] + path

    terms = terms.reshape(len(terms), -1)  # one column per (passage, path)
    offsets = segment_x_intervals(vehicle, Pose(0.0, 0.0, heading))
    for k, (seg, (back, front)) in enumerate(zip(vehicle.segments, offsets)):
        # reach: the nose in [x_lo - front, x_hi - back], and a frame more at each end
        i_lo, i_hi = _solve(x_lo - front - x0, x_hi - back - x0, step)
        first = np.clip(np.ceil(i_lo) - 1.0, 0.0, end)
        stop = np.clip(np.floor(i_hi) + 2.0, first, end)
        # cover: the nose in [x_hi - front, x_lo - back], none if the segment is shorter
        # than the stretch, and a frame less at each end
        j_lo, j_hi = _solve(x_hi - front - x0, x_lo - back - x0, step)
        on = np.where(still, first, np.clip(np.ceil(j_lo) + 1.0, first, stop))
        off = np.where(x_hi - front <= x_lo - back, np.clip(np.floor(j_hi), on, stop), on)
        off = np.where(still, stop, off)
        covered = off > on
        # one frame of each covering range, then the reach range outside it
        passage, path, frame, cell = pairs(np.array([on, first, off]),
                                           np.array([on + covered, on, stop]))
        value = np.empty(len(frame))
        for at in (slice(lo, lo + PAIR_CHUNK) for lo in range(0, len(frame), PAIR_CHUNK)):
            b = passage[at]
            nose = start_x[b] + speed[b] * (frame[at] * dt)
            value[at] = segment_loss(seg, segment_x_intervals(vehicle, Pose(nose, 0.0, heading))[k],
                                     np.take(terms, b * loss.shape[1] + path[at], axis=1), ctx.lam)
        n = int(covered.sum())
        # segment by segment, (0.0 + L1) + L2 as obstruction_loss sums them
        flat[pairs(on, off)[3]] += np.repeat(value[:n], (off - on)[covered].astype(np.intp))
        flat[cell[n:]] += value[n:]
    return loss


def path_rssi(ctx: LinkContext, loss: np.ndarray) -> np.ndarray:
    """Noise-free RSSI of every link of `ctx`, one row per row of `loss`, which holds the
    knife-edge loss on each path of `ctx`; a cell (row, link) without loss on the link's
    direct path or either leg of its ground bounce carries the link's vehicle-free level."""
    n = len(ctx.base_db)
    m = (loss.shape[1] - n) // 2  # bounces
    loss_refl = legs = loss[:, n:n + m] + loss[:, n + m:]
    if m < n:  # a link without a bounce has no bounce loss
        loss_refl = np.zeros((len(loss), n))
        loss_refl[:, ctx.bounces] = legs
    hit = (loss[:, :n] > 0.0) | (loss_refl > 0.0)
    cell = np.flatnonzero(hit)
    row, link = np.divmod(cell, n)

    def levels(x_d, x_r, link):  # of the cells of `link` with those direct and bounce losses
        # 10 ** (-loss / 20), which is exactly 1 where the loss is 0
        a_d, a_r = (np.power(10.0, -x / 20.0, out=np.ones(x.shape), where=x > 0.0)
                    for x in (x_d, x_r))
        a_r *= ctx.a_r0[link]
        amp = np.hypot(a_d + a_r * np.cos(ctx.phase)[link], a_r * np.sin(ctx.phase)[link])
        level = np.full(amp.shape, -np.inf)  # a fully cancelled sum has no level
        np.log10(amp, out=level, where=amp > 0.0)
        return ctx.base_db[link] + 20.0 * level

    rssi = np.tile(levels(np.zeros(n), np.zeros(n), np.arange(n)), (len(loss), 1))  # vehicle-free
    rssi.ravel()[cell] = levels(loss.ravel()[row * loss.shape[1] + link], loss_refl.ravel()[cell],
                                link)
    return rssi


def noiseless_rssi(ctx: LinkContext, vehicle: Optional[VehicleSpec] = None,
                   pose: Optional[Pose] = None) -> np.ndarray:
    """Noise-free RSSI of every link of `ctx`, with the link axis last: one value per link
    without a vehicle, else per nose position of `pose`, each a passage of one frame."""
    if vehicle is None:
        return path_rssi(ctx, np.zeros((1, ctx.ends.shape[-1])))[0]
    nose = np.asarray(pose.front_x, dtype=float)
    loss = passage_loss(ctx, vehicle, nose.ravel(), 1.0, 1, pose.lane_y, 1.0, pose.heading)
    return path_rssi(ctx, loss).reshape(nose.shape + (-1,))


def received_rssi(ctx: LinkContext, rssi, rng=None, rows=None) -> np.ndarray:
    """What a receiver reports for the noise-free `rssi`: Gaussian noise of the
    channel's sigma, drawn from the caller's generator (required when sigma > 0),
    then the floor.  With `rows`, `rng` is a sequence of generators, and the k-th
    draws the noise of the next rows[k] rows."""
    out = np.empty(np.shape(rssi))
    if ctx.noise_sigma > 0.0:
        if rng is None:
            raise ValueError("a random generator is required when noise_sigma > 0")
        if rows is None:  # one generator draws the one block of every row
            rng, rows = [rng], [len(out)]
        if sum(rows) != len(out):
            raise ValueError(f"blocks of {sum(rows)} rows do not cover {len(out)} rows")
        for gen, block in zip(rng, np.split(out, np.cumsum(rows)[:-1])):
            gen.standard_normal(out=block)
        out *= ctx.noise_sigma  # as rng.normal(0.0, sigma) scales each draw
        rssi = np.add(out, rssi, out=out)
    return np.maximum(rssi, ctx.rssi_floor, out=out)
