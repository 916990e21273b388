"""Analytic RF channel model for the roadside link array.

The received power on a link is composed from free-space loss, antenna
gains, knife-edge obstruction losses for every body segment a vehicle
puts into a path, and (optionally) a single specular ground reflection
added coherently to the direct ray:

    rssi = P_tx + G_tx + G_rx - FSPL(d_dir) + 20*log10(|a_d + a_r*e^{i phi}|)

with a_d = 10^(-L_dir/20) and a_r = |gamma| * (d_dir/d_refl) * 10^(-L_refl/20),
phi = arg(gamma) - 2*pi*(d_refl - d_dir)/lambda.  Obstruction losses add in
dB over intersected body segments; for a segment with ground clearance the
cheaper of the over-the-top and under-the-body detours wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .geometry import Point, Pose, RadioLink, VehicleSpec, segment_x_intervals

SPEED_OF_LIGHT = 299_792_458.0


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
            raise ValueError(f"unknown antenna kind {self.kind!r}")
        if self.azimuth_beamwidth <= 0 or self.elevation_beamwidth <= 0:
            raise ValueError("beamwidths must be positive")


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
    rolloff = 12.0 * (
        (delta_azimuth / pattern.azimuth_beamwidth) ** 2
        + (delta_elevation / pattern.elevation_beamwidth) ** 2
    )
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


@dataclass(frozen=True)
class ObstructionParams:
    """Knife-edge parameters of one body segment where a path crosses it.

    `mask` marks the crossing points of the grid; the other fields hold one
    value per marked point (plain floats when every input is a scalar).
    """

    mask: np.ndarray
    v_top: np.ndarray
    v_bottom: Optional[np.ndarray]  # absent when the body has no ground clearance
    d1: np.ndarray
    d2: np.ndarray


def occlusion_params(
    vehicle: VehicleSpec,
    pose: Pose,
    path,
    wavelength: float,
) -> Tuple[ObstructionParams, ...]:
    """Knife-edge parameters for every body segment the path crosses.

    The path is cut against each segment's x-y rectangle; at the midpoint of
    the crossing the top edge yields v_top and, for bodies with ground
    clearance, the bottom edge yields v_bottom (path above the clearance
    gives positive v_bottom, a path slipping underneath gives negative).
    The nose position and the path coordinates may be arrays that broadcast
    together (say nose positions x paths); each segment's x-interval is
    affine in the nose position, so the whole grid is cut at once and only
    the crossing points are evaluated.  An empty tuple means the vehicle
    intersects the path nowhere on the grid.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    (x1, y1, z1), (x2, y2, z2) = path
    if np.any(np.equal(y1, y2)):
        raise ValueError("path endpoints must lie on opposite road sides")

    total = np.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2 + (z2 - z1) ** 2)
    inv_dy = 1.0 / (y2 - y1)
    sy_a = (pose.lane_y - y1) * inv_dy
    sy_b = (pose.lane_y + vehicle.width - y1) * inv_dy
    sy_lo, sy_hi = np.minimum(sy_a, sy_b), np.maximum(sy_a, sy_b)

    dx = x2 - x1
    vertical = np.equal(dx, 0.0)
    step = np.where(vertical, 1.0, dx)
    dz = z2 - z1
    results = []
    for seg, (bx0, bx1) in zip(vehicle.segments, segment_x_intervals(vehicle, pose)):
        sa = (bx0 - x1) / step
        sb = (bx1 - x1) / step
        # a path at constant x lies within the segment's x-range whole or not at all
        sx_lo = np.where(vertical, np.where(sa <= 0.0, -np.inf, np.inf), np.minimum(sa, sb))
        sx_hi = np.where(vertical, np.where(sb >= 0.0, np.inf, -np.inf), np.maximum(sa, sb))
        s_lo = np.maximum(np.maximum(sy_lo, sx_lo), 0.0)
        s_hi = np.minimum(np.minimum(sy_hi, sx_hi), 1.0)
        mask = s_hi > s_lo
        if not mask.any():
            continue
        crossing = mask if mask.ndim else ()
        s_lo, s_hi, length, z_start, rise = (
            np.broadcast_to(a, mask.shape)[crossing] for a in (s_lo, s_hi, total, z1, dz)
        )
        s_mid = 0.5 * (s_lo + s_hi)
        d1 = s_mid * length
        d2 = length - d1
        # Each edge is evaluated at its most obstructing point of the
        # crossing: the top edge where the path runs lowest, the bottom
        # edge where it runs highest.  For level paths both coincide.
        z_a = z_start + s_lo * rise
        z_b = z_start + s_hi * rise
        z_min, z_max = np.minimum(z_a, z_b), np.maximum(z_a, z_b)
        v_top = fresnel_v(seg.top_height - z_min, d1, d2, wavelength)
        v_bottom = (
            fresnel_v(z_max - seg.ground_clearance, d1, d2, wavelength)
            if seg.ground_clearance > 0
            else None
        )
        results.append(ObstructionParams(mask, v_top, v_bottom, d1, d2))
    return tuple(results)


def obstruction_loss(vehicle: VehicleSpec, pose: Pose, path, lam: float):
    """Total knife-edge loss in dB a vehicle inflicts on a path.

    Losses of intersected body segments cascade additively in dB.  For a
    segment with ground clearance the detour is the cheaper of the top and
    bottom edges; energy slipping under the body therefore caps the loss.
    The nose position and the path coordinates may be arrays; the result
    has their broadcast shape (a float when all are scalars).
    """
    shape = np.broadcast_shapes(np.shape(pose.front_x), *(np.shape(c) for end in path for c in end))
    total = np.zeros(shape)
    for obs in occlusion_params(vehicle, pose, path, lam):
        loss = knife_edge_loss(obs.v_top)
        if obs.v_bottom is not None:
            loss = np.minimum(loss, knife_edge_loss(obs.v_bottom))
        total[obs.mask] += loss
    return total[()]


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


def noiseless_rssi(ctx: LinkContext, vehicle: Optional[VehicleSpec] = None,
                   pose: Optional[Pose] = None) -> np.ndarray:
    """Noise-free RSSI of every link of `ctx`, with the link axis last.

    Without a vehicle the result has one value per link.  `pose.front_x` may
    be an array of nose positions: every path of every link is then
    evaluated at every position in one pass.
    """
    n = len(ctx.base_db)
    loss_direct = loss_refl = np.zeros(n)
    if vehicle is not None:
        nose = replace(pose, front_x=np.asarray(pose.front_x)[..., None])
        loss = obstruction_loss(vehicle, nose, ctx.ends, ctx.lam)
        m = (loss.shape[-1] - n) // 2  # bounces
        loss_direct = loss[..., :n]
        loss_refl = np.zeros_like(loss_direct)
        loss_refl[..., ctx.bounces] = loss[..., n:n + m] + loss[..., n + m:]
    a_d = 10.0 ** (-loss_direct / 20.0)
    a_r = ctx.a_r0 * 10.0 ** (-loss_refl / 20.0)
    amp = np.hypot(a_d + a_r * np.cos(ctx.phase), a_r * np.sin(ctx.phase))
    level = np.full(amp.shape, -np.inf)  # a fully cancelled sum has no level
    np.log10(amp, out=level, where=amp > 0.0)
    return ctx.base_db + 20.0 * level


def received_rssi(ctx: LinkContext, rssi, rng=None) -> np.ndarray:
    """What a receiver reports for the noise-free `rssi`: Gaussian noise of the
    channel's sigma, drawn from the caller's generator (required when sigma > 0),
    then the floor."""
    if ctx.noise_sigma > 0.0:
        if rng is None:
            raise ValueError("a random generator is required when noise_sigma > 0")
        rssi = rssi + rng.normal(0.0, ctx.noise_sigma, size=np.shape(rssi))
    return np.maximum(rssi, ctx.rssi_floor)


def link_rssi(
    link: RadioLink,
    channel: ChannelConfig,
    patterns: Mapping[int, AntennaPattern],
    scene: Optional[Tuple[VehicleSpec, Pose]] = None,
    rng=None,
) -> float:
    """RSSI in dBm on one link for the given scene state; noise as in `received_rssi`."""
    ctx = build_link_context((link,), channel, patterns)
    return float(received_rssi(ctx, noiseless_rssi(ctx, *(scene or ())), rng)[0])
