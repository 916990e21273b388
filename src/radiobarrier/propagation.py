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
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # circular at runtime: geometry imports fresnel_v from here
    from .geometry import Pose, RadioLink, VehicleSpec

SPEED_OF_LIGHT = 299_792_458.0

Point = Tuple[float, float, float]


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


def obstruction_loss(vehicle: "VehicleSpec", pose: "Pose", path, lam: float):
    """Total knife-edge loss in dB a vehicle inflicts on a path.

    Losses of intersected body segments cascade additively in dB.  For a
    segment with ground clearance the detour is the cheaper of the top and
    bottom edges; energy slipping under the body therefore caps the loss.
    The nose position and the path coordinates may be arrays; the result
    has their broadcast shape (a float when all are scalars).
    """
    from .geometry import occlusion_params  # deferred to avoid an import cycle

    shape = np.broadcast_shapes(np.shape(pose.front_x), *(np.shape(c) for end in path for c in end))
    total = np.zeros(shape)
    for obs in occlusion_params(vehicle, pose, path, lam):
        loss = knife_edge_loss(obs.v_top)
        if obs.v_bottom is not None:
            loss = np.minimum(loss, knife_edge_loss(obs.v_bottom))
        total[obs.mask] += loss
    return total[()]


@dataclass(frozen=True)
class LinkContext:
    """Per-link constants precomputed from layout, channel and patterns."""

    path: Tuple[Point, Point]
    lam: float
    base_db: float  # tx power + gains - fspl(d_dir)
    clear_db: float  # noiseless vehicle-free value
    a_r0: float  # |gamma| * d_dir / d_refl, before obstruction
    phase: float  # rad
    sub_paths: Tuple[Tuple[Point, Point], ...]  # ground-bounce legs, if the ray reflects


def build_link_context(
    link: "RadioLink",
    channel: ChannelConfig,
    patterns: Mapping[int, AntennaPattern],
) -> LinkContext:
    p_tx, p_rx = link.endpoints
    if p_tx == p_rx:
        raise ValueError("link endpoints coincide")
    d_dir = math.dist(p_tx, p_rx)
    lam = wavelength(channel.frequency)
    gains = gain_toward(patterns[link.tx_id], p_tx, p_rx) + gain_toward(
        patterns[link.rx_id], p_rx, p_tx
    )
    base_db = channel.tx_power + gains - fspl(d_dir, channel.frequency)

    reflection = (
        channel.ground_reflection_enabled
        and channel.reflection_magnitude > 0.0
        and p_tx[2] > 0.0
        and p_rx[2] > 0.0
    )
    if reflection:
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
        sub_paths: Tuple[Tuple[Point, Point], ...] = ((p_tx, bounce), (bounce, p_rx))
        amp = math.hypot(1.0 + a_r0 * math.cos(phase), a_r0 * math.sin(phase))
        clear_db = base_db + 20.0 * math.log10(amp)
    else:
        a_r0 = 0.0
        phase = 0.0
        sub_paths = ()
        clear_db = base_db

    return LinkContext(
        path=(p_tx, p_rx),
        lam=lam,
        base_db=base_db,
        clear_db=clear_db,
        a_r0=a_r0,
        phase=phase,
        sub_paths=sub_paths,
    )


def noiseless_rssi(ctx: Union[LinkContext, Sequence[LinkContext]],
                   vehicle: Optional["VehicleSpec"], pose: Optional["Pose"]):
    """Noise-free RSSI with an optional vehicle in the scene.

    `ctx` is one link's context, or a sequence of contexts of one channel
    evaluated together with the link axis last.  `pose.front_x` may be an
    array of nose positions: every path of every link is then evaluated at
    every position in one pass.  One context and a scalar position give a
    float.
    """
    links = (ctx,) if isinstance(ctx, LinkContext) else tuple(ctx)
    rssi = np.array([c.clear_db for c in links])
    if vehicle is not None and pose is not None:
        bounces = np.array([bool(c.sub_paths) for c in links])
        legs = [c.sub_paths for c in links if c.sub_paths]
        paths = [c.path for c in links] + [leg[0] for leg in legs] + [leg[1] for leg in legs]
        ends = np.moveaxis(np.array(paths, dtype=float), 0, -1)  # (2 ends, 3 coords, paths)
        nose = replace(pose, front_x=np.asarray(pose.front_x)[..., None])
        loss = obstruction_loss(vehicle, nose, ends, links[0].lam)
        n, m = len(links), len(legs)
        loss_direct = loss[..., :n]
        loss_refl = np.zeros_like(loss_direct)
        loss_refl[..., bounces] = loss[..., n:n + m] + loss[..., n + m:]

        # Where nothing obstructs a link the vehicle-free value holds exactly.
        rssi = np.broadcast_to(rssi, loss_direct.shape).copy()
        hit = (loss_direct > 0.0) | (loss_refl > 0.0)
        j = np.nonzero(hit)[-1]  # link of each obstructed sample
        base_db, a_r0, cos_phase, sin_phase = np.array(
            [(c.base_db, c.a_r0, math.cos(c.phase), math.sin(c.phase)) for c in links]
        ).T[:, j]
        a_d = 10.0 ** (-loss_direct[hit] / 20.0)
        a_r = a_r0 * 10.0 ** (-loss_refl[hit] / 20.0)
        amp = np.hypot(a_d + a_r * cos_phase, a_r * sin_phase)
        level = np.full(amp.shape, -np.inf)  # a fully cancelled sum has no level
        np.log10(amp, out=level, where=amp > 0.0)
        rssi[hit] = base_db + 20.0 * level
    if isinstance(ctx, LinkContext):
        rssi = rssi[..., 0]
    return rssi[()]


def link_rssi(
    link: "RadioLink",
    channel: ChannelConfig,
    patterns: Mapping[int, AntennaPattern],
    scene: Optional[Tuple["VehicleSpec", "Pose"]] = None,
    rng=None,
) -> float:
    """RSSI in dBm on one link for the given scene state.

    Noise is drawn from the caller-provided generator; a generator is
    required whenever the channel's noise sigma is positive.
    """
    ctx = build_link_context(link, channel, patterns)
    vehicle, pose = scene if scene is not None else (None, None)
    value = noiseless_rssi(ctx, vehicle, pose)
    if channel.noise_sigma > 0.0:
        if rng is None:
            raise ValueError("a random generator is required when noise_sigma > 0")
        value += rng.normal(0.0, channel.noise_sigma)
    return max(value, channel.rssi_floor)
