"""Sensor array geometry, radio links, vehicle body models and occlusions.

Coordinates: x runs along the road, y across it (transmitters at y = 0,
receivers at y = road_width), z is height above the street surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .propagation import fresnel_v

Point = Tuple[float, float, float]

# Table-style grouping of vehicle types into the two classification labels.
TYPE_LABELS = {
    "passenger car": "passenger_car",
    "small van": "passenger_car",
    "van": "passenger_car",
    "transporter": "passenger_car",
    "bus": "truck",
    "truck": "truck",
}

LABELS = ("passenger_car", "truck")


@dataclass(frozen=True)
class NodeSpec:
    id: int
    role: str  # 'transmitter' | 'receiver'
    position: Point

    def __post_init__(self) -> None:
        if self.role not in ("transmitter", "receiver"):
            raise ValueError(f"unknown node role {self.role!r}")
        if self.position[2] <= 0:
            raise ValueError("node height must be positive")


@dataclass(frozen=True)
class RadioLink:
    id: int
    tx_id: int
    rx_id: int
    kind: str  # 'direct' | 'diagonal'
    endpoints: Tuple[Point, Point]

    @property
    def length(self) -> float:
        return math.dist(*self.endpoints)

    @property
    def delta_x(self) -> float:
        """Along-road offset between the endpoints."""
        return self.endpoints[1][0] - self.endpoints[0][0]


@dataclass(frozen=True)
class SensorLayout:
    nodes: Tuple[NodeSpec, ...]
    links: Tuple[RadioLink, ...]
    road_width: float
    array_length: float

    @property
    def transmitters(self) -> Tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.role == "transmitter")

    @property
    def receivers(self) -> Tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.role == "receiver")

    @property
    def direct_links(self) -> Tuple[RadioLink, ...]:
        return tuple(l for l in self.links if l.kind == "direct")


@dataclass(frozen=True)
class LayoutConfig:
    """Parameters for the symmetric post array."""

    nodes_per_side: int = 3
    spacing: float = 5.0  # m between adjacent posts on one side
    road_width: float = 7.0  # m between the two post rows
    tx_height: float = 0.6  # m
    rx_height: float = 0.6  # m
    links_per_receiver: Optional[int] = None  # None keeps the full mesh


def build_layout(config: LayoutConfig) -> SensorLayout:
    """Place the posts and enumerate radio links deterministically.

    Transmitters sit at y = 0, receivers at y = road_width, both at
    x in {0, s, 2s, ...}.  Links are enumerated ascending by (tx_id, rx_id);
    the optional per-receiver restriction keeps only the shortest links of
    each receiver.
    """
    n = config.nodes_per_side
    if n < 1:
        raise ConfigurationError("need at least one node per side")
    if config.road_width <= 0:
        raise ConfigurationError("road width must be positive")
    if config.spacing <= 0:
        raise ConfigurationError("post spacing must be positive")
    if config.tx_height <= 0 or config.rx_height <= 0:
        raise ConfigurationError("node heights must be positive")
    k = config.links_per_receiver
    if k is not None and (k not in (2, 3) or k > n):
        raise ConfigurationError(
            f"the restricted topology keeps 2 or 3 links per receiver (and at most "
            f"the {n} available), got {k}"
        )

    nodes = []
    for i in range(n):
        nodes.append(NodeSpec(i + 1, "transmitter", (i * config.spacing, 0.0, config.tx_height)))
    for i in range(n):
        nodes.append(
            NodeSpec(n + i + 1, "receiver", (i * config.spacing, config.road_width, config.rx_height))
        )

    pairs = []
    for tx in nodes[:n]:
        for rx in nodes[n:]:
            kind = "direct" if tx.position[0] == rx.position[0] else "diagonal"
            pairs.append((tx, rx, kind))

    if k is not None:
        keep = set()
        for rx in nodes[n:]:
            candidates = sorted(
                (math.dist(tx.position, other.position), tx.id, other.id)
                for tx, other, _ in pairs
                if other.id == rx.id
            )
            keep.update((tx_id, rx_id) for _, tx_id, rx_id in candidates[:k])
        pairs = [(tx, rx, kind) for tx, rx, kind in pairs if (tx.id, rx.id) in keep]

    links = tuple(
        RadioLink(i + 1, tx.id, rx.id, kind, (tx.position, rx.position))
        for i, (tx, rx, kind) in enumerate(pairs)
    )
    return SensorLayout(
        nodes=tuple(nodes),
        links=links,
        road_width=config.road_width,
        array_length=(n - 1) * config.spacing,
    )


@dataclass(frozen=True)
class BodySegment:
    """Axis-aligned box slice of a vehicle body."""

    length: float  # m along the road
    top_height: float  # m above the street
    ground_clearance: float = 0.0  # m of free space under the body
    gap_after: float = 0.0  # m of open air behind this segment

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("segment length must be positive")
        if not 0 <= self.ground_clearance < self.top_height:
            raise ValueError("need 0 <= ground_clearance < top_height")
        if self.gap_after < 0:
            raise ValueError("gap_after must be non-negative")


@dataclass(frozen=True)
class VehicleSpec:
    type_name: str
    label: str
    segments: Tuple[BodySegment, ...]
    width: float  # m across the road

    def __post_init__(self) -> None:
        if self.type_name not in TYPE_LABELS:
            raise ValueError(f"unknown vehicle type {self.type_name!r}")
        if self.label != TYPE_LABELS[self.type_name]:
            raise ValueError(
                f"label {self.label!r} contradicts the grouping for {self.type_name!r}"
            )
        if not self.segments:
            raise ValueError("a vehicle needs at least one body segment")
        if self.width <= 0:
            raise ValueError("vehicle width must be positive")

    @property
    def total_length(self) -> float:
        return sum(s.length + s.gap_after for s in self.segments)


@dataclass(frozen=True)
class Pose:
    """Vehicle placement: nose position (or an array of them), near-side lane offset, direction."""

    front_x: float
    lane_y: float
    heading: int = 1  # +1 drives toward +x, -1 toward -x

    def __post_init__(self) -> None:
        if self.heading not in (1, -1):
            raise ValueError("heading must be +1 or -1")


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


def segment_x_intervals(vehicle: VehicleSpec, pose: Pose) -> Tuple[Tuple[float, float], ...]:
    """Along-road interval occupied by each body segment, nose first."""
    out = []
    cursor = pose.front_x
    for seg in vehicle.segments:
        if pose.heading >= 0:
            lo, hi = cursor - seg.length, cursor
            cursor = lo - seg.gap_after
        else:
            lo, hi = cursor, cursor + seg.length
            cursor = hi + seg.gap_after
        out.append((lo, hi))
    return tuple(out)


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
