"""Sensor array geometry, radio links, vehicle body models and their placement.

Coordinates: x runs along the road, y across it (transmitters at y = 0,
receivers at y = road_width), z is height above the street surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigurationError

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

# Most posts per road side.  A full mesh of 32 has 1,024 links, 0.26 MB of layout, and
# generating one batch of simulator.BATCH_FRAMES frames on it peaks at about 0.25 GiB.
MAX_NODES_PER_SIDE = 32


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


@dataclass(frozen=True)
class SensorLayout:
    nodes: Tuple[NodeSpec, ...]
    links: Tuple[RadioLink, ...]
    road_width: float
    array_length: float


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
    if not 1 <= n <= MAX_NODES_PER_SIDE:
        raise ConfigurationError(f"nodes_per_side = {n} is not from 1 to {MAX_NODES_PER_SIDE}")
    if config.road_width <= 0:
        raise ConfigurationError("road width must be positive")
    if config.spacing <= 0:
        raise ConfigurationError("post spacing must be positive")
    if config.tx_height <= 0 or config.rx_height <= 0:
        raise ConfigurationError("node heights must be positive")
    bounce_y = config.tx_height / (config.tx_height + config.rx_height) * config.road_width
    if not 0.0 < bounce_y < config.road_width:
        raise ConfigurationError(f"tx_height_m = {config.tx_height!r} and rx_height_m = "
                                 f"{config.rx_height!r} put the ground bounce on a road side")
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
    segments: Tuple[BodySegment, ...]
    width: float = 2.0  # m across the road

    def __post_init__(self) -> None:
        if self.type_name not in TYPE_LABELS:
            raise ValueError(f"unknown vehicle type {self.type_name!r}")
        if not self.segments:
            raise ValueError("a vehicle needs at least one body segment")
        if self.width <= 0:
            raise ValueError("vehicle width must be positive")

    @property
    def label(self) -> str:
        return TYPE_LABELS[self.type_name]

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

