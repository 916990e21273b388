"""Configuration file loading and the built-in defaults.

Configs are plain INI text with nested dotted sections; the schema is
documented in the repository README and mirrored by data/default.ini.
Vehicle bodies are comma-separated segment specs of the form
``length:top_height:ground_clearance[:gap_after]``.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

from .errors import ConfigurationError
from .geometry import (
    TYPE_LABELS,
    BodySegment,
    LayoutConfig,
    SensorLayout,
    VehicleSpec,
    build_layout,
)
from .pipeline import DetectionConfig, FeatureConfig
from .propagation import AntennaPattern, ChannelConfig
from .simulator import SimulationConfig


@dataclass(frozen=True)
class AntennaConfig:
    kind: str = "directional"
    peak_gain: float = 7.1  # dBi
    azimuth_beamwidth: float = 60.0  # deg
    elevation_beamwidth: float = 30.0  # deg
    downtilt: float = 5.0  # deg

    def __post_init__(self) -> None:
        if self.kind not in ("omni", "directional"):
            raise ConfigurationError(f"[antenna] kind must be omni or directional, not {self.kind!r}")
        if not (0 < self.azimuth_beamwidth < math.inf and 0 < self.elevation_beamwidth < math.inf):
            raise ConfigurationError("[antenna] beamwidths must be finite and positive")


@dataclass(frozen=True)
class AppConfig:
    layout_cfg: LayoutConfig
    antenna: AntennaConfig
    channel: ChannelConfig
    sim: SimulationConfig
    detection: DetectionConfig
    features: FeatureConfig
    catalog: Dict[str, VehicleSpec]

    def build_layout(self) -> SensorLayout:
        return build_layout(self.layout_cfg)

    def build_patterns(self, layout: SensorLayout) -> Dict[int, AntennaPattern]:
        return build_patterns(layout, self.antenna)


def build_patterns(layout: SensorLayout, antenna: AntennaConfig) -> Dict[int, AntennaPattern]:
    """One pattern per node, boresight facing straight across the road."""
    patterns = {}
    for node in layout.nodes:
        boresight = 90.0 if node.role == "transmitter" else -90.0
        patterns[node.id] = AntennaPattern(
            kind=antenna.kind,
            peak_gain=antenna.peak_gain,
            boresight_azimuth=boresight,
            downtilt=antenna.downtilt,
            azimuth_beamwidth=antenna.azimuth_beamwidth,
            elevation_beamwidth=antenna.elevation_beamwidth,
        )
    return patterns


def _segment_from_spec(text: str) -> BodySegment:
    parts = [p.strip() for p in text.split(":")]
    if len(parts) not in (3, 4):
        raise ConfigurationError(
            f"segment spec {text!r} must be length:top:clearance[:gap]"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigurationError(f"bad number in segment spec {text!r}") from exc
    gap = values[3] if len(values) == 4 else 0.0
    try:
        return BodySegment(values[0], values[1], values[2], gap)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def parse_segments(text: str) -> Tuple[BodySegment, ...]:
    specs = [s for s in (part.strip() for part in text.split(",")) if s]
    if not specs:
        raise ConfigurationError("vehicle needs at least one segment spec")
    return tuple(_segment_from_spec(s) for s in specs)


def default_catalog() -> Dict[str, VehicleSpec]:
    """Built-in box models for the six vehicle types.

    Clearances are effective RF values: the height below which the body
    stops blocking a grazing ray, so wheels and underbody gear pull them
    under the nominal deck heights.
    """
    def make(name, width, segments):
        return VehicleSpec(name, TYPE_LABELS[name], tuple(segments), width)

    return {
        "passenger car": make("passenger car", 1.8, [BodySegment(4.5, 1.5, 0.12)]),
        "small van": make("small van", 1.9, [BodySegment(4.8, 1.9, 0.15)]),
        "van": make("van", 2.0, [BodySegment(5.4, 2.4, 0.18)]),
        "transporter": make("transporter", 2.2, [BodySegment(6.0, 2.6, 0.20)]),
        "bus": make("bus", 2.5, [BodySegment(12.0, 3.5, 0.40)]),
        "truck": make(
            "truck",
            2.5,
            [BodySegment(6.0, 3.8, 0.45, gap_after=0.8), BodySegment(9.0, 4.0, 1.2)],
        ),
    }


def default_config() -> AppConfig:
    return AppConfig(
        layout_cfg=LayoutConfig(),
        antenna=AntennaConfig(),
        channel=ChannelConfig(),
        sim=SimulationConfig(),
        detection=DetectionConfig(),
        features=FeatureConfig(),
        catalog=default_catalog(),
    )


def _get(cp, section, option, conv, fallback):
    if not cp.has_option(section, option):
        return fallback
    raw = cp.get(section, option)
    try:
        if conv is bool:
            return cp.getboolean(section, option)
        return conv(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {option} = {raw!r}: {exc}") from exc


def load_config(path) -> AppConfig:
    """Read an INI configuration file; missing keys fall back to defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    d = default_config()

    lpr = _get(cp, "layout", "links_per_receiver", int, 0)
    layout_cfg = LayoutConfig(
        nodes_per_side=_get(cp, "layout", "nodes_per_side", int, d.layout_cfg.nodes_per_side),
        spacing=_get(cp, "layout", "spacing_m", float, d.layout_cfg.spacing),
        road_width=_get(cp, "layout", "road_width_m", float, d.layout_cfg.road_width),
        tx_height=_get(cp, "layout", "tx_height_m", float, d.layout_cfg.tx_height),
        rx_height=_get(cp, "layout", "rx_height_m", float, d.layout_cfg.rx_height),
        links_per_receiver=lpr if lpr else None,
    )

    antenna = AntennaConfig(
        kind=_get(cp, "antenna", "kind", str, d.antenna.kind),
        peak_gain=_get(cp, "antenna", "peak_gain_dbi", float, d.antenna.peak_gain),
        azimuth_beamwidth=_get(cp, "antenna", "azimuth_beamwidth_deg", float, d.antenna.azimuth_beamwidth),
        elevation_beamwidth=_get(cp, "antenna", "elevation_beamwidth_deg", float, d.antenna.elevation_beamwidth),
        downtilt=_get(cp, "antenna", "downtilt_deg", float, d.antenna.downtilt),
    )

    try:
        channel = ChannelConfig(
            frequency=_get(cp, "channel", "frequency_hz", float, d.channel.frequency),
            tx_power=_get(cp, "channel", "tx_power_dbm", float, d.channel.tx_power),
            ground_reflection_enabled=_get(cp, "channel", "ground_reflection", bool,
                                           d.channel.ground_reflection_enabled),
            reflection_magnitude=_get(cp, "channel", "reflection_magnitude", float,
                                      d.channel.reflection_magnitude),
            reflection_phase=math.radians(
                _get(cp, "channel", "reflection_phase_deg", float,
                     math.degrees(d.channel.reflection_phase))
            ),
            noise_sigma=_get(cp, "channel", "noise_sigma_db", float, d.channel.noise_sigma),
            rssi_floor=_get(cp, "channel", "rssi_floor_dbm", float, d.channel.rssi_floor),
        )
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc

    catalog: Dict[str, VehicleSpec] = {}
    speed_overrides: Dict[str, Tuple[float, float]] = {}
    for section in cp.sections():
        if not section.startswith("vehicle."):
            continue
        type_name = section[len("vehicle."):].strip()
        if type_name not in TYPE_LABELS:
            raise ConfigurationError(
                f"[{section}]: unknown vehicle type {type_name!r}; "
                f"known types: {sorted(TYPE_LABELS)}"
            )
        if not cp.has_option(section, "segments"):
            raise ConfigurationError(f"[{section}] needs a segments entry")
        try:
            vehicle = VehicleSpec(
                type_name=type_name,
                label=_get(cp, section, "label", str, TYPE_LABELS[type_name]),
                segments=parse_segments(cp.get(section, "segments")),
                width=_get(cp, section, "width_m", float, 2.0),
            )
        except ValueError as exc:
            raise ConfigurationError(f"[{section}]: {exc}") from exc
        catalog[type_name] = vehicle
        if cp.has_option(section, "speed_min_mps") or cp.has_option(section, "speed_max_mps"):
            lo = _get(cp, section, "speed_min_mps", float, d.sim.speed_range[0])
            hi = _get(cp, section, "speed_max_mps", float, d.sim.speed_range[1])
            speed_overrides[type_name] = (lo, hi)
    if not catalog:
        catalog = default_catalog()

    sim = SimulationConfig(
        dt=_get(cp, "simulation", "dt_s", float, d.sim.dt),
        speed_range=(
            _get(cp, "simulation", "speed_min_mps", float, d.sim.speed_range[0]),
            _get(cp, "simulation", "speed_max_mps", float, d.sim.speed_range[1]),
        ),
        speed_overrides=speed_overrides,
        lane_jitter=_get(cp, "simulation", "lane_jitter_m", float, d.sim.lane_jitter),
        seed=_get(cp, "simulation", "seed", int, d.sim.seed),
        pre_roll=_get(cp, "simulation", "pre_roll_s", float, d.sim.pre_roll),
        post_roll=_get(cp, "simulation", "post_roll_s", float, d.sim.post_roll),
    )

    detection = DetectionConfig(
        drop_threshold=_get(cp, "detection", "drop_threshold_db", float, d.detection.drop_threshold),
        release_threshold=_get(cp, "detection", "release_threshold_db", float,
                               d.detection.release_threshold),
        min_duration=_get(cp, "detection", "min_duration_s", float, d.detection.min_duration),
        baseline_window=_get(cp, "detection", "baseline_window_s", float, d.detection.baseline_window),
    )

    features = FeatureConfig(
        resample_points=_get(cp, "features", "resample_points", int, d.features.resample_points),
        links_used=_get(cp, "features", "links_used", str, d.features.links_used),
        include_length=_get(cp, "features", "include_length", bool, d.features.include_length),
        include_rssi=_get(cp, "features", "include_rssi", bool, d.features.include_rssi),
    )

    return AppConfig(
        layout_cfg=layout_cfg,
        antenna=antenna,
        channel=channel,
        sim=sim,
        detection=detection,
        features=features,
        catalog=catalog,
    )


def resolve_config(spec: str) -> AppConfig:
    """Turn a --config value into an AppConfig; 'default' uses the built-ins."""
    if spec == "default":
        return default_config()
    return load_config(spec)
