"""Configuration file loading and the built-in defaults.

Configs are plain INI text with nested dotted sections; the schema is the
SCHEMA table below, documented in the repository README and mirrored key for
key by data/default.ini.
Vehicle bodies are comma-separated segment specs of the form
``length:top_height:ground_clearance[:gap_after]``.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
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


def _boolean(text: str) -> bool:
    """The spellings ConfigParser.getboolean accepts."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


# INI key -> (dataclass field, parser), one table per section.  Defaults live
# only in the dataclasses; speed_min/speed_max are folded into speed_range.
SCHEMA = {
    "layout": {
        "nodes_per_side": ("nodes_per_side", int),
        "spacing_m": ("spacing", float),
        "road_width_m": ("road_width", float),
        "tx_height_m": ("tx_height", float),
        "rx_height_m": ("rx_height", float),
        "links_per_receiver": ("links_per_receiver", lambda text: int(text) or None),  # 0: full mesh
    },
    "antenna": {
        "kind": ("kind", str),
        "peak_gain_dbi": ("peak_gain", float),
        "azimuth_beamwidth_deg": ("azimuth_beamwidth", float),
        "elevation_beamwidth_deg": ("elevation_beamwidth", float),
        "downtilt_deg": ("downtilt", float),
    },
    "channel": {
        "frequency_hz": ("frequency", float),
        "tx_power_dbm": ("tx_power", float),
        "ground_reflection": ("ground_reflection_enabled", _boolean),
        "reflection_magnitude": ("reflection_magnitude", float),
        "reflection_phase_deg": ("reflection_phase", lambda text: math.radians(float(text))),
        "noise_sigma_db": ("noise_sigma", float),
        "rssi_floor_dbm": ("rssi_floor", float),
    },
    "simulation": {
        "dt_s": ("dt", float),
        "pre_roll_s": ("pre_roll", float),
        "post_roll_s": ("post_roll", float),
        "speed_min_mps": ("speed_min", float),
        "speed_max_mps": ("speed_max", float),
        "lane_jitter_m": ("lane_jitter", float),
    },
    "detection": {
        "drop_threshold_db": ("drop_threshold", float),
        "release_threshold_db": ("release_threshold", float),
        "min_duration_s": ("min_duration", float),
        "baseline_window_s": ("baseline_window", float),
    },
    "features": {
        "resample_points": ("resample_points", int),
        "links_used": ("links_used", str),
        "include_length": ("include_length", _boolean),
        "include_rssi": ("include_rssi", _boolean),
    },
}
# The keys of a [vehicle.<type name>] section; the label defaults to the type's.
VEHICLE_SCHEMA = {
    "label": ("label", str),
    "width_m": ("width", float),
    "segments": ("segments", parse_segments),
    "speed_min_mps": ("speed_min", float),
    "speed_max_mps": ("speed_max", float),
}


def _parse_section(cp, section: str, table) -> dict:
    """The section's values by dataclass field; a key the table lacks is an error."""
    parsed = {}
    for key, raw in cp.items(section):
        if key not in table:
            raise ConfigurationError(f"[{section}] unknown key {key!r}; known keys: {sorted(table)}")
        name, parse = table[key]
        try:
            parsed[name] = parse(raw)
        except ValueError as exc:
            raise ConfigurationError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return parsed


def _speed_range(parsed: dict, default: Tuple[float, float]) -> Tuple[float, float]:
    return parsed.pop("speed_min", default[0]), parsed.pop("speed_max", default[1])


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

    catalog: Dict[str, VehicleSpec] = {}
    speed_overrides: Dict[str, Tuple[float, float]] = {}
    for section in cp.sections():
        if section in SCHEMA:
            continue
        if not section.startswith("vehicle."):
            raise ConfigurationError(f"unknown section [{section}]; known sections: "
                                     f"{sorted(SCHEMA)} and vehicle.<type name>")
        type_name = section[len("vehicle."):].strip()
        if type_name not in TYPE_LABELS:
            raise ConfigurationError(
                f"[{section}]: unknown vehicle type {type_name!r}; "
                f"known types: {sorted(TYPE_LABELS)}"
            )
        if not cp.has_option(section, "segments"):
            raise ConfigurationError(f"[{section}] needs a segments entry")
        parsed = _parse_section(cp, section, VEHICLE_SCHEMA)
        if "speed_min" in parsed or "speed_max" in parsed:
            speed_overrides[type_name] = _speed_range(parsed, d.sim.speed_range)
        try:
            catalog[type_name] = VehicleSpec(type_name, **{"label": TYPE_LABELS[type_name], **parsed})
        except ValueError as exc:
            raise ConfigurationError(f"[{section}]: {exc}") from exc

    parts = {section: _parse_section(cp, section, table) if cp.has_section(section) else {}
             for section, table in SCHEMA.items()}
    sim = parts["simulation"]
    sim.update(speed_range=_speed_range(sim, d.sim.speed_range), speed_overrides=speed_overrides)
    try:
        channel = replace(d.channel, **parts["channel"])
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    return AppConfig(
        layout_cfg=replace(d.layout_cfg, **parts["layout"]),
        antenna=replace(d.antenna, **parts["antenna"]),
        channel=channel,
        sim=replace(d.sim, **sim),
        detection=replace(d.detection, **parts["detection"]),
        features=replace(d.features, **parts["features"]),
        catalog=catalog or default_catalog(),
    )


def resolve_config(spec: str) -> AppConfig:
    """Turn a --config value into an AppConfig; 'default' uses the built-ins."""
    if spec == "default":
        return default_config()
    return load_config(spec)
