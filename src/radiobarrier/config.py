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
class AppConfig:
    layout_cfg: LayoutConfig
    antenna: AntennaPattern  # every node's but the boresight, which build_patterns sets
    channel: ChannelConfig
    sim: SimulationConfig
    detection: DetectionConfig
    features: FeatureConfig
    catalog: Dict[str, VehicleSpec]

    def build_layout(self) -> SensorLayout:
        return build_layout(self.layout_cfg)

    def build_patterns(self, layout: SensorLayout) -> Dict[int, AntennaPattern]:
        """The antenna at every node, boresight facing straight across the road."""
        return {node.id: replace(self.antenna, boresight_azimuth=90.0 if node.role == "transmitter"
                                 else -90.0) for node in layout.nodes}


def _finite(text: str) -> float:
    """The parser of every real-valued key: a float, but not nan or ±inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _segment_from_spec(text: str) -> BodySegment:
    parts = [p.strip() for p in text.split(":")]
    if len(parts) not in (3, 4):
        raise ConfigurationError(
            f"segment spec {text!r} must be length:top:clearance[:gap]"
        )
    try:
        values = [_finite(p) for p in parts]
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
    return {spec.type_name: spec for spec in (
        VehicleSpec("passenger car", (BodySegment(4.5, 1.5, 0.12),), 1.8),
        VehicleSpec("small van", (BodySegment(4.8, 1.9, 0.15),), 1.9),
        VehicleSpec("van", (BodySegment(5.4, 2.4, 0.18),), 2.0),
        VehicleSpec("transporter", (BodySegment(6.0, 2.6, 0.20),), 2.2),
        VehicleSpec("bus", (BodySegment(12.0, 3.5, 0.40),), 2.5),
        VehicleSpec(
            "truck",
            (BodySegment(6.0, 3.8, 0.45, gap_after=0.8), BodySegment(9.0, 4.0, 1.2)),
            2.5,
        ),
    )}


def default_config() -> AppConfig:
    return AppConfig(
        layout_cfg=LayoutConfig(),
        antenna=AntennaPattern("directional", peak_gain=7.1, downtilt=5.0),
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
        "spacing_m": ("spacing", _finite),
        "road_width_m": ("road_width", _finite),
        "tx_height_m": ("tx_height", _finite),
        "rx_height_m": ("rx_height", _finite),
        "links_per_receiver": ("links_per_receiver", lambda text: int(text) or None),  # 0: full mesh
    },
    "antenna": {
        "kind": ("kind", str),
        "peak_gain_dbi": ("peak_gain", _finite),
        "azimuth_beamwidth_deg": ("azimuth_beamwidth", _finite),
        "elevation_beamwidth_deg": ("elevation_beamwidth", _finite),
        "downtilt_deg": ("downtilt", _finite),
    },
    "channel": {
        "frequency_hz": ("frequency", _finite),
        "tx_power_dbm": ("tx_power", _finite),
        "ground_reflection": ("ground_reflection_enabled", _boolean),
        "reflection_magnitude": ("reflection_magnitude", _finite),
        "reflection_phase_deg": ("reflection_phase", lambda text: math.radians(_finite(text))),
        "noise_sigma_db": ("noise_sigma", _finite),
        "rssi_floor_dbm": ("rssi_floor", _finite),
    },
    "simulation": {
        "dt_s": ("dt", _finite),
        "pre_roll_s": ("pre_roll", _finite),
        "post_roll_s": ("post_roll", _finite),
        "speed_min_mps": ("speed_min", _finite),
        "speed_max_mps": ("speed_max", _finite),
        "lane_jitter_m": ("lane_jitter", _finite),
    },
    "detection": {
        "drop_threshold_db": ("drop_threshold", _finite),
        "release_threshold_db": ("release_threshold", _finite),
        "min_duration_s": ("min_duration", _finite),
        "baseline_window_s": ("baseline_window", _finite),
    },
    "features": {
        "resample_points": ("resample_points", int),
        "links_used": ("links_used", str),
        "include_rssi": ("include_rssi", _boolean),
    },
}
# The keys of a [vehicle.<type name>] section; the type name fixes the label.
VEHICLE_SCHEMA = {
    "width_m": ("width", _finite),
    "segments": ("segments", parse_segments),
    "speed_min_mps": ("speed_min", _finite),
    "speed_max_mps": ("speed_max", _finite),
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
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(path.read_text())
    except (OSError, ValueError, configparser.Error) as exc:  # missing, a directory, not UTF-8
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if cp.defaults():
        raise ConfigurationError(f"[DEFAULT] unknown keys {sorted(cp.defaults())}; "
                                 "each key belongs in the section it configures")
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
            catalog[type_name] = VehicleSpec(type_name, **parsed)
        except ValueError as exc:
            raise ConfigurationError(f"[{section}]: {exc}") from exc

    parts = {section: _parse_section(cp, section, table) if cp.has_section(section) else {}
             for section, table in SCHEMA.items()}
    sim = parts["simulation"]
    sim.update(speed_range=_speed_range(sim, d.sim.speed_range), speed_overrides=speed_overrides)
    try:
        antenna = replace(d.antenna, **parts["antenna"])
        channel = replace(d.channel, **parts["channel"])
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    cfg = AppConfig(
        layout_cfg=replace(d.layout_cfg, **parts["layout"]),
        antenna=antenna,
        channel=channel,
        sim=replace(d.sim, **sim),
        detection=replace(d.detection, **parts["detection"]),
        features=replace(d.features, **parts["features"]),
        catalog=catalog or default_catalog(),
    )
    if cfg.detection.baseline_window > cfg.sim.pre_roll:  # so every event it generates fits one
        raise ConfigurationError(f"baseline_window_s = {cfg.detection.baseline_window} is longer "
                                 f"than pre_roll_s = {cfg.sim.pre_roll}, the quiet lead-in of a "
                                 f"passage that its first baseline is taken from")
    return cfg


def resolve_config(spec: str) -> AppConfig:
    """Turn a --config value into an AppConfig; 'default' uses the built-ins."""
    if spec == "default":
        return default_config()
    return load_config(spec)
