import configparser
import math
from pathlib import Path

import pytest

import radiobarrier
from radiobarrier.config import (
    SCHEMA,
    VEHICLE_SCHEMA,
    default_catalog,
    default_config,
    load_config,
    parse_segments,
    resolve_config,
)
from radiobarrier.errors import ConfigurationError


def test_packaged_ini_matches_builtin_defaults():
    from_file = load_config(Path(radiobarrier.__file__).parent / "data" / "default.ini")
    builtin = default_config()
    assert from_file.layout_cfg == builtin.layout_cfg
    assert from_file.antenna == builtin.antenna
    assert from_file.channel == builtin.channel
    assert from_file.sim == builtin.sim
    assert from_file.detection == builtin.detection
    assert from_file.features == builtin.features
    assert from_file.catalog == builtin.catalog


def test_packaged_ini_has_every_key_of_the_loader_table():
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(Path(radiobarrier.__file__).parent / "data" / "default.ini")
    fixed = {section: set(cp[section]) for section in cp.sections() if section in SCHEMA}
    assert fixed == {section: set(table) for section, table in SCHEMA.items()}
    vehicles = [section for section in cp.sections() if section.startswith("vehicle.")]
    assert len(vehicles) + len(fixed) == len(cp.sections())
    for section in vehicles:  # per-type speed ranges are optional and not in the defaults
        assert set(cp[section]) == set(VEHICLE_SCHEMA) - {"speed_min_mps", "speed_max_mps"}


def test_default_catalog_shape():
    catalog = default_catalog()
    assert set(catalog) == {"passenger car", "small van", "van", "transporter", "bus", "truck"}
    labels = {name: v.label for name, v in catalog.items()}
    assert labels == {
        "passenger car": "passenger_car",
        "small van": "passenger_car",
        "van": "passenger_car",
        "transporter": "passenger_car",
        "bus": "truck",
        "truck": "truck",
    }
    assert catalog["truck"].total_length == pytest.approx(15.8)


def test_parse_segments():
    segs = parse_segments("6.0:3.8:0.45:0.8, 9.0:4.0:1.2")
    assert len(segs) == 2
    assert segs[0].gap_after == 0.8
    assert segs[1].gap_after == 0.0
    with pytest.raises(ConfigurationError):
        parse_segments("6.0:3.8")
    with pytest.raises(ConfigurationError):
        parse_segments("6.0:3.8:abc")
    with pytest.raises(ConfigurationError):
        parse_segments("6.0:0.1:0.45")  # clearance above top


def test_load_custom_config(tmp_path):
    p = tmp_path / "custom.ini"
    p.write_text(
        """
[layout]
nodes_per_side = 2
spacing_m = 4.0
road_width_m = 6.0
tx_height_m = 1.0
rx_height_m = 1.0

[channel]
noise_sigma_db = 0.0
ground_reflection = false
reflection_phase_deg = 90.0

[simulation]
speed_min_mps = 3.0
speed_max_mps = 9.0

[vehicle.passenger car]
width_m = 1.7
segments = 4.2:1.4:0.1
speed_min_mps = 4.0
speed_max_mps = 8.0
"""
    )
    cfg = load_config(p)
    assert cfg.layout_cfg.nodes_per_side == 2
    assert cfg.layout_cfg.road_width == 6.0
    assert cfg.channel.noise_sigma == 0.0
    assert not cfg.channel.ground_reflection_enabled
    assert cfg.channel.reflection_phase == pytest.approx(math.pi / 2.0)
    assert cfg.sim.speed_range == (3.0, 9.0)
    assert set(cfg.catalog) == {"passenger car"}
    assert cfg.catalog["passenger car"].width == 1.7
    assert cfg.sim.speeds_for("passenger car") == (4.0, 8.0)
    assert cfg.sim.speeds_for("van") == (3.0, 9.0)
    layout = cfg.build_layout()
    assert len(layout.links) == 4


@pytest.mark.parametrize("spelling, value", [
    ("yes", True), ("On", True), ("1", True), ("no", False), ("OFF", False), ("0", False),
])
def test_boolean_keys_take_the_configparser_spellings(tmp_path, spelling, value):
    p = tmp_path / "flags.ini"
    p.write_text(f"[channel]\nground_reflection = {spelling}\n[features]\ninclude_rssi = {spelling}\n")
    cfg = load_config(p)
    assert cfg.channel.ground_reflection_enabled is value
    assert cfg.features.include_rssi is value


def test_unknown_vehicle_type_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[vehicle.boat]\nsegments = 4.0:1.5:0.1\n")
    with pytest.raises(ConfigurationError):
        load_config(p)


def test_bad_value_reported_with_section(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[layout]\nspacing_m = often\n")
    with pytest.raises(ConfigurationError):
        load_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "nope.ini")


def test_resolve_config_default():
    assert resolve_config("default").channel == default_config().channel
