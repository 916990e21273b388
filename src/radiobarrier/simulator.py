"""Time-stepped generation of labelled multi-link RSSI traces.

Every passage is fully determined by (configs, seed): speeds, lane offsets
and per-sample noise all flow from a per-event seed derived from the dataset
seed and the event id, so datasets regenerate bit-identically and events can
be simulated in any order.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, InputDataError
from .geometry import TYPE_LABELS, SensorLayout, VehicleSpec
from .propagation import (AntennaPattern, ChannelConfig, LinkContext, build_link_context,
                          noiseless_rssi, passage_loss, path_rssi, received_rssi)

FORMAT_NAME = "radiobarrier-dataset"
FORMAT_VERSION = 4
# Datasets hold RSSI in whole-dB steps, one signed byte each (-128..127 dB), as
# a 2.4 GHz radio reports it.  The step also makes the bytes independent of the
# CPU's SIMD level: the exact channel model differs in the last bits between
# ufunc implementations.
RSSI_STEP_DB = 1.0
BATCH_FRAMES = 4096  # frames of one vehicle type per kernel call, a few passages
# Most frames one passage may have.  Generation peaks at about 370-440 B per frame
# with the default 9 links, so a passage at the bound needs about 0.35 GiB.
MAX_FRAMES = 1_000_000


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 0.01  # s
    speed_range: Tuple[float, float] = (5.0, 20.0)  # m/s, default for all types
    speed_overrides: Mapping[str, Tuple[float, float]] = field(default_factory=dict)
    lane_jitter: float = 0.5  # m around the road centre
    pre_roll: float = 1.0  # s of vehicle-free samples before the passage
    post_roll: float = 1.0  # s after it

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        for lo, hi in [self.speed_range, *self.speed_overrides.values()]:
            if lo <= 0 or hi < lo:
                raise ConfigurationError("speed ranges must be positive and ordered")
        if self.lane_jitter < 0 or self.pre_roll < 0 or self.post_roll < 0:
            raise ConfigurationError("jitter and roll times must be non-negative")

    def speeds_for(self, type_name: str) -> Tuple[float, float]:
        return self.speed_overrides.get(type_name, self.speed_range)


@dataclass(frozen=True, eq=False)
class PassageEvent:
    """One passage: metadata and the RSSI trace of every link.

    `rssi` is a read-only float64 (frames x links) array in dBm, links in
    layout order; frame i was sampled at t = i * dt, the dt of its dataset.  A float64 array
    is kept if neither it nor the array owning its memory is writable; anything else is copied.
    """

    event_id: int
    type_name: str
    true_speed: float
    true_length: float
    lane_y: float
    rssi: np.ndarray

    def __post_init__(self) -> None:
        rssi = self.rssi
        owner = rssi.base if isinstance(getattr(rssi, "base", None), np.ndarray) else rssi
        if not (isinstance(owner, np.ndarray) and owner.base is None and rssi.dtype == np.float64
                and not (rssi.flags.writeable or owner.flags.writeable)):
            rssi = np.array(rssi, dtype=np.float64)
            rssi.flags.writeable = False
        object.__setattr__(self, "rssi", rssi)

    @property
    def label(self) -> str:
        return TYPE_LABELS[self.type_name]


@dataclass(frozen=True)
class Dataset:
    events: Tuple[PassageEvent, ...]
    metadata: Dict
    sha256: Optional[str] = None  # of the file bytes the dataset was read from, if any


def config_fingerprint(layout: SensorLayout, channel: ChannelConfig,
                       patterns: Mapping[int, AntennaPattern], sim: SimulationConfig) -> str:
    """Stable hash of every field of everything that shapes a trace, for provenance checks;
    the encoder turns each dataclass into the dict of its fields, without `asdict`'s copies."""
    blob = json.dumps([layout, channel, sorted(patterns.items()), sim, RSSI_STEP_DB],
                      sort_keys=True, default=lambda obj: {f.name: getattr(obj, f.name)
                                                           for f in dataclass_fields(obj)})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def baseline_rssi(layout: SensorLayout, channel: ChannelConfig,
                  patterns: Mapping[int, AntennaPattern]) -> Tuple[float, ...]:
    """Noiseless vehicle-free RSSI per link, in link order."""
    ctx = build_link_context(layout.links, replace(channel, noise_sigma=0.0), patterns)
    return tuple(received_rssi(ctx, noiseless_rssi(ctx)).tolist())


def _frame_count(layout: SensorLayout, vehicle: VehicleSpec, speed: float,
                 sim: SimulationConfig) -> int:
    total_time = sim.pre_roll + (layout.array_length + vehicle.total_length) / speed + sim.post_roll
    frames = total_time / sim.dt
    if not frames <= MAX_FRAMES:  # NaN fails too
        raise ConfigurationError(
            f"a passage at {speed:.3g} m/s would take {frames:.3g} frames, more than the "
            f"{MAX_FRAMES:,} allowed: set by dt_s, pre_roll_s, post_roll_s, the array length "
            f"of spacing_m and nodes_per_side, and speed_min_mps")
    return int(math.ceil(frames)) + 1


def _simulate_passages(layout: SensorLayout, ctx: LinkContext, vehicle: VehicleSpec,
                       sim: SimulationConfig, draws, step: Optional[float] = None):
    """The passages of `vehicle` drawn as (event_id, speed, lane_y, rng), in one kernel
    call; each takes its noise from its own rng.  With a `step`, every sample is
    rounded to a multiple of it."""
    for _, speed, lane_y, _ in draws:
        if speed <= 0:
            raise ConfigurationError("speed must be positive")
        if not (0.0 < lane_y and lane_y + vehicle.width < layout.road_width):
            raise ConfigurationError(f"vehicle of width {vehicle.width} m at lane_y={lane_y} m "
                                     f"does not fit the {layout.road_width} m road")
    ids, speeds, lanes, rngs = zip(*draws)
    frames = [_frame_count(layout, vehicle, speed, sim) for speed in speeds]
    loss = passage_loss(ctx, vehicle, [-sim.pre_roll * v for v in speeds], speeds, frames,
                        lanes, sim.dt)
    cuts = np.cumsum(frames)[:-1]
    rssi = received_rssi(ctx, path_rssi(ctx, loss), rngs, frames)
    if step is not None:  # np.round(rssi / step) * step, in place
        np.multiply(np.round(np.divide(rssi, step, out=rssi), out=rssi), step, out=rssi)
    rssi.flags.writeable = False  # the events' traces are views of it
    return [PassageEvent(event_id, vehicle.type_name, speed, vehicle.total_length, lane_y, trace)
            for event_id, speed, lane_y, trace in zip(ids, speeds, lanes, np.split(rssi, cuts))]


def _event_rng(seed: int, event_id: int) -> np.random.Generator:
    # Event id folded into the seed sequence keeps events independent of the
    # generation order and of how many other events exist.
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(event_id)]))


def _draw_event(layout: SensorLayout, vehicle: VehicleSpec, sim: SimulationConfig,
                seed: int, event_id: int):
    """(event_id, speed, lane_y, rng) of one event, drawn from its own generator."""
    rng = _event_rng(seed, event_id)
    speed = float(rng.uniform(*sim.speeds_for(vehicle.type_name)))
    margin = (layout.road_width - vehicle.width) / 2.0
    jitter_cap = min(sim.lane_jitter, max(0.0, margin - 0.05))
    jitter = float(rng.uniform(-jitter_cap, jitter_cap)) if jitter_cap > 0 else 0.0
    return event_id, speed, margin + jitter, rng


def generate_dataset(layout: SensorLayout, channel: ChannelConfig,
                     patterns: Mapping[int, AntennaPattern], catalog: Mapping[str, VehicleSpec],
                     mix: Mapping[str, int], sim: SimulationConfig, seed: int) -> Dataset:
    """Simulate `mix[type]` passages per vehicle type into one dataset, with
    every RSSI sample rounded to a multiple of RSSI_STEP_DB.

    Every event owns a seed derived from (seed, event_id), so its trace does not
    depend on the other events of the mix.
    """
    counts = {t: int(mix.get(t, 0)) for t in catalog}
    unknown = set(mix) - set(catalog)
    if unknown:
        raise ConfigurationError(f"mix names unknown vehicle types: {sorted(unknown)}")
    if any(c < 0 for c in counts.values()):
        raise ConfigurationError("mix counts must be non-negative")
    if sum(counts.values()) == 0:
        raise ConfigurationError("mix is empty")

    # passages of one type, batched by BATCH_FRAMES frames, each batch one kernel call
    ctx = build_link_context(layout.links, channel, patterns)  # shared by every event
    batches, event_id = [], 0
    for type_name, vehicle in catalog.items():
        size = BATCH_FRAMES  # a type starts a batch of its own
        for event_id in range(event_id + 1, event_id + 1 + counts[type_name]):
            draw = _draw_event(layout, vehicle, sim, seed, event_id)
            frames = _frame_count(layout, vehicle, draw[1], sim)
            if size + frames > BATCH_FRAMES:
                batch, size = [], 0
                batches.append((vehicle, batch))
            batch.append(draw)
            size += frames

    events = [event for vehicle, draws in batches
              for event in _simulate_passages(layout, ctx, vehicle, sim, draws, RSSI_STEP_DB)]

    metadata = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": int(seed),
        "mix": {t: counts[t] for t in catalog if counts[t] > 0},
        "fingerprint": config_fingerprint(layout, channel, patterns, sim),
        "dt": sim.dt,
        "link_ids": [l.id for l in layout.links],
        "event_count": len(events),
    }
    return Dataset(events=tuple(events), metadata=metadata)


# ---------------------------------------------------------------------------
# Serialization: one header line, then one record per line.  Floats are
# spelled as Python's repr, the shortest string that reads back to the same
# float, so files reproduce byte-for-byte; an RSSI matrix is one string, the
# standard base64 of its samples as int8 counts of RSSI_STEP_DB in
# row-major order.

_SAMPLE = np.dtype("i1")


def _encode_samples(rssi: np.ndarray) -> str:
    counts = rssi / RSSI_STEP_DB
    with np.errstate(invalid="ignore"):  # a count the cast cannot hold comes back unequal
        whole = counts.astype(_SAMPLE)
    bad = whole != counts
    if bad.any():
        raise ConfigurationError(
            f"a dataset stores each RSSI sample as an int8 count of {RSSI_STEP_DB} dB steps, "
            f"which {float(rssi[bad][0])!r} dB is not")
    return encode_base64(whole)


def encode_base64(array: np.ndarray) -> str:
    """The standard base64 of the array's bytes, in row-major order."""
    return base64.b64encode(array.tobytes()).decode("ascii")


def decode_base64(where: str, key: str, value: str, shape: Tuple[int, ...],
                  dtype: np.dtype) -> bytes:
    """The bytes of the standard base64 string `value`, if they are those of a `dtype` array
    of this `shape`; a shape with an axis below 1 fits no string."""
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # outside the alphabet, bad padding, or not ASCII
        raise InputDataError(f"{where}: {key} is not base64: {exc}") from exc
    if min(shape) < 1 or len(raw) != math.prod(shape) * dtype.itemsize:
        raise InputDataError(f"{where}: {key} holds {len(raw)} bytes, not the "
                             f"{' x '.join(map(str, shape))} {dtype.name} values")
    return raw


def dumps_compact(value) -> str:
    """Deterministic JSON: sorted keys, no spaces, floats as their repr, no NaN or infinity."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_records(path, header: Mapping, records: Iterable, render=dumps_compact) -> None:
    """Write `header` as `dumps_compact` renders it, then one line per record as `render` does,
    line by line into a ".partial" file that replaces `path` once every record is written."""
    partial = Path(path).with_name(Path(path).name + ".partial")
    try:
        with partial.open("w") as out:
            lines = chain([dumps_compact(header)], map(render, records))
            out.writelines(line + "\n" for line in lines)
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)


def _field(where: str, key: str, value, kind: type):
    """`value` if it is of type `kind`."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise InputDataError(f"{where}: {key} must be of type {kind.__name__}, got {value!r:.40}")
    if kind is float and not math.isfinite(value):
        raise InputDataError(f"{where}: {key} is not finite")
    return value


def read_records(path, format_name: str, version: int, fields: Mapping[str, type], remedy: str):
    """Read a file written by `write_records`, rejecting any line that does not fit its header.

    The header must name `format_name` at `version`; the message on another
    version ends in `remedy`, which says how to write the file anew.  The
    header must also list the `link_ids` and count the records in
    `event_count`.  Every line must hold each key of `fields`, which include
    "event_id", with a value of its type, and no two lines the same event_id.
    Keys not in `fields` are ignored.  Returns the header, per line its
    location for messages and its `fields`, and the SHA-256 of the bytes that
    were read.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        lines = data.decode().splitlines()
    except (OSError, ValueError) as exc:  # missing, unreadable, not text, or a NUL in the name
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise InputDataError(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InputDataError(f"{path}: bad header line: {exc}") from exc
    if not (isinstance(header, dict) and header.get("format") == format_name):
        raise InputDataError(f"{path} is not a {format_name} file")
    if header.get("version") != version:
        raise InputDataError(f"{path} is a {format_name} file of version "
                             f"{header.get('version')!r}, but this program reads version "
                             f"{version}: {remedy}")
    link_ids = header.get("link_ids")
    if not isinstance(link_ids, list) or not link_ids:
        raise InputDataError(f"{path}: header lacks the list of link_ids")
    _field(f"{path}: header", "event_count", header.get("event_count"), int)

    records, first_line = [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputDataError(f"{where}: bad record line: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputDataError(f"{where}: a record line must be a JSON object")
        missing = [key for key in fields if key not in raw]
        if missing:
            raise InputDataError(f"{where}: record line lacks {', '.join(missing)}")
        records.append((where, {key: _field(where, key, raw[key], kind)
                                for key, kind in fields.items()}))
        event_id = raw["event_id"]
        if first_line.setdefault(event_id, lineno) != lineno:
            raise InputDataError(f"{where}: event_id {event_id} repeats line {first_line[event_id]}")
    if len(records) != header["event_count"]:
        raise InputDataError(
            f"{path}: header announces {header['event_count']} records, file holds {len(records)}"
        )
    return header, records, hashlib.sha256(data).hexdigest()


# Keys of an event line with their types; "values" holds the event's rssi
# in base64 and "frames" its row count.
_EVENT_FIELDS = {"event_id": int, "type_name": str, "true_speed": float, "true_length": float,
                 "lane_y": float, "frames": int, "values": str}


def _event_line(ev: PassageEvent) -> str:
    """`dumps_compact` of the event's line, without the encoder scanning the samples:
    "values" is the last key in sorted order, and no base64 character needs escaping."""
    line = dumps_compact({**{key: getattr(ev, key) for key in _EVENT_FIELDS
                             if key not in ("frames", "values")}, "frames": len(ev.rssi)})
    return f'{line[:-1]},"values":"{_encode_samples(ev.rssi)}"}}'


def save_dataset(dataset: Dataset, path) -> None:
    """Write `dataset`; a sample that is not a whole int8 count of RSSI_STEP_DB raises
    ConfigurationError and leaves no file."""
    write_records(path, dataset.metadata, dataset.events, render=_event_line)


def read_events(path) -> Tuple[Dict, Tuple[PassageEvent, ...], str]:
    """The header and the events of a dataset file, rejecting any line that does not fit, and
    the SHA-256 of the bytes that were parsed.  The traces are views of one read-only array.
    The header's dt is every event's; each line's type_name must be a known vehicle type."""
    header, records, sha256 = read_records(path, FORMAT_NAME, FORMAT_VERSION, _EVENT_FIELDS,
                                          "regenerate it with `generate` and the same `--seed`")
    dt = _field(f"{path}: header", "dt", header.get("dt"), float)
    if not dt > 0:
        raise InputDataError(f"{path}: header dt {dt!r} is not positive")
    for where, rec in records:
        if rec["type_name"] not in TYPE_LABELS:
            raise InputDataError(f"{where}: unknown vehicle type {rec['type_name']!r}; "
                                 f"known types: {sorted(TYPE_LABELS)}")
    links = len(header["link_ids"])
    raw = b"".join([decode_base64(where, "values", rec.pop("values"), (rec["frames"], links),
                                  _SAMPLE) for where, rec in records])
    rssi = np.frombuffer(raw, _SAMPLE).reshape(-1, links) * RSSI_STEP_DB
    rssi.flags.writeable = False
    ends = np.cumsum([rec["frames"] for _, rec in records]).tolist()
    return header, tuple(PassageEvent(rssi=rssi[end - rec.pop("frames"):end], **rec)
                         for (_, rec), end in zip(records, ends)), sha256


def load_dataset(path) -> Dataset:
    """Read a dataset file, rejecting any line that does not fit its header."""
    header, events, sha256 = read_events(path)
    return Dataset(events=events, metadata=header, sha256=sha256)
