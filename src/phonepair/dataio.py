"""On-disk formats for recordings and event tables.

A recording lives in two files: ``<name>.nrd`` holding raw little-endian
float32 samples in channel-major order, and ``<name>.nrd.json`` describing
the sample rate and channel list.  Events are UTF-8 TSV files with an
``onset\toffset\tlabel`` header.
"""

from __future__ import annotations

import json
import operator
import os
import resource
import sys
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

CHANNEL_KINDS = ("gradiometer", "magnetometer", "misc", "audio")

TASKS = ("production", "listening", "playback")


class ConfigError(ValueError):
    """A malformed config or config value: exit code 2."""


class DataError(ValueError):
    """Malformed or inconsistent recordings, events or manifests, or
    anything computed from them that cannot go on: exit code 3."""


_NUMBER_FIELDS = {"int": (Integral, "an integer"),
                  "float": (Real, "a finite number"),
                  "float | None": (Real, "null or a finite number")}

_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


def check_field(name: str, value, annotation: str, bounds, error) -> None:
    """Raise ``error`` unless ``value`` is what ``annotation`` (a string, as
    the modules postpone annotations) names, within ``bounds``: ``choices``
    for a string or each item of a tuple, else the keys of ``_BOUNDS``.
    A number is no bool and has a finite float value (JSON parsing accepts
    NaN, infinities and ints of any size; comparing takes them all)."""
    if "choices" in bounds:
        choices, listed = bounds["choices"], annotation == "tuple"
        items = value if listed else [value]
        ok = (isinstance(items, (list, tuple)) and len(items) > 0
              and all(x in choices for x in items))
        what = f"{'a nonempty list of' if listed else 'one of'} {choices}"
    elif annotation == "bool":
        ok, what = isinstance(value, bool), "true or false"
    elif annotation in _NUMBER_FIELDS:
        kind, what = _NUMBER_FIELDS[annotation]
        ok = (value is None and annotation == "float | None") or (
            isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and all(_BOUNDS[k][0](value, limit) for k, limit in bounds.items()))
        what = " and ".join([what] + [f"{_BOUNDS[k][1]} {limit}"
                                      for k, limit in bounds.items()])
    else:
        return
    if not ok:
        raise error(f"{name} must be {what}")


def check_numbers(obj, error) -> None:
    """:func:`check_field` on each field of the dataclass ``obj``, with the
    bounds its ``dataclasses.field`` metadata declares."""
    for f in fields(obj):
        check_field(f.name, getattr(obj, f.name), f.type, f.metadata, error)


def check_size(rows: int, cols, what: str, error) -> None:
    """Raise ``error`` unless ``rows`` x ``cols`` float64 values fit in
    physical memory, capped by the soft ``RLIMIT_AS`` when one is set.
    Nothing is multiplied, so no count overflows; ``cols`` may be inf."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    if rows > limit / 8 / cols:
        raise error(f"{what} would not fit in {limit / 2**30:.1f} GiB of memory")


def json_text(doc) -> str:
    """The one JSON layout of every output: sorted keys, indent 2, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json_text(doc))


@dataclass(frozen=True)
class ChannelInfo:
    name: str
    kind: str = field(metadata={"choices": CHANNEL_KINDS})
    unit: str = ""

    def __post_init__(self):
        if not self.name:
            raise DataError("channel name must be nonempty")
        check_numbers(self, DataError)


@dataclass(frozen=True)
class Recording:
    """Multichannel time series with per-channel metadata."""

    sample_rate: float = field(metadata={"gt": 0})
    channels: tuple[ChannelInfo, ...]
    data: np.ndarray  # [n_channels, n_samples]

    def __post_init__(self):
        check_numbers(self, DataError)
        object.__setattr__(self, "channels", tuple(self.channels))
        if not self.channels:
            raise DataError("recording must have at least one channel")
        names = [c.name for c in self.channels]
        if len(set(names)) != len(names):
            raise DataError("channel names must be unique")
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise DataError("data must be a 2-D [channels x samples] array")
        if data.shape[0] != len(self.channels):
            raise DataError(
                f"data has {data.shape[0]} rows but {len(self.channels)} channels"
            )
        if data.shape[1] == 0:
            raise DataError("recording must contain at least one sample")
        object.__setattr__(self, "data", data)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray, sample_rate: float | None = None) -> "Recording":
        """Copy of this recording with new samples (same channels)."""
        return Recording(
            sample_rate=self.sample_rate if sample_rate is None else sample_rate,
            channels=self.channels,
            data=data,
        )


@dataclass(frozen=True)
class Event:
    onset: float
    offset: float
    label: str

    def __post_init__(self):
        if not 0 <= self.onset < self.offset < np.inf:
            raise DataError(
                f"invalid event interval [{self.onset}, {self.offset}] for {self.label!r}"
            )
        if not self.label:
            raise DataError("event label must be nonempty")


@dataclass(frozen=True)
class EventTable:
    events: tuple[Event, ...]

    def __post_init__(self):
        evs = tuple(sorted(self.events, key=lambda e: (e.onset, e.offset, e.label)))
        object.__setattr__(self, "events", evs)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def labels(self) -> list[str]:
        return [e.label for e in self.events]


@dataclass(frozen=True)
class Manifest:
    subject_id: str
    task: str = field(metadata={"choices": TASKS})
    recording_path: str
    events_path: str
    sample_rate: float

    def __post_init__(self):
        check_numbers(self, DataError)


def write_recording(groups, path: str) -> tuple[float, int, tuple[ChannelInfo, ...]]:
    """Write ``path`` (raw f32 LE, channel-major), appending each of one
    recording's consecutive channel ``groups`` (Recordings) as it arrives,
    then its JSON sidecar; returns the header, as :func:`read_header` reads
    it.  A call that fails removes every file it made."""
    # before the cast, which turns a larger sample into inf; max and min
    # copy nothing
    limit = np.finfo("<f4").max
    part, sidecar, channels = path + ".part", path + ".json", ()
    made = []  # the files this call created, removed if it fails
    try:
        with open(part, "wb") as f:
            made.append(part)
            for group in groups:
                if group.data.max() > limit or group.data.min() < -limit:
                    raise DataError(f"{path}: a sample exceeds the float32 range")
                f.write(np.ascontiguousarray(group.data, dtype="<f4"))
                channels += group.channels
                header = group.sample_rate, group.n_samples, channels
                del group  # before the next group is made
        with open(sidecar, "w", encoding="utf-8") as f:
            made.append(sidecar)
            f.write(json_text({"sample_rate": header[0], "n_samples": header[1],
                               "channels": [asdict(c) for c in channels]}))
        os.replace(part, path)
    except BaseException:
        for name in made:
            os.remove(name)
        raise
    return header


def save_recording(rec: Recording, path: str) -> None:
    """:func:`write_recording` of a whole recording, its one group."""
    write_recording((rec,), path)


def _read_header(sidecar: str) -> tuple[float, int, tuple[ChannelInfo, ...]]:
    """Sample rate, sample count and channels from a recording sidecar."""
    try:
        with open(sidecar, encoding="utf-8") as f:
            header = json.load(f)  # ValueError also covers bad JSON and non-UTF-8
        check_field("n_samples", header["n_samples"], "int", {"ge": 1}, DataError)
        check_field("sample_rate", header["sample_rate"], "float", {"gt": 0}, DataError)
        return (float(header["sample_rate"]), header["n_samples"],
                tuple(ChannelInfo(ch["name"], ch["kind"], ch.get("unit", ""))
                      for ch in header["channels"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed header {sidecar}: "
                        f"{type(exc).__name__}: {exc}") from exc


def read_header(path: str) -> tuple[float, int, tuple[ChannelInfo, ...]]:
    """Sample rate, sample count and channels of the ``.nrd`` recording at
    ``path``, whose payload must exist; no sample is read."""
    sidecar = path + ".json"
    if not os.path.exists(path):
        raise DataError(f"recording payload not found: {path}")
    if not os.path.exists(sidecar):
        raise DataError(f"recording sidecar not found: {sidecar}")
    return _read_header(sidecar)


def load_recording(path: str, rows: slice = slice(None),
                   header=None) -> Recording:
    """Load the channels ``rows`` (a step-1 slice; all by default) of a
    ``.nrd`` recording, refusing non-finite samples (the one scan for them).
    Before any sample is read, the payload's byte size must be the one its
    header implies; ``header`` is :func:`read_header`'s result, for a caller
    that reads one file in several calls."""
    sample_rate, n_samples, channels = header or read_header(path)
    start, stop, _ = rows.indices(len(channels))
    expected = len(channels) * n_samples
    count = max(stop - start, 0) * n_samples
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 4 * expected:
            f.seek(4 * start * n_samples)
            raw = np.fromfile(f, dtype="<f4", count=count)
            if raw.size == count:
                if not np.isfinite(raw).all():
                    raise DataError("recording contains non-finite samples")
                return Recording(sample_rate=sample_rate,
                                 channels=channels[start:stop],
                                 data=raw.reshape(-1, n_samples))
        # a payload of the wrong size, or one that shrank after the check
        raise DataError(
            f"sample-count mismatch: header implies {expected} values, "
            f"payload holds {os.fstat(f.fileno()).st_size} bytes"
        )


def load_events(path: str) -> EventTable:
    """Load and validate a tab-separated event table."""
    events = []
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if lineno == 1 and line.split("\t")[:3] == ["onset", "offset", "label"]:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            events.append(Event(float(parts[0]), float(parts[1]), parts[2]))
        except ValueError as exc:  # unparsable number, or DataError from Event
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return EventTable(tuple(events))


def save_events(table: EventTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("onset\toffset\tlabel\n")
        for e in table:
            f.write(f"{e.onset:.6f}\t{e.offset:.6f}\t{e.label}\n")


def channel_indices(channels, kinds) -> list[int]:
    """Indices of the ``channels`` whose kind is in ``kinds``, in order."""
    kinds = set(kinds)
    unknown = kinds - set(CHANNEL_KINDS)
    if unknown:
        raise DataError(f"unknown channel kinds: {sorted(unknown)}")
    idx = [i for i, c in enumerate(channels) if c.kind in kinds]
    if not idx:
        raise DataError(f"no channels of kind {sorted(kinds)} present")
    return idx


def select_channels(rec: Recording, kinds) -> Recording:
    """Keep only channels whose kind is in ``kinds``, order preserved; a
    recording that keeps every channel is returned as it is, not copied."""
    idx = channel_indices(rec.channels, kinds)
    if len(idx) == rec.n_channels:
        return rec
    return Recording(
        sample_rate=rec.sample_rate,
        channels=tuple(rec.channels[i] for i in idx),
        data=rec.data[idx],
    )


def load_manifest(path: str) -> Manifest:
    """Load a manifest; relative paths in it are relative to its directory."""
    base = os.path.dirname(os.path.abspath(path))

    def _resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
            fields = dict(
                subject_id=doc["subject_id"],
                task=doc["task"],
                recording_path=_resolve(doc["recording_path"]),
                events_path=_resolve(doc["events_path"]),
                sample_rate=float(doc["sample_rate"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed manifest {path}: "
                            f"{type(exc).__name__}: {exc}") from exc
    for key in ("subject_id", "task"):
        if not (isinstance(fields[key], str) and fields[key]):
            raise DataError(f"malformed manifest {path}: {key} must be a nonempty string")
    m = Manifest(**fields)
    for p in (m.recording_path, m.recording_path + ".json", m.events_path):
        if not os.path.exists(p):
            raise DataError(f"manifest {path}: referenced file missing: {p}")
    sample_rate, _, _ = _read_header(m.recording_path + ".json")
    if sample_rate != m.sample_rate:
        raise DataError(
            f"manifest {path}: sample_rate {m.sample_rate} does not match "
            f"recording header {sample_rate}"
        )
    return m


def save_manifest(m: Manifest, path: str) -> None:
    """Write ``m`` with its file paths relative to the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    doc = {
        "subject_id": m.subject_id,
        "task": m.task,
        "recording_path": os.path.relpath(m.recording_path, base),
        "events_path": os.path.relpath(m.events_path, base),
        "sample_rate": m.sample_rate,
    }
    write_json(path, doc)
