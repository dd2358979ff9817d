"""Synthetic-recording generator: 1/f background noise plus planted,
band-limited, label-specific activity.  Serves as the independent oracle
for end-to-end pipeline tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .dataio import (ChannelInfo, ConfigError, Event, EventTable, Recording,
                     check_field, check_numbers, check_size)


TEMPLATE_SPAN = 0.2     # seconds of planted activity after each onset
MIN_GAP = 0.05          # seconds between consecutive events
HEAD_MARGIN = 0.15      # silence before the first onset (covers epoch tmin)
EVENT_LENGTH = 0.08     # seconds, mean event duration
EVENT_JITTER = 0.02     # seconds, largest deviation from EVENT_LENGTH
PATTERN_MAX_COSINE = 0.9


@dataclass(frozen=True)
class SynthSpec:
    duration: float = field(metadata={"gt": 0})
    phones: tuple = (("a", 60), ("e", 60))
    n_channels: int = field(default=204, metadata={"ge": 1})
    n_magnetometers: int = field(default=0, metadata={"ge": 0})
    fs: float = field(default=1000.0, metadata={"gt": 0})
    snr: float = field(default=2.0, metadata={"ge": 0})
    band: str = field(default="Theta", metadata={"choices": dsp.BAND_ORDER})
    active_fraction: float = field(default=0.1, metadata={"gt": 0, "le": 1})
    mag_signal_scale: float = 0.3
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_numbers(self, ConfigError)
        try:
            phones = tuple((str(l), c) for l, c in self.phones)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"phones must be [label, count] pairs: {exc}") from exc
        if not phones:
            raise ConfigError("phones must name at least one phone")
        for _, count in phones:
            check_field("a phone count", count, "int", {"ge": 1}, ConfigError)
        object.__setattr__(self, "phones", phones)
        if dsp.BANDS[self.band][1] >= self.fs / 2:
            raise ConfigError(f"band {self.band} exceeds Nyquist for fs={self.fs}")
        # before anything is built: an event and the gap after it last at
        # least this long, a lower bound for the exact check in _plan_events
        shortest = EVENT_LENGTH - EVENT_JITTER + MIN_GAP
        if sum(c for _, c in phones) - 1 > self.duration / shortest:
            raise ConfigError(f"the events outlast duration {self.duration}s")
        check_size(self.n_channels + self.n_magnetometers,
                   self.duration * self.fs, "the recording", ConfigError)


def _one_over_f_noise(rng: np.random.Generator, n: int, fs: float) -> np.ndarray:
    """Unit-RMS noise with a 1/f amplitude spectrum (flattened below 0.5 Hz)."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    f0 = 0.5
    scale = 1.0 / np.maximum(freqs, f0)
    scale[0] = 0.0
    x = np.fft.irfft(spec * scale, n)
    return x / x.std()


def _band_template(rng: np.random.Generator, band: str, fs: float) -> np.ndarray:
    """Unit-RMS Hann-tapered burst of sinusoids inside the requested band."""
    lo, hi = dsp.BANDS[band]
    n = int(round(TEMPLATE_SPAN * fs))
    t = np.arange(n) / fs
    template = np.zeros(n)
    for f in rng.uniform(lo, hi, size=8):
        template += np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    template *= np.hanning(n)
    return template / np.sqrt(np.mean(template ** 2))


def _sign_patterns(rng: np.random.Generator, n_labels: int, n_active: int) -> np.ndarray:
    """Distinct +-1 patterns, pairwise cosine similarity below the cap.

    In very low dimension the cosine cap can be unsatisfiable (two +-1
    scalars always have |cosine| 1), so after a bounded number of draws we
    fall back to requiring the patterns merely be pairwise different.
    """
    if 2 ** n_active < n_labels:
        raise ConfigError(
            f"cannot draw {n_labels} distinct patterns over {n_active} channels"
        )
    patterns = []
    attempts = 0
    while len(patterns) < n_labels:
        cand = rng.choice([-1.0, 1.0], size=n_active)
        attempts += 1
        ok = all(
            abs(np.dot(cand, p)) / n_active < PATTERN_MAX_COSINE for p in patterns
        )
        if not ok and attempts > 200:
            ok = not any(np.array_equal(cand, p) for p in patterns)
        if ok:
            patterns.append(cand)
    return np.array(patterns)


def _plan_events(rng: np.random.Generator, spec: SynthSpec) -> list[Event]:
    labels = [lab for lab, cnt in spec.phones for _ in range(cnt)]
    order = rng.permutation(len(labels))
    labels = [labels[i] for i in order]
    events = []
    t = HEAD_MARGIN + rng.uniform(0, 0.05)
    for lab in labels:
        dur = EVENT_LENGTH + rng.uniform(-EVENT_JITTER, EVENT_JITTER)
        events.append(Event(round(t, 4), round(t + dur, 4), lab))
        t += dur + MIN_GAP + rng.uniform(0, 0.1)
    tail = events[-1].onset + TEMPLATE_SPAN + 0.1
    if tail > spec.duration:
        raise ConfigError(
            f"events span {tail:.2f}s but duration is only {spec.duration}s"
        )
    return events


def generate(spec: SynthSpec) -> tuple[Recording, EventTable]:
    """Deterministic synthetic corpus: returns the recording and its events.

    Each phone label gets one fixed temporal template (band-limited to
    ``spec.band``, covering 0..200 ms post-onset) and one fixed spatial
    sign pattern over the active gradiometer channels, scaled so the
    per-active-channel planted RMS over the template span is ``snr`` times
    the unit noise RMS.
    """
    rng = np.random.default_rng(spec.seed)
    n_samples = int(round(spec.duration * spec.fs))
    events = _plan_events(rng, spec)
    labels = sorted({lab for lab, _ in spec.phones})

    templates = {lab: _band_template(rng, spec.band, spec.fs) for lab in labels}

    n_grad = spec.n_channels
    n_mag = spec.n_magnetometers
    n_active = max(1, int(round(spec.active_fraction * n_grad)))
    active = np.sort(rng.choice(n_grad, size=n_active, replace=False))
    grad_patterns = _sign_patterns(rng, len(labels), n_active)
    if n_mag:
        n_active_mag = max(1, int(round(spec.active_fraction * n_mag)))
        active_mag = np.sort(rng.choice(n_mag, size=n_active_mag, replace=False))
        mag_patterns = _sign_patterns(rng, len(labels), n_active_mag)

    data = np.empty((n_grad + n_mag, n_samples))
    for ch in range(n_grad + n_mag):
        data[ch] = _one_over_f_noise(rng, n_samples, spec.fs)

    tlen = len(next(iter(templates.values())))
    for ev in events:
        start = int(round(ev.onset * spec.fs))
        tpl = templates[ev.label]
        li = labels.index(ev.label)
        data[active, start: start + tlen] += (
            spec.snr * grad_patterns[li][:, None] * tpl[None, :]
        )
        if n_mag:
            data[n_grad + active_mag, start: start + tlen] += (
                spec.snr * spec.mag_signal_scale
                * mag_patterns[li][:, None] * tpl[None, :]
            )

    channels = [
        ChannelInfo(f"GRAD{i + 1:04d}", "gradiometer", "T/m") for i in range(n_grad)
    ] + [ChannelInfo(f"MAG{i + 1:04d}", "magnetometer", "T") for i in range(n_mag)]
    rec = Recording(sample_rate=spec.fs, channels=tuple(channels), data=data)
    return rec, EventTable(tuple(events))
