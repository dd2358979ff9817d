"""Epoch extraction, baseline correction, phone inventories, and balanced
pairwise datasets."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataio import DataError, EventTable, Recording


@dataclass(frozen=True)
class Epoch:
    data: np.ndarray  # [n_channels, n_times], baseline-corrected
    label: str


@dataclass(frozen=True)
class PairDataset:
    X: np.ndarray  # [n_epochs, n_channels * n_times], channel-major rows
    y: np.ndarray  # {0, 1}
    pair: tuple[str, str]
    n_channels: int
    n_times: int


def count_phones(events: EventTable, min_count: int) -> tuple[str, ...]:
    """Labels occurring at least ``min_count`` times, most frequent first."""
    counts = Counter(events.labels())
    selected = [lab for lab, c in counts.items() if c >= min_count]
    return tuple(sorted(selected, key=lambda lab: (-counts[lab], lab)))


def extract_epochs(
    rec: Recording,
    events: EventTable,
    tmin: float,
    tmax: float,
) -> tuple[list[Epoch], int]:
    """Cut one window per event and subtract the per-channel pre-onset mean.

    The window holds round((tmax - tmin) * fs) + 1 samples starting at
    round((onset + tmin) * fs).  Events whose window falls outside the
    recording are skipped; the skip count is returned alongside the epochs.
    The baseline segment is [tmin, 0), excluding the onset sample, read from
    the recording even past the window's end; events it leaves are skipped.
    """
    fs = rec.sample_rate
    # compared in float before int() can meet an overflowed product: a
    # window longer than the recording fits no event
    if not (tmax - tmin) * fs < rec.n_samples:
        return [], len(events)
    n_times = int(round((tmax - tmin) * fs)) + 1
    n_baseline = int(round(-tmin * fs))  # samples strictly before the onset
    epochs = []
    skipped = 0
    for ev in events:
        start = int(round(min((ev.onset + tmin) * fs, rec.n_samples)))
        if start < 0 or start + max(n_times, n_baseline) > rec.n_samples:
            skipped += 1
            continue
        window = rec.data[:, start: start + n_times].astype(float)
        if n_baseline > 0:
            baseline = rec.data[:, start: start + n_baseline].astype(float)
            window = window - baseline.mean(axis=1, keepdims=True)
        epochs.append(Epoch(data=window, label=ev.label))
    return epochs, skipped


def build_pair_dataset(epochs, phone_a: str, phone_b: str, seed: int) -> PairDataset:
    """Balanced binary dataset for one phone pair.

    The majority class is down-sampled uniformly at random (seeded) and the
    rows are shuffled deterministically.  Label 0 goes to the
    lexicographically smaller phone.  A row is an epoch's data flattened
    channel-major.
    """
    pair = tuple(sorted((phone_a, phone_b)))
    groups = [[e for e in epochs if e.label == phone] for phone in pair]
    for phone, group in zip(pair, groups):
        if not group:
            raise DataError(f"no epochs for phone {phone!r}")
    rng = np.random.default_rng(seed)
    m = min(map(len, groups))
    kept = []  # m epochs of label 0, then m of label 1
    for group in groups:
        idx = (range(m) if len(group) == m
               else sorted(rng.choice(len(group), size=m, replace=False)))
        kept += [group[i] for i in idx]
    order = rng.permutation(2 * m)
    X = np.stack([kept[i].data.reshape(-1) for i in order])
    if not np.all(np.isfinite(X)):
        raise DataError("pair dataset contains non-finite values")
    n_channels, n_times = kept[0].data.shape
    return PairDataset(X=X, y=(order >= m).astype(int), pair=pair,
                       n_channels=n_channels, n_times=n_times)
