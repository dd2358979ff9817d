"""Epoch extraction, baseline correction, phone inventories, and balanced
pairwise datasets."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import DataError, EventTable, Recording


@dataclass(frozen=True)
class Epochs:
    data: np.ndarray  # [n_epochs, n_channels, n_times], baseline-corrected
    labels: np.ndarray  # [n_epochs] phone labels

    def __len__(self) -> int:
        return len(self.labels)


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
) -> tuple[Epochs, int]:
    """Cut one window per event and subtract the per-channel pre-onset mean.

    The window holds round((tmax - tmin) * fs) + 1 samples starting at
    round((onset + tmin) * fs).  Events whose window falls outside the
    recording are skipped; the skip count is returned alongside the epochs.
    The baseline segment is [tmin, 0), excluding the onset sample, read from
    the recording even past the window's end; events it leaves are skipped.
    """
    fs = rec.sample_rate
    labels = np.array(events.labels(), dtype=str)
    # compared in float before int() can meet an overflowed product: a
    # window longer than the recording fits no event
    if not (tmax - tmin) * fs < rec.n_samples:
        return Epochs(np.empty((0, rec.n_channels, 0)), labels[:0]), len(events)
    n_times = int(round((tmax - tmin) * fs)) + 1
    n_baseline = int(round(-tmin * fs))  # samples strictly before the onset
    width = max(n_times, n_baseline)
    onsets = np.array([ev.onset for ev in events], dtype=float)
    # np.round, like round(), rounds half to even
    starts = np.round(np.minimum((onsets + tmin) * fs, rec.n_samples)).astype(int)
    kept = (starts >= 0) & (starts + width <= rec.n_samples)
    # a width beyond the recording keeps no event, but no view may be wider
    windows = sliding_window_view(rec.data, min(width, rec.n_samples), axis=1)
    data = windows.transpose(1, 0, 2)[starts[kept]].astype(float, copy=False)
    if n_baseline > 0:  # in place: the gather copied, [n, C, width]
        data -= data[:, :, :n_baseline].mean(axis=2, keepdims=True)
    return Epochs(data[:, :, :n_times], labels[kept]), int((~kept).sum())


def build_pair_dataset(epochs, phone_a: str, phone_b: str, seed: int) -> PairDataset:
    """Balanced binary dataset for one phone pair.

    The majority class is down-sampled uniformly at random (seeded) and the
    rows are shuffled deterministically.  Label 0 goes to the
    lexicographically smaller phone.  A row is an epoch's data flattened
    channel-major.
    """
    pair = tuple(sorted((phone_a, phone_b)))
    groups = [np.flatnonzero(epochs.labels == phone) for phone in pair]
    for phone, group in zip(pair, groups):
        if not group.size:
            raise DataError(f"no epochs for phone {phone!r}")
    rng = np.random.default_rng(seed)
    m = min(map(len, groups))
    # m epochs of label 0, then m of label 1
    kept = np.concatenate([
        group if len(group) == m else np.sort(rng.choice(group, size=m, replace=False))
        for group in groups])
    order = rng.permutation(2 * m)
    X = epochs.data[kept[order]].reshape(2 * m, -1)
    # min and max propagate NaN and meet every infinity, and copy nothing
    if not (np.isfinite(X.min()) and np.isfinite(X.max())):
        raise DataError("pair dataset contains non-finite values")
    return PairDataset(X=X, y=(order >= m).astype(int), pair=pair,
                       n_channels=epochs.data.shape[1], n_times=epochs.data.shape[2])
