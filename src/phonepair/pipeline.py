"""Preprocessing chain and per-recording evaluation: a recording's epochs
plus (configuration, model) runs give per-fold metric rows."""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import dataio, dsp, evaluation
from .dataio import ConfigError, DataError
from .epochs import Epochs, build_pair_dataset, count_phones, extract_epochs

BAND_PASS_LO = 0.2  # Hz, low edge used whenever a band limit is set


@dataclass(frozen=True)
class PreprocessingToggles:
    sensor_kinds: tuple = field(default=("gradiometer",),
                                metadata={"choices": dataio.CHANNEL_KINDS})
    wavelet: bool = True
    decimation_factor: int = field(default=10, metadata={"ge": 1})
    # band-pass 0.2..band_limit Hz, or None
    band_limit: float | None = field(default=31.0, metadata={"gt": 0})

    def __post_init__(self):
        dataio.check_numbers(self, ConfigError)
        object.__setattr__(self, "sensor_kinds", tuple(self.sensor_kinds))


@dataclass(frozen=True)
class CvConfig:
    k: int = field(default=5, metadata={"ge": 2})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        dataio.check_numbers(self, ConfigError)


@dataclass(frozen=True)
class EpochWindow:
    tmin: float = -0.1
    tmax: float = 0.2

    def __post_init__(self):
        dataio.check_numbers(self, ConfigError)
        if not self.tmin < self.tmax:
            raise ConfigError("epoch_window needs tmin < tmax")


def preprocess(rec: dataio.Recording, toggles: PreprocessingToggles) -> dataio.Recording:
    """Sensor selection, wavelet denoising (at the incoming rate),
    decimation, then optional band-pass filtering.  With both on, the
    denoiser runs inside decimation, at the kept samples only."""
    rec = dataio.select_channels(rec, toggles.sensor_kinds)
    rec = dsp.decimate(rec, toggles.decimation_factor, toggles.wavelet)
    if toggles.band_limit is not None:
        filt = dsp.design_fir(BAND_PASS_LO, toggles.band_limit, rec.sample_rate)
        rec = rec.with_data(dsp.apply_zero_phase(filt, rec.data))
    return rec


def preprocessed_groups(path: str, toggles: PreprocessingToggles):
    """(selected channels, a group's slice of them, the group preprocessed)
    for each ``dsp.CHUNK`` selected channels read from disk.  Stacked, the
    groups are ``preprocess(dataio.load_recording(path), toggles)`` byte for
    byte: ``dsp`` cuts a matrix into these groups anyway."""
    header = dataio.read_header(path)
    idx = dataio.channel_indices(header[2], toggles.sensor_kinds)
    selected = tuple(header[2][i] for i in idx)
    for c in range(0, len(idx), dsp.CHUNK):
        rows = idx[c: c + dsp.CHUNK]
        yield selected, slice(c, c + len(rows)), preprocess(
            dataio.load_recording(path, slice(rows[0], rows[-1] + 1), header),
            toggles)


def file_epochs(path: str, toggles: PreprocessingToggles, band_pass,
                events: dataio.EventTable, window: EpochWindow):
    """``extract_epochs`` of ``preprocess(dataio.load_recording(path),
    toggles)`` band-passed by ``band_pass`` ((lo, hi) Hz, or None), byte
    for byte: each group of :func:`preprocessed_groups` is filtered and cut
    into its rows of one [n, C, T] array, as baseline and gather work per
    channel."""
    for selected, rows, group in preprocessed_groups(path, toggles):
        if band_pass is not None:
            filt = dsp.design_fir(*band_pass, group.sample_rate)
            group = group.with_data(dsp.apply_zero_phase(filt, group.data))
        eps, skipped = extract_epochs(group, events, window.tmin, window.tmax)
        if group.n_channels == len(selected):
            return eps, skipped  # one group holds every channel
        if rows.start == 0:
            data = np.empty((len(eps), len(selected), eps.data.shape[2]))
        data[:, rows] = eps.data
    return Epochs(data, eps.labels), skipped


def resolve_pairs(phone_pairs, selected) -> list[tuple[str, str]]:
    """Explicit pairs of two distinct labels, each sorted, or "auto": all
    pairs over the ``selected`` labels."""
    if phone_pairs == "auto":
        return list(combinations(sorted(selected), 2))
    if not isinstance(phone_pairs, (list, tuple)):
        raise ConfigError('phone_pairs must be "auto" or a list of pairs')
    pairs = []
    for p in phone_pairs:
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                and all(isinstance(x, str) for x in p) and p[0] != p[1]):
            raise ConfigError(f"invalid phone pair {p!r}")
        pairs.append(tuple(sorted(p)))
    return pairs


def _pairs_with_epochs(pairs, labels, min_count, where):
    """The ``pairs`` whose phones both have ``min_count`` epochs among the
    epoch ``labels``; each other pair is left out with a warning on stderr.
    Events whose window leaves the recording have no epoch."""
    kept = Counter(labels.tolist())
    fewest = {pair: min(pair, key=kept.__getitem__) for pair in pairs}
    full = [pair for pair in pairs if kept[fewest[pair]] >= min_count]
    if not full:
        raise DataError(f"no phone pairs to evaluate: every pair has a phone "
                        f"with fewer than {min_count} epochs")
    for (a, b), phone in fewest.items():
        if kept[phone] < min_count:
            print(f"warning: skipping pair {a}-{b} for {where}: phone "
                  f"{phone!r} has {kept[phone]} epochs, below min_count "
                  f"{min_count}", file=sys.stderr)
    return full


def evaluate_recording(
    eps: Epochs,
    events: dataio.EventTable,
    subject: str,
    task: str,
    runs: list,                 # list of (configuration, ModelSpec)
    cv: CvConfig,
    phone_pairs,                # "auto" or pairs of labels
    min_count: int,
) -> list[dict]:
    """Metric rows for every (pair, run, fold) of one recording's epochs;
    each pair's dataset and folds are built once for all runs.  "auto" pairs
    are those of the phones with ``min_count`` events, less those left out
    by ``_pairs_with_epochs``; explicit pairs are evaluated as given."""
    pairs = resolve_pairs(phone_pairs, count_phones(events, min_count))
    if not pairs:
        raise DataError("no phone pairs to evaluate (inventory too small?)")
    if phone_pairs == "auto":
        pairs = _pairs_with_epochs(pairs, eps.labels, min_count,
                                   f"subject {subject} task {task}")
    rows = []
    for i, pair in enumerate(pairs, start=1):
        ds = build_pair_dataset(eps, pair[0], pair[1], seed=cv.seed)
        if i == len(pairs):
            del eps  # the last X is built: the fits need nothing else
        folds = evaluation.kfold(ds.y, k=cv.k, seed=cv.seed)
        for configuration, spec in runs:
            per_fold = evaluation.evaluate(spec, ds, folds)
            for fold, m in enumerate(per_fold):
                rows.append({
                    "subject": subject,
                    "task": task,
                    "pair": f"{pair[0]}-{pair[1]}",
                    "model": spec.name,
                    "configuration": configuration,
                    "fold": fold,
                    **m,
                })
    return rows


ROW_KEY = ("task", "configuration", "model", "subject", "pair", "fold")
PAIRING_KEY = ("subject", "pair", "fold")


def sort_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: tuple(r[k] for k in ROW_KEY))


def subject_means(rows: list[dict], metric: str) -> dict:
    """Per-subject mean of a metric over all pairs and folds."""
    acc = {}
    for r in rows:
        acc.setdefault(r["subject"], []).append(r[metric])
    return {s: float(np.mean(v)) for s, v in acc.items()}


def summarize(rows: list[dict]) -> dict:
    """Mean +- std across subjects of per-subject metric means."""
    out = {}
    for metric in ("accuracy", "f1", "auc"):
        per_subject = subject_means(rows, metric)
        vals = [per_subject[s] for s in sorted(per_subject)]
        out[f"{metric}_mean"] = float(np.mean(vals))
        out[f"{metric}_std"] = float(np.std(vals))
    out["n"] = len({r["subject"] for r in rows})
    return out


def paired_metric_vectors(rows_a: list[dict], rows_b: list[dict]):
    """Accuracy vectors aligned on ``PAIRING_KEY`` for paired tests."""
    def _index(rows):
        return {tuple(r[k] for k in PAIRING_KEY): r["accuracy"] for r in rows}
    ia, ib = _index(rows_a), _index(rows_b)
    keys = sorted(set(ia) & set(ib))
    if not keys:
        raise DataError("no common observations to pair")
    return (np.array([ia[k] for k in keys]), np.array([ib[k] for k in keys]))


def compare_rows(label: str, rows_a, rows_b) -> dict:
    """Wilcoxon on paired accuracies as ``{"label", "W", "p", "method"}``;
    W, p and method are None when all diffs are zero."""
    a, b = paired_metric_vectors(rows_a, rows_b)
    try:
        res = evaluation.wilcoxon(a, b)
    except DataError:
        return {"label": label, "W": None, "p": None, "method": None}
    return {"label": label, "W": res.W, "p": res.p, "method": res.method}
