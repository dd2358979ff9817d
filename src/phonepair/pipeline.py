"""Preprocessing chain and per-recording evaluation: a preprocessed
recording plus (configuration, model) runs give per-fold metric rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import dataio, dsp, evaluation
from .dataio import ConfigError, DataError
from .epochs import build_pair_dataset, count_phones, extract_epochs

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
    decimation, then optional band-pass filtering."""
    rec = dataio.select_channels(rec, toggles.sensor_kinds)
    if toggles.wavelet:
        rec = dsp.wavelet_denoise_recording(rec)
    if toggles.decimation_factor > 1:
        rec = dsp.decimate(rec, toggles.decimation_factor)
    if toggles.band_limit is not None:
        filt = dsp.design_fir(BAND_PASS_LO, toggles.band_limit, rec.sample_rate)
        rec = rec.with_data(dsp.apply_zero_phase(filt, rec.data))
    return rec


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


def evaluate_recording(
    prec: dataio.Recording,
    events: dataio.EventTable,
    subject: str,
    task: str,
    runs: list,                 # list of (configuration, name, ModelSpec)
    cv: CvConfig,
    phone_pairs,                # "auto" or pairs of labels
    min_count: int,
    window: EpochWindow,
) -> list[dict]:
    """Metric rows for every (pair, run, fold) of one preprocessed recording;
    each pair's dataset and folds are built once for all runs."""
    eps, _skipped = extract_epochs(prec, events, window.tmin, window.tmax)
    pairs = resolve_pairs(phone_pairs, count_phones(events, min_count))
    if not pairs:
        raise DataError("no phone pairs to evaluate (inventory too small?)")
    rows = []
    for pair in pairs:
        ds = build_pair_dataset(eps, pair[0], pair[1], seed=cv.seed)
        folds = evaluation.kfold(ds.y, k=cv.k, seed=cv.seed)
        for configuration, name, spec in runs:
            per_fold = evaluation.evaluate(spec, ds, folds)
            for fold, m in enumerate(per_fold):
                rows.append({
                    "subject": subject,
                    "task": task,
                    "pair": f"{pair[0]}-{pair[1]}",
                    "model": name,
                    "configuration": configuration,
                    "fold": fold,
                    **m,
                })
    return rows


ROW_KEY = ("task", "configuration", "model", "subject", "pair", "fold")
PAIRING_KEY = ("subject", "task", "pair", "fold")


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


def paired_metric_vectors(rows_a: list[dict], rows_b: list[dict],
                          metric="accuracy", key=PAIRING_KEY):
    """Metric vectors aligned on the ``key`` fields for paired tests."""
    def _index(rows):
        return {tuple(r[k] for k in key): r[metric] for r in rows}
    ia, ib = _index(rows_a), _index(rows_b)
    keys = sorted(set(ia) & set(ib))
    if not keys:
        raise DataError("no common observations to pair")
    return (np.array([ia[k] for k in keys]), np.array([ib[k] for k in keys]))


def compare_rows(rows_a, rows_b, metric="accuracy", key=PAIRING_KEY):
    """Wilcoxon on per-example paired metrics; None when all diffs are zero."""
    a, b = paired_metric_vectors(rows_a, rows_b, metric, key)
    try:
        return evaluation.wilcoxon(a, b)
    except DataError:
        return None
