"""Audio-to-MISC-channel alignment by coarse cross-correlation with
iterative window-narrowing, band-widening refinement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .dataio import DataError


# Low-pass cutoffs (Hz) for the four envelope-correlation stages.
STAGE_CUTOFFS = (10.0, 20.0, 40.0, 80.0)

LOW_CONFIDENCE_THRESHOLD = 0.2


@dataclass(frozen=True)
class AlignmentResult:
    delay: float                    # seconds; positive = audio lags misc
    peak_correlation: float
    low_confidence: bool
    iterations: tuple[dict, ...]  # delay_window, band_hi, delay_estimate


def _envelope(x: np.ndarray, cutoff: float, fs: float) -> np.ndarray:
    cutoff = min(cutoff, 0.4 * fs)
    return dsp.apply_zero_phase(dsp.design_fir(None, cutoff, fs), np.abs(x))


def _ncc_peak(misc: np.ndarray, audio: np.ndarray, lags: np.ndarray):
    """Best lag and its Pearson correlation.

    Lag d compares misc[t] against audio[t + d]; the misc segment is fixed
    so every candidate lag is scored on the same number of samples.
    """
    n = min(len(misc), len(audio))
    lo, hi = int(lags.min()), int(lags.max())
    t0 = max(0, -lo)
    t1 = n - max(0, hi)
    if t1 - t0 < 16:
        raise DataError("alignment window exceeds half the shorter signal")
    seg = misc[t0:t1]
    seg = seg - seg.mean()
    seg_norm = np.linalg.norm(seg)
    if seg_norm == 0:
        raise DataError("misc signal has zero variance in an analysis band")
    m = len(seg)
    best_corr, best_lag = -2.0, lags[0]
    # sliding sums over audio windows of length m
    c1 = np.concatenate([[0.0], np.cumsum(audio)])
    c2 = np.concatenate([[0.0], np.cumsum(audio ** 2)])
    for d in lags:
        a = audio[t0 + d: t0 + d + m]
        s1 = c1[t0 + d + m] - c1[t0 + d]
        s2 = c2[t0 + d + m] - c2[t0 + d]
        var = s2 - s1 * s1 / m
        if var <= 0:
            raise DataError("audio signal has zero variance in an analysis band")
        corr = (seg @ a - seg.sum() * s1 / m) / (seg_norm * np.sqrt(var))
        if corr > best_corr:
            best_corr, best_lag = corr, int(d)
    return best_lag, float(best_corr)


def align(misc: np.ndarray, audio: np.ndarray, fs: float, window: float) -> AlignmentResult:
    """Estimate the constant delay between the MISC copy of the audio and
    the reference audio, both sampled at ``fs``.

    Stage 1 correlates <=10 Hz envelopes over +-window; each later stage
    halves the lag window around the running estimate and doubles the
    envelope band.
    """
    misc = np.asarray(misc, dtype=float)
    audio = np.asarray(audio, dtype=float)
    n = min(len(misc), len(audio))
    # clipped in float before int(): a product that overflowed is too long
    w0 = int(round(min(window * fs, n + 1)))
    if w0 > n // 2:
        raise DataError("alignment window exceeds half the shorter signal")

    estimate = 0
    trace = []
    peak = -2.0
    for i, cutoff in enumerate(STAGE_CUTOFFS):
        w = max(1, w0 >> i)
        env_m = _envelope(misc, cutoff, fs)
        env_a = _envelope(audio, cutoff, fs)
        lo = max(-w0, estimate - w)
        hi = min(w0, estimate + w)
        lags = np.arange(lo, hi + 1)
        estimate, peak = _ncc_peak(env_m, env_a, lags)
        trace.append({"delay_window": w / fs, "band_hi": min(cutoff, 0.4 * fs),
                      "delay_estimate": estimate / fs})

    return AlignmentResult(
        delay=estimate / fs,
        peak_correlation=peak,
        low_confidence=peak < LOW_CONFIDENCE_THRESHOLD,
        iterations=tuple(trace),
    )
