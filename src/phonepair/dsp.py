"""Signal conditioning: FIR design, zero-phase filtering, decimation,
two-level db4 wavelet denoising, canonical band table, and z-scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import DataError, Recording


# Canonical oscillation bands (Hz).
BANDS = {
    "Delta": (0.2, 3.0),
    "Theta": (4.0, 7.0),
    "Alpha": (8.0, 13.0),
    "Beta": (14.0, 31.0),
    "Gamma": (32.0, 100.0),
    "HGA": (60.0, 300.0),
}

BAND_ORDER = ("Delta", "Theta", "Alpha", "Beta", "Gamma", "HGA")


# ---------------------------------------------------------------------------
# FIR design and zero-phase application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirFilter:
    coefficients: np.ndarray
    lo: float | None
    hi: float
    fs: float
    transition_lo: float | None
    transition_hi: float

    def __len__(self) -> int:
        return len(self.coefficients)


def _transition_bandwidth(edge: float) -> float:
    # a quarter of the edge frequency, floored at 2 Hz, never wider than
    # the edge itself
    return min(max(0.25 * edge, 2.0), edge)


def _windowed_sinc_lowpass(cutoff: float, fs: float, numtaps: int) -> np.ndarray:
    n = np.arange(numtaps) - (numtaps - 1) / 2
    h = (2.0 * cutoff / fs) * np.sinc(2.0 * cutoff / fs * n)
    h *= np.hamming(numtaps)
    return h / h.sum()  # unit DC gain


def design_fir(lo: float | None, hi: float, fs: float) -> FirFilter:
    """Hamming-windowed sinc filter: low-pass (lo=None) or band-pass.

    Cutoffs sit half a transition-width outside the requested edges so the
    passband stays flat up to the edge and the stop band begins one
    transition-width past it.
    """
    nyq = fs / 2.0
    if hi is None:
        raise DataError("high edge is required (low-pass or band-pass only)")
    if hi >= nyq:
        raise DataError(f"high edge {hi} Hz must be below Nyquist {nyq} Hz")
    tbw_hi = _transition_bandwidth(hi)
    if hi + tbw_hi / 2.0 >= nyq:
        raise DataError(f"transition band of edge {hi} Hz exceeds Nyquist {nyq} Hz")
    if lo is not None:
        if lo <= 0:
            raise DataError("low edge must be positive for a band-pass design")
        if lo >= hi:
            raise DataError(f"low edge {lo} must be below high edge {hi}")
        tbw_lo = _transition_bandwidth(lo)
        min_tbw = min(tbw_lo, tbw_hi)
    else:
        tbw_lo = None
        min_tbw = tbw_hi

    numtaps = math.ceil(3.3 * fs / min_tbw)
    if numtaps % 2 == 0:
        numtaps += 1

    h_hi = _windowed_sinc_lowpass(hi + tbw_hi / 2.0, fs, numtaps)
    if lo is None:
        h = h_hi
    else:
        h_lo = _windowed_sinc_lowpass(lo - tbw_lo / 2.0, fs, numtaps)
        h = h_hi - h_lo
    return FirFilter(
        coefficients=h, lo=lo, hi=hi, fs=fs,
        transition_lo=tbw_lo, transition_hi=tbw_hi,
    )


def _next_fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, the real-input FFT length that
    ``scipy.fft.next_fast_len`` picks."""
    best = 1 << (n - 1).bit_length()
    p35 = 1
    while p35 < best:
        p = p35
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p35 *= 5
    return best


def apply_zero_phase(filt: FirFilter, x: np.ndarray) -> np.ndarray:
    """Filter with no net delay: reflect-pad, convolve once, crop center.

    Accepts a 1-D signal or a [channels x samples] matrix (filtered per row).
    Filters longer than 64 taps convolve by real FFT (``numpy.fft``).
    """
    h = filt.coefficients
    x = np.asarray(x, dtype=float)
    one_d = x.ndim == 1
    if one_d:
        x = x[None, :]
    n = x.shape[1]
    m = len(h)
    if n <= m:
        raise DataError(f"signal length {n} must exceed filter length {m}")
    pad = (m - 1) // 2
    padded = np.pad(x, ((0, 0), (pad, pad)), mode="reflect")
    if m > 64:
        n_pad = padded.shape[1]
        nfft = _next_fast_len(n_pad + m - 1)
        spec = np.fft.rfft(padded, nfft, axis=1) * np.fft.rfft(h, nfft)
        y = np.fft.irfft(spec, nfft, axis=1)[:, m - 1: n_pad].copy()
    else:
        y = np.apply_along_axis(lambda row: np.convolve(row, h, mode="valid"), 1, padded)
    return y[0] if one_d else y


def decimate(rec: Recording, factor: int = 10) -> Recording:
    """Antialias low-pass (cutoff fs/2/factor) then keep every factor-th sample."""
    if factor == 1:
        return rec
    # before the filter design, whose length grows with the factor
    if -(-rec.n_samples // factor) < 2:
        raise DataError("decimated recording would have fewer than 2 samples")
    cutoff = 0.5 * rec.sample_rate / factor
    filt = design_fir(None, cutoff, rec.sample_rate)
    filtered = apply_zero_phase(filt, rec.data)
    return rec.with_data(filtered[:, ::factor],
                         sample_rate=rec.sample_rate / factor)


# ---------------------------------------------------------------------------
# Daubechies-4 two-level wavelet decomposition
# ---------------------------------------------------------------------------

# db4 decomposition low-pass taps (8 coefficients, 4 vanishing moments).
_DEC_LO = np.array([
    -0.010597401784997278,
    0.032883011666982945,
    0.030841381835986965,
    -0.18703481171888114,
    -0.02798376941698385,
    0.6308807679295904,
    0.7148465705525415,
    0.23037781330885523,
])
_FILT_LEN = len(_DEC_LO)
_REC_LO = _DEC_LO[::-1].copy()
_DEC_HI = ((-1) ** np.arange(_FILT_LEN)) * _REC_LO
_REC_HI = _DEC_HI[::-1].copy()
_IDWT_OFFSET = 6  # crop start of the synthesis convolution (fixed by the
                  # symmetric-extension alignment below)


def _sym_ext(x: np.ndarray, p: int) -> np.ndarray:
    return np.concatenate([x[p - 1::-1], x, x[:-p - 1:-1]])


def _analysis(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """One analysis branch: filter the symmetric extension, keep odd samples."""
    p = _FILT_LEN - 1
    return np.convolve(_sym_ext(x, p), taps)[p: p + len(x) + p][1::2]


def _synthesis(c: np.ndarray, taps: np.ndarray, n_out: int) -> np.ndarray:
    """One synthesis branch: upsample by two, filter, crop to ``n_out``."""
    up = np.zeros(2 * len(c))
    up[::2] = c
    return np.convolve(up, taps)[_IDWT_OFFSET: _IDWT_OFFSET + n_out]


def _check_signal(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("the wavelet transform expects a 1-D signal")
    if len(x) < _FILT_LEN:
        raise DataError(f"signal length {len(x)} is below the filter length {_FILT_LEN}")
    return x


@dataclass(frozen=True)
class WaveletDecomposition:
    """Full-length branch signals of the two-level split s = a2 + d2 + d1."""

    a1: np.ndarray
    d1: np.ndarray
    a2: np.ndarray
    d2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.a2 + self.d2 + self.d1


def wavelet_decompose(x: np.ndarray) -> WaveletDecomposition:
    """Two-level db4 analysis with symmetric extension, each component
    reconstructed back to the input length."""
    x = _check_signal(x)
    n = len(x)
    cA1, cD1 = _analysis(x, _DEC_LO), _analysis(x, _DEC_HI)
    n1 = len(cA1)
    return WaveletDecomposition(
        a1=_synthesis(cA1, _REC_LO, n),
        d1=_synthesis(cD1, _REC_HI, n),
        a2=_synthesis(_synthesis(_analysis(cA1, _DEC_LO), _REC_LO, n1), _REC_LO, n),
        d2=_synthesis(_synthesis(_analysis(cA1, _DEC_HI), _REC_HI, n1), _REC_LO, n),
    )


def wavelet_denoise(x: np.ndarray) -> np.ndarray:
    """Keep only the second-level approximation (details zeroed): two
    low-pass analysis steps, then two low-pass synthesis steps."""
    x = _check_signal(x)
    cA1 = _analysis(x, _DEC_LO)
    cA2 = _analysis(cA1, _DEC_LO)
    return _synthesis(_synthesis(cA2, _REC_LO, len(cA1)), _REC_LO, len(x))


def wavelet_denoise_recording(rec: Recording) -> Recording:
    out = np.vstack([wavelet_denoise(row) for row in rec.data])
    return rec.with_data(out)


# ---------------------------------------------------------------------------
# z-scoring
# ---------------------------------------------------------------------------

STD_FLOOR = 1e-8


def compute_zscore_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean, std), the std floored at ``STD_FLOOR``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("need a 2-D matrix with at least 2 rows for z-score stats")
    return X.mean(axis=0), np.maximum(X.std(axis=0), STD_FLOOR)


def apply_zscore(X: np.ndarray, stats: tuple) -> np.ndarray:
    """Z-score X with the (mean, std) of :func:`compute_zscore_stats`."""
    X = np.asarray(X, dtype=float)
    mean, std = stats
    if X.shape[1] != len(mean):
        raise DataError(
            f"feature dimension {X.shape[1]} does not match stats {len(mean)}"
        )
    return (X - mean) / std
