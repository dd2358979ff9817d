"""Signal conditioning: FIR design, zero-phase filtering, decimation,
two-level db4 wavelet denoising, canonical band table, and z-scoring."""

from __future__ import annotations

import functools
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

@dataclass(frozen=True, eq=False)  # hashed by identity, as a cache key
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


@functools.cache
def design_fir(lo: float | None, hi: float, fs: float) -> FirFilter:
    """Hamming-windowed sinc filter: low-pass (lo=None) or band-pass.

    Cutoffs sit half a transition-width outside the requested edges so the
    passband stays flat up to the edge and the stop band begins one
    transition-width past it.  Memoised: the same arguments give the same
    filter, whose taps are read-only.
    """
    nyq = fs / 2.0
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
    h.flags.writeable = False  # one design serves every caller
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


_BLOCK = 32  # kept outputs per row of one matrix product
CHUNK = 8    # channels per group, as pipeline reads and _filter_kept filters
_FFT_SAMPLES = 1 << 16  # samples of one zero-phase transform block


# one entry: every group loop the program runs, and align's paired
# envelopes, filter consecutive rows with one filter at one length, and at
# paper width a spectrum is 5.1 MB; file_epochs with both a band limit and a
# band-pass would remake its two spectra for each group
@functools.lru_cache(maxsize=1)
def _spectrum(filt: FirFilter, nfft: int) -> np.ndarray:
    return np.fft.rfft(filt.coefficients, nfft)


def apply_zero_phase(filt: FirFilter, x: np.ndarray) -> np.ndarray:
    """Filter with no net delay: reflect-pad, convolve once, crop center.

    Accepts a 1-D signal or a [channels x samples] matrix (filtered per row),
    convolved by real FFT (``numpy.fft``) into one float64 output in blocks
    of as many rows as fit ``_FFT_SAMPLES`` at the FFT length, at least one:
    a long row alone, so about three FFT-length buffers are live beside the
    output.  numpy transforms row by row, so the bytes are those of one pass
    over the whole matrix.
    """
    x = np.asarray(x)
    one_d = x.ndim == 1
    if one_d:
        x = x[None, :]
    n = x.shape[1]
    m = len(filt)
    if n <= m:
        raise DataError(f"signal length {n} must exceed filter length {m}")
    pad = (m - 1) // 2
    n_pad = n + 2 * pad
    nfft = _next_fast_len(n_pad + m - 1)
    h_spec = _spectrum(filt, nfft)
    y = np.empty(x.shape)
    step = max(1, _FFT_SAMPLES // nfft)
    for c in range(0, len(x), step):
        # the padded block is dropped as soon as it is transformed
        spec = np.fft.rfft(np.pad(x[c: c + step].astype(float, copy=False),
                                  ((0, 0), (pad, pad)), mode="reflect"),
                           nfft, axis=1)
        spec *= h_spec
        y[c: c + step] = np.fft.irfft(spec, nfft, axis=1)[:, m - 1: n_pad]
    return y[0] if one_d else y


@functools.cache
def _kept_matrix(filt: FirFilter, factor: int, wavelet: bool) -> np.ndarray:
    """The banded Toeplitz matrix that takes one input window to ``_BLOCK``
    kept outputs of ``filt``; with ``wavelet``, each input phase's taps are
    the reversed taps ``h`` convolved with the denoiser's row there."""
    h = filt.coefficients[::-1]
    m = len(h)
    taps, shift = h[None], 0
    if wavelet:
        taps = np.array([np.convolve(h, e[::-1]) for e in _DENOISER_ROWS])
        shift = (m - 1) // 2 + _REACH
    k = np.arange(taps.shape[1])
    toeplitz = np.zeros((_BLOCK * factor - factor + len(k), _BLOCK))
    for j in range(_BLOCK):
        toeplitz[j * factor + k, j] = taps[(j * factor + k - shift) % len(taps), k]
    return toeplitz


def _filter_kept(filt: FirFilter, x: np.ndarray, factor: int,
                 wavelet: bool = False) -> np.ndarray:
    """``apply_zero_phase(filt, x)[:, ::factor]`` up to rounding, for a
    [channels x samples] ``x``: each block of ``_BLOCK`` kept outputs is one
    input window times a banded Toeplitz matrix of the taps.

    With ``wavelet``, the same of each row's ``wavelet_denoise``: blocks whose
    input lies inside ``x`` fold the denoiser into the matrix; the end blocks
    filter the denoised head and tail (cut at a multiple of 4 and ``factor``)."""
    n_channels, n = x.shape
    m = len(filt)
    if n <= m:
        raise DataError(f"signal length {n} must exceed filter length {m}")
    n_out = -(-n // factor)
    step = _BLOCK * factor
    width = step - factor + m  # padded samples under one block
    pad = (m - 1) // 2
    # the blocks the loop computes, and how far a block's input starts
    # before its padded window
    first, stop, shift = 0, -(-n_out // _BLOCK), 0
    if wavelet:
        first = -(-(pad + _REACH) // step)
        stop = max(first, (n - width - _REACH + pad) // step + 1)
        if first == stop:
            return _filter_kept(filt, _denoise_rows(x), factor)
        shift = pad + _REACH
    toeplitz = _kept_matrix(filt, factor, wavelet)
    out = np.empty((n_channels, n_out))
    if wavelet:
        head = (first - 1) * step - pad + width + _REACH
        out[:, :first * _BLOCK] = _filter_kept(
            filt, _denoise_rows(x[:, :head]), factor)[:, :first * _BLOCK]
        tail = stop * step - shift
        tail -= tail % math.lcm(4, factor)
        out[:, stop * _BLOCK:] = _filter_kept(
            filt, _denoise_rows(x[:, tail:]), factor)[:, stop * _BLOCK - tail // factor:]
    for c in range(0, n_channels, CHUNK):
        if wavelet:
            src = x[c: c + CHUNK, first * step - shift:]
        else:
            # up to a block past the reflected end, feeding only dropped outputs
            src = np.pad(x[c: c + CHUNK].astype(float, copy=False),
                         ((0, 0), (pad, pad + step)), mode="reflect")
        windows = np.lib.stride_tricks.sliding_window_view(
            src, len(toeplitz), axis=1)[:, ::step][:, :stop - first]
        # one row's overlapping windows copied at a time; numpy's stacked
        # product is one gemm per row anyway, so the bytes are the same
        for row, dst in zip(windows, out[c: c + CHUNK]):
            y = np.ascontiguousarray(row, dtype=float) @ toeplitz
            dst[first * _BLOCK: stop * _BLOCK] = y.ravel()[:n_out - first * _BLOCK]
    return out


def decimate(rec: Recording, factor: int = 10, wavelet: bool = False) -> Recording:
    """Keep every factor-th sample of a low-pass whose stop band ends at the
    new Nyquist fs/2/factor (pass edge 0.8 of it, lower where the 2 Hz
    transition floor would overshoot), computed at the kept samples only.

    With ``wavelet``, decimate ``wavelet_denoise_recording(rec)`` up to
    rounding, the denoiser also computed inside the kept-sample filter."""
    if wavelet and (factor == 1 or rec.n_samples < _FILT_LEN):
        # the two-step chain, and its errors
        rec, wavelet = wavelet_denoise_recording(rec), False
    if factor == 1:
        return rec
    # before the filter design, whose length grows with the factor
    if -(-rec.n_samples // factor) < 2:
        raise DataError("decimated recording would have fewer than 2 samples")
    nyq = 0.5 * rec.sample_rate / factor
    filt = design_fir(None, min(0.8 * nyq, max(nyq - 2.0, 0.5 * nyq)),
                      rec.sample_rate)
    return rec.with_data(_filter_kept(filt, rec.data, factor, wavelet),
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


def wavelet_denoise(x: np.ndarray) -> np.ndarray:
    """Keep only the second-level approximation (details zeroed): two
    low-pass analysis steps, then two low-pass synthesis steps."""
    x = _check_signal(x)
    cA1 = _analysis(x, _DEC_LO)
    cA2 = _analysis(cA1, _DEC_LO)
    return _synthesis(_synthesis(cA2, _REC_LO, len(cA1)), _REC_LO, len(x))


# Away from the ends, each denoised sample reads the input within _REACH
# samples and the denoiser repeats every 4 samples (two halvings).  Row q:
# the denoised samples i - _REACH .. i + _REACH of a unit impulse at i,
# i % 4 == q.
_REACH = 21
_DENOISER_ROWS = np.array([
    wavelet_denoise(np.eye(1, 8 * _REACH, 4 * _REACH + q)[0])
    [3 * _REACH + q: 5 * _REACH + q + 1] for q in range(4)])


def _denoise_rows(x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape)
    for i, row in enumerate(x):
        out[i] = wavelet_denoise(row)
    return out


def wavelet_denoise_recording(rec: Recording) -> Recording:
    return rec.with_data(_denoise_rows(rec.data))


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
