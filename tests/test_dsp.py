import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from phonepair import dsp
from phonepair.dataio import DataError
from phonepair.dsp import (BANDS, apply_zero_phase,
                           compute_zscore_stats, apply_zscore, decimate,
                           design_fir, wavelet_decompose, wavelet_denoise)

from helpers import make_recording


def freq_response(filt, n=4096):
    H = np.fft.rfft(filt.coefficients, n)
    freqs = np.fft.rfftfreq(n, 1.0 / filt.fs)
    return freqs, H


class TestFirDesign:
    def test_symmetric_and_odd(self):
        for lo, hi, fs in [(None, 50, 1000), (0.2, 31, 100), (4, 7, 1000),
                           (60, 300, 1000)]:
            f = design_fir(lo, hi, fs)
            h = f.coefficients
            assert len(h) % 2 == 1
            assert np.max(np.abs(h - h[::-1])) < 1e-12

    def test_lowpass_dc_gain(self):
        f = design_fir(None, 50, 1000)
        assert abs(f.coefficients.sum() - 1.0) < 1e-6

    def test_training_bandpass_design(self):
        f = design_fir(0.2, 31, 100)
        assert f.transition_lo == pytest.approx(0.2)
        assert f.transition_hi == pytest.approx(7.75)
        assert len(f) == 1651

    @pytest.mark.parametrize("lo,hi,fs", [(None, 50, 1000), (0.2, 31, 100),
                                          (14, 31, 1000)])
    def test_stopband_attenuation(self, lo, hi, fs):
        f = design_fir(lo, hi, fs)
        freqs, H = freq_response(f)
        stop = freqs >= hi + f.transition_hi
        assert 20 * np.log10(np.max(np.abs(H[stop]))) <= -40
        if lo is not None:
            stop_lo = (freqs > 0) & (freqs <= lo - f.transition_lo)
            if stop_lo.any():
                assert 20 * np.log10(np.max(np.abs(H[stop_lo]))) <= -40

    def test_error_cases(self):
        with pytest.raises(DataError, match="below Nyquist"):
            design_fir(None, 500, 1000)  # at Nyquist
        with pytest.raises(DataError, match="must be positive"):
            design_fir(0, 31, 100)
        with pytest.raises(DataError, match="below high edge"):
            design_fir(31, 0.2, 100)


class TestZeroPhase:
    def test_passband_phase(self):
        # sinusoid at band center stays phase-aligned within 1 degree
        fs = 1000.0
        f = design_fir(14, 31, fs)
        t = np.arange(20000) / fs
        x = np.sin(2 * np.pi * 22.0 * t)
        y = apply_zero_phase(f, x)
        core = slice(5000, 15000)
        # phase via complex demodulation
        osc = np.exp(-2j * np.pi * 22.0 * t[core])
        phase = np.angle(np.sum(y[core] * osc)) - np.angle(np.sum(x[core] * osc))
        assert abs(np.degrees(phase)) < 1.0

    def test_stopband_amplitude(self):
        fs = 1000.0
        f = design_fir(14, 31, fs)
        t = np.arange(20000) / fs
        x = np.sin(2 * np.pi * (31 + 2 * f.transition_hi) * t)
        y = apply_zero_phase(f, x)
        core = slice(5000, 15000)
        assert np.sqrt(np.mean(y[core] ** 2)) <= 0.01 * np.sqrt(np.mean(x[core] ** 2))

    def test_zero_signal(self):
        f = design_fir(None, 50, 1000)
        y = apply_zero_phase(f, np.zeros(1000))
        assert np.all(y == 0)

    def test_impulse_response_symmetric(self):
        f = design_fir(None, 50, 1000)
        x = np.zeros(2001)
        x[1000] = 1.0
        y = apply_zero_phase(f, x)
        assert np.argmax(np.abs(y)) == 1000
        w = 100
        left = y[1000 - w:1000]
        right = y[1000 + 1:1000 + w + 1][::-1]
        assert np.allclose(left, right, atol=1e-12)

    def test_too_short_signal(self):
        f = design_fir(None, 50, 1000)
        with pytest.raises(DataError, match="length"):
            apply_zero_phase(f, np.zeros(10))


def fftconvolve_oracle(filt, x):
    """apply_zero_phase's reflect-pad and crop around scipy's fftconvolve."""
    from scipy.signal import fftconvolve
    h = filt.coefficients
    pad = (len(h) - 1) // 2
    padded = np.pad(np.atleast_2d(x), ((0, 0), (pad, pad)), mode="reflect")
    y = fftconvolve(padded, h[None, :], mode="valid", axes=1)
    return y[0] if np.ndim(x) == 1 else y


class TestFftConvolution:
    @pytest.mark.parametrize("design,shape,random_taps", [
        ((None, 50, 1000), (2, 777), 65),
        ((None, 200, 1000), (3, 5000), None),      # 67 taps
        ((14, 31, 1000), (8, 4000), None),         # 943 taps
        ((0.2, 31, 100), (153, 4000), None),       # 1651 taps
        ((0.2, 31, 100), (9001,), None),
        ((None, 50, 1000), (48000,), None),        # 265 taps
    ])
    def test_bitwise_equal_to_scipy(self, design, shape, random_taps):
        rng = np.random.default_rng(len(shape))
        f = design_fir(*design)
        if random_taps:
            f = replace(f, coefficients=rng.standard_normal(random_taps))
        x = rng.standard_normal(shape)
        y = apply_zero_phase(f, x)
        assert y.shape == x.shape
        assert np.array_equal(y, fftconvolve_oracle(f, x))

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len
        for n in range(1, 20001):
            assert dsp._next_fast_len(n) == next_fast_len(n, True), n

    def test_cli_import_leaves_out_scipy_signal(self):
        src = os.path.dirname(os.path.dirname(dsp.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, phonepair.cli; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"


class TestDecimate:
    def test_rate_division(self):
        rec = make_recording(2, 2000, fs=1000.0)
        out = decimate(rec, 10)
        assert out.sample_rate == 100.0
        assert out.n_samples == 200

    def test_factor_one_identity(self):
        rec = make_recording(2, 500, fs=1000.0)
        out = decimate(rec, 1)
        assert out is rec

    def test_alias_attenuation(self):
        # white noise: post-filter content beyond the transition band is
        # down >= 40 dB relative to the passband
        rec = make_recording(1, 60000, fs=1000.0, seed=3)
        filt = design_fir(None, 50.0, 1000.0)
        filtered = apply_zero_phase(filt, rec.data[0])
        spec = np.abs(np.fft.rfft(filtered)) ** 2
        freqs = np.fft.rfftfreq(60000, 1 / 1000)
        passband = spec[(freqs > 1) & (freqs < 45)].mean()
        aliases = spec[freqs > 50 + filt.transition_hi].mean()
        assert 10 * np.log10(passband / aliases) >= 40

    def test_cascade_rate_matches_single(self):
        rec = make_recording(1, 8000, fs=1000.0)
        a = decimate(decimate(rec, 2), 5)
        b = decimate(rec, 10)
        assert a.sample_rate == b.sample_rate == 100.0

    def test_too_short(self):
        rec = make_recording(1, 300, fs=1000.0)
        with pytest.raises(DataError, match="must exceed filter length"):
            decimate(rec, 200)

    def test_factor_beyond_the_recording(self):
        # checked before the filter design, whose taps at this factor
        # numpy could not allocate
        rec = make_recording(1, 300, fs=1000.0)
        with pytest.raises(DataError, match="fewer than 2 samples"):
            decimate(rec, 10**30)


class TestWavelet:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(64, 4097))
            x = rng.standard_normal(n)
            w = wavelet_decompose(x)
            err = np.linalg.norm(w.reconstruct() - x) / np.linalg.norm(x)
            assert err < 1e-8

    def test_one_level_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(321)
        w = wavelet_decompose(x)
        assert np.allclose(w.a1 + w.d1, x, atol=1e-10)

    def test_constant_preserved(self):
        x = np.full(200, 5.0)
        y = wavelet_denoise(x)
        assert len(y) == len(x)
        assert np.max(np.abs(y - 5.0)) <= 1e-8 * 5.0

    def test_high_frequency_removed(self):
        t = np.arange(2000) / 1000.0
        x = np.sin(2 * np.pi * 400 * t)
        y = wavelet_denoise(x)
        assert np.sqrt(np.mean(y ** 2)) <= 0.15 * np.sqrt(np.mean(x ** 2))

    def test_too_short(self):
        with pytest.raises(DataError, match="below the filter length"):
            wavelet_denoise(np.zeros(7))

    def test_two_d_input(self):
        with pytest.raises(DataError, match="1-D"):
            wavelet_denoise(np.zeros((2, 100)))

    def test_denoise_equals_decomposition_a2(self):
        rng = np.random.default_rng(3)
        for n in list(range(8, 41)) + [40001]:
            x = rng.standard_normal(n)
            assert np.array_equal(wavelet_denoise(x), wavelet_decompose(x).a2), n

    def test_golden_vector(self):
        # frozen two-level decomposition of a fixed ramp+sine signal
        import os
        path = os.path.join(os.path.dirname(__file__), "fixtures",
                            "dwt_golden.tsv")
        table = np.loadtxt(path, delimiter="\t", skiprows=1)
        x = table[:, 0]
        w = wavelet_decompose(x)
        assert np.allclose(w.a2, table[:, 1], atol=1e-10)
        assert np.allclose(w.d2, table[:, 2], atol=1e-10)
        assert np.allclose(w.d1, table[:, 3], atol=1e-10)


class TestBands:
    def test_canonical_table(self):
        assert BANDS["Delta"] == (0.2, 3.0)
        assert BANDS["Theta"] == (4.0, 7.0)
        assert BANDS["Alpha"] == (8.0, 13.0)
        assert BANDS["Beta"] == (14.0, 31.0)
        assert BANDS["Gamma"] == (32.0, 100.0)
        assert BANDS["HGA"] == (60.0, 300.0)


class TestZScore:
    def test_standardizes(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 5)) * 3 + 2
        stats = compute_zscore_stats(X)
        Z = apply_zscore(X, stats)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1, atol=1e-9)

    def test_gaussian_columns(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((100, 4))
        Z = apply_zscore(X, compute_zscore_stats(X))
        assert np.all(np.abs(Z.mean(axis=0)) <= 0.2)
        assert np.all((Z.std(axis=0) >= 0.8) & (Z.std(axis=0) <= 1.2))

    def test_constant_column_zeroed(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        Z = apply_zscore(X, compute_zscore_stats(X))
        assert np.all(Z[:, 0] == 0)

    def test_single_row_errors(self):
        with pytest.raises(DataError, match="at least 2 rows"):
            compute_zscore_stats(np.ones((1, 3)))

    def test_restandardization_idempotent(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3)) * 10 + 4
        Z = apply_zscore(X, compute_zscore_stats(X))
        Z2 = apply_zscore(Z, compute_zscore_stats(Z))
        assert np.allclose(Z, Z2, atol=1e-9)
