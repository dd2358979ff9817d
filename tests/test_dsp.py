import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from phonepair import dsp
from phonepair.dataio import DataError
from phonepair.dsp import (BANDS, apply_zero_phase,
                           compute_zscore_stats, apply_zscore, decimate,
                           design_fir, wavelet_denoise)

from helpers import make_recording, wavelet_decompose


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

    def test_low_pass_stop_band_on_white_noise(self):
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


def whole_matrix_zero_phase(filt, x):
    """apply_zero_phase as one pass over the whole matrix: every row cast,
    padded and transformed at once."""
    h = filt.coefficients
    x = np.asarray(x, dtype=float)
    one_d = x.ndim == 1
    if one_d:
        x = x[None, :]
    m = len(h)
    pad = (m - 1) // 2
    padded = np.pad(x, ((0, 0), (pad, pad)), mode="reflect")
    n_pad = padded.shape[1]
    nfft = dsp._next_fast_len(n_pad + m - 1)
    spec = np.fft.rfft(padded, nfft, axis=1) * np.fft.rfft(h, nfft)
    y = np.fft.irfft(spec, nfft, axis=1)[:, m - 1: n_pad].copy()
    return y[0] if one_d else y


class TestChannelBlocks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 5000), (7, 5000), (8, 5000),
                                       (9, 5000), (51, 3001), (5000,)])
    def test_equal_to_one_pass_over_the_whole_matrix(self, shape, dtype):
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        x = x.astype(dtype)
        filt = design_fir(0.2, 31, 100)    # 1651 taps
        y = apply_zero_phase(filt, x)
        want = whole_matrix_zero_phase(filt, x)
        assert y.dtype == want.dtype == np.float64
        assert y.shape == want.shape
        assert y.tobytes() == want.tobytes()

    def test_memory_stays_near_the_output_size(self):
        # a full-rate band-pass of a float32 recording; one pass over the
        # whole matrix peaks at about 7.6 times the output
        x = np.random.default_rng(0).standard_normal((51, 32000))
        x = x.astype(np.float32)
        filt = design_fir(4, 7, 1000)
        tracemalloc.start()
        try:
            y = apply_zero_phase(filt, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * y.nbytes


class TestFftConvolution:
    @pytest.mark.parametrize("design,shape,random_taps", [
        ((None, 50, 1000), (2, 777), 65),
        ((None, 200, 1000), (3, 5000), None),      # 67 taps
        ((14, 31, 1000), (8, 4000), None),         # 943 taps
        ((0.2, 31, 100), (153, 4000), None),       # 1651 taps
        ((0.2, 31, 100), (9001,), None),
        ((None, 50, 1000), (48000,), None),        # 265 taps
        ((None, 50, 1000), (4, 3000), 33),
        ((None, 250, 1000), (5, 2000), None),      # 53 taps
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

    @staticmethod
    def tone_gain_db(f0, factor=10, fs=1000.0, n=20000, wavelet=False):
        """Gain of decimate on a tone, fitted at the frequency the tone
        lands on after decimation, away from the reflected ends."""
        t = np.arange(n) / fs
        rec = make_recording(1, n, fs=fs).with_data(
            np.sin(2 * np.pi * f0 * t + 0.3)[None, :])
        out = decimate(rec, factor, wavelet)
        new_fs = fs / factor
        f_out = abs(f0 - new_fs * round(f0 / new_fs))
        t_out = np.arange(out.n_samples)[200:-200] / new_fs
        basis = np.column_stack([np.cos(2 * np.pi * f_out * t_out),
                                 np.sin(2 * np.pi * f_out * t_out)])
        coef = np.linalg.lstsq(basis, out.data[0, 200:-200], rcond=None)[0]
        return 20 * np.log10(np.hypot(*coef))

    @pytest.mark.parametrize("f0", [52.0, 55.0, 58.0, 60.0, 62.5])
    def test_tones_above_the_new_nyquist_do_not_alias(self, f0):
        # 52 Hz would land on 48 Hz; a stop band from 62.5 Hz let it
        # through at -0.5 dB
        assert self.tone_gain_db(f0) <= -40

    @pytest.mark.parametrize("f0", [52.0, 55.0, 58.0, 60.0, 62.5])
    def test_tones_above_the_new_nyquist_do_not_alias_with_the_wavelet(self, f0):
        assert self.tone_gain_db(f0, wavelet=True) <= -40

    @pytest.mark.parametrize("f0", [1.0, 5.0, 13.0, 22.0, 31.0])
    def test_tones_in_the_analysis_bands_pass(self, f0):
        assert abs(self.tone_gain_db(f0)) <= 0.1

    @pytest.mark.parametrize("factor", [2, 5, 10, 25, 100])
    def test_stop_band_ends_at_the_new_nyquist(self, factor, monkeypatch):
        designed = []

        def spy(*args):
            designed.append(design_fir(*args))
            return designed[-1]

        monkeypatch.setattr(dsp, "design_fir", spy)
        decimate(make_recording(1, 20000, fs=1000.0), factor)
        (filt,) = designed
        assert filt.hi + filt.transition_hi <= 500.0 / factor
        assert filt.hi >= 0.5 * 500.0 / factor

    @pytest.mark.parametrize("factor,extra", [
        (2, 2), (2, 3002), (5, 1), (5, 3001), (10, 1), (10, 3001)])
    def test_kept_outputs_match_the_full_rate_filter(self, factor, extra):
        # n just above the filter length (67, 165 or 331 taps) or well past
        # it, and never a multiple of the factor
        rng = np.random.default_rng(factor * extra)
        filt = design_fir(None, 0.4 * 500.0 / factor, 1000.0)
        n = len(filt) + extra
        assert n % factor != 0
        x = rng.standard_normal((11, n))
        y = dsp._filter_kept(filt, x, factor)
        want = apply_zero_phase(filt, x)[:, ::factor]
        assert y.shape == want.shape
        assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()
        y32 = dsp._filter_kept(filt, x.astype(np.float32), factor)
        want32 = apply_zero_phase(filt, x.astype(np.float32))[:, ::factor]
        assert np.abs(y32 - want32).max() <= 1e-12 * np.abs(want32).max()

    @staticmethod
    def stacked_interior(filt, x, factor, wavelet):
        """The first column and the bytes of ``_filter_kept``'s interior
        blocks as one stacked product of every row's windows."""
        m, n = len(filt), x.shape[1]
        step, pad = dsp._BLOCK * factor, (m - 1) // 2
        n_out = -(-n // factor)
        toeplitz = dsp._kept_matrix(filt, factor, wavelet)
        if wavelet:
            first = -(-(pad + dsp._REACH) // step)
            stop = (n - (step - factor + m) - dsp._REACH + pad) // step + 1
            src = x[:, first * step - pad - dsp._REACH:]
        else:
            first, stop = 0, -(-n_out // dsp._BLOCK)
            src = np.pad(x.astype(float), ((0, 0), (pad, pad + step)),
                         mode="reflect")
        windows = np.lib.stride_tricks.sliding_window_view(
            src, len(toeplitz), axis=1)[:, ::step][:, :stop - first]
        y = np.ascontiguousarray(windows, dtype=float) @ toeplitz
        return first * dsp._BLOCK, y.reshape(len(x), -1)[
            :, :min(n_out, stop * dsp._BLOCK) - first * dsp._BLOCK]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks", [40, 400])
    @pytest.mark.parametrize("wavelet", [False, True])
    @pytest.mark.parametrize("factor", [1, 3, 10])
    def test_row_by_row_products_give_the_stacked_bytes(self, factor,
                                                        wavelet, blocks,
                                                        dtype):
        # 11 rows, two channel groups
        filt = design_fir(None, 0.4 * 500.0 / factor, 1000.0)
        n = dsp._BLOCK * factor * blocks + 7
        x = np.random.default_rng(n).standard_normal((11, n)).astype(dtype)
        first, want = self.stacked_interior(filt, x, factor, wavelet)
        assert want.shape[1] >= dsp._BLOCK * (blocks - 4)
        got = dsp._filter_kept(filt, x, factor, wavelet)
        assert got[:, first: first + want.shape[1]].tobytes() == want.tobytes()

    def test_memory_stays_near_the_input_size(self):
        rec = make_recording(153, 40000, fs=1000.0)
        for wavelet in (False, True):
            tracemalloc.start()
            try:
                decimate(rec, 10, wavelet)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * rec.data.nbytes, wavelet


class TestDecimateWithTheWavelet:
    """``decimate(rec, factor, wavelet=True)`` against the two-step chain:
    the kept-sample filter of the full-rate denoised recording."""

    @staticmethod
    def two_step(rec, factor):
        nyq = 0.5 * rec.sample_rate / factor
        filt = design_fir(None, min(0.8 * nyq, max(nyq - 2.0, 0.5 * nyq)),
                          rec.sample_rate)
        return dsp._filter_kept(
            filt, dsp.wavelet_denoise_recording(rec).data, factor)

    @pytest.mark.parametrize("factor", [2, 3, 5, 10, 20])
    @pytest.mark.parametrize("n_mod_4", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_channels,dtype", [
        (1, np.float64), (7, np.float32), (9, np.float64), (9, np.float32)])
    def test_matches_the_two_step_chain(self, factor, n_mod_4, n_channels,
                                        dtype):
        n = 4 * (1000 * factor // 4 + 17 * n_mod_4) + n_mod_4
        rec = make_recording(n_channels, n, seed=factor * n)
        rec = rec.with_data(rec.data.astype(dtype))
        want = self.two_step(rec, factor)
        got = decimate(rec, factor, wavelet=True)
        assert got.sample_rate == 1000.0 / factor
        assert got.data.shape == want.shape
        assert np.abs(got.data - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("factor", [2, 10])
    def test_no_interior_block_gives_the_two_step_bytes(self, factor):
        # just above the filter length (67 or 331 taps): every block
        # reaches the reflected ends
        n = 500 if factor == 10 else 100
        rec = make_recording(3, n, seed=n)
        got = decimate(rec, factor, wavelet=True).data
        assert got.tobytes() == self.two_step(rec, factor).tobytes()

    @pytest.mark.parametrize("n,factor", [(5, 2), (7, 10), (8, 10), (50, 2),
                                          (300, 200)])
    def test_too_short_fails_as_the_two_step_chain(self, n, factor):
        rec = make_recording(2, n)
        with pytest.raises(DataError) as two_step:
            decimate(dsp.wavelet_denoise_recording(rec), factor)
        with pytest.raises(DataError) as fused:
            decimate(rec, factor, wavelet=True)
        # the same class (so the same exit code) and message
        assert type(fused.value) is type(two_step.value)
        assert str(fused.value) == str(two_step.value)

    def test_factor_one_is_the_wavelet_alone(self):
        rec = make_recording(2, 500)
        assert np.array_equal(decimate(rec, 1, wavelet=True).data,
                              dsp.wavelet_denoise_recording(rec).data)

    def test_denoiser_rows_are_its_interior_impulse_responses(self):
        n = 400
        for i in range(200, 208):
            y = wavelet_denoise(np.eye(1, n, i)[0])
            row = dsp._DENOISER_ROWS[i % 4]
            assert np.array_equal(y[i - dsp._REACH: i + dsp._REACH + 1], row)
            assert not y[:i - dsp._REACH].any() and not y[i + dsp._REACH + 1:].any()


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
