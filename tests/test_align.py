import numpy as np
import pytest

from phonepair.align import align
from phonepair.dataio import DataError

FS = 250.0


def speech_like(rng, n, fs=FS):
    """Noise amplitude-modulated at syllable-ish rates, like a speech envelope."""
    t = np.arange(n) / fs
    env = 1.0
    for _ in range(3):
        env = env + rng.uniform(0.3, 0.8) * np.sin(
            2 * np.pi * rng.uniform(0.5, 4.0) * t + rng.uniform(0, 2 * np.pi)
        )
    return env * rng.standard_normal(n)


def advance(x, d):
    """x advanced by d samples: out[t] = x[t + d]."""
    if d >= 0:
        return np.concatenate([x[d:], np.zeros(d)])
    return np.concatenate([np.zeros(-d), x[:d]])


class TestAlign:
    def test_self_alignment(self):
        rng = np.random.default_rng(0)
        x = speech_like(rng, 8000)
        res = align(x, x, FS, window=2.0)
        assert res.delay == 0.0
        assert res.peak_correlation > 0.99
        assert not res.low_confidence

    def test_recovers_planted_shift_with_noise(self):
        rng = np.random.default_rng(1)
        x = speech_like(rng, 12000)
        shift = int(round(1.234 * FS))
        audio = advance(x, shift)
        # 10 dB SNR additive noise on the misc side
        noise = rng.standard_normal(len(x)) * x.std() / np.sqrt(10)
        res = align(x + noise, audio, FS, window=2.0)
        assert abs(res.delay - (-shift / FS)) <= 1.0 / FS
        assert not res.low_confidence

    def test_shift_equivariance_sign_convention(self):
        rng = np.random.default_rng(2)
        x = speech_like(rng, 10000)
        for d in (-300, -37, 50, 200):
            res = align(x, advance(x, d), FS, window=2.0)
            assert abs(res.delay - (-d / FS)) <= 1.0 / FS

    def test_windows_strictly_nested(self):
        rng = np.random.default_rng(3)
        x = speech_like(rng, 8000)
        res = align(x, advance(x, 100), FS, window=2.0)
        widths = [it["delay_window"] for it in res.iterations]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert abs(res.delay) <= 2.0

    def test_uncorrelated_noise_flagged(self):
        # Monte-Carlo: null peaks stay under the confidence threshold
        peaks = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            a = speech_like(rng, 6000)
            b = speech_like(rng, 6000)
            res = align(a, b, FS, window=1.0)
            peaks.append(res.peak_correlation)
            assert res.low_confidence
        assert max(peaks) < 0.2

    def test_window_too_large(self):
        rng = np.random.default_rng(4)
        x = speech_like(rng, 2000)
        with pytest.raises(DataError, match="window"):
            align(x, x, FS, window=6.0)

    def test_zero_variance_errors(self):
        x = np.zeros(6000)
        y = np.ones(6000)
        with pytest.raises(DataError, match="variance"):
            align(x, y, FS, window=1.0)
