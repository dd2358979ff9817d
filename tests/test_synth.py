import numpy as np
import pytest

from phonepair import synth
from phonepair.dataio import ConfigError
from phonepair.synth import MIN_GAP, TEMPLATE_SPAN, SynthSpec, generate


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(duration=20, phones=(("a", 20), ("e", 20)),
                         n_channels=8, seed=5)
        r1, e1 = generate(spec)
        r2, e2 = generate(spec)
        assert np.array_equal(r1.data, r2.data)
        assert e1 == e2

    def test_events_fit_and_gaps(self):
        spec = SynthSpec(duration=25, phones=(("a", 30), ("e", 30)),
                         n_channels=4, seed=1)
        _, events = generate(spec)
        assert len(events) == 60
        evs = events.events
        for prev, nxt in zip(evs, evs[1:]):
            assert nxt.onset - prev.offset >= MIN_GAP - 1e-9

    def test_does_not_fit_errors(self):
        with pytest.raises(ConfigError, match="duration"):
            generate(SynthSpec(duration=2, phones=(("a", 60),), n_channels=2))

    def test_band_above_nyquist(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            generate(SynthSpec(duration=60, fs=100.0, band="HGA", n_channels=2))

    def test_snr_calibration(self):
        spec = SynthSpec(duration=30, phones=(("a", 40), ("e", 40)),
                         n_channels=20, snr=2.0, active_fraction=0.5, seed=3)
        rec, events = generate(spec)
        noise_spec = SynthSpec(duration=30, phones=(("a", 40), ("e", 40)),
                               n_channels=20, snr=0.0, active_fraction=0.5, seed=3)
        noise_rec, _ = generate(noise_spec)
        planted = rec.data - noise_rec.data
        active = np.flatnonzero(np.abs(planted).sum(axis=1) > 0)
        assert len(active) == 10
        n_tpl = int(round(TEMPLATE_SPAN * spec.fs))
        ratios = []
        for ch in active:
            rms_sig, rms_noise = [], []
            for ev in events:
                start = int(round(ev.onset * spec.fs))
                rms_sig.append(np.mean(planted[ch, start:start + n_tpl] ** 2))
                rms_noise.append(np.mean(noise_rec.data[ch] ** 2))
            ratios.append(np.sqrt(np.mean(rms_sig)) / np.sqrt(np.mean(rms_noise)))
        assert np.all(np.abs(np.array(ratios) - 2.0) / 2.0 < 0.05)

    def test_zero_snr_is_pure_noise(self):
        spec = SynthSpec(duration=15, phones=(("a", 10), ("e", 10)),
                         n_channels=4, snr=0.0, seed=2)
        rec, _ = generate(spec)
        spec2 = SynthSpec(duration=15, phones=(("a", 10), ("e", 10)),
                          n_channels=4, snr=1.0, seed=2)
        rec2, events = generate(spec2)
        # snr=0 recording differs from planted one only inside event spans
        diff = np.abs(rec.data - rec2.data).sum(axis=0)
        quiet = np.ones(rec.n_samples, dtype=bool)
        n_tpl = int(round(TEMPLATE_SPAN * spec.fs))
        for ev in events:
            s = int(round(ev.onset * spec.fs))
            quiet[s:s + n_tpl] = False
        assert np.all(diff[quiet] == 0)
        assert diff[~quiet].sum() > 0

    def test_planted_band_concentration(self):
        spec = SynthSpec(duration=30, phones=(("a", 40), ("e", 40)),
                         n_channels=12, snr=2.0, band="Theta",
                         active_fraction=0.5, seed=4)
        rec, _ = generate(spec)
        noise_rec, _ = generate(
            SynthSpec(duration=30, phones=(("a", 40), ("e", 40)),
                      n_channels=12, snr=0.0, band="Theta",
                      active_fraction=0.5, seed=4))
        planted = rec.data - noise_rec.data
        ch = int(np.argmax(np.abs(planted).sum(axis=1)))
        spec_pow = np.abs(np.fft.rfft(planted[ch])) ** 2
        freqs = np.fft.rfftfreq(rec.n_samples, 1 / spec.fs)
        # 200 ms Hann taper smears a Theta burst by roughly +-10 Hz, so test
        # that the power lives at low frequencies rather than in a tight band
        low = freqs <= 20.0
        assert spec_pow[low].sum() / spec_pow.sum() >= 0.95
        centroid = (freqs * spec_pow).sum() / spec_pow.sum()
        assert 2.0 <= centroid <= 12.0

    def test_patterns_distinct_across_labels(self):
        spec = SynthSpec(duration=40, phones=(("a", 30), ("e", 30), ("i", 30)),
                         n_channels=16, snr=1.0, active_fraction=0.5, seed=6)
        rec, events = generate(spec)
        noise_rec, _ = generate(
            SynthSpec(duration=40, phones=(("a", 30), ("e", 30), ("i", 30)),
                      n_channels=16, snr=0.0, active_fraction=0.5, seed=6))
        planted = rec.data - noise_rec.data
        n_tpl = int(round(TEMPLATE_SPAN * spec.fs))
        pats = {}
        for ev in events:
            if ev.label in pats:
                continue
            s = int(round(ev.onset * spec.fs))
            seg = planted[:, s:s + n_tpl]
            pats[ev.label] = seg[:, np.argmax(np.abs(seg).sum(axis=0))]
        labs = sorted(pats)
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                a, b = pats[labs[i]], pats[labs[j]]
                cos = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert cos < 0.9

    def test_magnetometer_channels(self):
        spec = SynthSpec(duration=15, phones=(("a", 10), ("e", 10)),
                         n_channels=6, n_magnetometers=3, seed=0)
        rec, _ = generate(spec)
        kinds = [c.kind for c in rec.channels]
        assert kinds.count("gradiometer") == 6
        assert kinds.count("magnetometer") == 3
