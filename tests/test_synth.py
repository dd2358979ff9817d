import numpy as np
import pytest

from phonepair import synth
from phonepair.dataio import ConfigError
from phonepair.synth import MIN_GAP, TEMPLATE_SPAN, SynthSpec, generate

from helpers import noise_by_rows, traced_peak


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


class TestNoiseBlocks:
    """The 1/f noise is made ``_NOISE_BLOCK`` samples at a time; each
    recording must be the one the row-by-row generator makes, bit for bit."""

    @pytest.mark.parametrize("duration", [5.0, 5.001])  # even and odd n
    @pytest.mark.parametrize("rows,n_mag", [
        (lambda block: 1, 0), (lambda block: block - 1, 0),
        (lambda block: block, 0), (lambda block: block + 1, 0),
        (lambda block: 153, 51),
        # the second block starts among the magnetometers
        (lambda block: block + 1, 21)],
        ids=["one_row", "block_minus_one", "block", "block_plus_one",
             "153_with_mags", "block_plus_one_with_mags"])
    def test_blocks_equal_the_rows_one_by_one(self, monkeypatch, duration,
                                               rows, n_mag):
        block = synth._NOISE_BLOCK // int(round(duration * 1000))
        spec = SynthSpec(duration=duration, phones=(("a", 5), ("e", 5)),
                         n_channels=rows(block) - n_mag, n_magnetometers=n_mag,
                         snr=2.0, active_fraction=0.5, seed=7)
        rec, events = generate(spec)
        monkeypatch.setattr(synth, "_one_over_f_noise", noise_by_rows)
        oracle, oracle_events = generate(spec)
        assert rec.data.tobytes() == oracle.data.tobytes()
        assert events == oracle_events

    def test_a_row_longer_than_the_budget_is_one_block(self, monkeypatch):
        spec = SynthSpec(duration=5.001, phones=(("a", 5), ("e", 5)),
                         n_channels=3, n_magnetometers=2, seed=4)
        monkeypatch.setattr(synth, "_NOISE_BLOCK", 1000)
        rec, _ = generate(spec)
        monkeypatch.setattr(synth, "_one_over_f_noise", noise_by_rows)
        assert rec.data.tobytes() == generate(spec)[0].data.tobytes()

    def test_memory_peak_stays_within_a_few_blocks(self):
        spec = SynthSpec(duration=32, phones=(("a", 60), ("e", 60)),
                         n_channels=204, seed=0)
        (rec, _), peak = traced_peak(generate, spec)
        block_bytes = synth._NOISE_BLOCK // rec.n_samples * rec.n_samples * 8
        assert 4 * block_bytes < rec.data.nbytes
        # one block's noise, the next block's draw and its spectrum make 3;
        # the noise of the whole matrix at once would add 2 data.nbytes
        assert peak < rec.data.nbytes + 4 * block_bytes
