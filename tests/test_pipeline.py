import csv
import json
import os
import tracemalloc
from collections import Counter
from dataclasses import MISSING, fields, is_dataclass, replace

import numpy as np
import pytest

from phonepair import config as configmod
from phonepair import (dataio, dsp, evaluation, models, pipeline, report,
                       studies, synth)
from phonepair.cli import main
from phonepair.dataio import ConfigError, DataError
from phonepair.epochs import extract_epochs
from phonepair.models import ModelSpec, TrainConfig
from phonepair.pipeline import (
    CvConfig,
    EpochWindow,
    PreprocessingToggles,
    compare_rows,
    evaluate_recording,
    paired_metric_vectors,
    preprocess,
    resolve_pairs,
    sort_rows,
    subject_means,
    summarize,
)
from phonepair.report import ResultTable, format_pm

from helpers import make_recording, preprocess_file

EN = [ModelSpec("elastic_net")]
EN_RUNS = [("baseline", ModelSpec("elastic_net"))]
FAST_CV = CvConfig(k=3, seed=0)


def make_corpus(tmpdir, subjects=("s01", "s02"), task="production",
                fs=1000.0, n_channels=12, n_mag=0, seed0=10, snr=2.5):
    """Small synthetic corpus on disk; returns manifest paths."""
    os.makedirs(tmpdir, exist_ok=True)
    paths = []
    for i, subj in enumerate(subjects):
        spec = synth.SynthSpec(
            duration=20, phones=(("a", 24), ("e", 24)), n_channels=n_channels,
            n_magnetometers=n_mag, fs=fs, snr=snr, active_fraction=0.25,
            seed=seed0 + i,
        )
        rec, events = synth.generate(spec)
        stem = os.path.join(tmpdir, f"{subj}_{task}")
        dataio.save_recording(rec, stem + ".nrd")
        dataio.save_events(events, stem + ".events.tsv")
        man = dataio.Manifest(subject_id=subj, task=task,
                              recording_path=stem + ".nrd",
                              events_path=stem + ".events.tsv",
                              sample_rate=fs)
        dataio.save_manifest(man, stem + ".manifest.json")
        paths.append(stem + ".manifest.json")
    return paths


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    prod = make_corpus(str(root / "prod"), ("s01", "s02"), "production")
    perc = make_corpus(str(root / "perc"), ("s01",), "listening", seed0=30)
    return {"production": prod, "listening": perc}


class TestPreprocess:
    def test_full_chain_shapes(self, corpus):
        man = dataio.load_manifest(corpus["production"][0])
        rec = dataio.load_recording(man.recording_path)
        out = preprocess(rec, PreprocessingToggles())
        assert out.sample_rate == 100.0
        assert out.n_channels == rec.n_channels
        assert out.n_samples == rec.n_samples // 10

    def test_all_toggles_off_is_channel_selection_only(self, corpus):
        man = dataio.load_manifest(corpus["production"][0])
        rec = dataio.load_recording(man.recording_path)
        out = preprocess(rec, PreprocessingToggles(
            wavelet=False, decimation_factor=1, band_limit=None))
        assert np.array_equal(out.data, rec.data)
        assert np.shares_memory(out.data, rec.data)

    @pytest.mark.parametrize("toggles", [
        PreprocessingToggles(),
        PreprocessingToggles(wavelet=False, decimation_factor=1),
        PreprocessingToggles(decimation_factor=1, band_limit=None),
        PreprocessingToggles(wavelet=False, decimation_factor=1,
                             band_limit=None)])
    def test_the_loaded_recording_is_left_unchanged(self, corpus, toggles):
        man = dataio.load_manifest(corpus["production"][0])
        rec = dataio.load_recording(man.recording_path)
        before = rec.data.copy()
        preprocess(rec, toggles)
        assert rec.data.tobytes() == before.tobytes()

    def test_sensor_selection(self, tmp_path):
        paths = make_corpus(str(tmp_path), ("s09",), n_mag=4, seed0=50)
        rec = dataio.load_recording(dataio.load_manifest(paths[0]).recording_path)
        out = preprocess(rec, PreprocessingToggles(
            sensor_kinds=("magnetometer",), wavelet=False,
            decimation_factor=1, band_limit=None))
        assert out.n_channels == 4

    def test_the_wavelet_barely_moves_the_default_chain(self):
        # a reproduction finding: on synth's 1/f noise the default chain
        # with and without the wavelet differs by about 4e-5 relative
        # (1e-4 without the band-pass), so a wavelet ablation cannot show
        # an effect; white noise would give 5e-3
        rec, _ = synth.generate(synth.SynthSpec(
            duration=32, n_channels=68, snr=3.0, active_fraction=20 / 68))
        for toggles in (PreprocessingToggles(),
                        PreprocessingToggles(band_limit=None)):
            a = preprocess(rec, toggles).data
            b = preprocess(rec, replace(toggles, wavelet=False)).data
            assert np.linalg.norm(a - b) < 1e-3 * np.linalg.norm(b)

    def test_the_wavelet_runs_inside_decimation(self, monkeypatch):
        rec = make_recording(2, 20000)

        def full_rate(rec):
            raise AssertionError("full-rate wavelet")

        monkeypatch.setattr(dsp, "wavelet_denoise_recording", full_rate)
        preprocess(rec, PreprocessingToggles())
        with pytest.raises(AssertionError, match="full-rate wavelet"):
            preprocess(rec, PreprocessingToggles(decimation_factor=1))

    def test_bad_decimation(self):
        with pytest.raises(ConfigError,
                           match="decimation_factor must be an integer and >= 1"):
            PreprocessingToggles(decimation_factor=0)


def interleaved_recording(path, n_selected, n_samples, fs=100.0, seed=0):
    """Write a recording of misc, then (magnetometer, gradiometer,
    gradiometer) triplets holding ``n_selected`` gradiometers, then misc."""
    kinds = ["misc"]
    for i in range(n_selected):
        kinds += ["gradiometer"] if i % 2 else ["magnetometer", "gradiometer"]
    kinds.append("misc")
    rec = make_recording(len(kinds), n_samples, fs=fs, kinds=kinds, seed=seed)
    dataio.save_recording(rec, path)
    return path


def outcome(fn, *args):
    """The data bytes and dtype, channels and rate of ``fn(*args)``, or the
    class and message of the DataError it raises."""
    try:
        rec = fn(*args)
    except DataError as exc:
        return type(exc), str(exc)
    return rec.data.tobytes(), rec.data.dtype, rec.channels, rec.sample_rate


class TestPreprocessFile:
    """``preprocessed_groups(path, toggles)``, through the oracle
    ``preprocess_file`` that stacks its groups, against
    ``preprocess(load_recording(path), toggles)``, and the files of the
    ``preprocess`` command, which writes each group as it is made, against
    that oracle's."""

    @pytest.fixture(scope="class")
    def recordings(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("interleaved")
        return {k: interleaved_recording(str(root / f"g{k}.nrd"), k, 2003,
                                         seed=k)
                for k in (1, 7, 8, 9, 17)}

    @pytest.mark.parametrize("band_limit", [2.0, None])
    @pytest.mark.parametrize("factor", [1, 3, 10])
    @pytest.mark.parametrize("wavelet", [True, False])
    @pytest.mark.parametrize("n_selected", [1, 7, 8, 9, 17])
    def test_the_same_bytes_as_the_whole_recording(
            self, recordings, n_selected, wavelet, factor, band_limit):
        path = recordings[n_selected]
        toggles = PreprocessingToggles(wavelet=wavelet,
                                       decimation_factor=factor,
                                       band_limit=band_limit)
        want = outcome(lambda: preprocess(dataio.load_recording(path),
                                          toggles))
        assert isinstance(want[0], bytes)
        assert outcome(preprocess_file, path, toggles) == want

    @pytest.mark.parametrize("band_limit", [2.0, None])
    @pytest.mark.parametrize("factor", [1, 10])
    @pytest.mark.parametrize("wavelet", [True, False])
    @pytest.mark.parametrize("n_selected", [1, 7, 8, 9, 17])
    def test_the_command_writes_the_oracle_files(
            self, recordings, tmp_path, n_selected, wavelet, factor,
            band_limit):
        path = recordings[n_selected]
        toggles = dict(wavelet=wavelet, decimation_factor=factor,
                       band_limit=band_limit)
        oracle = str(tmp_path / "oracle.nrd")
        dataio.save_recording(
            preprocess_file(path, PreprocessingToggles(**toggles)), oracle)
        dataio.save_events(dataio.EventTable(()), str(tmp_path / "r.tsv"))
        man = str(tmp_path / "r.manifest.json")
        dataio.save_manifest(dataio.Manifest(
            "s01", "production", path, str(tmp_path / "r.tsv"), 100.0), man)
        cfg = str(tmp_path / "pre.json")
        dataio.write_json(cfg, {"manifests": [man], "preprocessing": toggles})
        out = tmp_path / "out"
        assert main(["preprocess", "--config", cfg, "--out", str(out)]) == 0
        written = out / "s01_production_preprocessed.nrd"
        for suffix in ("", ".json"):
            assert (open(str(written) + suffix, "rb").read()
                    == open(oracle + suffix, "rb").read())
        assert sorted(p.name for p in out.iterdir()) == [
            "corpus.json", "s01_production_preprocessed.events.tsv",
            "s01_production_preprocessed.manifest.json",
            "s01_production_preprocessed.nrd",
            "s01_production_preprocessed.nrd.json"]

    @pytest.mark.parametrize("n_samples,toggles,error", [
        (7, dict(decimation_factor=1, band_limit=None), "below the filter"),
        (8, dict(decimation_factor=1, band_limit=None), None),
        (7, dict(band_limit=None), "below the filter length 8"),
        (10, dict(wavelet=False, band_limit=None), "fewer than 2 samples"),
        (165, dict(wavelet=False, band_limit=None),
         "signal length 165 must exceed filter length 165"),
        (166, dict(band_limit=None), None),
        (1651, dict(wavelet=False, decimation_factor=1, band_limit=2.0),
         "signal length 1651 must exceed filter length 1651"),
        (1652, dict(decimation_factor=1, band_limit=2.0), None),
        (3000, dict(), "high edge 31.0 Hz must be below Nyquist 5.0 Hz"),
    ])
    def test_the_same_errors_at_the_length_limits(self, tmp_path, n_samples,
                                                  toggles, error):
        # fs 100: decimation by 10 is a 165-tap filter, and the 0.2-2 Hz
        # band-pass at the full rate 1651 taps
        path = interleaved_recording(str(tmp_path / "r.nrd"), 9, n_samples)
        toggles = PreprocessingToggles(**toggles)
        want = outcome(lambda: preprocess(dataio.load_recording(path),
                                          toggles))
        got = outcome(preprocess_file, path, toggles)
        assert got == want
        if error is None:
            assert isinstance(got[0], bytes)
        else:
            assert got[0] is DataError and error in got[1]

    def test_reads_only_the_rows_its_groups_span(self, tmp_path, monkeypatch):
        path = interleaved_recording(str(tmp_path / "r.nrd"), 9, 2003)
        spans = []
        real_load = dataio.load_recording

        def spy(path, rows, header):
            spans.append((rows.start, rows.stop))
            return real_load(path, rows, header)

        monkeypatch.setattr(dataio, "load_recording", spy)
        preprocess_file(path, PreprocessingToggles(band_limit=2.0))
        # gradiometers 1-8 sit in rows 2..12, the 9th in row 14 (after the
        # magnetometer in row 13); neither misc row is read
        assert spans == [(2, 13), (14, 15)]

    def test_filter_constants_are_computed_once_per_recording(
            self, recordings, monkeypatch):
        made = []

        def spy(module, name, counts):
            real = getattr(module, name)

            def counted(*args, **kw):
                if counts(*args):
                    made.append(name)
                return real(*args, **kw)

            monkeypatch.setattr(module, name, counted)

        spy(np, "hamming", lambda n: True)  # one per low-pass of a design
        spy(np, "zeros", lambda shape, *rest: np.ndim(shape) == 1 and len(
            shape) == 2 and shape[1] == dsp._BLOCK)  # a kept-sample matrix
        spy(np.fft, "rfft", lambda a, *rest: np.ndim(a) == 1)  # a spectrum
        for cache in (dsp.design_fir, dsp._kept_matrix, dsp._spectrum):
            cache.cache_clear()  # else an earlier test's designs hide these
        toggles = PreprocessingToggles(band_limit=2.0)
        preprocess_file(recordings[17], toggles)
        # for all three groups: the decimation design and the band-pass
        # (two low-passes), the plain and the wavelet kept-sample matrix,
        # and the band-pass spectrum
        assert Counter(made) == {"hamming": 3, "zeros": 2, "rfft": 1}
        # and none again for another recording at the same rate
        made.clear()
        preprocess_file(recordings[9], toggles)
        assert made == []


def epochs_outcome(fn, *args):
    """The epoch bytes, shape and labels and the skip count of ``fn(*args)``,
    or the class and message of the DataError it raises."""
    try:
        eps, skipped = fn(*args)
    except DataError as exc:
        return type(exc), str(exc)
    return (eps.data.tobytes(), eps.data.dtype, eps.data.shape,
            eps.labels.tolist(), skipped)


class TestFileEpochs:
    """``file_epochs``, cut a channel group at a time, against the oracle
    ``extract_epochs`` of the whole recording preprocessed and band-passed."""

    # 20.03 s at 100 Hz: windows and baselines that leave either end
    EVENTS = dataio.EventTable(tuple(
        dataio.Event(t, t + 0.05, label) for t, label in
        [(0.02, "a"), (0.3, "e"), (19.9, "a"), (20.0, "e"), (20.1, "a")]
        + [(1.0 + 0.5 * i, "ae"[i % 2]) for i in range(37)]))

    @pytest.fixture(scope="class")
    def recordings(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("epochs")
        return {k: interleaved_recording(str(root / f"g{k}.nrd"), k, 2003,
                                         seed=k)
                for k in (1, 7, 8, 9, 17)}

    # the baseline of (-0.5, -0.2) is longer than its window
    @pytest.mark.parametrize("window", [EpochWindow(),
                                        EpochWindow(-0.5, -0.2)])
    @pytest.mark.parametrize("band_pass", [None, dsp.BANDS["Delta"],
                                           dsp.BANDS["Alpha"]])
    @pytest.mark.parametrize("band_limit", [2.0, None])
    @pytest.mark.parametrize("factor", [1, 10])
    @pytest.mark.parametrize("wavelet", [True, False])
    @pytest.mark.parametrize("n_selected", [1, 7, 8, 9, 17])
    def test_the_same_bytes_as_the_whole_recording(
            self, recordings, n_selected, wavelet, factor, band_limit,
            band_pass, window):
        path = recordings[n_selected]
        toggles = PreprocessingToggles(wavelet=wavelet,
                                       decimation_factor=factor,
                                       band_limit=band_limit)

        def whole():
            rec = preprocess(dataio.load_recording(path), toggles)
            if band_pass is not None:
                filt = dsp.design_fir(*band_pass, rec.sample_rate)
                rec = rec.with_data(dsp.apply_zero_phase(filt, rec.data))
            return extract_epochs(rec, self.EVENTS, window.tmin, window.tmax)

        want = epochs_outcome(whole)
        got = epochs_outcome(pipeline.file_epochs, path, toggles, band_pass,
                             self.EVENTS, window)
        assert got == want
        # Alpha's 13 Hz edge is past the decimated rate's 5 Hz Nyquist
        assert isinstance(want[0], bytes) == (
            factor == 1 or band_pass != dsp.BANDS["Alpha"])
        if isinstance(want[0], bytes):
            assert 0 < len(want[3]) < len(self.EVENTS)

    def test_the_filter_caches_do_not_grow_with_the_recordings(
            self, tmp_path, monkeypatch):
        spectra = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kw: (
            spectra.append(np.ndim(a) == 1), rfft(a, *args, **kw))[1])
        for cache in (dsp.design_fir, dsp._kept_matrix, dsp._spectrum):
            cache.cache_clear()  # else an earlier test's spectrum is reused
        # as the band sweep does: no band limit, so a group sees one filter
        toggles = PreprocessingToggles(band_limit=None)
        sizes = []
        for n_samples in (2003, 2503, 3001):
            path = interleaved_recording(str(tmp_path / f"r{n_samples}.nrd"),
                                         9, n_samples)
            spectra.clear()
            pipeline.file_epochs(path, toggles, dsp.BANDS["Delta"],
                                 self.EVENTS, EpochWindow())
            # one band-pass spectrum, made for the first of the two groups
            assert sum(spectra) == 1
            sizes.append((dsp.design_fir.cache_info().currsize,
                          dsp._kept_matrix.cache_info().currsize))
        assert sizes[0] == sizes[-1]

    @staticmethod
    def band_sweep_unit(tmp_path, n_channels=40, fs=1000.0, n_samples=60000):
        """A band_sweep unit at the native rate, Beta-passed: 40
        gradiometers x 60 s at 1 kHz, and 60 epochs of 301 samples, 5.8 MB
        in float64, as is the one pair's X; one 8-channel group is 3.84 MB
        in float64."""
        channels = tuple(dataio.ChannelInfo(f"G{i:03d}", "gradiometer")
                         for i in range(n_channels))
        data = np.random.default_rng(0).standard_normal(
            (n_channels, n_samples)).astype(np.float32)
        rec_path, ev_path = str(tmp_path / "r.nrd"), str(tmp_path / "r.tsv")
        dataio.save_recording(dataio.Recording(fs, channels, data), rec_path)
        del data
        dataio.save_events(dataio.EventTable(tuple(
            dataio.Event(0.5 + 0.95 * i, 0.55 + 0.95 * i, "ae"[i % 2])
            for i in range(60))), ev_path)
        man = dataio.Manifest("s01", "production", rec_path, ev_path, fs)
        toggles = PreprocessingToggles(wavelet=False, decimation_factor=1,
                                       band_limit=None)
        cfg = studies.ExperimentConfig(
            manifests=(), models=(), phone_pairs=(("a", "e"),),
            cv=CvConfig(k=2), min_count=20)
        return (cfg, man, toggles, dsp.BANDS["Beta"],
                [("Beta", ModelSpec("elastic_net"))])

    EPOCHS_BYTES = 60 * 40 * 301 * 8
    GROUP_BYTES = 8 * 60000 * 8

    def test_a_unit_holds_its_epochs_and_a_few_groups(self, tmp_path):
        # cut a group at a time, the unit peaks at about its epochs, X and
        # 2.5 groups; holding the full-rate recording and its band-passed
        # copy, 9.4
        unit = self.band_sweep_unit(tmp_path)
        tracemalloc.start()
        try:
            rows = studies._eval_unit(unit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 2
        assert peak < 2 * self.EPOCHS_BYTES + 4 * self.GROUP_BYTES

    def test_a_unit_fits_from_its_pair_x_alone(self, tmp_path, monkeypatch):
        # the one pair's X is built from every epoch; once it is, the
        # epochs are released, so the fits hold X and not X and the epochs
        unit = self.band_sweep_unit(tmp_path)
        held = []
        real_fit_folds = models.fit_folds

        def spy(spec, X, *args):
            held.append((tracemalloc.get_traced_memory()[0], X.nbytes))
            return real_fit_folds(spec, X, *args)

        monkeypatch.setattr(models, "fit_folds", spy)
        tracemalloc.start()
        try:
            rows = studies._eval_unit(unit)
        finally:
            tracemalloc.stop()
        assert len(rows) == 2
        [(current, x_bytes)] = held
        assert x_bytes == self.EPOCHS_BYTES
        assert current < x_bytes + 2_000_000


class TestRowHelpers:
    def make_rows(self):
        return [
            {"subject": "s2", "task": "t", "pair": "a-e", "model": "m",
             "configuration": "c", "fold": 0, "accuracy": 0.8, "f1": 0.8,
             "auc": 0.9},
            {"subject": "s1", "task": "t", "pair": "a-e", "model": "m",
             "configuration": "c", "fold": 1, "accuracy": 0.6, "f1": 0.5,
             "auc": 0.7},
            {"subject": "s1", "task": "t", "pair": "a-e", "model": "m",
             "configuration": "c", "fold": 0, "accuracy": 0.4, "f1": 0.4,
             "auc": 0.5},
        ]

    def test_sort_rows(self):
        rows = sort_rows(self.make_rows())
        assert [(r["subject"], r["fold"]) for r in rows] == [
            ("s1", 0), ("s1", 1), ("s2", 0)]

    def test_subject_means(self):
        means = subject_means(self.make_rows(), "accuracy")
        assert means == {"s1": pytest.approx(0.5), "s2": pytest.approx(0.8)}

    def test_summarize_across_subjects(self):
        s = summarize(self.make_rows())
        assert s["accuracy_mean"] == pytest.approx(0.65)
        assert s["accuracy_std"] == pytest.approx(0.15)
        assert s["n"] == 2

    def test_paired_vectors_alignment(self):
        rows = self.make_rows()
        shuffled = list(reversed(rows))
        a, b = paired_metric_vectors(rows, shuffled)
        assert np.array_equal(a, b)

    def test_paired_vectors_no_overlap(self):
        rows = self.make_rows()
        other = [dict(r, subject="zz") for r in rows]
        with pytest.raises(DataError, match="common"):
            paired_metric_vectors(rows, other)

    def test_compare_identical_rows_is_none(self):
        rows = self.make_rows()
        assert compare_rows("r vs r", rows, list(rows)) == {
            "label": "r vs r", "W": None, "p": None, "method": None}

    def test_resolve_pairs(self):
        assert resolve_pairs("auto", ("e", "a", "i")) == [
            ("a", "e"), ("a", "i"), ("e", "i")]
        assert resolve_pairs([("e", "a")], None) == [("a", "e")]
        with pytest.raises(ConfigError, match="pair"):
            resolve_pairs([("a", "a")], None)


def epochs_of(rec, events, window=EpochWindow()):
    return extract_epochs(rec, events, window.tmin, window.tmax)[0]


class TestEvaluateRecording:
    def test_rows_complete_and_decodable(self, corpus):
        man = dataio.load_manifest(corpus["production"][0])
        rec = dataio.load_recording(man.recording_path)
        events = dataio.load_events(man.events_path)
        rows = evaluate_recording(
            epochs_of(preprocess(rec, PreprocessingToggles()), events),
            events, subject=man.subject_id, task=man.task, runs=EN_RUNS,
            cv=FAST_CV, phone_pairs="auto", min_count=20,
        )
        assert len(rows) == 3  # one pair, three folds
        assert {r["fold"] for r in rows} == {0, 1, 2}
        assert np.mean([r["accuracy"] for r in rows]) > 0.8
        assert all(r["pair"] == "a-e" for r in rows)

    def test_empty_inventory_raises(self, corpus):
        man = dataio.load_manifest(corpus["production"][0])
        rec = dataio.load_recording(man.recording_path)
        events = dataio.load_events(man.events_path)
        with pytest.raises(DataError, match="pairs"):
            evaluate_recording(
                epochs_of(preprocess(rec, PreprocessingToggles()), events),
                events, subject="s", task="t", runs=EN_RUNS, cv=FAST_CV,
                phone_pairs="auto", min_count=1000,
            )

    def test_auto_pairs_leave_out_a_phone_short_of_epochs(self, capsys):
        # 12 events of each phone, but 5 of i's windows leave the recording
        rec = make_recording(n_channels=4, n_samples=4000, fs=100.0)
        onsets = {"a": 1.0 + 3 * np.arange(12), "e": 2.0 + 3 * np.arange(12),
                  "i": np.r_[1.5 + 3 * np.arange(7),
                             39.9 + 0.01 * np.arange(5)]}
        events = dataio.EventTable(tuple(
            dataio.Event(t, t + 0.05, label)
            for label, ts in onsets.items() for t in ts.tolist()))

        def pairs(phone_pairs):
            rows = evaluate_recording(
                epochs_of(rec, events), events, subject="s01",
                task="production", runs=EN_RUNS, cv=FAST_CV,
                phone_pairs=phone_pairs, min_count=10)
            return sorted({r["pair"] for r in rows})

        assert pairs("auto") == ["a-e"]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: skipping pair {pair} for subject s01 task production: "
            "phone 'i' has 7 epochs, below min_count 10"
            for pair in ("a-i", "e-i")]
        # explicit pairs are evaluated as given
        assert pairs([["i", "a"]]) == ["a-i"]
        assert capsys.readouterr().err == ""

    def test_no_auto_pair_with_epochs_is_one_error(self, capsys):
        rec = make_recording(n_channels=4, n_samples=1000, fs=100.0)
        events = dataio.EventTable(tuple(
            dataio.Event(9.95, 9.99, label) for label in "ae" for _ in
            range(10)))
        with pytest.raises(DataError, match="no phone pairs to evaluate: "
                           "every pair has a phone with fewer than 10"):
            evaluate_recording(
                epochs_of(rec, events), events, subject="s01",
                task="production", runs=EN_RUNS, cv=FAST_CV,
                phone_pairs="auto", min_count=10)
        assert capsys.readouterr().err == ""


@pytest.fixture(scope="session")
def mag_corpus(tmp_path_factory):
    """Two production recordings with gradiometers and magnetometers."""
    return make_corpus(str(tmp_path_factory.mktemp("mag")), ("s01", "s02"),
                       n_mag=4, seed0=90)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Runs study pools in-process and lists the size each was asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(studies, "ProcessPoolExecutor", SerialPool)
    return sizes


def exp_config(manifests, **kw):
    defaults = dict(models=tuple(EN), cv=FAST_CV, min_count=20)
    defaults.update(kw)
    return studies.ExperimentConfig(manifests=tuple(manifests), **defaults)


class TestStudies:
    def test_model_comparison(self, corpus):
        cfg = exp_config(
            corpus["production"],
            models=(ModelSpec("elastic_net"), ModelSpec("lda")),
        )
        table, rows = studies.run_model_comparison(cfg)
        assert len(table.rows) == 2
        assert len(table.comparisons) == 1
        assert {r["model"] for r in table.rows} == {"elastic_net", "lda"}
        # 2 subjects x 1 pair x 2 models x 3 folds
        assert len(rows) == 12
        assert rows == sort_rows(rows)

    def test_model_comparison_keeps_configured_order(self, corpus):
        # rows come back sorted by model name; the table must not be
        names = ["zz_lda", "mm_elastic_net", "aa_svm"]
        specs = [ModelSpec("lda", name=names[0]),
                 ModelSpec("elastic_net", name=names[1]),
                 ModelSpec("svm_rbf", name=names[2])]
        cfg = exp_config(corpus["production"], models=tuple(specs))
        table, rows = studies.run_model_comparison(cfg)
        assert [r["model"] for r in table.rows] == names
        best = max(table.rows, key=lambda r: r["accuracy_mean"])["model"]
        others = [n for n in names if n != best]
        assert [c["label"] for c in table.comparisons] == [
            f"{n} vs {best}" for n in others]
        for r, c in zip([r for r in table.rows if r["model"] != best],
                        table.comparisons):
            assert (r["W"], r["p"]) == (c["W"], c["p"])
        assert "W" not in next(r for r in table.rows if r["model"] == best)

    def test_model_comparison_needs_production(self, corpus):
        cfg = exp_config(corpus["listening"])
        with pytest.raises(DataError, match="production"):
            studies.run_model_comparison(cfg)

    def test_task_comparison(self, corpus):
        cfg = exp_config(corpus["production"] + corpus["listening"])
        table, rows = studies.run_task_comparison(cfg)
        assert {r["modality"] for r in table.rows} == {"listening", "production"}
        labels = [c["label"] for c in table.comparisons]
        assert "listening vs production" in labels
        assert "production vs chance" in labels
        assert "listening vs chance" in labels

    def test_task_comparison_pairs_by_subject(self, tmp_path):
        # production {s01, s02} against listening {s02}: only s02's folds
        # may be paired, each with the same fold of the other modality
        manifests = (
            make_corpus(str(tmp_path / "p1"), ("s01",), "production")
            + make_corpus(str(tmp_path / "p2"), ("s02",), "production",
                          seed0=20, snr=0.5)
            + make_corpus(str(tmp_path / "l2"), ("s02",), "listening",
                          seed0=40, snr=0.5))
        table, rows = studies.run_task_comparison(exp_config(manifests))

        def s02(task):
            return [r["accuracy"] for r in rows
                    if r["task"] == task and r["subject"] == "s02"]

        expected = evaluation.wilcoxon(s02("listening"), s02("production"))
        comp = next(c for c in table.comparisons
                    if c["label"] == "listening vs production")
        assert (comp["W"], comp["p"]) == (expected.W, expected.p)

    def test_task_comparison_needs_two(self, corpus):
        with pytest.raises(DataError, match="modalities"):
            studies.run_task_comparison(exp_config(corpus["production"]))

    def test_band_sweep_skips_nyquist(self, tmp_path, capsys):
        paths = make_corpus(str(tmp_path), ("s05",), fs=250.0, seed0=70)
        cfg = exp_config(paths)
        table, rows = studies.run_band_sweep(cfg)
        configs = [r["configuration"] for r in table.rows]
        assert "unfiltered" in configs
        assert "Theta" in configs
        assert "HGA" not in configs  # 300 Hz upper edge exceeds Nyquist at 250
        assert "skipping band HGA" in capsys.readouterr().err

    def test_band_sweep_configs(self, corpus):
        cfg = exp_config(corpus["production"][:1])
        table, rows = studies.run_band_sweep(cfg)
        configs = [r["configuration"] for r in table.rows]
        assert configs[0] == "unfiltered"
        assert configs[1:] == ["Delta", "Theta", "Alpha", "Beta", "Gamma",
                               "HGA"]

    def test_ablation_rows(self, tmp_path):
        paths = make_corpus(str(tmp_path), ("s07",), n_mag=4, seed0=90)
        cfg = exp_config(paths)
        table, rows = studies.run_ablation(cfg)
        configs = [r["configuration"] for r in table.rows]
        assert configs == [
            "full_model", "magnetometers_only",
            "magnetometers_and_gradiometers", "no_wavelet",
            "no_decimation", "no_l1_ridge", "no_l2_lasso", "no_beta_filter",
        ]
        assert len(table.comparisons) == 7
        assert [c["label"] for c in table.comparisons] == [
            f"{c} vs full_model" for c in configs[1:]]
        assert [r.get("p") for r in table.rows] == [
            None, *(c["p"] for c in table.comparisons)]

    def test_parallel_matches_serial(self, mag_corpus):
        for study in (studies.run_model_comparison, studies.run_ablation,
                      studies.run_band_sweep):
            serial = study(exp_config(mag_corpus))
            parallel = study(exp_config(mag_corpus, jobs=2))
            assert parallel == serial, study.__name__

    def test_ablation_preprocesses_each_toggle_set_once(self, mag_corpus,
                                                        monkeypatch):
        calls = []
        real_preprocess = pipeline.preprocess

        def counting_preprocess(rec, toggles):
            calls.append((toggles, rec.channels))
            return real_preprocess(rec, toggles)

        monkeypatch.setattr(pipeline, "preprocess", counting_preprocess)
        studies.run_ablation(exp_config(mag_corpus[:1]))
        # no_l1_ridge and no_l2_lasso preprocess as full_model does; each
        # toggle set runs once on each channel group it reads
        assert len({toggles for toggles, _ in calls}) == 6
        assert len(set(calls)) == len(calls) == 11

        starts = []
        real_pool = studies.ProcessPoolExecutor

        def counting_pool(**kw):
            starts.append(kw)
            return real_pool(**kw)

        monkeypatch.setattr(studies, "ProcessPoolExecutor", counting_pool)
        studies.run_ablation(exp_config(mag_corpus[:1], jobs=2))
        assert starts == [{"max_workers": 2}]

    def test_pool_never_larger_than_units(self, mag_corpus, pool_sizes):
        studies.run_ablation(exp_config(mag_corpus[:1], jobs=64))
        studies.run_model_comparison(exp_config(mag_corpus, jobs=64))
        studies.run_model_comparison(exp_config(mag_corpus[:1], jobs=64))
        table, _ = studies.run_band_sweep(exp_config(mag_corpus[:1], jobs=64))
        # 6 distinct toggle sets, then 2 recordings; a single unit runs
        # in-process; then one unit per kept band of one recording
        assert pool_sizes == [6, 2, len(table.rows)]


class TestReport:
    def make_table(self):
        return ResultTable(
            title="T",
            rows=[{"modality": "production", "model": "m",
                   "configuration": "c", "accuracy_mean": 0.766,
                   "accuracy_std": 0.105, "f1_mean": 0.7, "f1_std": 0.1,
                   "auc_mean": 0.8, "auc_std": 0.05, "n": 2}],
            comparisons=[{"label": "a vs b", "W": 3.0, "p": 0.04,
                          "method": "exact"}],
        )

    def test_format_pm(self):
        assert format_pm(0.76612, 0.10548) == "76.6 ± 10.5"
        assert format_pm(1.0, 0.0) == "100.0 ± 0.0"

    def test_markdown_contents(self, tmp_path):
        path = str(tmp_path / "t.md")
        report.write_table_markdown(self.make_table(), path)
        text = open(path, encoding="utf-8").read()
        assert "76.6 ± 10.5" in text
        assert "a vs b" in text

    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        report.write_table_csv(self.make_table(), path)
        with open(path, newline="", encoding="utf-8") as f:
            out = list(csv.reader(f))
        assert out[0] == list(ResultTable.COLUMNS)
        assert out[1][0] == "production"

    def test_empty_table_raises(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            report.write_table_csv(ResultTable(title="x"), str(tmp_path / "x"))

    def test_pair_matrix(self, tmp_path):
        rows = [
            {"pair": "a-e", "accuracy": 0.8},
            {"pair": "a-e", "accuracy": 0.6},
            {"pair": "a-i", "accuracy": 0.9},
        ]
        path = str(tmp_path / "m.csv")
        report.write_pair_matrix(rows, path)
        with open(path, newline="", encoding="utf-8") as f:
            out = list(csv.reader(f))
        assert out[0] == ["", "a", "e", "i"]
        assert out[1][1] == ""                     # empty diagonal
        assert float(out[1][2]) == pytest.approx(0.7)
        assert out[2][1] == out[1][2]              # symmetric
        assert out[2][3] == ""                     # e-i never evaluated

    def test_inventory_order(self, tmp_path):
        path = str(tmp_path / "inv.csv")
        report.write_inventory_csv({"a": 5, "b": 9, "c": 5}, path)
        with open(path, newline="", encoding="utf-8") as f:
            out = list(csv.reader(f))
        assert [r[0] for r in out[1:]] == ["b", "a", "c"]


class TestConfig:
    def test_parse_and_echo_round_trip(self, corpus):
        doc = {
            "manifests": corpus["production"],
            "models": [{"variant": "elastic_net", "alpha": 0.2},
                       {"variant": "ffn", "hidden_sizes": [1024]}],
            "preprocessing": {"decimation_factor": 5},
            "cv": {"k": 4, "seed": 3},
            "min_count": 20,
        }
        cfg = configmod.parse_experiment(doc)
        assert cfg.models[0].alpha == 0.2
        assert cfg.models[1].name == "ffn_l2"
        assert cfg.preprocessing.decimation_factor == 5
        echoed = configmod.echo_experiment(cfg)
        cfg2 = configmod.parse_experiment(echoed)
        assert cfg2 == cfg

    def test_every_field_round_trips(self):
        train = TrainConfig(learning_rate=3e-3, weight_decay=0.0, max_epochs=7,
                            patience=2, val_fraction=0.2, seed=5)
        spec = ModelSpec("ffn", alpha=0.3, l1_ratio=0.25, C=2.0, gamma=0.5,
                         shrinkage=0.1, hidden_sizes=(1024,), kernel=5,
                         stride=5, filters_per_channel=4, train=train,
                         name="custom")
        cfg = studies.ExperimentConfig(
            manifests=("/data/a.json", "/data/b.json"),
            models=(spec,),
            phone_pairs=(("a", "e"),),
            preprocessing=PreprocessingToggles(
                sensor_kinds=("gradiometer", "magnetometer"), wavelet=False,
                decimation_factor=4, band_limit=20.0),
            cv=CvConfig(k=3, seed=7),
            min_count=10,
            epoch_window=EpochWindow(tmin=-0.05, tmax=0.3),
        )
        # every field with a default is set away from it ("jobs" is not echoed)
        for obj in (train, spec, cfg.preprocessing, cfg.cv, cfg.epoch_window,
                    cfg):
            for f in fields(obj):
                if f.name == "jobs" or (f.default is MISSING
                                        and f.default_factory is MISSING):
                    continue
                default = (f.default if f.default is not MISSING
                           else f.default_factory())
                assert getattr(obj, f.name) != default, f.name
        doc = json.loads(json.dumps(configmod.echo_experiment(cfg)))
        assert configmod.parse_experiment(doc) == cfg

    def test_echo_has_exactly_the_dataclass_fields(self):
        cfg = configmod.parse_experiment({
            "manifests": ["x.json"], "phone_pairs": [["a", "e"]],
            "models": [{"variant": "ffn", "hidden_sizes": [1024]},
                       {"variant": "cnn"}]})
        echoed = configmod.echo_experiment(cfg)
        # written as JSON reads back: every tuple is a list
        assert json.loads(json.dumps(echoed)) == echoed
        assert "jobs" not in echoed

        def check(doc, obj):
            assert set(doc) == {f.name for f in fields(obj)}
            for f in fields(obj):
                value = getattr(obj, f.name)
                if is_dataclass(value):
                    check(doc[f.name], value)
                elif isinstance(value, tuple) and all(map(is_dataclass, value)):
                    assert len(doc[f.name]) == len(value)
                    for item_doc, item in zip(doc[f.name], value):
                        check(item_doc, item)

        check(dict(echoed, jobs=cfg.jobs), cfg)

    def test_seed_override(self, corpus):
        doc = {"manifests": corpus["production"], "cv": {"seed": 1}}
        cfg = configmod.parse_experiment(doc, seed=99)
        assert cfg.cv.seed == 99

    def test_relative_manifest_paths(self):
        doc = {"manifests": ["x.json"]}
        cfg = configmod.parse_experiment(doc, base_dir="/data")
        assert cfg.manifests == (os.path.join("/data", "x.json"),)

    def test_bad_model(self):
        with pytest.raises(ConfigError, match="bad model spec 'transformer'"):
            configmod.parse_experiment({"manifests": ["x.json"],
                                        "models": [{"variant": "transformer"}]})

    def test_missing_manifests(self):
        with pytest.raises(ConfigError, match="'manifests' must be a nonempty list"):
            configmod.parse_experiment({})

    def test_write_echo(self, corpus, tmp_path):
        cfg = configmod.parse_experiment({"manifests": corpus["production"]})
        path = configmod.write_echo(cfg, str(tmp_path))
        assert os.path.basename(path) == "config_echo.json"
        doc = json.load(open(path, encoding="utf-8"))
        assert doc["phone_pairs"] == "auto"
