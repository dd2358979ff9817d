import csv
import json
import os
from dataclasses import MISSING, fields

import numpy as np
import pytest

from phonepair import config as configmod
from phonepair import dataio, evaluation, pipeline, report, studies, synth
from phonepair.dataio import ConfigError, DataError
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

EN = [("elastic_net", ModelSpec("elastic_net"))]
EN_RUNS = [("baseline", "elastic_net", ModelSpec("elastic_net"))]
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

    def test_sensor_selection(self, tmp_path):
        paths = make_corpus(str(tmp_path), ("s09",), n_mag=4, seed0=50)
        rec = dataio.load_recording(dataio.load_manifest(paths[0]).recording_path)
        out = preprocess(rec, PreprocessingToggles(
            sensor_kinds=("magnetometer",), wavelet=False,
            decimation_factor=1, band_limit=None))
        assert out.n_channels == 4

    def test_bad_decimation(self):
        with pytest.raises(ConfigError,
                           match="decimation_factor must be an integer and >= 1"):
            PreprocessingToggles(decimation_factor=0)


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
        assert compare_rows(rows, list(rows)) is None

    def test_resolve_pairs(self):
        assert resolve_pairs("auto", ("e", "a", "i")) == [
            ("a", "e"), ("a", "i"), ("e", "i")]
        assert resolve_pairs([("e", "a")], None) == [("a", "e")]
        with pytest.raises(ConfigError, match="pair"):
            resolve_pairs([("a", "a")], None)


class TestEvaluateRecording:
    def test_rows_complete_and_decodable(self, corpus):
        man = dataio.load_manifest(corpus["production"][0])
        rec = dataio.load_recording(man.recording_path)
        events = dataio.load_events(man.events_path)
        rows = evaluate_recording(
            preprocess(rec, PreprocessingToggles()), events,
            subject=man.subject_id, task=man.task, runs=EN_RUNS, cv=FAST_CV,
            phone_pairs="auto", min_count=20, window=EpochWindow(),
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
                preprocess(rec, PreprocessingToggles()), events,
                subject="s", task="t", runs=EN_RUNS, cv=FAST_CV,
                phone_pairs="auto", min_count=1000, window=EpochWindow(),
            )


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
            models=(("elastic_net", ModelSpec("elastic_net")),
                    ("lda", ModelSpec("lda"))),
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
        specs = [ModelSpec("lda"), ModelSpec("elastic_net"),
                 ModelSpec("svm_rbf")]
        cfg = exp_config(corpus["production"], models=tuple(zip(names, specs)))
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
            calls.append(toggles)
            return real_preprocess(rec, toggles)

        monkeypatch.setattr(pipeline, "preprocess", counting_preprocess)
        studies.run_ablation(exp_config(mag_corpus[:1]))
        # no_l1_ridge and no_l2_lasso preprocess as full_model does
        assert len(calls) == 6

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
        # 6 distinct toggle sets, then 2 recordings; a single unit runs
        # in-process
        assert pool_sizes == [6, 2]


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
        assert cfg.models[0][1].alpha == 0.2
        assert cfg.models[1][0] == "ffn_l2"
        assert cfg.preprocessing.decimation_factor == 5
        echoed = configmod.echo_experiment(cfg)
        cfg2 = configmod.parse_experiment(echoed)
        assert cfg2 == cfg

    def test_every_field_round_trips(self):
        train = TrainConfig(learning_rate=3e-3, weight_decay=0.0, max_epochs=7,
                            patience=2, val_fraction=0.2, seed=5)
        spec = ModelSpec("ffn", alpha=0.3, l1_ratio=0.25, C=2.0, gamma=0.5,
                         shrinkage=0.1, hidden_sizes=(1024,), kernel=5,
                         stride=5, filters_per_channel=4, train=train)
        cfg = studies.ExperimentConfig(
            manifests=("/data/a.json", "/data/b.json"),
            models=(("custom", spec),),
            phone_pairs=(("a", "e"),),
            preprocessing=PreprocessingToggles(
                sensor_kinds=("gradiometer", "magnetometer"), wavelet=False,
                decimation_factor=4, band_limit=20.0),
            cv=CvConfig(k=3, seed=7),
            min_count=10,
            window=EpochWindow(tmin=-0.05, tmax=0.3),
        )
        # every field with a default is set away from it ("jobs" is not echoed)
        for obj in (train, spec, cfg.preprocessing, cfg.cv, cfg.window, cfg):
            for f in fields(obj):
                if f.name == "jobs" or (f.default is MISSING
                                        and f.default_factory is MISSING):
                    continue
                default = (f.default if f.default is not MISSING
                           else f.default_factory())
                assert getattr(obj, f.name) != default, f.name
        doc = json.loads(json.dumps(configmod.echo_experiment(cfg)))
        assert configmod.parse_experiment(doc) == cfg

    def test_seed_override(self, corpus):
        doc = {"manifests": corpus["production"], "cv": {"seed": 1}}
        cfg = configmod.parse_experiment(doc, seed=99)
        assert cfg.cv.seed == 99

    def test_relative_manifest_paths(self):
        doc = {"manifests": ["x.json"]}
        cfg = configmod.parse_experiment(doc, base_dir="/data")
        assert cfg.manifests == (os.path.join("/data", "x.json"),)

    def test_bad_model(self):
        with pytest.raises(ConfigError, match="model"):
            configmod.parse_model({"variant": "transformer"})

    def test_missing_manifests(self):
        with pytest.raises(ConfigError, match="'manifests' must be a nonempty list"):
            configmod.parse_experiment({})

    def test_write_echo(self, corpus, tmp_path):
        cfg = configmod.parse_experiment({"manifests": corpus["production"]})
        path = configmod.write_echo(cfg, str(tmp_path))
        assert os.path.basename(path) == "config_echo.json"
        doc = json.load(open(path, encoding="utf-8"))
        assert doc["phone_pairs"] == "auto"
