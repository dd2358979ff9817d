import json
import os
import shutil
import warnings

import numpy as np
import pytest

from phonepair import dataio, models
from phonepair.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main

SYNTH_DOC = {
    "recordings": [
        {"subject_id": "s01", "task": "production", "duration": 20,
         "phones": [["a", 24], ["e", 24]], "n_channels": 12, "fs": 1000,
         "snr": 2.5, "active_fraction": 0.25, "seed": 11},
        {"subject_id": "s02", "task": "production", "duration": 20,
         "phones": [["a", 24], ["e", 24]], "n_channels": 12, "fs": 1000,
         "snr": 2.5, "active_fraction": 0.25, "seed": 12},
    ]
}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return str(path)


@pytest.fixture(scope="session")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_json(root / "synth.json", SYNTH_DOC)
    out = str(root / "data")
    assert main(["synth", "--config", cfg, "--out", out]) == EXIT_OK
    corpus = json.load(open(os.path.join(out, "corpus.json"), encoding="utf-8"))
    return root, corpus["manifests"]


def run_config(manifests):
    return {
        "manifests": manifests,
        "models": [{"variant": "elastic_net"}],
        "cv": {"k": 3, "seed": 0},
        "min_count": 20,
    }


class TestSynth:
    def test_outputs_exist(self, cli_corpus):
        _, manifests = cli_corpus
        assert len(manifests) == 2
        for path in manifests:
            man = dataio.load_manifest(path)
            rec = dataio.load_recording(man.recording_path)
            assert rec.n_channels == 12
            assert len(dataio.load_events(man.events_path)) == 48

    def test_seed_flag_changes_data(self, cli_corpus, tmp_path):
        root, manifests = cli_corpus
        cfg = write_json(tmp_path / "synth.json",
                         {"recordings": SYNTH_DOC["recordings"][:1]})
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--config", cfg, "--out", out_a,
                     "--seed", "1"]) == EXIT_OK
        assert main(["synth", "--config", cfg, "--out", out_b,
                     "--seed", "2"]) == EXIT_OK
        ra = dataio.load_recording(os.path.join(out_a, "s01_production.nrd"))
        rb = dataio.load_recording(os.path.join(out_b, "s01_production.nrd"))
        assert not np.array_equal(ra.data, rb.data)

    def test_empty_config(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"recordings": []})
        assert main(["synth", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG


class TestRunModels:
    def test_outputs_and_determinism(self, cli_corpus, tmp_path):
        _, manifests = cli_corpus
        cfg = write_json(tmp_path / "run.json", run_config(manifests))
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["run-models", "--config", cfg, "--out", out1]) == EXIT_OK
        assert main(["run-models", "--config", cfg, "--out", out2]) == EXIT_OK
        names = ["model_comparison.csv", "model_comparison.md",
                 "model_comparison_folds.csv",
                 "model_comparison_pair_matrix.csv", "config_echo.json"]
        for name in names:
            p1, p2 = os.path.join(out1, name), os.path.join(out2, name)
            assert os.path.exists(p1), name
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read(), f"{name} differs between runs"

    def test_parallel_identical(self, cli_corpus, tmp_path):
        _, manifests = cli_corpus
        cfg = write_json(tmp_path / "run.json", run_config(manifests))
        out1, out2 = str(tmp_path / "serial"), str(tmp_path / "par")
        assert main(["run-models", "--config", cfg, "--out", out1]) == EXIT_OK
        assert main(["run-models", "--config", cfg, "--out", out2,
                     "--jobs", "2"]) == EXIT_OK
        for name in ("model_comparison.csv", "model_comparison_folds.csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_config_echo_reproduces(self, cli_corpus, tmp_path):
        _, manifests = cli_corpus
        cfg = write_json(tmp_path / "run.json", run_config(manifests))
        out1 = str(tmp_path / "first")
        assert main(["run-models", "--config", cfg, "--out", out1]) == EXIT_OK
        echo = os.path.join(out1, "config_echo.json")
        out2 = str(tmp_path / "second")
        assert main(["run-models", "--config", echo, "--out", out2]) == EXIT_OK
        a = open(os.path.join(out1, "model_comparison.csv"), "rb").read()
        b = open(os.path.join(out2, "model_comparison.csv"), "rb").read()
        assert a == b

    def test_unconverged_solver_exits_numeric(self, cli_corpus, tmp_path,
                                              monkeypatch, capsys):
        _, manifests = cli_corpus
        monkeypatch.setattr(models, "EN_MAX_ITER", 2)
        cfg = write_json(tmp_path / "run.json", run_config(manifests))
        assert main(["run-models", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: fold 0: ")
        assert err.count("\n") == 1


HEADER_BREAKAGES = {
    "text_sample_rate": ("sample_rate", "fast"),
    "nan_sample_rate": ("sample_rate", float("nan")),
    "text_n_samples": ("n_samples", "many"),
    "infinite_n_samples": ("n_samples", float("inf")),
}
BAD_EVENT_ROWS = {
    "infinite_offset": "1.0\tinf\ta\n",
    "nan_onset": "nan\t1.1\ta\n",
}


class TestMalformedRecordingsAndEvents:
    """``align`` reads recordings directly; ``report`` goes through the
    manifest, which reads the recording header and the event table."""

    @pytest.mark.parametrize("command,breakage", [
        *[(c, b) for b in [*HEADER_BREAKAGES, "sidecar_not_utf8"]
          for c in ("align", "report")],
        # no channels and an empty payload: consistent, but nothing to align
        ("align", "no_channels"),
        *[("report", b) for b in [*BAD_EVENT_ROWS, "events_not_utf8"]],
    ])
    def test_exits_data_error(self, cli_corpus, tmp_path, capsys, command,
                              breakage):
        _, manifests = cli_corpus
        man = dataio.load_manifest(manifests[0])
        rec_path = str(tmp_path / "r.nrd")
        ev_path = str(tmp_path / "r.events.tsv")
        shutil.copy(man.recording_path, rec_path)
        shutil.copy(man.events_path, ev_path)
        header = json.load(open(man.recording_path + ".json", encoding="utf-8"))
        if breakage in HEADER_BREAKAGES:
            key, value = HEADER_BREAKAGES[breakage]
            header[key] = value
        write_json(rec_path + ".json", header)
        if breakage == "sidecar_not_utf8":
            with open(rec_path + ".json", "r+b") as f:
                f.write(b"\xff")
        elif breakage == "no_channels":
            write_json(rec_path + ".json",
                       dict(header, channels=[], n_samples=100))
            open(rec_path, "wb").close()
        elif breakage == "events_not_utf8":
            with open(ev_path, "ab") as f:
                f.write(b"1.0\t1.1\t\xe9\n")
        elif breakage in BAD_EVENT_ROWS:
            with open(ev_path, "a", encoding="utf-8") as f:
                f.write(BAD_EVENT_ROWS[breakage])
        man_path = str(tmp_path / "m.manifest.json")
        dataio.save_manifest(dataio.Manifest(man.subject_id, man.task, rec_path,
                                             ev_path, man.sample_rate), man_path)
        doc = ({"misc": rec_path, "audio": rec_path} if command == "align"
               else {"manifests": [man_path]})
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestAlign:
    def test_planted_delay(self, cli_corpus, tmp_path):
        root, manifests = cli_corpus
        man = dataio.load_manifest(manifests[0])
        rec = dataio.load_recording(man.recording_path)
        fs = rec.sample_rate
        rng = np.random.default_rng(0)
        audio = rng.standard_normal(rec.n_samples)
        shift = int(round(0.5 * fs))
        misc = np.roll(audio, shift) + 0.1 * rng.standard_normal(rec.n_samples)
        ch = (dataio.ChannelInfo("MISC001", "misc", "V"),)
        for name, sig in (("misc", misc), ("audio", audio)):
            dataio.save_recording(
                dataio.Recording(fs, ch, sig[None, :]),
                str(tmp_path / f"{name}.nrd"))
        cfg = write_json(tmp_path / "align.json", {
            "misc": str(tmp_path / "misc.nrd"),
            "audio": str(tmp_path / "audio.nrd"),
            "window": 1.0,
        })
        out = str(tmp_path / "out")
        assert main(["align", "--config", cfg, "--out", out]) == EXIT_OK
        doc = json.load(open(os.path.join(out, "align.json"), encoding="utf-8"))
        # misc lags audio by 0.5 s, reported as a negative delay
        assert doc["delay"] == pytest.approx(-0.5, abs=1.0 / fs)
        assert not doc["low_confidence"]


class TestReportCommand:
    def test_phone_counts(self, cli_corpus, tmp_path):
        _, manifests = cli_corpus
        cfg = write_json(tmp_path / "rep.json", {"manifests": manifests})
        out = str(tmp_path / "out")
        assert main(["report", "--config", cfg, "--out", out]) == EXIT_OK
        lines = open(os.path.join(out, "phone_counts.csv"),
                     encoding="utf-8").read().splitlines()
        assert lines[0] == "label,count"
        counts = dict(l.split(",") for l in lines[1:])
        assert float(counts["a"]) == 24.0
        assert float(counts["e"]) == 24.0

    def test_relative_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_json("synth.json", {"recordings": SYNTH_DOC["recordings"][:1]})
        assert main(["synth", "--config", cfg, "--out", "corp"]) == EXIT_OK
        rep = write_json("rep.json",
                         {"manifests": ["corp/s01_production.manifest.json"]})
        assert main(["report", "--config", rep, "--out", "out"]) == EXIT_OK


class TestOtherStudies:
    def test_sweep_bands(self, cli_corpus, tmp_path):
        _, manifests = cli_corpus
        cfg = write_json(tmp_path / "sweep.json", run_config(manifests[:1]))
        out = str(tmp_path / "out")
        assert main(["sweep-bands", "--config", cfg, "--out", out]) == EXIT_OK
        text = open(os.path.join(out, "band_sweep.csv"),
                    encoding="utf-8").read()
        for conf in ("unfiltered", "Delta", "Theta", "HGA"):
            assert conf in text

    def test_preprocess_command(self, cli_corpus, tmp_path):
        _, manifests = cli_corpus
        cfg = write_json(tmp_path / "pre.json", {"manifests": manifests[:1]})
        out = str(tmp_path / "out")
        assert main(["preprocess", "--config", cfg, "--out", out]) == EXIT_OK
        corpus = json.load(open(os.path.join(out, "corpus.json"),
                                encoding="utf-8"))
        man = dataio.load_manifest(corpus["manifests"][0])
        assert man.sample_rate == 100.0
        rec = dataio.load_recording(man.recording_path)
        assert rec.sample_rate == 100.0


class TestExitCodes:
    def test_unreadable_config(self, tmp_path):
        assert main(["run-models", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        # not JSON, and JSON that is not UTF-8
        for payload in (b"{not json", b'{"x": "\xff"}'):
            p.write_bytes(payload)
            for command in ("synth", "align", "preprocess", "run-models",
                            "report"):
                assert main([command, "--config", str(p),
                             "--out", str(tmp_path)]) == EXIT_CONFIG, command
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and err.count("\n") == 1

    def test_bad_model_variant(self, cli_corpus, tmp_path):
        _, manifests = cli_corpus
        doc = run_config(manifests)
        doc["models"] = [{"variant": "transformer"}]
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main(["run-models", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_manifest(self, tmp_path):
        cfg = write_json(tmp_path / "run.json",
                         run_config([str(tmp_path / "ghost.json")]))
        assert main(["run-models", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_DATA

    @pytest.mark.parametrize("breakage", [
        "bad_json", "no_subject_id", "no_task", "no_recording_path",
        "no_events_path", "no_sample_rate", "text_sample_rate"])
    def test_malformed_manifest(self, cli_corpus, tmp_path, capsys, breakage):
        _, manifests = cli_corpus
        man = dataio.load_manifest(manifests[0])
        doc = {"subject_id": man.subject_id, "task": man.task,
               "recording_path": man.recording_path,
               "events_path": man.events_path,
               "sample_rate": man.sample_rate}
        if breakage.startswith("no_"):
            del doc[breakage[3:]]
        elif breakage == "text_sample_rate":
            doc["sample_rate"] = "fast"
        path = tmp_path / "m.manifest.json"
        if breakage == "bad_json":
            path.write_text(json.dumps(doc)[:-1])
        else:
            write_json(path, doc)
        cfg = write_json(tmp_path / "rep.json", {"manifests": [str(path)]})
        assert main(["report", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [
        ("min_count", "abc"), ("min_count", None), ("phone_pairs", 5),
        ("phone_pairs", [3]), ("manifests", "abc"), ("manifests", [3]),
        ("manifests", {"a": "b"}), ("manifests", []),
        ("cv", {"k": "five"}), ("cv", {"k": 0}), ("cv", {"k": 1}),
        ("cv", {"k": 2.5}), ("cv", {"seed": "x"}),
        ("epoch_window", {"tmin": "x"}),
        ("epoch_window", {"tmin": 0.2, "tmax": 0.1}),
        ("preprocessing", {"band_limit": "x"}),
        ("preprocessing", {"band_limit": 0}),
        ("preprocessing", {"sensor_kinds": "gradiometer"}),
        ("preprocessing", {"sensor_kinds": ["eeg"]}),
        ("preprocessing", {"sensor_kinds": []}),
        ("preprocessing", {"wavelet": "no"}),
        ("preprocessing", {"decimation_factor": 2.5}),
        ("models", [{"variant": "elastic_net"}, {"variant": "elastic_net"}]),
        ("models", [{"variant": "elastic_net", "name": 5},
                    {"variant": "lda", "name": "x"}]),
        ("models", [{"variant": "ffn", "train": {"max_epochs": "x"}}]),
        ("models", [{"variant": "ffn", "train": {"max_epochs": 0}}]),
        ("models", [{"variant": "ffn", "train": {"patience": 0}}]),
        ("models", [{"variant": "ffn", "train": {"learning_rate": "x"}}]),
        ("models", [{"variant": "ffn", "train": {"learning_rate": 0}}]),
        ("models", [{"variant": "ffn", "train": {"weight_decay": -1}}]),
        ("models", [{"variant": "ffn", "train": {"val_fraction": 5}}]),
        ("models", [{"variant": "ffn", "train": {"seed": 1.5}}]),
        ("models", [{"variant": "cnn", "kernel": "x"}]),
        ("models", [{"variant": "cnn", "kernel": 0}]),
        ("models", [{"variant": "cnn", "stride": 2.5}]),
        ("models", [{"variant": "svm_rbf", "gamma": "x"}]),
        ("models", [{"variant": "svm_rbf", "gamma": 0}]),
        ("models", [{"variant": "elastic_net", "alpha": True}]),
        # NaN and infinities, which JSON parsing accepts
        ("epoch_window", {"tmax": float("inf")}),
        ("epoch_window", {"tmin": float("-inf")}),
        ("models", [{"variant": "elastic_net", "alpha": float("nan")}]),
        ("models", [{"variant": "svm_rbf", "C": float("inf")}]),
        # checked before any recording is preprocessed, not truncated
        ("min_count", 24.9), ("min_count", True),
        ("phone_pairs", "ae"), ("phone_pairs", [["a", 5]]),
        ("phone_pairs", [["a", "a"]]), ("phone_pairs", [["a", "e", "i"]]),
        # bounds that hold for every variant, not only the one that reads them
        ("models", [{"variant": "lda", "alpha": 0}]),
        ("models", [{"variant": "elastic_net", "shrinkage": 2}]),
        # a misspelt key is not ignored
        ("min_cout", 1),
        ("cv", {"seed": -1}),
        ("models", [{"variant": "ffn", "train": {"seed": -1}}])])
    def test_malformed_study_config(self, cli_corpus, tmp_path, capsys, key,
                                    value):
        _, manifests = cli_corpus
        doc = run_config(manifests)
        doc[key] = value
        cfg = write_json(tmp_path / "bad.json", doc)
        # every command that reads the key rejects it the same way
        commands = {"manifests": ("ablate", "preprocess", "report"),
                    "preprocessing": ("ablate", "preprocess"),
                    "models": ("run-models",)}
        for command in commands.get(key, ("ablate",)):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == EXIT_CONFIG, command
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, cli_corpus, tmp_path, capsys, jobs):
        _, manifests = cli_corpus
        cfg = write_json(tmp_path / "run.json", run_config(manifests))
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--jobs", jobs]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "jobs must be an integer and >= 1" in err

    # too large for the recordings, which only the data can tell
    @pytest.mark.parametrize("command,key,value", [
        ("preprocess", "preprocessing", {"decimation_factor": 10**30}),
        ("run-models", "models",
         [{"variant": "cnn", "filters_per_channel": 10**30}])])
    def test_sizes_beyond_the_data(self, cli_corpus, tmp_path, capsys,
                                   command, key, value):
        _, manifests = cli_corpus
        doc = run_config(manifests[:1])
        doc[key] = value
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        [], {"recordings": [5]},
        {"recordings": [{"duration": "x"}]},
        {"recordings": [{"duration": 20, "n_channels": 0}]},
        {"recordings": [{"duration": 20, "n_channels": 4, "fs": True}]},
        {"recordings": [{"duration": 20, "n_channels": 4,
                         "phones": [["a", 0]]}]},
        {"recordings": [{"duration": 20, "n_channels": 4,
                         "phones": [["a"]]}]},
        # counts that are not integers, not truncated or read as 1
        {"recordings": [{"duration": 20, "n_channels": 4,
                         "phones": [["a", 24.9]]}]},
        {"recordings": [{"duration": 20, "n_channels": 4,
                         "phones": [["a", True]]}]},
        # a band name is config, not data
        {"recordings": [{"duration": 20, "n_channels": 4, "band": "Foo"}]},
        # too short for the planted events
        {"recordings": [{"duration": 1, "n_channels": 4}]},
        {"recordings": [{"duration": 30, "n_channels": 4,
                         "snr": float("nan")}]},
        {"recordings": [{"duration": 30, "n_channels": 4, "seed": -1}]},
        {"recordings": [{"duration": 30, "n_channels": 4, "task": "sleep"}]},
        # sizes checked before anything is allocated
        {"recordings": [{"duration": 30, "n_channels": 4,
                         "phones": [["a", 10**30]]}]},
        {"recordings": [{"duration": 30, "n_channels": 10**30}]},
        {"recordings": [{"duration": 30, "n_channels": 4,
                         "n_magnetometers": 10**30}]},
        {"recordings": [{"duration": 1e30, "n_channels": 4}]},
        {"recordings": [{"duration": 30, "n_channels": 4, "fs": 1e30}]},
        {"recordings": [{"duration": 1e9, "n_channels": 4}]},
        {"recordings": [{"duration": 30, "n_channels": 10**8}]}])
    def test_malformed_synth_config(self, tmp_path, capsys, doc):
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main(["synth", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_samples_beyond_float32(self, tmp_path, capsys):
        # valid for the generator, but not storable as float32
        doc = {"recordings": [{"duration": 5, "n_channels": 2,
                                "phones": [["a", 5], ["e", 5]], "snr": 1e39}]}
        cfg = write_json(tmp_path / "big.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "float32 range" in err

    @pytest.mark.parametrize("change", [
        None, {"window": "x"}, {"window": None}, {"window": True},
        {"misc": 5}, {"window": float("nan")}, {"window": float("inf")},
        {"window": 0}, {"window": -1.5}])
    def test_malformed_align_config(self, cli_corpus, tmp_path, capsys,
                                    change):
        _, manifests = cli_corpus
        rec_path = dataio.load_manifest(manifests[0]).recording_path
        # None stands for a config that is not an object at all
        doc = ([] if change is None
               else {"misc": rec_path, "audio": rec_path, **change})
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main(["align", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,flag", [
        ("align", "--seed"), ("preprocess", "--seed"), ("report", "--seed"),
        ("synth", "--jobs"), ("align", "--jobs"), ("preprocess", "--jobs"),
        ("report", "--jobs")])
    def test_flags_a_command_ignores_are_rejected(self, cli_corpus, tmp_path,
                                                  capsys, command, flag):
        # a config the command accepts, so only the flag can fail it
        _, manifests = cli_corpus
        rec_path = dataio.load_manifest(manifests[0]).recording_path
        cfg = write_json(tmp_path / "c.json", {
            "synth": SYNTH_DOC, "align": {"misc": rec_path, "audio": rec_path},
        }.get(command, {"manifests": manifests[:1]}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                  flag, "2"])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
