import json
import os
import shutil

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

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run-models", "--config", str(p),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

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
        ("manifests", {"a": "b"})])
    def test_malformed_study_config(self, cli_corpus, tmp_path, capsys, key,
                                    value):
        _, manifests = cli_corpus
        doc = run_config(manifests)
        doc[key] = value
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main(["ablate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
