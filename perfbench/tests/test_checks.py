"""Each workload's output check passes a well-formed output and rejects a
deliberately corrupted one.  Outputs are written with phonepair's own
writers, so they have the CLI's exact format."""

import json
import os

import numpy as np
import pytest

import workloads as wls
from phonepair import dataio
from phonepair.report import ResultTable, write_inventory_csv, write_reports


def _row(**kw):
    return {"modality": "production", "accuracy_std": 0.0, "f1_mean": 0.0,
            "f1_std": 0.0, "auc_mean": 0.0, "auc_std": 0.0, "n": 1, **kw}


def _fold_rows(models, k=5):
    return [{"subject": "s01", "task": "production", "pair": "a-e",
             "model": m, "configuration": "baseline", "fold": f,
             "accuracy": 1.0, "f1": 1.0, "auc": 1.0}
            for m in models for f in range(k)]


def write_band_sweep(out, acc):
    table = ResultTable("sweep", rows=[
        _row(model="elastic_net", configuration=b, accuracy_mean=a)
        for b, a in acc.items()])
    write_reports(table, os.path.join(out, "sweep"), "band_sweep")


GOOD_BANDS = {"unfiltered": 0.97, "Delta": 0.8, "Theta": 0.99, "Alpha": 0.99,
              "Beta": 0.9, "Gamma": 0.52, "HGA": 0.46}


@pytest.mark.parametrize("corrupt", [
    {"Gamma": 0.8},                  # signal where nothing was planted
    {"HGA": 0.3},
    {"Alpha": 1.0},                  # Theta no longer leads
])
def test_band_sweep_check(tmp_path, corrupt):
    out = str(tmp_path)
    write_band_sweep(out, GOOD_BANDS)
    assert wls.check_band_sweep(out, "") == []
    write_band_sweep(out, {**GOOD_BANDS, **corrupt})
    assert wls.check_band_sweep(out, "")


def test_band_sweep_check_missing_band(tmp_path):
    acc = dict(GOOD_BANDS)
    del acc["HGA"]
    write_band_sweep(str(tmp_path), acc)
    assert wls.check_band_sweep(str(tmp_path), "")


MODELS = ["elastic_net", "lda", "svm_rbf", "ffn_l1", "ffn_l3", "cnn"]


def write_model_zoo(out, acc, folds=None, patience=None):
    d = os.path.join(out, "models")
    table = ResultTable("models", rows=[
        _row(model=m, configuration="baseline", accuracy_mean=a)
        for m, a in acc.items()])
    write_reports(table, d, "model_comparison",
                  fold_rows=folds or _fold_rows(acc), pair_matrix=True)
    models = []
    for m in wls.WORKLOADS["model_zoo"].study["models"]:
        train = dict(m.get("train", {"max_epochs": 500, "patience": 10}))
        if patience is not None and "train" in m:
            train["patience"] = patience
        models.append({"name": m.get("name", m["variant"]),
                       "variant": m["variant"], "train": train})
    with open(os.path.join(d, "config_echo.json"), "w") as f:
        json.dump({"models": models}, f)


GOOD_MODELS = dict(zip(MODELS, (0.99, 0.97, 0.95, 0.8, 0.6, 0.7)))


def test_model_zoo_check(tmp_path):
    out = str(tmp_path)
    write_model_zoo(out, GOOD_MODELS)
    assert wls.check_model_zoo(out, "") == []


@pytest.mark.parametrize("corrupt", ["low_lda", "short_folds", "early_stop",
                                     "missing_model"])
def test_model_zoo_check_rejects(tmp_path, corrupt):
    out = str(tmp_path)
    acc, folds, patience = dict(GOOD_MODELS), None, None
    if corrupt == "low_lda":
        acc["lda"] = 0.6
    elif corrupt == "short_folds":
        folds = _fold_rows(MODELS)[:-1]
    elif corrupt == "early_stop":
        patience = 2
    else:
        del acc["cnn"]
    write_model_zoo(out, acc, folds, patience)
    assert wls.check_model_zoo(out, "")


def write_ablation(out, acc):
    table = ResultTable("ablation", rows=[
        _row(model="elastic_net", configuration=c, accuracy_mean=a)
        for c, a in acc.items()])
    write_reports(table, os.path.join(out, "ablation"), "ablation")


GOOD_ABLATION = dict.fromkeys(wls.ABLATION_ORDER, 0.99)


@pytest.mark.parametrize("corrupt", ["gap", "order"])
def test_ablation_check(tmp_path, corrupt):
    out = str(tmp_path)
    write_ablation(out, GOOD_ABLATION)
    assert wls.check_ablation(out, "") == []
    if corrupt == "gap":
        bad = {**GOOD_ABLATION, "no_beta_filter": 0.95}
    else:
        order = list(wls.ABLATION_ORDER)
        order[1], order[2] = order[2], order[1]
        bad = {c: 0.99 for c in order}
    write_ablation(out, bad)
    assert wls.check_ablation(out, "")


def write_corpus_prep(out, corpus, delay=-wls.PLANTED_LAG_S, n_channels=None,
                      counts_scale=1.0):
    os.makedirs(os.path.join(out, "align"))
    with open(os.path.join(out, "align", "align.json"), "w") as f:
        json.dump({"delay": delay}, f)
    os.makedirs(os.path.join(out, "preprocess"))
    os.makedirs(corpus)
    totals = {}
    recordings = wls.WORKLOADS["corpus_prep"].recordings
    for i, r in enumerate(recordings):
        stem = f"{r['subject_id']}_{r['task']}"
        n = n_channels or r["n_channels"] + r["n_magnetometers"]
        n_samples = -(-round(r["duration"] * wls.FS) // wls.DECIMATION)
        kinds = ["gradiometer"] * r["n_channels"] + \
            ["magnetometer"] * r["n_magnetometers"]
        chans = [dataio.ChannelInfo(f"C{j}", kinds[j % len(kinds)])
                 for j in range(n)]
        dataio.save_recording(
            dataio.Recording(wls.FS / wls.DECIMATION, chans,
                             np.zeros((n, n_samples))),
            os.path.join(out, "preprocess", stem + "_preprocessed.nrd"))
        events = [dataio.Event(0.2 * j + 0.1, 0.2 * j + 0.15, lab)
                  for j, lab in enumerate(["a", "e", "e", "o"][: 2 + i % 3])]
        dataio.save_events(dataio.EventTable(tuple(events)),
                           os.path.join(corpus, stem + ".events.tsv"))
        for e in events:
            totals[e.label] = totals.get(e.label, 0) + 1
    os.makedirs(os.path.join(out, "report"))
    write_inventory_csv({k: counts_scale * v / len(recordings)
                         for k, v in totals.items()},
                        os.path.join(out, "report", "phone_counts.csv"))


@pytest.mark.parametrize("corrupt,step", [
    ({"delay": -0.49}, "align"),
    ({"delay": 0.5}, "align"),
    ({"n_channels": 10}, "preprocess"),
    ({"counts_scale": 2.0}, "report"),
])
def test_corpus_prep_check(tmp_path, corrupt, step):
    wl = wls.WORKLOADS["corpus_prep"]
    good = wls.check(wl, str(tmp_path / "good"), str(tmp_path / "good_corpus"))
    assert any(good.values())  # nothing written yet: every step fails
    write_corpus_prep(str(tmp_path / "good"), str(tmp_path / "good_corpus"))
    good = wls.check(wl, str(tmp_path / "good"), str(tmp_path / "good_corpus"))
    assert good == {"align": [], "preprocess": [], "report": []}
    write_corpus_prep(str(tmp_path / "bad"), str(tmp_path / "bad_corpus"),
                      **corrupt)
    bad = wls.check(wl, str(tmp_path / "bad"), str(tmp_path / "bad_corpus"))
    assert [s for s, p in bad.items() if p] == [step]


def test_missing_output_is_a_problem_of_its_step(tmp_path):
    for name, wl in wls.WORKLOADS.items():
        problems = wls.check(wl, str(tmp_path / name), str(tmp_path))
        assert all(problems[s.out] for s in wl.steps), name
