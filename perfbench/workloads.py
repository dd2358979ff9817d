"""The four study workloads: the corpus each generates, the CLI commands it
runs, the check each command's output must pass, and its planted accuracy.

Every corpus is synthetic and made from the run's seed, so the same seed
gives byte-identical inputs.  Sizes keep each command sequence to 7-13 s on
2 CPUs, so a full set of runs fits the benchmark's time budget, while each
workload keeps the layer it exists to stress dominant (see README.md).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

FS = 1000.0
PLANTED_LAG_S = 0.5        # corpus_prep: the MISC copy lags the audio by this
ALIGN_WINDOW_S = 1.0
DECIMATION = 10
CHANCE = 0.5
CHANCE_TOLERANCE = 0.15    # bands with nothing planted; see README.md
NEAR_PERFECT = 0.90        # model_zoo: linear and kernel models
BETA_FILTER_TOLERANCE = 0.02
ABLATION_ORDER = ("full_model", "magnetometers_only",
                  "magnetometers_and_gradiometers", "no_wavelet",
                  "no_decimation", "no_l1_ridge", "no_l2_lasso",
                  "no_beta_filter")
BANDS = ("unfiltered", "Delta", "Theta", "Alpha", "Beta", "Gamma", "HGA")


@dataclass(frozen=True)
class Step:
    command: str           # phonepair subcommand
    config: str            # config file name under the work dir
    out: str               # output directory name under <work>/out
    jobs: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    recordings: tuple      # synth recording docs, seeds added by synth --seed
    steps: tuple
    study: dict | None = None     # study config (manifests filled in)
    audio_pair: bool = False

    @property
    def jobs(self) -> int:
        return max(s.jobs for s in self.steps)


def _recording(subject, n_grad, duration, phones, n_mag=0, **extra):
    return {"subject_id": subject, "task": "production", "duration": duration,
            "phones": [list(p) for p in phones], "n_channels": n_grad,
            "n_magnetometers": n_mag, "fs": FS, **extra}


def _neural(name, max_epochs, **spec):
    # patience >= max_epochs: early stopping can never fire, so every fit
    # does exactly max_epochs epochs of work.  At the default learning rate
    # these short budgets leave the nets near their initialisation, and
    # their accuracy then swings with the seed; 1e-3 lets them learn.
    return {"name": name, **spec,
            "train": {"max_epochs": max_epochs, "patience": max_epochs,
                      "learning_rate": 1e-3}}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="band_sweep",
        recordings=tuple(_recording(s, 8, 32.0, (("a", 75), ("e", 75)),
                                    active_fraction=0.375)
                         for s in ("s01", "s02")),
        steps=(Step("sweep-bands", "study.json", "sweep"),),
        study={"models": [{"variant": "elastic_net"}],
               "cv": {"k": 5, "seed": 0}, "min_count": 50},
    ),
    Workload(
        name="model_zoo",
        recordings=(_recording("s01", 68, 32.0, (("a", 60), ("e", 60)),
                               active_fraction=0.3, snr=3.0),),
        steps=(Step("run-models", "study.json", "models"),),
        study={"models": [
            {"variant": "elastic_net"}, {"variant": "lda"},
            {"variant": "svm_rbf"},
            _neural("ffn_l1", 40, variant="ffn"),
            _neural("ffn_l3", 4, variant="ffn", hidden_sizes=[2048, 1024]),
            _neural("cnn", 60, variant="cnn")],
            "cv": {"k": 5, "seed": 0}, "min_count": 50},
    ),
    Workload(
        name="ablation_jobs2",
        recordings=tuple(_recording(s, 51, 32.0, (("a", 60), ("e", 60)),
                                    n_mag=26) for s in ("s01", "s02")),
        steps=(Step("ablate", "study.json", "ablation", jobs=2),),
        study={"models": [{"variant": "elastic_net"}],
               "cv": {"k": 5, "seed": 0}, "min_count": 50},
    ),
    Workload(
        name="corpus_prep",
        recordings=tuple(_recording(s, 102, 40.0, [(p, 40) for p in "aeio"],
                                    n_mag=51)
                         for s in ("s01", "s02", "s03", "s04")),
        steps=(Step("align", "align.json", "align"),
               Step("preprocess", "preprocess.json", "preprocess"),
               Step("report", "report.json", "report")),
        audio_pair=True,
    ),
)}


def synth_config(wl: Workload) -> dict:
    return {"recordings": [dict(r) for r in wl.recordings]}


def _manifest(corpus, rdoc, suffix=""):
    return os.path.join(corpus, f"{rdoc['subject_id']}_{rdoc['task']}"
                                f"{suffix}.manifest.json")


def step_configs(wl: Workload, corpus: str, out: str) -> dict:
    """Config file name -> document for every step of the workload."""
    manifests = [_manifest(corpus, r) for r in wl.recordings]
    if wl.study is not None:
        return {"study.json": {**wl.study, "manifests": manifests}}
    pre_out = os.path.join(out, "preprocess")
    return {
        "align.json": {"misc": os.path.join(corpus, "misc.nrd"),
                       "audio": os.path.join(corpus, "audio.nrd"),
                       "window": ALIGN_WINDOW_S},
        "preprocess.json": {
            "manifests": manifests,
            "preprocessing": {"sensor_kinds": ["gradiometer", "magnetometer"]}},
        "report.json": {"manifests": [_manifest(pre_out, r, "_preprocessed")
                                      for r in wl.recordings]},
    }


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds
# ---------------------------------------------------------------------------

def _table(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _accuracy(rows: list[dict], key: str) -> dict:
    return {r[key]: float(r["accuracy_mean"]) for r in rows}


def check_band_sweep(out: str, corpus: str) -> list[str]:
    acc = _accuracy(_table(os.path.join(out, "sweep", "band_sweep.csv")),
                    "configuration")
    problems = []
    if list(acc) != list(BANDS):
        return [f"band rows {list(acc)} != {list(BANDS)}"]
    best = max(acc.values())
    if acc["Theta"] < best:
        problems.append(f"Theta {acc['Theta']:.3f} trails the best band {best:.3f}")
    for band in ("Gamma", "HGA"):
        if abs(acc[band] - CHANCE) > CHANCE_TOLERANCE:
            problems.append(f"{band} {acc[band]:.3f} is not within "
                            f"{CHANCE_TOLERANCE} of chance")
    return problems


def check_model_zoo(out: str, corpus: str) -> list[str]:
    d = os.path.join(out, "models")
    acc = _accuracy(_table(os.path.join(d, "model_comparison.csv")), "model")
    expected = [m["name"] if "name" in m else m["variant"]
                for m in WORKLOADS["model_zoo"].study["models"]]
    if sorted(acc) != sorted(expected):
        return [f"models {sorted(acc)} != {sorted(expected)}"]
    problems = []
    folds = {}
    for r in _table(os.path.join(d, "model_comparison_folds.csv")):
        folds[r["model"]] = folds.get(r["model"], 0) + 1
    k = WORKLOADS["model_zoo"].study["cv"]["k"]
    for name in expected:
        if folds.get(name) != k:
            problems.append(f"{name} has {folds.get(name)} fold rows, not {k}")
    for name in ("elastic_net", "lda", "svm_rbf"):
        if acc[name] < NEAR_PERFECT:
            problems.append(f"{name} accuracy {acc[name]:.3f} < {NEAR_PERFECT}")
    with open(os.path.join(d, "config_echo.json"), encoding="utf-8") as f:
        echo = json.load(f)
    for m in echo["models"]:
        if m["variant"] in ("ffn", "cnn") and \
                m["train"]["patience"] < m["train"]["max_epochs"]:
            problems.append(f"{m['name']} may stop before its epoch budget")
    return problems


def check_ablation(out: str, corpus: str) -> list[str]:
    rows = _table(os.path.join(out, "ablation", "ablation.csv"))
    order = tuple(r["configuration"] for r in rows)
    if order != ABLATION_ORDER:
        return [f"configurations {order} != {ABLATION_ORDER}"]
    acc = _accuracy(rows, "configuration")
    gap = abs(acc["no_beta_filter"] - acc["full_model"])
    if gap > BETA_FILTER_TOLERANCE:
        return [f"no_beta_filter differs from full_model by {gap:.3f}"]
    return []


def _align_delay(out: str) -> float:
    with open(os.path.join(out, "align", "align.json"), encoding="utf-8") as f:
        return json.load(f)["delay"]


def _event_counts(path: str) -> dict:
    counts = {}
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            label = line.rstrip("\n").split("\t")[2]
            counts[label] = counts.get(label, 0) + 1
    return counts


def check_align(out: str, corpus: str) -> list[str]:
    delay = _align_delay(out)
    # the MISC copy lags the audio, which align reports as a negative delay
    if abs(delay + PLANTED_LAG_S) > 1.0 / FS:
        return [f"delay {delay} is not -{PLANTED_LAG_S} s within one sample"]
    return []


def check_preprocess(out: str, corpus: str) -> list[str]:
    problems = []
    for r in WORKLOADS["corpus_prep"].recordings:
        stem = f"{r['subject_id']}_{r['task']}_preprocessed"
        with open(os.path.join(out, "preprocess", stem + ".nrd.json"),
                  encoding="utf-8") as f:
            h = json.load(f)
        got = (h["sample_rate"], len(h["channels"]), h["n_samples"])
        want = (FS / DECIMATION, r["n_channels"] + r["n_magnetometers"],
                math.ceil(round(r["duration"] * FS) / DECIMATION))
        if got != want:
            problems.append(f"{stem}: (rate, channels, samples) {got} != {want}")
    return problems


def check_report(out: str, corpus: str) -> list[str]:
    recordings = WORKLOADS["corpus_prep"].recordings
    totals = {}
    for r in recordings:
        path = os.path.join(corpus, f"{r['subject_id']}_{r['task']}.events.tsv")
        for label, c in _event_counts(path).items():
            totals[label] = totals.get(label, 0) + c
    expected = {lab: c / len(recordings) for lab, c in totals.items()}
    got = {r["label"]: float(r["count"]) for r in
           _table(os.path.join(out, "report", "phone_counts.csv"))}
    if got != expected:
        return [f"phone counts {got} != {expected}"]
    return []


# workload -> {step output name: check(out dir, corpus dir)}
CHECKS = {
    "band_sweep": {"sweep": check_band_sweep},
    "model_zoo": {"models": check_model_zoo},
    "ablation_jobs2": {"ablation": check_ablation},
    "corpus_prep": {"align": check_align, "preprocess": check_preprocess,
                    "report": check_report},
}


def check(wl: Workload, out: str, corpus: str) -> dict:
    """Problems keyed by step output name.  A missing or unreadable output
    is a problem of the step that should have written it."""
    problems = {}
    for step, fn in CHECKS[wl.name].items():
        try:
            problems[step] = fn(out, corpus)
        except (OSError, KeyError, ValueError, StopIteration,
                IndexError) as exc:
            problems[step] = [f"unreadable output: {exc!r}"]
    return problems


def planted_acc(wl: Workload, out: str) -> float:
    """Accuracy on the configuration that carries the planted signal.

    corpus_prep trains no model; its planted quantity is the audio lag, and
    its accuracy is 1 - |estimated - planted| / planted."""
    if wl.name == "corpus_prep":
        return 1.0 - abs(-_align_delay(out) - PLANTED_LAG_S) / PLANTED_LAG_S
    if wl.name == "band_sweep":
        rows = _table(os.path.join(out, "sweep", "band_sweep.csv"))
        return _accuracy(rows, "configuration")["Theta"]
    if wl.name == "ablation_jobs2":
        rows = _table(os.path.join(out, "ablation", "ablation.csv"))
        return _accuracy(rows, "configuration")["full_model"]
    rows = _table(os.path.join(out, "models", "model_comparison.csv"))
    acc = _accuracy(rows, "model")
    return sum(acc.values()) / len(acc)
