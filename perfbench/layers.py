"""The functions a traced run wraps, the counts read at each boundary, and
the per-layer metrics computed from the merged spans.

Layers are the ``phonepair`` modules.  A metric ending in ``_s`` is self
time in seconds (span duration minus the spans nested in it), summed over
calls; ``_incl_s`` is the same with nested spans included.  Counts come
from arguments and return values, never from inside the library.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

from tracer import self_times

EN_MAX_ITER = 10000  # models.EN_MAX_ITER; a fit that used them all is unconverged


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read(args, kwargs, rec):
    return {"mb": rec.data.nbytes / 1e6}


def _write(args, kwargs, _):
    return {"mb": _arg(args, kwargs, 0, "rec").data.size * 4 / 1e6}


def _filter(args, kwargs, out):
    x = _arg(args, kwargs, 1, "x")
    return {"mb": (x.size * 8 + out.nbytes) / 1e6}


def _epochs(args, kwargs, result):
    epochs, skipped = result
    return {"kept": len(epochs), "skipped": skipped}


def _pair(args, kwargs, ds):
    return {"mb": ds.X.nbytes / 1e6}


def _preprocess_input(args, kwargs, _):
    """Fingerprint of the (recording, toggles) input, so repeated work on the
    same input shows however many processes it was spread over."""
    rec = _arg(args, kwargs, 0, "rec")
    toggles = _arg(args, kwargs, 1, "toggles")
    step = max(1, rec.n_samples // 256)
    h = hashlib.blake2b(digest_size=12)
    h.update(repr((rec.sample_rate, rec.data.shape,
                   [c.name for c in rec.channels], toggles)).encode())
    h.update(rec.data[:, ::step].tobytes())
    return {"input": h.hexdigest()}


def _elastic_net(args, kwargs, model):
    w = model.params["w"]
    n_iter = model.meta["n_iter"]
    return {"iters": n_iter, "nnz": int((w != 0).sum()), "p": w.size,
            "unconverged": int(n_iter >= EN_MAX_ITER)}


def _neural(args, kwargs, model):
    spec = _arg(args, kwargs, 2, "spec")
    return {"epochs": len(model.training_log),
            "budget": spec.train.max_epochs}


def _svm(args, kwargs, model):
    return {"n_support": model.meta["n_support"]}


# (module, attribute) -> counter; the span is named "<module>.<last part>".
TARGETS = {
    ("config", "load_json"): None,
    ("config", "parse_experiment"): None,
    ("config", "write_echo"): None,
    ("dataio", "load_recording"): _read,
    ("dataio", "save_recording"): _write,
    ("dataio", "load_events"): None,
    ("dataio", "save_events"): None,
    ("dataio", "load_manifest"): None,
    ("dataio", "save_manifest"): None,
    ("dataio", "select_channels"): None,
    ("align", "align"): None,
    ("dsp", "apply_zero_phase"): _filter,
    ("dsp", "decimate"): None,
    ("dsp", "wavelet_denoise_recording"): None,
    ("dsp", "compute_zscore_stats"): None,
    ("dsp", "apply_zscore"): None,
    ("epochs", "extract_epochs"): _epochs,
    ("epochs", "build_pair_dataset"): _pair,
    ("epochs", "count_phones"): None,
    ("pipeline", "preprocess"): _preprocess_input,
    ("pipeline", "evaluate_recording"): None,
    ("pipeline", "compare_rows"): None,
    ("models", "train"): None,
    ("models", "train_elastic_net"): _elastic_net,
    ("models", "train_lda"): None,
    ("models", "train_svm_rbf"): _svm,
    ("models", "train_ffn"): _neural,
    ("models", "train_cnn"): _neural,
    ("models", "TrainedModel.predict_proba"): None,
    ("evaluation", "kfold"): None,
    ("evaluation", "evaluate"): None,
    ("evaluation", "metrics"): None,
    ("evaluation", "wilcoxon"): None,
    ("studies", "run_model_comparison"): None,
    ("studies", "run_task_comparison"): None,
    ("studies", "run_band_sweep"): None,
    ("studies", "run_ablation"): None,
    ("studies", "_eval_unit"): None,
    ("studies", "ProcessPoolExecutor"): None,
    ("report", "write_reports"): None,
    ("report", "write_inventory_csv"): None,
    ("synth", "generate"): None,
}

STUDY_RUNS = ("studies.run_model_comparison", "studies.run_task_comparison",
              "studies.run_band_sweep", "studies.run_ablation")
NEURAL = ("ffn", "cnn")
LAYERS = ("cli", "config", "dataio", "align", "dsp", "epochs", "pipeline",
          "models", "evaluation", "studies", "report", "synth")


def resolve_targets(modules: dict) -> dict:
    """{(owner object, attribute): (span name, counter)} for ``install``;
    ``modules`` maps short module names to imported ``phonepair`` modules."""
    out = {}
    for (mod, attr), counter in TARGETS.items():
        owner = modules[mod]
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[(owner, last)] = (f"{mod}.{last}", counter)
    return out


class SpanIndex:
    def __init__(self, spans: list[dict]):
        self.own = self_times(spans)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)

    def self_s(self, *names) -> float:
        return sum(self.own[s["id"]] for n in names for s in self.by_name[n])

    def incl_s(self, *names) -> float:
        return sum(s["end"] - s["start"] for n in names for s in self.by_name[n])

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def total(self, name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in self.by_name[name])

    def values(self, name, key) -> list:
        return [s["counts"][key] for s in self.by_name[name] if "counts" in s]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], setup_spans: list[dict], jobs: int,
                  traced_wall: float) -> dict:
    """Every per-layer metric for one traced command sequence.

    ``spans`` covers the sequence, rooted in one ``command`` span per
    process the benchmark started, and ``traced_wall`` is its wall time;
    ``setup_spans`` covers the corpus generation.
    """
    ix = SpanIndex(spans)
    m = {}
    busy_total = sum(ix.own.values())  # process-seconds, workers included
    m["cli.import_s"] = ix.incl_s("cli.import")

    m["dataio.load_recording_s"] = ix.self_s("dataio.load_recording")
    m["dataio.load_recording_calls"] = ix.calls("dataio.load_recording")
    m["dataio.read_mb"] = ix.total("dataio.load_recording", "mb")
    m["dataio.save_recording_s"] = ix.self_s("dataio.save_recording")
    m["dataio.write_mb"] = ix.total("dataio.save_recording", "mb")
    m["dataio.select_channels_s"] = ix.self_s("dataio.select_channels")

    m["align.align_s"] = ix.self_s("align.align")

    m["dsp.wavelet_s"] = ix.self_s("dsp.wavelet_denoise_recording")
    m["dsp.wavelet_calls"] = ix.calls("dsp.wavelet_denoise_recording")
    m["dsp.decimate_s"] = ix.self_s("dsp.decimate")
    m["dsp.decimate_incl_s"] = ix.incl_s("dsp.decimate")
    m["dsp.apply_zero_phase_s"] = ix.self_s("dsp.apply_zero_phase")
    m["dsp.apply_zero_phase_calls"] = ix.calls("dsp.apply_zero_phase")
    m["dsp.filter_mb"] = ix.total("dsp.apply_zero_phase", "mb")
    m["dsp.zscore_s"] = ix.self_s("dsp.compute_zscore_stats", "dsp.apply_zscore")

    m["epochs.extract_s"] = ix.self_s("epochs.extract_epochs")
    m["epochs.kept"] = ix.total("epochs.extract_epochs", "kept")
    m["epochs.skipped"] = ix.total("epochs.extract_epochs", "skipped")
    m["epochs.pair_build_s"] = ix.self_s("epochs.build_pair_dataset")
    m["epochs.pair_x_mb"] = ix.total("epochs.build_pair_dataset", "mb")

    calls = ix.calls("pipeline.preprocess")
    m["pipeline.preprocess_s"] = ix.self_s("pipeline.preprocess")
    m["pipeline.preprocess_incl_s"] = ix.incl_s("pipeline.preprocess")
    m["pipeline.preprocess_calls"] = calls
    m["pipeline.preprocess_useful_ratio"] = _ratio(
        len(set(ix.values("pipeline.preprocess", "input"))), calls)

    for variant in ("elastic_net", "lda", "svm_rbf", *NEURAL):
        m[f"models.{variant}.train_s"] = ix.self_s(f"models.train_{variant}")
    m["models.predict_s"] = ix.self_s("models.predict_proba")
    en_s = m["models.elastic_net.train_s"]
    iters = ix.total("models.train_elastic_net", "iters")
    m["models.elastic_net.fits"] = ix.calls("models.train_elastic_net")
    m["models.elastic_net.iters"] = iters
    m["models.elastic_net.s_per_iter"] = _ratio(en_s, iters)
    m["models.elastic_net.nnz_ratio"] = _ratio(
        ix.total("models.train_elastic_net", "nnz"),
        ix.total("models.train_elastic_net", "p"))
    m["models.elastic_net.unconverged"] = ix.total(
        "models.train_elastic_net", "unconverged")
    for variant in NEURAL:
        epochs = ix.total(f"models.train_{variant}", "epochs")
        m[f"models.{variant}.epochs"] = epochs
        m[f"models.{variant}.s_per_epoch"] = _ratio(
            m[f"models.{variant}.train_s"], epochs)
    m["models.svm_rbf.n_support"] = ix.total("models.train_svm_rbf", "n_support")

    m["evaluation.evaluate_self_s"] = ix.self_s("evaluation.evaluate")
    m["evaluation.metrics_s"] = ix.self_s("evaluation.metrics")
    m["evaluation.wilcoxon_s"] = ix.self_s("evaluation.wilcoxon")
    m["evaluation.wilcoxon_calls"] = ix.calls("evaluation.wilcoxon")

    study_wall = ix.incl_s(*STUDY_RUNS)
    busy = ix.incl_s("studies._eval_unit")
    m["studies.pool_starts"] = ix.calls("studies.ProcessPoolExecutor")
    m["studies.worker_busy_s"] = busy
    m["studies.worker_idle_ratio"] = (1.0 - busy / (jobs * study_wall)
                                      if study_wall else 0.0)

    m["report.write_s"] = ix.self_s("report.write_reports",
                                    "report.write_inventory_csv")
    m["synth.generate_s"] = SpanIndex(setup_spans).self_s("synth.generate")

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s["name"].split(".")[0]] += ix.own[s["id"]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    # shares of the work the CLI does once imported, all processes together
    work_s = busy_total - m["cli.import_s"] - layer_self["command"]
    neural_s = sum(m[f"models.{v}.train_s"] for v in NEURAL)
    m["share.elastic_net"] = _ratio(en_s, work_s)
    m["share.neural"] = _ratio(neural_s, work_s)
    m["share.dsp_dataio"] = _ratio(layer_self["dsp"] + layer_self["dataio"],
                                   work_s)
    # A started process's own time before its first span and after its last
    # is interpreter start-up and finalisation; whatever else no span
    # covers is unattributed.
    python_s = 0.0
    for root in ix.by_name["command"]:
        kids = [s for s in spans if s["parent"] == root["id"]]
        if kids:
            python_s += (min(k["start"] for k in kids) - root["start"]
                         + root["end"] - max(k["end"] for k in kids))
    m["python.start_exit_s"] = python_s
    m["trace.unattributed_ratio"] = _ratio(layer_self["command"] - python_s,
                                           traced_wall)
    return m


def neural_budget_failures(spans: list[dict]) -> list[str]:
    """Neural fits that stopped before their epoch budget."""
    ix = SpanIndex(spans)
    bad = []
    for variant in NEURAL:
        for s in ix.by_name[f"models.train_{variant}"]:
            c = s.get("counts", {})
            if c.get("epochs") != c.get("budget"):
                bad.append(f"{variant} fit ran {c.get('epochs')} of "
                           f"{c.get('budget')} epochs")
    return bad
