"""The four experiment harnesses: model comparison, task comparison,
frequency-band sweep, and the preprocessing ablation."""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations

from . import dataio, dsp, pipeline
from .models import ModelSpec
from .pipeline import (PAIRING_KEY, CvConfig, EpochWindow, PipelineError,
                       PreprocessingToggles, compare_rows, sort_rows,
                       summarize)
from .report import ResultTable

CHANCE_LEVEL = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    manifests: tuple
    models: tuple                     # ((name, ModelSpec), ...)
    phone_pairs: object = "auto"
    preprocessing: PreprocessingToggles = PreprocessingToggles()
    cv: CvConfig = CvConfig()
    min_count: int = 50
    window: EpochWindow = EpochWindow()
    jobs: int = 1


def _eval_unit(args):
    """Load one recording, preprocess it once, then evaluate the runs of
    each band-pass (None = unfiltered) on it."""
    manifest_path, toggles, passes, cv, pairs, min_count, window = args
    manifest = dataio.load_manifest(manifest_path)
    # no name holds the raw recording, so it is freed once channels are picked
    rec = pipeline.preprocess(
        dataio.load_recording(manifest.recording_path), toggles)
    events = dataio.load_events(manifest.events_path)
    rows = []
    for band_pass, runs in passes:
        filtered = rec
        if band_pass is not None:
            filt = dsp.design_fir(band_pass[0], band_pass[1], rec.sample_rate)
            filtered = rec.with_data(dsp.apply_zero_phase(filt, rec.data))
        rows += pipeline.evaluate_recording(
            filtered, events, subject=manifest.subject_id,
            task=manifest.task, runs=runs, cv=cv, phone_pairs=pairs,
            min_count=min_count, window=window)
    return rows


def _run_plan(cfg: ExperimentConfig, plan: list) -> list[dict]:
    """Sorted rows of a plan of (manifest, toggles, band_pass,
    configuration, name, spec) entries.  Each distinct (manifest, toggles)
    is one unit, in plan order, and all units share one process pool."""
    grouped = {}
    for manifest, toggles, band_pass, *run in plan:
        passes = grouped.setdefault((manifest, toggles), {})
        passes.setdefault(band_pass, []).append(tuple(run))
    units = [(manifest, toggles, tuple(passes.items()), cfg.cv,
              cfg.phone_pairs, cfg.min_count, cfg.window)
             for (manifest, toggles), passes in grouped.items()]
    jobs = min(cfg.jobs, len(units))
    if jobs <= 1:
        results = map(_eval_unit, units)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_eval_unit, units))
    return sort_rows([r for chunk in results for r in chunk])


def _manifests_by_task(cfg: ExperimentConfig) -> dict:
    groups = {}
    for path in cfg.manifests:
        m = dataio.load_manifest(path)
        groups.setdefault(m.task, []).append(path)
    return groups


def _comparison(label, rows_a, rows_b, key=PAIRING_KEY):
    res = compare_rows(rows_a, rows_b, key=key)
    if res is None:
        return {"label": label, "W": None, "p": None, "method": None}
    return {"label": label, "W": res.W, "p": res.p, "method": res.method}


def run_model_comparison(cfg: ExperimentConfig):
    """Every configured model on production recordings, full preprocessing;
    Wilcoxon of each model against the best one."""
    by_task = _manifests_by_task(cfg)
    prod = by_task.get("production")
    if not prod:
        raise PipelineError("model comparison requires production-task manifests")
    rows = _run_plan(cfg, [(m, cfg.preprocessing, None, "baseline", *model)
                           for m in prod for model in cfg.models])

    by_model = {name: [r for r in rows if r["model"] == name]
                for name, _ in cfg.models}
    stats = {name: summarize(mr) for name, mr in by_model.items()}
    best = max(stats, key=lambda n: stats[n]["accuracy_mean"])

    table = ResultTable(title="Model comparison (production)")
    for name, _ in cfg.models:
        row = {"modality": "production", "model": name,
               "configuration": "baseline", **stats[name]}
        if len(cfg.models) > 1 and name != best:
            comp = _comparison(f"{name} vs {best}", by_model[name], by_model[best])
            table.comparisons.append(comp)
            row["W"], row["p"] = comp["W"], comp["p"]
        table.rows.append(row)
    return table, rows


def _primary_model(cfg: ExperimentConfig):
    for name, spec in cfg.models:
        if spec.variant == "elastic_net":
            return name, spec
    return "elastic_net", ModelSpec("elastic_net")


def run_task_comparison(cfg: ExperimentConfig):
    """Elastic net per modality with identical preprocessing; Wilcoxon
    between modalities and against chance."""
    by_task = _manifests_by_task(cfg)
    if len(by_task) < 2:
        raise PipelineError("need two modalities to compare")
    model = _primary_model(cfg)
    tasks = sorted(by_task)
    rows = _run_plan(cfg, [(m, cfg.preprocessing, None, "baseline", *model)
                           for task in tasks for m in by_task[task]])
    by_modality = {task: [r for r in rows if r["task"] == task]
                   for task in tasks}

    table = ResultTable(title="Task comparison (elastic net)")
    for task in tasks:
        table.rows.append({"modality": task, "model": model[0],
                           "configuration": "baseline",
                           **summarize(by_modality[task])})
    for a, b in combinations(tasks, 2):
        # the same subject, pair and fold observed in both modalities
        table.comparisons.append(_comparison(
            f"{a} vs {b}", by_modality[a], by_modality[b],
            key=("subject", "pair", "fold")))
    for task in tasks:
        chance = [dict(r, accuracy=CHANCE_LEVEL) for r in by_modality[task]]
        table.comparisons.append(_comparison(
            f"{task} vs chance", by_modality[task], chance))
    return table, rows


def run_band_sweep(cfg: ExperimentConfig):
    """Per canonical band: band-pass at the native rate (no decimation or
    wavelet denoising), epoch, elastic net; plus an unfiltered baseline."""
    by_task = _manifests_by_task(cfg)
    model = _primary_model(cfg)
    minimal = PreprocessingToggles(
        sensor_kinds=cfg.preprocessing.sensor_kinds,
        wavelet=False, decimation_factor=1, band_limit=None,
    )
    plan, kept = [], []
    configs = [("unfiltered", None)]
    configs += [(band, dsp.BANDS[band]) for band in dsp.BAND_ORDER]
    for task in sorted(by_task):
        mans = by_task[task]
        fs = dataio.load_manifest(mans[0]).sample_rate
        for conf_name, band_pass in configs:
            if band_pass is not None:
                # skip bands whose upper transition exceeds Nyquist
                try:
                    dsp.design_fir(band_pass[0], band_pass[1], fs)
                except dsp.DspError as exc:
                    print(f"warning: skipping band {conf_name} for task "
                          f"{task}: {exc}", file=sys.stderr)
                    continue
            kept.append((task, conf_name))
            plan += [(m, minimal, band_pass, conf_name, *model) for m in mans]
    rows = _run_plan(cfg, plan)

    table = ResultTable(title="Frequency-band sweep (elastic net)")
    for task, conf_name in kept:
        conf_rows = [r for r in rows if r["task"] == task
                     and r["configuration"] == conf_name]
        table.rows.append({"modality": task, "model": model[0],
                           "configuration": conf_name,
                           **summarize(conf_rows)})
    return table, rows


ABLATION_BASELINE = "full_model"


def ablation_configurations(base_toggles: PreprocessingToggles, base_spec: ModelSpec):
    """The baseline plus its seven single-component removals."""
    return [
        (ABLATION_BASELINE, base_toggles, base_spec),
        ("magnetometers_only",
         replace(base_toggles, sensor_kinds=("magnetometer",)), base_spec),
        ("magnetometers_and_gradiometers",
         replace(base_toggles, sensor_kinds=("gradiometer", "magnetometer")),
         base_spec),
        ("no_wavelet", replace(base_toggles, wavelet=False), base_spec),
        ("no_decimation", replace(base_toggles, decimation_factor=1), base_spec),
        ("no_l1_ridge", base_toggles, replace(base_spec, l1_ratio=0.0)),
        ("no_l2_lasso", base_toggles, replace(base_spec, l1_ratio=1.0)),
        ("no_beta_filter", replace(base_toggles, band_limit=None), base_spec),
    ]


def run_ablation(cfg: ExperimentConfig):
    """One row per single-component removal, Wilcoxon against the baseline."""
    by_task = _manifests_by_task(cfg)
    prod = by_task.get("production")
    if not prod:
        raise PipelineError("ablation requires production-task manifests")
    name, spec = _primary_model(cfg)
    configs = ablation_configurations(cfg.preprocessing, spec)
    rows = _run_plan(cfg, [(m, toggles, None, conf_name, name, conf_spec)
                           for conf_name, toggles, conf_spec in configs
                           for m in prod])
    per_config = {conf_name: [r for r in rows
                              if r["configuration"] == conf_name]
                  for conf_name, _, _ in configs}

    table = ResultTable(title="Ablation (production, elastic net)")
    base_rows = per_config[ABLATION_BASELINE]
    for conf_name in per_config:
        row = {"modality": "production", "model": name,
               "configuration": conf_name, **summarize(per_config[conf_name])}
        if conf_name != ABLATION_BASELINE:
            comp = _comparison(f"{conf_name} vs {ABLATION_BASELINE}",
                               per_config[conf_name], base_rows)
            table.comparisons.append(comp)
            row["W"], row["p"] = comp["W"], comp["p"]
        table.rows.append(row)
    return table, rows
