"""The four experiment harnesses: model comparison, task comparison,
frequency-band sweep, and the preprocessing ablation."""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations

from . import dataio, dsp, pipeline
from .dataio import ConfigError, DataError
from .models import ModelSpec
from .pipeline import (CvConfig, EpochWindow, PreprocessingToggles,
                       compare_rows, sort_rows, summarize)
from .report import ResultTable

CHANCE_LEVEL = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    manifests: tuple
    models: tuple                     # of ModelSpec
    phone_pairs: object = "auto"
    preprocessing: PreprocessingToggles = PreprocessingToggles()
    cv: CvConfig = CvConfig()
    min_count: int = field(default=50, metadata={"ge": 1})
    epoch_window: EpochWindow = EpochWindow()
    jobs: int = field(default=1, metadata={"ge": 1})

    def __post_init__(self):
        names = {s.name for s in self.models if isinstance(s.name, str)}
        if len(names) < len(self.models):
            raise ConfigError("model names must be distinct strings")
        dataio.check_numbers(self, ConfigError)
        if self.phone_pairs != "auto":
            # raises unless each entry is two distinct labels
            pipeline.resolve_pairs(self.phone_pairs, ())
            object.__setattr__(self, "phone_pairs",
                               tuple(map(tuple, self.phone_pairs)))


def _eval_unit(args):
    """Evaluate the runs on one recording's epochs, preprocessed by
    ``toggles`` and band-passed by ``band_pass`` (None = unfiltered)."""
    cfg, manifest, toggles, band_pass, runs = args
    events = dataio.load_events(manifest.events_path)
    # cut a channel group at a time from disk; no name here holds the
    # epochs, so they go once the last pair's X is built
    return pipeline.evaluate_recording(
        pipeline.file_epochs(manifest.recording_path, toggles, band_pass,
                             events, cfg.epoch_window)[0],
        events, subject=manifest.subject_id, task=manifest.task, runs=runs,
        cv=cfg.cv, phone_pairs=cfg.phone_pairs, min_count=cfg.min_count)


def _run_plan(cfg: ExperimentConfig, plan: list) -> tuple[dict, list[dict]]:
    """Table groups and sorted rows of a plan of (manifest, toggles,
    band_pass, configuration, spec) entries.  Each distinct (manifest,
    toggles, band_pass) is one unit, in plan order, and all units share one
    process pool.  The groups are the rows of each (task, configuration,
    model), keyed in plan order."""
    runs = {}
    for manifest, toggles, band_pass, configuration, spec in plan:
        runs.setdefault((manifest, toggles, band_pass), []).append(
            (configuration, spec))
    units = [(cfg, *chain, chain_runs) for chain, chain_runs in runs.items()]
    jobs = min(cfg.jobs, len(units))
    if jobs <= 1:
        results = map(_eval_unit, units)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_eval_unit, units))
    rows = sort_rows([r for chunk in results for r in chunk])
    groups = {(m.task, configuration, spec.name): []
              for m, _, _, configuration, spec in plan}
    for r in rows:
        groups[r["task"], r["configuration"], r["model"]].append(r)
    return groups, rows


def _manifests_by_task(cfg: ExperimentConfig) -> dict:
    """The loaded manifests of each task; a study loads each one once."""
    groups = {}
    for path in cfg.manifests:
        m = dataio.load_manifest(path)
        groups.setdefault(m.task, []).append(m)
    return groups


def _table(title: str, groups: dict, versus=None) -> ResultTable:
    """One summary row per group.  With ``versus``, each other group gets
    the W and p of a test against it, labelled by the differing key field."""
    table = ResultTable(title=title)
    for key, rows in groups.items():
        task, configuration, model = key
        row = {"modality": task, "model": model,
               "configuration": configuration, **summarize(rows)}
        if versus is not None and key != versus:
            a, b = next((a, b) for a, b in zip(key, versus) if a != b)
            comp = compare_rows(f"{a} vs {b}", rows, groups[versus])
            table.comparisons.append(comp)
            row["W"], row["p"] = comp["W"], comp["p"]
        table.rows.append(row)
    return table


def run_model_comparison(cfg: ExperimentConfig):
    """Every configured model on production recordings, full preprocessing;
    Wilcoxon of each model against the best one."""
    by_task = _manifests_by_task(cfg)
    prod = by_task.get("production")
    if not prod:
        raise DataError("model comparison requires production-task manifests")
    groups, rows = _run_plan(cfg, [
        (m, cfg.preprocessing, None, "baseline", spec)
        for m in prod for spec in cfg.models])
    best = max(groups, key=lambda k: summarize(groups[k])["accuracy_mean"])
    return _table("Model comparison (production)", groups, versus=best), rows


def _primary_model(cfg: ExperimentConfig) -> ModelSpec:
    return next((spec for spec in cfg.models if spec.variant == "elastic_net"),
                ModelSpec("elastic_net"))


def run_task_comparison(cfg: ExperimentConfig):
    """Elastic net per modality with identical preprocessing; Wilcoxon
    between modalities and against chance."""
    by_task = _manifests_by_task(cfg)
    if len(by_task) < 2:
        raise DataError("need two modalities to compare")
    spec = _primary_model(cfg)
    tasks = sorted(by_task)
    groups, rows = _run_plan(cfg, [
        (m, cfg.preprocessing, None, "baseline", spec)
        for task in tasks for m in by_task[task]])
    table = _table("Task comparison (elastic net)", groups)
    by_modality = dict(zip(tasks, groups.values()))
    for a, b in combinations(tasks, 2):
        # the same subject, pair and fold observed in both modalities
        table.comparisons.append(compare_rows(
            f"{a} vs {b}", by_modality[a], by_modality[b]))
    for task in tasks:
        chance = [dict(r, accuracy=CHANCE_LEVEL) for r in by_modality[task]]
        table.comparisons.append(compare_rows(
            f"{task} vs chance", by_modality[task], chance))
    return table, rows


def run_band_sweep(cfg: ExperimentConfig):
    """Per canonical band: band-pass at the native rate (no decimation or
    wavelet denoising), epoch, elastic net; plus an unfiltered baseline."""
    by_task = _manifests_by_task(cfg)
    spec = _primary_model(cfg)
    minimal = replace(cfg.preprocessing, wavelet=False, decimation_factor=1,
                      band_limit=None)
    plan = []
    configs = [("unfiltered", None)]
    configs += [(band, dsp.BANDS[band]) for band in dsp.BAND_ORDER]
    for task in sorted(by_task):
        mans = by_task[task]
        # a band the task's lowest rate can take, every rate can take
        fs = min(m.sample_rate for m in mans)
        for conf_name, band_pass in configs:
            if band_pass is not None:
                # skip bands whose upper transition exceeds Nyquist
                try:
                    dsp.design_fir(band_pass[0], band_pass[1], fs)
                except DataError as exc:
                    print(f"warning: skipping band {conf_name} for task "
                          f"{task}: {exc}", file=sys.stderr)
                    continue
            plan += [(m, minimal, band_pass, conf_name, spec) for m in mans]
    groups, rows = _run_plan(cfg, plan)
    return _table("Frequency-band sweep (elastic net)", groups), rows


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
        raise DataError("ablation requires production-task manifests")
    spec = _primary_model(cfg)
    configs = ablation_configurations(cfg.preprocessing, spec)
    groups, rows = _run_plan(cfg, [(m, toggles, None, conf_name, conf_spec)
                                   for conf_name, toggles, conf_spec in configs
                                   for m in prod])
    return _table("Ablation (production, elastic net)", groups,
                  versus=("production", ABLATION_BASELINE, spec.name)), rows
