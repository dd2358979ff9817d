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
from .pipeline import (PAIRING_KEY, CvConfig, EpochWindow,
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
    jobs: int = field(default=1, metadata={"ge": 1})

    def __post_init__(self):
        dataio.check_numbers(self, ConfigError)
        if self.phone_pairs != "auto":
            # raises unless each entry is two distinct labels
            pipeline.resolve_pairs(self.phone_pairs, ())
            object.__setattr__(self, "phone_pairs",
                               tuple(map(tuple, self.phone_pairs)))


def _eval_unit(args):
    """Load one recording, preprocess it once, then evaluate the runs of
    each band-pass (None = unfiltered) on it."""
    manifest, toggles, passes, cv, pairs, min_count, window = args
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
    """The loaded manifests of each task; a study loads each one once."""
    groups = {}
    for path in cfg.manifests:
        m = dataio.load_manifest(path)
        groups.setdefault(m.task, []).append(m)
    return groups


def _comparison(label, rows_a, rows_b, key=PAIRING_KEY):
    res = compare_rows(rows_a, rows_b, key=key)
    if res is None:
        return {"label": label, "W": None, "p": None, "method": None}
    return {"label": label, "W": res.W, "p": res.p, "method": res.method}


def _groups(rows: list, keys) -> dict:
    """Rows by (task, configuration, model), one group per key of ``keys``
    and in that order, not in the order of the sorted rows."""
    groups = {key: [] for key in keys}
    for r in rows:
        groups[r["task"], r["configuration"], r["model"]].append(r)
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
            comp = _comparison(f"{a} vs {b}", rows, groups[versus])
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
    rows = _run_plan(cfg, [(m, cfg.preprocessing, None, "baseline", *model)
                           for m in prod for model in cfg.models])
    groups = _groups(rows, [("production", "baseline", name)
                            for name, _ in cfg.models])
    best = max(groups, key=lambda k: summarize(groups[k])["accuracy_mean"])
    return _table("Model comparison (production)", groups, versus=best), rows


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
        raise DataError("need two modalities to compare")
    model = _primary_model(cfg)
    tasks = sorted(by_task)
    rows = _run_plan(cfg, [(m, cfg.preprocessing, None, "baseline", *model)
                           for task in tasks for m in by_task[task]])
    groups = _groups(rows, [(task, "baseline", model[0]) for task in tasks])
    table = _table("Task comparison (elastic net)", groups)
    by_modality = dict(zip(tasks, groups.values()))
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
        fs = mans[0].sample_rate
        for conf_name, band_pass in configs:
            if band_pass is not None:
                # skip bands whose upper transition exceeds Nyquist
                try:
                    dsp.design_fir(band_pass[0], band_pass[1], fs)
                except DataError as exc:
                    print(f"warning: skipping band {conf_name} for task "
                          f"{task}: {exc}", file=sys.stderr)
                    continue
            kept.append((task, conf_name))
            plan += [(m, minimal, band_pass, conf_name, *model) for m in mans]
    rows = _run_plan(cfg, plan)
    groups = _groups(rows, [(task, conf_name, model[0])
                            for task, conf_name in kept])
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
    name, spec = _primary_model(cfg)
    configs = ablation_configurations(cfg.preprocessing, spec)
    rows = _run_plan(cfg, [(m, toggles, None, conf_name, name, conf_spec)
                           for conf_name, toggles, conf_spec in configs
                           for m in prod])
    groups = _groups(rows, [("production", conf_name, name)
                            for conf_name, _, _ in configs])
    return _table("Ablation (production, elastic net)", groups,
                  versus=("production", ABLATION_BASELINE, name)), rows
