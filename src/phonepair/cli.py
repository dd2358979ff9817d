"""Command-line orchestration.

Subcommands: synth, align, preprocess, run-models, run-tasks, sweep-bands,
ablate, report.  Exit codes: 0 success, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dataio, synth as synthmod
from .align import AlignError, align
from .config import (ConfigError, load_json, manifest_paths, parse_experiment,
                     write_echo)
from .dataio import DataError
from .dsp import DspError
from .epochs import EpochError
from .evaluation import EvalError
from .models import ConvergenceError, ModelError
from .pipeline import PipelineError, PreprocessingToggles, preprocess
from .report import (ReportError, write_inventory_csv, write_reports)
from .studies import (run_ablation, run_band_sweep, run_model_comparison,
                      run_task_comparison)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _cmd_synth(args) -> int:
    doc = load_json(args.config)
    recordings = doc.get("recordings")
    if not recordings:
        raise ConfigError("synth config needs a nonempty 'recordings' list")
    os.makedirs(args.out, exist_ok=True)
    manifest_paths = []
    for i, rdoc in enumerate(recordings):
        rdoc = dict(rdoc)
        subject = rdoc.pop("subject_id", f"s{i + 1:02d}")
        task = rdoc.pop("task", "production")
        if args.seed is not None:
            rdoc["seed"] = args.seed + i
        try:
            spec = synthmod.SynthSpec(**rdoc)
        except TypeError as exc:
            raise ConfigError(f"bad synth spec #{i}: {exc}") from exc
        rec, events = synthmod.generate(spec)
        stem = f"{subject}_{task}"
        rec_path = os.path.join(args.out, stem + ".nrd")
        ev_path = os.path.join(args.out, stem + ".events.tsv")
        dataio.save_recording(rec, rec_path)
        dataio.save_events(events, ev_path)
        man = dataio.Manifest(
            subject_id=subject, task=task,
            recording_path=rec_path, events_path=ev_path,
            sample_rate=spec.fs,
        )
        man_path = os.path.join(args.out, stem + ".manifest.json")
        dataio.save_manifest(man, man_path)
        manifest_paths.append(man_path)
    with open(os.path.join(args.out, "corpus.json"), "w", encoding="utf-8") as f:
        json.dump({"manifests": manifest_paths}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(manifest_paths)} recordings to {args.out}")
    return EXIT_OK


def _load_single_channel(path: str) -> tuple[np.ndarray, float]:
    rec = dataio.load_recording(path)
    return rec.data[0], rec.sample_rate


def _cmd_align(args) -> int:
    doc = load_json(args.config)
    try:
        misc_path, audio_path = doc["misc"], doc["audio"]
        window = float(doc.get("window", 2.0))
    except KeyError as exc:
        raise ConfigError(f"align config missing key: {exc}") from exc
    misc, fs_m = _load_single_channel(misc_path)
    audio, fs_a = _load_single_channel(audio_path)
    if fs_m != fs_a:
        raise DataError("misc and audio must share a sampling rate")
    result = align(misc, audio, fs_m, window)
    out_doc = {
        "delay": result.delay,
        "peak_correlation": result.peak_correlation,
        "low_confidence": result.low_confidence,
        "iterations": [
            {"delay_window": w, "band_hi": b, "delay_estimate": d}
            for w, b, d in result.iterations
        ],
    }
    text = json.dumps(out_doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "align.json"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    doc = load_json(args.config)
    manifests = manifest_paths(doc)
    try:
        toggles = PreprocessingToggles(**doc.get("preprocessing", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid preprocess config: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    out_manifests = []
    for path in manifests:
        man = dataio.load_manifest(path)
        rec = dataio.load_recording(man.recording_path)
        out = preprocess(rec, toggles)
        stem = f"{man.subject_id}_{man.task}_preprocessed"
        rec_path = os.path.join(args.out, stem + ".nrd")
        dataio.save_recording(out, rec_path)
        ev_path = os.path.join(args.out, stem + ".events.tsv")
        dataio.save_events(dataio.load_events(man.events_path), ev_path)
        new_man = dataio.Manifest(
            subject_id=man.subject_id, task=man.task,
            recording_path=rec_path, events_path=ev_path,
            sample_rate=out.sample_rate,
        )
        man_path = os.path.join(args.out, stem + ".manifest.json")
        dataio.save_manifest(new_man, man_path)
        out_manifests.append(man_path)
    with open(os.path.join(args.out, "corpus.json"), "w", encoding="utf-8") as f:
        json.dump({"manifests": out_manifests}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"preprocessed {len(out_manifests)} recordings into {args.out}")
    return EXIT_OK


def _run_study(args, study, stem: str, pair_matrix: bool = False) -> int:
    doc = load_json(args.config)
    cfg = parse_experiment(doc, base_dir=os.path.dirname(
        os.path.abspath(args.config)), seed=args.seed, jobs=args.jobs)
    table, fold_rows = study(cfg)
    write_echo(cfg, args.out)
    written = write_reports(table, args.out, stem, fold_rows=fold_rows,
                            pair_matrix=pair_matrix)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    manifests = manifest_paths(load_json(args.config))
    totals: dict = {}
    for path in manifests:
        man = dataio.load_manifest(path)
        events = dataio.load_events(man.events_path)
        for label in events.labels():
            totals[label] = totals.get(label, 0) + 1
    if not totals:
        raise ReportError("no events found; refusing to write an empty report")
    counts = {lab: c / len(manifests) for lab, c in totals.items()}
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "phone_counts.csv")
    write_inventory_csv(counts, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonepair",
        description="Pairwise phone decoding pipeline and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.set_defaults(func=func)
        return p

    add("synth", _cmd_synth, "generate a synthetic corpus")
    add("align", _cmd_align, "estimate audio/MISC delay")
    add("preprocess", _cmd_preprocess, "apply the preprocessing chain")
    add("run-models", lambda a: _run_study(a, run_model_comparison,
                                           "model_comparison", pair_matrix=True),
        "compare classifier families on production data")
    add("run-tasks", lambda a: _run_study(a, run_task_comparison,
                                          "task_comparison"),
        "compare decoding across modalities")
    add("sweep-bands", lambda a: _run_study(a, run_band_sweep, "band_sweep"),
        "decoding accuracy per frequency band")
    add("ablate", lambda a: _run_study(a, run_ablation, "ablation"),
        "single-component preprocessing ablation")
    add("report", _cmd_report, "emit the phone inventory as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, PipelineError, EpochError, AlignError, DspError,
            EvalError, ModelError, ReportError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
