"""Command-line orchestration.

Subcommands: synth, align, preprocess, run-models, run-tasks, sweep-bands,
ablate, report.  An error's class is its exit code, and its message is one
line on stderr: 2 for ``dataio.ConfigError``, a malformed config (argparse
also exits 2 on a flag the subcommand does not take); 3 for
``dataio.DataError`` or ``OSError``, malformed recordings, events or
manifests or anything computed from them; 4 for ``models.ConvergenceError``
or ``FloatingPointError``, a solver that did not converge.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from . import dataio, synth as synthmod
from .align import align
from .config import load_json, nonempty_list, parse_experiment, write_echo
from .dataio import ConfigError, DataError, check_field
from .models import ConvergenceError
from .pipeline import PreprocessingToggles, preprocess
from .report import write_inventory_csv, write_reports
from .studies import (run_ablation, run_band_sweep, run_model_comparison,
                      run_task_comparison)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _write_corpus(out_dir: str, sessions, suffix: str = "") -> int:
    """Save each (subject, task, recording, events) with its manifest as
    ``<subject>_<task><suffix>``, then ``corpus.json``; returns the count."""
    os.makedirs(out_dir, exist_ok=True)
    manifests = []
    for subject, task, rec, events in sessions:
        stem = os.path.join(out_dir, f"{subject}_{task}{suffix}")
        dataio.save_recording(rec, stem + ".nrd")
        dataio.save_events(events, stem + ".events.tsv")
        dataio.save_manifest(dataio.Manifest(
            subject, task, stem + ".nrd", stem + ".events.tsv",
            rec.sample_rate), stem + ".manifest.json")
        manifests.append(stem + ".manifest.json")
    dataio.write_json(os.path.join(out_dir, "corpus.json"),
                      {"manifests": manifests})
    return len(manifests)


def _cmd_synth(args) -> int:
    recordings = nonempty_list(load_json(args.config), "recordings", dict,
                               "objects")

    def sessions():
        for i, rdoc in enumerate(recordings):
            rdoc = dict(rdoc)
            subject = rdoc.pop("subject_id", f"s{i + 1:02d}")
            task = rdoc.pop("task", "production")
            check_field("task", task, "str", {"choices": dataio.TASKS},
                        ConfigError)
            if args.seed is not None:
                rdoc["seed"] = args.seed + i
            try:
                rec, events = synthmod.generate(synthmod.SynthSpec(**rdoc))
            except (TypeError, ConfigError) as exc:
                raise ConfigError(f"bad synth spec #{i}: {exc}") from exc
            yield subject, task, rec, events

    n = _write_corpus(args.out, sessions())
    print(f"wrote {n} recordings to {args.out}")
    return EXIT_OK


def _cmd_align(args) -> int:
    doc = load_json(args.config)
    if not (isinstance(doc, dict) and isinstance(doc.get("misc"), str)
            and isinstance(doc.get("audio"), str)):
        raise ConfigError("align config needs 'misc' and 'audio' paths")
    window = doc.get("window", 2.0)
    check_field("window", window, "float", {"gt": 0}, ConfigError)
    misc, audio = (dataio.load_recording(doc[k]) for k in ("misc", "audio"))
    if misc.sample_rate != audio.sample_rate:
        raise DataError("misc and audio must share a sampling rate")
    result = align(misc.data[0], audio.data[0], misc.sample_rate,
                   float(window))
    out_doc = {
        "delay": result.delay,
        "peak_correlation": result.peak_correlation,
        "low_confidence": result.low_confidence,
        "iterations": [
            {"delay_window": w, "band_hi": b, "delay_estimate": d}
            for w, b, d in result.iterations
        ],
    }
    sys.stdout.write(dataio.json_text(out_doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        dataio.write_json(os.path.join(args.out, "align.json"), out_doc)
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    doc = load_json(args.config)
    manifests = nonempty_list(doc, "manifests", str, "paths")
    try:
        toggles = PreprocessingToggles(**doc.get("preprocessing", {}))
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"invalid preprocess config: {exc}") from exc
    # no name holds a raw recording while its output is written
    sessions = ((man.subject_id, man.task,
                 preprocess(dataio.load_recording(man.recording_path), toggles),
                 dataio.load_events(man.events_path))
                for man in map(dataio.load_manifest, manifests))
    n = _write_corpus(args.out, sessions, suffix="_preprocessed")
    print(f"preprocessed {n} recordings into {args.out}")
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
    manifests = nonempty_list(load_json(args.config), "manifests", str, "paths")
    totals = Counter()
    for path in manifests:
        man = dataio.load_manifest(path)
        totals.update(dataio.load_events(man.events_path).labels())
    if not totals:
        raise DataError("no events found; refusing to write an empty report")
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

    def add(name, func, help_text, flags=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None, help="seed override")
        if "jobs" in flags:
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.set_defaults(func=func)

    study = ("seed", "jobs")
    add("synth", _cmd_synth, "generate a synthetic corpus", ("seed",))
    add("align", _cmd_align, "estimate audio/MISC delay")
    add("preprocess", _cmd_preprocess, "apply the preprocessing chain")
    add("run-models", lambda a: _run_study(a, run_model_comparison,
                                           "model_comparison", pair_matrix=True),
        "compare classifier families on production data", study)
    add("run-tasks", lambda a: _run_study(a, run_task_comparison,
                                          "task_comparison"),
        "compare decoding across modalities", study)
    add("sweep-bands", lambda a: _run_study(a, run_band_sweep, "band_sweep"),
        "decoding accuracy per frequency band", study)
    add("ablate", lambda a: _run_study(a, run_ablation, "ablation"),
        "single-component preprocessing ablation", study)
    add("report", _cmd_report, "emit the phone inventory as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
