"""JSON experiment-config parsing and echoing."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, replace

from .dataio import write_json
from .models import ModelSpec, TrainConfig
from .pipeline import CvConfig, EpochWindow, PreprocessingToggles
from .studies import ExperimentConfig


class ConfigError(ValueError):
    pass


def _model_name(doc: dict) -> str:
    if "name" in doc:
        return doc["name"]
    variant = doc["variant"]
    if variant == "ffn":
        return f"ffn_l{len(doc.get('hidden_sizes', ())) + 1}"
    return variant


def parse_model(doc: dict) -> tuple[str, ModelSpec]:
    doc = dict(doc)
    name = _model_name(doc)
    doc.pop("name", None)
    train_doc = doc.pop("train", {})
    try:
        spec = ModelSpec(train=TrainConfig(**train_doc), **doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model spec {name!r}: {exc}") from exc
    return name, spec


def nonempty_list(doc, key: str, kind: type, what: str) -> list:
    """``doc[key]``, checked to be a nonempty list of ``kind`` (``what`` in
    the message); ``doc`` may be any JSON value."""
    items = doc.get(key) if isinstance(doc, dict) else None
    if not (isinstance(items, list) and items
            and all(isinstance(x, kind) for x in items)):
        raise ConfigError(f"{key!r} must be a nonempty list of {what}")
    return items


def parse_experiment(doc: dict, base_dir: str = ".", seed: int | None = None,
                     jobs: int = 1) -> ExperimentConfig:
    manifests = tuple(os.path.join(base_dir, p)
                      for p in nonempty_list(doc, "manifests", str, "paths"))
    # a study config has the keys of its echo and no others
    unknown = set(doc) - set(echo_experiment(ExperimentConfig((), ())))
    if unknown:
        raise ConfigError(f"unknown study keys {sorted(unknown)}")
    try:
        models = tuple(parse_model(m) for m in doc.get(
            "models", [{"variant": "elastic_net"}]))
        if not models:
            raise ConfigError("at least one model is required")
        if len({n for n, _ in models if isinstance(n, str)}) < len(models):
            raise ConfigError("model names must be distinct strings")
        cv = CvConfig(**doc.get("cv", {}))
        if seed is not None:
            cv = replace(cv, seed=seed)
        return ExperimentConfig(
            manifests=manifests,
            models=models,
            preprocessing=PreprocessingToggles(**doc.get("preprocessing", {})),
            cv=cv,
            window=EpochWindow(**doc.get("epoch_window", {})),
            jobs=jobs,
            **{k: doc[k] for k in ("phone_pairs", "min_count") if k in doc},
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc


def echo_experiment(cfg: ExperimentConfig) -> dict:
    """Fully resolved config; re-parsing it reproduces the run.

    Every field of the nested dataclasses is echoed as it is declared."""
    return {
        "manifests": list(cfg.manifests),
        "models": [{"name": name, **asdict(spec)} for name, spec in cfg.models],
        "phone_pairs": (cfg.phone_pairs if cfg.phone_pairs == "auto"
                        else [list(p) for p in cfg.phone_pairs]),
        "preprocessing": asdict(cfg.preprocessing),
        "cv": asdict(cfg.cv),
        "min_count": cfg.min_count,
        "epoch_window": asdict(cfg.window),
    }


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def write_echo(cfg: ExperimentConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config_echo.json")
    write_json(path, echo_experiment(cfg))
    return path
