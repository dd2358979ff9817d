"""JSON experiment-config parsing and echoing."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, replace

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


def parse_experiment(doc: dict, base_dir: str = ".", seed: int | None = None,
                     jobs: int = 1) -> ExperimentConfig:
    try:
        manifests = doc["manifests"]
        if not (isinstance(manifests, list)
                and all(isinstance(p, str) for p in manifests)):
            raise ConfigError("'manifests' must be a list of paths")
        manifests = tuple(
            p if os.path.isabs(p) else os.path.join(base_dir, p)
            for p in manifests
        )
        if not manifests:
            raise ConfigError("at least one manifest is required")
        models = tuple(parse_model(m) for m in doc.get(
            "models", [{"variant": "elastic_net"}]))
        if not models:
            raise ConfigError("at least one model is required")
        pre = PreprocessingToggles(**doc.get("preprocessing", {}))
        cv = CvConfig(**doc.get("cv", {}))
        window = EpochWindow(**doc.get("epoch_window", {}))
        phone_pairs = doc.get("phone_pairs", "auto")
        if phone_pairs != "auto":
            phone_pairs = tuple(tuple(p) for p in phone_pairs)
        min_count = int(doc.get("min_count", 50))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc
    if seed is not None:
        cv = replace(cv, seed=seed)
    return ExperimentConfig(
        manifests=manifests,
        models=models,
        phone_pairs=phone_pairs,
        preprocessing=pre,
        cv=cv,
        min_count=min_count,
        window=window,
        jobs=jobs,
    )


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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(echo_experiment(cfg), f, indent=2, sort_keys=True)
        f.write("\n")
    return path
