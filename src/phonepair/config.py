"""JSON experiment-config parsing and echoing.  Each config dataclass is
its own schema: its field names are the JSON keys."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass, replace
from typing import get_type_hints

from .dataio import ConfigError, write_json
from .models import ModelSpec
from .studies import ExperimentConfig


def build(cls, doc):
    """``cls(**doc)``, each field whose type is a dataclass built from its
    own object first.  A ``doc`` that is not an object is a ConfigError;
    an unknown or missing key is the TypeError of ``cls``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} must be an object, not {doc!r}")
    types = get_type_hints(cls)
    return cls(**{k: build(types[k], v) if is_dataclass(types.get(k)) else v
                  for k, v in doc.items()})


def nonempty_list(doc, key: str, kind: type, what: str) -> list:
    """``doc[key]``, checked to be a nonempty list of ``kind`` (``what`` in
    the message); ``doc`` may be any JSON value."""
    items = doc.get(key) if isinstance(doc, dict) else None
    if not (isinstance(items, list) and items
            and all(isinstance(x, kind) for x in items)):
        raise ConfigError(f"{key!r} must be a nonempty list of {what}")
    return items


def _model(doc: dict) -> ModelSpec:
    try:
        return build(ModelSpec, doc)
    except (TypeError, ValueError) as exc:
        name = doc.get("name", doc.get("variant"))
        raise ConfigError(f"bad model spec {name!r}: {exc}") from exc


def parse_experiment(doc: dict, base_dir: str = ".", seed: int | None = None,
                     jobs: int = 1) -> ExperimentConfig:
    manifests = tuple(os.path.join(base_dir, p)
                      for p in nonempty_list(doc, "manifests", str, "paths"))
    # a study config has the keys of its echo and no others
    unknown = set(doc) - set(echo_experiment(ExperimentConfig((), ())))
    if unknown:
        raise ConfigError(f"unknown study keys {sorted(unknown)}")
    models = nonempty_list({"models": [{"variant": "elastic_net"}], **doc},
                           "models", dict, "objects")
    try:
        cfg = build(ExperimentConfig, {**doc, "manifests": manifests,
                                       "models": tuple(map(_model, models)),
                                       "jobs": jobs})
    except TypeError as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc
    return cfg if seed is None else replace(cfg, cv=replace(cfg.cv, seed=seed))


def echo_experiment(cfg: ExperimentConfig) -> dict:
    """Fully resolved config, every field of every dataclass in it but
    ``jobs``, as JSON reads it back (tuples are lists); re-parsing it
    reproduces the run."""
    doc = json.loads(json.dumps(asdict(cfg)))
    del doc["jobs"]
    return doc


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def write_echo(cfg: ExperimentConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config_echo.json")
    write_json(path, echo_experiment(cfg))
    return path
