"""Property test: every one-leaf mutation of a valid config, for every
subcommand, ends in exit code 0, 2, 3 or 4, and a failing run writes one
line to stderr.

All examples run in one child process, this file run as a script, under
an address-space limit.  A mutation that allocates without bound then
fails the test with a ``MemoryError`` instead of exhausting the machine.

Run as ``python tests/test_config_fuzz.py DIR --enumerate`` (``src`` on
``PYTHONPATH``), it instead runs every one-leaf case in a fixed order and
prints one JSON line per case: command, path, value, exit code and stderr,
with ``DIR`` masked.  Diffing that output between two checkouts shows
every exit code and message a config change moves."""

import contextlib
import copy
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile

import pytest

from phonepair import config
from phonepair.cli import main

AS_LIMIT = 2 * 2**30  # bytes of address space the child may map
HUGE = 10**30
BAD_VALUES = ("x", True, None, [], {}, float("nan"), float("inf"),
              float("-inf"), 0, -1, HUGE)
SLOW_SIZES = ("max_epochs",)  # HUGE is valid there and trains for minutes
JOBS = ("1", "2", "0", "-3")  # never more than 2 workers
STUDIES = ("run-models", "run-tasks", "sweep-bands", "ablate")
RECORDING = {"duration": 20, "phones": [["a", 12], ["e", 12]],
             "n_channels": 4, "n_magnetometers": 2, "fs": 1000.0, "snr": 2.5,
             "band": "Theta", "active_fraction": 0.5,
             "mag_signal_scale": 0.3, "seed": 0}
TINY_CNN = {"variant": "cnn", "filters_per_channel": 2,
            "train": {"max_epochs": 3, "patience": 3}}


def test_one_leaf_mutations(tmp_path):
    pytest.importorskip("hypothesis")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, __file__, str(tmp_path)],
                           env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def valid_configs(root: str) -> dict:
    """A tiny two-modality corpus under ``root`` and a config per
    subcommand that runs on it with exit 0, every field spelt out."""
    synth = {"recordings": [
        {"subject_id": "s01", "task": task, **RECORDING}
        for task in ("production", "listening")]}
    path = os.path.join(root, "synth.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(synth, f)
    corpus = os.path.join(root, "corpus")
    assert run(["synth", "--config", path, "--out", corpus])[0] == 0
    manifests = [os.path.join(corpus, f"s01_{task}.manifest.json")
                 for task in ("production", "listening")]
    study = config.echo_experiment(config.parse_experiment({
        "manifests": manifests, "models": [{"variant": "elastic_net"},
                                           TINY_CNN],
        "cv": {"k": 2}, "min_count": 10}))
    recording = os.path.join(corpus, "s01_production.nrd")
    return {
        "synth": synth,
        "align": {"misc": recording, "audio": recording, "window": 0.5},
        "preprocess": {"manifests": manifests,
                       "preprocessing": study["preprocessing"]},
        "report": {"manifests": manifests},
        **{command: study for command in STUDIES},
    }


def nodes(doc, path=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield path + (key,)
        yield from nodes(value, path + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def fuzz(root: str) -> None:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    configs = valid_configs(root)

    @st.composite
    def cases(draw):
        command = draw(st.sampled_from(sorted(configs)))
        path = draw(st.sampled_from(list(nodes(configs[command]))))
        value = draw(st.sampled_from([
            v for v in BAD_VALUES if v is not HUGE or path[-1] not in SLOW_SIZES]))
        jobs = draw(st.sampled_from(JOBS)) if command in STUDIES else None
        return command, path, value, jobs

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(cases())
    def one_leaf(case):
        code, err = run_case(root, configs, *case)
        assert code in (0, 2, 3, 4), (code, err)
        assert code == 0 or err.count("\n") == 1, err

    one_leaf()


def run_case(root, configs, command, path, value, jobs=None):
    """Exit code and stderr of ``command`` on its config with the value at
    ``path`` replaced by ``value``."""
    cfg = os.path.join(root, "config.json")
    with open(cfg, "w", encoding="utf-8") as f:
        json.dump(mutated(configs[command], path, value), f)
    out = tempfile.mkdtemp(dir=root)
    try:
        return run([command, "--config", cfg, "--out", out]
                   + (["--jobs", jobs] if jobs else []))
    finally:
        shutil.rmtree(out)


def enumerate_cases(root: str) -> None:
    """Print every (command, leaf, bad value) case as one JSON line."""
    configs = valid_configs(root)
    for command in sorted(configs):
        for path in nodes(configs[command]):
            for value in BAD_VALUES:
                if value is HUGE and path[-1] in SLOW_SIZES:
                    continue
                code, err = run_case(root, configs, command, path, value)
                print(json.dumps({"command": command, "path": path,
                                  "value": repr(value), "code": code,
                                  "stderr": err.replace(root, "DIR")}),
                      flush=True)


if __name__ == "__main__":
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (
        AS_LIMIT if hard == resource.RLIM_INFINITY else min(AS_LIMIT, hard),
        hard))
    if sys.argv[2:] == ["--enumerate"]:
        enumerate_cases(sys.argv[1])
    else:
        fuzz(sys.argv[1])
