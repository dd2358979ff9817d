import os
import types

import pytest

import layers
import tracer as tracer_mod
from tracer import Tracer, install, load_spans, self_times


@pytest.fixture
def clock(monkeypatch):
    """perf_counter that returns the next scripted value."""
    ticks = []
    monkeypatch.setattr(tracer_mod, "time",
                        types.SimpleNamespace(perf_counter=lambda: ticks.pop(0)))
    return ticks


def test_nested_self_time(tmp_path, clock):
    t = Tracer(str(tmp_path))

    def inner():
        return 1

    def outer():
        return traced_inner() + traced_inner()

    traced_inner = t.wrap("toy.inner", inner)
    traced_outer = t.wrap("toy.outer", outer)
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]
    clock.extend([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    assert traced_outer() == 2
    own = self_times(t.spans)
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s["name"], []).append(own[s["id"]])
    assert by_name["toy.outer"] == [pytest.approx(6.0)]
    assert sorted(by_name["toy.inner"]) == [pytest.approx(1.0), pytest.approx(3.0)]
    assert sum(own.values()) == pytest.approx(10.0)


def test_failed_call_still_recorded(tmp_path):
    t = Tracer(str(tmp_path))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("toy.boom", boom)()
    assert t.spans[0]["failed"] and not t.stack


def test_worker_span_is_not_subtracted_from_its_parent():
    spans = [
        {"id": "1:0", "name": "study", "start": 0.0, "end": 10.0,
         "parent": None, "pid": 1, "worker": False},
        # forked worker ran beside the parent for 8 s
        {"id": "2:0", "name": "unit", "start": 1.0, "end": 9.0,
         "parent": "1:0", "pid": 2, "worker": True},
        {"id": "2:1", "name": "fit", "start": 2.0, "end": 7.0,
         "parent": "2:0", "pid": 2, "worker": True},
    ]
    own = self_times(spans)
    assert own == {"1:0": 10.0, "2:0": 3.0, "2:1": 5.0}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_worker_hands_back_its_spans(tmp_path):
    t = Tracer(str(tmp_path))

    def work():
        return 0

    traced_work = t.wrap("toy.work", work)

    def study():
        pid = os.fork()
        if pid == 0:
            traced_work()  # flushed when the worker's outermost span closes
            os._exit(0)
        os.waitpid(pid, 0)

    t.wrap("toy.study", study)()
    t.flush()
    spans = load_spans(str(tmp_path))
    study_span = next(s for s in spans if s["name"] == "toy.study")
    work_span = next(s for s in spans if s["name"] == "toy.work")
    assert work_span["worker"] and work_span["pid"] != study_span["pid"]
    assert work_span["parent"] == study_span["id"]
    own = self_times(spans)
    assert own[study_span["id"]] == pytest.approx(
        study_span["end"] - study_span["start"])


def test_install_rewraps_names_bound_by_from_import(tmp_path):
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def f():
        return 3

    lib.f = f
    user.f = f  # as after "from lib import f"
    t = Tracer(str(tmp_path))
    install(t, [lib, user], {(lib, "f"): ("lib.f", None)})
    assert user.f() == 3 and lib.f() == 3
    assert [s["name"] for s in t.spans] == ["lib.f", "lib.f"]


def test_every_target_resolves():
    import phonepair.cli  # noqa: F401  imports every module
    import sys
    modules = {n.split(".")[-1]: m for n, m in sys.modules.items()
               if n.startswith("phonepair.")}
    targets = layers.resolve_targets(modules)
    assert len(targets) == len(layers.TARGETS)
    for owner, attr in targets:
        assert callable(getattr(owner, attr))
    from phonepair import models
    assert layers.EN_MAX_ITER == models.EN_MAX_ITER


def test_command_root_splits_into_layers_and_interpreter_time():
    spans = [
        {"id": "0:0", "name": "command", "start": 0.0, "end": 10.0,
         "parent": None, "pid": 0, "worker": False},
        {"id": "1:0", "name": "cli.import", "start": 0.5, "end": 2.0,
         "parent": "0:0", "pid": 1, "worker": False},
        {"id": "1:1", "name": "cli.main", "start": 2.0, "end": 9.0,
         "parent": "0:0", "pid": 1, "worker": False},
        {"id": "1:2", "name": "dsp.decimate", "start": 3.0, "end": 8.0,
         "parent": "1:1", "pid": 1, "worker": False},
    ]
    m = layers.layer_metrics(spans, [], jobs=1, traced_wall=10.0)
    assert m["cli.import_s"] == pytest.approx(1.5)
    assert m["dsp.decimate_s"] == pytest.approx(5.0)
    assert m["cli.self_s"] == pytest.approx(1.5 + 2.0)
    assert m["python.start_exit_s"] == pytest.approx(1.5)
    assert m["trace.unattributed_ratio"] == pytest.approx(0.0)
    assert m["share.dsp_dataio"] == pytest.approx(5.0 / 7.0)
