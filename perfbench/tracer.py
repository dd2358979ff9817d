"""Outside-in span tracer for phonepair.

The tracer wraps public functions of the ``phonepair`` modules from the
outside; nothing under ``src/`` knows about it.  Every module attribute bound
to a wrapped function object is replaced, so names re-bound by
``from ... import`` (``pipeline.extract_epochs``, ``cli.preprocess``) are
traced too.  Each call becomes one span: name, start, end, parent and pid,
plus the counts a counter function reads from the call's arguments and
return value.

Spans stay in memory.  The main process writes them with ``flush()``; a
forked ``--jobs`` worker writes its own after each of its outermost spans
closes, to ``spans.<pid>.jsonl`` in the trace directory, so the parent can
merge every process's spans at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    def __init__(self, out_dir: str, parent: str | None = None):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.start_pid = self.pid
        self.parent = parent          # span id the first spans hang under
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._next_id = 0

    def _enter_process(self) -> None:
        """After a fork, start an empty span list for the worker; its first
        spans hang under the span that was open when it was forked."""
        pid = os.getpid()
        if pid != self.pid:
            self.parent = self.stack[-1] if self.stack else self.parent
            self.pid = pid
            self.spans, self.stack, self._next_id = [], [], 0

    def new_id(self) -> str:
        self._enter_process()
        span_id = f"{self.pid}:{self._next_id}"
        self._next_id += 1
        return span_id

    def call(self, name: str, fn, args: tuple, kwargs: dict, counter=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span_id = self.new_id()
        parent = self.stack[-1] if self.stack else self.parent
        self.stack.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter()
            self.stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "pid": self.pid,
                    "worker": self.pid != self.start_pid}
            if failed:
                span["failed"] = True
            self.spans.append(span)
        if counter is not None:
            span["counts"] = counter(args, kwargs, result)
        if not self.stack and span["worker"]:
            self.flush()
        return result

    def record(self, name: str, start: float, end: float,
               span_id: str | None = None) -> None:
        """Add a span timed by the caller (process roots, imports)."""
        self.spans.append({"id": span_id or self.new_id(), "name": name,
                           "start": start, "end": end, "parent": self.parent,
                           "pid": self.pid, "worker": False})

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        if not self.spans:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans.{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")
        self.spans = []


def install(tracer: Tracer, modules: list, targets: dict) -> None:
    """Wrap ``targets`` = {(owner, attr): (span name, counter or None)}.

    ``owner`` is a module or a class.  Every attribute of ``modules`` bound
    to the same function object is re-pointed at the wrapper.
    """
    for (owner, attr), (name, counter) in targets.items():
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, counter)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for fname in sorted(os.listdir(trace_dir)):
        if fname.startswith("spans.") and fname.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fname), encoding="utf-8") as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its children cover.

    The outermost span of a forked worker runs beside its parent rather
    than inside it, so it is not subtracted: the parent was waiting on the
    pool, and that wait is the parent's own time.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    pid = {s["id"]: s["pid"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent in own and not (s["worker"] and pid[parent] != s["pid"]):
            own[parent] -= s["end"] - s["start"]
    return own
