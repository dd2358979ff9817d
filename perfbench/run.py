"""phonepair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload generates its corpus
from the seed (``phonepair synth``), then drives the real CLI
(``phonepair.cli.main``), one fresh child process per command, with BLAS
pinned to one thread.

``--trace 0`` repeats set-up ``SETUP_REPEATS`` times and the command
sequence until ``--seconds`` is used up, and reports the end-to-end
metrics as medians.  ``--trace 1`` runs the sequence once untraced and
once with every layer wrapped by the tracer, and reports the per-layer
metrics.  Every output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads as wls
from layers import layer_metrics, neural_budget_failures
from tracer import Tracer, load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0        # a run must end within 180 s
CLI = "import sys; from phonepair.cli import main; sys.exit(main(sys.argv[1:]))"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_PROBE = """import json, sys, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))"""


@dataclass
class Finished:
    code: int
    cpu_s: float
    rss_mb: float


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    planted_acc: float


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


class Bench:
    def __init__(self, root: str, wl: wls.Workload, seed: int,
                 work: str | None = None):
        self.root, self.wl, self.seed = root, wl, seed
        self.work = work or os.path.join(HERE, ".work", wl.name)
        self.corpus = os.path.join(self.work, "corpus")
        self.out = os.path.join(self.work, "out")
        self.configs = os.path.join(self.work, "configs")
        self.logs = os.path.join(self.work, "logs")
        self.env = {**os.environ,
                    "PYTHONPATH": os.path.join(root, "src"),
                    "PYTHONDONTWRITEBYTECODE": "1",
                    **{v: str(BLAS_THREADS) for v in BLAS_VARS}}
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.logs)

    # -- processes ---------------------------------------------------------

    def _spawn(self, label: str, argv: list, env: dict) -> Finished:
        """Run one child to completion; its CPU time and peak RSS include
        the processes it waited for (``--jobs`` workers)."""
        self.attempted += 1
        log = os.path.join(self.logs, f"{self.attempted:03d}.log")
        with open(log, "wb") as f:
            proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=f,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                   os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            with open(log, encoding="utf-8", errors="replace") as f:
                tail = f.read().strip().splitlines()[-1:]
            self.problems.append(f"{label} exited {proc.returncode}: {tail}")
        return Finished(proc.returncode, _cpu(ru), ru.ru_maxrss / 1024.0)

    def cli(self, args: list, tracer: Tracer | None = None) -> Finished:
        if tracer is None:
            return self._spawn(args[0], [sys.executable, "-c", CLI, *args],
                               self.env)
        span_id = tracer.new_id()
        start = time.perf_counter()
        done = self._spawn(
            args[0], [sys.executable, os.path.join(HERE, "traced_cli.py"),
             tracer.out_dir, *args],
            {**self.env, "PERFBENCH_PARENT_SPAN": span_id})
        tracer.record("command", start, time.perf_counter(), span_id=span_id)
        return done

    def _write_config(self, name: str, doc: dict) -> str:
        path = os.path.join(self.configs, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
        return path

    # -- set-up and the measured sequence ----------------------------------

    def setup(self, tracer: Tracer | None = None) -> float:
        """Generate the corpus and write every config; returns seconds."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        shutil.rmtree(self.configs, ignore_errors=True)
        start = time.perf_counter()
        os.makedirs(self.configs)
        synth = self._write_config("synth.json", wls.synth_config(self.wl))
        done = self.cli(["synth", "--config", synth, "--out", self.corpus,
                         "--seed", str(self.seed)], tracer)
        if done.code == 0 and self.wl.audio_pair:
            self._spawn("audio_pair",
                        [sys.executable, os.path.join(HERE, "audio_pair.py"),
                         "--seed", str(self.seed), "--out", self.corpus],
                        self.env)
        for name, doc in wls.step_configs(self.wl, self.corpus, self.out).items():
            self._write_config(name, doc)
        return time.perf_counter() - start

    def sequence(self, tracer: Tracer | None = None) -> Iteration:
        shutil.rmtree(self.out, ignore_errors=True)
        cpu0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        start = time.perf_counter()
        done = []
        for step in self.wl.steps:
            args = [step.command, "--config",
                    os.path.join(self.configs, step.config),
                    "--out", os.path.join(self.out, step.out)]
            if step.jobs > 1:
                args += ["--jobs", str(step.jobs)]
            done.append(self.cli(args, tracer))
        wall = time.perf_counter() - start
        me = resource.getrusage(resource.RUSAGE_SELF)
        problems = wls.check(self.wl, self.out, self.corpus)
        for step, d in zip(self.wl.steps, done):
            if d.code == 0 and problems[step.out]:
                self.failed += 1
                self.problems += problems[step.out]
        try:
            acc = wls.planted_acc(self.wl, self.out)
        except (OSError, KeyError, ValueError, ZeroDivisionError):
            acc = 0.0
        return Iteration(
            wall_s=wall,
            cpu_s=_cpu(me) - cpu0 + sum(d.cpu_s for d in done),
            peak_rss_mb=max([me.ru_maxrss / 1024.0] + [d.rss_mb for d in done]),
            planted_acc=acc)

    def measured(self, seconds: float) -> dict:
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        iters = []
        start = time.monotonic()
        while True:
            iters.append(self.sequence())
            now = time.monotonic()
            typical = statistics.median(i.wall_s for i in iters)
            if now - start >= seconds or now + typical > self.deadline:
                break
        out = {"setup_s": (statistics.median(setups), "s")}
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"),
                          ("peak_rss_mb", "MB"), ("planted_acc", "ratio")):
            out[key] = (statistics.median(getattr(i, key) for i in iters), unit)
        self.samples = {"setup_s": setups,
                        "wall_s": [i.wall_s for i in iters]}
        return out

    def traced(self) -> dict:
        setup_dir = os.path.join(self.work, "trace", "setup")
        seq_dir = os.path.join(self.work, "trace", "sequence")
        tracer = Tracer(setup_dir)
        self.setup(tracer)
        tracer.flush()
        plain = self.sequence()
        tracer = Tracer(seq_dir)
        traced = self.sequence(tracer)
        tracer.flush()
        spans = load_spans(seq_dir)
        budget = neural_budget_failures(spans)
        if budget:
            self.failed += 1
            self.problems += budget
        m = layer_metrics(spans, load_spans(setup_dir), self.wl.jobs,
                          traced.wall_s)
        m["trace.wall_s"] = traced.wall_s
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        self.samples = {"untraced_wall_s": plain.wall_s}
        return {k: (v, unit_of(k)) for k, v in m.items()}

    def environment(self) -> dict:
        env = {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
               "commit": _git_commit(self.root)}
        try:
            probe = subprocess.run([sys.executable, "-c", ENV_PROBE],
                                   env=self.env, capture_output=True,
                                   text=True, timeout=60, check=True)
            env.update(json.loads(probe.stdout))
        except (subprocess.SubprocessError, ValueError) as exc:
            env["probe_error"] = repr(exc)
        return env


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith("s_per_iter") or \
            metric.endswith("s_per_epoch"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio") or metric.startswith("share."):
        return "ratio"
    return "count"


def _git_commit(root: str) -> str:
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    same = len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(root)
    return top[1] if same else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "phonepair", "cli.py")):
        print(f"perfbench: no phonepair sources under {root}/src; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    bench = Bench(root, wls.WORKLOADS[args.workload], args.seed % 2 ** 32)
    env = bench.environment()
    metrics = bench.traced() if args.trace else bench.measured(args.seconds)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "samples": bench.samples, "problems": bench.problems}
    print(json.dumps(record, sort_keys=True))
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
