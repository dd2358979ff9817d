"""Summarise benchmark results the way the acceptance rule reads them.

    python3 perfbench/spread.py RESULTS...

Each RESULTS file holds lines ``<workload> <seed> <result JSON>`` (the JSON
is the last stdout line of ``run.py``).  For every workload and metric it
prints the median, the quartile spread (Q3 - Q1) as a share of the median,
and the number of runs; a spread must stay below the metric's bound in
``BENCHMARK.json``, and should stay below a third of it.
"""

import json
import os
import statistics
import sys
from collections import defaultdict


def main(paths: list) -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for path in paths:
        with open(path) as f:
            for line in f:
                parts = line.split(" ", 2)
                if len(parts) < 3 or not parts[2].startswith("{"):
                    continue
                result = json.loads(parts[2])
                failed[parts[0]] += result["failed"]
                for name, m in result["metrics"].items():
                    values[parts[0]][name].append(m["value"])
    for workload, metrics in values.items():
        print(f"{workload}  (failed commands: {failed[workload]})")
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "  ok" if spread < bound / 3 else
                "  WIDE" if spread < bound else "  OVER BOUND")
            print(f"  {name:24s} median {med:12.5g}  spread {spread:7.2%}  "
                  f"n={len(vals)}{flag}")


if __name__ == "__main__":
    main(sys.argv[1:])
