"""Run one ``phonepair`` CLI command with the tracer installed.

    python perfbench/traced_cli.py <trace dir> <phonepair arguments...>

The command's spans hang under the span id in ``PERFBENCH_PARENT_SPAN``
and are written to ``<trace dir>/spans.<pid>.jsonl`` on exit.
"""

import os
import sys
import time

from layers import resolve_targets
from tracer import Tracer, install


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(trace_dir, parent=os.environ.get("PERFBENCH_PARENT_SPAN"))
    t0 = time.perf_counter()
    import phonepair.cli as cli
    tracer.record("cli.import", t0, time.perf_counter())
    modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("phonepair.")}
    install(tracer, list(modules.values()), resolve_targets(modules))
    try:
        return tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
