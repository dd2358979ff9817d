"""Golden outputs: one small fixed run of every CLI subcommand, compared
byte for byte with the files committed under ``tests/fixtures/golden/``.

The run, ``helpers.run_every_subcommand``, is criterion 10's: a
three-recording corpus through ``synth``, ``align``, ``preprocess``,
``report``, and ``run-tasks``, ``sweep-bands`` and ``ablate`` with the
elastic net; ``run-models`` fits each model variant once, the nets for a
few epochs.  Text outputs (CSV, markdown, JSON, TSV) are kept as files,
with the run's directory masked as ``<run>``; recordings (``.nrd``) as
one SHA-256 list, ``digests.sha256``.  The ``.nrd`` format's float32 cast
hides a move below float32 precision, such as a one-ulp change to a
filter tap, so the list also holds the float64 output of the default
preprocessing chain on one recording.

A change that moves output bytes on purpose rewrites the goldens with

    PYTHONPATH=src python tests/test_golden.py --update

and its diff then shows every file that moved.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

# as in conftest.py, which a script run does not load: pin BLAS before numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from helpers import DIGESTS, run_every_subcommand

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def read_goldens() -> dict[str, bytes]:
    return {path.relative_to(GOLDEN).as_posix(): path.read_bytes()
            for path in sorted(GOLDEN.rglob("*")) if path.is_file()}


def test_outputs_match_the_goldens(tmp_path):
    got, want = run_every_subcommand(tmp_path), read_goldens()
    assert sorted(got) == sorted(want), (
        f"files written but not golden: {sorted(got.keys() - want.keys())}; "
        f"golden but not written: {sorted(want.keys() - got.keys())}")
    moved = [name for name in want if got[name] != want[name]]
    if DIGESTS in moved:    # name each entry of the list that moved
        moved += sorted(set(got[DIGESTS].decode().splitlines())
                        - set(want[DIGESTS].decode().splitlines()))
    assert not moved, (
        f"outputs moved from {GOLDEN}: {moved}; if on purpose, run "
        "'PYTHONPATH=src python tests/test_golden.py --update' and say why "
        "in CHANGES.md")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        files = run_every_subcommand(Path(tmp).resolve())
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, data in files.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(files)} files under {GOLDEN}")
