"""The seed argument alone decides the corpus bytes."""

import hashlib
import os

import pytest

import workloads as wls
from run import Bench

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = wls.Workload(
    name="tiny",
    recordings=(wls._recording("s01", 4, 4.0, (("a", 5), ("e", 5))),),
    steps=(), audio_pair=True)


def corpus_digest(tmp_path, seed: int, tag: str) -> dict:
    bench = Bench(ROOT, TINY, seed, work=str(tmp_path / tag))
    bench.setup()
    assert bench.failed == 0, bench.problems
    digests = {}
    for name in sorted(os.listdir(bench.corpus)):
        if name.endswith((".nrd", ".tsv")):
            with open(os.path.join(bench.corpus, name), "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


@pytest.mark.parametrize("other", [1, 2 ** 31 + 5])
def test_seed_changes_corpus_bytes(tmp_path, other):
    first = corpus_digest(tmp_path, 7, "first")
    again = corpus_digest(tmp_path, 7, "again")
    changed = corpus_digest(tmp_path, other, "other")
    assert first == again
    assert set(first) == set(changed) == {
        "s01_production.nrd", "s01_production.events.tsv", "misc.nrd",
        "audio.nrd"}
    for name in first:
        assert first[name] != changed[name], name
