import os

# numpy and scipy each load their own OpenBLAS, with a thread pool each; left
# unpinned on a few CPUs the two pools contend. Pin them before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from phonepair import synth


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_synth():
    """Small planted-signal corpus used across epoch/eval tests."""
    spec = synth.SynthSpec(
        duration=30, phones=(("a", 55), ("e", 55)), n_channels=24,
        snr=2.0, band="Theta", active_fraction=0.25, seed=42,
    )
    rec, events = synth.generate(spec)
    return spec, rec, events
