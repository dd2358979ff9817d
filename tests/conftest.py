import os

# numpy and scipy each load their own OpenBLAS, with a thread pool each; left
# unpinned on a few CPUs the two pools contend. Pin them before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from phonepair import synth
from phonepair.dataio import ChannelInfo, Recording


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_recording(n_channels=4, n_samples=1000, fs=1000.0, kinds=None, seed=0):
    rng = np.random.default_rng(seed)
    if kinds is None:
        kinds = ["gradiometer"] * n_channels
    channels = tuple(
        ChannelInfo(f"CH{i:03d}", kind, "T/m") for i, kind in enumerate(kinds)
    )
    data = rng.standard_normal((n_channels, n_samples))
    return Recording(sample_rate=fs, channels=channels, data=data)


@pytest.fixture(scope="session")
def small_synth():
    """Small planted-signal corpus used across epoch/eval tests."""
    spec = synth.SynthSpec(
        duration=30, phones=(("a", 55), ("e", 55)), n_channels=24,
        snr=2.0, band="Theta", active_fraction=0.25, seed=42,
    )
    rec, events = synth.generate(spec)
    return spec, rec, events
