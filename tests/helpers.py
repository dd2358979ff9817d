"""Plain helpers shared by test modules.

They live outside ``conftest.py``: when ``tests`` and ``perfbench/tests``
are collected in one run, the module name ``conftest`` refers to the last
one loaded, so ``from conftest import ...`` is not reliable."""

import numpy as np

from phonepair.dataio import ChannelInfo, Recording


def make_recording(n_channels=4, n_samples=1000, fs=1000.0, kinds=None, seed=0):
    rng = np.random.default_rng(seed)
    if kinds is None:
        kinds = ["gradiometer"] * n_channels
    channels = tuple(
        ChannelInfo(f"CH{i:03d}", kind, "T/m") for i, kind in enumerate(kinds)
    )
    data = rng.standard_normal((n_channels, n_samples))
    return Recording(sample_rate=fs, channels=channels, data=data)
