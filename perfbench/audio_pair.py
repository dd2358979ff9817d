"""Write the MISC/audio recording pair that corpus_prep aligns.

    python perfbench/audio_pair.py --seed N --out DIR

The audio is noise amplitude-modulated at syllable-like rates; the MISC
channel is the same audio delayed by ``PLANTED_LAG_S`` plus noise at 10 dB
SNR.  Both are written with ``phonepair.dataio`` as ``misc.nrd`` and
``audio.nrd``.
"""

import argparse
import os

import numpy as np

from phonepair import dataio
from workloads import FS, PLANTED_LAG_S

DURATION_S = 40.0


def make_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = int(DURATION_S * FS)
    t = np.arange(n) / FS
    env = 1.0 + sum(rng.uniform(0.3, 0.8) * np.sin(
        2 * np.pi * rng.uniform(0.5, 4.0) * t + rng.uniform(0, 2 * np.pi))
        for _ in range(3))
    audio = env * rng.standard_normal(n)
    misc = np.roll(audio, int(round(PLANTED_LAG_S * FS)))
    misc += rng.standard_normal(n) * audio.std() / np.sqrt(10.0)
    return misc, audio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    misc, audio = make_pair(args.seed)
    for name, kind, signal in (("misc", "misc", misc), ("audio", "audio", audio)):
        ch = (dataio.ChannelInfo(f"{name.upper()}001", kind, "V"),)
        dataio.save_recording(dataio.Recording(FS, ch, signal[None, :]),
                              os.path.join(args.out, f"{name}.nrd"))


if __name__ == "__main__":
    main()
