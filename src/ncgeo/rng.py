"""Counter-based random streams for reproducible trial fan-out.

Every randomized routine in the verification suites draws from a Philox
generator keyed by (seed, label) with the trial index as the counter:

    gen = trial_stream(seed, "suite-name", trial)

Philox is a counter-based generator with a published specification, so an
independent implementation can reproduce the exact trial streams from the
(seed, label, trial) triple.  The label enters the key as the CRC-32 of its
UTF-8 bytes; the 128-bit counter holds the trial index in its lowest word.
Streams for distinct trials are independent of the order the trials run
in, so any trial replays from its (seed, label, trial) key alone.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["trial_stream", "stream_key"]


def stream_key(seed: int, label: str) -> list:
    """Two 64-bit key words: the seed and the CRC-32 of the label."""
    return [int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode("utf-8"))]


def trial_stream(seed: int, label: str, trial: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, label, trial) triple."""
    counter = [int(trial) & 0xFFFFFFFFFFFFFFFF, 0, 0, 0]
    return np.random.Generator(np.random.Philox(counter=counter, key=stream_key(seed, label)))
