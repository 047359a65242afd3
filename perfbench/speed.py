"""Calibration of wall-clock times against the speed the CPU delivers now.

On a shared virtual machine the same single-threaded work can take up to
twice as long from one half-minute to the next, because the host runs the
virtual CPU slower at times. A fixed probe kernel of interpreter and
small-matrix numpy work, of the same mix as the package's hot paths, is
timed between operations, at least every quarter second, and each operation's
time is reported at the reference speed at which the probe takes
REFERENCE_PROBE_S:

    calibrated time = measured time * REFERENCE_PROBE_S / probe time,

with the probe time averaged over the samples just before and after it.

The raw times and the probe mean are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_PROBE_S = 0.008
PROBE_INTERVAL_S = 0.25
_ROUNDS = 400


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(8, 2, 4, 4))
        mats = blocks[:, 0] + 1j * blocks[:, 1]
        self._mats = [m @ m.conj().T for m in mats]
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for k in range(_ROUNDS):
            mat = self._mats[k % len(self._mats)]
            acc += float(np.linalg.eigvalsh(mat)[0]) + float(np.abs(mat @ mat).max())
            for j in range(50):
                acc += j * 1e-9
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self._last = time.perf_counter()
        return elapsed

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def calibrate(self, ops) -> list[float]:
        """Latencies of operations (objects with latency_s and the index of
        the last sample taken before them, probe_index) at the reference
        speed, each scaled by the mean of the samples around it."""
        return [
            op.latency_s * 2.0 * REFERENCE_PROBE_S
            / (self.samples[op.probe_index] + self.samples[op.probe_index + 1])
            for op in ops
        ]
