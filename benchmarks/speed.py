"""Host-speed probes that turn wall-clock times into speed-adjusted times.

The benchmark's host runs the same code up to about 1.9 times slower for
stretches of seconds to minutes, with CPU time equal to wall time and no
steal time: contention from outside the process slows the core itself
(see README.md). A probe is a fixed mix of pure-Python, numpy and AES
work, about 10 ms long, that shares nothing with veilstream. Its time
measures how fast the core runs at that moment.

`SpeedLog` probes before and after one scenario repeat and, while it is
installed, inside the run phase: when the scheduler starts and every
quarter window of sim time after that. Every time measured in the repeat
is multiplied by `PROBE_REFERENCE_S` over the median probe time of the
repeat, and then reads as seconds on a core running at the reference
speed. The median of all the repeat's probes is steadier than the probes
nearest a measured interval: a single 10 ms probe is itself noisy. The
probes' own time is never part of a measured value.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

# Probe time on an uncontended core of the reference host (2-vCPU KVM
# guest, Intel Xeon family 6 model 143, Python 3.11). Adjusted seconds
# equal wall seconds there when nothing contends for the core.
PROBE_REFERENCE_S = 0.0060

_AES = Cipher(algorithms.AES(bytes(range(16))), modes.ECB()).encryptor()
_AES_BUF = bytes(16 * 256)
_LANES = np.arange(4096, dtype=np.uint64)
_MUL = np.uint64(6364136223846793005)
_MASK = np.uint64((1 << 61) - 1)


def probe_work() -> int:
    """The fixed work of one probe: interpreter, numpy and AES in turn."""
    s, d = 0, {}
    for i in range(40000):
        s += i * i % 7
        d[i & 255] = s
    x = _LANES
    for _ in range(200):
        x = (x * _MUL + np.uint64(1)) & _MASK
    for _ in range(200):
        _AES.update(_AES_BUF)
    return s + int(x[0])


class SpeedLog:
    """Probes taken around and inside one scenario repeat."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end)

    def probe(self) -> None:
        start = time.perf_counter()
        probe_work()
        self.probes.append((start, time.perf_counter()))

    def install(self, pipeline, config):
        """Probe inside the run phase of `run_scenario(config)`; returns an undo function.

        Wraps `pipeline.Scheduler.run` to queue a probe every quarter window
        of sim time, up to the last window's assembly, before the event loop
        starts; the loop itself is the program's. Without a scheduler of
        that shape only the probes around the repeat count.
        """
        cls = getattr(pipeline, "Scheduler", None)
        original = getattr(cls, "run", None)
        if original is None or not hasattr(cls, "at"):
            return lambda: None
        step = config.window_size / 4
        end = config.windows * config.window_size + config.grace

        def run(scheduler):
            self.probe()
            k = 1
            while k * step <= end:
                scheduler.at(k * step, self.probe)
                k += 1
            original(scheduler)

        cls.run = run
        return lambda: setattr(cls, "run", original)

    def inner_seconds(self) -> float:
        """Time of the probes inside the scenario, all of them in its run phase."""
        return sum(e - s for s, e in self.probes[1:-1])

    def factor(self) -> float:
        """Reference probe time over the median probe time of the repeat."""
        return PROBE_REFERENCE_S / statistics.median(e - s for s, e in self.probes)
