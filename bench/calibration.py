"""Machine-speed calibration for timings taken on a shared machine.

On a 2-vCPU 2.0 GHz Xeon virtual machine shared with other tenants, their
load slows every kernel by up to ~1.8x for stretches of seconds to
minutes, so raw compile times of one commit spread by 15-35% from run to
run.  A fixed kernel that does not touch spinpulse, timed right before and
right after each measured interval, tracks that slowdown; dividing by it
cut the run-to-run spread of the median to a few percent.

The kernel mirrors where a workload's compiles spend their time: the
reference simulator applying a fixed seeded pulse sequence to probe
vectors (Python driving small numpy operations, like most of the
compiler), plus for `embed` a LAPACK eigendecomposition, since about half
of an embed compile is spent in `eigh`.  A time "at nominal speed" is
raw seconds * nominal / kernel seconds: seconds on a machine where the
kernel takes its nominal time, about its time on an unloaded vCPU of that
machine.
"""

from __future__ import annotations

import time

import numpy as np

import reference

NOMINAL_S = {"apply": 0.005, "eigh": 0.0035}
PARTS = {"embed": ("apply", "eigh"), "oracle": ("apply",), "dense": ("apply",)}
SETUP_PARTS = ("apply",)
SPINS = 6
PULSES = 300
EIGH_DIM = 128


class Kernel:
    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        ops = []
        for _ in range(PULSES):
            if rng.random() < 0.6:
                spin = int(rng.integers(1, SPINS + 1))
                ops.append(("R", spin, "xy"[int(rng.integers(2))], float(rng.normal())))
            else:
                i, j = (int(s) + 1 for s in rng.choice(SPINS, 2, replace=False))
                ops.append(("J", i, j, float(rng.normal())))
        self._parsed = reference.Parsed(SPINS, 0.0, ops)
        self._probes = reference.probes(2**SPINS, 0)
        m = rng.standard_normal((EIGH_DIM,) * 2) + 1j * rng.standard_normal((EIGH_DIM,) * 2)
        self._hermitian = m + m.conj().T
        self._eigh = "eigh" in parts
        self.nominal_s = sum(NOMINAL_S[part] for part in parts)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        reference.apply(self._parsed, self._probes)
        if self._eigh:
            np.linalg.eigh(self._hermitian)
        return time.perf_counter() - t0

    def scale(self, *kernel_seconds: float) -> float:
        """Factor taking raw seconds to nominal speed, given kernel times
        taken around the measured interval."""
        return self.nominal_s * len(kernel_seconds) / sum(kernel_seconds)
