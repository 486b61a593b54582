"""Seeded compiler inputs for the benchmark workloads.

Each workload stresses different stages (BENCHMARK.json records why):
  embed   exact 9-spin gates: generator extraction and the 4^n expansion;
  oracle  8-spin diagonal phase flips: plan and reduction of ~230 terms;
  dense   Haar-random 2-spin unitaries: the Trotter route, simulate-verify,
          reduction and formatting.

Every input is rebuilt on demand from (workload, seed, index) alone, so a
run holds one input matrix at a time and `peak_rss_mb` measures the
compiler rather than the benchmark's own input list.
"""

from __future__ import annotations

import math

import numpy as np

from spinpulse import gates

EMBED_SPINS = 9
ORACLE_SPINS = 8
DENSE_SPINS = 2

# Input-list length per workload: the quality metrics are means over this
# many inputs and the timed window cycles over the same list.  embed holds
# each gate in each target order once; oracle and dense need this many
# inputs for their seed-to-seed spread in pulses and residual to average out.
LIST_LENGTH = {"embed": 12, "oracle": 32, "dense": 96}

EMBED_GATES = ("cnot", "toffoli", "swap", "cphase")


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def embed(seed: int, index: int) -> np.ndarray:
    """Gate `index mod 4` on three distinct seeded spins.  Every block of
    twelve inputs holds each gate with its target below, between and above
    the other spins (the reduction's pulse count depends on that order), so
    every seed sees the same mix."""
    name = EMBED_GATES[index % len(EMBED_GATES)]
    n = EMBED_SPINS
    spins = sorted(int(s) + 1 for s in _rng(seed, index).choice(n, 3, replace=False))
    target = spins.pop((index // len(EMBED_GATES)) % 3)
    if name == "cnot":
        return gates.cnot(spins[0], target, n)
    if name == "toffoli":
        return gates.toffoli(tuple(spins), target, n)
    if name == "swap":
        return gates.swap(spins[0], target, n)
    return gates.controlled_phase(spins[0], target, math.pi, n)


def oracle(seed: int, index: int) -> np.ndarray:
    """Diagonal +/-1 oracle with exactly half of the basis states marked."""
    dim = 2**ORACLE_SPINS
    marked = _rng(seed, index).choice(dim, dim // 2, replace=False)
    return gates.phase_flip(marked.tolist(), ORACLE_SPINS)


def dense(seed: int, index: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with R's diagonal
    phases folded into Q (Mezzadri 2007)."""
    dim = 2**DENSE_SPINS
    rng = _rng(seed, index)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


BUILDERS = {"embed": embed, "oracle": oracle, "dense": dense}


def make(workload: str, seed: int, index: int) -> np.ndarray:
    return BUILDERS[workload](seed, index)


def golden() -> dict[str, np.ndarray]:
    """The five named gates at their CLI defaults."""
    return {
        "cnot": gates.cnot(),
        "toffoli": gates.toffoli(),
        "swap": gates.swap(),
        "cphase": gates.controlled_phase(),
        "fphase": gates.phase_flip([0b11], 2),
    }
