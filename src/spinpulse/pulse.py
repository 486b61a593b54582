"""Pulse-level intermediate representation.

A sequence holds time-ordered ops: the first element is applied first, so
simulating multiplies matrices right to left.  A rotation is
exp(-i*angle*I_axis) on one spin; a coupling is the Ising evolution
exp(-i*angle*2*I_iz*I_jz) on a spin pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rotation:
    spin: int
    axis: str
    angle: float

    def __post_init__(self):
        if self.spin < 1:
            raise ValueError(f"spin index {self.spin} must be positive")
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"invalid rotation axis {self.axis!r}")


@dataclass(frozen=True)
class Coupling:
    i: int
    j: int
    angle: float

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise ValueError("spin indices must be positive")
        if self.i == self.j:
            raise ValueError("coupling needs two distinct spins")
        if self.i > self.j:  # the interaction is symmetric; store i < j
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


PulseOp = Rotation | Coupling


@dataclass
class PulseSequence:
    """Time-ordered pulses plus a best-effort ledger of known global phase:
    multiplying the simulated product by e^{i*global_phase} recovers the
    compiled target when every pass was phase-exact."""

    num_spins: int
    ops: list[PulseOp] = field(default_factory=list)
    global_phase: float = 0.0
