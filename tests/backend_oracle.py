"""The pulse back end as it stood before its one-pass rewrite, kept
verbatim as an oracle: `reduce_plan` (with the recursive
`reduce_coupling_order` and a second pass that expands z rotations),
`peephole` (built on `dataclasses.replace`) and `simulate` (one `np.eye`
per rotation).  tests/test_kernels.py requires the package's passes to
reproduce these bit for bit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from spinpulse import pauli
from spinpulse.decompose import DecompositionPlan, SingleOp
from spinpulse.pauli import PauliString
from spinpulse.pulse import Coupling, PulseOp, PulseSequence, Rotation

HALF_PI = math.pi / 2
ANGLE_EPS = 1e-12
CNOT_SEQUENCE_PHASE = -math.pi / 4


def wrap_angle(angle: float) -> float:
    """Reduce into (-2*pi, 2*pi], the fundamental rotation period."""
    a = math.fmod(angle, 4 * math.pi)
    if a > 2 * math.pi:
        a -= 4 * math.pi
    elif a <= -2 * math.pi:
        a += 4 * math.pi
    return a


def composite_z(spin: int, angle: float) -> list[PulseOp]:
    """z rotation as a composite of allowed pulses (phase-exact)."""
    return [
        Rotation(spin, "y", HALF_PI),
        Rotation(spin, "x", angle),
        Rotation(spin, "y", -HALF_PI),
    ]


def axis_transform(op: SingleOp) -> tuple[list[PulseOp], SingleOp, list[PulseOp]]:
    """Conjugate every nonzero axis of `op` to z.

    Returns time-ordered wrappers (pre, post) and the all-z core carrying
    the original angle: pre + core + post applied in time equals `op`
    phase-exactly.  Per slot, x is reached from z by a y rotation and y by
    an x rotation, signs fixed so conjugation maps I_z onto I_x (resp. I_y).
    """
    if op.s.weight == 0:
        raise ValueError("zero-weight word has no axes to transform")
    pre: list[PulseOp] = []
    spins = op.s.support()
    for spin in spins:
        axis = op.s.axis(spin)
        if axis == "x":
            pre.append(Rotation(spin, "y", -HALF_PI))
        elif axis == "y":
            pre.append(Rotation(spin, "x", HALF_PI))
    post = [Rotation(w.spin, w.axis, -w.angle) for w in reversed(pre)]
    core = SingleOp(PauliString.z_on(op.s.num_spins, spins), op.angle)
    return pre, core, post


def cnot_sequence(i: int, j: int) -> list[PulseOp]:
    """Controlled flip of spin j by spin i (active on the low state), equal
    to the textbook gate times e^{i*CNOT_SEQUENCE_PHASE}.  Contains one z
    rotation, expanded later unless z is allowed."""
    if i == j:
        raise ValueError("control and target must differ")
    return [
        Rotation(j, "y", -HALF_PI),
        Coupling(i, j, -HALF_PI),
        Rotation(j, "y", HALF_PI),
        Rotation(j, "x", HALF_PI),
        Rotation(i, "z", HALF_PI),
    ]


def pseudo_cnot(i: int, j: int, inverse: bool = False) -> list[PulseOp]:
    """Three-pulse conjugator with the same sandwich effect as the
    controlled flip: conjugation swaps I_jz with 2*I_iz*I_jz (times two)."""
    if i == j:
        raise ValueError("control and target must differ")
    ops = [
        Rotation(j, "y", HALF_PI),
        Coupling(i, j, HALF_PI),
        Rotation(j, "x", HALF_PI),
    ]
    if inverse:
        ops = [replace(op, angle=-op.angle) for op in reversed(ops)]
    return ops


def reduce_coupling_order(
    op: SingleOp, use_pseudo_cnot: bool = True
) -> tuple[list[PulseOp], float]:
    """Rewrite an all-z single operator into allowed pulses.

    Weight 1 stays a (bare) z rotation, weight 2 is one coupling, weight
    n >= 3 recurses: the inner (n-1)-spin block is conjugated by a flip of
    the first spin pair, which restores the spins afterwards.  Returns the
    ops and the accumulated known phase (radians of e^{i*phase} needed on
    top of the simulated product); pseudo flips are phase-exact, full flips
    contribute their sequence phase twice per level.
    """
    spins = op.s.support()
    if op.s != PauliString.z_on(op.s.num_spins, spins):
        raise ValueError(f"{op.s} is not an all-z word")
    if not spins:
        raise ValueError("zero-weight word")
    if len(spins) == 1:
        return [Rotation(spins[0], "z", op.angle)], 0.0
    if len(spins) == 2:
        return [Coupling(spins[0], spins[1], op.angle)], 0.0
    inner = SingleOp(PauliString.z_on(op.s.num_spins, spins[1:]), op.angle)
    inner_ops, phase = reduce_coupling_order(inner, use_pseudo_cnot)
    i, j = spins[0], spins[1]
    if use_pseudo_cnot:
        return pseudo_cnot(i, j, inverse=True) + inner_ops + pseudo_cnot(i, j), phase
    flip = cnot_sequence(i, j)
    return flip + inner_ops + flip, phase - 2 * CNOT_SEQUENCE_PHASE


def reduce_plan(
    plan: DecompositionPlan,
    allow_z: bool = False,
    use_pseudo_cnot: bool = True,
    merge: bool = True,
) -> PulseSequence:
    """Full rewriting pipeline for a plan: weight-1 x/y ops pass through,
    everything else is axis-transformed and order-reduced, z rotations are
    expanded unless allowed, and adjacent pulses are merged."""
    ops: list[PulseOp] = []
    phase = -plan.dropped_identity
    for sop in plan.ops:
        if abs(sop.angle) < ANGLE_EPS:
            continue
        if sop.s.weight == 1:
            spin = sop.s.support()[0]
            ops.append(Rotation(spin, sop.s.axis(spin), sop.angle))
            continue
        pre, core, post = axis_transform(sop)
        body, extra = reduce_coupling_order(core, use_pseudo_cnot)
        ops.extend(pre)
        ops.extend(body)
        ops.extend(post)
        phase += extra
    if not allow_z:
        expanded: list[PulseOp] = []
        for op in ops:
            if isinstance(op, Rotation) and op.axis == "z":
                expanded.extend(composite_z(op.spin, op.angle))
            else:
                expanded.append(op)
        ops = expanded
    seq = PulseSequence(plan.num_spins, ops, math.remainder(phase, 2 * math.pi))
    return peephole(seq) if merge else seq


def _same_target(a: PulseOp, b: PulseOp) -> bool:
    if isinstance(a, Rotation) and isinstance(b, Rotation):
        return a.spin == b.spin and a.axis == b.axis
    if isinstance(a, Coupling) and isinstance(b, Coupling):
        return (a.i, a.j) == (b.i, b.j)
    return False


def peephole(seq: PulseSequence) -> PulseSequence:
    """Merge directly adjacent pulses with the same target (angles add
    modulo 4*pi) and drop identity pulses.  Strictly adjacent: nothing is
    reordered, even across commuting neighbors."""
    out: list[PulseOp] = []
    for op in seq.ops:
        angle = wrap_angle(op.angle)
        if abs(angle) < ANGLE_EPS:
            continue
        current: PulseOp | None = replace(op, angle=angle)
        while current is not None and out and _same_target(out[-1], current):
            angle = wrap_angle(out[-1].angle + current.angle)
            out.pop()
            current = None if abs(angle) < ANGLE_EPS else replace(current, angle=angle)
        if current is not None:
            out.append(current)
    return PulseSequence(seq.num_spins, out, seq.global_phase)


def _exp_sigma(angle: float, sigma: np.ndarray) -> np.ndarray:
    """exp(-i*angle*sigma/2) for a sigma-string, which squares to E:
    cos(angle/2)*E - i*sin(angle/2)*sigma."""
    half = angle / 2
    return math.cos(half) * np.eye(len(sigma)) - 1j * math.sin(half) * sigma


def simulate(seq: PulseSequence) -> np.ndarray:
    """Product of op matrices, last time step leftmost; empty -> identity.
    The sequence's global-phase ledger is not applied.

    Each pulse acts on the rows of the running matrix in place; no
    full-size pulse matrix is built.  A rotation applies
    cos(a/2)*E - i*sin(a/2)*sigma_axis to the row pairs that differ only in
    its spin's bit, through a (2**(spin-1), 2, rest) view of the matrix.  A
    coupling is diagonal, e^{-i*a/2} on rows where the two bits agree and
    e^{+i*a/2} where they differ, so it scales each row by that phase.
    """
    n = seq.num_spins
    m = np.eye(2**n, dtype=complex)
    rows = np.arange(2**n)
    for op in seq.ops:
        if isinstance(op, Rotation):
            if op.spin > n:
                raise ValueError(f"spin {op.spin} out of range 1..{n}")
            pairs = m.reshape(2 ** (op.spin - 1), 2, -1)
            pairs[:] = _exp_sigma(op.angle, pauli.SIGMA[op.axis]) @ pairs
        elif isinstance(op, Coupling):
            if op.j > n:
                raise ValueError(f"spin {op.j} out of range 1..{n}")
            differ = ((rows >> (n - op.i)) ^ (rows >> (n - op.j))) & 1
            m *= np.exp(1j * op.angle / 2 * (2 * differ - 1))[:, None]
        else:
            raise TypeError(f"unknown pulse op {op!r}")
    return m
