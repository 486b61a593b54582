"""Rewriting passes from single operators to allowed pulses.

The allowed set is single-spin x/y rotations and the two-spin Ising
coupling.  z rotations are rewritten as composite pulses, other axes are
conjugated to z, and z-words of weight three or more are reduced by
nested flips: conjugating by a (pseudo) controlled-flip on a spin pair
raises the coupling order of the inner block by one, so an n-spin
coupling is one coupling inside n-2 flip sandwiches.

All sequences here are in time order.  Angles are meaningful modulo 4*pi
(a 2*pi rotation is -identity, a physical phase).
"""

from __future__ import annotations

import functools
import math

from .decompose import DecompositionPlan, SingleOp
from .pauli import PauliString
from .pulse import Coupling, PulseOp, PulseSequence, Rotation

HALF_PI = math.pi / 2

# Angles below this merge away as identity.  A rounding floor, not an input
# tolerance: two pulses that cancel merge to a few ulps of 4*pi (about
# 2.8e-15), so it sits just above that, and a pulse it drops moves the
# sequence by less than 1e-14.
ANGLE_EPS = 1e-14

# The five-pulse controlled-flip sequence realizes the textbook gate times
# this phase factor.
CNOT_SEQUENCE_PHASE = -math.pi / 4


def wrap_angle(angle: float) -> float:
    """Reduce into (-2*pi, 2*pi], the fundamental rotation period."""
    a = math.fmod(angle, 4 * math.pi)
    if a > 2 * math.pi:
        a -= 4 * math.pi
    elif a <= -2 * math.pi:
        a += 4 * math.pi
    return a


# Quarter turn opening each axis's frame, which the opposite turn closes: it
# takes z onto x or y (axis_transform) and, for z, x onto z (composite_z).
_FRAME_TURNS = {"x": ("y", -HALF_PI), "y": ("x", HALF_PI), "z": ("y", HALF_PI)}


def _frame(spin: int, axis: str) -> tuple[Rotation, Rotation]:
    """Time-ordered (pre, post) frame pulses of `axis` on `spin`."""
    turn, angle = _FRAME_TURNS[axis]
    return Rotation(spin, turn, angle), Rotation(spin, turn, -angle)


def composite_z(spin: int, angle: float) -> list[PulseOp]:
    """z rotation as a composite of allowed pulses (phase-exact)."""
    pre, post = _frame(spin, "z")
    return [pre, Rotation(spin, "x", angle), post]


def axis_transform(op: SingleOp) -> tuple[list[PulseOp], SingleOp, list[PulseOp]]:
    """Conjugate every nonzero axis of `op` to z.

    Returns time-ordered wrappers (pre, post) and the all-z core carrying
    the original angle: pre + core + post applied in time equals `op`
    phase-exactly.  Per slot, x is reached from z by a y rotation and y by
    an x rotation, signs fixed so conjugation maps I_z onto I_x (resp. I_y).
    """
    if op.s.weight == 0:
        raise ValueError("zero-weight word has no axes to transform")
    spins = op.s.support()
    frames = [_frame(spin, op.s.axis(spin)) for spin in spins if op.s.axis(spin) != "z"]
    core = SingleOp(PauliString.z_on(op.s.num_spins, spins), op.angle)
    return [pre for pre, _ in frames], core, [post for _, post in reversed(frames)]


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
    controlled flip: conjugation swaps I_jz with 2*I_iz*I_jz (times two).
    The inverse runs the same pulses backwards with negated angles."""
    if i == j:
        raise ValueError("control and target must differ")
    angle = -HALF_PI if inverse else HALF_PI
    ops = [Rotation(j, "y", angle), Coupling(i, j, angle), Rotation(j, "x", angle)]
    return ops[::-1] if inverse else ops


def _flips(i: int, j: int, use_pseudo_cnot: bool, allow_z: bool):
    """Time-ordered flip pulses before and after the inner block of the
    reduction level on spins (i, j), and the known phase they add."""
    if use_pseudo_cnot:
        return pseudo_cnot(i, j, inverse=True), pseudo_cnot(i, j), 0.0
    flip = cnot_sequence(i, j)
    if not allow_z:  # its z rotation is the last pulse
        flip[-1:] = composite_z(i, HALF_PI)
    return flip, flip, -2 * CNOT_SEQUENCE_PHASE


def _reduce(spins: list[int], angle: float, flips) -> tuple[list[PulseOp], float]:
    """Pulses and known phase of the all-z word on `spins` (two or more): the
    last pair's coupling inside the sandwiches `flips(i, j)` of the others."""
    levels = [flips(i, j) for i, j in zip(spins[:-2], spins[1:-1])]
    ops = [op for before, _, _ in levels for op in before]
    ops.append(Coupling(spins[-2], spins[-1], angle))
    ops.extend(op for _, after, _ in reversed(levels) for op in after)
    phase = 0.0
    for _, _, level_phase in levels:
        phase += level_phase
    return ops, phase


def reduce_coupling_order(
    op: SingleOp, use_pseudo_cnot: bool = True
) -> tuple[list[PulseOp], float]:
    """Rewrite an all-z single operator into allowed pulses.

    Weight 1 stays a (bare) z rotation, weight 2 is one coupling, weight
    n >= 3 is the last pair's coupling inside flips of (s1, s2), ...,
    (s_{n-2}, s_{n-1}), outermost first, each raising the coupling order by
    one and restoring its spins.  Returns the ops and the accumulated known
    phase (radians of e^{i*phase} needed on top of the simulated product);
    pseudo flips are phase-exact, full flips contribute their sequence
    phase twice per level.
    """
    spins = op.s.support()
    if op.s != PauliString.z_on(op.s.num_spins, spins):
        raise ValueError(f"{op.s} is not an all-z word")
    if not spins:
        raise ValueError("zero-weight word")
    if len(spins) == 1:
        return [Rotation(spins[0], "z", op.angle)], 0.0
    return _reduce(spins, op.angle, lambda i, j: _flips(i, j, use_pseudo_cnot, True))


def reduce_plan(
    plan: DecompositionPlan,
    allow_z: bool = False,
    use_pseudo_cnot: bool = True,
    merge: bool = True,
) -> PulseSequence:
    """Full rewriting pipeline for a plan: weight-1 x/y ops pass through,
    everything else is axis-transformed and order-reduced, z rotations are
    expanded unless allowed, and adjacent pulses are merged.

    One pass emits the pulses.  Frames and flip sandwiches (z expanded) are
    built once per spin or pair in this call and shared, as pulses are frozen.
    """
    frame = functools.cache(_frame)
    flips = functools.cache(lambda i, j: _flips(i, j, use_pseudo_cnot, allow_z))
    ops: list[PulseOp] = []
    phase = -plan.dropped_identity
    for sop in plan.ops:
        if abs(sop.angle) < ANGLE_EPS:
            continue
        spins = sop.s.support()
        axes = [sop.s.axis(spin) for spin in spins]
        if len(spins) == 1 and axes[0] == "z" and not allow_z:
            pre, post = frame(spins[0], "z")
            ops += (pre, Rotation(spins[0], "x", sop.angle), post)
        elif len(spins) == 1:
            ops.append(Rotation(spins[0], axes[0], sop.angle))
        else:
            wrappers = [frame(spin, axis) for spin, axis in zip(spins, axes) if axis != "z"]
            body, extra = _reduce(spins, sop.angle, flips)
            ops += [pre for pre, _ in wrappers] + body + [post for _, post in reversed(wrappers)]
            phase += extra
    seq = PulseSequence(plan.num_spins, ops, math.remainder(phase, 2 * math.pi))
    return peephole(seq) if merge else seq


def peephole(seq: PulseSequence) -> PulseSequence:
    """Merge directly adjacent pulses with the same target (angles add
    modulo 4*pi) and drop identity pulses.  Strictly adjacent: nothing is
    reordered, even across commuting neighbors.  Targets, (spin, axis) or
    (i, j), sit on a stack parallel to the output; a pulse is rebuilt only
    when its angle changed.
    """
    out: list[PulseOp] = []
    targets: list[tuple] = []
    for op in seq.ops:
        angle = wrap_angle(op.angle)
        if abs(angle) < ANGLE_EPS:
            continue
        target = (op.spin, op.axis) if isinstance(op, Rotation) else (op.i, op.j)
        if targets and targets[-1] == target:
            targets.pop()
            angle = wrap_angle(out.pop().angle + angle)
            if abs(angle) < ANGLE_EPS:
                continue
        if angle != op.angle:
            op = type(op)(*target, angle)
        out.append(op)
        targets.append(target)
    return PulseSequence(seq.num_spins, out, seq.global_phase)
