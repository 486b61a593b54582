"""Rewriting of a decomposition plan into allowed pulses.

The allowed set is single-spin x/y rotations and the two-spin Ising
coupling.  `reduce_plan` rewrites a plan in one pass and does both of the
paper's replacements there.  Axes transformation: every x or y axis of a
word is conjugated to z by a quarter-turn frame, and a bare z rotation
becomes a composite of x/y pulses.  Coupling order reduction: conjugating
by a (pseudo) controlled flip on a spin pair raises the coupling order of
the inner block by one, so an n-spin z coupling is one coupling inside n-2
flip sandwiches.  A run of consecutive z-words commutes, so it is reduced
as one phase polynomial: a parity network tracks the parity each spin holds
under the flips entered so far and emits each word as one z rotation or one
coupling once two held parities make it up (GraySynth, Amy, Azimzadeh &
Mosca, Quantum Sci. Technol. 4:015002, 2019), then undoes the flips.  A
word alone in its run gets the paper's ladder.  `peephole` then merges
pulses on the same target across the pulses they commute with, which
cancels the sandwiches that neighbouring runs share.

All sequences here are in time order.  Angles are meaningful modulo 4*pi
(a 2*pi rotation is -identity, a physical phase).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict

import numpy as np

from .decompose import DecompositionPlan
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
# takes z onto x or y (the axes transformation in reduce_plan) and, for z,
# x onto z (composite_z).
_FRAME_TURNS = {"x": ("y", -HALF_PI), "y": ("x", HALF_PI), "z": ("y", HALF_PI)}


def _frame(spin: int, axis: str) -> tuple[Rotation, Rotation]:
    """Time-ordered (pre, post) frame pulses of `axis` on `spin`."""
    turn, angle = _FRAME_TURNS[axis]
    return Rotation(spin, turn, angle), Rotation(spin, turn, -angle)


def composite_z(spin: int, angle: float) -> list[PulseOp]:
    """z rotation as a composite of allowed pulses (phase-exact)."""
    pre, post = _frame(spin, "z")
    return [pre, Rotation(spin, "x", angle), post]


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


def _synthesize(run, flips, z_rotation, ops: list[PulseOp]) -> float:
    """Append the pulses of a run of all-z words, (spins, angle) pairs, as
    one parity network, and return the known phase its flips add.

    Spin k holds a parity p_k, the z mask its Z stands for under the flips
    entered so far; entering flip (i, j) sets p_j ^= p_i, since its
    sandwich maps Z_j to Z_i*Z_j and fixes every other Z.  A word is kept
    in held-parity coordinates c, the spins whose parities XOR to its mask,
    and is emitted as soon as it has one coordinate (a z rotation) or two
    (one coupling, no flip around it); entering (i, j) sets c_i ^= c_j.
    While words are pending, the flip that brings the most weight-3 words
    to weight 2 goes in, then the one that lowers the words' summed weight
    most, ties to the lowest (i, j).  When no flip does either, the lightest
    pending word is laddered down to weight 3, which the next flip exposes.
    The run closes by undoing the entered flips in reverse order.  Words
    after the last one of weight three or more go out after the undo, so
    they stay next to the pulses that follow the run (a frame route's
    closing z rotations, for one).
    A one-word run is the ladder of the paper's coupling order reduction:
    flips (s1, s2), ..., (s_{w-2}, s_{w-1}), then the last pair's coupling.
    """

    def emit(spins, angle):
        if len(spins) == 1:
            z_rotation(spins[0], angle)
        else:
            ops.append(Coupling(spins[0], spins[1], angle))

    heavy = [k for k, (spins, _) in enumerate(run) if len(spins) > 2]
    if not heavy:
        for spins, angle in run:
            emit(spins, angle)
        # No flips; -0.0 adds nothing to the ledger, not even a sign.
        return 0.0 if any(len(spins) == 2 for spins, _ in run) else -0.0
    run, tail = run[: heavy[-1] + 1], run[heavy[-1] + 1 :]
    active = sorted({spin for spins, _ in run for spin in spins})
    column = {spin: k for k, spin in enumerate(active)}
    c = np.zeros((len(run), len(active)), dtype=np.int64)
    for row, (spins, _) in enumerate(run):
        c[row, [column[spin] for spin in spins]] = 1
    pending = np.arange(len(run))
    undo: list[list[PulseOp]] = []
    phase = 0.0

    def enter(p, q):
        nonlocal phase
        c[:, p] ^= c[:, q]
        before, after, level_phase = flips(active[p], active[q])
        ops.extend(before)
        undo.append(after)
        phase += level_phase

    while True:
        weight = c.sum(axis=1)
        ready = weight <= 2
        if ready.any():
            for row, coords in zip(pending[ready].tolist(), c[ready].tolist()):
                emit([spin for spin, bit in zip(active, coords) if bit], run[row][1])
            keep = ~ready
            c, pending, weight = c[keep], pending[keep], weight[keep]
        if not len(pending):
            break
        # score[p, q] ranks flip (p, q) by the weight-3 words it brings to
        # weight 2, then by how far it lowers the summed weight:
        # 2*|words holding p and q| - |words holding q|, within [-m, m].
        m = len(pending)
        three = c[weight == 3]
        shared = c.T @ c
        score = (three.T @ three) * (2 * m + 1) + 2 * shared - shared.diagonal()
        np.fill_diagonal(score, -m - 1)
        p, q = divmod(int(score.argmax()), len(active))
        if score[p, q] > 0:
            enter(p, q)
            continue
        coords = np.flatnonzero(c[weight.argmin()]).tolist()
        for p, q in zip(coords, coords[1:-2]):
            enter(p, q)
    for after in reversed(undo):
        ops.extend(after)
    for spins, angle in tail:
        emit(spins, angle)
    return phase


def reduce_plan(
    plan: DecompositionPlan,
    allow_z: bool = False,
    use_pseudo_cnot: bool = True,
    merge: bool = True,
) -> PulseSequence:
    """The one rewriting of a plan into pulses: weight-1 x/y ops pass
    through, each maximal run of consecutive all-z ops is synthesized as one
    parity network (`_synthesize`), every other word is axis-transformed and
    its z core order-reduced as a one-word run inside its frames, z
    rotations are expanded unless allowed, and `peephole` merges the pulses
    unless `merge` is False.
    The ledger is phase-exact: pseudo flips add no phase, full flips add
    their sequence phase twice per level.

    One pass emits the pulses.  Frames and flip sandwiches (z expanded) are
    built once per spin or pair in this call and shared, as pulses are frozen.
    """
    frame = functools.cache(_frame)
    flips = functools.cache(lambda i, j: _flips(i, j, use_pseudo_cnot, allow_z))
    ops: list[PulseOp] = []

    def z_rotation(spin, angle):
        if allow_z:
            ops.append(Rotation(spin, "z", angle))
        else:
            pre, post = frame(spin, "z")
            ops.extend((pre, Rotation(spin, "x", angle), post))

    phase = -plan.dropped_identity
    live = [sop for sop in plan.ops if abs(sop.angle) >= ANGLE_EPS]
    for diagonal, group in itertools.groupby(live, key=lambda sop: not sop.s.x):
        if diagonal:
            run = [(sop.s.support(), sop.angle) for sop in group]
            phase += _synthesize(run, flips, z_rotation, ops)
            continue
        for sop in group:
            spins = sop.s.support()
            axes = [sop.s.axis(spin) for spin in spins]
            if len(spins) == 1:
                ops.append(Rotation(spins[0], axes[0], sop.angle))
                continue
            wrappers = [frame(spin, axis) for spin, axis in zip(spins, axes) if axis != "z"]
            ops += [pre for pre, _ in wrappers]
            phase += _synthesize([(spins, sop.angle)], flips, z_rotation, ops)
            ops += [post for _, post in reversed(wrappers)]
    seq = PulseSequence(plan.num_spins, ops, math.remainder(phase, 2 * math.pi))
    return peephole(seq) if merge else seq


def peephole(seq: PulseSequence) -> PulseSequence:
    """Merge each pulse into the latest earlier pulse with the same target,
    (spin, axis) or (i, j), when every pulse in between commutes with it;
    angles add modulo 4*pi, and identity pulses are dropped.  Besides its
    own target, a pulse commutes with:

        coupling i-j    couplings, z rotations, x/y rotations off i and j
        z rotation      couplings, z rotations, rotations on other spins
        x/y rotation    rotations on other spins, couplings off its spin

    The later pulse slides back past commuting ones to the earlier slot, so
    the merge is exact.  One pass keeps, per target, a stack of its live
    slots, and per spin the slots of its x/y rotations and of its diagonal
    pulses (z rotations and couplings).  A cancelled slot turns None: it
    leaves its target's and x/y stacks at once and a diagonal stack when
    that is next read, which exposes the pulses before it to later merges.
    The pass is its own fixpoint: what blocks a pulse cannot be cancelled
    later, since the pulse that would cancel it would have to slide past
    the blocked one.  Angles are wrapped only outside (-2*pi, 2*pi], the
    range on which wrap_angle is the identity.
    """
    tau = math.tau
    out: list[PulseOp | None] = []
    live: dict[tuple, list[int]] = defaultdict(list)
    xy: dict[int, list[int]] = defaultdict(list)
    diagonal: dict[int, list[int]] = defaultdict(list)
    for op in seq.ops:
        angle = op.angle
        if not -tau < angle <= tau:
            angle = wrap_angle(angle)
        if abs(angle) < ANGLE_EPS:
            continue
        if type(op) is Rotation:
            spin, axis = op.spin, op.axis
            slots = live[spin, axis]
            transverse = axis != "z"
            if slots:
                k = slots[-1]
                if transverse:
                    on = diagonal[spin]
                    while on and out[on[-1]] is None:
                        on.pop()
                    free = xy[spin][-1] == k and (not on or on[-1] < k)
                else:
                    on = xy[spin]
                    free = not on or on[-1] < k
                if free:
                    angle = out[k].angle + angle
                    if not -tau < angle <= tau:
                        angle = wrap_angle(angle)
                    if abs(angle) >= ANGLE_EPS:
                        out[k] = Rotation(spin, axis, angle)
                        continue
                    out[k] = None
                    slots.pop()
                    if transverse:
                        xy[spin].pop()
                    continue
            if angle != op.angle:
                op = Rotation(spin, axis, angle)
            (xy if transverse else diagonal)[spin].append(len(out))
        else:
            i, j = op.i, op.j
            slots = live[i, j]
            if slots:
                k = slots[-1]
                on_i, on_j = xy[i], xy[j]
                if (not on_i or on_i[-1] < k) and (not on_j or on_j[-1] < k):
                    angle = out[k].angle + angle
                    if not -tau < angle <= tau:
                        angle = wrap_angle(angle)
                    if abs(angle) >= ANGLE_EPS:
                        out[k] = Coupling(i, j, angle)
                        continue
                    out[k] = None
                    slots.pop()
                    continue
            if angle != op.angle:
                op = Coupling(i, j, angle)
            diagonal[i].append(len(out))
            diagonal[j].append(len(out))
        slots.append(len(out))
        out.append(op)
    return PulseSequence(seq.num_spins, [op for op in out if op is not None], seq.global_phase)
