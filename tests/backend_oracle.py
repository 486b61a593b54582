"""Naive forms of the pulse back end, kept as an oracle: `reduce_plan` as
it stood before its one-pass rewrite (with the recursive
`reduce_coupling_order` and a second pass that expands z rotations),
`peephole` as a backward scan over commuting pulses repeated to a
fixpoint (built on `dataclasses.replace`), and `simulate` as it stood
before its rewrite (one `np.eye` per rotation).  Only the rounding floor
ANGLE_EPS is shared with the package.  tests/test_kernels.py requires the
package's passes to reproduce these bit for bit.

Below them are the dense references the other tests build targets from:
the Pauli matrices, the basis in order, all-z words, the exponential of a
Hermitian matrix, an expansion summed back into a matrix, a plan multiplied
out word by word, and generators given in product form."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from spinpulse import linalg, pauli
from spinpulse.decompose import DecompositionPlan, SingleOp
from spinpulse.generator import GeneratorExpansion
from spinpulse.pauli import PauliString
from spinpulse.pulse import Coupling, PulseOp, PulseSequence, Rotation
from spinpulse.reduction import ANGLE_EPS

HALF_PI = math.pi / 2
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
    core = SingleOp(z_on(op.s.num_spins, spins), op.angle)
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
    if op.s != z_on(op.s.num_spins, spins):
        raise ValueError(f"{op.s} is not an all-z word")
    if not spins:
        raise ValueError("zero-weight word")
    if len(spins) == 1:
        return [Rotation(spins[0], "z", op.angle)], 0.0
    if len(spins) == 2:
        return [Coupling(spins[0], spins[1], op.angle)], 0.0
    inner = SingleOp(z_on(op.s.num_spins, spins[1:]), op.angle)
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


def _commute(a: PulseOp, b: PulseOp) -> bool:
    """Couplings commute with each other and with z rotations, rotations on
    different spins commute, and an x/y rotation commutes with a coupling
    off its spin."""
    if isinstance(a, Coupling) and isinstance(b, Coupling):
        return True
    if isinstance(a, Rotation) and isinstance(b, Rotation):
        return a.spin != b.spin or a.axis == b.axis
    rotation, coupling = (a, b) if isinstance(a, Rotation) else (b, a)
    return rotation.axis == "z" or rotation.spin not in (coupling.i, coupling.j)


def _merge_pass(ops: list[PulseOp]) -> list[PulseOp]:
    """Each pulse scans back over the pulses it commutes with and merges
    into the first one with its target, else it is appended."""
    out: list[PulseOp] = []
    for op in ops:
        angle = wrap_angle(op.angle)
        if abs(angle) < ANGLE_EPS:
            continue
        current = replace(op, angle=angle)
        for k in range(len(out) - 1, -1, -1):
            if _same_target(out[k], current):
                angle = wrap_angle(out[k].angle + current.angle)
                if abs(angle) < ANGLE_EPS:
                    del out[k]
                else:
                    out[k] = replace(current, angle=angle)
                current = None
                break
            if not _commute(out[k], current):
                break
        if current is not None:
            out.append(current)
    return out


def peephole(seq: PulseSequence) -> PulseSequence:
    """Merge pulses with the same target across commuting neighbours (angles
    add modulo 4*pi) and drop identity pulses, repeating the scan until it
    changes nothing."""
    ops = list(seq.ops)
    while True:
        merged = _merge_pass(ops)
        if merged == ops:
            return PulseSequence(seq.num_spins, merged, seq.global_phase)
        ops = merged


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
            pairs[:] = _exp_sigma(op.angle, SIGMA[op.axis]) @ pairs
        elif isinstance(op, Coupling):
            if op.j > n:
                raise ValueError(f"spin {op.j} out of range 1..{n}")
            differ = ((rows >> (n - op.i)) ^ (rows >> (n - op.j))) & 1
            m *= np.exp(1j * op.angle / 2 * (2 * differ - 1))[:, None]
        else:
            raise TypeError(f"unknown pulse op {op!r}")
    return m


SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def enumerate_basis(num_spins: int) -> list[PauliString]:
    """All 4**n axis words in deterministic basis order."""
    return [PauliString.from_index(i, num_spins) for i in range(4**num_spins)]


def z_on(num_spins: int, spins) -> PauliString:
    """All-z word on the given 1-indexed spins."""
    return PauliString.from_string(
        "".join("z" if spin in spins else "0" for spin in range(1, num_spins + 1))
    )


def matrix_exp_hermitian(h: np.ndarray, tol: float = linalg.DEFAULT_TOL) -> np.ndarray:
    """exp(-i*h) for Hermitian h, via eigendecomposition."""
    h = linalg.require_square(h)
    if linalg.max_abs_diff(h, h.conj().T) >= tol:
        raise ValueError(f"matrix is not Hermitian within tolerance {tol}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def reconstruct(expansion: GeneratorExpansion) -> np.ndarray:
    """Inverse of expand: materialize and sum every term, identity included."""
    dim = 2**expansion.num_spins
    g = expansion.identity_coeff * np.eye(dim, dtype=complex)
    for word, value in expansion.coeffs.items():
        g = g + value * pauli.materialize(word)
    return g


def simulate_plan(plan: DecompositionPlan) -> np.ndarray:
    """Product of exp(-i*angle*B) over the plan's single operators, last op
    leftmost.  The dropped identity weight is not applied.

    2B is a sigma-string, so each factor has the closed form of _exp_sigma.
    """
    m = np.eye(2**plan.num_spins, dtype=complex)
    for op in plan.ops:
        m = _exp_sigma(op.angle, 2 * pauli.materialize(op.s)) @ m
    return m


@dataclass(frozen=True)
class FactorizedGenerator:
    """Generator given as a product over spins of
    (phi0 * E + phi_x I_x + phi_y I_y + phi_z I_z), one 4-vector
    (phi0, phi_x, phi_y, phi_z) per spin.  Its exponential has a product
    eigenbasis, which the factorized route of decompose.plan compiles."""

    per_spin: tuple[tuple[float, float, float, float], ...]

    @property
    def num_spins(self) -> int:
        return len(self.per_spin)

    def matrix(self) -> np.ndarray:
        """Dense Hermitian matrix: the factors act on different spins, so it
        is the kron of the 2x2 factors phi0*E + (phi . sigma)/2, spin 1 first."""
        g = np.ones((1, 1), dtype=complex)
        for phi0, *spin_part in self.per_spin:
            factor = phi0 * np.eye(2, dtype=complex)
            for axis, value in zip("xyz", spin_part):
                factor += value * SIGMA[axis] / 2
            g = np.kron(g, factor)
        return g
