"""Independent correctness oracle for emitted pulse sequences.

It reads the sequence text exactly as a user receives it (`spins N`,
`# phase p`, `R spin axis angle`, `J i j angle`), applies each pulse to
seeded random probe vectors from the textbook definitions, and compares
e^{i*phase} * sequence against the target on those probes.  Nothing here
imports spinpulse's simulator, parser or pulse types.

Conventions: spin 1 is the most significant bit of the basis index; bit 0
is the sigma_z = +1 state; R(axis, a) = exp(-i*a*sigma_axis/2) and
J(i, j, a) = exp(-i*a*sigma_z^i*sigma_z^j/2); ops apply in listed order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
Z_SIGNS = np.array([1.0, -1.0])
PROBES = 4


class Parsed(NamedTuple):
    num_spins: int
    phase: float
    ops: list[tuple]  # ("R", spin, axis, angle) or ("J", i, j, angle)


def parse(text: str) -> Parsed:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    head = lines[0].split()
    if head[0] != "spins":
        raise ValueError(f"bad header {lines[0]!r}")
    n, phase, ops = int(head[1]), 0.0, []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "#":
            if parts[1:2] == ["phase"]:
                phase = float(parts[2])
        elif parts[0] == "R":
            ops.append(("R", int(parts[1]), parts[2], float(parts[3])))
        elif parts[0] == "J":
            ops.append(("J", int(parts[1]), int(parts[2]), float(parts[3])))
        else:
            raise ValueError(f"unknown line {line!r}")
    return Parsed(n, phase, ops)


def rotation(axis: str, angle: float) -> np.ndarray:
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * PAULI[axis]


def coupling_phases(angle: float) -> np.ndarray:
    """2x2 table of exp(-i*a*z_i*z_j/2) over the two spins' bits."""
    return np.exp(-0.5j * angle * np.outer(Z_SIGNS, Z_SIGNS))


def apply(parsed: Parsed, vectors: np.ndarray) -> np.ndarray:
    """Sequence (ledger not applied) times each column of `vectors`."""
    n = parsed.num_spins
    psi = vectors.reshape((2,) * n + (vectors.shape[1],))
    for op in parsed.ops:
        if op[0] == "R":
            _, spin, axis, angle = op
            psi = np.moveaxis(np.tensordot(rotation(axis, angle), psi, ([1], [spin - 1])), 0, spin - 1)
        else:
            _, i, j, angle = op
            shape = [1] * (n + 1)
            shape[i - 1] = shape[j - 1] = 2
            psi = psi * coupling_phases(angle).reshape(shape)
    return psi.reshape(vectors.shape)


def probes(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim, PROBES)) + 1j * rng.standard_normal((dim, PROBES))
    return v / np.linalg.norm(v, axis=0)


class Residuals(NamedTuple):
    ledger: float  # max over probes of |e^{i*phase} S v - U v|
    free: float  # the same with the best-fitting global phase instead


def residuals(text: str, u: np.ndarray, seed: int = 0) -> Residuals:
    parsed = parse(text)
    dim = 2**parsed.num_spins
    if u.shape != (dim, dim):
        raise ValueError(f"sequence has {parsed.num_spins} spins, target is {u.shape}")
    v = probes(dim, seed)
    got = apply(parsed, v)
    want = u @ v
    ledger = np.exp(1j * parsed.phase) * got - want
    fit = np.vdot(got, want)
    best = (fit / abs(fit) if abs(fit) > 0 else 1.0) * got - want
    return Residuals(
        float(np.max(np.linalg.norm(ledger, axis=0))),
        float(np.max(np.linalg.norm(best, axis=0))),
    )


def failure(res: Residuals, exact: bool, verified: bool | None, tol: float) -> str | None:
    """Why a compile counts as failed, or None: an exact claim needs the
    ledger residual within 10*tol, a verified claim the phase-free one."""
    if exact and res.ledger > 10 * tol:
        return f"exact but ledger residual {res.ledger:.3e}"
    if verified and res.free > 10 * tol:
        return f"verified but reference residual {res.free:.3e}"
    return None
