"""Named target unitaries used as compiler inputs and golden references.

Spin 1 is the most significant bit of the basis index and the low bit
value 0 is the I_z = +1/2 state, so "control active" means the control bit
reads 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np


def _bit(index: int, spin: int, num_spins: int) -> int:
    return (index >> (num_spins - spin)) & 1


def _check_spins(spins: Sequence[int], num_spins: int) -> None:
    if len(set(spins)) != len(spins):
        raise ValueError(f"spin indices must be distinct, got {spins}")
    for spin in spins:
        if not 1 <= spin <= num_spins:
            raise ValueError(f"spin {spin} out of range 1..{num_spins}")


def _resolve_spins(spins: Sequence[int], num_spins: int | None) -> int:
    n = num_spins if num_spins is not None else max(spins)
    _check_spins(spins, n)
    return n


def cnot(control: int = 1, target: int = 2, num_spins: int | None = None) -> np.ndarray:
    """Controlled flip of `target` when `control` reads 1."""
    n = _resolve_spins((control, target), num_spins)
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out = b ^ (1 << (n - target)) if _bit(b, control, n) else b
        m[out, b] = 1
    return m


def toffoli(
    controls: Sequence[int] = (1, 2), target: int = 3, num_spins: int | None = None
) -> np.ndarray:
    """Doubly controlled flip (both controls reading 1)."""
    if len(controls) != 2:
        raise ValueError("toffoli takes exactly two controls")
    n = _resolve_spins((*controls, target), num_spins)
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        if all(_bit(b, c, n) for c in controls):
            out = b ^ (1 << (n - target))
        else:
            out = b
        m[out, b] = 1
    return m


def swap(i: int = 1, j: int = 2, num_spins: int | None = None) -> np.ndarray:
    n = _resolve_spins((i, j), num_spins)
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        bi, bj = _bit(b, i, n), _bit(b, j, n)
        out = b
        if bi != bj:
            out = b ^ (1 << (n - i)) ^ (1 << (n - j))
        m[out, b] = 1
    return m


def controlled_phase(
    i: int = 1, j: int = 2, phi: float = math.pi, num_spins: int | None = None
) -> np.ndarray:
    """diag with e^{i*phi} where spins i and j both read 1."""
    n = _resolve_spins((i, j), num_spins)
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    for b in range(dim):
        if _bit(b, i, n) and _bit(b, j, n):
            diag[b] = np.exp(1j * phi)
    return np.diag(diag)


def phase_flip(marked: Iterable[int], num_spins: int) -> np.ndarray:
    """Diagonal of +/-1 flipping the sign of the marked basis states, the
    oracle shape used by amplitude-amplification searches."""
    dim = 2**num_spins
    diag = np.ones(dim, dtype=complex)
    for state in marked:
        if not 0 <= state < dim:
            raise ValueError(f"marked state {state} out of range 0..{dim - 1}")
        diag[state] = -1
    return np.diag(diag)


# Builders by CLI name: `spinpulse --gate` offers exactly these names.
GATES = {
    "cnot": cnot,
    "toffoli": toffoli,
    "swap": swap,
    "cphase": controlled_phase,
    "fphase": phase_flip,
}
