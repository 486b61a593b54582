"""Named target unitaries used as compiler inputs and golden references.

Spin 1 is the most significant bit of the basis index and the low bit
value 0 is the I_z = +1/2 state, so "control active" means the control bit
reads 1.  Each gate is built from its action on basis indices: the
permutations from the map b -> out[b], the diagonals from a bit mask.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from . import linalg


def _basis(spins: Sequence[int], num_spins: int | None) -> tuple[np.ndarray, list[int]]:
    """Basis indices 0..2**n - 1 and the bit of each spin (n: num_spins or max spin)."""
    n = num_spins if num_spins is not None else max(spins)
    linalg.require_spin_count(n)
    if len(set(spins)) != len(spins):
        raise ValueError(f"spin indices must be distinct, got {spins}")
    for spin in spins:
        if not 1 <= spin <= n:
            raise ValueError(f"spin {spin} out of range 1..{n}")
    return np.arange(2**n), [1 << (n - spin) for spin in spins]


def _permutation(out: np.ndarray) -> np.ndarray:
    """Permutation matrix taking basis state b to out[b]."""
    m = np.zeros((out.size, out.size), dtype=complex)
    m[out, np.arange(out.size)] = 1
    return m


def cnot(control: int = 1, target: int = 2, num_spins: int | None = None) -> np.ndarray:
    """Controlled flip of `target` when `control` reads 1."""
    b, (c, t) = _basis((control, target), num_spins)
    return _permutation(np.where(b & c, b ^ t, b))


def toffoli(
    controls: Sequence[int] = (1, 2), target: int = 3, num_spins: int | None = None
) -> np.ndarray:
    """Doubly controlled flip (both controls reading 1)."""
    if len(controls) != 2:
        raise ValueError("toffoli takes exactly two controls")
    b, (c1, c2, t) = _basis((*controls, target), num_spins)
    return _permutation(np.where(b & (c1 | c2) == c1 | c2, b ^ t, b))


def swap(i: int = 1, j: int = 2, num_spins: int | None = None) -> np.ndarray:
    b, (bi, bj) = _basis((i, j), num_spins)
    return _permutation(np.where((b & bi == 0) != (b & bj == 0), b ^ bi ^ bj, b))


def controlled_phase(
    i: int = 1, j: int = 2, phi: float = math.pi, num_spins: int | None = None
) -> np.ndarray:
    """diag with e^{i*phi} where spins i and j both read 1."""
    b, (bi, bj) = _basis((i, j), num_spins)
    diag = np.ones(b.size, dtype=complex)
    diag[b & (bi | bj) == bi | bj] = np.exp(1j * phi)
    return np.diag(diag)


def phase_flip(marked: Iterable[int], num_spins: int) -> np.ndarray:
    """Diagonal of +/-1 flipping the sign of the marked basis states, the
    oracle shape used by amplitude-amplification searches."""
    linalg.require_spin_count(num_spins)
    dim = 2**num_spins
    diag = np.ones(dim, dtype=complex)
    for state in marked:
        if not 0 <= state < dim:
            raise ValueError(f"marked state {state} out of range 0..{dim - 1}")
        diag[state] = -1
    return np.diag(diag)


# Builders by CLI name: `spinpulse --gate` offers exactly these names, and
# fills each builder's parameters from the options of the same name.
GATES = {
    "cnot": cnot,
    "toffoli": toffoli,
    "swap": swap,
    "cphase": controlled_phase,
    "fphase": phase_flip,
}
