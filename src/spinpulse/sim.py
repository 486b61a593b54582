"""Matrix simulation of pulse sequences and global-phase comparison.

Time order versus matrix order is the one convention everything hinges on:
the first op of a sequence is applied first, so it is the rightmost factor
of the matrix product.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .pulse import Coupling, PulseSequence, Rotation


def _rotation(axis: str, angle: float) -> np.ndarray:
    """exp(-i*angle*sigma_axis/2) = cos(angle/2)*E - i*sin(angle/2)*sigma_axis,
    written entry by entry, each zero part signed as that matrix expression
    signs it, so the two agree bit for bit."""
    half = angle / 2
    c, s = math.cos(half), math.sin(half)
    z = c * 0.0
    if axis == "x":
        return np.array([[c, complex(z, 0.0 - s)], [complex(z, 0.0 - s), c]])
    if axis == "y":
        return np.array([[c, z - s], [z + s, c]], dtype=complex)
    return np.array([[complex(c, 0.0 - s), z], [z, complex(c, 0.0 + s)]])


def simulate(seq: PulseSequence) -> np.ndarray:
    """Product of op matrices, last time step leftmost; empty -> identity.
    The sequence's global-phase ledger is not applied.

    Each pulse acts on the rows of the running matrix in place; no
    full-size pulse matrix is built.  A rotation applies
    cos(a/2)*E - i*sin(a/2)*sigma_axis to the row pairs that differ only in
    its spin's bit, through a (2**(spin-1), 2, rest) view of the matrix.  A
    coupling is diagonal, e^{-i*a/2} on rows where the two bits agree and
    e^{+i*a/2} where they differ, so it scales each row by that phase (the
    rows' +-1 signs are computed once per spin pair)."""
    n = seq.num_spins
    linalg.require_spin_count(n)
    m = np.eye(2**n, dtype=complex)
    rows = np.arange(2**n)
    sign = functools.cache(lambda i, j: 2 * (((rows >> (n - i)) ^ (rows >> (n - j))) & 1) - 1)
    for op in seq.ops:
        if isinstance(op, Rotation):
            if op.spin > n:
                raise ValueError(f"spin {op.spin} out of range 1..{n}")
            pairs = m.reshape(2 ** (op.spin - 1), 2, -1)
            pairs[:] = _rotation(op.axis, op.angle) @ pairs
        elif isinstance(op, Coupling):
            if op.j > n:
                raise ValueError(f"spin {op.j} out of range 1..{n}")
            m *= np.exp(1j * op.angle / 2 * sign(op.i, op.j))[:, None]
        else:
            raise TypeError(f"unknown pulse op {op!r}")
    return m


class PhaseComparison(NamedTuple):
    equal: bool
    phase: float
    residual: float


def equal_up_to_phase(
    a: np.ndarray, b: np.ndarray, tol: float = linalg.DEFAULT_TOL
) -> PhaseComparison:
    """Decide a == e^{i*phase} * b, every entry within tol.

    The phase is that of tr(b† a), which brings e^{i*phase} * b closest to
    a in the Frobenius norm; it averages modulus noise over all entries
    instead of reading it off one.  Trace-orthogonal inputs get phase 0;
    only an all-zero b raises.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not b.any():
        raise ValueError("cannot compare against the zero matrix")
    overlap = np.vdot(b, a)
    factor = overlap / abs(overlap) if overlap else 1.0
    residual = linalg.max_abs_diff(a, factor * b)
    return PhaseComparison(residual < tol, float(np.angle(factor)), residual)
