"""Dense complex linear algebra for small spin-system operators.

All matrices are plain complex numpy arrays of shape (2**n, 2**n) in the
computational basis, spin 1 being the most significant bit.  Sizes stay
small (n <= 10), so everything is done densely and eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

# Largest register of the CLI and the library: expanding a generator takes
# 4**n coefficients, simulating a sequence a 2**n x 2**n matrix.
MAX_SPINS = 10


def require_spin_count(n: int) -> None:
    """ValueError unless 1 <= n <= MAX_SPINS; runs before any 2**n allocation."""
    if n < 1:
        raise ValueError(f"spin count must be positive, got {n}")
    if n > MAX_SPINS:
        raise ValueError(f"{n} spins exceeds the compile limit {MAX_SPINS}")


def require_square(m: np.ndarray) -> np.ndarray:
    """m as a complex array; ValueError unless it is a square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def num_spins_for_dim(dim: int) -> int:
    """n with 2**n == dim; ValueError unless dim is a power of two and
    1 <= n <= MAX_SPINS."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    require_spin_count(n)
    return n


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def require_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """ValueError unless u is square and u @ u† is within tol of the
    identity.  Not part of the compile tolerance model (see
    pipeline.CompileOptions): a compile tests unitarity in
    generator.extract_generator."""
    u = require_square(u)
    if max_abs_diff(u @ u.conj().T, np.eye(u.shape[0])) >= tol:
        raise ValueError(f"matrix is not unitary within tolerance {tol}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a unitary: t's rows are eigen-bras, so t @ u @ t† is
    diagonal and equals diag(eigenvalues)."""

    eigenvalues: np.ndarray
    t: np.ndarray


def eig_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Orthonormal eigendecomposition of a unitary matrix.

    Diagonalizes the Hermitian pair h1 = (u + u†)/2 and h2 = (u - u†)/2i:
    h1 first, then h2 restricted to each degenerate eigenspace of h1 (h1
    eigenvalues within 10*tol of their neighbours count as one), unless h2
    is exactly zero.  The result is a common orthonormal eigenbasis, valid
    for any normal matrix, using only Hermitian eigensolvers.

    Unitarity is read off the result instead of a separate u @ u† check: u
    is unitary iff a unitary t diagonalizes it (u is normal) and every
    eigenvalue has modulus one.  Raises ValueError when the off-diagonal
    weight t leaves or some ||lambda| - 1| exceeds 10*tol.
    """
    u = require_square(u)
    dim = u.shape[0]
    h1 = (u + u.conj().T) / 2
    h2 = (u - u.conj().T) / 2j
    w, v = np.linalg.eigh(h1)

    # h2 is exactly zero when u = u† (cnot, toffoli, swap); every cluster's
    # eigh would then return the identity.
    if h2.any():
        start = 0
        for stop in range(1, dim + 1):
            if stop < dim and w[stop] - w[stop - 1] <= 10 * tol:
                continue
            if stop - start > 1:
                block = v[:, start:stop]
                sub = block.conj().T @ h2 @ block
                sub = (sub + sub.conj().T) / 2
                _, rot = np.linalg.eigh(sub)
                v[:, start:stop] = block @ rot
            start = stop

    t = v.conj().T
    diag = t @ u @ t.conj().T
    eigenvalues = np.diag(diag).copy()
    # A non-normal input leaves off-diagonal weight no unitary t removes.
    require_unitary_spectrum(eigenvalues, max_abs_diff(diag, np.diag(eigenvalues)), tol)
    return EigenDecomposition(eigenvalues, t)


def require_unitary_spectrum(eigenvalues: np.ndarray, off_weight: float, tol: float) -> None:
    """ValueError unless the weight a diagonalizing basis leaves off the
    diagonal and every ||lambda| - 1| stay within 10*tol."""
    moduli = np.max(np.abs(np.abs(eigenvalues) - 1)) if eigenvalues.size else 0.0
    if max(off_weight, moduli) > 10 * tol:
        raise ValueError(f"matrix is not unitary within tolerance {10 * tol:.1e}")

