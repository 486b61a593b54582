import numpy as np
import pytest

import backend_oracle


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / 2


def random_unitary(rng, dim, scale=1.0):
    return backend_oracle.matrix_exp_hermitian(random_hermitian(rng, dim, scale))


def haar_unitary(seed, dim):
    """QR of a complex Gaussian with R's diagonal phases folded into Q."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def expm_series(a):
    """Matrix exponential by scaling-and-squaring plus Taylor series; an
    oracle independent of any eigendecomposition."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1 else 0
    a = a / 2**squarings
    total = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total
