import numpy as np
import pytest

from spinpulse import gates, linalg, pauli, sim
from spinpulse.decompose import DecompositionPlan, FactorizedGenerator
from spinpulse.pulse import PulseSequence

from conftest import expm_series, random_hermitian, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_max_abs_diff_shape_check():
    with pytest.raises(ValueError):
        linalg.max_abs_diff(np.eye(2), np.eye(4))


def test_require_unitary():
    linalg.require_unitary(random_unitary(np.random.default_rng(3), 4), 1e-12)
    with pytest.raises(ValueError, match="not unitary"):
        linalg.require_unitary(np.diag([1.0, 1.0 + 1e-6]), 1e-9)
    with pytest.raises(ValueError, match="square"):
        linalg.require_unitary(np.eye(2, 3))


def test_eig_hadamard_like():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    decomp = linalg.eig_unitary(h)
    np.testing.assert_allclose(sorted(decomp.eigenvalues.real), [-1, 1], atol=1e-12)
    np.testing.assert_allclose(decomp.eigenvalues.imag, 0, atol=1e-12)


def test_eig_toffoli_spectrum():
    toffoli = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
    decomp = linalg.eig_unitary(toffoli)
    values = sorted(decomp.eigenvalues.real)
    np.testing.assert_allclose(values, [-1] + [1] * 7, atol=1e-12)


@pytest.mark.parametrize("name", ["cnot", "toffoli", "swap"])
def test_eig_of_hermitian_unitary_runs_one_eigh(monkeypatch, name):
    # u = u† makes h2 exactly zero, so the degenerate clusters of h1 (each
    # gate has one of dimension >= 2) need no second diagonalization.
    u = gates.GATES[name]()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    decomp = linalg.eig_unitary(u)
    assert calls == [u.shape]
    rebuilt = decomp.t.conj().T @ np.diag(decomp.eigenvalues) @ decomp.t
    assert linalg.max_abs_diff(rebuilt, u) < 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_eig_reconstruction(rng, dim):
    for _ in range(5):
        u = random_unitary(rng, dim)
        decomp = linalg.eig_unitary(u)
        t = decomp.t
        assert linalg.max_abs_diff(t @ t.conj().T, np.eye(dim)) < 1e-9
        rebuilt = t.conj().T @ np.diag(decomp.eigenvalues) @ t
        assert linalg.max_abs_diff(rebuilt, u) < 1e-9
        assert np.max(np.abs(np.abs(decomp.eigenvalues) - 1)) < 1e-9


def test_eig_degenerate_complex_pairs(rng):
    # cos(theta) is identical for all four eigenvalues; only the second
    # Hermitian stage can split them.
    v = random_unitary(rng, 4)
    u = v @ np.diag([1j, 1j, -1j, -1j]) @ v.conj().T
    decomp = linalg.eig_unitary(u)
    rebuilt = decomp.t.conj().T @ np.diag(decomp.eigenvalues) @ decomp.t
    assert linalg.max_abs_diff(rebuilt, u) < 1e-9


def test_eig_rejects_nonunitary():
    with pytest.raises(ValueError):
        linalg.eig_unitary(np.diag([2.0 + 0j, 1.0]))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1, 1], [0, 1]], dtype=complex),  # not normal
        np.array([[1, 1], [1, -1]], dtype=complex),  # normal, eigenvalues +-sqrt(2)
    ],
)
def test_eig_rejects_nonunitary_nondiagonal(m):
    with pytest.raises(ValueError, match="not unitary within tolerance"):
        linalg.eig_unitary(m)


def test_exp_zero_is_identity():
    np.testing.assert_array_equal(
        linalg.matrix_exp_hermitian(np.zeros((2, 2))), np.eye(2)
    )


def test_exp_diagonal():
    m = linalg.matrix_exp_hermitian(np.pi * np.diag([0.0, 1.0]))
    np.testing.assert_allclose(m, np.diag([1, -1]), atol=1e-12)


def test_exp_spin_x_closed_form():
    # exp(-i*phi*I_x) = cos(phi/2) - i*sin(phi/2)*sigma_x; at phi=pi this
    # is -i*sigma_x.
    m = linalg.matrix_exp_hermitian(np.pi * SX / 2)
    np.testing.assert_allclose(m, -1j * SX, atol=1e-12)


def test_exp_inverse_pair(rng):
    h = random_hermitian(rng, 8)
    product = linalg.matrix_exp_hermitian(h) @ linalg.matrix_exp_hermitian(-h)
    assert linalg.max_abs_diff(product, np.eye(8)) < 1e-9


def test_exp_matches_series_oracle(rng):
    for dim in (2, 4, 8):
        h = random_hermitian(rng, dim)
        np.testing.assert_allclose(
            linalg.matrix_exp_hermitian(h), expm_series(-1j * h), atol=1e-12
        )


def test_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.matrix_exp_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_num_spins_for_dim():
    assert linalg.num_spins_for_dim(8) == 3
    with pytest.raises(ValueError):
        linalg.num_spins_for_dim(6)


CEILING_CASES = {
    "cnot": lambda: gates.cnot(1, 11),
    "toffoli": lambda: gates.toffoli((1, 2), 3, 11),
    "swap": lambda: gates.swap(1, 2, 11),
    "cphase": lambda: gates.controlled_phase(1, 11),
    "fphase": lambda: gates.phase_flip([], 11),
    "simulate": lambda: sim.simulate(PulseSequence(11)),
    "simulate_plan": lambda: sim.simulate_plan(DecompositionPlan(11, (), True, "commuting")),
    "materialize": lambda: pauli.materialize(pauli.PauliString(11, 0, 1)),
    "factorized": lambda: FactorizedGenerator(((0.0, 0.0, 0.0, 1.0),) * 11).matrix(),
    "matrix": lambda: linalg.num_spins_for_dim(2**11),
}


@pytest.mark.parametrize("build", CEILING_CASES.values(), ids=CEILING_CASES.keys())
def test_one_spin_ceiling_before_any_full_size_allocation(build):
    with pytest.raises(ValueError, match="11 spins exceeds the compile limit 10"):
        build()
