import numpy as np
import pytest

from spinpulse import gates, generator, linalg, pauli, reduction, sim
from spinpulse.pulse import PulseSequence


def test_toffoli_matrix():
    expected = np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]
    np.testing.assert_array_equal(gates.toffoli(), expected)


def test_swap_matrix():
    expected = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_array_equal(gates.swap(1, 2), expected)


def test_cnot_matrix():
    np.testing.assert_array_equal(gates.cnot(1, 2), np.eye(4)[[0, 1, 3, 2]])
    # control on the second spin flips the first bit
    np.testing.assert_array_equal(gates.cnot(2, 1), np.eye(4)[[0, 3, 2, 1]])


def test_cnot_matches_pulse_sequence():
    simulated = sim.simulate(PulseSequence(2, reduction.cnot_sequence(1, 2)))
    assert sim.equal_up_to_phase(gates.cnot(1, 2), simulated, 1e-12).equal


def test_cnot_embedded_in_larger_register():
    m = gates.cnot(1, 3, num_spins=3)
    assert m.shape == (8, 8)
    state = np.zeros(8)
    state[0b100] = 1  # control set, target clear
    np.testing.assert_array_equal(m @ state, np.eye(8)[0b101])


def test_controlled_phase_matrix():
    phi = 0.77
    m = gates.controlled_phase(1, 2, phi)
    np.testing.assert_allclose(m, np.diag([1, 1, 1, np.exp(1j * phi)]), atol=1e-15)


def test_phase_flip_matrix():
    m = gates.phase_flip([0b101, 0b110], 3)
    expected = np.diag([1, 1, 1, 1, 1, -1, -1, 1]).astype(complex)
    np.testing.assert_array_equal(m, expected)


def test_phase_flip_range_check():
    with pytest.raises(ValueError):
        gates.phase_flip([8], 3)


@pytest.mark.parametrize(
    "matrix",
    [
        gates.cnot(1, 2),
        gates.toffoli(),
        gates.swap(1, 2),
        gates.controlled_phase(1, 2, 0.3),
        gates.phase_flip([1, 2], 2),
    ],
)
def test_all_gates_unitary(matrix):
    linalg.require_unitary(matrix, 1e-14)


@pytest.mark.parametrize(
    "matrix", [gates.cnot(1, 2), gates.toffoli(), gates.swap(1, 2)]
)
def test_involutions_square_to_identity(matrix):
    assert linalg.max_abs_diff(matrix @ matrix, np.eye(matrix.shape[0])) < 1e-14


@pytest.mark.parametrize(
    "matrix",
    [gates.swap(1, 2), gates.phase_flip([0, 3], 2), gates.phase_flip([2, 5], 3)],
)
def test_generators_expand_into_commuting_terms(matrix):
    g = generator.extract_generator(matrix)
    expansion = generator.expand(g)
    terms = list(expansion.coeffs)
    assert all(
        pauli.commutes(terms[i], terms[j])
        for i in range(len(terms))
        for j in range(i + 1, len(terms))
    )


def test_invalid_indices_rejected():
    with pytest.raises(ValueError):
        gates.cnot(1, 1)
    with pytest.raises(ValueError):
        gates.cnot(1, 3, num_spins=2)
    with pytest.raises(ValueError):
        gates.toffoli(controls=(1, 2, 3))
