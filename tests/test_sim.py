import numpy as np
import pytest

from spinpulse import linalg, pauli, sim
from spinpulse.pauli import PauliString
from spinpulse.pulse import Coupling, PulseSequence, Rotation

import backend_oracle


def test_rotation_closed_form():
    m = sim.simulate(PulseSequence(1, [Rotation(1, "x", np.pi)]))
    np.testing.assert_allclose(m, -1j * pauli.SIGMA["x"], atol=1e-15)


def test_coupling_closed_form():
    m = sim.simulate(PulseSequence(2, [Coupling(1, 2, np.pi / 2)]))
    expected = np.diag(
        np.exp(1j * np.array([-np.pi / 4, np.pi / 4, np.pi / 4, -np.pi / 4]))
    )
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_zero_angle_rotation_is_identity():
    m = sim.simulate(PulseSequence(3, [Rotation(2, "y", 0.0)]))
    np.testing.assert_array_equal(m, np.eye(8))


def test_op_matrix_range_check():
    with pytest.raises(ValueError):
        sim.simulate(PulseSequence(2, [Rotation(3, "x", 0.1)]))
    with pytest.raises(ValueError):
        sim.simulate(PulseSequence(3, [Coupling(1, 4, 0.1)]))


def test_op_matrix_matches_exponential_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        if n > 1 and rng.random() < 0.5:
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            op = Coupling(int(i), int(j), angle)
            s = backend_oracle.z_on(n, [int(i), int(j)])
        else:
            spin = int(rng.integers(1, n + 1))
            axis = "xyz"[rng.integers(3)]
            op = Rotation(spin, axis, angle)
            s = PauliString.single(n, spin, axis)
        oracle = backend_oracle.matrix_exp_hermitian(angle * pauli.materialize(s))
        assert linalg.max_abs_diff(sim.simulate(PulseSequence(n, [op])), oracle) < 1e-12


def test_simulate_empty_sequence():
    np.testing.assert_array_equal(sim.simulate(PulseSequence(2)), np.eye(4))


def test_simulate_ordering_law(rng):
    for _ in range(10):
        ops = [
            Rotation(int(rng.integers(1, 3)), "xyz"[rng.integers(3)], float(rng.uniform(-3, 3)))
            for _ in range(6)
        ]
        cut = int(rng.integers(0, 7))
        first, second = ops[:cut], ops[cut:]
        whole = sim.simulate(PulseSequence(2, ops))
        split = sim.simulate(PulseSequence(2, second)) @ sim.simulate(
            PulseSequence(2, first)
        )
        assert linalg.max_abs_diff(whole, split) < 1e-12


def test_equal_up_to_phase_detects_phase():
    m = np.diag([1, 1j]).astype(complex)
    comparison = sim.equal_up_to_phase(np.exp(1j * np.pi / 7) * m, m, 1e-12)
    assert comparison.equal
    assert comparison.phase == pytest.approx(np.pi / 7)


def test_equal_up_to_phase_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        sim.equal_up_to_phase(np.eye(2), np.eye(4))


def test_equal_up_to_phase_zero_matrix():
    with pytest.raises(ValueError):
        sim.equal_up_to_phase(np.eye(2), np.zeros((2, 2)))


def test_equal_up_to_phase_symmetric_and_reflexive(rng):
    from conftest import random_unitary

    a = random_unitary(rng, 4)
    assert sim.equal_up_to_phase(a, a, 1e-14).equal
    b = np.exp(1j * 0.4) * a
    assert sim.equal_up_to_phase(a, b, 1e-9).equal
    assert sim.equal_up_to_phase(b, a, 1e-9).equal
    c = random_unitary(rng, 4)
    assert not sim.equal_up_to_phase(a, c, 1e-9).equal
    assert not sim.equal_up_to_phase(c, a, 1e-9).equal


def test_different_magnitudes_rejected():
    comparison = sim.equal_up_to_phase(2 * np.eye(2), np.eye(2), 1e-9)
    assert not comparison.equal


def test_equal_up_to_phase_trace_orthogonal():
    # tr(sigma_z† sigma_x) = 0 leaves no phase to pick; the comparison
    # still answers instead of raising.
    comparison = sim.equal_up_to_phase(pauli.SIGMA["x"], pauli.SIGMA["z"], 1e-9)
    assert not comparison.equal
    assert comparison.residual == pytest.approx(1.0)
