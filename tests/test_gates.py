import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _bit(index, spin, num_spins):
    return (index >> (num_spins - spin)) & 1


def per_state_gate(name, spins, n, phi):
    """The gates' definition, one basis state b at a time: the flips and
    swap send b to one output state, cphase scales it by a phase."""
    dim = 2**n
    if name == "cphase":
        diag = np.ones(dim, dtype=complex)
        for b in range(dim):
            if _bit(b, spins[0], n) and _bit(b, spins[1], n):
                diag[b] = np.exp(1j * phi)
        return np.diag(diag)
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out = b
        if name == "swap":
            i, j = spins
            if _bit(b, i, n) != _bit(b, j, n):
                out = b ^ (1 << (n - i)) ^ (1 << (n - j))
        elif all(_bit(b, c, n) for c in spins[:-1]):  # controls, then the target
            out = b ^ (1 << (n - spins[-1]))
        m[out, b] = 1
    return m


BUILDERS = {
    "cnot": (2, lambda s, phi, n: gates.cnot(s[0], s[1], n)),
    "toffoli": (3, lambda s, phi, n: gates.toffoli(s[:2], s[2], n)),
    "swap": (2, lambda s, phi, n: gates.swap(s[0], s[1], n)),
    "cphase": (2, lambda s, phi, n: gates.controlled_phase(s[0], s[1], phi, n)),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.data())
def test_builders_match_per_state_definition(name, data):
    arity, build = BUILDERS[name]
    n = data.draw(st.integers(arity, 7), label="n")
    spins = data.draw(st.permutations(range(1, n + 1)), label="spins")[:arity]
    phi = data.draw(st.sampled_from([math.pi, 0.77, -2.5]), label="phi")
    num_spins = data.draw(st.sampled_from([None, n]), label="num_spins")
    built = build(spins, phi, num_spins)
    expected = per_state_gate(name, spins, num_spins or max(spins), phi)
    # bytes compare the dtype's layout and the signs of zeros too
    assert built.shape == expected.shape and built.dtype == expected.dtype
    assert built.tobytes() == expected.tobytes()
