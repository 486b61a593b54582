"""Property tests of the vectorized kernels against their textbook
definitions: the butterfly expansion against the trace formula, in-place
simulation against a product of kron-built pulse matrices, and the
vectorized commutation check against the pairwise one."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpulse import generator, linalg, pauli, sim
from spinpulse.generator import GeneratorExpansion
from spinpulse.pauli import PauliString
from spinpulse.pulse import Coupling, PulseSequence, Rotation

from conftest import random_hermitian

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), seeds)
def test_expand_matches_trace_definition(n, seed):
    dim = 2**n
    g = random_hermitian(np.random.default_rng(seed), dim)
    expansion = generator.expand(g, tol=1e-300)
    assert abs(expansion.identity_coeff - np.trace(g).real / dim) < 1e-12
    for s in pauli.enumerate_basis(n)[1:]:
        # trace(g @ m) without the matrix product: sum of g * m^T
        expected = np.sum(g * pauli.materialize(s).T).real / 2 ** (n - 2)
        assert abs(expansion.coeffs.get(s, 0.0) - expected) < 1e-12


def kron_pulse_matrix(op, n):
    """Pulse matrix built by Kronecker products from the 2x2 factors."""
    eye = np.eye(2, dtype=complex)
    if isinstance(op, Rotation):
        half = op.angle / 2
        factors = [eye] * n
        factors[op.spin - 1] = math.cos(half) * eye - 1j * math.sin(half) * pauli.SIGMA[op.axis]
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        return m
    zz = pauli.materialize(PauliString.z_on(n, [op.i, op.j])) * 2
    return math.cos(op.angle / 2) * np.eye(2**n) - 1j * math.sin(op.angle / 2) * zz


@st.composite
def pulse_sequences(draw):
    n = draw(st.integers(1, 6))
    angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
    spins = st.integers(1, n)
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.lists(spins, min_size=2, max_size=2, unique=True))
            ops.append(Coupling(i, j, draw(angles)))  # either index order
        else:
            ops.append(Rotation(draw(spins), draw(st.sampled_from("xyz")), draw(angles)))
    return PulseSequence(n, ops)


@settings(max_examples=60, deadline=None)
@given(pulse_sequences())
def test_simulate_matches_kron_product(seq):
    expected = np.eye(2**seq.num_spins, dtype=complex)
    for op in seq.ops:
        expected = kron_pulse_matrix(op, seq.num_spins) @ expected
    assert linalg.max_abs_diff(sim.simulate(seq), expected) < 1e-12


@st.composite
def expansions(draw):
    n = draw(st.integers(1, 4))
    # Restricting some sets to {0, z} makes all-commuting sets common.
    alphabet = draw(st.sampled_from(["0z", "0xyz"]))
    words = draw(
        st.lists(st.text(alphabet, min_size=n, max_size=n), max_size=8, unique=True)
    )
    return GeneratorExpansion(n, {PauliString.from_string(w): 1.0 for w in words})


@settings(max_examples=100, deadline=None)
@given(expansions())
def test_all_commuting_matches_pairwise(expansion):
    words = list(expansion.coeffs)
    pairwise = all(
        pauli.commutes(words[i], words[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )
    assert expansion.all_commuting() == pairwise


def test_all_commuting_rejects_dense_generator():
    # 4**7 - 1 terms; the parity matrix alone would be 16383 x 16383.
    g = random_hermitian(np.random.default_rng(7), 2**7)
    expansion = generator.expand(g)
    assert len(expansion.coeffs) > 2**7
    assert not expansion.all_commuting()


def test_all_commuting_accepts_largest_commuting_set():
    # Every z-word on 4 spins, identity included: 2**4 words, all commuting.
    words = [format(k, "04b").replace("1", "z") for k in range(16)]
    expansion = GeneratorExpansion(4, {PauliString.from_string(w): 1.0 for w in words})
    assert expansion.all_commuting()
