import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpulse import linalg, pauli
from spinpulse.pauli import PauliString

import backend_oracle


def word(text):
    return PauliString.from_string(text)


def test_materialize_single_z():
    m = pauli.materialize(word("z0"))
    np.testing.assert_array_equal(np.diag(m), [0.5, 0.5, -0.5, -0.5])


def test_materialize_weight_two():
    m = pauli.materialize(word("xy"))
    expected = np.kron(backend_oracle.SIGMA["x"], backend_oracle.SIGMA["y"]) / 2
    np.testing.assert_array_equal(m, expected)


def test_materialize_identity_word():
    np.testing.assert_array_equal(pauli.materialize(word("00")), np.eye(4) / 2)


def test_materialize_guard():
    with pytest.raises(ValueError):
        pauli.materialize(word("0" * 11))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_square_is_quarter_identity(n):
    for s in backend_oracle.enumerate_basis(n):
        m = pauli.materialize(s)
        assert linalg.max_abs_diff(m @ m, np.eye(2**n) / 4) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthogonality_scan(n):
    basis = backend_oracle.enumerate_basis(n)
    mats = [pauli.materialize(s) for s in basis]
    norm = 2 ** (n - 2)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            value = np.trace(a @ b)
            expected = norm if i == j else 0.0
            assert abs(value - expected) < 1e-12


def test_commutes_examples():
    assert not pauli.commutes(word("x0"), word("y0"))
    assert pauli.commutes(word("xx"), word("yy"))
    assert pauli.commutes(word("zz0"), word("0zz"))


def test_commutes_length_mismatch():
    with pytest.raises(ValueError):
        pauli.commutes(word("x"), word("xy"))


@pytest.mark.parametrize("n", [1, 2])
def test_commutes_matches_matrix_oracle(n):
    basis = backend_oracle.enumerate_basis(n)
    mats = {s: pauli.materialize(s) for s in basis}
    for a in basis:
        for b in basis:
            bracket = mats[a] @ mats[b] - mats[b] @ mats[a]
            assert pauli.commutes(a, b) == (np.max(np.abs(bracket)) < 1e-12)


def test_commutator_examples():
    assert pauli.commutator(word("x"), word("y")) == (word("z"), 1j)
    assert pauli.commutator(word("xz"), word("yz")) == (word("z0"), 1j)
    assert pauli.commutator(word("zz"), word("z0")) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_reconstruction(n):
    basis = backend_oracle.enumerate_basis(n)
    mats = {s: pauli.materialize(s) for s in basis}
    for a in basis:
        for b in basis:
            c = pauli.commutator(a, b)
            bracket = mats[a] @ mats[b] - mats[b] @ mats[a]
            if c is None:
                assert np.max(np.abs(bracket)) < 1e-12
            else:
                result, coefficient = c
                assert coefficient in (1j, -1j)
                expected = coefficient * mats[result]
                assert linalg.max_abs_diff(bracket, expected) < 1e-12


def test_enumerate_basis_small():
    assert [str(s) for s in backend_oracle.enumerate_basis(1)] == ["0", "x", "y", "z"]
    basis = backend_oracle.enumerate_basis(2)
    assert len(basis) == 16
    by_weight = {}
    for s in basis:
        by_weight[s.weight] = by_weight.get(s.weight, 0) + 1
    assert by_weight == {0: 1, 1: 6, 2: 9}
    assert len(backend_oracle.enumerate_basis(3)) == 64


def test_enumerate_basis_is_sorted():
    basis = backend_oracle.enumerate_basis(2)
    assert basis == sorted(basis)


def test_string_round_trip():
    s = word("z0x")
    assert str(s) == "z0x"
    assert PauliString.from_string(str(s)) == s
    assert s.weight == 2
    assert s.support() == [1, 3]


def test_invalid_axes_rejected():
    with pytest.raises(ValueError):
        PauliString.from_string("a")
    with pytest.raises(ValueError):
        PauliString.from_string("")


@st.composite
def words(draw, count=1):
    """`count` random words on one register of 1..5 spins."""
    n = draw(st.integers(1, 5))
    indices = st.integers(0, 4**n - 1)
    return [PauliString.from_index(draw(indices), n) for _ in range(count)]


def bracket(a, b):
    ma, mb = pauli.materialize(a), pauli.materialize(b)
    return ma @ mb - mb @ ma


@settings(max_examples=200, deadline=None)
@given(words(count=2))
def test_commutes_agrees_with_matrix_commutator(pair):
    a, b = pair
    assert pauli.commutes(a, b) == (np.max(np.abs(bracket(a, b))) == 0)


@settings(max_examples=200, deadline=None)
@given(words(count=2))
def test_commutator_matches_matrix_commutator(pair):
    a, b = pair
    c = pauli.commutator(a, b)
    if c is None:
        assert pauli.commutes(a, b)
    else:
        result, coefficient = c
        assert coefficient in (1j, -1j)
        expected = coefficient * pauli.materialize(result)
        np.testing.assert_array_equal(bracket(a, b), expected)


@given(st.text("0xyz", min_size=1, max_size=5))
def test_string_round_trip_property(text):
    s = PauliString.from_string(text)
    assert str(s) == text
    assert s.weight == sum(a != "0" for a in text)
    assert s.support() == [i + 1 for i, a in enumerate(text) if a != "0"]
    assert [s.axis(spin) for spin in range(1, len(text) + 1)] == list(text)


@given(st.data())
def test_index_constructor_inverts_basis_index(data):
    n = data.draw(st.integers(1, 5))
    index = data.draw(st.integers(0, 4**n - 1))
    s = PauliString.from_index(index, n)
    assert s.index == index
    # The index's base-4 digits name the slots, spin 1 first.
    digits = np.base_repr(index, 4).zfill(n)
    assert str(s) == "".join("0xyz"[int(d)] for d in digits)


@given(words(count=8))
def test_sort_order_is_basis_index_order(ws):
    by_index = sorted(ws, key=lambda s: s.index)
    assert sorted(ws) == by_index
    # Equal-length digit strings sort like the base-4 numbers they spell.
    digits = str.maketrans("0xyz", "0123")
    assert [str(s).translate(digits) for s in by_index] == sorted(
        str(s).translate(digits) for s in ws
    )
