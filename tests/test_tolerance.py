"""The tolerance model (pipeline.CompileOptions): every threshold of a
compile derives from `tol`, so an accepted input either takes an
approximate route or verifies within 10*tol.  Inputs are drawn a few
multiples of tol away from exact gates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpulse import gates, generator, linalg, pauli
from spinpulse.pauli import PauliString
from spinpulse.pipeline import CompileOptions, compile_unitary

import backend_oracle

TOLS = [1e-12, 1e-10, 1e-9, 1e-7, 1e-6]
SCALES = [0.05, 0.3, 0.9, 3, 9, 30]
PERTURBATIONS = ["unitary", "additive", "modulus"]


HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def exact_bases(n):
    """Three gates on exact routes, then one with a product eigenbasis off
    the z axis, which only the frame route compiles exactly: the Hadamard,
    or a Hadamard on spin 2 controlled by spin 1."""
    if n == 1:
        return [np.eye(2), np.diag([1, -1]), np.diag([1, 1j]), HADAMARD]
    controlled_hadamard = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), HADAMARD)
    return [
        np.eye(2**n),
        gates.cnot(1, 2, n),
        gates.controlled_phase(1, 2, 1e-3, n),
        np.kron(controlled_hadamard, np.eye(2 ** (n - 2))),
    ]


def near_edge(n, base, tol, scale, kind, seed):
    """Exact gate `base` of exact_bases(n), moved by about scale*tol:
    left-multiplied by exp(-i*scale*tol*H) (unitary), plus scale*tol*M
    (additive), or with its columns rescaled by 1 + scale*tol*U(-1, 1)
    (modulus); H and M are random with largest entry 1."""
    u = exact_bases(n)[base].astype(complex)
    rng = np.random.default_rng(seed)
    dim = 2**n
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "unitary":
        h = (m + m.conj().T) / 2
        return backend_oracle.matrix_exp_hermitian(scale * tol * h / np.max(np.abs(h))) @ u
    if kind == "additive":
        return u + scale * tol * m / np.max(np.abs(m))
    return u * (1 + scale * tol * rng.uniform(-1, 1, dim))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    base=st.integers(0, 3),
    tol=st.sampled_from(TOLS),
    scale=st.sampled_from(SCALES),
    kind=st.sampled_from(PERTURBATIONS),
    seed=st.integers(0, 2**32 - 1),
)
# Exact routes whose verification failed (exit 3) under thresholds that
# did not follow tol: a coefficient floor of 1e-10 at tol 1e-12, and a
# comparison phase read off one entry of the matrix.
@example(n=2, base=1, tol=1e-12, scale=30, kind="unitary", seed=0)
@example(n=2, base=0, tol=1e-9, scale=9, kind="unitary", seed=3)
@example(n=3, base=1, tol=1e-9, scale=9, kind="modulus", seed=2)
def test_near_edge_input_verifies_unless_approximate(n, base, tol, scale, kind, seed):
    u = near_edge(n, base, tol, scale, kind, seed)
    try:
        # One product-formula step: the approximate route's depth is not
        # under test.
        report = compile_unitary(u, CompileOptions(tol=tol, trotter_steps=1))
    except ValueError:
        assert kind != "unitary", "a unitary input was rejected"
        return
    assert report.verified is not None
    assert report.verified or not report.exact


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("n", [2, 3])
def test_frame_route_splits_at_tol(n, tol):
    # The controlled Hadamard turned by exp(-i*scale*tol*xx): xx has no
    # product eigenbasis with it, so its frame residue grows with scale.
    u = exact_bases(n)[3]
    h = pauli.materialize(PauliString.from_string("xx" + "0" * (n - 2)))
    options = CompileOptions(tol=tol, trotter_steps=1)
    below = compile_unitary(backend_oracle.matrix_exp_hermitian(0.1 * tol * h) @ u, options)
    assert below.strategy == "factorized" and below.exact and below.verified
    above = compile_unitary(backend_oracle.matrix_exp_hermitian(10 * tol * h) @ u, options)
    assert above.strategy == "trotter" and not above.exact


def test_phase_with_modulus_noise_compiles():
    # ||lambda| - 1| = 3e-9 is inside 10*tol, as the 4.5e-9 off-diagonal
    # of a non-normal [[1, 4.5e-9], [0, 1]] is.
    u = np.diag([1, np.exp(0.3j) * (1 + 3e-9)])
    report = compile_unitary(u)
    assert report.exact and report.verified
    assert report.verification_residual == pytest.approx(3e-9, rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    tol=st.sampled_from(TOLS),
    small=st.integers(1, 64),
    large=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, tol=1e-9, small=64, large=0, seed=0)
def test_dropped_words_move_generator_by_less_than_half_tol(n, tol, small, large, seed):
    # Each small word is below tol, but together they need not be: the
    # words expand drops must stay below tol/2 in operator norm at any n.
    rng = np.random.default_rng(seed)
    indices = rng.choice(np.arange(1, 4**n), size=min(small + large, 4**n - 1), replace=False)
    scales = np.where(np.arange(indices.size) < small, tol, 1.0)
    g = sum(
        scale * rng.uniform(-1, 1) * pauli.materialize(PauliString.from_index(int(index), n))
        for index, scale in zip(indices, scales)
    )
    dropped = g - backend_oracle.reconstruct(generator.expand(g, tol))
    assert np.linalg.norm(dropped, 2) < tol / 2


@pytest.mark.parametrize("tol", TOLS)
def test_many_commuting_words_below_tol_verify(tol):
    # u = exp(-i*0.49*tol*(sum of the 31 non-identity z-words on 5 spins)).
    # The sum is 31 on |00000> and -1 elsewhere.  Every basis coefficient
    # (0.98*tol) is below tol, but dropping all 31 moves u by about 15*tol.
    phases = np.full(32, -1.0)
    phases[0] = 31.0
    u = np.diag(np.exp(-0.49j * tol * phases))
    report = compile_unitary(u, CompileOptions(tol=tol))
    assert report.exact and report.verified


@pytest.mark.parametrize("tol", TOLS)
def test_chained_eigenvalues_keep_clusters_narrow(tol):
    # u = exp(-i*0.9*tol*h) with h the sum of +-sigma_w over all 63
    # non-identity z-words on 6 spins, signs from default_rng(1).  Sorted by
    # angle, neighbouring eigenvalues lie within 10*tol of each other over a
    # span far wider than that; one phase for the whole chain would miss u
    # by 15*tol and reject it as not unitary.
    n = 6
    signs = np.random.default_rng(1).choice([-1.0, 1.0], size=2**n - 1)
    h = sum(
        sign * 2 * np.diag(pauli.materialize(PauliString(n, 0, z))).real
        for z, sign in enumerate(signs, start=1)
    )
    u = np.diag(np.exp(-0.9j * tol * h))
    report = compile_unitary(u, CompileOptions(tol=tol))
    assert report.exact and report.verified
