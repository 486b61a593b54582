import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpulse import formats, gates, linalg, pauli, pipeline, reduction, sim
from spinpulse.decompose import FactorizedGenerator
from spinpulse.generator import BranchConvention
from spinpulse.pauli import PauliString
from spinpulse.pulse import Rotation


def compile_ok(u, **kwargs):
    report = pipeline.compile_unitary(u, pipeline.CompileOptions(**kwargs))
    assert report.verified is None or report.verified
    return report


def test_toffoli_compiles_exactly():
    report = compile_ok(gates.toffoli())
    assert report.exact and report.strategy == "commuting"
    assert report.verified and report.verification_residual < 1e-9


def test_identity_compiles_to_empty_sequence():
    report = compile_ok(np.eye(4, dtype=complex))
    assert report.sequence.ops == []
    assert report.exact and report.verified


def test_xy_interaction_compiles_exactly():
    g = np.pi / 4 * (
        pauli.materialize(PauliString.from_string("xx"))
        + pauli.materialize(PauliString.from_string("yy"))
    )
    u = linalg.matrix_exp_hermitian(g)
    report = compile_ok(u)
    assert report.exact and report.strategy == "commuting"
    assert report.verification_residual < 1e-8


@pytest.mark.parametrize(
    "u",
    [
        gates.cnot(1, 2),
        gates.cnot(2, 1),
        gates.cnot(1, 3, num_spins=4),
        gates.toffoli(),
        gates.toffoli(controls=(2, 3), target=1, num_spins=4),
        gates.swap(1, 2),
        gates.swap(2, 4, num_spins=4),
        gates.controlled_phase(1, 2, np.pi / 3),
        gates.phase_flip([0b01, 0b10], 2),
        gates.phase_flip([0b0101, 0b1100], 4),
    ],
)
def test_gate_library_compiles_exactly(u):
    report = compile_ok(u)
    assert report.exact
    assert report.verified and report.verification_residual < 1e-8


def test_deterministic_output():
    first = pipeline.compile_unitary(gates.toffoli())
    second = pipeline.compile_unitary(gates.toffoli())
    assert formats.format_sequence(first.sequence) == formats.format_sequence(
        second.sequence
    )


def test_allow_z_option_passthrough():
    report = compile_ok(gates.toffoli(), allow_z=True)
    assert any(
        isinstance(op, Rotation) and op.axis == "z" for op in report.sequence.ops
    )
    default = compile_ok(gates.toffoli())
    assert not any(
        isinstance(op, Rotation) and op.axis == "z" for op in default.sequence.ops
    )


def test_trotter_path_reports_approximate():
    # a generic one-spin rotation expands into three mutually anticommuting
    # terms, which the dispatcher hands to the product formula
    g = (
        0.3 * pauli.materialize(PauliString.from_string("x"))
        + 0.4 * pauli.materialize(PauliString.from_string("y"))
        + 0.5 * pauli.materialize(PauliString.from_string("z"))
    )
    u = linalg.matrix_exp_hermitian(g)
    report = pipeline.compile_unitary(
        u, pipeline.CompileOptions(trotter_steps=256)
    )
    assert not report.exact and report.strategy == "trotter"
    assert report.verification_residual is not None
    assert report.verification_residual < 0.01  # approximate, but close


def test_verification_can_be_disabled():
    report = pipeline.compile_unitary(
        gates.toffoli(), pipeline.CompileOptions(verify=False)
    )
    assert report.verified is None and report.verification_residual is None


def test_verification_skipped_above_limit():
    report = pipeline.compile_unitary(
        gates.cnot(1, 2), pipeline.CompileOptions(max_verify_spins=1)
    )
    assert report.verified is None


def test_rejects_non_unitary():
    with pytest.raises(ValueError):
        pipeline.compile_unitary(np.diag([1.0, 2.0]).astype(complex))


def test_rejects_bad_options():
    with pytest.raises(ValueError):
        pipeline.CompileOptions(tol=0.0)
    for tol in (1e-15, 0.5 * reduction.ANGLE_EPS, math.nan):
        with pytest.raises(ValueError, match="angle floor"):
            pipeline.CompileOptions(tol=tol)
    assert pipeline.CompileOptions(tol=reduction.ANGLE_EPS).tol == reduction.ANGLE_EPS
    with pytest.raises(ValueError):
        pipeline.CompileOptions(trotter_steps=0)


def test_rejects_infinite_tol():
    # At tol=inf a cnot compiled to no pulses and still read exact and verified.
    with pytest.raises(ValueError, match="finite"):
        pipeline.CompileOptions(tol=math.inf)


def test_factorized_controlled_phase():
    fg = FactorizedGenerator(((np.pi / 2, 0, 0, -np.pi), (0.5, 0, 0, -1)))
    report = pipeline.compile_factorized(fg)
    assert report.exact and report.strategy == "factorized"
    assert report.verified and report.verification_residual < 1e-9
    target = np.diag([1, 1, 1, -1]).astype(complex)
    assert sim.equal_up_to_phase(target, sim.simulate(report.sequence), 1e-9).equal


def test_factorized_single_spin_x():
    fg = FactorizedGenerator(((0.0, 0.8, 0.0, 0.0),))
    report = pipeline.compile_factorized(fg)
    assert report.sequence.ops == [Rotation(1, "x", pytest.approx(0.8))]
    assert report.verified


def test_factorized_toffoli_style():
    fg = FactorizedGenerator(
        (
            (np.pi / 2, 0, 0, -np.pi),
            (0.5, 0, 0, -1),
            (0.5, -1, 0, 0),
        )
    )
    report = pipeline.compile_factorized(fg)
    assert report.verified
    comparison = sim.equal_up_to_phase(
        gates.toffoli(), sim.simulate(report.sequence), 1e-9
    )
    assert comparison.equal


def test_global_phase_ledger_is_exact_for_commuting_route():
    for use_pseudo in (True, False):
        report = pipeline.compile_unitary(
            gates.toffoli(), pipeline.CompileOptions(use_pseudo_cnot=use_pseudo)
        )
        simulated = sim.simulate(report.sequence)
        assert (
            linalg.max_abs_diff(
                gates.toffoli(), np.exp(1j * report.sequence.global_phase) * simulated
            )
            < 1e-9
        )


def _diagonal(rng):
    n = int(rng.integers(1, 4))
    return "commuting", np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2**n)))


def _two_anticommuting_words(rng):
    """exp(-i*g) for g = c0*Id + c1*A + c2*B with A, B anticommuting; its
    eigenphases c0 +- sqrt(c1**2 + c2**2) stay inside (-pi, pi)."""
    n = int(rng.integers(1, 4))
    words = pauli.enumerate_basis(n)[1:]
    a = words[int(rng.integers(len(words)))]
    partners = [w for w in words if not pauli.commutes(a, w)]
    b = partners[int(rng.integers(len(partners)))]
    c1, c2 = rng.choice([-1, 1], 2) * rng.uniform(0.1, 1, 2)
    g = rng.uniform(-0.5, 0.5) * np.eye(2**n) + c1 * pauli.materialize(a)
    g = g + c2 * pauli.materialize(b)
    return "euler", linalg.matrix_exp_hermitian(g)


def _embedded_gate(rng):
    n = int(rng.integers(3, 6))
    spins = [int(s) + 1 for s in rng.choice(n, 3, replace=False)]
    if rng.integers(2):
        u = gates.cnot(spins[0], spins[1], n)
    else:
        u = gates.toffoli(tuple(spins[:2]), spins[2], n)
    return "commuting", np.exp(1j * rng.uniform(-math.pi, math.pi)) * u


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([_diagonal, _two_anticommuting_words, _embedded_gate]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(itertools.product([False, True], repeat=2))),
    st.sampled_from(list(BranchConvention)),
)
def test_global_phase_ledger_is_exact(build, seed, flags, branch):
    """e^{i*phase} * simulate(seq) == u with no phase freedom, on every
    exact route the input kind selects and for every reduction option."""
    strategy, u = build(np.random.default_rng(seed))
    allow_z, use_pseudo_cnot = flags
    options = pipeline.CompileOptions(
        branch=branch, allow_z=allow_z, use_pseudo_cnot=use_pseudo_cnot, verify=False
    )
    report = pipeline.compile_unitary(u, options)
    assert report.exact and report.strategy == strategy
    ledger = np.exp(1j * report.sequence.global_phase) * sim.simulate(report.sequence)
    assert linalg.max_abs_diff(ledger, u) <= 10 * options.tol


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 4), min_size=1, max_size=4),
    st.sampled_from(list(itertools.product([False, True], repeat=2))),
)
def test_factorized_route_is_ledger_exact(per_spin, flags):
    """The conjugation route, whose core goes through generator.expand,
    rebuilds exp(-i*g) of the factorized generator with no phase freedom."""
    allow_z, use_pseudo_cnot = flags
    options = pipeline.CompileOptions(allow_z=allow_z, use_pseudo_cnot=use_pseudo_cnot)
    fg = FactorizedGenerator(tuple(per_spin))
    report = pipeline.compile_factorized(fg, options)
    assert report.exact and report.strategy == "factorized" and report.verified
    target = linalg.matrix_exp_hermitian(fg.matrix())
    ledger = np.exp(1j * report.sequence.global_phase) * sim.simulate(report.sequence)
    assert linalg.max_abs_diff(ledger, target) <= 10 * options.tol
