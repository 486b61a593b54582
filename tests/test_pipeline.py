import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpulse import (
    decompose,
    formats,
    gates,
    generator,
    linalg,
    pauli,
    pipeline,
    reduction,
    sim,
)
from spinpulse.generator import BranchConvention
from spinpulse.pauli import PauliString
from spinpulse.pulse import Rotation

import backend_oracle
from backend_oracle import FactorizedGenerator
from conftest import haar_unitary


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
    u = backend_oracle.matrix_exp_hermitian(g)
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
    # a Haar 2-spin unitary has no product eigenbasis, so no exact route
    # applies and the dispatcher hands it to the product formula
    report = pipeline.compile_unitary(
        haar_unitary(7, 4), pipeline.CompileOptions(trotter_steps=256)
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


def compile_exp(fg):
    """compile_unitary of exp(-i*g) for a factorized generator g."""
    return pipeline.compile_unitary(backend_oracle.matrix_exp_hermitian(fg.matrix()))


def test_factorized_controlled_phase():
    report = compile_exp(FactorizedGenerator(((np.pi / 2, 0, 0, -np.pi), (0.5, 0, 0, -1))))
    assert report.exact and report.strategy == "commuting"
    assert report.verified and report.verification_residual < 1e-9
    target = np.diag([1, 1, 1, -1]).astype(complex)
    assert sim.equal_up_to_phase(target, sim.simulate(report.sequence), 1e-9).equal


def test_factorized_single_spin_x():
    report = compile_exp(FactorizedGenerator(((0.0, 0.8, 0.0, 0.0),)))
    assert report.sequence.ops == [Rotation(1, "x", pytest.approx(0.8))]
    assert report.verified


def test_factorized_toffoli_style():
    report = compile_exp(
        FactorizedGenerator(
            (
                (np.pi / 2, 0, 0, -np.pi),
                (0.5, 0, 0, -1),
                (0.5, -1, 0, 0),
            )
        )
    )
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
    words = backend_oracle.enumerate_basis(n)[1:]
    a = words[int(rng.integers(len(words)))]
    partners = [w for w in words if not pauli.commutes(a, w)]
    b = partners[int(rng.integers(len(partners)))]
    c1, c2 = rng.choice([-1, 1], 2) * rng.uniform(0.1, 1, 2)
    g = rng.uniform(-0.5, 0.5) * np.eye(2**n) + c1 * pauli.materialize(a)
    g = g + c2 * pauli.materialize(b)
    return "euler", backend_oracle.matrix_exp_hermitian(g)


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


def assert_ledger_exact(u, options):
    """Exact, and e^{i*phase} * simulate(seq) == u within 10*tol with no
    phase fitted."""
    report = pipeline.compile_unitary(u, options)
    assert report.exact and report.verified is not False
    ledger = np.exp(1j * report.sequence.global_phase) * sim.simulate(report.sequence)
    assert linalg.max_abs_diff(ledger, u) <= 10 * options.tol
    return report


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 4), min_size=1, max_size=4),
    st.sampled_from(list(itertools.product([False, True], repeat=2))),
)
@example(per_spin=[(0.0, 0.0, 1.0, 1e-09), (1.0, 1.0, 1.0, 0.75)], flags=(False, False))
def test_factorized_route_is_ledger_exact(per_spin, flags):
    """A factorized generator has a product eigenbasis, so plan takes an
    exact route on its expansion, the frame route unless another exact
    route comes first, and the reduced sequence rebuilds exp(-i*g) with no
    phase freedom.

    Except at the tol edge: when expand spends its drop budget on some
    words of a spin whose axis tilts by about tol and keeps the others (the
    example: zx and zz dropped, z0 and zy kept), what is kept has no
    product eigenbasis within tol, and the plan takes the product formula
    and says so.  Rounding noise alone spends far less than tol/10."""
    allow_z, use_pseudo_cnot = flags
    tol = linalg.DEFAULT_TOL
    g = FactorizedGenerator(tuple(per_spin)).matrix()
    expansion = generator.expand(g, tol)
    plan = decompose.plan(expansion, tol=tol)
    if not plan.exact:
        every = generator.expand(g, reduction.ANGLE_EPS).coeffs
        dropped = sum(abs(c) for w, c in every.items() if w not in expansion.coeffs)
        assert dropped > tol / 10
        return
    seq = reduction.reduce_plan(plan, allow_z=allow_z, use_pseudo_cnot=use_pseudo_cnot)
    ledger = np.exp(1j * seq.global_phase) * sim.simulate(seq)
    assert linalg.max_abs_diff(ledger, backend_oracle.matrix_exp_hermitian(g)) <= 10 * tol


# Per-spin frames: Haar, or axis-aligned (identity, flip, Hadamard, a
# quarter turn about x), or the identity on an idle spin.
_ALIGNED = [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2),
]


@st.composite
def product_eigenbasis_unitaries(draw):
    """R D R-dagger with R a product of one-spin unitaries and D diagonal:
    its phases drawn from a few values (degenerate D) that include +-pi.
    Returns u, its generator R diag(phases) R-dagger and the spins left
    idle."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idle = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    r = np.ones((1, 1))
    for spin in range(n):
        kind = draw(st.sampled_from(["haar", "aligned"]))
        if spin in idle:
            factor = np.eye(2)
        elif kind == "haar":
            factor = haar_unitary(int(rng.integers(2**32)), 2)
        else:
            factor = _ALIGNED[int(rng.integers(len(_ALIGNED)))]
        r = np.kron(r, factor)
    levels = draw(st.integers(1, 4))
    palette = np.concatenate([[np.pi, -np.pi], rng.uniform(-np.pi, np.pi, levels)])
    phases = palette[rng.integers(len(palette), size=2 ** (n - len(idle)))]
    # Idle spins: D is the identity on them.
    axes = [1 if spin in idle else 2 for spin in range(n)]
    d = np.broadcast_to(phases.reshape(axes), (2,) * n).reshape(-1)
    return (r * np.exp(-1j * d)) @ r.conj().T, (r * d) @ r.conj().T, idle


@settings(max_examples=100, deadline=None)
@given(product_eigenbasis_unitaries(), st.sampled_from(list(BranchConvention)))
def test_product_eigenbasis_is_ledger_exact(case, branch):
    """R D R-dagger compiles exact through the frame route, and no pulse
    touches an idle spin.

    Except where extraction blurs the eigenbasis: two eigenvalues near -1
    on either side of the branch cut (phases -pi and pi - 0.01, say) are
    separated by eig_unitary at the square of their distance, and their
    eigenvectors mix into a generator that is off the product frame by
    more than tol.  The frame route then still accepts the generator the
    input was built from, and the compile says it is approximate."""
    u, g, idle = case
    options = pipeline.CompileOptions(branch=branch, max_verify_spins=5)
    if not pipeline.compile_unitary(u, options).exact:
        assert decompose.route(generator.expand(g)) == decompose.STRATEGY_FACTORIZED
        return
    report = assert_ledger_exact(u, options)
    touched = {op.spin for op in report.sequence.ops if isinstance(op, Rotation)}
    assert touched.isdisjoint(spin + 1 for spin in idle)


def controlled(u, controls):
    """u on the last spin, applied when each of the `controls` leading
    spins is in state 1."""
    dim = 2 ** (controls + 1)
    c = np.eye(dim, dtype=complex)
    c[-2:, -2:] = u
    return c


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.sampled_from(list(BranchConvention)),
)
def test_controlled_haar_is_ledger_exact(seed, controls, branch):
    u = controlled(haar_unitary(seed, 2), controls)
    report = assert_ledger_exact(u, pipeline.CompileOptions(branch=branch))
    assert report.strategy == "factorized"
