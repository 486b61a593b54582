"""Property tests of the vectorized kernels against their textbook
definitions: the butterfly expansion against the trace formula, in-place
simulation against a product of kron-built pulse matrices, the vectorized
commutation check against the pairwise one, idle-spin extraction
against a kron-built embedding of the core's generator, the diagonal
path (generator vector and Walsh-Hadamard expansion) against the matrix
path, and the one-pass pulse back end against its earlier or naive form
(backend_oracle.py)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpulse import formats, gates, generator, linalg, pauli, reduction, sim
from spinpulse.decompose import DecompositionPlan, SingleOp
from spinpulse.generator import BranchConvention, GeneratorExpansion
from spinpulse.pauli import PauliString
from spinpulse.pipeline import CompileOptions, compile_unitary
from spinpulse.pulse import Coupling, PulseSequence, Rotation

import backend_oracle
from conftest import haar_unitary, random_hermitian

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


def place(m, active, n):
    """m (x) I on n spins with m's spins on `active` (0-based, increasing),
    built by kron in the order active-then-idle and an explicit basis
    permutation back to the spin order."""
    order = active + [spin for spin in range(n) if spin not in active]
    big = np.kron(m, np.eye(2 ** (n - len(active))))
    perm = [
        sum(((b >> (n - 1 - p)) & 1) << (n - 1 - order[p]) for p in range(n))
        for b in range(2**n)
    ]
    out = np.empty_like(big)
    out[np.ix_(perm, perm)] = big
    return out


@st.composite
def embedded_cores(draw, min_spins=1, cores=None):
    """(core, active, n): a Haar core on 1-3 spins, or one of `cores`, and a
    random, possibly non-contiguous, increasing set of spins of n <= 7."""
    if cores is not None and draw(st.booleans()):
        core = draw(st.sampled_from(cores))
    else:
        core = haar_unitary(draw(seeds), 2 ** draw(st.integers(1, 3)))
    k = core.shape[0].bit_length() - 1
    n = draw(st.integers(max(k, min_spins), 7))
    active = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    return core, active, n


@settings(max_examples=40, deadline=None)
@given(embedded_cores())
def test_extract_on_embedded_core_matches_kron(case):
    core, active, n = case
    g = generator.extract_generator(place(core, active, n))
    expected = place(generator.extract_generator(core), active, n)
    assert linalg.max_abs_diff(g, expected) < 1e-12


def relabel(seq, active, n):
    """Core sequence moved onto `active`: core spin k becomes active[k-1]+1."""
    spin = [None] + [s + 1 for s in active]
    ops = [
        Rotation(spin[op.spin], op.axis, op.angle)
        if isinstance(op, Rotation)
        else Coupling(spin[op.i], spin[op.j], op.angle)
        for op in seq.ops
    ]
    return PulseSequence(n, ops, seq.global_phase)


@settings(max_examples=25, deadline=None)
@given(embedded_cores())
def test_embedded_core_compiles_to_relabelled_core_sequence(case):
    core, active, n = case
    # One product-formula step keeps the Haar cores' sequences short.
    options = CompileOptions(trotter_steps=1, verify=False)
    report = compile_unitary(place(core, active, n), options)
    core_report = compile_unitary(core, options)
    assert report.exact == core_report.exact
    expected = formats.format_sequence(relabel(core_report.sequence, active, n))
    assert formats.format_sequence(report.sequence) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.floats(-math.pi, math.pi, allow_nan=False))
@example(n=1, phi=1e-12)
def test_global_phase_compiles_to_empty_exact_ledger(n, phi):
    u = np.exp(1j * phi) * np.eye(2**n)
    report = compile_unitary(u, CompileOptions(verify=False))
    assert report.sequence.ops == []
    assert report.exact
    ledger = np.exp(1j * report.sequence.global_phase) * sim.simulate(report.sequence)
    # The identity coefficient is never dropped, however small.
    assert linalg.max_abs_diff(ledger, u) < 1e-15


def idle_spin_noise(n, spin, axis, angle):
    """exp(-i*angle*sigma_axis/2) on one spin, the identity elsewhere."""
    return place(
        math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * pauli.SIGMA[axis],
        [spin],
        n,
    )


GATE_CORES = [gates.cnot(), gates.toffoli(), gates.controlled_phase()]


@pytest.mark.parametrize("scale", [0.3, 100])
@settings(max_examples=30, deadline=None)
@given(embedded_cores(min_spins=4, cores=GATE_CORES), st.sampled_from("xyz"), st.data())
def test_noise_on_idle_spin(scale, case, axis, data):
    """A rotation by scale*tol on an idle spin moves u's blocks by at most
    scale*tol.  At 0.3*tol the spin is still split off and the noise fits in
    the residual check; at 100*tol the spin is active and g carries the
    rotation (a core eigenvalue -1 on the branch cut may split into more
    terms on that spin).  Either way the rotation commutes with the core,
    so the route and its exactness are those of the noiseless input."""
    core, active, n = case
    idle = [spin for spin in range(n) if spin not in active]
    spin = data.draw(st.sampled_from(idle))
    tol = linalg.DEFAULT_TOL
    u = place(core, active, n) @ idle_spin_noise(n, spin, axis, scale * tol)
    g = generator.extract_generator(u, tol=tol)
    on_spin = {word.axis(spin + 1) for word in generator.expand(g).coeffs} - {"0"}
    assert axis in on_spin if scale > 1 else not on_spin
    g = np.diag(g) if g.ndim == 1 else g  # a diagonal u gives its diagonal
    assert linalg.max_abs_diff(linalg.matrix_exp_hermitian(g), u) <= 10 * tol
    report = compile_unitary(u, CompileOptions(trotter_steps=1))
    clean = compile_unitary(place(core, active, n), CompileOptions(trotter_steps=1))
    assert report.exact == clean.exact
    if report.exact and report.verified is not None:
        assert report.verified


def z_word_diagonals(k):
    """Row m: the diagonal of the sigma z-word with z-mask m on k spins,
    (-1)**popcount(b & m) at basis index b."""
    b = np.arange(2**k)
    masked = b[:, None] & b
    parity = np.zeros_like(masked)
    for bit in range(k):
        parity ^= masked >> bit & 1
    return 1.0 - 2 * parity


@st.composite
def diagonal_unitaries(draw):
    """(u, branch, tol): a diagonal unitary on n <= 7 spins that is constant
    along random idle spins.  The core's eigenvalues are uniform phases, or
    +-1 and +-i exactly (the -1s on the branch cut, most of them
    degenerate), or a few repeated phases; optionally times
    exp(-i*sum_w c_w sigma_w) over random z-words w with |c_w| < tol/2, whose
    basis coefficients 2*c_w are below tol."""
    n = draw(st.integers(1, 7))
    active = sorted(draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)))
    k = len(active)
    rng = np.random.default_rng(draw(seeds))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    kind = draw(st.sampled_from(["uniform", "cut", "repeated"]))
    if kind == "uniform":
        lam = np.exp(-1j * rng.uniform(-math.pi, math.pi, 2**k))
    elif kind == "cut":
        lam = rng.choice(np.array([1, -1, 1j, -1j], dtype=complex), 2**k)
    else:
        lam = np.exp(-1j * rng.choice(rng.uniform(-math.pi, math.pi, 3), 2**k))
    if draw(st.booleans()):
        c = rng.uniform(-tol / 2, tol / 2, 2**k) * (rng.random(2**k) < 0.3)
        lam = lam * np.exp(-1j * (z_word_diagonals(k) @ c))
    axes = [2 if spin in active else 1 for spin in range(n)]
    u = np.diag(np.broadcast_to(lam.reshape(axes), (2,) * n).reshape(-1))
    return u, draw(st.sampled_from(list(BranchConvention))), tol


@settings(max_examples=60, deadline=None)
@given(diagonal_unitaries())
def test_diagonal_generator_expands_as_its_matrix(case):
    u, branch, tol = case
    g = generator.extract_generator(u, branch, tol)
    assert g.shape == (u.shape[0],) and g.dtype == float
    assert linalg.max_abs_diff(np.exp(-1j * g), np.diag(u)) <= 10 * tol  # input order
    vector = generator.expand(g, tol)
    matrix = generator.expand(np.diag(g), tol)
    assert list(vector.coeffs.items()) == list(matrix.coeffs.items())
    assert vector.identity_coeff == matrix.identity_coeff
    assert all(word.x == 0 for word in vector.coeffs)


@settings(max_examples=40, deadline=None)
@given(diagonal_unitaries().filter(lambda case: case[0].shape[0] <= 64))
def test_diagonal_compile_ledger_is_exact(case):
    u, branch, tol = case
    report = compile_unitary(u, CompileOptions(branch=branch, tol=tol))
    assert report.exact and report.verified
    ledger = np.exp(1j * report.sequence.global_phase) * sim.simulate(report.sequence)
    assert linalg.max_abs_diff(ledger, u) <= 10 * tol


def test_non_unitary_diagonal_is_rejected():
    with pytest.raises(ValueError, match="not unitary"):
        generator.extract_generator(np.diag([2.0 + 0j, 1.0]))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_small_off_diagonal_takes_matrix_path(n):
    # A rotation by 10*tol between two basis states: diagonal up to two
    # entries of 10*tol, so not diagonal within tol.
    tol = linalg.DEFAULT_TOL
    u = np.eye(2**n, dtype=complex)
    b1, b2 = 0, 2**n - 1
    s = 10 * tol
    u[b1, b1] = u[b2, b2] = math.sqrt(1 - s * s)
    u[b1, b2], u[b2, b1] = -s, s
    assert generator.extract_generator(u, tol=tol).ndim == 2
    report = compile_unitary(u, CompileOptions(tol=tol))
    assert report.exact and report.verified


# Angles where the back end's special cases sit: zero and the 2*pi / 4*pi
# periods (wrapping), and values either side of ANGLE_EPS (dropping).
EPS = reduction.ANGLE_EPS
edge_angles = st.sampled_from(
    [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 4 * math.pi,
     -4 * math.pi, 8 * math.pi, -12 * math.pi, 4 * math.pi + EPS / 2,
     EPS, -EPS, EPS / 2, -EPS / 2, 1.5 * EPS, -1.5 * EPS]
)
plan_angles = st.one_of(edge_angles, st.floats(-20, 20, allow_nan=False))


@st.composite
def words(draw, n):
    support = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    text = ["0"] * n
    for spin in support:
        text[spin - 1] = draw(st.sampled_from("xyz"))
    return PauliString.from_string("".join(text))


@st.composite
def plans(draw):
    """1-12 single ops on n <= 6 spins.  Ops draw from a small word pool so
    that neighbours often share a target and the peephole merges them."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(words(n), min_size=1, max_size=4))
    ops = tuple(
        SingleOp(draw(st.sampled_from(pool)), draw(plan_angles))
        for _ in range(draw(st.integers(1, 12)))
    )
    dropped = draw(st.one_of(st.just(0.0), st.floats(-10, 10, allow_nan=False)))
    return DecompositionPlan(n, ops, True, "commuting", dropped_identity=dropped)


def same_sequence(a, b):
    return a.num_spins == b.num_spins and a.ops == b.ops and (
        repr(a.global_phase) == repr(b.global_phase)
    )


@pytest.mark.parametrize("allow_z", [False, True])
@pytest.mark.parametrize("use_pseudo_cnot", [True, False])
@settings(max_examples=60, deadline=None)
@given(plans())
def test_reduce_plan_matches_recursive_reduction(allow_z, use_pseudo_cnot, plan):
    options = dict(allow_z=allow_z, use_pseudo_cnot=use_pseudo_cnot)
    raw = reduction.reduce_plan(plan, merge=False, **options)
    assert same_sequence(raw, backend_oracle.reduce_plan(plan, merge=False, **options))
    merged = reduction.reduce_plan(plan, **options)
    assert same_sequence(merged, backend_oracle.reduce_plan(plan, **options))
    assert same_sequence(merged, reduction.peephole(raw))
    assert formats.format_sequence(merged) == formats.format_sequence(
        backend_oracle.peephole(raw)
    )


@settings(max_examples=60, deadline=None)
@given(plans(), st.booleans())
def test_public_reduction_pieces_match_recursive_reduction(plan, use_pseudo_cnot):
    options = dict(allow_z=True, use_pseudo_cnot=use_pseudo_cnot, merge=False)
    for op in plan.ops:
        # One op, z kept, unmerged: the axes transformation around the
        # coupling order reduction of that word alone.
        one = DecompositionPlan(plan.num_spins, (op,), True, "commuting")
        assert same_sequence(
            reduction.reduce_plan(one, **options), backend_oracle.reduce_plan(one, **options)
        )
        spin = op.s.support()[0]
        assert reduction.composite_z(spin, op.angle) == backend_oracle.composite_z(spin, op.angle)
    for i, j in [(1, 2), (3, 1)]:
        assert reduction.cnot_sequence(i, j) == backend_oracle.cnot_sequence(i, j)
        for inverse in (False, True):
            assert reduction.pseudo_cnot(i, j, inverse) == backend_oracle.pseudo_cnot(
                i, j, inverse
            )


@st.composite
def peephole_inputs(draw):
    """Raw pulse lists with repeated targets and edge angles."""
    n = draw(st.integers(2, 4))
    targets = [("R", spin, axis) for spin in range(1, n + 1) for axis in "xyz"]
    targets += [("J", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pool = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3))
    ops = []
    for _ in range(draw(st.integers(0, 16))):
        kind, a, b = draw(st.sampled_from(pool))
        angle = draw(plan_angles)
        ops.append(Rotation(a, b, angle) if kind == "R" else Coupling(a, b, angle))
    return PulseSequence(n, ops, draw(st.floats(-4, 4, allow_nan=False)))


@settings(max_examples=200, deadline=None)
@given(peephole_inputs())
def test_peephole_matches_replace_based_peephole(seq):
    assert same_sequence(reduction.peephole(seq), backend_oracle.peephole(seq))


@st.composite
def sliding_inputs(draw):
    """Pulse lists over every target of n <= 4 spins, z rotations included,
    so that pulses slide past commuting neighbours and stop at others.
    Some pulses undo an earlier one, as the closing half of a sandwich
    does, so that cancellations expose the pulses before them."""
    n = draw(st.integers(1, 4))
    targets = [Rotation(spin, axis, 0.0) for spin in range(1, n + 1) for axis in "xyz"]
    targets += [Coupling(i, j, 0.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pool = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=6))
    ops = []
    for _ in range(draw(st.integers(0, 24))):
        if ops and draw(st.booleans()):
            op = draw(st.sampled_from(ops))
            ops.append(replace(op, angle=-op.angle))
        else:
            ops.append(replace(draw(st.sampled_from(pool)), angle=draw(plan_angles)))
    return PulseSequence(n, ops, draw(st.floats(-4, 4, allow_nan=False)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(sliding_inputs(), peephole_inputs()))
def test_peephole_preserves_the_simulated_matrix(seq):
    merged = reduction.peephole(seq)
    assert len(merged.ops) <= len(seq.ops)
    assert merged.global_phase == seq.global_phase
    # Entry by entry, with no phase fitted: the ledger needs no change.
    assert linalg.max_abs_diff(sim.simulate(merged), sim.simulate(seq)) < 1e-12
    assert same_sequence(merged, backend_oracle.peephole(seq))


@st.composite
def edge_pulse_sequences(draw):
    """pulse_sequences with some rotation angles moved to edge_angles."""
    seq = draw(pulse_sequences())
    ops = []
    for op in seq.ops:
        if isinstance(op, Rotation) and draw(st.booleans()):
            op = Rotation(op.spin, op.axis, draw(edge_angles))
        ops.append(op)
    return PulseSequence(seq.num_spins, ops)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from("xyz"), st.one_of(edge_angles, st.floats(-1e3, 1e3, allow_nan=False)))
def test_rotation_entries_match_matrix_expression_bit_for_bit(axis, angle):
    expected = sim._exp_sigma(angle, pauli.SIGMA[axis])
    assert sim._rotation(axis, angle).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.one_of(pulse_sequences(), edge_pulse_sequences()))
def test_simulate_matches_eye_based_simulate_bit_for_bit(seq):
    assert sim.simulate(seq).tobytes() == backend_oracle.simulate(seq).tobytes()
