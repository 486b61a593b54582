import math
from dataclasses import replace

import numpy as np
import pytest

from spinpulse import decompose, generator, linalg, pauli, reduction, sim
from spinpulse.decompose import SingleOp
from spinpulse.generator import BranchConvention, GeneratorExpansion
from spinpulse.pauli import PauliString
from spinpulse.pulse import Coupling, PulseSequence, Rotation

import backend_oracle


def word(text):
    return PauliString.from_string(text)


def run(num_spins, ops):
    return sim.simulate(PulseSequence(num_spins, list(ops)))


def z_rotation_matrix(phi):
    return np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)])


def test_composite_z_zero_angle():
    assert linalg.max_abs_diff(run(1, reduction.composite_z(1, 0.0)), np.eye(2)) < 1e-12


def test_composite_z_quarter_turn():
    m = run(1, reduction.composite_z(1, np.pi / 2))
    assert linalg.max_abs_diff(m, z_rotation_matrix(np.pi / 2)) < 1e-12


def test_composite_z_random_angles(rng):
    for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=100):
        m = run(1, reduction.composite_z(1, phi))
        assert linalg.max_abs_diff(m, z_rotation_matrix(phi)) < 1e-12


def reduce_one(s, angle, use_pseudo_cnot=True):
    """reduce_plan on the one-op plan exp(-i*angle*s), z kept, unmerged."""
    plan = decompose.DecompositionPlan(s.num_spins, (SingleOp(s, angle),), True, "commuting")
    return reduction.reduce_plan(plan, allow_z=True, use_pseudo_cnot=use_pseudo_cnot, merge=False)


def test_axis_transform_xz():
    seq = reduce_one(word("xz"), 0.77)
    assert [op for op in seq.ops if isinstance(op, Coupling)] == [Coupling(1, 2, 0.77)]
    assert all(op.spin == 1 for op in seq.ops if isinstance(op, Rotation))
    target = backend_oracle.matrix_exp_hermitian(0.77 * pauli.materialize(word("xz")))
    assert linalg.max_abs_diff(sim.simulate(seq), target) < 1e-12


def test_axis_transform_all_z_is_trivial():
    assert reduce_one(word("zz"), 0.5).ops == [Coupling(1, 2, 0.5)]


def test_axis_transform_y():
    seq = reduce_one(word("yz"), 0.31)
    assert all(op.axis == "x" for op in seq.ops if isinstance(op, Rotation))
    target = backend_oracle.matrix_exp_hermitian(0.31 * pauli.materialize(word("yz")))
    assert linalg.max_abs_diff(sim.simulate(seq), target) < 1e-12


def test_cnot_sequence_matrix():
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    m = run(2, reduction.cnot_sequence(1, 2))
    comparison = sim.equal_up_to_phase(m, cnot, 1e-12)
    assert comparison.equal and comparison.residual < 1e-12
    # the sequence equals e^{-i pi/4} times the gate
    assert abs(np.exp(1j * comparison.phase) - np.exp(-1j * np.pi / 4)) < 1e-12


def test_cnot_sequence_is_involution_up_to_phase():
    ops = reduction.cnot_sequence(1, 2)
    m = run(2, ops + ops)
    assert sim.equal_up_to_phase(m, np.eye(4), 1e-12).equal


def test_cnot_sequence_rejects_equal_spins():
    with pytest.raises(ValueError):
        reduction.cnot_sequence(2, 2)


def test_pseudo_cnot_adjoint_pair():
    ops = reduction.pseudo_cnot(1, 2) + reduction.pseudo_cnot(1, 2, inverse=True)
    assert len(reduction.pseudo_cnot(1, 2)) == 3
    assert linalg.max_abs_diff(run(2, ops), np.eye(4)) < 1e-12


def test_pseudo_cnot_sandwich_property():
    phi = 1.1
    ops = (
        reduction.pseudo_cnot(1, 2, inverse=True)
        + [Coupling(2, 3, phi)]
        + reduction.pseudo_cnot(1, 2)
    )
    target = backend_oracle.matrix_exp_hermitian(phi * pauli.materialize(word("zzz")))
    assert sim.equal_up_to_phase(run(3, ops), target, 1e-12).equal


def test_reduce_coupling_order_weight_two():
    seq = reduce_one(word("zz"), 0.4)
    assert seq.ops == [Coupling(1, 2, 0.4)] and seq.global_phase == 0.0


def test_reduce_coupling_order_weight_three():
    phi = 0.9
    seq = reduce_one(word("zzz"), phi)
    assert seq.global_phase == 0.0
    target = backend_oracle.matrix_exp_hermitian(phi * pauli.materialize(word("zzz")))
    assert linalg.max_abs_diff(sim.simulate(seq), target) < 1e-10


def test_reduce_coupling_order_weight_four():
    phi = -1.3
    seq = reduce_one(word("zzzz"), phi)
    target = backend_oracle.matrix_exp_hermitian(phi * pauli.materialize(word("zzzz")))
    assert sim.equal_up_to_phase(sim.simulate(seq), target, 1e-9).equal


def test_reduce_coupling_order_full_cnot_ledger():
    phi = 0.6
    seq = reduce_one(word("zzz"), phi, use_pseudo_cnot=False)
    target = backend_oracle.matrix_exp_hermitian(phi * pauli.materialize(word("zzz")))
    m = sim.simulate(seq)
    assert sim.equal_up_to_phase(m, target, 1e-10).equal
    # the ledger phase is exact for the full-flip route
    assert linalg.max_abs_diff(np.exp(1j * seq.global_phase) * m, target) < 1e-10


def test_reduce_coupling_order_sparse_support():
    # a z-word on spins 1,3,4 of a 4-spin register
    phi = 0.35
    s = backend_oracle.z_on(4, [1, 3, 4])
    seq = reduce_one(s, phi)
    assert all(2 not in (op.i, op.j) for op in seq.ops if isinstance(op, Coupling))
    target = backend_oracle.matrix_exp_hermitian(phi * pauli.materialize(s))
    assert sim.equal_up_to_phase(sim.simulate(seq), target, 1e-10).equal


def toffoli_plan():
    toffoli = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
    g = generator.extract_generator(toffoli, BranchConvention.PRINCIPAL_LOWER)
    return toffoli, decompose.plan(generator.expand(g))


def test_reduce_plan_toffoli():
    toffoli, plan = toffoli_plan()
    seq = reduction.reduce_plan(plan)
    comparison = sim.equal_up_to_phase(toffoli, sim.simulate(seq), 1e-9)
    assert comparison.equal
    assert all(
        isinstance(op, Coupling) or op.axis in ("x", "y") for op in seq.ops
    )
    # ledger is phase-exact on this route
    assert (
        linalg.max_abs_diff(
            toffoli, np.exp(1j * seq.global_phase) * sim.simulate(seq)
        )
        < 1e-9
    )


def test_reduce_plan_full_cnot_variant():
    toffoli, plan = toffoli_plan()
    seq = reduction.reduce_plan(plan, use_pseudo_cnot=False)
    assert sim.equal_up_to_phase(toffoli, sim.simulate(seq), 1e-9).equal
    assert (
        linalg.max_abs_diff(
            toffoli, np.exp(1j * seq.global_phase) * sim.simulate(seq)
        )
        < 1e-9
    )


def test_reduce_plan_allow_z_keeps_z_rotations():
    _, plan = toffoli_plan()
    seq = reduction.reduce_plan(plan, allow_z=True)
    assert any(isinstance(op, Rotation) and op.axis == "z" for op in seq.ops)


def test_reduce_plan_empty():
    plan = decompose.DecompositionPlan(2, (), True, "commuting")
    seq = reduction.reduce_plan(plan)
    assert seq.ops == [] and seq.num_spins == 2


def test_reduce_plan_single_x_passthrough():
    plan = decompose.DecompositionPlan(1, (SingleOp(word("x"), 0.8),), True, "commuting")
    seq = reduction.reduce_plan(plan)
    assert seq.ops == [Rotation(1, "x", 0.8)]


def test_reduce_plan_single_z_expands_to_three_ops():
    plan = decompose.DecompositionPlan(1, (SingleOp(word("z"), 0.8),), True, "commuting")
    seq = reduction.reduce_plan(plan)
    assert len(seq.ops) == 3
    assert all(op.axis in ("x", "y") for op in seq.ops)
    m = sim.simulate(seq)
    assert linalg.max_abs_diff(m, z_rotation_matrix(0.8)) < 1e-12


def test_reduce_plan_random_commuting_generators(rng):
    for _ in range(20):
        expansion = random_commuting_expansion(rng, 3)
        plan = decompose.plan(expansion)
        seq = reduction.reduce_plan(plan)
        target = backend_oracle.simulate_plan(plan)
        assert sim.equal_up_to_phase(target, sim.simulate(seq), 1e-8).equal


def random_commuting_expansion(rng, num_spins):
    basis = [s for s in backend_oracle.enumerate_basis(num_spins) if s.weight > 0]
    chosen: list[PauliString] = []
    while len(chosen) < 3:
        s = basis[rng.integers(len(basis))]
        if s in chosen:
            continue
        if all(pauli.commutes(s, t) for t in chosen):
            chosen.append(s)
    coeffs = {s: float(rng.uniform(-1.5, 1.5)) for s in chosen}
    return GeneratorExpansion(num_spins, coeffs)


def test_peephole_cancels_adjacent_inverse():
    seq = PulseSequence(1, [Rotation(1, "x", np.pi / 2), Rotation(1, "x", -np.pi / 2)])
    assert reduction.peephole(seq).ops == []


def test_peephole_does_not_merge_across_neighbors():
    # A pulse slides back past commuting neighbours to merge ...
    ops = [Rotation(1, "x", 0.5), Rotation(2, "y", 0.3), Coupling(2, 3, 0.2), Rotation(1, "x", 0.25)]
    merged = reduction.peephole(PulseSequence(3, ops)).ops
    assert merged == [Rotation(1, "x", 0.75), Rotation(2, "y", 0.3), Coupling(2, 3, 0.2)]
    # ... and stops at the first one it does not commute with.
    for blocker in (Rotation(1, "y", 0.3), Rotation(1, "z", 0.3), Coupling(1, 2, 0.2)):
        ops = [Rotation(1, "x", 0.5), blocker, Rotation(2, "y", 0.3), Rotation(1, "x", 0.25)]
        assert reduction.peephole(PulseSequence(2, ops)).ops == ops
    # Couplings slide past each other and past z rotations, not past x/y
    # rotations on their spins.
    ops = [Coupling(1, 2, 0.5), Rotation(2, "z", 0.3), Coupling(2, 3, 0.1), Coupling(1, 2, 0.25)]
    assert reduction.peephole(PulseSequence(3, ops)).ops == [
        Coupling(1, 2, 0.75), Rotation(2, "z", 0.3), Coupling(2, 3, 0.1)
    ]
    ops = [Coupling(1, 2, 0.5), Rotation(2, "x", 0.3), Coupling(1, 2, 0.25)]
    assert reduction.peephole(PulseSequence(2, ops)).ops == ops


def test_peephole_cancellation_exposes_earlier_pulses():
    # A pulse that cancels leaves its slot, so the pulses around it merge.
    x, y, z = (Rotation(1, axis, 0.5) for axis in "xyz")
    j = Coupling(1, 2, 0.5)
    for outer, inner in [(x, j), (j, x), (z, x), (x, y)]:
        ops = [outer, inner, replace(inner, angle=-0.5), replace(outer, angle=0.25)]
        assert reduction.peephole(PulseSequence(2, ops)).ops == [replace(outer, angle=0.75)]


def test_peephole_merges_couplings_mod_4pi():
    seq = PulseSequence(2, [Coupling(1, 2, 3.0), Coupling(1, 2, 2.0 + 4 * np.pi)])
    merged = reduction.peephole(seq).ops
    assert merged == [Coupling(1, 2, pytest.approx(5.0))]


def test_peephole_cascading_cancellation():
    ops = [
        Rotation(1, "x", 0.4),
        Rotation(1, "y", 0.7),
        Rotation(1, "y", -0.7),
        Rotation(1, "x", -0.4),
    ]
    assert reduction.peephole(PulseSequence(1, ops)).ops == []


def test_peephole_preserves_equivalence(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        ops = []
        for _ in range(int(rng.integers(0, 10))):
            if n > 1 and rng.random() < 0.4:
                i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
                ops.append(Coupling(int(i), int(j), float(rng.uniform(-7, 7))))
            else:
                ops.append(
                    Rotation(
                        int(rng.integers(1, n + 1)),
                        "xyz"[rng.integers(3)],
                        float(rng.uniform(-7, 7)),
                    )
                )
        seq = PulseSequence(n, ops)
        merged = reduction.peephole(seq)
        assert len(merged.ops) <= len(seq.ops)
        comparison = sim.equal_up_to_phase(sim.simulate(seq), sim.simulate(merged), 1e-9)
        assert comparison.equal


def test_wrap_angle_period():
    assert reduction.wrap_angle(4 * math.pi) == 0.0
    assert reduction.wrap_angle(2 * math.pi) == pytest.approx(2 * math.pi)
    assert reduction.wrap_angle(-3 * math.pi) == pytest.approx(math.pi)
