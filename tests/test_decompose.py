import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpulse import decompose, generator, linalg, pauli, sim
from spinpulse.decompose import SingleOp
from spinpulse.generator import BranchConvention, GeneratorExpansion
from spinpulse.pauli import PauliString

import backend_oracle
from backend_oracle import FactorizedGenerator
from conftest import haar_unitary


def word(text):
    return PauliString.from_string(text)


def exp_of(expansion):
    """Oracle: exponential of the reconstructed generator without its
    identity part."""
    g = backend_oracle.reconstruct(expansion)
    g = g - expansion.identity_coeff * np.eye(g.shape[0])
    return backend_oracle.matrix_exp_hermitian(g)


def test_single_op_validation():
    with pytest.raises(ValueError):
        SingleOp(word("00"), 0.5)
    with pytest.raises(ValueError):
        SingleOp(word("x"), float("nan"))


def test_commuting_toffoli_expansion():
    toffoli = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
    g = generator.extract_generator(toffoli, BranchConvention.PRINCIPAL_LOWER)
    expansion = generator.expand(g)
    plan = decompose.plan(expansion)
    assert plan.exact and plan.strategy == "commuting"
    assert len(plan.ops) == 7  # identity term excluded
    # Gray-code order of the z masks, ties in basis order.
    words = [op.s for op in plan.ops]
    assert words == sorted(sorted(words), key=lambda s: s.gray_rank)


def test_commuting_single_term():
    expansion = GeneratorExpansion(2, {word("z0"): 0.4})
    plan = decompose.plan(expansion)
    assert plan.ops == (SingleOp(word("z0"), 0.4),)


def test_commuting_product_matches_oracle():
    expansion = GeneratorExpansion(2, {word("x0"): 0.35, word("0y"): -0.8})
    plan = decompose.plan(expansion)
    assert plan.strategy == "commuting"
    assert linalg.max_abs_diff(backend_oracle.simulate_plan(plan), exp_of(expansion)) < 1e-10


def test_commuting_rejects_noncommuting():
    # One anticommuting pair among commuting words keeps the whole
    # expansion off the commuting route.
    expansion = GeneratorExpansion(
        2, {word("x0"): 0.3, word("z0"): 0.2, word("0z"): 0.1, word("zz"): 0.4}
    )
    assert not expansion.all_commuting()
    chosen = decompose.plan(expansion, trotter_steps=2)
    assert chosen.strategy == "trotter" and not chosen.exact


def test_euler_cyclic_pair_angles():
    ops = decompose.euler_decompose(SingleOp(word("x"), 0.6), SingleOp(word("y"), 0.6))
    assert len(ops) == 3
    assert ops[0].s == word("z") and ops[2].s == word("z")
    assert ops[0].angle == pytest.approx(-np.pi / 4)
    assert ops[2].angle == pytest.approx(np.pi / 4)
    assert ops[1].angle == pytest.approx(np.sqrt(2) * 0.6)


def test_euler_zero_second_coefficient():
    ops = decompose.euler_decompose(SingleOp(word("x"), 0.9), SingleOp(word("y"), 0.0))
    assert ops[0].angle == 0.0 and ops[2].angle == 0.0
    assert ops[1] == SingleOp(word("x"), 0.9)


def test_euler_matches_oracle():
    a = SingleOp(word("x"), 0.3)
    b = SingleOp(word("y"), -0.7)
    ops = decompose.euler_decompose(a, b)
    assert ops[1].angle == pytest.approx(np.sqrt(0.58))
    plan = decompose.DecompositionPlan(1, tuple(ops), True, "euler")
    target = backend_oracle.matrix_exp_hermitian(
        0.3 * pauli.materialize(word("x")) - 0.7 * pauli.materialize(word("y"))
    )
    assert linalg.max_abs_diff(backend_oracle.simulate_plan(plan), target) < 1e-12


def test_euler_random_anticommuting_pairs(rng):
    basis = [s for s in backend_oracle.enumerate_basis(2) if s.weight > 0]
    checked = 0
    while checked < 20:
        a, b = rng.choice(len(basis), size=2, replace=False)
        sa, sb = basis[a], basis[b]
        if pauli.commutes(sa, sb):
            continue
        angles = rng.uniform(-2, 2, size=2)
        ops = decompose.euler_decompose(SingleOp(sa, angles[0]), SingleOp(sb, angles[1]))
        assert ops[0].angle == -ops[2].angle
        plan = decompose.DecompositionPlan(2, tuple(ops), True, "euler")
        target = backend_oracle.matrix_exp_hermitian(
            angles[0] * pauli.materialize(sa) + angles[1] * pauli.materialize(sb)
        )
        assert linalg.max_abs_diff(backend_oracle.simulate_plan(plan), target) < 1e-10
        checked += 1


def test_euler_rejects_commuting_pair():
    with pytest.raises(ValueError):
        decompose.euler_decompose(SingleOp(word("zz"), 0.1), SingleOp(word("z0"), 0.2))


def plan_of(fg):
    return decompose.plan(generator.expand(fg.matrix()))


def test_factorized_pure_z():
    # Axis-aligned spin parts take the commuting route, ahead of the frames.
    plan = plan_of(FactorizedGenerator(((0.3, 0.0, 0.0, 0.8),)))
    assert plan.strategy == "commuting" and plan.exact
    [op] = plan.ops
    assert op.s == word("z") and op.angle == pytest.approx(0.8)
    assert plan.dropped_identity == pytest.approx(0.3)


def test_factorized_pure_x():
    plan = plan_of(FactorizedGenerator(((0.0, 0.45, 0.0, 0.0),)))
    target = backend_oracle.matrix_exp_hermitian(0.45 * pauli.materialize(word("x")))
    assert linalg.max_abs_diff(backend_oracle.simulate_plan(plan), target) < 1e-12


def test_factorized_controlled_phase():
    half = np.pi  # pi * (E/2 - I_z) on spin 1, (E/2 - I_z) on spin 2
    plan = plan_of(FactorizedGenerator(((half / 2, 0, 0, -half), (0.5, 0, 0, -1))))
    target = np.diag([1, 1, 1, -1]).astype(complex)
    m = backend_oracle.simulate_plan(plan)
    comparison = sim.equal_up_to_phase(target, m, 1e-10)
    assert comparison.equal
    # with the dropped identity restored the match is phase-exact
    assert linalg.max_abs_diff(np.exp(-1j * plan.dropped_identity) * m, target) < 1e-10


def test_factorized_matrix_matches_plan(rng):
    fg = FactorizedGenerator(
        tuple(tuple(rng.uniform(-1, 1, size=4)) for _ in range(2))
    )
    plan = plan_of(fg)
    assert plan.strategy == "factorized" and plan.exact
    target = backend_oracle.matrix_exp_hermitian(fg.matrix())
    m = np.exp(-1j * plan.dropped_identity) * backend_oracle.simulate_plan(plan)
    assert linalg.max_abs_diff(m, target) < 1e-10


def test_factorized_all_zero_spin_parts():
    plan = plan_of(FactorizedGenerator(((0.4, 0, 0, 0), (0.5, 0, 0, 0))))
    assert plan.ops == ()
    assert plan.dropped_identity == pytest.approx(0.2)


def test_trotterize_single_step_matches_commuting():
    expansion = GeneratorExpansion(2, {word("z0"): 0.4, word("0z"): -0.2})
    steps_one = decompose.trotterize(expansion, 1)
    assert steps_one.ops == decompose.plan(expansion).ops
    assert not steps_one.exact and len(steps_one.ops) == len(expansion.terms())


def test_trotter_error_scaling():
    expansion = GeneratorExpansion(1, {word("x"): np.pi / 4, word("z"): np.pi / 4})
    target = exp_of(expansion)
    errors = {}
    for steps in (1, 2, 4, 8, 16):
        plan = decompose.trotterize(expansion, steps)
        errors[steps] = linalg.max_abs_diff(backend_oracle.simulate_plan(plan), target)
    for steps in (1, 2, 4, 8):
        assert 1.5 <= errors[steps] / errors[2 * steps] <= 2.5
    assert errors[16] < 0.05
    ordered = [errors[s] for s in (1, 2, 4, 8, 16)]
    assert ordered == sorted(ordered, reverse=True)


def test_trotterize_rejects_bad_steps():
    with pytest.raises(ValueError):
        decompose.trotterize(GeneratorExpansion(1, {word("x"): 0.1}), 0)


def test_plan_dispatch():
    commuting = GeneratorExpansion(2, {word("z0"): 0.4, word("0z"): 0.2})
    assert decompose.plan(commuting).strategy == "commuting"

    euler = GeneratorExpansion(1, {word("x"): 0.3, word("z"): 0.2})
    chosen = decompose.plan(euler)
    assert chosen.strategy == "euler" and chosen.exact

    # Three anticommuting words on one spin are one tilted rotation: its
    # frame turns the axis onto z.
    frame = GeneratorExpansion(1, {word("x"): 0.3, word("y"): 0.1, word("z"): 0.2})
    chosen = decompose.plan(frame)
    assert chosen.strategy == "factorized" and chosen.exact
    assert [str(op.s) for op in chosen.ops] == ["z", "y", "z", "y", "z"]

    # A Haar 2-spin generator has no product eigenbasis.
    trotter = generator.expand(generator.extract_generator(haar_unitary(7, 4)))
    chosen = decompose.plan(trotter, trotter_steps=8)
    assert chosen.strategy == "trotter" and not chosen.exact
    assert len(chosen.ops) == 8 * len(trotter.terms())


def test_plan_empty_expansion():
    plan = decompose.plan(GeneratorExpansion(2, {}, identity_coeff=0.3))
    assert plan.ops == () and plan.exact
    assert plan.dropped_identity == pytest.approx(0.3)


def materialized_factor_product(fg):
    """The factorized generator as the product of its one-spin factors,
    each a dense 2**n matrix built from materialized words."""
    n = fg.num_spins
    g = np.eye(2**n, dtype=complex)
    for spin, (phi0, *spin_part) in enumerate(fg.per_spin, start=1):
        factor = phi0 * np.eye(2**n, dtype=complex)
        for axis, value in zip("xyz", spin_part):
            if value != 0.0:
                factor += value * pauli.materialize(PauliString.single(n, spin, axis))
        g = g @ factor
    return g


unit = st.floats(-1, 1, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(unit, unit, unit, unit), min_size=1, max_size=6))
def test_factorized_matrix_is_the_product_of_its_factors(per_spin):
    fg = FactorizedGenerator(tuple(per_spin))
    expected = materialized_factor_product(fg)
    # The same products of entries, which BLAS may round differently.
    scale = max(1.0, np.max(np.abs(expected)))
    assert linalg.max_abs_diff(fg.matrix(), expected) <= 1e-15 * scale
