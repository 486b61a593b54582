"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them live)."""

import time

import numpy as np
import pytest

from spinpulse import (
    decompose,
    formats,
    gates,
    linalg,
    pauli,
    pipeline,
    reduction,
    sim,
)
from spinpulse.cli import main
from spinpulse.decompose import SingleOp
from spinpulse.generator import GeneratorExpansion
from spinpulse.pauli import PauliString
from spinpulse.pulse import Coupling, PulseSequence

import backend_oracle


def report(number, label, ok):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number}: {label}"


def word(text):
    return PauliString.from_string(text)


def reduce_one(s, angle):
    """Coupling order reduction of exp(-i*angle*s) alone: reduce_plan on the
    one-op plan, z kept, unmerged."""
    plan = decompose.DecompositionPlan(s.num_spins, (SingleOp(s, angle),), True, "commuting")
    return reduction.reduce_plan(plan, allow_z=True, merge=False)


# Published pulse sequence for the doubly controlled flip, transcribed into
# time order with the conjugator pair written out as pulses.
REFERENCE_TOFFOLI_SEQUENCE = """\
spins 3
R 3 y -1.5707963267948966
R 2 x -1.5707963267948966
J 1 2 -1.5707963267948966
R 2 y -1.5707963267948966
J 2 3 0.7853981633974483
R 2 y 1.5707963267948966
J 1 2 1.5707963267948966
R 2 x 1.5707963267948966
J 2 3 -0.7853981633974483
J 1 3 -0.7853981633974483
R 3 y 1.5707963267948966
R 3 x 0.7853981633974483
J 1 2 -0.7853981633974483
R 2 z 0.7853981633974483
R 1 z 0.7853981633974483
"""


def test_criterion_1_toffoli_generator_table(capsys):
    start = time.perf_counter()
    code = main(["expand", "--gate", "toffoli", "--branch", "lower"])
    elapsed = time.perf_counter() - start
    stdout = capsys.readouterr().out
    with capsys.disabled():
        table = {
            line.split()[0]: float(line.split()[1])
            for line in stdout.splitlines()
            if line and not line.startswith("#")
        }
        expected = {
            "000": -np.pi / 8,
            "z00": np.pi / 4,
            "0z0": np.pi / 4,
            "zz0": -np.pi / 4,
            "00x": np.pi / 4,
            "z0x": -np.pi / 4,
            "0zx": -np.pi / 4,
            "zzx": np.pi / 4,
        }
        ok = (
            code == 0
            and elapsed < 1.0
            and set(table) == set(expected)
            and all(abs(table[k] - v) < 1e-9 for k, v in expected.items())
        )
        report(1, f"generator table for the doubly controlled flip ({elapsed:.2f}s)", ok)


def test_criterion_2_toffoli_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    target = gates.toffoli()
    compiled = pipeline.compile_unitary(target)
    comparison = sim.equal_up_to_phase(target, sim.simulate(compiled.sequence), 1e-9)

    reference_path = tmp_path / "toffoli_reference.seq"
    reference_path.write_text(REFERENCE_TOFFOLI_SEQUENCE)
    verify_code = main(
        ["verify", str(reference_path), "--gate", "toffoli", "--tol", "1e-9"]
    )
    reference = formats.parse_sequence(REFERENCE_TOFFOLI_SEQUENCE)
    ref_comparison = sim.equal_up_to_phase(target, sim.simulate(reference), 1e-9)
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    with capsys.disabled():
        ok = (
            compiled.exact
            and comparison.equal
            and comparison.residual < 1e-9
            and verify_code == 0
            and ref_comparison.equal
            and ref_comparison.residual < 1e-9
            and elapsed < 1.0
        )
        report(2, f"compiled + transcribed sequences both give the gate ({elapsed:.2f}s)", ok)


def test_criterion_3_controlled_flip_identity():
    seq = PulseSequence(2, reduction.cnot_sequence(1, 2))
    simulated = sim.simulate(seq)
    comparison = sim.equal_up_to_phase(simulated, gates.cnot(1, 2), 1e-12)

    # independent five-matrix product, written out by hand in matrix order
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    ry_pos = np.array([[c, -s], [s, c]], dtype=complex)
    ry_neg = np.array([[c, s], [-s, c]], dtype=complex)
    rx_pos = np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    rz_pos = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    e2 = np.eye(2)
    coupling = np.diag(
        np.exp(1j * np.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0]))
    )  # J(-pi/2)
    product = (
        np.kron(rz_pos, e2)
        @ np.kron(e2, rx_pos)
        @ np.kron(e2, ry_pos)
        @ coupling
        @ np.kron(e2, ry_neg)
    )

    ok = (
        comparison.equal
        and comparison.residual < 1e-12
        and abs(np.exp(1j * comparison.phase) - np.exp(-1j * np.pi / 4)) < 1e-12
        and linalg.max_abs_diff(product, simulated) < 1e-12
    )
    report(3, "five-pulse controlled flip, phase e^{-i pi/4}", ok)


def test_criterion_4_composite_z(rng):
    worst = 0.0
    for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=100):
        m = sim.simulate(PulseSequence(1, reduction.composite_z(1, phi)))
        target = np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)])
        worst = max(worst, linalg.max_abs_diff(m, target))
    report(4, f"composite z rotation, 100 angles (worst {worst:.1e})", worst < 1e-12)


def test_criterion_5_euler_sandwich(rng):
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 4))
        basis = [s for s in backend_oracle.enumerate_basis(n) if s.weight > 0]
        a, b = (basis[int(k)] for k in rng.choice(len(basis), size=2, replace=False))
        if pauli.commutes(a, b):
            continue
        ca, cb = rng.uniform(-2, 2, size=2)
        ops = decompose.euler_decompose(SingleOp(a, ca), SingleOp(b, cb))
        plan = decompose.DecompositionPlan(n, tuple(ops), True, "euler")
        target = backend_oracle.matrix_exp_hermitian(
            ca * pauli.materialize(a) + cb * pauli.materialize(b)
        )
        worst = max(worst, linalg.max_abs_diff(backend_oracle.simulate_plan(plan), target))
        checked += 1
    report(5, f"Euler sandwich, 50 anticommuting pairs (worst {worst:.1e})", worst < 1e-10)


def test_criterion_6_third_order_block_structure(rng):
    worst_block = 0.0
    for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
        exponential = backend_oracle.matrix_exp_hermitian(
            phi * pauli.materialize(word("zzz"))
        )
        j_pos = sim.simulate(PulseSequence(2, [Coupling(1, 2, phi)]))
        j_neg = sim.simulate(PulseSequence(2, [Coupling(1, 2, -phi)]))
        block = np.zeros((8, 8), dtype=complex)
        block[:4, :4] = j_pos
        block[4:, 4:] = j_neg
        worst_block = max(worst_block, linalg.max_abs_diff(exponential, block))

    phi = 0.9137
    seq = reduce_one(word("zzz"), phi)
    target = backend_oracle.matrix_exp_hermitian(phi * pauli.materialize(word("zzz")))
    comparison = sim.equal_up_to_phase(target, sim.simulate(seq), 1e-10)
    ok = worst_block < 1e-12 and comparison.equal
    report(6, f"third-order block structure (worst {worst_block:.1e})", ok)


def test_criterion_7_order_n_reduction(rng):
    ok = True
    timed = {}
    for n in (3, 4, 5):
        start = time.perf_counter()
        phi = float(rng.uniform(0.2, 1.5))
        s = backend_oracle.z_on(n, range(1, n + 1))
        seq = reduce_one(s, phi)
        simulated = sim.simulate(seq)
        target = backend_oracle.matrix_exp_hermitian(phi * pauli.materialize(s))
        comparison = sim.equal_up_to_phase(target, simulated, 1e-9)
        timed[n] = time.perf_counter() - start
        ok = ok and comparison.equal and len(seq.ops) <= 12 * n
    ok = ok and timed[5] < 10.0
    report(7, f"order-n reduction, n=3,4,5 (n=5 took {timed[5]:.2f}s)", ok)


def test_criterion_8_basis_properties():
    ok = True
    for n in (1, 2, 3):
        basis = backend_oracle.enumerate_basis(n)
        mats = [pauli.materialize(s) for s in basis]
        norm = 2 ** (n - 2)
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                value = np.trace(a @ b)
                expected = norm if i == j else 0.0
                ok = ok and abs(value - expected) < 1e-12
                bracket = a @ b - b @ a
                matrix_commutes = np.max(np.abs(bracket)) < 1e-12
                ok = ok and pauli.commutes(basis[i], basis[j]) == matrix_commutes
    report(8, "orthogonality + commutation scans at n <= 3", ok)


def test_criterion_9_round_trip_compiles(rng):
    ok = True
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        words = [
            s for s in backend_oracle.enumerate_basis(n) if s.weight > 0 and "y" not in str(s)
        ]
        chosen = []
        while len(chosen) < int(rng.integers(1, 4)):
            s = words[int(rng.integers(len(words)))]
            if s not in chosen and all(pauli.commutes(s, t) for t in chosen):
                chosen.append(s)
        expansion = GeneratorExpansion(
            n, {s: float(rng.uniform(-np.pi, np.pi)) for s in chosen}
        )
        u = backend_oracle.matrix_exp_hermitian(backend_oracle.reconstruct(expansion))
        compiled = pipeline.compile_unitary(u)
        comparison = sim.equal_up_to_phase(u, sim.simulate(compiled.sequence), 1e-8)
        worst = max(worst, comparison.residual)
        ok = ok and compiled.exact and comparison.equal
    report(9, f"200 random commuting generators compile exactly (worst {worst:.1e})", ok)


def test_criterion_10_trotter_fallback():
    expansion = GeneratorExpansion(1, {word("x"): np.pi / 4, word("z"): np.pi / 4})
    target = backend_oracle.matrix_exp_hermitian(
        backend_oracle.reconstruct(expansion)
    )
    errors = {}
    for steps in (1, 2, 4, 8, 16):
        plan = decompose.trotterize(expansion, steps)
        errors[steps] = linalg.max_abs_diff(backend_oracle.simulate_plan(plan), target)
    ratios = [errors[n] / errors[2 * n] for n in (1, 2, 4, 8)]
    decreasing = all(errors[a] >= errors[b] for a, b in ((1, 2), (2, 4), (4, 8), (8, 16)))
    ok = decreasing and all(1.5 <= r <= 2.5 for r in ratios) and errors[16] < 0.05
    report(10, f"first-order product formula scaling (err@16 {errors[16]:.3f})", ok)
