"""Self-tests of the benchmark's reference, inputs and traced composition.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from spinpulse import formats, gates, pipeline  # noqa: E402

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def matrix_of(text: str) -> np.ndarray:
    parsed = reference.parse(text)
    return reference.apply(parsed, np.eye(2**parsed.num_spins, dtype=complex))


def test_rotation_x_pi_is_minus_i_sigma_x():
    assert np.allclose(matrix_of("spins 1\nR 1 x 3.141592653589793\n"), -1j * SIGMA_X)


@pytest.mark.parametrize("theta", [0.3, math.pi / 2, -2.0])
def test_coupling_is_diagonal_zz_phase(theta):
    agree, differ = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    want = np.diag([agree, differ, differ, agree])
    assert np.allclose(matrix_of(f"spins 2\nJ 1 2 {theta!r}\n"), want)


def test_spin_one_is_the_most_significant_bit():
    r = np.cos(0.35) * np.eye(2) - 1j * np.sin(0.35) * SIGMA_X
    got = matrix_of("spins 2\nR 1 x 0.7\nR 2 x 0.7\n")
    assert np.allclose(got, np.kron(r, np.eye(2)) @ np.kron(np.eye(2), r))
    assert np.allclose(matrix_of("spins 2\nR 1 x 0.7\n"), np.kron(r, np.eye(2)))


def test_phase_ledger_is_applied():
    u = np.exp(0.25j) * gates.cnot()
    text = formats.format_sequence(pipeline.compile_unitary(gates.cnot()).sequence)
    res = reference.residuals(text, u)
    assert res.free < 1e-12
    assert res.ledger == pytest.approx(abs(np.exp(0.25j) - 1), rel=1e-9)


@pytest.mark.parametrize("name", sorted(inputs.golden()))
def test_golden_sequences_pass_and_a_dropped_pulse_fails(name):
    u = inputs.golden()[name]
    report = pipeline.compile_unitary(u)
    text = formats.format_sequence(report.sequence)
    tol = pipeline.CompileOptions().tol
    assert reference.failure(reference.residuals(text, u), report.exact, report.verified, tol) is None
    lines = text.splitlines()
    pulse_lines = [k for k, line in enumerate(lines) if line[:1] in ("R", "J")]
    for k in pulse_lines:
        dropped = "\n".join(lines[:k] + lines[k + 1 :]) + "\n"
        res = reference.residuals(dropped, u)
        assert reference.failure(res, report.exact, report.verified, tol) is not None


@pytest.mark.parametrize("workload", sorted(inputs.BUILDERS))
def test_inputs_are_deterministic_unitary_and_seeded(workload):
    a = inputs.make(workload, 7, 3)
    assert np.array_equal(a, inputs.make(workload, 7, 3))
    assert np.allclose(a @ a.conj().T, np.eye(a.shape[0]))
    assert not np.array_equal(a, inputs.make(workload, 8, 3))


def test_oracle_marks_half_the_states():
    diag = np.diag(inputs.oracle(5, 0))
    assert np.count_nonzero(diag.real < 0) == 2**inputs.ORACLE_SPINS // 2


@pytest.mark.parametrize("u", [gates.toffoli(), inputs.dense(3, 0)], ids=["toffoli", "dense"])
def test_traced_composition_matches_compile_unitary(u):
    options = pipeline.CompileOptions()
    spans = tracer.Tracer()
    traced = tracer.traced_compile(u, options, spans, 0)
    report = pipeline.compile_unitary(u)
    assert traced.ops == report.sequence.ops
    assert traced.global_phase == report.sequence.global_phase
    assert (traced.exact, traced.verified) == (report.exact, report.verified)
    assert traced.text == formats.format_sequence(report.sequence)
    names = [s.name for s in spans.spans]
    assert names == [tracer.ROOT, *tracer.STAGES]
    own = tracer.self_times(spans.spans)
    assert sum(own) == pytest.approx(spans.spans[0].end - spans.spans[0].start)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(40)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert pct == pytest.approx(75.0)


def test_every_workload_has_a_calibration_kernel():
    assert set(calibration.PARTS) == set(inputs.BUILDERS)
    kernel = calibration.Kernel(calibration.PARTS["embed"])
    assert kernel.scale(kernel.nominal_s) == pytest.approx(1.0)
    assert kernel.scale(kernel.nominal_s, 3 * kernel.nominal_s) == pytest.approx(0.5)
