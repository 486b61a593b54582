"""Byte-exact pins on emitted sequence text, and a check that each pinned
file realizes its target.

The files under tests/golden/ hold the `format_sequence` text of each case.
cnot and swap date from before the vectorized expand/extract/simulate
kernels, swap_9 from before generator extraction split off idle spins; the
other seven were re-pinned when the peephole began merging across
commuting pulses and commuting words began to go in Gray-code order
(toffoli 23 -> 19 pulses, toffoli_6 21 -> 19, phase_flip_5 92 -> 86,
haar_2 132 -> 128; cphase, fphase and cphase_9 reordered at equal length).
Kernel rewrites must keep every byte; a change that is meant to alter
output updates these files and says why.

The diagonal cases (cphase, fphase, phase_flip_5, cphase_9) never call
`eigh`, so their bytes do not depend on the numerical library.  The others
(cnot, toffoli, swap, toffoli_6, haar_2, swap_9) do: their pulse angles
carry the last bits of LAPACK's eigenvectors (cnot pins 1.5707963267948963,
not ...66), and a BLAS build or CPU that picks other kernels can move those
bits with no defect in this package.  To regenerate on a new platform,
check out the commit that last changed a case's file
(`git log -1 -- tests/golden/<name>.seq`), build its target from CASES
below with it and write
`formats.format_sequence(compile_unitary(u, options).sequence)` to
tests/golden/<name>.seq; then run this module on the current tree, whose
realization test checks the new file independently of its bytes.
"""

from pathlib import Path

import numpy as np
import pytest

from spinpulse import decompose, formats, gates, generator, linalg, sim
from spinpulse.pipeline import CompileOptions, compile_unitary

from conftest import haar_unitary

GOLDEN = Path(__file__).parent / "golden"


# name -> (target, options).  The five named gates are at their CLI
# defaults; the Haar case takes the product-formula route, at a depth that
# keeps its pinned text small.  swap_9 and cphase_9 act on two spins of
# nine, so their generator comes from the active two-spin core alone.
CASES = {
    "cnot": (gates.cnot(), CompileOptions()),
    "toffoli": (gates.toffoli(), CompileOptions()),
    "swap": (gates.swap(), CompileOptions()),
    "cphase": (gates.controlled_phase(), CompileOptions()),
    "fphase": (gates.phase_flip([0b11], 2), CompileOptions()),
    "toffoli_6": (gates.toffoli((2, 5), 3, 6), CompileOptions()),
    "phase_flip_5": (
        gates.phase_flip(np.random.default_rng(5).choice(32, 16, replace=False).tolist(), 5),
        CompileOptions(),
    ),
    "haar_2": (haar_unitary(7, 4), CompileOptions(trotter_steps=4)),
    "swap_9": (gates.swap(2, 8, 9), CompileOptions()),
    "cphase_9": (gates.controlled_phase(3, 7, np.pi, 9), CompileOptions()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sequence_text_is_pinned(name):
    u, options = CASES[name]
    report = compile_unitary(u, options)
    expected = (GOLDEN / f"{name}.seq").read_text(encoding="utf-8")
    assert formats.format_sequence(report.sequence) == expected


def test_haar_case_takes_the_product_formula_route():
    u, options = CASES["haar_2"]
    report = compile_unitary(u, options)
    assert report.strategy == "trotter"
    assert not report.exact


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_sequence_realizes_its_target(name):
    # No phase is fitted: the file's pulses times e^{i*phase} must give the
    # target within 10*tol.  haar_2 is approximate, so its target is the
    # product formula it was compiled from, and up to phase it lies within
    # the reported residual of u (the ledger alone reads 0.15965 against a
    # fitted 0.15960: the formula's error has a global-phase part).
    u, options = CASES[name]
    seq = formats.parse_sequence((GOLDEN / f"{name}.seq").read_text(encoding="utf-8"))
    realized = np.exp(1j * seq.global_phase) * sim.simulate(seq)
    target = u
    if name == "haar_2":
        g = generator.extract_generator(u, options.branch, options.tol)
        plan = decompose.plan(generator.expand(g, options.tol), options.trotter_steps)
        target = np.exp(-1j * plan.dropped_identity) * sim.simulate_plan(plan)
        residual = compile_unitary(u, options).verification_residual
        assert sim.equal_up_to_phase(u, sim.simulate(seq)).residual <= residual
    assert linalg.max_abs_diff(realized, target) < 10 * options.tol
