"""Byte-exact pins on emitted sequence text.

The files under tests/golden/ hold the `format_sequence` text of each case
as produced before the vectorized expand/extract/simulate kernels replaced
the recursive and kron-based ones; swap_9 and cphase_9 were produced before
generator extraction split off idle spins.  Kernel rewrites must
keep every byte; a change that is meant to alter output updates these files
and says why.

The diagonal cases (cphase, fphase, phase_flip_5, cphase_9) never call
`eigh`, so their bytes do not depend on the numerical library.  The others
(cnot, toffoli, swap, toffoli_6, haar_2, swap_9) do: their pulse angles
carry the last bits of LAPACK's eigenvectors (cnot pins 1.5707963267948963,
not ...66), and a BLAS build or CPU that picks other kernels can move those
bits with no defect in this package.  To regenerate on a new platform,
check out the commit that first pinned a case (for the first eight, the one
before "Vectorize the expand, extract and simulate kernels"; for swap_9 and
cphase_9, the one before "Diagonalize only the active core in generator
extraction"), build its target from CASES below with it and write
`formats.format_sequence(compile_unitary(u, options).sequence)` to
tests/golden/<name>.seq; then run this test on the current tree.
"""

from pathlib import Path

import numpy as np
import pytest

from spinpulse import formats, gates
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
