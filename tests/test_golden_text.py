"""Byte-exact pins on emitted sequence text.

The files under tests/golden/ hold the `format_sequence` text of each case
as produced before the vectorized expand/extract/simulate kernels replaced
the recursive and kron-based ones.  Kernel rewrites must keep every byte;
a change that is meant to alter output updates these files and says why.

The diagonal cases (cphase, fphase, phase_flip_5) never call `eigh`, so
their bytes do not depend on the numerical library.  The others (cnot,
toffoli, swap, toffoli_6, haar_2) do: their pulse angles carry the last
bits of LAPACK's eigenvectors (cnot pins 1.5707963267948963, not ...66),
and a BLAS build or CPU that picks other kernels can move those bits with
no defect in this package.  To regenerate on a new platform, check out the
commit before the kernel rewrite ("Vectorize the expand, extract and
simulate kernels"), build each target of CASES below with it and write
`formats.format_sequence(compile_unitary(u, options).sequence)` to
tests/golden/<name>.seq; then run this test on the current tree.
"""

from pathlib import Path

import numpy as np
import pytest

from spinpulse import formats, gates
from spinpulse.pipeline import CompileOptions, compile_unitary

GOLDEN = Path(__file__).parent / "golden"


def haar_unitary(seed, dim):
    """QR of a complex Gaussian with R's diagonal phases folded into Q."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


# name -> (target, options).  The five named gates are at their CLI
# defaults; the Haar case takes the product-formula route, at a depth that
# keeps its pinned text small.
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
