"""Top-level compilation: generator extraction, decomposition, reduction,
and verification by direct simulation up to global phase."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import decompose, generator, linalg, reduction, sim
from .generator import BranchConvention
from .pulse import PulseSequence

# Simulating costs 2**n; above this verification is forced off.
DEFAULT_VERIFY_LIMIT = 6


@dataclass(frozen=True)
class CompileOptions:
    """Settings of one compile.

    Tolerance model: `tol` is the one input tolerance, and every threshold
    a compile applies derives from it.
    - Unitary (extract_generator): u counts as diagonal when every
      off-diagonal entry is below tol; a spin is split off as idle when it
      moves u by less than tol; the remaining core must be normal, with
      every ||lambda| - 1|, within 10*tol (linalg.eig_unitary); and
      exp(-i*g) must rebuild u within 10*tol, the idle spins' deviations
      included.  Otherwise u is rejected as not unitary.
    - Degenerate: in angle order, an eigenvalue joins the current cluster
      while it stays within 10*tol of the cluster's first member, and a
      cluster shares the phase of its mean; so a cluster is never wider
      than 10*tol, however closely its neighbours chain.
    - Nonzero (generator.expand): words are dropped smallest first while
      the summed magnitude of their coefficients stays below tol, so they
      move exp(-i*g) by less than tol/2 at any spin count; an imaginary
      coefficient residue above tol rejects g as not Hermitian.  The
      identity coefficient is never dropped: it costs no pulse and goes to
      the phase ledger.
    - Frame (decompose.route): per-spin frames R are accepted when the
      words of R-dagger g R that still carry an x or y letter sum below
      tol, the same budget, and those words are dropped; conjugation by R
      is unitary, so they too move exp(-i*g) by less than tol/2, and the
      diagonal core is expanded under the rule above.
    - Equal (sim.equal_up_to_phase): a sequence verifies when its simulated
      matrix, times the phase of tr(simulated† u), matches u entry by entry
      within 10*tol; `spinpulse verify` compares at the same bound.
    So an accepted input either takes an approximate route (exit 2) or
    verifies within 10*tol; tests/test_tolerance.py checks this on inputs a
    few tol away from exact gates.  tol must be finite and may not go below
    reduction.ANGLE_EPS (1e-14), the rounding floor under which cancelling
    pulse angles are dropped, so a pulse it drops moves the sequence by
    less than tol/2.
    linalg.require_unitary is not part of the model.
    """

    branch: BranchConvention = BranchConvention.PRINCIPAL_LOWER
    allow_z: bool = False
    use_pseudo_cnot: bool = True
    trotter_steps: int = decompose.DEFAULT_TROTTER_STEPS
    tol: float = linalg.DEFAULT_TOL
    verify: bool = True
    max_verify_spins: int = DEFAULT_VERIFY_LIMIT

    def __post_init__(self):
        if not reduction.ANGLE_EPS <= self.tol < math.inf:  # NaN fails this too
            raise ValueError(
                f"tol must be finite and at least the angle floor {reduction.ANGLE_EPS:g}"
            )
        if self.trotter_steps < 1:
            raise ValueError("trotter_steps must be at least 1")


@dataclass
class CompileReport:
    """Compilation outcome.

    `verified` is None when verification was skipped; otherwise it records
    whether the simulated sequence matched the target up to global phase
    within 10*tol (see CompileOptions).
    """

    sequence: PulseSequence
    exact: bool
    strategy: str
    verification_residual: float | None = None
    verified: bool | None = None


def compile_unitary(u: np.ndarray, options: CompileOptions | None = None) -> CompileReport:
    """Compile a unitary matrix into a pulse sequence.

    A verification failure does not raise: the report carries the residual
    and the sequence either way.  Extraction raises for a non-unitary u.
    """
    options = options or CompileOptions()
    u = np.asarray(u, dtype=complex)
    g = generator.extract_generator(u, options.branch, options.tol)
    expansion = generator.expand(g, options.tol)
    plan = decompose.plan(expansion, trotter_steps=options.trotter_steps, tol=options.tol)
    seq = reduction.reduce_plan(
        plan, allow_z=options.allow_z, use_pseudo_cnot=options.use_pseudo_cnot
    )
    report = CompileReport(sequence=seq, exact=plan.exact, strategy=plan.strategy)
    if options.verify and seq.num_spins <= options.max_verify_spins:
        comparison = sim.equal_up_to_phase(u, sim.simulate(seq), 10 * options.tol)
        report.verification_residual = comparison.residual
        report.verified = comparison.equal
    return report
