"""Decomposition of exp(-i * sum of basis terms) into single operators.

A single operator is exp(-i*angle*B) for one basis word B.  Three exact
routes are available: a term-by-term product when all words commute, an
Euler sandwich when exactly two anticommuting words remain, and the
conjugation scheme for generators given as a product of per-spin linear
forms.  Anything else falls back to a first-order product formula.

Plans store ops in time order: the first list element is applied first, so
the matrix product reads right to left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .generator import GeneratorExpansion, expand
from .pauli import PauliString

DEFAULT_TROTTER_STEPS = 64

STRATEGY_COMMUTING = "commuting"
STRATEGY_EULER = "euler"
STRATEGY_FACTORIZED = "factorized"
STRATEGY_TROTTER = "trotter"


@dataclass(frozen=True)
class SingleOp:
    """exp(-i * angle * B) for the basis word `s` (nonzero weight)."""

    s: PauliString
    angle: float

    def __post_init__(self):
        if self.s.weight == 0:
            raise ValueError("identity words are phase, not single operators")
        if not math.isfinite(self.angle):
            raise ValueError(f"non-finite angle {self.angle}")


@dataclass(frozen=True)
class DecompositionPlan:
    """Ordered single operators whose product realizes the source unitary.

    `dropped_identity` is the identity-generator weight left out of the
    ops: the represented unitary equals
    e^{-i*dropped_identity} * (product of ops).
    """

    num_spins: int
    ops: tuple[SingleOp, ...]
    exact: bool
    strategy: str
    trotter_steps: int = 0
    dropped_identity: float = 0.0


@dataclass(frozen=True)
class FactorizedGenerator:
    """Generator given as a product over spins of
    (phi0 * E + phi_x I_x + phi_y I_y + phi_z I_z), one 4-vector
    (phi0, phi_x, phi_y, phi_z) per spin."""

    per_spin: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        if not self.per_spin:
            raise ValueError("need at least one spin")
        for entry in self.per_spin:
            if len(entry) != 4:
                raise ValueError(f"expected 4-vectors, got {entry!r}")

    @property
    def num_spins(self) -> int:
        return len(self.per_spin)

    def matrix(self) -> np.ndarray:
        """Dense Hermitian matrix: the factors act on different spins, so it
        is the kron of the 2x2 factors phi0*E + (phi . sigma)/2, spin 1 first."""
        linalg.require_spin_count(self.num_spins)
        g = np.ones((1, 1), dtype=complex)
        for phi0, *spin_part in self.per_spin:
            factor = phi0 * np.eye(2, dtype=complex)
            for axis, value in zip("xyz", spin_part):
                factor += value * pauli.SIGMA[axis] / 2
            g = np.kron(g, factor)
        return g


def euler_decompose(a: SingleOp, b: SingleOp) -> list[SingleOp]:
    """Rewrite exp(-i*(a + b)) for anticommuting words as a three-op sandwich.

    The pair closes a rotation triple with the word of its commutator, so the
    sum is a single rotation about a tilted axis: conjugating by the
    commutator word tilts the first axis onto it.  Time order; the first and
    third angles are negatives of each other.
    """
    comm = pauli.commutator(a.s, b.s)
    if comm is None:
        raise ValueError(f"{a.s} and {b.s} commute; no rotation triple")
    word, coefficient = comm
    orientation = 1.0 if coefficient.imag > 0 else -1.0
    radius = math.hypot(a.angle, b.angle)
    theta = math.atan2(b.angle * orientation, a.angle)
    return [
        SingleOp(word, -theta),
        SingleOp(a.s, radius),
        SingleOp(word, theta),
    ]


def _axis_ops(num_spins: int, spin: int, spin_part: tuple[float, float, float]):
    """Time-ordered rotations mapping the z axis of `spin` onto the direction
    of `spin_part`, plus their inverses (also time-ordered)."""
    x, y, z = spin_part
    polar = math.atan2(math.hypot(x, y), z)
    azimuth = math.atan2(y, x) if (x, y) != (0.0, 0.0) else 0.0
    forward = []
    if polar != 0.0:
        forward.append(SingleOp(PauliString.single(num_spins, spin, "y"), polar))
    if azimuth != 0.0:
        forward.append(SingleOp(PauliString.single(num_spins, spin, "z"), azimuth))
    inverse = [SingleOp(op.s, -op.angle) for op in reversed(forward)]
    return forward, inverse


def decompose_factorized(
    fg: FactorizedGenerator, tol: float = linalg.DEFAULT_TOL
) -> DecompositionPlan:
    """Exact plan for a factorized generator.

    Per spin, rotate the linear form onto the z axis; the conjugated core is
    the diagonal product of (phi0 E + |spin part| I_z) factors, whose
    z-words generator.expand reads off and which all commute.  Output is the
    time-ordered sandwich inverse-rotations, core, rotations.
    """
    n = fg.num_spins
    diagonal = np.ones(1)
    pre: list[SingleOp] = []
    post: list[SingleOp] = []
    for spin, (phi0, *spin_part) in enumerate(fg.per_spin, start=1):
        spin_part = tuple(float(v) for v in spin_part)
        norm = math.sqrt(sum(v * v for v in spin_part))
        diagonal = np.kron(diagonal, [phi0 + norm / 2, phi0 - norm / 2])
        if norm > 0.0:
            forward, inverse = _axis_ops(n, spin, spin_part)
            pre.extend(inverse)
            post = forward + post
    core = plan(expand(diagonal, tol))
    return DecompositionPlan(
        num_spins=n,
        ops=tuple(pre) + core.ops + tuple(post),
        exact=True,
        strategy=STRATEGY_FACTORIZED,
        dropped_identity=core.dropped_identity,
    )


def trotterize(expansion: GeneratorExpansion, steps: int) -> DecompositionPlan:
    """First-order product formula: per-term ops with angles divided by
    `steps`, the whole list repeated `steps` times."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    cycle = [SingleOp(word, value / steps) for word, value in expansion.terms()]
    return DecompositionPlan(
        num_spins=expansion.num_spins,
        ops=tuple(cycle * steps),
        exact=False,
        strategy=STRATEGY_TROTTER,
        trotter_steps=steps,
        dropped_identity=expansion.identity_coeff,
    )


def plan(
    expansion: GeneratorExpansion, trotter_steps: int = DEFAULT_TROTTER_STEPS
) -> DecompositionPlan:
    """Pick a decomposition route: one op per term in basis order when all
    terms commute, Euler sandwich for exactly two anticommuting terms,
    first-order formula otherwise."""
    terms = expansion.terms()
    if expansion.all_commuting():
        ops = [SingleOp(word, value) for word, value in terms]
        strategy = STRATEGY_COMMUTING
    elif len(terms) == 2:
        ops = euler_decompose(SingleOp(*terms[0]), SingleOp(*terms[1]))
        strategy = STRATEGY_EULER
    else:
        return trotterize(expansion, trotter_steps)
    return DecompositionPlan(
        num_spins=expansion.num_spins,
        ops=tuple(ops),
        exact=True,
        strategy=strategy,
        dropped_identity=expansion.identity_coeff,
    )
