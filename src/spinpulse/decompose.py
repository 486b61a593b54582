"""Decomposition of exp(-i * sum of basis terms) into single operators.

A single operator is exp(-i*angle*B) for one basis word B.  Three exact
routes are available: a term-by-term product when all words commute, an
Euler sandwich when exactly two anticommuting words remain, and the
paper's axes transformation applied to the whole generator when its
eigenbasis is a product of single-spin bases: per-spin frames turn every
x/y letter into z, and the diagonal core goes the commuting way.  Anything
else falls back to a first-order product formula.

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
    dropped_identity: float = 0.0


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


def _axis_ops(num_spins: int, spin: int, axis: np.ndarray):
    """Time-ordered rotations mapping the z axis of `spin` onto the unit
    vector `axis`, their inverses (also time-ordered), and the SO(3) matrix
    o they act by: conjugation by the rotations takes v . I to (o v) . I."""
    x, y, z = axis.tolist()
    polar = math.atan2(math.hypot(x, y), z)
    azimuth = math.atan2(y, x) if (x, y) != (0.0, 0.0) else 0.0
    forward = []
    if polar != 0.0:
        forward.append(SingleOp(PauliString.single(num_spins, spin, "y"), polar))
    if azimuth != 0.0:
        forward.append(SingleOp(PauliString.single(num_spins, spin, "z"), azimuth))
    inverse = [SingleOp(op.s, -op.angle) for op in reversed(forward)]
    cp, sp, ca, sa = math.cos(polar), math.sin(polar), math.cos(azimuth), math.sin(azimuth)
    o = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]]) @ [[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]]
    return forward, inverse, o


def _local_frame(expansion: GeneratorExpansion, tol: float):
    """Per-spin frames R = (x)R_k with g = R D R-dagger for a diagonal D, or
    None.

    The coefficients lie in a (4,)*n tensor, one axis per spin indexed
    0, x, y, z.  When g has a product eigenbasis, each spin's x/y/z slab is
    rank one, n_k times a row, and n_k is the axis R_k turns z onto: the
    top eigenvector of the slab's 3x3 Gram matrix, signed so that the
    first nonzero of its z, x, y components is positive.  Rotating every
    slab by o_k-transpose gives the coefficients of D = R-dagger g R; the
    frame is accepted when the words still carrying an x or y letter sum
    below tol in magnitude, the drop budget of generator.expand.

    A spin whose two smaller Gram eigenvalues exceed tol**2 rejects early:
    they add up to the sum of squares its x/y rows keep after the rotation,
    and the magnitudes of those words sum to at least its square root.  The
    margin covers the Gram matrix's rounding, which is relative to its trace.

    Returns (inverse ops, diagonal of D without its identity part, forward
    ops), ops time-ordered.
    """
    n = expansion.num_spins
    t = np.zeros(4**n)
    t[[word.index for word in expansion.coeffs]] = list(expansion.coeffs.values())
    t = t.reshape((4,) * n)
    pre: list[SingleOp] = []
    post: list[SingleOp] = []
    for spin in range(n):
        slab = np.moveaxis(t, spin, 0)[1:]
        rows = slab.reshape(3, -1)
        gram = rows @ rows.T
        weights, vectors = np.linalg.eigh(gram)
        trace = float(np.trace(gram))
        if weights[0] + weights[1] > tol**2 + 4 ** (n + 1) * np.finfo(float).eps * trace:
            return None
        if trace == 0.0:
            continue
        axis = vectors[:, 2]
        if tuple(axis[[2, 0, 1]]) < (0, 0, 0):
            axis = -axis
        forward, inverse, o = _axis_ops(n, spin + 1, axis)
        slab[:] = np.tensordot(o.T, slab, axes=1)
        pre.extend(inverse)
        post = forward + post
    core = np.ix_(*[[0, 3]] * n)  # the words with only 0 and z letters
    residue = np.abs(t)
    residue[core] = 0.0
    if residue.sum() >= tol:
        return None
    # D's diagonal: the sigma coefficients, half the basis-operator values,
    # under one [a + b, a - b] butterfly per spin.
    d = t[core] / 2
    for spin in range(n):
        d = d.reshape(2**spin, 2, -1)
        d = np.stack([d[:, 0] + d[:, 1], d[:, 0] - d[:, 1]], axis=1)
    return pre, d.reshape(-1), post


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
        dropped_identity=expansion.identity_coeff,
    )


def _route(expansion: GeneratorExpansion, tol: float):
    """(strategy, frame): the route `plan` takes, and _local_frame's result
    on the factorized route."""
    if expansion.all_commuting():
        return STRATEGY_COMMUTING, None
    if len(expansion.coeffs) == 2:
        return STRATEGY_EULER, None
    frame = _local_frame(expansion, tol)
    return (STRATEGY_TROTTER if frame is None else STRATEGY_FACTORIZED), frame


def route(expansion: GeneratorExpansion, tol: float = linalg.DEFAULT_TOL) -> str:
    """The route `plan` takes: commuting when all terms commute, euler for
    exactly two anticommuting terms, factorized when per-spin frames turn
    the generator diagonal within tol, trotter (the one inexact route)
    otherwise."""
    return _route(expansion, tol)[0]


def plan(
    expansion: GeneratorExpansion,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    tol: float = linalg.DEFAULT_TOL,
) -> DecompositionPlan:
    """Decompose along `route(expansion, tol)`: one op per term, the Euler
    sandwich, the frame sandwich or the first-order formula.

    Commuting terms may go in any order; they go in the Gray-code order of
    their z masks (PauliString.gray_rank), ties in basis order, as the CNOT
    ladders of Gray-ordered diagonal terms do in Welch et al., NJP
    16:033040 (2014).  Consecutive z-words form one run, which
    reduction.reduce_plan synthesizes as one parity network, emitting the
    words a flip makes ready in this order.  Words with x or y letters are
    reduced one by one inside their frames; with neighbouring z masks one
    spin apart, their flip ladders share outer levels and cancel in the
    peephole.  The factorized route plans the diagonal core that way: the
    inverse frame ops, then the core's z-words, then the frame ops.
    """
    strategy, frame = _route(expansion, tol)
    if strategy == STRATEGY_TROTTER:
        return trotterize(expansion, trotter_steps)
    if strategy == STRATEGY_FACTORIZED:
        pre, diagonal, post = frame
        ops = pre + list(plan(expand(diagonal, tol)).ops) + post
    elif strategy == STRATEGY_COMMUTING:
        terms = sorted(expansion.coeffs.items(), key=lambda term: (term[0].gray_rank, term[0]))
        ops = [SingleOp(word, value) for word, value in terms]
    else:
        terms = expansion.terms()
        ops = euler_decompose(SingleOp(*terms[0]), SingleOp(*terms[1]))
    return DecompositionPlan(
        num_spins=expansion.num_spins,
        ops=tuple(ops),
        exact=True,
        strategy=strategy,
        dropped_identity=expansion.identity_coeff,
    )
