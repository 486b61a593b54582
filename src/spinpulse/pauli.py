"""Product-operator basis for N spin-1/2 particles.

A basis operator is named by an axis word with one letter per spin, each
slot being one of '0' (identity), 'x', 'y', 'z'.  The word is stored in the
symplectic form of Aaronson & Gottesman (PRA 70:052328, 2004): two bitmasks
x and z with one bit per spin, spin 1 the most significant as in the basis
index, where 'x' sets x, 'z' sets z and 'y' sets both.  The sigma-string of
a word is i**|x&z| * X**x Z**z, and the materialized operator is one half
of it for every word, including the all-zero one (equivalently 2**(q-1)
times the tensor product of E and the spin operators sigma/2 for weight q).

The rest of the compiler goes through the word API below, except in three
places that use the masks directly: generator.expand builds z-words from
their z masks, generator.GeneratorExpansion.all_commuting tests
commutation on the masks in bulk, and reduction.reduce_plan merges the
letters of a run with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, total_ordering

import numpy as np

from . import linalg

# (x, z) bits of each slot letter, and the letter of each x + 2*z.
_BITS = {"0": (0, 0), "x": (1, 0), "y": (1, 1), "z": (0, 1)}
_LETTERS = "0xzy"

_POWERS_OF_I = (1, 1j, -1, -1j)


@total_ordering
@dataclass(frozen=True, slots=True)
class PauliString:
    """Axis word naming one basis operator.  Words sort by their base-4
    basis index (0 < x < y < z per slot, spin 1 most significant), the
    deterministic basis order."""

    num_spins: int
    x: int
    z: int

    def __post_init__(self):
        if self.num_spins < 1:
            raise ValueError("empty axis word")
        if min(self.x, self.z) < 0 or (self.x | self.z) >> self.num_spins:
            raise ValueError(f"masks {self.x}, {self.z} exceed {self.num_spins} spins")

    @classmethod
    def from_string(cls, text: str) -> "PauliString":
        x = z = 0
        for axis in text:
            if axis not in _BITS:
                raise ValueError(f"invalid axis {axis!r}; expected one of '0xyz'")
            bx, bz = _BITS[axis]
            x, z = 2 * x + bx, 2 * z + bz
        return cls(len(text), x, z)

    @classmethod
    def from_index(cls, index: int, num_spins: int) -> "PauliString":
        """Word of a base-4 basis index, one digit per spin: z is the digit's
        high bit and x its high bit XOR its low bit."""
        if not 0 <= index < 4**num_spins:
            raise ValueError(f"index {index} out of range for {num_spins} spins")
        x = z = 0
        for shift in range(num_spins):
            high, low = index >> (2 * shift + 1) & 1, index >> (2 * shift) & 1
            x |= (high ^ low) << shift
            z |= high << shift
        return cls(num_spins, x, z)

    @classmethod
    def single(cls, num_spins: int, spin: int, axis: str) -> "PauliString":
        """Word with one nonzero slot: `axis` on `spin` (1-indexed)."""
        if axis not in _BITS:
            raise ValueError(f"invalid axis {axis!r}; expected one of '0xyz'")
        bit = _spin_bit(num_spins, spin)
        bx, bz = _BITS[axis]
        return cls(num_spins, bx * bit, bz * bit)

    @property
    def index(self) -> int:
        """Base-4 basis index: z spread onto the digits' high bits, x XOR z
        onto their low bits."""
        return 2 * _spread(self.z) + _spread(self.x ^ self.z)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def support(self) -> list[int]:
        """1-indexed spins with a nonzero axis."""
        mask, n = self.x | self.z, self.num_spins
        return [spin for spin in range(1, n + 1) if mask >> (n - spin) & 1]

    def axis(self, spin: int) -> str:
        """Letter of `spin` (1-indexed): one of '0', 'x', 'y', 'z'."""
        shift = self.num_spins - spin
        return _LETTERS[(self.x >> shift & 1) + 2 * (self.z >> shift & 1)]

    def __lt__(self, other: "PauliString") -> bool:
        return (self.num_spins, self.index) < (other.num_spins, other.index)

    def __str__(self) -> str:
        return "".join(self.axis(spin) for spin in range(1, self.num_spins + 1))


@cache
def _spread(mask: int) -> int:
    """Bit k of mask moved to bit 2k: its binary numeral read in base 4."""
    return int(f"{mask:b}", 4)


def _spin_bit(num_spins: int, spin: int) -> int:
    if not 1 <= spin <= num_spins:
        raise ValueError(f"spin {spin} out of range 1..{num_spins}")
    return 1 << (num_spins - spin)


def materialize(s: PauliString) -> np.ndarray:
    """Dense matrix of the basis operator named by `s`: the signed
    permutation i**|x&z| * X**x Z**z / 2, which takes basis state b to
    b ^ x with sign (-1)**|z&b|."""
    n = s.num_spins
    linalg.require_spin_count(n)
    cols = np.arange(2**n)
    parity = (((cols & s.z)[:, None] >> np.arange(n)) & 1).sum(axis=1) % 2
    m = np.zeros((2**n, 2**n), dtype=complex)
    m[cols ^ s.x, cols] = _POWERS_OF_I[(s.x & s.z).bit_count() % 4] * (1 - 2 * parity) / 2
    return m


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the two basis operators commute: the symplectic product
    |x1&z2 ^ z1&x2| must be even."""
    if a.num_spins != b.num_spins:
        raise ValueError(f"length mismatch: {a} vs {b}")
    return (a.x & b.z ^ a.z & b.x).bit_count() % 2 == 0


def agree(a: PauliString, b: PauliString) -> bool:
    """True iff the words carry the same letter on every spin they share."""
    return not ((a.x ^ b.x) | (a.z ^ b.z)) & (a.x | a.z) & (b.x | b.z)


def commutator(a: PauliString, b: PauliString) -> tuple[PauliString, complex] | None:
    """[A, B] for two basis operators: None when they commute, otherwise the
    word c = a XOR b and the coefficient +/-i with
    [materialize(a), materialize(b)] == coefficient * materialize(c).

    Anticommuting sigma-strings give [A, B] = sigma_a sigma_b / 2, and
    sigma_a sigma_b = i**k sigma_c with k = |xa&za| + |xb&zb| - |xc&zc| +
    2|za&xb|, the last term from moving Z**za past X**xb.
    """
    if commutes(a, b):
        return None
    c = PauliString(a.num_spins, a.x ^ b.x, a.z ^ b.z)
    k = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (c.x & c.z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    )
    return c, complex(_POWERS_OF_I[k % 4])

