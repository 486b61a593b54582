"""Extraction of the Hermitian generator of a unitary and its expansion in
the product-operator basis.

Every unitary satisfies u = exp(-i*g) for a Hermitian g.  The eigenphase of
each eigenvalue lambda = e^{-i*theta} is only defined modulo 2*pi; the
branch convention pins theta to a half-open interval.  The expansion writes
g as identity_coeff * Id plus a real combination of nonzero-weight basis
operators; the identity part never becomes a pulse, it is carried as the
global phase e^{-i*identity_coeff}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .pauli import PauliString


class BranchConvention(enum.Enum):
    """Interval the eigenphases are folded into."""

    PRINCIPAL_LOWER = "lower"  # theta in [-pi, pi)
    PRINCIPAL_UPPER = "upper"  # theta in (-pi, pi]


@dataclass(frozen=True)
class GeneratorExpansion:
    """Real coefficients of a Hermitian operator over the basis words.

    `coeffs` maps nonzero-weight words to their coefficients; the identity
    component is kept apart in `identity_coeff`, expressed as the
    coefficient of the full identity matrix.
    """

    num_spins: int
    coeffs: dict[PauliString, float] = field(default_factory=dict)
    identity_coeff: float = 0.0

    def terms(self) -> list[tuple[PauliString, float]]:
        """Nonzero-weight terms in deterministic basis order."""
        return sorted(self.coeffs.items())

    def all_commuting(self) -> bool:
        """True iff every pair of terms commutes.

        With each word's x and z masks unpacked into bit rows X and Z, two
        words commute iff sum(x1*z2 + z1*x2) is even, i.e. iff A = X @ Z^T
        is symmetric mod 2.  Pairwise commuting words span an isotropic
        subspace of F2^(2n), which holds at most 2**n words, so a longer list
        fails before the T x T matrix is built (a dense generator has up to
        4**n - 1 terms).
        """
        if not self.coeffs:
            return True
        if len(self.coeffs) > 2**self.num_spins:
            return False
        masks = np.array([(word.x, word.z) for word in self.coeffs], dtype=np.int64)
        bits = (masks[:, :, None] >> np.arange(self.num_spins)) & 1
        parity = (bits[:, 0] @ bits[:, 1].T) % 2
        return np.array_equal(parity, parity.T)


def _cluster_indices(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices in angle order: a value joins the current cluster while
    it stays within tol of the cluster's first member, so no cluster grows
    wider than tol however its members chain."""
    order = np.argsort(np.angle(values), kind="stable").tolist()
    points = values.tolist()
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and abs(points[idx] - points[clusters[-1][0]]) <= tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    # The angle sort cuts the unit circle at -pi.  The sweep goes on across
    # the cut: the first cluster's members join the last cluster while they
    # stay within tol of its first member.
    if len(clusters) > 1:
        head, first = points[clusters[-1][0]], clusters[0]
        joined = 0
        while joined < len(first) and abs(points[first[joined]] - head) <= tol:
            joined += 1
        clusters[-1] = first[:joined] + clusters[-1]
        clusters[0] = first[joined:]
    return [cluster for cluster in clusters if cluster]


def _common_phases(eigenvalues: np.ndarray, branch: BranchConvention, tol: float) -> np.ndarray:
    """Eigenphase theta of each eigenvalue lambda = e^{-i*theta}, folded into
    the branch interval; every cluster of eigenvalues within 10*tol takes
    the phase of its normalized mean.  The arithmetic stays per scalar:
    numpy's array division can round differently."""
    phases = np.empty(eigenvalues.shape[0], dtype=float)
    for cluster in _cluster_indices(eigenvalues, 10 * tol):
        rep = np.mean(eigenvalues[cluster]) if len(cluster) > 1 else eigenvalues[cluster[0]]
        rep /= abs(rep)
        theta = -float(np.angle(rep))  # lands in [-pi, pi)
        if branch is BranchConvention.PRINCIPAL_UPPER and theta <= -np.pi:
            theta += 2 * np.pi
        phases[cluster] = theta
    return phases


def _peel_idle_spins(
    u: np.ndarray, num_spins: int, tol: float
) -> tuple[np.ndarray, list[int], float]:
    """Split u ~= core (x) I over its idle spins.

    u is a matrix, or the diagonal of a diagonal one.  A spin is idle when,
    on the (2**k, 2, rest) row and column view of the current core, both
    off-diagonal blocks and the difference of the two diagonal blocks stay
    below tol (a diagonal has no off-diagonal blocks); its upper diagonal
    block becomes the new core, half as long.  Returns the core, the
    0-based spins it acts on in increasing order, and the summed
    deviations: exp(-i*g_core) (x) I is within that sum of u plus the
    core's own residual.
    """
    core = u
    active: list[int] = []
    deviation = 0.0
    for spin in range(num_spins):
        k = len(active)  # axis of `spin` in the current core
        half = core.shape[0] // 2
        rest = half >> k
        if core.ndim == 1:
            v = core.reshape(2**k, 2, rest)
            upper, lower, spin_dev = v[:, 0], v[:, 1], 0.0
        else:
            v = core.reshape(2**k, 2, rest, 2**k, 2, rest)
            upper, lower = v[:, 0, :, :, 0], v[:, 1, :, :, 1]
            spin_dev = max(np.max(np.abs(v[:, 0, :, :, 1])), np.max(np.abs(v[:, 1, :, :, 0])))
        if spin_dev < tol:
            spin_dev = max(spin_dev, np.max(np.abs(upper - lower)))
        if spin_dev < tol:
            core = upper.reshape((half,) * core.ndim)
            deviation += float(spin_dev)
        else:
            active.append(spin)
    return core, active, deviation


def _embed(g_core: np.ndarray, active: list[int], num_spins: int) -> np.ndarray:
    """g_core (x) I with the core's spins placed on `active` (0-based,
    increasing) and the identity on the others.  One scatter into a zero
    matrix writes only the dim**2 / 2**idle nonzero entries; a kron plus an
    axis transpose would copy the full matrix twice."""
    if len(active) == num_spins:
        return g_core

    def offsets(spins):
        # Basis-index offset of each bit pattern on `spins`, the first spin
        # most significant, in the order of the pattern's own index.
        idx = np.zeros(1, dtype=np.intp)
        for spin in spins:
            idx = (idx[:, None] + [0, 1 << (num_spins - 1 - spin)]).ravel()
        return idx

    idle = [spin for spin in range(num_spins) if spin not in active]
    rows = offsets(active)[:, None] + offsets(idle)  # rows[a, j]: core row a, idle state j
    g = np.zeros((2**num_spins,) * 2, dtype=complex)
    g[rows[:, None, :], rows[None, :, :]] = g_core[:, :, None]
    return g


def extract_generator(
    u: np.ndarray,
    branch: BranchConvention = BranchConvention.PRINCIPAL_LOWER,
    tol: float = linalg.DEFAULT_TOL,
) -> np.ndarray:
    """Hermitian g with exp(-i*g) == u, eigenphases folded per `branch`.

    Eigenvalues within 10*tol of their cluster's first member (in angle
    order) get one common phase so g stays well defined on degenerate
    subspaces.  Spins on which u acts as the identity are split off first:
    only the active core is diagonalized, and g is g_core (x) I on the
    original spin axes.  When u is diagonal within
    tol, so is g, and it comes back as its real diagonal: a vector of
    length 2**n in the input basis and order.  Otherwise g is a matrix.

    This is the unitarity test of the tolerance model (see CompileOptions):
    ValueError unless u is square and finite, every peeled spin is idle
    within tol, the core passes the 10*tol spectral check of
    linalg.eig_unitary (a diagonal core: every ||lambda| - 1| within
    10*tol) and exp(-i*g) rebuilds u within 10*tol.
    """
    u = linalg.require_square(u)
    n = linalg.num_spins_for_dim(u.shape[0])
    # sum |u_ij|**2, not finite when an entry is not: nan passes every test below
    if not np.isfinite(np.vdot(u, u)):
        raise ValueError("matrix has a non-finite entry")
    diagonal = np.diagonal(u)
    off_diagonal = np.inf
    # A unitary's columns have unit norm, so if it is diagonal within tol,
    # sum |u_ii|**2 is within dim*tol**2 of dim.  This O(2**n) screen turns
    # permutations away before the O(4**n) pass over the off-diagonal.
    if u.shape[0] - np.vdot(diagonal, diagonal).real < 0.5:
        magnitudes = np.abs(u)
        np.fill_diagonal(magnitudes, 0.0)
        off_diagonal = float(np.max(magnitudes))

    if off_diagonal < tol:
        # Peel, cluster and check on the vector, then broadcast the core's
        # phases over the idle spins' axes.  The off-diagonal entries are in
        # u but not in exp(-i*g), so they count towards the residual.
        core, active, deviation = _peel_idle_spins(diagonal, n, tol)
        linalg.require_unitary_spectrum(core, off_diagonal, tol)
        phases = _common_phases(core, branch, tol)
        residual = max(off_diagonal, linalg.max_abs_diff(np.exp(-1j * phases), core))
        axes = [2 if spin in active else 1 for spin in range(n)]
        g = np.broadcast_to(phases.reshape(axes), (2,) * n).reshape(-1)
    else:
        core, active, deviation = _peel_idle_spins(u, n, tol)
        decomp = linalg.eig_unitary(core, tol)
        phases = _common_phases(decomp.eigenvalues, branch, tol)
        t_dag = decomp.t.conj().T
        g_core = (t_dag * phases) @ decomp.t
        g = _embed((g_core + g_core.conj().T) / 2, active, n)
        # exp(-i*g) shares g's eigenbasis, so the reconstruction is checked
        # there instead of diagonalizing g a second time.
        residual = linalg.max_abs_diff((t_dag * np.exp(-1j * phases)) @ decomp.t, core)
    residual += deviation
    if residual > 10 * tol:
        raise ValueError(
            f"generator reconstruction residual {residual:.3e} exceeds {10 * tol:.1e}"
        )
    return g


def _sigma_coefficients(m: np.ndarray) -> np.ndarray:
    """Flat array c with c[w] = trace(m @ sigma_w) / dim over all 4**n axis
    words w in basis order.

    Each spin's row bit r and column bit c are interleaved into one axis of
    length four indexed 2*r + c, giving a (4,)*n view of m.  One butterfly
    pass per spin maps the four 2x2 block entries a, b, c, d on that axis to
    the coefficients of E, sigma_x, sigma_y, sigma_z (before scaling):
    [a + d, b + c, i*(b - c), a - d].  That is n passes of O(4**n) work
    (Hantzko, Binkowski & Gupta, arXiv:2310.13421).  The passes run in spin
    order and dim divides once at the end: another order moves the last
    bits of the coefficients, and with them the emitted pulse angles.
    """
    dim = m.shape[0]
    n = dim.bit_length() - 1
    t = np.asarray(m, dtype=complex).reshape((2,) * (2 * n))
    t = t.transpose([axis for spin in range(n) for axis in (spin, n + spin)])
    for spin in range(n):
        t = t.reshape(4**spin, 4, -1)
        a, b, c, d = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
        t = np.stack([a + d, b + c, 1j * (b - c), a - d], axis=1)
    return t.reshape(-1) / dim


def _walsh_coefficients(d: np.ndarray) -> np.ndarray:
    """_sigma_coefficients of diag(d), over the z-words only: c[z] is the
    coefficient of the word with z-mask z (a Walsh-Hadamard transform; Welch
    et al., NJP 16:033040, 2014).  On a diagonal the butterfly's b and c
    vanish, so one pass per spin maps the two entries a, d on that spin's
    axis to [a + d, a - d]: n passes of O(2**n) work, in the same order and
    with the same additions as the full butterfly, so the bits agree."""
    dim = d.shape[0]
    t = d
    for spin in range(dim.bit_length() - 1):
        t = t.reshape(2**spin, 2, -1)
        a, d = t[:, 0], t[:, 1]
        t = np.stack([a + d, a - d], axis=1)
    return t.reshape(-1) / dim


def expand(g: np.ndarray, tol: float = linalg.DEFAULT_TOL) -> GeneratorExpansion:
    """Expand Hermitian g over the basis words.

    g is a matrix, or the real diagonal of a diagonal one (as
    extract_generator returns it), whose expansion holds z-words only.  The
    coefficient of a nonzero-weight word s is
    trace(g @ materialize(s)) / 2**(n-2).  g is Hermitian iff every
    coefficient is real, so an imaginary residue above tol is the
    non-Hermitian error.  Words are dropped smallest first while the summed
    magnitude of the dropped coefficients stays below tol, so the dropped
    part of g has operator norm below tol/2 at any spin count (a basis
    operator has norm 1/2).  The identity coefficient is kept at any size:
    it costs no pulse and goes to the phase ledger.
    """
    g = np.asarray(g)
    n = linalg.num_spins_for_dim(g.shape[0])
    sigma_coeffs = _walsh_coefficients(g) if g.ndim == 1 else _sigma_coefficients(g)
    worst_imag = float(np.max(np.abs(sigma_coeffs.imag)))
    if worst_imag > tol:
        raise ValueError(f"imaginary coefficient residue {worst_imag:.3e} exceeds {tol:.1e}")

    # Basis operators are sigma-strings over two, so their coefficients are
    # twice the sigma coefficients; the identity keeps the raw value.
    identity_coeff = float(sigma_coeffs[0].real)
    values = 2 * sigma_coeffs.real
    magnitudes = np.abs(values)
    magnitudes[0] = 0.0
    dropped = magnitudes < tol
    if np.sum(magnitudes, where=dropped) >= tol:
        small = np.nonzero(dropped)[0]
        small = small[np.argsort(magnitudes[small], kind="stable")]
        dropped[small[np.cumsum(magnitudes[small]) >= tol]] = False
    dropped[0] = True
    kept = np.nonzero(~dropped)[0].tolist()
    if g.ndim == 1:
        # z-words sort by z-mask as by basis index, so the stable sort above
        # drops the words the matrix path would.
        words = [PauliString(n, 0, z) for z in kept]
    else:
        words = [PauliString.from_index(index, n) for index in kept]
    coeffs = dict(zip(words, values[kept].tolist()))
    return GeneratorExpansion(num_spins=n, coeffs=coeffs, identity_coeff=identity_coeff)


def format_expansion(expansion: GeneratorExpansion) -> str:
    """Render one `<word> <coefficient>` line per term in basis order, the
    identity row first when present."""
    lines = []
    if expansion.identity_coeff != 0.0:
        lines.append(f"{'0' * expansion.num_spins} {expansion.identity_coeff:.12g}")
    for word, value in expansion.terms():
        lines.append(f"{word} {value:.12g}")
    return "".join(f"{line}\n" for line in lines)
