import numpy as np
import pytest

from spinpulse import formats, generator, linalg, pauli
from spinpulse.cli import main
from spinpulse.generator import BranchConvention, GeneratorExpansion
from spinpulse.pauli import PauliString

from conftest import random_hermitian, random_unitary


def word(text):
    return PauliString.from_string(text)


def test_identity_has_zero_generator():
    g = generator.extract_generator(np.eye(4, dtype=complex))
    assert linalg.max_abs_diff(np.diag(g), np.zeros((4, 4))) < 1e-12


def test_controlled_phase_generator_lower_branch():
    u = np.diag([1, 1, 1, -1]).astype(complex)
    g = np.diag(generator.extract_generator(u, BranchConvention.PRINCIPAL_LOWER))
    # Lower branch sends the -1 eigenvalue to phase -pi, so the generator is
    # -pi times the projector onto the doubly-excited state.
    np.testing.assert_allclose(g, np.diag([0, 0, 0, -np.pi]), atol=1e-12)

    expansion = generator.expand(g)
    assert expansion.identity_coeff == pytest.approx(-np.pi / 4, abs=1e-12)
    expected = {word("z0"): np.pi / 2, word("0z"): np.pi / 2, word("zz"): -np.pi / 2}
    assert set(expansion.coeffs) == set(expected)
    for s, value in expected.items():
        assert expansion.coeffs[s] == pytest.approx(value, abs=1e-12)
    # Both sides of the round trip, against the matrix oracle.
    assert linalg.max_abs_diff(generator.reconstruct(expansion), g) < 1e-12
    assert linalg.max_abs_diff(linalg.matrix_exp_hermitian(g), u) < 1e-12


def test_diagonal_input_keeps_basis_and_order():
    # The generator of a diagonal unitary is its eigenphase vector, in the
    # input basis and order: no eigendecomposition reorders it.
    u = np.diag([1.0 + 0j, -1.0 + 0j])
    lower = generator.extract_generator(u, BranchConvention.PRINCIPAL_LOWER)
    upper = generator.extract_generator(u, BranchConvention.PRINCIPAL_UPPER)
    np.testing.assert_array_equal(lower, [0.0, -np.pi])
    np.testing.assert_array_equal(upper, [0.0, np.pi])
    phases = np.array([0.3, -1.2, 2.5, 0.0])
    g = generator.extract_generator(np.diag(np.exp(-1j * phases)))
    assert g.shape == (4,) and g.dtype == float
    np.testing.assert_allclose(g, phases, atol=1e-15)


TOFFOLI_COEFFS = {
    "z00": np.pi / 4,
    "0z0": np.pi / 4,
    "zz0": -np.pi / 4,
    "00x": np.pi / 4,
    "z0x": -np.pi / 4,
    "0zx": -np.pi / 4,
    "zzx": np.pi / 4,
}


def test_toffoli_generator_expansion():
    toffoli = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
    g = generator.extract_generator(toffoli, BranchConvention.PRINCIPAL_LOWER)
    expansion = generator.expand(g)
    assert expansion.identity_coeff == pytest.approx(-np.pi / 8, abs=1e-9)
    assert {str(s) for s in expansion.coeffs} == set(TOFFOLI_COEFFS)
    for text, value in TOFFOLI_COEFFS.items():
        assert expansion.coeffs[word(text)] == pytest.approx(value, abs=1e-9)


def test_expand_single_basis_term():
    g = 0.7 * pauli.materialize(word("z"))
    expansion = generator.expand(g)
    assert expansion.identity_coeff == 0.0
    assert expansion.coeffs == {word("z"): pytest.approx(0.7)}


def test_expand_zero_matrix():
    expansion = generator.expand(np.zeros((4, 4)))
    assert expansion.coeffs == {}
    assert expansion.identity_coeff == 0.0


def test_expand_matches_trace_oracle(rng):
    g = random_hermitian(rng, 8)
    expansion = generator.expand(g, tol=0.0 + 1e-300)
    norm = 2 ** (3 - 2)
    for s in pauli.enumerate_basis(3):
        expected = np.trace(g @ pauli.materialize(s)).real / norm
        if s.weight == 0:
            # identity stored as the coefficient of the full identity
            assert expansion.identity_coeff == pytest.approx(expected / 2, abs=1e-12)
        else:
            assert expansion.coeffs.get(s, 0.0) == pytest.approx(expected, abs=1e-12)


def test_expand_reconstruct_round_trip(rng):
    g = random_hermitian(rng, 8)
    expansion = generator.expand(g)
    assert linalg.max_abs_diff(generator.reconstruct(expansion), g) < 1e-10


def test_reconstruct_examples():
    assert linalg.max_abs_diff(
        generator.reconstruct(GeneratorExpansion(2)), np.zeros((4, 4))
    ) == 0
    expansion = GeneratorExpansion(1, {word("z"): 0.5})
    np.testing.assert_allclose(
        generator.reconstruct(expansion), np.diag([0.25, -0.25]), atol=1e-15
    )


def test_expand_rejects_non_hermitian():
    with pytest.raises(ValueError):
        generator.expand(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("shape", [(4, 2), (2, 4), (4,), (2, 2, 2)])
def test_extract_rejects_non_square_input(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        generator.extract_generator(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extraction_is_phase_exact(rng, n):
    for _ in range(10):
        u = random_unitary(rng, 2**n)
        g = generator.extract_generator(u)
        assert linalg.max_abs_diff(linalg.matrix_exp_hermitian(g), u) < 1e-8


def test_branch_changes_generator_not_unitary():
    u = np.diag([1, 1, 1, -1]).astype(complex)
    lower = np.diag(generator.extract_generator(u, BranchConvention.PRINCIPAL_LOWER))
    upper = np.diag(generator.extract_generator(u, BranchConvention.PRINCIPAL_UPPER))
    assert linalg.max_abs_diff(lower, upper) > 1
    # The two differ by 2*pi on the flipped eigenspace projector.
    np.testing.assert_allclose(upper - lower, 2 * np.pi * np.diag([0, 0, 0, 1]), atol=1e-12)
    for g in (lower, upper):
        assert linalg.max_abs_diff(linalg.matrix_exp_hermitian(g), u) < 1e-8


def test_coefficients_real_for_hermitian_input(rng):
    expansion = generator.expand(random_hermitian(rng, 8))
    for value in expansion.coeffs.values():
        assert isinstance(value, float)


def test_degenerate_eigenvalues_get_common_phase(rng):
    # A unitary with a degenerate -1 pair straddling the branch cut must not
    # pick up a 2*pi tear inside the eigenspace.
    v = random_unitary(rng, 4)
    u = v @ np.diag([1, 1, -1, -1]).astype(complex) @ v.conj().T
    g = generator.extract_generator(u)
    assert linalg.max_abs_diff(linalg.matrix_exp_hermitian(g), u) < 1e-8
    eigenvalues = np.linalg.eigvalsh(g)
    np.testing.assert_allclose(sorted(eigenvalues), [-np.pi, -np.pi, 0, 0], atol=1e-8)


def test_clusters_stay_narrow_next_to_the_cut():
    # Eigenvalue angles (-9.9, 0, 9.9 x 6) * tol: the first two are one
    # cluster and the six another.  The sweep goes on across the -pi cut
    # from the last cluster's first member, which is 19.8*tol from the
    # first cluster's first member, so the two stay apart; one shared mean
    # would sit 16*tol from the first eigenvalue.
    tol = 1e-9
    angles = np.array([-9.9, 0, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9]) * tol
    g = generator.extract_generator(np.diag(np.exp(1j * angles)), tol=tol)
    np.testing.assert_allclose(g, [4.95e-9, 4.95e-9] + [-9.9e-9] * 6, rtol=1e-6)


def test_format_expansion_rendering(capsys):
    expansion = GeneratorExpansion(
        2, {word("z0"): np.pi / 2, word("0x"): -0.25}, identity_coeff=-np.pi / 4
    )
    lines = generator.format_expansion(expansion).splitlines()
    assert lines[0].startswith("00 ")
    assert lines[1] == "0x -0.25"
    assert lines[2].startswith("z0 ")
    assert len(lines) == 3
    # the `# exact` flag is the compile route's, which `spinpulse expand` adds
    assert main(["expand", "--gate", "cphase", "--phi", "pi/2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# exact true"


def test_format_expansion_flags_noncommuting(capsys, tmp_path):
    # Three pairwise anticommuting terms take the inexact product-formula route.
    g = sum(c * pauli.materialize(word(a)) for a, c in (("x", 0.3), ("y", 0.4), ("z", 0.5)))
    path = tmp_path / "xyz.txt"
    path.write_text(formats.format_matrix(linalg.matrix_exp_hermitian(g)))
    assert main(["expand", "--matrix", str(path)]) == 0
    *table, flag = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in table if line[0] != "0"] == ["x", "y", "z"]
    assert flag == "# exact false"


@pytest.mark.parametrize(
    "row, col, value",
    # (2, 1) sits in an off-diagonal block of the idle-looking first spin
    [(0, 0, np.nan), (0, 1, np.nan), (2, 1, np.nan), (3, 2, np.inf), (1, 1, -np.inf)],
)
def test_non_finite_entry_rejected(row, col, value):
    u = np.eye(4, dtype=complex)
    u[row, col] = value
    with pytest.raises(ValueError, match="non-finite"):
        generator.extract_generator(u)
