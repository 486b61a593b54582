import contextlib
import io
import itertools
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpulse import formats, gates, linalg, pauli, sim
from spinpulse.cli import build_parser, main, parse_angle
from spinpulse.pauli import PauliString
from spinpulse.pipeline import compile_unitary

import backend_oracle
from conftest import haar_unitary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle_forms():
    assert parse_angle("1.5") == 1.5
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("-pi/4") == pytest.approx(-np.pi / 4)
    assert parse_angle("3pi/2") == pytest.approx(3 * np.pi / 2)
    assert parse_angle("0.5pi") == pytest.approx(np.pi / 2)
    with pytest.raises(Exception):
        parse_angle("two")


def test_compile_toffoli_round_trips_through_verify(capsys, tmp_path):
    out = tmp_path / "toffoli.seq"
    code, stdout, stderr = run(
        capsys, "compile", "--gate", "toffoli", "--out", str(out)
    )
    assert code == 0
    assert "strategy commuting" in stderr
    code, stdout, _ = run(capsys, "verify", str(out), "--gate", "toffoli")
    assert code == 0
    assert stdout.splitlines()[0].startswith("residual")


def test_compile_writes_parseable_sequence(capsys):
    code, stdout, _ = run(capsys, "compile", "--gate", "cnot", "--control", "1", "--target", "2")
    assert code == 0
    seq = formats.parse_sequence(stdout)
    # five logical pulses, with the one z rotation expanded into three
    assert len(seq.ops) == 7
    m = sim.simulate(seq)
    assert sim.equal_up_to_phase(gates.cnot(1, 2), m, 1e-9).equal


def test_compile_verify_round_trip_four_spins(capsys, tmp_path):
    out = tmp_path / "swap24.seq"
    code, _, _ = run(
        capsys, "compile", "--gate", "swap", "--spins", "2", "4",
        "--num-spins", "4", "--out", str(out),
    )
    assert code == 0
    code, stdout, _ = run(
        capsys, "verify", str(out), "--gate", "swap", "--spins", "2", "4",
        "--num-spins", "4",
    )
    assert code == 0


def test_compile_json_format(capsys):
    code, stdout, _ = run(capsys, "compile", "--gate", "swap", "--format", "json")
    assert code == 0
    seq = formats.sequence_from_dict(json.loads(stdout))
    assert sim.equal_up_to_phase(gates.swap(1, 2), sim.simulate(seq), 1e-9).equal


def test_compile_identity_matrix(capsys, tmp_path):
    path = tmp_path / "id4.txt"
    path.write_text(formats.format_matrix(np.eye(4, dtype=complex)))
    code, stdout, _ = run(capsys, "compile", "--matrix", str(path))
    assert code == 0
    assert formats.parse_sequence(stdout).ops == []


def test_compile_trotter_exit_code(capsys, tmp_path):
    # A Haar 2-spin unitary has no product eigenbasis, so only the product
    # formula applies.
    path = tmp_path / "generic.txt"
    path.write_text(formats.format_matrix(haar_unitary(7, 4)))
    code, stdout, stderr = run(capsys, "compile", "--matrix", str(path))
    assert code == 2
    assert "exact False" in stderr


def test_compile_rejects_non_unitary(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(formats.format_matrix(np.diag([1.0, 2.0]).astype(complex)))
    code, _, stderr = run(capsys, "compile", "--matrix", str(path))
    assert code == 1
    assert "error" in stderr


NOT_UNITARY = {
    "scaled_identity": 2 * np.eye(2),
    "non_normal": np.array([[1, 1], [0, 1]]),
    # a defect on spin 3, on which the cnot itself acts as the identity
    "idle_spin_defect": np.kron(gates.cnot(1, 2), np.diag([1, 1.001])),
}


@pytest.mark.parametrize("command", ["compile", "expand"])
@pytest.mark.parametrize("name", sorted(NOT_UNITARY))
def test_non_unitary_input_exits_1(capsys, tmp_path, command, name):
    path = tmp_path / "bad.txt"
    path.write_text(formats.format_matrix(NOT_UNITARY[name].astype(complex)))
    code, stdout, stderr = run(capsys, command, "--matrix", str(path))
    assert code == 1
    assert stdout == ""
    assert "not unitary" in stderr


def test_expand_toffoli_table(capsys):
    code, stdout, _ = run(capsys, "expand", "--gate", "toffoli", "--branch", "lower")
    assert code == 0
    lines = [l for l in stdout.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 8
    table = {line.split()[0]: float(line.split()[1]) for line in lines}
    assert table["000"] == pytest.approx(-np.pi / 8, abs=1e-9)
    assert table["zzx"] == pytest.approx(np.pi / 4, abs=1e-9)
    assert stdout.splitlines()[-1] == "# exact true"


def test_expand_identity_is_empty(capsys, tmp_path):
    path = tmp_path / "id4.txt"
    path.write_text(formats.format_matrix(np.eye(4, dtype=complex)))
    code, stdout, _ = run(capsys, "expand", "--matrix", str(path))
    assert code == 0
    assert [l for l in stdout.splitlines() if not l.startswith("#")] == []


def test_expand_swap_flags_exact(capsys):
    code, stdout, _ = run(capsys, "expand", "--gate", "swap")
    assert code == 0
    assert stdout.splitlines()[-1] == "# exact true"
    table = {
        line.split()[0]: float(line.split()[1])
        for line in stdout.splitlines()
        if not line.startswith("#")
    }
    assert table["xx"] == pytest.approx(np.pi / 2, abs=1e-9)
    assert table["yy"] == pytest.approx(np.pi / 2, abs=1e-9)
    assert table["zz"] == pytest.approx(np.pi / 2, abs=1e-9)


def test_simulate_empty_sequence(capsys, tmp_path):
    path = tmp_path / "empty.seq"
    path.write_text("spins 2\n")
    code, stdout, _ = run(capsys, "simulate", str(path))
    assert code == 0
    np.testing.assert_array_equal(formats.parse_matrix(stdout), np.eye(4))


def test_simulate_json_output(capsys, tmp_path):
    path = tmp_path / "one.seq"
    path.write_text("spins 1\nR 1 x 3.141592653589793\n")
    code, stdout, _ = run(capsys, "simulate", str(path), "--format", "json")
    assert code == 0
    m = formats.matrix_from_dict(json.loads(stdout))
    np.testing.assert_allclose(m, -1j * pauli.SIGMA["x"], atol=1e-12)


def test_verify_mismatch_exits_3(capsys, tmp_path):
    seq_path = tmp_path / "cnot.seq"
    code, stdout, _ = run(capsys, "compile", "--gate", "cnot", "--out", str(seq_path))
    assert code == 0
    other = tmp_path / "swap.txt"
    other.write_text(formats.format_matrix(gates.swap(1, 2)))
    code, stdout, _ = run(capsys, "verify", str(seq_path), "--matrix", str(other))
    assert code == 3
    assert stdout.splitlines()[0].startswith("residual")


def test_verify_reports_phase(capsys, tmp_path):
    seq_path = tmp_path / "cnot_raw.seq"
    seq_path.write_text(
        "spins 2\n"
        "R 2 y -1.5707963267948966\n"
        "J 1 2 -1.5707963267948966\n"
        "R 2 y 1.5707963267948966\n"
        "R 2 x 1.5707963267948966\n"
        "R 1 z 1.5707963267948966\n"
    )
    code, stdout, _ = run(capsys, "verify", str(seq_path), "--gate", "cnot")
    assert code == 0
    phase = float(stdout.splitlines()[1].split()[1])
    assert phase == pytest.approx(-np.pi / 4, abs=1e-12)


def test_fphase_requires_register_size(capsys):
    code, _, stderr = run(capsys, "expand", "--gate", "fphase", "--marked", "0")
    assert code == 1 and "num-spins" in stderr


def test_fphase_accepts_bitstrings(capsys):
    code, stdout, _ = run(
        capsys, "expand", "--gate", "fphase", "--num-spins", "2", "--marked", "10"
    )
    assert code == 0
    # marked |10> only: the generator is diagonal, all-z words
    words = [l.split()[0] for l in stdout.splitlines() if not l.startswith("#")]
    assert set(words) <= {"00", "0z", "z0", "zz"}


def test_missing_input_file(capsys):
    code, _, stderr = run(capsys, "simulate", "/nonexistent/path.seq")
    assert code == 1 and "error" in stderr


def test_allow_z_flag(capsys):
    code, stdout, _ = run(capsys, "compile", "--gate", "toffoli", "--allow-z")
    assert code == 0
    assert any(line.startswith("R") and " z " in line for line in stdout.splitlines())


def test_full_cnot_flag(capsys):
    code, stdout, _ = run(capsys, "compile", "--gate", "toffoli", "--full-cnot")
    assert code == 0
    seq = formats.parse_sequence(stdout)
    assert sim.equal_up_to_phase(gates.toffoli(), sim.simulate(seq), 1e-9).equal


def test_gate_choices_come_from_gates_table(capsys):
    for name in gates.GATES:
        assert build_parser().parse_args(["compile", "--gate", name]).gate == name
    code, stdout, stderr = run(capsys, "compile", "--gate", "hadamard")
    assert code == 1 and stdout == ""
    assert "invalid choice" in stderr


def test_tiny_cphase_compiles_at_tight_tol(capsys):
    # Eigenphases 1e-9 apart: distinct at tol 1e-12, one cluster at 1e-9.
    code, stdout, _ = run(
        capsys, "compile", "--gate", "cphase", "--phi", "1e-9", "--tol", "1e-12"
    )
    assert code == 0
    assert len(formats.parse_sequence(stdout).ops) == 7
    code, stdout, _ = run(capsys, "compile", "--gate", "cphase", "--phi", "1e-9")
    assert code == 0
    assert "# phase 2.5e-10" in stdout.splitlines()
    assert formats.parse_sequence(stdout).ops == []


def test_tiny_cphase_keeps_terms_above_tol(capsys):
    # The z-word coefficients, 2.5e-12, are noise at the default tol but
    # not at 1e-13.
    argv = ["--gate", "cphase", "--phi", "1e-11", "--tol", "1e-13"]
    code, stdout, _ = run(capsys, "compile", *argv)
    assert code == 0
    assert len(formats.parse_sequence(stdout).ops) == 7
    code, stdout, _ = run(capsys, "expand", *argv)
    assert code == 0
    words = [line.split()[0] for line in stdout.splitlines() if not line.startswith("#")]
    assert words == ["00", "0z", "z0", "zz"]


def test_tiny_cphase_compiles_above_angle_floor(capsys, tmp_path):
    # Pulse angles near 1e-13 sit above reduction.ANGLE_EPS, so they are
    # kept at tol 1e-14 and the sequence verifies.
    argv = ["--gate", "cphase", "--phi", "3e-13", "--tol", "1e-14"]
    out = tmp_path / "floor.seq"
    code, _, _ = run(capsys, "compile", *argv, "--out", str(out))
    assert code == 0
    assert len(formats.parse_sequence(out.read_text()).ops) == 7
    code, _, _ = run(capsys, "verify", str(out), *argv)
    assert code == 0


def test_ten_spin_diagonal_compiles(capsys):
    marked = [str(index) for index in range(0, 1024, 3)]
    code, stdout, stderr = run(
        capsys, "compile", "--gate", "fphase", "--num-spins", "10", "--marked", *marked,
        "--no-verify",
    )
    assert code == 0
    assert len(formats.parse_sequence(stdout).ops) == 1681
    assert "warning" not in stderr


def test_verify_agrees_with_compile_on_near_idle_spins(capsys, tmp_path):
    # Each idle spin is off by 9e-10 < tol; together they leave a residual
    # of 1.8e-9, which compile accepts at 10*tol and verify must too.
    idle = np.diag([1, 1 + 9e-10])
    path = tmp_path / "cnot_idle.txt"
    path.write_text(formats.format_matrix(np.kron(np.kron(gates.cnot(), idle), idle)))
    seq_path = tmp_path / "cnot_idle.seq"
    code, _, _ = run(capsys, "compile", "--matrix", str(path), "--out", str(seq_path))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(seq_path), "--matrix", str(path))
    assert code == 0
    assert float(stdout.split()[1]) == pytest.approx(1.8e-9, rel=1e-3)


def test_verify_trace_orthogonal_mismatch_exits_3(capsys, tmp_path):
    # The sequence simulates to -i*sigma_x, trace-orthogonal to sigma_z.
    seq_path = tmp_path / "x.seq"
    seq_path.write_text("spins 1\nR 1 x 3.141592653589793\n")
    path = tmp_path / "z.txt"
    path.write_text(formats.format_matrix(pauli.SIGMA["z"].astype(complex)))
    code, stdout, _ = run(capsys, "verify", str(seq_path), "--matrix", str(path))
    assert code == 3
    assert stdout.splitlines()[0].startswith("residual")


@pytest.mark.parametrize("command", ["compile", "expand"])
def test_spin_ceiling_covers_compile_and_expand(capsys, command):
    code, stdout, stderr = run(capsys, command, "--gate", "cnot", "--num-spins", "11")
    assert code == 1 and stdout == ""
    assert "11 spins exceeds the compile limit 10" in stderr


def test_tol_below_angle_floor_exits_1(capsys):
    # At tol 1e-15 the pulses of this cphase fall under the 1e-14 angle
    # floor; the compile emitted none, claimed exact and failed to verify.
    code, stdout, stderr = run(
        capsys, "compile", "--gate", "cphase", "--phi", "1.39e-14", "--tol", "1e-15"
    )
    assert code == 1 and stdout == ""
    assert "angle floor" in stderr


def test_matrix_file_phase_comment_is_a_comment(capsys, tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("spins 1\n# phase convention: none\n1 0\n0 -1\n")
    code, stdout, _ = run(capsys, "compile", "--matrix", str(path))
    assert code == 0
    assert sim.equal_up_to_phase(
        sim.simulate(formats.parse_sequence(stdout)), pauli.SIGMA["z"], 1e-9
    ).equal


@pytest.mark.parametrize(
    "text",
    [
        "spins 1\nR 1 x nan\n",
        "spins 1\nR 1 x inf\n",
        "spins 2\nJ 1 2 -inf\n",
        "spins 1\n# phase nan\n",
        '{"spins": 1, "phase": 0, "ops": [{"kind": "rotation", "spin": 1, "axis": "x", '
        '"angle": NaN}]}',
        '{"spins": 1, "phase": Infinity, "ops": []}',
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_finite_sequence_values_exit_1(capsys, tmp_path, text, command):
    path = tmp_path / "bad.seq"
    path.write_text(text)
    extra = ["--gate", "cnot"] if command == "verify" else []
    code, stdout, stderr = run(capsys, command, str(path), *extra)
    assert code == 1 and stdout == ""
    assert ("non-finite" if text.startswith("{") else "error: line 2:") in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{seq}"],
        ["verify", "{seq}", "--gate", "cnot", "--num-spins", "11"],
        ["compile", "--gate", "cnot", "--target", "11"],
    ],
)
def test_spin_ceiling_covers_every_command(capsys, tmp_path, argv):
    path = tmp_path / "eleven.seq"
    path.write_text("spins 11\n")
    code, stdout, stderr = run(capsys, *(arg.format(seq=path) for arg in argv))
    assert code == 1 and stdout == ""
    assert "11 spins exceeds the compile limit 10" in stderr


@pytest.mark.parametrize("spins", [0, -1])
def test_json_sequence_header_follows_the_text_rules(capsys, tmp_path, spins):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"spins": spins, "ops": []}))
    code, stdout, stderr = run(capsys, "simulate", str(path))
    assert code == 1 and stdout == ""
    assert "spin count must be positive" in stderr


@pytest.mark.parametrize(
    "text, where",
    [
        ("spins 1\nnan 0\n0 1\n", "line 2"),
        ("spins 1\n1 0\n0 -1e400i\n", "line 3"),
        ('{"spins": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]}', "matrix object"),
    ],
)
@pytest.mark.parametrize("command", ["compile", "expand"])
def test_non_finite_matrix_exits_1(capsys, tmp_path, text, where, command):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, stdout, stderr = run(capsys, command, "--matrix", str(path))
    assert code == 1 and stdout == ""
    assert "non-finite" in stderr and where in stderr


USAGE_ERRORS = [
    (["compile", "--gate", "cphase", "--phi", "pi/0"], "finite"),
    (["compile", "--gate", "cphase", "--phi", "nan"], "finite"),
    (["compile", "--gate", "cphase", "--phi=-inf"], "finite"),
    (["compile", "--gate", "cphase", "--phi", "1e400"], "finite"),
    (["compile", "--gate", "cnot", "--tol", "inf"], "finite"),
    (["expand", "--gate", "cnot", "--tol", "nan"], "finite"),
    (["expand", "--gate", "cnot", "--tol", "0"], "finite"),
    (["verify", "{seq}", "--gate", "cnot", "--tol", "nan"], "finite"),
    (["verify", "{seq}", "--gate", "cnot", "--tol=-1e-9"], "finite"),
    # argparse's own errors exit 1 too, not 2 (an approximate compile)
    (["compile", "--gate", "hadamard"], "invalid choice"),
    (["compile", "--gate", "cnot", "--num-spins", "x"], "invalid int value"),
    (["compile"], "--gate --matrix is required"),
    # a gate option the builder does not take, or a --matrix with one
    (["compile", "--gate", "cnot", "--phi", "1"], "cnot takes no --phi"),
    (["compile", "--gate", "swap", "--controls", "1", "3"], "swap takes no --controls"),
    (["expand", "--matrix", "{seq}", "--num-spins", "2"], "--matrix takes no --num-spins"),
    # one tol rule in all three commands
    (["expand", "--gate", "cnot", "--tol", "1e-15"], "angle floor"),
    (["verify", "{seq}", "--gate", "cnot", "--tol", "1e-15"], "angle floor"),
]


# Ids by position; the message strings would make long ones.
@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))]
)
def test_angle_and_tol_out_of_domain_exit_1(capsys, tmp_path, argv, message):
    path = tmp_path / "cnot.seq"
    path.write_text("spins 2\n")
    code, stdout, stderr = run(capsys, *(arg.format(seq=path) for arg in argv))
    assert code == 1 and stdout == ""
    assert message in stderr


def test_verification_warning_follows_the_report(capsys):
    # Above 6 spins compile skips verification: it warns when verification
    # was asked for, and stays quiet under --no-verify.
    argv = ["compile", "--gate", "cnot", "--num-spins", "7"]
    code, _, stderr = run(capsys, *argv)
    assert code == 0
    assert "warning: 7 spins; verification is disabled above 6 spins" in stderr
    code, _, stderr = run(capsys, *argv, "--no-verify")
    assert code == 0 and "warning" not in stderr


def test_verify_reports_the_phase_ledger(capsys, tmp_path):
    seq_path = tmp_path / "cnot.seq"
    code, _, _ = run(capsys, "compile", "--gate", "cnot", "--out", str(seq_path))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(seq_path), "--gate", "cnot")
    assert code == 0
    label, value = stdout.splitlines()[2].split()
    assert label == "ledger" and float(value) < 10 * linalg.DEFAULT_TOL
    # A ledger off by 0.1 still matches up to phase: exit 0, ledger |e^{0.1i} - 1|.
    seq = formats.parse_sequence(seq_path.read_text())
    seq.global_phase += 0.1
    seq_path.write_text(formats.format_sequence(seq))
    code, stdout, _ = run(capsys, "verify", str(seq_path), "--gate", "cnot")
    assert code == 0
    assert float(stdout.splitlines()[2].split()[1]) == pytest.approx(abs(np.exp(0.1j) - 1))


WORDS = {n: ["".join(w) for w in itertools.product("0xyz", repeat=n)][1:] for n in (1, 2)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2), data=st.data())
def test_expand_exact_flag_matches_compile(n, data):
    words = data.draw(st.lists(st.sampled_from(WORDS[n]), min_size=1, max_size=4, unique=True))
    coeffs = st.floats(0.05, 1.5) | st.floats(-1.5, -0.05)
    g = sum(data.draw(coeffs) * pauli.materialize(PauliString.from_string(w)) for w in words)
    u = backend_oracle.matrix_exp_hermitian(g)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        path = pathlib.Path(tmp) / "u.txt"
        path.write_text(formats.format_matrix(u))
        assert main(["expand", "--matrix", str(path)]) == 0
    flag = out.getvalue().splitlines()[-1]
    assert flag == f"# exact {'true' if compile_unitary(u).exact else 'false'}"
