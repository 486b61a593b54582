"""Text and JSON file formats for matrices and pulse sequences.

Matrix files: a `spins N` header, then 2**N rows of 2**N whitespace
separated finite complex entries written like `0.5-0.5i`, `1`, `-1i`.
Sequence files: a `spins N` header, an optional `# phase <real>` line, then
one op per line in time order, `R <spin> <x|y|z> <angle>` or
`J <spin_i> <spin_j> <angle>`; angles and phase must be finite.  `#` starts
a comment (in a matrix file, `# phase` too).  A file starting with `{` is
the JSON object of the *_to_dict functions, held to the same rules.  Floats
are written with shortest round-trip precision so re-parsing reproduces the
in-memory values exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from contextlib import contextmanager
from typing import Any

import numpy as np

from .linalg import num_spins_for_dim
from .pulse import Coupling, PulseOp, PulseSequence, Rotation


def format_float(x: float) -> str:
    if x == 0:
        return "0"
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def format_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return format_float(re)
    if re == 0:
        return format_float(im) + "i"
    sign = "+" if im > 0 else "-"
    return f"{format_float(re)}{sign}{format_float(abs(im))}i"


def parse_complex(token: str) -> complex:
    try:
        z = complex(token.replace("i", "j"))
    except ValueError:
        raise ValueError(f"malformed complex entry {token!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite complex entry {token!r}")
    return z


def _parse_real(value) -> float:
    """float(value), ValueError unless it is finite."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {value!r}")
    return x


def _content_lines(text: str, keep_phase: bool = False):
    """(lineno, line) pairs with comments and blanks stripped; with
    `keep_phase`, `# phase ...` lines are yielded too since they carry data."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") and not (keep_phase and line[1:].split()[:1] == ["phase"]):
            continue
        yield lineno, line


@contextmanager
def _at(where: str):
    """Prefix a ValueError raised inside with the input position `where`."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_header(line: str) -> int:
    """Spin count of a `spins N` header line."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != "spins":
        raise ValueError(f"expected 'spins N' header, got {line!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"bad spin count {parts[1]!r}") from None
    if n < 1:
        raise ValueError("spin count must be positive")
    return n


def format_matrix(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    n = num_spins_for_dim(m.shape[0])
    lines = [f"spins {n}"] + [" ".join(format_complex(z) for z in row) for row in m]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    if text.lstrip().startswith("{"):
        return matrix_from_dict(json.loads(text))
    lines = list(_content_lines(text))
    if not lines:
        raise ValueError("empty matrix file")
    with _at(f"line {lines[0][0]}"):
        n = _parse_header(lines[0][1])
    dim = 2**n
    rows = []
    for lineno, line in lines[1:]:
        tokens = line.split()
        with _at(f"line {lineno}"):
            if len(tokens) != dim:
                raise ValueError(f"expected {dim} entries, got {len(tokens)}")
            rows.append([parse_complex(tok) for tok in tokens])
    if len(rows) != dim:
        raise ValueError(f"expected {dim} matrix rows, got {len(rows)}")
    return np.array(rows, dtype=complex)


def format_sequence(seq: PulseSequence) -> str:
    lines = [f"spins {seq.num_spins}"]
    if seq.global_phase != 0.0:
        lines.append(f"# phase {format_float(seq.global_phase)}")
    for op in seq.ops:
        if isinstance(op, Rotation):
            lines.append(f"R {op.spin} {op.axis} {format_float(op.angle)}")
        else:
            lines.append(f"J {op.i} {op.j} {format_float(op.angle)}")
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> PulseSequence:
    if text.lstrip().startswith("{"):
        return sequence_from_dict(json.loads(text))
    lines = list(_content_lines(text, keep_phase=True))
    if not lines:
        raise ValueError("empty sequence file")
    with _at(f"line {lines[0][0]}"):
        n = _parse_header(lines[0][1])
    phase = 0.0
    ops: list[PulseOp] = []
    for lineno, line in lines[1:]:
        with _at(f"line {lineno}"):
            if line.startswith("#"):
                tokens = line[1:].split()
                if len(tokens) != 2:
                    raise ValueError(f"malformed phase line {line!r}")
                phase = _parse_real(tokens[1])
            else:
                ops.append(_parse_op(line.split(), n))
    return PulseSequence(n, ops, phase)


def _parse_op(parts: list[str], num_spins: int) -> PulseOp:
    kind = parts[0]
    if kind == "R":
        if len(parts) != 4:
            raise ValueError(f"expected 'R <spin> <axis> <angle>', got {parts!r}")
        spin, axis, angle = int(parts[1]), parts[2], _parse_real(parts[3])
        if spin > num_spins:
            raise ValueError(f"spin {spin} out of range 1..{num_spins}")
        return Rotation(spin, axis, angle)
    if kind == "J":
        if len(parts) != 4:
            raise ValueError(f"expected 'J <i> <j> <angle>', got {parts!r}")
        i, j, angle = int(parts[1]), int(parts[2]), _parse_real(parts[3])
        if max(i, j) > num_spins:
            raise ValueError(f"spin {max(i, j)} out of range 1..{num_spins}")
        return Coupling(i, j, angle)
    raise ValueError(f"unknown op kind {kind!r}")


def sequence_to_dict(seq: PulseSequence) -> dict[str, Any]:
    ops: list[dict[str, Any]] = []
    for op in seq.ops:
        if isinstance(op, Rotation):
            ops.append(
                {"kind": "rotation", "spin": op.spin, "axis": op.axis, "angle": op.angle}
            )
        else:
            ops.append({"kind": "coupling", "spins": [op.i, op.j], "angle": op.angle})
    return {"spins": seq.num_spins, "phase": seq.global_phase, "ops": ops}


def sequence_from_dict(data: dict[str, Any]) -> PulseSequence:
    """Inverse of sequence_to_dict: each field goes through the text
    parser's rules as the text it stands for."""
    try:
        with _at("spins"):
            n = _parse_header(f"spins {data['spins']}")
        with _at("phase"):
            phase = _parse_real(str(data.get("phase", 0.0)))
        ops: list[PulseOp] = []
        for index, entry in enumerate(data["ops"]):
            with _at(f"op {index}"):
                ops.append(_parse_op([str(token) for token in _op_tokens(entry)], n))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sequence object: {exc}") from None
    return PulseSequence(n, ops, phase)


def _op_tokens(entry: dict[str, Any]) -> list:
    """Text-format tokens of one op of a sequence object."""
    if entry["kind"] == "rotation":
        return ["R", entry["spin"], entry["axis"], entry["angle"]]
    if entry["kind"] == "coupling":
        return ["J", *entry["spins"], entry["angle"]]
    raise ValueError(f"unknown op kind {entry['kind']!r}")


def matrix_to_dict(m: np.ndarray) -> dict[str, Any]:
    m = np.asarray(m, dtype=complex)
    n = num_spins_for_dim(m.shape[0])
    rows = [[[z.real, z.imag] for z in row] for row in m]
    return {"spins": n, "matrix": rows}


def matrix_from_dict(data: dict[str, Any]) -> np.ndarray:
    try:
        with _at("spins"):
            n = _parse_header(f"spins {data['spins']}")
        rows = data["matrix"]
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from None
    if m.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {m.shape} does not match {n} spins")
    if not np.isfinite(m).all():
        raise ValueError("matrix object has a non-finite entry")
    return m
