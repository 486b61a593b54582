"""Command-line front end.

Exit codes: 0 exact (and verified, when verification ran), 2 approximate
compilation, 3 verification failure, 1 usage or input error.  stdout
carries artifacts only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

import numpy as np

from . import decompose, formats, gates, generator, linalg, pipeline, sim
from .generator import BranchConvention

_PI_FORM = re.compile(r"(?i)^([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


class OptionError(Exception):
    """Raised by an option type: main exits 1, argparse would exit 2 on a ValueError."""


def parse_angle(text: str) -> float:
    """Finite angle in radians; accepts plain floats and pi forms like
    'pi/4', '-pi', '3pi/2', '0.5pi'."""
    m = _PI_FORM.match(text.strip())
    with contextlib.suppress(ValueError, ZeroDivisionError):
        if m is None:
            angle = float(text)
        else:
            coeff, denom = m.groups()
            coeff += "1" if coeff in ("", "+", "-") else ""
            angle = float(coeff) * math.pi / float(denom or 1)
        if math.isfinite(angle):
            return angle
    raise OptionError(f"cannot parse angle {text!r} as a finite number")


def parse_tol(text: str) -> float:
    """Tolerance: a finite positive float."""
    with contextlib.suppress(ValueError):
        if 0 < (tol := float(text)) < math.inf:
            return tol
    raise OptionError(f"tolerance {text!r} is not a finite positive number")


def _parse_marked(tokens: list[str], num_spins: int) -> list[int]:
    """Marked states as decimal indices or 0/1 bitstrings of length n."""
    return [int(t, 2 if len(t) == num_spins and set(t) <= {"0", "1"} else 10) for t in tokens]


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--gate", choices=sorted(gates.GATES), help="named target gate")
    source.add_argument("--matrix", metavar="FILE", help="matrix file to compile")
    parser.add_argument("--control", type=int, default=1, help="cnot control spin")
    parser.add_argument("--target", type=int, help="cnot/toffoli target spin")
    parser.add_argument(
        "--controls", type=int, nargs=2, default=(1, 2), metavar=("C1", "C2"),
        help="toffoli control spins",
    )
    parser.add_argument(
        "--spins", type=int, nargs=2, default=(1, 2), metavar=("I", "J"),
        help="spin pair for swap/cphase",
    )
    parser.add_argument(
        "--phi", type=parse_angle, default=math.pi,
        help="cphase angle in radians ('pi/4' forms accepted)",
    )
    parser.add_argument(
        "--marked", nargs="+", metavar="STATE",
        help="fphase marked basis states (decimal indices or bitstrings)",
    )
    parser.add_argument(
        "--num-spins", type=int, help="register size (default: smallest that fits)"
    )
    parser.add_argument(
        "--tol", type=parse_tol, default=linalg.DEFAULT_TOL,
        help="input tolerance; verification compares at 10*tol",
    )


def _add_branch_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--branch", choices=["lower", "upper"], default="lower",
        help="eigenphase interval: lower [-pi, pi) or upper (-pi, pi]",
    )


def _load_target(args) -> np.ndarray:
    if args.matrix is not None:
        with open(args.matrix, encoding="utf-8") as fh:
            return formats.parse_matrix(fh.read())
    name = args.gate
    if name == "cnot":
        target = 2 if args.target is None else args.target
        return gates.cnot(args.control, target, args.num_spins)
    if name == "toffoli":
        target = 3 if args.target is None else args.target
        return gates.toffoli(tuple(args.controls), target, args.num_spins)
    if name == "swap":
        return gates.swap(*args.spins, num_spins=args.num_spins)
    if name == "cphase":
        return gates.controlled_phase(*args.spins, phi=args.phi, num_spins=args.num_spins)
    if name == "fphase":
        if args.num_spins is None:
            raise ValueError("fphase requires --num-spins")
        if not args.marked:
            raise ValueError("fphase requires --marked")
        return gates.phase_flip(_parse_marked(args.marked, args.num_spins), args.num_spins)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compile(args) -> int:
    u = _load_target(args)
    n = linalg.num_spins_for_dim(u.shape[0])
    if n > pipeline.DEFAULT_VERIFY_LIMIT:
        print(
            f"warning: {n} spins; verification is disabled above "
            f"{pipeline.DEFAULT_VERIFY_LIMIT} spins", file=sys.stderr,
        )
    options = pipeline.CompileOptions(
        branch=BranchConvention(args.branch),
        allow_z=args.allow_z,
        use_pseudo_cnot=not args.full_cnot,
        trotter_steps=args.trotter_steps,
        tol=args.tol,
        verify=not args.no_verify,
    )
    report = pipeline.compile_unitary(u, options)

    if args.format == "json":
        _emit(json.dumps(formats.sequence_to_dict(report.sequence), indent=2) + "\n", args.out)
    else:
        _emit(formats.format_sequence(report.sequence), args.out)

    ops = len(report.sequence.ops)
    summary = f"strategy {report.strategy}; {ops} ops; exact {report.exact}"
    if report.verified is not None:
        summary += f"; residual {report.verification_residual:.3e}"
    print(summary, file=sys.stderr)

    if report.exact and report.verified is False:
        print("error: verification failed", file=sys.stderr)
        return 3
    return 0 if report.exact else 2


def cmd_expand(args) -> int:
    u = _load_target(args)
    g = generator.extract_generator(u, BranchConvention(args.branch), args.tol)
    expansion = generator.expand(g, args.tol)
    sys.stdout.write(generator.format_expansion(expansion) + "\n")
    return 0


def cmd_simulate(args) -> int:
    with open(args.sequence, encoding="utf-8") as fh:
        seq = formats.parse_sequence(fh.read())
    m = sim.simulate(seq)
    if args.format == "json":
        _emit(json.dumps(formats.matrix_to_dict(m), indent=2) + "\n", args.out)
    else:
        _emit(formats.format_matrix(m), args.out)
    return 0


def cmd_verify(args) -> int:
    with open(args.sequence, encoding="utf-8") as fh:
        seq = formats.parse_sequence(fh.read())
    target = _load_target(args)
    simulated = sim.simulate(seq)
    # phase is reported so that simulated == e^{i*phase} * target
    comparison = sim.equal_up_to_phase(simulated, target, 10 * args.tol)
    print(f"residual {comparison.residual:.6e}")
    print(f"phase {formats.format_float(comparison.phase)}")
    return 0 if comparison.equal else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpulse",
        description="Compile unitaries into x/y-rotation + Ising-coupling pulse sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a gate or matrix to a pulse sequence")
    _add_input_options(p)
    _add_branch_option(p)
    p.add_argument("--allow-z", action="store_true", help="keep z rotations in the output")
    p.add_argument(
        "--full-cnot", action="store_true",
        help="use full controlled-flip sandwiches instead of the pseudo variant",
    )
    p.add_argument(
        "--trotter-steps", type=int, default=decompose.DEFAULT_TROTTER_STEPS, metavar="K"
    )
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", metavar="FILE", help="write the sequence here instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("expand", help="print the generator expansion table")
    _add_input_options(p)
    _add_branch_option(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("simulate", help="render the matrix of a sequence file")
    p.add_argument("sequence", help="pulse sequence file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check a sequence against a gate or matrix")
    p.add_argument("sequence", help="pulse sequence file")
    _add_input_options(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OptionError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
