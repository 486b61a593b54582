"""Command-line front end.

Exit codes: 0 exact (and verified, when verification ran), 2 approximate
compilation, 3 verification failure, 1 usage or input error.  stdout
carries artifacts only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import re
import sys

import numpy as np

from . import decompose, formats, gates, generator, linalg, pipeline, sim
from .generator import BranchConvention

_PI_FORM = re.compile(r"(?i)^([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")

# Options that fill gate-builder parameters; `--spins I J` fills i and j.
_GATE_OPTIONS = ("control", "target", "controls", "spins", "phi", "marked", "num_spins")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise instead of exiting 2, the code of an approximate compile."""
        raise argparse.ArgumentError(None, message)


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
    raise argparse.ArgumentTypeError(f"cannot parse angle {text!r} as a finite number")


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--gate", choices=sorted(gates.GATES), help="named target gate")
    source.add_argument("--matrix", metavar="FILE", help="matrix file to compile")
    parser.add_argument("--control", type=int, help="cnot control spin")
    parser.add_argument("--target", type=int, help="cnot/toffoli target spin")
    parser.add_argument(
        "--controls", type=int, nargs=2, metavar=("C1", "C2"), help="toffoli control spins"
    )
    parser.add_argument(
        "--spins", type=int, nargs=2, metavar=("I", "J"), help="spin pair for swap/cphase"
    )
    parser.add_argument(
        "--phi", type=parse_angle, help="cphase angle in radians ('pi/4' forms accepted)"
    )
    parser.add_argument(
        "--marked", nargs="+", metavar="STATE",
        help="fphase marked basis states (decimal indices or bitstrings)",
    )
    parser.add_argument(
        "--num-spins", type=int, help="register size (default: smallest that fits)"
    )
    parser.add_argument(
        "--tol", type=float, help="input tolerance; verification compares at 10*tol"
    )


def _add_branch_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--branch", type=BranchConvention,
        help="eigenphase interval: lower [-pi, pi) or upper (-pi, pi]",
    )


def _options(args, **flags) -> pipeline.CompileOptions:
    """The compile settings given; CompileOptions supplies and checks the rest."""
    given = {key: getattr(args, key, None) for key in ("tol", "branch", "trotter_steps")}
    return pipeline.CompileOptions(**flags, **{k: v for k, v in given.items() if v is not None})


def _load_target(args) -> np.ndarray:
    """The --matrix file, or the --gate builder called with the gate options
    given; its signature says which options it takes and which it needs."""
    builder = gates.GATES.get(args.gate)
    params = inspect.signature(builder).parameters if builder else {}
    kwargs = {}
    for option in _GATE_OPTIONS:
        if (value := getattr(args, option)) is None:
            continue
        names = ("i", "j") if option == "spins" else (option,)
        if not params.keys() >= set(names):
            raise ValueError(f"{args.gate or '--matrix'} takes no --{option.replace('_', '-')}")
        kwargs.update(zip(names, value if option == "spins" else [value]))
    if builder is None:
        with open(args.matrix, encoding="utf-8") as fh:
            return formats.parse_matrix(fh.read())
    for name, param in params.items():
        if param.default is param.empty and name not in kwargs:
            raise ValueError(f"{args.gate} requires --{name.replace('_', '-')}")
    if "marked" in kwargs:  # decimal indices or 0/1 bitstrings of length num_spins
        n = kwargs["num_spins"]
        kwargs["marked"] = [
            int(t, 2 if len(t) == n and set(t) <= {"0", "1"} else 10) for t in kwargs["marked"]
        ]
    return builder(**kwargs)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compile(args) -> int:
    options = _options(
        args, allow_z=args.allow_z, use_pseudo_cnot=not args.full_cnot, verify=not args.no_verify
    )
    report = pipeline.compile_unitary(_load_target(args), options)

    if args.format == "json":
        _emit(json.dumps(formats.sequence_to_dict(report.sequence), indent=2) + "\n", args.out)
    else:
        _emit(formats.format_sequence(report.sequence), args.out)

    if options.verify and report.verified is None:
        limit = f"verification is disabled above {options.max_verify_spins} spins"
        print(f"warning: {report.sequence.num_spins} spins; {limit}", file=sys.stderr)
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
    options = _options(args)
    g = generator.extract_generator(_load_target(args), options.branch, options.tol)
    expansion = generator.expand(g, options.tol)
    route = decompose.route(expansion, options.tol)
    exact = "false" if route == decompose.STRATEGY_TROTTER else "true"
    sys.stdout.write(generator.format_expansion(expansion) + f"# exact {exact}\n")
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
    options = _options(args)
    target = _load_target(args)
    simulated = sim.simulate(seq)
    # phase is reported so that simulated == e^{i*phase} * target; the
    # ledger checks the file's own phase, e^{i*global_phase} * simulated == target
    comparison = sim.equal_up_to_phase(simulated, target, 10 * options.tol)
    ledger = linalg.max_abs_diff(np.exp(1j * seq.global_phase) * simulated, target)
    print(f"residual {comparison.residual:.6e}")
    print(f"phase {formats.format_float(comparison.phase)}")
    print(f"ledger {ledger:.6e}")
    return 0 if comparison.equal else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--trotter-steps", type=int, metavar="K")
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
    except (argparse.ArgumentError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
