"""Benchmark of the spinpulse compiler, driven through its public API.

    python3 bench/run.py --workload {embed,oracle,dense} --seed N \
        --seconds S --trace {0,1}

One compile is `pipeline.compile_unitary(u)` with default options followed
by `formats.format_sequence`, the work `spinpulse compile` does once its
input is loaded.  Each workload runs in its own process on inputs rebuilt
one at a time from the seed (see inputs.py).

--trace 0 prints the end-to-end metrics:
  * setup_s: median over child processes of `import spinpulse` plus one
    warm-up compile of `gates.cnot()`;
  * compile_p50_s, compile_tail_s, compiles_per_s: one caller compiles the
    workload's fixed input list over and over (a closed loop), at least
    twice through and until --seconds of compile time have passed;
  * pulse, coupling and residual quality from the first pass, each
    sequence judged by the independent reference in reference.py outside
    the timed region;
  * peak_rss_mb of the whole process.
Times are reported at nominal machine speed: each measured interval is
scaled by a fixed calibration kernel timed right before and after it (see
calibration.py); the raw figures are printed alongside.
Every later compile must reproduce the first pass's sequence text exactly,
which checks that the compiler is deterministic.

--trace 1 alternates untraced compiles with a traced composition of the
same library calls (tracer.py), checks both give identical sequences, and
prints per-stage metrics, the tracing overhead and the golden-gate census.
Spans are written to .bench_trace/ in the checkout.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A checkout without spinpulse sources exits with code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread (the target machine has two vCPUs): timings stay
# comparable across runs and co-tenants' load perturbs them least.  Set
# before numpy is first imported, here and in the setup children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

if not (SRC / "spinpulse" / "__init__.py").is_file():
    sys.exit(f"bench: no spinpulse sources under {SRC}")
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from spinpulse import formats, pipeline  # noqa: E402
from spinpulse.pulse import Coupling  # noqa: E402

OPTIONS = pipeline.CompileOptions()
TOL = OPTIONS.tol
SETUP_REPEATS = 5
TAIL_BEYOND = 10

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import spinpulse
from spinpulse import formats, gates
formats.format_sequence(spinpulse.compile_unitary(gates.cnot()).sequence)
raw = time.perf_counter() - t0
import statistics
import calibration
kernel = calibration.Kernel(calibration.SETUP_PARTS)
kernel.seconds()  # first call pays numpy's lazy set-up
print(raw, kernel.scale(statistics.median(kernel.seconds() for _ in range(3))))
"""


def compile_text(u):
    report = pipeline.compile_unitary(u)
    return report, formats.format_sequence(report.sequence)


def census(seq) -> tuple[int, int, float]:
    couplings = [op for op in seq.ops if isinstance(op, Coupling)]
    return len(seq.ops), len(couplings), sum(abs(op.angle) for op in couplings)


class Outcomes:
    """Attempted/failed compile counts; failures are explained on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"bench: FAILED {what}: {why}", file=sys.stderr)


def checked_compile(u, what: str, outcomes: Outcomes):
    """Compile, then judge the text with the reference (untimed).
    Returns (report, text, residuals) or None when the compile failed."""
    outcomes.attempted += 1
    try:
        report, text = compile_text(u)
        res = reference.residuals(text, u)
    except Exception as exc:  # a raising compile is a failed compile
        outcomes.fail(what, f"{type(exc).__name__}: {exc}")
        return None
    why = reference.failure(res, report.exact, report.verified, TOL)
    if why:
        outcomes.fail(what, why)
        return None
    return report, text, res


def golden_census(outcomes: Outcomes) -> dict[str, tuple[float, str]]:
    out = {}
    for name, u in inputs.golden().items():
        done = checked_compile(u, f"golden {name}", outcomes)
        if done is None:
            continue
        pulses, couplings, angle = census(done[0].sequence)
        out[f"golden.{name}.pulses"] = (pulses, "count")
        out[f"golden.{name}.couplings"] = (couplings, "count")
        out[f"golden.{name}.coupling_angle_rad"] = (angle, "rad")
    return out


def setup_seconds() -> tuple[float, float]:
    """Medians over fresh interpreters of the set-up time at nominal speed
    and raw."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    nominal, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, scale = map(float, done.stdout.split())
        nominal.append(seconds * scale)
        raw.append(seconds)
    return statistics.median(nominal), statistics.median(raw)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_end_to_end(workload: str, seed: int, seconds: float, outcomes: Outcomes):
    setup, setup_raw = setup_seconds()
    length = inputs.LIST_LENGTH[workload]
    kernel = calibration.Kernel(calibration.PARTS[workload])

    # The first pass over the fixed input list is judged by the reference
    # and gives the quality metrics; every later compile must reproduce the
    # first pass's text exactly.
    texts: list[str | None] = [None] * length
    raw: list[float] = []
    samples: list[float] = []  # at nominal speed
    pulses, couplings, angles, exact, verified, residual = [], [], [], [], [], []
    # Compile the list twice over, then on until --seconds of raw compile
    # time (raw, so a slow machine does not lengthen the run); stop after
    # two passes if every compile raised.
    spent = 0.0
    i = 0
    while i < 2 * length or (raw and spent < seconds):
        index = i % length
        first = i < length
        what = f"input {index} pass {i // length}"
        i += 1
        u = inputs.make(workload, seed, index)
        outcomes.attempted += 1
        before = kernel.seconds()
        t0 = time.perf_counter()
        try:
            report, text = compile_text(u)
            elapsed = time.perf_counter() - t0
            scale = kernel.scale(before, kernel.seconds())
            res = reference.residuals(text, u) if first else None
        except Exception as exc:  # a raising compile is a failed compile
            spent += time.perf_counter() - t0
            outcomes.fail(what, f"{type(exc).__name__}: {exc}")
            continue
        spent += elapsed
        raw.append(elapsed)
        samples.append(elapsed * scale)
        if not first:
            if text != texts[index]:
                outcomes.fail(what, "sequence differs from the first pass")
            continue
        texts[index] = text
        p, c, a = census(report.sequence)
        pulses.append(p)
        couplings.append(c)
        angles.append(a)
        exact.append(report.exact)
        verified.append(report.verified is True)
        residual.append(max(res.ledger, TOL))
        why = reference.failure(res, report.exact, report.verified, TOL)
        if why:
            outcomes.fail(what, why)

    if not pulses:
        raise RuntimeError("every compile of the input list raised")
    tail_s, tail_pct = tail(samples)
    mean = statistics.fmean
    metrics = {
        "setup_s": (setup, "s"),
        "compile_p50_s": (statistics.median(samples), "s"),
        "compile_tail_s": (tail_s, "s"),
        "compiles_per_s": (len(samples) / sum(samples), "1/s"),
        "pulses_per_compile": (mean(pulses), "count"),
        "couplings_per_compile": (mean(couplings), "count"),
        "coupling_angle_rad": (mean(angles), "rad"),
        "residual_mean": (mean(residual), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"raw {setup_raw:.4g} s",
        "compile_p50_s": f"raw {statistics.median(raw):.4g} s; {length} inputs, {len(raw)} compiles",
        "compile_tail_s": f"p{tail_pct:.0f} of {len(samples)} compiles",
        "compiles_per_s": f"raw {len(raw) / sum(raw):.4g} 1/s",
        "residual_mean": f"residual_max {max(residual):.4g}",
        "exact_share": f"{mean(exact):.4g} of {length} listed inputs",
        "verified_share": f"{mean(verified):.4g} of {length} listed inputs",
        "failed_share": f"{outcomes.failed / outcomes.attempted:.4g} "
        f"of {outcomes.attempted} compiles",
    }
    return metrics, notes


def run_traced(workload: str, seed: int, seconds: float, outcomes: Outcomes):
    length = inputs.LIST_LENGTH[workload]
    kernel = calibration.Kernel(calibration.PARTS[workload])
    spans = tracer.Tracer()
    scales: list[float] = []  # per compile id
    untraced = 0.0  # at nominal speed
    elapsed = 0.0
    # One pass over the input list at least, then on until --seconds
    # unless every compile raised.
    ok = 0
    while len(scales) < length or (ok and elapsed < seconds):
        cid = len(scales)
        index = cid % length
        u = inputs.make(workload, seed, index)
        what = f"traced input {index}"
        outcomes.attempted += 1
        before = kernel.seconds()
        error = None
        try:
            # Alternate which side runs first, flipping every pass too, so
            # neither always sees the warmer caches.
            for side in (0, 1) if (cid + cid // length) % 2 == 0 else (1, 0):
                t0 = time.perf_counter()
                if side == 0:
                    report, text = compile_text(u)
                    untraced_raw = time.perf_counter() - t0
                else:
                    traced = tracer.traced_compile(u, OPTIONS, spans, cid)
                elapsed += time.perf_counter() - t0
            res = reference.residuals(text, u) if cid < length else None
        except Exception as exc:
            elapsed += time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        scales.append(kernel.scale(before, kernel.seconds()))
        if error:
            outcomes.fail(what, error)
            continue
        ok += 1
        untraced += untraced_raw * scales[cid]
        seq = report.sequence
        if (traced.ops, traced.global_phase, traced.text, traced.exact, traced.verified) != (
            seq.ops, seq.global_phase, text, report.exact, report.verified
        ):
            outcomes.fail(what, "traced composition differs from compile_unitary")
        elif res is not None:
            why = reference.failure(res, report.exact, report.verified, TOL)
            if why:
                outcomes.fail(what, why)

    metrics = tracer.layer_metrics(spans.spans, scales)
    roots = sum(
        (s.end - s.start) * scales[s.compile_id] for s in spans.spans if s.name == tracer.ROOT
    )
    metrics["trace.overhead_s"] = ((roots - untraced) / len(scales), "s")

    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for record in spans.spans:
            fh.write(json.dumps({**asdict(record), "scale": scales[record.compile_id]}) + "\n")
    return metrics, {"trace": f"{len(scales)} inputs, each compiled untraced and traced"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcomes = Outcomes()
    golden = golden_census(outcomes)
    golden_failed = outcomes.failed
    outcomes = Outcomes()
    if args.trace:
        metrics, notes = run_traced(args.workload, args.seed, args.seconds, outcomes)
        metrics.update(golden)
    else:
        metrics, notes = run_end_to_end(args.workload, args.seed, args.seconds, outcomes)

    print(f"workload {args.workload}, seed {args.seed}, BLAS threads {BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for name, text in notes.items():
        if name not in metrics:
            print(f"  {name:40s} {text}")
    for name, (value, unit) in golden.items():
        if name not in metrics:
            print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": outcomes.failed == 0 and golden_failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
