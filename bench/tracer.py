"""Spans around each library call that `pipeline.compile_unitary` makes.

`traced_compile` composes exactly the calls `compile_unitary` makes for a
given `CompileOptions`, plus the `formats.format_sequence` that
`spinpulse compile` adds, and wraps each in a span.  The spans are kept in
memory; `layer_metrics` turns them into per-stage self times and counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from spinpulse import decompose, formats, generator, linalg, reduction, sim
from spinpulse.pipeline import CompileOptions

STAGES = (
    "linalg.require_unitary",
    "generator.extract_generator",
    "generator.expand",
    "decompose.plan",
    "reduction.reduce_plan",
    "reduction.peephole",
    "sim.simulate",
    "sim.equal_up_to_phase",
    "formats.format_sequence",
)
ROOT = "compile"


@dataclass
class Span:
    name: str
    compile_id: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, compile_id: int):
        parent = self._open[-1] if self._open else None
        record = Span(name, compile_id, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except Exception as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()


@dataclass
class TracedResult:
    text: str
    ops: list
    global_phase: float
    exact: bool
    verified: bool | None


def traced_compile(
    u: np.ndarray, options: CompileOptions, tracer: Tracer, cid: int
) -> TracedResult:
    with tracer.span(ROOT, cid):
        u = np.asarray(u, dtype=complex)
        linalg.num_spins_for_dim(u.shape[0])
        with tracer.span("linalg.require_unitary", cid):
            linalg.require_unitary(u, options.tol)
        with tracer.span("generator.extract_generator", cid):
            g = generator.extract_generator(u, options.branch, options.tol)
        with tracer.span("generator.expand", cid) as s:
            expansion = generator.expand(g)
            s.counts["terms"] = len(expansion.coeffs)
        with tracer.span("decompose.plan", cid) as s:
            plan = decompose.plan(expansion, trotter_steps=options.trotter_steps)
            s.counts["single_ops"] = len(plan.ops)
            s.counts["exact"] = float(plan.exact)
        with tracer.span("reduction.reduce_plan", cid) as s:
            raw = reduction.reduce_plan(
                plan,
                allow_z=options.allow_z,
                use_pseudo_cnot=options.use_pseudo_cnot,
                merge=False,
            )
            s.counts["pulses"] = len(raw.ops)
        with tracer.span("reduction.peephole", cid) as s:
            seq = reduction.peephole(raw)
            s.counts["kept"] = len(seq.ops)
        verified = None
        if options.verify and seq.num_spins <= options.max_verify_spins:
            with tracer.span("sim.simulate", cid) as s:
                m = sim.simulate(seq)
                s.counts["pulses"] = len(seq.ops)
            with tracer.span("sim.equal_up_to_phase", cid) as s:
                verified = sim.equal_up_to_phase(u, m, 10 * options.tol).equal
                s.counts["verified"] = float(verified)
        with tracer.span("formats.format_sequence", cid) as s:
            text = formats.format_sequence(seq)
            s.counts["bytes"] = len(text.encode())
    return TracedResult(text, seq.ops, seq.global_phase, plan.exact, verified)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], scales: list[float]) -> dict[str, tuple[float, str]]:
    """Per-compile means of each stage's self time and counts, plus error
    totals; a stage that never ran (verification above the spin limit)
    reads 0.  `scales[compile_id]` takes that compile's raw seconds to
    nominal speed (see calibration.py)."""
    compiles = len(scales)
    own = [t * scales[s.compile_id] for s, t in zip(spans, self_times(spans))]
    seconds = {name: 0.0 for name in (ROOT, *STAGES)}
    errors = {name: 0 for name in STAGES}
    counts: dict[str, float] = {}
    for s, t in zip(spans, own):
        seconds[s.name] += t
        if s.error and s.name in errors:
            errors[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0.0) + value

    def per(key):
        return counts.get(key, 0.0) / compiles

    raw = counts.get("reduction.reduce_plan.pulses", 0.0)
    out = {f"{name}.s": (seconds[name] / compiles, "s") for name in STAGES}
    out.update(
        {
            "generator.expand.terms": (per("generator.expand.terms"), "count"),
            "decompose.plan.single_ops": (per("decompose.plan.single_ops"), "count"),
            "decompose.plan.exact_share": (per("decompose.plan.exact"), "ratio"),
            "reduction.reduce_plan.pulses": (per("reduction.reduce_plan.pulses"), "count"),
            "reduction.peephole.kept_ratio": (
                counts.get("reduction.peephole.kept", 0.0) / raw if raw else 1.0,
                "ratio",
            ),
            "sim.simulate.pulses": (per("sim.simulate.pulses"), "count"),
            "sim.equal_up_to_phase.verified_share": (
                per("sim.equal_up_to_phase.verified"),
                "ratio",
            ),
            "formats.format_sequence.bytes": (per("formats.format_sequence.bytes"), "B"),
            "trace.unattributed_s": (seconds[ROOT] / compiles, "s"),
        }
    )
    out.update({f"{name}.errors": (float(errors[name]), "count") for name in STAGES})
    return out
