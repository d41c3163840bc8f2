"""Passes, verdicts and spans.

A pass runs a workload's list of verifications once.  Every call into
qsca goes through PassContext.call, which records a span when tracing
is on and is a plain call when it is off.  Calls are timed from
outside, so a call's whole time is charged to the module that was
called; spans are leaves under the pass span.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

MODULES = ("sca_core", "quantize", "qstate", "frt_quantum", "spin_chain",
           "unitary_compile", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Tracer:
    """Spans kept in memory; written out by the caller when the run ends."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []

    def record(self, name, start, end, parent, pass_id) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, pass_id))
        return span_id

    def as_records(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]


@dataclass
class PassContext:
    """Verdicts, exact counts and outputs of one pass."""

    tracer: Tracer
    pass_id: int
    pass_span: int | None = None
    checks: int = 0
    failed: int = 0
    first_failure: str | None = None
    counts: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.tracer.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.record(name, start, time.perf_counter(),
                               self.pass_span, self.pass_id)

    def check(self, label: str, ok) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = label

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def output(self, key: str, value) -> None:
        """A result that must be identical on every pass of the run."""
        self.outputs[key] = value


def run_pass(tracer: Tracer, pass_id: int, units, reference=None
             ) -> tuple[PassContext, float]:
    """Run every unit; exceptions count as failed checks, never stop the pass.

    reference is the first pass's context; this pass's outputs and
    counts must equal it.  Returns the context and the pass wall time.
    """
    ctx = PassContext(tracer, pass_id)
    if tracer.enabled:
        ctx.pass_span = tracer.record("bench.pass", 0.0, 0.0, None, pass_id)
    start = time.perf_counter()
    for name, unit in units:
        try:
            unit(ctx)
        except Exception as err:  # a failed verification, reported by name
            ctx.check(f"{name}: {type(err).__name__}: {err}", False)
    if reference is not None:
        ctx.check("outputs identical to the first pass",
                  ctx.outputs == reference.outputs
                  and ctx.counts == reference.counts)
    end = time.perf_counter()
    if ctx.pass_span is not None:
        span = tracer.spans[ctx.pass_span]
        span.start, span.end = start, end
    return ctx, end - start


def _sum_spans(children: list[Span], prefix: str) -> float:
    return sum(s.end - s.start for s in children
               if s.name == prefix or s.name.startswith(prefix + "."))


def layer_metrics(tracer: Tracer, passes: list[PassContext]) -> dict:
    """Per-layer seconds per pass, medians over the traced passes.

    Rates divide a pass's exact count by the same pass's span time.
    """
    by_pass: list[dict] = []
    for ctx in passes:
        children = [s for s in tracer.spans if s.parent == ctx.pass_span]
        pass_span = tracer.spans[ctx.pass_span]
        m = {}
        for module in MODULES:
            m[f"{module}.self_s"] = _sum_spans(children, module)
        m["bench.self_s"] = (pass_span.end - pass_span.start
                             - sum(s.end - s.start for s in children))
        for name in SPAN_METRICS:
            m[name + ".s"] = _sum_spans(children, name)
        def rate(count_key, seconds):
            return ctx.counts.get(count_key, 0) / seconds if seconds else 0.0

        m["sca_core.evolve.cells_per_s"] = rate(
            "sca_core.evolve.cells", m["sca_core.evolve.s"])
        m["qstate.apply_circuit.gbps_computed"] = rate(
            "qstate.apply_circuit.bytes", m["qstate.apply_circuit.s"]) / 1e9
        m["frt_quantum.instances_per_s"] = rate(
            "frt_quantum.instances",
            m["frt_quantum.stage_check.compiled.s"]
            + m["frt_quantum.stage_check.gates.s"])
        by_pass.append(m)
    return {k: statistics.median(m[k] for m in by_pass) for k in by_pass[0]}


# Span-name prefixes reported as "<prefix>.s", seconds per pass.
SPAN_METRICS = (
    "sca_core.evolve",
    "sca_core.evolve.r2",
    "sca_core.frt_check",
    "quantize.check_partial_isometry.r3",
    "quantize.check_partial_isometry.r4",
    "quantize.build_uf_matrix",
    "quantize.partition_basis",
    "quantize.parallelism_demo",
    "quantize.total_step",
    "qstate.apply_circuit",
    "qstate.circuit_matrix",
    "frt_quantum.stage_check.compiled",
    "frt_quantum.stage_check.gates",
    "spin_chain.sum_product_gap",
    "spin_chain.to_dense",
    "unitary_compile.reck_decompose",
    "unitary_compile.reck_reconstruct",
    "unitary_compile.reck_reconstruct.n128",
    "cli.check",
    "cli.uf_check",
    "cli.frt_quantum",
    "cli.evolve",
    "cli.reck",
)
