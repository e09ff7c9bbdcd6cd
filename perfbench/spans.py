"""Span tracing for the benchmark's traced run.

The end-to-end numbers come from untraced runs.  A traced run repeats the
same seeded operation stream with :func:`instrument` active: every public
layer function in :data:`LAYER_TARGETS` is wrapped, wherever it is bound,
in a ``perf_counter_ns`` span ``{name, start, end, parent, op}``.  Spans are
held in memory and written out when the benchmark ends.

A span's *self time* is its duration minus the part of it that its child
spans cover, so summing self times per layer says where an operation's
time went without double counting nested calls (``compiler.compile``
contains ``compiler.symbolic``; ``multichip.execute`` contains the kernel
calls).  Nothing under ``src/`` changes: the wrappers are installed from
here onto already-imported modules and removed when the traced phase ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

#: Span name of an operation's root span.
ROOT = "op"

#: The benchmark's own modules call some layers directly (set-up loads
#: datasets), so their bindings are patched too.
_BENCHMARK_DIR = str(Path(__file__).resolve().parent)


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span; None for an op root
    op: int  # id of the operation the span belongs to


class Tracer:
    """Collects spans and counters for the operations run inside :meth:`op`.

    Calls made outside an operation (output checks, reference products)
    record nothing, so an independent check that happens to use a traced
    function is never counted as layer work.  Single-threaded: every traced
    phase runs its operations serially in this process.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.ops = 0
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def op(self, name: str = ROOT) -> Iterator[None]:
        """Root span of one operation; layer spans nest under it."""
        if self._op is not None:
            raise RuntimeError("operations do not nest")
        self._op = self.ops
        self.ops += 1
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._op is None:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), 0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self._op is not None:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn: Callable,
             on_result: Callable | None = None) -> Callable:
        """``fn`` with a span around every call made inside an operation;
        ``on_result`` sees the return value, so counters are taken where
        the work happens."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name, in milliseconds."""
        totals: dict[str, float] = {}
        for span, self_ns in zip(self.spans, self_times(self.spans)):
            totals[span.name] = totals.get(span.name, 0.0) + self_ns / 1e6
        return totals

    def root_ms(self) -> list[float]:
        """Duration of every operation's root span, in milliseconds."""
        return [(span.end - span.start) / 1e6 for span in self.spans
                if span.parent is None]

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [asdict(s) for s in self.spans],
                                    "counters": self.counters}))


def self_times(spans: list[Span]) -> list[int]:
    """Self time (ns) of each span: its duration minus the union of its
    children's intervals, clipped to the span itself."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


# ----------------------------------------------------------------------
# Layer instrumentation
# ----------------------------------------------------------------------
def _count_compile(tracer: Tracer, program) -> None:
    tracer.count("compiler.mmh_ops", program.n_instructions)


def _count_kernel(tracer: Tracer, result) -> None:
    tracer.count("kernels.partial_products", result.partial_products)


def _count_plan(tracer: Tracer, plan) -> None:
    tracer.count("partition.plans")
    tracer.count("partition.skew_sum", plan.skew)


def _count_resident(tracer: Tracer, execution) -> None:
    tracer.count("multichip.fresh_compiles", execution.fresh_compiles)


def _count_sim(tracer: Tracer, report) -> None:
    tracer.count("sim.events", report.events)
    tracer.count("sim.cycles", report.cycles)


#: (span name, module, attribute, result counter).  ``Class.method``
#: attributes are patched on the class.  Plain functions are replaced in
#: every loaded ``repro`` or benchmark module that bound them, because
#: ``from x import f`` copies the reference and patching only the home
#: module would miss those callers.
LAYER_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("datasets.generate", "repro.datasets.suite", "load_dataset", None),
    ("datasets.features", "repro.datasets.features", "feature_matrix", None),
    ("backends.to_dense", "repro.backends.base", "ExecutionResult.to_dense",
     None),
    ("cache.key", "repro.core.runner", "ProgramCache.key", None),
    ("compiler.symbolic", "repro.sparse.symbolic",
     "symbolic_spgemm_from_csc", None),
    ("compiler.compile", "repro.compiler.lowering", "compile_spgemm",
     _count_compile),
    ("analysis.verify", "repro.analysis.verifier", "verify_program", None),
    ("kernels.spgemm", "repro.sparse.kernels", "spgemm", _count_kernel),
    ("analytic.predict", "repro.backends.analytic",
     "AnalyticBackend.predict", None),
    ("partition.plan", "repro.sparse.partition", "plan_shards", _count_plan),
    ("multichip.prepare", "repro.backends.multichip",
     "MultiChipBackend.prepare_resident", None),
    ("multichip.execute", "repro.backends.multichip",
     "MultiChipBackend.execute_resident", _count_resident),
    ("gnn.normalize", "repro.gnn.gcn", "normalize_adjacency_cached", None),
    ("gnn.encode", "repro.gnn.pipeline", "full_structure_csr", None),
    ("gnn.rebind", "repro.compiler.program", "rebind_b_values", None),
    ("gnn.combine", "repro.gnn.gcn", "GCNLayer.combination", None),
    ("sim.functional", "repro.sim.functional", "FunctionalAccelerator.run",
     None),
    ("sim.cycle", "repro.sim.accelerator", "NeuraChipAccelerator.run",
     _count_sim),
)


@contextmanager
def instrument(tracer: Tracer, targets=LAYER_TARGETS) -> Iterator[Tracer]:
    """Install span wrappers for ``targets``; restore the originals on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module_name, attr, on_result in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, tracer.wrap(name, original, on_result))
                continue
            original = getattr(module, attr)
            traced = tracer.wrap(name, original, on_result)
            for loaded_name, loaded in list(sys.modules.items()):
                if not (loaded_name == "repro"
                        or loaded_name.startswith("repro.")
                        or str(getattr(loaded, "__file__", "")).startswith(
                            _BENCHMARK_DIR)):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        undo.append((loaded, key, original))
                        setattr(loaded, key, traced)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
