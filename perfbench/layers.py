"""Metric tables of the benchmark and the per-layer metric arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions that
``BENCHMARK.json`` lists (``selftest.py`` keeps the two in step).  Every
per-layer entry also says which end-to-end metric, on which workload, it
is expected to move; that prediction is written down before any change is
measured against it.

Per-layer times are *self* milliseconds per operation of the traced phase
(see ``spans.py``); counts marked ``count/op`` are per operation too.  A
layer that a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics

from spans import ROOT, Tracer

#: (name, unit, better, bound).  Host time and modelled cycles are separate
#: metrics with separate units and are never added together.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms.p50_norm", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("model.cycles", "cycles", "lower", 0.1),
)

#: (name, unit, better, what it should move).
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("datasets.generate_ms", "ms", "lower",
     "setup_s on every workload (load_dataset, per call, during set-up)"),
    ("datasets.features_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack and serve-mixed (feature_matrix, "
     "run per request)"),
    ("backends.to_dense_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack and serve-mixed (aggregation output "
     "densified per layer)"),
    ("cache.key_ms", "ms", "lower",
     "latency_ms.p50_norm on spgemm-warm (operand hashing on every hit)"),
    ("cache.hit_ratio", "fraction", "higher",
     "latency_ms.p50_norm on spgemm-warm"),
    ("cache.entries", "count", "lower",
     "peak_rss_mb on spgemm-cold (one 2000-node program is ~15 MB)"),
    ("session.overhead_ms", "ms", "lower",
     "latency_ms.p50_norm on spgemm-warm (self time of the Session.run span: "
     "result, legacy, power and activity assembly)"),
    ("compiler.symbolic_ms", "ms", "lower",
     "latency_ms.p50_norm on spgemm-cold only; no change on spgemm-warm"),
    ("compiler.lower_ms", "ms", "lower",
     "latency_ms.p50_norm on spgemm-cold only; no change on spgemm-warm"),
    ("compiler.mmh_ops", "count/op", "lower",
     "latency_ms.p50_norm on spgemm-cold only"),
    ("analysis.verify_ms", "ms", "lower",
     "latency_ms.p50_norm on spgemm-cold; zero on spgemm-warm (memo hits)"),
    ("analysis.verify_skips", "count/op", "higher",
     "latency_ms.p50_norm on spgemm-cold"),
    ("kernels.spgemm_ms", "ms", "lower",
     "latency_ms.p50_norm on spgemm-warm (dominant), gnn-stack, serve-mixed; "
     "about a third of spgemm-cold"),
    ("kernels.partial_products", "count/op", "lower",
     "latency_ms.p50_norm on spgemm-warm, gnn-stack, serve-mixed"),
    ("analytic.predict_ms", "ms", "lower",
     "latency_ms.p50_norm on every analytic workload (small)"),
    ("partition.plan_ms", "ms", "lower", "latency_ms.p50_norm on gnn-stack"),
    ("partition.shard_skew", "ratio", "lower",
     "latency_ms.p50_norm and model.cycles on gnn-stack (slowest chip)"),
    ("multichip.prepare_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack"),
    ("multichip.execute_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack"),
    ("multichip.fresh_compiles", "count/op", "lower",
     "latency_ms.p50_norm and model.cycles on gnn-stack"),
    ("gnn.normalize_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack; tail latency on serve-mixed"),
    ("gnn.encode_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack; tail latency on serve-mixed"),
    ("gnn.rebind_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack; tail latency on serve-mixed"),
    ("gnn.combine_ms", "ms", "lower",
     "latency_ms.p50_norm on gnn-stack; tail latency on serve-mixed"),
    ("gnn.memo_hit_ratio", "fraction", "higher",
     "latency_ms.p50_norm on gnn-stack"),
    ("sim.functional_ms", "ms", "lower", "latency_ms.p50_norm on cycle-sim"),
    ("sim.cycle_ms", "ms", "lower", "latency_ms.p50_norm on cycle-sim"),
    ("sim.events", "count/op", "lower",
     "latency_ms.p50_norm on cycle-sim (a model change, not a speed-up)"),
    ("sim.cycles", "cycles/op", "lower",
     "model.cycles on cycle-sim (a model change, not a speed-up)"),
    ("sim.events_per_s", "events/s", "higher",
     "latency_ms.p50_norm on cycle-sim"),
    ("model.analytic_err_pct", "%", "lower",
     "none; analytic vs cycle model accuracy on cycle-sim (<= 25 on seed 3)"),
    ("serve.server_latency_ms.p50", "ms", "lower",
     "latency_ms.p50_norm on serve-mixed (from GET /stats)"),
    ("serve.http_overhead_ms", "ms", "lower",
     "latency_ms.p50_norm on serve-mixed (round trip minus direct "
     "Session.run)"),
    ("serve.mean_batch_size", "requests", "higher",
     "printed throughput on serve-mixed; a larger batch also raises "
     "latency_ms.p50_norm"),
    ("serve.coalesced_ratio", "fraction", "higher",
     "printed throughput on serve-mixed"),
    ("serve.rejected", "count", "lower",
     "printed throughput on serve-mixed (429/503/504 refusals)"),
    ("serve.bytes_out_per_req", "B", "lower",
     "latency_ms.p50_norm on serve-mixed"),
    ("wire.encode_ms", "ms", "lower", "latency_ms.p50_norm on serve-mixed"),
    ("wire.decode_ms", "ms", "lower", "latency_ms.p50_norm on serve-mixed"),
    ("serve.server_tracebacks", "count", "lower",
     "none; tracebacks the server logged, shutdown included"),
    ("trace.coverage", "fraction", "higher",
     "none; summed layer self time over the untraced p50"),
    ("trace.overhead_pct", "%", "lower",
     "none; traced over untraced latency, minus one"),
)

#: Per-layer time metrics and the span whose self time they report.
_SPAN_METRICS = {
    "datasets.features_ms": "datasets.features",
    "backends.to_dense_ms": "backends.to_dense",
    "cache.key_ms": "cache.key",
    "compiler.symbolic_ms": "compiler.symbolic",
    "compiler.lower_ms": "compiler.compile",
    "analysis.verify_ms": "analysis.verify",
    "kernels.spgemm_ms": "kernels.spgemm",
    "analytic.predict_ms": "analytic.predict",
    "partition.plan_ms": "partition.plan",
    "multichip.prepare_ms": "multichip.prepare",
    "multichip.execute_ms": "multichip.execute",
    "gnn.normalize_ms": "gnn.normalize",
    "gnn.encode_ms": "gnn.encode",
    "gnn.rebind_ms": "gnn.rebind",
    "gnn.combine_ms": "gnn.combine",
    "sim.functional_ms": "sim.functional",
    "sim.cycle_ms": "sim.cycle",
}

#: Per-operation counters taken from traced call results.
_COUNTER_METRICS = {
    "compiler.mmh_ops": "compiler.mmh_ops",
    "kernels.partial_products": "kernels.partial_products",
    "multichip.fresh_compiles": "multichip.fresh_compiles",
    "sim.events": "sim.events",
    "sim.cycles": "sim.cycles",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(untraced_p50_ms: float, tracer: Tracer,
                  setup_tracer: Tracer, before: dict, after: dict,
                  extra: dict, counted_ops: int,
                  e2e_p50_ms: float | None = None) -> dict[str, float]:
    """Every per-layer metric from one traced phase.

    ``untraced_p50_ms`` is the same operations' p50 with tracing off (the
    overhead baseline); ``e2e_p50_ms``, when the operations are a direct
    replay of an end-to-end path (serving), is that path's p50 and the
    coverage baseline.  ``before`` / ``after`` are the workload's
    cumulative session counters around the ``counted_ops`` operations
    measured (traced or not); ``extra`` carries metrics measured outside the spans (serving stats, wire
    codec, model accuracy)."""
    if e2e_p50_ms is None:
        e2e_p50_ms = untraced_p50_ms
    ops = max(tracer.ops, 1)
    per_op = {name: total / ops for name, total in tracer.self_ms().items()}
    root_ms = per_op.pop(ROOT, 0.0)
    layer_ms = sum(per_op.values())
    delta = {key: after[key] - before.get(key, 0) for key in after}
    counters = tracer.counters
    values = {
        "datasets.generate_ms": _ratio(
            setup_tracer.self_ms().get("datasets.generate", 0.0),
            setup_tracer.calls("datasets.generate")),
        "cache.hit_ratio": _ratio(delta["cache_hits"],
                                  delta["cache_hits"] + delta["cache_misses"]),
        "cache.entries": after["cache_entries"],
        "session.overhead_ms": root_ms,
        "analysis.verify_skips": _ratio(delta["verify_skips"], counted_ops),
        "partition.shard_skew": _ratio(counters.get("partition.skew_sum", 0),
                                       counters.get("partition.plans", 0)),
        "gnn.memo_hit_ratio": _ratio(delta["memo_hits"],
                                     delta["memo_hits"] + delta["memo_misses"]),
        "sim.events_per_s": _ratio(counters.get("sim.events", 0),
                                   sum(tracer.root_ms()) / 1e3),
        "trace.coverage": _ratio(layer_ms, e2e_p50_ms),
        "trace.overhead_pct": 100.0 * (_ratio(
            statistics.median(tracer.root_ms()) if tracer.ops else 0.0,
            untraced_p50_ms) - 1.0),
    }
    for metric, span in _SPAN_METRICS.items():
        values[metric] = per_op.get(span, 0.0)
    for metric, counter in _COUNTER_METRICS.items():
        values[metric] = counters.get(counter, 0) / ops
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, *_ in PER_LAYER}
