"""GNN stack amortization benchmark: compile-once vs layer-at-a-time.

Runs :class:`~repro.core.specs.GNNModelSpec` stacks of depth 1/2/4/8 over
the 2000-node Barabasi-Albert acceptance graph (attach=8, the same graph
``bench_partition`` uses) at a uniform feature width of 32, so every layer
of a stack shares one compiled aggregation program.  Per depth it records:

* wall time per layer — the amortization headline: depth-1 pays the full
  normalise + compile cost for a single layer, depth-8 pays it once for
  eight, so per-layer cost falls as the stack deepens;
* ``amortization_x`` — depth-1 per-layer wall time over this depth's;
* ``compiles`` — must be exactly 1 at every depth (one program per
  resident graph, re-bound to each layer's values);
* modelled ``cycles_per_layer`` and the pipelined-batches speedup.

Each depth gets a fresh :class:`Session` and a cleared adjacency memo so
no warmth leaks between points.  The depth-1 and depth-8 outputs are
byte-checked against the chained layer-at-a-time ``GCNLayerSpec``
reference — divergence is a hard failure, amortizing must not change a
single bit.

It then runs the depth-4 stack twice on a 4-chip ``multichip`` session:
the second run finds the fleet's plan, shard units and unit programs
resident, so it must plan nothing (no ``prepare_resident`` call), compile
nothing (no program-cache miss) and equal the first run byte for byte.
These guards count, so they are deterministic.

``--smoke`` runs the same configuration for CI and *asserts* the
regression guards: depth-8 per-layer wall time must be at least
``SMOKE_AMORTIZATION_FLOOR``x (2x) better than depth-1, every depth must
compile exactly once, the stacked outputs must equal the chained
reference, and the warm fleet rerun must re-plan and compile nothing,
else exit nonzero.  It saves no results: the committed records under
``benchmarks/results/`` come from full runs only.

Run with:  PYTHONPATH=src python benchmarks/bench_gnn_pipeline.py
           PYTHONPATH=src python benchmarks/bench_gnn_pipeline.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _harness import emit, format_table
from repro.backends.multichip import MultiChipBackend
from repro.core import Session
from repro.core.specs import GCNLayerSpec, GNNModelSpec
from repro.datasets import barabasi_albert_graph
from repro.gnn import clear_adjacency_cache

NODES = 2000
ATTACH = 8
GRAPH_SEED = 3
WIDTH = 32
DEPTHS = (1, 2, 4, 8)
CONFIG = "Tile-16"
SEED = 7
#: Fleet size and stack depth of the warm-rerun guard.
CHIPS = 4
RERUN_DEPTH = 4

#: CI regression guard: depth-8 per-layer wall time must beat depth-1 by
#: at least this factor (the ISSUE acceptance threshold).
SMOKE_AMORTIZATION_FLOOR = 2.0


def chained_reference(session: Session, adjacency, depth: int) -> np.ndarray:
    """Layer-at-a-time ground truth with the stack's exact weight seeds."""
    x = None
    for index in range(depth):
        result = session.run(GCNLayerSpec(
            dataset=adjacency, feature_dim=WIDTH, hidden_dim=WIDTH,
            seed=SEED, features=x, weight_seed=SEED + 1 + index,
            verify=False, label=f"chain[{index}]"))
        x = result.output
    return x


def run() -> tuple[list[dict], list[str]]:
    adjacency = barabasi_albert_graph(NODES, ATTACH, seed=GRAPH_SEED)
    rows: list[dict] = []
    failures: list[str] = []
    base_per_layer = None
    for depth in DEPTHS:
        clear_adjacency_cache()
        with Session(CONFIG, backend="analytic") as session:
            start = time.perf_counter()
            result = session.run(GNNModelSpec(
                dataset=adjacency, layer_dims=(WIDTH,) * depth,
                feature_dim=WIDTH, seed=SEED, verify=False,
                label=f"ba{NODES}-d{depth}"))
            wall = time.perf_counter() - start
            metrics = result.metrics
            per_layer_ms = wall * 1e3 / depth
            if base_per_layer is None:
                base_per_layer = per_layer_ms
            if metrics["compiles"] != 1:
                failures.append(f"depth {depth}: expected exactly 1 compile "
                                f"per resident graph, got "
                                f"{metrics['compiles']}")
            if depth in (DEPTHS[0], DEPTHS[-1]):
                reference = chained_reference(session, adjacency, depth)
                if not np.array_equal(result.output, reference):
                    failures.append(f"depth {depth}: stacked output diverges "
                                    f"from the chained reference")
            rows.append({
                "depth": depth,
                "wall_ms": round(wall * 1e3, 2),
                "wall_ms_per_layer": round(per_layer_ms, 2),
                "amortization_x": round(base_per_layer / per_layer_ms, 2),
                "compiles": metrics["compiles"],
                "cycles_per_layer": metrics["cycles_per_layer"],
                "pipeline_speedup": metrics["pipeline_speedup"],
                "output_shape": metrics["output_shape"],
            })
    return rows, failures


def resident_rerun(adjacency) -> tuple[dict, list[str]]:
    """Run the depth-4 stack twice on a 4-chip fleet, counting the second
    run's plans and compiles."""
    spec = GNNModelSpec(dataset=adjacency, layer_dims=(WIDTH,) * RERUN_DEPTH,
                        feature_dim=WIDTH, seed=SEED, verify=False,
                        label=f"ba{NODES}-fleet")
    prepare = MultiChipBackend.prepare_resident
    plans = []

    def counted(self, *args, **kwargs):
        plans.append(args)
        return prepare(self, *args, **kwargs)

    with Session(CONFIG, backend="multichip", chips=CHIPS) as session:
        first = session.run(spec)
        misses = session.cache_stats()["misses"]
        MultiChipBackend.prepare_resident = counted
        try:
            second = session.run(spec)
        finally:
            MultiChipBackend.prepare_resident = prepare
        misses = session.cache_stats()["misses"] - misses
    guard = {"replans": len(plans), "cache_misses": misses,
             "compiles": second.metrics["compiles"],
             "identical": second.output.tobytes() == first.output.tobytes()}
    failures = []
    if guard["replans"] or guard["cache_misses"] or guard["compiles"]:
        failures.append(f"warm {CHIPS}-chip rerun re-planned or compiled: "
                        f"{guard}")
    if not guard["identical"]:
        failures.append(f"warm {CHIPS}-chip rerun diverges from the first "
                        "run")
    return guard, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: fail on the amortization / identity "
                             "guards instead of just reporting")
    args = parser.parse_args(argv)

    rows, failures = run()
    guard, rerun_failures = resident_rerun(
        barabasi_albert_graph(NODES, ATTACH, seed=GRAPH_SEED))
    failures += rerun_failures
    print(f"warm {CHIPS}-chip depth-{RERUN_DEPTH} rerun: {guard}")
    if args.smoke:
        print(format_table(rows))
        print("[smoke mode: results not saved]")
    else:
        emit("bench_gnn_pipeline", rows, extra_json={
            "nodes": NODES, "attach": ATTACH, "width": WIDTH,
            "config": CONFIG, "depths": list(DEPTHS), "rows": rows,
            "amortization_floor": SMOKE_AMORTIZATION_FLOOR,
        })

    deepest = rows[-1]
    if deepest["amortization_x"] < SMOKE_AMORTIZATION_FLOOR:
        failures.append(
            f"depth-{deepest['depth']} amortization "
            f"{deepest['amortization_x']}x is below the "
            f"{SMOKE_AMORTIZATION_FLOOR}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.smoke and failures:
        return 1
    if failures:
        print("(non-smoke run: guards reported but not enforced)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
