"""Shard-partition benchmark: contiguous vs degree-aware planning.

Sweeps the two partition strategies over 1/2/4/8 chips on two synthetic
power-law graphs — ``barabasi_albert_graph`` (the ISSUE acceptance graph)
and ``kronecker_power_law_graph`` (heavier-tailed, R-MAT style) — and
records, per (graph, chips, strategy) point:

* planner-level shard skew (max/mean partial-product load) and scale-out
  efficiency (total / (chips * max));
* the plan's predicted speedup (``ShardPlan.speedup``) next to the
  measured cycle-model speedup through the ``multichip`` backend, which
  executes that same plan;
* how many monster rows the degree planner merge-path-split into
  column-range fragments;
* a byte-identity check of the stitched output against the single-chip
  unsharded product (hard failure on divergence — exact reduce is the
  whole point of the plan format).

The contiguous baseline is always recorded alongside the degree plan so
regressions in either strategy are visible in one file.  Targets from the
ISSUE: degree shard_skew <= 1.1 and efficiency >= 0.9 at 4 chips on the
2000-node BA graph (recorded under ``targets``).

``--smoke`` runs a 300-node configuration for CI and *asserts* the skew
regression guard: the BA smoke graph's degree plan must keep
shard_skew <= 1.25 at 4 chips, else exit nonzero.

Run with:  PYTHONPATH=src python benchmarks/bench_partition.py
           PYTHONPATH=src python benchmarks/bench_partition.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import Session, SpGEMMSpec
from repro.datasets import barabasi_albert_graph, kronecker_power_law_graph
from repro.sparse import coo_to_csr
from repro.sparse.partition import plan_shards

RESULTS_PATH = Path(__file__).parent / "results" / "bench_partition.json"

#: CI regression guard on the smoke graph (see --smoke).
SMOKE_SKEW_LIMIT = 1.25

STRATEGIES = ("contiguous", "degree")


def _graphs(nodes: int, seed: int) -> dict[str, "CSRMatrix"]:
    return {
        "barabasi_albert": coo_to_csr(
            barabasi_albert_graph(nodes, 8, seed=seed)),
        "kronecker_power_law": coo_to_csr(
            kronecker_power_law_graph(nodes, 8 * nodes, seed=seed)),
    }


def _identical(got, want) -> bool:
    return (np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices)
            and np.array_equal(got.data, want.data))


def run(nodes: int, chip_counts: list[int], config: str = "Tile-16",
        seed: int = 0) -> dict:
    """Benchmark both strategies across ``chip_counts`` on both graphs."""
    record = {
        "nodes": nodes,
        "config": config,
        "python_version": platform.python_version(),
        "targets": {"degree_skew_at_4_chips": 1.1,
                    "degree_efficiency_at_4_chips": 0.9},
        "graphs": [],
    }
    for name, a_csr in _graphs(nodes, seed).items():
        with Session(config, backend="analytic") as session:
            baseline = session.run(SpGEMMSpec(a=a_csr, verify=False,
                                              label=f"{name}-single"))
        graph_record = {
            "graph": name,
            "rows": a_csr.shape[0],
            "nnz": a_csr.nnz,
            "baseline_cycles": baseline.metrics["cycles"],
            "output_nnz": baseline.metrics["output_nnz"],
            "points": [],
        }
        for chips in chip_counts:
            for strategy in STRATEGIES:
                # The plan the A @ A run below executes.
                plan = plan_shards(a_csr, chips, strategy=strategy)
                with Session(config, backend="multichip", chips=chips,
                             partition=strategy) as session:
                    start = time.perf_counter()
                    result = session.run(SpGEMMSpec(
                        a=a_csr, verify=False,
                        label=f"{name}-{chips}chip-{strategy}"))
                    wall = time.perf_counter() - start
                speedup = (graph_record["baseline_cycles"]
                           / result.metrics["cycles"])
                graph_record["points"].append({
                    "chips": chips,
                    "strategy": strategy,
                    "shard_skew": round(plan.skew, 4),
                    "plan_efficiency": round(plan.efficiency, 4),
                    "split_rows": len(plan.split_rows),
                    "speedup": round(speedup, 3),
                    "efficiency": round(speedup / chips, 4),
                    "predicted_speedup": round(plan.speedup, 4),
                    "wall_s": round(wall, 4),
                    "byte_identical": _identical(result.output,
                                                 baseline.output),
                })
        record["graphs"].append(graph_record)
    return record


def _point(record: dict, graph: str, chips: int, strategy: str) -> dict | None:
    for graph_record in record["graphs"]:
        if graph_record["graph"] != graph:
            continue
        for point in graph_record["points"]:
            if point["chips"] == chips and point["strategy"] == strategy:
                return point
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=2000,
                        help="synthetic graph size (default: 2000)")
    parser.add_argument("--config", default="Tile-16")
    parser.add_argument("--chips", type=int, nargs="*",
                        default=[1, 2, 4, 8],
                        help="chip counts to sweep (default: 1 2 4 8)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI (300 nodes, "
                             "1/2/4 chips, no result file) with a hard "
                             f"skew guard of {SMOKE_SKEW_LIMIT}")
    parser.add_argument("--output", default=str(RESULTS_PATH))
    args = parser.parse_args()

    if args.smoke:
        args.nodes = 300
        args.chips = [1, 2, 4]

    record = run(args.nodes, args.chips, config=args.config)

    failures = []
    for graph_record in record["graphs"]:
        print(f"{graph_record['graph']}  rows={graph_record['rows']}  "
              f"nnz={graph_record['nnz']}  "
              f"baseline cycles={graph_record['baseline_cycles']}")
        for point in graph_record["points"]:
            print(f"  chips={point['chips']:2d}  "
                  f"{point['strategy']:10s}  "
                  f"skew={point['shard_skew']:6.3f}  "
                  f"eff={point['efficiency']:6.3f}  "
                  f"speedup={point['speedup']:6.2f}x "
                  f"(pred {point['predicted_speedup']:5.2f}x)  "
                  f"split={point['split_rows']}  "
                  f"identical={point['byte_identical']}")
            if not point["byte_identical"]:
                failures.append(
                    f"{graph_record['graph']} chips={point['chips']} "
                    f"{point['strategy']}: output diverged from the "
                    f"single-chip product")

    if args.smoke:
        guard = _point(record, "barabasi_albert", 4, "degree")
        if guard is None:
            failures.append("smoke guard point (BA, 4 chips, degree) "
                            "missing from the sweep")
        elif guard["shard_skew"] > SMOKE_SKEW_LIMIT:
            failures.append(
                f"skew regression: BA smoke graph degree shard_skew "
                f"{guard['shard_skew']} > {SMOKE_SKEW_LIMIT} at 4 chips")

    for failure in failures:
        print(f"ERROR: {failure}")
    if failures:
        return 1

    if args.smoke:
        print("[smoke mode: skew guard passed; results not saved]")
        return 0
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[saved {output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
