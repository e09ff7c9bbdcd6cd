"""Multi-chip scale-out benchmark: the 1/2/4/8-chip scaling curve.

Runs one SpGEMM (A @ A) on a synthetic power-law graph through the
``multichip`` backend at increasing chip counts and records, per point:

* aggregate cycle-model cycles (max over chips + host reduce term + the
  cold-run B-broadcast term) and the speedup over the single-chip
  unsharded analytic run;
* scale-out efficiency (speedup / chips) and shard skew;
* the executed plan's *predicted* speedup / efficiency
  (``ShardPlan.speedup`` / ``efficiency``: the per-shard partial-product
  histogram alone, no compile / no simulation) next to the measured
  value, so the fast path's trust region is tracked across changes;
* a byte-identity check of the reduced output against the single-chip
  product.

Results land in ``benchmarks/results/bench_multichip.json`` — the same
record-don't-assert contract ``bench_compiler.py`` keeps.  The acceptance
bar for the scale-out story is a >= 1.5x cycle-model speedup at 4 chips on
the 2000-node graph.

Run with:  PYTHONPATH=src python benchmarks/bench_multichip.py [--nodes 2000]
           PYTHONPATH=src python benchmarks/bench_multichip.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.sparse.partition import plan_shards

RESULTS_PATH = Path(__file__).parent / "results" / "bench_multichip.json"


def run(nodes: int, chip_counts: list[int], dataset: str = "wiki-Vote",
        config: str = "Tile-16", seed: int = 0) -> dict:
    """Benchmark the scaling curve on one synthetic graph."""
    graph = load_dataset(dataset, max_nodes=nodes, seed=seed)
    a = graph.adjacency_csr()

    with Session(config, backend="analytic") as session:
        start = time.perf_counter()
        baseline = session.run(SpGEMMSpec(a=a, verify=False,
                                          label="single-chip"))
        baseline_wall = time.perf_counter() - start

    record = {
        "dataset": dataset,
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "config": config,
        "python_version": platform.python_version(),
        "baseline_cycles": baseline.metrics["cycles"],
        "baseline_wall_s": round(baseline_wall, 4),
        "partial_products": baseline.metrics["partial_products"],
        "output_nnz": baseline.metrics["output_nnz"],
        "scaling": [],
    }
    for chips in chip_counts:
        plan = plan_shards(a, chips)  # the plan the A @ A run executes
        with Session(config, backend="multichip", chips=chips) as session:
            start = time.perf_counter()
            result = session.run(SpGEMMSpec(a=a, verify=False,
                                            label=f"{chips}-chip"))
            wall = time.perf_counter() - start
        identical = (
            np.array_equal(result.output.indptr, baseline.output.indptr)
            and np.array_equal(result.output.indices,
                               baseline.output.indices)
            and np.array_equal(result.output.data, baseline.output.data))
        speedup = record["baseline_cycles"] / result.metrics["cycles"]
        counters = result.report.counters
        record["scaling"].append({
            "chips": chips,
            "cycles": result.metrics["cycles"],
            "speedup": round(speedup, 3),
            "efficiency": round(speedup / chips, 4),
            "shard_skew": counters["multichip.shard_skew"],
            "reduce_cycles": counters["multichip.reduce_cycles"],
            "broadcast_cycles": counters["multichip.broadcast_cycles"],
            "predicted_speedup": round(plan.speedup, 4),
            "predicted_efficiency": round(plan.efficiency, 4),
            "power_w": round(result.power_w, 2),
            "wall_s": round(wall, 4),
            "byte_identical": bool(identical),
        })
    by_chips = {point["chips"]: point for point in record["scaling"]}
    if 4 in by_chips:
        record["speedup_at_4_chips"] = by_chips[4]["speedup"]
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=2000,
                        help="synthetic graph size (default: 2000)")
    parser.add_argument("--dataset", default="wiki-Vote")
    parser.add_argument("--config", default="Tile-16")
    parser.add_argument("--chips", type=int, nargs="*",
                        default=[1, 2, 4, 8],
                        help="chip counts to sweep (default: 1 2 4 8)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI "
                             "(300 nodes, 1/2/4 chips, no result file)")
    parser.add_argument("--output", default=str(RESULTS_PATH))
    args = parser.parse_args()

    if args.smoke:
        args.nodes = 300
        args.chips = [1, 2, 4]

    record = run(args.nodes, args.chips, dataset=args.dataset,
                 config=args.config)

    print(f"{record['dataset']}  nodes={record['nodes']}  "
          f"edges={record['edges']}  config={record['config']}  "
          f"baseline cycles={record['baseline_cycles']}")
    for point in record["scaling"]:
        print(f"chips={point['chips']:2d}  cycles={point['cycles']:12.1f}  "
              f"speedup={point['speedup']:6.2f}x  "
              f"eff={point['efficiency']:6.3f}  "
              f"predicted={point['predicted_speedup']:6.2f}x  "
              f"skew={point['shard_skew']:6.3f}  "
              f"identical={point['byte_identical']}")
    if not all(point["byte_identical"] for point in record["scaling"]):
        print("ERROR: multichip output diverged from the single-chip product")
        return 1

    if args.smoke:
        print("[smoke mode: results not saved]")
        return 0
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[saved {output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
