"""Multi-chip scale-out: one SpGEMM fanned across N chip instances.

Three demonstrations of the ``multichip`` execution backend:

1. **Scaling curve** — the same workload on 1, 2, and 4 chips: each chip
   owns one balanced row shard (its own compiled program, execution
   context, and stats); aggregate cycles are the slowest chip plus a host
   reduce term, and the reduced product is byte-identical to the
   single-chip run.
2. **Analytic fast path** — ``plan_shards`` returns the shard plan an
   N-chip run executes; its ``speedup`` and ``efficiency`` estimate the
   scale-out from the per-shard partial-product histogram alone, before
   compiling or simulating anything.
3. **Per-chip detail** — the aggregate report carries per-chip cycles and
   shard-skew counters for fleet-level debugging.

Run with:  python examples/multichip_scaleout.py
"""

import numpy as np

from repro import Session, SpGEMMSpec, load_dataset
from repro.core import plan_shards
from repro.viz.export import format_table


def main() -> None:
    dataset = load_dataset("facebook", max_nodes=256)
    adjacency = dataset.adjacency_csr()

    # --- 1. Scaling curve: 1 / 2 / 4 chips ------------------------------
    with Session("Tile-16", backend="analytic") as session:
        baseline = session.run(SpGEMMSpec(a=adjacency, label="1-chip",
                                          verify=False))
    rows = []
    results = {1: baseline}
    for chips in (2, 4):
        with Session("Tile-16", backend="multichip", chips=chips) as session:
            results[chips] = session.run(SpGEMMSpec(
                a=adjacency, label=f"{chips}-chip", verify=False))
    for chips, result in results.items():
        speedup = baseline.metrics["cycles"] / result.metrics["cycles"]
        rows.append({
            "chips": chips,
            "cycles": result.metrics["cycles"],
            "speedup": round(speedup, 2),
            "efficiency": round(speedup / chips, 3),
            "power_w": round(result.power_w, 1),
            "output_nnz": result.metrics["output_nnz"],
        })
    print("--- multi-chip scaling curve ---")
    print(format_table(rows))
    quad = results[4]
    identical = (
        np.array_equal(quad.output.indptr, baseline.output.indptr)
        and np.array_equal(quad.output.indices, baseline.output.indices)
        and np.array_equal(quad.output.data, baseline.output.data))
    print(f"4-chip product byte-identical to single-chip: {identical}\n")

    # --- 2. Analytic fast path: no compile, no simulation ---------------
    print("--- predicted scale-out (partial-product histogram only) ---")
    predictions = []
    for chips in (2, 4, 8):
        plan = plan_shards(adjacency, chips)
        predictions.append({"chips": chips,
                            "predicted_speedup": round(plan.speedup, 4),
                            "efficiency": round(plan.efficiency, 4),
                            "skew": round(plan.skew, 4)})
    print(format_table(predictions))
    print()

    # --- 3. Per-chip detail from the aggregate report -------------------
    counters = quad.report.counters
    print("--- per-chip detail (4 chips) ---")
    detail = [{"chip": i,
               "rows": counters[f"multichip.chip{i}.rows"],
               "cycles": counters[f"multichip.chip{i}.cycles"],
               "partial_products":
                   counters[f"multichip.chip{i}.partial_products"]}
              for i in range(4)]
    print(format_table(detail))
    print(f"shard skew {counters['multichip.shard_skew']}, host reduce "
          f"{counters['multichip.reduce_cycles']} cycles")


if __name__ == "__main__":
    main()
