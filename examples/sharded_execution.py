"""Sharded and parallel execution through the session's executor layer.

Three demonstrations of the scale-out substrate:

1. **Sharding** — one large SpGEMM is split by the planner into balanced
   row shards (rows of A partition the partial products of A @ B
   exactly), run through the multichip machinery in the session's
   process, and reduced into one result identical to the unsharded
   product.
2. **Executor fan-out** — the same 12-job batch served serially and over a
   thread pool, with identical per-job results.
3. **Persistent program cache** — a second session pointed at the same
   cache directory skips compilation entirely (``cache_hit=True``).

Run with:  python examples/sharded_execution.py
"""

import tempfile

import numpy as np

from repro import BatchSpec, Session, SpGEMMSpec, load_dataset
from repro.viz.export import format_table, results_to_rows


def main() -> None:
    dataset = load_dataset("facebook", max_nodes=256)
    adjacency = dataset.adjacency_csr()

    # --- 1. Sharded SpGEMM: identical output, shard count in provenance
    with Session("Tile-16", backend="analytic") as session:
        whole = session.run(SpGEMMSpec(a=adjacency, label="unsharded"))
        sharded = session.run(SpGEMMSpec(a=adjacency, shards=4,
                                         label="sharded"))
    match = np.allclose(whole.output.to_dense(), sharded.output.to_dense())
    print("--- sharded vs unsharded SpGEMM ---")
    print(format_table(results_to_rows([whole, sharded])))
    print(f"outputs identical: {match}  "
          f"(partial products {whole.metrics['partial_products']} == "
          f"{sharded.metrics['partial_products']})\n")

    # --- 2. Executor fan-out over a 12-job batch -----------------------
    specs = [SpGEMMSpec(a=adjacency, label=f"req{i}", verify=False)
             for i in range(12)]
    with Session("Tile-16", backend="analytic", executor="serial") as serial:
        serial_batch = serial.run(BatchSpec(specs=specs))
    with Session("Tile-16", backend="analytic", executor="thread",
                 workers=4) as threaded:
        thread_batch = threaded.run(BatchSpec(specs=specs))
    print("--- 12-job batch: serial vs thread executor ---")
    print(format_table([serial_batch.metrics, thread_batch.metrics]))
    same = (serial_batch.metrics["total_partial_products"]
            == thread_batch.metrics["total_partial_products"])
    print(f"identical totals across executors: {same}\n")

    # --- 3. Persistent program cache across sessions -------------------
    with tempfile.TemporaryDirectory() as cache_dir:
        with Session("Tile-16", backend="analytic",
                     cache_dir=cache_dir) as cold:
            first = cold.run(SpGEMMSpec(a=adjacency, label="cold"))
        with Session("Tile-16", backend="analytic",
                     cache_dir=cache_dir) as warm:
            second = warm.run(SpGEMMSpec(a=adjacency, label="warm"))
            stats = warm.cache_stats()
    print("--- persistent program cache ---")
    print(format_table(results_to_rows([first, second])))
    print(f"second session: cache_hit={second.cache_hit} "
          f"(disk hits: {stats['disk_hits']}) — compilation skipped")


if __name__ == "__main__":
    main()
