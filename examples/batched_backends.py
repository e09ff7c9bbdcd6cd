"""Batched execution through one session: specs in, RunResults out.

Builds a batch of SpGEMM requests against two graphs, serves it through a
session on the analytic backend (roofline prediction + vectorized program
replay), and cross-checks one job on the cycle-level simulator.  Repeated
requests on the same graph share one compiled program via the session's
LRU cache — the shape a serving deployment takes: compile once, answer
many.

Run with:  python examples/batched_backends.py
"""

from repro import BatchSpec, Session, SpGEMMSpec, load_dataset
from repro.viz.export import format_table, results_to_rows


def main() -> None:
    # 1. Describe twelve requests over two graphs (six each) declaratively.
    specs = []
    for name in ("wiki-Vote", "facebook"):
        dataset = load_dataset(name, max_nodes=192)
        for request in range(6):
            specs.append(SpGEMMSpec(a=dataset.adjacency_csr(),
                                    label=f"{name}/req{request}",
                                    source=name, verify=False))

    # 2. Serve the whole batch through the analytic backend.
    with Session("Tile-16", backend="analytic") as session:
        batch = session.run(BatchSpec(specs=specs))
        print(format_table(results_to_rows(batch.parts)))
        print(format_table([batch.metrics]))
        print(f"compile cache: {batch.metrics['cache_hits']}/"
              f"{batch.metrics['jobs']} jobs reused a cached program\n")

        # 3. Spot-check the prediction against the cycle-level model.
        dataset = load_dataset("wiki-Vote", max_nodes=96)
        spec = SpGEMMSpec(a=dataset.adjacency_csr(), verify=False)
        predicted = session.run(spec)
    with Session("Tile-16", backend="cycle") as cycle_session:
        measured = cycle_session.run(spec)
    ratio = predicted.metrics["cycles"] / measured.metrics["cycles"]
    print(f"analytic {predicted.metrics['cycles']:,.0f} cycles vs "
          f"cycle {measured.metrics['cycles']:,.0f} cycles "
          f"(prediction ratio {ratio:.2f})")


if __name__ == "__main__":
    main()
