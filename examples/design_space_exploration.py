"""Design-space exploration: tile sizes, MMH variants and eviction policies.

Reproduces the Section 4 exploration of the paper on a small workload:

* the Tile-4 / Tile-16 / Tile-64 sweep of Figure 11 (six metrics normalised
  to Tile-4);
* the MMH1/2/4/8 instruction-variant comparison of Figure 14;
* the barrier vs rolling eviction comparison of Figure 15.

Run with:  python examples/design_space_exploration.py
"""

from repro import TILE16, Session, SweepSpec, load_dataset
from repro.compiler import compile_spgemm
from repro.sim.accelerator import NeuraChipAccelerator
from repro.viz.export import format_table


def tile_size_sweep(dataset) -> None:
    print("\n--- Figure 11: tile configuration sweep (normalised to Tile-4) ---")
    with Session("Tile-4") as session:
        sweep = session.run(SweepSpec(
            a=dataset.adjacency_csr(),
            configs=("Tile-4", "Tile-16", "Tile-64"))).output
    rows = [{"config": name, **{metric: round(value, 3)
                                for metric, value in metrics.items()}}
            for name, metrics in sweep.items()]
    print(format_table(rows))


def mmh_variant_sweep(dataset) -> None:
    print("\n--- Figure 14: MMH instruction variants ---")
    a_csc = dataset.adjacency_csc()
    features = dataset.features(dim=16, density=0.4)
    rows = []
    for tile_size in (1, 2, 4, 8):
        program = compile_spgemm(a_csc, features, tile_size=tile_size)
        report = NeuraChipAccelerator(TILE16).run(program, verify=False)
        rows.append({"variant": f"MMH{tile_size}",
                     "instructions": report.mmh_instructions,
                     "avg_cpi": round(report.mmh_cpi_mean, 1),
                     "cycles": report.cycles,
                     "gops": round(report.gops, 2)})
    print(format_table(rows))


def eviction_policy_sweep(dataset) -> None:
    print("\n--- Figure 15: rolling vs barrier eviction ---")
    a_csc = dataset.adjacency_csc()
    features = dataset.features(dim=16, density=0.4)
    program = compile_spgemm(a_csc, features, tile_size=4)
    rows = []
    for mode, label in (("rolling", "HACC-RE"), ("barrier", "HACC-BE")):
        report = NeuraChipAccelerator(TILE16, eviction_mode=mode).run(
            program, verify=False)
        rows.append({"policy": label,
                     "avg_hacc_cpi": round(report.hacc_cpi_mean, 1),
                     "peak_hashpad_lines": report.peak_hashpad_occupancy,
                     "cycles": report.cycles})
    print(format_table(rows))


def main() -> None:
    dataset = load_dataset("cora", max_nodes=192)
    print(f"workload: {dataset.name} ({dataset.n_nodes} nodes, "
          f"{dataset.n_edges} edges)")
    tile_size_sweep(dataset)
    mmh_variant_sweep(dataset)
    eviction_policy_sweep(dataset)


if __name__ == "__main__":
    main()
