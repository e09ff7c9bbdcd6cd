"""End-to-end scenarios exercising the full public API surface together."""

import numpy as np
import pytest

from repro import (
    TILE4,
    TILE16,
    GCNLayerSpec,
    Session,
    SpGEMMSpec,
    SweepSpec,
    compile_spgemm,
    load_dataset,
)
from repro.baselines.accelerators import speedup_table
from repro.baselines.workload import SpGEMMWorkloadStats
from repro.hashing import mapping_heatmap
from repro.power import power_breakdown
from repro.sparse.convert import csr_to_csc
from repro.viz.export import format_table, heatmap_to_text, histogram_to_rows


class TestSpGEMMPipeline:
    """Dataset -> compile -> simulate -> compare against baselines -> export."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset("email-Enron", max_nodes=96, seed=9)

    def test_full_pipeline(self, dataset):
        a_csr = dataset.adjacency_csr()
        program = compile_spgemm(csr_to_csc(a_csr), a_csr, tile_size=4,
                                 source=dataset.name)
        with Session(TILE16) as session:
            result = session.run(SpGEMMSpec(a=a_csr, source=dataset.name))
        assert result.metrics["verified"] is True
        assert result.report.mmh_instructions == program.n_instructions

        stats = SpGEMMWorkloadStats.from_matrices(dataset.name, a_csr)
        table = speedup_table([stats])
        assert table["MKL"][dataset.name] > 1.0

        rows = histogram_to_rows(result.report.mmh_cpi_histogram)
        rendered = format_table(rows)
        assert dataset.name or rendered  # renders without error

    def test_mapping_heatmap_export(self, dataset):
        heatmap = mapping_heatmap("drhm", dataset.adjacency_csc(),
                                  dataset.adjacency_csr(), n_cores=8, n_mems=8)
        art = heatmap_to_text(heatmap)
        assert len(art.splitlines()) == 8


class TestGCNPipeline:
    def test_gcn_layer_on_two_configs(self):
        dataset = load_dataset("cora", max_nodes=96, seed=3)
        spec = GCNLayerSpec(dataset=dataset, feature_dim=12, hidden_dim=6)
        with Session(TILE4) as session:
            small = session.run(spec)
        with Session(TILE16) as session:
            large = session.run(spec)
        assert small.metrics["verified"] and large.metrics["verified"]
        assert large.report.cycles < small.report.cycles
        assert np.allclose(small.output, large.output)


class TestDesignSpaceAndPower:
    def test_sweep_and_power_are_consistent(self):
        dataset = load_dataset("p2p-Gnutella31", max_nodes=96, seed=2)
        with Session("Tile-4") as session:
            sweep = session.run(SweepSpec(a=dataset.adjacency_csr(),
                                          configs=("Tile-4", "Tile-16"),
                                          normalize_to=None)).output
        assert sweep["Tile-16"]["cycles"] < sweep["Tile-4"]["cycles"]
        assert sweep["Tile-16"]["power"] > sweep["Tile-4"]["power"]
        assert power_breakdown(TILE16).total_power_w > \
            power_breakdown(TILE4).total_power_w
