"""The session's chip (``Session.ctx``) and single-workload runs."""

import numpy as np
import pytest

from repro.analysis.verifier import verify_program
from repro.arch.config import TILE4
from repro.compiler import compile_spgemm
from repro.core import GCNLayerSpec, Session, SpGEMMSpec, SweepSpec
from repro.datasets import load_dataset
from repro.gnn.gcn import GCNWorkload
from repro.power import PowerModel, activity_from_report
from repro.sim.params import SimulationParams
from repro.sparse.convert import csr_to_csc


@pytest.fixture(scope="module")
def tiny_graph():
    return load_dataset("facebook", max_nodes=80, seed=6)


@pytest.fixture(scope="module")
def chip():
    return TILE4


class TestConstruction:
    def test_config_by_name_or_object(self):
        assert Session("Tile-4").ctx.config is TILE4
        assert Session(TILE4).ctx.config is TILE4

    def test_unknown_config_name(self):
        with pytest.raises(KeyError):
            Session("Tile-1024")

    def test_defaults(self, chip):
        ctx = Session(chip).ctx
        assert ctx.mapping_scheme == "drhm"
        assert ctx.eviction_mode == "rolling"
        assert ctx.mapping_seed == 0
        assert isinstance(ctx.params, SimulationParams)

    def test_run_settings_reach_the_context_and_the_report(
            self, tiny_graph):
        with Session(TILE4, backend="cycle", mapping_scheme="ring",
                     eviction_mode="barrier") as session:
            assert session.ctx.mapping_scheme == "ring"
            assert session.ctx.eviction_mode == "barrier"
            report = session.run(SpGEMMSpec(a=tiny_graph.adjacency_csr(),
                                            verify=False)).report
        assert report.mapping_scheme == "ring"
        assert report.eviction_mode == "barrier"


def run_spgemm(chip, a, b=None, backend="cycle", **spec_kwargs):
    with Session(chip, backend=backend) as session:
        return session.run(SpGEMMSpec(a=a, b=b, **spec_kwargs))


def run_gcn_layer(chip, dataset, backend="cycle", **spec_kwargs):
    with Session(chip, backend=backend) as session:
        return session.run(GCNLayerSpec(dataset=dataset, **spec_kwargs))


def sweep(a, configs, backend="cycle", **spec_kwargs):
    with Session(configs[0], backend=backend) as session:
        return session.run(SweepSpec(a=a, configs=configs,
                                     **spec_kwargs)).output


class TestRunSpGEMM:
    def test_cycle_mode_end_to_end(self, chip, tiny_graph):
        result = run_spgemm(chip, tiny_graph.adjacency_csr())
        dense = tiny_graph.adjacency_csr().to_dense()
        assert result.metrics["verified"] is True
        assert np.allclose(result.output.to_dense(), dense @ dense)
        assert result.report.cycles > 0
        assert result.power_w > 0
        assert result.energy_j > 0

    def test_functional_mode_skips_cycle_report(self, chip, tiny_graph):
        result = run_spgemm(chip, tiny_graph.adjacency_csr(),
                            backend="functional")
        assert result.report is None
        assert result.metrics["verified"] is None
        assert result.power_w == 0.0
        dense = tiny_graph.adjacency_csr().to_dense()
        assert np.allclose(result.output.to_dense(), dense @ dense)

    def test_invalid_mode(self, chip, tiny_graph):
        with pytest.raises(ValueError):
            run_spgemm(chip, tiny_graph.adjacency_csr(), backend="magic")

    def test_accepts_dense_and_coo_operands(self, chip):
        rng = np.random.default_rng(0)
        a = (rng.random((20, 20)) < 0.2) * rng.random((20, 20))
        b = (rng.random((20, 20)) < 0.2) * rng.random((20, 20))
        result = run_spgemm(chip, a, b, backend="functional")
        assert np.allclose(result.output.to_dense(), a @ b)

    def test_rejects_unsupported_operand_type(self, chip):
        with pytest.raises(TypeError):
            run_spgemm(chip, "not a matrix", backend="functional")

    def test_distinct_b_operand(self, chip, tiny_graph):
        a = tiny_graph.adjacency_csr()
        features = tiny_graph.features(dim=8, density=0.5)
        result = run_spgemm(chip, a, features, backend="functional")
        assert np.allclose(result.output.to_dense(),
                           a.to_dense() @ features.to_dense())

    def test_compile_only(self, tiny_graph):
        a = tiny_graph.adjacency_csr()
        program = compile_spgemm(csr_to_csc(a), a, tile_size=2)
        assert program.tile_size == 2
        assert verify_program(program) == []


class TestRunGCNLayer:
    def test_layer_output_matches_reference(self, chip, tiny_graph):
        result = run_gcn_layer(chip, tiny_graph, feature_dim=12,
                               hidden_dim=6)
        reference = GCNWorkload.build(tiny_graph, feature_dim=12,
                                      hidden_dim=6).reference_output()
        assert np.allclose(result.output, reference)
        assert result.metrics["verified"] is True
        metrics = result.metrics
        assert metrics["total_cycles"] > metrics["combination_cycles"] > 0

    def test_layer_on_raw_adjacency(self, chip, tiny_graph):
        result = run_gcn_layer(chip, tiny_graph.adjacency, feature_dim=8,
                               hidden_dim=4, backend="functional")
        assert result.output.shape == (tiny_graph.n_nodes, 4)

    def test_metadata_records_dimensions(self, chip, tiny_graph):
        result = run_gcn_layer(chip, tiny_graph, feature_dim=10,
                               hidden_dim=5, backend="functional")
        assert result.metrics["output_shape"] == \
            str((tiny_graph.n_nodes, 5))


class TestPowerIntegration:
    def test_power_breakdown_without_report(self, chip):
        breakdown = PowerModel().combined(chip)
        assert breakdown.total_area_mm2 == pytest.approx(2.37, abs=0.01)

    def test_power_breakdown_with_report_activity(self, chip, tiny_graph):
        result = run_spgemm(chip, tiny_graph.adjacency_csr(), verify=False)
        breakdown = PowerModel().combined(
            chip, activity_from_report(result.report))
        full = PowerModel().combined(chip)
        assert breakdown.total_power_w <= full.total_power_w + 1e-9


class TestDesignSpaceSweep:
    def test_sweep_normalised_to_tile4(self, tiny_graph):
        table = sweep(tiny_graph.adjacency_csr(), ("Tile-4", "Tile-16"))
        assert set(table) == {"Tile-4", "Tile-16"}
        for metric, value in table["Tile-4"].items():
            assert value == pytest.approx(1.0), metric
        assert table["Tile-16"]["cycles"] < 1.0  # bigger chip finishes sooner

    def test_sweep_raw_values(self, tiny_graph):
        table = sweep(tiny_graph.adjacency_csr(), ("Tile-4",),
                      normalize_to=None)
        metrics = table["Tile-4"]
        assert {"stall_cycles", "cpi", "ipc", "in_flight_instx", "power",
                "busy_cycles", "cycles", "gops"} <= set(metrics)
        assert metrics["cycles"] > 0

    def test_sweep_on_analytic_backend(self, tiny_graph):
        table = sweep(tiny_graph.adjacency_csr(), ("Tile-4", "Tile-16"),
                      backend="analytic")
        assert set(table) == {"Tile-4", "Tile-16"}
        assert table["Tile-4"]["cycles"] == pytest.approx(1.0)

    def test_sweep_functional_backend_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="no timing report"):
            sweep(tiny_graph.adjacency_csr(), ("Tile-4",),
                  backend="functional")

    @staticmethod
    def zero_gops(monkeypatch):
        # Every per-configuration run goes through Session.run; zero the
        # gops of each timed run (the sweep's own result has no report).
        original = Session.run

        def run(self, spec):
            result = original(self, spec)
            if result.report is not None:
                result.report.gops = 0.0
            return result

        monkeypatch.setattr(Session, "run", run)

    def test_sweep_skips_metrics_with_zero_baseline(self, tiny_graph,
                                                    monkeypatch):
        # Force a zero baseline metric and check it is omitted, not mapped
        # to a silent 0.0 (the pre-refactor behaviour).
        self.zero_gops(monkeypatch)
        table = sweep(tiny_graph.adjacency_csr(), ("Tile-4", "Tile-16"))
        assert "gops" not in table["Tile-16"]
        assert "cycles" in table["Tile-16"]

    def test_sweep_raises_on_zero_baseline_when_asked(self, tiny_graph,
                                                      monkeypatch):
        self.zero_gops(monkeypatch)
        with pytest.raises(ValueError, match="gops"):
            sweep(tiny_graph.adjacency_csr(), ("Tile-4", "Tile-16"),
                  on_missing_base="raise")

    def test_sweep_invalid_policy_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="on_missing_base"):
            sweep(tiny_graph.adjacency_csr(), ("Tile-4",),
                  on_missing_base="ignore")
