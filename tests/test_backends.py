"""Backend registry and execution backend tests."""

import numpy as np
import pytest

from repro.backends import (
    CALIBRATED_TOLERANCE,
    ExecutionBackend,
    ExecutionContext,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backends.registry import _BACKENDS
from repro.core import GCNLayerSpec, NeuraChip, Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.gnn.gcn import GCNWorkload


@pytest.fixture(scope="module")
def chip():
    return NeuraChip("Tile-4")


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki-Vote", max_nodes=96, seed=3)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"functional", "cycle", "analytic"} <= set(available_backends())

    def test_unknown_name_lists_registered_backends(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("quantum")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_get_backend_returns_fresh_instances(self):
        assert get_backend("cycle") is not get_backend("cycle")

    def test_custom_backend_registration(self):
        @register_backend("null-test")
        class NullBackend(ExecutionBackend):
            def execute(self, program, ctx, a_csc=None, b_csr=None,
                        verify=True):
                raise NotImplementedError

        try:
            assert isinstance(get_backend("null-test"), NullBackend)
            assert "null-test" in available_backends()
        finally:
            _BACKENDS.pop("null-test", None)


def run_spgemm(chip, a, backend, impl="numpy", **spec_kwargs):
    with Session(chip, backend=backend, impl=impl) as session:
        return session.run(SpGEMMSpec(a=a, **spec_kwargs))


class TestBackendSelection:
    def test_run_spgemm_backend_param(self, chip, wiki):
        a = wiki.adjacency_csr()
        dense = a.to_dense() @ a.to_dense()
        for backend in ("functional", "cycle", "analytic"):
            result = run_spgemm(chip, a, backend, verify=False)
            assert result.provenance.backend == backend
            assert np.allclose(result.output.to_dense(), dense)

    def test_unknown_backend_raises_before_compile(self, chip):
        with pytest.raises(ValueError, match="registered backends"):
            Session(chip, backend="quantum")

    def test_gcn_layer_on_analytic_backend(self, chip, wiki):
        with Session(chip, backend="analytic") as session:
            result = session.run(GCNLayerSpec(dataset=wiki, feature_dim=8,
                                              hidden_dim=4))
        reference = GCNWorkload.build(wiki, feature_dim=8,
                                      hidden_dim=4).reference_output()
        assert np.allclose(result.output, reference)
        metrics = result.metrics
        assert metrics["total_cycles"] > metrics["combination_cycles"] > 0


class TestAnalyticBackend:
    """Prediction accuracy against the cycle backend (calibration datasets)."""

    @pytest.mark.parametrize("name,nodes", [
        ("wiki-Vote", 96),
        ("facebook", 80),
    ])
    def test_within_documented_tolerance_of_cycle_backend(self, chip, name,
                                                          nodes):
        dataset = load_dataset(name, max_nodes=nodes, seed=3)
        adjacency = dataset.adjacency_csr()
        predicted = run_spgemm(chip, adjacency, "analytic")
        measured = run_spgemm(chip, adjacency, "cycle", verify=False)
        relative_error = abs(predicted.report.cycles
                             - measured.report.cycles) / measured.report.cycles
        assert relative_error <= CALIBRATED_TOLERANCE

    def test_exact_counts_and_kernel_output(self, chip, wiki):
        a = wiki.adjacency_csr()
        program = chip.compile(a)
        result = get_backend("analytic").execute(
            program, chip._context("numpy"), a_csr=a, b_csr=a)
        report = result.report
        # Instruction and op counts are exact, not estimated.
        assert report.mmh_instructions == program.n_instructions
        assert report.hacc_instructions == program.total_partial_products
        assert report.output_nnz == program.output_nnz
        assert report.correct is None
        assert result.functional is None
        assert np.allclose(result.output.to_dense(),
                           a.to_dense() @ a.to_dense())

    def test_python_impl_produces_same_output(self, chip, wiki):
        a = wiki.adjacency_csr()
        fast = run_spgemm(chip, a, "analytic", impl="numpy")
        slow = run_spgemm(chip, a, "analytic", impl="python")
        assert np.allclose(fast.output.to_dense(), slow.output.to_dense())
        assert fast.report.cycles == slow.report.cycles

    def test_power_model_consumes_analytic_report(self, chip, wiki):
        result = run_spgemm(chip, wiki.adjacency_csr(), "analytic")
        assert result.power_w > 0
        assert result.energy_j > 0

    def test_scales_with_workload_size(self, chip):
        small = load_dataset("wiki-Vote", max_nodes=64, seed=3)
        large = load_dataset("wiki-Vote", max_nodes=192, seed=3)
        cycles = [run_spgemm(chip, d.adjacency_csr(),
                             "analytic").report.cycles
                  for d in (small, large)]
        assert cycles[1] > cycles[0]

    def test_context_defaults_recorded(self, chip, wiki):
        result = run_spgemm(chip, wiki.adjacency_csr(), "analytic")
        assert result.report.mapping_scheme == chip.mapping_scheme
        assert result.report.eviction_mode == chip.eviction_mode
        assert result.report.counters["analytic.binding_bound"] in (
            "issue", "multiply", "inject", "hash", "ingress", "request", "bus")


class TestExecutionContext:
    def test_frozen(self, chip):
        ctx = ExecutionContext(config=chip.config, params=chip.params,
                               mapping_scheme="drhm")
        with pytest.raises(AttributeError):
            ctx.kernel_impl = "python"
