"""Backend table and execution backend tests."""

import pickle

import numpy as np
import pytest

from repro.backends import (
    CALIBRATED_TOLERANCE,
    ExecutionContext,
    available_backends,
    get_backend,
)
from repro.compiler import program as program_module
from repro.compiler.lowering import compile_spgemm
from repro.compiler.program import Program, rebind_b_values
from repro.core import GCNLayerSpec, Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.gnn.gcn import GCNWorkload
from repro.gnn.pipeline import full_structure_csr
from repro.sparse import kernels
from repro.sparse.convert import csr_to_csc
from repro.sparse import csr as csr_module
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def chip():
    """The Tile-4 chip: the execution context a default session runs on."""
    return Session("Tile-4").ctx


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


def run_spgemm(chip, a, backend, **spec_kwargs):
    with Session(chip.config, backend=backend) as session:
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
            Session(chip.config, backend="quantum")

    def test_gcn_layer_on_analytic_backend(self, chip, wiki):
        with Session(chip.config, backend="analytic") as session:
            result = session.run(GCNLayerSpec(dataset=wiki, feature_dim=8,
                                              hidden_dim=4))
        reference = GCNWorkload.build(wiki, feature_dim=8,
                                      hidden_dim=4).reference_output()
        assert np.allclose(result.output, reference)
        metrics = result.metrics
        assert metrics["total_cycles"] > metrics["combination_cycles"] > 0

    def test_functional_backend_runs_no_simulator(self, chip, wiki,
                                                  monkeypatch):
        """The functional backend is the replay alone: with the functional
        model broken, SpGEMM, a GCN layer and a functional fleet still run
        and match dense numpy."""
        from repro.sim.functional import FunctionalAccelerator

        def broken(self, program):
            raise AssertionError("the functional backend ran the model")

        monkeypatch.setattr(FunctionalAccelerator, "run", broken)
        a = wiki.adjacency_csr()
        dense = a.to_dense() @ a.to_dense()
        with Session(chip.config, backend="functional") as session:
            spgemm = session.run(SpGEMMSpec(a=a))
            layer = session.run(GCNLayerSpec(dataset=wiki, feature_dim=8,
                                             hidden_dim=4))
        with Session(chip.config, backend="multichip", chips=2,
                     chip_backend="functional") as session:
            fleet = session.run(SpGEMMSpec(a=a))
        assert spgemm.report is None
        assert np.allclose(spgemm.output.to_dense(), dense)
        assert np.allclose(layer.output, GCNWorkload.build(
            wiki, feature_dim=8, hidden_dim=4).reference_output())
        assert fleet.provenance.chips == 2
        assert np.allclose(fleet.output.to_dense(), dense)


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
        program = compile_spgemm(csr_to_csc(a), a, tile_size=4)
        result = get_backend("analytic").execute(program, chip)
        report = result.report
        # Instruction and op counts are exact, not estimated.
        assert report.mmh_instructions == program.n_instructions
        assert report.hacc_instructions == program.total_partial_products
        assert report.output_nnz == program.output_nnz
        assert report.correct is None
        assert np.allclose(result.output.to_dense(),
                           a.to_dense() @ a.to_dense())

    def test_python_impl_produces_same_output(self, chip, wiki,
                                              row_wise_result):
        # The row-wise Python loop is the ground truth for the replay.
        a = wiki.adjacency_csr()
        replayed = run_spgemm(chip, a, "analytic").output
        oracle, _ = row_wise_result(a, a)
        assert np.array_equal(replayed.indptr, oracle.indptr)
        assert np.array_equal(replayed.indices, oracle.indices)
        assert np.allclose(replayed.data, oracle.data)

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
            ctx.eviction_mode = "barrier"


def random_csr(shape, density, rng, dense_row=None, dense_col=None):
    mask = rng.random(shape) < density
    if dense_row is not None:
        mask[dense_row, :] = True
    if dense_col is not None:
        mask[:, dense_col] = True
    return CSRMatrix.from_dense(np.where(mask, rng.normal(size=shape), 0.0))


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got_array, expected_array = getattr(got, name), getattr(expected, name)
        assert got_array.dtype == expected_array.dtype, name
        assert np.array_equal(got_array, expected_array), name


def replay_cases():
    rng = np.random.default_rng(11)
    return {
        "empty": (CSRMatrix.empty((6, 6)), random_csr((6, 6), 0.5, rng)),
        "single-node": (CSRMatrix.from_dense(np.array([[2.5]])),
                        CSRMatrix.from_dense(np.array([[-1.25]]))),
        "rectangular": (random_csr((7, 5), 0.4, rng),
                        random_csr((5, 9), 0.4, rng)),
        "monster-row": (random_csr((40, 40), 0.05, rng, dense_row=3,
                                   dense_col=3),
                        random_csr((40, 40), 0.05, rng, dense_row=3,
                                   dense_col=3)),
    }


class TestProgramReplay:
    """The analytic backend's numeric output replays the compiled program
    through its structure-only partial-product index."""

    @pytest.mark.parametrize("tile", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", ["empty", "single-node", "rectangular",
                                      "monster-row"])
    def test_byte_identical_to_vectorized_kernel(self, case, tile):
        a, b = replay_cases()[case]
        program = compile_spgemm(csr_to_csc(a), b, tile_size=tile)
        expected = kernels.spgemm(a, b).matrix
        assert_same_csr(program.replay(), expected)

    def test_rebind_replays_new_values_on_the_same_index(self):
        a, b = replay_cases()["monster-row"]
        program = compile_spgemm(csr_to_csc(a), b, tile_size=4)
        index = program.replay_index()
        b_new = CSRMatrix(b.indptr, b.indices, b.data * -3.5 + 1.0, b.shape)
        rebound = rebind_b_values(program, b_new)
        assert_same_csr(rebound.replay(),
                        kernels.spgemm(a, b_new).matrix)
        assert rebound.replay_index() is index
        # The cached program still replays its own values.
        assert_same_csr(program.replay(),
                        kernels.spgemm(a, b).matrix)

    def test_pickle_drops_and_rebuilds_the_index(self):
        a, b = replay_cases()["rectangular"]
        program = compile_spgemm(csr_to_csc(a), b, tile_size=2)
        index = program.replay_index()
        restored = pickle.loads(pickle.dumps(program))
        assert "_derived_cache" not in restored.__dict__
        rebuilt = restored.replay_index()
        assert rebuilt is not index
        for name in ("a_index", "a_rep", "pp_b", "pp_slot"):
            assert np.array_equal(getattr(rebuilt, name), getattr(index, name))
            assert getattr(rebuilt, name).dtype == np.int32
        assert_same_csr(restored.replay(), program.replay())

    def test_large_key_space_binary_search_path(self, monkeypatch):
        a, b = replay_cases()["monster-row"]
        program = compile_spgemm(csr_to_csc(a), b, tile_size=4)
        dense = program.replay_index()
        fresh = compile_spgemm(csr_to_csc(a), b, tile_size=4)
        monkeypatch.setattr(program_module, "DENSE_KEY_SPACE", 0)
        searched = fresh.replay_index()
        assert np.array_equal(searched.pp_slot, dense.pp_slot)
        assert searched.pp_slot.dtype == np.int32
        assert_same_csr(fresh.replay(), program.replay())

    @pytest.mark.parametrize("dense_keys", [True, False])
    def test_partial_product_without_slot_raises(self, chip, monkeypatch,
                                                 dense_keys):
        a = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = CSRMatrix.from_dense(np.array([[2.0, 0.0], [0.0, 3.0]]))
        program = compile_spgemm(csr_to_csc(a), b, tile_size=1,
                                 source="corrupted")
        # Point op 0 (A[0, 0]) at B's row-1 entry: output (0, 1) has no slot.
        program.op_b_lo[0] = 1
        program.op_b_hi[0] = 2
        if not dense_keys:
            monkeypatch.setattr(program_module, "DENSE_KEY_SPACE", 0)
        with pytest.raises(ValueError, match="corrupted.*no slot"):
            get_backend("analytic").execute(program, chip)

    def test_out_of_bounds_slice_raises(self, chip):
        a, b = replay_cases()["rectangular"]
        program = compile_spgemm(csr_to_csc(a), b, tile_size=2, source="oob")
        program.op_b_lo[0] = -1
        with pytest.raises(ValueError, match="oob.*B-tile slice"):
            get_backend("analytic").execute(program, chip)

    def test_out_of_bounds_slice_raises_on_a_full_structure_b(self, chip):
        a, _ = replay_cases()["rectangular"]
        b = full_structure_csr(np.arange(5 * 3, dtype=np.float64)
                               .reshape(5, 3))
        program = compile_spgemm(csr_to_csc(a), b, tile_size=2, source="oob")
        program.op_b_lo[0] = -1
        with pytest.raises(ValueError, match="oob.*B-tile slice"):
            get_backend("analytic").execute(program, chip)

    def test_output_never_aliases_the_cached_program(self, chip, wiki):
        a = wiki.adjacency_csr()
        with Session(chip.config, backend="analytic") as session:
            first = session.run(SpGEMMSpec(a=a)).output
            expected = first.copy()
            first.indptr[:] = 0
            first.indices[:] = 0
            first.data[:] = np.nan
            second = session.run(SpGEMMSpec(a=a))
        assert second.provenance.cache_hit
        assert_same_csr(second.output, expected)

    @pytest.mark.parametrize("full_b", [False, True])
    def test_warm_replay_checks_the_output_structure_never(self, monkeypatch,
                                                           full_b):
        a, b = replay_cases()["monster-row"]
        if full_b:
            b = full_structure_csr(b.to_dense())
        program = compile_spgemm(csr_to_csc(a), b, tile_size=4)
        calls = []
        check = csr_module.csr_problems

        def counting_check(matrix):
            calls.append(matrix)
            return check(matrix)

        monkeypatch.setattr(csr_module, "csr_problems", counting_check)
        first = program.replay()
        assert len(calls) == 1
        rebound = rebind_b_values(program, CSRMatrix(
            b.indptr, b.indices, b.data * 2.0, b.shape))
        calls.clear()
        again, other = program.replay(), rebound.replay()
        assert calls == []
        assert_same_csr(again, first)
        assert_same_csr(other, kernels.spgemm(a, CSRMatrix(
            b.indptr, b.indices, b.data * 2.0, b.shape)).matrix)
        assert again.indptr is not first.indptr
        assert again.indices is not first.indices

    def test_bad_output_structure_is_refused_on_every_replay(self):
        a, b = replay_cases()["rectangular"]
        program = compile_spgemm(csr_to_csc(a), b, tile_size=2)
        row = int(np.flatnonzero(np.diff(program.out_indptr) >= 2)[0])
        lo = int(program.out_indptr[row])
        program.out_indices[[lo, lo + 1]] = program.out_indices[[lo + 1, lo]]
        for _ in range(2):
            with pytest.raises(ValueError, match="unsorted"):
                program.replay()


class TestColdPathExpansions:
    """A verified cold run expands the partial products once to compile
    and once to verify; the replay reuses the verifier's index."""

    def test_cold_run_expands_twice_and_warm_run_never(self, chip, wiki,
                                                       monkeypatch):
        expansions, built, replayed = [], [], []
        expand = Program.expand_partial_products
        build = Program.build_replay_index
        replay_index = Program.replay_index

        def counting_expand(self, *args, **kwargs):
            expansions.append(args)
            return expand(self, *args, **kwargs)

        def recording_build(self):
            index, unslotted = build(self)
            built.append(index)
            return index, unslotted

        def recording_replay_index(self, *args, **kwargs):
            index = replay_index(self, *args, **kwargs)
            replayed.append(index)
            return index

        monkeypatch.setattr(Program, "expand_partial_products",
                            counting_expand)
        monkeypatch.setattr(Program, "build_replay_index",
                            recording_build)
        monkeypatch.setattr(Program, "replay_index",
                            recording_replay_index)
        a = wiki.adjacency_csr()
        with Session(chip.config, backend="analytic", verify="full") as session:
            cold = session.run(SpGEMMSpec(a=a))
            assert not cold.provenance.cache_hit
            assert len(expansions) == 2  # compile + verify
            assert len(built) == 1 and len(replayed) == 1
            assert replayed[0] is built[0]
            del expansions[:]
            warm = session.run(SpGEMMSpec(a=a))
        assert warm.provenance.cache_hit
        assert expansions == []
        assert replayed[1] is built[0]
        assert_same_csr(warm.output, cold.output)
        assert_same_csr(cold.output,
                        kernels.spgemm(a, a).matrix)
