"""The unified Session API: specs, executors, sharding, persistent cache."""

import os
import pickle
import types
from functools import partial

import numpy as np
import pytest

from repro.core import (
    BatchSpec,
    GCNLayerSpec,
    ProgramCache,
    RunResult,
    Session,
    SpGEMMSpec,
    SweepSpec,
    available_executors,
    get_executor,
    estimate_row_partial_products,
    matrix_fingerprint,
    plan_shards,
)
from repro.arch.config import TILE4
from repro.backends import get_backend
from repro.compiler import compile_spgemm
from repro.core.session import _process_spec_worker
from repro.datasets import load_dataset
from repro.gnn.gcn import GCNWorkload
from repro.power import estimate_power
from repro.sparse.convert import csr_to_csc, csr_vstack


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki-Vote", max_nodes=96, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def facebook():
    return load_dataset("facebook", max_nodes=96, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def analytic_session():
    session = Session("Tile-4", backend="analytic")
    yield session
    session.close()


class TestConstruction:
    def test_accepts_name_config_or_chip(self):
        assert Session("Tile-4").ctx.config.name == "Tile-4"
        assert Session(TILE4).ctx.config is TILE4

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ValueError, match="registered backends"):
            Session("Tile-4", backend="quantum")

    def test_unknown_executor_fails_fast(self):
        with pytest.raises(ValueError, match="registered executors"):
            Session("Tile-4", executor="gpu")

    def test_bad_cache_dir_rejected(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        with pytest.raises(ValueError, match="not a directory"):
            Session("Tile-4", cache_dir=blocker)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            Session("Tile-4", executor="thread", workers=0)

    def test_executor_registry_lists_builtins(self):
        assert {"serial", "thread", "process"} <= set(available_executors())
        with pytest.raises(ValueError, match="registered executors"):
            get_executor("warp")

    def test_context_manager_closes(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            assert session.run(SpGEMMSpec(a=wiki)).metrics["cycles"] > 0
        assert session.closed


class TestCloseLifecycle:
    def test_close_is_idempotent(self, wiki):
        session = Session("Tile-4", backend="analytic")
        session.run(SpGEMMSpec(a=wiki))
        session.close()
        session.close()  # second close must be a no-op, not an error
        assert session.closed

    def test_exit_then_close_is_safe(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            session.run(SpGEMMSpec(a=wiki))
        session.close()
        assert session.closed

    def test_pooled_executor_close_idempotent(self, wiki):
        session = Session("Tile-4", backend="analytic", executor="thread",
                          workers=2)
        session.run(SpGEMMSpec(a=wiki))
        session.close()
        session.close()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_use_after_close_raises_clearly(self, wiki, executor):
        session = Session("Tile-4", backend="analytic", executor=executor)
        session.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            session.run(SpGEMMSpec(a=wiki))
        with pytest.raises(RuntimeError, match="session is closed"):
            session.map([SpGEMMSpec(a=wiki)])
        with pytest.raises(RuntimeError, match="session is closed"):
            session.submit(SpGEMMSpec(a=wiki))


class TestRunSpGEMM:
    def test_matches_legacy_single_call(self, analytic_session, wiki):
        # The session's result equals compiling for the chip and executing
        # the program on the backend by hand.
        result = analytic_session.run(SpGEMMSpec(a=wiki, label="w"))
        program = compile_spgemm(csr_to_csc(wiki), wiki, tile_size=4)
        direct = get_backend("analytic").execute(program,
                                                 analytic_session.ctx)
        assert result.metrics["cycles"] == direct.report.cycles
        assert result.metrics["partial_products"] == \
            program.total_partial_products
        assert result.metrics["output_nnz"] == direct.output.nnz
        assert np.array_equal(result.output.data, direct.output.data)
        assert result.power_w == estimate_power(TILE4, direct.report)[0]

    def test_provenance_recorded(self, analytic_session, wiki):
        result = analytic_session.run(SpGEMMSpec(a=wiki))
        prov = result.provenance
        assert prov.backend == "analytic"
        assert prov.executor == "serial"
        assert prov.config == "Tile-4"
        assert prov.wall_time_s > 0

    def test_session_cache_hits_across_runs(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            first = session.run(SpGEMMSpec(a=wiki))
            second = session.run(SpGEMMSpec(a=wiki))
        assert first.cache_hit is False
        assert second.cache_hit is True

    def test_as_row_drops_none_fields(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            row = session.run(SpGEMMSpec(a=wiki)).as_row()
        assert None not in row.values()  # analytic: verified is None -> dropped
        assert "verified" not in row
        assert row["cache_hit"] is False
        assert "wall_time_s" in row

    def test_spec_validation(self, wiki):
        with pytest.raises(ValueError, match="operand 'a'"):
            SpGEMMSpec()
        with pytest.raises(ValueError, match="shards"):
            SpGEMMSpec(a=wiki, shards=0)

    def test_unsupported_spec_type_rejected(self, analytic_session):
        with pytest.raises(TypeError, match="unsupported spec"):
            analytic_session.run(types.SimpleNamespace())


def row_ranges(a, n_shards, b=None):
    """The contiguous plan's half-open row ranges."""
    return plan_shards(a, n_shards, b, strategy="contiguous").ranges


class TestSharding:
    def test_planner_covers_all_rows(self, wiki):
        ranges = row_ranges(wiki, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == wiki.shape[0]
        for (_, prev_hi), (lo, hi) in zip(ranges, ranges[1:]):
            assert lo == prev_hi
            assert hi > lo

    def test_planner_clamps_to_row_count(self, wiki):
        ranges = row_ranges(wiki.row_slice(0, 3), 16, wiki)
        assert len(ranges) == 3

    def test_row_slices_reassemble(self, wiki):
        ranges = row_ranges(wiki, 5)
        stacked = csr_vstack([wiki.row_slice(lo, hi) for lo, hi in ranges])
        assert np.array_equal(stacked.to_dense(), wiki.to_dense())

    def test_row_partial_product_estimate_is_exact(self, wiki, facebook):
        from repro.sparse.symbolic import symbolic_spgemm

        weights = estimate_row_partial_products(wiki, facebook)
        assert int(weights.sum()) == \
            symbolic_spgemm(wiki, facebook).total_partial_products

    def test_pp_weighted_planner_balances_skew(self, wiki):
        """The plan balances the exact partial-product load: its loads are
        the per-range sums of the row estimates, and its ranges cover
        every row exactly once."""
        weights = estimate_row_partial_products(wiki, wiki)
        plan = plan_shards(wiki, 4, wiki, strategy="contiguous")
        assert plan.loads.tolist() == [int(weights[lo:hi].sum())
                                       for lo, hi in plan.ranges]
        by_pp = plan.ranges
        assert by_pp[0][0] == 0 and by_pp[-1][1] == wiki.shape[0]
        for (_, prev_hi), (lo, _) in zip(by_pp, by_pp[1:]):
            assert lo == prev_hi

    def test_pp_weighted_planner_result_unchanged(self, analytic_session,
                                                  wiki, facebook):
        whole = analytic_session.run(SpGEMMSpec(a=wiki, b=facebook,
                                                label="whole"))
        sharded = analytic_session.run(SpGEMMSpec(a=wiki, b=facebook,
                                                  shards=3, label="sharded"))
        assert sharded.metrics["partial_products"] == \
            whole.metrics["partial_products"]
        assert sharded.metrics["output_nnz"] == whole.metrics["output_nnz"]
        assert np.allclose(sharded.output.to_dense(), whole.output.to_dense())

    def test_sharded_matches_unsharded(self, analytic_session, wiki):
        whole = analytic_session.run(SpGEMMSpec(a=wiki, label="whole"))
        sharded = analytic_session.run(SpGEMMSpec(a=wiki, shards=4,
                                                  label="sharded"))
        assert sharded.provenance.shards == 4
        assert sharded.parts is None
        # Shards run one after another: GOP/s is total partial products
        # over total modelled seconds, not a sum of per-shard rates.
        seconds = sharded.metrics["cycles"] / (
            analytic_session.ctx.config.frequency_ghz * 1e9)
        assert sharded.metrics["gops"] == round(
            sharded.metrics["partial_products"] / seconds / 1e9, 3)
        assert sharded.metrics["gops"] == pytest.approx(
            whole.metrics["gops"], rel=0.25)
        assert sharded.metrics["output_nnz"] == whole.metrics["output_nnz"]
        assert sharded.metrics["partial_products"] == \
            whole.metrics["partial_products"]
        assert np.allclose(sharded.output.to_dense(), whole.output.to_dense())

    def test_sharded_distinct_b_operand(self, analytic_session, wiki, facebook):
        whole = analytic_session.run(SpGEMMSpec(a=wiki, b=facebook))
        sharded = analytic_session.run(SpGEMMSpec(a=wiki, b=facebook,
                                                  shards=3))
        assert np.allclose(sharded.output.to_dense(), whole.output.to_dense())

    def test_sharded_on_cycle_backend_verifies(self, wiki):
        with Session("Tile-4", backend="cycle") as session:
            sharded = session.run(SpGEMMSpec(a=wiki, shards=2, verify=True))
        assert sharded.metrics["verified"] is True
        dense = wiki.to_dense()
        assert np.allclose(sharded.output.to_dense(), dense @ dense)


class TestMapAndSubmit:
    def test_map_preserves_order(self, analytic_session, wiki, facebook):
        specs = [SpGEMMSpec(a=wiki, label="a"),
                 SpGEMMSpec(a=facebook, label="b"),
                 SpGEMMSpec(a=wiki, label="c")]
        results = analytic_session.map(specs)
        assert [r.label for r in results] == ["a", "b", "c"]

    def test_submit_returns_future(self, analytic_session, wiki):
        future = analytic_session.submit(SpGEMMSpec(a=wiki, label="async"))
        result = future.result()
        assert isinstance(result, RunResult)
        assert result.label == "async"

    def test_thread_executor_matches_serial(self, wiki, facebook):
        specs = [SpGEMMSpec(a=m, label=str(i), verify=False)
                 for i, m in enumerate([wiki, facebook, wiki, facebook])]
        with Session("Tile-4", backend="analytic") as serial:
            expected = serial.map(specs)
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=2) as threaded:
            observed = threaded.map(specs)
        for want, got in zip(expected, observed):
            assert want.metrics == got.metrics

    def test_process_executor_matches_serial(self, wiki):
        specs = [SpGEMMSpec(a=wiki, label=str(i)) for i in range(2)]
        with Session("Tile-4", backend="analytic") as serial:
            expected = serial.map(specs)
        with Session("Tile-4", backend="analytic", executor="process",
                     workers=2) as procs:
            observed = procs.map(specs)
        for want, got in zip(expected, observed):
            assert want.metrics["cycles"] == got.metrics["cycles"]
            assert want.metrics["output_nnz"] == got.metrics["output_nnz"]
            assert np.allclose(want.output.to_dense(), got.output.to_dense())
        # Cross-process results carry count digests, not full programs.
        assert observed[0].program.n_instructions == \
            expected[0].program.n_instructions

    def test_sharded_submit_on_saturated_pool_does_not_deadlock(self, wiki):
        # Regression: the sharded fan-out used to re-enter the session's own
        # pool and block on results, deadlocking once the pool was full.
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=1) as session:
            future = session.submit(SpGEMMSpec(a=wiki, shards=2))
            result = future.result(timeout=60)
        assert result.provenance.shards == 2

    def test_batch_of_sharded_specs_does_not_deadlock(self, wiki):
        specs = [SpGEMMSpec(a=wiki, shards=2, label=str(i)) for i in range(2)]
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=2) as session:
            result = session.run(BatchSpec(specs=specs))
        assert result.metrics["jobs"] == 2
        assert result.metrics["executor"] == "thread"
        assert [part.provenance.shards for part in result.parts] == [2, 2]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs >= 2 CPU cores for 2 live workers")
    def test_process_executor_spreads_16_jobs_over_workers(self):
        # Host speed is the benchmark's business; this pins what the
        # process executor must do regardless of timing: the same results
        # as a serial run, with the jobs spread over several workers.
        mats = [load_dataset("wiki-Vote", max_nodes=160, seed=s).adjacency_csr()
                for s in range(16)]
        specs = [SpGEMMSpec(a=m, label=str(i), verify=False)
                 for i, m in enumerate(mats)]
        with Session("Tile-4", backend="analytic") as serial:
            expected = serial.map(specs)
        with Session("Tile-4", backend="analytic", executor="process",
                     workers=2) as procs:
            observed = procs.map(specs)
            pids = procs.executor.map(
                partial(_spec_pid, procs._subprocess_state()), specs)
        for want, got in zip(expected, observed):
            assert want.label == got.label
            assert want.metrics == got.metrics
            assert np.array_equal(want.output.indptr, got.output.indptr)
            assert np.array_equal(want.output.indices, got.output.indices)
            assert np.array_equal(want.output.data, got.output.data)
        assert os.getpid() not in pids
        assert len(set(pids)) >= 2


def _spec_pid(state, spec):
    """The process executor's job for ``spec``, reporting which worker
    process ran it."""
    _process_spec_worker(state, spec)
    return os.getpid()


def _die(_):
    """A process-executor job whose worker dies without a reply."""
    os._exit(3)


class TestProcessPoolDeath:
    """A dead worker breaks only the call that was using it: the next map
    or submit on the same executor gets a fresh pool."""

    def test_map_after_worker_death(self):
        from concurrent.futures.process import BrokenProcessPool

        with get_executor("process", workers=2) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.map(_die, [0, 1])
            assert executor.map(abs, [-1, -2, -3]) == [1, 2, 3]
            assert executor.submit(abs, -4).result() == 4

    def test_submit_after_worker_death(self):
        from concurrent.futures.process import BrokenProcessPool

        with get_executor("process", workers=1) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.submit(_die, 0).result()
            assert executor.submit(abs, -5).result() == 5
            assert executor.map(abs, [-6]) == [6]


class TestPoolCreationRace:
    def test_concurrent_first_calls_share_one_pool(self, monkeypatch):
        import sys
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        created = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                time.sleep(0.01)  # widen the check-then-create window
                super().__init__(*args, **kwargs)

        executor = get_executor("thread", workers=2)
        monkeypatch.setattr(executor, "_pool_cls", CountingPool)
        results = [None] * 16
        start = threading.Barrier(len(results))

        def caller(index):
            start.wait(timeout=10)
            results[index] = executor.map(abs, [-index, index])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(index,))
                       for index in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
            executor.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[index, index] for index in range(len(results))]
        assert len(created) == 1


class TestGCNAndSweepSpecs:
    def test_gcn_layer_matches_reference(self):
        dataset = load_dataset("cora", max_nodes=80, seed=6)
        with Session("Tile-4", backend="analytic") as session:
            result = session.run(GCNLayerSpec(dataset=dataset, feature_dim=8,
                                              hidden_dim=4))
        reference = GCNWorkload.build(dataset, feature_dim=8, hidden_dim=4)
        assert np.allclose(result.output, reference.reference_output())
        metrics = result.metrics
        assert metrics["aggregation_cycles"] == result.report.cycles
        assert metrics["total_cycles"] == pytest.approx(
            metrics["aggregation_cycles"] + metrics["combination_cycles"],
            abs=0.1)
        assert metrics["output_shape"] == str((dataset.n_nodes, 4))

    def test_gcn_aggregation_program_cached(self):
        dataset = load_dataset("cora", max_nodes=64, seed=6)
        with Session("Tile-4", backend="analytic") as session:
            first = session.run(GCNLayerSpec(dataset=dataset, feature_dim=8,
                                             hidden_dim=4))
            second = session.run(GCNLayerSpec(dataset=dataset, feature_dim=8,
                                              hidden_dim=4))
        assert first.cache_hit is False
        assert second.cache_hit is True

    def test_sweep_table_is_the_output(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            result = session.run(SweepSpec(a=wiki,
                                           configs=("Tile-4", "Tile-16")))
        table = result.output
        assert result.metrics == {"configs": 2}
        assert set(table) == {"Tile-4", "Tile-16"}
        for metric, value in table["Tile-4"].items():
            assert value == pytest.approx(1.0), metric

    @pytest.mark.parametrize("setting", [{"mapping_scheme": "ring"},
                                         {"eviction_mode": "barrier"}])
    def test_sweep_runs_the_session_settings(self, setting):
        a = load_dataset("wiki-Vote", max_nodes=48, seed=3).adjacency_csr()
        with Session("Tile-4", backend="cycle", **setting) as session:
            run = session.run(SpGEMMSpec(a=a, verify=False))
            sweep = session.run(SweepSpec(a=a, configs=("Tile-4",),
                                          normalize_to=None))
        assert sweep.output["Tile-4"]["cycles"] == run.metrics["cycles"]

    def test_sweep_configs_keep_their_own_default_scheme(self, wiki):
        ring = TILE4.with_mapping("ring")
        with Session("Tile-4", backend="cycle") as session:
            sweep = session.run(SweepSpec(a=wiki, configs=(ring,),
                                          normalize_to=None))
        with Session(ring, backend="cycle") as session:
            run = session.run(SpGEMMSpec(a=wiki, verify=False))
        assert session.ctx.mapping_scheme == "ring"
        assert sweep.output[ring.name]["cycles"] == run.metrics["cycles"]

    def test_sweep_functional_backend_rejected(self, wiki):
        with Session("Tile-4", backend="functional") as session:
            with pytest.raises(ValueError, match="no timing report"):
                session.run(SweepSpec(a=wiki, configs=("Tile-4",)))

    def test_sweep_spec_validation(self, wiki):
        with pytest.raises(ValueError, match="on_missing_base"):
            SweepSpec(a=wiki, on_missing_base="ignore")


class TestBatchSpec:
    def test_batch_parts_and_summary(self, wiki):
        specs = [SpGEMMSpec(a=wiki, label=f"req-{i}", verify=False)
                 for i in range(3)]
        with Session("Tile-4", backend="analytic") as session:
            result = session.run(BatchSpec(specs=specs))
        summary = result.metrics
        assert summary["jobs"] == 3
        assert summary["cache_hits"] == 2
        assert [part.cache_hit for part in result.parts] == \
            [False, True, True]
        assert [part.label for part in result.parts] == \
            ["req-0", "req-1", "req-2"]
        assert summary["executor"] == "serial"
        assert summary["wall_time_s"] > 0
        assert result.energy_j == sum(part.energy_j for part in result.parts)

    def test_batch_spec_rejects_foreign_members(self, wiki):
        with pytest.raises(TypeError, match="SpGEMMSpec"):
            BatchSpec(specs=[SweepSpec(a=wiki)])


class TestPersistentCache:
    def test_second_session_hits_disk(self, tmp_path, wiki):
        with Session("Tile-4", backend="analytic",
                     cache_dir=tmp_path) as cold:
            first = cold.run(SpGEMMSpec(a=wiki))
        with Session("Tile-4", backend="analytic",
                     cache_dir=tmp_path) as warm:
            second = warm.run(SpGEMMSpec(a=wiki))
            stats = warm.cache_stats()
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert stats["disk_hits"] == 1
        assert first.metrics == second.metrics

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, wiki):
        with Session("Tile-4", backend="analytic",
                     cache_dir=tmp_path) as session:
            session.run(SpGEMMSpec(a=wiki))
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"corrupt")
        with Session("Tile-4", backend="analytic",
                     cache_dir=tmp_path) as session:
            result = session.run(SpGEMMSpec(a=wiki))
        assert result.cache_hit is False

    def test_schema_5_entry_is_a_miss(self, tmp_path, wiki, monkeypatch):
        # A schema-5 spill pickled a wrapper around a ProgramArrays payload,
        # a class repro.compiler.program no longer has.  Even at the
        # current key's path such an entry is a dropped miss, not an error.
        from repro.compiler import program as program_module

        class ProgramArrays:  # stands in for the removed class
            pass

        ProgramArrays.__module__ = program_module.__name__
        ProgramArrays.__qualname__ = "ProgramArrays"
        monkeypatch.setattr(program_module, "ProgramArrays", ProgramArrays,
                            raising=False)
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        key = cache.key(wiki, None, 4)
        path = cache._disk_path(key)
        path.write_bytes(pickle.dumps((5, key, ProgramArrays())))
        monkeypatch.delattr(program_module, "ProgramArrays")
        assert cache.get(key) is None
        assert not path.exists()
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (0, 1)
        with Session("Tile-4", backend="analytic", cache=cache) as session:
            assert session.run(SpGEMMSpec(a=wiki)).cache_hit is False
            assert session.run(SpGEMMSpec(a=wiki)).cache_hit is True

    def test_disk_entries_survive_pickle_round_trip(self, tmp_path, wiki):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        key = cache.key(wiki, None, 4)
        program = compile_spgemm(csr_to_csc(wiki), wiki, tile_size=4)
        cache.put(key, program)
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        loaded = fresh.get(key)
        assert loaded is not None
        assert loaded.n_instructions == program.n_instructions
        assert pickle.dumps(loaded.digest())  # digests stay picklable


class TestFingerprint:
    def test_dtype_changes_fingerprint(self):
        base = types.SimpleNamespace(
            indptr=np.array([0, 1], dtype=np.int64),
            indices=np.array([0], dtype=np.int64),
            data=np.zeros(1, dtype=np.float64),
            shape=(1, 1))
        twin = types.SimpleNamespace(
            indptr=base.indptr, indices=base.indices,
            data=np.zeros(1, dtype=np.int64),  # same bytes, other dtype
            shape=(1, 1))
        assert base.data.tobytes() == twin.data.tobytes()
        assert matrix_fingerprint(base) != matrix_fingerprint(twin)

    def test_schema_version_in_key(self, wiki):
        from repro.core.runner import CACHE_SCHEMA_VERSION, default_cache_dir

        cache = ProgramCache()
        key = cache.key(wiki, None, 4)
        assert key[0] == CACHE_SCHEMA_VERSION == 6
        assert default_cache_dir().name == "programs-v6"


def _revalued(matrix, seed: int):
    """``matrix``'s structure with fresh random values."""
    rng = np.random.default_rng(seed)
    return type(matrix)(matrix.indptr.copy(), matrix.indices.copy(),
                        rng.standard_normal(matrix.nnz), matrix.shape)


class TestStructuralBKey:
    """A is keyed by content and B by structure: a B with new values but
    the same sparsity reuses the compiled program, re-bound to its
    values."""

    @pytest.mark.parametrize("backend", ["analytic", "functional"])
    def test_same_structure_new_values_hits_byte_identical(self, wiki,
                                                           backend):
        b, b2 = _revalued(wiki, 1), _revalued(wiki, 2)
        with Session("Tile-4", backend=backend) as session:
            first = session.run(SpGEMMSpec(a=wiki, b=b))
            second = session.run(SpGEMMSpec(a=wiki, b=b2))
            assert session.cache_stats()["misses"] == 1
        with Session("Tile-4", backend=backend,
                     cache_capacity=0) as uncached:
            reference = uncached.run(SpGEMMSpec(a=wiki, b=b2))
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert reference.cache_hit is False
        for name in ("indptr", "indices", "data"):
            assert getattr(second.output, name).tobytes() == \
                getattr(reference.output, name).tobytes()
        assert second.program.b_values.tobytes() == \
            reference.program.b_values.tobytes()
        assert second.metrics == reference.metrics

    def test_rebound_program_owns_its_values(self, wiki):
        # Like a fresh compile, a re-bound hit copies B's values: changing
        # the caller's B afterwards leaves the program untouched.
        b, b2 = _revalued(wiki, 1), _revalued(wiki, 2)
        with Session("Tile-4", backend="analytic") as session:
            session.run(SpGEMMSpec(a=wiki, b=b))
            result = session.run(SpGEMMSpec(a=wiki, b=b2))
        assert result.cache_hit is True
        before = result.program.b_values.copy()
        b2.data[:] = 0.0
        assert np.array_equal(result.program.b_values, before)

    def test_other_structure_misses(self, wiki, facebook):
        with Session("Tile-4", backend="analytic") as session:
            session.run(SpGEMMSpec(a=wiki, b=wiki))
            result = session.run(SpGEMMSpec(a=wiki, b=facebook))
        assert result.cache_hit is False

    def test_key_fingerprints_b_by_structure(self, wiki):
        from repro.core.runner import (
            CACHE_SCHEMA_VERSION,
            matrix_structure_fingerprint,
        )

        cache = ProgramCache()
        assert cache.key(wiki, _revalued(wiki, 1), 4) == \
            cache.key(wiki, _revalued(wiki, 2), 4)
        assert cache.key(wiki, wiki, 4) == (
            CACHE_SCHEMA_VERSION, matrix_fingerprint(wiki),
            matrix_structure_fingerprint(wiki), 4)
        # A @ A (b=None) still keys its one operand by content.
        assert cache.key(wiki, None, 4) == (
            CACHE_SCHEMA_VERSION, matrix_fingerprint(wiki),
            matrix_fingerprint(wiki), 4)
        assert cache.key(_revalued(wiki, 1), None, 4) != \
            cache.key(wiki, None, 4)


def _dense_b(seed: int, shape=(96, 8)):
    """A full-structure B of ``shape`` with seeded values."""
    from repro.gnn.pipeline import full_structure_csr

    return full_structure_csr(
        np.random.default_rng(seed).standard_normal(shape))


def _with_first_value(matrix, value: float):
    data = matrix.data.copy()
    data[0] = value
    return type(matrix)(matrix.indptr, matrix.indices, data, matrix.shape)


class TestFullStructureBKey:
    """A full-structure B's structure is its shape: it is keyed by its
    shape alone, without hashing its index arrays."""

    def test_same_shape_shares_a_key(self, wiki):
        cache = ProgramCache()
        assert cache.key(wiki, _dense_b(1), 4) == cache.key(wiki, _dense_b(2), 4)
        assert cache.key(wiki, _dense_b(1), 4) != \
            cache.key(wiki, _dense_b(1, (96, 9)), 4)

    def test_dropped_explicit_zero_changes_the_key(self, wiki):
        from repro.sparse.csr import CSRMatrix

        full = _with_first_value(_dense_b(1), 0.0)
        indptr = full.indptr.copy()
        indptr[1:] -= 1  # entry 0 (row 0, col 0) dropped
        dropped = CSRMatrix(indptr, full.indices[1:], full.data[1:],
                            full.shape)
        cache = ProgramCache()
        assert np.array_equal(dropped.to_dense(), full.to_dense())
        assert cache.key(wiki, dropped, 4) != cache.key(wiki, full, 4)

    def test_only_a_non_full_b_hashes_its_index_arrays(self, wiki,
                                                      monkeypatch):
        from repro.core import runner

        hashed = []
        sha1 = runner.hashlib.sha1

        class RecordingDigest:
            def __init__(self):
                self._digest = sha1()

            def update(self, data):
                hashed.append(len(data))
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        monkeypatch.setattr(runner, "hashlib",
                            types.SimpleNamespace(sha1=RecordingDigest))
        full = _dense_b(1, (2000, 32))
        runner.matrix_structure_fingerprint(full)
        assert sum(hashed) < 100  # the schema, the shape and a marker
        hashed.clear()
        runner.matrix_structure_fingerprint(wiki)
        assert sum(hashed) >= wiki.indptr.nbytes + wiki.indices.nbytes

    @pytest.mark.parametrize("held, sent, rebound", [
        (np.nan, np.nan, False), (1.5, 1.5, False),
        (-0.0, 0.0, True), (0.0, -0.0, True),
    ])
    def test_b_values_compare_bit_for_bit(self, wiki, held, sent, rebound):
        from repro.core.runner import fetch_or_compile

        cache = ProgramCache()
        fetch_or_compile(cache, wiki, _with_first_value(wiki, held), 4, "b")
        program, hit, was_rebound = fetch_or_compile(
            cache, wiki, _with_first_value(wiki, sent), 4, "b")
        assert hit is True
        assert was_rebound is rebound
        assert program.b_values[:1].tobytes() == \
            np.array([sent]).tobytes()


class TestSpecValidation:
    """Parameters that cannot run fail when the spec is built."""

    @pytest.mark.parametrize("kwargs", [
        {"hidden_dim": 0}, {"feature_dim": -3}, {"activation": "bogus"},
    ])
    def test_gcn_layer_spec(self, wiki, kwargs):
        with pytest.raises(ValueError):
            GCNLayerSpec(dataset=wiki, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"feature_dim": 0}, {"activations": "bogus"},
        {"layer_dims": (4, 4), "activations": ("relu", "tanh")},
    ])
    def test_gnn_model_spec(self, wiki, kwargs):
        from repro.core.specs import GNNModelSpec

        with pytest.raises(ValueError):
            GNNModelSpec(dataset=wiki, **kwargs)

    @pytest.mark.parametrize("tile_size", [-2, 0, 3, 16])
    def test_tile_size_outside_the_isa(self, wiki, tile_size):
        with pytest.raises(ValueError, match="tile_size"):
            SpGEMMSpec(a=wiki, tile_size=tile_size)

    def test_operand_shapes(self, wiki):
        tall = wiki.row_slice(0, 10)
        with pytest.raises(ValueError, match="square"):
            SpGEMMSpec(a=tall)
        with pytest.raises(ValueError, match="columns"):
            SpGEMMSpec(a=wiki, b=tall)
        with pytest.raises(ValueError, match="columns"):
            SweepSpec(a=np.ones((2, 3)), b=np.ones((2, 3)))
        SpGEMMSpec(a=tall, b=wiki)  # (10, 96) @ (96, 96) multiplies

    def test_valid_specs_still_build(self, wiki):
        from repro.core.specs import GNNModelSpec, OperandRef

        for tile_size in (None, 1, 2, 4, 8):
            SpGEMMSpec(a=wiki, tile_size=tile_size)
        SpGEMMSpec(a=OperandRef("x"), b=wiki)  # shapes known only later
        GCNLayerSpec(dataset=wiki, activation=None)
        GNNModelSpec(dataset=wiki, layer_dims=(3, 2),
                     activations=("identity", None))
