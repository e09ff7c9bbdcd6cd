"""Serving subsystem: queue and micro-batcher."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import GNNModelSpec, Session, SpGEMMSpec, WorkloadSpec
from repro.datasets import load_dataset
from repro.serve import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_MS,
    MicroBatcher,
    QueueClosed,
    QueueOverflow,
    ReproServer,
    RequestQueue,
    ServeTimeout,
    ServingStats,
)
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki-Vote", max_nodes=96, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def facebook():
    return load_dataset("facebook", max_nodes=96, seed=5).adjacency_csr()


def serve_specs(session, specs, **batcher_kwargs):
    """Run specs through a queue + batcher and return their results."""
    queue = RequestQueue()
    batcher = MicroBatcher(session, queue, **batcher_kwargs)
    requests = [queue.put(spec) for spec in specs]
    batcher.start()
    try:
        return [request.future.result(timeout=60) for request in requests], \
            batcher.stats
    finally:
        batcher.stop()


class TestRequestQueue:
    def test_fifo_batches(self, wiki):
        queue = RequestQueue()
        specs = [SpGEMMSpec(a=wiki, label=str(i)) for i in range(3)]
        for spec in specs:
            queue.put(spec)
        batch = queue.get_batch(max_batch=8, max_delay_s=0.0)
        assert [request.spec.label for request in batch] == ["0", "1", "2"]
        assert queue.depth == 0

    def test_batch_bounded_by_max_batch(self, wiki):
        queue = RequestQueue()
        for index in range(5):
            queue.put(SpGEMMSpec(a=wiki, label=str(index)))
        batch = queue.get_batch(max_batch=2, max_delay_s=0.0)
        assert [request.spec.label for request in batch] == ["0", "1"]
        assert queue.depth == 3

    def test_overflow_load_sheds_with_clear_error(self, wiki):
        queue = RequestQueue(max_depth=2)
        queue.put(SpGEMMSpec(a=wiki))
        queue.put(SpGEMMSpec(a=wiki))
        with pytest.raises(QueueOverflow, match="full"):
            queue.put(SpGEMMSpec(a=wiki))
        assert queue.depth == 2  # the shed request was never enqueued

    def test_closed_queue_rejects_puts(self, wiki):
        queue = RequestQueue()
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(SpGEMMSpec(a=wiki))

    def test_close_drains_then_returns_empty(self, wiki):
        queue = RequestQueue()
        queue.put(SpGEMMSpec(a=wiki, label="leftover"))
        queue.close()
        batch = queue.get_batch(max_batch=8, max_delay_s=0.0)
        assert [request.spec.label for request in batch] == ["leftover"]
        assert queue.get_batch(max_batch=8, max_delay_s=0.0) == []

    def test_get_batch_waits_for_late_arrivals(self, wiki):
        queue = RequestQueue()
        queue.put(SpGEMMSpec(a=wiki, label="first"))

        def late_put():
            time.sleep(0.05)
            queue.put(SpGEMMSpec(a=wiki, label="second"))

        thread = threading.Thread(target=late_put)
        thread.start()
        batch = queue.get_batch(max_batch=2, max_delay_s=2.0)
        thread.join()
        assert [request.spec.label for request in batch] == \
            ["first", "second"]

    def test_default_window_takes_a_lone_request_without_waiting(
            self, wiki, monkeypatch):
        queue = RequestQueue()
        queue.put(SpGEMMSpec(a=wiki, label="lone"))

        def no_wait(*args, **kwargs):
            raise AssertionError("get_batch waited for the batch to fill")

        monkeypatch.setattr(queue._condition, "wait", no_wait)
        batch = queue.get_batch(DEFAULT_MAX_BATCH, DEFAULT_MAX_DELAY_MS / 1e3)
        assert [request.spec.label for request in batch] == ["lone"]

    def test_server_batches_without_a_window_by_default(self):
        with Session("Tile-4", backend="analytic") as session:
            assert ReproServer(session, port=0).batcher.max_delay_s == 0

    def test_validation(self, wiki):
        with pytest.raises(ValueError, match="max_depth"):
            RequestQueue(max_depth=0)
        with pytest.raises(ValueError, match="max_batch"):
            RequestQueue().get_batch(max_batch=0, max_delay_s=0.0)


class TestServingStats:
    def test_unknown_counter_raises(self):
        stats = ServingStats()
        with pytest.raises(ValueError, match="rejected_bogus"):
            stats.add("rejected_bogus", tenant="t")
        with pytest.raises(ValueError, match="responses"):
            stats.add("responses")  # a tenant counter needs its tenant
        with pytest.raises(ValueError, match="coalesced"):
            stats.add("coalesced", tenant="t")
        assert stats.snapshot()["tenants"] == {}

    def test_fleet_totals_are_sums_of_tenant_rows(self):
        stats = ServingStats()
        for tenant in ("a", "b", "b"):
            stats.add("admitted", tenant=tenant)
            stats.record_response(tenant, 0.01)
        stats.add("failures", tenant="a")
        stats.add("deadline_misses", tenant="b")
        stats.add("rejected_queue", 2, tenant="a")
        stats.add("rejected_rate", tenant="b")
        snapshot = stats.snapshot()
        assert [snapshot[key] for key in
                ("responses", "failures", "timeouts", "shed")] == [3, 1, 1, 2]
        rows = stats.tenant_snapshot()
        assert rows == snapshot["tenants"]
        assert rows["a"]["rejected"] == 2
        assert rows["b"]["rejected"] == 1
        assert rows["b"]["admitted"] == rows["b"]["responses"] == 2

    def test_concurrent_counts_lose_no_update(self):
        stats, rounds = ServingStats(), 2000
        tenants = [f"t{index % 3}" for index in range(8)]

        def hammer(tenant):
            for _ in range(rounds):
                stats.add("requests")
                stats.add("admitted", tenant=tenant)
                stats.record_response(tenant, 0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(tenant,))
                       for tenant in tenants]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snapshot = stats.snapshot()
        total = rounds * len(tenants)
        assert snapshot["requests"] == snapshot["responses"] == total
        assert sum(row["admitted"] for row in
                   snapshot["tenants"].values()) == total


class TestMicroBatcher:
    def test_served_results_byte_identical_to_direct_run(self, wiki,
                                                         facebook):
        spec = SpGEMMSpec(a=wiki, b=facebook, verify=False, label="serve")
        with Session("Tile-4", backend="analytic") as direct_session:
            direct = direct_session.run(spec)
        with Session("Tile-4", backend="analytic") as session:
            (served,), _ = serve_specs(session, [spec])
        assert np.array_equal(served.output.indptr, direct.output.indptr)
        assert np.array_equal(served.output.indices, direct.output.indices)
        assert np.array_equal(served.output.data, direct.output.data)
        assert served.metrics["cycles"] == direct.metrics["cycles"]
        assert served.metrics["partial_products"] == \
            direct.metrics["partial_products"]

    def test_coalesces_operand_identical_requests(self, wiki):
        specs = [SpGEMMSpec(a=wiki, verify=False, label=f"req-{i}")
                 for i in range(4)]
        with Session("Tile-4", backend="analytic") as session:
            results, stats = serve_specs(session, specs, max_batch=4,
                                         max_delay_ms=200.0)
        assert [r.label for r in results] == [s.label for s in specs]
        # One execution served all four.
        assert stats.snapshot()["coalesced"] == 3
        assert len({r.metrics["cycles"] for r in results}) == 1
        for result in results[1:]:
            assert np.array_equal(result.output.data, results[0].output.data)

    def test_coalescing_ignores_label_and_source(self, wiki):
        # Serving clients stamp per-request labels (which may also reach
        # spec.source); neither must defeat coalescing — the product is
        # identical either way, like the program-cache key.
        specs = [SpGEMMSpec(a=wiki, verify=False, label=f"req-{i}",
                            source=f"req-{i}") for i in range(3)]
        with Session("Tile-4", backend="analytic") as session:
            results, stats = serve_specs(session, specs, max_batch=3,
                                         max_delay_ms=200.0)
        assert stats.snapshot()["coalesced"] == 2
        assert [r.label for r in results] == ["req-0", "req-1", "req-2"]

    def test_dispatch_thread_survives_a_poison_batch(self, wiki,
                                                     monkeypatch):
        # A bug anywhere in the dispatch path (here: a coalescing key that
        # raises on one batch) must fail that batch's futures, not kill
        # the batcher thread — later requests still get served.
        import repro.serve.batcher as batcher_module

        real_key = batcher_module._coalesce_key
        calls = {"n": 0}

        def flaky_key(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("coalescing exploded")
            return real_key(spec)

        monkeypatch.setattr(batcher_module, "_coalesce_key", flaky_key)
        with Session("Tile-4", backend="analytic") as session:
            queue = RequestQueue()
            batcher = MicroBatcher(session, queue, max_batch=1)
            first = queue.put(SpGEMMSpec(a=wiki, verify=False))
            batcher.start()
            try:
                # The poisoned batch fails its future instead of hanging
                # it ...
                with pytest.raises(RuntimeError, match="coalescing exploded"):
                    first.future.result(timeout=60)
                # ... and the dispatch thread is alive for the next one.
                second = queue.put(SpGEMMSpec(a=wiki, verify=False))
                assert second.future.result(timeout=60) \
                    .metrics["cycles"] > 0
            finally:
                batcher.stop()
            assert batcher.stats.snapshot()["failures"] == 1

    def test_coalescing_distinguishes_distinct_operands(self, wiki,
                                                        facebook):
        specs = [SpGEMMSpec(a=wiki, verify=False, label="w"),
                 SpGEMMSpec(a=facebook, verify=False, label="f")]
        with Session("Tile-4", backend="analytic") as session:
            results, stats = serve_specs(session, specs, max_batch=2,
                                         max_delay_ms=200.0)
        assert stats.snapshot()["coalesced"] == 0
        assert results[0].metrics["output_nnz"] != \
            results[1].metrics["output_nnz"]

    def test_failing_request_does_not_poison_batch_mates(self, wiki):
        good = SpGEMMSpec(a=wiki, verify=False, label="good")
        bad = WorkloadSpec(label="bad")  # base class: unsupported spec kind
        with Session("Tile-4", backend="analytic") as session:
            queue = RequestQueue()
            batcher = MicroBatcher(session, queue, max_batch=2,
                                   max_delay_ms=200.0)
            good_request = queue.put(good)
            bad_request = queue.put(bad)
            batcher.start()
            try:
                assert good_request.future.result(timeout=60) \
                    .metrics["cycles"] > 0
                with pytest.raises(TypeError, match="unsupported spec"):
                    bad_request.future.result(timeout=60)
            finally:
                batcher.stop()
            snapshot = batcher.stats.snapshot()
            assert snapshot["responses"] == 1
            assert snapshot["failures"] == 1

    def test_cancelled_request_is_skipped(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            queue = RequestQueue()
            batcher = MicroBatcher(session, queue)
            request = queue.put(SpGEMMSpec(a=wiki))
            assert request.cancel() is True  # still queued: cancellable
            batcher.start()
            batcher.stop()
            assert request.future.cancelled()
            snapshot = batcher.stats.snapshot()
            assert snapshot["cancelled"] == 1
            assert snapshot["responses"] == 0

    def test_expired_deadline_fails_with_serve_timeout(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            queue = RequestQueue()
            batcher = MicroBatcher(session, queue)
            request = queue.put(SpGEMMSpec(a=wiki), timeout_s=0.0)
            batcher.start()
            try:
                with pytest.raises(ServeTimeout, match="deadline"):
                    request.future.result(timeout=60)
            finally:
                batcher.stop()
            assert batcher.stats.snapshot()["timeouts"] == 1

    def test_stop_fails_requests_enqueued_after_close(self, wiki):
        # stop() closes the queue first; a request that sneaks into the
        # drain path must fail, not hang its client forever.
        with Session("Tile-4", backend="analytic") as session:
            queue = RequestQueue()
            batcher = MicroBatcher(session, queue)
            request = queue.put(SpGEMMSpec(a=wiki, verify=False))
            batcher.start()
            batcher.stop()  # serves the already-queued request, then exits
            assert request.future.done()
        with pytest.raises(QueueClosed):
            queue.put(SpGEMMSpec(a=wiki))

    def test_validation(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            queue = RequestQueue()
            with pytest.raises(ValueError, match="max_batch"):
                MicroBatcher(session, queue, max_batch=0)
            with pytest.raises(ValueError, match="max_delay_ms"):
                MicroBatcher(session, queue, max_delay_ms=-1.0)


def skewed_matrix(dense_row: int, n: int = 64) -> CSRMatrix:
    """One dense row, the rest diagonal: a shard histogram the planner
    cannot balance (the dense row's partial products are indivisible)."""
    dense = np.eye(n)
    dense[dense_row, :] = 1.0
    return CSRMatrix.from_dense(dense)


def mixed_batch() -> list:
    """Four distinct skewed A@A jobs plus a depth-2 GNN stack: the batch
    shape on which a multi-chip server once packed whole jobs per chip."""
    specs: list = [SpGEMMSpec(a=skewed_matrix(row), verify=False,
                              label=f"skew-{row}") for row in (0, 16, 32, 48)]
    specs.append(GNNModelSpec(dataset=load_dataset("cora", max_nodes=128),
                              layer_dims=(8, 8), label="gnn"))
    return specs


def row_without_wall_time(result) -> dict:
    row = dict(result.as_row())
    del row["wall_time_s"]
    return row


SERVING_CONFIGS = [
    pytest.param({"backend": "multichip", "chips": 4}, id="multichip-4"),
    pytest.param({"backend": "analytic"}, id="analytic"),
]


class TestServedEqualsRun:
    @pytest.mark.parametrize("config", SERVING_CONFIGS)
    def test_served_row_equals_session_run(self, config):
        """A served request reports what Session.run of the same spec
        reports — every metric, not just the output — whatever its
        batch-mates."""
        specs = mixed_batch()
        with Session("Tile-4", **config) as session:
            served, stats = serve_specs(session, specs, max_batch=len(specs),
                                        max_delay_ms=200.0)
        assert stats.snapshot()["batches"] == 1
        for spec, result in zip(specs, served):
            with Session("Tile-4", **config) as fresh:
                direct = fresh.run(spec)
            assert row_without_wall_time(result) == \
                row_without_wall_time(direct)
            if isinstance(spec, SpGEMMSpec):
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(result.output, field),
                                          getattr(direct.output, field))
            else:
                assert np.array_equal(result.output, direct.output)

    def test_full_verify_multichip_serving_verifies_what_it_compiles(self):
        specs = mixed_batch()
        config = {"backend": "multichip", "chips": 4, "verify": "full"}
        with Session("Tile-4", **config) as direct_session:
            for spec in specs:
                direct_session.run(spec)
            direct_runs = direct_session.verify_stats()["verify_runs"]
        with Session("Tile-4", **config) as session:
            serve_specs(session, specs, max_batch=len(specs),
                        max_delay_ms=200.0)
            served_runs = session.verify_stats()["verify_runs"]
        assert direct_runs > 0
        assert served_runs == direct_runs


class TestMultichipServing:
    def test_scale_up_dispatch_uses_multichip_backend(self, wiki):
        specs = [SpGEMMSpec(a=wiki, verify=False)]
        with Session("Tile-4", backend="multichip", chips=2) as session:
            results, stats = serve_specs(session, specs)
        assert results[0].provenance.backend == "multichip"
        assert results[0].provenance.chips == 2
