"""Concurrent Session.submit / Session.map semantics the server relies on:
result ordering, exception propagation through futures, cancellation, and
close() behaviour with requests in flight."""

import sys
import time

import pytest

from repro.core import BatchSpec, Session, SpGEMMSpec, WorkloadSpec
from repro.core import runner
from repro.datasets import load_dataset


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki-Vote", max_nodes=96, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def facebook():
    return load_dataset("facebook", max_nodes=96, seed=5).adjacency_csr()


class TestOrdering:
    def test_map_order_is_submission_order_despite_uneven_work(self, wiki,
                                                               facebook):
        # Interleave large and small jobs so completion order differs from
        # submission order; map must still return submission order.
        small = load_dataset("wiki-Vote", max_nodes=24,
                             seed=1).adjacency_csr()
        specs = []
        for index in range(4):
            specs.append(SpGEMMSpec(a=wiki, b=facebook, verify=False,
                                    label=f"big-{index}"))
            specs.append(SpGEMMSpec(a=small, verify=False,
                                    label=f"small-{index}"))
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=4) as session:
            results = session.map(specs)
        assert [r.label for r in results] == [s.label for s in specs]

    def test_interleaved_submits_resolve_independently(self, wiki, facebook):
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=2) as session:
            futures = [session.submit(SpGEMMSpec(a=matrix, verify=False,
                                                 label=str(index)))
                       for index, matrix in enumerate([wiki, facebook] * 3)]
            results = [future.result(timeout=60) for future in futures]
        assert [r.label for r in results] == [str(i) for i in range(6)]


class TestInFlightCompile:
    """Identical specs racing in a thread pool compile their program once:
    a miss on a key another thread is compiling waits and counts as a
    hit."""

    @staticmethod
    def slow_compiles(monkeypatch):
        compiles = []
        compile_spgemm = runner.compile_spgemm

        def slow(*args, **kwargs):
            compiles.append(args)
            time.sleep(0.2)
            return compile_spgemm(*args, **kwargs)

        monkeypatch.setattr(runner, "compile_spgemm", slow)
        return compiles

    @pytest.mark.parametrize("attempt", range(3))
    def test_identical_specs_compile_once(self, wiki, monkeypatch, attempt):
        compiles = self.slow_compiles(monkeypatch)
        specs = [SpGEMMSpec(a=wiki, verify=False, label=str(index))
                 for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers finely
        try:
            with Session("Tile-4", backend="analytic", executor="thread",
                         workers=4) as session:
                result = session.run(BatchSpec(specs=specs))
                stats = session.cache_stats()
        finally:
            sys.setswitchinterval(interval)
        assert len(compiles) == 1
        assert sum(part.cache_hit for part in result.parts) == 7
        assert (stats["hits"], stats["misses"]) == (7, 1)

    def test_failed_compile_releases_the_waiters(self, wiki, monkeypatch):
        compiles = []
        compile_spgemm = runner.compile_spgemm

        def first_fails(*args, **kwargs):
            compiles.append(args)
            time.sleep(0.2)
            if len(compiles) == 1:
                raise RuntimeError("compile failed")
            return compile_spgemm(*args, **kwargs)

        monkeypatch.setattr(runner, "compile_spgemm", first_fails)
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=4) as session:
            futures = [session.submit(SpGEMMSpec(a=wiki, verify=False))
                       for _ in range(4)]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=60).cache_hit)
                except RuntimeError:
                    outcomes.append("failed")
        # One caller sees the failure; a waiter compiles in its place and
        # the rest hit its program.
        assert len(compiles) == 2
        assert (outcomes.count("failed"), outcomes.count(False),
                outcomes.count(True)) == (1, 1, 2)


class TestExceptionPropagation:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_submit_routes_exception_into_future(self, executor):
        with Session("Tile-4", backend="analytic",
                     executor=executor) as session:
            future = session.submit(WorkloadSpec(label="bogus"))
            with pytest.raises(TypeError, match="unsupported spec"):
                future.result(timeout=60)

    def test_map_propagates_first_failure(self, wiki):
        specs = [SpGEMMSpec(a=wiki, verify=False),
                 WorkloadSpec(label="bogus"),
                 SpGEMMSpec(a=wiki, verify=False)]
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=2) as session:
            with pytest.raises(TypeError, match="unsupported spec"):
                session.map(specs)
            # The pool survives a poisoned batch and stays usable.
            results = session.map([SpGEMMSpec(a=wiki, verify=False)])
            assert results[0].metrics["cycles"] > 0


class TestCancellation:
    def test_queued_future_is_cancellable(self, wiki):
        with Session("Tile-4", backend="analytic", executor="thread",
                     workers=1) as session:
            # Occupy the single worker so the next submit stays queued.
            blocker = session.executor.submit(time.sleep, 0.4)
            queued = session.submit(SpGEMMSpec(a=wiki, verify=False))
            assert queued.cancel() is True
            assert queued.cancelled()
            blocker.result(timeout=60)

    def test_running_future_is_not_cancellable(self, wiki):
        with Session("Tile-4", backend="analytic") as session:
            # The serial executor resolves inline: by the time submit
            # returns, the work already ran and cancel must fail.
            future = session.submit(SpGEMMSpec(a=wiki, verify=False))
            assert future.cancel() is False
            assert future.result(timeout=60).metrics["cycles"] > 0


class TestCloseWithInFlight:
    def test_close_waits_for_in_flight_futures(self, wiki, facebook):
        session = Session("Tile-4", backend="analytic", executor="thread",
                          workers=2)
        futures = [session.submit(SpGEMMSpec(a=matrix, verify=False,
                                             label=str(index)))
                   for index, matrix in enumerate([wiki, facebook, wiki])]
        session.close()  # shutdown(wait=True): must not drop queued work
        assert all(future.done() for future in futures)
        for index, future in enumerate(futures):
            assert future.result().label == str(index)

    def test_submit_after_close_raises_even_with_results_pending(self, wiki):
        session = Session("Tile-4", backend="analytic", executor="thread",
                          workers=1)
        future = session.submit(SpGEMMSpec(a=wiki, verify=False))
        session.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            session.submit(SpGEMMSpec(a=wiki))
        # The pre-close future still resolved normally.
        assert future.result(timeout=60).metrics["cycles"] > 0
