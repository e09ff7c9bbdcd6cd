"""Batches: program caching, fingerprints, and aggregate reporting."""

import numpy as np
import pytest

from repro.arch.config import TILE4
from repro.compiler import compile_spgemm
from repro.core import BatchSpec, Session, SpGEMMSpec
from repro.core.runner import ProgramCache, matrix_fingerprint
from repro.datasets import load_dataset
from repro.sparse.convert import csr_to_csc
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def chip():
    return TILE4


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name, max_nodes=80, seed=5).adjacency_csr()
            for name in ("wiki-Vote", "facebook")}


class TestFingerprint:
    def test_stable_and_content_sensitive(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((10, 10)) < 0.3) * rng.random((10, 10))
        a = CSRMatrix.from_dense(dense)
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())
        dense[0, 0] += 1.0
        assert matrix_fingerprint(CSRMatrix.from_dense(dense)) \
            != matrix_fingerprint(a)


class TestProgramCache:
    def test_insertion_order_eviction_without_touches(self):
        cache = ProgramCache(capacity=2)
        for i in range(3):
            cache.put(("key", i), f"program-{i}")
        assert cache.get(("key", 0)) is None
        assert cache.get(("key", 2)) == "program-2"

    def test_lru_get_touch_protects_entry(self):
        cache = ProgramCache(capacity=2)
        cache.put(("key", 0), "program-0")
        cache.put(("key", 1), "program-1")
        assert cache.get(("key", 0)) == "program-0"  # touch: 0 becomes MRU
        cache.put(("key", 2), "program-2")           # evicts 1, not 0
        assert cache.get(("key", 0)) == "program-0"
        assert cache.get(("key", 1)) is None
        assert cache.get(("key", 2)) == "program-2"

    def test_lru_put_touch_refreshes_entry(self):
        cache = ProgramCache(capacity=2)
        cache.put(("key", 0), "program-0")
        cache.put(("key", 1), "program-1")
        cache.put(("key", 0), "program-0b")  # re-put: 0 becomes MRU
        cache.put(("key", 2), "program-2")   # evicts 1
        assert cache.get(("key", 0)) == "program-0b"
        assert cache.get(("key", 1)) is None

    def test_zero_capacity_never_stores(self):
        cache = ProgramCache(capacity=0)
        cache.put(("k",), "p")
        assert len(cache) == 0

    def test_hit_miss_counters_in_stats(self):
        cache = ProgramCache(capacity=2)
        cache.put(("k",), "p")
        cache.get(("k",))
        cache.get(("absent",))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["cache_dir"] is None

    def test_disk_spill_and_reload(self, tmp_path, chip, graphs):
        a = graphs["wiki-Vote"]
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        key = cache.key(a, None, 4)
        cache.put(key, compile_spgemm(csr_to_csc(a), a, tile_size=4))
        assert list(tmp_path.glob("*.pkl"))
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        assert fresh.get(key) is not None
        assert fresh.disk_hits == 1

    def test_rejects_file_as_cache_dir(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        with pytest.raises(ValueError, match="not a directory"):
            ProgramCache(cache_dir=blocker)


class TestDiskEviction:
    """The on-disk tier is bounded: spills sweep oldest-mtime entries."""

    def test_sweep_evicts_oldest_entry_over_cap(self, tmp_path):
        import os

        cache = ProgramCache(capacity=4, cache_dir=tmp_path,
                             max_disk_bytes=None)
        cache.put(("key", 0), "program-0")
        oldest = cache._disk_path(("key", 0))
        entry_bytes = oldest.stat().st_size
        os.utime(oldest, (1, 1))  # make it ancient
        cache.max_disk_bytes = int(entry_bytes * 1.5)  # room for one entry
        cache.put(("key", 1), "program-1")
        assert not oldest.exists()
        assert cache._disk_path(("key", 1)).exists()
        assert cache.disk_evictions >= 1
        assert cache.stats()["disk_entries"] == 1

    def test_disk_hit_touch_protects_entry_from_sweep(self, tmp_path):
        import os

        writer = ProgramCache(capacity=4, cache_dir=tmp_path,
                              max_disk_bytes=None)
        writer.put(("key", 0), "program-0")
        writer.put(("key", 1), "program-1")
        hot = writer._disk_path(("key", 0))
        cold = writer._disk_path(("key", 1))
        os.utime(hot, (1, 1))
        os.utime(cold, (2, 2))
        # A fresh process hits entry 0 on disk, touching its mtime.
        reader = ProgramCache(capacity=4, cache_dir=tmp_path,
                              max_disk_bytes=None)
        assert reader.get(("key", 0)) == "program-0"
        entry_bytes = hot.stat().st_size
        reader.max_disk_bytes = int(entry_bytes * 2.5)  # room for two
        reader.put(("key", 2), "program-2")
        assert hot.exists()       # recently used: survives
        assert not cold.exists()  # oldest mtime: swept

    def test_oversized_newest_entry_survives(self, tmp_path):
        # A single program larger than the cap must stay cached; the sweep
        # only evicts older entries.
        cache = ProgramCache(capacity=2, cache_dir=tmp_path, max_disk_bytes=1)
        cache.put(("key", 0), "program-0")
        assert cache._disk_path(("key", 0)).exists()

    def test_unbounded_tier_never_sweeps(self, tmp_path):
        cache = ProgramCache(capacity=8, cache_dir=tmp_path,
                             max_disk_bytes=None)
        for i in range(5):
            cache.put(("key", i), f"program-{i}")
        assert cache.stats()["disk_entries"] == 5
        assert cache.disk_evictions == 0

    def test_clear_disk_and_stats(self, tmp_path):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        cache.put(("key", 0), "program-0")
        cache.put(("key", 1), "program-1")
        stats = cache.disk_stats()
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] > 0
        assert cache.clear_disk() == 2
        assert cache.disk_stats()["disk_entries"] == 0
        assert not list(tmp_path.glob("*.pkl"))

    def test_clear_disk_without_dir_is_a_noop(self):
        assert ProgramCache(capacity=2).clear_disk() == 0


def run_batch(chip, specs, backend="analytic", session=None):
    if session is not None:
        return session.run(BatchSpec(specs=specs))
    with Session(chip, backend=backend) as session:
        return session.run(BatchSpec(specs=specs))


class TestRunBatch:
    def test_repeated_jobs_hit_the_compile_cache(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label=f"req-{i}")
                 for i in range(3)]
        result = run_batch(chip, specs)
        assert result.metrics["jobs"] == 3
        assert result.metrics["cache_hits"] == 2
        assert [part.cache_hit for part in result.parts] == \
            [False, True, True]
        # Cached programs are shared objects, not recompiles.
        programs = {id(part.program) for part in result.parts}
        assert len(programs) == 1

    def test_distinct_operands_compile_separately(self, chip, graphs):
        result = run_batch(chip, [SpGEMMSpec(a=a) for a in graphs.values()])
        assert result.metrics["cache_hits"] == 0
        assert result.metrics["jobs"] == 2

    def test_accepts_bare_matrices_and_jobs(self, chip, graphs):
        a = graphs["facebook"]
        specs = [SpGEMMSpec(a=a), SpGEMMSpec(a=a, label="explicit")]
        result = run_batch(chip, specs, backend="functional")
        assert result.metrics["jobs"] == 2
        assert result.metrics["cache_hits"] == 1
        assert result.parts[1].label == "explicit"

    def test_outputs_are_correct_per_job(self, chip, graphs):
        result = run_batch(chip, [SpGEMMSpec(a=a, label=name)
                                  for name, a in graphs.items()])
        for part, (name, a) in zip(result.parts, graphs.items()):
            dense = a.to_dense()
            assert np.allclose(part.output.to_dense(), dense @ dense), name

    def test_aggregates_and_rows(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label=label)
                 for label in ("w0", "w1")]
        result = run_batch(chip, specs)
        summary = result.metrics
        assert summary["jobs"] == 2
        assert summary["backend"] == "analytic"
        assert summary["total_cycles"] == pytest.approx(
            sum(part.report.cycles for part in result.parts))
        assert summary["total_partial_products"] == 2 * \
            result.parts[0].program.total_partial_products
        assert summary["compile_cache_hits"] == 1
        assert [part.label for part in result.parts] == ["w0", "w1"]
        assert result.parts[1].cache_hit is True

    def test_functional_backend_reports_zero_cycles(self, chip, graphs):
        result = run_batch(chip, [SpGEMMSpec(a=graphs["facebook"])],
                           backend="functional")
        assert result.metrics["total_cycles"] == 0
        assert result.parts[0].report is None

    def test_tile_size_is_part_of_the_cache_key(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label="t4", tile_size=4),
                 SpGEMMSpec(a=graphs["wiki-Vote"], label="t2", tile_size=2)]
        result = run_batch(chip, specs)
        assert result.metrics["cache_hits"] == 0
        tiles = [part.program.tile_size for part in result.parts]
        assert tiles == [4, 2]

    def test_queue_survives_across_batches(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"])]
        with Session(chip, backend="analytic") as session:
            first = run_batch(chip, specs, session=session)
            second = run_batch(chip, specs, session=session)
        assert first.metrics["cache_hits"] == 0
        assert second.metrics["cache_hits"] == 1  # cache lives on the session
