"""Tests for ``Session(verify=...)`` and the disk-cache verify path:
memoized once-per-digest verification (of whole programs, of the unit
programs of sharded and multichip runs, and of the programs of GNN
stacks), byte-identical results, and the drop-and-recompile handling of
ill-formed disk cache entries."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.analysis.findings import VerificationError
from repro.compiler.lowering import compile_spgemm
from repro.compiler.program import Program
from repro.core.runner import CACHE_SCHEMA_VERSION, ProgramCache
from repro.core.session import Session
from repro.core.specs import GCNLayerSpec, GNNModelSpec, SpGEMMSpec
from repro.datasets.suite import load_dataset
from repro.gnn import full_structure_csr, normalize_adjacency_cached
from repro.sparse.convert import csc_to_csr, csr_to_csc
from repro.sparse.partition import build_shard_units, plan_shards


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("wiki-Vote", max_nodes=96, seed=0)


def _broken(program: Program) -> Program:
    """``program`` with one output-row count off by one: ill-formed IR."""
    counts = program.out_counts.copy()
    counts[0] += 1
    return dataclasses.replace(program, out_counts=counts)


class TestVerifyMode:
    def test_default_is_off(self, dataset):
        with Session("Tile-4", backend="analytic") as session:
            session.run(SpGEMMSpec(a=dataset.adjacency_csr()))
            assert session.verify_stats() == {
                "verify_mode": None, "verify_runs": 0, "verify_skips": 0}

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="verify mode"):
            Session("Tile-4", backend="analytic", verify="sometimes")

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_verifies_once_per_digest(self, dataset, mode):
        a_csr = dataset.adjacency_csr()
        with Session("Tile-4", backend="analytic", verify=mode) as session:
            session.run(SpGEMMSpec(a=a_csr))
            session.run(SpGEMMSpec(a=a_csr))
            session.run(SpGEMMSpec(a=a_csr))
            stats = session.verify_stats()
        assert stats["verify_mode"] == mode
        assert stats["verify_runs"] == 1
        assert stats["verify_skips"] == 2

    def test_distinct_programs_each_verified(self, dataset):
        a_csr = dataset.adjacency_csr()
        other = load_dataset("facebook", max_nodes=64, seed=1)
        with Session("Tile-4", backend="analytic",
                     verify="full") as session:
            session.run(SpGEMMSpec(a=a_csr))
            session.run(SpGEMMSpec(a=other.adjacency_csr()))
            assert session.verify_stats()["verify_runs"] == 2

    def test_gcn_layer_path_verified(self, dataset):
        with Session("Tile-4", backend="analytic",
                     verify="full") as session:
            session.run(GCNLayerSpec(dataset=dataset.adjacency,
                                     feature_dim=8, hidden_dim=4))
            session.run(GCNLayerSpec(dataset=dataset.adjacency,
                                     feature_dim=8, hidden_dim=4))
            stats = session.verify_stats()
        assert stats["verify_runs"] == 1
        assert stats["verify_skips"] == 1

    def test_results_byte_identical_with_verification(self, dataset):
        spec = SpGEMMSpec(a=dataset.adjacency_csr())
        with Session("Tile-4", backend="analytic") as plain:
            baseline = plain.run(spec)
        with Session("Tile-4", backend="analytic",
                     verify="full") as verified:
            checked = verified.run(spec)
        assert np.array_equal(baseline.output.indptr, checked.output.indptr)
        assert np.array_equal(baseline.output.indices,
                              checked.output.indices)
        assert np.array_equal(baseline.output.data, checked.output.data)

    def test_subprocess_state_ships_verify_mode(self, dataset):
        with Session("Tile-4", backend="analytic",
                     verify="quick") as session:
            assert session._subprocess_state()["verify"] == "quick"

    def test_broken_program_raises_verification_error(self, dataset):
        a_csr = dataset.adjacency_csr()
        with Session("Tile-4", backend="analytic",
                     verify="full") as session:
            key = session.cache.key(a_csr, None, 4)
            program = compile_spgemm(csr_to_csc(a_csr), a_csr, tile_size=4)
            session.cache.put(key, _broken(program))
            with pytest.raises(VerificationError):
                session.run(SpGEMMSpec(a=a_csr, tile_size=4))
            # The key was un-reserved, so a repaired entry re-verifies.
            session.cache.put(key, program)
            session.run(SpGEMMSpec(a=a_csr, tile_size=4))
            assert session.verify_stats()["verify_runs"] == 1


class TestShardUnitVerification:
    """Every unit program of a sharded or multichip run passes the
    session's verification once per cache key."""

    @staticmethod
    def units(a_csr, n_shards):
        plan = plan_shards(a_csr, n_shards, a_csr, strategy="contiguous")
        return [unit for chip in build_shard_units(a_csr, plan)
                for unit in chip]

    def test_corrupt_cached_shard_program_raises(self, dataset):
        a_csr = dataset.adjacency_csr()
        units = self.units(a_csr, 2)
        with Session("Tile-4", backend="analytic", verify="full",
                     partition="contiguous") as session:
            b_unit = units[1].slice_b(a_csr)
            key = session.cache.key(units[1].a, b_unit, 4)
            program = compile_spgemm(csr_to_csc(units[1].a), b_unit,
                                     tile_size=4)
            session.cache.put(key, _broken(program))
            with pytest.raises(VerificationError):
                session.run(SpGEMMSpec(a=a_csr, shards=2))
            session.cache.put(key, program)
            result = session.run(SpGEMMSpec(a=a_csr, shards=2))
            stats = session.verify_stats()
        assert result.provenance.shards == 2
        # One verification per unit program; unit 0 passed before unit 1
        # failed, so the repaired run re-checks only unit 1.
        assert stats["verify_runs"] == len(units) == 2
        assert stats["verify_skips"] == 1

    def test_multichip_units_verified_once(self, dataset):
        a_csr = dataset.adjacency_csr()
        with Session("Tile-4", backend="multichip", chips=3,
                     partition="contiguous", verify="quick") as session:
            session.run(SpGEMMSpec(a=a_csr))
            session.run(SpGEMMSpec(a=a_csr))
            stats = session.verify_stats()
        assert stats["verify_runs"] == len(self.units(a_csr, 3)) == 3
        assert stats["verify_skips"] == 3

    def test_process_chip_workers_verify_at_session_level(
            self, dataset, monkeypatch):
        # A process executor ships whole specs, never one spec's chips:
        # they run here, so they see the patched compiler and the
        # session's verification.
        from repro.core import runner

        compile_ok = runner.compile_spgemm
        monkeypatch.setattr(runner, "compile_spgemm",
                            lambda *args, **kwargs:
                            _broken(compile_ok(*args, **kwargs)))
        with Session("Tile-4", backend="analytic", verify="full",
                     executor="process", workers=2) as session:
            with pytest.raises(VerificationError):
                session.run(SpGEMMSpec(a=dataset.adjacency_csr(), shards=2))


class TestGNNStackVerification:
    """Every program a GNN stack fetches — the single-chip aggregation
    program, or each resident unit program of a multichip stack — passes
    the session's verification once per cache key; later layers and
    repeat runs are memo hits."""

    DIMS = (8, 8, 8)

    @staticmethod
    def session(chips):
        if chips == 1:
            return Session("Tile-4", backend="analytic", verify="full")
        return Session("Tile-4", backend="multichip", chips=chips,
                       partition="contiguous", verify="full")

    @staticmethod
    def programs(session, dataset, chips):
        """``(cache key, a, b)`` of every program one stack layer fetches,
        in fetch order."""
        a_hat = csc_to_csr(csr_to_csc(
            normalize_adjacency_cached(dataset.adjacency)))
        b_full = full_structure_csr(np.zeros((dataset.n_nodes, 8)))
        tile = session.ctx.config.mmh_tile_size
        if chips == 1:
            return [(session.cache.key(a_hat, b_full, tile), a_hat, b_full)]
        plan = plan_shards(a_hat, chips, b_full, strategy="contiguous")
        units = [unit for chip in build_shard_units(a_hat, plan)
                 for unit in chip]
        return [(session.cache.key(unit.a, unit.slice_b(b_full), tile),
                 unit.a, unit.slice_b(b_full)) for unit in units]

    def spec(self, dataset):
        return GNNModelSpec(dataset=dataset, layer_dims=self.DIMS,
                            feature_dim=8)

    @pytest.mark.parametrize("chips", [1, 3])
    def test_each_program_verified_once(self, dataset, chips):
        with self.session(chips) as session:
            keys = [key for key, _, _ in
                    self.programs(session, dataset, chips)]
            fetched, distinct = len(keys), len(set(keys))
            session.run(self.spec(dataset))
            first = session.verify_stats()
            session.run(self.spec(dataset))
            second = session.verify_stats()
        assert first["verify_runs"] == distinct >= chips
        assert first["verify_skips"] == len(self.DIMS) * fetched - distinct
        assert second["verify_runs"] == distinct
        assert second["verify_skips"] == \
            first["verify_skips"] + len(self.DIMS) * fetched

    @pytest.mark.parametrize("chips", [1, 3])
    def test_corrupt_cached_program_raises(self, dataset, chips):
        with self.session(chips) as session:
            programs = self.programs(session, dataset, chips)
            key, a, b = programs[-1]
            program = compile_spgemm(csr_to_csc(a), b, tile_size=4)
            session.cache.put(key, _broken(program))
            with pytest.raises(VerificationError):
                session.run(self.spec(dataset))
            session.cache.put(key, program)
            result = session.run(self.spec(dataset))
            stats = session.verify_stats()
        assert result.output.shape == (dataset.n_nodes, self.DIMS[-1])
        assert stats["verify_runs"] == len({k for k, _, _ in programs})


class TestDiskCacheVerification:
    def make_program(self, dataset):
        return compile_spgemm(dataset.adjacency_csc(),
                              dataset.features(seed=7), tile_size=4,
                              source="disk-verify-test")

    def test_clean_disk_entry_loads(self, dataset, tmp_path):
        writer = ProgramCache(4, cache_dir=tmp_path)
        program = self.make_program(dataset)
        key = ("unit", "spgemm", "a", "b", 4)
        writer.put(key, program)
        reader = ProgramCache(4, cache_dir=tmp_path)
        assert reader.get(key) is not None
        assert reader.verify_failed == 0

    def test_illformed_disk_entry_dropped_and_counted(self, dataset,
                                                      tmp_path):
        cache = ProgramCache(4, cache_dir=tmp_path)
        broken = _broken(self.make_program(dataset))
        key = ("unit", "spgemm", "a", "b", 4)
        path = cache._disk_path(key)
        with path.open("wb") as handle:
            pickle.dump((CACHE_SCHEMA_VERSION, key, broken), handle)
        assert cache.get(key) is None  # dropped, recorded as a miss
        assert not path.exists()  # entry unlinked like any corrupt pickle
        assert cache.verify_failed == 1
        assert cache.misses == 1
        assert cache.stats()["verify_failed"] == 1
