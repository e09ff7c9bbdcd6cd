"""The removed legacy entry points stay removed, and their Session
replacements do what the shims used to forward to.

The class and test names are those of the former deprecation-shim tests;
each now pins the replacement its shim forwarded to.
"""

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

import repro
import repro.analysis
import repro.backends
import repro.compiler
import repro.core
import repro.sparse.partition
from repro.backends import get_backend
from repro.backends.base import ExecutionBackend
from repro.compiler import compile_spgemm
from repro.core import BatchSpec, Session, SpGEMMSpec, SweepSpec
from repro.datasets import load_dataset
from repro.sparse.convert import csr_to_csc

REMOVED_CHIP_METHODS = ("run_program", "run_spgemm", "run_gcn_layer",
                        "run_batch", "session")
REMOVED_PUBLIC_NAMES = ("SpGEMMRunResult", "GCNRunResult", "BatchReport",
                        "WorkloadQueue", "WorkloadJob", "JobOutcome",
                        "design_space_sweep", "NeuraChip",
                        "register_backend", "register_executor",
                        "predict_scaleout", "plan_row_shards",
                        "shard_partial_products", "resolve_shard_weights",
                        "modeled_makespan")
#: The program is one object: its columns, address map, total and source.
REMOVED_PROGRAM_ATTRIBUTES = ("arrays", "metadata", "n_ops", "a_nnz",
                              "b_nnz")


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki-Vote", max_nodes=80, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def chip():
    """The Tile-4 chip: the execution context a default session runs on."""
    return Session("Tile-4").ctx


class TestOneProgramObject:
    def test_program_wrapper_names_are_gone(self, wiki):
        assert not hasattr(repro.compiler, "ProgramArrays")
        assert not hasattr(repro.analysis, "verify_arrays")
        program = compile_spgemm(csr_to_csc(wiki), wiki, tile_size=4)
        for name in REMOVED_PROGRAM_ATTRIBUTES:
            assert not hasattr(program, name), name
        for method in (program.replay, program.hacc_stream):
            assert not inspect.signature(method).parameters, method

    def test_one_shard_planning_call(self):
        # plan_shards takes no overhead option; the plan is the prediction.
        parameters = inspect.signature(
            repro.sparse.partition.plan_shards).parameters
        assert list(parameters) == ["a_csr", "n_shards", "b_csr",
                                    "strategy"]
        assert not hasattr(repro.sparse.partition.ShardPlan, "contiguous")

    def test_sweep_and_backend_options_are_gone(self):
        assert "eviction_mode" not in {
            field.name for field in dataclasses.fields(SweepSpec)}
        parameters = inspect.signature(ExecutionBackend.execute).parameters
        assert list(parameters) == ["self", "program", "ctx", "verify"]


class TestRunSpgemmShim:
    def test_warns_and_forwards(self, chip, wiki):
        for name in REMOVED_CHIP_METHODS:
            assert not hasattr(chip, name), name
        for name in REMOVED_PUBLIC_NAMES:
            for module in (repro, repro.core, repro.backends,
                           repro.sparse.partition):
                assert not hasattr(module, name), (module.__name__, name)
        # The replacement runs without any DeprecationWarning and equals
        # compiling for the chip and executing on the backend by hand.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Session(chip.config, backend="analytic") as session:
                modern = session.run(SpGEMMSpec(a=wiki))
        program = compile_spgemm(csr_to_csc(wiki), wiki,
                                 tile_size=chip.config.mmh_tile_size)
        direct = get_backend("analytic").execute(program, chip)
        assert modern.metrics["cycles"] == direct.report.cycles
        assert modern.metrics["partial_products"] == \
            program.total_partial_products
        assert np.allclose(modern.output.to_dense(), direct.output.to_dense())

    def test_invalid_mode_still_raises_value_error(self, chip, wiki):
        with pytest.raises(AttributeError):
            chip.run_spgemm(wiki, mode="magic")
        with pytest.raises(ValueError, match="registered backends"):
            Session(chip.config, backend="magic")


class TestRunBatchShim:
    def test_forwards_executor_through_queue(self, chip, wiki):
        with pytest.raises(ImportError):
            from repro.core.runner import WorkloadQueue  # noqa: F401
        specs = [SpGEMMSpec(a=wiki), SpGEMMSpec(a=wiki)]
        with Session(chip.config, backend="analytic", executor="thread",
                     workers=2) as session:
            result = session.run(BatchSpec(specs=specs))
        assert result.metrics["executor"] == "thread"
        assert result.metrics["jobs"] == 2
        assert [part.provenance.executor for part in result.parts] == \
            ["thread", "thread"]
