"""The removed legacy entry points stay removed, and their Session
replacements do what the shims used to forward to.

The class and test names are those of the former deprecation-shim tests;
each now pins the replacement its shim forwarded to.
"""

import warnings

import numpy as np
import pytest

import repro
import repro.core
from repro.backends import get_backend
from repro.core import BatchSpec, NeuraChip, Session, SpGEMMSpec
from repro.datasets import load_dataset

REMOVED_CHIP_METHODS = ("run_program", "run_spgemm", "run_gcn_layer",
                        "run_batch", "session")
REMOVED_PUBLIC_NAMES = ("SpGEMMRunResult", "GCNRunResult", "BatchReport",
                        "WorkloadQueue", "WorkloadJob", "JobOutcome",
                        "design_space_sweep")


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki-Vote", max_nodes=80, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def chip():
    return NeuraChip("Tile-4")


class TestRunSpgemmShim:
    def test_warns_and_forwards(self, chip, wiki):
        for name in REMOVED_CHIP_METHODS:
            assert not hasattr(chip, name), name
        for name in REMOVED_PUBLIC_NAMES:
            assert not hasattr(repro, name), name
            assert not hasattr(repro.core, name), name
        # The replacement runs without any DeprecationWarning and equals
        # compiling on the chip and executing on the backend by hand.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Session(chip, backend="analytic") as session:
                modern = session.run(SpGEMMSpec(a=wiki))
        program = chip.compile(wiki)
        direct = get_backend("analytic").execute(
            program, chip._context(), a_csr=wiki, b_csr=wiki)
        assert modern.metrics["cycles"] == direct.report.cycles
        assert modern.metrics["partial_products"] == \
            program.total_partial_products
        assert np.allclose(modern.output.to_dense(), direct.output.to_dense())

    def test_invalid_mode_still_raises_value_error(self, chip, wiki):
        with pytest.raises(AttributeError):
            chip.run_spgemm(wiki, mode="magic")
        with pytest.raises(ValueError, match="registered backends"):
            Session(chip, backend="magic")


class TestRunBatchShim:
    def test_forwards_executor_through_queue(self, chip, wiki):
        with pytest.raises(ImportError):
            from repro.core.runner import WorkloadQueue  # noqa: F401
        specs = [SpGEMMSpec(a=wiki), SpGEMMSpec(a=wiki)]
        with Session(chip, backend="analytic", executor="thread",
                     workers=2) as session:
            result = session.run(BatchSpec(specs=specs))
        assert result.metrics["executor"] == "thread"
        assert result.metrics["jobs"] == 2
        assert [part.provenance.executor for part in result.parts] == \
            ["thread", "thread"]
