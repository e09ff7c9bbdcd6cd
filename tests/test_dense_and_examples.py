"""Versatility tests (dense workloads on the accelerator) and example smoke tests.

Section 2.2 argues NeuraChip handles dense workloads as well as hyper-sparse
ones; the first class checks the full pipeline on dense operands.  The second
class runs every shipped example end to end so the documentation stays honest.
"""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import TILE4
from repro.compiler import compile_spgemm
from repro.core import Session, SpGEMMSpec
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sparse.convert import as_csr, csr_to_csc

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestDenseWorkloads:
    def test_dense_gemm_through_cycle_simulator(self):
        rng = np.random.default_rng(0)
        a = rng.random((24, 24))
        b = rng.random((24, 24))
        with Session(TILE4) as session:
            result = session.run(SpGEMMSpec(a=a, b=b))
        assert result.metrics["verified"] is True
        assert np.allclose(result.output.to_dense(), a @ b)
        # Dense x dense: every output element receives the full inner-dimension
        # worth of partial products.
        assert result.program.total_partial_products == 24 ** 3

    def test_sparse_times_dense_feature_matrix(self):
        rng = np.random.default_rng(1)
        adjacency = (rng.random((32, 32)) < 0.1) * 1.0
        features = rng.random((32, 8))
        with Session(TILE4, backend="functional") as session:
            result = session.run(SpGEMMSpec(a=adjacency, b=features))
        assert np.allclose(result.output.to_dense(), adjacency @ features)

    def test_simulation_kcps_reported(self):
        rng = np.random.default_rng(2)
        a = (rng.random((32, 32)) < 0.2) * rng.random((32, 32))
        a_csr = as_csr(a)
        program = compile_spgemm(csr_to_csc(a_csr), a_csr,
                                 tile_size=TILE4.mmh_tile_size)
        report = NeuraChipAccelerator(TILE4).run(program, verify=False)
        assert report.simulation_kcps > 0
        assert report.wall_clock_seconds > 0


@pytest.mark.parametrize("example", [
    "quickstart.py",
    "batched_backends.py",
    "gcn_inference.py",
    "design_space_exploration.py",
    "mapping_exploration.py",
    "sharded_execution.py",
    "spgemm_baseline_comparison.py",
])
def test_examples_run_end_to_end(example, monkeypatch, capsys):
    """Every example script must execute without errors."""
    path = EXAMPLES_DIR / example
    assert path.exists(), f"missing example {example}"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{example} produced no output"
