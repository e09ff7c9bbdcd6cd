"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import TILE4, TILE16
from repro.compiler import compile_spgemm
from repro.datasets import load_dataset
from repro.sparse.convert import coo_to_csc, coo_to_csr
from repro.sparse.coo import COOMatrix


def random_sparse_coo(n_rows: int, n_cols: int, density: float,
                      seed: int = 0) -> COOMatrix:
    """Random sparse matrix with approximately the requested density."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(n_rows * n_cols * density))
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    data = rng.random(nnz) + 0.1
    return COOMatrix(rows, cols, data, (n_rows, n_cols)).sum_duplicates()


def program_reference(program) -> np.ndarray:
    """Dense output of a program's macro-op stream, one partial product at
    a time in program order: the executable spec the vectorized replay and
    the simulators' outputs are checked against."""
    dense = np.zeros(program.shape, dtype=np.float64)
    for op in program.iter_mmh_ops():
        for i, av in zip(op.a_rows, op.a_values):
            for j, bv in zip(op.b_cols, op.b_values):
                dense[i, j] += av * bv
    return dense


@pytest.fixture
def reference_result():
    """:func:`program_reference`, for tests that check a program's output."""
    return program_reference


@pytest.fixture
def small_coo() -> COOMatrix:
    """A fixed small sparse matrix used across format tests."""
    dense = np.array([
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [3.0, 4.0, 0.0, 5.0],
        [0.0, 6.0, 0.0, 7.0],
    ])
    return COOMatrix.from_dense(dense)


@pytest.fixture
def small_dense(small_coo) -> np.ndarray:
    return small_coo.to_dense()


@pytest.fixture
def random_coo() -> COOMatrix:
    return random_sparse_coo(24, 24, density=0.12, seed=3)


@pytest.fixture
def random_pair():
    """A compatible random (A, B) pair in CSR for SpGEMM tests."""
    a = coo_to_csr(random_sparse_coo(20, 16, 0.15, seed=1))
    b = coo_to_csr(random_sparse_coo(16, 12, 0.2, seed=2))
    return a, b


@pytest.fixture
def tiny_dataset():
    """A small synthetic power-law dataset for simulator tests."""
    return load_dataset("facebook", max_nodes=96, seed=5)


@pytest.fixture
def tiny_program(tiny_dataset):
    """A compiled SpGEMM (A @ A) program for the tiny dataset."""
    a_csr = tiny_dataset.adjacency_csr()
    a_csc = coo_to_csc(tiny_dataset.adjacency)
    return compile_spgemm(a_csc, a_csr, tile_size=4, source="test")


@pytest.fixture
def tile4():
    return TILE4


@pytest.fixture
def tile16():
    return TILE16
