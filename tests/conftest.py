"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import TILE4, TILE16
from repro.compiler import compile_spgemm
from repro.datasets import load_dataset
from repro.sparse.convert import coo_to_csc, coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


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
    """Dense output of a program's op columns, one partial product at a
    time in program order: the executable spec the vectorized replay and
    the simulators' outputs are checked against."""
    a_rows, a_values = program.a_rows.tolist(), program.a_values.tolist()
    b_cols, b_values = program.b_cols.tolist(), program.b_values.tolist()
    dense = np.zeros(program.shape, dtype=np.float64)
    for a_lo, a_hi, b_lo, b_hi in zip(
            program.op_a_lo.tolist(), program.op_a_hi.tolist(),
            program.op_b_lo.tolist(), program.op_b_hi.tolist()):
        for i, av in zip(a_rows[a_lo:a_hi], a_values[a_lo:a_hi]):
            for j, bv in zip(b_cols[b_lo:b_hi], b_values[b_lo:b_hi]):
                dense[i, j] += av * bv
    return dense


@pytest.fixture
def reference_result():
    """:func:`program_reference`, for tests that check a program's output."""
    return program_reference


def row_wise_reference(a: CSRMatrix, b: CSRMatrix) -> tuple[CSRMatrix, int]:
    """C = A @ B by Gustavson's row-wise loop, one partial product at a
    time, with a per-row accumulator that sums in ascending k: the ground
    truth the vectorised oracle (``repro.sparse.kernels.spgemm``) is checked
    against.  Returns C, explicit zeros kept where partial products cancel,
    and the partial-product count."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a.shape}, "
                         f"B is {b.shape}")
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    partial_products = 0
    for i in range(a.shape[0]):
        a_cols, a_vals = a.row(i)
        accumulator: dict[int, float] = {}
        for k, av in zip(a_cols.tolist(), a_vals.tolist()):
            b_cols, b_vals = b.row(k)
            for j, bv in zip(b_cols.tolist(), b_vals.tolist()):
                partial_products += 1
                if j in accumulator:
                    accumulator[j] += av * bv
                else:
                    accumulator[j] = av * bv
        for j in sorted(accumulator):
            rows.append(i)
            cols.append(j)
            vals.append(accumulator[j])
    product = coo_to_csr(COOMatrix(np.asarray(rows, dtype=np.int64),
                                   np.asarray(cols, dtype=np.int64),
                                   np.asarray(vals, dtype=np.float64),
                                   (a.shape[0], b.shape[1])))
    return product, partial_products


@pytest.fixture(scope="session")
def row_wise_result():
    """:func:`row_wise_reference`, for tests that check a product."""
    return row_wise_reference


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
