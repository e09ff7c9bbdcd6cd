"""The A-level replay of a full-structure B against the per-partial-product
replay: byte-identical output on every backend and fleet, a far smaller
index, and a corrupted op stream never replayed through it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import get_backend
from repro.compiler.lowering import compile_spgemm
from repro.compiler.program import (
    ELEMENT_BYTES,
    Program,
    rebind_b_values,
)
from repro.arch.config import get_config
from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.gnn.gcn import normalize_adjacency_cached
from repro.gnn.pipeline import full_structure_csr
from repro.sparse.convert import csr_to_csc
from repro.sparse.csr import CSRMatrix

#: Values that must survive the replay bit for bit.
SPECIAL_VALUES = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300,
                           -1e300, 1.5, -2.25])


def explicit_csr(mask: np.ndarray, values: np.ndarray) -> CSRMatrix:
    """A CSR holding ``values`` at ``mask``, explicit zeros included."""
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(mask.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=mask.shape[0]), out=indptr[1:])
    return CSRMatrix(indptr, cols, values[:rows.size], mask.shape)


def draw_values(rng, size: int, specials: bool) -> np.ndarray:
    values = rng.standard_normal(size)
    if specials and size:
        pick = rng.random(size) < 0.3
        values[pick] = rng.choice(SPECIAL_VALUES, int(pick.sum()))
    return values


@st.composite
def full_structure_operands(draw):
    """``(a, b, tile)``: a graph-shaped A and a full-structure B whose
    width lies below, at or above the MMH tile size."""
    case = draw(st.sampled_from(["empty", "single-node", "random",
                                 "monster-row"]))
    tile = draw(st.sampled_from([1, 2, 4, 8]))
    width = draw(st.sampled_from([max(tile - 1, 1), tile, tile + 3]))
    specials = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = {"empty": 6, "single-node": 1}.get(case) or int(rng.integers(2, 24))
    if case == "empty":
        mask = np.zeros((n, n), dtype=bool)
    else:
        mask = rng.random((n, n)) < rng.uniform(0.05, 0.4)
        if case == "single-node":
            mask[:] = True
        if case == "monster-row":
            mask[int(rng.integers(n)), :] = True
    a = explicit_csr(mask, draw_values(rng, int(mask.sum()), specials))
    x = draw_values(rng, n * width, specials).reshape(n, width)
    return a, full_structure_csr(x), tile


def per_partial_product(run):
    """``run()`` with the A-level replay switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Program, "build_dense_replay_index",
                      lambda self: None)
        return run()


def canonical_nans(values: np.ndarray) -> np.ndarray:
    """``values`` with every NaN as the one quiet NaN ``np.nan``.

    IEEE 754 leaves open which NaN an operation on two NaNs returns, and
    numpy's scalar and SIMD loops choose differently (a NaN sum's sign
    bit depends on the loop length), so NaNs compare by position only;
    every other value, -0.0 and the infinities included, by its bits.
    """
    return np.where(np.isnan(values), np.nan, values)


def assert_same_bytes(got: CSRMatrix, expected: CSRMatrix) -> None:
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got_array, expected_array = getattr(got, name), getattr(expected, name)
        assert got_array.dtype == expected_array.dtype, name
        if name == "data":
            got_array = canonical_nans(got_array)
            expected_array = canonical_nans(expected_array)
        assert got_array.tobytes() == expected_array.tobytes(), name


# The special values overflow and meet inf * 0 on purpose.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestDifferential:
    """Fresh compiles on both sides, so neither reuses the other's
    cached index."""

    @settings(max_examples=40, deadline=None)
    @given(full_structure_operands())
    def test_replay_matches_partial_product_bincount(self, operands):
        a, b, tile = operands

        def replay():
            program = compile_spgemm(csr_to_csc(a), b, tile_size=tile)
            return program.replay(), program

        expected, _ = per_partial_product(replay)
        got, program = replay()
        assert program.dense_replay_index() is not None
        assert_same_bytes(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(full_structure_operands(),
           st.sampled_from(["analytic", "functional", "cycle"]))
    def test_backends_match(self, operands, backend):
        a, b, tile = operands
        context = Session("Tile-4").ctx

        def execute():
            program = compile_spgemm(csr_to_csc(a), b, tile_size=tile)
            return get_backend(backend).execute(
                program, context, verify=False).output

        assert_same_bytes(execute(), per_partial_product(execute))

    @pytest.mark.parametrize("tile_config", ["Tile-4", "Tile-16"])
    def test_three_chip_fleet_that_splits_rows(self, tile_config):
        rng = np.random.default_rng(7)
        n, width = 96, 9
        mask = np.eye(n, dtype=bool)
        mask[5, :] = True  # a monster row the degree planner must split
        a = explicit_csr(mask, draw_values(rng, int(mask.sum()), True))
        b = full_structure_csr(draw_values(rng, n * width, True)
                               .reshape(n, width))

        def run(backend, **kwargs):
            with Session(tile_config, backend=backend, **kwargs) as session:
                return session.run(SpGEMMSpec(a=a, b=b, verify=False))

        fleet = run("multichip", chips=3, partition="degree")
        assert fleet.metrics["split_rows"] >= 1
        reference = per_partial_product(
            lambda: run("multichip", chips=3, partition="degree"))
        assert_same_bytes(fleet.output, reference.output)
        assert_same_bytes(fleet.output, run("analytic").output)
        assert fleet.metrics["cycles"] == reference.metrics["cycles"]


class TestIndex:
    def test_cora_index_is_a_tenth_of_the_partial_product_index(self):
        graph = load_dataset("cora", max_nodes=2000, seed=0)
        a = normalize_adjacency_cached(graph.adjacency)
        x = np.random.default_rng(0).standard_normal((graph.n_nodes, 32))
        tile = get_config("Tile-16").mmh_tile_size
        program = compile_spgemm(csr_to_csc(a), full_structure_csr(x),
                                 tile_size=tile)

        def nbytes(index):
            return sum(value.nbytes for value in
                       (getattr(index, field.name)
                        for field in dataclasses.fields(index))
                       if isinstance(value, np.ndarray))

        dense = program.dense_replay_index()
        assert "replay" not in program._derived()
        assert nbytes(dense) * 10 <= nbytes(program.replay_index())

    def test_non_full_b_has_no_a_level_index(self):
        rng = np.random.default_rng(3)
        a = explicit_csr(rng.random((12, 12)) < 0.3, rng.standard_normal(144))
        b = full_structure_csr(rng.standard_normal((12, 5)))
        sparse_b = b.col_range(1, 4)  # a monster-row fragment's operand
        for b_operand in (a, sparse_b):
            program = compile_spgemm(csr_to_csc(a), b_operand, tile_size=2)
            assert program.dense_replay_index() is None
            assert program.replay().shape == (12, b_operand.shape[1])

    def test_rebound_copy_shares_the_index(self):
        rng = np.random.default_rng(4)
        a = explicit_csr(rng.random((10, 10)) < 0.4, rng.standard_normal(100))
        b = full_structure_csr(rng.standard_normal((10, 6)))
        program = compile_spgemm(csr_to_csc(a), b, tile_size=4)
        index = program.dense_replay_index()
        b_new = full_structure_csr(rng.standard_normal((10, 6)))
        rebound = rebind_b_values(program, b_new)
        assert rebound.dense_replay_index() is index
        expected = per_partial_product(lambda: compile_spgemm(
            csr_to_csc(a), b_new, tile_size=4).replay())
        assert_same_bytes(rebound.replay(), expected)


class TestCorruptedProgram:
    """The A-level index is checked against the op stream, never taken
    from A's structure alone."""

    @staticmethod
    def program(tile: int = 2):
        rng = np.random.default_rng(9)
        a = explicit_csr(rng.random((8, 8)) < 0.5, rng.standard_normal(64))
        b = full_structure_csr(rng.standard_normal((8, 5)))
        return compile_spgemm(csr_to_csc(a), b, tile_size=tile,
                              source="corrupted")

    def test_retargeted_b_tile_falls_back_to_the_op_stream(self):
        clean, program = self.program(), self.program()
        width = program.shape[1]
        # Op 0 reads the same columns of the next B row: every partial
        # product still has a slot, so only the op stream tells.
        program.op_b_lo[0] += width
        program.op_b_hi[0] += width
        program.op_b_col_addr[0] += width * ELEMENT_BYTES
        program.op_b_data_addr[0] += width * ELEMENT_BYTES
        assert program.dense_replay_index() is None
        assert not np.array_equal(program.replay().data,
                                  clean.replay().data)

    @pytest.mark.parametrize("field", ["op_a_hi", "op_b_hi"])
    def test_shortened_tile_falls_back(self, field):
        program = self.program(tile=1)
        getattr(program, field)[0] -= 1
        assert program.dense_replay_index() is None
