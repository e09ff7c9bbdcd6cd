"""Columnar compiler pipeline: equivalence with the loop reference,
offset-overflow detection, and array serialization."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verifier import OFFSET_LIMIT, require_offset, verify_program
from repro.arch.config import TILE4
from repro.backends import get_backend
from repro.backends.base import ExecutionContext
from repro.compiler import lowering as lowering_module
from repro.compiler.lowering import compile_spgemm, compile_spgemm_loop
from repro.compiler.program import Program
from repro.sim.functional import FunctionalAccelerator
from repro.sim.params import SimulationParams
from repro.sparse.convert import coo_to_csr, csr_to_csc
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse import symbolic as symbolic_module
from repro.sparse.symbolic import symbolic_spgemm, symbolic_spgemm_from_csc


def random_csr(n_rows: int, n_cols: int, density: float, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    nnz = max(1, int(n_rows * n_cols * density))
    coo = COOMatrix(rng.integers(0, n_rows, size=nnz),
                    rng.integers(0, n_cols, size=nnz),
                    rng.random(nnz) + 0.1,
                    (n_rows, n_cols)).sum_duplicates()
    return coo_to_csr(coo)


#: (A shape, B cols, densities, seed) cases covering square/rectangular
#: operands, empty rows/columns, and a hyper-sparse pairing.
CASES = [
    ((24, 18), 14, (0.15, 0.2), 0),
    ((31, 9), 23, (0.3, 0.12), 1),
    ((12, 40), 8, (0.05, 0.25), 2),
    ((50, 50), 50, (0.02, 0.02), 3),
]


def compiled_pair(case, tile_size):
    (n, m), p, (da, db), seed = case
    a = random_csr(n, m, da, seed)
    b = random_csr(m, p, db, seed + 100)
    a_csc = csr_to_csc(a)
    loop = compile_spgemm_loop(a_csc, b, tile_size=tile_size, source="probe")
    columnar = compile_spgemm(a_csc, b, tile_size=tile_size, source="probe")
    return a, b, loop, columnar


class TestColumnarEquivalence:
    """The vectorized compiler must reproduce the loop compiler exactly."""

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", CASES, ids=[str(i) for i in range(len(CASES))])
    def test_byte_identical_encodings_and_counts(self, case, tile_size):
        _a, _b, loop, columnar = compiled_pair(case, tile_size)
        assert columnar.n_instructions == loop.n_instructions
        assert columnar.total_partial_products == loop.total_partial_products
        assert columnar.output_nnz == loop.output_nnz
        assert columnar.n_row_groups == loop.n_row_groups
        assert columnar.encode_binary() == loop.encode_binary()

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", CASES, ids=[str(i) for i in range(len(CASES))])
    def test_macro_op_streams_identical(self, case, tile_size):
        """Every column of the op stream — operand slices and values,
        addresses, inner index, reseed flags — matches field by field."""
        _a, _b, loop, columnar = compiled_pair(case, tile_size)
        assert_programs_identical(columnar, loop)

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    def test_counter_and_address_views_identical(self, tile_size):
        _a, _b, loop, columnar = compiled_pair(CASES[0], tile_size)
        for name in ("out_indptr", "out_indices", "out_counts", "op_slot"):
            np.testing.assert_array_equal(getattr(columnar, name),
                                          getattr(loop, name))
        assert columnar.address_map == loop.address_map

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    def test_hacc_expansion_identical(self, tile_size):
        _a, _b, loop, columnar = compiled_pair(CASES[1], tile_size)
        stream_c, stream_l = columnar.hacc_stream(), loop.hacc_stream()
        for name in ("op_start", "tag", "value", "counter", "out_row",
                     "out_col", "writeback_addr"):
            np.testing.assert_array_equal(getattr(stream_c, name),
                                          getattr(stream_l, name))

    def test_validate_passes_on_columnar_program(self):
        _a, _b, loop, columnar = compiled_pair(CASES[0], 4)
        assert verify_program(columnar) == []
        assert verify_program(loop) == []

    def test_reference_results_bitwise_equal(self, reference_result):
        a, b, loop, columnar = compiled_pair(CASES[2], 4)
        np.testing.assert_array_equal(reference_result(columnar),
                                      reference_result(loop))
        np.testing.assert_array_equal(columnar.replay().to_dense(),
                                      reference_result(loop))
        assert np.allclose(reference_result(columnar),
                           a.to_dense() @ b.to_dense())

    @pytest.mark.parametrize("tile_size", [1, 4])
    def test_functional_sim_outputs_identical(self, tile_size):
        _a, _b, loop, columnar = compiled_pair(CASES[0], tile_size)
        accelerator = FunctionalAccelerator(TILE4)
        report_loop = accelerator.run(loop)
        report_columnar = accelerator.run(columnar)
        np.testing.assert_array_equal(report_columnar.output, report_loop.output)
        assert np.array_equal(report_columnar.per_mem_haccs,
                              report_loop.per_mem_haccs)
        assert report_columnar.spills == report_loop.spills

    def test_cycle_sim_identical(self):
        a = random_csr(16, 16, 0.18, seed=9)
        a_csc = csr_to_csc(a)
        loop = compile_spgemm_loop(a_csc, a, tile_size=4)
        columnar = compile_spgemm(a_csc, a, tile_size=4)
        backend = get_backend("cycle")
        ctx = ExecutionContext(config=TILE4, params=SimulationParams(),
                               mapping_scheme=TILE4.mapping_scheme)
        result_loop = backend.execute(loop, ctx, verify=True)
        result_columnar = backend.execute(columnar, ctx, verify=True)
        assert result_columnar.report.cycles == result_loop.report.cycles
        assert result_columnar.report.correct and result_loop.report.correct
        np.testing.assert_array_equal(result_columnar.output.to_dense(),
                                      result_loop.output.to_dense())

    def test_empty_operands(self):
        a = CSRMatrix.empty((8, 8))
        program = compile_spgemm(csr_to_csc(a), a)
        assert program.n_instructions == 0
        assert program.total_partial_products == 0
        assert program.n_row_groups == 0
        assert program.operand_reads().shape == (0, 4, 2)
        assert program.encode_binary() == b""


class TestColumnarSymbolic:
    def test_csr_and_csc_passes_share_arrays(self):
        a = random_csr(20, 16, 0.15, seed=1)
        b = random_csr(16, 12, 0.2, seed=2)
        from_csr = symbolic_spgemm(a, b)
        from_csc = symbolic_spgemm_from_csc(csr_to_csc(a), b)
        assert np.array_equal(from_csr.indptr, from_csc.indptr)
        assert np.array_equal(from_csr.indices, from_csc.indices)
        assert np.array_equal(from_csr.counts, from_csc.counts)

    def test_counts_sum_to_partial_products(self):
        a = random_csr(20, 16, 0.15, seed=1)
        b = random_csr(16, 12, 0.2, seed=2)
        symbolic = symbolic_spgemm(a, b)
        assert int(symbolic.counts.sum()) == symbolic.total_partial_products

    def test_counters_for_row_tolerates_out_of_range_rows(self):
        a = random_csr(10, 10, 0.2, seed=6)
        symbolic = symbolic_spgemm(a, a)
        assert symbolic.counters_for_row(10_000) == {}
        assert symbolic.counters_for_row(-1) == {}

    def test_flat_keys_are_strictly_increasing(self):
        a = random_csr(20, 16, 0.15, seed=4)
        b = random_csr(16, 12, 0.2, seed=5)
        keys = symbolic_spgemm(a, b).flat_keys()
        assert np.all(np.diff(keys) > 0)

    def test_chunked_reduction_matches_single_pass(self, monkeypatch):
        """With the chunk cap forced tiny, the memory-bounded chunk-merge
        path must reduce to exactly the same arrays as the one-shot pass."""
        import repro.sparse.symbolic as symbolic_module

        a = random_csr(30, 24, 0.2, seed=12)
        b = random_csr(24, 18, 0.25, seed=13)
        whole = symbolic_spgemm(a, b)
        monkeypatch.setattr(symbolic_module,
                            "SYMBOLIC_CHUNK_PARTIAL_PRODUCTS", 7)
        chunked = symbolic_spgemm(a, b)
        assert np.array_equal(chunked.indptr, whole.indptr)
        assert np.array_equal(chunked.indices, whole.indices)
        assert np.array_equal(chunked.counts, whole.counts)
        assert chunked.total_partial_products == whole.total_partial_products


@st.composite
def operand_pairs(draw):
    """(A, B, tile) with rectangular shapes, empty operands and an
    optional monster row of A meeting a dense row of B."""
    n_rows, inner, n_cols = (draw(st.integers(1, 24)) for _ in range(3))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_mask = rng.random((n_rows, inner)) < density
    b_mask = rng.random((inner, n_cols)) < density
    if draw(st.booleans()):
        a_mask[rng.integers(n_rows), :] = True
        b_mask[rng.integers(inner), :] = True
    a = CSRMatrix.from_dense(np.where(a_mask, rng.random(a_mask.shape), 0.0))
    b = CSRMatrix.from_dense(np.where(b_mask, rng.random(b_mask.shape), 0.0))
    return a, b, draw(st.sampled_from([1, 2, 4, 8]))


def assert_programs_identical(got, expected):
    for spec in dataclasses.fields(Program):
        got_value = getattr(got, spec.name)
        expected_value = getattr(expected, spec.name)
        if isinstance(expected_value, np.ndarray):
            assert got_value.dtype == expected_value.dtype, spec.name
            assert np.array_equal(got_value, expected_value), spec.name
        else:
            assert got_value == expected_value, spec.name
    assert got.total_partial_products == expected.total_partial_products
    assert got.n_row_groups == expected.n_row_groups
    assert got.address_map == expected.address_map


class TestRollingCountersFromOpStream:
    """compile_spgemm counts the rolling counters from its own op stream;
    they must equal the symbolic pass over the operands."""

    @settings(max_examples=80, deadline=None)
    @given(operand_pairs())
    def test_structure_and_counters_match_symbolic_pass(self, pair):
        a, b, tile = pair
        a_csc = csr_to_csc(a)
        program = compile_spgemm(a_csc, b, tile_size=tile)
        symbolic = symbolic_spgemm_from_csc(a_csc, b)
        assert program.out_indptr.dtype == np.int64
        assert np.array_equal(program.out_indptr, symbolic.indptr)
        assert program.out_indices.dtype == program.out_counts.dtype == np.int32
        assert np.array_equal(program.out_indices, symbolic.indices)
        assert np.array_equal(program.out_counts, symbolic.counts)
        assert int(program.partial_products_per_op.sum()) \
            == symbolic.total_partial_products
        first_pair = (program.a_rows[program.op_a_lo].astype(np.int64)
                      * program.shape[1] + program.b_cols[program.op_b_lo])
        assert np.array_equal(symbolic.flat_keys()[program.op_slot],
                              first_pair)

    @pytest.mark.parametrize("dense_keys", [True, False])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_reduction_byte_identical(self, monkeypatch, chunk,
                                              dense_keys):
        a = random_csr(30, 24, 0.2, seed=12)
        b = random_csr(24, 18, 0.25, seed=13)
        a_csc = csr_to_csc(a)
        whole = compile_spgemm(a_csc, b, tile_size=4)
        expansions = []
        expand = Program.expand_partial_products

        def counting(self, *args, **kwargs):
            expansions.append(args)
            return expand(self, *args, **kwargs)

        monkeypatch.setattr(Program, "expand_partial_products",
                            counting)
        monkeypatch.setattr(symbolic_module,
                            "SYMBOLIC_CHUNK_PARTIAL_PRODUCTS", chunk)
        if not dense_keys:
            monkeypatch.setattr(lowering_module, "DENSE_KEY_SPACE", 0)
        chunked = compile_spgemm(a_csc, b, tile_size=4)
        assert len(expansions) > 1  # the merge path ran
        assert_programs_identical(chunked, whole)

    def test_compile_skips_the_symbolic_pass(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("compile_spgemm ran the symbolic pass")

        monkeypatch.setattr(lowering_module, "symbolic_spgemm_from_csc",
                            forbidden)
        a = random_csr(20, 20, 0.2, seed=4)
        program = compile_spgemm(csr_to_csc(a), a, tile_size=2)
        assert program.total_partial_products > 0


class TestProgramPayload:
    def test_program_rejects_partial_legacy_payload(self):
        with pytest.raises(TypeError, match="mmh_ops"):
            Program(mmh_ops=[], counters={}, output_addrs={})
        with pytest.raises(TypeError, match="opcode"):
            Program()

    def test_pickle_roundtrip_is_the_arrays(self, reference_result):
        a = random_csr(200, 200, 0.05, seed=11)
        a_csc = csr_to_csc(a)
        columnar = compile_spgemm(a_csc, a)
        loop = compile_spgemm_loop(a_csc, a)
        columnar.replay()  # build the derived caches; pickling drops them
        payload = pickle.dumps(columnar, protocol=pickle.HIGHEST_PROTOCOL)
        array_bytes = sum(getattr(columnar, spec.name).nbytes
                          for spec in dataclasses.fields(Program)
                          if isinstance(getattr(columnar, spec.name), np.ndarray))
        assert len(payload) < array_bytes + 4096, \
            "a pickled program should be its columns and little else"
        restored = pickle.loads(payload)
        assert "_derived_cache" not in restored.__dict__
        assert restored.n_instructions == columnar.n_instructions
        assert restored.encode_binary() == loop.encode_binary()
        np.testing.assert_array_equal(reference_result(restored),
                                      reference_result(loop))


class TestOffsetOverflow:
    def test_require_offset_accepts_the_limit(self):
        assert require_offset(OFFSET_LIMIT) == OFFSET_LIMIT
        assert require_offset(0) == 0

    def test_require_offset_rejects_overflow(self):
        with pytest.raises(ValueError, match="22-bit"):
            require_offset(OFFSET_LIMIT + 1, "b_data")

    def test_compile_raises_instead_of_aliasing_on_huge_operands(self):
        # A diagonal operand big enough that the B data region starts past
        # the 22-bit offset field: the old compiler silently masked these
        # addresses (aliasing fetches); now it is a compile error.
        n = 360_000
        eye = CSRMatrix(np.arange(n + 1, dtype=np.int64),
                        np.arange(n, dtype=np.int64),
                        np.ones(n), (n, n))
        with pytest.raises(ValueError, match="22-bit"):
            compile_spgemm(csr_to_csc(eye), eye, tile_size=4)
