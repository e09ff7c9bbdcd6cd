"""Columnar compiler pipeline: equivalence with the loop reference,
lazy materialization, offset-overflow detection, and array serialization."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verifier import verify_program
from repro.arch.config import TILE4
from repro.backends import get_backend
from repro.backends.base import ExecutionContext
from repro.compiler import lowering as lowering_module
from repro.compiler.lowering import (
    _OFFSET_LIMIT,
    _require_offset,
    compile_spgemm,
    compile_spgemm_loop,
)
from repro.compiler.program import ELEMENT_BYTES, ProgramArrays
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
        assert columnar.metadata["n_row_groups"] == loop.metadata["n_row_groups"]
        assert columnar.encode_binary() == loop.encode_binary()

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", CASES, ids=[str(i) for i in range(len(CASES))])
    def test_macro_op_streams_identical(self, case, tile_size):
        _a, _b, loop, columnar = compiled_pair(case, tile_size)
        assert len(columnar.mmh_ops) == len(loop.mmh_ops)
        for materialized, reference in zip(columnar.mmh_ops, loop.mmh_ops):
            assert materialized == reference

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    def test_counter_and_address_views_identical(self, tile_size):
        _a, _b, loop, columnar = compiled_pair(CASES[0], tile_size)
        for name in ("out_indptr", "out_indices", "out_counts", "op_slot"):
            np.testing.assert_array_equal(getattr(columnar.arrays, name),
                                          getattr(loop.arrays, name))
        assert columnar.address_map == loop.address_map

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    def test_hacc_expansion_identical(self, tile_size):
        _a, _b, loop, columnar = compiled_pair(CASES[1], tile_size)
        stream_c, stream_l = columnar.hacc_stream(), loop.hacc_stream()
        np.testing.assert_array_equal(stream_c.op_start, stream_l.op_start)
        assert stream_c.macro_ops() == stream_l.macro_ops()

    def test_validate_passes_on_columnar_program(self):
        _a, _b, loop, columnar = compiled_pair(CASES[0], 4)
        assert verify_program(columnar) == []
        assert verify_program(loop) == []

    def test_reference_results_bitwise_equal(self, reference_result):
        a, b, loop, columnar = compiled_pair(CASES[2], 4)
        np.testing.assert_array_equal(reference_result(columnar),
                                      reference_result(loop))
        np.testing.assert_array_equal(columnar.arrays.replay().to_dense(),
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
        result_loop = backend.execute(loop, ctx, a_csr=a, b_csr=a, verify=True)
        result_columnar = backend.execute(columnar, ctx, a_csr=a, b_csr=a,
                                          verify=True)
        assert result_columnar.report.cycles == result_loop.report.cycles
        assert result_columnar.report.correct and result_loop.report.correct
        np.testing.assert_array_equal(result_columnar.output.to_dense(),
                                      result_loop.output.to_dense())

    def test_empty_operands(self):
        a = CSRMatrix.empty((8, 8))
        program = compile_spgemm(csr_to_csc(a), a)
        assert program.n_instructions == 0
        assert program.total_partial_products == 0
        assert program.metadata["n_row_groups"] == 0
        assert list(program.iter_mmh_ops()) == []
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
    for spec in dataclasses.fields(ProgramArrays):
        got_value = getattr(got.arrays, spec.name)
        expected_value = getattr(expected.arrays, spec.name)
        if isinstance(expected_value, np.ndarray):
            assert got_value.dtype == expected_value.dtype, spec.name
            assert np.array_equal(got_value, expected_value), spec.name
        else:
            assert got_value == expected_value, spec.name
    assert got.total_partial_products == expected.total_partial_products
    assert got.metadata == expected.metadata
    assert got.address_map == expected.address_map


class TestRollingCountersFromOpStream:
    """compile_spgemm counts the rolling counters from its own op stream;
    they must equal the symbolic pass over the operands."""

    @settings(max_examples=80, deadline=None)
    @given(operand_pairs())
    def test_structure_and_counters_match_symbolic_pass(self, pair):
        a, b, tile = pair
        a_csc = csr_to_csc(a)
        arrays = compile_spgemm(a_csc, b, tile_size=tile).arrays
        symbolic = symbolic_spgemm_from_csc(a_csc, b)
        assert arrays.out_indptr.dtype == np.int64
        assert np.array_equal(arrays.out_indptr, symbolic.indptr)
        assert arrays.out_indices.dtype == arrays.out_counts.dtype == np.int32
        assert np.array_equal(arrays.out_indices, symbolic.indices)
        assert np.array_equal(arrays.out_counts, symbolic.counts)
        assert int(arrays.partial_products_per_op.sum()) \
            == symbolic.total_partial_products
        first_pair = (arrays.a_rows[arrays.op_a_lo].astype(np.int64)
                      * arrays.shape[1] + arrays.b_cols[arrays.op_b_lo])
        assert np.array_equal(symbolic.flat_keys()[arrays.op_slot],
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
        expand = ProgramArrays.expand_partial_products

        def counting(self, *args, **kwargs):
            expansions.append(args)
            return expand(self, *args, **kwargs)

        monkeypatch.setattr(ProgramArrays, "expand_partial_products",
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


class TestLazyMaterialization:
    def test_analytic_backend_never_materializes_macro_ops(self):
        a = random_csr(40, 40, 0.1, seed=7)
        program = compile_spgemm(csr_to_csc(a), a, tile_size=4)
        backend = get_backend("analytic")
        ctx = ExecutionContext(config=TILE4, params=SimulationParams(),
                               mapping_scheme=TILE4.mapping_scheme)
        result = backend.execute(program, ctx, a_csr=a, b_csr=a, verify=False)
        assert result.report.cycles > 0
        assert program._mmh_ops is None, \
            "analytic backend materialized the macro-op stream"
        assert result.report.counters["analytic.counter_max"] >= 1

    def test_program_rejects_partial_legacy_payload(self):
        from repro.compiler.program import Program

        with pytest.raises(TypeError, match="mmh_ops"):
            Program(mmh_ops=[], counters={}, output_addrs={})
        with pytest.raises(TypeError, match="arrays"):
            Program()

    def test_iter_does_not_cache(self):
        a = random_csr(12, 12, 0.2, seed=8)
        program = compile_spgemm(csr_to_csc(a), a)
        ops = list(program.iter_mmh_ops())
        assert ops
        assert program._mmh_ops is None
        # The cached accessor materializes once and yields the same stream.
        assert program.mmh_ops == ops
        assert program._mmh_ops is not None

    def test_pickle_roundtrip_drops_caches_and_shrinks(self, reference_result):
        a = random_csr(200, 200, 0.05, seed=11)
        a_csc = csr_to_csc(a)
        columnar = compile_spgemm(a_csc, a)
        loop = compile_spgemm_loop(a_csc, a)
        _ = columnar.mmh_ops  # populate the cache; pickling must drop it
        payload = pickle.dumps(columnar, protocol=pickle.HIGHEST_PROTOCOL)
        # The materialized form: macro-ops plus per-output counter and
        # write-back address dicts.
        arrays = columnar.arrays
        keys = list(zip(np.repeat(np.arange(arrays.shape[0]),
                                  np.diff(arrays.out_indptr)).tolist(),
                        arrays.out_indices.tolist()))
        addrs = (columnar.address_map.output_base
                 + np.arange(len(keys)) * ELEMENT_BYTES).tolist()
        materialized = pickle.dumps(
            (columnar.mmh_ops, dict(zip(keys, arrays.out_counts.tolist())),
             dict(zip(keys, addrs))), protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) < len(materialized) / 2, \
            "columnar pickle should be several times smaller than macro-ops"
        restored = pickle.loads(payload)
        assert restored._mmh_ops is None
        assert restored.n_instructions == columnar.n_instructions
        assert restored.encode_binary() == loop.encode_binary()
        np.testing.assert_array_equal(reference_result(restored),
                                      reference_result(loop))


class TestOffsetOverflow:
    def test_require_offset_accepts_the_limit(self):
        assert _require_offset(_OFFSET_LIMIT) == _OFFSET_LIMIT
        assert _require_offset(0) == 0

    def test_require_offset_rejects_overflow(self):
        with pytest.raises(ValueError, match="22-bit"):
            _require_offset(_OFFSET_LIMIT + 1, "b_data")

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
