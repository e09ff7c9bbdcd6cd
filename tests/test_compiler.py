"""Unit tests for the NeuraCompiler (program lowering)."""

import numpy as np
import pytest

from repro.analysis.verifier import verify_program
from repro.arch.isa import Opcode, decode_mmh
from repro.compiler import compile_gcn_aggregation, compile_spgemm
from repro.compiler.program import AddressMap, ELEMENT_BYTES
from repro.datasets.features import feature_matrix
from repro.sparse.convert import coo_to_csc, coo_to_csr
from repro.sparse.csr import CSRMatrix


class TestAddressMap:
    def test_layout_regions_are_disjoint_and_ordered(self):
        layout = AddressMap.layout(a_nnz=10, b_nnz=20, output_nnz=30)
        assert layout.a_data_base == 0
        assert layout.a_indices_base == 10 * ELEMENT_BYTES
        assert layout.b_col_ind_base == 20 * ELEMENT_BYTES
        assert layout.b_data_base == 40 * ELEMENT_BYTES
        assert layout.roll_counter_base == 60 * ELEMENT_BYTES
        assert layout.output_base == 90 * ELEMENT_BYTES
        assert layout.total_bytes == 120 * ELEMENT_BYTES


class TestCompileSpGEMM:
    def test_program_counts_match_symbolic(self, tiny_dataset, tiny_program):
        a = tiny_dataset.adjacency_csr()
        from repro.sparse.symbolic import symbolic_spgemm

        symbolic = symbolic_spgemm(a, a)
        assert tiny_program.total_partial_products == symbolic.total_partial_products
        assert tiny_program.output_nnz == symbolic.nnz
        arrays = tiny_program.arrays
        np.testing.assert_array_equal(arrays.out_indptr, symbolic.indptr)
        np.testing.assert_array_equal(arrays.out_indices, symbolic.indices)
        np.testing.assert_array_equal(arrays.out_counts, symbolic.counts)

    def test_program_validate_passes(self, tiny_program):
        assert verify_program(tiny_program) == []

    def test_reference_result_matches_numpy(self, tiny_dataset, tiny_program,
                                            reference_result):
        dense = tiny_dataset.adjacency_csr().to_dense()
        assert np.allclose(reference_result(tiny_program), dense @ dense)
        np.testing.assert_array_equal(
            tiny_program.arrays.replay().to_dense(),
            reference_result(tiny_program))

    def test_tile_size_respected(self, tiny_dataset):
        a_csc = tiny_dataset.adjacency_csc()
        a_csr = tiny_dataset.adjacency_csr()
        program = compile_spgemm(a_csc, a_csr, tile_size=2)
        assert program.tile_size == 2
        assert all(op.opcode is Opcode.MMH2 for op in program.mmh_ops)
        assert all(len(op.a_rows) <= 2 and len(op.b_cols) <= 2
                   for op in program.mmh_ops)

    def test_invalid_tile_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            compile_spgemm(tiny_dataset.adjacency_csc(),
                           tiny_dataset.adjacency_csr(), tile_size=5)

    def test_dimension_mismatch(self):
        a = coo_to_csc(CSRMatrix.from_dense(np.ones((3, 4))).to_coo())
        b = CSRMatrix.from_dense(np.ones((3, 4)))
        with pytest.raises(ValueError):
            compile_spgemm(a, b)

    def test_row_groups_are_processed_in_order(self, tiny_program):
        """All MMH ops touching a row group appear before the next group starts."""
        tile = tiny_program.tile_size
        last_group = -1
        for op in tiny_program.mmh_ops:
            group = min(op.a_rows) // tile
            assert group >= last_group
            last_group = group

    def test_reseed_marks_one_boundary_per_row_group(self, tiny_program):
        n_boundaries = sum(1 for op in tiny_program.mmh_ops if op.reseed_after)
        assert n_boundaries == tiny_program.metadata["n_row_groups"]

    def test_instruction_encoding_is_decodable(self, tiny_program):
        for op in tiny_program.mmh_ops[:50]:
            decoded = decode_mmh(op.encode())
            assert decoded.opcode is op.opcode

    def test_operand_addresses_within_layout(self, tiny_program):
        layout = tiny_program.address_map
        for op in tiny_program.mmh_ops[:100]:
            addresses = op.operand_addresses()
            assert addresses["a_data"][0] >= layout.a_data_base
            assert addresses["b_data"][0] >= layout.b_data_base
            assert addresses["roll_counter"][0] >= layout.roll_counter_base

    def test_expand_haccs_counters_match_program(self, tiny_program):
        stream = tiny_program.hacc_stream()
        arrays = tiny_program.arrays
        layout = tiny_program.address_map
        haccs = stream.macro_ops()
        assert len(haccs) == tiny_program.total_partial_products
        for sequence in (0, tiny_program.n_instructions - 1):
            op = tiny_program.mmh_ops[sequence]
            op_haccs = haccs[stream.op_start[sequence]:
                             stream.op_start[sequence + 1]]
            assert [(h.out_row, h.out_col) for h in op_haccs] == [
                (i, j) for i in op.a_rows for j in op.b_cols]
            for hacc in op_haccs:
                row, col = hacc.out_row, hacc.out_col
                lo, hi = arrays.out_indptr[row], arrays.out_indptr[row + 1]
                slot = lo + int(np.searchsorted(arrays.out_indices[lo:hi], col))
                assert hacc.counter == arrays.out_counts[slot]
                assert hacc.writeback_addr == (layout.output_base
                                               + slot * ELEMENT_BYTES)
                assert hacc.tag == row * tiny_program.shape[1] + col

    def test_bloat_property(self, tiny_program):
        expected = (tiny_program.total_partial_products - tiny_program.output_nnz) \
            / tiny_program.output_nnz * 100.0
        assert tiny_program.bloat_percent == pytest.approx(expected)

    def test_binary_encoding_size(self, tiny_program):
        blob = tiny_program.encode_binary()
        assert len(blob) == 16 * tiny_program.n_instructions

    def test_empty_operands_give_empty_program(self):
        a = CSRMatrix.empty((8, 8))
        program = compile_spgemm(coo_to_csc(a.to_coo()), a)
        assert program.n_instructions == 0
        assert program.total_partial_products == 0
        assert program.bloat_percent == 0.0


class TestCompileGCN:
    def test_gcn_aggregation_label_and_correctness(self, tiny_dataset,
                                                   reference_result):
        features = feature_matrix(tiny_dataset.n_nodes, 12, density=0.4, seed=3)
        program = compile_gcn_aggregation(tiny_dataset.adjacency_csc(), features,
                                          dataset="probe")
        assert program.source == "gcn-aggregation:probe"
        reference = tiny_dataset.adjacency_csr().to_dense() @ features.to_dense()
        assert np.allclose(reference_result(program), reference)
