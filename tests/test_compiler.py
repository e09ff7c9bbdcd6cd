"""Unit tests for the NeuraCompiler (program lowering)."""

import hashlib

import numpy as np
import pytest

from repro.analysis.verifier import verify_program
from repro.arch.isa import Opcode, decode_mmh
from repro.compiler import (
    compile_gcn_aggregation,
    compile_spgemm,
    compile_spgemm_loop,
)
from repro.compiler.program import AddressMap, ELEMENT_BYTES
from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.datasets.features import feature_matrix
from repro.sparse.convert import coo_to_csc, csr_to_csc
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
        np.testing.assert_array_equal(tiny_program.out_indptr,
                                      symbolic.indptr)
        np.testing.assert_array_equal(tiny_program.out_indices,
                                      symbolic.indices)
        np.testing.assert_array_equal(tiny_program.out_counts,
                                      symbolic.counts)

    def test_program_validate_passes(self, tiny_program):
        assert verify_program(tiny_program) == []

    def test_reference_result_matches_numpy(self, tiny_dataset, tiny_program,
                                            reference_result):
        dense = tiny_dataset.adjacency_csr().to_dense()
        assert np.allclose(reference_result(tiny_program), dense @ dense)
        np.testing.assert_array_equal(
            tiny_program.replay().to_dense(),
            reference_result(tiny_program))

    def test_tile_size_respected(self, tiny_dataset):
        a_csc = tiny_dataset.adjacency_csc()
        a_csr = tiny_dataset.adjacency_csr()
        program = compile_spgemm(a_csc, a_csr, tile_size=2)
        assert program.tile_size == 2
        assert program.opcode is Opcode.MMH2
        assert np.all(program.op_a_hi - program.op_a_lo <= 2)
        assert np.all(program.op_b_hi - program.op_b_lo <= 2)

    def test_invalid_tile_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            compile_spgemm(tiny_dataset.adjacency_csc(),
                           tiny_dataset.adjacency_csr(), tile_size=5)

    def test_dimension_mismatch(self):
        a = coo_to_csc(CSRMatrix.from_dense(np.ones((3, 4))).to_coo())
        b = CSRMatrix.from_dense(np.ones((3, 4)))
        with pytest.raises(ValueError):
            compile_spgemm(a, b)

    @staticmethod
    def op_groups(program):
        """Row group of every op, from its A tile's rows."""
        return [min(program.a_rows[lo:hi].tolist()) // program.tile_size
                for lo, hi in zip(program.op_a_lo.tolist(),
                                  program.op_a_hi.tolist())]

    def test_row_groups_are_processed_in_order(self, tiny_program):
        """All MMH ops touching a row group appear before the next group starts."""
        groups = self.op_groups(tiny_program)
        assert groups == sorted(groups)

    def test_reseed_marks_one_boundary_per_row_group(self, tiny_program):
        groups = self.op_groups(tiny_program)
        reseed = tiny_program.op_reseed.tolist()
        assert reseed == [a != b for a, b in zip(groups, groups[1:] + [None])]
        assert sum(reseed) == tiny_program.n_row_groups

    def test_instruction_encoding_is_decodable(self, tiny_program):
        blob = tiny_program.encode_binary()
        for index in range(50):
            decoded = decode_mmh(int.from_bytes(
                blob[16 * index:16 * (index + 1)], "little"))
            assert decoded.opcode is tiny_program.opcode
            assert (decoded.a_data_addr, decoded.b_col_ind_addr,
                    decoded.b_data_addr, decoded.roll_counter_addr) == (
                tiny_program.op_a_addr[index],
                tiny_program.op_b_col_addr[index],
                tiny_program.op_b_data_addr[index],
                tiny_program.op_counter_addr[index])

    def test_operand_addresses_within_layout(self, tiny_program):
        """Every op's four reads lie inside their operand's region, both
        bounds, and fetch exactly its tiles and its counters."""
        regions = tiny_program.address_map.regions()
        reads = tiny_program.operand_reads()
        assert reads.shape == (tiny_program.n_instructions, 4, 2)
        for column, name in enumerate(("a_data", "b_col_ind", "b_data",
                                       "roll_counter")):
            start, end = regions[name]
            address, nbytes = reads[:, column, 0], reads[:, column, 1]
            assert np.all(address >= start), name
            assert np.all(address + nbytes <= end), name
        n_a = tiny_program.op_a_hi - tiny_program.op_a_lo
        n_b = tiny_program.op_b_hi - tiny_program.op_b_lo
        np.testing.assert_array_equal(
            reads[:, :, 1],
            np.stack([n_a, n_b, n_b, n_a * n_b], axis=1) * ELEMENT_BYTES)

    def test_expand_haccs_counters_match_program(self, tiny_program):
        program = tiny_program
        stream = program.hacc_stream()
        layout = program.address_map
        haccs = list(zip(stream.tag.tolist(), stream.counter.tolist(),
                         stream.out_row.tolist(), stream.out_col.tolist(),
                         stream.writeback_addr.tolist()))
        assert len(haccs) == program.total_partial_products
        for sequence in (0, program.n_instructions - 1):
            a_rows = program.a_rows[program.op_a_lo[sequence]:
                                    program.op_a_hi[sequence]].tolist()
            b_cols = program.b_cols[program.op_b_lo[sequence]:
                                    program.op_b_hi[sequence]].tolist()
            op_haccs = haccs[stream.op_start[sequence]:
                             stream.op_start[sequence + 1]]
            assert [(row, col) for _, _, row, col, _ in op_haccs] == [
                (i, j) for i in a_rows for j in b_cols]
            for tag, counter, row, col, writeback_addr in op_haccs:
                lo, hi = program.out_indptr[row], program.out_indptr[row + 1]
                slot = lo + int(np.searchsorted(program.out_indices[lo:hi], col))
                assert counter == program.out_counts[slot]
                assert writeback_addr == (layout.output_base
                                          + slot * ELEMENT_BYTES)
                assert tag == row * program.shape[1] + col

    def test_bloat_property(self, tiny_program):
        expected = (tiny_program.total_partial_products - tiny_program.output_nnz) \
            / tiny_program.output_nnz * 100.0
        assert tiny_program.bloat_percent == pytest.approx(expected)

    def test_binary_encoding_size(self, tiny_program):
        blob = tiny_program.encode_binary()
        assert len(blob) == 16 * tiny_program.n_instructions

    def test_mmh_count_varies_with_tile_rows(self):
        # One MMH per (A tile, B tile) pair of each inner index k.  An A
        # tile is column k's entries inside one group of ``tile`` rows; a
        # B tile is up to ``tile`` entries of row k of B.
        rng = np.random.default_rng(3)
        dense = (rng.random((20, 20)) < 0.4) * rng.random((20, 20))
        a = CSRMatrix.from_dense(dense)
        a_csc = csr_to_csc(a)
        counts = []
        for tile in (1, 2, 4, 8):
            a_tiles = np.array([
                np.unique(a_csc.indices[lo:hi] // tile).size
                for lo, hi in zip(a_csc.indptr[:-1], a_csc.indptr[1:])])
            b_tiles = -(-a.row_nnz_counts() // tile)
            program = compile_spgemm(a_csc, a, tile_size=tile)
            assert program.n_instructions == int(a_tiles @ b_tiles)
            assert program.n_instructions == compile_spgemm_loop(
                a_csc, a, tile_size=tile).n_instructions
            counts.append(program.n_instructions)
        assert counts[0] == program.total_partial_products
        assert counts[0] > counts[1] > counts[2] > counts[3]

    def test_empty_operands_give_empty_program(self):
        a = CSRMatrix.empty((8, 8))
        program = compile_spgemm(coo_to_csc(a.to_coo()), a)
        assert program.n_instructions == 0
        assert program.total_partial_products == 0
        assert program.bloat_percent == 0.0


#: sha256 of ``Program.encode_binary()``: wiki-Vote@32 (dataset seed 3)
#: A @ A compiled for Tile-4, and an empty program.  The columnar and loop
#: compilers share the encoder, so these pins are its independent check.
ENCODING_SHA256 = {
    "wiki-Vote@32":
        "a925cc41098cec07a7f51b9cf037d2347c9ddb54b1bcfb39a46b4551fbbce3ca",
    "empty":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


class TestBinaryEncoding:
    def test_wiki_vote_encoding_pinned(self):
        a = load_dataset("wiki-Vote", max_nodes=32, seed=3).adjacency_csr()
        with Session("Tile-4", backend="analytic") as session:
            program = session.run(SpGEMMSpec(a=a)).program
        blob = program.encode_binary()
        assert len(blob) == 16 * program.n_instructions > 0
        assert (hashlib.sha256(blob).hexdigest()
                == ENCODING_SHA256["wiki-Vote@32"])

    def test_empty_encoding_pinned(self):
        a = CSRMatrix.empty((8, 8))
        blob = compile_spgemm(csr_to_csc(a), a).encode_binary()
        assert hashlib.sha256(blob).hexdigest() == ENCODING_SHA256["empty"]


class TestCompileGCN:
    def test_gcn_aggregation_label_and_correctness(self, tiny_dataset,
                                                   reference_result):
        features = feature_matrix(tiny_dataset.n_nodes, 12, density=0.4, seed=3)
        program = compile_gcn_aggregation(tiny_dataset.adjacency_csc(), features,
                                          dataset="probe")
        assert program.source == "gcn-aggregation:probe"
        reference = tiny_dataset.adjacency_csr().to_dense() @ features.to_dense()
        assert np.allclose(reference_result(program), reference)
