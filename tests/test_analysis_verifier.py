"""Fault-injection tests for the static IR verifier (pass 1).

Each test mutates one :class:`Program` column class — operand
offsets, ordering keys, rolling counters, slot/counter addresses — and
asserts the verifier reports the *precise* invariant that broke, not
just "something is wrong".
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.findings import VerificationError
from repro.analysis.verifier import (
    OFFSET_LIMIT,
    assert_program_valid,
    require_offset,
    verify_program,
)
from repro.compiler.lowering import compile_spgemm, compile_spgemm_loop
from repro.compiler.program import ELEMENT_BYTES
from repro.datasets.suite import load_dataset
from repro.sparse.convert import csr_to_csc
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def program():
    dataset = load_dataset("wiki-Vote", max_nodes=96, seed=0)
    return compile_spgemm(dataset.adjacency_csc(),
                          dataset.features(seed=7),
                          tile_size=4, source="verifier-test")


def mutate(program, **overrides):
    return dataclasses.replace(program, **overrides)


def fired(program, level="full"):
    return {finding.check for finding in verify_program(program, level=level)}


class TestCleanPrograms:
    def test_compiled_program_verifies_clean(self, program):
        assert verify_program(program, level="full") == []
        assert verify_program(program, level="quick") == []

    def test_assert_program_valid_returns_program(self, program):
        assert assert_program_valid(program) is program

    def test_legacy_loop_program_verifies_clean(self):
        dataset = load_dataset("facebook", max_nodes=64, seed=1)
        legacy = compile_spgemm_loop(dataset.adjacency_csc(),
                                     dataset.features(seed=3), tile_size=2)
        assert verify_program(legacy) == []

    def test_unknown_level_rejected(self, program):
        with pytest.raises(ValueError, match="verify level"):
            verify_program(program, level="paranoid")


class TestOffsetFaults:
    def test_shifted_operand_address(self, program):
        bad = program.op_a_addr.copy()
        bad[3] += 4
        assert fired(mutate(program, op_a_addr=bad)) == {"operand-offsets"}

    def test_22bit_overflow(self, program):
        bad = program.op_b_data_addr.copy()
        bad[0] = OFFSET_LIMIT + 1
        assert fired(mutate(program, op_b_data_addr=bad)) \
            == {"offset-field-width"}

    def test_require_offset_limits(self):
        assert require_offset(OFFSET_LIMIT) == OFFSET_LIMIT
        with pytest.raises(ValueError, match="22-bit"):
            require_offset(OFFSET_LIMIT + 1, "a_data")


class TestOrderingFaults:
    def test_row_group_order_violation(self, program):
        groups = program.op_group.copy()
        groups[0], groups[-1] = groups[-1], groups[0]
        assert "row-group-order" in fired(mutate(program, op_group=groups))

    def test_reseed_flag_off_boundary(self, program):
        reseed = program.op_reseed.copy()
        reseed[0] = not reseed[0]
        assert fired(mutate(program, op_reseed=reseed)) \
            == {"reseed-boundaries"}


class TestCounterFaults:
    def test_tampered_rolling_counter_quick(self, program):
        counts = program.out_counts.copy()
        counts[0] += 1
        assert fired(mutate(program, out_counts=counts), level="quick") \
            == {"counter-histogram"}

    def test_swapped_counters_need_full_level(self, program):
        # Moving a contribution between slots keeps the total invariant;
        # only the full partial-product scatter catches it.
        counts = program.out_counts.copy()
        assert counts.size >= 2
        counts[0] += 1
        counts[1] -= 1
        if counts[1] < 1:
            pytest.skip("needs a slot with >= 2 contributions")
        bad = mutate(program, out_counts=counts)
        assert fired(bad, level="quick") == set()
        assert fired(bad, level="full") == {"counter-histogram"}

    def test_header_total_disagrees_with_the_ops(self, program):
        bad = mutate(program, total_partial_products=(
            program.total_partial_products + 1))
        findings = verify_program(bad, level="quick")
        assert {f.check for f in findings} == {"counter-histogram"}
        assert "header claims" in findings[0].message


class TestAddressExclusivityFaults:
    def test_rotated_slot(self, program):
        slots = program.op_slot.copy()
        slots[0] = (slots[0] + 1) % program.output_nnz
        assert fired(mutate(program, op_slot=slots)) \
            == {"address-exclusivity"}

    def test_shifted_counter_address(self, program):
        addrs = program.op_counter_addr.copy()
        addrs[0] += 4
        assert fired(mutate(program, op_counter_addr=addrs)) \
            == {"address-exclusivity"}


class TestStructuralFaults:
    def test_truncated_column(self, program):
        assert fired(mutate(program, op_k=program.op_k[:-1])) \
            == {"column-alignment"}

    def test_wrong_dtype_column(self, program):
        wide = program.op_slot.astype(np.int64)
        assert fired(mutate(program, op_slot=wide)) == {"column-dtype"}

    def test_empty_slice(self, program):
        his = program.op_a_hi.copy()
        his[0] = program.op_a_lo[0]
        assert fired(mutate(program, op_a_hi=his)) == {"operand-slices"}

    def test_operand_index_outside_output_shape(self, program):
        rows = program.a_rows.copy()
        rows[0] = program.shape[0]
        bad = mutate(program, a_rows=rows)
        assert fired(bad) == {"address-exclusivity"}
        index, problem = bad.build_replay_index()
        assert index is None
        assert "a_rows holds an index outside" in problem

    def test_unsorted_output_keys(self, program):
        indices = program.out_indices.copy()
        indices[0], indices[1] = indices[1], indices[0]
        assert fired(mutate(program, out_indices=indices)) \
            == {"output-structure"}


class TestErrorSurface:
    def test_assert_program_valid_raises_with_findings(self, program):
        counts = program.out_counts.copy()
        counts[0] += 1
        with pytest.raises(VerificationError) as excinfo:
            assert_program_valid(mutate(program, out_counts=counts))
        assert excinfo.value.findings
        assert excinfo.value.findings[0].pass_name == "ir"
        assert excinfo.value.findings[0].check == "counter-histogram"


def two_op_program():
    """A = I (2x2), B rows {1, 2} and {1, 3}, tile 2: op 0 pairs A[0, 0]
    with B row 0, op 1 pairs A[1, 1] with B row 1."""
    a = CSRMatrix.from_dense(np.eye(2))
    b = CSRMatrix.from_dense(np.array([[0.0, 2.0, 3.0, 0.0],
                                       [0.0, 4.0, 0.0, 5.0]]))
    return compile_spgemm(csr_to_csc(a), b, tile_size=2, source="stale")


def retarget_op0_to_b_row1(program):
    """Point op 0 at B row 1's two entries, in place, with consistent
    addresses: its first pair (0, 1) and every total stay the same, but
    its second pair (0, 3) has no slot — only the full level sees it."""
    layout = program.address_map
    program.op_b_lo[0], program.op_b_hi[0] = 2, 4
    program.op_b_col_addr[0] = layout.b_col_ind_base + 2 * ELEMENT_BYTES
    program.op_b_data_addr[0] = layout.b_data_base + 2 * ELEMENT_BYTES


class TestReplayIndexSharing:
    """The full level builds the replay index afresh and publishes it only
    when the program is clean."""

    def test_verifier_ignores_a_cached_index(self):
        program = two_op_program()
        program.replay()  # caches the pre-corruption index
        retarget_op0_to_b_row1(program)
        assert fired(program, level="quick") == set()
        findings = verify_program(program, level="full")
        assert {f.check for f in findings} == {"address-exclusivity"}
        assert "(row 0, col 3)" in findings[0].message

    def test_clean_full_verify_publishes_its_index(self):
        program = two_op_program()
        assert verify_program(program, level="quick") == []
        assert "replay" not in program._derived()
        assert verify_program(program, level="full") == []
        published = program._derived()["replay"]
        assert program.replay_index() is published
        # A later clean pass keeps the published index.
        assert verify_program(program, level="full") == []
        assert program._derived()["replay"] is published

    def test_failing_verify_publishes_nothing(self):
        program = two_op_program()
        retarget_op0_to_b_row1(program)
        assert fired(program, level="full") == {"address-exclusivity"}
        assert "replay" not in program._derived()
        with pytest.raises(ValueError, match="stale.*no slot"):
            program.replay()
