"""Property-based tests for mapping schemes and the MMH/HACC ISA."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.isa import (
    HACCInstruction,
    MMHInstruction,
    Opcode,
    decode_from_bytes,
    decode_hacc,
    decode_mmh,
    encode_hacc,
    encode_mmh,
    encode_to_bytes,
)
from repro.hashing import MAPPING_SCHEMES, map_haccs, map_tags

_SCHEME_NAMES = st.sampled_from(MAPPING_SCHEMES)
_TAGS = st.integers(min_value=0, max_value=2**32 - 1)
_RESOURCES = st.integers(min_value=1, max_value=257)
_ROWS = st.integers(min_value=0, max_value=2**20)


class TestMappingProperties:
    @given(_SCHEME_NAMES, _RESOURCES, st.lists(_TAGS, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_mapping_always_in_range(self, name, n_resources, tags):
        index = map_tags(name, np.array(tags), n_resources)
        assert index.shape == (len(tags),)
        assert ((0 <= index) & (index < n_resources)).all()

    @given(_SCHEME_NAMES, _RESOURCES, _TAGS, st.lists(_TAGS, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_mapping_is_deterministic_between_reseeds(self, name, n_resources,
                                                      tag, others):
        """A TAG maps alike wherever it recurs in a column, and in a
        second pass over the same column."""
        tags = np.array([tag, *others, tag])
        index = map_tags(name, tags, n_resources)
        assert index[0] == index[-1]
        assert index.tolist() == map_tags(name, tags, n_resources).tolist()

    @given(_RESOURCES, _TAGS, _ROWS, st.lists(_ROWS, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_drhm_group_mapping_survives_reseeds(self, n_resources, tag, row,
                                                 other_rows):
        """The rows between two HACCs of one output row (DRHM reseeds per
        row) do not move the row's TAG."""
        rows = np.array([row, *other_rows, row])
        column = map_haccs("drhm", np.full(rows.size, tag), rows, n_resources)
        assert column[0] == column[-1] == map_haccs(
            "drhm", np.array([tag]), np.array([row]), n_resources)[0]


_MMH_OPCODES = st.sampled_from([Opcode.MMH1, Opcode.MMH2, Opcode.MMH4, Opcode.MMH8])
_REG22 = st.integers(min_value=0, max_value=(1 << 22) - 1)
_REG32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
_REG16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


class TestISAProperties:
    @given(_MMH_OPCODES, _REG32, _REG22, _REG22, _REG22, _REG22)
    @settings(max_examples=120, deadline=None)
    def test_mmh_encode_decode_roundtrip(self, opcode, base, a_addr, b_col, b_data,
                                         counter_addr):
        instr = MMHInstruction(opcode, base, a_addr, b_col, b_data, counter_addr)
        word = encode_mmh(instr)
        assert 0 <= word < (1 << 128)
        assert decode_mmh(word) == instr

    @given(_REG32, st.floats(allow_nan=False, allow_infinity=False, width=32),
           _REG32, _REG16)
    @settings(max_examples=120, deadline=None)
    def test_hacc_encode_decode_roundtrip(self, tag, data, addr, counter):
        instr = HACCInstruction(tag=tag, data=data, writeback_addr=addr,
                                counter=counter)
        word = encode_hacc(instr)
        decoded = decode_hacc(word)
        assert decoded.tag == tag
        assert decoded.writeback_addr == addr
        assert decoded.counter == counter
        # Data survives the float32 round trip exactly (it was float32 already).
        assert decoded.data == instr.data or abs(decoded.data - instr.data) <= \
            abs(instr.data) * 1e-6

    @given(_MMH_OPCODES, _REG32, _REG22, _REG22, _REG22, _REG22)
    @settings(max_examples=60, deadline=None)
    def test_binary_serialisation_roundtrip(self, opcode, base, a_addr, b_col,
                                            b_data, counter_addr):
        instr = MMHInstruction(opcode, base, a_addr, b_col, b_data, counter_addr)
        word = encode_mmh(instr)
        assert decode_from_bytes(encode_to_bytes(word)) == word
