"""NeuraChip instruction set: MMH and HACC encode/decode.

Bit layouts follow Figures 7 and 9 of the paper.  Both instructions are 128
bits wide:

``MMH`` (matrix_mult_hash, Figure 7)::

    | opcode (8) | Reg0 (32) | Reg1 (22) | Reg2 (22) | Reg3 (22) | Reg4 (22) |

    Reg0 = base address, Reg1 = A data address, Reg2 = B column-index
    address, Reg3 = B data address, Reg4 = rolling-counter address
    (operand meanings from Algorithm 1).

``HACC`` (hash_accumulate, Figure 9)::

    | opcode (8) | Reg0 (32) | Reg1 (32) | Reg2 (32) | Reg3 (16) | unused (8) |

    Reg0 = TAG, Reg1 = DATA (raw float32 bits), Reg2 = write-back address,
    Reg3 = rolling-eviction COUNTER.

The simulator reads a program's columns (see ``repro.compiler``); the
bit-exact encoders here exist so the ISA itself is testable and so binary
program dumps can be produced.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

INSTRUCTION_BITS = 128
_REG22_MASK = (1 << 22) - 1
_REG32_MASK = (1 << 32) - 1
_REG16_MASK = (1 << 16) - 1

#: MMH tile sizes the ISA encodes (one opcode variant each).
MMH_TILE_SIZES = (1, 2, 4, 8)


class Opcode(enum.IntEnum):
    """Instruction opcodes of the extended ISA."""

    HALT = 0x00
    MMH1 = 0x10
    MMH2 = 0x11
    MMH4 = 0x12
    MMH8 = 0x13
    HACC = 0x20

    @classmethod
    def mmh_for_tile(cls, tile_size: int) -> "Opcode":
        """MMH opcode variant for a given tile size (one of
        :data:`MMH_TILE_SIZES`)."""
        if tile_size not in MMH_TILE_SIZES:
            raise ValueError(f"unsupported MMH tile size {tile_size}; "
                             f"must be one of {MMH_TILE_SIZES}")
        variants = (cls.MMH1, cls.MMH2, cls.MMH4, cls.MMH8)
        return variants[MMH_TILE_SIZES.index(tile_size)]

    @property
    def mmh_tile_size(self) -> int:
        """Tile size of an MMH opcode (raises for non-MMH opcodes)."""
        table = {Opcode.MMH1: 1, Opcode.MMH2: 2, Opcode.MMH4: 4, Opcode.MMH8: 8}
        if self not in table:
            raise ValueError(f"{self.name} is not an MMH opcode")
        return table[self]


@dataclass(frozen=True)
class MMHInstruction:
    """Decoded matrix_mult_hash instruction (address form, Figure 7)."""

    opcode: Opcode
    base_addr: int
    a_data_addr: int
    b_col_ind_addr: int
    b_data_addr: int
    roll_counter_addr: int

    @property
    def tile_size(self) -> int:
        """Rows/cols processed simultaneously (1, 2, 4, or 8)."""
        return self.opcode.mmh_tile_size

    @property
    def max_haccs(self) -> int:
        """Maximum HACC instructions this MMH can dispatch (tile_size^2)."""
        return self.tile_size * self.tile_size


@dataclass(frozen=True)
class HACCInstruction:
    """Decoded hash_accumulate instruction (Figure 9)."""

    tag: int
    data: float
    writeback_addr: int
    counter: int
    opcode: Opcode = Opcode.HACC


def _float_to_bits(value: float) -> int:
    """Reinterpret a python float as 32-bit IEEE-754 bits."""
    return struct.unpack("<I", struct.pack("<f", float(value)))[0]


def _bits_to_float(bits: int) -> float:
    """Reinterpret 32-bit IEEE-754 bits as a python float."""
    return struct.unpack("<f", struct.pack("<I", bits & _REG32_MASK))[0]


def encode_mmh(instr: MMHInstruction) -> int:
    """Encode an MMH instruction into its 128-bit integer representation."""
    for name, value in (("base_addr", instr.base_addr),):
        if not 0 <= value <= _REG32_MASK:
            raise ValueError(f"{name} must fit in 32 bits, got {value}")
    for name, value in (("a_data_addr", instr.a_data_addr),
                        ("b_col_ind_addr", instr.b_col_ind_addr),
                        ("b_data_addr", instr.b_data_addr),
                        ("roll_counter_addr", instr.roll_counter_addr)):
        if not 0 <= value <= _REG22_MASK:
            raise ValueError(f"{name} must fit in 22 bits, got {value}")
    word = int(instr.opcode) & 0xFF
    word = (word << 32) | (instr.base_addr & _REG32_MASK)
    word = (word << 22) | (instr.a_data_addr & _REG22_MASK)
    word = (word << 22) | (instr.b_col_ind_addr & _REG22_MASK)
    word = (word << 22) | (instr.b_data_addr & _REG22_MASK)
    word = (word << 22) | (instr.roll_counter_addr & _REG22_MASK)
    return word


def decode_mmh(word: int) -> MMHInstruction:
    """Decode a 128-bit integer into an MMH instruction."""
    roll_counter_addr = word & _REG22_MASK
    word >>= 22
    b_data_addr = word & _REG22_MASK
    word >>= 22
    b_col_ind_addr = word & _REG22_MASK
    word >>= 22
    a_data_addr = word & _REG22_MASK
    word >>= 22
    base_addr = word & _REG32_MASK
    word >>= 32
    opcode = Opcode(word & 0xFF)
    if opcode not in (Opcode.MMH1, Opcode.MMH2, Opcode.MMH4, Opcode.MMH8):
        raise ValueError(f"word does not encode an MMH instruction (opcode={opcode})")
    return MMHInstruction(opcode=opcode, base_addr=base_addr,
                          a_data_addr=a_data_addr, b_col_ind_addr=b_col_ind_addr,
                          b_data_addr=b_data_addr, roll_counter_addr=roll_counter_addr)


def encode_hacc(instr: HACCInstruction) -> int:
    """Encode a HACC instruction into its 128-bit integer representation."""
    if not 0 <= instr.tag <= _REG32_MASK:
        raise ValueError(f"tag must fit in 32 bits, got {instr.tag}")
    if not 0 <= instr.writeback_addr <= _REG32_MASK:
        raise ValueError(f"writeback_addr must fit in 32 bits, got {instr.writeback_addr}")
    if not 0 <= instr.counter <= _REG16_MASK:
        raise ValueError(f"counter must fit in 16 bits, got {instr.counter}")
    word = int(Opcode.HACC) & 0xFF
    word = (word << 32) | (instr.tag & _REG32_MASK)
    word = (word << 32) | _float_to_bits(instr.data)
    word = (word << 32) | (instr.writeback_addr & _REG32_MASK)
    word = (word << 16) | (instr.counter & _REG16_MASK)
    word = word << 8  # unused low byte
    return word


def decode_hacc(word: int) -> HACCInstruction:
    """Decode a 128-bit integer into a HACC instruction."""
    word >>= 8  # discard unused byte
    counter = word & _REG16_MASK
    word >>= 16
    writeback_addr = word & _REG32_MASK
    word >>= 32
    data_bits = word & _REG32_MASK
    word >>= 32
    tag = word & _REG32_MASK
    word >>= 32
    opcode = Opcode(word & 0xFF)
    if opcode is not Opcode.HACC:
        raise ValueError(f"word does not encode a HACC instruction (opcode={opcode})")
    return HACCInstruction(tag=tag, data=_bits_to_float(data_bits),
                           writeback_addr=writeback_addr, counter=counter)


def encode_to_bytes(word: int) -> bytes:
    """Serialise a 128-bit instruction word to 16 little-endian bytes."""
    return word.to_bytes(INSTRUCTION_BITS // 8, "little")


def decode_from_bytes(blob: bytes) -> int:
    """Deserialise 16 little-endian bytes to a 128-bit instruction word."""
    if len(blob) != INSTRUCTION_BITS // 8:
        raise ValueError(f"expected {INSTRUCTION_BITS // 8} bytes, got {len(blob)}")
    return int.from_bytes(blob, "little")
