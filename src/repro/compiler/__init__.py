"""NeuraCompiler: lowers SpGEMM / GCN aggregation onto the NeuraChip ISA.

The compiler mirrors the paper's NeuraCompiler module: it takes the adjacency
matrix (CSC) and the feature matrix (CSR), emits a stream of MMH
instructions, each of which expands to up to ``tile_size**2`` HACC
operations at execution time, counts the rolling-eviction counters from that
stream, and lays the operands out in a virtual HBM address space.

The pipeline is columnar end to end: the lowering computes every tile
expansion with vectorized index arithmetic, one expansion of the op
stream's partial products yields the CSR-shaped counter arrays and output
slots, the operand addresses follow, and one
:class:`~repro.compiler.program.Program` holds the resulting columns with
the address map they index — the simulators, the verifier and the
encoder read them directly.  The original
loop lowering survives as :func:`~repro.compiler.lowering.compile_spgemm_loop`,
the executable specification the columnar path is tested byte-for-byte
against.
"""

from repro.compiler.program import (
    AddressMap,
    HACCStream,
    Program,
    ProgramDigest,
)
from repro.compiler.lowering import (
    compile_gcn_aggregation,
    compile_spgemm,
    compile_spgemm_loop,
)

__all__ = [
    "AddressMap",
    "HACCStream",
    "Program",
    "ProgramDigest",
    "compile_spgemm",
    "compile_spgemm_loop",
    "compile_gcn_aggregation",
]
