"""Lowering: SpGEMM / GCN aggregation -> MMH macro-op stream.

The lowering follows Section 3.1 of the paper: the adjacency matrix is taken
in CSC, the feature matrix in CSR, and the output is produced one group of
``tile_size`` rows at a time (the paper's enhancement of Gustavson's
row-stationary order).  Within a row group, each column k of A that has
non-zeros in those rows contributes up to ``tile_size`` A-elements, which are
paired with up to ``tile_size`` elements of row k of B — one MMH instruction
per pairing, dispatching up to ``tile_size**2`` HACC instructions.

Processing whole row groups before moving on is what keeps hash lines short
lived: every contribution to an output element arrives while its row group is
being processed, so the rolling-eviction counter reaches zero quickly and the
HashPad stays small.  The rolling counters placed in memory for the
NeuraCores to read (Algorithm 1, line 6) are counted from the program's own
op stream: an output element's counter is the number of HACCs the MMH
stream sends to it.

Two compilers share this lowering contract:

* :func:`compile_spgemm` — the production path.  Row-group/tile expansion
  and operand offsets use ``np.repeat`` / ``cumsum`` over the CSR/CSC index
  arrays (no per-nonzero Python loop), and one expansion of the op stream
  yields the output structure, rolling counters and op slots, emitting a
  columnar :class:`~repro.compiler.program.ProgramArrays` payload whose
  macro-ops materialize lazily.
* :func:`compile_spgemm_loop` — the original per-row-group Python loops
  over the symbolic pass (:func:`~repro.sparse.symbolic.symbolic_spgemm_from_csc`),
  kept as the executable specification: it packs the op list it builds
  into the same payload, and the columnar compiler must produce
  byte-identical instruction encodings and identical macro-op streams
  (asserted by the equivalence test suite and the compiler benchmark).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.verifier import (
    OFFSET_LIMIT as _OFFSET_LIMIT,  # noqa: F401  (historical import surface)
    check_offset_arrays as _check_offset_arrays,
    require_offset as _require_offset,
)
from repro.arch.isa import Opcode
from repro.compiler.program import (
    AddressMap,
    DENSE_KEY_SPACE,
    ELEMENT_BYTES,
    Program,
    ProgramArrays,
)
from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.symbolic import (
    count_keys_chunked,
    output_structure,
    symbolic_spgemm_from_csc,
)

# The 22-bit MMH offset limit and its compile-time checks live in
# repro.analysis.verifier so the compiler and the static IR verifier can
# never drift apart; the private aliases keep this module's call sites
# and its historical import surface stable.


def _rolling_counters(ops: ProgramArrays
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray, int]:
    """Count the rolling counters from the op stream of ``ops``: expand
    its partial products once, in program order, and reduce their output
    keys; each op's slot is that of its first partial product's key.
    Returns ``(out_indptr, out_indices, out_counts, op_slot,
    total_partial_products)``."""
    if ops.n_ops == 0:  # every op dispatches at least one partial product
        return (np.zeros(ops.shape[0] + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64), 0)
    pp_per_op = ops.partial_products_per_op
    ends = np.cumsum(pp_per_op, dtype=np.int64)
    first_keys = []

    def op_keys(lo: int, hi: int) -> np.ndarray:
        keys = ops.pair_keys(*ops.expand_partial_products(lo, hi))
        base = int(ends[lo - 1]) if lo else 0
        first_keys.append(keys[ends[lo:hi] - pp_per_op[lo:hi] - base])
        return keys

    unique, counts = count_keys_chunked(ends, op_keys)
    first = np.concatenate(first_keys)
    key_space = ops.shape[0] * ops.shape[1]
    if key_space <= DENSE_KEY_SPACE:
        # Only the slots of keys that occur are ever read back, so the
        # table needs no fill; it is freed before the arrays are packed.
        slot_of_key = np.empty(key_space, dtype=np.int32)
        slot_of_key[unique] = np.arange(unique.size, dtype=np.int32)
        op_slot = slot_of_key[first]
        del slot_of_key
    else:
        op_slot = np.searchsorted(unique, first)
    indptr, indices = output_structure(unique, ops.shape)
    return indptr, indices, counts, op_slot, int(ends[-1])


def _lower_columnar(a_csc: CSCMatrix, b_csr: CSRMatrix, tile_size: int,
                    opcode: Opcode) -> tuple[ProgramArrays, AddressMap, int]:
    """Vectorized row-group/tile expansion onto the columnar program IR.

    Works entirely on the operand index arrays:

    1. Every A entry (CSC order) is keyed by ``(row_group, k)``; a stable
       sort groups the entries into *segments* — the contiguous run of
       column ``k`` that falls inside one row group, exactly the A-tile the
       loop lowering builds row by row.
    2. Each segment fans out into ``ceil(nb[k] / tile_size)`` ops via
       ``np.repeat`` with a cumulative-offset tile index (the same
       expansion the SpGEMM kernels use for partial products).
    3. The rolling counters and every op's output slot are counted from
       that op stream (:func:`_rolling_counters`).
    4. The address map follows from the output size, and the operand
       addresses are checked against the 22-bit MMH fields.

    Returns the payload, its address map and the total partial products.
    """
    n_inner = a_csc.shape[1]
    a_nnz = a_csc.nnz
    int_like = np.int64

    # --- 1. (row_group, k) segments of A ------------------------------
    e_k = np.repeat(np.arange(n_inner, dtype=int_like),
                    a_csc.col_nnz_counts())
    e_group = a_csc.indices // tile_size
    order = np.argsort(e_group * n_inner + e_k, kind="stable")
    sorted_key = (e_group * n_inner + e_k)[order]
    if a_nnz:
        boundaries = np.empty(a_nnz, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundaries[1:])
        seg_starts = np.flatnonzero(boundaries)
    else:
        seg_starts = np.zeros(0, dtype=int_like)
    seg_lens = np.diff(np.append(seg_starts, a_nnz))
    # Within a column the rows are sorted, so a (group, k) segment is a
    # contiguous run of the CSC column; its first sorted element's original
    # position IS the operand offset of the whole A-tile.
    seg_pos = order[seg_starts]
    seg_k = e_k[seg_pos]
    seg_group = e_group[seg_pos]

    # --- 2. fan segments out into B tiles -----------------------------
    nb = b_csr.row_nnz_counts()
    seg_nb = nb[seg_k]
    keep = seg_nb > 0
    seg_pos, seg_lens = seg_pos[keep], seg_lens[keep]
    seg_k, seg_group, seg_nb = seg_k[keep], seg_group[keep], seg_nb[keep]
    n_b_tiles = -(-seg_nb // tile_size)
    total_ops = int(n_b_tiles.sum())

    cum_tiles = np.cumsum(n_b_tiles)
    op_seg = np.repeat(np.arange(seg_k.size, dtype=int_like), n_b_tiles)
    tile_in_seg = (np.arange(total_ops, dtype=int_like)
                   - np.repeat(cum_tiles - n_b_tiles, n_b_tiles))
    op_k = seg_k[op_seg]
    op_b_lo = b_csr.indptr[op_k] + tile_in_seg * tile_size
    op_b_hi = np.minimum(op_b_lo + tile_size, b_csr.indptr[op_k + 1])
    op_a_lo = seg_pos[op_seg]
    op_a_hi = op_a_lo + seg_lens[op_seg]
    op_group = seg_group[op_seg]

    op_reseed = np.zeros(total_ops, dtype=bool)
    if total_ops:
        np.not_equal(op_group[1:], op_group[:-1], out=op_reseed[:-1])
        op_reseed[-1] = True

    # Everything stored per-op or per-nonzero fits comfortably in 32 bits
    # (indices are matrix dimensions, addresses passed the 22-bit check),
    # so the persisted payload is downcast to halve spill/ship size.
    narrow = np.int32
    # The op columns alone drive the partial-product expansion, so the
    # payload starts without its output structure, slots and addresses.
    unset = np.zeros(0, dtype=narrow)
    ops = ProgramArrays(
        opcode=opcode, tile_size=tile_size,
        shape=(a_csc.shape[0], b_csr.shape[1]),
        out_indptr=unset, out_indices=unset, out_counts=unset,
        a_rows=a_csc.indices.astype(narrow), a_values=a_csc.data.copy(),
        b_cols=b_csr.indices.astype(narrow), b_values=b_csr.data.copy(),
        op_k=op_k.astype(narrow), op_group=op_group.astype(narrow),
        op_a_lo=op_a_lo.astype(narrow), op_a_hi=op_a_hi.astype(narrow),
        op_b_lo=op_b_lo.astype(narrow), op_b_hi=op_b_hi.astype(narrow),
        op_slot=unset, op_reseed=op_reseed, op_a_addr=unset,
        op_b_col_addr=unset, op_b_data_addr=unset, op_counter_addr=unset)

    # --- 3. rolling counters from the op stream -----------------------
    out_indptr, out_indices, out_counts, op_slot, total = \
        _rolling_counters(ops)

    # --- 4. operand addresses ------------------------------------------
    address_map = AddressMap.layout(a_nnz, b_csr.nnz, out_indices.size)
    op_a_addr = address_map.a_data_base + op_a_lo * ELEMENT_BYTES
    op_b_col_addr = address_map.b_col_ind_base + op_b_lo * ELEMENT_BYTES
    op_b_data_addr = address_map.b_data_base + op_b_lo * ELEMENT_BYTES
    op_counter_addr = (address_map.roll_counter_base
                       + op_slot.astype(int_like) * ELEMENT_BYTES)
    _check_offset_arrays(a_data=op_a_addr, b_col_ind=op_b_col_addr,
                         b_data=op_b_data_addr, roll_counter=op_counter_addr)
    arrays = dataclasses.replace(
        ops, out_indptr=out_indptr,
        out_indices=out_indices.astype(narrow),
        out_counts=out_counts.astype(narrow),
        op_slot=op_slot.astype(narrow),
        op_a_addr=op_a_addr.astype(narrow),
        op_b_col_addr=op_b_col_addr.astype(narrow),
        op_b_data_addr=op_b_data_addr.astype(narrow),
        op_counter_addr=op_counter_addr.astype(narrow))
    return arrays, address_map, total


def compile_spgemm(a_csc: CSCMatrix, b_csr: CSRMatrix, tile_size: int = 4,
                   source: str = "spgemm") -> Program:
    """Compile C = A @ B into a NeuraChip program (columnar IR).

    Args:
        a_csc: left operand (adjacency matrix) in CSC.
        b_csr: right operand (feature matrix) in CSR.
        tile_size: MMH tile size; must be 1, 2, 4 or 8.
        source: workload label stored in the program metadata.

    Returns:
        A :class:`~repro.compiler.program.Program` backed by a
        :class:`~repro.compiler.program.ProgramArrays` payload; macro-ops
        materialize lazily when a simulator iterates them.

    Raises:
        ValueError: on dimension mismatch, unsupported tile size, or
            operand offsets overflowing the 22-bit MMH register fields.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a_csc.shape}, B is {b_csr.shape}")
    opcode = Opcode.mmh_for_tile(tile_size)

    arrays, address_map, total = _lower_columnar(a_csc, b_csr, tile_size,
                                                 opcode)
    return Program(
        arrays=arrays,
        address_map=address_map,
        shape=arrays.shape,
        tile_size=tile_size,
        a_nnz=a_csc.nnz,
        b_nnz=b_csr.nnz,
        total_partial_products=total,
        source=source,
        metadata={"n_row_groups": arrays.n_row_groups},
    )


def compile_spgemm_loop(a_csc: CSCMatrix, b_csr: CSRMatrix, tile_size: int = 4,
                        source: str = "spgemm") -> Program:
    """Reference loop compiler (the original per-row-group Python loops).

    Walks the row groups op by op, takes the output structure and rolling
    counters from the symbolic pass, and packs the op list it builds into
    the same :class:`~repro.compiler.program.ProgramArrays` form
    :func:`compile_spgemm` emits, which must match it macro-op for macro-op
    and byte for byte; kept as the executable specification of the
    lowering and as the baseline of ``benchmarks/bench_compiler.py``.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a_csc.shape}, B is {b_csr.shape}")
    opcode = Opcode.mmh_for_tile(tile_size)

    symbolic = symbolic_spgemm_from_csc(a_csc, b_csr)
    address_map = AddressMap.layout(a_csc.nnz, b_csr.nnz, symbolic.nnz)

    # Output elements are laid out in deterministic (row, col) order.
    slot_of = {key: slot for slot, key in enumerate(sorted(symbolic.entries))}

    a_csr = csc_to_csr(a_csc)
    op_rows: list[tuple[int, ...]] = []  # one row of op columns per op
    op_reseed: list[bool] = []
    n_rows = a_csc.shape[0]
    for group_start in range(0, n_rows, tile_size):
        group_rows = range(group_start, min(group_start + tile_size, n_rows))
        # Column index k -> output rows of A's elements within the group.
        column_segments: dict[int, list[int]] = {}
        for i in group_rows:
            cols, _vals = a_csr.row(i)
            for k in cols.tolist():
                column_segments.setdefault(k, []).append(i)
        n_group_ops = 0
        for k in sorted(column_segments):
            b_cols, _vals = b_csr.row(k)
            if b_cols.size == 0:
                continue
            a_tile_rows = column_segments[k]
            # The group's A elements occupy a contiguous run of column k in CSC.
            col_rows, _ = a_csc.col(k)
            a_lo = int(a_csc.indptr[k]) + int(np.searchsorted(col_rows,
                                                              a_tile_rows[0]))
            for b_start in range(0, b_cols.size, tile_size):
                b_lo = int(b_csr.indptr[k]) + b_start
                b_hi = b_lo + min(tile_size, b_cols.size - b_start)
                slot = slot_of[(a_tile_rows[0], int(b_cols[b_start]))]
                op_rows.append((
                    k, group_start // tile_size,
                    a_lo, a_lo + len(a_tile_rows), b_lo, b_hi, slot,
                    _require_offset(address_map.a_data_base
                                    + a_lo * ELEMENT_BYTES, "a_data"),
                    _require_offset(address_map.b_col_ind_base
                                    + b_lo * ELEMENT_BYTES, "b_col_ind"),
                    _require_offset(address_map.b_data_base
                                    + b_lo * ELEMENT_BYTES, "b_data"),
                    _require_offset(address_map.roll_counter_base
                                    + slot * ELEMENT_BYTES, "roll_counter")))
                op_reseed.append(False)
                n_group_ops += 1
        if n_group_ops:
            # Mark the DRHM reseed boundary on the last op of the row group.
            op_reseed[-1] = True

    narrow = np.int32
    (op_k, op_group, op_a_lo, op_a_hi, op_b_lo, op_b_hi, op_slot, op_a_addr,
     op_b_col_addr, op_b_data_addr, op_counter_addr) = np.array(
        op_rows, dtype=np.int64).reshape(-1, 11).T.astype(narrow)
    arrays = ProgramArrays(
        opcode=opcode, tile_size=tile_size, shape=symbolic.shape,
        out_indptr=symbolic.indptr.astype(np.int64),
        out_indices=symbolic.indices.astype(narrow),
        out_counts=symbolic.counts.astype(narrow),
        a_rows=a_csc.indices.astype(narrow), a_values=a_csc.data.copy(),
        b_cols=b_csr.indices.astype(narrow), b_values=b_csr.data.copy(),
        op_k=op_k, op_group=op_group, op_a_lo=op_a_lo, op_a_hi=op_a_hi,
        op_b_lo=op_b_lo, op_b_hi=op_b_hi, op_slot=op_slot,
        op_reseed=np.array(op_reseed, dtype=bool), op_a_addr=op_a_addr,
        op_b_col_addr=op_b_col_addr, op_b_data_addr=op_b_data_addr,
        op_counter_addr=op_counter_addr)
    return Program(
        arrays=arrays,
        address_map=address_map,
        shape=symbolic.shape,
        tile_size=tile_size,
        a_nnz=a_csc.nnz,
        b_nnz=b_csr.nnz,
        total_partial_products=symbolic.total_partial_products,
        source=source,
        metadata={"n_row_groups": arrays.n_row_groups},
    )


def compile_gcn_aggregation(adjacency_csc: CSCMatrix, features_csr: CSRMatrix,
                            tile_size: int = 4, dataset: str = "") -> Program:
    """Compile the aggregation phase of a GCN layer (A @ X) onto NeuraChip."""
    label = f"gcn-aggregation:{dataset}" if dataset else "gcn-aggregation"
    return compile_spgemm(adjacency_csc, features_csr, tile_size=tile_size,
                          source=label)
