"""Program representation: MMH / HACC macro-operations and the address map.

The cycle simulator consumes *macro-ops*: decoded instructions that carry both
the architectural fields (operand addresses, as encoded by
:mod:`repro.arch.isa`) and the semantic payload (the actual operand values)
so that the simulation can verify numerical correctness of the accelerator
output against a software reference.

Programs are stored *columnar*: the compiler emits a
:class:`ProgramArrays` structure-of-arrays payload (per-op operand slices,
addresses and output-slot indices, plus the CSR-shaped symbolic output
structure), and the familiar :class:`MMHMacroOp` objects are materialized
lazily — only when the cycle/functional simulators actually iterate them.
Count-only consumers (the analytic backend, report rows, cache
fingerprints) read the arrays directly and never pay for materialization;
pickling a columnar program (disk cache spill, cross-process shipping)
serialises only the arrays.

The numeric output of a columnar program is a *replay* of its own op
stream: a structure-only :class:`ReplayIndex` (built once per program and
shared by every :func:`rebind_b_values` copy) maps each partial product to
its operands and output slot, and one gather-multiply-scatter accumulates
every slot in program order — MMH multiplies, HACC accumulates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.arch.isa import (
    HACCInstruction,
    MMHInstruction,
    Opcode,
    encode_hacc,
    encode_mmh,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.symbolic import row_per_slot

#: Bytes per matrix element in the virtual HBM layout (fp32 value or int32 index).
ELEMENT_BYTES = 4

#: Output shapes with ``rows * cols`` at or below this resolve output keys
#: to slots through a dense key -> slot table (one gather, ~32 MiB of int32
#: at the cap); larger shapes binary-search the sorted output keys instead,
#: so transient memory stays bounded.  The compiler's rolling-counter
#: reduction uses the same cut-over.
DENSE_KEY_SPACE = 1 << 23

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class AddressMap:
    """Byte layout of the operands in the accelerator's HBM address space.

    The regions are laid out back to back: A values, A row indices, B column
    indices, B values, rolling counters, and the output C region.
    """

    a_data_base: int
    a_indices_base: int
    b_col_ind_base: int
    b_data_base: int
    roll_counter_base: int
    output_base: int
    total_bytes: int

    @classmethod
    def layout(cls, a_nnz: int, b_nnz: int, output_nnz: int) -> "AddressMap":
        """Assign contiguous regions for the operand arrays."""
        cursor = 0
        a_data_base = cursor
        cursor += a_nnz * ELEMENT_BYTES
        a_indices_base = cursor
        cursor += a_nnz * ELEMENT_BYTES
        b_col_ind_base = cursor
        cursor += b_nnz * ELEMENT_BYTES
        b_data_base = cursor
        cursor += b_nnz * ELEMENT_BYTES
        roll_counter_base = cursor
        cursor += output_nnz * ELEMENT_BYTES
        output_base = cursor
        cursor += output_nnz * ELEMENT_BYTES
        return cls(a_data_base=a_data_base, a_indices_base=a_indices_base,
                   b_col_ind_base=b_col_ind_base, b_data_base=b_data_base,
                   roll_counter_base=roll_counter_base, output_base=output_base,
                   total_bytes=cursor)

    def regions(self) -> dict[str, tuple[int, int]]:
        """Per-region ``[start, end)`` byte bounds, in layout order.

        The regions are back to back, so each region ends where the next
        one begins and the last ends at ``total_bytes``.  This is the
        bounds oracle the static IR verifier checks operand offsets
        against.
        """
        bases = [("a_data", self.a_data_base),
                 ("a_indices", self.a_indices_base),
                 ("b_col_ind", self.b_col_ind_base),
                 ("b_data", self.b_data_base),
                 ("roll_counter", self.roll_counter_base),
                 ("output", self.output_base)]
        ends = [base for _, base in bases[1:]] + [self.total_bytes]
        return {name: (base, end)
                for (name, base), end in zip(bases, ends)}


@dataclass(frozen=True)
class HACCMacroOp:
    """A hash_accumulate operation with its semantic payload.

    Attributes:
        tag: 32-bit output-element identifier hashed by NeuraMem.
        value: partial-product value to accumulate.
        counter: rolling-eviction counter (total contributions to this tag).
        out_row / out_col: coordinates of the output element.
        writeback_addr: HBM address the evicted result is written to.
    """

    tag: int
    value: float
    counter: int
    out_row: int
    out_col: int
    writeback_addr: int

    def encode(self) -> int:
        """Architectural 128-bit encoding (Figure 9)."""
        return encode_hacc(HACCInstruction(tag=self.tag, data=self.value,
                                           writeback_addr=self.writeback_addr,
                                           counter=min(self.counter, 0xFFFF)))


@dataclass(frozen=True)
class MMHMacroOp:
    """A matrix_mult_hash operation with its semantic payload.

    One MMH pairs up to ``tile_size`` elements of a column of A with up to
    ``tile_size`` elements of the matching row of B (Section 3.1), producing
    up to ``tile_size**2`` partial products.

    Attributes:
        opcode: MMH variant (MMH1/2/4/8).
        k: the shared inner index (column of A == row of B).
        a_rows: output-row indices of the A-tile elements.
        a_values: values of the A-tile elements.
        b_cols: output-column indices of the B-tile elements.
        b_values: values of the B-tile elements.
        instruction: architectural address-form instruction (Figure 7).
        reseed_after: True when this is the last MMH of an input column, i.e.
            the point at which DRHM draws a new seed.
        sequence: position in program order.
    """

    opcode: Opcode
    k: int
    a_rows: tuple[int, ...]
    a_values: tuple[float, ...]
    b_cols: tuple[int, ...]
    b_values: tuple[float, ...]
    instruction: MMHInstruction
    reseed_after: bool = False
    sequence: int = 0

    @property
    def tile_size(self) -> int:
        return self.opcode.mmh_tile_size

    @property
    def n_partial_products(self) -> int:
        """Actual number of HACC operations this MMH dispatches."""
        return len(self.a_rows) * len(self.b_cols)

    @property
    def memory_requests(self) -> int:
        """Distinct operand fetches issued (A data, B col indices, B data, counters)."""
        return 4

    def operand_addresses(self) -> dict[str, tuple[int, int]]:
        """(address, bytes) per operand fetch, for the memory model."""
        n_a = len(self.a_rows)
        n_b = len(self.b_cols)
        instr = self.instruction
        return {
            "a_data": (instr.base_addr + instr.a_data_addr, n_a * ELEMENT_BYTES),
            "b_col_ind": (instr.base_addr + instr.b_col_ind_addr, n_b * ELEMENT_BYTES),
            "b_data": (instr.base_addr + instr.b_data_addr, n_b * ELEMENT_BYTES),
            "roll_counter": (instr.base_addr + instr.roll_counter_addr,
                             n_a * n_b * ELEMENT_BYTES),
        }

    def expand(self, counters: dict[tuple[int, int], int], n_out_cols: int,
               output_addrs: dict[tuple[int, int], int]) -> list[HACCMacroOp]:
        """Expand into HACC macro-ops (Algorithm 1's dispatch loop)."""
        haccs = []
        for i, av in zip(self.a_rows, self.a_values):
            for j, bv in zip(self.b_cols, self.b_values):
                tag = (i * n_out_cols + j) & 0xFFFFFFFF
                haccs.append(HACCMacroOp(
                    tag=tag,
                    value=av * bv,
                    counter=counters[(i, j)],
                    out_row=i,
                    out_col=j,
                    writeback_addr=output_addrs[(i, j)],
                ))
        return haccs

    def encode(self) -> int:
        """Architectural 128-bit encoding (Figure 7)."""
        return encode_mmh(self.instruction)


@dataclass(frozen=True)
class ReplayIndex:
    """Structure-only partial-product index of a columnar program.

    Lists every partial product in program (MMH dispatch) order, so each
    output slot accumulates its partial products in ascending inner index
    ``k`` — the order of the vectorized kernels and the reference loops.
    It holds no operand values, so one index serves every
    :func:`rebind_b_values` copy of the program.

    Attributes:
        a_index: ``a_values`` position of every A-tile element, op by op.
        a_rep: partial products each A-tile element takes part in (its
            op's B-tile width).
        pp_b: ``b_values`` position of every partial product.
        pp_slot: output slot every partial product accumulates into.
    """

    a_index: np.ndarray
    a_rep: np.ndarray
    pp_b: np.ndarray
    pp_slot: np.ndarray


@dataclass
class ProgramArrays:
    """Columnar (structure-of-arrays) payload of a compiled program.

    All per-op columns have length ``n_ops`` and are aligned with program
    order; operand payloads are stored once as flat arrays that the ops
    slice into, so the whole program costs O(a_nnz + b_nnz + output_nnz +
    n_ops) memory, pickles as a handful of numpy buffers, and every
    aggregate a consumer needs (op counts, operand sizes, tag/counter
    histograms) is one vectorized reduction away.

    Attributes:
        opcode: MMH opcode variant shared by every op.
        tile_size: MMH tile size the program was compiled for.
        shape: shape of the output matrix C.
        out_indptr / out_indices / out_counts: CSR-shaped symbolic output
            structure (canonical row-major slot order; slot ``s`` is output
            element ``(row, out_indices[s])`` with rolling counter
            ``out_counts[s]``).
        a_rows / a_values: A operand entries in CSC order (row index and
            value per non-zero).
        b_cols / b_values: B operand entries in CSR order (column index and
            value per non-zero).
        op_k: shared inner index per op.
        op_group: row-group index per op (``min(a_rows) // tile_size``).
        op_a_lo / op_a_hi: per-op A-tile slice into ``a_rows`` / ``a_values``.
        op_b_lo / op_b_hi: per-op B-tile slice into ``b_cols`` / ``b_values``.
        op_slot: output slot of the op's first (row, col) pair — the slot
            its rolling-counter address points at.
        op_reseed: True on the last op of each row group (DRHM reseed).
        op_a_addr / op_b_col_addr / op_b_data_addr / op_counter_addr:
            architectural operand addresses per op (Figure 7 register
            fields, already validated against the 22-bit limit).
    """

    opcode: Opcode
    tile_size: int
    shape: tuple[int, int]
    out_indptr: np.ndarray
    out_indices: np.ndarray
    out_counts: np.ndarray
    a_rows: np.ndarray
    a_values: np.ndarray
    b_cols: np.ndarray
    b_values: np.ndarray
    op_k: np.ndarray
    op_group: np.ndarray
    op_a_lo: np.ndarray
    op_a_hi: np.ndarray
    op_b_lo: np.ndarray
    op_b_hi: np.ndarray
    op_slot: np.ndarray
    op_reseed: np.ndarray
    op_a_addr: np.ndarray
    op_b_col_addr: np.ndarray
    op_b_data_addr: np.ndarray
    op_counter_addr: np.ndarray

    # ------------------------------------------------------------------
    # Aggregates (no materialization)
    # ------------------------------------------------------------------
    @property
    def n_ops(self) -> int:
        return int(self.op_k.size)

    @property
    def output_nnz(self) -> int:
        return int(self.out_indices.size)

    @property
    def n_row_groups(self) -> int:
        """Row groups that issued at least one op (reseed boundaries)."""
        return int(np.count_nonzero(self.op_reseed))

    @property
    def sum_na(self) -> int:
        """Total A-tile elements across ops (operand fetch accounting)."""
        return int((self.op_a_hi - self.op_a_lo).sum())

    @property
    def sum_nb(self) -> int:
        """Total B-tile elements across ops (operand fetch accounting)."""
        return int((self.op_b_hi - self.op_b_lo).sum())

    @property
    def partial_products_per_op(self) -> np.ndarray:
        """HACCs each op dispatches (``n_a * n_b``), as an array."""
        return (self.op_a_hi - self.op_a_lo) * (self.op_b_hi - self.op_b_lo)

    def counter_histogram(self) -> np.ndarray:
        """Histogram of rolling-counter values across output tags
        (``hist[c]`` = tags that accumulate exactly ``c`` partial
        products) — the per-tag work distribution, straight from the
        symbolic arrays."""
        if self.out_counts.size == 0:
            return np.zeros(1, dtype=np.int64)
        return np.bincount(self.out_counts)

    def row_tag_counts(self) -> np.ndarray:
        """Output tags per output row (the tag histogram across rows)."""
        return np.diff(self.out_indptr)

    # ------------------------------------------------------------------
    # Structure-derived caches
    # ------------------------------------------------------------------
    def _derived(self) -> dict:
        """Cache of structure-only arrays derived from this payload,
        shared by reference with every :func:`rebind_b_values` copy and
        dropped on pickling."""
        derived = self.__dict__.get("_derived_cache")
        if derived is None:
            derived = self.__dict__["_derived_cache"] = {}
        return derived

    def flat_keys(self) -> np.ndarray:
        """Ascending flattened output coordinates ``row * n_cols + col``,
        one per slot.  Computed afresh unless a simulator cached them."""
        cached = self.__dict__.get("_derived_cache", {}).get("flat")
        if cached is not None:
            return cached
        return (row_per_slot(self.out_indptr, self.shape[0])
                * self.shape[1] + self.out_indices)

    def _flat_keys(self) -> np.ndarray:
        """:meth:`flat_keys`, retained for the per-MMH slot lookups of
        :meth:`expand_haccs`."""
        derived = self._derived()
        if "flat" not in derived:
            derived["flat"] = self.flat_keys()
        return derived["flat"]

    # ------------------------------------------------------------------
    # Partial-product expansion and numeric replay
    # ------------------------------------------------------------------
    def expand_partial_products(self, op_lo: int = 0,
                                op_hi: int | None = None,
                                dtype=np.int32
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand ops ``[op_lo, op_hi)`` into their partial products, in
        program order.

        Returns ``(a_index, a_rep, b_index)``: the ``a_rows`` / ``a_values``
        position of every A-tile element, the partial products each takes
        part in, and the ``b_cols`` / ``b_values`` position of every
        partial product — the cumulative-offset expansion the SpGEMM
        kernels use, and the one the compiler's rolling-counter count and
        :meth:`build_replay_index` share.  ``dtype`` is the index
        arithmetic type; int32 needs fewer than 2**31 partial products.
        """
        a_lo = self.op_a_lo[op_lo:op_hi]
        n_a = self.op_a_hi[op_lo:op_hi] - a_lo
        b_lo = self.op_b_lo[op_lo:op_hi]
        n_b = self.op_b_hi[op_lo:op_hi] - b_lo
        ends_a = np.cumsum(n_a, dtype=dtype)
        total_a = int(ends_a[-1]) if ends_a.size else 0
        a_index = (np.arange(total_a, dtype=dtype)
                   + np.repeat(a_lo - ends_a + n_a, n_a))
        a_rep = np.repeat(n_b, n_a)
        ends = np.cumsum(a_rep, dtype=dtype)
        total = int(ends[-1]) if ends.size else 0
        b_index = (np.arange(total, dtype=dtype)
                   + np.repeat(np.repeat(b_lo, n_a) - ends + a_rep, a_rep))
        return a_index, a_rep, b_index

    def pair_keys(self, a_index: np.ndarray, a_rep: np.ndarray | int,
                  b_index: np.ndarray) -> np.ndarray:
        """Flattened output coordinate of every partial product of an
        :meth:`expand_partial_products` expansion (int32 when the key
        space fits)."""
        n_cols = self.shape[1]
        dtype = (np.int32 if self.shape[0] * n_cols < _INT32_MAX
                 else np.int64)
        keys = np.repeat(self.a_rows[a_index].astype(dtype, copy=False)
                         * dtype(n_cols), a_rep)
        keys += self.b_cols[b_index]
        return keys

    def _replay_bounds_error(self) -> str | None:
        """Why a replay gather would leave its operand, or ``None`` (the
        IR verifier proves more; this holds even without it)."""
        for name, lo, hi, size in (
                ("A", self.op_a_lo, self.op_a_hi, self.a_rows.size),
                ("B", self.op_b_lo, self.op_b_hi, self.b_cols.size)):
            if lo.size and (int(lo.min()) < 0 or int(hi.max()) > size
                            or bool(np.any(hi < lo))):
                return (f"an op's {name}-tile slice lies outside the "
                        f"{size}-element {name} operand")
        for name, index, bound in (("a_rows", self.a_rows, self.shape[0]),
                                   ("b_cols", self.b_cols, self.shape[1])):
            if index.size and (int(index.min()) < 0
                               or int(index.max()) >= bound):
                return f"{name} holds an index outside [0, {bound})"
        return None

    def replay_index(self, source: str = "program") -> ReplayIndex:
        """The program's :class:`ReplayIndex`, built on first use (or
        published by a clean full-level IR verification) and cached
        (shared with rebound copies, never pickled).

        Raises:
            ValueError: naming ``source`` when an op slice is out of
                bounds or a partial product has no output slot.
        """
        derived = self._derived()
        index = derived.get("replay")
        if index is None:
            index, problem = self.build_replay_index()
            if index is None:
                raise ValueError(f"program {source!r}: {problem}")
            index = derived.setdefault("replay", index)
        return index

    def build_replay_index(self) -> tuple[ReplayIndex | None, str | None]:
        """Build a fresh :class:`ReplayIndex` from the current op columns,
        never from the cache — the one builder behind :meth:`replay_index`
        and the full-level IR verifier.  Returns ``(index, None)``, or
        ``(None, problem)`` when an operand bound is broken or a partial
        product has no output slot."""
        problem = self._replay_bounds_error()
        if problem is not None:
            return None, problem
        total = int(self.partial_products_per_op.sum(dtype=np.int64))
        dtype = np.int32 if total < _INT32_MAX else np.int64
        a_index, a_rep, pp_b = self.expand_partial_products(dtype=dtype)
        keys = self.pair_keys(a_index, a_rep, pp_b)
        flat = self.flat_keys()
        nnz = int(flat.size)
        key_space = self.shape[0] * self.shape[1]
        if key_space <= DENSE_KEY_SPACE:
            slot_of_key = np.full(key_space, -1, dtype=np.int32)
            slot_of_key[flat] = np.arange(nnz, dtype=np.int32)
            pp_slot = slot_of_key[keys]
            missing = pp_slot < 0
        else:
            pp_slot = np.searchsorted(flat, keys)
            missing = pp_slot >= nnz
            if nnz:
                missing |= flat[np.minimum(pp_slot, nnz - 1)] != keys
            pp_slot = pp_slot.astype(np.int32)
        if keys.size and bool(missing.any()):
            key = int(keys[int(np.argmax(missing))])
            return None, (
                f"a partial product targets output (row "
                f"{key // self.shape[1]}, col {key % self.shape[1]}), which "
                "has no slot in the symbolic output structure")
        narrow = np.int32
        return ReplayIndex(a_index=a_index.astype(narrow, copy=False),
                           a_rep=a_rep.astype(narrow, copy=False),
                           pp_b=pp_b.astype(narrow, copy=False),
                           pp_slot=pp_slot), None

    def replay(self, source: str = "program") -> CSRMatrix:
        """Numeric output C = A @ B from this payload's operand values.

        One gather-multiply-scatter over the :class:`ReplayIndex`; every
        slot accumulates in ascending ``k``, so the result is
        byte-identical to the dense-merge vectorized kernel.  The returned
        CSR owns fresh int64 ``indptr`` / ``indices`` and float64 ``data``
        (it never aliases the program's arrays).
        """
        index = self.replay_index(source)
        if index.pp_slot.size:
            products = np.repeat(self.a_values[index.a_index], index.a_rep)
            products *= self.b_values[index.pp_b]
            data = np.bincount(index.pp_slot, weights=products,
                               minlength=self.output_nnz)
        else:
            data = np.zeros(self.output_nnz, dtype=np.float64)
        return CSRMatrix(self.out_indptr.astype(np.int64, copy=True),
                         self.out_indices.astype(np.int64, copy=True),
                         data, self.shape)

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------
    def materialize(self, index: int) -> MMHMacroOp:
        """Build the :class:`MMHMacroOp` object for one program position."""
        a_lo, a_hi = int(self.op_a_lo[index]), int(self.op_a_hi[index])
        b_lo, b_hi = int(self.op_b_lo[index]), int(self.op_b_hi[index])
        instruction = MMHInstruction(
            opcode=self.opcode,
            base_addr=0,
            a_data_addr=int(self.op_a_addr[index]),
            b_col_ind_addr=int(self.op_b_col_addr[index]),
            b_data_addr=int(self.op_b_data_addr[index]),
            roll_counter_addr=int(self.op_counter_addr[index]),
        )
        return MMHMacroOp(
            opcode=self.opcode,
            k=int(self.op_k[index]),
            a_rows=tuple(self.a_rows[a_lo:a_hi].tolist()),
            a_values=tuple(self.a_values[a_lo:a_hi].tolist()),
            b_cols=tuple(self.b_cols[b_lo:b_hi].tolist()),
            b_values=tuple(self.b_values[b_lo:b_hi].tolist()),
            instruction=instruction,
            reseed_after=bool(self.op_reseed[index]),
            sequence=index,
        )

    def iter_ops(self) -> Iterator[MMHMacroOp]:
        """Generate macro-ops in program order without retaining them."""
        for index in range(self.n_ops):
            yield self.materialize(index)

    def expand_haccs(self, mmh: MMHMacroOp,
                     address_map: AddressMap) -> list[HACCMacroOp]:
        """Expand one MMH into HACC macro-ops, resolving counters and
        write-back addresses through the symbolic arrays (no dict views)."""
        n_cols = self.shape[1]
        a_rows = np.asarray(mmh.a_rows, dtype=np.int64)
        b_cols = np.asarray(mmh.b_cols, dtype=np.int64)
        flat = (a_rows[:, None] * n_cols + b_cols[None, :]).ravel()
        slots = np.searchsorted(self._flat_keys(), flat)
        counters = self.out_counts[slots].tolist()
        writebacks = (address_map.output_base
                      + slots * ELEMENT_BYTES).tolist()
        haccs = []
        position = 0
        for i, av in zip(mmh.a_rows, mmh.a_values):
            for j, bv in zip(mmh.b_cols, mmh.b_values):
                haccs.append(HACCMacroOp(
                    tag=(i * n_cols + j) & 0xFFFFFFFF,
                    value=av * bv,
                    counter=counters[position],
                    out_row=i,
                    out_col=j,
                    writeback_addr=writebacks[position],
                ))
                position += 1
        return haccs

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_derived_cache", None)
        return state


@dataclass(frozen=True)
class ProgramDigest:
    """Count-level summary of a compiled program.

    Carries every aggregate a report row needs (instruction counts, partial
    products, bloat) at a fraction of a :class:`Program`'s pickled size, so
    results shipped back from executor worker processes don't pay to
    serialise the full macro-op stream.
    """

    n_instructions: int
    total_partial_products: int
    output_nnz: int
    shape: tuple[int, int]
    tile_size: int
    a_nnz: int
    b_nnz: int
    source: str = ""

    @property
    def bloat_percent(self) -> float:
        """Equation 1 bloat for this program's workload."""
        if self.output_nnz == 0:
            return 0.0
        return (self.total_partial_products - self.output_nnz) / self.output_nnz * 100.0

    @property
    def useful_flops(self) -> int:
        return 2 * self.total_partial_products

    def digest(self) -> "ProgramDigest":
        return self


class Program:
    """A compiled NeuraChip program.

    Holds either a columnar :class:`ProgramArrays` payload (the compiler's
    native output — macro-ops, counter dicts and address dicts are
    materialized lazily, and only on demand) or the fully materialized
    legacy representation (macro-op list plus counter / address dicts, as
    the reference loop compiler produces).

    Attributes:
        arrays: columnar payload, or ``None`` for legacy programs.
        address_map: operand layout in HBM.
        shape: shape of the output matrix C.
        tile_size: MMH tile size the program was compiled for.
        a_nnz / b_nnz: operand non-zero counts (for traffic accounting).
        total_partial_products: total HACC operations the program dispatches.
        source: human-readable description of the workload.
    """

    def __init__(self, mmh_ops: list[MMHMacroOp] | None = None,
                 counters: dict[tuple[int, int], int] | None = None,
                 output_addrs: dict[tuple[int, int], int] | None = None,
                 address_map: AddressMap | None = None,
                 shape: tuple[int, int] = (0, 0),
                 tile_size: int = 4,
                 a_nnz: int = 0,
                 b_nnz: int = 0,
                 total_partial_products: int = 0,
                 source: str = "",
                 metadata: dict | None = None,
                 arrays: ProgramArrays | None = None) -> None:
        if arrays is None and (mmh_ops is None or counters is None
                               or output_addrs is None):
            raise ValueError("Program needs either a columnar `arrays` "
                             "payload or the fully materialized legacy "
                             "triple (`mmh_ops` + `counters` + "
                             "`output_addrs`)")
        if arrays is not None and address_map is None:
            raise ValueError("a columnar Program needs its `address_map` "
                             "to resolve write-back addresses")
        self.arrays = arrays
        self.address_map = address_map
        self.shape = (int(shape[0]), int(shape[1]))
        self.tile_size = tile_size
        self.a_nnz = a_nnz
        self.b_nnz = b_nnz
        self.total_partial_products = total_partial_products
        self.source = source
        self.metadata = dict(metadata) if metadata else {}
        self._mmh_ops: list[MMHMacroOp] | None = \
            list(mmh_ops) if mmh_ops is not None else None
        self._counters: dict[tuple[int, int], int] | None = \
            dict(counters) if counters is not None else None
        self._output_addrs: dict[tuple[int, int], int] | None = \
            dict(output_addrs) if output_addrs is not None else None

    # ------------------------------------------------------------------
    # Lazy views over the columnar payload
    # ------------------------------------------------------------------
    @property
    def mmh_ops(self) -> list[MMHMacroOp]:
        """The MMH macro-op stream in program order (materialized on first
        access for columnar programs, then cached)."""
        if self._mmh_ops is None:
            self._mmh_ops = list(self.arrays.iter_ops())
        return self._mmh_ops

    def iter_mmh_ops(self) -> Iterator[MMHMacroOp]:
        """Iterate macro-ops in program order without caching the list —
        the view the simulators consume."""
        if self._mmh_ops is not None:
            yield from self._mmh_ops
        elif self.arrays is not None:
            yield from self.arrays.iter_ops()

    @property
    def counters(self) -> dict[tuple[int, int], int]:
        """Rolling counter per output coordinate (lazy dict view)."""
        if self._counters is None:
            arrays = self.arrays
            rows = row_per_slot(arrays.out_indptr, arrays.shape[0])
            self._counters = dict(zip(
                zip(rows.tolist(), arrays.out_indices.tolist()),
                arrays.out_counts.tolist()))
        return self._counters

    @property
    def output_addrs(self) -> dict[tuple[int, int], int]:
        """HBM write-back address per output coordinate (lazy dict view)."""
        if self._output_addrs is None:
            arrays = self.arrays
            rows = row_per_slot(arrays.out_indptr, arrays.shape[0])
            base = self.address_map.output_base
            addrs = base + np.arange(arrays.output_nnz,
                                     dtype=np.int64) * ELEMENT_BYTES
            self._output_addrs = dict(zip(
                zip(rows.tolist(), arrays.out_indices.tolist()),
                addrs.tolist()))
        return self._output_addrs

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def n_instructions(self) -> int:
        """Number of MMH instructions."""
        if self.arrays is not None:
            return self.arrays.n_ops
        return len(self._mmh_ops)

    @property
    def output_nnz(self) -> int:
        """Number of non-zeros in the output matrix."""
        if self.arrays is not None:
            return self.arrays.output_nnz
        return len(self._counters)

    @property
    def bloat_percent(self) -> float:
        """Equation 1 bloat for this program's workload."""
        if self.output_nnz == 0:
            return 0.0
        return (self.total_partial_products - self.output_nnz) / self.output_nnz * 100.0

    @property
    def useful_flops(self) -> int:
        """Useful floating-point operations (multiply + add per partial product)."""
        return 2 * self.total_partial_products

    def digest(self) -> ProgramDigest:
        """Count-level summary suitable for cross-process result transfer."""
        return ProgramDigest(
            n_instructions=self.n_instructions,
            total_partial_products=self.total_partial_products,
            output_nnz=self.output_nnz,
            shape=self.shape,
            tile_size=self.tile_size,
            a_nnz=self.a_nnz,
            b_nnz=self.b_nnz,
            source=self.source)

    # ------------------------------------------------------------------
    # Expansion and reference semantics
    # ------------------------------------------------------------------
    def expand_haccs(self, mmh: MMHMacroOp) -> list[HACCMacroOp]:
        """Expand one MMH of this program into its HACC macro-ops."""
        if self.arrays is not None:
            return self.arrays.expand_haccs(mmh, self.address_map)
        return mmh.expand(self._counters, self.shape[1], self._output_addrs)

    def reference_result(self) -> np.ndarray:
        """Dense reference of the output computed from the macro-op stream."""
        dense = np.zeros(self.shape, dtype=np.float64)
        for mmh in self.iter_mmh_ops():
            for hacc in self.expand_haccs(mmh):
                dense[hacc.out_row, hacc.out_col] += hacc.value
        return dense

    def encode_binary(self) -> bytes:
        """Serialise the MMH stream to the 128-bit binary format."""
        blob = bytearray()
        for op in self.iter_mmh_ops():
            blob.extend(op.encode().to_bytes(16, "little"))
        return bytes(blob)

    def validate(self) -> None:
        """Check program invariants; raise AssertionError when violated.

        * every expanded HACC's counter matches the symbolic counter;
        * the per-tag number of HACCs equals that counter;
        * bloat accounting is consistent.
        """
        per_tag_counts: dict[tuple[int, int], int] = {}
        total = 0
        for mmh in self.iter_mmh_ops():
            for hacc in self.expand_haccs(mmh):
                key = (hacc.out_row, hacc.out_col)
                per_tag_counts[key] = per_tag_counts.get(key, 0) + 1
                total += 1
        if total != self.total_partial_products:
            raise AssertionError("partial product count mismatch")
        if set(per_tag_counts) != set(self.counters):
            raise AssertionError("output structure mismatch")
        for key, count in per_tag_counts.items():
            if count != self.counters[key]:
                raise AssertionError(f"counter mismatch at {key}: "
                                     f"{count} != {self.counters[key]}")

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle columnar programs as arrays only: the materialized
        macro-op / dict caches are dropped (they rebuild lazily), so disk
        spills and cross-process shipments stay operand-sized."""
        state = self.__dict__.copy()
        if state.get("arrays") is not None:
            state["_mmh_ops"] = None
            state["_counters"] = None
            state["_output_addrs"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        layout = "columnar" if self.arrays is not None else "materialized"
        return (f"Program(source={self.source!r}, shape={self.shape}, "
                f"tile_size={self.tile_size}, "
                f"n_instructions={self.n_instructions}, "
                f"partial_products={self.total_partial_products}, "
                f"layout={layout})")


def rebind_b_values(program: Program, b_csr) -> Program:
    """A copy of a columnar ``program`` with the B operand's *values*
    swapped for ``b_csr.data`` — structure, instruction stream and
    addressing untouched.

    This is the resident-graph fast path: the compiler's symbolic pass and
    lowering depend only on operand sparsity, so one compiled aggregation
    program serves every layer of a GNN stack as long as the feature
    matrices share a structure.  The cached program is never mutated — the
    caller gets a fresh :class:`Program` wrapping a shallow
    :class:`ProgramArrays` copy whose ``b_values`` (the only value-bearing
    B array) point at the new data.

    Raises:
        ValueError: for legacy (non-columnar) programs or when ``b_csr``'s
            nnz does not match the structure the program was compiled for.
    """
    arrays = program.arrays
    if arrays is None:
        raise ValueError("rebind_b_values needs a columnar program")
    values = np.ascontiguousarray(b_csr.data, dtype=np.float64)
    if values.size != arrays.b_values.size:
        raise ValueError(
            f"operand structure mismatch: program was compiled for "
            f"{arrays.b_values.size} B non-zeros, got {values.size}")
    new_arrays = dataclasses.replace(arrays, b_values=values)
    # Structure-only caches (replay index, flat keys) are shared by
    # reference, so whichever copy replays first builds them for all.
    new_arrays.__dict__["_derived_cache"] = arrays._derived()
    return Program(arrays=new_arrays,
                   address_map=program.address_map,
                   shape=program.shape,
                   tile_size=program.tile_size,
                   a_nnz=program.a_nnz,
                   b_nnz=program.b_nnz,
                   total_partial_products=program.total_partial_products,
                   source=program.source,
                   metadata=program.metadata)
