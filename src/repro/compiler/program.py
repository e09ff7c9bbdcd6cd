"""Program representation: the columnar MMH program and its address map.

Both compilers emit one :class:`Program`: the MMH instruction stream as a
structure of arrays — per-op operand slices, architectural addresses (the
register fields of an MMH instruction, :mod:`repro.arch.isa`) and
output-slot indices, plus the CSR-shaped symbolic output structure — and
the :class:`AddressMap` HBM layout those register fields address.  Those
columns are the only form an MMH op takes: the cycle simulator issues op
indices and reads each op's operand fetches (:meth:`Program.operand_reads`)
and HACCs (:class:`HACCStream`) from them; count-only consumers (the
analytic backend, report rows, cache fingerprints) take one reduction
each; and pickling a program (disk cache spill, cross-process shipping)
serialises only the arrays.

The numeric output of a program is a *replay* of its own op stream: a
structure-only :class:`ReplayIndex` (built once per program and shared by
every :func:`rebind_b_values` copy) maps each partial product to its
operands and output slot, and one gather-multiply-scatter accumulates every
slot in program order — MMH multiplies, HACC accumulates.  The same index
yields the simulators' :class:`HACCStream`: every HACC the program
dispatches, in program order, built in one vectorized pass.  When B is a
full-structure (dense) operand, the replay factorises: every A element
meets a whole W-wide row of B, so a :class:`DenseReplayIndex` over the A
elements alone (checked against the op stream) replays the same sums, in
the same order, without expanding the partial products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.isa import MMHInstruction, Opcode, encode_mmh
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
class ReplayIndex:
    """Structure-only partial-product index of a columnar program.

    Lists every partial product in program (MMH dispatch) order, so each
    output slot accumulates its partial products in ascending inner index
    ``k`` — the order of the SpGEMM oracle and a row-wise accumulator.
    It holds no operand values, so one index serves every
    :func:`rebind_b_values` copy of the program.  The HACC stream and the
    full-level IR verifier always use it; the replay of a full-structure
    B uses the far smaller A-level :class:`DenseReplayIndex` and never
    builds this one.

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


@dataclass(frozen=True)
class DenseReplayIndex:
    """A-level replay index of a program whose B is full-structure.

    Every A element of such a program meets one whole W-wide row of B, so
    output row ``i`` is ``sum_k A[i, k] * B[k, :]`` over its A elements in
    program order (ascending ``k``) — one entry per A element instead of
    W per partial product.  :meth:`Program.build_dense_replay_index`
    derives it from the op stream and checks it against that stream.

    The work buffer holds one row per touched output row, ordered by
    descending A-row degree.  The first ``len(heavy_ptr) - 1`` rows are
    *heavy*: row ``h`` owns entries ``heavy_ptr[h]:heavy_ptr[h + 1]``, and
    all heavy rows sum in one ``bincount`` over their products.  The rest
    advance one degree *step* at a time: step ``d`` holds the ``d``-th
    entry of every light row that has one, a prefix of the light rows,
    added in place.  Either way every output element accumulates ``0.0 +
    p_0 + p_1 + ...`` left to right, the order of the per-partial-product
    replay, so the output bytes are the same (IEEE 754 leaves open which
    NaN a sum of two NaNs returns, so only a NaN's sign bit may differ).

    Attributes:
        width: W, the columns of B and of the output.
        a_index: ``a_values`` position of every entry, heavy rows first,
            then the light steps.
        b_row: the W-wide ``b_values`` row every entry multiplies.
        heavy_ptr: entry offsets of the heavy rows.
        heavy_keys: the heavy ``bincount``'s bins, ``h * W + column``.
        step_ptr: entry offsets of the light steps.
        rank: work-buffer row of every touched output row, in output
            order.
    """

    width: int
    a_index: np.ndarray
    b_row: np.ndarray
    heavy_ptr: np.ndarray
    heavy_keys: np.ndarray
    step_ptr: np.ndarray
    rank: np.ndarray


@dataclass(frozen=True)
class HACCStream:
    """Every HACC a program dispatches, in program order, as columns.

    Op ``s`` dispatches HACCs ``op_start[s]:op_start[s + 1]``, in the
    order its A-tile rows (outer) and B-tile columns (inner) pair up.

    Attributes:
        op_start: HACC offset of every op, plus the total at the end.
        tag: 32-bit output-element identifier NeuraMem hashes, per HACC.
        value: partial-product value to accumulate.
        counter: rolling-eviction counter (total contributions to the
            HACC's output element).
        out_row / out_col: coordinates of the output element.
        writeback_addr: HBM address the evicted result is written to.
    """

    op_start: np.ndarray
    tag: np.ndarray
    value: np.ndarray
    counter: np.ndarray
    out_row: np.ndarray
    out_col: np.ndarray
    writeback_addr: np.ndarray


@dataclass(eq=False)
class Program:
    """A compiled NeuraChip program: the MMH instruction stream as columns
    (structure of arrays) plus the HBM layout its register fields address.

    All per-op columns have length ``n_instructions`` and are aligned with
    program order; operand payloads are stored once as flat arrays that the
    ops slice into, so the whole program costs O(a_nnz + b_nnz + output_nnz
    + n_instructions) memory, pickles as a handful of numpy buffers, and
    every aggregate a consumer needs (op counts, operand sizes, tag/counter
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
        address_map: operand layout in HBM.
        total_partial_products: the compiler's count of the HACCs the
            program dispatches (the IR verifier checks it against the op
            columns).
        source: human-readable description of the workload.
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
    address_map: AddressMap
    total_partial_products: int
    source: str = ""

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def n_instructions(self) -> int:
        """Number of MMH instructions."""
        return int(self.op_k.size)

    @property
    def output_nnz(self) -> int:
        """Number of non-zeros in the output matrix."""
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

    def operand_reads(self) -> np.ndarray:
        """The four HBM reads every op issues — A values, B column
        indices, B values, rolling counters, in that order — as an
        ``(n_instructions, 4, 2)`` int64 array of ``(address, nbytes)``: the
        operand-fetch rule of the memory model."""
        n_a = (self.op_a_hi - self.op_a_lo).astype(np.int64)
        n_b = (self.op_b_hi - self.op_b_lo).astype(np.int64)
        addresses = np.stack([self.op_a_addr, self.op_b_col_addr,
                              self.op_b_data_addr, self.op_counter_addr],
                             axis=1).astype(np.int64)
        sizes = np.stack([n_a, n_b, n_b, n_a * n_b], axis=1) * ELEMENT_BYTES
        return np.stack([addresses, sizes], axis=2)

    # ------------------------------------------------------------------
    # Structure-derived caches
    # ------------------------------------------------------------------
    def _derived(self) -> dict:
        """Cache of structure-only arrays derived from this program,
        shared by reference with every :func:`rebind_b_values` copy and
        dropped on pickling."""
        derived = self.__dict__.get("_derived_cache")
        if derived is None:
            derived = self.__dict__["_derived_cache"] = {}
        return derived

    def flat_keys(self) -> np.ndarray:
        """Ascending flattened output coordinates ``row * n_cols + col``,
        one per slot."""
        return (row_per_slot(self.out_indptr, self.shape[0])
                * self.shape[1] + self.out_indices)

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
        oracle uses, and the one the compiler's rolling-counter count and
        :meth:`build_replay_index` share.  ``dtype`` is the index
        arithmetic type; int32 needs fewer than 2**31 partial products.
        """
        a_index, n_a = self.expand_a_tiles(op_lo, op_hi, dtype)
        b_lo = self.op_b_lo[op_lo:op_hi]
        n_b = self.op_b_hi[op_lo:op_hi] - b_lo
        a_rep = np.repeat(n_b, n_a)
        ends = np.cumsum(a_rep, dtype=dtype)
        total = int(ends[-1]) if ends.size else 0
        b_index = (np.arange(total, dtype=dtype)
                   + np.repeat(np.repeat(b_lo, n_a) - ends + a_rep, a_rep))
        return a_index, a_rep, b_index

    def expand_a_tiles(self, op_lo: int = 0, op_hi: int | None = None,
                       dtype=np.int32) -> tuple[np.ndarray, np.ndarray]:
        """The ``a_rows`` / ``a_values`` position of every A-tile element
        of ops ``[op_lo, op_hi)``, op by op in program order, and each
        op's A-tile width."""
        a_lo = self.op_a_lo[op_lo:op_hi]
        n_a = self.op_a_hi[op_lo:op_hi] - a_lo
        ends_a = np.cumsum(n_a, dtype=dtype)
        total_a = int(ends_a[-1]) if ends_a.size else 0
        return (np.arange(total_a, dtype=dtype)
                + np.repeat(a_lo - ends_a + n_a, n_a)), n_a

    def pair_keys(self, a_index: np.ndarray, a_rep: np.ndarray | int,
                  b_index: np.ndarray) -> np.ndarray:
        """Flattened output coordinate of every partial product of an
        :meth:`expand_partial_products` expansion (int32 when the key
        space fits)."""
        n_cols = self.shape[1]
        dtype = (np.int32 if self.shape[0] * n_cols < _INT32_MAX
                 else np.int64)
        rows = np.take(self.a_rows, a_index).astype(dtype, copy=False)
        keys = np.repeat(rows * dtype(n_cols), a_rep)
        keys += np.take(self.b_cols, b_index)
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

    def replay_index(self) -> ReplayIndex:
        """The program's :class:`ReplayIndex`, built on first use (or
        published by a clean full-level IR verification) and cached
        (shared with rebound copies, never pickled).

        Raises:
            ValueError: naming the program's ``source`` when an op slice
                is out of bounds or a partial product has no output slot.
        """
        derived = self._derived()
        index = derived.get("replay")
        if index is None:
            index, problem = self.build_replay_index()
            if index is None:
                raise ValueError(
                    f"program {self.source or 'program'!r}: {problem}")
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
            pp_slot = np.take(slot_of_key, keys)
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

    def dense_replay_index(self) -> DenseReplayIndex | None:
        """The program's :class:`DenseReplayIndex`, or ``None`` when its
        op stream does not replay as one; built on first use and cached
        like :meth:`replay_index`."""
        derived = self._derived()
        if "replay_dense" not in derived:
            derived.setdefault("replay_dense",
                               self.build_dense_replay_index())
        return derived["replay_dense"]

    def build_dense_replay_index(self) -> DenseReplayIndex | None:
        """Build a :class:`DenseReplayIndex` from the current op columns,
        or return ``None`` unless the op stream provably replays as one:

        * every operand slice is in bounds and ``b_cols`` repeats
          ``0 .. W-1``, so B is a stack of full W-wide rows;
        * every A element sits in some op, and its ops' B tiles cover one
          such row exactly, in order, with no gap or overlap;
        * the ops of two A elements of one output row do not interleave,
          so every output element of the row sums in the same order;
        * every touched output row holds all W slots, and no other row
          holds any.

        Anything else — A @ A, a monster-row fragment's column range, an
        op stream corrupted in place — replays through the
        per-partial-product :class:`ReplayIndex`, whose checks raise.
        """
        width = self.shape[1]
        columns = np.arange(width)
        if (width == 0 or self.b_cols.size % width
                or self._replay_bounds_error() is not None
                or not (self.b_cols.reshape(-1, width) == columns).all()):
            return None
        # Every A-tile element, grouped per A element in program order.
        e_pos, n_a = self.expand_a_tiles(dtype=np.int64)
        e_op = np.repeat(np.arange(self.n_instructions), n_a)
        order = np.argsort(e_pos, kind="stable")
        e_pos, e_op = e_pos[order], e_op[order]
        lo, hi = self.op_b_lo[e_op], self.op_b_hi[e_op]
        first = np.ones(e_pos.size, dtype=bool)
        np.not_equal(e_pos[1:], e_pos[:-1], out=first[1:])
        last = np.ones(e_pos.size, dtype=bool)
        last[:-1] = first[1:]
        starts, lasts = np.flatnonzero(first), np.flatnonzero(last)
        if starts.size != self.a_rows.size:
            return None
        row_lo = lo[starts]
        if not (np.all(row_lo % width == 0)
                and np.all(first[1:] | (lo[1:] == hi[:-1]))
                and np.array_equal(hi[lasts], row_lo + width)):
            return None
        # A elements per output row, in program order.
        entries = np.lexsort((e_op[starts], self.a_rows))
        rows = self.a_rows[entries]
        if np.any((rows[1:] == rows[:-1])
                  & (e_op[lasts][entries[:-1]] >= e_op[starts][entries[1:]])):
            return None
        degree = np.bincount(rows, minlength=self.shape[0])
        touched = degree > 0
        n_touched = int(np.count_nonzero(touched))
        if not (self.out_indptr[0] == 0
                and np.array_equal(np.diff(self.out_indptr), width * touched)
                and self.out_indices.size == n_touched * width
                and (self.out_indices.reshape(-1, width) == columns).all()):
            return None
        # Work-buffer layout: rows by descending degree.  The step count
        # minimises n_steps + (rows with degree > n_steps), which keeps
        # the kernel's Python-level loop short on a power-law graph (about
        # 2 * sqrt(nnz) at worst) while the light rows, most of them,
        # take the cheaper in-place adds.
        row_degree = degree[touched]
        by_degree = np.argsort(-row_degree, kind="stable")
        rank = np.empty(n_touched, dtype=np.int64)
        rank[by_degree] = np.arange(n_touched)
        sorted_degree = row_degree[by_degree]
        steps = np.arange(int(sorted_degree[0]) + 1 if n_touched else 1)
        heavier = np.searchsorted(-sorted_degree, -steps, side="left")
        n_steps = int(np.argmin(steps + heavier))
        n_heavy = int(heavier[n_steps])
        compact = (np.cumsum(touched) - 1)[rows]
        row_start = np.cumsum(row_degree) - row_degree
        within = np.arange(entries.size) - row_start[compact]
        slot = rank[compact]
        heavy = np.flatnonzero(slot < n_heavy)
        heavy = heavy[np.lexsort((within[heavy], slot[heavy]))]
        light = np.flatnonzero(slot >= n_heavy)
        light = light[np.lexsort((slot[light], within[light]))]
        layout = entries[np.concatenate([heavy, light])]
        heavy_ptr = np.zeros(n_heavy + 1, dtype=np.int64)
        np.cumsum(sorted_degree[:n_heavy], out=heavy_ptr[1:])
        step_ptr = np.full(n_steps + 1, heavy_ptr[-1], dtype=np.int64)
        step_ptr[1:] += np.cumsum(np.bincount(within[light],
                                              minlength=n_steps))
        heavy_keys = (np.repeat(np.arange(n_heavy) * width,
                                sorted_degree[:n_heavy])[:, None]
                      + columns).reshape(-1)
        narrow = np.int32
        return DenseReplayIndex(
            width=width, a_index=layout.astype(narrow),
            b_row=(row_lo // width)[layout].astype(narrow),
            heavy_ptr=heavy_ptr, heavy_keys=heavy_keys, step_ptr=step_ptr,
            rank=rank.astype(narrow))

    def _replay_dense(self, index: DenseReplayIndex) -> np.ndarray:
        """Output values of a :class:`DenseReplayIndex` replay, one
        W-wide row per touched output row, in output order."""
        width = index.width
        a = self.a_values
        b = self.b_values.reshape(-1, width)
        out = np.zeros((index.rank.size, width), dtype=np.float64)
        n_heavy = index.heavy_ptr.size - 1
        if n_heavy:
            end = int(index.heavy_ptr[-1])
            products = (a[index.a_index[:end]][:, None]
                        * b[index.b_row[:end]]).reshape(-1)
            out[:n_heavy] = np.bincount(
                index.heavy_keys, weights=products,
                minlength=n_heavy * width).reshape(n_heavy, width)
        step_ptr = index.step_ptr.tolist()
        for lo, hi in zip(step_ptr, step_ptr[1:]):
            out[n_heavy:n_heavy + hi - lo] += (
                a[index.a_index[lo:hi]][:, None] * b[index.b_row[lo:hi]])
        return out[index.rank]

    def _products(self, index: ReplayIndex) -> np.ndarray:
        """Value of every partial product of ``index``, in program order."""
        products = np.repeat(np.take(self.a_values, index.a_index),
                             index.a_rep)
        products *= np.take(self.b_values, index.pp_b)
        return products

    def replay(self) -> CSRMatrix:
        """Numeric output C = A @ B, replayed from the op stream with this
        program's operand values — the output of every backend.

        A full-structure B replays over the A-level
        :class:`DenseReplayIndex`; any other program is one
        gather-multiply-scatter over the per-partial-product
        :class:`ReplayIndex`.  Either way every slot accumulates in
        ascending ``k``, so the result is byte-identical to the
        dense-merge vectorized kernel.  The returned CSR owns fresh int64
        ``indptr`` / ``indices`` and float64 ``data`` (it never aliases
        the program's arrays); its structure is checked once per program.
        """
        dense = self.dense_replay_index()
        if dense is not None:
            data = self._replay_dense(dense).reshape(-1)
        else:
            index = self.replay_index()
            data = (np.bincount(index.pp_slot,
                                weights=self._products(index),
                                minlength=self.output_nnz)
                    if index.pp_slot.size
                    else np.zeros(self.output_nnz, dtype=np.float64))
        build = (CSRMatrix.from_canonical
                 if self._derived().get("out_canonical") else CSRMatrix)
        output = build(self.out_indptr.astype(np.int64, copy=True),
                       self.out_indices.astype(np.int64, copy=True),
                       data, self.shape)  # CSRMatrix checks, or raises
        self._derived()["out_canonical"] = True
        return output

    def replay_dense(self) -> np.ndarray:
        """:meth:`replay` as a dense ``(rows, cols)`` array; a dense replay
        that touches every row builds no output index arrays."""
        index = self.dense_replay_index()
        if index is None or index.rank.size < self.shape[0]:
            return self.replay().to_dense()
        return self._replay_dense(index)

    def hacc_stream(self) -> HACCStream:
        """Every HACC this program dispatches (Algorithm 1's dispatch loop),
        built from the :class:`ReplayIndex` in one vectorized pass: the
        value is the partial product, the tag the 32-bit flattened output
        coordinate, the counter and write-back address those of the
        partial product's output slot."""
        index = self.replay_index()
        rows = np.repeat(np.take(self.a_rows, index.a_index), index.a_rep)
        cols = np.take(self.b_cols, index.pp_b)
        op_start = np.zeros(self.n_instructions + 1, dtype=np.int64)
        np.cumsum(self.partial_products_per_op, out=op_start[1:])
        return HACCStream(
            op_start=op_start,
            tag=(rows.astype(np.int64) * self.shape[1] + cols) & 0xFFFFFFFF,
            value=self._products(index),
            counter=np.take(self.out_counts, index.pp_slot),
            out_row=rows, out_col=cols,
            writeback_addr=(self.address_map.output_base
                            + index.pp_slot.astype(np.int64)
                            * ELEMENT_BYTES))

    # ------------------------------------------------------------------
    # Count-level summaries and encoding
    # ------------------------------------------------------------------
    @property
    def bloat_percent(self) -> float:
        """Equation 1 bloat for this program's workload."""
        return self.digest().bloat_percent

    @property
    def useful_flops(self) -> int:
        """Useful floating-point operations (multiply + add per partial product)."""
        return self.digest().useful_flops

    def digest(self) -> ProgramDigest:
        """Count-level summary suitable for cross-process result transfer."""
        return ProgramDigest(
            n_instructions=self.n_instructions,
            total_partial_products=self.total_partial_products,
            output_nnz=self.output_nnz,
            shape=self.shape,
            tile_size=self.tile_size,
            a_nnz=self.a_rows.size,
            b_nnz=self.b_cols.size,
            source=self.source)

    def encode_binary(self) -> bytes:
        """Serialise the MMH stream to the 128-bit binary format, one
        instruction per op from its address columns."""
        return b"".join(
            encode_mmh(MMHInstruction(
                opcode=self.opcode, base_addr=0, a_data_addr=a_data,
                b_col_ind_addr=b_col_ind, b_data_addr=b_data,
                roll_counter_addr=roll_counter)).to_bytes(16, "little")
            for a_data, b_col_ind, b_data, roll_counter in zip(
                self.op_a_addr.tolist(), self.op_b_col_addr.tolist(),
                self.op_b_data_addr.tolist(), self.op_counter_addr.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Program(source={self.source!r}, shape={self.shape}, "
                f"tile_size={self.tile_size}, "
                f"n_instructions={self.n_instructions}, "
                f"partial_products={self.total_partial_products})")

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
    serialise the program's columns.
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


def rebind_b_values(program: Program, b_csr, copy: bool = True) -> Program:
    """A copy of ``program`` with the B operand's *values*
    swapped for ``b_csr.data`` — structure, instruction stream and
    addressing untouched.

    This is the resident-graph fast path: the compiler's symbolic pass and
    lowering depend only on operand sparsity, so one compiled aggregation
    program serves every layer of a GNN stack as long as the feature
    matrices share a structure.  The cached program is never mutated — the
    caller gets a shallow copy whose ``b_values`` (the only value-bearing
    B array) are a float64 copy of the new data, owned by the program as
    a fresh compile's are, and whose structure-only derived cache (the
    replay indexes, the analytic predictions) is the original's, shared by
    reference so whichever copy replays first builds it for all.
    ``copy=False`` holds a B no caller holds (float64) as it is; a dense
    ``(n, W)`` ``b_csr`` binds its row-major values.

    Raises:
        ValueError: when ``b_csr``'s nnz does not match the structure the
            program was compiled for.
    """
    values = b_csr.reshape(-1) if isinstance(b_csr, np.ndarray) else b_csr.data
    values = (np.array if copy else np.asarray)(values, dtype=np.float64)
    if values.size != program.b_values.size:
        raise ValueError(
            f"operand structure mismatch: program was compiled for "
            f"{program.b_values.size} B non-zeros, got {values.size}")
    rebound = object.__new__(Program)
    rebound.__dict__.update(program.__dict__, b_values=values,
                            _derived_cache=program._derived())
    return rebound
