"""Pass 1 — the IR verifier: prove a compiled program well-formed.

Every check here is a vectorized numpy reduction over the columnar
:class:`~repro.compiler.program.ProgramArrays` payload — no macro-op is
ever materialized and nothing executes.  The invariants:

* **column alignment / dtypes** — every per-op column has length
  ``n_ops`` with the persisted narrow dtype; operand payloads agree.
* **operand slices** — every op's A/B tile slice is in-bounds, non-empty
  and no wider than the tile size.
* **operand offsets** — the architectural address columns land inside
  the operand regions of the :class:`~repro.compiler.program.AddressMap`
  layout *and* fit the 22-bit MMH register fields (Figure 7).  The
  22-bit limit lives here — the compiler's lowering imports it, so the
  compile-time check and the verifier can never drift apart.
* **row-group order** — ``(op_group, op_k)`` is lexicographically
  non-decreasing (the paper's row-stationary issue order) and the DRHM
  reseed flags sit exactly on the group boundaries.
* **output structure** — the symbolic CSR triple is canonical: monotone
  ``out_indptr``, strictly increasing flat slot keys, in-range columns,
  positive rolling counters.
* **counter histogram** — the rolling counters account for exactly the
  partial products the ops dispatch (total at ``level="quick"``,
  per-slot exact at ``level="full"``).
* **address exclusivity** — each HACC accumulation address is written
  only by ops sharing its ``(row, col)`` key: slot keys are unique,
  every op's counter address derives from its first pair's slot, and
  (at ``level="full"``) every expanded partial product lands on an
  existing slot.  This is the static race detector for the
  eviction-counter dataflow: two lanes can only collide on an
  accumulation address if they accumulate into the same output element,
  which is precisely what the rolling-eviction counter arbitrates.

At ``level="full"`` the partial products expand once, into the program's
:class:`~repro.compiler.program.ReplayIndex` built afresh from the op
columns (never a cached one); a clean result publishes that index for the
program's first replay.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.findings import Finding, VerificationError
from repro.compiler.program import (
    ELEMENT_BYTES,
    AddressMap,
    Program,
    ProgramArrays,
    ReplayIndex,
)

#: 22-bit register fields of the MMH instruction limit the per-instruction
#: operand offsets (Figure 7).  Shared by the compiler's lowering and the
#: verifier so the two checks can never disagree.
OFFSET_LIMIT = (1 << 22) - 1

#: The two verification depths: ``"quick"`` is O(n_ops + nnz) and skips
#: the partial-product expansion; ``"full"`` additionally builds the
#: program's replay index (every partial product's output slot) and proves
#: the per-slot counters exact.
VERIFY_LEVELS = ("quick", "full")


def require_offset(offset: int, operand: str = "operand") -> int:
    """Validate an operand offset against the 22-bit MMH register field.

    Offsets used to be silently masked (``offset & OFFSET_LIMIT``), which
    aliased addresses on operands larger than 4 MiB of laid-out data; an
    overflowing offset is an error with a remediation hint.
    """
    if offset > OFFSET_LIMIT:
        raise ValueError(
            f"{operand} offset {offset} exceeds the 22-bit MMH register "
            f"field (max {OFFSET_LIMIT}); the laid-out operands are too "
            "large for one program's address space.  Row-sharding the "
            "workload (e.g. SpGEMMSpec(shards=N)) helps when the A/output "
            "regions dominate the layout; a large B operand is replicated "
            "into every shard and must be shrunk (fewer columns / sparser "
            "features) instead")
    return offset


def check_offset_arrays(**named_arrays: np.ndarray) -> None:
    """Vectorized overflow check over per-op address columns; raises
    ``ValueError`` (via :func:`require_offset`) on the first overflow."""
    for operand, addresses in named_arrays.items():
        if addresses.size and int(addresses.max()) > OFFSET_LIMIT:
            require_offset(int(addresses.max()), operand)


# ----------------------------------------------------------------------
# Finding helpers
# ----------------------------------------------------------------------
def _finding(check: str, source: str, message: str) -> Finding:
    return Finding(pass_name="ir", check=check, location=source or "program",
                   message=message)


def _first_bad(mask: np.ndarray) -> int:
    """Index of the first True in a violation mask."""
    return int(np.flatnonzero(mask)[0])


# ----------------------------------------------------------------------
# Stage A: shape / dtype / slice sanity (later stages index through these)
# ----------------------------------------------------------------------
_OP_COLUMNS = ("op_k", "op_group", "op_a_lo", "op_a_hi", "op_b_lo",
               "op_b_hi", "op_slot", "op_a_addr", "op_b_col_addr",
               "op_b_data_addr", "op_counter_addr")


def _check_layout(arrays: ProgramArrays, source: str) -> list[Finding]:
    findings: list[Finding] = []
    n_ops = int(arrays.op_k.size)
    for name in _OP_COLUMNS:
        column = getattr(arrays, name)
        if column.size != n_ops:
            findings.append(_finding(
                "column-alignment", source,
                f"per-op column {name} has {column.size} entries; "
                f"program order has {n_ops} ops"))
        elif column.dtype != np.int32:
            findings.append(_finding(
                "column-dtype", source,
                f"per-op column {name} is {column.dtype}; the persisted "
                "payload must be int32"))
    if arrays.op_reseed.size != n_ops:
        findings.append(_finding(
            "column-alignment", source,
            f"op_reseed has {arrays.op_reseed.size} entries for {n_ops} ops"))
    elif arrays.op_reseed.dtype != np.bool_:
        findings.append(_finding(
            "column-dtype", source,
            f"op_reseed is {arrays.op_reseed.dtype}; expected bool"))
    if arrays.out_indices.size != arrays.out_counts.size:
        findings.append(_finding(
            "column-alignment", source,
            f"out_indices ({arrays.out_indices.size}) and out_counts "
            f"({arrays.out_counts.size}) disagree on output nnz"))
    if arrays.out_indptr.size != arrays.shape[0] + 1:
        findings.append(_finding(
            "column-alignment", source,
            f"out_indptr has {arrays.out_indptr.size} entries for "
            f"{arrays.shape[0]} output rows"))
    if arrays.a_rows.size != arrays.a_values.size:
        findings.append(_finding(
            "column-alignment", source,
            f"a_rows ({arrays.a_rows.size}) and a_values "
            f"({arrays.a_values.size}) disagree on A nnz"))
    if arrays.b_cols.size != arrays.b_values.size:
        findings.append(_finding(
            "column-alignment", source,
            f"b_cols ({arrays.b_cols.size}) and b_values "
            f"({arrays.b_values.size}) disagree on B nnz"))
    return findings


def _check_slices(arrays: ProgramArrays, source: str) -> list[Finding]:
    findings: list[Finding] = []
    tile = int(arrays.tile_size)
    for name, lo, hi, size in (
            ("A", arrays.op_a_lo, arrays.op_a_hi, arrays.a_rows.size),
            ("B", arrays.op_b_lo, arrays.op_b_hi, arrays.b_cols.size)):
        # int32 throughout: hi - lo can only wrap when lo < 0 or
        # hi > size, and either already sets `bad` through the or-chain.
        bad = (lo < 0) | (hi > size) | (hi <= lo) | (hi - lo > tile)
        if np.any(bad):
            index = _first_bad(bad)
            findings.append(_finding(
                "operand-slices", source,
                f"op {index}: {name}-tile slice [{int(lo[index])}, "
                f"{int(hi[index])}) violates 0 <= lo < hi <= {size} with "
                f"width <= tile_size={tile}"))
    return findings


# ----------------------------------------------------------------------
# Stage B: addresses, ordering, output structure, counters, exclusivity
# ----------------------------------------------------------------------
def _check_offsets(arrays: ProgramArrays, address_map: AddressMap,
                   source: str) -> list[Finding]:
    findings: list[Finding] = []
    regions = address_map.regions()
    # Address arithmetic stays in the columns' native int32 when the whole
    # address map plus one tile provably fits (stage A bounded lo within
    # [0, operand size], so start + lo * 4 cannot wrap under this gate);
    # oversized maps fall back to int64.
    max_nnz = max(arrays.a_rows.size, arrays.b_cols.size)
    narrow = (int(address_map.total_bytes) + (max_nnz + 8) * ELEMENT_BYTES
              < np.iinfo(np.int32).max)
    work = np.int32 if narrow else np.int64
    columns = (
        ("op_a_addr", arrays.op_a_addr, arrays.op_a_lo, arrays.op_a_hi,
         "a_data"),
        ("op_b_col_addr", arrays.op_b_col_addr, arrays.op_b_lo,
         arrays.op_b_hi, "b_col_ind"),
        ("op_b_data_addr", arrays.op_b_data_addr, arrays.op_b_lo,
         arrays.op_b_hi, "b_data"),
    )
    # Fast path: one stacked comparison across all three operand columns;
    # the per-column loop below only runs to name the failing column.
    # Wraparound in tile_end when addr exceeds OFFSET_LIMIT is harmless:
    # the field-width clause already marks that op bad.
    addr3 = np.stack([c[1] for c in columns])
    lo3 = np.stack([c[2] for c in columns]).astype(work, copy=False)
    hi3 = np.stack([c[3] for c in columns]).astype(work, copy=False)
    start3 = np.array([[regions[c[4]][0]] for c in columns], dtype=work)
    end3 = np.array([[regions[c[4]][1]] for c in columns], dtype=work)
    bad3 = ((addr3 < 0) | (addr3 > OFFSET_LIMIT)
            | (addr3 != start3 + lo3 * ELEMENT_BYTES)
            | (addr3.astype(work, copy=False)
               + (hi3 - lo3) * ELEMENT_BYTES > end3))
    clean = not bad3.any()
    for name, addr, lo, hi, region in () if clean else columns:
        over = (addr < 0) | (addr > OFFSET_LIMIT)
        if np.any(over):
            index = _first_bad(over)
            findings.append(_finding(
                "offset-field-width", source,
                f"op {index}: {name}={int(addr[index])} does not fit "
                f"the 22-bit MMH register field (max {OFFSET_LIMIT})"))
            continue
        start, end = regions[region]
        lo = lo.astype(work, copy=False)
        expected = start + lo * ELEMENT_BYTES
        tile_end = (addr.astype(work, copy=False)
                    + (hi.astype(work, copy=False) - lo) * ELEMENT_BYTES)
        bad = (addr != expected) | (tile_end > end)
        if np.any(bad):
            index = _first_bad(bad)
            findings.append(_finding(
                "operand-offsets", source,
                f"op {index}: {name}={int(addr[index])} does not match "
                f"the {region} region [{start}, {end}) of the address map "
                f"(expected {int(expected[index])}, tile ends at "
                f"{int(tile_end[index])})"))
    counter = arrays.op_counter_addr.astype(work, copy=False)
    over = (counter < 0) | (counter > OFFSET_LIMIT)
    if np.any(over):
        index = _first_bad(over)
        findings.append(_finding(
            "offset-field-width", source,
            f"op {index}: op_counter_addr={int(counter[index])} does not "
            f"fit the 22-bit MMH register field (max {OFFSET_LIMIT})"))
    else:
        start, end = regions["roll_counter"]
        bad = (counter < start) | (counter + ELEMENT_BYTES > end)
        if np.any(bad):
            index = _first_bad(bad)
            findings.append(_finding(
                "operand-offsets", source,
                f"op {index}: op_counter_addr={int(counter[index])} lies "
                f"outside the roll_counter region [{start}, {end})"))
    return findings


def _check_row_groups(arrays: ProgramArrays, source: str) -> list[Finding]:
    findings: list[Finding] = []
    if arrays.n_ops < 1:
        return findings
    group = arrays.op_group.astype(np.int64)
    k = arrays.op_k.astype(np.int64)
    group_step = np.diff(group)
    bad = (group_step < 0) | ((group_step == 0) & (np.diff(k) < 0))
    if np.any(bad):
        index = _first_bad(bad)
        findings.append(_finding(
            "row-group-order", source,
            f"ops {index}->{index + 1}: row-group keys "
            f"({int(group[index])}, {int(k[index])}) -> "
            f"({int(group[index + 1])}, {int(k[index + 1])}) are not "
            "lexicographically non-decreasing"))
    expected_reseed = np.empty(arrays.n_ops, dtype=bool)
    expected_reseed[-1] = True
    np.not_equal(group[1:], group[:-1], out=expected_reseed[:-1])
    mismatch = arrays.op_reseed != expected_reseed
    if np.any(mismatch):
        index = _first_bad(mismatch)
        findings.append(_finding(
            "reseed-boundaries", source,
            f"op {index}: op_reseed={bool(arrays.op_reseed[index])} but the "
            f"row-group boundary mask says {bool(expected_reseed[index])}"))
    return findings


def _check_output_structure(arrays: ProgramArrays, source: str
                            ) -> tuple[list[Finding], np.ndarray | None]:
    """Findings plus the flat output keys, which later stages reuse
    (``None`` when the structure is too broken to compute them)."""
    findings: list[Finding] = []
    indptr = arrays.out_indptr
    nnz = arrays.out_indices.size
    if int(indptr[0]) != 0 or int(indptr[-1]) != nnz:
        findings.append(_finding(
            "output-structure", source,
            f"out_indptr spans [{int(indptr[0])}, {int(indptr[-1])}] for "
            f"{nnz} output slots (must span [0, nnz])"))
        return findings, None
    if np.any(np.diff(indptr) < 0):
        findings.append(_finding(
            "output-structure", source, "out_indptr is not non-decreasing"))
        return findings, None
    indices = arrays.out_indices.astype(np.int64)
    n_cols = arrays.shape[1]
    if nnz and (int(indices.min()) < 0 or int(indices.max()) >= n_cols):
        findings.append(_finding(
            "output-structure", source,
            f"out_indices outside [0, {n_cols}) for shape {arrays.shape}"))
        return findings, None
    flat = arrays.flat_keys()
    if nnz > 1 and np.any(np.diff(flat) <= 0):
        index = _first_bad(np.diff(flat) <= 0)
        findings.append(_finding(
            "output-structure", source,
            f"slots {index}->{index + 1}: flat output keys "
            f"{int(flat[index])} -> {int(flat[index + 1])} are not "
            "strictly increasing (duplicate or unsorted output slot)"))
    if nnz and int(arrays.out_counts.min()) < 1:
        index = _first_bad(arrays.out_counts < 1)
        findings.append(_finding(
            "counter-histogram", source,
            f"slot {index}: rolling counter "
            f"{int(arrays.out_counts[index])} < 1 (every stored output "
            "element accumulates at least one partial product)"))
    return findings, flat


def _check_counters_and_exclusivity(arrays: ProgramArrays,
                                    address_map: AddressMap, source: str,
                                    total_partial_products: int | None,
                                    level: str, flat: np.ndarray
                                    ) -> tuple[list[Finding],
                                               ReplayIndex | None]:
    """Findings plus, at ``level="full"`` on a clean program, the replay
    index the per-slot proof built (``None`` otherwise)."""
    findings: list[Finding] = []
    nnz = arrays.output_nnz
    # Stage A bounded tile widths to (0, tile_size], so the per-op product
    # fits int32; the sums still reduce in int64.
    dispatched = int(arrays.partial_products_per_op.sum(dtype=np.int64))
    counted = int(arrays.out_counts.sum(dtype=np.int64))
    if dispatched != counted:
        findings.append(_finding(
            "counter-histogram", source,
            f"ops dispatch {dispatched} partial products but the rolling "
            f"counters account for {counted}"))
    if total_partial_products is not None \
            and dispatched != total_partial_products:
        findings.append(_finding(
            "counter-histogram", source,
            f"ops dispatch {dispatched} partial products; the program "
            f"header claims {total_partial_products}"))

    # First-pair slot derivation: every op's counter address must point at
    # the slot of its first (row, col) pair.
    slot = arrays.op_slot
    bad_slot = (slot < 0) | (slot >= max(nnz, 1))
    if arrays.n_ops and np.any(bad_slot):
        index = _first_bad(bad_slot)
        findings.append(_finding(
            "address-exclusivity", source,
            f"op {index}: op_slot={int(slot[index])} outside the "
            f"{nnz}-slot output structure"))
        return findings, None
    if arrays.n_ops:
        # Each op's first pair: its A-tile's first element once, against
        # its B-tile's first element.
        first_key = arrays.pair_keys(arrays.op_a_lo, 1, arrays.op_b_lo)
        mismatch = flat[slot] != first_key
        if np.any(mismatch):
            index = _first_bad(mismatch)
            findings.append(_finding(
                "address-exclusivity", source,
                f"op {index}: op_slot={int(slot[index])} holds output key "
                f"{int(flat[slot[index]])} but the op's first (row, col) "
                f"pair is key {int(first_key[index])} — the counter "
                "address would be shared across distinct output elements"))
        expected_addr = (address_map.roll_counter_base
                         + slot.astype(np.int64) * ELEMENT_BYTES)
        bad_addr = arrays.op_counter_addr != expected_addr
        if np.any(bad_addr):
            index = _first_bad(bad_addr)
            findings.append(_finding(
                "address-exclusivity", source,
                f"op {index}: op_counter_addr="
                f"{int(arrays.op_counter_addr[index])} does not derive "
                f"from its slot (expected {int(expected_addr[index])}) — "
                "two ops could accumulate at one address without sharing "
                "an output key"))
    if level != "full" or findings:
        return findings, None

    # Full level: build the replay index afresh from the op columns (never
    # a cached one), so every partial product resolves to its slot, then
    # prove the per-slot counters exact.
    replay, problem = arrays.build_replay_index()
    if replay is None:
        findings.append(_finding("address-exclusivity", source, problem))
        return findings, None
    accumulated = np.bincount(replay.pp_slot, minlength=nnz)
    mismatch = accumulated != arrays.out_counts
    if np.any(mismatch):
        index = _first_bad(mismatch)
        findings.append(_finding(
            "counter-histogram", source,
            f"slot {index} (key {int(flat[index])}): ops dispatch "
            f"{int(accumulated[index])} partial products but the rolling "
            f"counter says {int(arrays.out_counts[index])} — the eviction "
            "countdown would fire early or never"))
        return findings, None
    return findings, replay


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_arrays(arrays: ProgramArrays, address_map: AddressMap,
                  source: str = "program",
                  total_partial_products: int | None = None,
                  level: str = "full") -> list[Finding]:
    """Verify one columnar payload; returns findings (empty == proven).

    A clean full-level pass publishes the replay index it built into the
    payload's derived cache (unless one is already there), so the
    program's first replay reuses it instead of expanding again.
    """
    if level not in VERIFY_LEVELS:
        raise ValueError(f"unknown verify level {level!r}; expected one of "
                         f"{VERIFY_LEVELS}")
    findings = _check_layout(arrays, source)
    if findings:
        return findings  # later stages index through the columns
    findings = _check_slices(arrays, source)
    structure_findings, flat = _check_output_structure(arrays, source)
    findings += structure_findings
    if findings:
        return findings  # slot lookups below need sane slices/structure
    findings += _check_offsets(arrays, address_map, source)
    findings += _check_row_groups(arrays, source)
    counter_findings, replay = _check_counters_and_exclusivity(
        arrays, address_map, source, total_partial_products, level, flat)
    findings += counter_findings
    if not findings and replay is not None:
        arrays._derived().setdefault("replay", replay)
    return findings


def verify_program(program: Program, level: str = "full") -> list[Finding]:
    """Verify a compiled :class:`Program` without executing it."""
    return verify_arrays(program.arrays, program.address_map,
                         source=program.source or "program",
                         total_partial_products=program.total_partial_products,
                         level=level)


def assert_program_valid(program: Program, level: str = "full") -> Program:
    """Raise :class:`VerificationError` unless ``program`` verifies clean."""
    findings = verify_program(program, level=level)
    if findings:
        raise VerificationError(
            f"program {program.source!r} failed IR verification: "
            + "; ".join(f.format() for f in findings[:3]),
            findings)
    return program
