"""Row-shard planning: split one SpGEMM into balanced row-group partitions.

Rows of A partition the partial products of C = A @ B exactly — each row of
C accumulates only products of the matching A row — so row groups of A are
the unit of both host-side sharded execution
(:class:`~repro.core.session.Session` with ``shards > 1``) and multi-chip
scale-out (:mod:`repro.backends.multichip`): per-group products reduce into
a result identical to the unsharded product.

Two planners share that contract:

* **contiguous** (:func:`plan_row_shards`) — balanced contiguous row
  *ranges*, reduced with :func:`~repro.sparse.convert.csr_vstack`.  Cheap
  and cache-friendly, but a single hub row on a power-law graph puts a
  hard floor under shard skew: the shard owning the hub cannot shed work
  without breaking contiguity.
* **degree-aware** (:func:`plan_shards` with ``strategy="degree"``) —
  drops the contiguity constraint.  Rows are bucketed by partial-product
  weight into log2 degree classes; the heavy head is placed by exact LPT
  (least-loaded shard first), the light tail class by class with a
  deficit-proportional fill; and any single row whose weight exceeds the
  per-shard budget is *merge-path split* into output-column-range
  fragments, each a full-width 1-row product over a column slice of B.
  Shards become sorted row-id index sets plus fragments, and
  :func:`stitch_shard_outputs` reassembles the exact unsharded CSR.

Column-range fragments are the load-bearing design choice: every output
coordinate of a split row is produced entirely inside exactly one
fragment, with its partial products encountered in the same ascending-k
order as the unsharded kernel — so the stitched result is byte-identical
for arbitrary float data (splitting the *A entries* of a row instead
would re-associate the floating-point sums).  Stitching is therefore pure
concatenation: no fragment ever contributes to the same output entry as
another.

The planner lives in the sparse layer (below both the session and the
backends) because it only ever touches operand structure; ``repro.core``
re-exports it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix, full_structure_csr

#: Partition strategies accepted by :func:`plan_shards` (and the
#: ``partition=`` knob on sessions / chip topologies).
PARTITION_STRATEGIES = ("auto", "contiguous", "degree")

#: Auto-select probe: when the contiguous plan's skew (max/mean shard
#: load) stays at or below this, contiguity is kept — the degree-aware
#: planner only takes over where the contiguous planner is measurably
#: imbalanced (hub rows, power-law tails).
DEGREE_AUTO_SKEW_THRESHOLD = 1.1

#: Modeled fixed cost, in partial-product units, of each independent
#: product a shard compiles and executes.  Contiguous shards run exactly
#: one product; degree plans add one per monster-row fragment, and that
#: compile/dispatch latency is real — a plan that shaves a few partial
#: products of load by splitting a row into many fragments can lose on
#: wall clock.  The auto probe charges this overhead to both candidate
#: plans before comparing them (:func:`modeled_makespan`).
UNIT_OVERHEAD_PP = 32

#: Heaviest items per shard that get exact heapq LPT placement; the
#: remaining light tail is filled class by class with one vectorized
#: deficit-proportional pass per degree class.
LPT_HEAD_PER_SHARD = 8


def estimate_row_partial_products(a_csr: CSRMatrix,
                                  b_csr: CSRMatrix) -> np.ndarray:
    """Exact partial products each row of A contributes to A @ B.

    Row ``i`` of C accumulates ``sum(nnz(B[k, :]) for k in A[i, :])``
    partial products — the same per-inner-index counts the columnar
    symbolic pass reduces over, computed here with one gather and a
    prefix sum (no symbolic pass, no Python loop).
    """
    if a_csr.shape[1] != b_csr.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a_csr.shape}, "
                         f"B is {b_csr.shape}")
    entry_weights = b_csr.row_nnz_counts()[a_csr.indices]
    prefix = np.zeros(a_csr.nnz + 1, dtype=np.int64)
    np.cumsum(entry_weights, out=prefix[1:])
    return prefix[a_csr.indptr[1:]] - prefix[a_csr.indptr[:-1]]


def resolve_shard_weights(a_csr: CSRMatrix,
                          b_csr: CSRMatrix | None = None,
                          weights: np.ndarray | None = None) -> np.ndarray:
    """Per-row planning weights with the shared degenerate-input fallback.

    With ``b_csr`` given the weight is the exact partial-product count
    (:func:`estimate_row_partial_products`); when that sum is zero — a
    structurally empty product — the planner falls back to nnz-of-A so
    rows with entries still spread across shards.  Without ``b_csr`` the
    nnz-of-A proxy is used directly.  ``weights`` short-circuits both
    (a caller that already computed the array shares it unchanged).

    Both :func:`plan_row_shards` / :func:`plan_shards` and the analytic
    fast path :func:`~repro.backends.multichip.predict_scaleout` resolve
    their weights here, so predicted plans always match executed plans.
    """
    if weights is not None:
        return np.asarray(weights)
    if b_csr is not None:
        weights = estimate_row_partial_products(a_csr, b_csr)
        if int(weights.sum()) == 0:  # structurally empty product
            weights = a_csr.row_nnz_counts()
        return weights
    return a_csr.row_nnz_counts()


def plan_row_shards(a_csr: CSRMatrix, n_shards: int,
                    b_csr: CSRMatrix | None = None,
                    weights: np.ndarray | None = None
                    ) -> list[tuple[int, int]]:
    """Split the rows of A into up to ``n_shards`` contiguous groups
    balanced by per-shard work.

    With ``b_csr`` given, rows are weighted by their *exact* partial-product
    count (nnz of each A row weighted by the matching B-row sizes — see
    :func:`estimate_row_partial_products`), which is the quantity that
    actually determines per-shard compile and execute cost; power-law graphs
    shard far more evenly this way than under the older nnz-of-A proxy,
    which remains the fallback when ``b_csr`` is omitted.  Row slices
    partition the partial products of A @ B exactly, so the reduced result
    is identical either way.

    Returns half-open ``(start, stop)`` row ranges that cover every row
    exactly once.  Degenerate requests return *fewer* shards instead of
    producing empty-work shards that would flow into compile /
    ``csr_vstack``:

    * more shards than rows — clamped to the row count;
    * leading/trailing/interior runs of all-zero-weight rows — every
      planned shard carries at least one unit of work (zero-weight rows
      are absorbed into a neighbouring shard);
    * a structurally empty A (or empty product) — one shard spanning all
      rows;
    * a zero-row A — the single degenerate range ``[(0, 0)]``, which
      callers reduce exactly like an unsharded run.

    ``weights`` lets a caller that already computed the per-row weight
    array (e.g. :func:`estimate_row_partial_products`) share it instead of
    paying the gather again.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_rows = a_csr.shape[0]
    if n_rows == 0:
        return [(0, 0)]
    weights = resolve_shard_weights(a_csr, b_csr, weights)
    # Plan over the rows that actually carry work: shard boundaries land
    # on positive-weight rows only, so no shard can be all-empty (the old
    # planner emitted zero-work slices that flowed into compile and
    # csr_vstack on sparse or empty inputs).
    positive = np.flatnonzero(weights > 0)
    if positive.size == 0:  # all rows empty: one shard, no empty programs
        return [(0, n_rows)]
    n_shards = min(n_shards, int(positive.size))
    if n_shards == 1:
        return [(0, n_rows)]
    cumulative = np.cumsum(weights[positive])
    total = int(cumulative[-1])
    cuts = [0]  # indices into the positive-row list
    for shard in range(1, n_shards):
        cut = int(np.searchsorted(cumulative, total * shard / n_shards,
                                  side="left")) + 1
        # Keep every shard non-empty even on pathological distributions.
        cut = min(max(cut, cuts[-1] + 1),
                  int(positive.size) - (n_shards - shard))
        cuts.append(cut)
    # Each interior boundary starts its shard at that positive row; the
    # zero-weight rows before it ride along with the preceding shard.
    bounds = [0, *(int(positive[c]) for c in cuts[1:]), n_rows]
    return list(zip(bounds[:-1], bounds[1:]))


# ----------------------------------------------------------------------
# Degree-aware index-set plans
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class RowFragment:
    """One column-range fragment of a split (monster) row.

    The fragment computes ``A[row, :] @ B[:, col_lo:col_hi]`` — the full
    1-row A slice against a column slice of B that keeps B's shape, so
    column ids stay global and the fragment's output is exactly the
    matching column range of the unsharded output row.
    """

    row: int
    col_lo: int
    col_hi: int
    weight: int


@dataclass(frozen=True, eq=False)
class ShardAssignment:
    """The work one shard owns: a sorted row-id index set plus fragments."""

    rows: np.ndarray
    fragments: tuple[RowFragment, ...] = ()

    @property
    def n_units(self) -> int:
        """Independent SpGEMM products this shard compiles and executes."""
        return (1 if self.rows.size or not self.fragments else 0) \
            + len(self.fragments)


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """A full partitioning of one SpGEMM across shards.

    ``ranges`` is set for contiguous plans (the historical range list,
    enabling the ``row_slice`` / ``csr_vstack`` fast path); degree-aware
    plans leave it ``None`` and carry index sets + fragments instead.
    ``loads`` is the per-shard partial-product histogram the plan was
    balanced over — the quantity skew and efficiency are defined on.
    """

    n_rows: int
    strategy: str
    shards: tuple[ShardAssignment, ...]
    loads: np.ndarray
    split_rows: tuple[int, ...] = ()
    ranges: tuple[tuple[int, int], ...] | None = None

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def contiguous(self) -> bool:
        return self.ranges is not None

    @property
    def skew(self) -> float:
        """Max/mean shard load; 1.0 for empty or single-shard plans."""
        if self.loads.size == 0:
            return 1.0
        mean = float(self.loads.sum()) / self.loads.size
        return float(self.loads.max()) / mean if mean else 1.0

    @property
    def efficiency(self) -> float:
        """Predicted scale-out efficiency: total / (n_shards * max load)."""
        peak = int(self.loads.max()) if self.loads.size else 0
        if not peak:
            return 1.0
        return float(self.loads.sum()) / (self.loads.size * peak)


def _contiguous_plan(a_csr: CSRMatrix, n_shards: int,
                     weights: np.ndarray) -> ShardPlan:
    ranges = plan_row_shards(a_csr, n_shards, weights=weights)
    loads = shard_partial_products(a_csr, ranges, weights=weights)
    shards = tuple(ShardAssignment(rows=np.arange(lo, hi, dtype=np.int64))
                   for lo, hi in ranges)
    return ShardPlan(n_rows=a_csr.shape[0], strategy="contiguous",
                     shards=shards, loads=loads,
                     ranges=tuple((int(lo), int(hi)) for lo, hi in ranges))


def _split_monster_row(a_csr: CSRMatrix, b_csr: CSRMatrix, row: int,
                       budget: float,
                       n_shards: int) -> tuple[RowFragment, ...] | None:
    """Merge-path split of one row's product into column-range fragments.

    The row's partial products are, one each, the entries of the B rows
    its A entries select; sorting that column multiset and cutting at
    equal-count quantiles yields column ranges with near-equal
    partial-product weight — the merge-path construction, applied to the
    output columns so each fragment owns its output entries outright.
    Returns ``None`` when no non-trivial split exists (empty product row,
    or all weight on one column).
    """
    k_cols = a_csr.indices[a_csr.indptr[row]:a_csr.indptr[row + 1]]
    counts = b_csr.row_nnz_counts()[k_cols]
    total = int(counts.sum())
    if total <= 1:
        return None
    starts = b_csr.indptr[k_cols]
    offsets = np.zeros(k_cols.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    gather = np.arange(total, dtype=np.int64) \
        + np.repeat(starts - offsets[:-1], counts)
    cols = np.sort(b_csr.indices[gather])
    n_frags = min(int(np.ceil(total / max(budget, 1.0))), n_shards, total)
    if n_frags <= 1:
        return None
    quantiles = (np.arange(1, n_frags) * total) // n_frags
    bound_cols = np.unique(cols[quantiles])
    # Keep only boundaries that separate weight: each kept edge strictly
    # advances the position in the sorted column multiset, so every
    # fragment is non-empty and the edges still cover [0, n_cols).
    positions = np.searchsorted(cols, bound_cols, side="left")
    edges = [0]
    last_position = 0
    for bound, position in zip(bound_cols.tolist(), positions.tolist()):
        if last_position < position < total:
            edges.append(int(bound))
            last_position = int(position)
    edges.append(b_csr.shape[1])
    if len(edges) < 3:
        return None
    bounds = np.asarray(edges, dtype=np.int64)
    frag_weights = (np.searchsorted(cols, bounds[1:], side="left")
                    - np.searchsorted(cols, bounds[:-1], side="left"))
    return tuple(RowFragment(row=int(row), col_lo=int(lo), col_hi=int(hi),
                             weight=int(w))
                 for lo, hi, w in zip(bounds[:-1], bounds[1:], frag_weights))


def _fill_bucket(loads: np.ndarray, item_weights: np.ndarray,
                 items: np.ndarray, shard_of: np.ndarray) -> None:
    """Assign one degree class of light items in a single vectorized pass.

    Each shard gets a contiguous chunk of the (weight-descending) class
    sized proportionally to its load deficit against the post-class mean,
    so light classes flow to whichever shards the heavy head left behind.
    """
    w = item_weights[items]
    class_total = int(w.sum())
    n = loads.size
    target = (float(loads.sum()) + class_total) / n
    deficit = np.maximum(target - loads, 0.0)
    if deficit.sum() <= 0.0:  # every shard already above target
        deficit = np.ones(n)
    order = np.argsort(-deficit, kind="stable")
    cumulative_share = np.cumsum(deficit[order] / deficit.sum() * class_total)
    midpoints = np.cumsum(w) - w * 0.5
    chunk = np.minimum(np.searchsorted(cumulative_share, midpoints,
                                       side="left"), n - 1)
    shards = order[chunk]
    shard_of[items] = shards
    np.add.at(loads, shards, w)


def _degree_plan(a_csr: CSRMatrix, n_shards: int,
                 b_csr: CSRMatrix | None,
                 weights: np.ndarray) -> ShardPlan | None:
    """Degree-bucketed LPT plan with monster-row splitting; ``None`` when
    the input is too degenerate for more than one shard."""
    n_rows = a_csr.shape[0]
    positive = np.flatnonzero(weights > 0)
    if positive.size == 0 or n_shards < 2:
        return None
    total = int(weights[positive].sum())
    budget = max(total / n_shards, 1.0)

    # (c) merge-path split: any single row heavier than the per-shard
    # budget becomes column-range fragments no shard has to swallow whole.
    fragments_of: dict[int, tuple[RowFragment, ...]] = {}
    if b_csr is not None:
        for row in positive[weights[positive] > budget].tolist():
            fragments = _split_monster_row(a_csr, b_csr, int(row), budget,
                                           n_shards)
            if fragments is not None:
                fragments_of[int(row)] = fragments
    split_rows = tuple(sorted(fragments_of))
    is_split = np.isin(positive, np.asarray(split_rows, dtype=np.int64))
    whole_rows = positive[~is_split]
    fragment_list = [fragment for row in split_rows
                     for fragment in fragments_of[row]]
    item_weights = np.concatenate([
        weights[whole_rows].astype(np.int64),
        np.array([f.weight for f in fragment_list], dtype=np.int64),
    ])
    n_items = int(item_weights.size)
    n_effective = min(n_shards, n_items)
    if n_effective < 2:
        return None

    # (a) bucket by weight into log2 degree classes; (b) LPT the heavy
    # head exactly, then fill each remaining class deficit-proportionally.
    order = np.argsort(-item_weights, kind="stable")
    head_n = min(n_items, LPT_HEAD_PER_SHARD * n_effective)
    loads = np.zeros(n_effective, dtype=np.int64)
    shard_of = np.empty(n_items, dtype=np.int64)
    heap = [(0, shard) for shard in range(n_effective)]
    for item in order[:head_n].tolist():
        load, shard = heapq.heappop(heap)
        shard_of[item] = shard
        heapq.heappush(heap, (load + int(item_weights[item]), shard))
    for load, shard in heap:
        loads[shard] = load
    tail = order[head_n:]
    if tail.size:
        classes = np.floor(np.log2(item_weights[tail])).astype(np.int64)
        run_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(classes) != 0) + 1, [tail.size]))
        for lo, hi in zip(run_starts[:-1], run_starts[1:]):
            _fill_bucket(loads, item_weights, tail[lo:hi], shard_of)

    # Coverage: zero-weight rows produce empty output rows wherever they
    # run; spread them evenly so every row is owned exactly once.
    zero_chunks = np.array_split(np.flatnonzero(weights == 0), n_effective)
    whole_shard = shard_of[:whole_rows.size]
    fragment_shard = shard_of[whole_rows.size:]
    shards = []
    for shard in range(n_effective):
        rows = np.sort(np.concatenate([whole_rows[whole_shard == shard],
                                       zero_chunks[shard]])).astype(np.int64)
        fragments = tuple(sorted(
            (fragment for fragment, owner in zip(fragment_list, fragment_shard)
             if owner == shard),
            key=lambda fragment: (fragment.row, fragment.col_lo)))
        shards.append(ShardAssignment(rows=rows, fragments=fragments))
    return ShardPlan(n_rows=n_rows, strategy="degree", shards=tuple(shards),
                     loads=loads, split_rows=split_rows)


def modeled_makespan(plan: ShardPlan,
                     unit_overhead_pp: float = UNIT_OVERHEAD_PP) -> float:
    """Modeled parallel completion time of a plan, in partial products.

    Each shard finishes after its balanced load plus a fixed
    ``unit_overhead_pp`` charge per independent product it compiles and
    executes (:attr:`ShardAssignment.n_units`: one for the whole-row
    index set, plus one per monster-row fragment); the plan completes
    when its slowest shard does.  With zero overhead this reduces to the
    max shard load — the pure skew comparison the auto probe used before
    fragment counts existed.
    """
    if plan.loads.size == 0:
        return 0.0
    units = np.array([shard.n_units for shard in plan.shards],
                     dtype=np.float64)
    return float(np.max(plan.loads + unit_overhead_pp * units))


def plan_shards(a_csr: CSRMatrix, n_shards: int,
                b_csr: CSRMatrix | None = None, *,
                strategy: str = "auto",
                weights: np.ndarray | None = None,
                unit_overhead_pp: float = UNIT_OVERHEAD_PP) -> ShardPlan:
    """Plan one SpGEMM across ``n_shards`` under the chosen strategy.

    ``strategy="contiguous"`` wraps :func:`plan_row_shards`;
    ``"degree"`` forces the degree-aware index-set planner (falling back
    to contiguous only on inputs with fewer than two work items); and
    ``"auto"`` — the default — runs a cheap skew probe: it keeps the
    contiguous plan when its skew is at most
    :data:`DEGREE_AUTO_SKEW_THRESHOLD` and otherwise takes the degree
    plan if (and only if) it wins on :func:`modeled_makespan` — max
    shard load *plus* ``unit_overhead_pp`` per compiled unit, so a
    degree plan that buys marginal balance with many monster-row
    fragments (each a separate compile + dispatch) no longer wins on a
    load comparison its fragment overhead would lose on wall clock.
    """
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(f"unknown partition strategy {strategy!r}; "
                         f"expected one of {PARTITION_STRATEGIES}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if unit_overhead_pp < 0:
        raise ValueError(f"unit_overhead_pp must be >= 0, "
                         f"got {unit_overhead_pp}")
    if a_csr.shape[0] == 0:
        return _contiguous_plan(a_csr, 1, np.zeros(0, dtype=np.int64))
    weights = resolve_shard_weights(a_csr, b_csr, weights)
    contiguous = _contiguous_plan(a_csr, n_shards, weights)
    if strategy == "contiguous":
        return contiguous
    if strategy == "auto" and contiguous.skew <= DEGREE_AUTO_SKEW_THRESHOLD:
        return contiguous
    degree = _degree_plan(a_csr, n_shards, b_csr, weights)
    if degree is None:
        return contiguous
    if strategy == "auto" \
            and modeled_makespan(degree, unit_overhead_pp) \
            >= modeled_makespan(contiguous, unit_overhead_pp):
        return contiguous
    return degree


def shard_partial_products(a_csr: CSRMatrix,
                           ranges: "list[tuple[int, int]] | ShardPlan",
                           b_csr: CSRMatrix | None = None,
                           weights: np.ndarray | None = None) -> np.ndarray:
    """Per-shard partial-product totals for a planned partition — the
    histogram the multi-chip analytic fast path predicts efficiency from.

    Accepts either the contiguous range list of :func:`plan_row_shards`
    (summed with one prefix-sum gather, no Python loop) or a
    :class:`ShardPlan` (whose balanced loads are returned directly).
    Pass ``weights`` to reuse an already-computed per-row weight array.
    """
    if isinstance(ranges, ShardPlan):
        return ranges.loads.copy()
    if weights is None:
        weights = estimate_row_partial_products(
            a_csr, b_csr if b_csr is not None else a_csr)
    prefix = np.zeros(weights.size + 1, dtype=np.int64)
    np.cumsum(weights, out=prefix[1:])
    bounds = np.asarray(list(ranges), dtype=np.int64).reshape(-1, 2)
    return prefix[bounds[:, 1]] - prefix[bounds[:, 0]]


# ----------------------------------------------------------------------
# Plan execution support: operand slicing and the exact reduce
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ShardUnit:
    """One independently compilable product a shard executes: either the
    shard's whole-row index set (``fragment is None``; ``rows`` holds the
    global row ids, ``a`` their rows of A) or one monster-row fragment
    (``a`` is the 1-row slice).  The B operand is not stored: a unit runs
    against :meth:`slice_b` of whichever B a call brings."""

    a: CSRMatrix
    rows: np.ndarray | None = None
    fragment: RowFragment | None = None

    def slice_b(self, b_csr: CSRMatrix) -> CSRMatrix:
        """This unit's B operand: all of ``b_csr`` for a rows unit (B is
        replicated), the fragment's column range for a fragment."""
        if self.fragment is None:
            return b_csr
        return b_csr.col_range(self.fragment.col_lo, self.fragment.col_hi)


def build_shard_units(a_csr: CSRMatrix,
                      plan: ShardPlan) -> list[list[ShardUnit]]:
    """Slice A into per-shard execution units.

    Contiguous plans slice with ``row_slice`` (pure range copy); degree
    plans gather with ``row_select``.  A shard that owns only fragments
    emits no rows unit; a shard with no work at all (degenerate plans)
    still emits its empty rows unit so reduce shapes stay exact.
    """
    units: list[list[ShardUnit]] = []
    for index, assignment in enumerate(plan.shards):
        shard_units: list[ShardUnit] = []
        if assignment.rows.size or not assignment.fragments:
            if plan.ranges is not None:
                lo, hi = plan.ranges[index]
                rows_a = a_csr.row_slice(lo, hi)
            else:
                rows_a = a_csr.row_select(assignment.rows)
            shard_units.append(ShardUnit(a=rows_a, rows=assignment.rows))
        for fragment in assignment.fragments:
            shard_units.append(ShardUnit(
                a=a_csr.row_slice(fragment.row, fragment.row + 1),
                fragment=fragment))
        units.append(shard_units)
    return units


def stitch_shard_outputs(plan: ShardPlan,
                         shard_outputs: "list[tuple[CSRMatrix | None, list[CSRMatrix]]]",
                         n_cols: int) -> CSRMatrix:
    """Reassemble per-shard products into the exact unsharded CSR.

    ``shard_outputs`` aligns with ``plan.shards``: per shard, the rows
    unit's product (``None`` for fragment-only shards) and the fragment
    products in ``assignment.fragments`` order.  Whole rows scatter by a
    vectorized gather; a split row concatenates its fragments in
    ascending column-range order — no additions anywhere, so the output
    is byte-identical to the unsharded product.  Full shard products (a
    dense replay's) with no split row are placed as dense row blocks.
    """
    if not plan.split_rows and all(
            out.nnz == out.shape[0] * n_cols for out, _ in shard_outputs):
        dense = np.empty((plan.n_rows, n_cols))
        for assignment, (rows_out, _) in zip(plan.shards, shard_outputs):
            dense[assignment.rows] = rows_out.data.reshape(rows_out.shape)
        return full_structure_csr(dense)
    counts = np.zeros(plan.n_rows, dtype=np.int64)
    fragment_pieces: dict[int, list[tuple[int, CSRMatrix]]] = {}
    for assignment, (rows_out, frag_outs) in zip(plan.shards, shard_outputs):
        if assignment.rows.size:
            counts[assignment.rows] = rows_out.row_nnz_counts()
        for fragment, out in zip(assignment.fragments, frag_outs):
            counts[fragment.row] += out.nnz
            fragment_pieces.setdefault(fragment.row, []).append(
                (fragment.col_lo, out))
    indptr = np.zeros(plan.n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=np.int64)
    data = np.empty(total, dtype=np.float64)
    for assignment, (rows_out, _) in zip(plan.shards, shard_outputs):
        if not assignment.rows.size or not rows_out.nnz:
            continue
        destination = np.arange(rows_out.nnz, dtype=np.int64) + np.repeat(
            indptr[assignment.rows] - rows_out.indptr[:-1],
            rows_out.row_nnz_counts())
        indices[destination] = rows_out.indices
        data[destination] = rows_out.data
    for row, pieces in fragment_pieces.items():
        pieces.sort(key=lambda piece: piece[0])
        cursor = int(indptr[row])
        for _, out in pieces:
            indices[cursor:cursor + out.nnz] = out.indices
            data[cursor:cursor + out.nnz] = out.data
            cursor += out.nnz
    return CSRMatrix(indptr, indices, data, (plan.n_rows, n_cols))
