"""Declarative workload specifications and the unified result envelope.

Every workload the repository knows how to execute is described by a typed,
immutable-ish *spec* dataclass — :class:`SpGEMMSpec`, :class:`GCNLayerSpec`,
:class:`SweepSpec`, :class:`BatchSpec` — and submitted to a
:class:`~repro.core.session.Session` via ``session.run(spec)`` /
``session.map(specs)`` / ``session.submit(spec)``.  Each execution returns a
:class:`RunResult`: one envelope carrying the flat metrics row, per-component
activity factors, power/energy, and a :class:`Provenance` record (backend,
executor, cache hit, wall time, shard count).

Specs are plain data: they carry operands and knobs, never behaviour, so
they can be pickled across process boundaries, fingerprinted for caching,
and fanned out by the executor layer without touching the chip they will
eventually run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.arch.isa import MMH_TILE_SIZES

# Re-exported here so workload plumbing can be described with one import:
# a ChipTopology is plain data exactly like the specs below.
from repro.backends.multichip import ChipTopology  # noqa: F401
from repro.compiler.program import Program
from repro.sim.accelerator import SimulationReport
from repro.sparse.csr import CSRMatrix


def _check_operand_shapes(a, b) -> None:
    """Refuse A @ B whose inner dimensions differ (A @ A: a non-square A),
    whenever both operands carry a shape (a ref does not until resolved)."""
    a_shape = getattr(a, "shape", None)
    b_shape = a_shape if b is None else getattr(b, "shape", None)
    if a_shape is None or b_shape is None \
            or len(a_shape) != 2 or len(b_shape) != 2:
        return
    if a_shape[1] != b_shape[0]:
        raise ValueError(
            f"A @ A needs a square A, got shape {tuple(a_shape)}" if b is None
            else f"A's {a_shape[1]} columns do not match B's {b_shape[0]} "
                 f"rows (shapes {tuple(a_shape)} and {tuple(b_shape)})")


def _check_dims(**dims: int) -> None:
    for name, dim in dims.items():
        if dim < 1:
            raise ValueError(f"{name} must be >= 1, got {dim}")


def _check_density(density: float) -> None:
    # json.loads accepts NaN and Infinity; feature_matrix clips finite values.
    if not math.isfinite(density):
        raise ValueError(f"feature_density must be finite, got {density}")


def _check_activations(*names) -> None:
    # Deferred: repro.gnn imports this module.
    from repro.gnn.gcn import check_activation

    for name in names:
        check_activation(name)


@dataclass
class WorkloadSpec:
    """Base class for all workload specifications."""

    #: Human-readable name used in reports and tables.
    label: str = "workload"


@dataclass(frozen=True)
class OperandRef:
    """Content-addressed handle to a server-resident operand.

    ``ref`` is the operand's content digest
    (:func:`~repro.core.runner.matrix_fingerprint`), minted by the
    serving layer's operand registry (``PUT /v1/operands``).  A spec
    carrying an :class:`OperandRef` is *unresolved* — it cannot execute
    until :meth:`~repro.serve.registry.OperandRegistry.resolve` swaps the
    handle for the resident matrix — but it is plain, tiny data, so
    clients describe multi-megabyte workloads in ~100-byte requests.
    """

    ref: str


@dataclass
class SpGEMMSpec(WorkloadSpec):
    """One SpGEMM workload: C = A @ B (B defaults to A).

    Attributes:
        a: left operand (CSR/CSC/COO or dense numpy array, or an
            :class:`OperandRef` to a registered server-side operand —
            refs must be resolved by the serving registry before the
            spec reaches a session).
        b: right operand; ``None`` means the A @ A workload.
        tile_size: MMH tile-size override, one of
            :data:`~repro.arch.isa.MMH_TILE_SIZES`; ``None`` uses the chip
            default.
        verify: verify the output against a reference (cycle backend only).
        source: workload label recorded in the compiled program.
        shards: split the workload into this many row-group shards that fan
            out over the session's executor and reduce into one result.
        a_digest / b_digest: known content digests of the operands
            (stamped by the operand registry on ref resolution) so the
            serving coalescer keys on them directly instead of
            re-fingerprinting the arrays per request.  Purely advisory:
            ``None`` means "fingerprint on demand".
    """

    a: Any = None
    b: Any = None
    tile_size: int | None = None
    verify: bool = True
    source: str = "spgemm"
    shards: int = 1
    a_digest: str | None = None
    b_digest: str | None = None
    label: str = "spgemm"

    def __post_init__(self) -> None:
        if self.a is None:
            raise ValueError("SpGEMMSpec requires operand 'a'")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.tile_size is not None and self.tile_size not in MMH_TILE_SIZES:
            raise ValueError(f"tile_size must be None or one of "
                             f"{MMH_TILE_SIZES}, got {self.tile_size!r}")
        _check_operand_shapes(self.a, self.b)


@dataclass
class GCNLayerSpec(WorkloadSpec):
    """One GCN layer: aggregation on the accelerator, combination modelled.

    Attributes:
        dataset: a :class:`~repro.datasets.suite.GraphDataset` or a raw
            adjacency :class:`~repro.sparse.coo.COOMatrix`.
        feature_dim / hidden_dim: layer dimensions.
        feature_density: density of the synthetic feature matrix.
        verify: verify the aggregation output (cycle backend only).
        seed: feature / weight seed.
        features: explicit input features (dense ``(n_nodes, in_dim)`` array
            or CSR) instead of the synthetic matrix — this is how a layer
            chain feeds layer ``i``'s output into layer ``i+1``.  When set,
            ``feature_dim`` / ``feature_density`` are ignored and the input
            is executed through the same dense full-structure operand
            encoding :class:`GNNModelSpec` uses, so a chained run is
            byte-identical to the stacked pipeline.
        weight_seed: explicit weight seed; ``None`` keeps the default
            ``seed + 1``.
        activation: activation applied by the modelled combination stage
            (a name in :data:`~repro.gnn.gcn.ACTIVATIONS`, or None).
    """

    dataset: Any = None
    feature_dim: int = 32
    hidden_dim: int = 16
    feature_density: float = 0.3
    verify: bool = True
    seed: int = 7
    features: Any = None
    weight_seed: int | None = None
    activation: str | None = "relu"
    label: str = "gcn-layer"

    def __post_init__(self) -> None:
        if self.dataset is None:
            raise ValueError("GCNLayerSpec requires a dataset")
        _check_dims(feature_dim=self.feature_dim, hidden_dim=self.hidden_dim)
        _check_density(self.feature_density)
        _check_activations(self.activation)


@dataclass
class GNNModelSpec(WorkloadSpec):
    """A multi-layer GNN over one resident graph: compile once, run L layers.

    The whole stack is one workload: the adjacency is normalised once, the
    aggregation program is compiled once per resident graph (its symbolic
    structure depends only on ``A_hat``'s sparsity, never on the dense
    features) and re-bound to each layer's feature values, and on the
    multichip backend the per-chip shard programs stay resident across
    layers with the operand broadcast charged once per stack.

    Attributes:
        dataset: a :class:`~repro.datasets.suite.GraphDataset` or a raw
            adjacency :class:`~repro.sparse.coo.COOMatrix`.
        layer_dims: output width of each layer, outermost first; its length
            is the stack depth L.
        feature_dim: width of the synthetic input features (layer 0 input).
        feature_density: density of the synthetic feature matrix.
        activations: per-layer activations — a single name applied to every
            layer, a sequence of length L, or ``None`` for 'relu'
            everywhere (matching a chain of default :class:`GCNLayerSpec`).
        seed: feature seed; layer ``i``'s weights use ``seed + 1 + i``.
        batches: number of feature batches pushed through the resident
            stack; batches > 1 are pipelined layer-by-layer across the
            fleet (layer i of batch j runs while layer i+1 processes batch
            j-1), so the modelled makespan is
            ``sum(layer_cycles) + (batches - 1) * max(layer_cycles)``.
        verify: verify each aggregation output (cycle backend only).
    """

    dataset: Any = None
    layer_dims: Sequence[int] = (16,)
    feature_dim: int = 32
    feature_density: float = 0.3
    activations: Any = None
    seed: int = 7
    batches: int = 1
    verify: bool = True
    label: str = "gnn-model"

    def __post_init__(self) -> None:
        if self.dataset is None:
            raise ValueError("GNNModelSpec requires a dataset")
        _check_dims(feature_dim=self.feature_dim)
        _check_density(self.feature_density)
        self.layer_dims = tuple(int(dim) for dim in self.layer_dims)
        if not self.layer_dims:
            raise ValueError("GNNModelSpec requires at least one layer")
        if any(dim < 1 for dim in self.layer_dims):
            raise ValueError(f"layer dims must be >= 1, got {self.layer_dims}")
        if self.batches < 1:
            raise ValueError(f"batches must be >= 1, got {self.batches}")
        if (self.activations is not None
                and not isinstance(self.activations, str)):
            self.activations = tuple(self.activations)
            if len(self.activations) != len(self.layer_dims):
                raise ValueError(
                    f"activations length {len(self.activations)} does not "
                    f"match stack depth {len(self.layer_dims)}")
            _check_activations(*self.activations)
        else:
            _check_activations(self.activations)


@dataclass
class SweepSpec(WorkloadSpec):
    """A design-space sweep: the same workload across tile configurations.

    Attributes:
        a / b: SpGEMM operands (B defaults to A).
        configs: configuration names or objects to sweep over.
        normalize_to: configuration the metrics are normalised to;
            ``None`` reports raw values.
        eviction_mode: eviction mode for every configuration.
        on_missing_base: ``"skip"`` omits metrics whose baseline is
            missing/zero from the normalised output; ``"raise"`` errors.
    """

    a: Any = None
    b: Any = None
    configs: Sequence[Any] = ("Tile-4", "Tile-16", "Tile-64")
    normalize_to: str | None = "Tile-4"
    eviction_mode: str = "rolling"
    on_missing_base: str = "skip"
    label: str = "sweep"

    def __post_init__(self) -> None:
        if self.a is None:
            raise ValueError("SweepSpec requires operand 'a'")
        _check_operand_shapes(self.a, self.b)
        if self.on_missing_base not in ("skip", "raise"):
            raise ValueError("on_missing_base must be 'skip' or 'raise'")


@dataclass
class BatchSpec(WorkloadSpec):
    """Many jobs executed over one chip with shared program caching.

    Attributes:
        specs: the member workloads (currently :class:`SpGEMMSpec` only).
    """

    specs: Sequence[SpGEMMSpec] = ()
    label: str = "batch"

    def __post_init__(self) -> None:
        self.specs = list(self.specs)
        for spec in self.specs:
            if not isinstance(spec, SpGEMMSpec):
                raise TypeError("BatchSpec members must be SpGEMMSpec, "
                                f"got {type(spec)!r}")


@dataclass
class Provenance:
    """Where a result came from and what it cost to produce.

    Attributes:
        backend: execution backend name.
        executor: executor the work ran on ('serial', 'thread', 'process').
        config: chip configuration name.
        cache_hit: True when the compiled program came from the program
            cache (in-memory or disk) instead of a fresh compile.
        wall_time_s: host wall-clock seconds for compile + execute.
        shards: number of row-group shards the workload was split into.
        chips: number of chip instances a multichip run fanned out to.
    """

    backend: str = ""
    executor: str = "serial"
    config: str = ""
    cache_hit: bool = False
    wall_time_s: float = 0.0
    shards: int = 1
    chips: int = 1


@dataclass
class RunResult:
    """Unified envelope for every workload kind a session executes.

    Attributes:
        kind: 'spgemm' | 'gcn_layer' | 'gnn_model' | 'sweep' | 'batch'.
        label: the spec's label.
        metrics: flat metrics row (cycles, gops, op counts, ...); suitable
            for table / CSV export after dropping ``None`` values.
        activity: per-component activity factors (when a timing report
            exists) — the input to the power model.
        provenance: backend / executor / cache / wall-time record.
        output: the numeric result — CSR product matrix for SpGEMM, dense
            layer output for GCN, the per-configuration metrics table for
            sweeps, ``None`` for batches.
        report: timing report when a single timing run backs this result.
        program: the compiled program for single SpGEMM runs (a count
            digest for sharded and multichip runs).
        power_w / energy_j: modelled power and energy.
        parts: per-job results of a batch, in submission order.
    """

    kind: str = ""
    label: str = ""
    metrics: dict[str, Any] = field(default_factory=dict)
    activity: dict[str, float] = field(default_factory=dict)
    provenance: Provenance = field(default_factory=Provenance)
    output: CSRMatrix | np.ndarray | dict | None = None
    report: SimulationReport | None = None
    program: Program | None = None
    power_w: float = 0.0
    energy_j: float = 0.0
    parts: list["RunResult"] | None = None

    @property
    def cache_hit(self) -> bool:
        return self.provenance.cache_hit

    @property
    def wall_time_s(self) -> float:
        return self.provenance.wall_time_s

    def slim(self) -> "RunResult":
        """Replace heavyweight program payloads with count-level digests
        (in place; returns self).

        Used by the process executor so results crossing a process boundary
        don't serialise full programs — every report column still
        works, but ``program`` becomes a
        :class:`~repro.compiler.program.ProgramDigest`.
        """
        if self.program is not None:
            self.program = self.program.digest()
        for part in self.parts or ():
            part.slim()
        return self

    def as_row(self) -> dict:
        """Flat row for table / CSV export; ``None``-valued fields dropped."""
        row = {
            "label": self.label,
            "kind": self.kind,
            "config": self.provenance.config or None,
            "backend": self.provenance.backend or None,
            "executor": self.provenance.executor or None,
            **self.metrics,
            "power_w": round(self.power_w, 3),
            "cache_hit": self.provenance.cache_hit,
            "wall_time_s": round(self.provenance.wall_time_s, 6),
        }
        if self.provenance.shards > 1:
            row["shards"] = self.provenance.shards
        if self.provenance.chips > 1:
            row["chips"] = self.provenance.chips
        return {key: value for key, value in row.items() if value is not None}
