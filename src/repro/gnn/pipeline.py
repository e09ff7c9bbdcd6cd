"""Resident-graph multi-layer GNN pipelines: compile once, run L layers.

A real GNN inference is a *chain* of aggregation + combination layers over
one resident graph, but the layer-at-a-time path pays L× adjacency
normalisation, L× compiler entry and L× operand shipping for an L-layer
model even though the aggregation operand ``A_hat`` — and therefore the
compiled program's symbolic structure — is identical across every layer.

:func:`run_gnn_model` executes a whole
:class:`~repro.core.specs.GNNModelSpec` stack as one workload:

* the adjacency is normalised **once** (through the bounded
  :func:`~repro.gnn.gcn.normalize_adjacency_cached` memo, so repeated
  stacks over a resident graph skip even that);
* the aggregation program is compiled **once** per resident graph and
  feature width: every layer fetches it through
  :func:`~repro.core.runner.fetch_or_compile`, whose cache keys B by
  structure and re-binds a hit to the layer's feature values — the
  symbolic pass and lowering depend only on operand sparsity, never on
  the dense values, so the re-bound program is byte-identical to a fresh
  compile — and under ``Session(verify=...)`` is verified once;
* dense features flow through the **full-structure operand encoding**
  (:func:`full_structure_csr`): every (row, column) slot is an explicit
  CSR entry, so the operand structure is fully determined by its shape and
  every layer of a fixed-width stack shares one compiled program;
* on the multichip backend the shard plan and the per-chip slices of A
  stay **resident** across layers
  (:meth:`~repro.backends.multichip.MultiChipBackend.prepare_resident` /
  ``execute_resident``), each unit program is fetched the same way, and
  the one-time B broadcast is charged once per *stack* instead of once
  per layer;
* ``batches > 1`` models cross-chip layer pipelining: once the stack is
  resident, layer i of batch j runs while layer i+1 processes batch j-1,
  so the makespan is ``sum(layer_cycles) + (batches-1) * max(layer_cycles)``
  instead of ``batches * sum(layer_cycles)``.

Byte-identity contract: a stacked run equals the layer-by-layer
``Session.run(GCNLayerSpec)`` chain (layer i+1 fed layer i's output via
``GCNLayerSpec.features``) bit for bit on every backend, because the
chained path executes the same full-structure operands through the same
kernels — the stack only amortizes the work around them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.registry import get_backend
from repro.core.runner import fetch_or_compile
from repro.core.specs import GNNModelSpec, RunResult
from repro.datasets.features import feature_matrix
from repro.datasets.suite import DatasetSpec, GraphDataset
from repro.gnn.gcn import GCNLayer, GCNWorkload, normalize_adjacency_cached
from repro.sparse.convert import csc_to_csr, csr_to_csc
from repro.sparse.csr import CSRMatrix


def full_structure_csr(x: np.ndarray) -> CSRMatrix:
    """Encode a dense matrix as a CSR with *every* slot explicit.

    The encoding is the pipeline's keystone: its sparsity pattern is fully
    determined by the shape, so two feature matrices of the same shape are
    structurally identical and one compiled aggregation program serves both
    after a value re-bind.  Explicit zeros are kept deliberately — dropping
    them would make the structure value-dependent again.
    """
    dense = np.ascontiguousarray(x, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape "
                         f"{dense.shape}")
    n, width = dense.shape
    indptr = np.arange(n + 1, dtype=np.int64) * width
    indices = np.tile(np.arange(width, dtype=np.int64), max(n, 0))
    return CSRMatrix(indptr, indices, dense.reshape(-1), (n, width))


def _resolve_activations(spec: GNNModelSpec, depth: int) -> list:
    if spec.activations is None:
        return ["relu"] * depth
    if isinstance(spec.activations, str):
        return [spec.activations] * depth
    return list(spec.activations)


def run_gnn_model(session, spec: GNNModelSpec) -> RunResult:
    """Execute a whole GNN layer stack over one resident graph.

    This is ``Session.run``'s executor for :class:`GNNModelSpec`; see the
    module docstring for the resident-graph semantics.
    """
    start = time.perf_counter()
    dataset = spec.dataset
    if not isinstance(dataset, GraphDataset):
        dataset_spec = DatasetSpec("custom", "custom", dataset.shape[0],
                                   dataset.nnz, 0.0, None,
                                   feature_dim=spec.feature_dim)
        dataset = GraphDataset(dataset_spec, dataset, 1.0)
    dims = list(spec.layer_dims)
    depth = len(dims)
    activations = _resolve_activations(spec, depth)

    # --- resident graph state: built exactly once for the whole stack ---
    a_hat = normalize_adjacency_cached(dataset.adjacency)
    # Canonical CSR, the same object chain as a layer run.
    a_csr = csc_to_csr(csr_to_csc(a_hat))
    tile = session.chip.config.mmh_tile_size
    ctx = session.chip._context()
    label = f"gnn-stack:{dataset.name}"
    multichip = session.backend == "multichip"
    backend = (session._multichip_backend() if multichip
               else get_backend(session.backend))

    layers = []
    in_dim = spec.feature_dim
    for index, out_dim in enumerate(dims):
        layers.append(GCNLayer.create(in_dim, out_dim,
                                      seed=spec.seed + 1 + index,
                                      activation=activations[index]))
        in_dim = out_dim
    x = feature_matrix(dataset.n_nodes, spec.feature_dim,
                       density=spec.feature_density,
                       seed=spec.seed).to_dense()

    resident = None
    compiles = 0
    all_hits = True
    chips = 1
    layer_cycles: list[float] = []
    aggregation_total = combination_total = 0.0
    verdicts = []
    power_w = energy_j = 0.0
    for index, layer in enumerate(layers):
        b_full = full_structure_csr(x)
        if multichip:
            if resident is None or resident.width != b_full.shape[1]:
                resident = backend.prepare_resident(a_csr, b_full, tile,
                                                    source=label)
            execution = backend.execute_resident(
                resident, b_full, ctx, verify=spec.verify,
                charge_broadcast=(index == 0))
            compiles += execution.fresh_compiles
            hit = execution.fresh_compiles == 0
            chips = max(chips, execution.n_chips)
            layer_power, layer_energy = session._fleet_power(execution)
        else:
            program, hit, _ = fetch_or_compile(
                session.cache, a_csr, b_full, tile,
                f"{label}[layer{index}]", kind="gnn-stack",
                check=session._maybe_verify)
            if not hit:
                compiles += 1
            execution = backend.execute(program, ctx, a_csr=a_csr,
                                        b_csr=b_full, verify=spec.verify)
            layer_power, layer_energy = \
                session.chip._estimate_power(execution.report)
        all_hits = all_hits and hit
        report = execution.report
        workload = GCNWorkload(dataset=dataset, a_hat=a_hat, features=b_full,
                               layer=layer)
        combination_cycles = session.chip._combination_cycles(workload)
        aggregation_cycles = report.cycles if report is not None else 0.0
        aggregation_total += aggregation_cycles
        combination_total += combination_cycles
        layer_cycles.append(aggregation_cycles + combination_cycles)
        verdicts.append(report.correct if report is not None else None)
        power_w = max(power_w, layer_power)
        energy_j += layer_energy
        x = layer.combination(execution.to_dense())

    # One batch flows the stack serially; with the graph resident, further
    # batches pipeline layer-by-layer across the fleet, so the incremental
    # cost per batch is the slowest stage, not the whole stack.
    stack_cycles = float(sum(layer_cycles))
    bottleneck = float(max(layer_cycles)) if layer_cycles else 0.0
    pipeline_cycles = stack_cycles + (spec.batches - 1) * bottleneck
    wall = time.perf_counter() - start
    verified = (None if any(verdict is None for verdict in verdicts)
                else all(verdicts))
    metrics = {
        "layers": depth,
        "batches": spec.batches,
        "aggregation_cycles": round(aggregation_total, 1),
        "combination_cycles": round(combination_total, 1),
        "total_cycles": round(stack_cycles, 1),
        "cycles_per_layer": round(stack_cycles / depth, 1),
        "pipeline_cycles": round(pipeline_cycles, 1),
        "pipeline_speedup": round(
            spec.batches * stack_cycles / pipeline_cycles, 3)
        if pipeline_cycles > 0 else 1.0,
        "compiles": compiles,
        "output_shape": str(x.shape),
        "verified": verified,
    }
    provenance = session._provenance(cache_hit=all_hits, wall=wall)
    provenance.chips = chips
    return RunResult(kind="gnn_model", label=spec.label, metrics=metrics,
                     provenance=provenance, output=x,
                     power_w=power_w, energy_j=energy_j)
