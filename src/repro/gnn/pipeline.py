"""One GCN runner: a GCN layer, or a layer stack compiled once and run L times.

:func:`run_gnn_model` is ``Session.run``'s executor for both GCN spec
types.  A :class:`~repro.core.specs.GCNLayerSpec` is a one-layer stack fed
its own input: the synthetic sparse feature matrix (Figure 11's operand)
or its explicit ``features``.  A :class:`~repro.core.specs.GNNModelSpec`
runs a whole stack as one workload.  Every layer's aggregation
``A_hat @ X`` is an SpGEMM through ``Session._execute``, the session's one
execution path; the combination is a dense phase modelled at the chip's
peak throughput.

A stack amortises the work around its layers:

* the adjacency is normalised **once** (through the bounded
  :func:`~repro.gnn.gcn.normalize_adjacency_cached` memo, so repeated
  stacks over a resident graph skip even that);
* the aggregation program is compiled **once** per graph and feature
  width, and under ``Session(verify=...)`` verified once;
* the features stay **one dense** ``(n, W)`` **array** from layer to
  layer, never a CSR: the program cache keys it by shape, like its
  full-structure CSR (:func:`full_structure_csr`), a hit re-binds the
  layer's values, byte-identical to a fresh compile, the program replays
  over its A elements (:class:`~repro.compiler.program.DenseReplayIndex`)
  straight into a dense block, and a fleet writes its chips' blocks into
  the layer's output by row block;
* a layer's result holds its cycles, verdict, power and energy, and no
  fleet report;
* on the multichip backend the shard plan and the per-chip slices of A
  stay **resident** across layers and, while the graph, width, tile,
  label and fleet match, across runs
  (:meth:`~repro.backends.multichip.MultiChipBackend.prepare_resident`),
  and the B broadcast is charged on the first layer only.  A GCN layer's
  features come from the host, so it runs one-shot and pays their
  broadcast unless the fleet already holds them;
* a stack makes every B itself, so a hit re-binds it without a compare
  or a copy; a GCN layer's B may alias caller memory and keeps both;
* ``batches > 1`` models cross-chip layer pipelining: once the stack is
  resident, layer i of batch j runs while layer i+1 processes batch j-1,
  so the makespan is ``sum(layer_cycles) + (batches-1) * max(layer_cycles)``
  instead of ``batches * sum(layer_cycles)``.

Byte-identity contract: a stacked run equals the layer-by-layer
``Session.run(GCNLayerSpec)`` chain (layer i+1 fed layer i's output via
``GCNLayerSpec.features``, as its full-structure CSR) bit for bit on every
backend: both run through this function on the same programs and values.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.specs import GCNLayerSpec, GNNModelSpec, RunResult
from repro.datasets.features import feature_matrix
from repro.datasets.suite import DatasetSpec, GraphDataset
from repro.gnn.gcn import (
    GCNLayer,
    combination_cycles,
    normalize_adjacency_cached,
)
from repro.sparse.csr import CSRMatrix, full_structure_csr


def _as_dataset(dataset, feature_dim: int) -> GraphDataset:
    """A spec's graph as a :class:`GraphDataset`; a raw adjacency becomes
    the ``custom`` dataset."""
    if isinstance(dataset, GraphDataset):
        return dataset
    spec = DatasetSpec("custom", "custom", dataset.shape[0], dataset.nnz,
                       0.0, None, feature_dim=feature_dim)
    return GraphDataset(spec, dataset, 1.0)


def _layer_operand(spec: GCNLayerSpec, n_nodes: int) -> CSRMatrix:
    """A GCN layer's input: the synthetic sparse feature matrix (Figure
    11's operand), or its explicit ``features`` as their full-structure
    CSR, which the program cache keys like a stack layer's dense array."""
    if spec.features is None:
        return feature_matrix(n_nodes, spec.feature_dim,
                              density=spec.feature_density, seed=spec.seed)
    features = spec.features
    dense = np.asarray(features if isinstance(features, np.ndarray)
                       else features.to_dense(), dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != n_nodes:
        raise ValueError(f"features shape {dense.shape} does not match the "
                         f"{n_nodes}-node dataset")
    return full_structure_csr(dense)


def _stack_layers(spec: GNNModelSpec) -> list[GCNLayer]:
    """The stack's layers; layer ``i``'s weights use ``seed + 1 + i``."""
    activations = "relu" if spec.activations is None else spec.activations
    if isinstance(activations, str):
        activations = (activations,) * len(spec.layer_dims)
    in_dims = (spec.feature_dim, *spec.layer_dims[:-1])
    return [GCNLayer.create(in_dim, out_dim, seed=spec.seed + 1 + index,
                            activation=activations[index])
            for index, (in_dim, out_dim)
            in enumerate(zip(in_dims, spec.layer_dims))]


def run_gnn_model(session, spec: GNNModelSpec | GCNLayerSpec) -> RunResult:
    """Execute a GCN layer, or a whole layer stack over one resident graph
    (see the module docstring)."""
    start = time.perf_counter()
    dataset = _as_dataset(spec.dataset, spec.feature_dim)
    stacked = isinstance(spec, GNNModelSpec)
    if stacked:
        layers = _stack_layers(spec)
        x = feature_matrix(dataset.n_nodes, spec.feature_dim,
                           density=spec.feature_density,
                           seed=spec.seed).to_dense()
        label = f"gnn-stack:{dataset.name}"
    else:
        x = _layer_operand(spec, dataset.n_nodes)
        layers = [GCNLayer.create(
            x.shape[1], spec.hidden_dim,
            seed=spec.seed + 1 if spec.weight_seed is None
            else spec.weight_seed,
            activation=spec.activation)]
        label = f"gcn-aggregation:{dataset.name}"
    a_csr = normalize_adjacency_cached(dataset.adjacency)  # shared: read only
    config = session.ctx.config
    tile = config.mmh_tile_size
    multichip = session.backend == "multichip"

    compiles = 0
    power_w = energy_j = 0.0
    aggregation: list[float] = []
    combination: list[float] = []
    verdicts = []
    for index, layer in enumerate(layers):
        resident = (session._resident_graph(a_csr, x, tile, label)
                    if stacked and multichip else None)
        result, execution = session._execute(
            a_csr, x, tile, f"{label}[layer{index}]" if stacked else label,
            spec.verify, resident=resident, charge_broadcast=index == 0,
            fresh_b=stacked)
        compiles += (execution.fresh_compiles if multichip
                     else int(not result.cache_hit))
        power_w = max(power_w, result.power_w)
        energy_j += result.energy_j
        aggregation.append(result.metrics["cycles"])
        combination.append(combination_cycles(config, dataset.n_nodes, layer))
        verdicts.append(result.metrics["verified"])
        x = layer.combination(execution.to_dense())

    if not stacked:  # the one layer's result, relabelled
        result.kind = "gcn_layer"
        result.label = spec.label
        result.output = x
        result.metrics = {
            "aggregation_cycles": aggregation[0],
            "combination_cycles": round(combination[0], 1),
            "total_cycles": round(aggregation[0] + combination[0], 1),
            "output_shape": str(x.shape),
            "verified": verdicts[0],
        }
        result.provenance.wall_time_s = time.perf_counter() - start
        return result

    # One batch flows the stack serially; with the graph resident, further
    # batches pipeline layer-by-layer across the fleet, so the incremental
    # cost per batch is the slowest stage, not the whole stack.
    layer_cycles = [agg + comb for agg, comb in zip(aggregation, combination)]
    depth = len(layers)
    stack_cycles = float(sum(layer_cycles))
    pipeline_cycles = stack_cycles + (spec.batches - 1) * max(layer_cycles)
    metrics = {
        "layers": depth,
        "batches": spec.batches,
        "aggregation_cycles": round(sum(aggregation), 1),
        "combination_cycles": round(sum(combination), 1),
        "total_cycles": round(stack_cycles, 1),
        "cycles_per_layer": round(stack_cycles / depth, 1),
        "pipeline_cycles": round(pipeline_cycles, 1),
        "pipeline_speedup": round(
            spec.batches * stack_cycles / pipeline_cycles, 3)
        if pipeline_cycles > 0 else 1.0,
        "compiles": compiles,
        "output_shape": str(x.shape),
        "verified": None if None in verdicts else all(verdicts),
    }
    provenance = session._provenance(cache_hit=compiles == 0,
                                     wall=time.perf_counter() - start)
    provenance.chips = result.provenance.chips
    return RunResult(kind="gnn_model", label=spec.label, metrics=metrics,
                     provenance=provenance, output=x,
                     power_w=power_w, energy_j=energy_j)
