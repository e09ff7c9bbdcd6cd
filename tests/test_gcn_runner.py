"""One GCN runner: a GCNLayerSpec runs as a one-layer stack.

The pinned figures were recorded with the layer-at-a-time executor that
the shared runner replaced; the runner must reproduce them on every
backend, for both the synthetic sparse operand (Figure 11's) and explicit
dense features.  The synthetic-input rows and both output sums were
re-recorded when ``feature_matrix`` moved to one vectorised draw, which
changed its seeded stream; the explicit-input cycle figures did not move.
"""

import pytest

from repro import Session
from repro.backends import ChipTopology
from repro.core.specs import GCNLayerSpec, GNNModelSpec
from repro.datasets.features import feature_matrix
from repro.datasets.suite import load_dataset
from repro.gnn.gcn import (
    adjacency_digest,
    clear_adjacency_cache,
    normalize_adjacency_cached,
)
from repro.serve.batcher import _dataset_key


@pytest.fixture(scope="module")
def cora():
    return load_dataset("cora", max_nodes=40, seed=0)


FLEETS = {
    "analytic": None,
    "cycle": None,
    "functional": None,
    "multichip2-analytic": ChipTopology(n_chips=2, chip_backend="analytic"),
    "multichip3-analytic": ChipTopology(n_chips=3, chip_backend="analytic"),
    "multichip2-cycle": ChipTopology(n_chips=2, chip_backend="cycle"),
    "multichip3-cycle": ChipTopology(n_chips=3, chip_backend="cycle"),
}


def session_for(fleet: str) -> Session:
    topology = FLEETS[fleet]
    if topology is None:
        return Session("Tile-4", backend=fleet)
    return Session("Tile-4", backend="multichip", chips=topology.n_chips,
                   chip_backend=topology.chip_backend)


#: Output checksums (the relu output is non-negative, so this is also its
#: L1 norm) and partial-product counts, per input kind.
OUTPUT_SUM = {"synthetic": 3.5676553370804713, "explicit": 13.523237593611718}
PARTIAL_PRODUCTS = {"synthetic": 728, "explicit": 1456}

#: (aggregation cycles, combination cycles, verified, power W, energy J,
#: MMH instructions), recorded per fleet and input kind.
PINNED = {
    ("analytic", "synthetic"):
        (258.0, 600.0, None, 11.186918604651163, 2.886225e-06, 151),
    ("analytic", "explicit"):
        (422.0, 400.0, None, 11.254727488151659, 4.749495e-06, 302),
    ("cycle", "synthetic"):
        (325.0, 600.0, True, 10.493417307692308, 3.410360625e-06, 151),
    ("cycle", "explicit"):
        (380.0, 400.0, True, 11.228240131578946, 4.26673125e-06, 302),
    ("functional", "synthetic"): (0.0, 600.0, None, 0.0, 0.0, 151),
    ("functional", "explicit"): (0.0, 400.0, None, 0.0, 0.0, 302),
    ("multichip2-analytic", "synthetic"):
        (373.5, 600.0, None, 21.109553864496448, 3.39926625e-06, 145),
    ("multichip2-analytic", "explicit"):
        (451.0, 400.0, None, 21.994220315642615, 5.1687025e-06, 290),
    ("multichip3-analytic", "synthetic"):
        (340.5, 600.0, None, 30.030262404678933, 3.835013750000001e-06, 149),
    ("multichip3-analytic", "explicit"):
        (394.0, 400.0, None, 31.441686277173915, 5.6915625e-06, 298),
    ("multichip2-cycle", "synthetic"):
        (544.5, 600.0, True, 17.56045970162836, 5.786770625e-06, 145),
    ("multichip2-cycle", "explicit"):
        (563.0, 400.0, True, 19.514839412181303, 6.66369625e-06, 290),
    ("multichip3-cycle", "synthetic"):
        (486.5, 600.0, True, 25.637538843242268, 6.3383931250000005e-06, 149),
    ("multichip3-cycle", "explicit"):
        (527.0, 400.0, True, 28.377772360252187, 7.474806249999999e-06, 298),
}


def layer_spec(cora, inputs: str) -> GCNLayerSpec:
    if inputs == "synthetic":
        return GCNLayerSpec(dataset=cora, feature_dim=12, hidden_dim=5)
    features = feature_matrix(cora.n_nodes, 8, density=0.5,
                              seed=4).to_dense()
    return GCNLayerSpec(dataset=cora, features=features, hidden_dim=5,
                        weight_seed=3)


@pytest.mark.parametrize("fleet, inputs", sorted(PINNED))
def test_gcn_layer_pinned(cora, fleet, inputs):
    aggregation, combination, verified, power_w, energy_j, mmh = \
        PINNED[fleet, inputs]
    with session_for(fleet) as session:
        result = session.run(layer_spec(cora, inputs))
    assert result.kind == "gcn_layer"
    assert result.metrics == {
        "aggregation_cycles": aggregation,
        "combination_cycles": combination,
        "total_cycles": aggregation + combination,
        "output_shape": "(40, 5)",
        "verified": verified,
    }
    assert result.power_w == pytest.approx(power_w, rel=1e-9)
    assert result.energy_j == pytest.approx(energy_j, rel=1e-9)
    assert result.output.shape == (40, 5)
    assert float(result.output.sum()) == pytest.approx(OUTPUT_SUM[inputs],
                                                       rel=1e-12)
    assert result.program.source == "gcn-aggregation:cora"
    assert result.program.n_instructions == mmh
    assert result.program.total_partial_products == PARTIAL_PRODUCTS[inputs]
    chips = FLEETS[fleet].n_chips if FLEETS[fleet] is not None else 1
    assert result.provenance.chips == chips
    if fleet == "functional":
        assert result.report is None and result.activity == {}
    else:
        assert result.report.cycles == aggregation
        assert set(result.activity) == {"NeuraCore", "NeuraMem", "Router",
                                        "Memory Controller"}


@pytest.mark.parametrize("fleet", ["analytic", "multichip3-analytic",
                                   "multichip2-cycle"])
def test_stack_after_chain_compiles_nothing(cora, fleet):
    """A GCN chain and the stack it spells out share their programs: a
    stack run after the chain on one session compiles none, and their
    outputs are byte-identical."""
    x = feature_matrix(cora.n_nodes, 10, density=0.3, seed=7).to_dense()
    with session_for(fleet) as session:
        for index in range(2):
            x = session.run(GCNLayerSpec(dataset=cora, features=x,
                                         hidden_dim=6,
                                         weight_seed=8 + index)).output
        stack = session.run(GNNModelSpec(dataset=cora, layer_dims=(6, 6),
                                         feature_dim=10))
    assert stack.metrics["compiles"] == 0
    assert stack.cache_hit is True
    assert stack.output.tobytes() == x.tobytes()


def test_one_adjacency_digest(cora):
    """The serving coalescer and the normalisation memo key a graph by the
    same digest, computed once per adjacency."""
    digest = adjacency_digest(cora.adjacency)
    assert _dataset_key(cora) == digest == _dataset_key(cora.adjacency)
    assert cora.adjacency.content_digest == digest
    clear_adjacency_cache()
    with_loops = normalize_adjacency_cached(cora.adjacency)
    without = normalize_adjacency_cached(cora.adjacency,
                                         add_self_loops=False)
    assert with_loops.nnz == without.nnz + cora.n_nodes
    assert normalize_adjacency_cached(cora.adjacency) is with_loops
