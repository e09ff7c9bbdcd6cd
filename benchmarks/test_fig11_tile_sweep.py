"""Figure 11: architectural impact of the tile configuration on the Cora GCN.

Runs the GCN aggregation phase of Cora on Tile-4, Tile-16 and Tile-64 and
reports the six metrics of the figure — stall cycles, CPI, IPC, in-flight
memory instructions, power and busy cycles — normalised to Tile-4, exactly as
the paper plots them.
"""

import pytest

from repro.core import GCNLayerSpec, Session
from repro.gnn.gcn import GCNWorkload

from _harness import emit

_CONFIG_NAMES = ("Tile-4", "Tile-16", "Tile-64")
_METRICS = ("stall_cycles", "cpi", "ipc", "in_flight_instx", "power", "busy_cycles")


def _layer_spec(cora_sim) -> GCNLayerSpec:
    return GCNLayerSpec(dataset=cora_sim, feature_dim=16, hidden_dim=8,
                        verify=False)


@pytest.fixture(scope="module")
def tile_sweep_results(cora_sim):
    workload = GCNWorkload.build(cora_sim, feature_dim=16, hidden_dim=8)
    raw = {}
    for name in _CONFIG_NAMES:
        with Session(name) as session:
            result = session.run(_layer_spec(cora_sim))
        report = result.report
        raw[name] = {
            "stall_cycles": report.stall_cycles,
            "cpi": report.cpi,
            "ipc": report.ipc,
            "in_flight_instx": report.avg_inflight_mem,
            "power": result.power_w,
            "busy_cycles": report.busy_cycles,
            "cycles": report.cycles,
        }
    del workload
    return raw


def test_fig11_tile_configuration_sweep(benchmark, cora_sim, tile_sweep_results):
    """Time one Tile-4 aggregation run and regenerate the Figure 11 series."""
    with Session("Tile-4") as session:
        benchmark.pedantic(session.run, args=(_layer_spec(cora_sim),),
                           rounds=1, iterations=1)

    base = tile_sweep_results["Tile-4"]
    rows = []
    for name in _CONFIG_NAMES:
        row = {"config": name}
        for metric in _METRICS:
            value = tile_sweep_results[name][metric]
            row[metric] = round(value, 3)
            row[f"{metric}_norm"] = round(value / base[metric], 3) if base[metric] else 0.0
        rows.append(row)
    emit("fig11_tile_sweep", rows, extra_json=tile_sweep_results)

    # Shape checks from the paper's observations: larger tiles finish sooner,
    # sustain more in-flight memory instructions, and draw more power.
    assert tile_sweep_results["Tile-64"]["cycles"] < tile_sweep_results["Tile-4"]["cycles"]
    assert tile_sweep_results["Tile-64"]["in_flight_instx"] >= \
        tile_sweep_results["Tile-4"]["in_flight_instx"]
    assert tile_sweep_results["Tile-64"]["power"] > tile_sweep_results["Tile-4"]["power"]
    assert tile_sweep_results["Tile-16"]["ipc"] > tile_sweep_results["Tile-4"]["ipc"]
