"""Table 4: NeuraChip power and area breakdown for SpGEMM workloads.

Regenerates the per-unit area and power of the three tile configurations from
the calibrated model, and additionally reports the activity-scaled power of a
real simulated SpGEMM run (the measurement conditions the paper's averages
represent).
"""

import pytest

from repro.arch.config import all_spgemm_configs
from repro.core import Session, SpGEMMSpec
from repro.power.model import TABLE4_REFERENCE, area_breakdown, power_breakdown

from _harness import emit


@pytest.fixture(scope="module")
def activity_power(cora_sim):
    """Power of each configuration while running the Cora SpGEMM workload."""
    results = {}
    for config in all_spgemm_configs():
        with Session(config) as session:
            run = session.run(SpGEMMSpec(a=cora_sim.adjacency_csr(),
                                         verify=False, source="cora"))
        results[config.name] = {
            "workload_power_w": run.power_w,
            "energy_j": run.energy_j,
            "cycles": run.report.cycles,
        }
    return results


def test_table4_power_and_area_breakdown(benchmark, activity_power):
    """Regenerate Table 4 and compare every entry against the paper."""
    configs = all_spgemm_configs()
    benchmark.pedantic(lambda: [area_breakdown(c) for c in configs],
                       rounds=10, iterations=1)

    rows = []
    for config in configs:
        area = area_breakdown(config)
        power = power_breakdown(config)
        for unit in area.area_mm2:
            rows.append({
                "config": config.name,
                "unit": unit,
                "area_mm2": round(area.area_mm2[unit], 2),
                "power_w": round(power.power_w[unit], 2),
                "paper_area_mm2": TABLE4_REFERENCE[unit][config.name][0],
                "paper_power_w": TABLE4_REFERENCE[unit][config.name][1],
            })
        rows.append({
            "config": config.name, "unit": "Total",
            "area_mm2": round(area.total_area_mm2, 2),
            "power_w": round(power.total_power_w, 2),
            "paper_area_mm2": TABLE4_REFERENCE["Total"][config.name][0],
            "paper_power_w": TABLE4_REFERENCE["Total"][config.name][1],
        })
    emit("table4_power_area", rows, extra_json=activity_power)

    # Every modelled entry must land on the paper's synthesis value.
    for row in rows:
        assert row["area_mm2"] == pytest.approx(row["paper_area_mm2"], abs=0.05)
        assert row["power_w"] == pytest.approx(row["paper_power_w"], abs=0.05)

    # Activity-scaled power during a real run stays at or below the Table 4
    # average (the simulator's utilisation is below 100%), and grows with the
    # tile size.
    totals = {c.name: TABLE4_REFERENCE["Total"][c.name][1] for c in configs}
    for name, measured in activity_power.items():
        assert measured["workload_power_w"] <= totals[name] + 1e-6
    assert activity_power["Tile-64"]["workload_power_w"] > \
        activity_power["Tile-4"]["workload_power_w"]
