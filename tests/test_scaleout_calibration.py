"""Calibration regression: `ShardPlan.speedup` vs the measured scaling curve.

`benchmarks/bench_multichip.py` records the executed plan's predicted
speedup next to the measured cycle-model speedup in
`benchmarks/results/bench_multichip.json`.  These tests bound the gap —
the same contract as the analytic backend's ±25% CALIBRATED_TOLERANCE
band — so a model change that silently degrades the fast path's trust
region fails CI instead of shipping.
"""

import json
from pathlib import Path

import pytest

from repro.backends import SCALEOUT_CALIBRATION_BAND

RESULTS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "results" / "bench_multichip.json"

#: ShardPlan.speedup is an upper bound; measured speedup may exceed it only
#: by rounding noise.
UPPER_BOUND_SLACK = 1.02


@pytest.fixture(scope="module")
def record():
    return json.loads(RESULTS_PATH.read_text())


def test_record_has_the_full_scaling_curve(record):
    chips = [point["chips"] for point in record["scaling"]]
    assert chips == sorted(chips)
    assert {1, 2, 4} <= set(chips)


def test_recorded_outputs_were_byte_identical(record):
    assert all(point["byte_identical"] for point in record["scaling"])


def test_predicted_speedup_is_an_upper_bound(record):
    for point in record["scaling"]:
        assert point["speedup"] <= \
            point["predicted_speedup"] * UPPER_BOUND_SLACK, \
            f"{point['chips']} chips: measured {point['speedup']} above " \
            f"prediction {point['predicted_speedup']}"


def test_prediction_gap_within_calibration_band(record):
    for point in record["scaling"]:
        assert point["speedup"] > 0
        gap = point["predicted_speedup"] / point["speedup"]
        assert gap <= SCALEOUT_CALIBRATION_BAND, \
            f"{point['chips']} chips: predicted/measured gap {gap:.3f} " \
            f"exceeds the {SCALEOUT_CALIBRATION_BAND} band"


def test_scaleout_acceptance_bar(record):
    # The documented bar: >= 1.5x cycle-model speedup at 4 chips on the
    # 2000-node graph (actual recorded value is ~3.8x).
    assert record["speedup_at_4_chips"] >= 1.5


def test_host_terms_are_recorded(record):
    for point in record["scaling"]:
        if point["chips"] == 1:
            assert point["reduce_cycles"] == 0.0
            assert point["broadcast_cycles"] == 0.0
        else:
            assert point["reduce_cycles"] > 0
            # Cold runs pay the one-time B broadcast.
            assert point["broadcast_cycles"] > 0
