"""Analytic-vs-cycle calibration beyond the calibration graphs.

The analytic backend's ±25% contract (``CALIBRATED_TOLERANCE``) is fitted
on wiki-Vote@96 and facebook@80 at dataset seed 3.  This script runs the
same two graphs at a larger node count through both the analytic and the
cycle backend, at Tile-4 and Tile-16, and prints the relative error of
the analytic prediction against the cycle model, per job.  It records a
measurement; it refits nothing and fails no job for being outside the
band (it exits nonzero only if a cycle run fails its output check).

``--nodes`` gives one node count for both graphs; ``--nodes 96 80`` gives
one per graph (the calibration size, where every job should read inside
the band).  ``--output`` sets where the record is written (default: the
committed 400-node record, ``benchmarks/results/bench_calibration.json``).

Run with:  PYTHONPATH=src python benchmarks/bench_calibration.py
           PYTHONPATH=src python benchmarks/bench_calibration.py --nodes 96 80 \
               --output /tmp/bench_calibration.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.backends.analytic import CALIBRATED_TOLERANCE
from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset

RESULTS_PATH = Path(__file__).parent / "results" / "bench_calibration.json"

GRAPHS = ("wiki-Vote", "facebook")
CONFIGS = ("Tile-4", "Tile-16")


def measure(name: str, nodes: int, config: str) -> dict:
    """One job's analytic and cycle cycles, the analytic error and the
    cycle run's host time."""
    a = load_dataset(name, max_nodes=nodes, seed=3).adjacency_csr()
    with Session(config, backend="analytic") as session:
        predicted = session.run(SpGEMMSpec(a=a, source=name)).report.cycles
    start = time.perf_counter()
    with Session(config, backend="cycle") as session:
        result = session.run(SpGEMMSpec(a=a, verify=True, source=name))
    seconds = time.perf_counter() - start
    measured = result.report.cycles
    error = (predicted - measured) / measured
    return {"graph": name, "nodes": nodes, "config": config,
            "analytic_cycles": predicted, "cycle_cycles": measured,
            "error_pct": round(100.0 * error, 2),
            "within_tolerance": abs(error) <= CALIBRATED_TOLERANCE,
            "verified": result.metrics["verified"],
            "cycle_seconds": round(seconds, 2)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[400],
                        help="node count, one for both graphs or one per "
                             "graph (default: 400)")
    parser.add_argument("--output", default=str(RESULTS_PATH),
                        help="where to write the JSON record (default: "
                             "the committed record)")
    args = parser.parse_args(argv)
    if len(args.nodes) not in (1, len(GRAPHS)) or min(args.nodes) < 1:
        parser.error(f"--nodes takes 1 or {len(GRAPHS)} positive counts")
    nodes = dict(zip(GRAPHS, args.nodes * len(GRAPHS)
                     if len(args.nodes) == 1 else args.nodes))

    rows = [measure(name, nodes[name], config)
            for name in GRAPHS for config in CONFIGS]
    print(f"analytic vs cycle (tolerance ±{CALIBRATED_TOLERANCE:.0%}):")
    for row in rows:
        print(f"  {row['graph'] + '@' + str(row['nodes']):<14} {row['config']:<8}"
              f" analytic {row['analytic_cycles']:>9.0f}"
              f"  cycle {row['cycle_cycles']:>9.0f}"
              f"  error {row['error_pct']:+7.2f}%"
              f"  {'inside' if row['within_tolerance'] else 'OUTSIDE'}"
              f"  ({row['cycle_seconds']:.1f} s)")
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(
        {"tolerance": CALIBRATED_TOLERANCE, "python": platform.python_version(),
         "rows": rows}, indent=2) + "\n")
    return 0 if all(row["verified"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
