"""Micro-benchmark: loop vs columnar compile throughput.

Times the reference loop compiler (``compile_spgemm_loop``) against the
vectorized columnar compiler (``compile_spgemm``) on a synthetic power-law
graph and writes wall times, MMH-instruction throughput, and the speedup to
``benchmarks/results/bench_compiler.json`` so the compile-path trajectory is
tracked over time: the record is written, not asserted.

Equivalence is checked, not assumed: the record includes whether the two
compilers produced identical op counts at the benchmark size, and whether
their instruction encodings and functional-simulation outputs are identical
at a verification size small enough to replay the HACC stream.

Run with:  PYTHONPATH=src python benchmarks/bench_compiler.py [--nodes 2000]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.arch.config import TILE4
from repro.compiler.lowering import compile_spgemm, compile_spgemm_loop
from repro.datasets import load_dataset
from repro.sim.functional import FunctionalAccelerator
from repro.sparse.convert import csr_to_csc

RESULTS_PATH = Path(__file__).parent / "results" / "bench_compiler.json"


def _time_compile(compiler, a_csc, b_csr, tile_size: int,
                  max_repeats: int = 7,
                  budget_seconds: float = 10.0) -> tuple[float, object]:
    """Best-of-N wall time; stops repeating once the time budget is spent."""
    best = float("inf")
    spent = 0.0
    program = None
    for _ in range(max_repeats):
        start = time.perf_counter()
        program = compiler(a_csc, b_csr, tile_size=tile_size)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        if spent >= budget_seconds:
            break
    return best, program


def run(nodes: int, dataset: str = "wiki-Vote", tile_size: int = 4,
        verify_nodes: int = 400, seed: int = 0) -> dict:
    """Benchmark both compilers on one synthetic graph and cross-check."""
    graph = load_dataset(dataset, max_nodes=nodes, seed=seed)
    a_csr = graph.adjacency_csr()
    a_csc = csr_to_csc(a_csr)
    compile_spgemm(a_csc, a_csr, tile_size=tile_size)  # warm caches

    columnar_s, columnar = _time_compile(compile_spgemm, a_csc, a_csr,
                                         tile_size)
    loop_s, loop = _time_compile(compile_spgemm_loop, a_csc, a_csr,
                                 tile_size, max_repeats=3)

    identical_op_counts = (
        columnar.n_instructions == loop.n_instructions
        and columnar.total_partial_products == loop.total_partial_products
        and columnar.output_nnz == loop.output_nnz
        and columnar.n_row_groups == loop.n_row_groups)

    # Encoding / functional equivalence at a size where replaying every
    # HACC through the functional model stays cheap.
    v_nodes = min(nodes, verify_nodes)
    v_graph = load_dataset(dataset, max_nodes=v_nodes, seed=seed)
    v_csr = v_graph.adjacency_csr()
    v_csc = csr_to_csc(v_csr)
    v_columnar = compile_spgemm(v_csc, v_csr, tile_size=tile_size)
    v_loop = compile_spgemm_loop(v_csc, v_csr, tile_size=tile_size)
    identical_encodings = v_columnar.encode_binary() == v_loop.encode_binary()
    accelerator = FunctionalAccelerator(TILE4)
    identical_functional_output = bool(np.array_equal(
        accelerator.run(v_columnar).output, accelerator.run(v_loop).output))

    record = {
        "dataset": dataset,
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "tile_size": tile_size,
        "python_version": platform.python_version(),
        "mmh_instructions": columnar.n_instructions,
        "partial_products": columnar.total_partial_products,
        "output_nnz": columnar.output_nnz,
        "compilers": {
            "loop": {
                "seconds": round(loop_s, 6),
                "mmh_per_second": round(loop.n_instructions / loop_s)
                if loop_s > 0 else 0,
            },
            "columnar": {
                "seconds": round(columnar_s, 6),
                "mmh_per_second": round(columnar.n_instructions / columnar_s)
                if columnar_s > 0 else 0,
            },
        },
        "speedup": round(loop_s / columnar_s, 1) if columnar_s > 0 else 0.0,
        "identical_op_counts": identical_op_counts,
        "verify_nodes": v_graph.n_nodes,
        "identical_encodings": identical_encodings,
        "identical_functional_output": identical_functional_output,
    }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=2000,
                        help="synthetic graph size (default: 2000)")
    parser.add_argument("--dataset", default="wiki-Vote")
    parser.add_argument("--tile-size", type=int, default=4)
    parser.add_argument("--verify-nodes", type=int, default=400,
                        help="graph size for the functional-equivalence "
                             "cross-check (default: 400)")
    parser.add_argument("--output", default=str(RESULTS_PATH))
    args = parser.parse_args()

    record = run(args.nodes, dataset=args.dataset, tile_size=args.tile_size,
                 verify_nodes=args.verify_nodes)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n")

    compilers = record["compilers"]
    print(f"{record['dataset']}  nodes={record['nodes']}  "
          f"edges={record['edges']}  mmh={record['mmh_instructions']}")
    print(f"loop     {compilers['loop']['seconds']:9.4f}s  "
          f"({compilers['loop']['mmh_per_second']:>12,} MMH/s)")
    print(f"columnar {compilers['columnar']['seconds']:9.4f}s  "
          f"({compilers['columnar']['mmh_per_second']:>12,} MMH/s)")
    print(f"speedup {record['speedup']}x  "
          f"op_counts_identical={record['identical_op_counts']}  "
          f"encodings_identical={record['identical_encodings']}  "
          f"functional_identical={record['identical_functional_output']}")
    print(f"[saved {output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
