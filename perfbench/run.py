#!/usr/bin/env python3
"""The repository benchmark: one seeded command per workload.

Run from the repository root::

    python3 perfbench/run.py --workload spgemm-warm --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same seeded stream in alternating untraced and
traced blocks (span tracing in ``spans.py``) and reports the per-layer
metrics (``layers.py``); the spans are written to ``perfbench/out/``.  Every metric is printed by name with its unit, then a
provenance line, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Host time and modelled cycles are separate metrics: ``model.*`` values are
in cycles and are never added to a time.  The host times in the result
line (``setup_s``, ``latency_ms.p50_norm``) are normalised to a reference
host speed measured beside them (``hostspeed.py``); the raw ones are
printed above it.  The exit code is non-zero when
any output check fails, and (without printing a result) when the
repository sources are not next to this directory.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("spgemm-cold", "spgemm-warm", "gnn-stack", "serve-mixed",
             "cycle-sim")


def git_sha() -> str:
    """HEAD of the checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: repository sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread here and in the server child: the host has two shared
    # cores, and a threaded BLAS times the scheduler (gnn-stack's ten-seed
    # spread fell from 0.11 to 0.06 of its median with one thread).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np

    from hostspeed import host_ms

    begin = time.perf_counter()
    first_host_ms = host_ms()
    kernel_s = time.perf_counter() - begin

    import serving
    import workloads

    import_s = time.perf_counter() - _STARTED - kernel_s
    import_host_ms = (first_host_ms + host_ms()) / 2
    runner = (serving.run_serve if args.workload == "serve-mixed"
              else workloads.run_in_process)
    try:
        outcome = runner(args.workload, args.seed, args.seconds,
                         bool(args.trace), import_s, import_host_ms)
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} did not complete",
              file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<30} {value:>16.6f} {unit}")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'error_rate':<30} {error_rate:>16.6f} fraction "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for name, value in outcome.notes.items():
        print(f"  {name:<30} {value}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "samples": outcome.samples,
        "units": {name: unit for name, (_, unit) in outcome.metrics.items()},
        "setup_s_samples": outcome.setup_samples,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
