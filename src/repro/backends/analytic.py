"""Analytic execution backend: roofline cycle prediction without events.

The cycle backend replays every HACC through an event queue, which costs
minutes of host time per thousand simulated cycles; the analytic backend
instead *predicts* the cycle count from the compiled program's op counts and
the chip's throughput ceilings, and computes the numeric output by replaying
the compiled program itself: one vectorized gather-multiply-scatter over the
program's structure-only partial-product index
(:meth:`~repro.compiler.program.ProgramArrays.replay`).  Large graphs that
would take hours under NeuraSim finish in milliseconds.

Model
-----
The predicted cycle count is a latency floor plus the tightest of several
aggregate throughput bounds::

    cycles = L0 + max(issue, multiply, inject, hash, ingress, request, bus)

* ``issue``    — MMH instructions over the Dispatcher's issue width;
* ``multiply`` — multiply batches over all pipelines;
* ``inject``   — HACC injections over per-core NoC send ports;
* ``hash``     — HACC lookups/accumulates plus evictions over all hash
  engines, derated by :data:`HASH_ENGINE_EFFICIENCY` for load imbalance
  (the cycle simulator sustains ~70% aggregate hash-engine utilisation on
  the calibration workloads);
* ``ingress``  — one HACC flit per NeuraMem ingress port per cycle, scaled
  by :data:`INGRESS_IMBALANCE`;
* ``request``  — operand fetches over the empirically sustained memory
  request rate (:data:`REQUESTS_PER_CHANNEL_CYCLE` per channel per cycle,
  measured from the cycle model's queueing behaviour);
* ``bus``      — DRAM line traffic over peak HBM bandwidth.

Calibration (fixed workloads, seed 3): the prediction lands within ~5% of
the cycle backend on wiki-Vote (96 nodes) and facebook (80 nodes) for both
Tile-4 and Tile-16; the documented guarantee is **±25%**
(:data:`CALIBRATED_TOLERANCE`), and it holds only on those two
calibration sets.  Larger graphs fall outside it:
``benchmarks/bench_calibration.py`` (dataset seed 3) measures -31.7% to
-37.2% on wiki-Vote and facebook at 400 nodes, Tile-4 and Tile-16 — the
model underestimates there.  Accuracy degrades to roughly -40% on very
sparse, latency-dominated graphs such as the scaled-down cora, where
queueing delay rather than any throughput ceiling sets the runtime.
"""

from __future__ import annotations

import time as _time

from repro.backends.base import ExecutionBackend, ExecutionContext, ExecutionResult
from repro.compiler.program import Program
from repro.sim.accelerator import SimulationReport
from repro.sim.neuracore import MMH_HIST_BINS, MMH_HIST_BIN_WIDTH
from repro.sim.neuramem import HACC_HIST_BINS, HACC_HIST_BIN_WIDTH
from repro.sim.stats import Histogram
from repro.sparse.csr import CSRMatrix

#: Sustained fraction of aggregate hash-engine throughput (load imbalance
#: across NeuraMems and engines keeps the cycle model near this level).
HASH_ENGINE_EFFICIENCY = 0.7
#: Hot/mean ratio applied to the per-NeuraMem ingress-port bound.
INGRESS_IMBALANCE = 1.2
#: Sustained memory read requests per channel per cycle under load
#: (measured from the cycle model's controller queueing).
REQUESTS_PER_CHANNEL_CYCLE = 0.42
#: Documented relative tolerance versus the cycle backend on the
#: calibration workloads (wiki-Vote @ 96 nodes, facebook @ 80 nodes).
CALIBRATED_TOLERANCE = 0.25


class AnalyticBackend(ExecutionBackend):
    """Roofline-style cycle prediction; output by replaying the program."""

    name = "analytic"

    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        start = _time.perf_counter()
        output = program.replay()
        report = self.predict(program, ctx,
                              wall=_time.perf_counter() - start)
        return ExecutionResult(backend=self.name, output=output,
                               report=report)

    # ------------------------------------------------------------------
    def predict(self, program: Program, ctx: ExecutionContext,
                wall: float = 0.0) -> SimulationReport:
        """Predict a :class:`SimulationReport` for ``program`` on ``ctx``."""
        config, params = ctx.config, ctx.params
        n_mmh = program.n_instructions
        pp = program.total_partial_products
        nnz = program.output_nnz
        ppn = pp / n_mmh if n_mmh else 0.0

        # Operand-size totals and the rolling-counter (tag) histogram come
        # straight from the columnar program arrays — one vectorized
        # reduction each.
        arrays = program.arrays
        sum_na = arrays.sum_na
        sum_nb = arrays.sum_nb
        counts = arrays.out_counts
        counter_mean = float(counts.mean()) if counts.size else 0.0
        counter_max = int(counts.max()) if counts.size else 0

        cores = max(1, config.total_cores)
        mems = max(1, config.total_mems)
        engines = max(1, config.total_hash_engines)
        pipelines = max(1, config.total_pipelines)
        channels = max(1, config.memory_controllers)
        slots = cores * config.core.pipelines * max(
            1, config.core.pipeline_registers // params.registers_per_mmh)

        batches = -(-max(1.0, ppn) // max(1, config.core.multipliers))
        compute_per_mmh = batches * params.multiply_cycles
        dispatch_per_mmh = ppn / max(1, params.hacc_sends_per_cycle)

        # Throughput ceilings (cycles to stream the whole program).
        b_issue = n_mmh / max(1, params.dispatch_width)
        b_mult = n_mmh * compute_per_mmh / pipelines
        b_inject = pp / (params.hacc_sends_per_cycle * cores)
        hash_work = ((pp + nnz)
                     * (params.hash_lookup_cycles + params.hash_accumulate_cycles))
        b_hash = hash_work / engines / HASH_ENGINE_EFFICIENCY
        b_ingress = pp * INGRESS_IMBALANCE / mems
        b_request = (4.0 * n_mmh) / (REQUESTS_PER_CHANNEL_CYCLE * channels)

        line_bytes = max(1, params.coalesce_line_bytes)
        footprint_lines = -(-program.address_map.total_bytes // line_bytes)
        read_bytes = footprint_lines * line_bytes
        write_bytes = nnz * params.writeback_bytes
        traffic_bytes = int(read_bytes + write_bytes)
        b_bus = traffic_bytes / (params.hbm_bytes_per_cycle_per_channel * channels)

        # Latency floor: fill the pipeline once.
        width = max(1, round((cores + mems) ** 0.5))
        height = -(-(cores + mems) // width)
        hops = (width + height) / 4.0
        memory_rt = (4 + params.memory_controller_cycles
                     + params.hbm_row_miss_cycles
                     + line_bytes / params.hbm_bytes_per_cycle_per_channel)
        frontend = (params.decode_cycles + params.register_alloc_cycles
                    + params.address_gen_cycles)
        latency_floor = (frontend + memory_rt + compute_per_mmh
                         + dispatch_per_mmh + hops * params.router_hop_cycles)

        bounds = {
            "issue": b_issue, "multiply": b_mult, "inject": b_inject,
            "hash": b_hash, "ingress": b_ingress, "request": b_request,
            "bus": b_bus,
        }
        binding = max(bounds, key=bounds.get)
        cycles = float(-(-(latency_floor + bounds[binding]) // 1))

        seconds = cycles / (config.frequency_ghz * 1e9)
        busy = n_mmh * (compute_per_mmh + dispatch_per_mmh)
        mem_busy = hash_work
        avg_inflight = 0.3 * 4.0 * min(slots, n_mmh)
        per_mem_lines = -(-nnz // mems) if nnz else 0
        peak_occupancy = int(min(config.mem.hashlines, max(per_mem_lines, 1))
                             if nnz else 0)

        return SimulationReport(
            config_name=config.name,
            workload=program.source,
            cycles=cycles,
            mmh_instructions=n_mmh,
            hacc_instructions=pp,
            useful_flops=program.useful_flops,
            gflops=program.useful_flops / seconds / 1e9 if seconds > 0 else 0.0,
            gops=pp / seconds / 1e9 if seconds > 0 else 0.0,
            mmh_cpi_mean=latency_floor,
            hacc_cpi_mean=memory_rt,
            mmh_cpi_histogram=Histogram(bin_width=MMH_HIST_BIN_WIDTH,
                                        n_bins=MMH_HIST_BINS),
            hacc_cpi_histogram=Histogram(bin_width=HACC_HIST_BIN_WIDTH,
                                         n_bins=HACC_HIST_BINS),
            ipc=n_mmh / cycles if cycles else 0.0,
            cpi=cycles / n_mmh if n_mmh else 0.0,
            stall_cycles=n_mmh * memory_rt,
            busy_cycles=busy,
            core_utilization=min(1.0, busy / (cycles * pipelines)),
            mem_utilization=min(1.0, mem_busy / (cycles * engines)),
            avg_inflight_mem=avg_inflight,
            memory_traffic_bytes=traffic_bytes,
            evictions=nnz,
            spills=0,
            peak_hashpad_occupancy=peak_occupancy,
            hashpad_occupancy_fraction=peak_occupancy / max(1, config.mem.hashlines),
            noc_flits=pp,
            noc_avg_hops=hops,
            output_nnz=nnz,
            correct=None,
            max_abs_error=0.0,
            wall_clock_seconds=wall,
            events=0,
            eviction_mode=ctx.eviction_mode,
            mapping_scheme=ctx.mapping_scheme,
            counters={"analytic.binding_bound": binding,
                      "analytic.sum_na": sum_na,
                      "analytic.sum_nb": sum_nb,
                      "analytic.counter_mean": round(counter_mean, 3),
                      "analytic.counter_max": counter_max,
                      **{f"analytic.bound.{k}": round(v, 1)
                         for k, v in bounds.items()}},
        )
