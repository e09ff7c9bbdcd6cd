"""Analytic models of the SpGEMM accelerators (OuterSPACE, SpArch, Gamma)
and the analytic NeuraChip model used for cross-platform comparison.

The prior accelerators cannot be simulated here (their RTL / simulators are
not available offline), so each is modelled with the same roofline + dataflow
traffic approach as the CPU/GPU platforms (:mod:`repro.baselines.platforms`),
with traffic terms reflecting their published dataflow:

* **OuterSPACE** — outer-product dataflow; all partial products spill to
  memory and are merged in a second phase (the memory-bloat weakness the
  paper highlights).
* **SpArch** — outer product with on-chip merger trees; a large fraction of
  the partial-product traffic is eliminated, at a large comparator-area cost.
* **Gamma** — Gustavson dataflow with FiberCache prefetching; near-streaming
  traffic, slight degradation from cache under-utilisation (data idling).
* **NeuraChip (analytic)** — Gustavson dataflow with on-chip hash
  accumulation and rolling eviction; operands streamed once, outputs written
  once.  The analytic model is used for the *cross-platform* figures
  (Figure 16, Table 5); the cycle simulator cross-validates its trends on
  small instances (``benchmarks/test_fig16_spgemm_speedup.py``).
"""

from __future__ import annotations

from repro.arch.config import NeuraChipConfig, TILE16, TILE4, TILE64
from repro.baselines.platforms import BaselinePlatform
from repro.baselines.workload import SpGEMMWorkloadStats

ACCEL_OUTERSPACE = BaselinePlatform(
    name="OuterSPACE",
    peak_gflops=384.0,
    bandwidth_gb_s=128.0,
    on_chip_mb=4.0,
    dataflow="outer",
    efficiency=0.16,
    reference_gops=2.9,
    imbalance_sensitivity=0.20,
    area_mm2=86.74,
    power_w=24.0,
    technology_nm=32,
    compute_units="256 PEs",
    frequency_ghz=1.5,
)

ACCEL_SPARCH = BaselinePlatform(
    name="SpArch",
    peak_gflops=32.0,
    bandwidth_gb_s=128.0,
    on_chip_mb=15.0,
    dataflow="outer",
    efficiency=0.62,
    reference_gops=10.4,
    # Merger trees keep most partial products on chip: discount the
    # partial-matrix traffic relative to OuterSPACE.
    traffic_multiplier=0.45,
    imbalance_sensitivity=0.10,
    area_mm2=28.49,
    power_w=9.26,
    technology_nm=40,
    compute_units="2x8 mults, 16x16 merger",
    frequency_ghz=1.0,
)

ACCEL_GAMMA = BaselinePlatform(
    name="Gamma",
    peak_gflops=32.0,
    bandwidth_gb_s=128.0,
    on_chip_mb=3.0,
    dataflow="row_wise",
    efficiency=0.78,
    reference_gops=16.5,
    # FiberCache prefetching leaves data idling in the cache; modelled as a
    # modest traffic inflation from conflict/idle refetches.
    traffic_multiplier=1.12,
    imbalance_sensitivity=0.08,
    area_mm2=30.6,
    power_w=None,
    technology_nm=45,
    compute_units="32 PEs radix-64",
    frequency_ghz=1.0,
)


def neurachip_analytic(config: NeuraChipConfig,
                       reference_gops: float,
                       efficiency: float = 0.90) -> BaselinePlatform:
    """Analytic NeuraChip model for a given tile configuration.

    Args:
        config: NeuraChip configuration (peak throughput, bandwidth).
        reference_gops: Table 5 sustained GOP/s used for calibration.
        efficiency: fraction of the roofline sustained (the decoupled pipeline
            plus DRHM load balancing keep this high).
    """
    return BaselinePlatform(
        name=f"NeuraChip {config.name}",
        peak_gflops=config.peak_gflops,
        bandwidth_gb_s=config.hbm_bandwidth_gb_s,
        on_chip_mb=config.hashpad_total_mb,
        dataflow="decoupled_hash",
        efficiency=efficiency,
        reference_gops=reference_gops,
        imbalance_sensitivity=0.02,
        area_mm2=None,
        power_w=None,
        technology_nm=config.technology_nm,
        compute_units=f"2x{config.total_cores // 2} NeuraCores",
        frequency_ghz=config.frequency_ghz,
    )


#: Analytic NeuraChip models with the Table 5 sustained-throughput targets.
NEURACHIP_ANALYTIC_TILE4 = neurachip_analytic(TILE4, reference_gops=5.15,
                                              efficiency=0.55)
NEURACHIP_ANALYTIC_TILE16 = neurachip_analytic(TILE16, reference_gops=24.75,
                                               efficiency=0.90)
NEURACHIP_ANALYTIC_TILE64 = neurachip_analytic(TILE64, reference_gops=30.69,
                                               efficiency=0.95)


def spgemm_accelerators() -> list[BaselinePlatform]:
    """The three prior SpGEMM accelerators of Figure 16, in paper order."""
    return [ACCEL_OUTERSPACE, ACCEL_SPARCH, ACCEL_GAMMA]


def table5_platforms() -> list[BaselinePlatform]:
    """Every column of Table 5 as an analytic platform model."""
    from repro.baselines.platforms import (CPU_MKL, GPU_CUSPARSE, GPU_CUSP,
                                           GPU_HIPSPARSE)

    return [CPU_MKL, GPU_CUSPARSE, GPU_CUSP, GPU_HIPSPARSE,
            ACCEL_OUTERSPACE, ACCEL_SPARCH, ACCEL_GAMMA,
            NEURACHIP_ANALYTIC_TILE4, NEURACHIP_ANALYTIC_TILE16,
            NEURACHIP_ANALYTIC_TILE64]


def speedup_table(workloads: list[SpGEMMWorkloadStats],
                  reference: BaselinePlatform = NEURACHIP_ANALYTIC_TILE16,
                  platforms: list[BaselinePlatform] | None = None,
                  calibrate: bool = True) -> dict[str, dict[str, float]]:
    """Per-dataset speedup of ``reference`` over each platform (Figure 16).

    Returns a nested mapping ``{platform: {dataset: speedup, ..., 'gmean': g}}``.
    """
    import numpy as np

    from repro.baselines.platforms import calibrate_platforms

    if platforms is None:
        platforms = [*spgemm_platforms_in_order(), *spgemm_accelerators()]
    all_platforms = [*platforms, reference]
    if calibrate:
        all_platforms = calibrate_platforms(all_platforms, workloads)
    reference_model = all_platforms[-1]
    table: dict[str, dict[str, float]] = {}
    for platform in all_platforms[:-1]:
        per_dataset = {}
        for stats in workloads:
            ref_time = reference_model.execution_time_s(stats)
            base_time = platform.execution_time_s(stats)
            per_dataset[stats.name] = base_time / ref_time if ref_time > 0 else 0.0
        values = [v for v in per_dataset.values() if v > 0]
        per_dataset["gmean"] = float(np.exp(np.mean(np.log(values)))) if values else 0.0
        table[platform.name] = per_dataset
    return table


def spgemm_platforms_in_order() -> list[BaselinePlatform]:
    """CPU and GPU platforms in the order Figure 16 lists them."""
    from repro.baselines.platforms import spgemm_platforms

    return spgemm_platforms()
