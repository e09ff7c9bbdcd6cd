"""Analytic area / power model of NeuraChip.

The paper synthesises its RTL with Cadence Genus against the ASAP7 7 nm
library and reports per-unit area and average power (Table 4).  We cannot run
synthesis here, so the model below is calibrated directly to Table 4: each
unit type has a per-instance area and a (static + dynamic) power cost whose
constants are fitted to reproduce the three Tile configurations; dynamic
power scales with the activity factors the simulator reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import NeuraChipConfig, TILE16, TILE4, TILE64
from repro.sim.accelerator import SimulationReport

#: Paper-reported Table 4 values: unit -> {config name -> (area mm^2, power W)}.
TABLE4_REFERENCE: dict[str, dict[str, tuple[float, float]]] = {
    "NeuraCore": {"Tile-4": (0.28, 1.05), "Tile-16": (2.74, 1.86),
                  "Tile-64": (9.36, 5.76)},
    "NeuraMem": {"Tile-4": (1.22, 6.85), "Tile-16": (5.10, 7.36),
                 "Tile-64": (18.64, 11.19)},
    "Router": {"Tile-4": (0.49, 2.15), "Tile-16": (1.98, 4.88),
               "Tile-64": (6.88, 4.43)},
    "Memory Controller": {"Tile-4": (0.38, 1.41), "Tile-16": (0.38, 1.96),
                          "Tile-64": (0.38, 2.84)},
    "Total": {"Tile-4": (2.37, 11.46), "Tile-16": (10.2, 16.06),
              "Tile-64": (35.26, 24.22)},
}


@dataclass
class AreaPowerBreakdown:
    """Per-unit area and power of one configuration.

    Attributes:
        config_name: the NeuraChip configuration this breakdown describes.
        area_mm2: unit name -> area in square millimetres.
        power_w: unit name -> average power in watts.
    """

    config_name: str
    area_mm2: dict[str, float] = field(default_factory=dict)
    power_w: dict[str, float] = field(default_factory=dict)

    @property
    def total_area_mm2(self) -> float:
        return sum(self.area_mm2.values())

    @property
    def total_power_w(self) -> float:
        return sum(self.power_w.values())

    def as_table_rows(self) -> list[dict[str, float | str]]:
        """Rows in the Table 4 layout (unit, area, power)."""
        rows = []
        units = list(self.area_mm2) + [u for u in self.power_w if u not in self.area_mm2]
        for unit in units:
            rows.append({"unit": unit,
                         "area_mm2": round(self.area_mm2.get(unit, 0.0), 2),
                         "power_w": round(self.power_w.get(unit, 0.0), 2)})
        rows.append({"unit": "Total",
                     "area_mm2": round(self.total_area_mm2, 2),
                     "power_w": round(self.total_power_w, 2)})
        return rows


class PowerModel:
    """Area / power estimator calibrated against Table 4.

    Per-unit area is interpolated from the reference configurations by
    component count; power is split into a static part (present whenever the
    unit is powered) and a dynamic part scaled by the unit's activity factor.
    """

    #: Fraction of the Table 4 average power treated as activity-independent.
    STATIC_FRACTION = 0.45

    _REFERENCE_CONFIGS = {"Tile-4": TILE4, "Tile-16": TILE16, "Tile-64": TILE64}

    def __init__(self) -> None:
        self._unit_counts = {
            "NeuraCore": lambda cfg: cfg.total_cores,
            "NeuraMem": lambda cfg: cfg.total_mems,
            "Router": lambda cfg: cfg.total_routers,
            "Memory Controller": lambda cfg: cfg.memory_controllers,
        }
        self._totals_memo: dict[tuple[NeuraChipConfig, int], dict[str, float]] = {}

    # ------------------------------------------------------------------
    def _nearest_reference(self, config: NeuraChipConfig) -> str:
        """Reference configuration with the closest total core count."""
        return min(self._REFERENCE_CONFIGS,
                   key=lambda name: abs(self._REFERENCE_CONFIGS[name].total_cores
                                        - config.total_cores))

    def _totals(self, config: NeuraChipConfig, kind: int) -> dict[str, float]:
        """Per unit, the reference's per-instance area (kind=0) or power
        (kind=1) times the unit's count on ``config``; memoised."""
        totals = self._totals_memo.get((config, kind))
        if totals is None:
            name = config.name if config.name in self._REFERENCE_CONFIGS \
                else self._nearest_reference(config)
            reference = self._REFERENCE_CONFIGS[name]
            totals = self._totals_memo[(config, kind)] = {
                unit: TABLE4_REFERENCE[unit][name][kind]
                / max(count_fn(reference), 1) * count_fn(config)
                for unit, count_fn in self._unit_counts.items()}
        return totals

    # ------------------------------------------------------------------
    def area(self, config: NeuraChipConfig) -> AreaPowerBreakdown:
        """Area breakdown for an arbitrary configuration."""
        return AreaPowerBreakdown(config.name, dict(self._totals(config, 0)))

    def power(self, config: NeuraChipConfig,
              activity: dict[str, float] | None = None) -> AreaPowerBreakdown:
        """Power breakdown scaled by per-unit activity factors in [0, 1].

        Args:
            config: the NeuraChip configuration.
            activity: mapping from unit name ('NeuraCore', 'NeuraMem',
                'Router', 'Memory Controller') to an activity factor; missing
                units default to 1.0 (the Table 4 measurement conditions).
        """
        activity = activity or {}
        breakdown = AreaPowerBreakdown(config_name=config.name)
        for unit, total in self._totals(config, 1).items():
            factor = float(activity.get(unit, 1.0))
            factor = min(max(factor, 0.0), 1.0)
            scale = self.STATIC_FRACTION + (1.0 - self.STATIC_FRACTION) * factor
            breakdown.power_w[unit] = total * scale
        return breakdown

    def combined(self, config: NeuraChipConfig,
                 activity: dict[str, float] | None = None) -> AreaPowerBreakdown:
        """Area and power in one breakdown object."""
        breakdown = self.area(config)
        breakdown.power_w = self.power(config, activity).power_w
        return breakdown


# ----------------------------------------------------------------------
# Convenience functions used by the benchmark harness.
# ----------------------------------------------------------------------
#: The model behind the functions below, so its per-config memo persists.
_MODEL = PowerModel()


def area_breakdown(config: NeuraChipConfig) -> AreaPowerBreakdown:
    """Table 4 area breakdown for a configuration."""
    return _MODEL.area(config)


def power_breakdown(config: NeuraChipConfig,
                    activity: dict[str, float] | None = None) -> AreaPowerBreakdown:
    """Table 4 power breakdown for a configuration."""
    return _MODEL.power(config, activity)


def activity_from_report(report: SimulationReport) -> dict[str, float]:
    """Per-component activity factors derived from a simulation report."""
    return {
        "NeuraCore": min(1.0, report.core_utilization * 4.0),
        "NeuraMem": min(1.0, report.mem_utilization * 2.0),
        "Router": min(1.0, report.noc_flits / max(report.cycles, 1.0)),
        "Memory Controller": min(1.0, report.avg_inflight_mem / 16.0),
    }


def estimate_power(config: NeuraChipConfig,
                   report: SimulationReport | None) -> tuple[float, float]:
    """Average power and energy of a run on ``config``, from the
    simulator's activity; ``(0.0, 0.0)`` without a timing report."""
    if report is None:
        return 0.0, 0.0
    power = power_breakdown(config, activity_from_report(report)).total_power_w
    seconds = report.cycles / (config.frequency_ghz * 1e9)
    return power, power * seconds


def energy_efficiency_gops_per_watt(sustained_gops: float, power_w: float) -> float:
    """Table 5 'Energy Efficiency' row."""
    return sustained_gops / power_w if power_w > 0 else 0.0


def area_efficiency_gops_per_mm2(sustained_gops: float, area_mm2: float) -> float:
    """Table 5 'Area Efficiency' row."""
    return sustained_gops / area_mm2 if area_mm2 > 0 else 0.0
