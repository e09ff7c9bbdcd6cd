"""Area and power model (Table 4 / Table 5 of the paper)."""

from repro.power.model import (
    AreaPowerBreakdown,
    PowerModel,
    TABLE4_REFERENCE,
    activity_from_report,
    area_breakdown,
    energy_efficiency_gops_per_watt,
    area_efficiency_gops_per_mm2,
    estimate_power,
    power_breakdown,
)

__all__ = [
    "AreaPowerBreakdown",
    "PowerModel",
    "TABLE4_REFERENCE",
    "area_breakdown",
    "power_breakdown",
    "activity_from_report",
    "estimate_power",
    "energy_efficiency_gops_per_watt",
    "area_efficiency_gops_per_mm2",
]
