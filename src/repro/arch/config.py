"""NeuraChip hardware configurations (Tables 2 and 3 of the paper).

Three SpGEMM configurations are defined — Tile-4, Tile-16 and Tile-64 — plus
the GNN-mode Tile-16 variant used for the Section 5.4 comparison against GNN
accelerators.  The values are transcribed from the paper; derived quantities
(total component counts) are exposed as properties so the benchmark harness
can regenerate both tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NeuraCoreConfig:
    """Per-NeuraCore resources (Table 2, upper half).

    Attributes:
        pipeline_registers: architected registers per pipeline.
        pipelines: multiply pipelines per NeuraCore (Figure 6 shows the
            quad-pipeline layout used by the simulator).
        multipliers: scalar multipliers per NeuraCore.
        address_generators: address generation units per NeuraCore.
        ports: router ports per NeuraCore.
        register_file_bits: total register file capacity per pipeline in bits
            (Table 3, "Pipeline Register File").
    """

    pipeline_registers: int
    pipelines: int
    multipliers: int
    address_generators: int
    ports: int
    register_file_bits: int


@dataclass(frozen=True)
class NeuraMemConfig:
    """Per-NeuraMem resources (Table 2, lower half).

    Attributes:
        comparators: TAG comparators per hash engine comparator array.
        hash_engines: hash engines per NeuraMem (Figure 8 shows four).
        hashlines: hash lines (TAG/DATA/COUNTER triples) in the HashPad.
        accumulators: scalar accumulators per NeuraMem.
        ports: router ports per NeuraMem.
    """

    comparators: int
    hash_engines: int
    hashlines: int
    accumulators: int
    ports: int


@dataclass(frozen=True)
class NeuraChipConfig:
    """Chip-level configuration (Table 3).

    Attributes:
        name: configuration name ("Tile-4", "Tile-16", "Tile-64", ...).
        tile_count: number of tiles (each tile owns one HBM channel).
        cores_per_tile: NeuraCores per tile.
        mems_per_tile: NeuraMems per tile.
        routers_per_tile: on-chip routers per tile.
        memory_controllers: memory controllers (one per HBM channel).
        core: per-NeuraCore configuration.
        mem: per-NeuraMem configuration.
        frequency_ghz: chip clock frequency.
        hbm_bandwidth_gb_s: aggregate peak DRAM bandwidth in GB/s.
        hashpad_total_mb: total HashPad capacity (Table 3).
        peak_gflops: peak compute throughput (Table 5).
        mmh_tile_size: rows processed per MMH instruction (4 == MMH4).
        mapping_scheme: accumulation mapping scheme name.
        technology_nm: process node used for the area/power model.
    """

    name: str
    tile_count: int
    cores_per_tile: int
    mems_per_tile: int
    routers_per_tile: int
    memory_controllers: int
    core: NeuraCoreConfig
    mem: NeuraMemConfig
    frequency_ghz: float = 1.0
    hbm_bandwidth_gb_s: float = 128.0
    hashpad_total_mb: float = 0.0
    peak_gflops: float = 0.0
    mmh_tile_size: int = 4
    mapping_scheme: str = "drhm"
    technology_nm: int = 7
    notes: str = ""

    # ------------------------------------------------------------------
    # Derived totals (Table 3 rows)
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Total NeuraCores on the chip."""
        return self.tile_count * self.cores_per_tile

    @property
    def total_mems(self) -> int:
        """Total NeuraMems on the chip."""
        return self.tile_count * self.mems_per_tile

    @property
    def total_routers(self) -> int:
        """Total on-chip routers."""
        return self.tile_count * self.routers_per_tile

    @property
    def total_pipelines(self) -> int:
        """Total multiply pipelines across all NeuraCores."""
        return self.total_cores * self.core.pipelines

    @property
    def total_hash_engines(self) -> int:
        """Total hash engines across all NeuraMems."""
        return self.total_mems * self.mem.hash_engines

    @property
    def total_tag_comparators(self) -> int:
        """Total TAG comparators across all hash engines."""
        return self.total_hash_engines * self.mem.comparators

    @property
    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate HBM bandwidth expressed in bytes per clock cycle."""
        return self.hbm_bandwidth_gb_s * 1e9 / (self.frequency_ghz * 1e9)

    def with_mapping(self, scheme: str) -> "NeuraChipConfig":
        """Copy of this configuration with a different mapping scheme."""
        return replace(self, mapping_scheme=scheme)

    def with_mmh_tile(self, tile_size: int) -> "NeuraChipConfig":
        """Copy of this configuration with a different MMH tile size."""
        return replace(self, mmh_tile_size=tile_size)

    def table2_rows(self) -> dict[str, int]:
        """Per-component configuration rows (Table 2) for this tile size."""
        return {
            "NeuraCore/Pipeline Registers": self.core.pipeline_registers,
            "NeuraCore/Pipelines": self.core.pipelines,
            "NeuraCore/Multipliers": self.core.multipliers,
            "NeuraCore/Addr. Generators": self.core.address_generators,
            "NeuraCore/Ports": self.core.ports,
            "NeuraMem/Comparators": self.mem.comparators,
            "NeuraMem/Hash-Engines": self.mem.hash_engines,
            "NeuraMem/Hashlines": self.mem.hashlines,
            "NeuraMem/Accumulators": self.mem.accumulators,
            "NeuraMem/Ports": self.mem.ports,
        }

    def table3_rows(self) -> dict[str, float]:
        """Chip-level configuration rows (Table 3) for this tile size."""
        return {
            "Tile Count": self.tile_count,
            "NeuraCores per tile": self.cores_per_tile,
            "Total NeuraCores": self.total_cores,
            "NeuraMems per tile": self.mems_per_tile,
            "Total NeuraMems": self.total_mems,
            "Memory Controller Count": self.memory_controllers,
            "Routers per tile": self.routers_per_tile,
            "Total Routers": self.total_routers,
            "Total Pipelines": self.total_pipelines,
            "Pipeline Register File (bits)": self.core.register_file_bits,
            "Total Hash-Engines": self.total_hash_engines,
            "Hash-Engine comparators": self.mem.comparators,
            "Total TAG comparators": self.total_tag_comparators,
            "Total HashPad Size (MB)": self.hashpad_total_mb,
            "Max frequency (GHz)": self.frequency_ghz,
        }


# ----------------------------------------------------------------------
# Paper configurations.  The per-core pipeline count follows the Table 3
# "Total Pipelines" row (4 pipelines per NeuraCore — the quad-pipeline layout
# of Figure 6) rather than the Table 2 "Pipelines" row, which counts active
# multiply lanes; both values are retained (pipelines vs multipliers).
# ----------------------------------------------------------------------
TILE4 = NeuraChipConfig(
    name="Tile-4",
    tile_count=8,
    cores_per_tile=1,
    mems_per_tile=1,
    routers_per_tile=4,
    memory_controllers=8,
    core=NeuraCoreConfig(pipeline_registers=4, pipelines=4, multipliers=2,
                         address_generators=1, ports=4, register_file_bits=512),
    mem=NeuraMemConfig(comparators=2, hash_engines=2, hashlines=4096,
                       accumulators=128, ports=4),
    hashpad_total_mb=0.75,
    peak_gflops=8.0,
)

TILE16 = NeuraChipConfig(
    name="Tile-16",
    tile_count=8,
    cores_per_tile=4,
    mems_per_tile=4,
    routers_per_tile=8,
    memory_controllers=8,
    core=NeuraCoreConfig(pipeline_registers=8, pipelines=4, multipliers=4,
                         address_generators=2, ports=4, register_file_bits=1024),
    mem=NeuraMemConfig(comparators=4, hash_engines=4, hashlines=2048,
                       accumulators=256, ports=4),
    hashpad_total_mb=3.0,
    peak_gflops=32.0,
)

TILE64 = NeuraChipConfig(
    name="Tile-64",
    tile_count=8,
    cores_per_tile=16,
    mems_per_tile=16,
    routers_per_tile=32,
    memory_controllers=8,
    core=NeuraCoreConfig(pipeline_registers=16, pipelines=4, multipliers=8,
                         address_generators=2, ports=4, register_file_bits=2048),
    mem=NeuraMemConfig(comparators=8, hash_engines=8, hashlines=2048,
                       accumulators=512, ports=4),
    hashpad_total_mb=12.0,
    peak_gflops=128.0,
)

# Section 5.4: the GNN-comparison configuration uses 8 tiles of a 16x16
# NeuraCore grid with quad pipelines, fewer TAG comparators and port buffers,
# the same HashPad sizes, 8192 GFLOPs peak and 4.3 W average power.
GNN_TILE16 = NeuraChipConfig(
    name="GNN-Tile-16",
    tile_count=8,
    cores_per_tile=256,
    mems_per_tile=4,
    routers_per_tile=8,
    memory_controllers=8,
    core=NeuraCoreConfig(pipeline_registers=8, pipelines=4, multipliers=4,
                         address_generators=2, ports=4, register_file_bits=1024),
    mem=NeuraMemConfig(comparators=2, hash_engines=4, hashlines=2048,
                       accumulators=256, ports=2),
    hashpad_total_mb=3.0,
    peak_gflops=8192.0,
    notes="GNN accelerator comparison configuration (Section 5.4)",
)

_CONFIGS = {
    "tile-4": TILE4,
    "tile-16": TILE16,
    "tile-64": TILE64,
    "gnn-tile-16": GNN_TILE16,
}


def get_config(name: str) -> NeuraChipConfig:
    """Look up a configuration by name ('Tile-4', 'Tile-16', 'Tile-64', 'GNN-Tile-16')."""
    key = name.strip().lower()
    if key not in _CONFIGS:
        raise KeyError(f"unknown configuration {name!r}; "
                       f"choose from {sorted(_CONFIGS)}")
    return _CONFIGS[key]


def all_spgemm_configs() -> list[NeuraChipConfig]:
    """The three SpGEMM configurations in tile-size order."""
    return [TILE4, TILE16, TILE64]
