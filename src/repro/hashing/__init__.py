"""Hash-based compute mapping algorithms (Section 2.4 / 3.5 of the paper).

The four mapping schemes the paper compares — ring (round robin),
prime-modular, random lookup-table, and NeuraChip's Dynamically Reseeding
Hash-based Mapping (DRHM) — are one function, :func:`map_tags`, that maps a
TAG column to NeuraMem indices in one numpy pass.  :func:`map_haccs` is the
column NeuraSim and the functional model run (DRHM reseeded per output
row); :func:`mapping_heatmap` builds the Figure 12 / 13 heat maps (DRHM
reseeded per A column), and :func:`summarize_counts` measures their load
balance.
"""

from repro.hashing.mappings import (
    MAPPING_SCHEMES,
    lookup_table_bytes,
    map_haccs,
    map_tags,
)
from repro.hashing.balance import (
    LoadBalanceReport,
    mapping_heatmap,
    summarize_counts,
)

__all__ = [
    "MAPPING_SCHEMES",
    "map_tags",
    "map_haccs",
    "lookup_table_bytes",
    "LoadBalanceReport",
    "mapping_heatmap",
    "summarize_counts",
]
