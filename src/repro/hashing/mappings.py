"""Compute mapping: ring, prime-modular, random lookup, and DRHM.

A mapping scheme assigns a 32-bit TAG (the identifier of an output element)
to one of ``n_mems`` NeuraMem units.  Section 2.4 of the paper lists the
three requirements — consistency, low overhead, and sparsity agnosticism —
and Section 3.5 introduces the Dynamically Reseeding Hash-based Mapping
(DRHM) whose lower-bit variant (Equation 3) NeuraChip uses.

:func:`map_tags` maps a whole TAG column in one numpy pass;
:func:`map_haccs` is the column both simulators run, with DRHM's gamma
drawn once per output row.
"""

from __future__ import annotations

import numpy as np

#: Every mapping scheme name, in the order the paper compares them.
MAPPING_SCHEMES = ("ring", "modular", "random", "drhm")

TAG_MASK = (1 << 32) - 1

# Knuth's multiplicative hashing constant: the prime-modular scheme's
# multiplier, and the row factor of DRHM's per-row seed.
_PRIME = 2_654_435_761

#: DRHM keeps the lower ``32 - _DRHM_K`` TAG bits (Equation 3).
_DRHM_K = 16


def drhm_gamma(seed: int) -> int:
    """The first DRHM seed gamma drawn from ``default_rng(seed)``.  Gamma
    is odd, so that even products do not collapse onto a few buckets when
    the NeuraMem count is a power of two."""
    return int(np.random.default_rng(seed).integers(1, 1 << 30)) | 1


def row_gammas(rows: np.ndarray, seed: int = 0) -> np.ndarray:
    """DRHM's per-output-row gamma for each entry of ``rows``.

    Every output row gets its own gamma, one entry of the compact seed
    table, so every task of that row stays on one NeuraMem — the
    accumulate-by-TAG dataflow needs that — however the rows interleave.
    """
    distinct, inverse = np.unique(np.asarray(rows, dtype=np.int64),
                                  return_inverse=True)
    seed_mix = seed * 40_503 + 1
    gammas = np.array([drhm_gamma((row * _PRIME + seed_mix) & TAG_MASK)
                       for row in distinct.tolist()], dtype=np.uint64)
    return gammas[inverse]


def map_tags(scheme: str, tags: np.ndarray, n_mems: int, seed: int = 0,
             gamma: np.ndarray | int | None = None) -> np.ndarray:
    """Map a TAG column to NeuraMem indices in ``[0, n_mems)``, in one pass.

    * ``ring``: ``TAG mod N``.  Cheap and consistent, but strided TAGs
      (banded meshes, dense rows) keep hitting the same NeuraMems — the
      hot spots of Figure 12(a).
    * ``modular``: ``(TAG * p mod 2^61) mod N`` with Knuth's prime ``p``.
    * ``random``: an ideal lookup table, ``default_rng(seed)`` drawing one
      entry per distinct TAG in first-sight order.  Sparsity agnostic, but
      its table costs 8 B per distinct TAG (:func:`lookup_table_bytes`).
    * ``drhm``: Equation 3 of the paper,
      ``H_l(TAG, gamma) = ((TAG << k) >> k) * gamma mod N`` with k = 16
      and 32-bit shifts.  The "mod N" applies to the xor-folded 32-bit
      product (``p = masked * gamma mod 2^32; p ^= p >> 16``): a plain
      modulo keeps any common factor of the TAG stride and a power-of-two
      N, so no gamma could break strided hot spots.  ``gamma`` is one
      value or one per TAG.  NeuraSim and the functional model reseed per
      output row (:func:`row_gammas`, via :func:`map_haccs`); the Figure
      12/13 heat maps reseed after each A column
      (:func:`repro.hashing.balance.mapping_heatmap`).  Without ``gamma``
      the scheme uses ``drhm_gamma(seed)``.

    Raises:
        ValueError: for an unknown scheme or a non-positive ``n_mems``.
    """
    if scheme not in MAPPING_SCHEMES:
        raise ValueError(f"unknown mapping scheme {scheme!r}; "
                         f"choose from {sorted(MAPPING_SCHEMES)}")
    if n_mems <= 0:
        raise ValueError("n_mems must be positive")
    tags = np.asarray(tags, dtype=np.int64).astype(np.uint64) & TAG_MASK
    n = np.uint64(n_mems)
    if scheme == "ring":
        index = tags % n
    elif scheme == "modular":
        # The product wraps mod 2^64, which 2^61 divides: the low 61 bits
        # are exact.
        index = tags * np.uint64(_PRIME) % np.uint64(1 << 61) % n
    elif scheme == "random":
        distinct, first, inverse = np.unique(tags, return_index=True,
                                             return_inverse=True)
        order = np.argsort(first, kind="stable")
        table = np.empty(distinct.size, dtype=np.int64)
        table[order] = np.random.default_rng(seed).integers(
            0, n_mems, size=distinct.size)
        return table[inverse]
    else:
        if gamma is None:
            gamma = drhm_gamma(seed)
        masked = tags & np.uint64((1 << (32 - _DRHM_K)) - 1)
        product = masked * np.asarray(gamma, dtype=np.uint64) & np.uint64(TAG_MASK)
        index = (product ^ (product >> np.uint64(16))) % n
    return index.astype(np.int64)


def map_haccs(scheme: str, tags: np.ndarray, rows: np.ndarray, n_mems: int,
              seed: int = 0) -> np.ndarray:
    """The NeuraMem of each HACC of a program's stream: :func:`map_tags`
    with DRHM's gamma drawn per output row (``rows``)."""
    gamma = row_gammas(rows, seed) if scheme == "drhm" else None
    return map_tags(scheme, tags, n_mems, seed, gamma)


def lookup_table_bytes(scheme: str, n_tags: int, n_rows: int) -> int:
    """Lookup state a scheme keeps for ``n_tags`` distinct TAGs over
    ``n_rows`` distinct output rows (the Section 3.5 cost argument): the
    random table holds a 32-bit TAG and a 32-bit index per TAG, DRHM one
    32-bit gamma per row, and ring and modular nothing."""
    return {"random": 8 * n_tags, "drhm": 4 * n_rows}.get(scheme, 0)
