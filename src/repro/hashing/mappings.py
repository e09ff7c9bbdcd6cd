"""Compute-mapping schemes: ring, prime-modular, random lookup, and DRHM.

A mapping scheme assigns a 32-bit TAG (the identifier of an output element or
an input row) to one of ``n_resources`` compute/memory units.  Section 2.4 of
the paper lists the three requirements — consistency, low overhead, and
sparsity agnosticism — and Section 3.5 introduces the Dynamically Reseeding
Hash-based Mapping (DRHM) whose lower-bit variant (Equation 3) NeuraChip uses.
"""

from __future__ import annotations

import abc

import numpy as np

TAG_BITS = 32
TAG_MASK = (1 << TAG_BITS) - 1

# A fixed prime used by the modular scheme, as in prime-modular hashing
# literature referenced by the paper.
_DEFAULT_PRIME = 2_654_435_761  # Knuth's multiplicative hashing constant.


class MappingScheme(abc.ABC):
    """Base class for TAG -> resource mapping schemes.

    A scheme is *consistent* when, between reseed events, the same TAG always
    maps to the same resource.  Schemes are cheap objects; one is instantiated
    per simulation run.
    """

    name = "abstract"

    def __init__(self, n_resources: int) -> None:
        if n_resources <= 0:
            raise ValueError("n_resources must be positive")
        self.n_resources = int(n_resources)

    @abc.abstractmethod
    def map(self, tag: int, group: int | None = None) -> int:
        """Map a TAG to a resource index in ``[0, n_resources)``.

        Args:
            tag: 32-bit identifier of the task (output element or row).
            group: optional consistency group (the output row the tag belongs
                to).  Schemes that reseed over time (DRHM) use the group to
                keep every task of the same output row on the same resource,
                which the accumulate-by-TAG dataflow requires.  Static schemes
                ignore it.
        """

    def reseed(self, row_index: int | None = None) -> None:
        """Notify the scheme that a row of computation finished.

        Only DRHM reacts to this; the other schemes are static.  The optional
        ``row_index`` lets deterministic tests reproduce the reseed sequence.
        """

    def lookup_table_bytes(self) -> int:
        """Memory footprint of any lookup state the scheme must keep."""
        return 0


class RingHashMapping(MappingScheme):
    """Round-robin / ring mapping: ``resource = TAG mod N``.

    Cheap and consistent, but strided TAG sequences (common in banded mesh
    matrices) repeatedly hit the same subset of resources, producing the hot
    spots of Figure 12(a).
    """

    name = "ring"

    def map(self, tag: int, group: int | None = None) -> int:
        return (tag & TAG_MASK) % self.n_resources


class ModularHashMapping(MappingScheme):
    """Prime-number modular hashing: ``resource = (TAG * p) mod N``."""

    name = "modular"

    def __init__(self, n_resources: int, prime: int = _DEFAULT_PRIME) -> None:
        super().__init__(n_resources)
        if prime <= 1:
            raise ValueError("prime must be > 1")
        self.prime = int(prime)

    def map(self, tag: int, group: int | None = None) -> int:
        return ((tag & TAG_MASK) * self.prime % (1 << 61)) % self.n_resources


class RandomLookupMapping(MappingScheme):
    """Ideal random mapping backed by an explicit lookup table.

    Sparsity agnostic by construction but requires one table entry per
    distinct TAG, which is the memory cost the paper deems impractical in
    hardware.  The table grows lazily as TAGs are first seen.
    """

    name = "random"

    def __init__(self, n_resources: int, seed: int = 0) -> None:
        super().__init__(n_resources)
        self._rng = np.random.default_rng(seed)
        self._table: dict[int, int] = {}

    def map(self, tag: int, group: int | None = None) -> int:
        tag &= TAG_MASK
        if tag not in self._table:
            self._table[tag] = int(self._rng.integers(0, self.n_resources))
        return self._table[tag]

    def lookup_table_bytes(self) -> int:
        # One 32-bit TAG key plus one resource index per entry.
        return len(self._table) * 8


class DynamicReseedHashMapping(MappingScheme):
    """Dynamically Reseeding Hash-based Mapping (DRHM, Section 3.5).

    Implements Equations 3 and 4 of the paper::

        H_l(TAG, gamma) = ((TAG << k) >> k) * gamma  mod N     (lower k bits)
        H_h(TAG, gamma) = ((TAG >> k) << k) * gamma  mod N     (upper k bits)

    with 32-bit shift semantics (bits shifted out are discarded).  After each
    row of the input matrix is processed, :meth:`reseed` draws a fresh random
    seed gamma, which is recorded in a compact per-row seed table so the
    mapping stays consistent (replayable) for that row.

    Implementation note: the final "mod N" of Equations 3/4 is applied to an
    xor-folded 32-bit product (``p = masked * gamma mod 2^32; p ^= p >> 16``)
    rather than to the raw product.  A direct modulo of the raw product
    preserves any common factor between the TAG stride and N (all the
    power-of-two resource counts of Table 3), so no choice of gamma could
    break strided hot spots; folding the high half into the low half makes the
    bucket gamma-sensitive while still spreading consecutive TAGs, which is
    the sparsity-agnostic behaviour the paper attributes to DRHM.
    """

    name = "drhm"

    def __init__(self, n_resources: int, k: int = 16, seed: int = 0,
                 use_lower_bits: bool = True) -> None:
        super().__init__(n_resources)
        if not 0 <= k < TAG_BITS:
            raise ValueError("k must be in [0, 32)")
        self.k = int(k)
        self.use_lower_bits = bool(use_lower_bits)
        self._rng = np.random.default_rng(seed)
        self._seed_table: list[int] = []
        self._group_gammas: dict[int, int] = {}
        self._base_seed = int(seed)
        self.gamma = self._draw_gamma()

    def _draw_gamma(self) -> int:
        # Odd gamma avoids degenerate all-even products collapsing onto a few
        # buckets when N is a power of two.
        gamma = int(self._rng.integers(1, 1 << 30)) | 1
        self._seed_table.append(gamma)
        return gamma

    def _gamma_for_group(self, group: int) -> int:
        """Per-group seed: each output row gets its own gamma, stored in the
        compact seed lookup table, so the mapping stays consistent for every
        task of that row (the reseed-after-each-row behaviour of the paper)."""
        gamma = self._group_gammas.get(group)
        if gamma is None:
            mix = (group * 2_654_435_761 + self._base_seed * 40_503 + 1) & 0xFFFFFFFF
            gamma = int(np.random.default_rng(mix).integers(1, 1 << 30)) | 1
            self._group_gammas[group] = gamma
            self._seed_table.append(gamma)
        return gamma

    def map(self, tag: int, group: int | None = None) -> int:
        tag &= TAG_MASK
        if self.use_lower_bits:
            masked = ((tag << self.k) & TAG_MASK) >> self.k
        else:
            masked = ((tag >> self.k) << self.k) & TAG_MASK
        gamma = self.gamma if group is None else self._gamma_for_group(group)
        product = (masked * gamma) & TAG_MASK
        product ^= product >> 16
        return product % self.n_resources

    def reseed(self, row_index: int | None = None) -> None:
        """Draw a new gamma; called after each input row completes."""
        if row_index is not None:
            # Deterministic per-row seeding keeps replays consistent.
            self._rng = np.random.default_rng((row_index + 1) * 2_246_822_519 % (1 << 32))
        self.gamma = self._draw_gamma()

    def seed_history(self) -> list[int]:
        """All gamma values drawn so far (the compact seed lookup table)."""
        return list(self._seed_table)

    def lookup_table_bytes(self) -> int:
        # Only the seed values are stored (4 bytes each).
        return len(self._seed_table) * 4


_SCHEMES = {
    "ring": RingHashMapping,
    "modular": ModularHashMapping,
    "random": RandomLookupMapping,
    "drhm": DynamicReseedHashMapping,
}


def make_mapping(name: str, n_resources: int, **kwargs) -> MappingScheme:
    """Factory for mapping schemes by name ('ring', 'modular', 'random', 'drhm')."""
    if name not in _SCHEMES:
        raise ValueError(f"unknown mapping scheme {name!r}; "
                         f"choose from {sorted(_SCHEMES)}")
    return _SCHEMES[name](n_resources, **kwargs)


#: Schemes that draw random numbers and so take a ``seed``.
_SEEDED_SCHEMES = frozenset({"random", "drhm"})


def make_seeded_mapping(name: str, n_resources: int, seed: int) -> MappingScheme:
    """:func:`make_mapping` for a simulator: ``seed`` goes to the schemes
    that draw random numbers and is ignored by the deterministic ones."""
    if name in _SEEDED_SCHEMES:
        return make_mapping(name, n_resources, seed=seed)
    return make_mapping(name, n_resources)
