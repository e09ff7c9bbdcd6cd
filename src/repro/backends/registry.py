"""Backend table: name -> ExecutionBackend class.

User-facing entry points resolve names through :func:`get_backend`, which
reports every backend name when a name is unknown.  The ``multichip``
backend is not in the table: a fleet is built with its configuration
(:class:`~repro.backends.multichip.MultiChipBackend`), so only a session
with ``backend="multichip"`` runs it.
"""

from __future__ import annotations

from repro.backends.analytic import AnalyticBackend
from repro.backends.base import ExecutionBackend
from repro.backends.simulators import CycleBackend, FunctionalBackend

#: The single-chip backends, each executing one compiled program on a chip.
CHIP_BACKENDS: dict[str, type[ExecutionBackend]] = {
    "functional": FunctionalBackend,
    "cycle": CycleBackend,
    "analytic": AnalyticBackend,
}


def available_backends() -> list[str]:
    """Every backend name a session accepts, sorted."""
    return sorted([*CHIP_BACKENDS, "multichip"])


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate the single-chip backend named ``name``.

    Raises:
        ValueError: when no single-chip backend has that name; the message
            lists every backend name.
    """
    if name not in CHIP_BACKENDS:
        raise ValueError(f"{name!r} is not a single-chip backend; "
                         f"registered backends: {available_backends()}")
    return CHIP_BACKENDS[name]()
