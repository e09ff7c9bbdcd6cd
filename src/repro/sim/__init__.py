"""NeuraSim: a cycle-level, discrete-event simulator of the NeuraChip accelerator.

The simulator reproduces the component decomposition of the paper's NeuraSim
(Appendix A.1): a Dispatcher, NeuraCores with quad multiply pipelines,
NeuraMems with hash engines and a HashPad supporting rolling or barrier
eviction, a 2-D torus on-chip network, and per-tile memory controllers backed
by a simplified HBM channel/bank model.  Algorithm 2 has one
implementation, :mod:`repro.sim.hashpad`, which the NeuraMems wrap in
timing and the untimed functional model runs as is.  Each component
counts its own events in plain attributes, and the accelerator reads them
into the :class:`SimulationReport` when a run ends.  The Python implementation is
event-driven rather than thread-parallel; absolute cycle counts therefore
differ from the authors' C++ simulator, but the architectural mechanisms (and
hence the relative effects the paper reports) are the same.
"""

from repro.sim.params import SimulationParams
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram
from repro.sim.accelerator import NeuraChipAccelerator, SimulationReport
from repro.sim.functional import FunctionalAccelerator, FunctionalReport

__all__ = [
    "SimulationParams",
    "Simulator",
    "Histogram",
    "NeuraChipAccelerator",
    "SimulationReport",
    "FunctionalAccelerator",
    "FunctionalReport",
]
