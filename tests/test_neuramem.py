"""Unit tests for the NeuraMem hash-accumulation unit (Algorithm 2) run
through the cycle simulator's clock: engine timing, write-backs, the
Figure 15 latency histogram, and the pad state they leave."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.hashpad import HashPad, SpillStore
from repro.sim.neuramem import HACC_HIST_BIN_WIDTH, HACC_HIST_BINS, NeuraMem
from repro.sim.params import SimulationParams
from repro.sim.stats import Histogram


def hacc_histogram():
    return Histogram(HACC_HIST_BIN_WIDTH, HACC_HIST_BINS)


def make_hacc(tag, value, counter, row=0, col=0, addr=0):
    """A HACC's fields in ``NeuraMem.receive_hacc`` order."""
    return tag, value, counter, row, col, addr


def make_mem(sim, hashlines=64, hash_engines=2, eviction_mode="rolling",
             store=None, **hooks):
    pad = HashPad(hashlines, store if store is not None else SpillStore(),
                  eviction_mode)
    return NeuraMem(0, (0, 0), sim, SimulationParams(), hacc_histogram(),
                    pad=pad, hash_engines=hash_engines, **hooks)


@pytest.fixture
def mem_env():
    """A NeuraMem whose pad shares ``store``, recording its writebacks and
    applied HACCs.  Evictions land in ``store.output``, spills in
    ``store.spilled_value``."""
    sim = Simulator()
    store = SpillStore()
    events = {"writes": [], "applied": 0}

    def build(hashlines=8, eviction_mode="rolling"):
        return make_mem(
            sim, hashlines=hashlines, eviction_mode=eviction_mode, store=store,
            writeback=lambda addr, nbytes: events["writes"].append((addr, nbytes)),
            on_applied=lambda: events.__setitem__("applied", events["applied"] + 1),
        )

    return sim, build, store, events


class TestAccumulation:
    def test_single_contribution_evicts_immediately(self, mem_env):
        sim, build, store, events = mem_env
        mem = build()
        mem.receive_hacc(*make_hacc(tag=7, value=2.5, counter=1, row=1, col=2,
                                   addr=0x40), 0.0)
        sim.run()
        assert store.output == {(1, 2): 2.5}
        assert events["writes"] == [(0x40, SimulationParams().writeback_bytes)]
        assert mem.pad.evictions == 1
        assert mem.pad.occupancy == 0
        # Lookup + accumulate (2 cycles), then the eviction routine (2).
        assert mem.cpi_histogram.sum_values == 4.0
        assert mem.busy_cycles == 4.0

    def test_multiple_contributions_accumulate_then_evict(self, mem_env):
        sim, build, store, events = mem_env
        mem = build()
        for value in (1.0, 2.0, 3.0):
            mem.receive_hacc(*make_hacc(tag=9, value=value, counter=3), 0.0)
        sim.run()
        assert mem.pad.evictions == 1
        assert store.output == {(0, 0): pytest.approx(6.0)}
        assert mem.pad.accumulations == 2
        assert mem.pad.insertions == 1

    def test_distinct_tags_use_distinct_lines(self, mem_env):
        sim, build, store, events = mem_env
        mem = build()
        mem.receive_hacc(*make_hacc(tag=1, value=1.0, counter=2), 0.0)
        mem.receive_hacc(*make_hacc(tag=2, value=1.0, counter=2), 0.0)
        sim.run()
        assert mem.pad.occupancy == 2
        assert mem.pad.peak_occupancy == 2
        assert store.output == {}
        assert mem.pad.evictions == 0

    def test_applied_callback_counts_every_hacc(self, mem_env):
        sim, build, store, events = mem_env
        mem = build()
        for i in range(5):
            mem.receive_hacc(*make_hacc(tag=i, value=1.0, counter=2), 0.0)
        sim.run()
        assert events["applied"] == 5

    def test_hacc_latency_recorded_against_eviction(self, mem_env):
        sim, build, store, events = mem_env
        mem = build()
        mem.receive_hacc(*make_hacc(tag=3, value=1.0, counter=2), 0.0)
        mem.receive_hacc(*make_hacc(tag=3, value=1.0, counter=2), 0.0)
        sim.run()
        assert mem.cpi_histogram.total_observations == 2

    def test_invalid_eviction_mode(self):
        with pytest.raises(ValueError):
            make_mem(Simulator(), hashlines=4, hash_engines=1,
                     eviction_mode="sometimes")


class TestBarrierEviction:
    def test_completed_lines_stay_until_flush(self, mem_env):
        sim, build, store, events = mem_env
        mem = build(eviction_mode="barrier")
        mem.receive_hacc(*make_hacc(tag=5, value=4.0, counter=1), 0.0)
        sim.run()
        assert store.output == {}
        assert events["writes"] == []
        assert mem.pad.occupancy == 1
        flushed = mem.barrier_flush()
        assert flushed == 1
        assert store.output == {(0, 0): 4.0}
        assert len(events["writes"]) == 1
        assert mem.pad.occupancy == 0

    def test_finalize_also_flushes_incomplete_lines(self, mem_env):
        sim, build, store, events = mem_env
        mem = build(eviction_mode="barrier")
        mem.receive_hacc(*make_hacc(tag=6, value=1.0, counter=3), 0.0)
        sim.run()
        flushed = mem.finalize()
        assert flushed == 1
        assert mem.pad.incomplete_lines == 1
        assert store.output == {(0, 0): 1.0}


class TestCapacityAndSpills:
    def test_overflow_spills_a_victim(self, mem_env):
        sim, build, store, events = mem_env
        mem = build(hashlines=2)
        for tag in range(3):
            mem.receive_hacc(*make_hacc(tag=tag, value=1.0, counter=2), 0.0)
        sim.run()
        assert mem.pad.spills == 1
        assert store.spilled_value == {0: 1.0}
        assert mem.pad.occupancy == 2
        # The spilled partial is written back, at the collision penalty.
        assert len(events["writes"]) == 1
        assert mem.busy_cycles == 3 * 2 + SimulationParams().hash_collision_penalty_cycles

    def test_resume_lookup_restores_counter_progress(self, mem_env):
        sim, build, store, events = mem_env
        # Tag 42 had already absorbed 2 of its 3 contributions before a spill.
        store.spilled_value[42] = 5.0
        store.spilled_applied[42] = 2
        mem = build()
        mem.receive_hacc(*make_hacc(tag=42, value=1.0, counter=3), 0.0)
        sim.run()
        # remaining = counter - 1 - already_applied = 0 -> immediate eviction,
        # with the spilled partial merged back.
        assert mem.pad.evictions == 1
        assert store.output == {(0, 0): 6.0}
        assert store.spilled_value == {} and store.spilled_applied == {}

    def test_completed_lines_are_preferred_spill_victims(self, mem_env):
        sim, build, store, events = mem_env
        mem = build(hashlines=2, eviction_mode="barrier")
        mem.receive_hacc(*make_hacc(tag=1, value=1.0, counter=1, row=1), 0.0)  # completes
        mem.receive_hacc(*make_hacc(tag=2, value=1.0, counter=2, row=2), 0.0)
        mem.receive_hacc(*make_hacc(tag=3, value=1.0, counter=2, row=3), 0.0)  # overflow
        sim.run()
        # The completed line (tag 1) is evicted instead of spilling live data.
        assert store.output == {(1, 0): 1.0}
        assert mem.pad.evictions == 1
        assert mem.pad.spills == 0


class TestEngineTiming:
    def test_engines_limit_throughput(self):
        sim = Simulator()
        single = make_mem(sim, hash_engines=1)
        for i in range(8):
            single.receive_hacc(*make_hacc(tag=i, value=1.0, counter=2), 0.0)
        sim.run()
        single_time = sim.now

        sim2 = Simulator()
        quad = make_mem(sim2, hash_engines=4)
        for i in range(8):
            quad.receive_hacc(*make_hacc(tag=i, value=1.0, counter=2), 0.0)
        sim2.run()
        assert sim2.now < single_time
