"""Unit tests for the NeuraMem hash-accumulation unit (Algorithm 2)."""

import pytest

from repro.compiler.program import HACCMacroOp
from repro.sim.engine import Simulator
from repro.sim.neuramem import HACC_HIST_BIN_WIDTH, HACC_HIST_BINS, NeuraMem
from repro.sim.params import SimulationParams
from repro.sim.stats import Histogram


def hacc_histogram():
    return Histogram(HACC_HIST_BIN_WIDTH, HACC_HIST_BINS)


def make_hacc(tag, value, counter, row=0, col=0, addr=0):
    return HACCMacroOp(tag=tag, value=value, counter=counter, out_row=row,
                       out_col=col, writeback_addr=addr)


@pytest.fixture
def mem_env():
    """A NeuraMem wired to record evictions, spills and writebacks."""
    sim = Simulator()
    params = SimulationParams()
    histogram = hacc_histogram()
    events = {"evicted": [], "spilled": [], "writes": [], "applied": 0}

    def build(hashlines=8, eviction_mode="rolling", resume=None):
        return NeuraMem(
            mem_id=0, position=(0, 0), sim=sim, params=params,
            cpi_histogram=histogram,
            hashlines=hashlines, hash_engines=2, eviction_mode=eviction_mode,
            writeback=lambda addr, nbytes: events["writes"].append((addr, nbytes)),
            on_evict=lambda line, t: events["evicted"].append((line.tag, line.value, t)),
            on_spill=lambda line, t: events["spilled"].append((line.tag, line.value)),
            on_applied=lambda: events.__setitem__("applied", events["applied"] + 1),
            resume_lookup=resume,
        )

    return sim, build, events


class TestAccumulation:
    def test_single_contribution_evicts_immediately(self, mem_env):
        sim, build, events = mem_env
        mem = build()
        mem.receive_hacc(make_hacc(tag=7, value=2.5, counter=1, addr=0x40), 0.0)
        sim.run()
        assert events["evicted"] == [(7, 2.5, pytest.approx(events["evicted"][0][2]))]
        assert events["writes"][0][0] == 0x40
        assert mem.evictions == 1
        assert mem.occupancy == 0

    def test_multiple_contributions_accumulate_then_evict(self, mem_env):
        sim, build, events = mem_env
        mem = build()
        for value in (1.0, 2.0, 3.0):
            mem.receive_hacc(make_hacc(tag=9, value=value, counter=3), 0.0)
        sim.run()
        assert len(events["evicted"]) == 1
        assert events["evicted"][0][1] == pytest.approx(6.0)
        assert mem.accumulations == 2
        assert mem.insertions == 1

    def test_distinct_tags_use_distinct_lines(self, mem_env):
        sim, build, events = mem_env
        mem = build()
        mem.receive_hacc(make_hacc(tag=1, value=1.0, counter=2), 0.0)
        mem.receive_hacc(make_hacc(tag=2, value=1.0, counter=2), 0.0)
        sim.run()
        assert mem.occupancy == 2
        assert mem.peak_occupancy == 2
        assert events["evicted"] == []

    def test_applied_callback_counts_every_hacc(self, mem_env):
        sim, build, events = mem_env
        mem = build()
        for i in range(5):
            mem.receive_hacc(make_hacc(tag=i, value=1.0, counter=2), 0.0)
        sim.run()
        assert events["applied"] == 5

    def test_hacc_latency_recorded_against_eviction(self, mem_env):
        sim, build, events = mem_env
        mem = build()
        mem.receive_hacc(make_hacc(tag=3, value=1.0, counter=2), 0.0)
        mem.receive_hacc(make_hacc(tag=3, value=1.0, counter=2), 0.0)
        sim.run()
        assert mem.cpi_histogram.total_observations == 2

    def test_invalid_eviction_mode(self, mem_env):
        _sim, build, _events = mem_env
        with pytest.raises(ValueError):
            NeuraMem(0, (0, 0), Simulator(), SimulationParams(), hacc_histogram(),
                     hashlines=4, hash_engines=1, eviction_mode="sometimes")


class TestBarrierEviction:
    def test_completed_lines_stay_until_flush(self, mem_env):
        sim, build, events = mem_env
        mem = build(eviction_mode="barrier")
        mem.receive_hacc(make_hacc(tag=5, value=4.0, counter=1), 0.0)
        sim.run()
        assert events["evicted"] == []
        assert mem.occupancy == 1
        flushed = mem.barrier_flush()
        assert flushed == 1
        assert len(events["evicted"]) == 1
        assert mem.occupancy == 0

    def test_finalize_also_flushes_incomplete_lines(self, mem_env):
        sim, build, events = mem_env
        mem = build(eviction_mode="barrier")
        mem.receive_hacc(make_hacc(tag=6, value=1.0, counter=3), 0.0)
        sim.run()
        flushed = mem.finalize()
        assert flushed == 1
        assert mem.incomplete_lines == 1


class TestCapacityAndSpills:
    def test_overflow_spills_a_victim(self, mem_env):
        sim, build, events = mem_env
        mem = build(hashlines=2)
        for tag in range(3):
            mem.receive_hacc(make_hacc(tag=tag, value=1.0, counter=2), 0.0)
        sim.run()
        assert mem.spills == 1
        assert len(events["spilled"]) == 1
        assert mem.occupancy == 2

    def test_resume_lookup_restores_counter_progress(self, mem_env):
        sim, build, events = mem_env
        # Tag 42 had already absorbed 2 of its 3 contributions before a spill.
        mem = build(resume=lambda tag: 2 if tag == 42 else 0)
        mem.receive_hacc(make_hacc(tag=42, value=1.0, counter=3), 0.0)
        sim.run()
        # remaining = counter - 1 - already_applied = 0 -> immediate eviction.
        assert len(events["evicted"]) == 1

    def test_completed_lines_are_preferred_spill_victims(self, mem_env):
        sim, build, events = mem_env
        mem = build(hashlines=2, eviction_mode="barrier")
        mem.receive_hacc(make_hacc(tag=1, value=1.0, counter=1), 0.0)  # completes
        mem.receive_hacc(make_hacc(tag=2, value=1.0, counter=2), 0.0)
        mem.receive_hacc(make_hacc(tag=3, value=1.0, counter=2), 0.0)  # overflow
        sim.run()
        # The completed line (tag 1) is evicted instead of spilling live data.
        assert [e[0] for e in events["evicted"]] == [1]
        assert mem.spills == 0


class TestEngineTiming:
    def test_engines_limit_throughput(self):
        sim = Simulator()
        params = SimulationParams()
        single = NeuraMem(0, (0, 0), sim, params, hacc_histogram(), hashlines=64,
                          hash_engines=1, eviction_mode="rolling")
        for i in range(8):
            single.receive_hacc(make_hacc(tag=i, value=1.0, counter=2), 0.0)
        sim.run()
        single_time = sim.now

        sim2 = Simulator()
        quad = NeuraMem(0, (0, 0), sim2, params, hacc_histogram(), hashlines=64,
                        hash_engines=4, eviction_mode="rolling")
        for i in range(8):
            quad.receive_hacc(make_hacc(tag=i, value=1.0, counter=2), 0.0)
        sim2.run()
        assert sim2.now < single_time
