"""Unit tests for the simulation kernel, its parameters and statistics
collection."""

import dataclasses
import math
from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.hashpad import HashPad, SpillStore
from repro.sim.memory import HBMChannel
from repro.sim.neuramem import NeuraMem
from repro.sim.params import SimulationParams
from repro.sim.router import TorusNetwork
from repro.sim.stats import Histogram, LevelTracker


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, "late")
        sim.schedule(1, order.append, "early")
        sim.schedule(3, order.append, "middle")
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        sim.schedule(2, order.append, "first")
        sim.schedule(2, order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(7.5, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(7.5)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(2, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(1, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 3.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1, lambda: None)

    def test_max_events_cap(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i, lambda: None)
        sim.run(max_events=4)
        assert sim.pending_events == 6

    def test_until_horizon(self):
        sim = Simulator()
        hits = []
        sim.schedule(1, hits.append, 1)
        sim.schedule(10, hits.append, 10)
        sim.run(until=5)
        assert hits == [1]
        sim.run()
        assert hits == [1, 10]

    def test_reset(self):
        sim = Simulator()
        sim.schedule(3, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -0.5])
    def test_nan_or_negative_delay_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_events == 0

    def test_nan_time_rejected(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.pending_events == 1

    def test_max_events_and_until_stop_one_drain_loop(self):
        sim = Simulator()
        hits = []
        for time in (1, 2, 3, 4, 5, 6):
            sim.schedule(time, hits.append, time)
        sim.run(max_events=0)
        assert hits == [] and sim.events_processed == 0
        sim.run(max_events=2)
        assert hits == [1, 2] and sim.now == 2
        sim.run(until=4)  # an event at the horizon runs
        assert hits == [1, 2, 3, 4] and sim.now == 4
        sim.run(max_events=5, until=4.5)
        assert hits == [1, 2, 3, 4] and sim.pending_events == 2
        sim.run(max_events=1, until=10)
        assert hits == [1, 2, 3, 4, 5]
        sim.run()
        assert hits == [1, 2, 3, 4, 5, 6]
        assert sim.events_processed == 6 and sim.pending_events == 0


class TestEventOrdering:
    """Events due at one time run in the order they were scheduled, whichever
    entry point pushed them: ``schedule``, ``schedule_at`` and the
    components that push their own events (the torus, the hash engines)."""

    def test_same_time_runs_in_scheduling_order_across_entry_points(self):
        sim = Simulator()
        params = SimulationParams()
        torus = TorusNetwork(sim, params, 4, 4)
        channel = HBMChannel(sim, params, 0)
        order = []
        # A one-flit message over zero hops lands after its serialization;
        # a posted write finishes after its transfer; both at cycle 1.
        serialization = params.router_flit_bytes / params.router_link_bytes_per_cycle
        write_bytes = int(serialization * params.hbm_bytes_per_cycle_per_channel)
        sim.schedule(serialization, order.append, "schedule")
        assert torus.deliver((1, 1), 0, params.router_flit_bytes,
                             order.append, "deliver") == serialization
        sim.schedule_at(serialization, order.append, "schedule_at")
        assert channel.access(0, write_bytes, True, order.append,
                              "access") == serialization
        sim.schedule(serialization, order.append, "schedule again")
        assert torus.send((0, 0), (2, 1), params.router_flit_bytes,
                          order.append, "send") > serialization
        sim.run()
        assert order == ["schedule", "deliver", "schedule_at", "access",
                         "schedule again", "send"]

    def test_hash_engine_push_keeps_scheduling_order(self):
        sim = Simulator()
        params = SimulationParams()
        order = []
        mem = NeuraMem(0, (0, 0), sim, params, Histogram(50, 20),
                       HashPad(8, SpillStore()), hash_engines=1,
                       on_applied=lambda: order.append("receive_hacc"))
        latency = params.hash_lookup_cycles + params.hash_accumulate_cycles
        sim.schedule(latency, order.append, "schedule")
        mem.receive_hacc(1, 1.0, 2, 0, 0, 0, 0.0)  # applied at ``latency``
        sim.schedule_at(latency, order.append, "schedule_at")
        sim.run()
        assert order == ["schedule", "receive_hacc", "schedule_at"]


class _TupleHeap:
    """Reference kernel: one heap of ``(time, seq, callback, args)``."""

    def __init__(self):
        self.queue, self.seq, self.now = [], count(), 0.0

    def push(self, time, callback, args):
        heappush(self.queue, (time, next(self.seq), callback, args))

    def schedule(self, delay, callback, *args):
        self.push(self.now + delay, callback, args)

    def schedule_at(self, time, callback, *args):
        self.push(time, callback, args)

    def run(self):
        while self.queue:
            self.now, _, callback, args = heappop(self.queue)
            callback(*args)


#: An event: how it is pushed, its delay, and the events its handler
#: pushes in turn (delay 0 lands in the bucket being drained).
_HOW = st.sampled_from(["schedule", "schedule_at", "push"])
_DELAY = st.sampled_from([0, 0, 0.5, 1, 2.5])
_EVENT = st.recursive(
    st.tuples(_HOW, _DELAY, st.just(())),
    lambda events: st.tuples(_HOW, _DELAY,
                             st.lists(events, max_size=3).map(tuple)),
    max_leaves=24)


def _play(sim, script, budgets=()):
    """Run ``script`` on ``sim`` in ``max_events`` slices of ``budgets``,
    then to the end; the ``(label, now)`` of every event, in run order."""
    ran = []

    def fire(label, children):
        ran.append((label, sim.now))
        for index, child in enumerate(children):
            enqueue(f"{label}.{index}", child)

    def enqueue(label, event):
        how, delay, children = event
        if how == "schedule":
            sim.schedule(delay, fire, label, children)
        elif how == "schedule_at":
            sim.schedule_at(sim.now + delay, fire, label, children)
        else:
            sim.push(sim.now + delay, fire, (label, children))

    for index, event in enumerate(script):
        enqueue(str(index), event)
    for budget in budgets:
        sim.run(max_events=budget)
    sim.run()
    return ran


class TestCalendarQueue:
    """One FIFO bucket per distinct time runs the events of the tuple heap
    it replaced, in the same order, at the same times."""

    @seed(0)
    @settings(max_examples=100, deadline=None)
    @given(script=st.lists(_EVENT, max_size=8),
           budgets=st.lists(st.integers(0, 5), max_size=4))
    def test_runs_in_tuple_heap_order(self, script, budgets):
        sim = Simulator()
        ran = _play(sim, script, budgets)
        assert ran == _play(_TupleHeap(), script)
        assert sim.events_processed == len(ran)
        assert sim.pending_events == 0

    def test_max_events_stops_inside_a_bucket(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1, order.append, label)
        sim.schedule(2, order.append, "f")
        sim.run(max_events=3)
        assert order == ["a", "b", "c"] and sim.now == 1
        assert sim.pending_events == 3
        sim.schedule(0, order.append, "g")  # behind the rest of time 1
        sim.run()
        assert order == ["a", "b", "c", "d", "e", "g", "f"]
        assert sim.events_processed == 7

    def test_raising_event_leaves_the_later_ones_queued(self):
        sim = Simulator()
        order = []

        def boom():
            order.append("boom")
            raise RuntimeError("boom")

        sim.schedule(1, order.append, "a")
        sim.schedule(1, boom)
        sim.schedule(1, order.append, "b")
        sim.schedule(2, order.append, "c")
        with pytest.raises(RuntimeError):
            sim.run()
        assert order == ["a", "boom"]
        assert sim.events_processed == 2 and sim.pending_events == 2
        sim.run()
        assert order == ["a", "boom", "b", "c"]
        assert sim.events_processed == 4 and sim.pending_events == 0

    def test_signed_zeros_share_one_bucket(self):
        sim = Simulator()
        order = []
        sim.schedule_at(0.0, order.append, "a")
        sim.push(-0.0, order.append, ("b",))
        sim.schedule(0.0, order.append, "c")
        sim.schedule_at(-0.0, order.append, "d")
        assert sim.pending_events == 4
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_pending_events_and_reset_mid_bucket(self):
        sim = Simulator()
        for time in (3, 1, 3, 2, 3):
            sim.schedule(time, lambda: None)
        sim.run(max_events=3)  # times 1, 2 and the first event at 3
        assert sim.pending_events == 2 and sim.now == 3
        sim.reset()
        assert sim.pending_events == 0 and sim.now == 0.0
        assert sim.events_processed == 0
        order = []
        sim.schedule(1, order.append, "after reset")
        sim.run()
        assert order == ["after reset"] and sim.events_processed == 1


class TestSimulationParams:
    @pytest.mark.parametrize("name", [field.name for field
                                      in dataclasses.fields(SimulationParams)])
    @pytest.mark.parametrize("bad", [-1, math.nan, math.inf])
    def test_negative_or_non_finite_field_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            SimulationParams().scaled(**{name: bad})

    @pytest.mark.parametrize("name", [
        "router_flit_bytes", "router_link_bytes_per_cycle",
        "coalesce_line_bytes", "hbm_row_bytes", "hbm_banks_per_channel",
        "hbm_bytes_per_cycle_per_channel"])
    def test_zero_divisor_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SimulationParams(**{name: 0})

    @pytest.mark.parametrize("name", ["hash_insert_cycles",
                                      "sample_interval_cycles"])
    def test_fields_the_model_never_read_are_gone(self, name):
        with pytest.raises(TypeError, match=name):
            SimulationParams(**{name: 2})


class TestHistogram:
    def test_binning(self):
        hist = Histogram(bin_width=25, n_bins=4)
        for value in (0, 24, 26, 30, 99, 500):
            hist.add(value)
        assert hist.counts.tolist() == [2, 2, 0, 2]

    def test_mean(self):
        hist = Histogram(bin_width=10, n_bins=3)
        hist.add(5)
        hist.add(15)
        assert hist.mean == pytest.approx(10.0)

    def test_empty_histogram(self):
        hist = Histogram(bin_width=10, n_bins=3)
        assert hist.mean == 0.0
        assert hist.percentages().sum() == 0.0

    def test_labels_include_overflow_marker(self):
        hist = Histogram(bin_width=50, n_bins=3)
        labels = hist.labels()
        assert labels[0] == "0-50"
        assert labels[-1].endswith("+")

    def test_percentages_sum_to_hundred(self):
        hist = Histogram(bin_width=25, n_bins=20)
        for value in range(0, 1000, 7):
            hist.add(value)
        assert hist.percentages().sum() == pytest.approx(100.0)

    def test_as_dict(self):
        hist = Histogram(bin_width=25, n_bins=2)
        hist.add(10)
        assert hist.as_dict()["0-25"] == pytest.approx(100.0)

    def test_merged_holds_every_observation(self):
        first = Histogram(bin_width=10, n_bins=3)
        second = Histogram(bin_width=10, n_bins=3)
        first.add(5)
        second.add(15)
        second.add(45)
        merged = Histogram.merged([first, second])
        assert merged.counts.tolist() == [1, 1, 1]
        assert merged.total_observations == 3
        assert merged.mean == pytest.approx(65 / 3)
        assert first.total_observations == 1  # the inputs are left alone


class TestLevelTracker:
    def test_average_of_constant_level(self):
        tracker = LevelTracker()
        tracker.change(0.0, 4)
        assert tracker.average(10.0) == pytest.approx(4.0)

    def test_average_of_step_profile(self):
        tracker = LevelTracker()
        tracker.change(0.0, 2)
        tracker.change(5.0, 2)   # level 4 for the second half
        assert tracker.average(10.0) == pytest.approx(3.0)

    def test_current_level(self):
        tracker = LevelTracker()
        tracker.change(0.0, 3)
        tracker.change(1.0, 5)
        tracker.change(2.0, -6)
        assert tracker.current == 2

    def test_zero_duration(self):
        tracker = LevelTracker()
        assert tracker.average(0.0) == 0.0

