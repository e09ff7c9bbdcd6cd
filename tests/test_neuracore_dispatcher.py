"""Unit tests for NeuraCore pipelines and the Dispatcher."""

import random

import pytest

from repro.sim.dispatcher import Dispatcher
from repro.sim.engine import Simulator
from repro.sim.neuracore import MMH_HIST_BIN_WIDTH, MMH_HIST_BINS, NeuraCore
from repro.sim.params import SimulationParams
from repro.sim.stats import Histogram


class _Harness:
    """Minimal environment standing in for memory, NoC and NeuraMems, and
    the program's op table: op ``s`` reads ``op_reads[s]`` and computes
    ``op_products[s]`` partial products."""

    def __init__(self, read_latency=10.0, hacc_latency=3.0):
        self.sim = Simulator()
        self.params = SimulationParams()
        self.mmh_cpi = Histogram(MMH_HIST_BIN_WIDTH, MMH_HIST_BINS)
        self.read_latency = read_latency
        self.hacc_latency = hacc_latency
        self.reads = []
        self.haccs = []
        self.bursts = []
        self.retired = []
        self.op_reads = []
        self.op_products = []

    def add_op(self, n_a=2, n_b=2):
        """Append an op with ``n_a`` A and ``n_b`` B tile elements; its
        index."""
        self.op_reads.append([[0, 4 * n_a], [0, 4 * n_b], [0, 4 * n_b],
                              [0, 4 * n_a * n_b]])
        self.op_products.append(n_a * n_b)
        return len(self.op_products) - 1

    def read(self, addr, nbytes, callback, *args):
        self.reads.append((addr, nbytes))
        self.sim.schedule(self.read_latency, callback, *args)

    def dispatch_haccs(self, core, op, first, stop, on_arrival, *args):
        self.bursts.append((self.sim.now, first, stop))
        for index in range(first, stop):
            self.haccs.append((core.core_id, op, index))
            self.sim.schedule(self.hacc_latency, on_arrival, *args)

    def on_retire(self, core, op, latency):
        self.retired.append((op, latency))

    def make_core(self, core_id=0, pipelines=2, registers=4, multipliers=2):
        return NeuraCore(core_id=core_id, position=(0, 0), sim=self.sim,
                         params=self.params, cpi_histogram=self.mmh_cpi,
                         n_pipelines=pipelines, pipeline_registers=registers,
                         multipliers=multipliers, op_reads=self.op_reads,
                         op_products=self.op_products, read_fn=self.read,
                         dispatch_haccs_fn=self.dispatch_haccs,
                         on_retire=self.on_retire)


class TestNeuraCore:
    def test_mmh_issues_four_memory_requests(self):
        env = _Harness()
        core = env.make_core()
        core.issue(env.add_op(n_a=3, n_b=4))
        env.sim.run()
        assert env.reads == [(0, 12), (0, 16), (0, 16), (0, 48)]

    def test_mmh_dispatches_one_hacc_per_partial_product(self):
        env = _Harness()
        core = env.make_core()
        core.issue(env.add_op(n_a=3, n_b=4))
        env.sim.run()
        assert len(env.haccs) == 12
        assert core.haccs_dispatched == 12

    def test_retire_happens_after_all_haccs_arrive(self):
        env = _Harness(hacc_latency=50.0)
        core = env.make_core()
        core.issue(env.add_op())
        env.sim.run()
        assert len(env.retired) == 1
        assert env.retired[0][1] >= 50.0
        assert core.instructions_retired == 1
        assert core.in_flight == 0

    def test_latency_includes_memory_wait(self):
        fast = _Harness(read_latency=1.0)
        fast_core = fast.make_core()
        fast_core.issue(fast.add_op())
        fast.sim.run()

        slow = _Harness(read_latency=200.0)
        slow_core = slow.make_core()
        slow_core.issue(slow.add_op())
        slow.sim.run()
        assert slow.retired[0][1] > fast.retired[0][1] + 150
        assert slow_core.stall_cycles > fast_core.stall_cycles

    def test_capacity_is_pipelines_times_register_slots(self):
        env = _Harness()
        core = env.make_core(pipelines=2, registers=4)  # 2 slots per pipeline
        for _ in range(4):
            assert core.in_flight < core.capacity
            core.issue(env.add_op())
        assert core.in_flight == core.capacity
        with pytest.raises(RuntimeError):
            core.issue(env.add_op())
        env.sim.run()
        assert core.in_flight < core.capacity

    def test_empty_mmh_retires_without_haccs(self):
        env = _Harness()
        core = env.make_core()
        core.issue(env.add_op(n_a=0, n_b=0))
        env.sim.run()
        assert env.haccs == []
        assert len(env.retired) == 1

    def test_cpi_histogram_populated(self):
        env = _Harness()
        core = env.make_core()
        core.issue(env.add_op())
        env.sim.run()
        assert env.mmh_cpi.total_observations == 1

    def test_haccs_go_out_in_one_burst_event_per_cycle(self):
        env = _Harness()
        env.params = env.params.scaled(hacc_sends_per_cycle=4)
        core = env.make_core()
        core.issue(env.add_op(n_a=2, n_b=5))
        env.sim.run()
        start = env.bursts[0][0]
        sent = [(now - start, index) for now, first, stop in env.bursts
                for index in range(first, stop)]
        assert sent == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
                        (1, 6), (1, 7), (2, 8), (2, 9)]
        assert len(env.bursts) == 3
        # frontend, 4 operand reads, compute, 3 bursts, 10 arrivals
        assert env.sim.events_processed == 1 + 4 + 1 + 3 + 10
        assert [index for _, _, index in env.haccs] == list(range(10))
        assert core.haccs_dispatched == 10
        assert core.busy_cycles > 10 / 4

    def test_maintained_counts_match_the_pipelines(self):
        rng = random.Random(7)
        env = _Harness(read_latency=5.0)
        core = env.make_core(pipelines=3, registers=6)  # 3 slots per pipeline
        assert core.capacity == 3 * core.slots_per_pipeline == 9
        issued = 0
        for _ in range(300):
            if core.in_flight < core.capacity and rng.random() < 0.6:
                core.issue(env.add_op(n_a=rng.randint(0, 3),
                                      n_b=rng.randint(0, 3)))
                issued += 1
            else:
                env.sim.run(max_events=rng.randint(1, 6))
            assert core.in_flight == sum(core.pipelines)
            assert (core.in_flight < core.capacity) == any(
                load < core.slots_per_pipeline for load in core.pipelines)
        env.sim.run()
        assert core.in_flight == 0 and core.instructions_retired == issued
        assert not any(core.pipelines)


class TestDispatcher:
    def _run(self, n_ops, n_cores=2, dispatch_width=2):
        env = _Harness()
        cores = [env.make_core(core_id=i) for i in range(n_cores)]
        params = env.params.scaled(dispatch_width=dispatch_width)
        dispatcher = Dispatcher(env.sim, params, cores)
        for core in cores:
            core._on_retire = lambda c, op, lat, d=dispatcher: (
                env.on_retire(c, op, lat), d.notify_slot_free(c))
        for _ in range(n_ops):
            env.add_op()
        dispatcher.load(n_ops)
        dispatcher.start()
        env.sim.run()
        return env, cores, dispatcher

    def test_all_instructions_are_issued_and_retired(self):
        env, cores, dispatcher = self._run(n_ops=12)
        assert dispatcher.instructions_issued == 12
        assert dispatcher.done
        assert sum(c.instructions_retired for c in cores) == 12
        assert len(env.retired) == 12
        assert sorted(op for op, _latency in env.retired) == list(range(12))

    def test_work_is_spread_across_cores(self):
        _env, cores, _dispatcher = self._run(n_ops=16, n_cores=4)
        per_core = [c.instructions_retired for c in cores]
        assert min(per_core) >= 2

    def test_backpressure_when_cores_full(self):
        # Many ops, one tiny core: the dispatcher must wait for retirements.
        env, cores, dispatcher = self._run(n_ops=20, n_cores=1, dispatch_width=8)
        assert dispatcher.done
        assert cores[0].instructions_retired == 20

    def test_issue_order_when_every_core_fills(self):
        # Unequal cores and op sizes: the dispatcher fills all 8 slots,
        # waits, and refills whichever core retires first.
        env = _Harness(read_latency=7.0)
        cores = [env.make_core(core_id=i, pipelines=pipelines)
                 for i, pipelines in enumerate((1, 2, 1))]
        dispatcher = Dispatcher(env.sim, env.params.scaled(dispatch_width=3),
                                cores)
        order, occupancy = [], []
        for core in cores:
            def issue(op, core=core, issue=core.issue):
                issue(op)
                order.append(core.core_id)
                occupancy.append(sum(c.in_flight for c in cores))
            core.issue = issue
            core._on_retire = lambda c, op, lat: dispatcher.notify_slot_free(c)
        for op in range(24):
            env.add_op(n_a=1 + op % 3, n_b=1 + op % 2)
        dispatcher.load(24)
        dispatcher.start()
        env.sim.run()
        assert max(occupancy) == sum(c.capacity for c in cores) == 8
        assert order == [0, 1, 2, 0, 1, 2, 1, 1, 0, 0, 1, 2, 1, 1, 1, 2,
                         0, 1, 0, 1, 1, 2, 1, 2]
        assert (env.sim.now, env.sim.events_processed) == (57.0, 258)
        assert dispatcher._free_cores == len(cores)

    def test_empty_program(self):
        env = _Harness()
        core = env.make_core()
        dispatcher = Dispatcher(env.sim, env.params, [core])
        dispatcher.load(0)
        dispatcher.start()
        env.sim.run()
        assert dispatcher.done
        assert dispatcher.instructions_issued == 0
