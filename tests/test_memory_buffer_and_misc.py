"""Additional coverage: controller read buffer, program stream decoding, and
suite statistics helpers."""

import numpy as np
import pytest

from repro.arch.isa import Opcode, decode_from_bytes, decode_mmh
from repro.datasets.suite import degree_statistics, load_dataset
from repro.sim.engine import Simulator
from repro.sim.memory import HBMChannel, MemoryController
from repro.sim.params import SimulationParams
from repro.sim.stats import LevelTracker


@pytest.fixture
def controller_env():
    sim = Simulator()
    params = SimulationParams().scaled(controller_buffer_lines=2)
    channel = HBMChannel(sim, params, 0)
    controller = MemoryController(sim, params, 0, channel, LevelTracker())
    return sim, params, channel, controller


class TestControllerReadBuffer:
    def _read(self, sim, controller, addr):
        done = []
        controller.read(addr, 8, lambda: done.append(sim.now))
        sim.run()
        return done[0]

    def test_repeat_read_hits_buffer(self, controller_env):
        sim, params, channel, controller = controller_env
        self._read(sim, controller, 0x100)
        bytes_after_first = channel.bytes_read
        self._read(sim, controller, 0x100)
        assert controller.reads_buffered == 1
        assert channel.bytes_read == bytes_after_first  # no second DRAM trip

    def test_buffer_hit_is_faster_than_dram(self, controller_env):
        sim, params, channel, controller = controller_env
        first = self._read(sim, controller, 0x200)
        start = sim.now
        second = self._read(sim, controller, 0x200)
        assert (second - start) < first

    def test_lru_eviction_limits_capacity(self, controller_env):
        sim, params, channel, controller = controller_env
        line = params.coalesce_line_bytes
        for i in range(4):  # capacity is 2 lines
            self._read(sim, controller, i * line)
        self._read(sim, controller, 0)  # line 0 was evicted -> DRAM again
        assert controller.reads_buffered == 0
        assert channel.bytes_read == 5 * line

    def test_buffer_disabled_when_capacity_zero(self):
        sim = Simulator()
        params = SimulationParams().scaled(controller_buffer_lines=0)
        channel = HBMChannel(sim, params, 0)
        controller = MemoryController(sim, params, 0, channel, LevelTracker())
        for _ in range(2):
            done = []
            controller.read(0x40, 8, lambda: done.append(True))
            sim.run()
        assert controller.reads_buffered == 0


class TestProgramBinaryStream:
    def test_binary_stream_decodes_to_same_opcodes(self, tiny_program):
        blob = tiny_program.encode_binary()
        words = [decode_from_bytes(blob[i:i + 16]) for i in range(0, len(blob), 16)]
        decoded = [decode_mmh(word) for word in words]
        assert len(decoded) == tiny_program.n_instructions
        assert all(instr.opcode is Opcode.MMH4 for instr in decoded)

    def test_binary_stream_is_deterministic(self, tiny_program):
        assert tiny_program.encode_binary() == tiny_program.encode_binary()


class TestSuiteStatistics:
    def test_degree_statistics_fields(self):
        dataset = load_dataset("facebook", max_nodes=96)
        stats = degree_statistics(dataset.adjacency)
        assert set(stats) == {"mean_degree", "std_degree", "max_degree", "degree_cv"}
        assert stats["max_degree"] >= stats["mean_degree"] > 0

    def test_degree_statistics_of_empty_graph(self):
        from repro.sparse.coo import COOMatrix

        stats = degree_statistics(COOMatrix.empty((4, 4)))
        assert stats["mean_degree"] == 0.0
        assert stats["degree_cv"] == 0.0

    def test_power_law_has_heavier_tail_than_mesh(self):
        power_law = degree_statistics(load_dataset("facebook", max_nodes=256).adjacency)
        mesh = degree_statistics(load_dataset("m133-b3", max_nodes=256).adjacency)
        assert power_law["degree_cv"] > mesh["degree_cv"]
