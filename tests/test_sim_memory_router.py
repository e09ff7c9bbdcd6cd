"""Unit tests for the memory system and torus network models."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.memory import HBMChannel, MemoryController, MemorySystem
from repro.sim.params import SimulationParams
from repro.sim.router import TorusNetwork, interleaved_positions
from repro.sim.stats import LevelTracker


@pytest.fixture
def sim_env():
    sim = Simulator()
    params = SimulationParams()
    return sim, params


class TestHBMChannel:
    def test_read_completes_and_counts_bytes(self, sim_env):
        sim, params = sim_env
        channel = HBMChannel(sim, params, 0)
        done = []
        channel.access(0x1000, 64, False, lambda: done.append(sim.now))
        sim.run()
        assert done and done[0] > 0
        assert channel.bytes_read == 64

    def test_row_hit_faster_than_miss(self, sim_env):
        sim, params = sim_env
        channel = HBMChannel(sim, params, 0)
        first = channel.access(0, 32, False, None)
        second = channel.access(32, 32, False, None)   # same DRAM row -> hit
        miss_addr = params.hbm_row_bytes * params.hbm_banks_per_channel * 3
        third = channel.access(miss_addr, 32, False, None)
        assert (second - first) < (third - second) or \
            channel.row_hits >= 1

    def test_bus_serialises_transfers(self, sim_env):
        sim, params = sim_env
        channel = HBMChannel(sim, params, 0)
        finishes = [channel.access(i * params.hbm_row_bytes, 256, False, None)
                    for i in range(4)]
        assert finishes == sorted(finishes)
        assert finishes[-1] - finishes[0] >= 3 * 256 / params.hbm_bytes_per_cycle_per_channel

    def test_writes_are_posted(self, sim_env):
        sim, params = sim_env
        channel = HBMChannel(sim, params, 0)
        finish = channel.access(0x2000, 8, True, None)
        assert channel.bytes_written == 8
        assert finish <= params.hbm_row_miss_cycles  # no bank access charged


class TestMemoryController:
    def test_read_callback_fires(self, sim_env):
        sim, params = sim_env
        controller = MemoryController(sim, params, 0,
                                      HBMChannel(sim, params, 0), LevelTracker())
        done = []
        controller.read(0x40, 16, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1

    def test_coalescing_merges_same_line_requests(self, sim_env):
        sim, params = sim_env
        channel = HBMChannel(sim, params, 0)
        controller = MemoryController(sim, params, 0, channel, LevelTracker())
        done = []
        # Two requests to the same coalescing line, issued back to back.
        controller.read(0x100, 8, lambda: done.append("a"))
        controller.read(0x104, 8, lambda: done.append("b"))
        sim.run()
        assert sorted(done) == ["a", "b"]
        assert controller.reads_coalesced == 1
        assert channel.bytes_read == params.coalesce_line_bytes

    def test_request_spanning_lines_reads_both(self, sim_env):
        sim, params = sim_env
        channel = HBMChannel(sim, params, 0)
        controller = MemoryController(sim, params, 0, channel, LevelTracker())
        done = []
        line = params.coalesce_line_bytes
        controller.read(line - 4, 8, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert channel.bytes_read == 2 * line

    def test_write_counted(self, sim_env):
        sim, params = sim_env
        controller = MemoryController(sim, params, 0,
                                      HBMChannel(sim, params, 0), LevelTracker())
        controller.write(0x80, 8)
        sim.run()
        assert controller.writes_received == 1


class TestMemorySystem:
    def test_interleaving_spreads_addresses_over_channels(self, sim_env):
        sim, params = sim_env
        system = MemorySystem(sim, params, 8)
        line = params.coalesce_line_bytes
        owners = {system.controller_for(i * line).tile_id for i in range(8)}
        assert owners == set(range(8))

    def test_total_traffic_accumulates(self, sim_env):
        sim, params = sim_env
        system = MemorySystem(sim, params, 4)
        system.read(0, 16, lambda: None)
        system.write(1024, 8)
        sim.run()
        assert system.total_bytes_read >= 16
        assert system.total_bytes_written == 8
        assert system.total_traffic_bytes == (system.total_bytes_read
                                              + system.total_bytes_written)


class TestTorusNetwork:
    def test_hops_with_wraparound(self, sim_env):
        sim, params = sim_env
        torus = TorusNetwork(sim, params, 8, 8)
        assert torus.hops((0, 0), (7, 0)) == 1       # wraps around
        assert torus.hops((0, 0), (4, 0)) == 4
        assert torus.hops((1, 1), (3, 6)) == 2 + 3   # dy wraps: min(5, 3)

    def test_send_schedules_arrival_callback(self, sim_env):
        sim, params = sim_env
        torus = TorusNetwork(sim, params, 4, 4)
        arrivals = []
        torus.send((0, 0), (2, 2), 16, lambda: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 1
        assert arrivals[0] >= 4 * params.router_hop_cycles

    def test_latency_grows_with_distance(self, sim_env):
        sim, params = sim_env
        torus = TorusNetwork(sim, params, 8, 8)
        near = torus.latency((0, 0), (1, 0), 16)
        far = torus.latency((0, 0), (4, 4), 16)
        assert far > near

    def test_ingress_contention_serialises_messages(self, sim_env):
        sim, params = sim_env
        torus = TorusNetwork(sim, params, 4, 4)
        arrival_1 = torus.send((0, 0), (1, 1), 16)
        arrival_2 = torus.send((2, 2), (1, 1), 16)
        assert arrival_2 > arrival_1

    def test_flit_accounting(self, sim_env):
        sim, params = sim_env
        torus = TorusNetwork(sim, params, 4, 4)
        torus.send((0, 0), (1, 0), 64)
        assert torus.flits_sent == 64 // params.router_flit_bytes
        assert torus.average_hops_per_flit == pytest.approx(1.0)

    def test_invalid_dimensions(self, sim_env):
        sim, params = sim_env
        with pytest.raises(ValueError):
            TorusNetwork(sim, params, 0, 4)


class TestInterleavedPlacement:
    def test_all_components_get_unique_positions(self):
        cores, mems, width, height = interleaved_positions(16, 16)
        assert len(cores) == 16 and len(mems) == 16
        positions = list(cores.values()) + list(mems.values())
        assert len(set(positions)) == 32
        assert all(0 <= x < width and 0 <= y < height for x, y in positions)

    def test_asymmetric_counts(self):
        cores, mems, _w, _h = interleaved_positions(5, 2)
        assert len(cores) == 5 and len(mems) == 2

    def test_single_component(self):
        cores, mems, width, height = interleaved_positions(1, 0)
        assert cores[0] == (0, 0)
        assert mems == {}
        assert width >= 1 and height >= 1
