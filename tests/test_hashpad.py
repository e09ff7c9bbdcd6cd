"""The HashPad (Algorithm 2) both simulators share: spills, counter
resume, barrier parking and the end flush.  The NeuraSim and functional
runs it decides are pinned in ``test_accelerator_integration.py``."""

import math

from repro.sim.hashpad import HashPad, SpillStore


def make_pad(capacity, eviction_mode="rolling", store=None):
    return HashPad(capacity, store if store is not None else SpillStore(),
                   eviction_mode)


class TestHashPad:
    def test_spill_resume_then_merge_at_eviction(self):
        pad = make_pad(1)
        store = pad.store
        assert pad.apply(7, 1.0, 3, 0, 7) == (None, None)
        # A second TAG needs the only line: tag 7 spills, tag 8 completes.
        victim, evicted = pad.apply(8, 0.5, 1, 0, 8)
        assert victim.tag == 7 and not victim.complete
        assert evicted.tag == 8
        assert store.spilled_value == {7: 1.0}
        assert store.spilled_applied == {7: 1}
        # Tag 7 resumes with one of its three HACCs already applied ...
        assert pad.apply(7, 2.0, 3, 0, 7) == (None, None)
        assert pad.lines[7].remaining == 1
        # ... and its spilled partial is merged back when it evicts.
        victim, evicted = pad.apply(7, 4.0, 3, 0, 7)
        assert victim is None and evicted.tag == 7
        assert store.output == {(0, 8): 0.5, (0, 7): 7.0}
        assert store.spilled_value == {} and store.spilled_applied == {}
        assert (pad.insertions, pad.accumulations) == (3, 1)
        assert (pad.spills, pad.evictions, pad.peak_occupancy) == (1, 2, 1)

    def test_capacity_one_pad_spills_on_every_new_tag(self):
        pad = make_pad(1)
        for tag in range(4):
            pad.apply(tag, 1.0, 2, tag, 0)
        assert pad.spills == 3
        assert pad.occupancy == 1 and pad.peak_occupancy == 1
        assert pad.store.spilled_value == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_barrier_parks_complete_lines_and_prefers_them_as_victims(self):
        pad = make_pad(2, "barrier")
        assert pad.apply(1, 1.0, 1, 1, 0) == (None, None)  # parked
        assert list(pad.parked) == [1] and pad.store.output == {}
        pad.apply(2, 1.0, 2, 2, 0)
        # Full: the parked line makes room (evicted), nothing spills.
        victim, evicted = pad.apply(3, 1.0, 2, 3, 0)
        assert victim.tag == 1 and victim.complete and evicted is None
        assert pad.store.output == {(1, 0): 1.0}
        assert (pad.spills, pad.evictions) == (0, 1)
        # Tag 2 completes and parks until the barrier flushes it.
        assert pad.apply(2, 2.0, 2, 2, 0) == (None, None)
        assert [line.tag for line in pad.barrier_flush()] == [2]
        assert pad.store.output == {(1, 0): 1.0, (2, 0): 3.0}
        assert pad.barrier_flush() == []
        assert pad.occupancy == 1  # tag 3 is still incomplete

    def test_barrier_pad_spills_when_nothing_is_parked(self):
        pad = make_pad(1, "barrier")
        pad.apply(1, 1.0, 2, 1, 0)
        victim, _ = pad.apply(2, 1.0, 2, 2, 0)
        assert victim.tag == 1 and not victim.complete
        assert pad.spills == 1 and pad.store.spilled_value == {1: 1.0}

    def test_finalize_flushes_parked_then_incomplete_lines(self):
        pad = make_pad(8, "barrier")
        pad.apply(1, 1.0, 3, 0, 1)  # incomplete
        pad.apply(2, 2.0, 1, 0, 2)  # parked
        pad.apply(3, 3.0, 2, 0, 3)  # incomplete
        flushed = pad.finalize()
        assert [line.tag for line in flushed] == [2, 1, 3]
        assert pad.incomplete_lines == 2
        assert pad.evictions == 3 and pad.occupancy == 0
        assert pad.store.output == {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 3.0}

    def test_output_accumulates_from_positive_zero(self):
        pad = make_pad(4)
        pad.apply(1, -0.0, 1, 0, 0)
        value = pad.store.output[(0, 0)]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_pads_share_one_store(self):
        store = SpillStore()
        first, second = make_pad(1, store=store), make_pad(4, store=store)
        first.apply(5, 1.0, 2, 0, 5)
        first.apply(6, 1.0, 2, 0, 6)  # spills tag 5
        # Tag 5 resumes on another pad (a reseeded mapping) and completes.
        second.apply(5, 2.0, 2, 0, 5)
        assert store.output == {(0, 5): 3.0}
        assert second.evictions == 1 and first.evictions == 0

    def test_to_dense(self):
        store = SpillStore()
        store.output = {(0, 1): 2.0, (2, 0): -1.5}
        dense = store.to_dense((3, 2))
        assert dense.tolist() == [[0.0, 2.0], [0.0, 0.0], [-1.5, 0.0]]
        assert SpillStore().to_dense((2, 2)).tolist() == [[0.0, 0.0]] * 2
