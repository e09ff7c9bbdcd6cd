"""A resident GNN stack pays only for its arithmetic: a warm rerun
re-plans, re-hashes, re-predicts and re-compares nothing, a changed
graph, width, tile or fleet re-plans, and cached analytic predictions are
never shared with a caller.  Work is counted through wrappers, not timed."""

import dataclasses
import sys

import numpy as np
import pytest

from repro.backends.analytic import AnalyticBackend
from repro.compiler.program import rebind_b_values
from repro.core import ProgramCache, Session, matrix_fingerprint
from repro.core.specs import GCNLayerSpec, GNNModelSpec, SpGEMMSpec
from repro.datasets import load_dataset
from repro.serve.registry import OperandRegistry
from repro.sparse.csr import full_structure_csr

#: Layer functions whose calls a warm stack must not make.
COUNTED = (("repro.sparse.partition", "plan_shards"),
           ("repro.sparse.partition", "build_shard_units"),
           ("repro.core.runner", "matrix_fingerprint"),
           ("repro.core.runner", "_same_bits"))


#: Per-layer work a warm dense stack must not do: encode its features as
#: a CSR, or build (and merge) a fleet report its row discards.
DENSE_STACK_COUNTED = (("repro.sparse.csr", "full_structure_csr"),
                       ("repro.backends.multichip", "_aggregate_report"),
                       ("repro.backends.multichip", "_merge_reports"))


def count_calls(monkeypatch, module_name: str, name: str) -> list:
    """Wrap ``module.name`` wherever a loaded ``repro`` module bound it;
    returns the list every call appends to."""
    calls: list = []
    original = getattr(sys.modules[module_name], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.startswith("repro") and \
                getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counted)
    return calls


def count_predictions(monkeypatch) -> list:
    calls: list = []
    original = AnalyticBackend.predict

    def counted(self, *args, **kwargs):
        calls.append("predict")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AnalyticBackend, "predict", counted)
    return calls


def row(result) -> dict:
    values = result.as_row()
    values.pop("wall_time_s")
    return {**values, "power_w": result.power_w, "energy_j": result.energy_j}


@pytest.fixture(scope="module")
def cora():
    return load_dataset("cora", max_nodes=200, seed=0)


def fleet(**kwargs) -> Session:
    kwargs.setdefault("chips", 4)
    return Session("Tile-16", backend="multichip", executor="serial",
                   **kwargs)


def stack(dataset, width=8, seed=5, depth=4) -> GNNModelSpec:
    return GNNModelSpec(dataset=dataset, layer_dims=(width,) * depth,
                        feature_dim=width, seed=seed, verify=False)


class TestWarmStack:
    def test_second_identical_run_does_only_arithmetic(self, cora,
                                                       monkeypatch):
        with fleet() as session:
            session.run(stack(cora))
            first = session.run(stack(cora))
            counts = {name: count_calls(monkeypatch, module, name)
                      for module, name in COUNTED}
            counts["predict"] = count_predictions(monkeypatch)
            second = session.run(stack(cora))
            other_seed = session.run(stack(cora, seed=6))
        assert {name: len(calls) for name, calls in counts.items()} == \
            dict.fromkeys(counts, 0)
        assert second.output.tobytes() == first.output.tobytes()
        assert row(second) == row(first)
        assert other_seed.output.tobytes() != first.output.tobytes()


class TestDenseStack:
    """A stack carries its features as one dense array: a warm layer
    encodes no full-structure CSR and builds no fleet report, while a
    caller's own features are still compared and copied, never aliased."""

    def test_warm_stack_encodes_no_csr_and_merges_no_report(
            self, cora, monkeypatch):
        with fleet() as session:
            cold = session.run(stack(cora, width=32))
            first = session.run(stack(cora, width=32))
            counts = {name: count_calls(monkeypatch, module, name)
                      for module, name in DENSE_STACK_COUNTED}
            second = session.run(stack(cora, width=32))
        assert {name: len(calls) for name, calls in counts.items()} == \
            dict.fromkeys(counts, 0)
        assert second.output.tobytes() == first.output.tobytes() == \
            cold.output.tobytes()
        assert row(second) == row(first)

    def test_caller_features_are_never_read_in_place(self, cora):
        x = np.random.default_rng(3).standard_normal((cora.n_nodes, 6))

        def layer():
            return GCNLayerSpec(dataset=cora, features=x, hidden_dim=5,
                                verify=False)

        with fleet() as session:
            for scale in (-2.0, 3.0):  # the second edit finds the first's
                session.run(layer())   # values re-bound into the programs
                x *= scale
            edited = session.run(layer())
        with fleet() as fresh:
            expected = fresh.run(layer())
        assert edited.output.tobytes() == expected.output.tobytes()
        assert edited.metrics == expected.metrics
        counters = edited.report.counters
        assert counters["multichip.broadcast_cycles"] > 0
        assert counters == expected.report.counters


class TestReplan:
    """Each change is made on a warm session: the run after it plans once,
    a rerun of it plans nothing, and both equal a fresh session's runs of
    the changed stack bit for bit (the rerun's row too: both are warm)."""

    @staticmethod
    def change_graph(session, cora):
        return stack(load_dataset("cora", max_nodes=120, seed=0))

    @staticmethod
    def change_width(session, cora):
        return stack(cora, width=4)

    @staticmethod
    def change_source(session, cora):
        return stack(cora.adjacency)  # same graph, labelled "custom"

    @staticmethod
    def change_tile(session, cora):
        session.ctx = dataclasses.replace(
            session.ctx, config=session.ctx.config.with_mmh_tile(8))
        return stack(cora)

    @staticmethod
    def change_chips(session, cora):
        session.topology = dataclasses.replace(session.topology, n_chips=2)
        return stack(cora)

    @staticmethod
    def change_partition(session, cora):
        session.topology = dataclasses.replace(session.topology,
                                               partition="degree")
        return stack(cora)

    @pytest.mark.parametrize("change", ["graph", "width", "source", "tile",
                                        "chips", "partition"])
    def test_change_replans(self, cora, monkeypatch, change):
        with fleet(partition="contiguous") as session:
            session.run(stack(cora))
            plans = count_calls(monkeypatch, "repro.sparse.partition",
                                "plan_shards")
            spec = getattr(self, f"change_{change}")(session, cora)
            changed = session.run(spec)
            assert len(plans) == 1
            rerun = session.run(spec)
            assert len(plans) == 1
            ctx, topology = session.ctx, session.topology
        monkeypatch.undo()
        with Session(ctx.config, backend="multichip",
                     chips=topology.n_chips,
                     chip_backend=topology.chip_backend,
                     partition=topology.partition,
                     mapping_scheme=ctx.mapping_scheme) as fresh:
            expected = [fresh.run(spec), fresh.run(spec)]
        for result, reference in zip((changed, rerun), expected):
            assert result.output.tobytes() == reference.output.tobytes()
        assert row(rerun) == row(expected[1])


class TestMixedWidths:
    def test_warm_mixed_width_stack_plans_nothing(self, cora, monkeypatch):
        spec = GNNModelSpec(dataset=cora, layer_dims=(16, 8, 16),
                            feature_dim=16, seed=5, verify=False)
        with fleet() as session:
            first = session.run(spec)
            plans = count_calls(monkeypatch, "repro.sparse.partition",
                                "plan_shards")
            second = session.run(spec)
        assert plans == []
        assert second.output.tobytes() == first.output.tobytes()

    def test_held_widths_are_bounded(self, cora, monkeypatch):
        a = cora.adjacency_csr()
        features = {width: full_structure_csr(np.ones((a.shape[0], width)))
                    for width in range(1, 19)}
        with fleet() as session:
            for b in features.values():
                session._resident_graph(a, b, 16, "widths")
            plans = count_calls(monkeypatch, "repro.sparse.partition",
                                "plan_shards")
            session._resident_graph(a, features[18], 16, "widths")
            assert plans == []
            session._resident_graph(a, features[1], 16, "widths")
            assert len(plans) == 1  # the oldest widths were let go
            assert len(session._resident_memo[2]) == 16


class TestCachedPrediction:
    def test_warm_run_reuses_the_prediction_but_owns_its_report(
            self, monkeypatch):
        a = load_dataset("wiki-Vote", max_nodes=48, seed=3).adjacency_csr()
        with Session("Tile-4", backend="analytic") as session:
            first = session.run(SpGEMMSpec(a=a))
            predictions = count_predictions(monkeypatch)
            expected = dataclasses.replace(
                first.report, counters=dict(first.report.counters))
            first.report.counters["analytic.binding_bound"] = "mutated"
            first.report.counters["extra"] = 1
            first.report.mmh_cpi_histogram.add(3)
            second = session.run(SpGEMMSpec(a=a))
        assert predictions == []
        assert second.report.counters == expected.counters
        assert second.report.mmh_cpi_histogram.total_observations == 0
        assert dataclasses.replace(second.report, wall_clock_seconds=0.0,
                                   mmh_cpi_histogram=None) == \
            dataclasses.replace(expected, wall_clock_seconds=0.0,
                                mmh_cpi_histogram=None)

    def test_rebound_copy_shares_the_prediction(self, monkeypatch):
        a = load_dataset("cora", max_nodes=60, seed=0).adjacency_csr()
        rng = np.random.default_rng(0)
        b, b2 = (full_structure_csr(rng.standard_normal((60, 4)))
                 for _ in range(2))
        with Session("Tile-16", backend="analytic") as session:
            program = session.run(SpGEMMSpec(a=a, b=b)).program
            ctx = session.ctx
        predictions = count_predictions(monkeypatch)
        backend = AnalyticBackend()
        rebound = rebind_b_values(program, b2)
        report = backend.execute(rebound, ctx).report
        assert predictions == []
        assert report == dataclasses.replace(
            backend.predict(program, ctx),
            wall_clock_seconds=report.wall_clock_seconds)
        barrier = dataclasses.replace(ctx, eviction_mode="barrier")
        assert backend.execute(rebound, barrier).report.eviction_mode == \
            "barrier"
        assert len(predictions) == 2  # the direct call and the new context


class TestOperandRefs:
    def test_schema_bump_moves_the_cache_key_not_the_ref(self, monkeypatch):
        a = load_dataset("wiki-Vote", max_nodes=32, seed=3).adjacency_csr()
        ref = OperandRegistry().put(a)[0].digest
        key = ProgramCache(0).key(a, None, 4)
        monkeypatch.setattr("repro.core.runner.CACHE_SCHEMA_VERSION", 999)
        assert ProgramCache(0).key(a, None, 4) != key
        assert matrix_fingerprint(a) == ref
        assert OperandRegistry().put(a)[0].digest == ref
