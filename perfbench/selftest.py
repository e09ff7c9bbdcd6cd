"""Self-tests of the benchmark itself (not of the repository).

Run from the repository root::

    python3 perfbench/selftest.py

They check that the seeded generator is deterministic and seed-sensitive,
that relabeling keeps the work of A@A unchanged, that percentiles are only
reported from enough samples, that span self-time arithmetic is right, and
that ``BENCHMARK.json`` lists exactly the metrics and workloads the code
produces.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.sparse import kernels  # noqa: E402
from spans import Span, Tracer, instrument, self_times  # noqa: E402


def _base(nodes: int = 300):
    return load_dataset("wiki-Vote", max_nodes=nodes, seed=0).adjacency_csr()


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_fingerprints(self):
        base = _base()
        for index in range(3):
            self.assertEqual(
                workloads.fingerprint(workloads.relabel(base, 5, index)),
                workloads.fingerprint(workloads.relabel(base, 5, index)))
        self.assertEqual(workloads.feature_seed(5, 2),
                         workloads.feature_seed(5, 2))
        graphs = [workloads.fingerprint(load_dataset(
            "wiki-Vote", max_nodes=96, seed=5).adjacency_csr())
            for _ in range(2)]
        self.assertEqual(graphs[0], graphs[1])

    def test_different_seed_different_fingerprints(self):
        base = _base()
        self.assertNotEqual(
            workloads.fingerprint(workloads.relabel(base, 5, 0)),
            workloads.fingerprint(workloads.relabel(base, 6, 0)))
        self.assertNotEqual(
            workloads.fingerprint(workloads.relabel(base, 5, 0)),
            workloads.fingerprint(workloads.relabel(base, 5, 1)))
        self.assertNotEqual(
            workloads.fingerprint(workloads.relabel(base, 5, 0,
                                                    workloads.WARMUP)),
            workloads.fingerprint(workloads.relabel(base, 5, 0)))
        self.assertNotEqual(workloads.feature_seed(5, 2),
                            workloads.feature_seed(6, 2))
        self.assertNotEqual(
            workloads.fingerprint(load_dataset(
                "facebook", max_nodes=80, seed=3).adjacency_csr()),
            workloads.fingerprint(load_dataset(
                "facebook", max_nodes=80, seed=4).adjacency_csr()))

    def test_relabeling_preserves_nnz_and_partial_products(self):
        base = _base()
        relabeled = workloads.relabel(base, 9, 4)
        self.assertEqual(relabeled.nnz, base.nnz)
        self.assertEqual(workloads.partial_products(relabeled, relabeled),
                         workloads.partial_products(base, base))
        product = kernels.spgemm(relabeled, relabeled, dataflow="row_wise")
        self.assertEqual(product.partial_products,
                         workloads.partial_products(base, base))
        self.assertEqual(
            product.matrix.nnz,
            kernels.spgemm(base, base, dataflow="row_wise").matrix.nnz)

    def test_same_seed_same_model_cycles(self):
        cycles = []
        for _ in range(2):
            workload = workloads.SpGEMMWarm()
            try:
                workload.setup(7)
                phase = workloads.measure(workload, 0.0)
                self.assertEqual(phase.failed, 0)
                cycles.append(workloads.model_cycles(workload, phase))
            finally:
                workload.close()
        self.assertEqual(cycles[0], cycles[1])
        self.assertGreater(cycles[0], 0)


class Percentiles(unittest.TestCase):
    def test_p90_omitted_below_min_samples(self):
        samples, notes = workloads.latency_notes([1.0] * 99, 1.0)
        self.assertNotIn("latency_ms.p90", samples)
        self.assertTrue(notes["latency_ms.p90"].startswith("omitted"))
        samples, notes = workloads.latency_notes(
            [float(value) for value in range(100)], 1.0)
        self.assertEqual(samples["latency_ms.p90"], 100)
        self.assertTrue(notes["latency_ms.p90"].startswith("89.1"))

    def test_p50_norm_is_mix_weighted_per_kind_median(self):
        records = [("ref", 5.0), ("gnn", 9.0), ("ref", 3.0), ("inline", 1.0),
                   ("gnn", 7.0), ("ref", 4.0)]
        self.assertEqual(workloads.mix_p50(records, ("ref", "ref",
                                                     "inline", "gnn")),
                         (4.0 + 4.0 + 1.0 + 8.0) / 4)

    def test_normalised_scales_by_kernel_time(self):
        ref = hostspeed.REF_MS
        self.assertEqual(hostspeed.normalised(10.0, ref, ref), 10.0)
        self.assertEqual(hostspeed.normalised(10.0, ref, 3 * ref), 5.0)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [Span("root", 0, 100, None, 0),
                 Span("a", 10, 40, 0, 0),
                 Span("b", 30, 60, 0, 0),  # overlaps a: union is 10..60
                 Span("c", 15, 20, 1, 0),
                 Span("d", 90, 120, 0, 0)]  # clipped to the parent's end
        self.assertEqual(self_times(spans), [40, 25, 30, 5, 30])

    def test_tracer_nests_and_records_only_inside_ops(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(1000)))
        outer = tracer.wrap("outer", lambda: inner() + inner())
        outer()  # outside an operation: nothing recorded
        self.assertEqual(tracer.spans, [])
        with tracer.op():
            outer()
        self.assertEqual([span.name for span in tracer.spans],
                         ["op", "outer", "inner", "inner"])
        self.assertEqual([span.parent for span in tracer.spans],
                         [None, 0, 1, 1])
        totals = tracer.self_ms()
        root = tracer.spans[0]
        self.assertAlmostEqual(sum(totals.values()),
                               (root.end - root.start) / 1e6, places=9)

    def test_instrument_restores_originals(self):
        from repro.core import runner, session
        from repro.sparse import kernels as kernel_module

        key, spgemm = runner.ProgramCache.key, kernel_module.spgemm
        verify, load = session.verify_program, workloads.load_dataset
        with instrument(Tracer()):
            self.assertIsNot(kernel_module.spgemm, spgemm)
            self.assertIsNot(session.verify_program, verify)
            self.assertIsNot(workloads.load_dataset, load)
        self.assertIs(runner.ProgramCache.key, key)
        self.assertIs(kernel_module.spgemm, spgemm)
        self.assertIs(session.verify_program, verify)
        self.assertIs(workloads.load_dataset, load)


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_tables(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(
            [(w["name"], w["why"]) for w in doc["workloads"]],
            list(workloads.WHY.items()))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in doc["end_to_end"]], list(layers.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            [entry[:3] for entry in layers.PER_LAYER])

    def test_every_per_layer_metric_is_produced(self):
        tracer = Tracer()
        counters = {"cache_hits": 0, "cache_misses": 0, "cache_entries": 0,
                    "verify_skips": 0, "memo_hits": 0, "memo_misses": 0}
        values = layers.layer_metrics(1.0, tracer, Tracer(), counters,
                                      counters, {}, counted_ops=0)
        self.assertEqual(list(values), [entry[0] for entry in layers.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
