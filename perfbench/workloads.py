"""The benchmark's seeded workloads and the loop that measures them.

Each workload turns ``--seed`` into its inputs (the program receives only
the generated matrices and specs), runs its operation stream through the
public API, and checks every output against an independent computation.
``WHY`` records why each workload exists; ``BENCHMARK.json`` repeats those
sentences and ``selftest.py`` keeps the two identical.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import GNNModelSpec, Session, SpGEMMSpec
from repro.datasets import feature_matrix, gcn_weight_matrix, load_dataset
from repro.gnn.gcn import adjacency_cache_stats
from repro.sparse import kernels
from repro.sparse.csr import CSRMatrix

from hostspeed import Sampler, host_ms, normalised
from spans import Tracer, instrument

#: Programs ``spgemm-cold`` keeps resident: its program-cache LRU bound.  The
#: default bound (128) would hold ~1.9 GB of 2000-node programs and make
#: ``peak_rss_mb`` depend on how many jobs fit into a run.
RESIDENT_PROGRAMS = 8

#: Node count of the large graphs (wiki-Vote for A@A, cora for GNNs).
NODES = 2000

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3

#: Seconds between host-speed samples while operations run.
SAMPLE_S = 0.2

#: Seed streams, so no two uses of one workload seed share random draws.
TIMED, WARMUP, INLINE = 0, 1, 2

#: Where traced runs write their spans.
OUT = Path(__file__).resolve().parent / "out"

WHY = {
    "spgemm-cold": "A@A on a fresh relabeling of a 2000-node wiki-Vote graph "
                   "per job: every job compiles and fully verifies its "
                   f"program; the LRU keeps {RESIDENT_PROGRAMS} programs "
                   "resident",
    "spgemm-warm": "Four relabelings revisited after a warm-up pass: cache "
                   "and verify-memo hits leave the numeric kernel dominant, "
                   "so a compiler-only change must read no change",
    "gnn-stack": "Depth-4 width-32 GCN stack on a 2000-node cora graph over "
                 "4 chips: dense full-structure B, resident shard units, "
                 "rebind, stitch and combination",
    "serve-mixed": "repro serve as its own process, 2 closed-loop "
                   "keep-alive clients in 1 s load segments, 2:1:1 "
                   "binary-ref/inline-JSON "
                   "spgemm and depth-2 gnn: HTTP, queue, batcher, registry, "
                   "wire",
    "cycle-sim": "NeuraSim with output verify, one job per operation, over "
                 "the wiki-Vote@96 and facebook@80 calibration graphs, "
                 "relabeled per seed, at Tile-4 and Tile-16; the only sim/ "
                 "workload",
}


# ----------------------------------------------------------------------
# Seeded inputs and independent checks
# ----------------------------------------------------------------------
def relabel(csr: CSRMatrix, seed: int, index: int,
            stream: int = TIMED) -> CSRMatrix:
    """P A P^T for a permutation drawn from ``(seed, stream, index)``.

    Relabeling keeps nnz and the partial-product count of A@A exactly, so
    every job does the same work on operand bytes the caches never saw."""
    n = csr.shape[0]
    perm = np.random.default_rng([seed, stream, index]).permutation(n)
    rows = perm[np.repeat(np.arange(n), np.diff(csr.indptr))]
    cols = perm[csr.indices]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSRMatrix(indptr, cols[order], csr.data[order], csr.shape)


def feature_seed(seed: int, index: int, stream: int = TIMED) -> int:
    """Per-request feature seed: values change, structure stays fixed."""
    return int(np.random.default_rng([seed, 16 + stream, index])
               .integers(2 ** 31))


def fingerprint(csr: CSRMatrix) -> str:
    digest = hashlib.sha1(str(csr.shape).encode())
    for array in (csr.indptr, csr.indices, csr.data):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def partial_products(a: CSRMatrix, b: CSRMatrix) -> int:
    """Partial products of A@B: sum over k of nnz(A[:, k]) * nnz(B[k, :])."""
    per_column = np.bincount(a.indices, minlength=a.shape[1])
    return int(per_column @ np.diff(b.indptr))


def reference_product(a: CSRMatrix) -> CSRMatrix:
    """A@A through a dataflow independent of the analytic backend's."""
    return kernels.spgemm(a, a, dataflow="row_wise").matrix


def same_product(out: CSRMatrix, ref: CSRMatrix) -> bool:
    """Same structure exactly, values within tier-1's ``allclose``."""
    return (tuple(out.shape) == tuple(ref.shape)
            and np.array_equal(out.indptr, ref.indptr)
            and np.array_equal(out.indices, ref.indices)
            and np.allclose(out.data, ref.data))


def identical(out: CSRMatrix, ref: CSRMatrix) -> bool:
    """Byte-identical products."""
    return (tuple(out.shape) == tuple(ref.shape)
            and np.array_equal(out.indptr, ref.indptr)
            and np.array_equal(out.indices, ref.indices)
            and np.array_equal(out.data, ref.data))


def dense_normalized(adjacency) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 in dense numpy, from the raw COO triplets."""
    n = adjacency.shape[0]
    dense = np.zeros((n, n))
    np.add.at(dense, (adjacency.rows, adjacency.cols), adjacency.data)
    dense[np.arange(n), np.arange(n)] += 1.0
    inv_sqrt = 1.0 / np.sqrt(dense.sum(axis=1))
    return dense * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_reference(a_hat: np.ndarray, n_nodes: int,
                  spec: GNNModelSpec) -> np.ndarray:
    """The stack's forward chain relu(A_hat X W) in dense numpy."""
    x = feature_matrix(n_nodes, spec.feature_dim,
                       density=spec.feature_density,
                       seed=spec.seed).to_dense()
    in_dim = spec.feature_dim
    for index, out_dim in enumerate(spec.layer_dims):
        weight = gcn_weight_matrix(in_dim, out_dim, seed=spec.seed + 1 + index)
        x = np.maximum(a_hat @ x @ weight, 0.0)
        in_dim = out_dim
    return x


def session_counters(sessions) -> dict:
    """Cumulative cache / verify / adjacency-memo counters."""
    counters = {"cache_hits": 0, "cache_misses": 0, "cache_entries": 0,
                "verify_skips": 0}
    for session in sessions:
        cache = session.cache_stats()
        counters["cache_hits"] += cache["hits"]
        counters["cache_misses"] += cache["misses"]
        counters["cache_entries"] += cache["entries"]
        counters["verify_skips"] += session.verify_stats()["verify_skips"]
    memo = adjacency_cache_stats()
    counters["memo_hits"] = memo["hits"]
    counters["memo_misses"] = memo["misses"]
    return counters


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def mix_p50(records, mix) -> float:
    """``latency_ms.p50_norm``: the median normalised latency of each
    operation kind, averaged over ``mix`` (one entry per operation of a
    pass, so the mix weights the kinds).  ``records`` are
    ``(kind, latency_ms)`` pairs.  Kinds take their own medians because a
    median over kinds of different lengths jumps between kinds as their
    counts in a run change."""
    by_kind: dict = {}
    for kind, latency in records:
        by_kind.setdefault(kind, []).append(latency)
    return statistics.mean(statistics.median(by_kind[kind]) for kind in mix)


@dataclass
class Phase:
    """What one timed stretch of operations produced."""

    latencies_ms: list = field(default_factory=list)
    kinds: list = field(default_factory=list)  # operation kind per latency
    starts_ns: list = field(default_factory=list)  # perf_counter_ns
    norm_ms: list = field(default_factory=list)  # see hostspeed.py
    attempted: int = 0
    failed: int = 0
    cycles: dict = field(default_factory=dict)  # op index -> modelled cycles

    @property
    def p50(self) -> float:
        return statistics.median(self.latencies_ms)

    def p50_norm(self, mix) -> float:
        return mix_p50(zip(self.kinds, self.norm_ms), mix)

    @property
    def throughput(self) -> float:
        """Completed operations per second of timed (busy) wall time."""
        return len(self.latencies_ms) / (sum(self.latencies_ms) / 1e3)


class Workload:
    """An in-process workload: seeded set-up, then a stream of operations.

    ``pass_len`` distinct jobs make one pass; ``model.cycles`` sums the
    first pass, and a run measures at least one."""

    name = ""
    pass_len = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def inputs(self, index: int):
        raise NotImplementedError

    def execute(self, inputs):
        raise NotImplementedError

    def check(self, inputs, result) -> bool:
        raise NotImplementedError

    def cycles(self, result) -> float:
        return float(result.metrics["cycles"])

    def kind(self, index: int):
        """Operation kind of ``index`` for ``latency_ms.p50_norm``."""
        return self.name

    def mix(self) -> list:
        return [self.kind(index) for index in range(self.pass_len)]

    def sessions(self) -> list:
        return self.__dict__.get("_sessions", [])

    def extra_layers(self) -> dict:
        """Per-layer metrics measured outside the spans."""
        return {}

    def accept(self, seed: int, extras: dict) -> bool:
        """Workload-level output check beyond the per-operation ones."""
        return True

    def close(self) -> None:
        for session in self.sessions():
            session.close()
        self.__dict__.clear()


def _run_op(workload: Workload, index: int, phase: Phase,
            tracer: Tracer | None, sampler: Sampler | None = None) -> None:
    """One operation: untimed inputs and check, timed execution.  With a
    ``sampler``, the time its timer handler took during the execution is
    not counted and the latency is also recorded normalised."""
    phase.attempted += 1
    try:
        inputs = workload.inputs(index)
        spent = sampler.spent_ns if sampler else 0
        begin = time.perf_counter_ns()
        if tracer is None:
            result = workload.execute(inputs)
        else:
            with tracer.op():
                result = workload.execute(inputs)
        elapsed_ns = time.perf_counter_ns() - begin
        if sampler:
            elapsed_ns -= sampler.spent_ns - spent
        ok = workload.check(inputs, result)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        ok = False
    if ok:
        phase.latencies_ms.append(elapsed_ns / 1e6)
        phase.kinds.append(workload.kind(index))
        phase.cycles[index] = workload.cycles(result)
        if sampler:
            phase.starts_ns.append(begin)
    else:
        print(f"{workload.name}: operation {index} failed its check",
              file=sys.stderr)
        phase.failed += 1


def measure(workload: Workload, seconds: float) -> Phase:
    """Run operations ``0, 1, ...`` for ``seconds`` of wall time (at least
    one pass) under a host-speed sampler.  Input generation and output
    checks are untimed; a failed or wrong operation counts in ``failed``,
    not in latency."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    index = 0
    with Sampler(SAMPLE_S) as sampler:
        while time.perf_counter() < deadline or index < workload.pass_len:
            _run_op(workload, index, phase, None, sampler)
            index += 1
    phase.norm_ms = [sampler.normalise(start, latency) for start, latency
                     in zip(phase.starts_ns, phase.latencies_ms)]
    return phase


def measure_interleaved(workload: Workload, seconds: float,
                        tracer: Tracer, start: int = 0
                        ) -> tuple[Phase, Phase]:
    """Alternate untraced and traced blocks of one pass each for
    ``seconds``; returns ``(untraced, traced)``.

    The host's speed drifts over seconds, so two back-to-back halves would
    compare different conditions; alternating blocks gives both halves the
    same ones.  The span wrappers stay installed throughout and cost one
    attribute test per call outside a traced operation."""
    phases = (Phase(), Phase())
    deadline = time.perf_counter() + seconds
    index, block = start, 0
    with instrument(tracer):
        while block < 2 or block % 2 or time.perf_counter() < deadline:
            traced = block % 2 == 1
            for _ in range(workload.pass_len):
                _run_op(workload, index, phases[traced],
                        tracer if traced else None)
                index += 1
            block += 1
    return phases


def timed_setups(workload, seed: int, setup_tracer: Tracer | None):
    """Set the workload up ``SETUP_REPS`` times from scratch; the last
    set-up stays live.  Returns the set-up wall times in seconds, raw and
    normalised (``hostspeed.py``)."""
    times, norm = [], []
    for rep in range(SETUP_REPS):
        workload.close()
        gc.collect()
        before = host_ms()
        begin = time.perf_counter()
        if setup_tracer is not None and rep == SETUP_REPS - 1:
            with instrument(setup_tracer), setup_tracer.op("setup"):
                workload.setup(seed)
        else:
            workload.setup(seed)
        times.append(time.perf_counter() - begin)
        norm.append(normalised(times[-1], before, host_ms()))
    return times, norm


def setup_s(import_s: float, import_host_ms: float, norm: list) -> float:
    """``setup_s``: the normalised import time plus the median normalised
    set-up.  The import is timed once; ``import_host_ms`` is the kernel's
    mean time over samples taken within it and right after it."""
    return (normalised(import_s, import_host_ms, import_host_ms)
            + statistics.median(norm))


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
class SpGEMMCold(Workload):
    name = "spgemm-cold"
    pass_len = RESIDENT_PROGRAMS

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.base = load_dataset("wiki-Vote", max_nodes=NODES,
                                 seed=0).adjacency_csr()
        self.session = Session("Tile-16", backend="analytic", verify="full",
                               cache_capacity=RESIDENT_PROGRAMS)
        self._sessions = [self.session]
        # Untimed warm-up on a relabeling no timed job uses.
        self.session.run(SpGEMMSpec(a=relabel(self.base, seed, 0, WARMUP)))

    def inputs(self, index: int) -> CSRMatrix:
        return relabel(self.base, self.seed, index)

    def execute(self, a: CSRMatrix):
        return self.session.run(SpGEMMSpec(a=a))

    def check(self, a: CSRMatrix, result) -> bool:
        return (not result.cache_hit
                and same_product(result.output, reference_product(a)))


class SpGEMMWarm(SpGEMMCold):
    name = "spgemm-warm"
    pass_len = 4

    def setup(self, seed: int) -> None:
        base = load_dataset("wiki-Vote", max_nodes=NODES,
                            seed=0).adjacency_csr()
        self.operands = [relabel(base, seed, index)
                         for index in range(self.pass_len)]
        self.session = Session("Tile-16", backend="analytic", verify="full",
                               cache_capacity=RESIDENT_PROGRAMS)
        self._sessions = [self.session]
        for a in self.operands:  # warm-up pass: compile + verify once each
            self.session.run(SpGEMMSpec(a=a))
        self.expected: dict[int, CSRMatrix] = {}

    def inputs(self, index: int) -> int:
        return index % self.pass_len

    def execute(self, slot: int):
        return self.session.run(SpGEMMSpec(a=self.operands[slot]))

    def check(self, slot: int, result) -> bool:
        if slot not in self.expected:
            self.expected[slot] = reference_product(self.operands[slot])
        return result.cache_hit and same_product(result.output,
                                                 self.expected[slot])


class GNNStack(Workload):
    name = "gnn-stack"
    depth, width, chips = 4, 32, 4

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.graph = load_dataset("cora", max_nodes=NODES, seed=0)
        self.session = Session("Tile-16", backend="multichip",
                               chips=self.chips, executor="serial")
        self._sessions = [self.session]
        self.session.run(self.spec(feature_seed(seed, 0, WARMUP)))
        self.a_hat = None

    def spec(self, seed: int) -> GNNModelSpec:
        return GNNModelSpec(dataset=self.graph,
                            layer_dims=(self.width,) * self.depth,
                            feature_dim=self.width, seed=seed, verify=False)

    def inputs(self, index: int) -> GNNModelSpec:
        return self.spec(feature_seed(self.seed, index))

    def execute(self, spec: GNNModelSpec):
        return self.session.run(spec)

    def check(self, spec: GNNModelSpec, result) -> bool:
        if self.a_hat is None:
            self.a_hat = dense_normalized(self.graph.adjacency)
        expected = gcn_reference(self.a_hat, self.graph.n_nodes, spec)
        return bool(np.allclose(result.output, expected))

    def cycles(self, result) -> float:
        return float(result.metrics["total_cycles"])


class CycleSim(Workload):
    """Four calibration jobs (two graphs at two tile configurations) in
    round robin, one job per operation; ``latency_ms.p50_norm`` takes each
    job's median and averages the four.  Jobs take 0.7-1.3 s each."""

    name = "cycle-sim"
    graphs = (("wiki-Vote", 96), ("facebook", 80))
    configs = ("Tile-4", "Tile-16")
    pass_len = len(graphs) * len(configs)

    def setup(self, seed: int) -> None:
        # The calibration graphs the analytic model was fitted on, relabeled
        # by the workload seed: every seed simulates the same amount of
        # work (graphs regenerated per seed moved latency by ~14% between
        # seeds) on operand bytes and hash placements of its own.  Seed 3
        # runs the calibration set itself.
        self.operands = {}
        for name, nodes in self.graphs:
            graph = load_dataset(name, max_nodes=nodes,
                                 seed=CALIBRATION_SEED).adjacency_csr()
            self.operands[name] = (graph if seed == CALIBRATION_SEED
                                   else relabel(graph, seed, 0))
        self.by_config = {config: Session(config, backend="cycle")
                          for config in self.configs}
        self._sessions = list(self.by_config.values())
        self.jobs = [(config, name) for config in self.configs
                     for name, _ in self.graphs]
        self.job_cycles: dict = {}

    def inputs(self, index: int) -> tuple[str, str]:
        return self.jobs[index % len(self.jobs)]

    def kind(self, index: int) -> tuple[str, str]:
        return self.inputs(index)

    def execute(self, job: tuple[str, str]):
        config, name = job
        return self.by_config[config].run(
            SpGEMMSpec(a=self.operands[name], verify=True, source=name))

    def check(self, job: tuple[str, str], result) -> bool:
        self.job_cycles[job] = result.metrics["cycles"]
        return result.metrics["verified"] is True

    def analytic_err_pct(self) -> float:
        """Max |analytic - cycle| / cycle over the jobs, the analytic
        backend running the same operands."""
        errors = []
        for (config, name), cycle in self.job_cycles.items():
            with Session(config, backend="analytic") as session:
                analytic = session.run(
                    SpGEMMSpec(a=self.operands[name])).metrics["cycles"]
            errors.append(100.0 * abs(analytic - cycle) / cycle)
        return max(errors)

    def extra_layers(self) -> dict:
        return {"model.analytic_err_pct": self.analytic_err_pct()}

    def accept(self, seed: int, extras: dict) -> bool:
        return (seed != CALIBRATION_SEED or extras["model.analytic_err_pct"]
                <= CALIBRATED_TOLERANCE_PCT)


IN_PROCESS = {workload.name: workload
              for workload in (SpGEMMCold, SpGEMMWarm, GNNStack, CycleSim)}

#: The calibration seed and the documented analytic-vs-cycle tolerance.
CALIBRATION_SEED, CALIBRATED_TOLERANCE_PCT = 3, 25.0

#: A latency percentile is reported only with this many samples or more,
#: so at least ten samples lie beyond p90.
P90_MIN_SAMPLES = 100


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One run's result: metrics as ``name -> (value, unit)``."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict
    samples: dict
    setup_samples: list
    notes: dict = field(default_factory=dict)


def latency_notes(latencies_ms: list, throughput: float
                  ) -> tuple[dict, dict]:
    """Sample counts per statistic, and the printed-only raw figures: p50,
    throughput, and p90 when it has enough samples.  They follow the
    host's speed (see ``hostspeed.py``), so ``BENCHMARK.json`` does not
    bound them."""
    samples = {"latency_ms.p50_norm": len(latencies_ms),
               "latency_ms.p50": len(latencies_ms)}
    notes = {"latency_ms.p50": (f"{statistics.median(latencies_ms):.6f} ms "
                                f"(n={len(latencies_ms)})"),
             "throughput_ops_s": f"{throughput:.6f} ops/s"}
    if len(latencies_ms) >= P90_MIN_SAMPLES:
        samples["latency_ms.p90"] = len(latencies_ms)
        notes["latency_ms.p90"] = (
            f"{float(np.percentile(latencies_ms, 90)):.6f} ms "
            f"(n={len(latencies_ms)})")
    else:
        notes["latency_ms.p90"] = (f"omitted (n={len(latencies_ms)} < "
                                   f"{P90_MIN_SAMPLES})")
    return samples, notes


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_cycles(workload: Workload, phase: Phase) -> float:
    """Modelled cycles summed over the first pass of distinct jobs."""
    return float(sum(phase.cycles[index] for index in range(workload.pass_len)))


def run_in_process(name: str, seed: int, seconds: float, trace: bool,
                   import_s: float, import_host_ms: float) -> Outcome:
    from layers import PER_LAYER, layer_metrics

    workload = IN_PROCESS[name]()
    setup_tracer = Tracer() if trace else None
    try:
        setups, setups_norm = timed_setups(workload, seed, setup_tracer)
        if trace:
            tracer = Tracer()
            before = session_counters(workload.sessions())
            untraced, traced = measure_interleaved(workload, seconds, tracer)
            after = session_counters(workload.sessions())
        else:
            untraced = measure(workload, seconds)
        extras = workload.extra_layers()
        samples, notes = latency_notes(untraced.latencies_ms,
                                       untraced.throughput)
        notes.update({key: f"{value:.6f}" for key, value in extras.items()})
        notes["setup_s_raw"] = (f"{import_s + statistics.median(setups):.6f}"
                                " s")
        notes["resident_programs"] = str(
            session_counters(workload.sessions())["cache_entries"])
        correct = untraced.failed == 0 and workload.accept(seed, extras)
        attempted, failed = untraced.attempted, untraced.failed
        if not trace:
            metrics = {
                "setup_s": (setup_s(import_s, import_host_ms, setups_norm),
                            "s"),
                "latency_ms.p50_norm": (untraced.p50_norm(workload.mix()),
                                        "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "model.cycles": (model_cycles(workload, untraced), "cycles"),
            }
        else:
            values = layer_metrics(untraced.p50, tracer, setup_tracer,
                                   before, after, extras,
                                   counted_ops=untraced.attempted
                                   + traced.attempted)
            units = {metric: unit for metric, unit, *_ in PER_LAYER}
            metrics = {metric: (value, units[metric])
                       for metric, value in values.items()}
            samples["traced_ops"] = tracer.ops
            tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
            attempted += traced.attempted
            failed += traced.failed
            correct &= traced.failed == 0
    finally:
        workload.close()
    return Outcome(attempted=attempted, failed=failed, correct=correct,
                   metrics=metrics, samples=samples,
                   setup_samples=[round(value, 6) for value in setups],
                   notes=notes)
