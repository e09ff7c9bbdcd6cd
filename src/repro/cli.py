"""Command-line interface: the Dashboard / NeuraViz replacement.

The subcommands cover the workflows the paper's WebGUI exposes::

    python -m repro datasets                      # list the dataset suites
    python -m repro bloat --datasets facebook wiki-Vote
    python -m repro run --dataset cora --config Tile-16 --max-nodes 192
    python -m repro run --dataset cora --backend analytic --shards 4
    python -m repro run --dataset cora --backend multichip --chips 4
    python -m repro gcn --dataset cora --feature-dim 16 --hidden-dim 8
    python -m repro gnn --dataset cora --layers 4 --batches 8
    python -m repro sweep --dataset cora          # Tile-4/16/64 sweep (Fig. 11)
    python -m repro batch --datasets cora cora wiki-Vote --backend analytic \
        --executor process --workers 4 --cache-dir ~/.cache/neurachip-repro
    python -m repro cache stats                   # on-disk program-cache tier
    python -m repro cache clear
    python -m repro analyze                       # static analysis (3 passes)
    python -m repro analyze --pass locks src/     # concurrency lint only
    python -m repro serve --backend analytic --max-batch 8 --max-delay-ms 5
    python -m repro upload --dataset cora --port 8077   # register an operand

Every workload subcommand routes through one
:class:`~repro.core.session.Session`, so they all share the same knobs:
``--backend`` / ``--impl`` select the execution backend, ``--executor`` /
``--workers`` fan jobs out on the host, and ``--cache-dir`` persists
compiled programs to disk — a second invocation against the same graph
reports ``cache_hit=True`` and skips compilation.  Every command prints
aligned text tables and can optionally write CSV next to them with
``--output-dir``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arch.config import all_spgemm_configs
from repro.backends import available_backends
from repro.core.executors import available_executors
from repro.core.session import Session
from repro.core.specs import (
    BatchSpec,
    GCNLayerSpec,
    GNNModelSpec,
    SpGEMMSpec,
    SweepSpec,
)
from repro.datasets.suite import GNN_SUITE, TABLE1_SUITE, load_dataset
from repro.sparse.bloat import bloat_report
from repro.sparse.kernels import IMPLS
from repro.viz.export import format_table, save_csv


def _maybe_save(rows: list[dict], output_dir: str | None, name: str) -> None:
    if output_dir:
        path = save_csv(rows, Path(output_dir) / f"{name}.csv")
        print(f"[saved {path}]")


def _session(args: argparse.Namespace, default_backend: str = "cycle") -> Session:
    """One Session configured from the shared workload flags."""
    backend = getattr(args, "backend", default_backend)
    chips = getattr(args, "chips", None)
    chip_backend = getattr(args, "chip_backend", None)
    partition = getattr(args, "partition", None) or "auto"
    topology = None
    if backend == "multichip":
        from repro.core.specs import ChipTopology

        # chips=0 must reach ChipTopology's validation, not coerce to 1.
        topology = ChipTopology(n_chips=1 if chips is None else chips,
                                chip_backend=chip_backend or "analytic",
                                partition=partition)
    elif chips is not None:
        raise ValueError("--chips requires --backend multichip")
    elif chip_backend is not None:
        raise ValueError("--chip-backend requires --backend multichip")
    return Session(args.config,
                   backend=backend,
                   topology=topology,
                   partition=partition,
                   impl=getattr(args, "impl", "numpy"),
                   executor=getattr(args, "executor", "serial"),
                   workers=getattr(args, "workers", None),
                   cache_dir=getattr(args, "cache_dir", None),
                   eviction_mode=getattr(args, "eviction", "rolling"),
                   mapping_scheme=getattr(args, "mapping", None))


def cmd_datasets(args: argparse.Namespace) -> int:
    """List every registered dataset with its paper metadata."""
    rows = []
    for suite_name, suite in (("Table-1", TABLE1_SUITE), ("GNN", GNN_SUITE)):
        for spec in suite.values():
            rows.append({
                "suite": suite_name,
                "dataset": spec.name,
                "family": spec.family,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "paper_sparsity_pct": spec.paper_sparsity_percent,
            })
    print(format_table(rows))
    _maybe_save(rows, args.output_dir, "datasets")
    return 0


def cmd_bloat(args: argparse.Namespace) -> int:
    """Equation-1 memory-bloat analysis (Table 1) for selected datasets."""
    names = args.datasets or sorted(TABLE1_SUITE)
    rows = []
    for name in names:
        dataset = load_dataset(name, max_nodes=args.max_nodes, seed=args.seed)
        rows.append(bloat_report(name, dataset.adjacency_csr()).as_row())
    print(format_table(rows))
    _maybe_save(rows, args.output_dir, "bloat")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one SpGEMM (A @ A) workload through the session."""
    dataset = load_dataset(args.dataset, max_nodes=args.max_nodes, seed=args.seed)
    with _session(args) as session:
        result = session.run(SpGEMMSpec(
            a=dataset.adjacency_csr(), tile_size=args.tile_size,
            verify=not args.no_verify, source=dataset.name,
            label=dataset.name, shards=args.shards))
    report = result.report
    row = {
        "dataset": dataset.name,
        "config": result.provenance.config,
        "backend": result.provenance.backend,
    }
    if report is not None:
        row.update({
            "cycles": report.cycles,
            "gops": round(report.gops, 3),
            "mmh_cpi": round(report.mmh_cpi_mean, 1),
            "hacc_cpi": round(report.hacc_cpi_mean, 1),
            "stall_cycles": report.stall_cycles,
            "traffic_kib": round(report.memory_traffic_bytes / 1024, 1),
            "power_w": round(result.power_w, 2),
            "verified": report.correct,
            "sim_kcps": round(report.simulation_kcps, 1),
        })
    elif args.shards > 1:
        row.update({key: result.metrics[key] for key in
                    ("cycles", "gops", "mmh", "partial_products",
                     "output_nnz")})
        row["shards"] = result.provenance.shards
    else:
        row.update({
            "mmh": result.program.n_instructions,
            "partial_products": result.program.total_partial_products,
            "output_nnz": result.output.nnz,
            "bloat_pct": round(result.program.bloat_percent, 2),
        })
    if result.provenance.chips > 1:
        row["chips"] = result.provenance.chips
        row["shard_skew"] = result.metrics.get("shard_skew")
    row["cache_hit"] = result.provenance.cache_hit
    row["wall_time_s"] = round(result.provenance.wall_time_s, 4)
    rows = [row]
    print(format_table(rows))
    _maybe_save(rows, args.output_dir,
                f"run_{dataset.name}_{result.provenance.config}")
    verified = result.metrics.get("verified")
    return 0 if verified in (True, None) else 1


def cmd_gcn(args: argparse.Namespace) -> int:
    """Run one GCN layer (aggregation on the accelerator)."""
    dataset = load_dataset(args.dataset, max_nodes=args.max_nodes, seed=args.seed)
    with _session(args) as session:
        result = session.run(GCNLayerSpec(
            dataset=dataset, feature_dim=args.feature_dim,
            hidden_dim=args.hidden_dim, label=dataset.name))
    metrics = result.metrics
    rows = [{
        "dataset": dataset.name,
        "config": result.provenance.config,
        "backend": result.provenance.backend,
        "aggregation_cycles": metrics["aggregation_cycles"],
        "combination_cycles": metrics["combination_cycles"],
        "total_cycles": metrics["total_cycles"],
        "aggregation_verified": metrics["verified"],
        "output_shape": metrics["output_shape"],
        "cache_hit": result.provenance.cache_hit,
        "wall_time_s": round(result.provenance.wall_time_s, 4),
    }]
    print(format_table(rows))
    _maybe_save(rows, args.output_dir,
                f"gcn_{dataset.name}_{result.provenance.config}")
    return 0 if metrics["verified"] in (True, None) else 1


def cmd_gnn(args: argparse.Namespace) -> int:
    """Run a multi-layer GNN stack over one resident graph."""
    dataset = load_dataset(args.dataset, max_nodes=args.max_nodes, seed=args.seed)
    layer_dims = tuple(args.layer_dims or [args.hidden_dim] * args.layers)
    with _session(args) as session:
        result = session.run(GNNModelSpec(
            dataset=dataset, layer_dims=layer_dims,
            feature_dim=args.feature_dim, batches=args.batches,
            label=dataset.name))
    metrics = result.metrics
    rows = [{
        "dataset": dataset.name,
        "config": result.provenance.config,
        "backend": result.provenance.backend,
        "layers": metrics["layers"],
        "batches": metrics["batches"],
        "total_cycles": metrics["total_cycles"],
        "cycles_per_layer": metrics["cycles_per_layer"],
        "pipeline_cycles": metrics["pipeline_cycles"],
        "pipeline_speedup": metrics["pipeline_speedup"],
        "compiles": metrics["compiles"],
        "output_shape": metrics["output_shape"],
        "verified": metrics["verified"],
        "cache_hit": result.provenance.cache_hit,
        "wall_time_s": round(result.provenance.wall_time_s, 4),
    }]
    if result.provenance.chips > 1:
        rows[0]["chips"] = result.provenance.chips
    print(format_table(rows))
    _maybe_save(rows, args.output_dir,
                f"gnn_{dataset.name}_{result.provenance.config}")
    return 0 if metrics["verified"] in (True, None) else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Tile-size design-space sweep (the Figure 11 series)."""
    dataset = load_dataset(args.dataset, max_nodes=args.max_nodes, seed=args.seed)
    with _session(args) as session:
        result = session.run(SweepSpec(
            a=dataset.adjacency_csr(),
            configs=[c.name for c in all_spgemm_configs()],
            normalize_to=None if args.raw else "Tile-4",
            label=dataset.name))
    rows = [{"config": name, **{k: round(v, 3) for k, v in metrics.items()}}
            for name, metrics in result.output.items()]
    print(format_table(rows))
    _maybe_save(rows, args.output_dir, f"sweep_{dataset.name}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Run a queue of SpGEMM jobs through the session with program caching."""
    names = args.datasets or ["cora"]
    adjacencies = {name: load_dataset(name, max_nodes=args.max_nodes,
                                      seed=args.seed).adjacency_csr()
                   for name in dict.fromkeys(names)}
    specs = []
    for repeat in range(args.repeat):
        for name in names:
            label = name if args.repeat == 1 else f"{name}#{repeat}"
            specs.append(SpGEMMSpec(a=adjacencies[name], label=label,
                                    source=name, verify=False))
    with _session(args, default_backend="analytic") as session:
        result = session.run(BatchSpec(specs=specs))
    rows = [{
        "job": part.label,
        "backend": part.provenance.backend,
        "cycles": part.metrics["cycles"],
        "gops": part.metrics["gops"],
        "mmh": part.metrics["mmh"],
        "partial_products": part.metrics["partial_products"],
        "output_nnz": part.metrics["output_nnz"],
        "power_w": round(part.power_w, 2),
        "cache_hit": part.cache_hit,
        "wall_time_s": round(part.wall_time_s, 6),
        "compile_cached": part.cache_hit,  # older column name
    } for part in result.parts]
    print(format_table(rows))
    print(format_table([result.metrics]))
    _maybe_save(rows, args.output_dir, f"batch_{result.provenance.config}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent on-disk program cache."""
    from repro.core.runner import ProgramCache, default_cache_dir

    directory = Path(args.cache_dir).expanduser() if args.cache_dir \
        else default_cache_dir()
    if args.action == "clear":
        if not directory.exists():
            print(f"cache dir {directory} does not exist; nothing to clear")
            return 0
        removed = ProgramCache(0, cache_dir=directory).clear_disk()
        print(f"removed {removed} cached program(s) from {directory}")
        return 0
    if directory.exists():
        stats = ProgramCache(0, cache_dir=directory).disk_stats()
    else:  # a stats query must not create the directory
        from repro.core.runner import DEFAULT_DISK_CAPACITY_BYTES

        stats = {"disk_entries": 0, "disk_bytes": 0,
                 "max_disk_bytes": DEFAULT_DISK_CAPACITY_BYTES}
    rows = [{
        "cache_dir": str(directory),
        "entries": stats["disk_entries"],
        "bytes": stats["disk_bytes"],
        "kib": round(stats["disk_bytes"] / 1024, 1),
        "max_bytes": stats["max_disk_bytes"],
    }]
    print(format_table(rows))
    _maybe_save(rows, args.output_dir, "cache_stats")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the static-analysis passes; nonzero exit on any finding."""
    import repro
    from repro.analysis.lockcheck import lint_paths
    from repro.analysis.selfcheck import ir_selfcheck, structure_selfcheck

    wanted = args.passes
    findings = []
    ran = []
    if wanted in ("ir", "all"):
        ran.append("ir")
        findings += ir_selfcheck(max_nodes=args.max_nodes, seed=args.seed)
    if wanted in ("structure", "all"):
        ran.append("structure")
        findings += structure_selfcheck(max_nodes=args.max_nodes,
                                        seed=args.seed)
    if wanted in ("locks", "all"):
        ran.append("locks")
        paths = ([Path(p) for p in args.paths] if args.paths
                 else [Path(repro.__file__).parent])
        findings += lint_paths(paths)
    for finding in findings:
        print(finding.format())
    print(f"analyze: {len(findings)} finding(s) across "
          f"{'/'.join(ran)} pass(es)")
    return 1 if findings else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve SpGEMM / GCN requests over HTTP with micro-batching."""
    import asyncio

    from repro.serve import ReproServer, TenantTable

    if args.tenants is not None:
        try:
            tenants = TenantTable.from_file(args.tenants)
        except (OSError, ValueError) as err:
            print(f"error: bad --tenants file: {err}", file=sys.stderr)
            return 2
    else:
        tenants = TenantTable(default_weight=args.default_weight)
    session = _session(args, default_backend="analytic")
    server = ReproServer(session, host=args.host, port=args.port,
                         max_batch=args.max_batch,
                         max_delay_ms=args.max_delay_ms,
                         queue_depth=args.queue_depth,
                         request_timeout_s=args.request_timeout,
                         coalesce=not args.no_coalesce,
                         registry_max_bytes=args.registry_max_mib
                         * 1024 * 1024,
                         tenants=tenants,
                         scheduling=args.scheduling)
    try:
        asyncio.run(server.run_forever())
    except KeyboardInterrupt:
        pass  # run_forever's signal handler normally wins; this is backup
    finally:
        session.close()
    return 0


def cmd_upload(args: argparse.Namespace) -> int:
    """Register a dataset's adjacency in a running server's operand
    registry and print the content-digest ref to use in later requests."""
    import http.client
    import json

    if args.server_side:
        # The server synthesises (and caches) the generator dataset
        # itself: the cheapest upload, and the entry becomes
        # dataset-backed so /v1/gcn can take the ref too.
        body = json.dumps({"dataset": args.dataset,
                           "max_nodes": args.max_nodes,
                           "seed": args.seed}).encode()
        content_type = "application/json"
    else:
        csr = load_dataset(args.dataset, max_nodes=args.max_nodes,
                           seed=args.seed).adjacency_csr()
        if args.json:
            body = json.dumps({"indptr": csr.indptr.tolist(),
                               "indices": csr.indices.tolist(),
                               "data": csr.data.tolist(),
                               "shape": list(csr.shape)}).encode()
            content_type = "application/json"
        else:
            from repro.serve.wire import WIRE_CONTENT_TYPE, encode_csr

            body = encode_csr(csr)
            content_type = WIRE_CONTENT_TYPE
    connection = http.client.HTTPConnection(args.host, args.port,
                                            timeout=args.timeout)
    try:
        connection.request("PUT", "/v1/operands", body=body,
                           headers={"Content-Type": content_type})
        response = connection.getresponse()
        payload = json.loads(response.read() or b"{}")
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.host}:{args.port} ({error})",
              file=sys.stderr)
        return 2
    finally:
        connection.close()
    if response.status != 200:
        print(f"error: server returned {response.status}: "
              f"{payload.get('error', payload)}", file=sys.stderr)
        return 1
    rows = [{
        "ref": payload["ref"],
        "dataset": args.dataset,
        "shape": "x".join(str(n) for n in payload["shape"]),
        "nnz": payload["nnz"],
        "bytes": payload["bytes"],
        "upload_bytes": len(body),
        "encoding": content_type,
        "created": payload["created"],
    }]
    print(format_table(rows))
    _maybe_save(rows, args.output_dir, f"upload_{args.dataset}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeuraChip reproduction command-line interface")
    parser.add_argument("--output-dir", default=None,
                        help="write result tables as CSV into this directory")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_datasets = subparsers.add_parser("datasets", help="list the dataset suites")
    p_datasets.set_defaults(func=cmd_datasets)

    def add_common(sub):
        sub.add_argument("--max-nodes", type=int, default=256,
                         help="node-count cap for the synthetic graph")
        sub.add_argument("--seed", type=int, default=0)

    def add_session(sub, default="cycle"):
        sub.add_argument("--backend", choices=available_backends(),
                         default=default,
                         help="execution backend (default: %(default)s)")
        sub.add_argument("--impl", choices=IMPLS, default="numpy",
                         help="kernel implementation used by the analytic "
                              "backend (default: %(default)s)")
        sub.add_argument("--executor", choices=available_executors(),
                         default="serial",
                         help="host-side executor jobs fan out on "
                              "(default: %(default)s)")
        sub.add_argument("--workers", type=int, default=None,
                         help="worker count for the thread/process executors")
        sub.add_argument("--cache-dir", default=None,
                         help="persist compiled programs to this directory; "
                              "warm caches skip compilation entirely")
        sub.add_argument("--chips", type=int, default=None,
                         help="chip count for the multichip backend (each "
                              "chip owns one row shard and its own context)")
        sub.add_argument("--chip-backend",
                         choices=("functional", "cycle", "analytic"),
                         default=None,
                         help="backend each chip of a multichip run executes "
                              "its shard through (default: analytic)")
        sub.add_argument("--partition",
                         choices=("auto", "contiguous", "degree"),
                         default=None,
                         help="shard planning strategy for --shards and the "
                              "multichip backend: contiguous row ranges, "
                              "degree-aware index sets with monster-row "
                              "splitting, or auto skew probe (default: auto)")

    p_bloat = subparsers.add_parser("bloat", help="Table-1 memory-bloat analysis")
    p_bloat.add_argument("--datasets", nargs="*", default=None)
    add_common(p_bloat)
    p_bloat.set_defaults(func=cmd_bloat)

    p_run = subparsers.add_parser("run", help="simulate one SpGEMM workload")
    p_run.add_argument("--dataset", default="cora")
    p_run.add_argument("--config", default="Tile-16")
    p_run.add_argument("--tile-size", type=int, default=None)
    p_run.add_argument("--eviction", choices=("rolling", "barrier"),
                       default="rolling")
    p_run.add_argument("--mapping", choices=("ring", "modular", "random", "drhm"),
                       default=None)
    p_run.add_argument("--no-verify", action="store_true")
    p_run.add_argument("--shards", type=int, default=1,
                       help="split the SpGEMM into this many row-group "
                            "shards fanned out over the executor")
    add_session(p_run)
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_gcn = subparsers.add_parser("gcn", help="simulate one GCN layer")
    p_gcn.add_argument("--dataset", default="cora")
    p_gcn.add_argument("--config", default="Tile-16")
    p_gcn.add_argument("--feature-dim", type=int, default=16)
    p_gcn.add_argument("--hidden-dim", type=int, default=8)
    add_session(p_gcn)
    add_common(p_gcn)
    p_gcn.set_defaults(func=cmd_gcn)

    p_gnn = subparsers.add_parser(
        "gnn", help="simulate a multi-layer GNN stack (resident graph)")
    p_gnn.add_argument("--dataset", default="cora")
    p_gnn.add_argument("--config", default="Tile-16")
    p_gnn.add_argument("--feature-dim", type=int, default=16)
    p_gnn.add_argument("--hidden-dim", type=int, default=8,
                       help="output width of every layer when --layer-dims "
                            "is not given")
    p_gnn.add_argument("--layers", type=int, default=2,
                       help="stack depth (ignored when --layer-dims is given)")
    p_gnn.add_argument("--layer-dims", type=int, nargs="*", default=None,
                       help="explicit per-layer output widths, e.g. 32 32 16")
    p_gnn.add_argument("--batches", type=int, default=1,
                       help="batches pipelined through the resident stack")
    add_session(p_gnn)
    add_common(p_gnn)
    p_gnn.set_defaults(func=cmd_gnn)

    p_sweep = subparsers.add_parser("sweep", help="tile-size design-space sweep")
    p_sweep.add_argument("--dataset", default="cora")
    p_sweep.add_argument("--config", default="Tile-16",
                         help=argparse.SUPPRESS)  # sweep spans all configs
    p_sweep.add_argument("--raw", action="store_true",
                         help="report raw values instead of Tile-4-normalised")
    add_session(p_sweep)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_batch = subparsers.add_parser(
        "batch", help="run a queue of SpGEMM jobs with program caching")
    p_batch.add_argument("--datasets", nargs="*", default=None,
                         help="dataset names; repeats share the compile cache")
    p_batch.add_argument("--config", default="Tile-16")
    p_batch.add_argument("--repeat", type=int, default=1,
                         help="enqueue the dataset list this many times")
    add_session(p_batch, default="analytic")
    add_common(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_cache = subparsers.add_parser(
        "cache", help="inspect or clear the persistent program cache")
    p_cache.add_argument("action", choices=("stats", "clear"),
                         help="'stats' reports entry/byte totals, 'clear' "
                              "removes every cached program")
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache directory (default: the versioned "
                              "per-user cache dir)")
    p_cache.set_defaults(func=cmd_cache)

    p_analyze = subparsers.add_parser(
        "analyze", help="static analysis: IR verifier, structural checker "
                        "and concurrency lint")
    p_analyze.add_argument("--pass", dest="passes", default="all",
                           choices=["ir", "structure", "locks", "all"],
                           help="which pass to run (default: all three)")
    p_analyze.add_argument("paths", nargs="*",
                           help="files/directories for the locks pass "
                                "(default: the installed repro package)")
    p_analyze.add_argument("--max-nodes", type=int, default=192,
                           help="dataset scale for the ir/structure "
                                "self-checks")
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--output-dir", default=None,
                           help=argparse.SUPPRESS)
    p_analyze.set_defaults(func=cmd_analyze)

    p_serve = subparsers.add_parser(
        "serve", help="serve SpGEMM/GCN requests over HTTP with "
                      "micro-batching")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8077,
                         help="listen port; 0 picks an ephemeral port "
                              "(printed on startup)")
    p_serve.add_argument("--config", default="Tile-16")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="dispatch a micro-batch once this many "
                              "requests are waiting (default: %(default)s)")
    p_serve.add_argument("--max-delay-ms", type=float, default=5.0,
                         help="... or once the oldest waiting request has "
                              "aged this long (default: %(default)s)")
    p_serve.add_argument("--queue-depth", type=int, default=256,
                         help="bounded request queue; beyond it requests "
                              "are load-shed with 503 (default: %(default)s)")
    p_serve.add_argument("--request-timeout", type=float, default=60.0,
                         help="per-request deadline in seconds, queue wait "
                              "+ execution (default: %(default)s)")
    p_serve.add_argument("--no-coalesce", action="store_true",
                         help="disable serving operand-identical requests "
                              "from a single execution")
    p_serve.add_argument("--registry-max-mib", type=int, default=256,
                         help="byte cap (MiB) on the content-addressed "
                              "operand registry; beyond it LRU operands "
                              "are evicted (default: %(default)s)")
    p_serve.add_argument("--tenants", default=None, metavar="FILE",
                         help="tenant policy JSON: {\"default_weight\": N, "
                              "\"tenants\": {name: {weight, rate_rps, "
                              "burst, max_in_flight}}}")
    p_serve.add_argument("--default-weight", type=float, default=1.0,
                         help="WFQ weight for tenants not named in "
                              "--tenants (default: %(default)s)")
    p_serve.add_argument("--scheduling", choices=("fair", "fifo"),
                         default="fair",
                         help="queue order: 'fair' (WFQ across tenants, "
                              "EDF within each) or 'fifo' (arrival "
                              "order) (default: %(default)s)")
    add_session(p_serve, default="analytic")
    p_serve.set_defaults(func=cmd_serve)

    p_upload = subparsers.add_parser(
        "upload", help="register a dataset adjacency in a running "
                       "server's operand registry")
    p_upload.add_argument("--dataset", default="cora")
    p_upload.add_argument("--host", default="127.0.0.1")
    p_upload.add_argument("--port", type=int, default=8077)
    p_upload.add_argument("--timeout", type=float, default=30.0,
                          help="HTTP timeout in seconds")
    p_upload.add_argument("--json", action="store_true",
                          help="upload as inline JSON arrays instead of "
                               "the binary x-repro-csr frame")
    p_upload.add_argument("--server-side", action="store_true",
                          help="send only the dataset name; the server "
                               "synthesises it (dataset-backed entry, "
                               "usable by /v1/gcn refs)")
    add_common(p_upload)
    p_upload.set_defaults(func=cmd_upload)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as error:
        # Session construction fails fast on bad names / cache dirs, and
        # config/dataset lookups raise KeyError on unknown names; turn both
        # into a clean CLI error instead of a traceback.
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
