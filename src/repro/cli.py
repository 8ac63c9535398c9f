"""Command-line interface: label, check, query and benchmark XML documents.

Usage (also via ``python -m repro``)::

    python -m repro stats doc.xml [more.xml ...]
    python -m repro label doc.xml --scheme prime [--annotate out.xml]
    python -m repro check doc.xml --scheme prefix-2
    python -m repro query '/play//act[2]' doc1.xml doc2.xml --scheme prime
    python -m repro sql '/play//act' --scheme interval
    python -m repro bench fig18
    python -m repro dump state/ doc1.xml doc2.xml [--churn 50]
    python -m repro load state/ --query '//act'
    python -m repro recover state/
    python -m repro health state/ [--json]
    python -m repro serve state/ [--host H --port P] [--duration S]
    python -m repro replicate state/ [--connect H:P] [--state rep.json]
    python -m repro lag state/ [--state rep.json] [--json] [--max-bytes N]
    python -m repro shard-serve root/ [doc.xml ...] [--shards N] [--churn N]
    python -m repro shard-status root/ [--json]
    python -m repro lint [paths ...] [--format text|json|sarif]

``bench`` accepts any exhibit id from the paper: fig3 fig4 fig5 table1
fig13 fig14 table2 fig15 fig16 fig17 fig18 (the time-heavy ones build
their corpora on demand), plus the systems exhibits ``durability``,
``compaction`` and ``resilience`` (counts only); ``--csv``/``--json``
export any of them.

``query`` evaluates with ``--strategy auto`` by default: the pre/post
window columns when the store has them, the paper's label scan
otherwise; ``--strategy scan`` pins the label scan and ``--explain``
prints the path taken.  See ``docs/QUERYING.md``.

``stats`` also runs each document through an instrumented prime
pipeline (label + SC table + a ``//*`` query) and prints the
observability counters and operator timings from :mod:`repro.obs`.
``stats``, ``label``, ``check`` and ``query`` accept ``--audit`` to run
the deep invariant auditor and fail (exit 1) on any violation.

``dump``/``load``/``recover`` drive the durability subsystem
(:mod:`repro.durable`): ``dump`` creates a durable collection directory
from XML files, ``load`` recovers it and optionally queries it,
``recover`` runs the recovery protocol read-only and reports what it
did.  Their ``--fsync`` default comes from the ``REPRO_WAL_FSYNC``
environment variable (``always`` if unset).  ``stats`` also accepts a
durable collection directory and prints its WAL/snapshot/recovery
counters.

``health`` recovers a durable collection through the resilient serving
layer (:mod:`repro.resilient`) and reports breaker state, fault/retry
counters, and the order-invariant check; ``dump --churn N`` applies N
synthetic insertions through the same layer after creating the
collection.  Both honour the ``REPRO_CHAOS`` environment variable
(``"rate=0.05,seed=7,..."``, see
:meth:`repro.durable.faults.FaultPlan.from_spec`), which arms transient
fault injection on the write path — how CI soaks the CLI round trip.

``serve``/``replicate``/``lag`` drive the replication subsystem
(:mod:`repro.replica`): ``serve`` runs a WAL shipping endpoint over a
collection directory, ``replicate`` bootstraps a replica from the
latest snapshot and tails the log to convergence (``--connect`` ships
over TCP instead of the filesystem; ``--state`` records the replica's
position for a later ``lag``), and ``lag`` reports applied-LSN,
primary-LSN and byte lag as text or JSON — ``--max-bytes`` turns it
into a monitoring check that exits 5 when the replica is too far
behind.  See ``docs/REPLICATION.md``.

``shard-serve``/``shard-status`` drive the sharded serving subsystem
(:mod:`repro.shard`): ``shard-serve`` creates (when XML files are
given) or opens a sharded collection root, runs its supervised worker
fleet, optionally applies ``--churn N`` synthetic insertions through
the router — ``--kill S`` SIGKILLs shard S's worker halfway through to
exercise restart + redo replay — runs an optional ``--query``, and
prints per-shard health lines; ``shard-status`` inspects a root
*offline* (no workers): manifest, per-shard newest snapshot
generation, the seq it covers, and WAL last seq.  See ``docs/SHARDING.md``.

``lint`` runs the :mod:`repro.analysis` invariant linter (rules
R1–R13: label-write discipline, layering, determinism, fsync,
threading and process containment, ...) over the tree, honouring inline
suppressions and the committed ``analysis-baseline.json``; ``--format
sarif`` is what CI's ``lint-invariants`` job archives.  See
``docs/ANALYSIS.md``.

Exit codes are part of the contract: 0 success, 1 any other library
error (:class:`repro.errors.ReproError`), 2 missing file, 3 malformed
XML (:class:`repro.errors.XmlSyntaxError`), 4 durability failure
(:class:`repro.errors.DurabilityError` — corrupt WAL/snapshot,
unrecoverable directory, ...), 5 replication failure
(:class:`repro.errors.ReplicationError` — broken stream, failed
re-bootstrap, or a ``lag --max-bytes`` bound exceeded), 6 sharding
failure (:class:`repro.errors.ShardError` — a missing/corrupt manifest
or shard root, or a mutation routed to a quarantined or stopped shard).
A reader that closes the output pipe early (``repro label doc.xml | head
-1``) ends the run quietly with 1, as the Python ``signal`` docs advise.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import (
    DurabilityError,
    RecoveryError,
    ReplicationError,
    ReproError,
    ShardError,
    SnapshotCorruptError,
    XmlSyntaxError,
)
from repro.labeling.base import LabelingScheme
from repro.labeling.compact import DahlgaardScheme, FraigniaudKormanScheme
from repro.labeling.dewey import DeweyScheme
from repro.labeling.interval import StartEndIntervalScheme, XissIntervalScheme
from repro.labeling.prefix import Prefix1Scheme, Prefix2Scheme
from repro.labeling.prime import BottomUpPrimeScheme, PrimeScheme
from repro.obs import metrics
from repro.query.engine import QueryEngine
from repro.query.sql import to_sql
from repro.query.store import LabelStore
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

__all__ = ["main", "SCHEME_FACTORIES"]

SCHEME_FACTORIES: Dict[str, Callable[[], LabelingScheme]] = {
    "prime": lambda: PrimeScheme(reserved_primes=64, power2_leaves=True,
                                 leaf_threshold_bits=16),
    "prime-original": lambda: PrimeScheme(reserved_primes=0, power2_leaves=False),
    "prime-bottomup": BottomUpPrimeScheme,
    "interval": XissIntervalScheme,
    "interval-startend": StartEndIntervalScheme,
    "prefix-1": Prefix1Scheme,
    "prefix-2": Prefix2Scheme,
    "dewey": DeweyScheme,
    "dkr": DahlgaardScheme,
    "fk-depth": FraigniaudKormanScheme,
}

#: schemes the relational label store (and thus `query`) supports
STORE_SCHEMES = ("prime", "interval", "prefix-2")


def _read_documents(paths: Sequence[str]) -> List[XmlElement]:
    documents = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(parse_document(handle.read()))
    return documents


def _format_label(label: object) -> str:
    return str(label)


def _print_snapshot(snapshot: Dict[str, object], indent: str = "  ") -> None:
    counters = {
        name: value for name, value in snapshot["counters"].items() if value
    }
    for name in sorted(counters):
        print(f"{indent}{name} = {counters[name]}")
    for name in sorted(snapshot["timers"]):
        timer = snapshot["timers"][name]
        print(
            f"{indent}{name}: count={timer['count']} "
            f"total={timer['total_s'] * 1000:.2f}ms "
            f"mean={timer['mean_s'] * 1000:.3f}ms"
        )


def _audit_store(store: LabelStore, indent: str = "  ") -> int:
    from repro.obs.audit import audit_ordered_document

    ordered = store.ordered_documents()
    if not ordered:
        print(f"{indent}audit: scheme keeps no SC table; nothing to cross-check")
        return 0
    failures = 0
    for doc_id, document in sorted(ordered.items()):
        report = audit_ordered_document(document)
        if report.ok:
            checks = sum(report.checks.values())
            print(f"{indent}doc {doc_id} audit: OK ({checks} checks)")
        else:
            failures += 1
            print(f"{indent}doc {doc_id} audit FAILED")
            print(report.summary())
    return failures


def _durable_stats(path: str, audit: bool) -> int:
    """Print a durable collection directory's state + durability counters."""
    from repro.durable import DurableCollection

    with metrics.collecting() as registry:
        collection = DurableCollection.open(path, verify=audit)
        info = collection.last_recovery
        documents = collection.documents
        collection.close()
        snapshot = registry.snapshot()
    print(
        f"{path}: durable collection, {len(documents)} document(s), "
        f"last seq {info.last_seq}, snapshot generation {info.generation}"
    )
    for index, root in enumerate(documents):
        stats = root.stats()
        print(
            f"  doc {index}: nodes={stats.node_count} depth={stats.depth} "
            f"max-fanout={stats.max_fanout} leaves={stats.leaf_count}"
        )
    _print_snapshot(snapshot)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    failures = 0
    directories = [path for path in args.files if os.path.isdir(path)]
    for path in directories:
        failures += _durable_stats(path, getattr(args, "audit", False))
    files = [path for path in args.files if path not in directories]
    for path, document in zip(files, _read_documents(files)):
        stats = document.stats()
        print(
            f"{path}: nodes={stats.node_count} depth={stats.depth} "
            f"max-fanout={stats.max_fanout} leaves={stats.leaf_count}"
        )
        with metrics.collecting() as registry:
            store = LabelStore.build([document], scheme="prime")
            engine = QueryEngine(store)
            engine.evaluate("//*")
            if getattr(args, "audit", False):
                failures += _audit_store(store)
            snapshot = registry.snapshot()
        _print_snapshot(snapshot)
    return 0 if failures == 0 else 1


def cmd_label(args: argparse.Namespace) -> int:
    (document,) = _read_documents([args.file])
    scheme = SCHEME_FACTORIES[args.scheme]()
    scheme.label_tree(document)
    if args.annotate:
        for node in document.iter_preorder():
            node.attributes["label"] = _format_label(scheme.label_of(node))
        with open(args.annotate, "w", encoding="utf-8") as handle:
            handle.write(serialize(document, indent=2))
        print(f"wrote annotated document to {args.annotate}")
    else:
        for node in document.iter_preorder():
            indent = "  " * node.depth
            print(f"{indent}{node.tag}: {_format_label(scheme.label_of(node))}")
    print(
        f"-- {scheme.name}: max label {scheme.max_label_bits()} bits, "
        f"total {scheme.total_label_bits()} bits"
    )
    if getattr(args, "audit", False):
        from repro.obs.audit import audit_scheme

        report = audit_scheme(scheme)
        print(report.summary())
        if not report.ok:
            return 1
    return 0


def cmd_space(args: argparse.Namespace) -> int:
    from repro.labeling.stats import compare_space

    (document,) = _read_documents([args.file])
    chosen = (
        "interval", "interval-startend", "prefix-1", "prefix-2",
        "dewey", "prime", "prime-bottomup",
    )
    print(compare_space(document, [SCHEME_FACTORIES[name] for name in chosen]).to_text())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    (document,) = _read_documents([args.file])
    scheme = SCHEME_FACTORIES[args.scheme]()
    scheme.label_tree(document)
    pairs, mismatches = scheme.check_against_tree()
    print(f"{args.scheme}: {pairs} node pairs checked, {mismatches} mismatches")
    if getattr(args, "audit", False):
        from repro.obs.audit import audit_scheme

        report = audit_scheme(scheme)
        print(report.summary())
        if not report.ok:
            return 1
    return 0 if mismatches == 0 else 1


def cmd_query(args: argparse.Namespace) -> int:
    documents = _read_documents(args.files)
    store = LabelStore.build(documents, scheme=args.scheme)
    engine = QueryEngine(store, strategy=getattr(args, "strategy", "auto"))
    rows = engine.evaluate(args.query)
    for row in rows:
        print(f"doc {row.doc_id}: {row.node.path()}")
    print(f"-- {len(rows)} node(s) retrieved with the {args.scheme} store")
    if getattr(args, "explain", False):
        print(f"-- path: {'window' if engine.strategy == 'auto' else 'scan'}")
    if getattr(args, "audit", False) and _audit_store(store, indent=""):
        return 1
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    print(to_sql(args.query, scheme=args.scheme))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.bench.response import figure15_table, table2_table

    exhibits: Dict[str, Callable[[], object]] = {
        "fig3": bench.figure3_table,
        "fig4": bench.figure4_table,
        "fig5": bench.figure5_table,
        "table1": bench.table1_table,
        "fig13": bench.figure13_table,
        "fig14": bench.figure14_table,
        "table2": table2_table,
        "fig15": figure15_table,
        "fig16": bench.figure16_table,
        "fig17": bench.figure17_table,
        "fig18": bench.figure18_table,
        "durability": bench.durability_table,
        "compaction": bench.compaction_table,
        "resilience": bench.resilience_table,
    }
    builder = exhibits.get(args.exhibit)
    if builder is None:
        print(
            f"unknown exhibit {args.exhibit!r}; choose from {', '.join(exhibits)}",
            file=sys.stderr,
        )
        return 2
    from repro.bench.harness import capture_metrics

    table = capture_metrics(builder)
    print(table.to_text() if not args.chart else table.to_chart())
    if args.csv:
        from repro.bench.export import table_to_csv

        table_to_csv(table, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        from repro.bench.export import table_to_json

        table_to_json(table, args.json)
        print(f"wrote {args.json}")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    from repro.durable import DurableCollection
    from repro.resilient import FaultPlan, ResilientCollection, RetryPolicy

    documents = _read_documents(args.files)
    chaos = FaultPlan.from_env()
    with metrics.collecting() as registry:
        collection = ResilientCollection(
            DurableCollection.create(
                args.dir, documents, group_size=args.group_size, fsync=args.fsync
            ),
            faults=chaos,
            # Generous retry budget: the CLI prefers a slow success over
            # asking the operator to re-run a whole dump.
            retry=RetryPolicy(max_attempts=8),
        )
        for i in range(args.churn):
            root = collection.documents[i % len(collection.documents)]
            collection.insert_child(root, 0, tag=f"churn{i}")
        if args.churn:
            collection.checkpoint()
        collection.close()
        snapshot = registry.snapshot()
    print(
        f"created durable collection in {args.dir}: "
        f"{len(documents)} document(s), fsync={args.fsync}"
        + (f", churn={args.churn}" if args.churn else "")
    )
    if chaos is not None:
        print(
            f"chaos: {chaos.total_injected} transient fault(s) injected, "
            f"{collection.retries} retrie(s), "
            f"breaker opened {collection.breaker.times_opened}x"
        )
    _print_snapshot(snapshot)
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    from repro.durable import DurableCollection

    with metrics.collecting() as registry:
        collection = DurableCollection.open(
            args.dir, fsync=args.fsync, verify=not args.no_verify
        )
        info = collection.last_recovery
        rows = collection.query(args.query) if args.query else None
        collection.close()
        snapshot = registry.snapshot()
    print(info.summary())
    if rows is not None:
        for row in rows:
            print(f"doc {row.doc_id}: {row.node.path()}")
        print(f"-- {len(rows)} node(s) retrieved")
    _print_snapshot(snapshot)
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """Recover through the resilient layer and report serving health."""
    import json

    from repro.durable import DurableCollection
    from repro.resilient import FaultPlan, ResilientCollection

    chaos = FaultPlan.from_env()
    with metrics.collecting() as registry:
        collection = ResilientCollection(
            DurableCollection.open(
                args.dir, fsync=args.fsync, verify=not args.no_verify
            ),
            faults=chaos,
        )
        info = collection.durable.last_recovery
        ordered_ok = collection.check()
        report = collection.health()
        collection.close()
        snapshot = registry.snapshot()
    report["order_check"] = "ok" if ordered_ok else "FAILED"
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(info.summary())
        breaker = report["breaker"]
        print(
            f"state: {report['state']} | breaker: {breaker['state']} "
            f"(opened {breaker['times_opened']}x, probes {breaker['probes']}) | "
            f"order check: {report['order_check']}"
        )
        print(
            f"retries: {report['retries']} | faults: "
            + " ".join(
                f"{domain}={count}"
                for domain, count in sorted(report["faults"].items())
            )
        )
        _print_snapshot(snapshot)
    return 0 if ordered_ok and report["state"] == "ok" else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a WAL shipping endpoint over a durable collection directory."""
    import time

    from repro.durable.recovery import WAL_NAME
    from repro.replica import WalShipServer

    wal_path = os.path.join(args.dir, WAL_NAME)
    if not os.path.isdir(args.dir):
        raise FileNotFoundError(f"no such collection directory: {args.dir}")
    server = WalShipServer(wal_path, host=args.host, port=args.port)
    host, port = server.start()
    print(f"shipping {wal_path} on {host}:{port}")
    try:
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print("ship server stopped")
    return 0


def _replica_transport(args: argparse.Namespace):
    """Build the transport ``replicate`` was asked for (file or socket)."""
    if not args.connect:
        return None  # ReplicaCollection defaults to FileTransport
    from repro.replica import SocketTransport

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise ReplicationError(
            f"--connect expects HOST:PORT, got {args.connect!r}"
        )
    return SocketTransport(host, int(port))


def cmd_replicate(args: argparse.Namespace) -> int:
    """Bootstrap a replica and tail the primary's WAL to convergence."""
    import json

    from repro.replica import ReplicaCollection

    with metrics.collecting() as registry:
        replica = ReplicaCollection(args.dir, transport=_replica_transport(args))
        applied = replica.catch_up()
        lag = replica.lag()
        rows = replica.query(args.query) if args.query else None
        replica.close()
        snapshot = registry.snapshot()
    print(
        f"replica of {args.dir}: bootstrapped at seq "
        f"{replica.applied_seq - applied}, applied {applied} record(s), "
        f"now at seq {replica.applied_seq}"
        + (f", {replica.resyncs} resync(s)" if replica.resyncs else "")
    )
    if rows is not None:
        for row in rows:
            print(f"doc {row.doc_id}: {row.node.path()}")
        print(f"-- {len(rows)} node(s) retrieved from the published view")
    if args.state:
        state = {
            "applied_seq": replica.applied_seq,
            "offset": replica.tailer.offset,
            "resyncs": replica.resyncs,
        }
        with open(args.state, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
        print(f"wrote replica state to {args.state}")
    _print_snapshot(snapshot)
    if lag.record_lag:
        # The primary moved while we were converging; report, don't fail.
        print(f"note: primary advanced to seq {lag.primary_seq} meanwhile")
    return 0


def cmd_lag(args: argparse.Namespace) -> int:
    """Report replica lag against a primary's directory."""
    import json

    from repro.durable import resolve_bootstrap, scan_wal
    from repro.durable.recovery import WAL_NAME
    from repro.durable.wal import WAL_HEADER
    from repro.replica.tailer import unread_bytes

    scan = scan_wal(os.path.join(args.dir, WAL_NAME))
    primary_seq, primary_bytes = scan.last_seq, scan.total_bytes
    applied_seq = 0
    offset = None
    source = "none"
    if args.state:
        with open(args.state, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        applied_seq = int(state.get("applied_seq", 0))
        offset = state.get("offset")
        source = args.state
    else:
        # Where a replica bootstrapping now would start; "none" (seq 0)
        # when no snapshot generation decodes.
        try:
            applied_seq = resolve_bootstrap(args.dir).last_seq
            source = "newest snapshot"
        except RecoveryError:
            pass
    if offset is None:
        # Without a replica position, a fresh bootstrapper would replay
        # every record currently in the log: count those bytes as lag.
        offset = min(primary_bytes, len(WAL_HEADER))
    byte_lag = unread_bytes(primary_bytes, int(offset))
    record_lag = max(0, primary_seq - applied_seq)
    if args.json:
        print(
            json.dumps(
                {
                    "applied_seq": applied_seq,
                    "primary_seq": primary_seq,
                    "record_lag": record_lag,
                    "byte_lag": byte_lag,
                    "source": source,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"applied seq {applied_seq} (from {source}) | "
            f"primary seq {primary_seq} | "
            f"lag: {record_lag} record(s), {byte_lag} byte(s)"
        )
    if args.max_bytes is not None and byte_lag > args.max_bytes:
        raise ReplicationError(
            f"byte lag {byte_lag} exceeds --max-bytes {args.max_bytes}"
        )
    return 0


def cmd_shard_serve(args: argparse.Namespace) -> int:
    """Run (and optionally create + churn) a supervised sharded collection."""
    import json

    from repro.shard import MANIFEST_NAME, ShardedCollection

    existing = os.path.isfile(os.path.join(args.dir, MANIFEST_NAME))
    if existing and args.files:
        raise ShardError(
            f"{args.dir} already holds a sharded collection; "
            "drop the XML file arguments to open it"
        )
    if not existing and not args.files:
        raise ShardError(
            f"{args.dir} is not a sharded collection root; "
            "pass XML files to create one"
        )
    with metrics.collecting() as registry:
        if existing:
            service = ShardedCollection.open(args.dir, fsync=args.fsync)
        else:
            service = ShardedCollection.create(
                args.dir,
                _read_documents(args.files),
                shards=args.shards,
                fsync=args.fsync,
            )
        try:
            for i in range(args.churn):
                if args.kill is not None and i == args.churn // 2:
                    service.kill_worker(args.kill)
                service.apply_batch(
                    [{"kind": "insert_child", "doc": i % service.doc_count,
                      "pos": 0, "index": 0, "tag": f"churn{i}"}]
                )
            settled = service.settle()
            rows = missing = None
            if args.query:
                result = service.query(args.query)
                rows, missing = len(result.rows), sorted(result.missing_shards)
            violations = sum(len(v) for v in service.audit().values())
            statuses = service.status()
            if args.churn:
                service.checkpoint()
        finally:
            service.close()
        snapshot = registry.snapshot()
    healthy = settled and violations == 0
    if args.json:
        print(
            json.dumps(
                {
                    "root": args.dir,
                    "shards": [
                        {
                            "shard": h.shard_id,
                            "state": h.state.value,
                            "last_seq": h.last_seq,
                            "restarts": h.restarts,
                            "buffered_ops": h.buffered_ops,
                        }
                        for h in statuses
                    ],
                    "settled": settled,
                    "audit_violations": violations,
                    "query_rows": rows,
                    "missing_shards": missing,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        verb = "opened" if existing else "created"
        print(
            f"{verb} sharded collection in {args.dir}: "
            f"{len(statuses)} shard(s), {service.doc_count} document(s)"
            + (f", churn={args.churn}" if args.churn else "")
        )
        for health in statuses:
            print("  " + health.summary())
        if rows is not None:
            line = f"-- {rows} node(s) retrieved"
            if missing:
                line += f" (PARTIAL: shard(s) {missing} missing)"
            print(line)
        print(
            f"settled: {'yes' if settled else 'NO'} | "
            f"audit violations: {violations}"
        )
        _print_snapshot(snapshot)
    return 0 if healthy else 1


def cmd_shard_status(args: argparse.Namespace) -> int:
    """Inspect a sharded collection root offline (no workers started)."""
    import json

    from repro.durable import list_shard_directories, scan_wal
    from repro.durable.recovery import WAL_NAME, list_generations, snapshot_path
    from repro.durable.snapshot import read_snapshot_seq
    from repro.shard import read_manifest

    manifest = read_manifest(args.dir)
    shards = []
    for shard_id, path in list_shard_directories(args.dir):
        generation = snapshot_seq = None
        generations = list_generations(path)
        if generations:
            generation = generations[-1]
            try:
                snapshot_seq = read_snapshot_seq(snapshot_path(path, generation))
            except SnapshotCorruptError:
                pass
        wal_path = os.path.join(str(path), WAL_NAME)
        try:
            wal_seq = scan_wal(wal_path).last_seq
        except (OSError, DurabilityError):
            wal_seq = 0
        shards.append(
            {
                "shard": shard_id,
                "generation": generation,
                "snapshot_seq": snapshot_seq,
                "wal_seq": wal_seq,
            }
        )
    if len(shards) != manifest.shards:
        raise ShardError(
            f"{args.dir} holds {len(shards)} shard director(ies) but the "
            f"manifest promises {manifest.shards}"
        )
    if args.json:
        print(
            json.dumps(
                {
                    "root": args.dir,
                    "shards": manifest.shards,
                    "doc_count": manifest.doc_count,
                    "fsync": manifest.fsync,
                    "group_size": manifest.group_size,
                    "shard_dirs": shards,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"{args.dir}: sharded collection, {manifest.shards} shard(s), "
            f"{manifest.doc_count} document(s), fsync={manifest.fsync}"
        )
        for entry in shards:
            print(
                f"  shard {entry['shard']}: generation={entry['generation']} "
                f"snapshot_seq={entry['snapshot_seq']} wal_seq={entry['wal_seq']}"
            )
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.durable import recover

    with metrics.collecting() as registry:
        recovered = recover(args.dir, verify=not args.no_verify)
        snapshot = registry.snapshot()
    print(recovered.info.summary())
    _print_snapshot(snapshot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prime number labeling for dynamic ordered XML trees (ICDE 2004).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    audit_help = "run the deep invariant auditor; exit 1 on any violation"

    stats = commands.add_parser(
        "stats", help="structural statistics + instrumented pipeline counters"
    )
    stats.add_argument("files", nargs="+")
    stats.add_argument("--audit", action="store_true", help=audit_help)
    stats.set_defaults(handler=cmd_stats)

    label = commands.add_parser("label", help="label a document and print/annotate")
    label.add_argument("file")
    label.add_argument("--scheme", choices=sorted(SCHEME_FACTORIES), default="prime")
    label.add_argument("--annotate", metavar="OUT.xml",
                       help="write the document with label attributes instead")
    label.add_argument("--audit", action="store_true", help=audit_help)
    label.set_defaults(handler=cmd_label)

    space = commands.add_parser("space", help="label-space report across schemes")
    space.add_argument("file")
    space.set_defaults(handler=cmd_space)

    check = commands.add_parser("check", help="verify labels against the tree")
    check.add_argument("file")
    check.add_argument("--scheme", choices=sorted(SCHEME_FACTORIES), default="prime")
    check.add_argument("--audit", action="store_true", help=audit_help)
    check.set_defaults(handler=cmd_check)

    query = commands.add_parser("query", help="run an XPath-subset query")
    query.add_argument("query")
    query.add_argument("files", nargs="+")
    query.add_argument("--scheme", choices=STORE_SCHEMES, default="prime")
    query.add_argument(
        "--strategy",
        choices=("scan", "auto"),
        default="auto",
        help="evaluation strategy (default: auto, the window columns when "
        "the store has them; scan pins the paper's label comparisons)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the evaluation path taken (window or scan)",
    )
    query.add_argument("--audit", action="store_true", help=audit_help)
    query.set_defaults(handler=cmd_query)

    sql = commands.add_parser("sql", help="show the SQL translation of a query")
    sql.add_argument("query")
    sql.add_argument("--scheme", choices=STORE_SCHEMES, default="prime")
    sql.set_defaults(handler=cmd_sql)

    bench = commands.add_parser("bench", help="regenerate a paper exhibit")
    bench.add_argument("exhibit")
    bench.add_argument("--chart", action="store_true", help="render as text bars")
    bench.add_argument("--csv", metavar="OUT.csv", help="also write the table as CSV")
    bench.add_argument(
        "--json", metavar="OUT.json", help="also write the table (plus metrics) as JSON"
    )
    bench.set_defaults(handler=cmd_bench)

    fsync_default = os.environ.get("REPRO_WAL_FSYNC", "always")
    fsync_help = (
        "WAL fsync policy: always, never, or batch:N "
        f"(default from REPRO_WAL_FSYNC, currently {fsync_default!r})"
    )

    dump = commands.add_parser(
        "dump", help="create a durable collection directory from XML files"
    )
    dump.add_argument("dir")
    dump.add_argument("files", nargs="+")
    dump.add_argument("--group-size", type=int, default=5,
                      help="SC-table group size (default 5)")
    dump.add_argument("--fsync", default=fsync_default, help=fsync_help)
    dump.add_argument("--churn", type=int, default=0, metavar="N",
                      help="apply N synthetic insertions through the "
                           "resilient layer after creating the collection")
    dump.set_defaults(handler=cmd_dump)

    load = commands.add_parser(
        "load", help="recover a durable collection and optionally query it"
    )
    load.add_argument("dir")
    load.add_argument("--query", help="XPath-subset query to run after recovery")
    load.add_argument("--fsync", default=fsync_default, help=fsync_help)
    load.add_argument("--no-verify", action="store_true",
                      help="skip the post-replay invariant audit")
    load.set_defaults(handler=cmd_load)

    recover = commands.add_parser(
        "recover", help="run crash recovery read-only and report what it did"
    )
    recover.add_argument("dir")
    recover.add_argument("--no-verify", action="store_true",
                         help="skip the post-replay invariant audit")
    recover.set_defaults(handler=cmd_recover)

    serve = commands.add_parser(
        "serve", help="ship a collection's WAL to replicas over TCP"
    )
    serve.add_argument("dir")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral, printed on start)")
    serve.add_argument("--duration", type=float, default=0.0, metavar="S",
                       help="serve for S seconds then exit (default: forever)")
    serve.set_defaults(handler=cmd_serve)

    replicate = commands.add_parser(
        "replicate", help="bootstrap a replica and tail the WAL to convergence"
    )
    replicate.add_argument("dir",
                           help="primary directory (snapshots; WAL too unless --connect)")
    replicate.add_argument("--connect", metavar="HOST:PORT",
                           help="ship the WAL from a `repro serve` endpoint "
                                "instead of the filesystem")
    replicate.add_argument("--query",
                           help="XPath-subset query to run against the "
                                "published view after convergence")
    replicate.add_argument("--state", metavar="OUT.json",
                           help="record the replica's position for `repro lag`")
    replicate.set_defaults(handler=cmd_replicate)

    lag = commands.add_parser(
        "lag", help="report replica lag (applied/primary LSN, byte lag)"
    )
    lag.add_argument("dir", help="primary directory")
    lag.add_argument("--state", metavar="REP.json",
                     help="replica state written by `repro replicate --state`")
    lag.add_argument("--json", action="store_true",
                     help="emit the lag report as JSON")
    lag.add_argument("--max-bytes", type=int, default=None, metavar="N",
                     help="exit 5 if byte lag exceeds N")
    lag.set_defaults(handler=cmd_lag)

    shard_serve = commands.add_parser(
        "shard-serve",
        help="run a supervised sharded collection (create it from XML files)",
    )
    shard_serve.add_argument("dir", help="sharded collection root")
    shard_serve.add_argument("files", nargs="*",
                             help="XML files (create mode only)")
    shard_serve.add_argument("--shards", type=int, default=2,
                             help="worker count when creating (default 2)")
    shard_serve.add_argument("--fsync", default=fsync_default, help=fsync_help)
    shard_serve.add_argument("--churn", type=int, default=0, metavar="N",
                             help="apply N synthetic insertions through "
                                  "the router")
    shard_serve.add_argument("--kill", type=int, default=None, metavar="S",
                             help="SIGKILL shard S's worker halfway through "
                                  "the churn (restart + replay exercise)")
    shard_serve.add_argument("--query",
                             help="XPath-subset query to scatter-gather "
                                  "after the churn")
    shard_serve.add_argument("--json", action="store_true",
                             help="emit the shard report as JSON")
    shard_serve.set_defaults(handler=cmd_shard_serve)

    shard_status = commands.add_parser(
        "shard-status",
        help="inspect a sharded collection root offline (no workers)",
    )
    shard_status.add_argument("dir", help="sharded collection root")
    shard_status.add_argument("--json", action="store_true",
                              help="emit the status report as JSON")
    shard_status.set_defaults(handler=cmd_shard_status)

    health = commands.add_parser(
        "health", help="recover through the resilient layer and report health"
    )
    health.add_argument("dir")
    health.add_argument("--fsync", default=fsync_default, help=fsync_help)
    health.add_argument("--json", action="store_true",
                        help="emit the full health report as JSON")
    health.add_argument("--no-verify", action="store_true",
                        help="skip the post-replay invariant audit")
    health.set_defaults(handler=cmd_health)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(commands)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        # A closed pipe must fail here, inside the handler below, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so the exit-time flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except XmlSyntaxError as error:
        print(f"error: malformed XML: {error}", file=sys.stderr)
        return 3
    except ReplicationError as error:
        # Subclasses DurabilityError; must be caught first to keep its
        # own exit code.
        print(f"error: replication failure: {error}", file=sys.stderr)
        return 5
    except DurabilityError as error:
        print(f"error: durability failure: {error}", file=sys.stderr)
        return 4
    except ShardError as error:
        # Subclasses ReproError directly; caught before the generic
        # handler to keep its own exit code.
        print(f"error: sharding failure: {error}", file=sys.stderr)
        return 6
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
