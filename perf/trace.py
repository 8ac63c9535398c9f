"""Spans for the traced run: wrap public calls, join processes, report self time.

The benchmark measures the system from outside.  In a traced run a
:class:`Recorder` replaces each public call listed in :data:`LAYERS` with
a wrapper that records a span: name, layer, ``time.monotonic_ns()`` start
and end (one clock for every process on the machine), parent span, and the
request the span belongs to.  Spans are kept in memory and written out when
the run ends.  Nothing under ``src/`` changes.

Shard workers are separate processes.  :meth:`Recorder.trace_workers`
patches ``repro.shard.supervisor.worker_main``, which the supervisor looks
up each time it spawns a worker, with :func:`traced_worker_main`.  The
worker records its own spans keyed by ``(shard, request id)`` and dumps
them, with per-request metric-counter deltas, when it shuts down.  The
router side wraps ``ShardSupervisor.receive(shard, request id, ...)`` under
the same key, which is how :func:`layer_report` hangs a worker's
``WorkerServer.handle`` span under the router span that waited for it.

Self time is a span's duration minus its children's.  A worker span is
clipped to the interval of the router span that waited for it first, so
time a worker spends while the router is busy elsewhere (the second shard
of a scatter-gather answering in parallel) is not counted twice, and the
self times of one request add up to at most its wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.obs import metrics

__all__ = ["LAYERS", "Recorder", "layer_report", "load_dumps", "traced_worker_main"]

#: ``(module:Owner.attribute, layer, mode)`` for every wrapped public call.
#: Modes: ``call`` records the call; ``join`` also keys the span by its
#: ``(shard, request id)`` arguments; ``serve`` opens a worker-side request
#: named by the same key; ``exit`` records only the ``__exit__`` of the
#: context manager the call returns; ``publish`` also counts the rows of
#: the view it returns.  Module-level functions are patched in the module
#: that looks them up, which for recovery is ``repro.durable.recovery``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.shard.router:ShardRouter.apply_batch", "shard.router", "call"),
    ("repro.shard.router:ShardRouter.query", "shard.router", "call"),
    ("repro.shard.supervisor:ShardSupervisor.send", "shard.rpc", "call"),
    ("repro.shard.supervisor:ShardSupervisor.receive", "shard.rpc", "join"),
    ("repro.shard.worker:WorkerServer.handle", "shard.worker", "serve"),
    ("repro.durable.collection:DurableCollection.open", "durable.open", "call"),
    (
        "repro.durable.collection:DurableCollection.apply_batch_addressed",
        "durable.batch",
        "call",
    ),
    ("repro.xmlkit.tree:XmlElement.document_position", "xmlkit.address", "call"),
    ("repro.durable.wal:WriteAheadLog.append", "wal.append", "call"),
    ("repro.durable.wal:WriteAheadLog.sync", "wal.fsync", "call"),
    ("repro.query.live:LiveCollection.apply_batch", "live.batch", "call"),
    ("repro.query.store:LabelStore.insert_row", "store.patch", "call"),
    ("repro.query.store:LabelStore.delete_subtree", "store.patch", "call"),
    ("repro.query.store:LabelStore.refresh_labels", "store.patch", "call"),
    ("repro.order.document:OrderedDocument.insert_child", "order.update", "call"),
    ("repro.order.document:OrderedDocument.insert_before", "order.update", "call"),
    ("repro.order.document:OrderedDocument.insert_after", "order.update", "call"),
    ("repro.order.document:OrderedDocument.delete", "order.update", "call"),
    ("repro.order.document:OrderedDocument.batch", "order.batch_resolve", "exit"),
    ("repro.query.engine:QueryEngine.evaluate", "query.engine", "call"),
    ("repro.query.live:LiveCollection.publish_view", "mvcc.publish", "publish"),
    ("repro.replica.tailer:WalTailer.poll", "replica.tail", "call"),
    ("repro.replica.collection:apply_operation", "replica.replay", "call"),
    ("repro.replica.collection:ReplicaCollection.__init__", "replica.bootstrap", "call"),
    ("repro.replica.collection:restore_collection", "recovery.snapshot", "call"),
    ("repro.durable.recovery:read_snapshot", "recovery.snapshot", "call"),
    ("repro.durable.recovery:restore_collection", "recovery.snapshot", "call"),
    ("repro.durable.recovery:scan_wal", "recovery.wal_scan", "call"),
    ("repro.durable.recovery:apply_operation", "recovery.replay", "call"),
    ("repro.durable.recovery:audit_ordered_document", "recovery.audit", "call"),
)

# A span is a list: [name, layer, start_ns, end_ns, parent index, request, key].
_NAME, _LAYER, _START, _END, _PARENT, _REQUEST, _KEY = range(7)


def _counters() -> Dict[str, int]:
    return metrics.registry().snapshot()["counters"]


class Recorder:
    """Records spans inside requests; one per process."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self.clear()

    def clear(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        self.pid = os.getpid()
        self.spans: List[list] = []
        #: ``[request, start_ns, end_ns]`` for every request begun here.
        self.requests: List[list] = []
        #: Metric-counter deltas per request.
        self.deltas: Dict[Any, Dict[str, int]] = {}
        #: Rows copied into published MVCC views, summed over publishes.
        self.rows_published = 0
        self._open: List[Tuple[int, Callable, str]] = []
        self._request: Any = None
        self._before: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Requests and spans

    def begin_request(self, request: Any) -> None:
        """Start attributing spans (and counter deltas) to ``request``."""
        self._request = request
        self._before = _counters()
        self.requests.append([request, time.monotonic_ns(), 0])

    def end_request(self) -> None:
        """Close the current request."""
        self.requests[-1][2] = time.monotonic_ns()
        after = _counters()
        self.deltas[self._request] = {
            name: value - self._before.get(name, 0)
            for name, value in after.items()
            if value != self._before.get(name, 0)
        }
        self._request = None

    def call(
        self,
        func: Callable,
        name: str,
        layer: str,
        key: Any,
        args: Sequence[Any],
        kwargs: Dict[str, Any],
    ) -> Any:
        """Run ``func`` inside a span."""
        opened = self._open
        if opened and opened[-1][1] is func:
            # A recursive call (a WAL batch record replaying its sub-ops)
            # stays in its caller's layer, whichever name it came through.
            layer = opened[-1][2]
        index = len(self.spans)
        span = [
            name,
            layer,
            time.monotonic_ns(),
            0,
            opened[-1][0] if opened else -1,
            self._request,
            key,
        ]
        self.spans.append(span)
        opened.append((index, func, layer))
        try:
            return func(*args, **kwargs)
        finally:
            span[_END] = time.monotonic_ns()
            opened.pop()

    # ------------------------------------------------------------------
    # Wrapping

    def _wrapper(self, func: Callable, name: str, layer: str, mode: str) -> Callable:
        recorder = self
        if mode == "serve":

            @functools.wraps(func)
            def serve(server: Any, request: Any) -> Any:
                recorder.begin_request((server.config.shard_id, request.id))
                try:
                    return recorder.call(func, name, layer, None, (server, request), {})
                finally:
                    recorder.end_request()

            return serve
        if mode == "exit":

            @functools.wraps(func)
            def managed(*args: Any, **kwargs: Any) -> Any:
                return _TimedExit(recorder, func(*args, **kwargs), name, layer)

            return managed

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if recorder._request is None:
                return func(*args, **kwargs)
            key = (args[1], args[2]) if mode == "join" else None
            result = recorder.call(func, name, layer, key, args, kwargs)
            if mode == "publish":
                recorder.rows_published += result.row_count
            return result

        return wrapper

    def install(self, layers: Sequence[Tuple[str, str, str]] = LAYERS) -> None:
        """Wrap every listed call; :meth:`uninstall` restores them."""
        for target, layer, mode in layers:
            module_name, _, path = target.partition(":")
            owner_name, _, attribute = path.rpartition(".")
            owner: Any = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrapper(raw.__func__, path, layer, mode))
            else:
                wrapped = self._wrapper(raw, path, layer, mode)
            setattr(owner, attribute, wrapped)
            self._patches.append((owner, attribute, raw))

    def trace_workers(self, dump_dir: Path) -> None:
        """Make every shard worker spawned from now on record and dump spans."""
        from repro.shard import supervisor

        original = supervisor.worker_main
        supervisor.worker_main = functools.partial(
            traced_worker_main, original, str(dump_dir), self
        )
        self._patches.append((supervisor, "worker_main", original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def dump(self, path: Path) -> None:
        """Write spans and counter deltas as JSON."""
        payload = {
            "pid": self.pid,
            "spans": self.spans,
            "deltas": [[key, delta] for key, delta in self.deltas.items()],
        }
        partial = Path(f"{path}.tmp")
        partial.write_text(json.dumps(payload))
        os.replace(partial, path)


class _TimedExit:
    """A context manager whose ``__exit__`` runs inside a span."""

    __slots__ = ("_recorder", "_manager", "_name", "_layer")

    def __init__(self, recorder: Recorder, manager: Any, name: str, layer: str):
        self._recorder = recorder
        self._manager = manager
        self._name = name
        self._layer = layer

    def __enter__(self) -> Any:
        return self._manager.__enter__()

    def __exit__(self, *exc_info: Any) -> Any:
        if self._recorder._request is None:
            return self._manager.__exit__(*exc_info)
        return self._recorder.call(
            self._manager.__exit__, self._name, self._layer, None, exc_info, {}
        )


def traced_worker_main(
    worker_main: Callable, dump_dir: str, recorder: Recorder, config: Any, conn: Any
) -> None:
    """Shard-worker entry point for the traced run.

    The supervisor forks its workers wherever ``fork`` exists, so a worker
    inherits the parent's wrappers, bound to its own copy of ``recorder``,
    and only drops the data it copied.  Spans and counter deltas are dumped
    when a ``shutdown`` request closes the worker's collection: that
    happens before the worker acks, and the supervisor kills any worker
    still alive once the ack has arrived.
    """
    from repro.shard.worker import WorkerServer

    recorder.clear()
    path = Path(dump_dir) / f"worker-{config.shard_id:02d}-{os.getpid()}.json"
    close = WorkerServer.close

    def dump_and_close(server: Any) -> None:
        recorder.dump(path)
        close(server)

    WorkerServer.close = dump_and_close  # type: ignore[method-assign]
    metrics.enable()
    worker_main(config, conn)


def load_dumps(dump_dir: Path) -> List[dict]:
    """Every worker dump in ``dump_dir``."""
    return [json.loads(path.read_text()) for path in sorted(Path(dump_dir).glob("worker-*.json"))]


def layer_report(bench: Recorder, workers: Sequence[dict] = ()) -> Dict[str, Any]:
    """Join benchmark-side and worker spans; sum self time per layer.

    Returns ``e2e_ns`` (summed request wall time), ``self_ns`` and
    ``calls`` per layer, ``counters`` (deltas summed over the requests,
    worker requests included when joined), ``receives`` and ``joined``
    (router receive spans, and how many found their worker span), and
    ``handle_ns`` / ``batch_ns`` (worker time serving routed batches, and
    the router's wall time for them).
    """
    flat: List[list] = [list(span) for span in bench.spans]
    windows: Dict[Tuple[int, int], int] = {}
    for index, span in enumerate(flat):
        if span[_KEY] is not None:
            windows[tuple(span[_KEY])] = index

    counters: Dict[str, int] = defaultdict(int)
    for delta in bench.deltas.values():
        for name, value in delta.items():
            counters[name] += value

    joined_keys = set()
    handle_ns = 0
    for dump in workers:
        # A worker records only inside a request, so every span shares its
        # root's key and is kept or dropped together with it.
        placed: Dict[int, int] = {}
        for local, span in enumerate(dump["spans"]):
            key = tuple(span[_REQUEST])
            window = windows.get(key)
            if window is None:
                continue  # a worker request no timed request waited for
            low, high = flat[window][_START], flat[window][_END]
            clipped = list(span)
            if span[_PARENT] == -1:
                clipped[_PARENT] = window
                joined_keys.add(key)
                if _root_name(flat, window) == "ShardRouter.apply_batch":
                    handle_ns += span[_END] - span[_START]
            else:
                clipped[_PARENT] = placed[span[_PARENT]]
            clipped[_START] = min(max(span[_START], low), high)
            clipped[_END] = max(min(span[_END], high), clipped[_START])
            placed[local] = len(flat)
            flat.append(clipped)
        for key, delta in dump["deltas"]:
            if tuple(key) in windows:
                for name, value in delta.items():
                    counters[name] += value

    child_ns = [0] * len(flat)
    for span in flat:
        if span[_PARENT] >= 0:
            child_ns[span[_PARENT]] += span[_END] - span[_START]
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for index, span in enumerate(flat):
        self_ns[span[_LAYER]] += span[_END] - span[_START] - child_ns[index]
        calls[span[_LAYER]] += 1
    batch_ns = sum(
        span[_END] - span[_START]
        for span in bench.spans
        if span[_NAME] == "ShardRouter.apply_batch"
    )
    return {
        "e2e_ns": sum(end - start for _, start, end in bench.requests),
        "self_ns": dict(self_ns),
        "calls": dict(calls),
        "counters": dict(counters),
        "receives": len(windows),
        "joined": len(joined_keys),
        "handle_ns": handle_ns,
        "batch_ns": batch_ns,
        "rows_published": bench.rows_published,
    }


def _root_name(spans: List[list], index: int) -> str:
    while spans[index][_PARENT] >= 0:
        index = spans[index][_PARENT]
    return spans[index][_NAME]
