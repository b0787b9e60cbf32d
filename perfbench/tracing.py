"""Spans around the public calls into each layer, recorded by the benchmark.

Nothing in the program is edited.  :meth:`Tracer.install` replaces each
function named in :data:`WRAPPED` with a wrapper that records one span
per call: name, start, end, parent span, active time and the time its
child spans were active.  Spans stay in memory; :meth:`Tracer.write_jsonl`
writes them out when the run ends, and ``metrics.summarize_spans`` folds
them into per-name totals for the per-layer metrics.

``TransactionManager.invoke`` is a coroutine: under the deterministic
scheduler many of them are suspended at once, so its span is not a wall
interval.  The wrapper drives the coroutine itself and counts only the
time spent inside its steps ("active" time); a nested invoke runs inside
its parent's step, so the parent's self time is its active time minus
its children's.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Optional

perf_ns = time.perf_counter_ns


def _link_label(args: tuple) -> tuple[str, Optional[str]]:
    """``ShardLink.request(message)``: name the span by wire op, key by gtid."""
    message = args[1] if len(args) > 1 else {}
    return str(message.get("op", "?")), message.get("gtid")


#: Every function the traced run wraps: span name, module, attribute, and
#: an optional labeller that refines the span name and keys it (e.g. by
#: 2PC gtid) from the call's arguments.  ``repro.cluster.shard.recover`` is
#: the shard server's own import of ``repro.recovery.manager.recover``.
WRAPPED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("core.invoke", "repro.core.kernel", "TransactionManager.invoke", None),
    ("core.test_conflict", "repro.core.protocol", "SemanticLockingProtocol.test_conflict", None),
    ("txn.history_discard", "repro.txn.history", "HistoryRecorder.discard_nodes", None),
    ("txn.history_discard", "repro.txn.history", "HistoryRecorder.discard_txns", None),
    ("runtime.try_acquire", "repro.runtime.threaded", "ConcurrentLockTable.try_acquire", None),
    ("runtime.release_tree", "repro.runtime.threaded", "ConcurrentLockTable.release_tree", None),
    ("storage.allocate", "repro.storage.manager", "StorageManager.allocate", None),
    ("storage.allocate", "repro.storage.durable", "DurableStorageManager.allocate", None),
    ("storage.wal_append", "repro.storage.durable", "DurableWriteAheadLog.append", None),
    ("storage.wal_sync", "repro.storage.durable", "DurableWriteAheadLog.sync", None),
    ("recovery.recover", "repro.cluster.shard", "recover", None),
    ("server.admit", "repro.server.admission", "AdmissionController.admit", None),
    ("server.admit", "repro.server.admission", "AdmissionController.acquire_next", None),
    ("cluster.route", "repro.cluster.router", "ClusterRouter.route_request", None),
    ("cluster.link", "repro.cluster.router", "ShardLink.request", _link_label),
    ("cluster.decide", "repro.cluster.router", "CoordinatorLog.decide", None),
)


class _Frame:
    """A span while it is on a thread's stack."""

    __slots__ = ("span_id", "name", "child_ns")

    def __init__(self, span_id: int, name: str) -> None:
        self.span_id = span_id
        self.name = name
        self.child_ns = 0


class Tracer:
    """Records spans from the wrappers it installs; one per process."""

    def __init__(self) -> None:
        # (span id, name, parent id, key, start ns, end ns, active ns, self ns)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, table=WRAPPED) -> "Tracer":
        for name, module_name, attribute, labeller in table:
            module = importlib.import_module(module_name)
            owner: Any = module
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if getattr(original, "__wrapped_by_perfbench__", False):
                continue
            if name == "core.invoke":
                wrapper = self._wrap_async(name, original)
            else:
                wrapper = self._wrap_sync(name, original, labeller)
            wrapper.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
            setattr(owner, leaf, wrapper)
            self._installed.append((owner, leaf, original))
        return self

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap_sync(self, name: str, fn: Callable, labeller: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A same-name call nested in its own span (a subclass method
            # calling super()) belongs to the outer span.
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span_name, key = name, None
            if labeller is not None:
                suffix, key = labeller(args)
                span_name = f"{name}.{suffix}"
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids), name)
            stack.append(frame)
            start = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_ns()
                stack.pop()
                active = end - start
                if parent is not None:
                    parent.child_ns += active
                tracer.spans.append(
                    (
                        frame.span_id,
                        span_name,
                        parent.span_id if parent is not None else None,
                        key,
                        start,
                        end,
                        active,
                        active - frame.child_ns,
                    )
                )

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return _TimedCoroutine(tracer, name, fn(*args, **kwargs))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        fields = ("id", "name", "parent", "key", "start_ns", "end_ns", "active_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


class _TimedCoroutine:
    """Drives a coroutine step by step, timing each step as span activity."""

    __slots__ = ("tracer", "name", "coro")

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self.tracer = tracer
        self.name = name
        self.coro = coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        span_id = next(tracer._ids)
        parent_id = None
        first_start = None
        active = child = 0
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if first_start is None and parent is not None:
                parent_id = parent.span_id
            frame = _Frame(span_id, self.name)
            stack.append(frame)
            start = perf_ns()
            if first_start is None:
                first_start = start
            finished = True
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
                finished = False
            except StopIteration as stop:
                return stop.value
            finally:
                end = perf_ns()
                stack.pop()
                step = end - start
                active += step
                child += frame.child_ns
                if parent is not None:
                    parent.child_ns += step
                if finished:
                    tracer.spans.append(
                        (span_id, self.name, parent_id, None, first_start, end, active,
                         active - child)
                    )
            try:
                value = yield yielded
                error = None
            except BaseException as exc:  # thrown in by the scheduler: pass it on
                value, error = None, exc


def read_jsonl(path: str) -> list[tuple]:
    """Spans written by :meth:`Tracer.write_jsonl`, as span tuples."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            spans.append(
                (
                    span["id"], span["name"], span["parent"], span["key"],
                    span["start_ns"], span["end_ns"], span["active_ns"], span["self_ns"],
                )
            )
    return spans


def write_json_atomic(path: str, payload: dict) -> None:
    """Write *payload* so a reader polling for *path* never sees it half written."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
