"""Shard process entry point used by the cluster workload.

Runs the program's own shard server (``repro.cluster.shard.run_shard``)
unchanged, with these additions that belong to the benchmark:

* with ``"perfbench_trace": 1`` in the shard config, the span wrappers
  of ``tracing.WRAPPED`` are installed before the server boots;
* the page store is adopted with a metrics registry, so the buffer
  pool's counters can be read;
* SIGTERM runs the shard's own SIGTERM handler on a thread of the
  launcher instead of on the main thread (see below);
* on SIGUSR1 the process writes a dump next to its data: the server's
  and buffer pool's counters and histograms, its lock-table and
  in-flight counts, and (when traced) its spans — the benchmark reads
  one before the load and one just before SIGKILL;
* on SIGUSR2 it writes every thread's stack to stderr (``faulthandler``),
  so a shard that does not stop can be asked where it is;
* on a clean exit (SIGTERM) it writes a final dump that adds the
  server's drain report, the number of WAL records its boot-time
  recovery replayed, and the state of every item as ``model.observe``
  reads it (after a restart: the state recovered from the shard's files).

Usage (as ``ShardProcess`` would start it)::

    python3 perfbench/shard_launcher.py --config <data_dir>/shard-config.json
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from model import observe  # noqa: E402
from tracing import Tracer, write_json_atomic  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(prog="shard_launcher")
    parser.add_argument("--config", required=True)
    args = parser.parse_args()
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)

    tracer = Tracer().install() if config.get("perfbench_trace") else None
    import repro.cluster.shard as shard_module
    from repro.obs.registry import MetricsRegistry
    from repro.server.core import TransactionServer
    from repro.storage.durable import DurableStorageManager

    seen: dict = {"server": None, "drain": None, "recovered_records": 0, "dumps": 0}
    start, shutdown, recover = (
        TransactionServer.start,
        TransactionServer.shutdown,
        shard_module.recover,
    )
    # The shard server adopts its page store without a metrics registry;
    # passing one makes the buffer pool's hit/miss/writeback counters
    # readable (the pool counts them either way).
    adopt, pool_metrics = DurableStorageManager.adopt, MetricsRegistry(thread_safe=True)

    def adopt_with_metrics(*a, **kw):
        kw.setdefault("metrics", pool_metrics)
        return adopt(*a, **kw)

    def remember_start(self, *a, **kw):
        seen["server"] = self
        return start(self, *a, **kw)

    def remember_shutdown(self, *a, **kw):
        report = shutdown(self, *a, **kw)
        seen["drain"] = report.to_dict()
        return report

    def remember_recover(db, wal, *a, **kw):
        seen["recovered_records"] = len(wal)
        return recover(db, wal, *a, **kw)

    TransactionServer.start = remember_start
    TransactionServer.shutdown = remember_shutdown
    shard_module.recover = remember_recover
    DurableStorageManager.adopt = adopt_with_metrics

    def dump(tag: str) -> None:
        server = seen["server"]
        payload = {
            "drain": seen["drain"],
            "recovered_records": seen["recovered_records"],
            "snapshot": None,
            "locks": None,
        }
        if server is not None:
            payload["snapshot"] = server.obs.snapshot().merged(pool_metrics.snapshot()).to_dict()
            locks = server.tk.kernel.locks
            payload["locks"] = {
                "held": locks.lock_count,
                "pending": locks.pending_count,
                "inflight": server.inflight_count(),
            }
            if tag == "exit":
                payload["state"] = observe(server.built, range(config["n_items"]))
        base = os.path.join(config["data_dir"], f"perfbench-{tag}")
        if tracer is not None:
            tracer.write_jsonl(base + "-spans.jsonl")
        write_json_atomic(base + ".json", payload)

    # SIGUSR1 and SIGTERM are taken by sigwait on a thread of their own,
    # never by a handler on the main thread.  Such a handler runs between
    # two bytecodes, maybe inside a lock the code it calls needs, and then
    # waits for itself: the shard's own SIGTERM handler calls ``stop.set()``
    # on the Event its main loop waits on, and once in a few hundred stops
    # it hung there (see "Known faults" in the README).  Every thread the
    # shard starts inherits the blocked mask.
    signals = {signal.SIGUSR1, signal.SIGTERM}
    signal.pthread_sigmask(signal.SIG_BLOCK, signals)
    faulthandler.register(signal.SIGUSR2, all_threads=True)

    def take_signals() -> None:
        while True:
            if signal.sigwait(signals) == signal.SIGUSR1:
                seen["dumps"] += 1
                dump(f"usr1-{seen['dumps']}")
                continue
            handler = signal.getsignal(signal.SIGTERM)
            if not callable(handler):  # before the shard installed its own
                os._exit(128 + signal.SIGTERM)
            handler(signal.SIGTERM, None)

    threading.Thread(target=take_signals, name="perfbench-signals", daemon=True).start()
    code = shard_module.run_shard(config)
    dump("exit")
    return code


if __name__ == "__main__":
    sys.exit(main())
