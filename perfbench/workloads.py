"""The three workloads, one fixed-size round at a time.

A round builds a fresh system, runs a fixed number of operations made
from its seed, checks the program's outputs against ``model.py``, and
returns what it measured.  Work is fixed by operation count, never by
time, because per-operation cost grows with data size; a run repeats
rounds (each in a fresh process, see ``run.py``) and reports medians.

Every round drives the program through its public API only.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Optional

import metrics
from model import OrderEntryModel, observe
from tracing import Tracer, read_jsonl

perf_ns = time.perf_counter_ns
HERE = os.path.dirname(os.path.abspath(__file__))

PRICE = 10
QUANTITY_ON_HAND = 1_000_000

# ----------------------------------------------------------------------
# Workload shapes.  Mixes are exact per round: the given share of the
# round's operations, shuffled by the seed.
# ----------------------------------------------------------------------
#: oe-kernel-hot: the paper's order-entry mix on a few hot items.
KERNEL = {
    "items": 4,
    "orders_per_item": 8,
    "txns": 600,
    "mpl": 6,
    "mix": (("T1", 20), ("T2", 20), ("T3", 10), ("T4", 10), ("T5", 15), ("T0", 25)),
}
#: server-readmostly: zero-think closed loop over about a thousand items.
SERVER = {
    "items": 1000,
    "orders_per_item": 4,
    "ops": 1200,
    "clients": 2,
    "mix": (
        ("stock-check", 35), ("total-payment", 35),
        ("place", 8), ("pay", 8), ("ship", 7), ("restock", 7),
    ),
}
#: cluster-durable-2pc: write-heavy, a fifth cross-shard, fsync per commit.
CLUSTER = {
    "shards": 2,
    "items": 64,
    "orders_per_item": 4,
    "ops": 800,
    "clients": 2,
    "mix": (
        ("place", 25), ("pay", 20), ("ship", 15), ("restock", 10), ("stock-check", 10),
        ("place-2", 10), ("total-payment-2", 10),
    ),
    # One kernel worker thread per shard, not the default 4: with more,
    # the unlocked BufferPool lets two steps evict the same frame, and
    # 0-2 of a round's 800 requests fail at random (README, "Known faults").
    "shard_config": {"n_threads": 1, "max_inflight": 4, "default_deadline": 30.0},
    # Shard servers build their partition with the library's default
    # stock level; the model starts from the same.
    "quantity_on_hand": 1000,
}

#: A deadlock victim is resubmitted, as a client would; more attempts
#: than this for one transaction fails the round's check.
MAX_ATTEMPTS = 20
#: Before resubmission *k*, an aborted transaction's client yields a
#: seeded random number of scheduler turns, below ``BACKOFF_TURNS * 2**k``
#: with *k* capped at 6 (randomised exponential backoff).  Resubmitted at
#: once, two victims of one cycle meet again in lockstep: see "Known
#: faults" in the README.
BACKOFF_TURNS = 16


def exact_mix(rng: random.Random, mix, total: int) -> list[str]:
    kinds = [kind for kind, share in mix for __ in range(total * share // 100)]
    if len(kinds) != total:
        raise ValueError(f"mix shares of {mix} do not split {total} operations exactly")
    rng.shuffle(kinds)
    return kinds


# ----------------------------------------------------------------------
# Process measurements (Linux /proc, read-only)
# ----------------------------------------------------------------------
def peak_rss_kb(pid: Any = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not found")


def cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def counts(snapshot: dict) -> tuple[dict[str, float], dict[str, tuple[float, int]]]:
    """Counters and histogram (sum, count) of a ``Snapshot.to_dict()``."""
    hists = {n: (h["sum"], h["count"]) for n, h in snapshot.get("histograms", {}).items()}
    return dict(snapshot.get("counters", {})), hists


def delta(after: tuple, before: tuple) -> tuple[dict, dict]:
    counters = {n: v - before[0].get(n, 0) for n, v in after[0].items()}
    hists = {
        n: (s - before[1].get(n, (0.0, 0))[0], c - before[1].get(n, (0.0, 0))[1])
        for n, (s, c) in after[1].items()
    }
    return counters, hists


def add_counts(parts: list[tuple]) -> tuple[dict, dict]:
    counters: dict[str, float] = {}
    hists: dict[str, tuple[float, int]] = {}
    for part_counters, part_hists in parts:
        for n, v in part_counters.items():
            counters[n] = counters.get(n, 0) + v
        for n, (s, c) in part_hists.items():
            old = hists.get(n, (0.0, 0))
            hists[n] = (old[0] + s, old[1] + c)
    return counters, hists


class Phase:
    """Wall, CPU and peak-RSS of this process over the timed phase."""

    def __enter__(self) -> "Phase":
        self.rss0 = peak_rss_kb()
        self.cpu0 = time.process_time()
        self.start_ns = perf_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end_ns = perf_ns()
        self.cpu_s = time.process_time() - self.cpu0
        self.mem_kb = peak_rss_kb() - self.rss0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def window(self) -> tuple[int, int]:
        return (self.start_ns, self.end_ns)


def result(
    phase: Phase,
    attempted: int,
    ok: int,
    latencies_ns: list[int],
    setup_s: float,
    problems: list[str],
    layers: Optional[dict[str, float]],
    cpu_s: Optional[float] = None,
    mem_kb: Optional[float] = None,
) -> dict[str, Any]:
    return {
        "attempted": attempted,
        "ok": ok,
        "failed": attempted - ok,
        "timed_s": phase.seconds,
        "latencies_ms": [v / 1e6 for v in latencies_ns],
        "cpu_s": phase.cpu_s if cpu_s is None else cpu_s,
        "mem_kb": phase.mem_kb if mem_kb is None else mem_kb,
        "setup_s": setup_s,
        "problems": problems,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# oe-kernel-hot
# ----------------------------------------------------------------------
def kernel_inputs(seed: int) -> list[tuple]:
    """``(kind, ...)`` transaction specs; order numbers are 1-based."""
    rng = random.Random(seed)
    n_items, n_orders = KERNEL["items"], KERNEL["orders_per_item"]
    specs: list[tuple] = []
    for n, kind in enumerate(exact_mix(rng, KERNEL["mix"], KERNEL["txns"])):
        if kind == "T0":
            specs.append((kind, rng.randrange(n_items), 1000 + n, rng.randint(1, 5)))
        elif kind == "T5":
            specs.append((kind, rng.randrange(n_items)))
        else:
            a, b = rng.sample(range(n_items), 2)
            specs.append((kind, a, 1 + rng.randrange(n_orders), b, 1 + rng.randrange(n_orders)))
    return specs


def kernel_program(built, spec: tuple):
    from repro import make_new_order_txn, make_t1, make_t2, make_t3, make_t4, make_t5

    kind = spec[0]
    if kind == "T0":
        return make_new_order_txn(built.item(spec[1]), spec[2], spec[3])
    if kind == "T5":
        return make_t5(built.item(spec[1]))
    __, a, oa, b, ob = spec
    if kind in ("T1", "T2"):
        factory = make_t1 if kind == "T1" else make_t2
        return factory(built.item(a), oa, built.item(b), ob)
    factory = make_t3 if kind == "T3" else make_t4
    return factory(built.order(a, oa - 1), built.order(b, ob - 1))


def apply_kernel(model: OrderEntryModel, spec: tuple, value: Any) -> None:
    kind = spec[0]
    if kind == "T0":
        model.place(spec[1], spec[2], spec[3], value)
    elif kind in ("T1", "T2"):
        step = model.ship if kind == "T1" else model.pay
        step(spec[1], spec[2])
        step(spec[3], spec[4])


def run_kernel(seed: int, tracer: Optional[Tracer]) -> dict[str, Any]:
    from repro import Scheduler, TransactionManager, build_order_entry_database, run_transactions
    from repro import make_t5
    from repro.runtime import Pause

    t0 = time.perf_counter()
    built = build_order_entry_database(
        n_items=KERNEL["items"],
        orders_per_item=KERNEL["orders_per_item"],
        price=PRICE,
        quantity_on_hand=QUANTITY_ON_HAND,
    )
    kernel = TransactionManager(built.db, scheduler=Scheduler(policy="random", seed=seed))
    setup_s = time.perf_counter() - t0

    specs = kernel_inputs(seed)
    queue = deque(enumerate(specs))
    model = OrderEntryModel(
        KERNEL["items"], KERNEL["orders_per_item"], PRICE, QUANTITY_ON_HAND
    )
    latencies: list[int] = []
    problems: list[str] = []
    committed = [0]
    backoff = random.Random(f"backoff-{seed}")

    async def client() -> None:
        # Closed loop: the next transaction starts when this one commits.
        while queue:
            n, spec = queue.popleft()
            program = kernel_program(built, spec)
            start = perf_ns()
            for attempt in range(MAX_ATTEMPTS):
                turns = backoff.randrange(BACKOFF_TURNS << min(attempt, 6)) if attempt else 0
                for __ in range(turns):
                    await Pause()
                name = f"{spec[0]}-{n}" + (f"+r{attempt}" if attempt else "")
                handle = kernel.spawn(name, program)
                await handle.root.completion_signal
                if handle.committed:
                    latencies.append(perf_ns() - start)
                    committed[0] += 1
                    apply_kernel(model, spec, handle.result)
                    break
            else:
                problems.append(f"{spec[0]}-{n} did not commit in {MAX_ATTEMPTS} attempts")

    for i in range(KERNEL["mpl"]):
        kernel.scheduler.spawn(f"client-{i}", client())
    before = counts(kernel.obs.snapshot().to_dict())
    with Phase() as phase:
        kernel.run()
    after = counts(kernel.obs.snapshot().to_dict())

    if kernel.locks.lock_count or kernel.locks.pending_count:
        problems.append(
            f"lock table not empty: {kernel.locks.lock_count} held, "
            f"{kernel.locks.pending_count} pending"
        )
    observed = observe(built, range(KERNEL["items"]))
    final = run_transactions(
        built.db, {f"final-T5-{i}": make_t5(built.item(i)) for i in range(KERNEL["items"])}
    )
    for i in range(KERNEL["items"]):
        observed[i]["total_payment"] = final.handles[f"final-T5-{i}"].result
    problems += model.compare(observed)

    layers = None
    if tracer is not None:
        counters, hists = delta(after, before)
        spans = metrics.summarize_spans(tracer.spans, phase.window)
        layers = metrics.layer_metrics(committed[0], counters, hists, spans, {})
    return result(phase, len(specs), committed[0], latencies, setup_s, problems, layers)


# ----------------------------------------------------------------------
# server-readmostly
# ----------------------------------------------------------------------
def server_inputs(seed: int) -> list[Any]:
    from repro.server.requests import Request

    rng = random.Random(seed)
    n_items, n_orders = SERVER["items"], SERVER["orders_per_item"]
    requests = []
    for n, op in enumerate(exact_mix(rng, SERVER["mix"], SERVER["ops"])):
        item = rng.randrange(n_items)
        if op == "place":
            requests.append(
                Request(op=op, item=item, customer_no=1000 + n, quantity=rng.randint(1, 5))
            )
        elif op in ("pay", "ship"):
            requests.append(Request(op=op, item=item, order_no=1 + rng.randrange(n_orders)))
        elif op == "restock":
            requests.append(Request(op=op, item=item, quantity=rng.randint(1, 9)))
        else:
            requests.append(Request(op=op, item=item))
    return requests


def apply_response(model: OrderEntryModel, request: Any, result_value: Any) -> None:
    """Apply one ``ok`` single-item server request to the model."""
    op = request.op
    if op == "place":
        model.place(request.item, request.customer_no, request.quantity, result_value)
    elif op == "pay":
        model.pay(request.item, request.order_no)
    elif op == "ship":
        model.ship(request.item, request.order_no)
    elif op == "restock":
        model.restock(request.item, request.quantity)


def closed_loop(
    clients: int, requests: list, send: Callable[[int, Any], Any]
) -> tuple[list[list[tuple[Any, Any, int]]], float]:
    """Run ``clients`` threads; client *c* sends ``requests[c::clients]``
    one after another.  Returns per client ``(request, response, ns)``,
    and the CPU seconds the client threads used."""
    answers: list[list[tuple[Any, Any, int]]] = [[] for __ in range(clients)]
    cpu_s = [0.0] * clients
    errors: list[BaseException] = []

    def client(c: int) -> None:
        cpu0 = time.thread_time()
        try:
            for request in requests[c::clients]:
                start = perf_ns()
                response = send(c, request)
                answers[c].append((request, response, perf_ns() - start))
        except BaseException as exc:  # reported after join
            errors.append(exc)
        cpu_s[c] = time.thread_time() - cpu0

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return answers, sum(cpu_s)


def run_server(seed: int, tracer: Optional[Tracer]) -> dict[str, Any]:
    from repro import build_order_entry_database
    from repro.server.core import TransactionServer
    from repro.server.requests import Request

    t0 = time.perf_counter()
    built = build_order_entry_database(
        n_items=SERVER["items"],
        orders_per_item=SERVER["orders_per_item"],
        price=PRICE,
        quantity_on_hand=QUANTITY_ON_HAND,
    )
    # A generous deadline: the workload measures service cost, so no
    # request should be shed or deadline-aborted on a slow machine.
    server = TransactionServer(built, default_deadline=30.0).start()
    setup_s = time.perf_counter() - t0
    problems: list[str] = []
    try:
        requests = server_inputs(seed)
        before = counts(server.obs.snapshot().to_dict())
        with Phase() as phase:
            # ``submit`` does the server's admission work on the calling
            # thread, so the client threads' CPU stays in ``cpu_ms_per_op``.
            answers, __ = closed_loop(
                SERVER["clients"], requests, lambda c, request: server.submit(request)
            )
        after = counts(server.obs.snapshot().to_dict())

        model = OrderEntryModel(
            SERVER["items"], SERVER["orders_per_item"], PRICE, QUANTITY_ON_HAND
        )
        flat = [a for per_client in answers for a in per_client]
        ok = 0
        for request, response, __ in flat:
            if response.ok:
                ok += 1
                apply_response(model, request, response.result)
        paid_items = sorted({r.item for r, resp, __ in flat if r.op == "pay" and resp.ok})
        observed = observe(built, range(SERVER["items"]))
        for item in paid_items:
            answer = server.submit(Request(op="total-payment", item=item))
            observed[item]["total_payment"] = answer.result if answer.ok else answer.status
        problems += model.compare(observed)
    finally:
        report = server.shutdown()
    if not report.clean:
        problems.append(f"drain not clean: {report.to_dict()}")

    layers = None
    if tracer is not None:
        counters, hists = delta(after, before)
        spans = metrics.summarize_spans(tracer.spans, phase.window)
        served = [resp for __, resp, __ in flat if resp.ok]
        extra = {
            "server.queue_wait_ms": statistics.fmean(r.queue_wait for r in served) * 1e3,
            "server.service_ms": statistics.fmean(r.total_time - r.queue_wait for r in served)
            * 1e3,
        }
        layers = metrics.layer_metrics(ok, counters, hists, spans, extra)
    latencies = [ns for __, __, ns in flat]
    return result(phase, len(requests), ok, latencies, setup_s, problems, layers)


# ----------------------------------------------------------------------
# cluster-durable-2pc
# ----------------------------------------------------------------------
def cluster_inputs(seed: int, shard_of_item: Callable[[int], int]) -> list[dict[str, Any]]:
    """Wire request dicts; ``place-2``/``total-payment-2`` name two items
    on different shards, so the router runs them under 2PC."""
    rng = random.Random(seed)
    n_items, n_orders = CLUSTER["items"], CLUSTER["orders_per_item"]
    out = []
    for n, kind in enumerate(exact_mix(rng, CLUSTER["mix"], CLUSTER["ops"])):
        item = rng.randrange(n_items)
        message: dict[str, Any] = {"op": kind, "item": item, "request_id": f"r{n}"}
        if kind.endswith("-2"):
            home = shard_of_item(item)
            other = rng.choice([i for i in range(n_items) if shard_of_item(i) != home])
            if kind == "place-2":
                message.update(
                    op="place",
                    customer_no=1000 + n,
                    lines=[[item, rng.randint(1, 5)], [other, rng.randint(1, 5)]],
                )
            else:
                message.update(op="total-payment", items=[item, other])
        elif kind == "place":
            message.update(customer_no=1000 + n, quantity=rng.randint(1, 5))
        elif kind in ("pay", "ship"):
            message.update(order_no=1 + rng.randrange(n_orders))
        elif kind == "restock":
            message.update(quantity=rng.randint(1, 9))
        out.append(message)
    return out


def apply_wire(model: OrderEntryModel, message: dict[str, Any], answer: dict[str, Any]) -> None:
    """Apply one ``ok`` wire request to the model."""
    from repro.server.requests import Request

    if message["op"] == "place" and "lines" in message:
        order_nos = answer.get("result")
        if not isinstance(order_nos, list) or len(order_nos) != len(message["lines"]):
            model.problems.append(f"{message['request_id']}: place answered {order_nos!r}")
            return
        for (item, quantity), order_no in zip(message["lines"], order_nos):
            model.place(item, message["customer_no"], quantity, order_no)
        return
    apply_response(model, Request.from_dict(message), answer.get("result"))


def _bench_shard_process():
    """``ShardProcess`` that boots through the benchmark's shard launcher."""
    from repro.cluster.files import READY_FILENAME
    from repro.cluster.process import ShardProcess

    class BenchShardProcess(ShardProcess):
        def start(self) -> "BenchShardProcess":
            os.makedirs(self.data_dir, exist_ok=True)
            ready = os.path.join(self.data_dir, READY_FILENAME)
            if os.path.exists(ready):
                os.remove(ready)
            with open(self.config_path, "w", encoding="utf-8") as fh:
                json.dump(self.config, fh, indent=2)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "shard_launcher.py"),
                 "--config", self.config_path],
                env=env,
            )
            return self

    return BenchShardProcess


def shard_dump(shard, tag: str, timeout: float = 20.0) -> dict[str, Any]:
    """Ask a live shard for a dump (SIGUSR1) and read it."""
    path = os.path.join(shard.data_dir, f"perfbench-{tag}.json")
    if tag.startswith("usr1"):
        shard.proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"shard {shard.shard_id} wrote no {tag} dump")
        time.sleep(0.005)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


#: How long a shard may take to exit cleanly after SIGTERM.
STOP_TIMEOUT_S = 60.0


def stop_shards(shards) -> None:
    """SIGTERM every shard and wait for its clean exit (and exit dump).

    A shard still running after ``STOP_TIMEOUT_S`` writes every thread's
    stack to stderr (SIGUSR2, see ``shard_launcher.py``), is killed, and
    fails the round.
    """
    for shard in shards:
        shard.proc.send_signal(signal.SIGTERM)
    for shard in shards:
        try:
            shard.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            shard.proc.send_signal(signal.SIGUSR2)
            time.sleep(1.0)
            shard.proc.kill()
            shard.proc.wait()
            raise RuntimeError(
                f"shard {shard.shard_id} still running {STOP_TIMEOUT_S:g} s after SIGTERM"
            ) from None


def durable_bytes(base: str) -> int:
    """Bytes of every shard's WAL and page files, plus the coordinator log."""
    from repro.cluster.files import COORDINATOR_LOG_FILENAME, STORE_DIRNAME, WAL_FILENAME

    total = 0
    for root, __, files in os.walk(base):
        in_store = os.path.basename(root) == STORE_DIRNAME
        for name in files:
            if in_store or name in (WAL_FILENAME, COORDINATOR_LOG_FILENAME):
                total += os.path.getsize(os.path.join(root, name))
    return total


def run_cluster(seed: int, tracer: Optional[Tracer], workdir: str) -> dict[str, Any]:
    import repro.cluster.process as process_module
    from repro.cluster import LocalCluster
    from repro.cluster.files import COORDINATOR_LOG_FILENAME
    from repro.server.wire import TCPClient

    base = os.path.join(workdir, "cluster")
    shutil.rmtree(base, ignore_errors=True)
    shard_config = dict(CLUSTER["shard_config"])
    shard_config.update(
        n_items=CLUSTER["items"],
        orders_per_item=CLUSTER["orders_per_item"],
        perfbench_trace=1 if tracer is not None else 0,
    )
    process_module.ShardProcess = _bench_shard_process()
    cluster = LocalCluster(CLUSTER["shards"], base, shard_config=shard_config)
    problems: list[str] = []
    t0 = time.perf_counter()
    try:
        cluster.start()
        setup_s = time.perf_counter() - t0
        router = cluster.router
        messages = cluster_inputs(seed, router.shard_of_item)
        host, port = cluster.wire.address
        connections = [TCPClient(host, port) for __ in range(CLUSTER["clients"])]
        pids = [shard.proc.pid for shard in cluster.shards]
        shard_before = [counts(shard_dump(s, "usr1-1")["snapshot"]) for s in cluster.shards]
        router_before = counts(cluster.obs.snapshot().to_dict())
        shard_cpu0 = sum(cpu_seconds(pid) for pid in pids)
        shard_rss0 = [peak_rss_kb(pid) for pid in pids]
        with Phase() as phase:
            answers, client_cpu = closed_loop(
                CLUSTER["clients"], messages, lambda c, m: connections[c].request(m)
            )
        shard_cpu = sum(cpu_seconds(pid) for pid in pids) - shard_cpu0
        shard_mem = sum(peak_rss_kb(pid) - r0 for pid, r0 in zip(pids, shard_rss0))
        router_after = counts(cluster.obs.snapshot().to_dict())
        dumps = [shard_dump(s, "usr1-2") for s in cluster.shards]
        for shard, dump in zip(cluster.shards, dumps):
            if dump["locks"] != {"held": 0, "pending": 0, "inflight": 0}:
                problems.append(f"shard {shard.shard_id} after the load: {dump['locks']}")
        disk = durable_bytes(base)
        coordlog = os.path.getsize(os.path.join(base, COORDINATOR_LOG_FILENAME))
        roundtrips = []
        if tracer is not None:
            for __ in range(200):
                start = perf_ns()
                connections[0].request({"op": "ping"})
                roundtrips.append(perf_ns() - start)
        for connection in connections:
            connection.close()

        # Durability: SIGKILL every shard, restart each from its files.
        for shard in cluster.shards:
            shard.kill()
        boot_ns = []
        restart_start = perf_ns()
        for shard in cluster.shards:
            start = perf_ns()
            cluster.restart_shard(shard.shard_id)
            boot_ns.append(perf_ns() - start)
        restart_end = perf_ns()

        model = OrderEntryModel(
            CLUSTER["items"], CLUSTER["orders_per_item"], PRICE, CLUSTER["quantity_on_hand"]
        )
        flat = [a for per_client in answers for a in per_client]
        ok = 0
        for message, answer, __ in flat:
            if answer.get("status") == "ok":
                ok += 1
                apply_wire(model, message, answer)
        live: dict[int, tuple[Any, Any]] = {}
        with TCPClient(*cluster.wire.address) as reader:
            for item in range(CLUSTER["items"]):
                qoh = reader.request({"op": "stock-check", "item": item})
                total = reader.request({"op": "total-payment", "item": item})
                live[item] = (qoh.get("result"), total.get("result"))
        owners = {s: [i for i in range(CLUSTER["items"]) if router.shard_of_item(i) == s]
                  for s in range(CLUSTER["shards"])}
        stop_shards(cluster.shards)
    finally:
        cluster.stop()
        for shard in cluster.shards:
            if shard.proc is not None and shard.proc.poll() is None:
                shard.proc.kill()
                shard.proc.wait()

    # Each restarted shard's exit dump holds the state its boot-time
    # recovery rebuilt from its own files; the audit reads the items it owns.
    observed: dict[int, dict[str, Any]] = {}
    exit_dumps = []
    for shard in cluster.shards:
        exit_dumps.append(shard_dump(shard, "exit"))
        drain = exit_dumps[-1]["drain"]
        if not drain or not drain["clean"]:
            problems.append(f"shard {shard.shard_id} drain after restart: {drain}")
        state = exit_dumps[-1]["state"]
        for item in owners[shard.shard_id]:
            seen = state[str(item)]
            seen["orders"] = {int(no): tuple(order) for no, order in seen["orders"].items()}
            observed[item] = seen
    for item, (qoh, total) in live.items():
        if qoh != observed[item]["qoh"]:
            problems.append(f"item {item}: live qoh {qoh} != recovered {observed[item]['qoh']}")
        observed[item]["total_payment"] = total
    for message, answer, __ in flat:
        if answer.get("status") == "ok" and message["op"] == "place" and "lines" in message:
            for (item, __), order_no in zip(message["lines"], answer["result"]):
                if order_no not in observed[item]["orders"]:
                    problems.append(f"{message['request_id']}: order {order_no} of item "
                                    f"{item} lost on shard {router.shard_of_item(item)}")
    problems += model.compare(observed)

    layers = None
    if tracer is not None:
        shard_after = [counts(d["snapshot"]) for d in dumps]
        counters, hists = add_counts(
            [delta(router_after, router_before)]
            + [delta(a, b) for a, b in zip(shard_after, shard_before)]
        )
        span_parts = [metrics.summarize_spans(tracer.spans, phase.window)]
        for shard in cluster.shards:
            span_parts.append(metrics.summarize_spans(
                read_jsonl(os.path.join(shard.data_dir, "perfbench-usr1-2-spans.jsonl")),
                phase.window,
            ))
            span_parts.append(metrics.summarize_spans(
                read_jsonl(os.path.join(shard.data_dir, "perfbench-exit-spans.jsonl")),
                (restart_start, restart_end),
            ))
        wire_bytes = sum(
            len(_json_line(m)) + len(_json_line(a)) for m, a, __ in flat
        )
        extra = {
            "storage.disk_kb_per_op": disk / 1024 / ok,
            "recovery.records": sum(d["recovered_records"] for d in exit_dumps),
            "recovery.boot_ms": statistics.fmean(boot_ns) / 1e6,
            "recovery.restart_s": (restart_end - restart_start) / 1e9,
            "wire.bytes_per_op": wire_bytes / len(flat),
            "wire.roundtrip_ms": statistics.median(roundtrips) / 1e6,
            "cluster.coordlog_kb": coordlog / 1024,
        }
        layers = metrics.layer_metrics(
            ok, counters, hists, metrics.merge_summaries(span_parts), extra
        )
    latencies = [ns for __, __, ns in flat]
    return result(
        phase, len(messages), ok, latencies, setup_s, problems, layers,
        # The router runs in this process; the client threads' own work
        # (JSON and socket I/O on the client side) is not the system's.
        cpu_s=phase.cpu_s - client_cpu + shard_cpu, mem_kb=phase.mem_kb + shard_mem,
    )


def _json_line(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


WORKLOADS: dict[str, Callable[..., dict[str, Any]]] = {
    "oe-kernel-hot": lambda seed, tracer, workdir: run_kernel(seed, tracer),
    "server-readmostly": lambda seed, tracer, workdir: run_server(seed, tracer),
    "cluster-durable-2pc": run_cluster,
}
