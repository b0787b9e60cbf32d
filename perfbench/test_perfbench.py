"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from model import OrderEntryModel, observe  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_state():
    from repro import build_order_entry_database

    built = build_order_entry_database(
        n_items=2, orders_per_item=2, price=10, quantity_on_hand=100
    )
    model = OrderEntryModel(2, 2, price=10, quantity_on_hand=100)
    return built, model


def test_model_matches_untouched_database():
    built, model = small_state()
    observed = observe(built, range(2))
    observed[0]["total_payment"] = 0
    assert model.compare(observed) == []


def test_model_check_catches_a_missing_payment():
    built, model = small_state()
    model.pay(1, 2)  # acknowledged, but never applied to the database
    problems = model.compare(observe(built, range(2)))
    assert len(problems) == 1 and "order 2" in problems[0]


def test_model_check_catches_a_wrong_total_payment():
    built, model = small_state()
    observed = observe(built, range(2))
    observed[1]["total_payment"] = 10  # nothing is paid
    assert any("total payment" in p for p in model.compare(observed))


def test_model_check_catches_an_extra_order():
    from repro import run_transactions
    from repro.orderentry.transactions import make_new_order_txn

    built, model = small_state()
    kernel = run_transactions(built.db, {"T0": make_new_order_txn(built.item(0), 7, 3)})
    assert kernel.handles["T0"].committed
    problems = model.compare(observe(built, range(2)))
    assert any("unexpected order 3" in p for p in problems)
    assert any("next order number" in p for p in problems)
    model.place(0, 7, 3, kernel.handles["T0"].result)
    assert model.compare(observe(built, range(2))) == []


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(metrics.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(metrics.PER_LAYER)
    names = [n for n, __, __ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    values = metrics.layer_metrics(10, {}, {}, {"names": {}, "groups": {}}, {})
    assert set(values) == {n for n, __, __ in metrics.PER_LAYER}


def test_attempted_and_failed_add_up(monkeypatch):
    import time

    seeds = []

    def fake_round(workload, seed, trace):
        time.sleep(0.02)
        seeds.append(seed)
        attempted, ok = 5, 4 if seed % 2 else 5
        return {
            "attempted": attempted, "ok": ok, "failed": attempted - ok,
            "timed_s": 1.0, "latencies_ms": [1.0] * ok, "cpu_s": 0.5, "mem_kb": 10,
            "setup_s": 0.1, "problems": [], "layers": None,
        }

    monkeypatch.setattr(run, "run_round", fake_round)
    outcome = run.run_workload("oe-kernel-hot", seed=3, seconds=0.2, trace=False)
    assert len(seeds) >= 2 and seeds == list(range(3000, 3000 + len(seeds)))
    assert outcome["attempted"] == 5 * len(seeds)
    assert outcome["failed"] == sum(seed % 2 for seed in seeds)
    assert outcome["correct"] is True
    assert set(outcome["metrics"]) == {n for n, __, __ in metrics.END_TO_END}


def test_exact_mix_is_exact():
    import random

    kinds = workloads.exact_mix(random.Random(1), workloads.CLUSTER["mix"], 800)
    assert kinds.count("place-2") == 80 and len(kinds) == 800
    with pytest.raises(ValueError):
        workloads.exact_mix(random.Random(1), (("a", 50), ("b", 40)), 10)


def test_tracer_records_parent_and_self_time():
    import types

    module = types.ModuleType("perfbench_fake")

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    module.Layer = Layer
    sys.modules["perfbench_fake"] = module
    try:
        tracer = Tracer().install(
            (
                ("fake.outer", "perfbench_fake", "Layer.outer", None),
                ("fake.inner", "perfbench_fake", "Layer.inner", None),
            )
        )
        assert Layer().outer() == 2
        tracer.uninstall()
    finally:
        del sys.modules["perfbench_fake"]
    inner, outer = tracer.spans  # inner ends first
    assert inner[1] == "fake.inner" and outer[1] == "fake.outer"
    assert inner[2] == outer[0]  # parent span id
    assert outer[7] == outer[6] - inner[6]  # self = active - child
    summary = metrics.summarize_spans(tracer.spans)
    assert summary["names"]["fake.outer"][0] == 1


def test_kernel_round_passes_its_own_checks():
    outcome = workloads.run_kernel(seed=7, tracer=None)
    assert outcome["problems"] == []
    assert outcome["attempted"] == workloads.KERNEL["txns"] == outcome["ok"]
    assert len(outcome["latencies_ms"]) == outcome["ok"]


def test_kernel_round_survives_a_doubly_aborted_pair():
    # In this round two T2s pay the same two orders in opposite order.
    # Both die in each deadlock between them; resubmitted without backoff,
    # they did not commit in MAX_ATTEMPTS tries.
    outcome = workloads.run_kernel(seed=821482047001, tracer=None)
    assert outcome["problems"] == []
    assert outcome["ok"] == workloads.KERNEL["txns"]


def test_closed_loop_reports_client_cpu():
    def send(c, request):
        end = time.thread_time() + 0.01  # burn client CPU
        while time.thread_time() < end:
            pass
        return request * 2

    answers, client_cpu = workloads.closed_loop(2, list(range(6)), send)
    assert sorted(r for per_client in answers for __, r, __ in per_client) == [0, 2, 4, 6, 8, 10]
    assert client_cpu >= 0.05


def test_default_run_length_is_the_benchmarks():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert run._run_seconds() == json.load(fh)["run_seconds"]
