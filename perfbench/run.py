"""The repository benchmark: one command, three workloads.

Run one workload (prints one JSON line last)::

    python3 perfbench/run.py --workload oe-kernel-hot --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans from the benchmark's own wrappers, see ``tracing.py``).

Repeat mode runs every workload N times with seeds 1..N, plus M traced
runs, and prints each metric's median and quartiles, the attempted and
failed counts, and the tracing overhead::

    python3 perfbench/run.py --repeat 10 --traced 3 --seconds 40

A run repeats fixed-size rounds until ``--seconds`` would be exceeded
(always at least one).  Each round runs in a fresh child process
(``--round``) so peak-RSS growth and interpreter state are per round.
The metrics are medians over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("oe-kernel-hot", "server-readmostly", "cluster-durable-2pc")
ROUND_TIMEOUT_S = 150.0


def _run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def _require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


# ----------------------------------------------------------------------
# One round, in this process
# ----------------------------------------------------------------------
def round_main(workload: str, seed: int, trace: bool) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    # The whole round, shard processes included (they inherit it), runs
    # on one CPU; see "One CPU per round" in the README.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = Tracer().install() if trace else None
    workdir = os.path.join(WORKDIR, f"{workload}-round")
    os.makedirs(workdir, exist_ok=True)
    outcome = WORKLOADS[workload](seed, tracer, workdir)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(workdir, "spans.jsonl"))
    print(json.dumps(outcome))
    return 0


def run_round(workload: str, seed: int, trace: bool) -> dict[str, Any]:
    """One round in a child process (its own session, so a timeout also
    takes down any shard processes it started)."""
    command = [sys.executable, os.path.abspath(__file__), "--round", workload,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
        proc.kill()
        proc.communicate()
    finally:
        _reap_group(proc.pid)
    if out is None:
        raise RuntimeError(f"{workload} round (seed {seed}) timed out")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} round (seed {seed}) exited {proc.returncode}:\n{err[-20000:]}"
        )
    return json.loads(lines[-1])


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """SIGKILL whatever is left of a round's process group (a shard that
    outlived a failed round) and wait until the group is empty."""
    deadline = time.monotonic() + timeout
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        return
    raise RuntimeError(f"processes of round group {pgid} did not exit")


# ----------------------------------------------------------------------
# One run: rounds for --seconds, aggregated
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import metrics

    rounds = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        rounds.append(run_round(workload, seed * 1000 + len(rounds), trace))
        took = time.monotonic() - round_start
        if time.monotonic() - start + took > seconds:
            break
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems[:20]:
        sys.stderr.write(f"perfbench: {workload}: {problem}\n")
    values = metrics.per_layer(rounds) if trace else metrics.end_to_end(rounds)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics.as_result(values),
    }


# ----------------------------------------------------------------------
# Repeat mode
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat_main(workloads: list[str], runs: int, traced: int, seconds: float) -> int:
    summary: dict[str, Any] = {}
    for workload in workloads:
        for trace, count in ((False, runs), (True, traced)):
            if not count:
                continue
            results = [run_workload(workload, seed, seconds, trace) for seed in range(1, count + 1)]
            kind = "per-layer" if trace else "end-to-end"
            print(f"\n{workload} — {kind}, {count} runs of {seconds:g} s, seeds 1..{count}")
            print(f"  attempted {[r['attempted'] for r in results]}")
            print(f"  failed    {[r['failed'] for r in results]}")
            print(f"  correct   {all(r['correct'] for r in results)}")
            print(f"  {'metric':36} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}  unit")
            table = {}
            for name, first in results[0]["metrics"].items():
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
                spread = (q3 - q1) / med if med else 0.0
                table[name] = {"q1": q1, "median": med, "q3": q3, "spread": spread}
                print(f"  {name:36} {q1:12.4f} {med:12.4f} {q3:12.4f} {spread:8.3f}  "
                      f"{first['unit']}")
            summary.setdefault(workload, {})[kind] = table
        both = summary.get(workload, {})
        if "end-to-end" in both and "per-layer" in both:
            plain = both["end-to-end"]["throughput"]["median"]
            traced_tp = both["per-layer"]["trace.throughput"]["median"]
            print(f"  tracing overhead: throughput {plain:.1f}/s untraced, {traced_tp:.1f}/s "
                  f"traced, {(plain - traced_tp) / plain:.1%} lower")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_run_seconds(),
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N", help="runs per workload")
    parser.add_argument("--traced", type=int, default=0, metavar="M",
                        help="traced runs per workload in repeat mode")
    parser.add_argument("--round", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    if args.round:
        return round_main(args.round, args.seed, bool(args.trace))
    if args.repeat:
        return repeat_main(args.workload or list(WORKLOAD_NAMES), args.repeat, args.traced,
                           args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("name exactly one --workload (or use --repeat)")
    outcome = run_workload(args.workload[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
