#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of ASK.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flat_lossy --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time from fresh
interpreters, then rounds of the workload for ``--seconds`` seconds with
tracing off.  ``--trace 1`` runs pairs of one untraced and one traced
round of the same inputs for ``--seconds`` seconds and reports the median
of each per-layer metric over the pairs (see layers.py).
Both modes check every aggregate against the exact reference and, on the
simulated workloads, that every round of one seed has the same
fingerprint.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, and the provenance
of the run.  A full report goes to ``perfbench/out/``.  The exit code is
0 only when every check passed.

``python3 perfbench/run.py --write-manifest`` regenerates BENCHMARK.json
from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: (name, unit, better, bound) of every end-to-end metric in BENCHMARK.json.
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("tuples_per_s", "1/s", "higher", 0.25),
    ("task_completion_ms_p50", "ms", "lower", 0.16),
    ("switch_agg_ratio", "ratio", "higher", 0.15),
    ("wire_packets_per_tuple", "pkt/tuple", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
#: Printed with the others, but not in BENCHMARK.json: it is 0 on a
#: correct run, and the JSON line carries it as ``failed``/``attempted``.
FAILED_TASK_RATIO = ("failed_task_ratio", "ratio")

RUN_SECONDS = 50
#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 5
#: Rounds every timed run makes at least, so determinism is checked.
MIN_ROUNDS = 2


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process (and the set-up probes it spawns) to the
    highest-numbered CPU it may use; return (CPUs available, CPU pinned).

    The workloads are single-threaded.  Left to the scheduler, a run lands
    on whichever CPU happens to be free, and on a VM the CPUs can differ
    in speed (CPU 0 usually also takes the interrupts; on a 2-vCPU Xeon
    VM its median round was about 5% slower), which mixes two speeds
    into the spread between runs.  The last CPU is the one least likely
    to serve interrupts."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def provenance(workload: str, seed: int, cpus: int, pinned: int) -> dict[str, Any]:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    notes = []
    if workload == "udp_loopback":
        notes.append(
            "traffic crossed the 127.0.0.1 loopback interface, not a real link"
        )
        notes.append(
            "runtime.asyncio_fabric.rcvbuf_drops is a delta of the host-wide "
            "/proc/net/snmp Udp RcvbufErrors counter; other processes in the "
            "same network namespace can inflate it"
        )
    else:
        notes.append("simulated links and clock; no real network was used")
    return {
        "workload": workload,
        "seed": seed,
        "cpus": cpus,
        "pinned_cpu": pinned,
        "cpu_model": cpu_model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "notes": notes,
    }


# ----------------------------------------------------------------------
# set-up probes (each one a fresh interpreter)
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int) -> int:
    """Child side: import the program, build the deployment, and print the
    monotonic clock at the moment the first submit would happen."""
    from perfbench.workloads import WORKLOADS

    service = WORKLOADS[workload](seed).build()
    print(time.monotonic(), flush=True)
    service.close()
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first submit."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        child = subprocess.run(
            [sys.executable, __file__, "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(child.stdout.split()[-1]) - spawned)
    return samples


# ----------------------------------------------------------------------
# checks shared by both modes
# ----------------------------------------------------------------------
def check_rounds(w: Any, rounds: list) -> list[str]:
    """Mark tasks whose round breaks determinism as failed; return every
    failure message."""
    from perfbench.workloads import FLAT_LOSSY_PIN

    reference = rounds[0]
    for i, r in enumerate(rounds):
        problem = None
        if w.simulated and r.fingerprint != reference.fingerprint:
            problem = f"round {i + 1} fingerprint differs from round 1"
        elif not w.simulated and [t.values_sha256 for t in r.tasks] != [
            t.values_sha256 for t in reference.tasks
        ]:
            problem = f"round {i + 1} values differ from round 1"
        if w.name == "flat_lossy" and w.seed == FLAT_LOSSY_PIN["seed"]:
            fp = r.fingerprint or {}
            if fp.get("values_sha256") != [FLAT_LOSSY_PIN["values_sha256"]] or fp.get(
                "events_processed"
            ) != FLAT_LOSSY_PIN["events_processed"]:
                problem = f"round {i + 1} misses the seed-7 fingerprint pin"
        if problem:
            for t in r.tasks:
                t.error = t.error or problem
    return [t.error for r in rounds for t in r.tasks if t.error]


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def more_rounds(started: float, done: int, seconds: float, minimum: int) -> bool:
    """Whether to start another round: only if it would end nearer to the
    deadline than stopping now, so a run lasts about ``seconds``."""
    elapsed = time.monotonic() - started
    return done < minimum or elapsed + elapsed / done / 2 < seconds


def timed_run(w: Any, seconds: float) -> tuple[dict[str, float], list, dict]:
    setup = measure_setup(w.name, w.seed)
    w.load_inputs()
    rounds = []
    service = w.build() if w.persistent else None
    started = time.monotonic()
    try:
        while True:
            r = w.run_round(service if w.persistent else w.build())
            rounds.append(r)
            if w.persistent and any(t.error for t in r.tasks):
                break  # a failed task can leave a live deployment wedged
            if not more_rounds(started, len(rounds), seconds, minimum=MIN_ROUNDS):
                break
    finally:
        if service is not None:
            service.close()
    tuples = sum(t.input_tuples for r in rounds for t in r.tasks)
    completions = [
        t.completion_ns / 1e6 for r in rounds for t in r.tasks if t.completion_ns is not None
    ]
    metrics = {
        "tuples_per_s": tuples / sum(r.wall_s for r in rounds),
        "task_completion_ms_p50": statistics.median(completions) if completions else 0.0,
        "switch_agg_ratio": sum(t.tuples_at_switch for r in rounds for t in r.tasks) / tuples,
        "wire_packets_per_tuple": sum(r.host_packets for r in rounds) / tuples,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "setup_samples_s": setup,
        "rounds": [
            {"wall_s": r.wall_s, "host_packets": r.host_packets,
             "completion_ms": [t.completion_ns and t.completion_ns / 1e6 for t in r.tasks]}
            for r in rounds
        ],
        "fingerprint": rounds[0].fingerprint,
    }
    return metrics, rounds, detail


def traced_pair(w: Any) -> tuple[list, dict[str, float], dict, list[str]]:
    """One untraced and one traced round of the same inputs, each on a
    fresh deployment; return both rounds and the traced one's per-layer
    metrics, span totals and self-check problems."""
    from perfbench import layers
    from perfbench.tracer import Tracer

    service = w.build()
    try:
        untraced = w.run_round(service)
    finally:
        service.close()

    tracer = Tracer()
    layers.install(tracer)
    try:
        service = w.build()
        try:
            if not w.simulated:
                layers.watch_selector(tracer, service.fabric.loop)
            rcvbuf_before = layers.read_rcvbuf_errors()
            traced = w.run_round(service, tracer=tracer)
            rcvbuf_after = layers.read_rcvbuf_errors()
            totals = tracer.totals()
            counts = layers.counters(service, w.simulated)
        finally:
            service.close()
    finally:
        tracer.restore()

    rcvbuf_drops = 0
    if not w.simulated and rcvbuf_before is not None and rcvbuf_after is not None:
        rcvbuf_drops = rcvbuf_after - rcvbuf_before
    metrics = layers.per_layer_metrics(
        totals, counts, rcvbuf_drops, traced.wall_s / untraced.wall_s
    )
    problems = layers.self_check(w.name, totals, counts, metrics)
    if w.simulated and traced.fingerprint != untraced.fingerprint:
        problems.append("traced fingerprint differs from the untraced one")
    detail = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": {
            name: {
                "calls": totals.calls[name],
                "total_s": totals.total_ns[name] / 1e9,
                "self_s": totals.self_ns[name] / 1e9,
            }
            for name in totals.calls
        },
        "counters": counts,
        "metrics": metrics,
        "self_check": problems,
    }
    return [untraced, traced], metrics, detail, problems


def traced_run(w: Any, seconds: float) -> tuple[dict[str, float], list, dict, list[str]]:
    """Traced pairs for about ``seconds``; every per-layer metric is the
    median over the pairs, and every pair must pass the self-check."""
    w.load_inputs()
    rounds: list = []
    per_pair: list[dict[str, float]] = []
    details = []
    problems: list[str] = []
    started = time.monotonic()
    while True:
        pair, metrics, detail, pair_problems = traced_pair(w)
        rounds += pair
        per_pair.append(metrics)
        details.append(detail)
        problems += [f"pair {len(per_pair)}: {p}" for p in pair_problems]
        if not more_rounds(started, len(per_pair), seconds, minimum=1):
            break
    medians = {name: statistics.median(m[name] for m in per_pair) for name in per_pair[0]}
    return medians, rounds, {"pairs": details, "fingerprint": rounds[0].fingerprint}, problems


# ----------------------------------------------------------------------
def manifest() -> dict[str, Any]:
    from perfbench.layers import PER_LAYER, gated
    from perfbench.workloads import GATED, WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].why} for name in GATED],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
            if gated(name)
        ],
    }


def units() -> dict[str, str]:
    from perfbench.layers import PER_LAYER

    out = {name: unit for name, unit, _, _ in END_TO_END}
    out.update({name: unit for name, unit, _ in PER_LAYER})
    out[FAILED_TASK_RATIO[0]] = FAILED_TASK_RATIO[1]
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="flat_lossy")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.layers import gated
    from perfbench.workloads import WORKLOADS

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)

    cpus, pinned = pin_to_one_cpu()
    w = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, rounds, detail, problems = traced_run(w, args.seconds)
        failures = check_rounds(w, rounds)
    else:
        metrics, rounds, detail = timed_run(w, args.seconds)
        failures = check_rounds(w, rounds)
        problems = []
    attempted = sum(len(r.tasks) for r in rounds)
    failed = sum(1 for r in rounds for t in r.tasks if t.error)
    correct = failed == 0 and not problems

    info = provenance(args.workload, args.seed, cpus, pinned)
    unit_of = units()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key in ("cpus", "pinned_cpu", "cpu_model", "python", "platform"):
        print(f"  # {key}: {info[key]}")
    for note in info["notes"]:
        print(f"  # note: {note}")
    shown = dict(metrics)
    if not args.trace:
        shown[FAILED_TASK_RATIO[0]] = failed / attempted
    for name, value in shown.items():
        print(f"  {name:<40} {value:>16.6g} {unit_of[name]}")
    print(f"  tasks: {attempted} attempted, {failed} failed over {len(rounds)} round(s)")
    for message in sorted(set(failures)) + problems:
        print(f"  FAIL: {message}")

    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        "provenance": info,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in shown.items()},
        "failures": sorted(set(failures)) + problems,
        "detail": detail,
    }, indent=1) + "\n")
    # The JSON line carries exactly the metrics BENCHMARK.json lists.
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items() if gated(k)
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
