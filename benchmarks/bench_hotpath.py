#!/usr/bin/env python
"""Hot-path benchmark and determinism guard.

Runs one lossy multi-host aggregation (loss + duplication + reordering +
retransmission churn — the workload that made the seed's O(W) per-packet
scans visible) three times in one process:

1. optimized fast path (the code as checked in),
2. optimized again — same seed must reproduce the identical schedule,
3. seed baseline via :func:`repro.transport.reference.reference_mode`,
   which swaps the pre-PR implementations back in.

The ``sharded`` section runs first (before the other legs heat the
machine — its absolute rate is what check_regression.py gates): one
16-rack spine–leaf scenario executed by the serial oracle and by the
rack-sharded conservative PDES backend, best-of-2 timed.  Both
fingerprints must be byte-identical on every run, and the leg's
``packets_per_sec`` counts fabric packet-hops (every per-link
``packets_sent``) per second of sharded wall time.

It measures simulator events/sec and transmitted packets/sec, then enforces
the determinism contract: all three runs must agree on the final
``sim.now``, ``events_processed``, retransmission count, per-host packet
counts, receive-window accept/duplicate totals and the aggregated values
themselves (which must also equal the exact :func:`reference_aggregate`
answer).  Any mismatch exits non-zero; an optimization that changes a
single decision fails the build, however much faster it is.

Results land in ``BENCH_hotpath.json`` (repo root by default).  The file
keeps a ``history`` list — one speedup-trajectory entry per recorded run,
appended, never overwritten — so BENCH_* files track the perf trajectory
across PRs.  ``--smoke`` shrinks the workload for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke] [-o FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import AskConfig, AskService, FaultModel  # noqa: E402
from repro.core.results import reference_aggregate  # noqa: E402
from repro.transport.reference import reference_mode  # noqa: E402

#: The benchmark scenario.  Fixed so numbers are comparable across runs and
#: machines; change it only together with the checked-in baseline JSON.
FULL = dict(
    hosts=4, tuples_per_sender=20_000, window=256, num_keys=512, seed=7,
    sharded_racks=16, sharded_shards=4, sharded_tuples=8_000,
)
SMOKE = dict(
    hosts=3, tuples_per_sender=2_000, window=64, num_keys=128, seed=7,
    sharded_racks=4, sharded_shards=2, sharded_tuples=400,
)


def build_streams(params: dict) -> dict[str, list[tuple[bytes, int]]]:
    rng = random.Random(params["seed"])
    keys = [("k%03d" % i).encode() for i in range(params["num_keys"])]
    return {
        f"h{i}": [
            (rng.choice(keys), rng.randint(1, 99))
            for _ in range(params["tuples_per_sender"])
        ]
        for i in range(params["hosts"] - 1)
    }


def run_scenario(params: dict) -> dict:
    """One full aggregation; returns timing plus the decision fingerprint."""
    config = AskConfig.small(
        window_size=params["window"], retransmit_timeout_us=50.0
    )
    fault = FaultModel(
        loss_rate=0.05,
        duplicate_rate=0.03,
        reorder_rate=0.10,
        max_extra_delay_ns=200_000,
        seed=params["seed"],
    )
    service = AskService(config, hosts=params["hosts"], fault=fault)
    streams = build_streams(params)
    receiver = f"h{params['hosts'] - 1}"

    wall_start = time.perf_counter()
    result = service.aggregate(streams, receiver=receiver)
    wall = time.perf_counter() - wall_start

    expected = reference_aggregate(streams, config.value_mask)
    if dict(result.items()) != expected:
        raise AssertionError("aggregated values diverge from the exact answer")

    packets = sum(d.sender_packets() for d in service.daemons.values())
    accepted, duplicates = service.daemons[receiver].receiver_packets()
    values_digest = hashlib.sha256(
        repr(sorted(result.items())).encode()
    ).hexdigest()
    events = service.sim.events_processed
    return {
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
        "packets_per_sec": round(packets / wall, 1),
        "fingerprint": {
            "events_processed": events,
            "final_now_ns": service.sim.now,
            "retransmissions": result.stats.retransmissions,
            "data_packets_sent": result.stats.data_packets_sent,
            "packets_received": result.stats.packets_received,
            "duplicates_dropped": result.stats.duplicate_packets_dropped,
            "sender_packets_total": packets,
            "recv_window_accepted": accepted,
            "recv_window_duplicates": duplicates,
            "values_sha256": values_digest,
        },
    }


def _sharded_case(params: dict):
    """The sharded full-scenario leg: a fig13-scale spine–leaf fabric
    (``sharded_racks`` single-rack pods), cut into ``sharded_shards``
    rack shards with spines spread round-robin so every shard's
    aggregation traffic transits spines owned by *other* shards.  One
    task per shard fans all of the shard's racks into its last rack, so
    the load is balanced and every up/core/down link class crosses the
    cut."""
    from repro.runtime.sharded import ShardedScenario, ShardedTask, make_plan

    racks = params["sharded_racks"]
    shards = params["sharded_shards"]
    rng = random.Random(params["seed"])
    keys = [("k%03d" % i).encode() for i in range(params["num_keys"])]
    pods = {
        f"p{i}": {f"r{i}": (f"h{2 * i}", f"h{2 * i + 1}")} for i in range(racks)
    }

    def stream():
        return tuple(
            (rng.choice(keys), rng.randint(1, 99))
            for _ in range(params["sharded_tuples"])
        )

    per_shard = racks // shards
    tasks = []
    for k in range(shards):
        shard_racks = range(k * per_shard, (k + 1) * per_shard)
        senders = {f"h{2 * r}": stream() for r in shard_racks}
        receiver = f"h{2 * max(shard_racks) + 1}"
        tasks.append(
            ShardedTask(streams=senders, receiver=receiver, region_size=8)
        )
    scenario = ShardedScenario(
        config=AskConfig.small(
            window_size=params["window"], retransmit_timeout_us=400.0
        ),
        pods=pods,
        placement="leaf",
        tasks=tuple(tasks),
        fault={
            "loss_rate": 0.02,
            "duplicate_rate": 0.01,
            "reorder_rate": 0.05,
            "max_extra_delay_ns": 50_000,
            "seed": params["seed"],
        },
        core_latency_ns=50_000,
    )
    return scenario, make_plan(scenario, shards, spread_spines=True)


def run_sharded_scenario(params: dict) -> dict:
    """Serial and rack-sharded runs of the same giant scenario.

    The sharded run is the throughput number; the serial run is the
    oracle — both fingerprints must be byte-identical, and every task's
    values digest must equal the exact host-side reference.

    Execution mode is chosen the way ``repro sim-sharded`` chooses it:
    one forked worker per shard when the runner exposes more than one
    CPU, the in-process round-robin scheduler otherwise (forking four
    interpreters onto one core only adds contention).  The recorded
    ``cpus``/``execution`` fields let ``check_regression.py`` arm the
    parallel-speedup gate only where parallel hardware exists.

    ``packets_per_sec`` counts *fabric packet-hops*: every packet
    traversal of every link (host uplinks/downlinks, rack-to-spine,
    spine core mesh) in the 16-rack fabric, summed from the per-link
    ``packets_sent`` counters the fingerprint already carries.  That is
    the multi-rack analogue of the single-switch legs' packets/s — the
    event-loop work the simulator performs per second — and is the
    number the sharded cut is supposed to multiply."""
    from repro.perf.parallel import default_workers
    from repro.runtime.sharded import run_serial, run_sharded

    scenario, plan = _sharded_case(params)
    cpus = default_workers()
    use_processes = cpus > 1

    wall_start = time.perf_counter()
    serial_fp = run_serial(scenario, plan)
    serial_wall = time.perf_counter() - wall_start

    # Best-of-2 for the timed number: wall-clock on shared/burst-credit
    # runners swings far more between runs than the code's own cost does,
    # and the minimum is the least-contended estimate (pyperf's rule).
    # Identity is checked on EVERY run — a nondeterministic schedule
    # cannot hide behind the faster timing.
    sharded_walls = []
    identical = True
    for _ in range(2):
        wall_start = time.perf_counter()
        sharded_fp, stats = run_sharded(scenario, plan, processes=use_processes)
        sharded_walls.append(time.perf_counter() - wall_start)
        identical = identical and serial_fp == sharded_fp
    sharded_wall = min(sharded_walls)

    for index, task in enumerate(scenario.tasks):
        expected = reference_aggregate(
            {h: list(s) for h, s in task.streams.items()},
            scenario.config.value_mask,
        )
        expected_digest = hashlib.sha256(
            repr(sorted(expected.items())).encode()
        ).hexdigest()
        if serial_fp["tasks"][index]["values_sha256"] != expected_digest:
            raise AssertionError(
                f"sharded-leg task {index} diverges from the exact answer"
            )

    host_packets = sum(host[0] for host in serial_fp["hosts"].values())
    fabric_hops = sum(counters[0] for counters in serial_fp["links"].values())
    events = serial_fp["events_processed"]
    return {
        "racks": params["sharded_racks"],
        "shards": stats.shards,
        "windows": stats.windows,
        "cross_shard_messages": stats.messages,
        "lookahead_ns": stats.lookahead_ns,
        "cpus": cpus,
        "execution": "fork" if use_processes else "inproc",
        "fabric_links": len(serial_fp["links"]),
        "fabric_packet_hops": fabric_hops,
        "host_packets": host_packets,
        "serial_wall_seconds": round(serial_wall, 4),
        "sharded_wall_seconds": round(sharded_wall, 4),
        "sharded_walls_seconds": [round(w, 4) for w in sharded_walls],
        "serial_packets_per_sec": round(fabric_hops / serial_wall, 1),
        "packets_per_sec": round(fabric_hops / sharded_wall, 1),
        "host_packets_per_sec": round(host_packets / sharded_wall, 1),
        "events_per_sec": round(events / sharded_wall, 1),
        "sharded_vs_serial": round(serial_wall / sharded_wall, 3),
        "identical": identical,
    }


def load_history(path: Path) -> list[dict]:
    """Prior speedup-trajectory entries recorded in ``path``.

    Each written report carries its own entry as ``history[-1]``, so the
    next run simply extends the list.  A report from before the history
    field existed contributes one synthesized entry from its headline
    numbers; anything unreadable contributes nothing.
    """
    try:
        previous = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(previous, dict) or previous.get("benchmark") != "hotpath":
        return []
    history = previous.get("history")
    if isinstance(history, list):
        return list(history)
    try:
        return [
            {
                "mode": previous["mode"],
                "python": previous["python"],
                "packets_per_sec": previous["optimized"]["packets_per_sec"],
                "reference_packets_per_sec": previous["reference"][
                    "packets_per_sec"
                ],
                "speedup_packets_per_sec": previous["speedup"]["packets_per_sec"],
                "speedup_events_per_sec": previous["speedup"]["events_per_sec"],
            }
        ]
    except KeyError:
        return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small workload for CI"
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpath.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if not args.output.parent.is_dir():
        parser.error(f"output directory does not exist: {args.output.parent}")
    params = SMOKE if args.smoke else FULL

    print(f"scenario: {params}")
    # The sharded leg runs first: its absolute packets/s is gated by
    # check_regression.py, and on burst-credit/thermally-throttled
    # runners a leg measured after a minute of sustained load reads up
    # to ~30% slower than the same code from idle.  The other legs are
    # gated on ratios, which cancel machine state.
    sharded = run_sharded_scenario(params)
    print(
        f"sharded   : {sharded['sharded_wall_seconds']:8.3f}s  "
        f"{sharded['events_per_sec']:>10,.0f} ev/s  "
        f"{sharded['packets_per_sec']:>9,.0f} pkt/s  "
        f"({sharded['shards']} shards, {sharded['execution']} on "
        f"{sharded['cpus']} cpu, {sharded['sharded_vs_serial']}x vs "
        f"serial {sharded['serial_wall_seconds']:.3f}s)"
    )
    optimized = run_scenario(params)
    print(
        f"optimized : {optimized['wall_seconds']:8.3f}s  "
        f"{optimized['events_per_sec']:>10,.0f} ev/s  "
        f"{optimized['packets_per_sec']:>9,.0f} pkt/s"
    )
    repeat = run_scenario(params)
    print(
        f"repeat    : {repeat['wall_seconds']:8.3f}s  "
        f"{repeat['events_per_sec']:>10,.0f} ev/s  "
        f"{repeat['packets_per_sec']:>9,.0f} pkt/s"
    )
    with reference_mode():
        reference = run_scenario(params)
    print(
        f"reference : {reference['wall_seconds']:8.3f}s  "
        f"{reference['events_per_sec']:>10,.0f} ev/s  "
        f"{reference['packets_per_sec']:>9,.0f} pkt/s"
    )

    repeat_identical = optimized["fingerprint"] == repeat["fingerprint"]
    reference_identical = optimized["fingerprint"] == reference["fingerprint"]
    speedup_events = round(
        optimized["events_per_sec"] / reference["events_per_sec"], 3
    )
    speedup_packets = round(
        optimized["packets_per_sec"] / reference["packets_per_sec"], 3
    )

    report = {
        "benchmark": "hotpath",
        "mode": "smoke" if args.smoke else "full",
        "scenario": params,
        "python": platform.python_version(),
        "optimized": optimized,
        "optimized_repeat": repeat,
        "reference": reference,
        "sharded": sharded,
        "speedup": {
            "events_per_sec": speedup_events,
            "packets_per_sec": speedup_packets,
        },
        "determinism": {
            "repeat_identical": repeat_identical,
            "reference_identical": reference_identical,
            "sharded_identical": sharded["identical"],
        },
    }
    history = load_history(args.output)
    report["history"] = history + [
        {
            "mode": report["mode"],
            "python": report["python"],
            "packets_per_sec": optimized["packets_per_sec"],
            "reference_packets_per_sec": reference["packets_per_sec"],
            "speedup_packets_per_sec": speedup_packets,
            "speedup_events_per_sec": speedup_events,
            "sharded_packets_per_sec": sharded["packets_per_sec"],
            "sharded_vs_serial": sharded["sharded_vs_serial"],
            "sharded_cpus": sharded["cpus"],
            "sharded_execution": sharded["execution"],
        }
    ]
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"speedup: {speedup_packets}x pkt/s, {speedup_events}x ev/s")
    print(f"report: {args.output}")

    if not repeat_identical:
        print("FAIL: same seed, different schedule across repeated runs",
              file=sys.stderr)
        return 2
    if not reference_identical:
        print("FAIL: optimized fast path diverges from the seed reference",
              file=sys.stderr)
        return 2
    if not sharded["identical"]:
        print("FAIL: sharded simulator diverges from the serial oracle",
              file=sys.stderr)
        return 2
    print("determinism guard: OK (3 runs + sharded leg, identical fingerprints)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
