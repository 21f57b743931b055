"""The benchmark's workloads: seeded inputs, deployments and timed rounds.

Every workload is a closed loop with one client: a round submits its
tasks, drives the deployment until they settle, then checks each result
against :func:`repro.reference_aggregate`.  Inputs come only from the
seed, and a run repeats the same round, so the simulated workloads give
the same fingerprint on every round of one seed.

``flat_lossy``
    One rack of 4 hosts, 3 senders x 20,000 uniform tuples over 512 keys,
    5% loss, 3% duplication, 10% reorder.  It is the hot-path scenario of
    ``benchmarks/bench_hotpath.py`` byte for byte (same stream generator,
    same fault seed), so at seed 7 it reproduces that file's pinned
    fingerprint.  Loads loss recovery: fault draws, sender retransmission
    and receiver dedup.
``tree_zipf``
    A 2-pod x 2-rack x 2-host spine-leaf tree with "both" placement and
    reliable links.  4 concurrent tasks, each with 3 senders spread over
    racks and pods, each sender 8,000 Zipf(1.1) tuples over 4,096 keys
    into 32-aggregator regions.  Loads the switch layer (leaf relay plus
    spine combine, swaps, concurrent regions) and multi-rack routing; no
    retransmissions.
``udp_loopback``
    The asyncio backend on 127.0.0.1 with the CLI demo config (2 ms RTO),
    no injected faults, one long-lived deployment serving one task of
    2 senders x 5,000 uniform tuples per round.  The only workload where
    the wire codec and the asyncio fabric do work, and the only one on a
    real clock.  Traffic crosses the loopback interface, not a real link.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro import (
    AskConfig,
    AskService,
    FaultModel,
    TreeAskService,
    reference_aggregate,
)
from repro.core.errors import TaskStateError
from repro.core.results import values_sha256

from perfbench.tracer import Tracer

Stream = list[tuple[bytes, int]]

#: The seed-7 fingerprint of the hot-path scenario, recorded by every
#: BENCH_hotpath.json since the compiled fast path landed.
FLAT_LOSSY_PIN = {
    "seed": 7,
    "values_sha256": "1e27cd1c58c63b9b172f41f5f7154b98024fef066920a5deaa98e3d771899992",
    "events_processed": 139_642,
}

#: Wall-clock bound for one udp_loopback task; a task still running
#: after it counts as failed.
UDP_TASK_TIMEOUT_S = 60.0


@dataclass
class TaskOutcome:
    input_tuples: int
    completion_ns: Optional[int]
    tuples_at_switch: int
    values_sha256: Optional[str]
    #: None when the task completed and its values equal the reference.
    error: Optional[str]


@dataclass
class Round:
    wall_s: float
    tasks: list[TaskOutcome]
    #: Packets the hosts' sender channels put on the wire (data, FIN and
    #: retransmissions), counted over this round only.
    host_packets: int
    #: Simulated workloads only: everything that must repeat per seed.
    fingerprint: Optional[dict] = None


def uniform_streams(
    rng: random.Random, senders: list[str], tuples: int, num_keys: int
) -> dict[str, Stream]:
    keys = [("k%03d" % i).encode() for i in range(num_keys)]
    return {
        host: [(rng.choice(keys), rng.randint(1, 99)) for _ in range(tuples)]
        for host in senders
    }


def zipf_stream(
    rng: random.Random, tuples: int, num_keys: int, exponent: float
) -> Stream:
    # 4-byte keys stay short keys (one slot each) like the other workloads.
    keys = [("z%03x" % i).encode() for i in range(num_keys)]
    weights = list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(num_keys)))
    chosen = rng.choices(keys, cum_weights=weights, k=tuples)
    return [(key, rng.randint(1, 99)) for key in chosen]


class Workload:
    """One workload: its inputs for a seed, its deployment, its rounds."""

    name = ""
    #: True when one deployment serves every round (the asyncio service);
    #: otherwise each round gets a freshly built simulated deployment.
    persistent = False
    simulated = True

    config: AskConfig

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: One entry per task of a round: (streams, receiver, extra submit
        #: kwargs); filled by :meth:`load_inputs`, which set-up probes skip.
        self.tasks: list[tuple[dict[str, Stream], str, dict]] = []
        self.expected: list[dict[bytes, int]] = []

    def build(self) -> Any:
        """A ready deployment: what a user builds before the first submit."""
        raise NotImplementedError

    def _generate(self, rng: random.Random) -> list[tuple[dict[str, Stream], str, dict]]:
        raise NotImplementedError

    def load_inputs(self) -> None:
        self.tasks = self._generate(random.Random(self.seed))
        self.expected = [
            reference_aggregate(streams, self.config.value_mask)
            for streams, _, _ in self.tasks
        ]

    @property
    def input_tuples(self) -> int:
        return sum(len(s) for streams, _, _ in self.tasks for s in streams.values())

    def run_round(self, service: Any, tracer: Optional[Tracer] = None) -> Round:
        """Submit every task, drive the deployment until they settle, and
        check each result.  Only submit-to-settle is timed (and traced)."""
        gc.collect()
        packets_before = _host_packets(service)
        if tracer is not None:
            tracer.begin()
        started = time.perf_counter()
        submitted = [
            service.submit(streams, receiver, **kwargs)
            for streams, receiver, kwargs in self.tasks
        ]
        failure: Optional[str] = None
        try:
            service.run_to_completion(timeout_s=UDP_TASK_TIMEOUT_S)
        except TaskStateError as exc:
            failure = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.end()
        outcomes = []
        for task, expected in zip(submitted, self.expected):
            result = task.result
            error = failure
            digest = None
            if result is None:
                error = error or f"task {task.task_id} ended in phase {task.phase.value}"
            else:
                digest = values_sha256(result.values)
                if result.values != expected:
                    error = f"task {task.task_id}: values differ from reference_aggregate"
            outcomes.append(
                TaskOutcome(
                    input_tuples=task.stats.input_tuples,
                    completion_ns=task.stats.completion_time_ns,
                    tuples_at_switch=task.stats.tuples_aggregated_at_switch,
                    values_sha256=digest,
                    error=error,
                )
            )
        round_ = Round(
            wall_s=wall,
            tasks=outcomes,
            host_packets=_host_packets(service) - packets_before,
        )
        if self.simulated:
            round_.fingerprint = sim_fingerprint(service, outcomes)
        return round_


def _host_packets(service: Any) -> int:
    return sum(daemon.sender_packets() for daemon in service.daemons.values())


def sim_links(service: Any) -> list:
    """Every simulated link of a deployment, sorted by name.  The sim
    fabrics enumerate their links for chaos; the benchmark reuses that."""
    return sorted(service.fabric._links(), key=lambda link: link.name)


def sim_fingerprint(service: Any, outcomes: list[TaskOutcome]) -> dict:
    """Values, event count, final clock and per-link counters: what one
    seed must reproduce on every round, traced or not."""
    return {
        "values_sha256": [o.values_sha256 for o in outcomes],
        "events_processed": service.sim.events_processed,
        "final_now_ns": service.sim.now,
        "links": [
            [
                link.name,
                link.packets_sent,
                link.packets_dropped,
                link.packets_duplicated,
                link.bytes_sent,
                link.max_backlog_bytes,
            ]
            for link in sim_links(service)
        ],
    }


class FlatLossy(Workload):
    name = "flat_lossy"
    why = (
        "loss, duplication and reorder on one rack load fault draws, sender "
        "retransmission and receiver dedup; byte-identical to the hot-path "
        "scenario, so seed 7 keeps its fingerprint history"
    )
    HOSTS = 4

    config = AskConfig.small(window_size=256, retransmit_timeout_us=50.0)

    def _generate(self, rng: random.Random) -> list:
        senders = [f"h{i}" for i in range(self.HOSTS - 1)]
        streams = uniform_streams(rng, senders, 20_000, 512)
        return [(streams, f"h{self.HOSTS - 1}", {})]

    def build(self) -> AskService:
        fault = FaultModel(
            loss_rate=0.05,
            duplicate_rate=0.03,
            reorder_rate=0.10,
            max_extra_delay_ns=200_000,
            seed=self.seed,
        )
        return AskService(self.config, hosts=self.HOSTS, fault=fault)


class TreeZipf(Workload):
    name = "tree_zipf"
    why = (
        "4 concurrent skewed tasks on a 2-level spine-leaf tree with a working "
        "set far beyond switch memory load leaf relay, spine combine, swaps and "
        "tree routing, with no loss to recover"
    )
    PODS = {
        "p0": {"r0": ["h0", "h1"], "r1": ["h2", "h3"]},
        "p1": {"r2": ["h4", "h5"], "r3": ["h6", "h7"]},
    }

    config = AskConfig.small(window_size=128, aggregators_per_aa=256)

    def _generate(self, rng: random.Random) -> list:
        hosts = [f"h{i}" for i in range(8)]
        tasks = []
        # Task k: senders h(k), h(k+3), h(k+5) sit on three different racks
        # across both pods; the receiver h(k+6) is not one of them.
        for k in range(4):
            senders = [hosts[(k + offset) % 8] for offset in (0, 3, 5)]
            streams = {host: zipf_stream(rng, 8_000, 4_096, 1.1) for host in senders}
            tasks.append((streams, hosts[(k + 6) % 8], {"region_size": 32}))
        return tasks

    def build(self) -> TreeAskService:
        return TreeAskService(self.config, pods=self.PODS, placement="both")


class UdpLoopback(Workload):
    name = "udp_loopback"
    why = (
        "the asyncio backend over 127.0.0.1 is the only path through the wire "
        "codec and the UDP fabric, and the only one on a real clock"
    )
    persistent = True
    simulated = False
    HOSTS = 3

    # The CLI demo config for the asyncio backend: AskConfig.small() with
    # a 2 ms retransmission timeout (repro.cli._demo_config), frozen here
    # so the workload does not move when the demo does.
    config = dataclasses.replace(AskConfig.small(), retransmit_timeout_us=2000)

    def _generate(self, rng: random.Random) -> list:
        return [(uniform_streams(rng, ["h0", "h1"], 5_000, 512), "h2", {})]

    def build(self) -> AskService:
        service = AskService(self.config, hosts=self.HOSTS, backend="asyncio")
        service.fabric.start()  # socket bind is part of set-up
        return service


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FlatLossy, TreeZipf, UdpLoopback)
}

#: The workloads BENCHMARK.json lists, i.e. the ones a change is gated on.
#: udp_loopback stays runnable but ungated: its retransmission storm turns
#: machine noise into large shifts (per-task time moved ~30% between two
#: sets of runs fifteen minutes apart on a 2-vCPU Xeon VM), wider than any
#: bound the benchmark may set.  Gate it once the storm is fixed.
GATED = ("flat_lossy", "tree_zipf")
