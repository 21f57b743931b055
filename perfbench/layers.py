"""Layers of the program, the spans that measure them, and their metrics.

Each layer is named after the module that implements it.  Its spans wrap
the layer's entry points (see ``SPANS``); its self time is the self time
of those spans.  Counts come from the program's own counters, read after
the traced round, and every span's call count is checked against the
counter that should equal it, so a fast path that skips an entry point
fails the run instead of under-reporting its layer.

Beyond the public entry points of each layer, three private methods
carry spans because otherwise their work would land in another layer:
``SenderChannel._resend`` (retransmissions fire from timers, not from
``on_ack``) and ``AskSwitch._emit``/``_route`` (switch egress fires
from the pipeline-latency timer, not from ``receive``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from perfbench.tracer import SpanTotals, Tracer
from perfbench.workloads import sim_links

#: (layer, module, qualified name).  Codec functions are patched where the
#: asyncio fabric binds them, since it imported them by name.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("net.simulator", "repro.net.simulator", "Simulator.run"),
    ("net.link", "repro.net.link", "Link.send"),
    ("net.link", "repro.net.nic", "Nic.send"),
    ("net.fault", "repro.net.fault", "FaultModel.decide"),
    ("switch", "repro.switch.switch", "AskSwitch.receive"),
    ("switch", "repro.switch.switch", "AskSwitch._emit"),
    ("switch", "repro.switch.switch", "AskSwitch._route"),
    ("switch", "repro.switch.program", "AskSwitchProgram.process"),
    ("core.packer", "repro.core.packer", "Packer.add_stream"),
    ("core.packer", "repro.core.packer", "Packer.payloads"),
    ("core.sender", "repro.core.sender", "SenderChannel.enqueue"),
    ("core.sender", "repro.core.sender", "SenderChannel.on_ack"),
    ("core.sender", "repro.core.sender", "SenderChannel._resend"),
    ("core.receiver", "repro.core.receiver", "ReceiverEngine.on_packet"),
    ("core.daemon", "repro.core.daemon", "HostDaemon.receive"),
    ("runtime.codec", "repro.runtime.asyncio_fabric", "encode_packet"),
    ("runtime.codec", "repro.runtime.asyncio_fabric", "decode_packet"),
    ("runtime.asyncio_fabric", "repro.runtime.asyncio_fabric", "AsyncioFabric.send_to_switch"),
    ("runtime.asyncio_fabric", "repro.runtime.asyncio_fabric", "AsyncioFabric.send_to_host"),
    ("runtime.asyncio_fabric", "repro.runtime.asyncio_fabric", "AsyncioFabric.route_from_switch"),
    ("runtime.asyncio_fabric", "repro.runtime.asyncio_fabric", "_NodeEndpoint.datagram_received"),
)

GENERATORS = {"Packer.payloads"}

#: Bytes through the codec: an encoded frame's length, a decoded datagram's.
MEASURES: dict[str, Callable[[tuple, Any], int]] = {
    "encode_packet": lambda args, result: len(result),
    "decode_packet": lambda args, result: len(args[0]),
}

#: The selector wait of the asyncio loop: its self time is loop idle time.
SELECT_SPAN = "selector.select"

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))
#: Layers that only the ungated udp_loopback workload exercises.  Their
#: metrics are reported on every traced run but left out of
#: BENCHMARK.json, where they would read 0 on every gated workload.
UNGATED_LAYERS = ("runtime.codec", "runtime.asyncio_fabric")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("net.simulator.events", "count", "lower"),
    ("net.simulator.self_s", "s", "lower"),
    ("net.link.hops", "count", "lower"),
    ("net.link.self_s", "s", "lower"),
    ("net.link.max_backlog_bytes", "bytes", "lower"),
    ("net.fault.draws", "count", "lower"),
    ("net.fault.drops", "count", "lower"),
    ("net.fault.self_s", "s", "lower"),
    ("switch.passes", "count", "lower"),
    ("switch.self_s", "s", "lower"),
    ("switch.absorbed_ratio", "ratio", "higher"),
    ("switch.swaps", "count", "lower"),
    ("core.packer.tuples", "count", "higher"),
    ("core.packer.mean_slots", "slots", "higher"),
    ("core.packer.self_s", "s", "lower"),
    ("core.sender.retransmit_ratio", "ratio", "lower"),
    ("core.sender.timeouts", "count", "lower"),
    ("core.sender.spurious_retransmits", "count", "lower"),
    ("core.sender.self_s", "s", "lower"),
    ("core.receiver.useful_ratio", "ratio", "higher"),
    ("core.receiver.tuples_merged", "count", "lower"),
    ("core.receiver.self_s", "s", "lower"),
    ("core.daemon.self_s", "s", "lower"),
    ("runtime.codec.frames", "count", "lower"),
    ("runtime.codec.bytes", "bytes", "lower"),
    ("runtime.codec.self_s", "s", "lower"),
    ("runtime.asyncio_fabric.frames_sent", "count", "lower"),
    ("runtime.asyncio_fabric.rcvbuf_drops", "count", "lower"),
    ("runtime.asyncio_fabric.loop_idle_s", "s", "lower"),
    ("runtime.asyncio_fabric.self_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Layers that must do no work on a workload: the sanity check of why
#: each workload was chosen.  A span call or a nonzero count on one of
#: these fails the traced run.
IDLE = {
    "flat_lossy": ("runtime.codec", "runtime.asyncio_fabric"),
    "tree_zipf": ("runtime.codec", "runtime.asyncio_fabric"),
    "udp_loopback": ("net.simulator", "net.link", "net.fault"),
}
#: Counts that must be zero on a workload, with the same meaning.
ZERO_COUNTS = {
    "tree_zipf": ("core.sender.retransmit_ratio",),
}


def gated(metric: str) -> bool:
    return not metric.startswith(tuple(layer + "." for layer in UNGATED_LAYERS))


def install(tracer: Tracer) -> None:
    """Patch every span of ``SPANS`` into the program."""
    for _, module, qualname in SPANS:
        if qualname in GENERATORS:
            tracer.patch_generator(module, qualname, qualname)
        else:
            tracer.patch(module, qualname, qualname, MEASURES.get(qualname))


def watch_selector(tracer: Tracer, loop: Any) -> None:
    """Span the asyncio loop's selector wait (idle time)."""
    tracer.patch_attribute(loop._selector, "select", SELECT_SPAN)


def read_rcvbuf_errors() -> Optional[int]:
    """The host-wide UDP RcvbufErrors counter (None where unavailable)."""
    try:
        with open("/proc/net/snmp") as snmp:
            rows = [line.split() for line in snmp if line.startswith("Udp:")]
    except OSError:
        return None
    if len(rows) < 2 or "RcvbufErrors" not in rows[0]:
        return None
    return int(rows[1][rows[0].index("RcvbufErrors")])


def counters(service: Any, simulated: bool) -> dict[str, int]:
    """The program's own counters after a round on a fresh deployment."""
    c: dict[str, int] = {}
    switches = list(service.deployment.switches.values())
    c["pipeline_passes"] = sum(s.pipeline.passes for s in switches)
    c["tuples_seen"] = sum(s.stats.tuples_seen for s in switches)
    c["tuples_absorbed"] = sum(s.stats.tuples_aggregated for s in switches)
    c["swaps"] = sum(s.stats.swaps for s in switches)
    tasks = list(service.tasks.values())
    stats = [t.stats for t in tasks]
    c["jobs"] = sum(len(t.senders) for t in tasks)
    c["first_transmissions"] = sum(s.data_packets_sent + s.long_packets_sent for s in stats)
    c["retransmissions"] = sum(s.retransmissions for s in stats)
    c["timeouts"] = sum(s.timeouts for s in stats)
    c["spurious"] = sum(s.spurious_retransmissions for s in stats)
    c["tuples_merged"] = sum(s.tuples_merged_at_receiver for s in stats)
    packs = [p for s in stats for p in s.pack_stats]
    c["packed_tuples"] = sum(p.tuples_in for p in packs)
    c["packed_packets"] = sum(p.packets + p.long_packets for p in packs)
    slots = service.config.num_aas
    c["occupied_slots"] = sum(p.packets * slots - p.blank_slots for p in packs)
    c["normal_packets"] = sum(p.packets for p in packs)
    windows = [d.receiver_packets() for d in service.daemons.values()]
    c["window_accepted"] = sum(a for a, _ in windows)
    c["window_duplicates"] = sum(d for _, d in windows)
    if simulated:
        links = sim_links(service)
        c["events"] = service.sim.events_processed
        c["link_packets"] = sum(link.packets_sent for link in links)
        c["link_drops"] = sum(link.packets_dropped for link in links)
        c["max_backlog_bytes"] = max((link.max_backlog_bytes for link in links), default=0)
        c["frames_sent"] = 0
        c["frames_dropped"] = 0
    else:
        c["events"] = 0
        c["link_packets"] = 0
        c["link_drops"] = 0
        c["max_backlog_bytes"] = 0
        c["frames_sent"] = service.fabric.frames_sent
        c["frames_dropped"] = service.fabric.frames_dropped
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_s(totals: SpanTotals) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for layer, _, qualname in SPANS:
        out[layer] += totals.self_ns.get(qualname, 0) / 1e9
    return out


def per_layer_metrics(
    totals: SpanTotals,
    c: dict[str, int],
    rcvbuf_drops: int,
    overhead_ratio: float,
) -> dict[str, float]:
    calls = totals.calls
    own = layer_self_s(totals)
    return {
        "net.simulator.events": c["events"],
        "net.simulator.self_s": own["net.simulator"],
        "net.link.hops": calls.get("Link.send", 0),
        "net.link.self_s": own["net.link"],
        "net.link.max_backlog_bytes": c["max_backlog_bytes"],
        "net.fault.draws": calls.get("FaultModel.decide", 0),
        "net.fault.drops": c["link_drops"] + c["frames_dropped"],
        "net.fault.self_s": own["net.fault"],
        "switch.passes": calls.get("AskSwitchProgram.process", 0),
        "switch.self_s": own["switch"],
        "switch.absorbed_ratio": _ratio(c["tuples_absorbed"], c["tuples_seen"]),
        "switch.swaps": c["swaps"],
        "core.packer.tuples": c["packed_tuples"],
        "core.packer.mean_slots": _ratio(c["occupied_slots"], c["normal_packets"]),
        "core.packer.self_s": own["core.packer"],
        "core.sender.retransmit_ratio": _ratio(c["retransmissions"], c["first_transmissions"]),
        "core.sender.timeouts": c["timeouts"],
        "core.sender.spurious_retransmits": c["spurious"],
        "core.sender.self_s": own["core.sender"],
        "core.receiver.useful_ratio": _ratio(
            c["window_accepted"], c["window_accepted"] + c["window_duplicates"]
        ),
        "core.receiver.tuples_merged": c["tuples_merged"],
        "core.receiver.self_s": own["core.receiver"],
        "core.daemon.self_s": own["core.daemon"],
        "runtime.codec.frames": calls.get("encode_packet", 0) + calls.get("decode_packet", 0),
        "runtime.codec.bytes": totals.quantity.get("encode_packet", 0)
        + totals.quantity.get("decode_packet", 0),
        "runtime.codec.self_s": own["runtime.codec"],
        "runtime.asyncio_fabric.frames_sent": c["frames_sent"],
        "runtime.asyncio_fabric.rcvbuf_drops": rcvbuf_drops,
        "runtime.asyncio_fabric.loop_idle_s": totals.self_ns.get(SELECT_SPAN, 0) / 1e9,
        "runtime.asyncio_fabric.self_s": own["runtime.asyncio_fabric"],
        "trace.unspanned_s": totals.remainder_ns / 1e9,
        "trace.overhead_ratio": overhead_ratio,
    }


def self_check(
    workload: str, totals: SpanTotals, c: dict[str, int], metrics: dict[str, float]
) -> list[str]:
    """Problems with the trace; an empty list means it passed."""
    calls = totals.calls
    problems = []

    def expect(what: str, got: int, want: int) -> None:
        if got != want:
            problems.append(f"{what}: {got} span calls, program counts {want}")

    expect("Link.send vs Σ link packets_sent", calls["Link.send"], c["link_packets"])
    expect("FaultModel.decide vs Σ link packets_sent", calls["FaultModel.decide"], c["link_packets"])
    expect("AskSwitchProgram.process vs Σ pipeline passes",
           calls["AskSwitchProgram.process"], c["pipeline_passes"])
    expect("encode_packet vs fabric frames_sent", calls["encode_packet"], c["frames_sent"])
    expect("SenderChannel._resend vs Σ retransmissions",
           calls["SenderChannel._resend"], c["retransmissions"])
    expect("SenderChannel.enqueue vs sending jobs", calls["SenderChannel.enqueue"], c["jobs"])
    expect("ReceiverEngine.on_packet vs receive-window verdicts",
           calls["ReceiverEngine.on_packet"], c["window_accepted"] + c["window_duplicates"])
    expect("Packer.add_stream vs sending jobs", calls["Packer.add_stream"], c["jobs"])
    # One resumption per payload plus the final one that ends the generator.
    expect("Packer.payloads resumptions vs packed packets + jobs",
           calls["Packer.payloads"], c["packed_packets"] + c["jobs"])

    accounted = sum(totals.self_ns.values()) + totals.remainder_ns
    if abs(accounted - totals.wall_ns) > totals.spans:  # 1 ns rounding slack per span
        problems.append(
            f"self times + remainder = {accounted} ns, traced wall = {totals.wall_ns} ns"
        )
    if totals.misnested:
        problems.append(f"{totals.misnested} span(s) not nested inside their parent")
    if any(v < 0 for v in totals.self_ns.values()) or totals.remainder_ns < 0:
        problems.append("negative self time")

    for layer in IDLE.get(workload, ()):
        active = [q for lay, _, q in SPANS if lay == layer and calls.get(q, 0)]
        if active:
            problems.append(f"layer {layer} should be idle on {workload} but ran {active}")
    for name in ZERO_COUNTS.get(workload, ()):
        if metrics[name]:
            problems.append(f"{name} should be 0 on {workload}, got {metrics[name]}")
    return problems
