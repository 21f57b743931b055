"""Discrete-event backend: the simulator stack behind the
:class:`~repro.runtime.interfaces.Fabric` / ``TaskRunner`` interfaces.

One fabric class serves every deployment shape: :class:`SimFabric` wraps
a :class:`~repro.net.multirack.MultiRackTopology`, and a single rack is
simply its smallest case — one rack, no spine.  Switches bind to per-rack
:class:`~repro.net.multirack.RackView` / spine
:class:`~repro.net.multirack.SpineView` objects; host uplinks route by
the host's rack.  The wrappers add **no** event hops and **no** extra
scheduling: every ``send`` delegates straight into the same
:class:`StarTopology` / :class:`Link` / :class:`Nic` code, so a fixed
seed produces exactly the schedule, stats and retransmission counts it
always did (the `bench_hotpath` determinism guard enforces this).

:class:`~repro.net.simulator.Simulator` itself satisfies the
:class:`~repro.runtime.interfaces.Clock` protocol, so ``fabric.clock`` is
the simulator object and simulated components keep scheduling on it
directly.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, Optional

from repro.net.fault import (
    CorruptedFrame,
    FaultModel,
    LinkSlowdown,
    corrupt_packet_fields,
)
from repro.net.link import Link
from repro.net.multirack import MultiRackTopology, RackView, SpineView
from repro.net.simulator import Simulator, paused_gc
from repro.net.topology import NetworkNode
from repro.net.trace import PacketTrace
from repro.runtime.interfaces import Node


class _CorruptionWindow:
    """Chaos-driven corruption: while a node is in the window, frames it
    sends or receives are corrupted with probability ``rate``.

    Orthogonal to the per-link :class:`FaultModel` streams (which model
    steady-state line noise): the window models an episode — a failing
    optic, a bad cable — that chaos schedules switch on (``corrupt``) and
    off (``cleanse``).  Draws come from dedicated ``random.Random``
    streams so opening a window never perturbs the link fault schedules.

    Streams are keyed per *sending host*, lazily created from
    ``"<seed_label>:<host>"``.  A fabric-wide stream would
    interleave draws in global packet order, which a rack-sharded run
    (:mod:`repro.runtime.sharded`) cannot reproduce: each shard only sees
    its own hosts' sends.  Per-host streams depend only on that host's
    own send order, which is identical serial and sharded, so the sum of
    ``injected`` over shards equals the serial count draw-for-draw.
    """

    __slots__ = ("targets", "rate", "injected", "_seed_label", "_rngs")

    def __init__(self, seed_label: str, rate: float = 0.5) -> None:
        self.targets: set[str] = set()
        self.rate = rate
        self.injected = 0
        self._seed_label = seed_label
        self._rngs: Dict[str, random.Random] = {}

    def maybe_corrupt(self, packet: object, host: str, dst: Optional[str]) -> object:
        """Corrupt a frame ``host`` sends toward ``dst`` when either end
        is in a window, drawing from ``host``'s stream."""
        if type(packet) is CorruptedFrame or (
            host not in self.targets and dst not in self.targets
        ):
            return packet
        rng = self._rngs.get(host)
        if rng is None:
            rng = self._rngs[host] = random.Random(f"{self._seed_label}:{host}")
        if rng.random() >= self.rate:
            return packet
        if not hasattr(packet, "bitmap"):
            return packet
        self.injected += 1
        return CorruptedFrame(corrupt_packet_fields(packet, rng))


class SimRunner:
    """Run-to-completion driver over one :class:`Simulator`.

    Every drain runs with the cyclic GC paused (:func:`paused_gc`), as the
    sharded runners do: the event churn is reclaimed by reference counting,
    and mid-run generation scans cost wall time while finding next to
    nothing to free.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        with paused_gc():
            self.sim.run(until=until, max_events=max_events)

    def run_until(
        self,
        done: Callable[[], bool],
        max_events: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        # A drained heap is the simulator's quiescent point: either every
        # task completed (done() now holds) or progress is impossible and
        # the caller reports the stall.  ``timeout_s`` is wall-clock and
        # meaningless under simulated time.
        with paused_gc():
            self.sim.run(max_events=max_events)

    def run_forever(self) -> None:
        with paused_gc():
            self.sim.run()


class SimFabric:
    """Racks of hosts on the deterministic simulator: one rack, a flat §7
    mesh or a spine–leaf tree.

    The :class:`Fabric` surface applies per rack through the
    :class:`~repro.net.multirack.RackView` each switch binds to; host
    uplinks route by the host's rack, so ``send_to_switch`` takes only the
    host.  The rack-less ``install_switch(switch)`` /
    ``attach_host(host)`` calls build the one-rack deployment (rack
    ``r0``, standalone).
    """

    backend = "sim"

    def __init__(
        self,
        bandwidth_gbps: Optional[float] = 100.0,
        latency_ns: int = 1_000,
        core_bandwidth_gbps: Optional[float] = 400.0,
        core_latency_ns: int = 2_000,
        host_max_pps: Optional[float] = None,
        fault: Optional[FaultModel] = None,
        trace: Optional[PacketTrace] = None,
        ecn_threshold_bytes: Optional[int] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.topology = MultiRackTopology(
            self.sim,
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=latency_ns,
            core_bandwidth_gbps=core_bandwidth_gbps,
            core_latency_ns=core_latency_ns,
            host_max_pps=host_max_pps,
            fault=fault,
            trace=trace,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        self._partitioned: set[str] = set()
        #: Frames dropped at a partitioned node's egress (its ingress
        #: drops are counted on the node itself).
        self.partition_drops = 0
        seed = fault.seed if fault is not None else 0
        self._corruption = _CorruptionWindow(f"{seed}:chaos-corrupt")
        #: Gray-failure knobs (chaos ``slow``/``revive``): every link
        #: touching a slowed node pays ``latency * slow_multiplier`` plus
        #: uniform jitter up to ``slow_jitter_ns`` per packet.  Set before
        #: the first ``slow`` event; the per-link jitter streams are
        #: seeded from ``{seed}:chaos-slow:{link_name}``.
        self.slow_multiplier = 4.0
        self.slow_jitter_ns = 0
        self._slow_label = f"{seed}:chaos-slow"
        self._slowdowns: Dict[str, LinkSlowdown] = {}

    # ------------------------------------------------------------------
    @property
    def clock(self) -> Simulator:
        return self.sim

    def runner(self) -> SimRunner:
        return SimRunner(self.sim)

    # ------------------------------------------------------------------
    def install_switch(
        self, switch: Node, rack: Optional[str] = None, spine: Optional[str] = None
    ) -> RackView:
        """Create ``rack`` around ``switch``, wire links, bind.  With
        ``spine`` the rack hangs under that (already installed) spine
        instead of joining the flat pairwise core mesh.  Without ``rack``
        the switch becomes the one rack of a standalone deployment."""
        if rack is None:
            if self.topology.racks or self.topology.spine_names:
                raise RuntimeError("fabric already has a switch installed")
            self.topology.standalone = True
            rack = "r0"
        view = self.topology.add_rack(rack, switch, spine=spine)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(view)
        return view

    def install_spine(self, switch: Node) -> "SpineView":
        """Declare a spine switch (tree deployments) and bind its view."""
        view = self.topology.add_spine(switch)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(view)
        return view

    def attach_host(self, host: Node, rack: Optional[str] = None) -> None:
        """Wire ``host`` into ``rack`` (the only rack when omitted)."""
        if rack is None:
            racks = self.topology.racks
            if len(racks) != 1:
                raise ValueError(
                    f"fabric has {len(racks)} racks; name the host's rack"
                )
            rack = racks[0]
        self.topology.attach_host(rack, host)

    # ------------------------------------------------------------------
    @property
    def host_names(self) -> list[str]:
        return self.topology.host_names

    def rack_of_host(self, host: str) -> str:
        return self.topology.rack_of_host(host)

    def send_to_switch(self, host: str, packet: object, size_bytes: int) -> None:
        if host in self._partitioned:
            self.partition_drops += 1
            return
        # Chaos corruption windows apply at the host uplink (frames the
        # target sends, or frames addressed to it, break on their first
        # hop); switch-egress traffic routes through per-rack RackViews
        # and relies on the per-link ``FaultModel.corrupt_rate`` instead.
        corruption = self._corruption
        if corruption.targets:
            packet = corruption.maybe_corrupt(
                packet, host, getattr(packet, "dst", None)
            )
        self.topology.send_to_switch(host, packet, size_bytes)

    def send_to_host(self, host: str, packet: object, size_bytes: int) -> None:
        """Route from the host's own TOR (used by tests/tools; switches
        route through their bound :class:`RackView` instead)."""
        self.topology.route_from_switch(
            self.topology.rack_of_host(host), host, packet, size_bytes
        )

    # ------------------------------------------------------------------
    # Fault injection: network partitions (pure loss, nodes keep running)
    # ------------------------------------------------------------------
    def _node(self, name: str) -> NetworkNode:
        topo = self.topology
        if name in topo._switch_rack:  # noqa: SLF001 - fabric owns its topology
            return topo.switch_of(topo.rack_of_switch(name))
        if name in topo._spine_switches:  # noqa: SLF001
            return topo.spine_node(name)
        return topo.host_node(name)

    def partition(self, name: str) -> None:
        """Cut ``name`` (host or TOR switch) off: host egress is dropped
        here, ingress at the node.  A partitioned switch still flushes
        frames already in its pipeline."""
        self._partitioned.add(name)
        self._node(name).set_partitioned(True)

    def heal(self, name: str) -> None:
        self._partitioned.discard(name)
        self._node(name).set_partitioned(False)

    # ------------------------------------------------------------------
    # Fault injection: corruption windows (chaos "corrupt"/"cleanse")
    # ------------------------------------------------------------------
    def corrupt(self, name: str) -> None:
        """Open a corruption window on ``name`` (applied at host uplinks;
        see :meth:`send_to_switch`)."""
        self._corruption.targets.add(name)

    def cleanse(self, name: str) -> None:
        self._corruption.targets.discard(name)

    @property
    def corruption_rate(self) -> float:
        return self._corruption.rate

    @corruption_rate.setter
    def corruption_rate(self, rate: float) -> None:
        self._corruption.rate = rate

    def _links(self) -> Iterator[Link]:
        topo = self.topology
        for port in topo._uplinks.values():  # noqa: SLF001 - fabric owns topology
            yield port.link
        for port in topo._downlinks.values():  # noqa: SLF001
            yield port.link
        for _name, _src, _dst, nic in topo.interconnect_links():
            yield nic.link

    # ------------------------------------------------------------------
    # Fault injection: gray slowdown windows (chaos "slow"/"revive")
    # ------------------------------------------------------------------
    def _slow_links(self, name: str) -> Iterator[Link]:
        """Every link touching ``name``: a host's two star links; a TOR's
        star links plus the interconnect links it terminates; a spine's
        interconnect links."""
        topo = self.topology
        hosts: list[str]
        endpoint: Optional[tuple[str, str]]
        if name in topo._switch_rack:  # noqa: SLF001 - fabric owns topology
            rack = topo.rack_of_switch(name)
            hosts = topo.hosts_of(rack)
            endpoint = ("rack", rack)
        elif name in topo._spine_switches:  # noqa: SLF001
            hosts = []
            endpoint = ("spine", name)
        else:
            hosts = [name]
            endpoint = None
        for host in hosts:
            yield topo.uplink(host).link
        for host in hosts:
            yield topo.downlink(host).link
        for _name, src, dst, nic in topo.interconnect_links():
            if endpoint in (src, dst):
                yield nic.link

    def _set_slow(self, name: str, active: bool) -> None:
        for link in self._slow_links(name):
            slowdown = self._slowdowns.get(link.name)
            if slowdown is None:
                slowdown = self._slowdowns[link.name] = LinkSlowdown(
                    self._slow_label,
                    link.name,
                    multiplier=self.slow_multiplier,
                    jitter_ns=self.slow_jitter_ns,
                )
                link.slowdown = slowdown
            slowdown.active = active

    def slow(self, name: str) -> None:
        """Gray failure: every link touching ``name`` — star links of its
        rack plus any interconnect links it terminates — gets slower
        (never lossy) until :meth:`revive`."""
        self._set_slow(name, True)

    def revive(self, name: str) -> None:
        self._set_slow(name, False)

    @property
    def packets_slowed(self) -> int:
        """Packets delivered late through an open slowdown window."""
        return sum(link.packets_slowed for link in self._links())

    @property
    def corruption_injected(self) -> int:
        """Corrupted frames delivered by this fabric: steady-state link
        corruption (``FaultModel.corrupt_rate``) plus chaos windows."""
        return self._corruption.injected + sum(
            link.packets_corrupted for link in self._links()
        )


#: Alias of :class:`SimFabric`, kept so code importing the multi-rack
#: name keeps working (``repro.runtime`` exports both).
SimMultiRackFabric = SimFabric
