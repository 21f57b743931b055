"""`AskService` — the user-facing facade that wires everything together.

An :class:`AskService` is one rack: one ASK switch, N hosts with daemons,
and the fabric between them.  Applications submit aggregation tasks (a set
of sender streams plus one receiver) and run the deployment until
completion::

    from repro import AskConfig, AskService

    service = AskService(AskConfig.small(), hosts=3)
    result = service.aggregate(
        {"h0": [(b"cat", 1), (b"dog", 2)], "h1": [(b"cat", 5)]},
        receiver="h2",
    )
    assert result[b"cat"] == 6

The full task workflow of Fig. 4 is followed: region allocation and sender
notification cost one control-plane latency each before streaming begins,
and teardown fetches the switch copies before the result is published.

The service is backend-agnostic: the default ``backend="sim"`` runs on
the deterministic discrete-event fabric, while ``backend="asyncio"``
frames the same protocol onto real localhost UDP sockets under wall-clock
time (see :mod:`repro.runtime.asyncio_fabric`).

There is one deployment shape: pods of racks, each rack behind its TOR
switch and each pod (if any) under a spine switch.  :class:`AskService`
declares one rack and no spine, :class:`MultiRackService` several racks in
a flat mesh, :class:`TreeAskService` pods under spines; task setup, region
planning and rack lookup are shared, and all wiring is delegated to
:class:`~repro.runtime.builder.DeploymentBuilder`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Optional, Sequence, Union

from repro.core.config import AskConfig
from repro.core.daemon import HostDaemon
from repro.core.errors import (
    RegionExhaustedError,
    TaskFailedError,
    TaskStateError,
)
from repro.core.results import AggregationResult, reference_aggregate
from repro.core.task import AggregationTask, TaskPhase
from repro.core.tenancy import (
    DEFAULT_TENANT,
    AdmissionWaiter,
    TenantQuotaError,
    encode_task_id,
)
from repro.net.fault import FaultModel
from repro.runtime.builder import Deployment, DeploymentBuilder
from repro.runtime.interfaces import Clock, TaskRunner
from repro.switch.controller import RegionSpec

Stream = Sequence[tuple[bytes, int]]


class StreamingSession:
    """An open-ended aggregation task fed incrementally (§2.1.3 streaming).

    Obtained from :meth:`AskService.open_stream`.  Feeds may happen before
    the asynchronous task setup completes — they are buffered and flushed
    once the senders' channels are live.  ``close()`` releases every
    sender's FIN; the result appears on ``task.result`` after
    ``run_to_completion``::

        session = service.open_stream(["h0"], receiver="h1")
        session.feed("h0", [(b"cpu", 97)])
        service.run()                      # deliver what's in flight
        session.feed("h0", [(b"cpu", 3)])
        session.close()
        service.run_to_completion()
        assert session.task.result[b"cpu"] == 100
    """

    def __init__(self, task: AggregationTask, senders: tuple[str, ...]) -> None:
        self.task = task
        self.senders = senders
        self._handles: dict[str, object] = {}
        self._buffers: dict[str, list] = {host: [] for host in senders}
        self._closed = False

    # -- wiring (called by the service when setup completes) -----------
    def _attach(self, host: str, handle) -> None:
        self._handles[host] = handle
        buffered = self._buffers.pop(host, [])
        if buffered:
            handle.feed(buffered)
        if self._closed:
            handle.finish()

    @property
    def is_live(self) -> bool:
        """True once every sender's channel is attached."""
        return len(self._handles) == len(self.senders)

    # -- application API ------------------------------------------------
    def feed(self, host: str, tuples: Iterable[tuple[bytes, int]]) -> None:
        """Append tuples to one sender's stream."""
        if self._closed:
            raise TaskStateError("session is closed")
        if host not in self.senders:
            raise KeyError(f"{host!r} is not a sender of this session")
        items = list(tuples)
        handle = self._handles.get(host)
        if handle is None:
            self._buffers[host].extend(items)
            self.task.stats.input_tuples += len(items)
        else:
            handle.feed(items)

    def close(self) -> None:
        """End every sender's stream; FINs flow once data is ACKed."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            handle.finish()

    @property
    def result(self):
        return self.task.result


#: Valid per-task aggregation placement policies for a tree deployment.
PLACEMENTS = ("leaf", "spine", "both")

#: Pod name -> {rack name -> host names (or a host count)}.  Racks under
#: the ``None`` pod have no spine.
Pods = Dict[Optional[str], Dict[str, Union[int, Iterable[str]]]]


def _check_placement(placement: str) -> None:
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; pick one of {PLACEMENTS}"
        )


class _AskServiceBase:
    """The Fig. 4 task workflow over one wired :class:`Deployment`.

    Subclasses configure a :class:`DeploymentBuilder` (backend, switch
    factory, link parameters) and describe their racks as ``pods``; this
    base declares the pods and racks, builds, and owns rack lookup and
    region planning.  The full application surface — ``submit`` /
    ``open_stream`` / ``run`` / ``aggregate`` — is shared by every
    deployment shape and both backends.

    Every pod gets one spine switch (``spine-<pod>``), every rack its TOR
    (``tor-<rack>`` unless ``switch_name`` names the TOR of a one-rack
    service).  ``placement`` is the service-wide region placement policy;
    see :class:`TreeAskService`.
    """

    def __init__(
        self,
        builder: DeploymentBuilder,
        pods: Pods,
        placement: str = "leaf",
        switch_name: Optional[str] = None,
    ) -> None:
        _check_placement(placement)
        self.placement = placement
        self._task_placement: Dict[int, str] = {}
        self._pod_of_rack: Dict[str, Optional[str]] = {}
        tors: Dict[str, str] = {}
        for pod, racks in pods.items():
            spine = None if pod is None else builder.add_spine(f"spine-{pod}")
            for rack, hosts in racks.items():
                tors[rack] = switch_name or f"tor-{rack}"
                builder.add_rack(
                    hosts if isinstance(hosts, int) else list(hosts),
                    switch_name=tors[rack],
                    rack=rack,
                    spine=spine,
                )
                self._pod_of_rack[rack] = pod
        deployment = builder.build(on_task_complete=self._on_task_complete)
        #: rack name -> that rack's TOR (leaf) switch.
        self.switches = {
            rack: deployment.switches[name] for rack, name in tors.items()
        }
        #: pod name -> that pod's spine switch (empty without spines).
        self.spines = {
            pod: deployment.switches[f"spine-{pod}"]
            for pod in pods
            if pod is not None
        }
        self.deployment: Deployment = deployment
        self.config: AskConfig = deployment.config
        self.backend: str = deployment.backend
        self.fabric = deployment.fabric
        self.runner: TaskRunner = deployment.runner
        self.control = deployment.control
        self.daemons: Dict[str, HostDaemon] = deployment.daemons
        self.trace = deployment.trace
        self._task_ids = itertools.count(1)
        self.tasks: dict[int, AggregationTask] = {}
        #: Failed task ids already surfaced via TaskFailedError: a loud
        #: failure is raised exactly once, so later runs on a still-live
        #: service are not poisoned by history.
        self._failures_raised: set[int] = set()
        self.supervisor = deployment.supervisor
        if self.supervisor is not None:
            self.supervisor.bind(self.tasks)
        #: Present when ``config.admission_control`` is on: queued tasks
        #: waiting for switch memory instead of failing loudly.
        self.admission = deployment.admission

    # ------------------------------------------------------------------
    # Compatibility / convenience surfaces
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Clock:
        return self.fabric.clock

    @property
    def sim(self):
        """The discrete-event simulator (sim backend only)."""
        sim = getattr(self.fabric, "sim", None)
        if sim is None:
            raise AttributeError(
                f"the {self.backend!r} backend has no simulator; use .clock"
            )
        return sim

    @property
    def topology(self):
        """The concrete network topology (sim backend only)."""
        topology = getattr(self.fabric, "topology", None)
        if topology is None:
            raise AttributeError(
                f"the {self.backend!r} backend exposes no topology object"
            )
        return topology

    def close(self) -> None:
        """Release backend resources (asyncio sockets/tasks; no-op sim)."""
        self.deployment.close()

    def __enter__(self) -> "_AskServiceBase":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _on_task_complete(self, task: AggregationTask) -> None:
        self.daemons[task.receiver].publish_result(task)
        # The task is settled; no supervised restart can need its job.
        for host in task.senders:
            self.daemons[host].release_job(task.task_id)

    def daemon(self, host: str) -> HostDaemon:
        return self.daemons[host]

    def register_tenant(
        self,
        tenant_id: int,
        name: Optional[str] = None,
        weight: int = 1,
        quota: Optional[int] = None,
    ) -> None:
        """Declare a tenant on the service plane.

        ``weight`` is the tenant's deficit-round-robin share of freed
        switch memory (admission control only); ``quota`` caps its
        aggregators on every switch.  Undeclared tenants run with weight
        1 and no quota.
        """
        if self.admission is not None:
            self.admission.registry.register(tenant_id, name=name, weight=weight)
        elif weight != 1:
            raise TaskStateError(
                "tenant fairness weights require admission control "
                "(config.admission_control=True)"
            )
        if quota is not None:
            for switch_name in sorted(self.control.switch_names):
                self.control.controller(switch_name).tenant_quotas.set(
                    tenant_id, quota
                )

    @property
    def hosts(self) -> list[str]:
        return list(self.daemons)

    def switch_of_host(self, host: str) -> Any:
        """The TOR (leaf) switch serving ``host``'s rack."""
        return self.switches[self.fabric.rack_of_host(host)]

    def spine_of_host(self, host: str) -> Any:
        """The spine combiner above ``host``'s rack (tree deployments)."""
        return self.spines[self._pod_of_rack[self.fabric.rack_of_host(host)]]

    def _region_plan(
        self, task: AggregationTask
    ) -> tuple[tuple[str, ...], Optional[Dict[str, RegionSpec]]]:
        """Region placement for ``task``: switch names plus (optionally)
        per-switch :class:`RegionSpec` roles, under the task's placement
        policy (see :class:`TreeAskService`)."""
        placement = self._task_placement.get(task.task_id, self.placement)
        # Sender-first-seen rack and pod orders keep allocation (and so
        # the whole schedule) deterministic for a given stream dict.
        rack_senders: Dict[str, list[str]] = {}
        for sender in task.senders:
            rack_senders.setdefault(self.fabric.rack_of_host(sender), []).append(sender)
        leaves = tuple(self.switches[rack].name for rack in rack_senders)
        if placement == "leaf":
            return leaves, None
        pod_senders: Dict[Optional[str], list[str]] = {}
        for rack, senders in rack_senders.items():
            pod_senders.setdefault(self._pod_of_rack[rack], []).extend(senders)
        spine_specs = {
            self.spines[pod].name: RegionSpec(sources=frozenset(senders))
            for pod, senders in pod_senders.items()
        }
        if placement == "spine":
            return tuple(spine_specs), spine_specs
        specs = {
            self.switches[rack].name: RegionSpec(
                sources=frozenset(senders), relay=True
            )
            for rack, senders in rack_senders.items()
        }
        specs.update(spine_specs)
        return leaves + tuple(spine_specs), specs

    # ------------------------------------------------------------------
    # Task submission (Fig. 4 steps ①–⑧)
    # ------------------------------------------------------------------
    def submit(
        self,
        streams: dict[str, Stream],
        receiver: str,
        region_size: Optional[int] = None,
        task_id: Optional[int] = None,
        tenant_id: int = DEFAULT_TENANT,
    ) -> AggregationTask:
        """Submit an aggregation task.

        ``streams`` maps sender host → its key-value stream; ``receiver`` is
        the destination host (it may also appear among the senders, like the
        co-located mappers of §5.5).  ``tenant_id`` is encoded into the task
        ID (§7 multi-tenancy) so regions, channels and shared memory are
        isolated per tenant, and switch-side quotas apply.  Returns the task
        immediately; call :meth:`run` to drive it to completion.
        """
        if receiver not in self.daemons:
            raise KeyError(f"unknown receiver host {receiver!r}")
        for host in streams:
            if host not in self.daemons:
                raise KeyError(f"unknown sender host {host!r}")
        if not streams:
            raise ValueError("a task needs at least one sender stream")
        if task_id is None:
            task_id = encode_task_id(tenant_id, next(self._task_ids))
        elif task_id in self.tasks:
            raise TaskStateError(f"task id {task_id} already in use")

        task = AggregationTask(
            task_id=task_id,
            receiver=receiver,
            senders=tuple(streams),
            region_size=region_size,
        )
        task.stats.submitted_at_ns = self.clock.now
        task.stats.input_tuples = sum(len(s) for s in streams.values())
        task.stats.input_bytes = sum(
            len(k) + 4 for s in streams.values() for k, _ in s
        )
        self.tasks[task_id] = task

        # Step ②③ after one control-plane latency: shared memory + region.
        self.clock.schedule(
            self.config.control_latency_ns, self._setup_task, task, dict(streams)
        )
        if self.supervisor is not None:
            self.supervisor.notice_activity()
        return task

    def _setup_task(self, task: AggregationTask, streams: dict[str, Stream]) -> None:
        try:
            switches, specs = self._region_plan(task)
            regions = self.control.allocate(
                task.task_id, switches, task.region_size, specs=specs
            )
        except (RegionExhaustedError, TenantQuotaError) as exc:
            # Memory contention, not a bug.  With admission control on,
            # the task waits its turn instead of dying; the waiter's
            # closures re-run the allocation and the sender kickoff when
            # memory frees up (or flip to bypass at the deadline).
            if self.admission is not None:
                self._queue_for_admission(task, switches, specs, streams=streams)
                return
            self._fail_allocation(task, exc)
            raise
        except Exception as exc:
            # Anything else (bad region plan, controller invariant) is a
            # terminal error regardless of admission control.
            # ControlPlane.allocate already rolled back partial
            # reservations and nothing else was wired yet; fail the
            # handle, drop the task from the service's books so it stays
            # fully reusable, and let the error surface.
            self._fail_allocation(task, exc)
            raise
        self.daemons[task.receiver].open_receive_task(task, regions)
        task.advance(TaskPhase.SETUP)
        # Step ④⑤: notify every sender over the control channel.
        self.clock.schedule(
            self.config.control_latency_ns, self._start_senders, task, streams
        )

    def _fail_allocation(self, task: AggregationTask, exc: Exception) -> None:
        task.failure_reason = f"region allocation failed: {exc}"
        task.advance(TaskPhase.FAILED)
        self.tasks.pop(task.task_id, None)

    def _queue_for_admission(
        self,
        task: AggregationTask,
        switches: tuple[str, ...],
        specs,
        streams: Optional[dict[str, Stream]] = None,
        session: Optional["StreamingSession"] = None,
    ) -> None:
        """Enqueue a task whose allocation failed on the admission
        controller.  The region plan is captured once — it is a pure
        function of the task's senders, so re-planning at grant time
        would only recompute the same placement."""

        def _wire(regions, bypass: bool) -> None:
            self.daemons[task.receiver].open_receive_task(task, regions)
            task.advance(TaskPhase.SETUP)
            if session is None:
                self.clock.schedule(
                    self.config.control_latency_ns,
                    self._start_senders, task, streams, bypass,
                )
            else:
                self.clock.schedule(
                    self.config.control_latency_ns,
                    self._attach_streams, task, session, bypass,
                )

        def grant() -> bool:
            try:
                regions = self.control.allocate(
                    task.task_id, switches, task.region_size, specs=specs
                )
            except (RegionExhaustedError, TenantQuotaError):
                return False
            _wire(regions, bypass=False)
            return True

        def degrade() -> None:
            # No switch memory within the deadline: run the task entirely
            # host-side.  Every entry is sent BYPASS, the switch forwards
            # them untouched, and the receiver completes from its residual
            # alone — exactly-once and bit-exact, just without offload.
            task.stats.degraded_to_bypass = True
            _wire({}, bypass=True)

        def reject(reason: str) -> None:
            task.failure_reason = reason
            task.advance(TaskPhase.FAILED)
            self.tasks.pop(task.task_id, None)

        waiter = AdmissionWaiter(
            task=task, grant=grant, degrade=degrade, reject=reject
        )
        if self.admission.admit(waiter):
            task.advance(TaskPhase.QUEUED)
        if self.supervisor is not None:
            # Queue residence extends the run; keep the heartbeat loop
            # (and with it lease-lapse reclaim, which frees memory for
            # this very waiter) alive while the task waits.
            self.supervisor.notice_activity()

    def _start_senders(
        self,
        task: AggregationTask,
        streams: dict[str, Stream],
        bypass: bool = False,
    ) -> None:
        task.advance(TaskPhase.STREAMING)
        for host, stream in streams.items():
            self.daemons[host].start_sending(
                task, list(stream), force_bypass=bypass
            )

    # ------------------------------------------------------------------
    # Streaming tasks (unbounded key-value streams)
    # ------------------------------------------------------------------
    def open_stream(
        self,
        senders: Sequence[str],
        receiver: str,
        region_size: Optional[int] = None,
        tenant_id: int = DEFAULT_TENANT,
    ) -> StreamingSession:
        """Open an aggregation task whose streams are fed incrementally.

        Real-time sources (the paper's streaming-processing motivation)
        do not know their data up front; a streaming session keeps every
        sender's channel live until :meth:`StreamingSession.close`.
        """
        if receiver not in self.daemons:
            raise KeyError(f"unknown receiver host {receiver!r}")
        for host in senders:
            if host not in self.daemons:
                raise KeyError(f"unknown sender host {host!r}")
        if not senders:
            raise ValueError("a streaming session needs at least one sender")
        task_id = encode_task_id(tenant_id, next(self._task_ids))
        task = AggregationTask(
            task_id=task_id,
            receiver=receiver,
            senders=tuple(senders),
            region_size=region_size,
        )
        task.stats.submitted_at_ns = self.clock.now
        self.tasks[task_id] = task
        session = StreamingSession(task, tuple(senders))
        self.clock.schedule(
            self.config.control_latency_ns, self._setup_streaming, task, session
        )
        if self.supervisor is not None:
            self.supervisor.notice_activity()
        return session

    def _setup_streaming(self, task: AggregationTask, session: StreamingSession) -> None:
        try:
            switches, specs = self._region_plan(task)
            regions = self.control.allocate(
                task.task_id, switches, task.region_size, specs=specs
            )
        except (RegionExhaustedError, TenantQuotaError) as exc:
            if self.admission is not None:
                self._queue_for_admission(task, switches, specs, session=session)
                return
            self._fail_allocation(task, exc)
            raise
        except Exception as exc:
            self._fail_allocation(task, exc)
            raise
        self.daemons[task.receiver].open_receive_task(task, regions)
        task.advance(TaskPhase.SETUP)
        self.clock.schedule(
            self.config.control_latency_ns, self._attach_streams, task, session
        )

    def _attach_streams(
        self,
        task: AggregationTask,
        session: StreamingSession,
        bypass: bool = False,
    ) -> None:
        task.advance(TaskPhase.STREAMING)
        for host in session.senders:
            session._attach(
                host,
                self.daemons[host].start_streaming(task, force_bypass=bypass),
            )

    # ------------------------------------------------------------------
    # Driving the deployment
    # ------------------------------------------------------------------
    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        """Advance the deployment (drain the sim heap / run a loop slice)."""
        self.runner.run(until=until, max_events=max_events)

    def _all_complete(self) -> bool:
        # FAILED counts as settled: a loudly-failed task will never
        # complete, and waiting for it would turn a crisp TaskFailedError
        # into a backend timeout.
        return all(t.is_settled for t in self.tasks.values())

    def run_to_completion(
        self, max_events: int = 20_000_000, timeout_s: Optional[float] = None
    ) -> None:
        """Run and then assert every submitted task completed.

        ``max_events`` bounds the sim backend, ``timeout_s`` (wall-clock)
        the asyncio backend; each backend ignores the other's budget.
        Raises :class:`TaskFailedError` if any task was failed loudly
        (give-up deadline, allocation failure) and :class:`TaskStateError`
        if tasks are merely unfinished when the budget runs out.
        """
        self.runner.run_until(
            self._all_complete, max_events=max_events, timeout_s=timeout_s
        )
        failed = [
            t
            for t in self.tasks.values()
            if t.phase is TaskPhase.FAILED
            and t.task_id not in self._failures_raised
        ]
        if failed:
            self._failures_raised.update(t.task_id for t in failed)
            raise TaskFailedError(
                f"{len(failed)} task(s) failed: "
                + ", ".join(f"{t.task_id}: {t.failure_reason}" for t in failed)
            )
        unfinished = [
            t for t in self.tasks.values() if not t.is_settled
        ]
        if unfinished:
            raise TaskStateError(
                f"{len(unfinished)} task(s) did not complete: "
                + ", ".join(f"{t.task_id}:{t.phase.value}" for t in unfinished)
            )

    # ------------------------------------------------------------------
    def aggregate(
        self,
        streams: dict[str, Stream],
        receiver: Optional[str] = None,
        region_size: Optional[int] = None,
        check: bool = False,
    ) -> AggregationResult:
        """One-shot convenience: submit, run to completion, return the result.

        ``check=True`` additionally verifies the result against the exact
        reference aggregation (useful in examples and tests).
        """
        if receiver is None:
            receiver = self.hosts[-1]
        task = self.submit(streams, receiver, region_size=region_size)
        self.run_to_completion()
        assert task.result is not None
        if check:
            expected = reference_aggregate(
                {h: list(s) for h, s in streams.items()}, self.config.value_mask
            )
            if task.result.values != expected:
                raise AssertionError(
                    "aggregation result deviates from the exact reference"
                )
        return task.result


class AskService(_AskServiceBase):
    """One ASK deployment: switch + hosts + fabric.

    ``switch_factory`` selects the data-plane program: the default PISA
    :class:`~repro.switch.switch.AskSwitch`, or the run-to-completion
    :class:`~repro.switch.trio.TrioSwitch` (§6) — the host side is
    identical either way.  ``backend`` selects the fabric: ``"sim"``
    (deterministic discrete-event, the default) or ``"asyncio"`` (real
    localhost UDP under wall-clock time).
    """

    def __init__(
        self,
        config: Optional[AskConfig] = None,
        hosts: Union[int, Iterable[str]] = 2,
        fault: Optional[FaultModel] = None,
        switch_name: str = "switch",
        max_tasks: int = 64,
        max_channels: int = 256,
        switch_factory: Optional[Any] = None,
        backend: str = "sim",
        bind_host: str = "127.0.0.1",
    ) -> None:
        builder = DeploymentBuilder(
            config,
            backend=backend,
            fault=fault,
            max_tasks=max_tasks,
            max_channels=max_channels,
            switch_factory=switch_factory,
            bind_host=bind_host,
        )
        super().__init__(builder, {None: {"r0": hosts}}, switch_name=switch_name)
        self.switch = self.deployment.switch


class MultiRackService(_AskServiceBase):
    """An ASK deployment spanning several racks (§7).

    Every rack has its own TOR switch; a task allocates a region on every
    *sender-side* TOR, cross-rack traffic bypasses the receiver's TOR (the
    routing rule in :meth:`repro.switch.switch.AskSwitch._should_run_program`),
    swap notifications broadcast to all involved TORs and teardown merges
    every TOR's copies.  Multi-rack deployments run on the sim backend.
    """

    def __init__(
        self,
        config: Optional[AskConfig] = None,
        racks: Optional[Dict[str, Iterable[str]]] = None,
        fault: Optional[FaultModel] = None,
        max_tasks: int = 64,
        max_channels: int = 256,
        core_bandwidth_gbps: Optional[float] = 400.0,
        core_latency_ns: int = 2_000,
    ) -> None:
        if not racks:
            racks = {"r0": ["h0", "h1"], "r1": ["h2", "h3"]}
        builder = DeploymentBuilder(
            config,
            backend="sim",
            fault=fault,
            max_tasks=max_tasks,
            max_channels=max_channels,
            core_bandwidth_gbps=core_bandwidth_gbps,
            core_latency_ns=core_latency_ns,
        )
        super().__init__(builder, {None: dict(racks)})


class TreeAskService(_AskServiceBase):
    """A spine–leaf ASK deployment: pods of racks under spine combiners.

    ``pods`` maps pod name → {rack name → host names}; each pod gets one
    spine switch (``spine-<pod>``), each rack its leaf TOR
    (``tor-<rack>``).  Inter-rack traffic routes leaf → spine [→ spine]
    → leaf → host instead of the flat §7 core mesh, and the *placement
    policy* decides where a task's aggregation state lives:

    ``"leaf"``
        Regions on the sender-side leaf TORs only (the flat policy on tree
        routing); spines are pure transit.
    ``"spine"``
        Regions on the senders' pod spines only, each admitting the pod's
        senders via its region ``sources``; leaves run the program for
        dedup but hold no aggregation state for the task.
    ``"both"``
        Relay regions on the sender-side leaves (absorb, then forward even
        fully-absorbed packets up) plus terminal combiner regions on the
        pod spines — the full hierarchical pre-aggregation of Flare /
        SwitchAgg.

    The service-wide default is set at construction; :meth:`submit` and
    :meth:`open_stream` accept a per-task override.  Whatever the tree and
    policy, result values are bit-identical to a flat single-switch run of
    the same workload (aggregation is commutative mod 2^value_bits).
    """

    def __init__(
        self,
        config: Optional[AskConfig] = None,
        pods: Optional[Dict[str, Dict[str, Iterable[str]]]] = None,
        placement: str = "both",
        fault: Optional[FaultModel] = None,
        max_tasks: int = 64,
        max_channels: int = 256,
        core_bandwidth_gbps: Optional[float] = 400.0,
        core_latency_ns: int = 2_000,
        backend: str = "sim",
        bind_host: str = "127.0.0.1",
    ) -> None:
        if not pods:
            pods = {
                "s0": {"r0": ["h0", "h1"], "r1": ["h2", "h3"]},
                "s1": {"r2": ["h4", "h5"], "r3": ["h6", "h7"]},
            }
        builder = DeploymentBuilder(
            config,
            backend=backend,
            fault=fault,
            max_tasks=max_tasks,
            max_channels=max_channels,
            core_bandwidth_gbps=core_bandwidth_gbps,
            core_latency_ns=core_latency_ns,
            bind_host=bind_host,
        )
        super().__init__(builder, dict(pods), placement=placement)

    # ------------------------------------------------------------------
    def submit(
        self,
        streams: dict[str, Stream],
        receiver: str,
        region_size: Optional[int] = None,
        task_id: Optional[int] = None,
        tenant_id: int = DEFAULT_TENANT,
        placement: Optional[str] = None,
    ) -> AggregationTask:
        """Submit a task, optionally overriding the placement policy for
        it (``"leaf"`` / ``"spine"`` / ``"both"``).  Region allocation
        happens one control latency later, so the override is recorded
        before :meth:`_region_plan` consults it."""
        if placement is not None:
            _check_placement(placement)
        task = super().submit(
            streams,
            receiver,
            region_size=region_size,
            task_id=task_id,
            tenant_id=tenant_id,
        )
        if placement is not None:
            self._task_placement[task.task_id] = placement
        return task

    def open_stream(
        self,
        senders: Sequence[str],
        receiver: str,
        region_size: Optional[int] = None,
        tenant_id: int = DEFAULT_TENANT,
        placement: Optional[str] = None,
    ) -> StreamingSession:
        if placement is not None:
            _check_placement(placement)
        session = super().open_stream(
            senders, receiver, region_size=region_size, tenant_id=tenant_id
        )
        if placement is not None:
            self._task_placement[session.task.task_id] = placement
        return session
