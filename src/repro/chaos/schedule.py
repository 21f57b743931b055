"""Seed-deterministic fault schedules.

A schedule is a flat, time-sorted tuple of :class:`ChaosEvent`s.  Every
injected fault comes with its recovery event (crash→restore,
partition→heal) inside the horizon, so a generated schedule never leaves
a node permanently dark — permanent outages are tested explicitly (the
give-up drill), not sampled.

``at_ns`` is an offset from the moment the orchestrator arms the
schedule, which makes the same schedule meaningful on the simulated
clock and on the asyncio wall clock alike.

Fault windows on the same target never overlap: ``generate``
deterministically coalesces colliding draws (same-kind windows merge,
different-kind windows queue after the earlier recovery) and
:meth:`ChaosSchedule.check_windows` rejects hand-built schedules whose
windows interleave, with a tagged :class:`ChaosScheduleError` naming the
target.  An overlapping pair is never what a drill means: the earlier
window's recovery would fire *inside* the later window, silently undoing
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.errors import ChaosScheduleError

#: Fault kind -> the event kind that undoes it.  "corrupt" opens a
#: corruption window on the target (frames it sends, and frames sent to
#: it by name, are delivered with flipped bits; the sim fabric applies
#: the window at the sending host's uplink) and "cleanse" closes it.  "overload"
#: opens an overload window (an abusive tenant floods tasks from the
#: target host while hoarding switch memory; the drill's on_overload
#: hook defines the flood) and "relent" closes it (the hoard is
#: released, so reclaim wakes the admission queue).
#:
#: The gray-failure kinds are degraded-but-alive: "slow" multiplies the
#: latency of every link touching the target until "revive"; "straggle"
#: delays the target daemon's ingress service (straggler sender / slow
#: receiver) until "unstraggle"; "flap" duty-cycles the target dark and
#: back (the orchestrator expands it into partition/heal toggles) until
#: "steady".
RECOVERY_OF = {
    "crash": "restore",
    "partition": "heal",
    "corrupt": "cleanse",
    "overload": "relent",
    "slow": "revive",
    "straggle": "unstraggle",
    "flap": "steady",
}

#: Gray (degraded-but-alive) fault kinds: nothing is lost or crashed,
#: the target just gets slower — the class heartbeat leases cannot see.
GRAY_KINDS = ("slow", "straggle", "flap")

_EVENT_KINDS = (
    "crash", "restore", "partition", "heal",
    "corrupt", "cleanse", "overload", "relent",
    "slow", "revive", "straggle", "unstraggle", "flap", "steady",
)


@dataclass(frozen=True)
class ChaosEvent:
    """One injection: at ``at_ns`` (offset from arm), do ``kind`` to
    ``target`` (a host daemon or switch name)."""

    at_ns: int
    kind: str  #: one of ``_EVENT_KINDS``
    target: str

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown chaos event kind {self.kind!r}")
        if self.at_ns < 0:
            raise ValueError("chaos events cannot be scheduled in the past")


def _coalesce(
    windows: List[Tuple[int, int, str, str]],
    start: int,
    end: int,
    kind: str,
    target: str,
    horizon_ns: int,
) -> None:
    """Fold one drawn fault window into ``windows`` (same target).

    Deterministic rules, applied in draw order so a seed still fully
    determines the schedule:

    * no collision → keep the window as drawn;
    * overlaps only windows of the *same* kind → merge into one window
      spanning min(start)..max(end) (one fault, one recovery);
    * overlaps a window of a *different* kind → queue the new window
      right after the latest colliding recovery, preserving its
      duration, clamped to the horizon — or drop it entirely if no room
      remains (deterministically: both its events vanish, pairing holds).
    """
    duration = end - start
    # Touching counts as colliding (<=/>=): a fault must never share an
    # instant with the same target's earlier recovery, because event order
    # within one instant is sort order, not causality.
    colliding = [w for w in windows if w[3] == target and start <= w[1] and end >= w[0]]
    while colliding:
        if all(w[2] == kind for w in colliding):
            for w in colliding:
                windows.remove(w)
            start = min([start] + [w[0] for w in colliding])
            end = max([end] + [w[1] for w in colliding])
        else:
            # +1 so the queued fault never shares an instant with the
            # earlier recovery (event order at one instant is sort order).
            start = max(w[1] for w in colliding) + 1
            end = min(start + duration, horizon_ns)
            if start >= horizon_ns or end <= start:
                return  # no room left inside the horizon: drop the fault
        colliding = [
            w for w in windows if w[3] == target and start <= w[1] and end >= w[0]
        ]
    windows.append((start, end, kind, target))


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic, time-sorted fault schedule."""

    seed: int
    horizon_ns: int
    events: tuple[ChaosEvent, ...]

    @classmethod
    def generate(
        cls,
        seed: int,
        hosts: Sequence[str],
        switches: Sequence[str],
        horizon_ns: int = 2_000_000,
        max_faults: int = 3,
        min_down_ns: int = 50_000,
        max_down_ns: int = 500_000,
        kinds: Iterable[str] = ("crash", "partition"),
    ) -> "ChaosSchedule":
        """Sample ``1..max_faults`` faults with paired recoveries.

        The draw sequence is fixed — (target, kind, start, duration) per
        fault from ``random.Random(seed)`` — so a seed fully determines
        the schedule for a given topology.  The default ``kinds`` stays
        ``("crash", "partition")`` so existing seeds keep their exact
        schedules; corruption runs opt in with
        ``kinds=("crash", "partition", "corrupt")`` and gray drills with
        ``kinds=("slow", "straggle", "flap")``.  Colliding windows on the
        same target are coalesced deterministically (see
        :func:`_coalesce`); ``straggle`` drawn for a switch becomes
        ``slow`` (switches have no daemon service loop; their gray
        failure is their links), keeping the draw sequence unchanged.
        """
        targets = list(hosts) + list(switches)
        if not targets:
            raise ValueError("chaos needs at least one host or switch")
        host_set = set(hosts)
        kind_choices = list(kinds)
        rng = random.Random(seed)
        windows: List[Tuple[int, int, str, str]] = []
        latest_start = max(1, horizon_ns - max_down_ns)
        for _ in range(rng.randint(1, max_faults)):
            target = rng.choice(targets)
            kind = rng.choice(kind_choices)
            start = rng.randrange(0, latest_start)
            duration = rng.randrange(min_down_ns, max_down_ns)
            if kind == "straggle" and target not in host_set:
                kind = "slow"
            _coalesce(windows, start, start + duration, kind, target, horizon_ns)
        events: list[ChaosEvent] = []
        for start, end, kind, target in windows:
            events.append(ChaosEvent(start, kind, target))
            events.append(ChaosEvent(end, RECOVERY_OF[kind], target))
        events.sort(key=lambda e: (e.at_ns, e.target, e.kind))
        schedule = cls(seed=seed, horizon_ns=horizon_ns, events=tuple(events))
        schedule.check_windows()
        return schedule

    def check_windows(self) -> "ChaosSchedule":
        """Validate window well-formedness; returns self for chaining.

        Raises a tagged :class:`ChaosScheduleError` if any target's fault
        windows interleave (a fault fires while the same target's earlier
        window of any kind is still open) or a recovery arrives without
        its fault.  ``generate`` output always passes; hand-built drill
        schedules should call this before arming.
        """
        fault_of = {recovery: fault for fault, recovery in RECOVERY_OF.items()}
        open_kind: dict[str, str] = {}
        for event in self.events:
            if event.kind in RECOVERY_OF:
                previous = open_kind.get(event.target)
                if previous is not None:
                    raise ChaosScheduleError(
                        f"chaos window overlap on {event.target!r}: "
                        f"{event.kind!r} at {event.at_ns} fires inside an "
                        f"open {previous!r} window",
                        event.target,
                    )
                open_kind[event.target] = event.kind
            else:
                expected = fault_of[event.kind]
                if open_kind.get(event.target) != expected:
                    raise ChaosScheduleError(
                        f"chaos recovery {event.kind!r} at {event.at_ns} on "
                        f"{event.target!r} has no open {expected!r} window",
                        event.target,
                    )
                del open_kind[event.target]
        if open_kind:
            target, kind = next(iter(open_kind.items()))
            raise ChaosScheduleError(
                f"chaos {kind!r} window on {target!r} never recovers "
                f"(no {RECOVERY_OF[kind]!r} event)",
                target,
            )
        return self

    @property
    def fault_count(self) -> int:
        return sum(1 for e in self.events if e.kind in RECOVERY_OF)

    @property
    def gray_fault_count(self) -> int:
        """How many of the schedule's faults are gray (degraded-but-alive)."""
        return sum(1 for e in self.events if e.kind in GRAY_KINDS)

    def targets(self) -> tuple[str, ...]:
        seen: list[str] = []
        for event in self.events:
            if event.target not in seen:
                seen.append(event.target)
        return tuple(seen)
