"""Tests of the benchmark's own machinery: self-time arithmetic, the span
tracer, and the BENCHMARK.json manifest.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracer import Tracer, self_times  # noqa: E402


def spans(*rows):
    """rows of (start, end, parent) -> the three parallel sequences."""
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def test_siblings_are_subtracted_from_their_parent():
    starts, ends, parents = spans((0, 100, -1), (10, 30, 0), (40, 70, 0))
    own, remainder, misnested = self_times(starts, ends, parents, (0, 100))
    assert own == [50, 20, 30]
    assert remainder == 0
    assert misnested == 0


def test_deep_nesting_charges_each_level_its_own_share():
    starts, ends, parents = spans(
        (0, 100, -1), (10, 90, 0), (20, 80, 1), (30, 40, 2), (50, 55, 2)
    )
    own, remainder, _ = self_times(starts, ends, parents, (0, 100))
    assert own == [20, 20, 45, 10, 5]
    assert sum(own) + remainder == 100


def test_child_covering_its_whole_parent_leaves_parent_zero():
    starts, ends, parents = spans((0, 50, -1), (0, 50, 0), (0, 50, 1))
    own, remainder, misnested = self_times(starts, ends, parents, (0, 50))
    assert own == [0, 0, 50]
    assert remainder == 0
    assert misnested == 0


def test_remainder_is_the_window_no_root_covers():
    starts, ends, parents = spans((10, 100, -1), (150, 160, -1), (20, 30, 0))
    own, remainder, _ = self_times(starts, ends, parents, (0, 200))
    assert own == [80, 10, 10]
    assert remainder == 200 - 90 - 10
    assert sum(own) + remainder == 200


def test_overlapping_children_count_their_union_once():
    starts, ends, parents = spans((0, 100, -1), (10, 50, 0), (30, 60, 0))
    own, _, _ = self_times(starts, ends, parents, (0, 100))
    assert own[0] == 100 - 50  # union of [10, 50) and [30, 60) is 50 long


def test_child_outside_its_parent_is_clipped_and_counted():
    starts, ends, parents = spans((0, 50, -1), (40, 70, 0))
    own, _, misnested = self_times(starts, ends, parents, (0, 100))
    assert own[0] == 40
    assert misnested == 1


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    def items(self, n):
        for i in range(n):
            yield self.inner(i)


def test_tracer_records_nested_calls_and_restores_originals():
    original_outer = Toy.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(__name__, "Toy.outer", "outer")
    tracer.patch(__name__, "Toy.inner", "inner")
    tracer.patch_generator(__name__, "Toy.items", "items")
    toy = Toy()
    tracer.patch_attribute(toy, "outer", "toy.outer")
    try:
        tracer.begin()
        assert toy.outer(3) == 3
        assert list(toy.items(2)) == [0, 1]
        tracer.end()
        totals = tracer.totals()
    finally:
        tracer.restore()
    assert Toy.__dict__["outer"] is original_outer
    assert "outer" not in toy.__dict__
    # toy.outer wraps the patched Toy.outer; inner runs 3 times under
    # outer and twice under the generator's 3 resumptions.
    assert totals.calls == {"outer": 1, "inner": 5, "items": 3, "toy.outer": 1}
    assert totals.misnested == 0
    assert sum(totals.self_ns.values()) + totals.remainder_ns == totals.wall_ns
    assert totals.total_ns["toy.outer"] >= totals.total_ns["outer"]


def test_manifest_matches_the_benchmark_definitions():
    from perfbench import run
    from perfbench.layers import PER_LAYER, per_layer_metrics
    from perfbench.tracer import SpanTotals

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == run.manifest()
    counters = dict.fromkeys(
        ("events", "max_backlog_bytes", "link_drops", "frames_dropped", "tuples_absorbed",
         "tuples_seen", "swaps", "packed_tuples", "occupied_slots", "normal_packets",
         "retransmissions", "first_transmissions", "timeouts", "spurious",
         "window_accepted", "window_duplicates", "tuples_merged", "frames_sent"),
        0,
    )
    metrics = per_layer_metrics(SpanTotals(), counters, 0, 1.0)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]


def test_manifest_respects_the_benchmark_contract():
    import re

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}").fullmatch
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}").fullmatch
    assert 2 <= len(manifest["workloads"]) <= 8
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and name_ok(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    bounds = {}
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert name_ok(m["name"]) and unit_ok(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert name_ok(m["name"]) and unit_ok(m["unit"]) and m["better"] in ("higher", "lower")
    assert 1 <= manifest["run_seconds"] <= 60
