#!/usr/bin/env python
"""Fail CI on a hot-path performance regression.

Absolute packets/s depend entirely on the runner (shared CI machines vary
by 2x between runs), so gating on them would flap.  The
optimized/reference *ratio* does not: ``bench_hotpath.py`` measures both
sides of it in the same process on the same machine, so machine noise
cancels and the ratio tracks only what the code does.  The gate compares
the fresh ratio against the **best value it ever recorded** in the
checked-in baseline's history — not merely the latest — so a slow decay
across PRs cannot ratchet the floor down with it.  The ratio may drop at
most ``--tolerance`` (default 20%) below its best historical value —
doubled when the fresh report's mode differs from the baseline's (CI's
smoke run vs the checked-in full baseline: ratios shrink with the
scenario, so cross-mode comparisons get slack while still catching
catastrophic regressions):

``hotpath_speedup``
    optimized vs seed-reference packets/s on the lossy 4-host scenario
    (``speedup.packets_per_sec`` / ``speedup_packets_per_sec``).

History entries recorded while the repo still had a vectorized data
plane also carry ``vectorized_packets_per_sec`` and ``data_plane_*``
fields; the gate reads past them, and the history is never rewritten.

The sharded full-scenario leg gets one additional *absolute* gate, full
mode only (the smoke workload is too small for rates to mean anything):
its ``packets_per_sec`` — fabric packet-hops per second of sharded wall
time, best-of-2, measured first in the bench run before the other legs
heat the machine — must stay within ``--tolerance`` of three times the
PR 5 full-scenario floor of 25892.4 packets/s.  That is the scaling
claim of the sharded backend stated as a number; the report's recorded
``cpus``/``execution`` fields say what hardware produced it.

The determinism flags are enforced too: a report whose runs disagree is
a correctness failure regardless of speed.  ``sharded_identical``
asserts the rack-sharded conservative PDES run matched the one-process
serial oracle on **every** run of the best-of-2 — ``values_sha256``,
all per-link counters, drop/dedup totals — so a sharding bug fails CI
even though the tier-1 suite may not cover that exact packet schedule.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke -o fresh.json
    python benchmarks/check_regression.py fresh.json [--baseline BENCH_hotpath.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The PR 5 full-scenario floor (packets/s recorded in BENCH_hotpath.json
#: history) and the sharded backend's scaling claim against it.
SHARDED_BASE_FLOOR = 25892.4
SHARDED_SPEEDUP = 3.0


def load_report(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read benchmark report {path}: {exc}")
    if not text.strip():
        raise SystemExit(
            f"benchmark report {path} is empty — did bench_hotpath.py "
            "fail before writing its output?"
        )
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"benchmark report {path} is not valid JSON: {exc}")
    if not isinstance(report, dict):
        raise SystemExit(
            f"benchmark report {path} must be a JSON object, "
            f"got {type(report).__name__}"
        )
    if report.get("benchmark") != "hotpath":
        raise SystemExit(f"{path} is not a hotpath benchmark report")
    speedup = report.get("speedup")
    if not isinstance(speedup, dict) or "packets_per_sec" not in speedup:
        raise SystemExit(
            f"benchmark report {path} has no speedup.packets_per_sec "
            "ratio — it looks truncated or from an incompatible "
            "bench_hotpath.py version"
        )
    return report


def _entry_hotpath_speedup(entry: dict) -> float | None:
    value = entry.get("speedup_packets_per_sec")
    return float(value) if isinstance(value, (int, float)) else None


def _fresh_hotpath_speedup(report: dict) -> float:
    return float(report["speedup"]["packets_per_sec"])


#: The ratio legs: name -> (extract-from-fresh-report, extract-from-history-entry).
#: A leg absent from the fresh report or from every baseline history entry
#: (reports predating it) is skipped, never failed.
RATIO_LEGS = {
    "hotpath_speedup": (_fresh_hotpath_speedup, _entry_hotpath_speedup),
}


def best_historical(baseline: dict, extract) -> float | None:
    """The best value ``extract`` yields across the baseline's history.

    The baseline's own headline numbers are its ``history[-1]`` entry, so
    scanning the history covers the baseline run itself.
    """
    values = []
    for entry in baseline.get("history") or []:
        if isinstance(entry, dict):
            value = extract(entry)
            if value is not None:
                values.append(value)
    return max(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("report", type=Path, help="fresh bench_hotpath.py output")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpath.json",
        help="checked-in baseline report (default: repo BENCH_hotpath.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional drop vs each leg's floor (default 0.20)",
    )
    args = parser.parse_args(argv)

    fresh = load_report(args.report)
    baseline = load_report(args.baseline)

    failures = 0
    determinism = fresh.get("determinism", {})
    for flag in (
        "repeat_identical",
        "reference_identical",
        "sharded_identical",
    ):
        if not determinism.get(flag):
            print(
                f"FAIL: {args.report} determinism flag {flag!r} is not true "
                "— the runs disagree (or the report predates the flag)",
                file=sys.stderr,
            )
            failures += 1

    # Reports may carry informational sections the gate does not know
    # (the chaos drills' "gray" degradation section is the first); they
    # are surfaced but never gated — adding observability to a report
    # must not be able to fail CI.
    gray = fresh.get("gray")
    if isinstance(gray, dict) and gray:
        print(
            "info: gray degradation section present "
            f"(timeouts={gray.get('timeouts')}, "
            f"spurious_retransmissions={gray.get('spurious_retransmissions')})"
            " — informational, not gated"
        )

    # Ratios shrink with the scenario (the smoke workload amortizes less
    # setup per packet), so a smoke run compared against full-mode
    # history gets double the tolerance: it still catches catastrophic
    # regressions without false-failing on scenario-size effects.
    cross_mode = fresh.get("mode") != baseline.get("mode")
    ratio_tolerance = min(args.tolerance * 2.0, 0.9) if cross_mode else args.tolerance
    for leg, (fresh_extract, entry_extract) in RATIO_LEGS.items():
        fresh_value = fresh_extract(fresh)
        if fresh_value is None:
            print(f"skip: {leg} — fresh report does not carry this leg")
            continue
        floor_value = best_historical(baseline, entry_extract)
        if floor_value is None:
            print(f"skip: {leg} — baseline history has no record of this leg")
            continue
        floor = floor_value * (1.0 - ratio_tolerance)
        verdict = "OK" if fresh_value >= floor else "FAIL"
        cross_note = ", cross-mode" if cross_mode else ""
        print(
            f"{verdict}: {leg} {fresh_value:.3f}x vs best historical "
            f"{floor_value:.3f}x (floor {floor:.3f}x at "
            f"{ratio_tolerance:.0%} tolerance{cross_note})"
        )
        if verdict == "FAIL":
            print(
                f"{leg} regressed more than {ratio_tolerance:.0%} below the "
                "best value the baseline history ever recorded",
                file=sys.stderr,
            )
            failures += 1

    sharded = fresh.get("sharded")
    if fresh.get("mode") != "full":
        print("skip: sharded_throughput — absolute gate applies to full mode only")
    elif not isinstance(sharded, dict) or "packets_per_sec" not in sharded:
        print(
            "FAIL: full-mode report has no sharded leg — bench_hotpath.py "
            "must run the sharded full-scenario leg",
            file=sys.stderr,
        )
        failures += 1
    else:
        rate = float(sharded["packets_per_sec"])
        target = SHARDED_BASE_FLOOR * SHARDED_SPEEDUP
        floor = target * (1.0 - args.tolerance)
        verdict = "OK" if rate >= floor else "FAIL"
        print(
            f"{verdict}: sharded_throughput {rate:,.1f} packet-hops/s = "
            f"{rate / SHARDED_BASE_FLOOR:.2f}x the {SHARDED_BASE_FLOOR:,.1f} "
            f"floor (target {SHARDED_SPEEDUP:.0f}x, gate floor {floor:,.1f} "
            f"at {args.tolerance:.0%} tolerance; "
            f"{sharded.get('execution')} on {sharded.get('cpus')} cpu)"
        )
        if verdict == "FAIL":
            print(
                "the sharded full-scenario leg fell below "
                f"{SHARDED_SPEEDUP:.0f}x the PR 5 floor",
                file=sys.stderr,
            )
            failures += 1

    mode_note = (
        f"fresh mode={fresh.get('mode')}, baseline mode={baseline.get('mode')}"
    )
    if failures:
        print(f"{failures} gate(s) failed ({mode_note})", file=sys.stderr)
        return 1
    print(f"all gates passed ({mode_note})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
