"""The CI regression gate must fail *clearly* on damaged inputs.

A missing, empty, truncated or schema-less report file is an
infrastructure failure, not a perf regression — the gate has to say so
in one line on stderr and exit nonzero, never spray a traceback.

The gate's floor semantics are covered here too: each ratio leg compares
against the *best* value in the baseline's entire history (a slow decay
across runs must not ratchet the floor down), and the sharded leg's
absolute packet-hops/s gate arms only for full-mode reports.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "check_regression.py"


def run_gate(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def history_entry(ratio: float = 2.0) -> dict:
    return {"speedup_packets_per_sec": ratio}


def good_report(ratio: float = 2.0, history: list | None = None) -> dict:
    return {
        "benchmark": "hotpath",
        "mode": "smoke",
        "determinism": {
            "repeat_identical": True,
            "reference_identical": True,
            "sharded_identical": True,
        },
        "speedup": {"packets_per_sec": ratio},
        "history": history if history is not None else [history_entry(ratio)],
    }


def write(tmp_path: Path, name: str, content) -> Path:
    path = tmp_path / name
    if isinstance(content, (dict, list)):
        path.write_text(json.dumps(content))
    else:
        path.write_text(content)
    return path


def test_ok_against_itself(tmp_path):
    fresh = write(tmp_path, "fresh.json", good_report())
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_regression_fails(tmp_path):
    fresh = write(tmp_path, "fresh.json", good_report(ratio=1.0))
    base = write(tmp_path, "base.json", good_report(ratio=2.0))
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_floor_is_the_best_historical_entry_not_the_latest(tmp_path):
    # History decayed 3.0 -> 2.0; the floor tracks the 3.0 peak, so a
    # fresh 2.5 (well above the latest entry) still fails at 20%.
    history = [history_entry(3.0), history_entry(2.0)]
    fresh = write(tmp_path, "fresh.json", good_report(ratio=2.2))
    base = write(tmp_path, "base.json", good_report(ratio=2.0, history=history))
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 1
    assert "best historical 3.000x" in proc.stdout
    # At the peak itself the gate passes.
    fresh_ok = write(tmp_path, "fresh_ok.json", good_report(ratio=3.0))
    assert run_gate(str(fresh_ok), "--baseline", str(base)).returncode == 0


def test_history_entries_with_retired_vectorized_fields_still_gate(tmp_path):
    # Entries recorded while the vectorized data plane existed carry its
    # fields and an old report still carries its flag and section; the
    # gate reads past all of them and gates only the hot-path ratio.
    legacy_entry = dict(
        history_entry(3.0),
        vectorized_packets_per_sec=10.0,
        data_plane_scalar_packets_per_sec=100.0,
        data_plane_vector_packets_per_sec=50.0,
        data_plane_vector_vs_floor=0.5,
    )
    base_report = good_report(ratio=3.0, history=[legacy_entry])
    base_report["determinism"]["vectorized_identical"] = True
    base_report["data_plane"] = {"vector_packets_per_sec": 50.0}
    base = write(tmp_path, "base.json", base_report)
    fresh = write(tmp_path, "fresh.json", good_report(ratio=2.9))
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 0, proc.stderr
    assert "best historical 3.000x" in proc.stdout
    assert "data_plane" not in proc.stdout
    assert "vectorized" not in proc.stdout + proc.stderr


def test_cross_mode_comparison_doubles_the_ratio_tolerance(tmp_path):
    # CI compares its smoke run against the checked-in full baseline;
    # ratios shrink with the scenario, so the cross-mode floor is 40%
    # below best-historical instead of 20%.  1.3x vs a 2.0x history sits
    # between the two floors (1.2x and 1.6x): it must pass cross-mode
    # and fail same-mode.
    smoke_fresh = write(tmp_path, "fresh.json", good_report(ratio=1.3))
    full_base_report = good_report(ratio=2.0)
    full_base_report["mode"] = "full"
    full_base = write(tmp_path, "full_base.json", full_base_report)
    proc = run_gate(str(smoke_fresh), "--baseline", str(full_base))
    assert proc.returncode == 0, proc.stderr
    assert "cross-mode" in proc.stdout

    smoke_base = write(tmp_path, "smoke_base.json", good_report(ratio=2.0))
    proc = run_gate(str(smoke_fresh), "--baseline", str(smoke_base))
    assert proc.returncode == 1


def test_baseline_without_history_skips_ratio_legs(tmp_path):
    fresh = write(tmp_path, "fresh.json", good_report(ratio=1.0))
    base = write(tmp_path, "base.json", good_report(ratio=2.0, history=[]))
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 0, proc.stderr
    assert "skip" in proc.stdout


def _sharded_section(rate: float) -> dict:
    return {"packets_per_sec": rate, "execution": "inproc", "cpus": 1}


def test_full_mode_sharded_throughput_gate(tmp_path):
    base = write(tmp_path, "base.json", good_report())
    report = good_report()
    report["mode"] = "full"
    report["sharded"] = _sharded_section(80_000.0)  # >= 3x the 25.9k floor
    fresh = write(tmp_path, "fresh.json", report)
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 0, proc.stderr
    assert "sharded_throughput" in proc.stdout

    report["sharded"] = _sharded_section(40_000.0)  # ~1.5x: below the gate
    fresh = write(tmp_path, "fresh.json", report)
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 1
    assert "FAIL: sharded_throughput" in proc.stdout


def test_full_mode_without_sharded_leg_fails(tmp_path):
    base = write(tmp_path, "base.json", good_report())
    report = good_report()
    report["mode"] = "full"
    fresh = write(tmp_path, "fresh.json", report)
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 1
    assert "no sharded leg" in proc.stderr


def test_smoke_mode_skips_the_absolute_sharded_gate(tmp_path):
    # Smoke workloads are too small for absolute rates to mean anything;
    # identity is still enforced via the determinism flag.
    base = write(tmp_path, "base.json", good_report())
    report = good_report()
    report["sharded"] = _sharded_section(10.0)
    fresh = write(tmp_path, "fresh.json", report)
    proc = run_gate(str(fresh), "--baseline", str(base))
    assert proc.returncode == 0, proc.stderr
    assert "skip: sharded_throughput" in proc.stdout


def _assert_clean_failure(proc, needle: str) -> None:
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr


def test_missing_file_is_a_clear_error(tmp_path):
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(tmp_path / "nope.json"), "--baseline", str(base))
    _assert_clean_failure(proc, "cannot read benchmark report")


def test_empty_file_is_a_clear_error(tmp_path):
    fresh = write(tmp_path, "fresh.json", "")
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "is empty")


def test_invalid_json_is_a_clear_error(tmp_path):
    fresh = write(tmp_path, "fresh.json", "{not json")
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "not valid JSON")


def test_non_object_report_is_a_clear_error(tmp_path):
    fresh = write(tmp_path, "fresh.json", [1, 2, 3])
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "must be a JSON object")


def test_wrong_benchmark_kind_is_a_clear_error(tmp_path):
    fresh = write(tmp_path, "fresh.json", {"benchmark": "other"})
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "not a hotpath benchmark report")


def test_missing_speedup_section_is_a_clear_error(tmp_path):
    report = good_report()
    del report["speedup"]
    fresh = write(tmp_path, "fresh.json", report)
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "speedup.packets_per_sec")


def test_sharded_divergence_fails_the_gate(tmp_path):
    report = good_report()
    report["determinism"]["sharded_identical"] = False
    fresh = write(tmp_path, "fresh.json", report)
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "sharded_identical")


def test_report_predating_the_sharded_flag_fails_the_gate(tmp_path):
    report = good_report()
    del report["determinism"]["sharded_identical"]
    fresh = write(tmp_path, "fresh.json", report)
    base = write(tmp_path, "base.json", good_report())
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "sharded_identical")


def test_broken_baseline_is_also_caught(tmp_path):
    fresh = write(tmp_path, "fresh.json", good_report())
    base = write(tmp_path, "base.json", "")
    proc = run_gate(str(fresh), "--baseline", str(base))
    _assert_clean_failure(proc, "is empty")
