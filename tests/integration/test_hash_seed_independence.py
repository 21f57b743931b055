"""A tree run's schedule must not depend on the string-hash seed.

Python randomizes ``str`` hashing per interpreter (``PYTHONHASHSEED``), so
any code path that iterates a set or dict of switch/host names in hash
order makes the event schedule differ between two interpreters given the
same seed.  A flat rack has one switch and cannot show it; a multi-switch
tree task swaps on every switch of its path, so it can.  This runs one
2-pod task under four hash seeds, each in a fresh interpreter, and
requires the same values, event count and final clock from all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import json, random
from repro import AskConfig, TreeAskService
from repro.core.results import values_sha256

pods = {"p0": {"r0": ["h0", "h1"], "r1": ["h2", "h3"]},
        "p1": {"r2": ["h4", "h5"], "r3": ["h6", "h7"]}}
rng = random.Random(3)
keys = [b"k%03d" % i for i in range(300)]
# Senders on three racks across both pods; AskConfig.small() swaps every
# 64 packets, so every switch on the task's paths sees swap rounds.
streams = {
    host: [(rng.choice(keys), rng.randint(1, 9)) for _ in range(1500)]
    for host in ("h0", "h3", "h5")
}
service = TreeAskService(AskConfig.small(), pods=pods, placement="both")
task = service.submit(streams, "h6")
service.run_to_completion()
print(json.dumps({
    "values_sha256": values_sha256(task.result.values),
    "events_processed": service.sim.events_processed,
    "final_now_ns": service.sim.now,
}))
"""


def _run_with_hash_seed(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def test_tree_fingerprint_is_identical_under_every_hash_seed():
    runs = {seed: _run_with_hash_seed(seed) for seed in (0, 1, 2, 3)}
    assert all(run == runs[0] for run in runs.values()), runs
