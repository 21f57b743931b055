"""``import repro`` and simulated deployments must not pull in numpy.

numpy stays a dependency of the experiments, the apps and the workload
generators, which import it themselves; the service, the simulator and
the switch model are pure Python.  Importing numpy costs every user of
the service megabytes of RSS and a good share of start-up time, so this
guard runs a small flat and a small tree deployment in a fresh
interpreter and checks numpy never loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro
from repro import AskConfig, AskService, TreeAskService

flat = AskService(AskConfig.small(), hosts=3)
task = flat.submit({"h0": [(b"a", 1), (b"b", 2)], "h1": [(b"a", 3)]}, "h2")
flat.run_to_completion()
assert task.result.values == {b"a": 4, b"b": 2}, task.result.values
flat.close()

tree = TreeAskService(
    AskConfig.small(),
    pods={"p0": {"r0": ["h0", "h1"]}, "p1": {"r1": ["h2", "h3"]}},
)
task = tree.submit({"h0": [(b"a", 1)], "h2": [(b"a", 5), (b"c", 1)]}, "h3")
tree.run_to_completion()
assert task.result.values == {b"a": 6, b"c": 1}, task.result.values
tree.close()

print("numpy" in sys.modules)
"""


def test_sim_deployments_never_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"], "numpy was imported"
