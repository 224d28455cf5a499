"""The benchmark harness still runs against this tree.

``perfbench/tracing.py`` re-wraps every provider and patches ``matexp`` by
name on ``geomgate.dynamics`` and ``geomgate.model``; a change to either
contract breaks the traced runs, which ``--smoke`` covers at toy sizes.
The traced smoke reports also count the provider calls of each Lindblad run:
fewer than its steps, since the drive is read through its frame and not per
RK4 stage.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last)["smoke"] == "passed", proc.stderr[-2000:]
    for workload in ("ghz-n4", "bell-traj"):
        report = json.loads((OUT / f"{workload}-smoke-seed0-trace1.json").read_text())
        metrics = report["metrics"]
        steps = metrics["dynamics.lindblad_steps"]["value"]
        assert 0 < metrics["model.h_calls"]["value"] < steps, workload
