#!/usr/bin/env python
"""Fault-scenario smoke: a quick recovery run, deterministic twice over.

Builds the registered ``node-failure-recovery`` scenario at CI size,
runs it twice through ``python -m repro scenario`` (the CLI, as a user
would), and requires

1. the two results files to be byte-identical;
2. the ``faults`` block to carry the five fields the fault subsystem
   promises (``capacity_availability``, ``request_availability``,
   ``failed_requests``, ``recoveries``, ``mean_recovery_time``);
3. ``0 < capacity_availability < 1`` — the outage really cost capacity
   and the node really came back;
4. the function's SLO block to report an ``attainment``.

Usage: ``python tools/fault_smoke.py``.  Exit code 0 means every check
held; on a failure the spec and outputs stay in the temp directory whose
path is printed.  CI runs this as its fault-scenario step.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.scenarios import build  # noqa: E402

FAULT_KEYS = ("capacity_availability", "request_availability",
              "failed_requests", "recoveries", "mean_recovery_time")


def _run_scenario(spec: Path, output: Path) -> bytes:
    """One ``python -m repro scenario`` subprocess; returns the bytes it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "repro", "scenario", str(spec), "--output", str(output)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    return output.read_bytes()


def smoke(out: Path) -> None:
    """Every check, in ``out``."""
    spec = out / "recovery_ci.json"
    spec.write_text(build("node-failure-recovery", duration=90.0,
                          fail_at=30.0, recover_at=60.0).to_json(), encoding="utf-8")
    first = _run_scenario(spec, out / "fault_a.json")
    if _run_scenario(spec, out / "fault_b.json") != first:
        raise SystemExit(f"two runs of one spec wrote different bytes (files kept in {out})")
    data = json.loads(first)
    faults = data["faults"]
    missing = [key for key in FAULT_KEYS if key not in faults]
    if missing:
        raise SystemExit(f"faults block lacks {missing} (files kept in {out})")
    if not 0 < faults["capacity_availability"] < 1:
        raise SystemExit(f"capacity availability {faults['capacity_availability']} is not"
                         f" inside (0, 1) (files kept in {out})")
    slo = data["metrics"]["functions"]["squeezenet"]["slo"]
    if "attainment" not in slo:
        raise SystemExit(f"the SLO block reports no attainment (files kept in {out})")
    print("fault smoke ok:",
          f"availability={faults['capacity_availability']:.3f}",
          f"recovery={faults['mean_recovery_time']}s",
          f"slo={slo['attainment']:.3f}")


if __name__ == "__main__":
    out = Path(tempfile.mkdtemp(prefix="fault_smoke_"))
    smoke(out)
    shutil.rmtree(out)
