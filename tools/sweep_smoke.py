#!/usr/bin/env python
"""Sweep determinism smoke: worker count and data plane must not move a byte.

Runs CI-sized sweeps through ``python -m repro sweep`` (the CLI, as a
user would), each with ``--workers 1`` (in process) and ``--workers 4``
(the worker pool), and requires the two output files to be
byte-identical:

1. ``fig3`` on the event plane;
2. the same sweep with ``data_plane="columnar"`` — and every columnar
   shard must equal its event-plane twin once the ``data_plane`` spec
   echo is taken out;
3. ``policy-shootout`` — every control-plane policy, healthy and faulted;
4. ``fig12`` — every federation router under healthy, site-blackout and
   WAN-partition arms.

Usage: ``python tools/sweep_smoke.py`` (~4 s on a 2-core host).  Exit code 0 means every
comparison held; on a mismatch the specs and outputs stay in the temp
directory whose path is printed.  CI runs this as its sweep determinism
step.
"""

from __future__ import annotations

import dataclasses
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

from repro.scenarios import apply_overrides, build  # noqa: E402

WORKERS = 4


def _run_sweep(spec: Path, workers: int, output: Path) -> bytes:
    """One ``python -m repro sweep`` subprocess; returns the bytes it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep", str(spec), "--workers", str(workers),
         "--output", str(output)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    return output.read_bytes()


def _serial_vs_parallel(sweep, label: str, out: Path) -> bytes:
    """Run ``sweep`` with one worker and with ``WORKERS``; fail unless the bytes agree."""
    spec = out / f"sweep_{label}.json"
    spec.write_text(sweep.to_json(), encoding="utf-8")
    serial = _run_sweep(spec, 1, out / f"{label}_serial.json")
    parallel = _run_sweep(spec, WORKERS, out / f"{label}_parallel.json")
    if serial != parallel:
        raise SystemExit(f"{label}: --workers 1 and --workers {WORKERS} wrote different bytes"
                         f" (files kept in {out})")
    print(f"{label}: --workers 1 == --workers {WORKERS} ({len(serial)} bytes)")
    return serial


def smoke(out: Path) -> None:
    """Every comparison, in ``out``."""
    sweep = build("fig3", mus=(10.0,), slo_deadlines=(0.1,),
                  arrival_rates=(10.0, 30.0), duration=40.0, seed=3)
    columnar_sweep = dataclasses.replace(
        sweep, base=apply_overrides(sweep.base, {"data_plane": "columnar"}))
    event = json.loads(_serial_vs_parallel(sweep, "event", out))["results"]
    columnar = json.loads(_serial_vs_parallel(columnar_sweep, "columnar", out))["results"]
    if not event or len(event) != len(columnar):
        raise SystemExit(f"shard counts differ: event {len(event)}, columnar {len(columnar)}"
                         f" (files kept in {out})")
    for ev, co in zip(event, columnar):
        if co["scenario"].pop("data_plane") != "columnar":
            raise SystemExit(f"a columnar shard does not echo data_plane=columnar (files kept in {out})")
        if co != ev:
            raise SystemExit(f"columnar shard diverged from its event-plane twin (files kept in {out})")
    print(f"columnar: {len(event)} shards byte-identical to the event plane")
    _serial_vs_parallel(build("policy-shootout", duration=60.0), "policy-shootout", out)
    _serial_vs_parallel(build("fig12", duration=60.0), "fig12", out)


if __name__ == "__main__":
    out = Path(tempfile.mkdtemp(prefix="sweep_smoke_"))
    smoke(out)
    shutil.rmtree(out)
