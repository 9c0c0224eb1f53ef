#!/usr/bin/env python
"""Envelope digests: what every registered scenario emits, as two hashes a shard.

Run without arguments it builds every registered scenario at CI size,
runs each shard on every data plane its spec admits, and prints one
line per run::

    name  shard  plane  sha256(scenario echo)  sha256(everything else)

The first hash covers the spec echo the envelope carries, the second
the payload (metrics, rows, faults, ...).  A refactor that is supposed to keep simulated
bytes must leave every payload hash where it was; a spec-layer change
shows up in the echo column only.

``repro`` is imported from ``PYTHONPATH`` when it is there and from this
checkout's ``src/`` otherwise, so two trees are compared by running the
same script twice::

    PYTHONPATH=/path/to/base/src python tools/envelope_digests.py > base.txt
    PYTHONPATH=src               python tools/envelope_digests.py > head.txt
    python tools/envelope_digests.py base.txt head.txt

With two files it prints every line that differs and exits 1 when a
payload hash differs for a ``(name, shard, plane)`` present in both;
echo-only differences and lines present on one side only are printed
but not fatal.

This module owns the CI-size table: ``tests/test_columnar_differential.py``
imports :data:`REGISTRY_CASES` and :data:`FEDERATED_CASES` from here.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

# appended, not prepended: a PYTHONPATH naming another tree's src/ wins
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

#: name -> builder kwargs.  Durations are shrunk so the whole gauntlet
#: stays CI-sized, but every kind, fault arm, policy, workload shape and
#: metric group of the full-size scenarios is exercised.
REGISTRY_CASES: Dict[str, Dict[str, Any]] = {
    "table1": {},
    "fig3": {"mus": (10.0,), "slo_deadlines": (0.1,),
             "arrival_rates": (10.0, 30.0), "duration": 40.0},
    "fig4": {"proportions": (0.5,), "arrival_rates": (20.0,), "duration": 40.0},
    "fig6": {"step_duration": 20.0},
    # measured, so the deflation-plan path of run_fixed_allocation is hashed
    "fig7": {"measured": True, "deflation_ratios": (0.0, 0.3), "duration": 20.0},
    "fig8": {"phase_duration": 30.0},
    "fig9": {"duration_minutes": 2},
    # trace_replay never touches the request lifecycle, so both planes
    # run the identical streaming kernel — the case pins that the spec
    # round-trips and the envelope stays plane-independent.  Sized so the
    # digest sees a histogram fed from more than one chunk: each shard
    # folds 4 functions x 12 minutes = 48 per-minute counts, the last
    # chunk of a trace is short (5 + 5 + 2), so one count value gathers
    # minutes from several chunks and functions, and every shard of the
    # default population holds a sporadic and a steady function.
    "fig9-at-scale": {"functions": 12, "duration_minutes": 12, "shards": 3,
                      "chunk_minutes": 5},
    "fig10": {"duration": 120.0, "fail_at": 30.0, "recover_at": 60.0},
    "fig11": {"duration": 40.0},
    "node-failure-recovery": {"duration": 120.0, "fail_at": 30.0,
                              "recover_at": 60.0},
    "rolling-node-churn": {"phase": 20.0},
    "flaky-containers": {"duration": 60.0},
    "policy-shootout": {"duration": 40.0},
    "quickstart": {"duration": 30.0},
    "video-analytics-burst": {"bursts": 1, "burst_length": 20.0,
                              "idle_length": 30.0},
    "overload-fair-share": {"phase_duration": 20.0},
    "azure-replay": {"duration_minutes": 2},
}

#: Federated scenarios run only on the event-level plane — the spec
#: layer rejects ``data_plane="columnar"`` with a federation.
FEDERATED_CASES: Dict[str, Dict[str, Any]] = {
    "fig12": {"duration": 40.0},
    "site-outage-failover": {"duration": 60.0},
    "partitioned-control-plane": {"duration": 60.0},
    "flash-crowd-one-region": {"duration": 60.0},
}

def reset_request_ids() -> None:
    """Rewind the global request-id stream so every run sees the same ids."""
    import repro.sim.request as request_module

    request_module._request_counter = itertools.count(0)


def shards_of(built: Any) -> List[Any]:
    """A builder's shards: the sweep expansion, or the single spec."""
    return built.expand() if hasattr(built, "expand") else [built]


def _sha(value: Any) -> str:
    """sha256 of the canonical JSON of ``value``."""
    from repro.scenarios.spec import canonical_json

    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def digest_rows() -> Iterator[Tuple[str, str, str, str, str]]:
    """``(name, shard, plane, echo sha256, payload sha256)`` for every run."""
    from repro.scenarios import apply_overrides, build, run_scenario

    cases = dict(REGISTRY_CASES, **FEDERATED_CASES)
    for name in sorted(cases):
        for spec in shards_of(build(name, **cases[name])):
            planes = [spec]
            if spec.federation is None:
                planes.append(apply_overrides(spec, {"data_plane": "columnar"}))
            for variant in planes:
                reset_request_ids()
                data = dict(run_scenario(variant).data)
                echo = data.pop("scenario")
                yield name, spec.name, variant.data_plane, _sha(echo), _sha(data)


def _read(path: str) -> Dict[Tuple[str, str, str], Tuple[str, str]]:
    """Parse a digest listing back into ``{(name, shard, plane): (echo, payload)}``."""
    table = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        name, shard, plane, echo, payload = line.split()
        table[(name, shard, plane)] = (echo, payload)
    return table


def compare(base_path: str, head_path: str) -> int:
    """Print what differs between two listings; 1 when a shared payload moved."""
    base, head = _read(base_path), _read(head_path)
    moved = 0
    for key in sorted(set(base) | set(head)):
        label = "  ".join(key)
        if key not in base or key not in head:
            print(f"only in {'head' if key in head else 'base'}: {label}")
        elif base[key][1] != head[key][1]:
            moved += 1
            print(f"PAYLOAD differs: {label}  {base[key][1]} -> {head[key][1]}")
        elif base[key][0] != head[key][0]:
            print(f"echo differs: {label}  {base[key][0]} -> {head[key][0]}")
    shared = len(set(base) & set(head))
    print(f"{shared} shared runs, {moved} payload digest(s) differ")
    return 1 if moved else 0


def main(argv: List[str]) -> int:
    """No arguments: print the digests.  Two files: compare them."""
    if len(argv) == 2:
        return compare(*argv)
    if argv:
        print("usage: envelope_digests.py [BASE.txt HEAD.txt]", file=sys.stderr)
        return 2
    for row in digest_rows():
        print("  ".join(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
