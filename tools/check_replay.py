#!/usr/bin/env python
"""Check a merged trace-replay envelope's schema, population and shard count.

The sharded replay smoke writes ``python -m repro replay ... -o FILE``
several times and byte-compares the files; this tool checks what the
bytes say:

1. ``schema`` is ``repro/trace-replay@1``;
2. ``totals.functions`` equals the population asked for (``--functions``);
3. ``shard_count`` equals the shards asked for (``--shards``);
4. with ``--same-as OTHER.json``: ``totals`` and ``percentiles`` equal
   OTHER's.  Counters and percentiles are both exact sums over the
   population, so a replay of the same population in any other number
   of shards must agree on both.

Usage::

    python tools/check_replay.py replay_a.json --functions 400 --shards 8 \
        --same-as replay_3_shards.json

Exit code 0 means every check held (and prints the invocation total and
the per-minute p99); a failed check exits 1 naming it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

SCHEMA = "repro/trace-replay@1"


def check(merged: dict, functions: int, shards: int, same_as: Optional[dict] = None) -> list:
    """The checks that failed, as messages (empty when the envelope is as asked)."""
    failures = []
    if merged.get("schema") != SCHEMA:
        failures.append(f"schema is {merged.get('schema')!r}, expected {SCHEMA!r}")
    got = merged.get("totals", {}).get("functions")
    if got != functions:
        failures.append(f"totals.functions is {got!r}, expected {functions}")
    if merged.get("shard_count") != shards:
        failures.append(f"shard_count is {merged.get('shard_count')!r}, expected {shards}")
    if same_as is not None:
        for group in ("totals", "percentiles"):
            if merged.get(group) != same_as.get(group):
                failures.append(f"{group} differ from the --same-as envelope's: "
                                f"{merged.get(group)!r} vs {same_as.get(group)!r}")
    return failures


def main(argv=None) -> int:
    """Read one merged envelope and report the checks."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="the merged replay envelope (JSON)")
    parser.add_argument("--functions", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--same-as", metavar="OTHER.json", default=None,
                        help="a replay of the same population whose totals and "
                             "percentiles this one must equal")
    args = parser.parse_args(argv)
    merged = json.loads(Path(args.path).read_text(encoding="utf-8"))
    other = None
    if args.same_as is not None:
        other = json.loads(Path(args.same_as).read_text(encoding="utf-8"))
    failures = check(merged, args.functions, args.shards, other)
    for failure in failures:
        print(f"replay check failed: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("replay smoke ok:",
          f"{merged['totals']['invocations']} invocations,",
          f"p99 per-minute {merged['percentiles']['per_minute_invocations']['p99']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
