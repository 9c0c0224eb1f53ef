#!/usr/bin/env python
"""Alternating base/head pairs of the repo benchmark, with the verdict spelled out.

    python tools/bench_pairs.py --base ../base-tree --workload steady_event \\
        --pairs 10 --seed 7 --seconds 24

Each pair runs ``benchmarks/e2e/run.py --workload W --trace 0`` once in
the base tree and once in the head tree (this checkout, or ``--head``),
every tree with its *own unmodified* copy of the harness, and the side
that goes first alternates from pair to pair so a host that drifts
charges both sides alike.  Give both sides a fresh export (``git
worktree add``, ``git archive``): a checkout that has run its tests
carries ``.git``, ``.hypothesis`` and a warm ``__pycache__``, which has
read as a lopsided +2-5 % on workloads whose code had not changed.  The
tool refuses to start (exit 2, naming the tree) when only one of the two
trees has a ``__pycache__`` under ``src/`` or ``benchmarks/``: on a host
that compiles every launch from source, the warm side reads a
``setup_s`` gain no code change earned.  Per end-to-end metric of ``BENCHMARK.json``
it prints each side's median, quartiles and n, the pairs head won (ties
count for neither side) and a verdict:

``gain`` / ``worse``
    one side wins at least nine tenths of the pairs *and* the medians
    are further apart than the base's own quartile spread; printed with
    ``(inside bound)`` when the medians differ by less than a tenth of
    the metric's declared bound (a resolved difference, but a small one:
    +0.2 MB of ``peak_rss_mb`` against a bound of 10 %);
``equal``
    every run of both sides read the same value (simulated statistics);
``unresolved``
    anything else — the spread hides whatever difference there is.

The exit code is the host-independent regression gate: 1 only when, on
a ``--metric`` (default ``wall_s``), head lost *every* pair and its
median is worse than the base's by more than that metric's declared
bound; otherwise 0.  Standard library only.

``--out PATH`` also writes the comparison as a ``repro/bench-pairs@1``
JSON record, the form a claimed gain is committed in (``BENCH_*.json``):
the two trees (each a commit SHA where the tree has a ``.git``, else its
path as given), the seed, the timed seconds and the pair count, and per
workload the failed/attempted operations and, per metric, every pair's
value on each side, each side's ``[q1, median, q3]``, the pairs head won
and lost, the relative change of the medians and the verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HEAD = Path(__file__).resolve().parents[1]

#: Share of the pairs one side must win before a difference counts.
WIN_SHARE = 0.9

#: A resolved difference under this share of the declared bound is labelled as inside it.
INSIDE_BOUND_SHARE = 0.1

#: Schema identifier of the ``--out`` record.
RECORD_SCHEMA = "repro/bench-pairs@1"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced run of ``workload`` by ``tree``'s own harness: its driver-format result."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(tree), stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py --workload {workload} exited {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: Sequence[float], head: Sequence[float], better: str,
          bound: float) -> Dict[str, Any]:
    """Pairs won, medians, spread and the verdict for one metric (see the module docstring)."""
    sign = -1.0 if better == "lower" else 1.0
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    lost = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    b_q1, b_med, b_q3 = quartiles(base)
    h_q1, h_med, h_q3 = quartiles(head)
    apart = abs(h_med - b_med) > b_q3 - b_q1
    if won == lost == 0:
        verdict = "equal"
    elif won >= WIN_SHARE * len(base) and apart and sign * (h_med - b_med) > 0:
        verdict = "gain"
    elif lost >= WIN_SHARE * len(base) and apart and sign * (h_med - b_med) < 0:
        verdict = "worse"
    else:
        verdict = "unresolved"
    change = (h_med - b_med) / b_med if b_med else 0.0
    return {
        "base": (b_q1, b_med, b_q3), "head": (h_q1, h_med, h_q3), "n": len(base),
        "won": won, "lost": lost, "change": change, "verdict": verdict,
        "inside_bound": (verdict in ("gain", "worse")
                         and abs(change) < INSIDE_BOUND_SHARE * bound),
        "regression": lost == len(base) and -sign * change > bound,
    }


def compare(base: Path, head: Path, workload: str, pairs: int, seed: int, seconds: float,
            declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Run the pairs for one workload, print its table, return what the record keeps of it.

    That is the failed and attempted operations per side and, per
    metric, :func:`judge`'s row plus every pair's value on each side.
    """
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "head": []}
    trees = {"base": base, "head": head}
    for pair in range(pairs):
        for side in (("base", "head") if pair % 2 == 0 else ("head", "base")):
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            wall = runs[side][-1]["metrics"]["wall_s"]["value"]
            print(f"  pair {pair + 1:2d} {side}: wall_s {wall:.4f}", file=sys.stderr, flush=True)
    failed = {side: sum(r["failed"] for r in results) for side, results in runs.items()}
    attempted = {side: sum(r["attempted"] for r in results) for side, results in runs.items()}
    print(f"\n== {workload}: {pairs} alternating pairs, seed {seed}, --seconds {seconds:g}; "
          f"failed operations base {failed['base']}/{attempted['base']}, "
          f"head {failed['head']}/{attempted['head']}")
    print(f"  {'metric':16s} {'base median (q1..q3)':>32s} {'head median (q1..q3)':>32s} "
          f"{'change':>8s} {'won':>7s}  verdict")
    judged: Dict[str, Dict[str, Any]] = {}
    for metric in declared:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in runs.items()}
        row = judged[name] = dict(judge(values["base"], values["head"], metric["better"],
                                        metric["bound"]), values=values)
        cells = ["{1:.4f} ({0:.4f}..{2:.4f})".format(*row[side]) for side in ("base", "head")]
        print(f"  {name:16s} {cells[0]:>32s} {cells[1]:>32s} {row['change']:+8.1%} "
              f"{row['won']:3d}/{row['n']:<3d}  {row['verdict']}"
              + (" (inside bound)" if row["inside_bound"] else "")
              + ("  <-- REGRESSION (past the declared bound)" if row["regression"] else ""))
    return {"failed": failed, "attempted": attempted, "metrics": judged}


def has_bytecode(tree: Path) -> bool:
    """Whether ``tree`` holds a ``__pycache__`` under ``src/`` or ``benchmarks/``."""
    return any(next((tree / top).rglob("__pycache__"), None) is not None
               for top in ("src", "benchmarks"))


def tree_identity(tree: Path) -> str:
    """The commit SHA checked out in ``tree`` when it has a ``.git``, else its path."""
    if (tree / ".git").exists():
        done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              check=False)
        if done.returncode == 0:
            return done.stdout.strip()
    return str(tree)


def record(base: Path, head: Path, seed: int, seconds: float, pairs: int,
           compared: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The ``repro/bench-pairs@1`` record of ``compare``'s results, one entry per workload."""
    workloads = {}
    for workload, result in compared.items():
        metrics = {}
        for name, row in result["metrics"].items():
            metrics[name] = {
                "base": row["values"]["base"], "head": row["values"]["head"],
                "base_quartiles": list(row["base"]), "head_quartiles": list(row["head"]),
                "won": row["won"], "lost": row["lost"], "change": row["change"],
                "verdict": row["verdict"], "inside_bound": row["inside_bound"],
            }
        workloads[workload] = {"failed": result["failed"], "attempted": result["attempted"],
                               "metrics": metrics}
    return {"schema": RECORD_SCHEMA, "base": tree_identity(base), "head": tree_identity(head),
            "seed": seed, "seconds": seconds, "pairs": pairs, "workloads": workloads}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line, run every workload's pairs, gate on ``--metric``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the parent commit's tree")
    parser.add_argument("--head", type=Path, default=HEAD, help="the change's tree (default: this one)")
    parser.add_argument("--workload", nargs="+", required=True, help="BENCHMARK.json workload(s)")
    parser.add_argument("--metric", nargs="+", default=["wall_s"],
                        help="metric(s) the exit code gates on (default wall_s)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--out", type=Path, help="also write a repro/bench-pairs@1 record here")
    args = parser.parse_args(argv)

    declaration = json.loads((args.head / "BENCHMARK.json").read_text())
    declared = declaration["end_to_end"]
    unknown = set(args.metric) - {m["name"] for m in declared}
    if unknown or args.pairs < 1:
        parser.error(f"unknown metric(s) {sorted(unknown)}" if unknown else "--pairs must be >= 1")
    warm = [tree for tree in (args.base, args.head) if has_bytecode(tree)]
    if len(warm) == 1:
        print(f"refusing to start: only {warm[0]} has a __pycache__ under src/ or benchmarks/, "
              "so its launches skip compiling what the other tree compiles; remove it, or "
              "give both trees a fresh export", file=sys.stderr)
        return 2
    seconds = float(declaration["run_seconds"]) if args.seconds is None else args.seconds
    regressed = []
    compared = {}
    for workload in args.workload:
        compared[workload] = compare(args.base.resolve(), args.head.resolve(), workload,
                                     args.pairs, args.seed, seconds, declared)
        judged = compared[workload]["metrics"]
        regressed += [f"{workload}.{name}" for name in args.metric if judged[name]["regression"]]
    if args.out is not None:
        text = json.dumps(record(args.base, args.head, args.seed, seconds, args.pairs, compared),
                          indent=2, sort_keys=True)
        args.out.write_text(text + "\n", encoding="utf-8")
    if regressed:
        print(f"\nregression: head lost every pair and left the bound on {', '.join(regressed)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
