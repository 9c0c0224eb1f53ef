"""The run path's import budget: numpy is the only runtime dependency.

Counts, not timings, so they can gate in tier-1: ``import repro.cli``
used to drag in 106 modules of ``scipy`` and what it imports
(``numpy.f2py``, ``numpy.testing``, ``unittest``, ``charset_normalizer``)
— about 0.12 s of every process start, sweep workers included — for one
``gammaln`` and one ``logsumexp``.  Each check runs in a fresh
interpreter, because this test process has scipy loaded as an oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with only ``src/`` on the path; return stdout."""
    completed = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_scenarios_run_with_scipy_unimportable():
    out = run_fresh("""
import sys
sys.modules["scipy"] = None  # any `import scipy[.x]` now raises ImportError
import repro, repro.cli, repro.scenarios
from repro.scenarios import apply_overrides, build, run_scenario

quickstart = build("quickstart", duration=30.0)
for plane in ("event", "columnar"):
    data = run_scenario(apply_overrides(quickstart, {"data_plane": plane})).data
    assert data["metrics"]["counters"]["completions"] > 0
shard = build("fig9-at-scale", functions=12, duration_minutes=12, shards=3,
              chunk_minutes=5, sketch_size=16).expand()[0]
assert run_scenario(shard).data["replay"]["invocations"] > 0
assert repro.cli.main(["size", "--rate", "100", "--service-time", "0.1", "--slo", "0.1"]) == 0
print("ran without scipy")
""")
    assert out.endswith("ran without scipy\n")


def test_importing_the_cli_loads_no_scipy_chain():
    out = run_fresh("""
import sys
import repro.cli
heavy = ("scipy", "numpy.f2py", "numpy.testing", "unittest", "charset_normalizer")
print(sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy)))
""")
    assert out == "[]\n"
